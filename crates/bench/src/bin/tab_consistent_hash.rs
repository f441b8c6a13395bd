//! §V-D table: consistent hashing vs bulk invalidation:
//! [`ndpx_bench::figures::tab_consistent_hash`].

use ndpx_bench::figures;
use ndpx_bench::runner::Session;

fn main() {
    figures::tab_consistent_hash(&mut Session::from_env());
}
