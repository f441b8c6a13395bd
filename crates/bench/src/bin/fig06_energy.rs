//! Figure 6: energy breakdown, NDPExt vs Nexus: [`ndpx_bench::figures::fig06`].

use ndpx_bench::figures;
use ndpx_bench::runner::Session;

fn main() {
    figures::fig06(&mut Session::from_env());
}
