//! Figure 8(a): NDPExt speedup over Nexus across core counts: [`ndpx_bench::figures::fig08a`].

use ndpx_bench::figures;
use ndpx_bench::runner::Session;

fn main() {
    figures::fig08a(&mut Session::from_env());
}
