//! Figure 7: interconnect latency and miss rate, Nexus vs NDPExt: [`ndpx_bench::figures::fig07`].

use ndpx_bench::figures;
use ndpx_bench::runner::Session;

fn main() {
    figures::fig07(&mut Session::from_env());
}
