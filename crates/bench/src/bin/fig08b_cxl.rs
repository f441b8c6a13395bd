//! Figure 8(b): NDPExt speedup over Nexus vs CXL latency: [`ndpx_bench::figures::fig08b`].

use ndpx_bench::figures;
use ndpx_bench::runner::Session;

fn main() {
    figures::fig08b(&mut Session::from_env());
}
