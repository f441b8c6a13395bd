//! Quick trend sanity check: NDPExt vs baselines vs host on one workload
//! (the first argument, default `pr`), with each policy's Fig 2a latency
//! breakdown (see [`ndpx_bench::figures::sanity`]).

use ndpx_bench::figures;
use ndpx_bench::runner::Session;

fn main() {
    let workload: &'static str = std::env::args().nth(1).map(|s| &*s.leak()).unwrap_or("pr");
    figures::sanity(&mut Session::from_env(), workload);
}
