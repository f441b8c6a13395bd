//! Figure 2(a): access-latency breakdown, NDP vs NUCA: [`ndpx_bench::figures::fig02`].

use ndpx_bench::figures;
use ndpx_bench::runner::Session;

fn main() {
    figures::fig02(&mut Session::from_env());
}
