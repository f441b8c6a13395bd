//! Figure 4(b): host runtime of the max-flow sampler assignment: [`ndpx_bench::figures::fig04`].

use ndpx_bench::figures;

fn main() {
    figures::fig04();
}
