//! Ablation study of the NDPExt mechanisms: [`ndpx_bench::figures::ablation`].

use ndpx_bench::figures;
use ndpx_bench::runner::Session;

fn main() {
    figures::ablation(&mut Session::from_env());
}
