//! Figure 5: overall speedup over the non-NDP host (see
//! [`ndpx_bench::figures::fig05`]). Run with `--mem hbm` (Fig. 5a, default)
//! or `--mem hmc` (Fig. 5b).

use ndpx_bench::figures;
use ndpx_bench::runner::Session;
use ndpx_core::config::MemKind;

fn main() {
    let mem = match std::env::args().skip_while(|a| a != "--mem").nth(1).as_deref() {
        Some("hmc") => MemKind::Hmc,
        _ => MemKind::Hbm,
    };
    figures::fig05(&mut Session::from_env(), mem);
}
