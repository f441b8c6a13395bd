//! Figure 9: design-choice studies ([`ndpx_bench::figures::fig09`]). The
//! argument names one panel (`assoc`, `block`, `affine-cap`, `sampler`,
//! `method`, `interval`) or `all` of them, the default.

use ndpx_bench::figures::{self, FIG09_PANELS};
use ndpx_bench::runner::Session;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let panels = match FIG09_PANELS.iter().find(|&&p| p == which) {
        Some(panel) => vec![*panel],
        None if which == "all" => FIG09_PANELS.to_vec(),
        None => {
            eprintln!("unknown panel `{which}`; use {}|all", FIG09_PANELS.join("|"));
            std::process::exit(2);
        }
    };
    figures::fig09(&mut Session::from_env(), &panels);
}
