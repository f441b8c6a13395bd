//! Runs every figure and table of the paper in sequence — the one-command
//! paper reproduction. Honors `NDPX_SCALE` like the individual binaries.
//!
//! Every figure runs in this process on one [`Session`], so a cell that
//! several figures read is simulated once. Each section is printed as the
//! figure's own binary prints it, under a `======== <bin> <args>` header. A
//! failed figure is reported, the rest still run, and the exit status is 1.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ndpx_bench::figures::{self, FIG09_PANELS};
use ndpx_bench::runner::Session;
use ndpx_core::config::MemKind;

type Step = (&'static str, &'static str, fn(&mut Session));

const STEPS: [Step; 10] = [
    ("fig02_breakdown", "", figures::fig02),
    ("fig04_maxflow", "", |_| figures::fig04()),
    ("fig05_overall", "--mem hbm", |s| figures::fig05(s, MemKind::Hbm)),
    ("fig05_overall", "--mem hmc", |s| figures::fig05(s, MemKind::Hmc)),
    ("fig06_energy", "", figures::fig06),
    ("fig07_latency_miss", "", figures::fig07),
    ("fig08a_scaling", "", figures::fig08a),
    ("fig08b_cxl", "", figures::fig08b),
    ("tab_consistent_hash", "", figures::tab_consistent_hash),
    ("fig09_design", "all", |s| figures::fig09(s, &FIG09_PANELS)),
];

fn main() {
    let mut session = Session::from_env();
    if let Some(metrics) = &session.metrics {
        println!(
            "telemetry: each figure writes a <run>.cells.json run document under {}",
            metrics.display()
        );
    }
    let mut failed = 0;
    for (bin, args, figure) in STEPS {
        println!("\n======== {bin} {args} ========");
        if catch_unwind(AssertUnwindSafe(|| figure(&mut session))).is_err() {
            eprintln!("step {bin} {args} failed");
            failed += 1;
        }
    }
    eprintln!("reproduce: {} distinct cells simulated", session.simulated());
    if failed > 0 {
        eprintln!("{failed} step(s) failed");
        std::process::exit(1);
    }
}
