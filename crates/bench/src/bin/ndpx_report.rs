//! Run-diff reporter: compare two perf-gauge reports, render a markdown
//! trend report, and (optionally, under strict mode) gate on regressions.
//!
//! Usage:
//!   ndpx_report BASELINE.json CURRENT.json
//!       [--out report.md]          # where to write the markdown
//!                                  # (default ndpx_report.md; also stdout)
//!       [--threshold 10]           # regression threshold in percent
//!       [--strict]                 # exit 3 on throughput regressions
//!       [--timeline A.json B.json] # append a windowed-timeline diff
//!       [--registry A.json B.json] # append profile.*/slo.* deltas from
//!                                  # two `<run>.cells.json` run documents
//!
//! Exit status encodes signal quality, matching how CI consumes it:
//!
//! * `0` — clean, or throughput-only movement without strict mode;
//! * `1` — digest mismatch / missing cells (simulated results changed:
//!   always fatal, determinism is never advisory);
//! * `2` — usage or I/O error;
//! * `3` — throughput regression beyond threshold under strict mode.
//!
//! Regressions additionally print GitHub `::warning::` annotations so the
//! advisory CI step surfaces them on the workflow summary without failing
//! the build.

use ndpx_bench::report::{
    compare, diff_registry_phases, diff_timelines, parse_perf, render_markdown,
};

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("ndpx_report: cannot read {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut out_path = "ndpx_report.md".to_string();
    let mut threshold_pct: f64 = 10.0;
    let mut strict = false;
    let mut timeline_pair: Option<(String, String)> = None;
    let mut registry_pair: Option<(String, String)> = None;

    let mut i = 0;
    let take = |i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("ndpx_report: {flag} needs an argument");
            std::process::exit(2);
        })
    };
    while i < args.len() {
        match args[i].as_str() {
            "--out" => out_path = take(&mut i, "--out"),
            "--threshold" => {
                threshold_pct = take(&mut i, "--threshold").parse().unwrap_or_else(|_| {
                    eprintln!("ndpx_report: --threshold needs a number (percent)");
                    std::process::exit(2);
                })
            }
            "--strict" => strict = true,
            "--timeline" => {
                let a = take(&mut i, "--timeline");
                let b = take(&mut i, "--timeline");
                timeline_pair = Some((a, b));
            }
            "--registry" => {
                let a = take(&mut i, "--registry");
                let b = take(&mut i, "--registry");
                registry_pair = Some((a, b));
            }
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    let [base_path, cur_path] = positional.as_slice() else {
        eprintln!("usage: ndpx_report BASELINE.json CURRENT.json [--out F] [--threshold PCT] [--strict] [--timeline A B] [--registry A B]");
        std::process::exit(2);
    };

    let base = parse_perf(&read(base_path)).unwrap_or_else(|e| {
        eprintln!("ndpx_report: {base_path}: {e}");
        std::process::exit(2);
    });
    let cur = parse_perf(&read(cur_path)).unwrap_or_else(|e| {
        eprintln!("ndpx_report: {cur_path}: {e}");
        std::process::exit(2);
    });
    let cmp = compare(&base, &cur, threshold_pct / 100.0);

    let mut sections = Vec::new();
    if let Some((a, b)) = &timeline_pair {
        match diff_timelines(&read(a), &read(b), 12) {
            Ok(md) => sections.push(md),
            Err(e) => {
                eprintln!("ndpx_report: timeline diff failed: {e}");
                std::process::exit(2);
            }
        }
    }
    if let Some((a, b)) = &registry_pair {
        match diff_registry_phases(&read(a), &read(b)) {
            Ok(md) if !md.is_empty() => sections.push(md),
            Ok(_) => eprintln!("note: no profile.*/slo.* scopes in the run documents"),
            Err(e) => {
                eprintln!("ndpx_report: registry diff failed: {e}");
                std::process::exit(2);
            }
        }
    }

    let md = render_markdown(&base, &cur, &cmp, &sections);
    if let Err(e) = std::fs::write(&out_path, &md) {
        eprintln!("ndpx_report: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    print!("{md}");

    for key in &cmp.digest_mismatches {
        println!("::warning::digest mismatch in cell {key} — simulated results changed");
    }
    for d in &cmp.regressions {
        println!(
            "::warning::{} regressed {:+.1}% ({:.1} -> {:.1}), threshold {:.0}%",
            d.name,
            d.pct(),
            d.baseline,
            d.current,
            threshold_pct
        );
    }

    if !cmp.is_clean() {
        eprintln!(
            "ndpx_report: {} digest mismatch(es), {} missing cell(s)",
            cmp.digest_mismatches.len(),
            cmp.missing_cells.len()
        );
        std::process::exit(1);
    }
    if strict && !cmp.regressions.is_empty() {
        eprintln!(
            "ndpx_report: {} regression(s) beyond {threshold_pct:.0}% (strict mode)",
            cmp.regressions.len()
        );
        std::process::exit(3);
    }
    eprintln!(
        "ndpx_report: clean ({} aggregates compared, {} regression(s) advisory) -> {out_path}",
        cmp.aggregates.len(),
        cmp.regressions.len()
    );
}
