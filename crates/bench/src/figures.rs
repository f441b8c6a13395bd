//! The paper's figures and tables, one function each.
//!
//! Every function makes at most one [`Session::run`] submission, naming
//! each cell by its sweep point, and prints its section of the paper. The
//! `fig*`, `tab_*`, `sanity` and `ablation` binaries each call one of them
//! on a fresh session; `reproduce` calls the paper's figures in one session,
//! so a cell that several figures read (Fig 6 and Fig 7 are cells of
//! Fig 5a; every sweep contains its default point) is simulated once.

use std::sync::Arc;
use std::time::Instant;

use ndpx_core::config::{MemKind, PolicyKind, ReconfigTransfer, SystemConfig};
use ndpx_core::runtime::maxflow::assign_samplers;
use ndpx_core::stats::{LatComponent, RunReport};
use ndpx_noc::topology::{IntraKind, Topology};
use ndpx_sim::rng::Xoshiro256;
use ndpx_sim::time::Time;
use ndpx_workloads::{ALL_WORKLOADS, REPRESENTATIVE_WORKLOADS};

use crate::pool::CellResult;
use crate::runner::{geomean, or_exit, print_row, BenchScale, Cell, ConfigTweak, RunSpec, Session};

/// A submission's reports, in cell order; an invalid cell ends the process
/// with exit status 2 ([`or_exit`]).
fn reports(run: Result<Vec<CellResult<RunReport>>, String>) -> Vec<RunReport> {
    or_exit(run).into_iter().map(|r| r.value).collect()
}

/// A shareable configuration change.
fn tweak(f: impl Fn(&mut SystemConfig) + Send + Sync + 'static) -> ConfigTweak {
    Arc::new(f)
}

/// Makespan of `base` over that of `r` (above 1: `r` is faster).
fn time_ratio(base: &RunReport, r: &RunReport) -> f64 {
    base.sim_time.as_ps() as f64 / r.sim_time.as_ps() as f64
}

/// Geomean makespan in picoseconds.
fn geotime(reports: &[RunReport]) -> f64 {
    geomean(reports.iter().map(|r| r.sim_time.as_ps() as f64))
}

/// The Nexus and NDPExt cells of every representative workload on HBM, in
/// that order per workload, tweaked and named by the sweep `point`.
fn nexus_vs_ndpext(scale: BenchScale, point: &str, tweak: ConfigTweak) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &w in &REPRESENTATIVE_WORKLOADS {
        for p in [PolicyKind::Nexus, PolicyKind::NdpExt] {
            let spec =
                RunSpec { tweak: Some(tweak.clone()), ..RunSpec::new(MemKind::Hbm, p, w, scale) };
            cells.push(Cell::ndp(point, spec));
        }
    }
    cells
}

/// Geomean NDPExt-over-Nexus speedup of cells laid out as
/// [`nexus_vs_ndpext`] lays them out.
fn nexus_over_ndpext(reports: &[RunReport]) -> f64 {
    geomean(reports.chunks(2).map(|pair| time_ratio(&pair[0], &pair[1])))
}

fn print_breakdown(label: &str, r: &RunReport) {
    let parts: Vec<String> = LatComponent::ALL
        .iter()
        .map(|&c| format!("{}={:.1}%", c.label(), r.breakdown.fraction(c) * 100.0))
        .collect();
    println!("{label:<10} hit-rate={:.2}  {}", 1.0 - r.miss_rate(), parts.join("  "));
}

/// Figure 2(a): access-latency breakdown, NDP vs conventional NUCA, both
/// under static cacheline interleaving, running PageRank.
///
/// Expected shape (paper): the NDP system spends a much larger share of
/// access latency on the interconnect than the NUCA host (32% vs 13%) and a
/// visible share on metadata, while achieving a much higher cache hit rate
/// (70% vs 47%) and thus a smaller next-level-memory share.
pub fn fig02(s: &mut Session) {
    println!("# Fig 2a: latency breakdown under static interleaving, PageRank");
    let scale = s.scale;
    let spec = RunSpec::new(MemKind::Hbm, PolicyKind::StaticInterleave, "pr", scale);
    let cells = [Cell::ndp("", spec), Cell::host("pr", scale.ops_per_core())];
    let reports = reports(s.run("fig02_breakdown", cells));
    let (ndp, host) = (&reports[0], &reports[1]);

    print_breakdown("NUCA", host);
    print_breakdown("NDP", ndp);

    let noc = |r: &RunReport| {
        r.breakdown.fraction(LatComponent::NocIntra) + r.breakdown.fraction(LatComponent::NocInter)
    };
    println!(
        "\ninterconnect share: NDP {:.1}% vs NUCA {:.1}% (paper: 32% vs 13%)",
        noc(ndp) * 100.0,
        noc(host) * 100.0
    );
    println!(
        "cache hit rate:     NDP {:.2} vs NUCA {:.2} (paper: 0.70 vs 0.47)",
        1.0 - ndp.miss_rate(),
        1.0 - host.miss_rate()
    );
}

/// Figure 4(b): host-processor execution time of the max-flow sampler
/// assignment as the stream count grows. A wall-clock measurement: it
/// simulates no cell.
///
/// Expected shape (paper): well under half a millisecond even at 512
/// streams on 64 units.
pub fn fig04() {
    println!("# Fig 4b: sampler-assignment (Edmonds-Karp) host runtime");
    println!("{:>8}  {:>12}  {:>8}", "streams", "time_us", "covered");
    let units = 64;
    let samplers = 4;
    for &streams in &[32usize, 64, 128, 256, 512] {
        // Each unit accesses a random ~25% subset of the streams.
        let mut rng = Xoshiro256::seed_from(42);
        let accessed: Vec<Vec<usize>> =
            (0..units).map(|_| (0..streams).filter(|_| rng.chance(0.25)).collect()).collect();
        // Median of several runs for a stable wall-clock figure.
        let mut times: Vec<f64> = (0..9)
            .map(|_| {
                let t0 = Instant::now();
                let a = assign_samplers(&accessed, streams, samplers);
                let dt = t0.elapsed().as_secs_f64() * 1e6;
                assert!(a.covered <= streams);
                dt
            })
            .collect();
        times.sort_by(f64::total_cmp);
        let a = assign_samplers(&accessed, streams, samplers);
        println!("{streams:>8}  {:>12.1}  {:>8}", times[times.len() / 2], a.covered);
    }
    println!("\n(paper: < 500 us to assign 512 streams)");
}

/// Figure 5: overall performance comparison on `mem` (Fig 5a: HBM, Fig 5b:
/// HMC): for every workload and policy, the speedup over the non-NDP host
/// (the paper normalizes all NDP configurations to host execution).
///
/// Expected shape (paper): NDP ≫ host (4.3–7.3×); NDPExt best overall,
/// ≈1.41× (HBM) / 1.48× (HMC) over Nexus on average, up to ≈2.43× on recsys;
/// NDPExt-static between the baselines and NDPExt.
pub fn fig05(s: &mut Session, mem: MemKind) {
    let scale = s.scale;
    println!(
        "# Fig 5{}: speedup over non-NDP host ({} scale)",
        if mem == MemKind::Hmc { "b (HMC)" } else { "a (HBM)" },
        format!("{scale:?}").to_lowercase()
    );

    // One submission covers the NDP matrix and the per-workload host
    // baselines, so host runs overlap with NDP cells instead of serializing
    // after them.
    let ndp = ALL_WORKLOADS.iter().flat_map(|&w| {
        PolicyKind::ALL.iter().map(move |&p| Cell::ndp("", RunSpec::new(mem, p, w, scale)))
    });
    let hosts = ALL_WORKLOADS.iter().map(|&w| Cell::host(w, scale.ops_per_core()));
    let run = format!("fig05_overall_{}", if mem == MemKind::Hmc { "hmc" } else { "hbm" });
    let mut reports = reports(s.run(&run, ndp.chain(hosts)));
    let hosts = reports.split_off(ALL_WORKLOADS.len() * PolicyKind::ALL.len());

    let header: Vec<String> = std::iter::once("workload".to_string())
        .chain(PolicyKind::ALL.iter().map(|p| p.label().to_string()))
        .collect();
    let widths = [12usize, 8, 8, 10, 8, 14, 8];
    print_row(&header, &widths);

    let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); PolicyKind::ALL.len()];
    for (wi, &w) in ALL_WORKLOADS.iter().enumerate() {
        let host = &hosts[wi];
        // Same total op count on both systems: speedup is the makespan
        // ratio scaled by the op-count ratio.
        let mut cells = vec![w.to_string()];
        for (pi, _) in PolicyKind::ALL.iter().enumerate() {
            let r = &reports[wi * PolicyKind::ALL.len() + pi];
            let speedup = time_ratio(host, r) * (r.ops as f64 / host.ops as f64);
            per_policy[pi].push(speedup);
            cells.push(format!("{speedup:.2}"));
        }
        print_row(&cells, &widths);
    }
    let mut cells = vec!["geomean".to_string()];
    for vals in &per_policy {
        cells.push(format!("{:.2}", geomean(vals.iter().copied())));
    }
    print_row(&cells, &widths);

    // The paper's headline: NDPExt over the second-best baseline (Nexus).
    let nexus_i = PolicyKind::ALL.iter().position(|&p| p == PolicyKind::Nexus).expect("listed");
    let ndpx_i = PolicyKind::ALL.iter().position(|&p| p == PolicyKind::NdpExt).expect("listed");
    let ratios: Vec<f64> =
        per_policy[ndpx_i].iter().zip(&per_policy[nexus_i]).map(|(a, b)| a / b).collect();
    let max = ratios.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\nNDPExt over Nexus: geomean {:.2}x, max {:.2}x (paper: 1.41x avg, 2.43x max)",
        geomean(ratios.iter().copied()),
        max
    );
}

/// Figure 6: energy breakdown, NDPExt vs Nexus, normalized to Nexus.
///
/// Expected shape (paper): NDPExt saves ≈40% total energy on average —
/// static energy follows execution time, DRAM energy drops (fewer tag
/// accesses, fewer extended-memory misses), interconnect energy roughly
/// halves.
pub fn fig06(s: &mut Session) {
    println!("# Fig 6: energy breakdown (normalized to Nexus total)");
    let head = |p: &str| ["st", "dram", "noc", "cxl", "tot"].map(|c| format!("{p}-{c}"));
    let side = |p| head(p).map(|h| format!("{h:>7}")).join(" ");
    println!("{:<11} {} | {}", "workload", side("nx"), side("nd"));

    let scale = s.scale;
    let cells = ALL_WORKLOADS.iter().flat_map(|&w| {
        [PolicyKind::Nexus, PolicyKind::NdpExt]
            .map(|p| Cell::ndp("", RunSpec::new(MemKind::Hbm, p, w, scale)))
    });
    let reports = reports(s.run("fig06_energy", cells));

    let mut totals = Vec::new();
    for (&w, pair) in ALL_WORKLOADS.iter().zip(reports.chunks(2)) {
        let base = pair[0].energy.total().as_pj();
        // The static, DRAM, NoC and CXL shares and the total of a report.
        let shares = |r: &RunReport| {
            let e = &r.energy;
            [e.static_, e.dram, e.noc, e.cxl, e.total()].map(|x| x.as_pj() / base)
        };
        let row = |r| shares(r).map(|x| format!("{x:>7.3}")).join(" ");
        println!("{w:<11} {} | {}", row(&pair[0]), row(&pair[1]));
        totals.push(shares(&pair[1])[4]);
    }
    println!(
        "\nNDPExt total energy vs Nexus: geomean {:.2} (paper: ~0.60, i.e. 40.3% saving)",
        geomean(totals)
    );
}

/// Figure 7: average interconnect latency (bars) and DRAM-cache miss rate
/// (dots), Nexus vs NDPExt, on a representative workload subset.
///
/// Expected shape (paper): NDPExt sharply reduces interconnect latency
/// (e.g. hotspot 113 ns → 38 ns) via placement and replication; miss rates
/// drop for spatial workloads (block prefetching) and may rise slightly
/// where replication trades capacity (mv).
pub fn fig07(s: &mut Session) {
    println!("# Fig 7: interconnect latency and miss rate, Nexus vs NDPExt");
    println!(
        "{:<11} {:>12} {:>12} {:>10} {:>10}",
        "workload", "nexus_icn_ns", "ndpx_icn_ns", "nexus_miss", "ndpx_miss"
    );
    let reports = reports(s.run("fig07_latency_miss", nexus_vs_ndpext(s.scale, "", tweak(|_| {}))));
    for (&w, pair) in REPRESENTATIVE_WORKLOADS.iter().zip(reports.chunks(2)) {
        let (nexus, ndpx) = (&pair[0], &pair[1]);
        println!(
            "{:<11} {:>12.1} {:>12.1} {:>10.3} {:>10.3}",
            w,
            nexus.avg_interconnect().as_ns_f64(),
            ndpx.avg_interconnect().as_ns_f64(),
            nexus.miss_rate(),
            ndpx.miss_rate()
        );
    }
}

/// Figure 8(a): NDPExt speedup over Nexus across NDP core counts,
/// presented as `#stacks × #cores-per-stack`.
///
/// Expected shape (paper): more stacks at the same core count raise the
/// speedup (up to 1.65× at 16 stacks); fewer cores shrink it (1.09× at 32
/// cores); 256 cores raise it further (1.75×); a single unit still wins
/// 1.16× from the stream abstraction alone.
pub fn fig08a(s: &mut Session) {
    /// `(label, stacks_x, stacks_y, units_x, units_y)` — cores = product.
    const CONFIGS: [(&str, usize, usize, usize, usize); 6] = [
        ("4x32", 2, 2, 8, 4),
        ("8x16", 4, 2, 4, 4),
        ("16x8", 4, 4, 4, 2),
        ("4x8", 2, 2, 4, 2),
        ("16x16", 4, 4, 4, 4),
        ("1x1", 1, 1, 1, 1),
    ];
    println!("# Fig 8a: NDPExt speedup over Nexus vs core count (stacks x cores/stack)");
    println!("{:>8} {:>7} {:>10}", "config", "cores", "speedup");
    let topo = |(_, stacks_x, stacks_y, units_x, units_y): (&str, _, _, _, _)| Topology {
        stacks_x,
        stacks_y,
        units_x,
        units_y,
        intra: IntraKind::Crossbar,
    };
    let scale = s.scale;
    let cells = CONFIGS.iter().flat_map(|&c| {
        let t = topo(c);
        nexus_vs_ndpext(scale, &format!("{}/", c.0), tweak(move |cfg| cfg.topology = t))
    });
    let reports = reports(s.run("fig08a_scaling", cells));
    for (&c, point) in CONFIGS.iter().zip(reports.chunks(2 * REPRESENTATIVE_WORKLOADS.len())) {
        println!("{:>8} {:>7} {:>10.2}", c.0, topo(c).units(), nexus_over_ndpext(point));
    }
}

/// Figure 8(b): NDPExt speedup over Nexus at different CXL link latencies.
///
/// Expected shape (paper): higher link latency makes misses to the extended
/// memory dearer, so NDPExt's better placement pays off more — speedups grow
/// from ≈1.33× at 50 ns to ≈1.50× at 400 ns.
pub fn fig08b(s: &mut Session) {
    const LATENCIES_NS: [u64; 4] = [50, 100, 200, 400];
    println!("# Fig 8b: NDPExt speedup over Nexus vs CXL link latency");
    println!("{:>10} {:>10}", "latency_ns", "speedup");
    let scale = s.scale;
    let cells = LATENCIES_NS.iter().flat_map(|&ns| {
        let latency = tweak(move |cfg| cfg.cxl = cfg.cxl.with_latency(Time::from_ns(ns)));
        nexus_vs_ndpext(scale, &format!("{ns}ns/"), latency)
    });
    let reports = reports(s.run("fig08b_cxl", cells));
    for (ns, point) in LATENCIES_NS.iter().zip(reports.chunks(2 * REPRESENTATIVE_WORKLOADS.len())) {
        println!("{ns:>10} {:>10.2}", nexus_over_ndpext(point));
    }
}

/// §V-D table: consistent hashing vs bulk invalidation at reconfiguration.
///
/// Expected shape (paper): consistent hashing cuts invalidation traffic
/// (paper: −9.4% on average) and yields a small overall speedup (+3.7%);
/// migration requests stay a small fraction of all accesses (~1.3%).
pub fn tab_consistent_hash(s: &mut Session) {
    println!("# V-D: consistent hashing vs bulk invalidation (NDPExt)");
    println!(
        "{:<11} {:>10} {:>10} {:>9} {:>10}",
        "workload", "inv_bulk", "inv_cons", "speedup", "migr_frac"
    );
    let scale = s.scale;
    let cells = ALL_WORKLOADS.iter().flat_map(|&w| {
        [
            ("bulk/", ReconfigTransfer::BulkInvalidate),
            ("consistent/", ReconfigTransfer::ConsistentHash),
        ]
        .map(|(point, transfer)| {
            let spec = RunSpec::new(MemKind::Hbm, PolicyKind::NdpExt, w, scale)
                .with_tweak(move |cfg| cfg.transfer = transfer);
            Cell::ndp(point, spec)
        })
    });
    let reports = reports(s.run("tab_consistent_hash", cells));
    let mut speedups = Vec::new();
    let mut inv_ratios = Vec::new();
    for (&w, pair) in ALL_WORKLOADS.iter().zip(reports.chunks(2)) {
        let (bulk, cons) = (&pair[0], &pair[1]);
        let speedup = time_ratio(bulk, cons);
        let migr_frac =
            cons.migrations as f64 / (cons.cache_hits + cons.cache_misses).max(1) as f64;
        println!(
            "{:<11} {:>10} {:>10} {:>9.3} {:>10.4}",
            w, bulk.invalidations, cons.invalidations, speedup, migr_frac
        );
        speedups.push(speedup);
        if bulk.invalidations > 0 {
            inv_ratios.push((cons.invalidations.max(1)) as f64 / bulk.invalidations as f64);
        }
    }
    println!(
        "\nspeedup geomean {:.3} (paper: 1.037); invalidation ratio geomean {:.3} (paper: ~0.91)",
        geomean(speedups),
        geomean(inv_ratios)
    );
}

/// One swept value of a Fig 9 panel or an ablation row: its label, the
/// policy, and the configuration change.
type Point = (String, PolicyKind, ConfigTweak);

/// NDPExt points that apply `set` with each value, labelled by `label`.
fn ndpext_points<T: Copy + Send + Sync + 'static>(
    values: &[T],
    label: impl Fn(T) -> String,
    set: fn(&mut SystemConfig, T),
) -> Vec<Point> {
    values.iter().map(|&v| (label(v), PolicyKind::NdpExt, tweak(move |c| set(c, v)))).collect()
}

/// One Fig 9 panel: runtimes normalized to the row at `base` (the paper's
/// default value of the swept parameter).
struct Panel {
    name: &'static str,
    title: String,
    column: &'static str,
    points: Vec<Point>,
    base: usize,
}

impl Panel {
    /// A panel labelled by the swept values themselves.
    fn sweep<T: Copy + std::fmt::Display + Send + Sync + 'static>(
        name: &'static str,
        column: &'static str,
        values: &[T],
        base: usize,
        set: fn(&mut SystemConfig, T),
    ) -> Self {
        let title = format!("# Fig 9 ({column}); speedup normalized to the default value");
        Panel { name, title, column, points: ndpext_points(values, |v| v.to_string(), set), base }
    }
}

/// The Fig 9 panels in print order.
fn fig09_panels() -> Vec<Panel> {
    vec![
        Panel::sweep("assoc", "indirect ways", &[1, 4, 16, 64], 0, |c, v| c.indirect_ways = v),
        Panel::sweep("block", "affine block B", &[256, 512, 1024, 2048, 4096], 2, |c, v| {
            c.affine_block = v;
        }),
        Panel {
            // Fractions of the unit capacity, plus the unrestricted ideal.
            name: "affine-cap",
            title: "# Fig 9c (affine space restriction)".into(),
            column: "cap",
            points: ndpext_points(
                &[16, 8, 4, 1],
                |div: u64| if div == 1 { "ideal".into() } else { format!("1/{div}") },
                |c, div| c.affine_cap = c.unit_capacity / div,
            ),
            base: 0,
        },
        Panel::sweep("sampler", "sampled sets k", &[8, 16, 32, 64], 2, |c, v| c.sampler_sets = v),
        Panel {
            name: "method",
            title: "# Fig 9e (reconfiguration method)".into(),
            column: "method",
            points: vec![
                ("S(tatic)".into(), PolicyKind::NdpExtStatic, tweak(|_| {})),
                ("P(artial)".into(), PolicyKind::NdpExt, tweak(|c| c.max_reconfigs = Some(2))),
                ("F(ull)".into(), PolicyKind::NdpExt, tweak(|_| {})),
            ],
            base: 2,
        },
        Panel {
            name: "interval",
            title: "# Fig 9f (reconfiguration interval, fraction of the default epoch)".into(),
            column: "interval",
            points: ndpext_points(
                &[(4u64, 1u64), (2, 1), (1, 1), (1, 2), (1, 4)],
                |(div, mul)| if div > 1 { format!("1/{div}x") } else { format!("{mul}x") },
                |c, (div, mul)| c.epoch_cycles = c.epoch_cycles / div * mul,
            ),
            base: 2,
        },
    ]
}

/// The cells of `points` on every representative workload, point-major,
/// named `<prefix><label>/…` (a `/` in a label becomes `:`).
fn point_cells(scale: BenchScale, prefix: &str, points: &[Point]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (label, policy, tweak) in points {
        let point = format!("{prefix}{}/", label.replace('/', ":"));
        for &w in &REPRESENTATIVE_WORKLOADS {
            let spec = RunSpec::new(MemKind::Hbm, *policy, w, scale);
            cells.push(Cell::ndp(&point, RunSpec { tweak: Some(tweak.clone()), ..spec }));
        }
    }
    cells
}

/// The name of every Fig 9 panel, in print order.
pub const FIG09_PANELS: [&str; 6] =
    ["assoc", "block", "affine-cap", "sampler", "method", "interval"];

/// Figure 9: design-choice studies, one panel per name in `panels` (see
/// [`FIG09_PANELS`]): (a) indirect stream-cache associativity 1–64 way;
/// (b) affine block size 256 B – 4 kB; (c) affine space restriction (plus
/// the ideal no-cap); (d) sampled sets k ∈ {8, 16, 32, 64}; (e)
/// reconfiguration method Static / Partial / Full; (f) reconfiguration
/// interval sweep.
///
/// All results are NDPExt runtimes (geomean over the representative set)
/// normalized to the paper's default value of the swept parameter (so 1.00
/// = default; higher = faster).
pub fn fig09(s: &mut Session, panels: &[&str]) {
    let panels: Vec<Panel> =
        fig09_panels().into_iter().filter(|p| panels.contains(&p.name)).collect();
    let cells =
        panels.iter().flat_map(|p| point_cells(s.scale, &format!("{}=", p.name), &p.points));
    let cells: Vec<Cell> = cells.collect();
    let name = if panels.len() == 1 { panels[0].name } else { "all" };
    let reports = reports(s.run(&format!("fig09_design_{name}"), cells));
    let mut rows = reports.chunks(REPRESENTATIVE_WORKLOADS.len()).map(geotime);
    for panel in panels {
        let times: Vec<f64> = rows.by_ref().take(panel.points.len()).collect();
        println!("{}", panel.title);
        println!("{:>12} {:>10}", panel.column, "speedup");
        for ((label, _, _), t) in panel.points.iter().zip(&times) {
            println!("{label:>12} {:>10.3}", times[panel.base] / t);
        }
        println!();
    }
}

/// The policies `sanity` runs: the one an `NDPX_POLICY` value names by its
/// label, or all of them when unset or empty.
///
/// # Errors
///
/// A message naming the knob and the labels when `value` names no policy.
pub fn sanity_policies(value: Option<&str>) -> Result<Vec<PolicyKind>, String> {
    match value.map(str::trim).filter(|v| !v.is_empty()) {
        None => Ok(PolicyKind::ALL.to_vec()),
        Some(label) => {
            PolicyKind::ALL.into_iter().find(|p| p.label() == label).map(|p| vec![p]).ok_or_else(
                || {
                    let labels: Vec<&str> = PolicyKind::ALL.iter().map(|p| p.label()).collect();
                    format!(
                        "{}={label:?} is not a policy; use one of {}",
                        crate::knobs::POLICY.name,
                        labels.join(", ")
                    )
                },
            )
        }
    }
}

/// Quick trend sanity check: NDPExt vs baselines vs host on one workload,
/// with each policy's Fig 2a latency breakdown. `NDPX_POLICY` keeps one
/// policy; a label that names none ends the process with exit status 2.
pub fn sanity(s: &mut Session, workload: &'static str) {
    let scale = s.scale;
    let ops = scale.ops_per_core();
    let policies = or_exit(sanity_policies(crate::knobs::POLICY.raw().as_deref()));
    let ndp =
        policies.iter().map(|&p| Cell::ndp("", RunSpec::new(MemKind::Hbm, p, workload, scale)));
    let mut reports =
        reports(s.run("sanity", std::iter::once(Cell::host(workload, ops)).chain(ndp)));
    let rest = reports.split_off(1);
    let host = &reports[0];

    println!(
        "host      : time {:>12}  miss {:.3}  ops/us {:.1}",
        host.sim_time.to_string(),
        host.miss_rate(),
        host.ops_per_us()
    );
    for (policy, r) in policies.iter().zip(&rest) {
        println!(
            "{:<10}: time {:>12}  miss {:.3}  l1 {:.2}  local {:.2}  icn {:>9}  slbm {}  metaD {}  inv {}  repl {:.2}  vs-host {:.2}x",
            policy.label(), r.sim_time.to_string(), r.miss_rate(), r.l1_hit_rate(),
            r.local_hits as f64 / (r.cache_hits.max(1)) as f64,
            r.avg_interconnect().to_string(), r.slb_misses, r.metadata_dram, r.invalidations,
            r.replicated_fraction,
            time_ratio(host, r) * (r.ops as f64 / host.ops as f64),
        );
        // The Fig 2a latency breakdown of the same run, indented under it.
        let parts: Vec<String> = LatComponent::ALL
            .iter()
            .map(|&c| format!("{}={:.2}", c.label(), r.breakdown.fraction(c)))
            .collect();
        println!("    breakdown: {} total={}", parts.join(" "), r.breakdown.total());
    }
}

/// Ablation study (not a paper figure): how much each NDPExt mechanism
/// contributes. Each row disables one mechanism and reports the slowdown
/// relative to full NDPExt (geomean over the representative workloads):
///
/// * `no-replication`   — cap replication groups at 1 (placement only);
/// * `bulk-invalidate`  — disable consistent-hash transfer;
/// * `line-blocks`      — affine blocks shrunk to one cacheline (no spatial
///   prefetch from the stream abstraction);
/// * `no-reconfig`      — freeze the warmup configuration (≈NDPExt-static).
pub fn ablation(s: &mut Session) {
    println!("# Ablation: slowdown vs full NDPExt (geomean, representative set)");
    use PolicyKind::{NdpExt, NdpExtStatic};
    let row = |label: &str, policy, change: fn(&mut SystemConfig)| -> Point {
        (label.into(), policy, tweak(change))
    };
    let points = [
        row("full-ndpext", NdpExt, |_| {}),
        row("no-replication", NdpExt, |c| c.allow_replication = false),
        row("bulk-invalidate", NdpExt, |c| c.transfer = ReconfigTransfer::BulkInvalidate),
        row("line-blocks", NdpExt, |c| c.affine_block = c.line_bytes),
        row("no-reconfig", NdpExtStatic, |_| {}),
    ];
    let reports = reports(s.run("ablation", point_cells(s.scale, "", &points)));
    let times: Vec<f64> = reports.chunks(REPRESENTATIVE_WORKLOADS.len()).map(geotime).collect();
    println!("{:>16} {:>10}", "variant", "slowdown");
    for ((label, _, _), t) in points.iter().zip(&times) {
        println!("{label:>16} {:>10.3}", t / times[0]);
    }
    println!("\n(>1.0 means the removed mechanism was helping)");
}
