//! Deterministic parallel execution of independent benchmark cells.
//!
//! The paper's evaluation is a large matrix of independent simulations
//! (memory families × policies × workloads); [`CellPool`] executes such a
//! matrix on a work-stealing pool of scoped threads and hands results back
//! in canonical submission order, so tables, digests, and reports are
//! byte-identical at any thread count. `NDPX_THREADS` controls the width
//! (default: all available cores); `1` runs every cell inline on the
//! calling thread in submission order — exactly the historical serial
//! behaviour.
//!
//! Cells are panic-isolated: a panicking cell is caught on its worker and
//! comes back as an `Err` carrying the panic message, so one exploding
//! cell can never abort its siblings or lose the rest of a long sweep.
//! Cells are deterministic, so a panicked cell is never re-run: it would
//! panic again, identically. [`expect_ok`] escalates failures once the
//! whole matrix has finished.

#![deny(clippy::unwrap_used)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use ndpx_sim::{ndpx_info, ndpx_warn};

/// One unit of pool work. Boxed so heterogeneous cells (NDP runs, host
/// baselines, tweaked sweeps) can share a matrix; the lifetime lets tasks
/// borrow shared immutable state such as a trace cache.
pub type CellTask<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// One finished cell, tagged with where and how long it ran.
/// [`CellPool::run_cells`] returns `CellResult<Result<T, String>>`, where
/// a panicked cell carries its panic message; [`expect_ok`] turns a whole
/// run into `CellResult<T>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellResult<T> {
    /// The task's return value.
    pub value: T,
    /// Index of the worker thread that executed the cell (0 when serial).
    pub worker: usize,
    /// Wall-clock seconds the cell took on its worker.
    pub wall_s: f64,
}

/// Best-effort string rendering of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Locks a mutex, recovering the guard if a previous holder panicked. Pool
/// state stays consistent under poisoning: it holds plain data, and every
/// cell body already runs under `catch_unwind`.
fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Runs one cell on `worker` under `catch_unwind`.
fn run_cell<T>(task: CellTask<'_, T>, worker: usize) -> CellResult<Result<T, String>> {
    let t0 = Instant::now();
    let value = catch_unwind(AssertUnwindSafe(task)).map_err(|p| panic_message(p.as_ref()));
    CellResult { value, worker, wall_s: t0.elapsed().as_secs_f64() }
}

/// The host's available parallelism (1 when it cannot be queried).
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The resolved thread plan for a pooled run: what was requested, what the
/// host offers, and whether honoring the request oversubscribes the
/// machine.
///
/// The default (no `NDPX_THREADS`, or zero) clamps to [`host_cpus`], so an
/// unconfigured run never oversubscribes. An explicit
/// request is honored even past the host width — digest checks deliberately
/// run `threads=4` on narrow CI boxes — but the report marks such runs
/// `oversubscribed` so their wall clocks are not read as scaling data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPlan {
    /// Worker count the pool will actually use.
    pub requested: usize,
    /// Host parallelism at resolution time.
    pub host_cpus: usize,
}

impl ThreadPlan {
    /// Resolves an `NDPX_THREADS` value: explicit `n >= 1` is honored,
    /// unset or `0` takes the host width.
    ///
    /// # Errors
    ///
    /// A message naming the knob when the value is not a count.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        let host = host_cpus();
        match value.map(|v| v.trim().parse::<usize>()) {
            None | Some(Ok(0)) => Ok(ThreadPlan { requested: host, host_cpus: host }),
            Some(Ok(n)) => Ok(ThreadPlan { requested: n, host_cpus: host }),
            Some(Err(_)) => Err(format!(
                "{}={:?}: not a thread count (0 or unset uses every core)",
                crate::knobs::THREADS.name,
                value.unwrap_or_default()
            )),
        }
    }

    /// True when the request exceeds the host's parallelism.
    pub fn oversubscribed(&self) -> bool {
        self.requested > self.host_cpus
    }

    /// A pool honoring the request.
    pub fn pool(&self) -> CellPool {
        CellPool::with_threads(self.requested)
    }
}

/// A scoped work-stealing thread pool over independent cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellPool {
    threads: usize,
}

impl CellPool {
    /// A pool of exactly `threads` workers (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        CellPool { threads: threads.max(1) }
    }

    /// The configured worker count.
    pub fn threads(self) -> usize {
        self.threads
    }

    /// Executes every task and returns one result per task in submission
    /// order, never propagating a cell panic.
    ///
    /// With one thread the tasks run inline, in order, with no thread
    /// machinery. Otherwise workers claim cells from a shared queue (cheap
    /// work stealing: long cells never block the queue behind them) and
    /// deposit results into per-cell slots, so the output order never
    /// depends on scheduling.
    ///
    /// With a `monitor`, finished cells emit heartbeat lines, at most one
    /// every 5 s (info level, so silent unless `NDPX_LOG=info`); after the
    /// matrix completes, cells whose wall clock exceeded 4× the median are
    /// named at warn level. Monitoring never changes what runs or the order
    /// results come back in — it only observes.
    pub fn run_cells<'env, T: Send>(
        self,
        monitor: Option<&MonitorConfig>,
        tasks: Vec<CellTask<'env, T>>,
    ) -> Vec<CellResult<Result<T, String>>> {
        let Some(monitor) = monitor else { return self.execute(tasks) };
        let n = tasks.len();
        let t0 = Instant::now();
        let done = AtomicUsize::new(0);
        let last_beat_ms = AtomicU64::new(0);
        let wrapped: Vec<CellTask<'_, T>> = tasks
            .into_iter()
            .map(|task| {
                let (done, last_beat_ms) = (&done, &last_beat_ms);
                let label = monitor.label.as_str();
                Box::new(move || {
                    let value = task();
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    let now_ms = t0.elapsed().as_millis() as u64;
                    let prev = last_beat_ms.load(Ordering::Relaxed);
                    let due = finished == n || now_ms >= prev.saturating_add(HEARTBEAT_MS);
                    if due
                        && last_beat_ms
                            .compare_exchange(prev, now_ms, Ordering::Relaxed, Ordering::Relaxed)
                            .is_ok()
                    {
                        ndpx_info!(
                            "{label}: {finished}/{n} cells done in {:.1}s",
                            now_ms as f64 / 1e3
                        );
                    }
                    value
                }) as CellTask<'_, T>
            })
            .collect();
        let results = self.execute(wrapped);
        let walls: Vec<f64> = results.iter().map(|r| r.wall_s).collect();
        for i in slow_cells(&walls, SLOW_MULT) {
            let name = monitor.names.get(i).map_or("?", |s| s.as_str());
            ndpx_warn!(
                "{}: slow cell {name} took {:.2}s ({:.1}x the {:.2}s median) on worker {}",
                monitor.label,
                walls[i],
                walls[i] / median(&walls).max(1e-9),
                median(&walls),
                results[i].worker
            );
        }
        results
    }

    /// The unmonitored executor behind [`CellPool::run_cells`].
    fn execute<'env, T: Send>(
        self,
        tasks: Vec<CellTask<'env, T>>,
    ) -> Vec<CellResult<Result<T, String>>> {
        let n = tasks.len();
        if self.threads == 1 || n <= 1 {
            return tasks.into_iter().map(|task| run_cell(task, 0)).collect();
        }
        let queue = Mutex::new(tasks.into_iter().enumerate());
        let slots: Vec<Mutex<Option<_>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for worker in 0..self.threads.min(n) {
                let (queue, slots) = (&queue, &slots);
                scope.spawn(move || loop {
                    // The guard drops at the end of this statement, so the
                    // cell itself runs without holding the queue.
                    let Some((i, task)) = lock_or_recover(queue).next() else { break };
                    *lock_or_recover(&slots[i]) = Some(run_cell(task, worker));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                let inner = match slot.into_inner() {
                    Ok(v) => v,
                    Err(poisoned) => poisoned.into_inner(),
                };
                inner.unwrap_or(CellResult {
                    value: Err("cell was never executed".to_string()),
                    worker: 0,
                    wall_s: 0.0,
                })
            })
            .collect()
    }
}

/// Escalates a finished run: panics naming every failed cell, otherwise
/// returns the results with their values unwrapped. Call it only once the
/// whole matrix has run (and its run document is on disk), so a lost
/// cell never discards its siblings' work.
///
/// # Panics
///
/// If any cell panicked.
pub fn expect_ok<T>(results: Vec<CellResult<Result<T, String>>>) -> Vec<CellResult<T>> {
    let failed: Vec<String> = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.value.as_ref().err().map(|message| format!("cell {i}: {message}")))
        .collect();
    assert!(
        failed.is_empty(),
        "{} of {} cells failed: {}",
        failed.len(),
        results.len(),
        failed.join("; ")
    );
    results
        .into_iter()
        .filter_map(|r| {
            let (worker, wall_s) = (r.worker, r.wall_s);
            r.value.ok().map(|value| CellResult { value, worker, wall_s })
        })
        .collect()
}

/// A monitored [`CellPool::run_cells`]: a run label and per-cell names
/// for the heartbeat and watchdog lines.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Run label prefixed to every heartbeat/watchdog line.
    pub label: String,
    /// Cell names in submission order (watchdog lines name cells by these).
    pub names: Vec<String>,
}

impl MonitorConfig {
    /// A monitor labelled `label` over cells named `names`.
    pub fn new(label: impl Into<String>, names: Vec<String>) -> Self {
        MonitorConfig { label: label.into(), names }
    }
}

/// Minimum milliseconds between heartbeat lines.
const HEARTBEAT_MS: u64 = 5000;

/// Watchdog threshold as a multiple of the median cell wall clock.
const SLOW_MULT: f64 = 4.0;

/// Wall clocks below this never trigger the watchdog: at test scale a cell
/// runs for milliseconds, where scheduler noise routinely exceeds any
/// multiple of the median.
const SLOW_FLOOR_S: f64 = 0.1;

/// Median of `walls` (0 when empty). Ties toward the lower middle element.
fn median(walls: &[f64]) -> f64 {
    if walls.is_empty() {
        return 0.0;
    }
    let mut sorted = walls.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// Indices of cells whose wall clock exceeds `mult` × the median (and the
/// [`SLOW_FLOOR_S`] noise floor), in submission order. Pure so the watchdog
/// policy is testable without timing a real pool.
pub fn slow_cells(walls: &[f64], mult: f64) -> Vec<usize> {
    if mult <= 0.0 || walls.len() < 2 {
        return Vec::new();
    }
    let threshold = (median(walls) * mult).max(SLOW_FLOOR_S);
    walls.iter().enumerate().filter(|(_, &w)| w > threshold).map(|(i, _)| i).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn square_tasks(n: usize) -> Vec<CellTask<'static, usize>> {
        (0..n).map(|i| Box::new(move || i * i) as CellTask<'static, usize>).collect()
    }

    fn values<T>(results: Vec<CellResult<Result<T, String>>>) -> Vec<T> {
        expect_ok(results).into_iter().map(|r| r.value).collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        for threads in [1, 2, 4, 9] {
            let out = values(CellPool::with_threads(threads).run_cells(None, square_tasks(23)));
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn serial_pool_runs_on_calling_thread() {
        let id = std::thread::current().id();
        let tasks: Vec<CellTask<'_, bool>> =
            (0..4).map(|_| Box::new(move || std::thread::current().id() == id) as _).collect();
        assert!(values(CellPool::with_threads(1).run_cells(None, tasks)).into_iter().all(|s| s));
    }

    #[test]
    fn parse_thread_counts() {
        let requested = |v| ThreadPlan::parse(v).map(|p| p.requested);
        assert_eq!(requested(Some("4")), Ok(4));
        assert_eq!(requested(Some("1")), Ok(1));
        assert_eq!(requested(None), Ok(host_cpus()));
        assert_eq!(requested(Some("0")), Ok(host_cpus()));
        // A typo is an error naming the knob, never the host width.
        for bad in ["bogus", "-1", "2.5", "4 threads"] {
            let err = requested(Some(bad)).expect_err(bad);
            assert!(err.starts_with(&format!("{}=", crate::knobs::THREADS.name)), "{err}");
        }
    }

    #[test]
    fn thread_plan_clamps_default_and_marks_oversubscription() {
        let host = host_cpus();
        // Unset and zero requests clamp to the host width and can never
        // oversubscribe.
        for v in [None, Some("0")] {
            let plan = ThreadPlan::parse(v).expect("a count");
            assert_eq!(plan.requested, host);
            assert_eq!(plan.host_cpus, host);
            assert!(!plan.oversubscribed());
        }
        // Explicit requests are honored verbatim; past the host width they
        // are flagged, not clamped (digest checks need threads=4 anywhere).
        let wide = ThreadPlan::parse(Some(&(host + 1).to_string())).expect("a count");
        assert_eq!(wide.requested, host + 1);
        assert!(wide.oversubscribed());
        assert_eq!(wide.pool().threads(), host + 1);
        let one = ThreadPlan::parse(Some("1")).expect("a count");
        assert_eq!(one.requested, 1);
        assert!(!one.oversubscribed());
    }

    #[test]
    fn tasks_may_borrow_shared_state() {
        let shared = vec![10usize, 20, 30];
        let shared = &shared;
        let tasks: Vec<CellTask<'_, usize>> =
            (0..3).map(|i| Box::new(move || shared[i] + 1) as CellTask<'_, usize>).collect();
        assert_eq!(values(CellPool::with_threads(2).run_cells(None, tasks)), vec![11, 21, 31]);
    }

    #[test]
    fn worker_ids_are_within_pool_width() {
        let results = expect_ok(CellPool::with_threads(3).run_cells(None, square_tasks(16)));
        assert!(results.iter().all(|r| r.worker < 3));
        assert!(results.iter().all(|r| r.wall_s >= 0.0));
    }

    #[test]
    fn monitored_run_preserves_order_and_results() {
        let names = (0..23).map(|i| format!("cell{i}")).collect();
        let monitor = MonitorConfig::new("test", names);
        for threads in [1, 4] {
            let pool = CellPool::with_threads(threads);
            let out = values(pool.run_cells(Some(&monitor), square_tasks(23)));
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn panicking_cell_never_aborts_siblings() {
        let monitor = MonitorConfig::new("test", Vec::new());
        for threads in [1, 4] {
            for monitor in [None, Some(&monitor)] {
                let tasks: Vec<CellTask<'static, usize>> = (0..8usize)
                    .map(|i| {
                        Box::new(move || {
                            assert!(i != 3, "cell 3 exploded");
                            i * 2
                        }) as CellTask<'static, usize>
                    })
                    .collect();
                let out = CellPool::with_threads(threads).run_cells(monitor, tasks);
                let case = format!("threads={threads} monitored={}", monitor.is_some());
                assert_eq!(out.len(), 8, "{case}");
                for (i, c) in out.iter().enumerate() {
                    if i == 3 {
                        let message = c.value.as_ref().expect_err("cell 3 must fail");
                        assert!(message.contains("cell 3 exploded"), "{case}: {message}");
                    } else {
                        assert_eq!(c.value, Ok(i * 2), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn run_panics_at_end_naming_failed_cells() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<CellTask<'static, usize>> = (0..4usize)
                .map(|i| {
                    Box::new(move || {
                        assert!(i != 1, "boom in cell one");
                        i
                    }) as CellTask<'static, usize>
                })
                .collect();
            expect_ok(CellPool::with_threads(2).run_cells(None, tasks));
        }));
        let payload = caught.expect_err("a failed cell must surface as a final panic");
        let message = panic_message(payload.as_ref());
        assert!(message.contains("1 of 4 cells failed"), "{message}");
        assert!(message.contains("cell 1"), "{message}");
        assert!(message.contains("boom in cell one"), "{message}");
    }

    #[test]
    fn watchdog_names_only_outliers() {
        // 1.0s median: the 8.0s cell is past 4x, the 3.0s cell is not.
        let walls = [1.0, 8.0, 1.0, 3.0, 1.0];
        assert_eq!(slow_cells(&walls, 4.0), vec![1]);
        // Millisecond noise stays under the floor even at huge multiples.
        assert_eq!(slow_cells(&[0.001, 0.09, 0.001], 4.0), Vec::<usize>::new());
        // Disabled watchdog never fires.
        assert_eq!(slow_cells(&walls, 0.0), Vec::<usize>::new());
    }

    #[test]
    fn watchdog_single_cell_run_is_quiet() {
        // A single cell has no population to compare against: it is the
        // median, so it can never be an outlier — even when huge.
        assert_eq!(slow_cells(&[99.0], 4.0), Vec::<usize>::new());
        assert_eq!(slow_cells(&[99.0], 0.5), Vec::<usize>::new());
        assert_eq!(slow_cells(&[], 4.0), Vec::<usize>::new());
    }

    #[test]
    fn watchdog_all_equal_walls_are_quiet() {
        // Identical wall clocks mean no outliers at any multiple >= 1; even
        // mult == 1.0 stays quiet because the threshold comparison is
        // strictly greater-than.
        assert_eq!(slow_cells(&[2.5; 8], 4.0), Vec::<usize>::new());
        assert_eq!(slow_cells(&[2.5, 2.5], 1.0), Vec::<usize>::new());
        assert_eq!(slow_cells(&[0.0; 4], 4.0), Vec::<usize>::new());
    }

    #[test]
    fn median_is_lower_middle() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
