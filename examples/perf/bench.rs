//! The timed run: closed-loop reps of one workload with tracing off,
//! producing the four end-to-end metrics.
//!
//! Closed loop, one client: a rep starts when the previous rep's `Record`
//! has been returned and checked. Full reps alternate with set-up samples
//! until the `--seconds` budget is used, so a burst of host noise lands on a
//! few samples of each metric instead of on all samples of one. Each time
//! metric reports its best sample (see `Metric::best`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use netfence::experiments::prelude::Record;

use crate::clock;
use crate::json::Value;
use crate::report::{Metric, RunResult, END_TO_END};
use crate::stat::Summary;
use crate::workloads::{fold, Folded, Workload};

/// Fewest timed reps `perf run` picks its best from, whatever `--seconds`
/// says (`perf check` smokes with one).
pub const MIN_REPS: usize = 3;

/// A set-up sample batches zero-horizon runs until it lasts this long.
const SETUP_BATCH_SECS: f64 = 0.1;

/// One measured rep: host seconds, and the records unless the rep panicked.
pub fn timed_rep(w: &Workload) -> (f64, Option<Vec<Record>>) {
    let (out, wall) = clock::time(|| catch_unwind(AssertUnwindSafe(|| w.run())));
    (wall, out.ok())
}

/// Tracks `ops` / `failed_ops` and the reference outcome all reps must match.
pub struct Ledger {
    pub ops: u64,
    pub failed_ops: u64,
    pub failed_checks: Vec<String>,
    pub reference: Option<Folded>,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger { ops: 0, failed_ops: 0, failed_checks: Vec::new(), reference: None }
    }

    fn fail(&mut self, check: &str) {
        if !self.failed_checks.iter().any(|c| c == check) {
            self.failed_checks.push(check.to_string());
        }
    }

    /// Account one rep's outcome; returns its fold when the rep completed.
    pub fn record(&mut self, w: &Workload, records: Option<Vec<Record>>) -> Option<Folded> {
        let cells = w.cells();
        self.ops += cells;
        let Some(records) = records else {
            self.failed_ops += cells;
            self.fail("rep_panicked");
            return None;
        };
        let folded = fold(&records);
        let mut failed = w.failed_checks(&records);
        match &self.reference {
            Some(reference) if *reference != folded => failed.push("record_digest_stable"),
            Some(_) => {}
            None => self.reference = Some(folded.clone()),
        }
        if !failed.is_empty() {
            self.failed_ops += cells;
            for check in failed {
                self.fail(check);
            }
        }
        Some(folded)
    }

    /// Close the books: the run's result with these `metrics`.
    pub fn into_result(
        self,
        w: &Workload,
        seed: u64,
        trace: bool,
        metrics: Vec<Metric>,
    ) -> RunResult {
        RunResult {
            workload: w.name.to_string(),
            seed,
            trace,
            ops: self.ops,
            failed_ops: self.failed_ops,
            failed_checks: self.failed_checks,
            metrics,
            exact: self.reference.as_ref().map_or_else(Value::obj, Folded::to_json),
        }
    }

    /// Account a side comparison (traced vs untraced, serial vs parallel) as
    /// one more op.
    pub fn require(&mut self, check: &str, ok: bool) {
        self.ops += 1;
        if !ok {
            self.failed_ops += 1;
            self.fail(check);
        }
    }
}

/// Host seconds of one zero-horizon run, averaged over a batch long enough
/// to time (`runs_per_batch` starts at 1 and is recalibrated by every call).
pub fn setup_sample(w: &Workload, runs_per_batch: &mut usize) -> f64 {
    let ((), batch) = clock::time(|| {
        for _ in 0..*runs_per_batch {
            std::hint::black_box(w.run_zero_horizon());
        }
    });
    let per_run = batch / *runs_per_batch as f64;
    *runs_per_batch = (SETUP_BATCH_SECS / per_run).ceil().clamp(1.0, 1e4) as usize;
    per_run
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

pub fn run_timed(w: &Workload, seed: u64, seconds: f64, min_reps: usize) -> RunResult {
    let mut ledger = Ledger::new();
    let (mut walls, mut rates, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut runs_per_batch = 1;
    let begin = clock::now();
    // No separate warm-up: the first rep (cold allocator and caches) is an
    // op like any other, fixes the reference outcome, and is simply never
    // the best sample.
    loop {
        let (wall, records) = timed_rep(w);
        if let Some(folded) = ledger.record(w, records) {
            walls.push(wall);
            rates.push(folded.packets as f64 / wall);
        }
        let ((), setup_cost) = clock::time(|| setups.push(setup_sample(w, &mut runs_per_batch)));
        let next = wall + setup_cost;
        let reps = ledger.ops / w.cells();
        if reps >= min_reps as u64 && begin.elapsed().as_secs_f64() + next > seconds {
            break;
        }
    }

    // One sample set per `END_TO_END` entry, in its order; peak RSS is a
    // single end-of-process reading.
    let samples = [walls, rates, setups, vec![peak_rss_mib()]];
    let metrics = END_TO_END
        .iter()
        .zip(&samples)
        .filter(|(_, s)| !s.is_empty())
        .map(|(&(name, unit, better), s)| Metric::best(name, unit, Summary::of(s), better))
        .collect();
    ledger.into_result(w, seed, false, metrics)
}
