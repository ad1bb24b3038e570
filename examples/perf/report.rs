//! The result of one `perf run`: what is printed, what is written, and the
//! one-line summary the regression driver reads.

use crate::json::Value;
use crate::stat::Summary;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The end-to-end metrics, in print order. Bounds live in `BENCHMARK.json`
/// only; `perf diff` reads them from there.
pub const END_TO_END: [(&str, &str, Better); 4] = [
    ("wall_s", "s", Better::Lower),
    ("sim_pkts_per_s", "pkt/s", Better::Higher),
    ("setup_s", "s", Better::Lower),
    ("peak_rss_mb", "MiB", Better::Lower),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// The reported figure: one of the order statistics in `samples`.
    pub value: f64,
    /// How the samples it was picked from were spread.
    pub samples: Summary,
}

impl Metric {
    /// A metric reported as the median of its samples.
    pub fn median(name: &str, unit: &str, samples: Summary) -> Metric {
        Metric { name: name.to_string(), unit: unit.to_string(), value: samples.median, samples }
    }

    /// A metric reported as the best of its samples. Host noise on a shared
    /// machine is one-sided — co-tenants only ever slow a rep down — so the
    /// best rep estimates the undisturbed cost and repeats far more closely
    /// from run to run than the median does (README, "Why best-of").
    pub fn best(name: &str, unit: &str, samples: Summary, better: Better) -> Metric {
        let value = match better {
            Better::Lower => samples.min,
            Better::Higher => samples.max,
        };
        Metric { name: name.to_string(), unit: unit.to_string(), value, samples }
    }

    /// A single exact reading (a count, or a once-per-process gauge).
    pub fn exact(name: &str, unit: &str, value: f64) -> Metric {
        Metric::median(name, unit, Summary::of(&[value]))
    }
}

/// One workload's run, timed (`trace == false`: the end-to-end metrics) or
/// traced (`trace == true`: the per-layer metrics).
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// Cells attempted in measured reps.
    pub ops: u64,
    /// Cells that panicked or failed a correctness check.
    pub failed_ops: u64,
    /// Names of the failed checks, in first-seen order, for the report.
    pub failed_checks: Vec<String>,
    pub metrics: Vec<Metric>,
    /// `record_digest` and the simulated statistics (see `Folded::to_json`).
    pub exact: Value,
}

impl RunResult {
    pub fn print(&self) {
        let kind = if self.trace { "traced (per-layer)" } else { "timed (end-to-end)" };
        println!(
            "workload {}  seed {}  {kind}, host time unless a unit says otherwise",
            self.workload, self.seed
        );
        for m in &self.metrics {
            let s = &m.samples;
            if s.n > 1 {
                println!(
                    "  {:<40} {:>16.6} {:<6} min {:.6} median {:.6} max {:.6} n={}",
                    m.name, m.value, m.unit, s.min, s.median, s.max, s.n
                );
            } else if m.value.fract() == 0.0 {
                println!("  {:<40} {:>16} {}", m.name, m.value, m.unit);
            } else {
                println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
            }
        }
        println!("  {:<40} {:>16} count", "ops", self.ops);
        println!("  {:<40} {:>16} count", "failed_ops", self.failed_ops);
        for (k, v) in self.exact.fields() {
            println!("  exact {:<34} {}", k, v.render());
        }
        for name in &self.failed_checks {
            println!("  FAILED CHECK {name}");
        }
    }

    pub fn to_json(&self) -> Value {
        let mut metrics = Value::obj();
        for m in &self.metrics {
            metrics.set(&m.name, m.samples.to_json(m.value, &m.unit));
        }
        let mut o = Value::obj();
        o.set("workload", self.workload.as_str())
            .set("seed", self.seed)
            .set("trace", self.trace)
            .set("ops", self.ops)
            .set("failed_ops", self.failed_ops)
            .set(
                "failed_checks",
                self.failed_checks.iter().map(|c| Value::from(c.as_str())).collect::<Vec<_>>(),
            )
            .set("metrics", metrics)
            .set("exact", self.exact.clone());
        o
    }

    /// The driver's contract: the last line of standard output.
    pub fn contract_line(&self) -> String {
        let mut metrics = Value::obj();
        for m in &self.metrics {
            let mut v = Value::obj();
            v.set("value", m.value).set("unit", m.unit.as_str());
            metrics.set(&m.name, v);
        }
        let mut o = Value::obj();
        o.set("correct", self.failed_ops == 0)
            .set("attempted", self.ops)
            .set("failed", self.failed_ops)
            .set("metrics", metrics);
        o.render()
    }
}
