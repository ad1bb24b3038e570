//! In-memory spans for the traced run. Spans are opened and closed by the
//! benchmark's own code, around each call into a layer; the crates carry no
//! instrumentation. Everything stays in memory until the run ends, then
//! `to_json` / `print_self_times` write it out.
//!
//! All spans open and close on the calling thread (worker threads a sweep
//! starts live inside the crate and are covered by the span around the
//! call), so a span's children never overlap and its self time is its
//! duration minus the sum of theirs.

use std::time::Instant;

use crate::clock;
use crate::json::Value;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    /// The workload the span belongs to (`"-"` for the layer table).
    pub workload: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts measured at this boundary (packets, events, allocations…).
    pub counts: Vec<(String, f64)>,
}

pub struct Tracer {
    epoch: Instant,
    /// Stamped on every span opened from now on.
    pub workload: String,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            epoch: clock::now(),
            workload: workload.to_string(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    /// Returns `f`'s result and the span's duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            workload: self.workload.clone(),
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &str, value: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].counts.push((key.to_string(), value));
        }
    }

    /// Self time of every span, nanoseconds, indexed by span id.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Largest relative gap between a root span's duration and the self
    /// times summed over its tree (0 when every child nests in its parent).
    pub fn worst_root_gap(&self) -> f64 {
        let own = self.self_times_ns();
        let mut tree_sum = vec![0u64; self.spans.len()];
        // Children have larger ids than their parents, so one reverse pass
        // folds every subtree into its root.
        for s in self.spans.iter().rev() {
            tree_sum[s.id] += own[s.id];
            if let Some(p) = s.parent {
                tree_sum[p] += tree_sum[s.id];
            }
        }
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.end_ns > s.start_ns)
            .map(|s| {
                let dur = (s.end_ns - s.start_ns) as f64;
                (tree_sum[s.id] as f64 - dur).abs() / dur
            })
            .fold(0.0, f64::max)
    }

    pub fn print_self_times(&self) {
        let own = self.self_times_ns();
        println!("spans ({}): total / self, host ms", self.workload);
        for s in &self.spans {
            let mut depth = 0;
            let mut up = s.parent;
            while let Some(p) = up {
                depth += 1;
                up = self.spans[p].parent;
            }
            println!(
                "  {:indent$}{:<width$} {:>12.3} {:>12.3}",
                "",
                s.name,
                (s.end_ns - s.start_ns) as f64 / 1e6,
                own[s.id] as f64 / 1e6,
                indent = 2 * depth,
                width = 44 - 2 * depth,
            );
        }
    }

    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut counts = Value::obj();
                for (k, v) in &s.counts {
                    counts.set(k, *v);
                }
                let mut o = Value::obj();
                o.set("id", s.id as u64)
                    .set("parent", s.parent.map_or(Value::Null, |p| Value::from(p as u64)))
                    .set("name", s.name.as_str())
                    .set("workload", s.workload.as_str())
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
                    .set("counts", counts);
                o
            })
            .collect::<Vec<_>>();
        Value::Arr(spans)
    }
}
