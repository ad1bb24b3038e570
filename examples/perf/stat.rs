//! Order statistics over a handful of samples, and their JSON shape.

use crate::json::Value;

/// Median, quartiles and range of one metric's samples.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarize `samples` (at least one). Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)`, the rule the regression driver
    /// applies across runs, so in-run and across-run spreads are comparable.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quantile = |i: usize| {
            if n < 2 {
                return v[0];
            }
            let (j, delta) = ((i * (n + 1)) / 4, (i * (n + 1)) % 4);
            let j = j.clamp(1, n - 1);
            (v[j - 1] * (4 - delta) as f64 + v[j] * delta as f64) / 4.0
        };
        Summary {
            median: quantile(2),
            q1: quantile(1),
            q3: quantile(3),
            min: v[0],
            max: v[n - 1],
            n,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// The JSON shape of a metric: the reported `value` with its unit, and
    /// the spread of the samples it was picked from.
    pub fn to_json(self, value: f64, unit: &str) -> Value {
        let mut o = Value::obj();
        o.set("value", value)
            .set("unit", unit)
            .set("n", self.n as u64)
            .set("min", self.min)
            .set("q1", self.q1)
            .set("median", self.median)
            .set("q3", self.q3)
            .set("max", self.max);
        o
    }
}
