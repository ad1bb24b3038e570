//! `perf diff a.json b.json`: compare two result documents (`perf all
//! --out`, or single `perf run --out` files) against the bounds in
//! `BENCHMARK.json`. `a` is the base (parent), `b` the change.
//!
//! A document may hold several runs of a workload (`perf all --repeat N`).
//! Each side's figure is the median over its runs and its spread is the
//! interquartile range over its runs, so the verdicts below are the
//! choosing-metrics rules; with one run a side the spread is unknown (0)
//! and the verdict is indicative only.

use crate::json::Value;
use crate::report::Better;
use crate::stat::Summary;

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct Bound {
    pub name: String,
    pub better: Better,
    pub bound: f64,
}

pub fn bounds_of(benchmark: &Value) -> Result<Vec<Bound>, String> {
    let entries = benchmark.get("end_to_end").map(Value::arr).unwrap_or_default();
    entries
        .iter()
        .map(|e| {
            let name =
                e.get("name").and_then(Value::str).ok_or("end_to_end entry without a name")?;
            let better = match e.get("better").and_then(Value::str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("{name}: better = {other:?}")),
            };
            let bound = e.get("bound").and_then(Value::num).ok_or(format!("{name}: no bound"))?;
            Ok(Bound { name: name.to_string(), better, bound })
        })
        .collect()
}

/// The runs of a document: its `runs` array, or the document itself when it
/// is a single run.
fn runs(doc: &Value) -> Vec<&Value> {
    match doc.get("runs") {
        Some(list) => list.arr().iter().collect(),
        None => vec![doc],
    }
}

fn is_traced(run: &Value) -> bool {
    run.get("trace") == Some(&Value::Bool(true))
}

fn name_of(run: &Value) -> &str {
    run.get("workload").and_then(Value::str).unwrap_or("?")
}

/// Every run of (`workload`, `traced`) in a document.
fn group<'a>(runs: &[&'a Value], workload: &str, traced: bool) -> Vec<&'a Value> {
    runs.iter().copied().filter(|r| name_of(r) == workload && is_traced(r) == traced).collect()
}

/// `metric` across a group's runs (`None` when no run reports it).
fn across(group: &[&Value], metric: &str) -> Option<Summary> {
    let values: Vec<f64> =
        group.iter().filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.num()).collect();
    (!values.is_empty()).then(|| Summary::of(&values))
}

fn verdict(bound: &Bound, a: &Summary, b: &Summary) -> &'static str {
    // How much worse the change is, as a share of the base.
    let worse = match bound.better {
        Better::Lower => b.median / a.median - 1.0,
        Better::Higher => 1.0 - b.median / a.median,
    };
    if worse > bound.bound {
        return "regressed";
    }
    if a.spread().max(b.spread()) > bound.bound {
        // Too noisy to call unchanged — unless every run of the change
        // beats every run of the base.
        let clear_win = match bound.better {
            Better::Lower => b.max < a.min,
            Better::Higher => b.min > a.max,
        };
        return if clear_win { "improved" } else { "unresolved" };
    }
    if worse < -bound.bound {
        "improved"
    } else {
        "same"
    }
}

fn failed_share(group: &[&Value]) -> f64 {
    let sum = |k: &str| group.iter().filter_map(|r| r.get(k)?.num()).sum::<f64>();
    if sum("ops") == 0.0 {
        0.0
    } else {
        sum("failed_ops") / sum("ops")
    }
}

/// Print the comparison; returns whether anything regressed.
pub fn diff<'a>(a: &'a Value, b: &'a Value, bounds: &[Bound]) -> bool {
    let (runs_a, runs_b) = (runs(a), runs(b));
    let mut regressed = false;
    let mut seen: Vec<(&str, bool)> = Vec::new();
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>8} {:>8} {:>8} {:>5}  verdict (bound)",
        "workload", "metric", "base", "change", "ratio", "spread_a", "spread_b", "runs"
    );
    for run in &runs_b {
        let key = (name_of(run), is_traced(run));
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let (workload, traced) = key;
        let (ga, gb) = (group(&runs_a, workload, traced), group(&runs_b, workload, traced));
        if ga.is_empty() {
            println!("{workload:<16} (trace {traced}) missing from the base document");
            continue;
        }
        if failed_share(&gb) > failed_share(&ga) {
            println!(
                "{workload:<16} failed_ops share rose: {} -> {}",
                failed_share(&ga),
                failed_share(&gb)
            );
            regressed = true;
        }
        if traced {
            count_rows(workload, &ga, &gb);
            continue;
        }
        for bound in bounds {
            let (Some(sa), Some(sb)) = (across(&ga, &bound.name), across(&gb, &bound.name)) else {
                println!("{workload:<16} {:<16} missing on one side", bound.name);
                regressed = true;
                continue;
            };
            let v = verdict(bound, &sa, &sb);
            regressed |= v == "regressed";
            println!(
                "{:<16} {:<16} {:>14.6} {:>14.6} {:>8.4} {:>8.4} {:>8.4} {:>2}/{:<2}  {} ({})",
                workload,
                bound.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
                sa.spread(),
                sb.spread(),
                sa.n,
                sb.n,
                v,
                bound.bound
            );
        }
        // Exact fields repeat on every run of a (workload, seed); compare
        // the first of each side.
        let (ea, eb) = (ga[0].get("exact"), gb[0].get("exact"));
        if ea == eb {
            println!("{workload:<16} exact fields identical (record_digest, simulated statistics)");
        } else {
            for (k, vb) in eb.map(Value::fields).unwrap_or_default() {
                let va = ea.and_then(|e| e.get(k));
                if va != Some(vb) {
                    println!(
                        "{workload:<16} exact {k} DIFFERS: {} -> {}",
                        va.map_or("absent".to_string(), Value::render),
                        vb.render()
                    );
                }
            }
        }
    }
    let traced = |runs: &[&'a Value]| -> Vec<&'a Value> {
        runs.iter().copied().filter(|r| is_traced(r)).collect()
    };
    table_rows(&traced(&runs_a), &traced(&runs_b));
    regressed
}

/// Per-layer metrics carry no bound; the rows below are informational.
/// A timing is printed when it moved by more than this share.
const LAYER_NOTE: f64 = 0.2;

/// The microbenchmark table: its fixtures do not depend on the workload, so
/// every traced run of a document is one more sample of the same figure.
fn table_rows(ta: &[&Value], tb: &[&Value]) {
    let Some(first) = tb.first() else { return };
    for (name, metric) in first.get("metrics").map(Value::fields).unwrap_or_default() {
        if metric.get("n").and_then(Value::num).unwrap_or(1.0) <= 1.0 {
            continue;
        }
        let (Some(sa), Some(sb)) = (across(ta, name), across(tb, name)) else { continue };
        if sa.median != 0.0 && (sb.median / sa.median - 1.0).abs() > LAYER_NOTE {
            let unit = metric.get("unit").and_then(Value::str).unwrap_or("");
            println!(
                "{:<16} {:<36} {:>14.4} -> {:>14.4} {} ({}/{} runs)",
                "layer table", name, sa.median, sb.median, unit, sa.n, sb.n
            );
        }
    }
}

/// One workload's single-reading per-layer metrics: exact counts that
/// changed at all, derived figures that moved by more than `LAYER_NOTE`
/// (of themselves, or in absolute terms for fractions below 1).
fn count_rows(workload: &str, ga: &[&Value], gb: &[&Value]) {
    for (name, metric) in gb[0].get("metrics").map(Value::fields).unwrap_or_default() {
        if metric.get("n").and_then(Value::num).unwrap_or(1.0) > 1.0 {
            continue;
        }
        let (Some(sa), Some(sb)) = (across(ga, name), across(gb, name)) else { continue };
        let unit = metric.get("unit").and_then(Value::str).unwrap_or("");
        let moved = if unit == "count" {
            sa.median != sb.median
        } else {
            (sb.median - sa.median).abs() > LAYER_NOTE * sa.median.abs().max(1.0)
        };
        if moved {
            println!(
                "{:<16} {:<36} {:>14.4} -> {:>14.4} {}",
                workload, name, sa.median, sb.median, unit
            );
        }
    }
}
