//! The experiment table: every table and figure the reproduction
//! regenerates is one row of [`EXPERIMENTS`], driven by the `netfence`
//! binary (`cargo run --release -- list | run <name> | check`).
//!
//! A row is plain data — a name, a `fn(Size) -> String` that renders the
//! experiment's table, which optional flags it understands, and a golden
//! copy of its `--quick` output (`crates/experiments/golden/<name>.txt`).
//! Every row is deterministic — none reads a clock — so [`check`] re-runs
//! them all and compares byte for byte, which pins every printed number
//! across commits.

use netfence_sim::prelude::{TelemetryConfig, SEC};

use crate::prelude::*;
use crate::report::{drop_budget_table, opt1, table_of};
use crate::{
    ablations, chaos, deployment, fig10, fig11, fig13, fig8, fig9, reaction, topo_scale, tournament,
};

/// How large a run `netfence run` asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// `--quick`: seconds per experiment; the size the goldens pin.
    Quick,
    /// No flag: the scale `EXPERIMENTS.md` reports.
    Default,
    /// `--full`: the extended sweep, on rows that have one.
    Full,
}

impl Size {
    /// Whether this is the `--quick` size.
    pub fn is_quick(self) -> bool {
        self == Size::Quick
    }

    /// The simulated scale most rows start from.
    pub fn scale(self) -> Scale {
        if self.is_quick() {
            Scale::tiny()
        } else {
            Scale::default_scale()
        }
    }

    /// [`Size::scale`] with the simulated horizon a row needs instead:
    /// `quick_secs` at `--quick`, `default_secs` otherwise.
    pub fn scale_for(self, quick_secs: u64, default_secs: u64) -> Scale {
        let secs = if self.is_quick() { quick_secs } else { default_secs };
        Scale { sim_time: secs * SEC, ..self.scale() }
    }
}

/// One row of the experiment table.
pub struct Experiment {
    /// The name `netfence run` takes.
    pub name: &'static str,
    /// One line for `netfence list`.
    pub about: &'static str,
    /// Run the experiment and render what `netfence run` prints.
    pub table: fn(Size) -> String,
    /// `--trace`: the one cell that is re-run with observer telemetry on.
    pub traced: Option<fn(Size) -> ScenarioSpec>,
    /// Whether the row has a `--full` sweep.
    pub full: bool,
    /// The pinned `--quick` output.
    pub golden: &'static str,
}

/// A row with no optional flags, its `--quick` output pinned by
/// `golden/<name>.txt`.
macro_rules! pinned {
    ($name:literal, $about:literal, $table:path) => {
        Experiment {
            name: $name,
            about: $about,
            table: $table,
            traced: None,
            full: false,
            golden: include_str!(concat!("../golden/", $name, ".txt")),
        }
    };
}

/// Every experiment: the paper's evaluation (§6) in order, then the
/// reproduction's own sweeps.
pub static EXPERIMENTS: [Experiment; 12] = [
    Experiment {
        traced: Some(fig8::traced_spec),
        ..pinned!("fig8", "20 KB transfer time under unwanted request floods", fig8::table)
    },
    pinned!("fig9", "user/attacker throughput ratio under colluding floods", fig9::table),
    pinned!("fig10", "Group-A throughput on the two-bottleneck parking lot", fig10::table),
    pinned!("fig11", "synchronized on-off (shrew) attacks", fig11::table),
    pinned!("fig13", "Appendix B.1 multi-bottleneck feedback (fluid model)", fig13::table_fig13),
    pinned!("fig14", "Appendix B.2 rate-limiter inference (fluid model)", fig13::table_fig14),
    pinned!("deployment", "deploying-source-AS fraction vs legitimate goodput", deployment::table),
    Experiment {
        full: true,
        ..pinned!(
            "topo_scale",
            "host count vs network shape, routing memory, packets",
            topo_scale::table
        )
    },
    pinned!("reaction", "control-plane latency/loss/outage vs time to restore", reaction::table),
    pinned!("tournament", "defense x strategy x topology x coverage regrets", tournament::table),
    Experiment {
        traced: Some(chaos::traced_spec),
        ..pinned!("chaos", "defense x fault x severity: recovery time, availability", chaos::table)
    },
    pinned!("ablations", "hysteresis window, leaky vs token bucket, AIMD delta", ablations::table),
];

/// Look a row up by name.
pub fn find(name: &str) -> Result<&'static Experiment, String> {
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment `{name}`; `netfence list` names them all"))
}

/// `netfence list`: one line per row with the flags it takes.
pub fn list() -> String {
    table_of(&["experiment", "flags", "prints"], &EXPERIMENTS, |e| {
        let full = if e.full { " --full" } else { "" };
        let trace = if e.traced.is_some() { " --trace" } else { "" };
        vec![e.name.to_string(), format!("--quick{full}{trace}"), e.about.to_string()]
    })
}

/// `netfence run <name>`: the experiment's output, or a usage error when
/// the row does not support `--full` / `--trace`.
pub fn run(name: &str, size: Size, trace: bool) -> Result<String, String> {
    let e = find(name)?;
    if size == Size::Full && !e.full {
        return Err(format!("`{name}` has no --full sweep"));
    }
    match (trace, e.traced) {
        (false, _) => Ok((e.table)(size)),
        (true, Some(spec)) => run_traced(e.name, spec(size)),
        (true, None) => Err(format!("`{name}` has no --trace cell")),
    }
}

/// Run one cell with full observer telemetry: print its drop budget,
/// engine counters and fault windows, and write the timeline probes and
/// sampled packet flight records to `target/telemetry/<name>_*.jsonl`.
fn run_traced(name: &str, spec: ScenarioSpec) -> Result<String, String> {
    let (record, dump) = Runner::new(spec.traced(TelemetryConfig::full(4))).run_with_telemetry();
    let e = &record.engine;
    let mut out = format!(
        "{name} (NetFence cell, traced): drop budget\n\n{}\n\
         engine: {} events, {} forwards, {} enqueues, {} dequeues, {} drops\n",
        drop_budget_table(&record),
        e.events,
        e.forwards,
        e.enqueues,
        e.dequeues,
        e.drops
    );
    for (i, w) in record.faults.iter().enumerate() {
        out += &format!(
            "fault {i}: {} at {}s, cleared {}s, recovery (s) {}\n",
            w.kind,
            w.at / SEC,
            w.clear_at / SEC,
            opt1(record.fault_recovery_secs(i), "never")
        );
    }
    let fault_marks =
        dump.timeline_jsonl.lines().filter(|l| l.contains("\"series\":\"fault\"")).count();
    let timeline =
        write_under("target/telemetry", &format!("{name}_timeline.jsonl"), &dump.timeline_jsonl)?;
    let trace = write_under("target/telemetry", &format!("{name}_trace.jsonl"), &dump.trace_jsonl)?;
    Ok(out
        + &format!(
            "timeline: {} rows ({fault_marks} fault marks, {} evicted); \
             trace: {} hop events ({} evicted)\nwrote {timeline} and {trace}\n",
            dump.timeline_rows, dump.timeline_evicted, dump.trace_events, dump.trace_evicted
        ))
}

/// Write `dir/file` (creating `dir`), returning the path for the report.
fn write_under(dir: &str, file: &str, contents: &str) -> Result<String, String> {
    let path = format!("{dir}/{file}");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, contents))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(path)
}

/// Re-run one row at `--quick` and compare with its golden. On a mismatch
/// the actual output goes to `target/golden/<name>.txt` and the error names
/// the first differing line and how to re-bless.
fn check_golden(e: &Experiment) -> Result<(), String> {
    let actual = (e.table)(Size::Quick);
    if actual == e.golden {
        return Ok(());
    }
    let line = actual.lines().zip(e.golden.lines()).take_while(|(a, g)| a == g).count();
    let path = write_under("target/golden", &format!("{}.txt", e.name), &actual)?;
    Err(format!(
        "{name}: output differs from crates/experiments/golden/{name}.txt at line {n}\n\
         \x20 golden: {g}\n\
         \x20 actual: {a}\n\
         if the change is intended: cp {path} crates/experiments/golden/{name}.txt",
        name = e.name,
        n = line + 1,
        g = e.golden.lines().nth(line).unwrap_or("<end of file>"),
        a = actual.lines().nth(line).unwrap_or("<end of file>"),
    ))
}

/// `netfence check`: every row against its golden; all mismatches are
/// reported, not just the first.
pub fn check() -> Result<String, String> {
    let (mut ok, mut failed) = (String::new(), Vec::new());
    for e in &EXPERIMENTS {
        match check_golden(e) {
            Ok(()) => ok += &format!("ok  {}\n", e.name),
            Err(msg) => failed.push(msg),
        }
    }
    if failed.is_empty() {
        Ok(ok)
    } else {
        Err(failed.join("\n"))
    }
}
