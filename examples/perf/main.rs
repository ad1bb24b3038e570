//! `perf` — the repo's one benchmark (see `README.md` beside this file).
//!
//! ```text
//! perf run --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out f.json]
//! perf layers [--seed N] [--out f.json]
//! perf trace [--workload <name>] [--seed N] [--out trace.json]
//! perf all [--seed N] [--seconds S] [--repeat N] [--out f.json]
//! perf diff <a.json> <b.json>
//! perf check
//! ```
//!
//! Run it either as the root crate's example
//! (`cargo run --release --example perf -- <cmd>`) or as its own package
//! (`cargo run --release --manifest-path examples/perf/Cargo.toml -- <cmd>`);
//! `BENCHMARK.json` uses the second form. It measures every layer from
//! outside, through the crates' public functions, and adds nothing to them.

mod alloc;
mod bench;
mod clock;
mod diff;
mod json;
mod layers;
mod report;
mod stat;
mod trace;
mod traced;
mod workloads;

use std::process::{Command, ExitCode};

use json::Value;
use report::{RunResult, END_TO_END};
use trace::Tracer;
use workloads::{Workload, WORKLOADS};

/// Default seed; threaded into `ScenarioSpec::seed` / `Scale.seed` only.
const DEFAULT_SEED: u64 = 7;
/// Default measuring time of one timed run, seconds (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 22.0;
/// Where `perf diff` and `perf check` find the bounds and metric names:
/// the root of the checkout the benchmark is run from.
const BENCHMARK_JSON: &str = "BENCHMARK.json";

/// `--key value` flags after the command word, plus bare positionals.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let (mut flags, mut positional) = (Vec::new(), Vec::new());
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    flags.push((key.to_string(), value.clone()));
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }

    /// The workloads a command covers: the one named, or all five.
    fn workloads(&self, seed: u64) -> Result<Vec<Workload>, String> {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        match self.get("workload") {
            None => Ok(names.iter().filter_map(|n| Workload::new(n, seed, false)).collect()),
            Some(name) => Workload::new(name, seed, false)
                .map(|w| vec![w])
                .ok_or_else(|| format!("unknown workload `{name}`; one of {}", names.join(", "))),
        }
    }
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn write_json(path: &str, doc: &Value) -> Result<(), String> {
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("cannot write {path}: {e}"))
}

/// One workload, timed or traced; the driver's entry point.
fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds = args.number("seconds", DEFAULT_SECONDS)?;
    let traced = args.number("trace", 0u8)? != 0;
    args.get("workload").ok_or("--workload <name> is required")?;
    let workload = args.workloads(seed)?.remove(0);
    let (result, spans) = if traced {
        let mut tracer = Tracer::new(workload.name);
        let result = traced::run_traced(&workload, seed, layers::BATCHES, false, &mut tracer);
        tracer.print_self_times();
        (result, Some(tracer.to_json()))
    } else {
        (bench::run_timed(&workload, seed, seconds, bench::MIN_REPS), None)
    };
    let mut doc = result.to_json();
    if let Some(spans) = spans {
        doc.set("spans", spans);
    }
    result.print();
    if let Some(path) = args.get("out") {
        write_json(path, &doc)?;
    }
    // A parent `perf all` reads this line; the driver reads the last one.
    println!("result {}", result.to_json().render());
    println!("{}", result.contract_line());
    // Failed ops are reported in the result line, not the exit code: a run
    // that printed a result exits 0 (`perf all` and `perf check` gate).
    Ok(ExitCode::SUCCESS)
}

/// The microbenchmark table on its own.
fn cmd_layers(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("seed", DEFAULT_SEED)?;
    let mut tracer = Tracer::new("-");
    let metrics = layers::run(seed, layers::BATCHES, false, &mut tracer);
    let result = RunResult {
        workload: "-".to_string(),
        seed,
        trace: true,
        ops: metrics.len() as u64,
        failed_ops: 0,
        failed_checks: Vec::new(),
        metrics,
        exact: Value::obj(),
    };
    result.print();
    if let Some(path) = args.get("out") {
        write_json(path, &result.to_json())?;
    }
    Ok(ExitCode::SUCCESS)
}

/// The traced run of one or all workloads in this process, spans written out.
fn cmd_trace(args: &Args) -> Result<ExitCode, String> {
    let seed = args.number("seed", DEFAULT_SEED)?;
    let mut tracer = Tracer::new("-");
    let mut failed = 0;
    for workload in args.workloads(seed)? {
        tracer.workload = workload.name.to_string();
        let result = traced::run_traced(&workload, seed, layers::BATCHES, false, &mut tracer);
        result.print();
        failed += result.failed_ops;
    }
    tracer.print_self_times();
    let mut doc = Value::obj();
    doc.set("schema", "netfence-perf-trace/1").set("seed", seed).set("spans", tracer.to_json());
    write_json(args.get("out").unwrap_or("trace.json"), &doc)?;
    Ok(if failed == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Every workload timed and traced, each run in a fresh child process so
/// peak RSS and allocator state are per run. `--repeat N` makes N timed runs
/// of each workload (interleaved across workloads, so host drift spreads
/// over all of them) for `perf diff` to take medians and spreads over.
fn cmd_all(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.number("seed", DEFAULT_SEED)?;
    let seconds: f64 = args.number("seconds", DEFAULT_SECONDS)?;
    let repeat: usize = args.number("repeat", 1)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut runs = Vec::new();
    let mut failed = 0.0;
    // Round 0 is the traced runs; rounds 1..=repeat are the timed ones.
    for round in 0..=repeat {
        let trace = if round == 0 { "1" } else { "0" };
        for (name, _) in WORKLOADS {
            let output = Command::new(&exe)
                .args(["run", "--workload", name, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start a child run: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut result = None;
            let lines: Vec<&str> = stdout.lines().collect();
            // Echo the child's report; keep its machine-readable lines back.
            for line in &lines[..lines.len().saturating_sub(1)] {
                match line.strip_prefix("result ") {
                    Some(json) => result = Some(Value::parse(json)?),
                    None => println!("{line}"),
                }
            }
            let result = result.ok_or(format!("{name} (trace {trace}) printed no result"))?;
            failed += result.get("failed_ops").and_then(Value::num).unwrap_or(1.0);
            runs.push(result);
        }
    }
    let mut doc = Value::obj();
    doc.set("schema", "netfence-perf/1")
        .set("seed", seed)
        .set("seconds", seconds)
        .set("nproc", std::thread::available_parallelism().map_or(1, |n| n.get() as u64))
        .set("profile", if cfg!(debug_assertions) { "debug" } else { "release" })
        .set("runs", runs);
    if let Some(path) = args.get("out") {
        write_json(path, &doc)?;
    }
    println!("perf all: {} workloads, seed {seed}, {} failed ops", WORKLOADS.len(), failed);
    Ok(if failed == 0.0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn cmd_diff(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("usage: perf diff <base.json> <change.json>".to_string());
    };
    let bounds = diff::bounds_of(&read_json(BENCHMARK_JSON)?)?;
    let regressed = diff::diff(&read_json(a)?, &read_json(b)?, &bounds);
    println!("perf diff: {}", if regressed { "REGRESSED" } else { "no regression" });
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// Seconds-long smoke: every workload at a tenth of its size, every metric
/// `BENCHMARK.json` names emitted exactly once and finite, every check green.
fn cmd_check(_args: &Args) -> Result<ExitCode, String> {
    let benchmark = read_json(BENCHMARK_JSON)?;
    let names_of = |key: &str| -> Vec<String> {
        let entries = benchmark.get(key).map(Value::arr).unwrap_or_default();
        entries.iter().filter_map(|e| e.get("name")?.str().map(String::from)).collect()
    };
    let mut problems: Vec<String> = Vec::new();
    let declared: Vec<(String, String)> = benchmark
        .get("workloads")
        .map(Value::arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| Some((w.get("name")?.str()?.to_string(), w.get("why")?.str()?.to_string())))
        .collect();
    if !declared.iter().map(|(n, w)| (n.as_str(), w.as_str())).eq(WORKLOADS) {
        problems.push("BENCHMARK.json workloads differ from the program's WORKLOADS".into());
    }
    if !names_of("end_to_end").iter().map(String::as_str).eq(END_TO_END.map(|(n, _, _)| n)) {
        problems.push("BENCHMARK.json end_to_end differs from the program's END_TO_END".into());
    }

    let mut tracer = Tracer::new("-");
    for (name, _) in WORKLOADS {
        let workload = Workload::new(name, DEFAULT_SEED, true).expect("a canonical workload");
        tracer.workload = name.to_string();
        let timed = bench::run_timed(&workload, DEFAULT_SEED, 0.0, 1);
        let traced =
            traced::run_traced(&workload, DEFAULT_SEED, layers::CHECK_BATCHES, true, &mut tracer);
        for (result, key) in [(&timed, "end_to_end"), (&traced, "per_layer")] {
            let mut emitted: Vec<&str> = result.metrics.iter().map(|m| m.name.as_str()).collect();
            let mut wanted = names_of(key);
            emitted.sort_unstable();
            wanted.sort_unstable();
            if !emitted.iter().copied().eq(wanted.iter().map(String::as_str)) {
                let odd: Vec<&str> = emitted
                    .iter()
                    .copied()
                    .filter(|n| !wanted.iter().any(|w| w == n))
                    .chain(wanted.iter().map(String::as_str).filter(|w| !emitted.contains(w)))
                    .collect();
                problems.push(format!("{name}: {key} names differ from BENCHMARK.json: {odd:?}"));
            }
            for m in &result.metrics {
                if !m.value.is_finite() {
                    problems.push(format!("{name}: {} is not finite", m.name));
                }
            }
            for check in &result.failed_checks {
                problems.push(format!("{name}: failed check {check}"));
            }
        }
        println!("check {name}: {} + {} metrics", timed.metrics.len(), traced.metrics.len());
    }
    if tracer.worst_root_gap() > 0.01 {
        problems.push(format!("span self times miss a root by {}", tracer.worst_root_gap()));
    }
    for p in &problems {
        println!("PROBLEM {p}");
    }
    println!("perf check: {}", if problems.is_empty() { "ok" } else { "FAILED" });
    Ok(if problems.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!(
            "usage: perf <run|layers|trace|all|diff|check> [flags]  (examples/perf/README.md)"
        );
        return ExitCode::from(2);
    };
    let outcome = Args::parse(rest).and_then(|args| match command.as_str() {
        "run" => cmd_run(&args),
        "layers" => cmd_layers(&args),
        "trace" => cmd_trace(&args),
        "all" => cmd_all(&args),
        "diff" => cmd_diff(&args),
        "check" => cmd_check(&args),
        other => Err(format!("unknown command `{other}`")),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}
