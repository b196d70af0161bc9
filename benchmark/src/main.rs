//! `noclat-benchmark`: one pinned performance observatory for the
//! simulator — six workloads, both kernels, end-to-end and per-layer
//! numbers. See `README.md` beside this package for how to read it.
//!
//! `run` executes each selected workload in its own child process (this
//! same binary, `child` subcommand), so peak memory is per workload and a
//! crash in one cannot corrupt the next. It claims no gain: it is the
//! baseline later claims are measured against.

mod figsweep;
mod layers;
mod simwl;
mod spec;
mod stats;
mod sweepd;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use noclat::SystemConfig;
use noclat_engine::{Json, Obj};

use spec::{Metrics, END_TO_END, PER_LAYER, UNGATED, WORKLOADS};
use trace::Tracer;

const USAGE: &str = "\
usage: noclat-benchmark run [--workload NAME]... [--seed N] [--seconds S]
                            [--trace 0|1 | --traced] [--check-only]

  --workload NAME  one of: paper_load mem_bound idle_heavy big_fabric
                   fig_sweep sweepd (repeatable; default: all six)
  --seed N         workload seed (default: SystemConfig::baseline_32().seed)
  --seconds S      scales every workload's fixed plan; 10 (the default) is
                   the issue's plan, BENCHMARK.json runs 15
  --trace 1        traced run only (the acceptance driver's spelling):
                   per-layer metrics, benchmark/out/trace-*.json
  --traced         untraced run, then traced run, then trace_overhead_pct
  --check-only     re-derive the pinned digests and counts of the simulation
                   workloads in short form into benchmark/out/expected.json;
                   exit non-zero where they differ from benchmark/expected.json";

/// `--seconds` when absent. Every workload runs a fixed plan sized to
/// measure for about this long on the baseline box; another `--seconds`
/// (`BENCHMARK.json` asks for 15) scales the plan, not a deadline, so the
/// sample counts do not depend on how fast the host is.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// What one workload run hands back: the contract's four keys.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// An outcome with no metric set yet: the per-layer list for a traced
    /// run, the end-to-end list otherwise.
    #[must_use]
    pub fn new(attempted: u64, failed: u64, traced: bool) -> Outcome {
        Outcome {
            attempted,
            failed,
            metrics: Metrics::new(if traced { &PER_LAYER } else { &END_TO_END }),
        }
    }

    fn to_json(&self) -> Json {
        Obj::new()
            .field("correct", self.failed == 0)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", self.metrics.to_json())
            .build()
    }
}

#[derive(Debug, Clone)]
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    both: bool,
    check_only: bool,
    /// Child only: the `fig11` binary the parent built.
    fig11: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: default_seed(),
        seconds: DEFAULT_SECONDS,
        trace: false,
        both: false,
        check_only: false,
        fig11: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!("unknown workload {name:?}"));
                }
                args.workloads.push(name.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--traced" => args.both = true,
            "--check-only" => args.check_only = true,
            "--fig11" => args.fig11 = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.iter().map(|w| w.to_string()).collect();
    }
    Ok(args)
}

/// The seed every pinned digest was taken with.
#[must_use]
pub fn default_seed() -> u64 {
    SystemConfig::baseline_32().seed
}

/// This package's directory in the checkout the binary was built from.
#[must_use]
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out/`, created on demand: traces, results, scratch files.
///
/// # Panics
///
/// Panics when the directory cannot be created (a read-only checkout).
#[must_use]
pub fn out_dir() -> PathBuf {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out is creatable");
    dir
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB, while it is alive.
#[must_use]
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, rest) = match argv.split_first() {
        Some((mode, rest)) if mode == "run" || mode == "child" => (mode.as_str(), rest),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match mode {
        "child" => child(&args),
        _ if args.check_only => check_only(&args),
        _ => run(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------- child --

/// Runs one workload in this process and prints its result as the last
/// line of stdout.
fn child(args: &Args) -> Result<(), String> {
    let [name] = args.workloads.as_slice() else {
        return Err("child runs exactly one workload".into());
    };
    let mut tracer = Tracer::new(args.trace);
    let outcome = match name.as_str() {
        "fig_sweep" => {
            let fig11 = args
                .fig11
                .as_deref()
                .ok_or("child fig_sweep needs --fig11")?;
            figsweep::run(fig11, args.seed, args.seconds, &mut tracer)?
        }
        "sweepd" => sweepd::run(args.seed, args.seconds, &mut tracer)?,
        sim => run_sim(sim, args, &mut tracer)?,
    };
    if tracer.recording() {
        let path = out_dir().join(format!("trace-{name}.json"));
        tracer
            .write_chrome(&path, name)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "  trace: {} spans -> {}",
            tracer.span_count(),
            path.display()
        );
        eprintln!(
            "  {:<10} {:>6} {:>10} {:>10}",
            "layer", "spans", "total s", "self s"
        );
        for (layer, (n, total, own)) in tracer.layer_table() {
            eprintln!("  {layer:<10} {n:>6} {total:>10.3} {own:>10.3}");
        }
    }
    println!("{}", outcome.to_json().to_compact_string());
    Ok(())
}

fn run_sim(name: &str, args: &Args, tracer: &mut Tracer) -> Result<Outcome, String> {
    let spec = simwl::SimSpec::named(name, args.seed).ok_or("not a simulation workload")?;
    let pinned = if args.seed == default_seed() {
        Some(Expected::load()?.digest(name)?)
    } else {
        None
    };
    let rounds = spec.rounds_for(args.seconds);
    if !tracer.recording() {
        // Half of the extra set-ups before the main leg, half after it, so
        // that they do not all meet the same spell of the host. Each is
        // dropped before the next thing is built, so the peak read after the
        // main leg is one pair of simulations'.
        let mut setup_s: Vec<f64> = (0..spec.setups / 2)
            .map(|_| simwl::set_up(&spec, tracer).1)
            .collect();
        let run = simwl::run(&spec, rounds, pinned, tracer);
        setup_s.push(run.setup_s);
        let peak_rss_mb = own_peak_rss_mb()?;
        // The metrics the issue does not list for this workload.
        let service = sweepd::probe(args.seed)?;
        setup_s.extend((setup_s.len()..spec.setups).map(|_| simwl::set_up(&spec, tracer).1));
        report_samples("setup_s", "s", &setup_s);
        report_samples("cycle-kernel segment", "cyc/s", &run.cycle.rates());
        report_samples("event-kernel segment", "cyc/s", &run.event.rates());
        let mut outcome = Outcome::new(
            run.attempted + service.attempted,
            run.failed + service.failed,
            false,
        );
        let metrics = &mut outcome.metrics;
        let setup = stats::quiet(&setup_s);
        metrics.set("setup_s", setup);
        metrics.set("sim_cycles_per_s.cycle", run.cycle.quiet_rate());
        metrics.set("sim_cycles_per_s.event", run.event.quiet_rate());
        metrics.set("peak_rss_mb", peak_rss_mb);
        // This run's own two cells, one per kernel, set-up and all.
        let cell_s = run.cell_s(setup);
        metrics.set("cells_per_s", 2.0 / (cell_s[0] + cell_s[1]));
        metrics.set("cold_cell_p50_ms", stats::median(&cell_s) * 1e3);
        service.set_latencies(metrics);
        return Ok(outcome);
    }
    // Traced: a shorter main run, then the `CountingProbe` comparison, then
    // the standalone replays of every layer at this workload's operating
    // point.
    let run = simwl::run(&spec, rounds * 2 / 5, pinned, tracer);
    let mut outcome = Outcome::new(run.attempted, run.failed, true);
    let metrics = &mut outcome.metrics;
    layers::sim_metrics(&spec, &run, tracer, metrics);
    let overhead = simwl::probe_overhead_pct(&spec, (rounds / 3).max(3), tracer);
    metrics.set("core.probe_overhead_pct", overhead);
    layers::measure_layers(&spec, &run, tracer, metrics);
    Ok(outcome)
}

/// Peak resident set of this process.
pub fn own_peak_rss_mb() -> Result<f64, String> {
    peak_rss_mb(std::process::id()).ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One stderr line per timing: median, quartiles, extremes and the sample
/// count — the whole spread, whichever of them the metric is.
pub fn report_samples(name: &str, unit: &str, samples: &[f64]) {
    let quartiles = if samples.len() >= 2 {
        let [q1, _, q3] = stats::quartiles(samples);
        format!(" (q1 {q1:.4}, q3 {q3:.4})")
    } else {
        String::new()
    };
    let (min, max) = samples
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    eprintln!(
        "  {name}: median {:.4} {unit}{quartiles}, min {min:.4}, max {max:.4}, n = {}",
        stats::median(samples),
        samples.len()
    );
}

// ------------------------------------------------------------- expected --

/// `expected.json`: per simulation workload, the digest and `*.sim.*`
/// counts at the pin cycle for the default seed.
struct Expected(Json);

impl Expected {
    fn path() -> PathBuf {
        package_dir().join("expected.json")
    }

    fn load() -> Result<Expected, String> {
        let path = Self::path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("seed").and_then(Json::as_u64) != Some(default_seed()) {
            return Err(format!("{}: pinned for another seed", path.display()));
        }
        Ok(Expected(doc))
    }

    fn workload(&self, name: &str) -> Result<&Json, String> {
        self.0
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or_else(|| format!("expected.json has no entry for {name}"))
    }

    fn digest(&self, name: &str) -> Result<u64, String> {
        self.workload(name)?
            .get("digest")
            .and_then(Json::as_str)
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(|| format!("expected.json: {name} has no hex digest"))
    }

    /// The entry `expected.json` should hold for a pin snapshot.
    fn render(pin: &simwl::SimCounts) -> Json {
        let sim = pin
            .metrics()
            .into_iter()
            .fold(Obj::new(), |obj, (name, value)| obj.field(name, value));
        Obj::new()
            .field("pin_cycle", pin.cycle)
            .field("digest", format!("{:016x}", pin.digest))
            .field("sim", sim.build())
            .build()
    }
}

/// `run --check-only`: builds both kernels of every selected simulation
/// workload, runs them to the pin only, writes what it derived to
/// `benchmark/out/expected.json` and compares it with `expected.json`
/// (copy the one over the other to re-pin an intended model change).
fn check_only(args: &Args) -> Result<(), String> {
    let mut tracer = Tracer::new(false);
    let mut entries = Obj::new();
    let mut drifted = Vec::new();
    let expected = Expected::load()?;
    for name in &args.workloads {
        let Some(spec) = simwl::SimSpec::named(name, default_seed()) else {
            continue; // the sweep workloads pin nothing
        };
        let run = simwl::run(&spec, simwl::PIN_ROUNDS, None, &mut tracer);
        let entry = Expected::render(&run.pin);
        // Compared as text: a whole-numbered float parses back as an integer.
        let text = entry.to_compact_string();
        let same = expected
            .workload(name)
            .is_ok_and(|pinned| pinned.to_compact_string() == text);
        let verdict = match (run.failed, same) {
            (0, true) => "ok",
            (0, false) => "DRIFT",
            _ => "KERNELS DISAGREE",
        };
        println!(
            "{name}: cycle {} digest {:016x} {verdict}",
            run.pin.cycle, run.pin.digest
        );
        if verdict != "ok" {
            drifted.push(name.as_str());
            println!("  derived: {text}");
            if let Ok(pinned) = expected.workload(name) {
                println!("  pinned:  {}", pinned.to_compact_string());
            }
        }
        entries = entries.field(name.as_str(), entry);
    }
    let doc = Obj::new()
        .field("seed", default_seed())
        .field("workloads", entries.build())
        .build();
    let derived = out_dir().join("expected.json");
    std::fs::write(&derived, doc.to_json_string())
        .map_err(|e| format!("{}: {e}", derived.display()))?;
    println!("derived: {}", derived.display());
    if !drifted.is_empty() {
        return Err(format!(
            "pinned simulation results drifted: {}",
            drifted.join(", ")
        ));
    }
    Ok(())
}

// --------------------------------------------------------------- parent --

/// Builds the one external binary the benchmark spawns, into the target
/// directory this binary itself was built into. Returns its path and the
/// build's wall time (reported apart from every `setup_s`).
fn build_fig11() -> Result<(PathBuf, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target_dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("benchmark binary is not inside a cargo target directory")?;
    let root = package_dir().parent().ok_or("benchmark/ has no parent")?;
    let started = Instant::now();
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "noclat-bench", "--bin", "fig11", "--target-dir"])
        .arg(target_dir)
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build fig11: {e}"))?;
    if !status.success() {
        return Err(format!(
            "cargo build -p noclat-bench --bin fig11 failed: {status}"
        ));
    }
    Ok((
        target_dir.join("release").join("fig11"),
        started.elapsed().as_secs_f64(),
    ))
}

/// Spawns one child run and parses the result line it prints last.
fn spawn_child(
    args: &Args,
    name: &str,
    traced: bool,
    fig11: Option<&Path>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if let Some(fig11) = fig11.filter(|_| name == "fig_sweep") {
        cmd.arg("--fig11").arg(fig11);
    }
    let output = cmd
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("spawn child {name}: {e}"))?;
    if !output.status.success() {
        return Err(format!("workload {name} failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed no result")?;
    Json::parse(line).map_err(|e| format!("child {name} result: {e}"))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    match result.get("metrics")?.get(name)?.get("value")? {
        Json::Num(v) => Some(*v),
        Json::Uint(v) => Some(*v as f64),
        Json::Int(v) => Some(*v as f64),
        _ => None,
    }
}

fn print_table(name: &str, traced: bool, result: &Json) {
    let flag = |key: &str| result.get(key).map_or("?".into(), Json::to_compact_string);
    println!(
        "== {name} ({}{}): attempted {} failed {} correct {}",
        if traced {
            "traced, per layer"
        } else {
            "untraced, end to end"
        },
        if UNGATED.contains(&name) {
            "; not in BENCHMARK.json, 0 = not measured"
        } else {
            ""
        },
        flag("attempted"),
        flag("failed"),
        flag("correct"),
    );
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return;
    };
    for (metric, body) in metrics {
        let value = metric_value(result, metric).unwrap_or(f64::NAN);
        let unit = body.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {metric:<34} {value:>16.4} {unit}");
    }
}

fn run(args: &Args) -> Result<(), String> {
    println!(
        "noclat-benchmark: seed {} ({}), {} s per workload, {} hardware thread(s)",
        args.seed,
        if args.seed == default_seed() {
            "default: digests pinned"
        } else {
            "digests not pinned"
        },
        args.seconds,
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    println!(
        "host time everywhere except names containing `.sim.` (simulated, exact); the model is \
         validated only against this repository's own goldens, so no accuracy figure against \
         hardware is given"
    );
    let fig11 = if args.workloads.iter().any(|w| w == "fig_sweep") {
        let (path, secs) = build_fig11()?;
        println!("compile_s (fig11, apart from every setup_s): {secs:.3} s");
        Some(path)
    } else {
        None
    };
    let modes: &[bool] = if args.both {
        &[false, true]
    } else {
        &[args.trace]
    };
    let mut all = Obj::new();
    let mut last = Json::Null;
    for name in &args.workloads {
        let mut per_mode = Obj::new();
        let mut untraced_rate = None;
        for &traced in modes {
            let result = spawn_child(args, name, traced, fig11.as_deref())?;
            print_table(name, traced, &result);
            if traced {
                // Like with like: only a simulation workload's two runs time
                // the same segments.
                let traced_rate = metric_value(&result, "bench.traced_cycles_per_s")
                    .filter(|_| !matches!(name.as_str(), "fig_sweep" | "sweepd"));
                if let (Some(u), Some(t)) = (untraced_rate, traced_rate) {
                    println!(
                        "  {:<34} {:>16.4} %",
                        "trace_overhead_pct",
                        (u - t) / u * 100.0
                    );
                }
            } else {
                untraced_rate = metric_value(&result, "sim_cycles_per_s.cycle");
            }
            per_mode = per_mode.field(if traced { "traced" } else { "untraced" }, result.clone());
            last = result;
        }
        all = all.field(name.as_str(), per_mode.build());
    }
    let all = all.build();
    let path = out_dir().join("results.json");
    std::fs::write(&path, all.to_json_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results: {}", path.display());
    // One workload in one mode: the last line is that run's result object,
    // as the acceptance driver reads it. Otherwise: all of them, by name.
    let single = args.workloads.len() == 1 && modes.len() == 1;
    println!("{}", if single { last } else { all }.to_compact_string());
    Ok(())
}
