//! Chaos harness for the resilient sweep engine: crash it on purpose,
//! prove recovery converges to the golden result.
//!
//! ```text
//! chaos <scenario> [--dir PATH]
//! ```
//!
//! Scenarios (each self-validates and exits nonzero on any divergence):
//!
//! * `kill`     — SIGKILL a journaled sweep mid-run, resume it, assert the
//!   final JSON is byte-identical to an uninterrupted golden run.
//! * `truncate` — chop the journal mid-record (a torn write), resume,
//!   assert byte-identical output.
//! * `corrupt`  — flip a byte in the journal tail (bit rot), resume,
//!   assert byte-identical output.
//! * `timeout`  — run a sweep with a deliberately hanging cell under
//!   `--job-timeout`: with no retries it must exit with the JobTimeout
//!   code (4); with `--retries 1` and a cell that hangs only on its first
//!   attempt it must succeed with golden output.
//! * `all`      — every scenario above, in order.
//!
//! The harness re-executes its own binary (`worker` subcommand, hidden) as
//! the victim process, so killing it never takes the orchestrator down.
//! The worker runs a small but real simulation grid through the standard
//! `SweepArgs`/`run_grid` path — exactly what every figure harness uses —
//! with optional `--chaos-sleep-*` flags to plant a hanging cell.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use noclat::{run_mix, RunLengths, SystemConfig};
use noclat_engine::{self as sweep, ExitCode, Job, Json, Obj, SweepArgs};
use noclat_workloads::workload;

const USAGE: &str = "chaos kill|truncate|corrupt|timeout|all [--dir PATH]";

/// Cells in the worker's grid. Big enough that a mid-run kill leaves both
/// finished and unfinished cells behind; small enough to stay fast.
const GRID_CELLS: u64 = 6;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(scenario) = argv.first() else {
        eprintln!("usage: {USAGE}");
        ExitCode::Config.exit();
    };
    if scenario == "worker" {
        // The victim is a sweep harness: it takes `NOCLAT_QUICK` like one.
        worker(&SweepArgs::process_argv()[1..]);
        return;
    }
    let mut dir = std::env::temp_dir().join(format!("noclat-chaos-{}", std::process::id()));
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--dir" => {
                let Some(v) = argv.get(i + 1) else {
                    eprintln!("error: --dir needs a value");
                    ExitCode::Config.exit();
                };
                dir = PathBuf::from(v);
                i += 2;
            }
            other => {
                eprintln!("error: unknown argument {other}");
                eprintln!("usage: {USAGE}");
                ExitCode::Config.exit();
            }
        }
    }
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {}: {e}", dir.display());
        ExitCode::Generic.exit();
    }

    let ok = match scenario.as_str() {
        "kill" => scenario_kill(&dir),
        "truncate" => scenario_damage(&dir, "truncate"),
        "corrupt" => scenario_damage(&dir, "corrupt"),
        "timeout" => scenario_timeout(&dir),
        "all" => {
            let mut ok = scenario_kill(&dir);
            ok &= scenario_damage(&dir, "truncate");
            ok &= scenario_damage(&dir, "corrupt");
            ok &= scenario_timeout(&dir);
            ok
        }
        other => {
            eprintln!("error: unknown scenario {other}");
            eprintln!("usage: {USAGE}");
            ExitCode::Config.exit();
        }
    };
    if ok {
        println!("chaos: all scenario checks passed");
    } else {
        eprintln!("chaos: FAILED");
        ExitCode::Generic.exit();
    }
}

// ---------------------------------------------------------------------------
// The victim: a small real sweep through the standard harness path
// ---------------------------------------------------------------------------

/// Hidden subcommand run in a child process: a `GRID_CELLS`-cell simulation
/// grid through `SweepArgs`/`run_grid`, writing the standard JSON report.
///
/// `--chaos-sleep-cell I` plants a cell that blocks (cancellation-aware)
/// instead of simulating; with `--chaos-sleep-once` it only blocks on
/// attempt 0, modelling a transient hang that a retry clears.
fn worker(argv: &[String]) {
    let mut filtered = Vec::new();
    let mut sleep_cell: Option<u64> = None;
    let mut sleep_once = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--chaos-sleep-cell" => {
                sleep_cell = Some(argv[i + 1].parse().expect("--chaos-sleep-cell: bad index"));
                i += 2;
            }
            "--chaos-sleep-once" => {
                sleep_once = true;
                i += 1;
            }
            other => {
                filtered.push(other.to_string());
                i += 1;
            }
        }
    }
    let (args, rest) = SweepArgs::parse_argv(&filtered).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::Config.exit();
    });
    if let Some(unknown) = rest.first() {
        eprintln!("error: unknown argument {unknown}");
        ExitCode::Config.exit();
    }

    let lengths = RunLengths {
        warmup: 200,
        measure: 1_500,
    };
    let jobs: Vec<Job<(u64, f64)>> = (0..GRID_CELLS)
        .map(|c| {
            let seed = sweep::job_seed(args.seed, c);
            let blocks = sleep_cell == Some(c);
            Job::with_ctx(format!("chaos/cell-{c}"), move |ctx| {
                if blocks && (!sleep_once || ctx.attempt == 0) {
                    // A hung cell: cancellation-aware so the process itself
                    // stays healthy; the deadline supervisor unblocks it.
                    let start = Instant::now();
                    while !ctx.cancel.is_cancelled() {
                        if start.elapsed() > Duration::from_secs(120) {
                            panic!("deadline supervisor never fired");
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    return (0, 0.0);
                }
                let mut cfg = SystemConfig::baseline_32();
                cfg.seed = seed;
                let r = run_mix(&cfg, &workload(2).apps(), lengths);
                (
                    r.per_app.iter().map(|a| a.offchip).sum(),
                    r.per_app.iter().map(|a| a.ipc).sum(),
                )
            })
        })
        .collect();
    let cells = sweep::run_grid(&args, jobs);
    let body: Vec<Json> = cells
        .iter()
        .map(|&(offchip, ipc)| {
            Obj::new()
                .field("offchip", offchip)
                .field("ipc", ipc)
                .build()
        })
        .collect();
    let json = sweep::report("chaos-worker", &args, Json::Arr(body));
    sweep::finish(&args, &json);
}

// ---------------------------------------------------------------------------
// Orchestration helpers
// ---------------------------------------------------------------------------

fn self_command() -> Command {
    Command::new(std::env::current_exe().expect("own binary path"))
}

fn worker_args(json: &Path, journal: Option<&Path>, extra: &[&str]) -> Vec<String> {
    let mut v = vec![
        "worker".to_string(),
        "--jobs".to_string(),
        "1".to_string(),
        "--json".to_string(),
        json.display().to_string(),
    ];
    if let Some(j) = journal {
        v.push("--resume".to_string());
        v.push(j.display().to_string());
    }
    v.extend(extra.iter().map(ToString::to_string));
    v
}

/// Runs a worker to completion, returning its exit code.
fn run_worker(json: &Path, journal: Option<&Path>, extra: &[&str]) -> i32 {
    let status = self_command()
        .args(worker_args(json, journal, extra))
        .stdout(Stdio::null())
        .status()
        .expect("spawn worker");
    status.code().unwrap_or(-1)
}

/// Golden output: an uninterrupted, unjournaled run.
fn golden(dir: &Path, name: &str) -> String {
    let path = dir.join(format!("{name}-golden.json"));
    let code = run_worker(&path, None, &[]);
    assert_eq!(code, 0, "golden run must succeed");
    std::fs::read_to_string(&path).expect("golden report")
}

fn count_records(journal: &Path) -> usize {
    std::fs::read_to_string(journal)
        .map(|t| t.lines().filter(|l| l.starts_with("r ")).count())
        .unwrap_or(0)
}

fn check(label: &str, ok: bool, detail: &str) -> bool {
    if ok {
        println!("chaos: {label}: ok");
    } else {
        eprintln!("chaos: {label}: FAILED ({detail})");
    }
    ok
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// SIGKILL the sweep once it has journaled some (but not all) cells, then
/// resume and require byte-identical output.
fn scenario_kill(dir: &Path) -> bool {
    let gold = golden(dir, "kill");
    let journal = dir.join("kill.nj");
    let json = dir.join("kill.json");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&json);

    let mut child = self_command()
        .args(worker_args(&json, Some(&journal), &[]))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim");
    // Kill as soon as the journal holds at least two records but before the
    // grid can finish (single worker, so cells land one at a time).
    let deadline = Instant::now() + Duration::from_secs(120);
    let killed_mid_run = loop {
        if child.try_wait().expect("poll victim").is_some() {
            break false; // finished before we could kill it
        }
        if count_records(&journal) >= 2 {
            child.kill().expect("SIGKILL victim"); // SIGKILL on unix
            child.wait().expect("reap victim");
            break true;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            break false;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let mut ok = check(
        "kill/mid-run",
        killed_mid_run,
        "victim finished before the kill landed; grid too small or machine too fast",
    );
    let records = count_records(&journal);
    ok &= check(
        "kill/journal-partial",
        records >= 2 && records < GRID_CELLS as usize,
        &format!("{records} records for {GRID_CELLS} cells"),
    );
    // The kill landed between a record flush and the report write, so the
    // report must not exist yet.
    ok &= check(
        "kill/no-report",
        !json.exists(),
        "victim wrote its report despite being killed",
    );
    let code = run_worker(&json, Some(&journal), &[]);
    ok &= check("kill/resume-exit", code == 0, &format!("exit {code}"));
    let resumed = std::fs::read_to_string(&json).unwrap_or_default();
    ok &= check(
        "kill/byte-identical",
        resumed == gold,
        "resumed JSON differs from the uninterrupted golden run",
    );
    ok
}

/// Damage the journal tail (truncate mid-record or flip a byte), then
/// resume and require byte-identical output.
fn scenario_damage(dir: &Path, kind: &str) -> bool {
    let gold = golden(dir, kind);
    let journal = dir.join(format!("{kind}.nj"));
    let json = dir.join(format!("{kind}.json"));
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&json);

    // Build a complete journal, then damage its tail.
    let code = run_worker(&json, Some(&journal), &[]);
    let mut ok = check(
        &format!("{kind}/seed-run"),
        code == 0,
        &format!("exit {code}"),
    );
    let mut bytes = std::fs::read(&journal).expect("journal bytes");
    let n = bytes.len();
    match kind {
        "truncate" => bytes.truncate(n - 7), // tear the last record mid-line
        "corrupt" => bytes[n - 3] ^= 0x40,   // flip a payload bit in the tail
        other => unreachable!("unknown damage kind {other}"),
    }
    std::fs::write(&journal, &bytes).expect("write damaged journal");
    let _ = std::fs::remove_file(&json);

    let code = run_worker(&json, Some(&journal), &[]);
    ok &= check(
        &format!("{kind}/resume-exit"),
        code == 0,
        &format!("exit {code}"),
    );
    let resumed = std::fs::read_to_string(&json).unwrap_or_default();
    ok &= check(
        &format!("{kind}/byte-identical"),
        resumed == gold,
        "resumed JSON differs from the uninterrupted golden run",
    );
    // Recovery must have recomputed the damaged cell: the journal is whole
    // again and reusable.
    ok &= check(
        &format!("{kind}/journal-healed"),
        count_records(&journal) >= GRID_CELLS as usize,
        "re-run did not restore the damaged record",
    );
    ok
}

/// Deadline enforcement end-to-end: a hanging cell must fail the sweep with
/// the JobTimeout exit code, and a transient hang must be cleared by
/// `--retries 1` with golden output.
fn scenario_timeout(dir: &Path) -> bool {
    let gold = golden(dir, "timeout");
    let json = dir.join("timeout.json");
    let _ = std::fs::remove_file(&json);

    // Permanently hung cell, no retries: exit code 4, no report.
    let code = run_worker(
        &json,
        None,
        &["--job-timeout", "5", "--chaos-sleep-cell", "3"],
    );
    let mut ok = check(
        "timeout/exit-code",
        code == ExitCode::JobTimeout.code(),
        &format!("exit {code}, want {}", ExitCode::JobTimeout),
    );
    ok &= check(
        "timeout/no-report",
        !json.exists(),
        "a quarantined sweep must not write a report",
    );

    // Transient hang (attempt 0 only) + one retry: full recovery.
    let code = run_worker(
        &json,
        None,
        &[
            "--job-timeout",
            "5",
            "--retries",
            "1",
            "--chaos-sleep-cell",
            "3",
            "--chaos-sleep-once",
        ],
    );
    ok &= check("timeout/retry-exit", code == 0, &format!("exit {code}"));
    let retried = std::fs::read_to_string(&json).unwrap_or_default();
    ok &= check(
        "timeout/retry-byte-identical",
        retried == gold,
        "retried JSON differs from the uninterrupted golden run",
    );
    ok
}
