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
use noclat_engine::{self as sweep, fail_usage, ExitCode, Job, Json, Obj, RestFlags, SweepArgs};
use noclat_workloads::workload;

const USAGE: &str = "chaos kill|truncate|corrupt|timeout|all [--dir PATH]";

/// Cells in the worker's grid. Big enough that a mid-run kill leaves both
/// finished and unfinished cells behind; small enough to stay fast.
const GRID_CELLS: u64 = 6;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(scenario) = argv.first() else {
        fail_usage("which scenario?", USAGE)
    };
    if scenario == "worker" {
        // The victim is a sweep harness: it takes `NOCLAT_QUICK` like one.
        worker(&SweepArgs::process_argv()[1..]);
        return;
    }
    let mut flags = RestFlags::new(&argv[1..], USAGE);
    let dir = flags.take("--dir", |v| Ok::<_, String>(PathBuf::from(v)));
    flags.finish();
    let dir = dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("noclat-chaos-{}", std::process::id()))
    });
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
        other => fail_usage(&format!("unknown scenario {other}"), USAGE),
    };
    if ok {
        println!("chaos: all scenario checks passed");
    } else {
        eprintln!("chaos: FAILED");
        ExitCode::Generic.exit();
    }
}

/// Hidden subcommand run in a child process: a `GRID_CELLS`-cell simulation
/// grid through `SweepArgs`/`run_grid`, writing the standard JSON report.
///
/// `--chaos-sleep-cell I` plants a cell that blocks (cancellation-aware)
/// instead of simulating; with `--chaos-sleep-once` it only blocks on
/// attempt 0, modelling a transient hang that a retry clears.
fn worker(argv: &[String]) {
    let (args, mut rest) = SweepArgs::parse_or_exit(argv, USAGE);
    let sleep_once = rest.iter().any(|a| a == "--chaos-sleep-once");
    rest.retain(|a| a != "--chaos-sleep-once");
    let mut flags = RestFlags::new(&rest, USAGE);
    let sleep_cell: Option<u64> = flags.take("--chaos-sleep-cell", str::parse);
    flags.finish();

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

/// This binary as a single-worker victim writing its report to `json`,
/// journaling to `journal` if given, stdout discarded.
fn worker_command(json: &Path, journal: Option<&Path>, extra: &[&str]) -> Command {
    let mut cmd = Command::new(std::env::current_exe().expect("own binary path"));
    cmd.args(["worker", "--jobs", "1", "--json"]).arg(json);
    if let Some(journal) = journal {
        cmd.arg("--resume").arg(journal);
    }
    cmd.args(extra).stdout(Stdio::null());
    cmd
}

/// Runs a worker to completion, returning its exit code.
fn run_worker(json: &Path, journal: Option<&Path>, extra: &[&str]) -> i32 {
    let status = worker_command(json, journal, extra).status();
    status.expect("spawn worker").code().unwrap_or(-1)
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

/// A worker run that must succeed and reproduce the golden report `gold`
/// (checks `<stage>-exit` and `<stage>-byte-identical`).
fn converges(stage: &str, json: &Path, journal: Option<&Path>, extra: &[&str], gold: &str) -> bool {
    let code = run_worker(json, journal, extra);
    let ok = check(&format!("{stage}-exit"), code == 0, &format!("exit {code}"));
    let report = std::fs::read_to_string(json).unwrap_or_default();
    ok & check(
        &format!("{stage}-byte-identical"),
        report == gold,
        "JSON differs from the uninterrupted golden run",
    )
}

/// SIGKILL the sweep once it has journaled some (but not all) cells, then
/// resume and require byte-identical output.
fn scenario_kill(dir: &Path) -> bool {
    let gold = golden(dir, "kill");
    let journal = dir.join("kill.nj");
    let json = dir.join("kill.json");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&json);

    let mut child = worker_command(&json, Some(&journal), &[])
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
    ok & converges("kill/resume", &json, Some(&journal), &[], &gold)
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

    ok &= converges(&format!("{kind}/resume"), &json, Some(&journal), &[], &gold);
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
    let hang_once = "--job-timeout 5 --retries 1 --chaos-sleep-cell 3 --chaos-sleep-once";
    let hang_once: Vec<&str> = hang_once.split(' ').collect();
    ok &= converges("timeout/retry", &json, None, &hang_once, &gold);
    ok
}
