//! Integration tests of the sweep resilience layer at the library level:
//! journal-backed resume is byte-identical and recomputes only missing
//! cells, damaged journals heal, mismatched journals are rejected, and
//! `--job-timeout`/`--retries` wire through `SweepArgs` into the pool.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use noclat::{JournalError, MixResult, RunLengths, Scheme, SimError, SystemConfig};
use noclat_engine::{
    self as sweep, ExitCode, Job, Json, MixCell, Obj, PruneSpec, ResultCache, SweepArgs,
};
use noclat_workloads::workload;

fn args() -> SweepArgs {
    let (mut args, _) = SweepArgs::parse_argv(&[]).expect("empty argv parses");
    args.jobs = 2;
    args
}

fn temp_journal(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "noclat-resilience-{}-{name}.nj",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// A cheap deterministic grid that counts how many cells actually execute;
/// the cell value mixes the label-derived seed so resume correctness shows
/// up as a value mismatch, not just a count.
fn counted_grid(n: u64, base_seed: u64, runs: &Arc<AtomicUsize>) -> Vec<Job<(u64, f64)>> {
    (0..n)
        .map(|i| {
            let runs = Arc::clone(runs);
            let seed = sweep::job_seed(base_seed, i);
            Job::new(format!("resilience/cell-{i}"), move || {
                runs.fetch_add(1, Ordering::SeqCst);
                (seed.rotate_left(7) ^ i, (seed % 1000) as f64 / 7.0)
            })
        })
        .collect()
}

fn render(results: &[Result<(u64, f64), SimError>], args: &SweepArgs) -> String {
    let cells: Vec<Json> = results
        .iter()
        .map(|r| {
            let (a, b) = r.as_ref().expect("cell ok");
            Obj::new().field("a", *a).field("b", *b).build()
        })
        .collect();
    sweep::report("resilience-test", args, Json::Arr(cells)).to_json_string()
}

/// The tentpole acceptance property: a sweep interrupted after journaling a
/// strict subset of its cells and then resumed produces a JSON report
/// byte-identical to an uninterrupted run, and recomputes only the cells the
/// interruption lost.
#[test]
fn resumed_sweep_is_byte_identical_and_recomputes_only_missing_cells() {
    let runs = Arc::new(AtomicUsize::new(0));
    let plain = args();
    let golden =
        sweep::try_run_grid(&plain, counted_grid(6, plain.seed, &runs)).expect("no journal");
    let golden_json = render(&golden, &plain);
    assert_eq!(runs.swap(0, Ordering::SeqCst), 6);

    // "Interrupted" run: only the first three cells reach the journal.
    let mut journaled = args();
    journaled.resume = Some(temp_journal("resume"));
    let partial =
        sweep::try_run_grid(&journaled, counted_grid(3, journaled.seed, &runs)).expect("journal");
    assert!(partial.iter().all(Result::is_ok));
    assert_eq!(runs.swap(0, Ordering::SeqCst), 3);

    // Resume with the full grid: the journaled half is decoded, not re-run.
    let resumed =
        sweep::try_run_grid(&journaled, counted_grid(6, journaled.seed, &runs)).expect("journal");
    assert_eq!(
        runs.swap(0, Ordering::SeqCst),
        3,
        "cached cells must not execute again"
    );
    assert_eq!(render(&resumed, &plain), golden_json);

    // A second resume is a pure replay: zero executions, same bytes.
    let replay =
        sweep::try_run_grid(&journaled, counted_grid(6, journaled.seed, &runs)).expect("journal");
    assert_eq!(runs.load(Ordering::SeqCst), 0);
    assert_eq!(render(&replay, &plain), golden_json);
}

/// A journal written under different sweep arguments is rejected with a
/// typed fingerprint mismatch instead of silently resuming wrong data.
#[test]
fn journal_from_a_different_sweep_is_rejected() {
    let runs = Arc::new(AtomicUsize::new(0));
    let mut first = args();
    first.resume = Some(temp_journal("fingerprint"));
    sweep::try_run_grid(&first, counted_grid(2, first.seed, &runs)).expect("journal");

    let mut other = first.clone();
    other.seed ^= 0xdead_beef;
    let err = sweep::try_run_grid(&other, counted_grid(2, other.seed, &runs))
        .expect_err("mismatched journal must be rejected");
    match err {
        SimError::Journal(JournalError::FingerprintMismatch { expected, found }) => {
            assert_eq!(expected, sweep::sweep_fingerprint(&other));
            assert_eq!(found, sweep::sweep_fingerprint(&first));
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
}

/// One writer per journal: while another live writer holds the file, a
/// resume is refused with a typed journal error (a usage error, exit 2)
/// instead of interleaving appends; once the holder is gone it proceeds.
#[test]
fn second_writer_of_a_resume_journal_is_rejected_as_busy() {
    let runs = Arc::new(AtomicUsize::new(0));
    let mut journaled = args();
    journaled.resume = Some(temp_journal("busy"));
    let path = journaled.resume.as_ref().expect("journal path");
    let holder = ResultCache::open(path, sweep::sweep_fingerprint(&journaled)).expect("first");
    match sweep::try_run_grid(&journaled, counted_grid(2, journaled.seed, &runs)) {
        Err(e @ SimError::Journal(JournalError::Io(_))) => {
            assert!(e.to_string().contains("busy"), "{e}");
            assert_eq!(ExitCode::from(&e), ExitCode::Config);
        }
        other => panic!("expected a busy journal, got {other:?}"),
    }
    assert_eq!(runs.load(Ordering::SeqCst), 0, "no cell runs unjournaled");
    drop(holder);
    let results =
        sweep::try_run_grid(&journaled, counted_grid(2, journaled.seed, &runs)).expect("free");
    assert!(results.iter().all(Result::is_ok));
}

/// Torn writes and bit rot in the journal tail cost only the damaged cells:
/// the resume recomputes them, heals the journal, and the results match an
/// undamaged run exactly.
#[test]
fn damaged_journal_tail_recovers_to_identical_results() {
    for damage in ["truncate", "corrupt"] {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut journaled = args();
        journaled.jobs = 1; // deterministic record order: cell-3 is the tail
        journaled.resume = Some(temp_journal(damage));
        let golden = sweep::try_run_grid(&journaled, counted_grid(4, journaled.seed, &runs))
            .expect("journal");
        let golden_json = render(&golden, &journaled);
        assert_eq!(runs.swap(0, Ordering::SeqCst), 4);

        let path = journaled.resume.as_ref().expect("journal path");
        let mut bytes = std::fs::read(path).expect("journal bytes");
        let n = bytes.len();
        match damage {
            "truncate" => bytes.truncate(n - 5),
            "corrupt" => bytes[n - 4] ^= 0x01,
            other => unreachable!("unknown damage {other}"),
        }
        std::fs::write(path, &bytes).expect("write damaged journal");

        let resumed = sweep::try_run_grid(&journaled, counted_grid(4, journaled.seed, &runs))
            .expect("journal");
        assert_eq!(
            runs.swap(0, Ordering::SeqCst),
            1,
            "{damage}: only the damaged tail cell recomputes"
        );
        assert_eq!(render(&resumed, &journaled), golden_json, "{damage}");

        // The healed journal replays with zero executions.
        let replay = sweep::try_run_grid(&journaled, counted_grid(4, journaled.seed, &runs))
            .expect("journal");
        assert_eq!(runs.load(Ordering::SeqCst), 0, "{damage}: journal healed");
        assert_eq!(render(&replay, &journaled), golden_json, "{damage}");
    }
}

/// `--job-timeout`/`--retries` reach the pool through `SweepArgs`: a cell
/// that hangs only on its first attempt is cancelled, retried, and succeeds;
/// errors carry the cell's position in the full grid even under resume.
#[test]
fn timeout_and_retry_wire_through_sweep_args() {
    let mut args = args();
    args.job_timeout = Some(Duration::from_millis(100));
    args.retries = 1;
    args.resume = Some(temp_journal("timeout"));

    let hang_once = |label: &str| {
        Job::with_ctx(label.to_string(), move |ctx| -> (u64, f64) {
            if ctx.attempt == 0 {
                let start = Instant::now();
                while !ctx.cancel.is_cancelled() {
                    assert!(
                        start.elapsed() < Duration::from_secs(30),
                        "deadline supervisor never fired"
                    );
                    std::thread::sleep(Duration::from_millis(2));
                }
                return (0, 0.0);
            }
            (77, 7.5)
        })
    };
    let results = sweep::try_run_grid(
        &args,
        vec![
            Job::new("steady".to_string(), || (1, 1.0)),
            hang_once("transient"),
        ],
    )
    .expect("journal");
    assert_eq!(results[0].as_ref().expect("steady cell"), &(1, 1.0));
    assert_eq!(
        results[1].as_ref().expect("retry clears the hang"),
        &(77, 7.5)
    );

    // Exhausted retries surface as JobTimeout at the cell's full-grid index,
    // counting every attempt; the steady sibling resumes from the journal.
    args.retries = 0;
    let hang_always = Job::with_ctx("always".to_string(), move |ctx| -> (u64, f64) {
        let start = Instant::now();
        while !ctx.cancel.is_cancelled() {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "deadline supervisor never fired"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        (0, 0.0)
    });
    let results = sweep::try_run_grid(
        &args,
        vec![Job::new("steady".to_string(), || (1, 1.0)), hang_always],
    )
    .expect("journal");
    assert_eq!(results[0].as_ref().expect("steady cell"), &(1, 1.0));
    match &results[1] {
        Err(SimError::JobTimeout {
            job,
            index,
            config_hash,
            timeout_ms,
            attempts,
        }) => {
            assert_eq!(job, "always");
            assert_eq!(*index, 1, "index names the full-grid position");
            assert!(
                config_hash.is_some(),
                "grid jobs carry their content address"
            );
            assert_eq!(*timeout_ms, 100);
            assert_eq!(*attempts, 1);
        }
        other => panic!("expected JobTimeout, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Two-tier (analytically pruned) sweeps.
// ---------------------------------------------------------------------------

/// Arguments for the pruned-grid tests: a window short enough that really
/// simulating the survivors stays cheap.
fn prune_args() -> SweepArgs {
    let mut args = args();
    args.lengths = RunLengths {
        warmup: 50,
        measure: 400,
    };
    args
}

/// A small grid for the pruning pre-pass: the four scheme combos on
/// `baseline_16` (a cell is its own model input), the baseline optionally
/// golden-pinned.
fn prune_cells(pin_baseline: bool) -> Vec<(MixCell, bool)> {
    let base = SystemConfig::baseline_16();
    let apps = workload(2).apps_for(base.num_cores());
    Scheme::ALL
        .iter()
        .map(|&scheme| {
            let cfg = base.clone().with_scheme(scheme);
            let cell = MixCell::new(format!("prune/{}", scheme.name()), cfg, apps.clone());
            (cell, pin_baseline && scheme == Scheme::Baseline)
        })
        .collect()
}

/// An extractor that counts how many cells actually simulate — pruning must
/// not care what a survivor computes, only whether it runs.
fn counted(runs: &Arc<AtomicUsize>) -> impl Fn(&MixResult) -> (u64, f64) + Send + Sync + 'static {
    let runs = Arc::clone(runs);
    move |r| {
        runs.fetch_add(1, Ordering::SeqCst);
        (
            r.per_app.iter().map(|a| a.offchip).sum(),
            r.per_app.iter().map(|a| a.ipc).sum(),
        )
    }
}

fn render_pruned(outcome: &sweep::PruneOutcome<(u64, f64)>, args: &SweepArgs) -> String {
    let cells: Vec<Json> = outcome
        .results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            let (a, b) = r.as_ref()?.as_ref().expect("cell ok");
            Some(
                Obj::new()
                    .field("i", i as u64)
                    .field("a", *a)
                    .field("b", *b)
                    .build(),
            )
        })
        .collect();
    sweep::report("prune-test", args, Json::Arr(cells)).to_json_string()
}

/// The two-tier acceptance property: cells surviving `--prune
/// analytic:top=K` produce output byte-identical to the same cells of an
/// unpruned run, at any worker count, and golden-pinned cells always
/// survive.
#[test]
fn pruned_survivors_are_byte_identical_to_the_unpruned_run() {
    let runs = Arc::new(AtomicUsize::new(0));

    // Reference: the full (unpruned) grid.
    let plain = prune_args();
    let full =
        sweep::try_run_pruned_grid(&plain, prune_cells(true), counted(&runs)).expect("no journal");
    assert_eq!(full.kept, 4);
    assert!(
        full.predicted.iter().all(Option::is_none),
        "prune off: no estimates"
    );
    assert_eq!(runs.swap(0, Ordering::SeqCst), 4);

    let mut pruned_args = prune_args();
    pruned_args.prune = PruneSpec::Analytic { top: 1 };
    for jobs in [1, 2] {
        pruned_args.jobs = jobs;
        let runs = Arc::new(AtomicUsize::new(0));
        let pruned = sweep::try_run_pruned_grid(&pruned_args, prune_cells(true), counted(&runs))
            .expect("no journal");
        assert_eq!(pruned.kept, 2, "golden baseline + top-1 survive");
        assert_eq!(
            runs.load(Ordering::SeqCst),
            2,
            "pruned cells must not execute"
        );
        assert!(
            pruned.predicted.iter().all(Option::is_some),
            "every modelled cell gets an estimate"
        );
        assert!(
            pruned.results[0].is_some(),
            "golden-pinned cell survives any pruning"
        );
        // Survivors carry exactly the values the unpruned run computed.
        for (cell, reference) in pruned.results.iter().zip(&full.results) {
            if let Some(r) = cell {
                let got = r.as_ref().expect("cell ok");
                let want = reference
                    .as_ref()
                    .expect("ran unpruned")
                    .as_ref()
                    .expect("cell ok");
                assert_eq!(got, want, "survivor diverged from the unpruned run");
            }
        }
        // And the rendered report bytes match the jobs=1 rendering exactly.
        if jobs == 2 {
            let runs1 = Arc::new(AtomicUsize::new(0));
            let mut one = pruned_args.clone();
            one.jobs = 1;
            let again = sweep::try_run_pruned_grid(&one, prune_cells(true), counted(&runs1))
                .expect("no journal");
            assert_eq!(
                render_pruned(&pruned, &plain),
                render_pruned(&again, &plain),
                "survivor bytes must not depend on worker count"
            );
        }
    }
}

/// The estimator must rank a *prioritized* config below the baseline: with
/// no golden pins and `top=1`, the surviving cell is one of the scheme
/// cells, never plain baseline (the schemes only lower estimated latency).
#[test]
fn pruning_keeps_the_best_predicted_cell() {
    let runs = Arc::new(AtomicUsize::new(0));
    let mut pruned_args = prune_args();
    pruned_args.prune = PruneSpec::Analytic { top: 1 };
    let outcome = sweep::try_run_pruned_grid(&pruned_args, prune_cells(false), counted(&runs))
        .expect("no journal");
    assert_eq!(outcome.kept, 1);
    let survivor = outcome
        .results
        .iter()
        .position(Option::is_some)
        .expect("one survivor");
    let best = outcome
        .predicted
        .iter()
        .enumerate()
        .min_by(|a, b| {
            a.1.unwrap()
                .partial_cmp(&b.1.unwrap())
                .unwrap()
                .then(a.0.cmp(&b.0))
        })
        .map(|(i, _)| i)
        .expect("estimates exist");
    assert_eq!(
        survivor, best,
        "the survivor must be the lowest-predicted-latency cell"
    );
}

/// A killed pruned sweep resumed from its journal converges to the
/// uninterrupted pruned run byte-for-byte, recomputing only the lost cells
/// — the resilience guarantee holds through the pruning pre-pass.
#[test]
fn resumed_pruned_sweep_converges_to_golden() {
    let runs = Arc::new(AtomicUsize::new(0));
    let mut pruned_args = prune_args();
    pruned_args.prune = PruneSpec::Analytic { top: 2 };
    pruned_args.jobs = 1; // deterministic journal record order
    pruned_args.resume = Some(temp_journal("prune-resume"));
    let golden = sweep::try_run_pruned_grid(&pruned_args, prune_cells(true), counted(&runs))
        .expect("journal");
    assert_eq!(golden.kept, 3, "golden baseline + top-2");
    let golden_json = render_pruned(&golden, &pruned_args);
    assert_eq!(runs.swap(0, Ordering::SeqCst), 3);

    // "Kill" the sweep: drop the journal's tail record.
    let path = pruned_args.resume.as_ref().expect("journal path");
    let mut bytes = std::fs::read(path).expect("journal bytes");
    let n = bytes.len();
    bytes.truncate(n - 5);
    std::fs::write(path, &bytes).expect("write truncated journal");

    let resumed = sweep::try_run_pruned_grid(&pruned_args, prune_cells(true), counted(&runs))
        .expect("journal");
    assert_eq!(
        runs.swap(0, Ordering::SeqCst),
        1,
        "only the truncated tail cell recomputes"
    );
    assert_eq!(render_pruned(&resumed, &pruned_args), golden_json);

    // The healed journal replays with zero executions.
    let replay = sweep::try_run_pruned_grid(&pruned_args, prune_cells(true), counted(&runs))
        .expect("journal");
    assert_eq!(runs.load(Ordering::SeqCst), 0, "journal healed");
    assert_eq!(render_pruned(&replay, &pruned_args), golden_json);
}

/// Pruning decides which cells exist, so a pruned journal must never
/// satisfy an unpruned resume (and vice versa); with pruning off the
/// fingerprint is unchanged from the pre-pruning format.
#[test]
fn prune_spec_is_part_of_the_sweep_fingerprint() {
    let off = args();
    let mut pruned = args();
    pruned.prune = PruneSpec::Analytic { top: 3 };
    let mut wider = args();
    wider.prune = PruneSpec::Analytic { top: 4 };
    assert_ne!(
        sweep::sweep_fingerprint(&off),
        sweep::sweep_fingerprint(&pruned)
    );
    assert_ne!(
        sweep::sweep_fingerprint(&pruned),
        sweep::sweep_fingerprint(&wider),
        "a different top-K selects different cells"
    );

    // End to end: a pruned journal rejects an unpruned resume.
    let runs = Arc::new(AtomicUsize::new(0));
    let mut journaled = prune_args();
    journaled.prune = PruneSpec::Analytic { top: 2 };
    journaled.resume = Some(temp_journal("prune-fingerprint"));
    sweep::try_run_pruned_grid(&journaled, prune_cells(true), counted(&runs)).expect("journal");
    let mut unpruned = journaled.clone();
    unpruned.prune = PruneSpec::Off;
    let err = match sweep::try_run_pruned_grid(&unpruned, prune_cells(true), counted(&runs)) {
        Err(e) => e,
        Ok(_) => panic!("pruned journal must not satisfy an unpruned resume"),
    };
    assert!(
        matches!(
            err,
            SimError::Journal(JournalError::FingerprintMismatch { .. })
        ),
        "expected FingerprintMismatch, got {err:?}"
    );
}

#[test]
fn prune_spec_parses_and_round_trips() {
    assert_eq!(PruneSpec::parse("off").expect("parses"), PruneSpec::Off);
    assert_eq!(
        PruneSpec::parse("analytic:top=8").expect("parses"),
        PruneSpec::Analytic { top: 8 }
    );
    for spec in [PruneSpec::Off, PruneSpec::Analytic { top: 12 }] {
        assert_eq!(PruneSpec::parse(&spec.to_string()).expect("parses"), spec);
    }
    for bad in ["analytic", "analytic:top=", "analytic:top=x", "top=3", ""] {
        let err = PruneSpec::parse(bad).expect_err("must reject");
        assert!(err.starts_with("--prune:"), "error {err:?} names the flag");
    }
}

/// A pre-pass that eliminates every cell exits with the dedicated
/// `PRUNED_EMPTY` code — distinct from config errors and job failures — so
/// callers never mistake an empty sweep for a successful one. Regression
/// test for the exit-code collapse where this exited 0 with an empty
/// report.
#[test]
fn pruning_everything_exits_with_the_dedicated_code() {
    // A mesh-only grid has no golden cells, so top=0 prunes everything.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "topo_sweep",
            "--prune",
            "analytic:top=0",
            "--fabrics",
            "mesh",
            "--mc",
            "corner",
            "--size",
            "16",
            "--jobs",
            "1",
        ])
        .output()
        .expect("spawn topo_sweep");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(ExitCode::PrunedEmpty.code()),
        "expected PRUNED_EMPTY exit; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("eliminated all"),
        "diagnostic names the cause; stderr:\n{stderr}"
    );
}
