//! Integration tests of the parallel sweep engine: worker-count
//! invariance of real simulation grids, per-job panic isolation, and
//! fault containment (a wedged or panicking cell must not poison its
//! siblings' results).

use noclat::{run_mix, MixResult, RunLengths, SimError, SystemConfig};
use noclat_engine::{self as sweep, Job, Json, MixCell, Obj, SweepArgs};
use noclat_sim::faults::{CycleWindow, RouterStall};
use noclat_workloads::workload;

fn small() -> RunLengths {
    RunLengths {
        warmup: 100,
        measure: 600,
    }
}

fn args_with_jobs(jobs: usize) -> SweepArgs {
    let (mut args, _) = SweepArgs::parse_argv(&[]).expect("empty argv parses");
    args.jobs = jobs;
    args.lengths = small();
    args
}

/// Aggregate fingerprint of a run: total off-chip accesses and summed IPC.
fn fingerprint(r: &MixResult) -> (u64, f64) {
    (
        r.per_app.iter().map(|a| a.offchip).sum(),
        r.per_app.iter().map(|a| a.ipc).sum(),
    )
}

fn sim_cell(label: &str, seed: u64, lengths: RunLengths) -> Job<(u64, f64)> {
    let label = label.to_string();
    Job::new(label, move || {
        let mut cfg = SystemConfig::baseline_32();
        cfg.seed = seed;
        fingerprint(&run_mix(&cfg, &workload(2).apps(), lengths))
    })
}

fn sim_grid(base_seed: u64, lengths: RunLengths) -> Vec<Job<(u64, f64)>> {
    (0..3)
        .map(|i| sim_cell(&format!("cell-{i}"), sweep::job_seed(base_seed, i), lengths))
        .collect()
}

/// The acceptance property behind `--jobs N`: the rendered JSON report of a
/// real simulation grid is byte-identical for 1, 4 and 8 workers.
#[test]
fn json_report_is_byte_identical_across_worker_counts() {
    let mut reports = Vec::new();
    for jobs in [1usize, 4, 8] {
        let args = args_with_jobs(jobs);
        let results =
            sweep::try_run_grid(&args, sim_grid(args.seed, args.lengths)).expect("no journal");
        let cells: Vec<Json> = results
            .into_iter()
            .map(|r| {
                let (offchip, ipc) = r.expect("no cell fails");
                Obj::new()
                    .field("offchip", offchip)
                    .field("ipc", ipc)
                    .build()
            })
            .collect();
        let json = sweep::report("engine-test", &args, Json::Arr(cells));
        reports.push(json.to_json_string());
    }
    assert_eq!(reports[0], reports[1], "1 vs 4 workers");
    assert_eq!(reports[0], reports[2], "1 vs 8 workers");
}

/// `run_mix_shards` seeds shard `s` with `job_seed(args.seed, s)` and
/// returns results in shard order for any worker count.
#[test]
fn mix_shards_are_seeded_per_shard_and_in_shard_order_for_any_worker_count() {
    let cell = MixCell::new("order", SystemConfig::baseline_32(), workload(2).apps());
    let args = args_with_jobs(1);
    let expected: Vec<(u64, f64)> = (0..sweep::DEFAULT_SHARDS)
        .map(|s| {
            let mut cfg = cell.cfg.clone();
            cfg.seed = sweep::job_seed(args.seed, s);
            fingerprint(&run_mix(&cfg, &cell.apps, args.lengths))
        })
        .collect();
    for jobs in [1usize, 3] {
        let args = args_with_jobs(jobs);
        assert_eq!(
            sweep::run_mix_shards(&args, &cell, fingerprint),
            expected,
            "{jobs} worker(s)"
        );
    }
}

/// A panicking cell surfaces as a typed error naming the failing
/// configuration, and the sibling cell still returns the same value it
/// produces when run alone.
#[test]
fn panicking_cell_is_isolated_and_named() {
    let args = args_with_jobs(4);
    let lengths = args.lengths;
    let solo = sweep::try_run_grid(&args, vec![sim_cell("clean", 99, lengths)])
        .expect("no journal")
        .remove(0)
        .expect("clean cell runs solo");

    let explosive = Job::new("sweep/threshold-9".to_string(), move || -> (u64, f64) {
        panic!("threshold 9 is out of range")
    });
    let results = sweep::try_run_grid(&args, vec![explosive, sim_cell("clean", 99, lengths)])
        .expect("no journal");

    match &results[0] {
        Err(SimError::JobPanicked {
            job,
            index,
            message,
            config_hash,
            attempts,
        }) => {
            assert_eq!(job, "sweep/threshold-9");
            assert_eq!(*index, 0);
            assert!(
                message.contains("threshold 9"),
                "panic payload lost: {message}"
            );
            assert!(
                config_hash.is_some(),
                "grid jobs carry their content address"
            );
            assert_eq!(*attempts, 1, "no retries were requested");
        }
        other => panic!("expected JobPanicked, got {other:?}"),
    }
    assert_eq!(
        results[1].as_ref().expect("sibling unaffected"),
        &solo,
        "a panicking sibling must not change another cell's result"
    );
}

/// A shard whose mesh wedges (watchdog violations firing) must neither hang
/// the sweep nor perturb its clean sibling: the sibling's numbers equal a
/// solo run, and the wedged shard reports its violations as data.
#[test]
fn watchdog_violation_in_one_shard_does_not_poison_siblings() {
    let args = args_with_jobs(4);
    let lengths = small();
    let clean_summary = |seed: u64| {
        move || {
            let mut cfg = SystemConfig::baseline_32();
            cfg.seed = seed;
            let r = run_mix(&cfg, &workload(2).apps(), lengths);
            let (offchip, ipc) = fingerprint(&r);
            (r.system.robustness().violations, offchip, ipc)
        }
    };
    let solo = sweep::try_run_grid(&args, vec![Job::new("clean".to_string(), clean_summary(7))])
        .expect("no journal")
        .remove(0)
        .expect("clean shard runs solo");
    assert_eq!(solo.0, 0, "clean shard must not trip the watchdog");

    let wedged = Job::new("wedged".to_string(), move || {
        let mut cfg = SystemConfig::baseline_32();
        cfg.watchdog.deadlock_cycles = 500;
        cfg.recovery.enabled = false; // pure detection: nothing re-injects
        for node in 0..32 {
            cfg.faults.router_stalls.push(RouterStall {
                node,
                window: CycleWindow {
                    start: 200,
                    end: u64::MAX,
                },
            });
        }
        let r = run_mix(
            &cfg,
            &workload(2).apps(),
            RunLengths {
                warmup: 100,
                measure: 3_000,
            },
        );
        let (offchip, ipc) = fingerprint(&r);
        (r.system.robustness().violations, offchip, ipc)
    });
    let results = sweep::try_run_grid(
        &args,
        vec![wedged, Job::new("clean".to_string(), clean_summary(7))],
    )
    .expect("no journal");

    let wedged_out = results[0].as_ref().expect("wedged shard still completes");
    assert!(
        wedged_out.0 > 0,
        "a fully stalled mesh must report watchdog violations"
    );
    assert_eq!(
        results[1].as_ref().expect("sibling unaffected"),
        &solo,
        "a wedged sibling must not change another shard's result"
    );
}
