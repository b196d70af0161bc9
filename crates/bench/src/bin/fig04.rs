//! Figure 4 — average round-trip delays of off-chip accesses issued by the
//! core running milc in workload-2, broken into the five path components of
//! Figure 2, bucketed by total delay range.
//!
//! Paper shape to reproduce: the memory component (queueing + DRAM access)
//! grows steeply with the delay range, and the network components also grow,
//! so late accesses are late because of both memory queueing and network
//! contention.
//!
//! The measurement is sharded across independently seeded replicates on the
//! worker pool; breakdown rows merge exactly, so reports are identical for
//! every `--jobs` value.

use noclat::AppLatency;
use noclat_bench::{banner, core_of, w2_baseline};
use noclat_engine::{self as sweep, Json, Obj, SweepArgs, DEFAULT_SHARDS};
use noclat_workloads::SpecApp;

fn main() {
    let args = SweepArgs::parse(&format!("fig04 {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 4: Per-range breakdown of off-chip access delay (milc, workload-2)",
        "Columns: delay range start | count | L1->L2 | L2->Mem | Mem | Mem->L2 | L2->L1",
    );
    let shards = sweep::run_mix_shards(&args, &w2_baseline("fig04"), |r| {
        let core = core_of(r, SpecApp::Milc).expect("workload-2 contains milc");
        (core, r.system.tracker().app(core).clone())
    });
    let core = shards[0].0;
    let mut app = AppLatency::empty();
    for (_, shard) in &shards {
        app.merge(shard);
    }
    println!("milc runs on core {core}\n");
    println!(
        "{:>7} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "range", "count", "L1->L2", "L2->Mem", "Mem", "Mem->L2", "L2->L1", "total"
    );
    let mut rows_json = Vec::new();
    for (range, row) in app.breakdown() {
        let a = row.averages();
        println!(
            "{:>7} {:>6} {:>8.0} {:>8.0} {:>8.0} {:>8.0} {:>8.0} {:>8.0}",
            range,
            row.count,
            a[0],
            a[1],
            a[2],
            a[3],
            a[4],
            a.iter().sum::<f64>()
        );
        rows_json.push(
            Obj::new()
                .field("range", range)
                .field("count", row.count)
                .field("l1_to_l2", a[0])
                .field("l2_to_mem", a[1])
                .field("mem", a[2])
                .field("mem_to_l2", a[3])
                .field("l2_to_l1", a[4])
                .build(),
        );
    }
    println!(
        "\nmilc off-chip accesses: {}  mean round-trip: {:.0} cycles (paper: ~350)",
        app.total.count(),
        app.total.mean()
    );
    let json = sweep::report(
        "fig04",
        &args,
        Obj::new()
            .field("workload", 2u64)
            .field("app", "milc")
            .field("core", core)
            .field("shards", DEFAULT_SHARDS)
            .field("offchip", app.total.count())
            .field("mean_round_trip", app.total.mean())
            .field("breakdown", Json::Arr(rows_json))
            .build(),
    );
    sweep::finish(&args, &json);
}
