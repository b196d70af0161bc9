//! Figure 6 — average idleness of the banks of one memory controller
//! (baseline, no prioritization).
//!
//! Paper shape to reproduce: idleness differs noticeably across banks — at
//! any time some banks sit idle while others serve queues (Motivation 2).
//!
//! Sharded across independently seeded replicates on the worker pool; the
//! reported idleness is the equal-weight mean across shards (every shard
//! samples the same number of instants), reduced in shard order so the
//! report is identical for every `--jobs` value.

use noclat_bench::{banner, w2_baseline};
use noclat_engine::{self as sweep, Json, Obj, SweepArgs, DEFAULT_SHARDS};

fn main() {
    let args = SweepArgs::parse(&format!("fig06 {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 6: Average idleness of the banks of memory controller 0 (workload-2)",
        "A bank is idle when its queue is empty at a sampling instant.",
    );
    let shards = sweep::run_mix_shards(&args, &w2_baseline("fig06"), |r| {
        (
            r.system.idleness(0).per_bank_idleness(),
            r.system.idleness(0).overall(),
        )
    });
    let banks = shards[0].0.len();
    let mut idleness = vec![0.0f64; banks];
    let mut overall = 0.0f64;
    for (per_bank, ov) in &shards {
        for (acc, v) in idleness.iter_mut().zip(per_bank) {
            *acc += v;
        }
        overall += ov;
    }
    for v in &mut idleness {
        *v /= shards.len() as f64;
    }
    overall /= shards.len() as f64;

    println!("{:>5} {:>9}  bar", "bank", "idleness");
    for (b, idl) in idleness.iter().enumerate() {
        let bar = "#".repeat((idl * 50.0).round() as usize);
        println!("{b:>5} {idl:>9.3}  {bar}");
    }
    let min = idleness.iter().copied().fold(f64::INFINITY, f64::min);
    let max = idleness.iter().copied().fold(0.0, f64::max);
    println!("\nspread across banks: min {min:.3}, max {max:.3}, overall {overall:.3}");

    let json = sweep::report(
        "fig06",
        &args,
        Obj::new()
            .field("workload", 2u64)
            .field("controller", 0u64)
            .field("shards", DEFAULT_SHARDS)
            .field(
                "per_bank_idleness",
                Json::Arr(idleness.iter().map(|&v| Json::Num(v)).collect()),
            )
            .field("min", min)
            .field("max", max)
            .field("overall", overall)
            .build(),
    );
    sweep::finish(&args, &json);
}
