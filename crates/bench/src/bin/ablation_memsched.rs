//! Ablation — FR-FCFS vs FCFS memory scheduling under the combined schemes.
//!
//! FR-FCFS is the paper's (and industry's) baseline; FCFS destroys row
//! locality and shows how much the schemes depend on a competent scheduler
//! downstream.
//!
//! Alone-IPC denominators first (one hardware point per scheduler — the
//! schedulers genuinely differ even alone), then the four base/both cells
//! as one grid.

use noclat::{weighted_speedup_of, MemSchedPolicy, SystemConfig};
use noclat_bench::{banner, base_and_both, pct, w};
use noclat_engine::{self as sweep, AloneMap, Json, Obj, SweepArgs};

const SCHEDS: [MemSchedPolicy; 2] = [MemSchedPolicy::FrFcfs, MemSchedPolicy::Fcfs];

fn main() {
    let args = SweepArgs::parse(&format!("ablation_memsched {}", sweep::SWEEP_USAGE));
    banner(
        "Ablation: FR-FCFS vs FCFS memory scheduling (workload-8)",
        "Baseline WS and Scheme-1+2 gains per scheduler.",
    );
    let apps = w(8).apps();
    let hws = SCHEDS.map(|sched| {
        let mut hw = SystemConfig::baseline_32();
        hw.seed = args.seed;
        hw.mem.scheduler = sched;
        hw
    });
    let alone = AloneMap::compute(&args, hws.iter().map(|hw| (hw, apps.as_slice())));

    // One grid. Each cell reports its row-hit rate beside the weighted
    // speedup, so the extractor carries both alone tables and picks the one
    // of the scheduler the cell ran.
    let tables: Vec<_> = hws
        .iter()
        .map(|hw| (hw.mem.scheduler, alone.table(hw, &apps)))
        .collect();
    let cells = SCHEDS
        .iter()
        .zip(&hws)
        .flat_map(|(sched, hw)| base_and_both(&format!("memsched/{sched:?}"), hw, &apps))
        .map(|(cell, _)| cell)
        .collect();
    let results = sweep::run_mix_grid(&args, cells, move |r| {
        let sched = r.system.config().mem.scheduler;
        let (_, table) = tables
            .iter()
            .find(|(s, _)| *s == sched)
            .expect("a swept scheduler");
        let controllers = r.system.num_controllers();
        let hit_rate: f64 = (0..controllers)
            .map(|m| r.system.controller_stats(m).row_hit_rate())
            .sum::<f64>()
            / controllers as f64;
        (weighted_speedup_of(r, table), hit_rate)
    });

    let mut rows_json = Vec::new();
    for (k, &sched) in SCHEDS.iter().enumerate() {
        let (base, hit_rate) = results[k * 2];
        let (both, _) = results[k * 2 + 1];
        println!(
            "{sched:?}: base WS {base:.3}, row-hit rate {hit_rate:.2}, Scheme-1+2 {}",
            pct(both / base)
        );
        rows_json.push(
            Obj::new()
                .field("scheduler", format!("{sched:?}"))
                .field("base_ws", base)
                .field("row_hit_rate", hit_rate)
                .field("both_over_base", both / base)
                .build(),
        );
    }

    let json = sweep::report(
        "ablation_memsched",
        &args,
        Obj::new()
            .field("workload", 8u64)
            .field("schedulers", Json::Arr(rows_json))
            .build(),
    );
    sweep::finish(&args, &json);
}
