//! Figure 14 — average bank idleness over the course of execution,
//! default vs Scheme-2.
//!
//! Paper shape to reproduce: the Scheme-2 curve sits below the default curve
//! across the run. As with Figure 13, the paper's workload-1 and the
//! higher-pressure workload-8 are both reported.
//!
//! All four (workload × scheme) cells run as one pool grid.

use noclat::{Scheme, SystemConfig};
use noclat_bench::banner;
use noclat_engine::{self as sweep, Json, MixCell, Obj, SweepArgs};
use noclat_workloads::workload;

const WORKLOADS: [usize; 2] = [1, 8];

fn main() {
    let args = SweepArgs::parse(&format!("fig14 {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 14: Average bank idleness over time, default vs Scheme-2",
        "One row per 10k-cycle interval, averaged across controller 0's banks.",
    );
    let mut cells = Vec::new();
    for &widx in &WORKLOADS {
        for (label, scheme) in [("default", Scheme::Baseline), ("scheme2", Scheme::S2)] {
            let mut cfg = SystemConfig::baseline_32().with_scheme(scheme);
            cfg.seed = args.seed;
            let label = format!("fig14/w{widx}/{label}");
            cells.push(MixCell::new(label, cfg, workload(widx).apps()));
        }
    }
    let results = sweep::run_mix_grid(&args, cells, |r| r.system.idleness(0).idleness_over_time());

    let mut rows_json = Vec::new();
    for (k, &widx) in WORKLOADS.iter().enumerate() {
        let tb = &results[k * 2];
        let ts = &results[k * 2 + 1];
        println!("\n--- workload-{widx} (10k-cycle intervals, controller 0) ---");
        println!("{:>10} {:>9} {:>9}", "interval", "default", "scheme2");
        for i in 0..tb.len().min(ts.len()) {
            println!("{:>10} {:>9.3} {:>9.3}", i, tb[i], ts[i]);
        }
        let below = tb.iter().zip(ts).filter(|(b, s)| s <= b).count();
        println!(
            "Scheme-2 at or below default in {below}/{} intervals",
            tb.len().min(ts.len())
        );
        rows_json.push(
            Obj::new()
                .field("workload", widx)
                .field(
                    "default",
                    Json::Arr(tb.iter().map(|&v| Json::Num(v)).collect()),
                )
                .field(
                    "scheme2",
                    Json::Arr(ts.iter().map(|&v| Json::Num(v)).collect()),
                )
                .field("intervals_at_or_below", below)
                .build(),
        );
    }

    let json = sweep::report(
        "fig14",
        &args,
        Obj::new()
            .field("controller", 0u64)
            .field("workloads", Json::Arr(rows_json))
            .build(),
    );
    sweep::finish(&args, &json);
}
