//! Figure 17 — the combined schemes on 2-stage vs 5-stage router pipelines,
//! workloads 1-6.
//!
//! Paper shape to reproduce: gains persist with 2-stage routers but shrink
//! by 25-40% (shallower pipelines leave less network latency to save, and
//! pipeline bypassing has nothing left to skip).
//!
//! Two parallel phases: alone-IPC denominators (one hardware point per
//! pipeline depth), then the 6 × 2 × 2 cell grid.

use noclat::{RouterPipeline, SystemConfig};
use noclat_bench::{banner, base_and_both, keyed, ratio_table, w};
use noclat_engine::{self as sweep, Json, Obj, SweepArgs};

const PIPES: [RouterPipeline; 2] = [RouterPipeline::FiveStage, RouterPipeline::TwoStage];
const KEYS: [&str; 2] = ["five_stage", "two_stage"];

fn main() {
    let args = SweepArgs::parse(&format!("fig17 {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 17: 5-stage vs 2-stage router pipelines (workloads 1-6, Scheme-1+2)",
        "Normalized WS per pipeline depth.",
    );

    let mut cells = Vec::new();
    for i in 1..=6 {
        for &point in &PIPES {
            let mut hw = SystemConfig::baseline_32();
            hw.seed = args.seed;
            hw.noc.pipeline = point;
            let prefix = format!("fig17/{}/{point:?}", w(i).name());
            cells.extend(base_and_both(&prefix, &hw, &w(i).apps()));
        }
    }
    let ws = sweep::run_ws_grid(&args, cells);

    // Per workload and hardware point: Scheme-1+2 WS over the baseline's.
    let rows: Vec<(String, Vec<f64>)> = (1..=6)
        .zip(ws.chunks(4))
        .map(|(i, c)| (w(i).name(), vec![c[1] / c[0], c[3] / c[2]]))
        .collect();
    let geo = ratio_table(9, &["5-stage", "2-stage"], &rows);
    if geo[0] > 1.0 {
        println!(
            "\n2-stage gains are {:.0}% of the 5-stage gains (paper: 60-75%)",
            (geo[1] - 1.0) / (geo[0] - 1.0) * 100.0
        );
    }
    let rows_json = rows
        .iter()
        .map(|(name, row)| keyed(Obj::new().field("workload", name.as_str()), &KEYS, row).build())
        .collect();

    let json = sweep::report(
        "fig17",
        &args,
        Obj::new()
            .field("workloads", Json::Arr(rows_json))
            .field("geomeans", keyed(Obj::new(), &KEYS, &geo).build())
            .build(),
    );
    sweep::finish(&args, &json);
}
