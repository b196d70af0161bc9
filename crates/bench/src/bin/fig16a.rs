//! Figure 16a — sensitivity of the combined schemes to the Scheme-1
//! lateness threshold: {1.0, 1.2, 1.4} x Delay_avg, workloads 1-6.
//!
//! Paper shape to reproduce: 1.2x is the sweet spot; 1.4x marks too few
//! messages, 1.0x marks too many (prioritizing everything hurts the rest).
//!
//! Two parallel phases: alone-IPC denominators, then the 6 × 4 cell grid
//! (baseline plus three thresholds per workload).

use noclat::{Scheme, SystemConfig};
use noclat_bench::{banner, keyed, ratio_table, w};
use noclat_engine::{self as sweep, Json, MixCell, Obj, SweepArgs};

const FACTORS: [f64; 3] = [1.0, 1.2, 1.4];
const KEYS: [&str; 3] = ["t1.0", "t1.2", "t1.4"];

fn main() {
    let args = SweepArgs::parse(&format!("fig16a {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 16a: Threshold sensitivity (workloads 1-6, Scheme-1+2)",
        "Normalized WS for thresholds 1.0x, 1.2x and 1.4x Delay_avg.",
    );
    let mut hw = SystemConfig::baseline_32();
    hw.seed = args.seed;

    let mut cells = Vec::new();
    for i in 1..=6 {
        // factor 0.0 marks the unprioritized baseline cell
        for factor in [0.0].iter().chain(&FACTORS) {
            let mut cfg = hw.clone();
            if *factor != 0.0 {
                cfg = cfg.with_scheme(Scheme::Both);
                cfg.scheme1.threshold_factor = *factor;
            }
            let label = format!("fig16a/{}/t{factor}", w(i).name());
            cells.push((MixCell::new(label, cfg, w(i).apps()), hw.clone()));
        }
    }
    let ws = sweep::run_ws_grid(&args, cells);

    // Per workload: the baseline WS, then each variant's WS over it.
    let rows: Vec<(String, Vec<f64>)> = (1..=6)
        .zip(ws.chunks(4))
        .map(|(i, c)| (w(i).name(), c[1..].iter().map(|v| v / c[0]).collect()))
        .collect();
    let geo = ratio_table(8, &["1.0x", "1.2x", "1.4x"], &rows);
    let rows_json = rows
        .iter()
        .zip(ws.chunks(4))
        .map(|((name, row), c)| {
            let obj = Obj::new()
                .field("workload", name.as_str())
                .field("base_ws", c[0]);
            keyed(obj, &KEYS, row).build()
        })
        .collect();

    let json = sweep::report(
        "fig16a",
        &args,
        Obj::new()
            .field(
                "factors",
                Json::Arr(FACTORS.iter().map(|&v| Json::Num(v)).collect()),
            )
            .field("workloads", Json::Arr(rows_json))
            .field("geomeans", keyed(Obj::new(), &KEYS, &geo).build())
            .build(),
    );
    sweep::finish(&args, &json);
}
