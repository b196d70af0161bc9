//! Figure 16b — sensitivity of the combined schemes to Scheme-2's bank
//! history window T: {100, 200, 400} cycles, workloads 1-6.
//!
//! Paper shape to reproduce: T=200 is best on average; T=400 expedites too
//! few requests, T=100 misjudges idle banks.
//!
//! Two parallel phases: alone-IPC denominators, then the 6 × 4 cell grid
//! (baseline plus three window lengths per workload).

use noclat::{Scheme, SystemConfig};
use noclat_bench::{banner, keyed, ratio_table, w};
use noclat_engine::{self as sweep, Json, MixCell, Obj, SweepArgs};

const WINDOWS: [u64; 3] = [100, 200, 400];
const KEYS: [&str; 3] = ["T100", "T200", "T400"];

fn main() {
    let args = SweepArgs::parse(&format!("fig16b {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 16b: Bank-history-length sensitivity (workloads 1-6, Scheme-1+2)",
        "Normalized WS for T = 100, 200 and 400 cycles.",
    );
    let mut hw = SystemConfig::baseline_32();
    hw.seed = args.seed;

    let mut cells = Vec::new();
    for i in 1..=6 {
        // window 0 marks the unprioritized baseline cell
        for window in [0].iter().chain(&WINDOWS) {
            let mut cfg = hw.clone();
            if *window != 0 {
                cfg = cfg.with_scheme(Scheme::Both);
                cfg.scheme2.history_window = *window;
            }
            let label = format!("fig16b/{}/T{window}", w(i).name());
            cells.push((MixCell::new(label, cfg, w(i).apps()), hw.clone()));
        }
    }
    let ws = sweep::run_ws_grid(&args, cells);

    // Per workload: the baseline WS, then each variant's WS over it.
    let rows: Vec<(String, Vec<f64>)> = (1..=6)
        .zip(ws.chunks(4))
        .map(|(i, c)| (w(i).name(), c[1..].iter().map(|v| v / c[0]).collect()))
        .collect();
    let geo = ratio_table(8, &["T=100", "T=200", "T=400"], &rows);
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
        "fig16b",
        &args,
        Obj::new()
            .field(
                "windows",
                Json::Arr(WINDOWS.iter().map(|&v| Json::Uint(v)).collect()),
            )
            .field("workloads", Json::Arr(rows_json))
            .field("geomeans", keyed(Obj::new(), &KEYS, &geo).build())
            .build(),
    );
    sweep::finish(&args, &json);
}
