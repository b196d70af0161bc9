//! Figure 16c — impact of the number of memory controllers (2 vs 4) on the
//! combined schemes, mixed workloads 1-6.
//!
//! Paper shape to reproduce: with fewer controllers, pressure per controller
//! rises, there are more late accesses for Scheme-1 to catch, and combined
//! gains are slightly higher (with exceptions, e.g. the paper's w-2/w-3).
//!
//! Two parallel phases: alone-IPC denominators (one hardware point per
//! controller count — the [`sweep::AloneMap`] keeps them distinct), then
//! the 6 × 2 × 2 cell grid.

use noclat::SystemConfig;
use noclat_bench::{banner, base_and_both, keyed, ratio_table, w};
use noclat_engine::{self as sweep, Json, Obj, SweepArgs};

const MCS: [usize; 2] = [4, 2];
const KEYS: [&str; 2] = ["mc4", "mc2"];

fn main() {
    let args = SweepArgs::parse(&format!("fig16c {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 16c: 2 vs 4 memory controllers (workloads 1-6, Scheme-1+2)",
        "Normalized WS per controller count.",
    );

    let mut cells = Vec::new();
    for i in 1..=6 {
        for &point in &MCS {
            let mut hw = SystemConfig::baseline_32();
            hw.seed = args.seed;
            hw.mem.num_controllers = point;
            let prefix = format!("fig16c/{}/{point}mc", w(i).name());
            cells.extend(base_and_both(&prefix, &hw, &w(i).apps()));
        }
    }
    let ws = sweep::run_ws_grid(&args, cells);

    // Per workload and hardware point: Scheme-1+2 WS over the baseline's.
    let rows: Vec<(String, Vec<f64>)> = (1..=6)
        .zip(ws.chunks(4))
        .map(|(i, c)| (w(i).name(), vec![c[1] / c[0], c[3] / c[2]]))
        .collect();
    let geo = ratio_table(8, &["4 MCs", "2 MCs"], &rows);
    let rows_json = rows
        .iter()
        .map(|(name, row)| keyed(Obj::new().field("workload", name.as_str()), &KEYS, row).build())
        .collect();

    let json = sweep::report(
        "fig16c",
        &args,
        Obj::new()
            .field("workloads", Json::Arr(rows_json))
            .field("geomeans", keyed(Obj::new(), &KEYS, &geo).build())
            .build(),
    );
    sweep::finish(&args, &json);
}
