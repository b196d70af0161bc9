//! Ablation — virtual channel count sweep (2/4/8 VCs per port) under the
//! combined schemes. More VCs reduce head-of-line blocking, which shrinks
//! the queueing the schemes can jump.
//!
//! Two parallel phases: alone-IPC denominators (one hardware point per VC
//! count — alone runs depend on the NoC too, and the [`sweep::AloneMap`]
//! keys by the full hardware configuration), then the 3 × 2 cell grid.

use noclat::SystemConfig;
use noclat_bench::{banner, base_and_both, pct, w};
use noclat_engine::{self as sweep, Json, Obj, SweepArgs};

const VCS: [usize; 3] = [2, 4, 8];

fn main() {
    let args = SweepArgs::parse(&format!("ablation_vcs {}", sweep::SWEEP_USAGE));
    banner(
        "Ablation: VCs per port (workload-2)",
        "Baseline WS and Scheme-1+2 gains per VC count.",
    );
    let apps = w(2).apps();
    let cells = VCS
        .iter()
        .flat_map(|&vcs| {
            let mut hw = SystemConfig::baseline_32();
            hw.seed = args.seed;
            hw.noc.vcs_per_port = vcs;
            base_and_both(&format!("vcs/{vcs}"), &hw, &apps)
        })
        .collect();
    let ws = sweep::run_ws_grid(&args, cells);

    let mut rows_json = Vec::new();
    for (k, &vcs) in VCS.iter().enumerate() {
        let base = ws[k * 2];
        let both = ws[k * 2 + 1];
        println!(
            "{vcs} VCs/port: base WS {base:.3}, Scheme-1+2 {}",
            pct(both / base)
        );
        rows_json.push(
            Obj::new()
                .field("vcs_per_port", vcs)
                .field("base_ws", base)
                .field("both_over_base", both / base)
                .build(),
        );
    }

    let json = sweep::report(
        "ablation_vcs",
        &args,
        Obj::new()
            .field("workload", 2u64)
            .field("points", Json::Arr(rows_json))
            .build(),
    );
    sweep::finish(&args, &json);
}
