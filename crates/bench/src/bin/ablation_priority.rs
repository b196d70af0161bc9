//! Ablation — which parts of the prioritization machinery matter?
//!
//! Compares Scheme-1+2 with: (a) pipeline bypassing disabled (arbitration
//! priority only), (b) the starvation age guard reduced to zero (strict
//! priority), and (c) Scheme-2 alone. Workload-8 (memory-intensive) is the
//! most sensitive to all three.
//!
//! Two parallel phases: alone-IPC denominators, then the six-variant grid.

use noclat::{Scheme, SystemConfig};
use noclat_bench::{banner, pct, w};
use noclat_engine::{self as sweep, MixCell, Obj, SweepArgs};

fn main() {
    let args = SweepArgs::parse(&format!("ablation_priority {}", sweep::SWEEP_USAGE));
    banner(
        "Ablation: prioritization machinery (workload-8)",
        "Normalized WS of Scheme-1+2 variants against the unprioritized baseline.",
    );
    let apps = w(8).apps();
    let mut hw = SystemConfig::baseline_32();
    hw.seed = args.seed;

    let full = hw.clone().with_scheme(Scheme::Both);
    let mut no_bypass = full.clone();
    no_bypass.noc.bypass_enabled = false;
    let mut strict = full.clone();
    strict.noc.starvation_age_guard = 0;

    let cells = [
        ("baseline", hw.clone()),
        ("s1", hw.clone().with_scheme(Scheme::S1)),
        ("s2", hw.clone().with_scheme(Scheme::S2)),
        ("full", full),
        ("no_bypass", no_bypass),
        ("strict", strict),
    ]
    .into_iter()
    .map(|(name, cfg)| {
        let cell = MixCell::new(format!("priority/{name}"), cfg, apps.clone());
        (cell, hw.clone())
    })
    .collect();
    let ws = sweep::run_ws_grid(&args, cells);
    let base = ws[0];

    println!("baseline WS                    : {base:.3}");
    println!("Scheme-1 only                  : {}", pct(ws[1] / base));
    println!("Scheme-2 only                  : {}", pct(ws[2] / base));
    println!("Scheme-1+2 (full)              : {}", pct(ws[3] / base));
    println!("Scheme-1+2, no bypassing       : {}", pct(ws[4] / base));
    println!("Scheme-1+2, zero age guard     : {}", pct(ws[5] / base));

    let json = sweep::report(
        "ablation_priority",
        &args,
        Obj::new()
            .field("workload", 8u64)
            .field("base_ws", base)
            .field("s1", ws[1] / base)
            .field("s2", ws[2] / base)
            .field("full", ws[3] / base)
            .field("no_bypass", ws[4] / base)
            .field("strict", ws[5] / base)
            .build(),
    );
    sweep::finish(&args, &json);
}
