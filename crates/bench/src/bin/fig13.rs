//! Figure 13 — per-bank idleness of one memory controller with and without
//! Scheme-2.
//!
//! Paper shape to reproduce: Scheme-2 reduces idleness in most banks
//! (requests reach idle banks faster, so they spend less time empty).
//!
//! The paper plots workload-1; in our calibration the mixed workloads leave
//! banks mostly idle, so the memory-intensive workload-8 — where bank
//! pressure actually exists — is reported alongside it.
//!
//! All four (workload × scheme) cells run as one pool grid.

use noclat::{Scheme, SystemConfig};
use noclat_bench::banner;
use noclat_engine::{self as sweep, Json, MixCell, Obj, SweepArgs};
use noclat_workloads::workload;

const WORKLOADS: [usize; 2] = [1, 8];

fn main() {
    let args = SweepArgs::parse(&format!("fig13 {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 13: Bank idleness of controller 0, default vs Scheme-2",
        "A bank is idle when its queue is empty at a sampling instant.",
    );
    let mut cells = Vec::new();
    for &widx in &WORKLOADS {
        for (label, scheme) in [("default", Scheme::Baseline), ("scheme2", Scheme::S2)] {
            let mut cfg = SystemConfig::baseline_32().with_scheme(scheme);
            cfg.seed = args.seed;
            let label = format!("fig13/w{widx}/{label}");
            cells.push(MixCell::new(label, cfg, workload(widx).apps()));
        }
    }
    let results = sweep::run_mix_grid(&args, cells, |r| {
        (
            r.system.idleness(0).per_bank_idleness(),
            r.system.idleness(0).overall(),
        )
    });

    let mut rows_json = Vec::new();
    for (k, &widx) in WORKLOADS.iter().enumerate() {
        let (ib, overall_b) = &results[k * 2];
        let (is2, overall_s) = &results[k * 2 + 1];
        println!("\n--- workload-{widx} ---");
        println!(
            "{:>5} {:>9} {:>9} {:>8}",
            "bank", "default", "scheme2", "delta"
        );
        let mut reduced = 0;
        for b in 0..ib.len() {
            let d = is2[b] - ib[b];
            if d < 0.0 {
                reduced += 1;
            }
            println!("{b:>5} {:>9.3} {:>9.3} {d:>+8.3}", ib[b], is2[b]);
        }
        println!(
            "overall idleness: {overall_b:.4} -> {overall_s:.4}  (reduced in {reduced}/{} banks)",
            ib.len()
        );
        rows_json.push(
            Obj::new()
                .field("workload", widx)
                .field(
                    "default",
                    Json::Arr(ib.iter().map(|&v| Json::Num(v)).collect()),
                )
                .field(
                    "scheme2",
                    Json::Arr(is2.iter().map(|&v| Json::Num(v)).collect()),
                )
                .field("overall_default", *overall_b)
                .field("overall_scheme2", *overall_s)
                .field("banks_reduced", reduced as u64)
                .build(),
        );
    }

    let json = sweep::report(
        "fig13",
        &args,
        Obj::new()
            .field("controller", 0u64)
            .field("workloads", Json::Arr(rows_json))
            .build(),
    );
    sweep::finish(&args, &json);
}
