//! Figure 11 — normalized weighted speedup of Scheme-1 and Scheme-1+2 over
//! the no-prioritization baseline, for all 18 workloads, grouped into the
//! paper's three panels (mixed / memory-intensive / memory-non-intensive).
//!
//! Paper shape to reproduce: Scheme-1+2 ≥ Scheme-1; memory-intensive
//! workloads gain the most, non-intensive the least; one or two workloads
//! may dip slightly below 1.0 under Scheme-1 alone (the paper saw this for
//! workloads 2 and 9).
//!
//! Two parallel phases: the alone-IPC denominators (one pool job per app)
//! and the 18 × 3 workload × scheme mix grid.

use noclat::SystemConfig;
use noclat_bench::{banner, pct, scheme_gain_panels};
use noclat_engine::{self as sweep, Obj, SweepArgs};
use noclat_workloads::Workload;

fn main() {
    let args = SweepArgs::parse(&format!("fig11 {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 11: Normalized weighted speedup, 18 workloads, 32-core system",
        "Bars: Scheme-1 and Scheme-1+Scheme-2, normalized to the baseline.",
    );
    let body = scheme_gain_panels(
        &args,
        "fig11",
        SystemConfig::baseline_32(),
        Workload::apps,
        Obj::new(),
        |g1, g2| {
            println!(
                "{:>12} {:>9} {:>10} {:>12}   (Scheme-1 {}, Scheme-1+2 {})",
                "geomean",
                "",
                format!("{g1:.3}"),
                format!("{g2:.3}"),
                pct(g1),
                pct(g2)
            );
        },
    );
    println!("\nPaper: up to +13% (mixed), +15% (intensive), +1% (non-intensive) for Scheme-1+2.");
    println!("See EXPERIMENTS.md for the magnitude discussion.");

    let json = sweep::report("fig11", &args, body.build());
    sweep::finish(&args, &json);
}
