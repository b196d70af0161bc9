//! Figure 15 — normalized weighted speedups on the 16-core system (4x4
//! mesh, 2 memory controllers), using the first half of each workload.
//!
//! Paper shape to reproduce: gains are positive but smaller than on the
//! 32-core system (the network contributes less to round-trip latency in a
//! smaller mesh). Paper averages: ~8% (mixed), ~11% (intensive), ~1.5%
//! (non-intensive) for Scheme-1+2.
//!
//! Two parallel phases, as in fig11: alone-IPC denominators, then the
//! 18 × 3 workload × scheme mix grid.

use noclat::SystemConfig;
use noclat_bench::{banner, pct, scheme_gain_panels};
use noclat_engine::{self as sweep, Obj, SweepArgs};
use noclat_workloads::Workload;

fn main() {
    let args = SweepArgs::parse(&format!("fig15 {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 15: Normalized weighted speedup on the 16-core (4x4) system",
        "First half of each Table-2 workload; 2 memory controllers.",
    );
    let body = scheme_gain_panels(
        &args,
        "fig15",
        SystemConfig::baseline_16(),
        Workload::first_half,
        Obj::new().field("cores", 16u64),
        |g1, g2| {
            println!(
                "{:>12} geomean: Scheme-1 {}, Scheme-1+2 {}",
                "",
                pct(g1),
                pct(g2)
            );
        },
    );

    let json = sweep::report("fig15", &args, body.build());
    sweep::finish(&args, &json);
}
