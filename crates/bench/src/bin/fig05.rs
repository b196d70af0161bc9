//! Figure 5 — latency distribution (PDF) of the off-chip memory accesses
//! issued by the core running milc in workload-2.
//!
//! Paper shape to reproduce: most accesses cluster around the average, with
//! a small but heavy tail of very slow accesses (the "late" accesses
//! Scheme-1 targets).
//!
//! Sharded across independently seeded replicates on the worker pool; the
//! merged histogram is identical for every `--jobs` value.

use noclat::AppLatency;
use noclat_bench::{banner, core_of, w2_baseline};
use noclat_engine::{self as sweep, histogram_json, Obj, SweepArgs, DEFAULT_SHARDS};
use noclat_workloads::SpecApp;

fn main() {
    let args = SweepArgs::parse(&format!("fig05 {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 5: Latency distribution of milc's off-chip accesses (workload-2)",
        "Columns: delay bin center | fraction of accesses | bar",
    );
    let shards = sweep::run_mix_shards(&args, &w2_baseline("fig05"), |r| {
        let core = core_of(r, SpecApp::Milc).expect("workload-2 contains milc");
        r.system.tracker().app(core).clone()
    });
    let mut app = AppLatency::empty();
    for shard in &shards {
        app.merge(shard);
    }
    let h = &app.total;
    for (center, frac) in h.pdf_points() {
        if frac > 0.0005 {
            let bar = "#".repeat((frac * 400.0).round() as usize);
            println!("{center:>6}  {frac:>7.4}  {bar}");
        }
    }
    println!(
        "\nmean {:.0} cycles, p90 {} cycles, p99 {} cycles, max {} cycles",
        h.mean(),
        h.percentile(0.90),
        h.percentile(0.99),
        h.max()
    );
    let tail = 1.0 - h.cdf_at((1.7 * h.mean()) as u64);
    println!(
        "fraction of accesses beyond 1.7 x mean: {:.1}% (paper: ~10% beyond 600 with mean ~350)",
        tail * 100.0
    );
    let json = sweep::report(
        "fig05",
        &args,
        Obj::new()
            .field("workload", 2u64)
            .field("app", "milc")
            .field("shards", DEFAULT_SHARDS)
            .field("latency", histogram_json(h))
            .field("tail_beyond_1p7x_mean", tail)
            .build(),
    );
    sweep::finish(&args, &json);
}
