//! Figure 9 — two delay distributions for milc (workload-2): the round-trip
//! delays of complete accesses (dashed curve in the paper) and the so-far
//! delays observed right after the memory controller (solid curve), with the
//! Scheme-1 threshold marked.
//!
//! Paper shape to reproduce: the so-far distribution sits left of the
//! round-trip distribution; the threshold `1.2 × Delay_avg` cuts off the
//! so-far tail (the accesses Scheme-1 expedites).
//!
//! The measurement is sharded: [`DEFAULT_SHARDS`] independently seeded
//! replicates run on the worker pool (`--jobs N`) and their histograms merge
//! exactly, so `--jobs 1` and `--jobs 8` print and serialize identical
//! reports.

use noclat::{AppLatency, SystemConfig};
use noclat_bench::{banner, core_of, w2_baseline};
use noclat_engine::{self as sweep, histogram_json, Obj, SweepArgs, DEFAULT_SHARDS};
use noclat_workloads::SpecApp;

fn main() {
    let args = SweepArgs::parse(&format!("fig09 {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 9: Round-trip vs so-far delay distributions (milc, workload-2)",
        "Columns: bin center | round-trip fraction | so-far fraction",
    );
    let shards = sweep::run_mix_shards(&args, &w2_baseline("fig09"), |r| {
        let core = core_of(r, SpecApp::Milc).expect("workload-2 contains milc");
        r.system.tracker().app(core).clone()
    });
    let mut app = AppLatency::empty();
    for shard in &shards {
        app.merge(shard);
    }

    let rt = app.total.pdf_points();
    let sf = app.so_far.pdf_points();
    let n = rt.len().max(sf.len());
    println!("{:>6} {:>11} {:>9}", "center", "round-trip", "so-far");
    for i in 0..n {
        let (c1, f1) = rt.get(i).copied().unwrap_or((i as u64 * 25 + 12, 0.0));
        let (_, f2) = sf.get(i).copied().unwrap_or((0, 0.0));
        if f1 > 0.0005 || f2 > 0.0005 {
            println!("{c1:>6} {f1:>11.4} {f2:>9.4}");
        }
    }
    let cfg = SystemConfig::baseline_32();
    let delay_avg = app.total.mean();
    let threshold = cfg.scheme1.threshold_factor * delay_avg;
    println!("\nDelay_avg (round-trip)       : {delay_avg:.0} cycles");
    println!(
        "Delay_so-far_avg             : {:.0} cycles",
        app.so_far.mean()
    );
    println!(
        "threshold {} x Delay_avg     : {threshold:.0} cycles",
        cfg.scheme1.threshold_factor
    );
    let late = 1.0 - app.so_far.cdf_at(threshold as u64);
    println!(
        "so-far fraction beyond it    : {:.1}% (these become 'late')",
        late * 100.0
    );

    let json = sweep::report(
        "fig09",
        &args,
        Obj::new()
            .field("workload", 2u64)
            .field("app", "milc")
            .field("shards", DEFAULT_SHARDS)
            .field("round_trip", histogram_json(&app.total))
            .field("so_far", histogram_json(&app.so_far))
            .field("delay_avg", delay_avg)
            .field("threshold_factor", cfg.scheme1.threshold_factor)
            .field("threshold", threshold)
            .field("late_fraction", late)
            .build(),
    );
    sweep::finish(&args, &json);
}
