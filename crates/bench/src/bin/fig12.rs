//! Figure 12 — (a) CDFs of the off-chip access latencies of the first 8
//! applications in workload-1 under the baseline, (b) the same CDFs with
//! Scheme-1 enabled, and (c) the latency PDF of lbm before/after Scheme-1.
//!
//! Paper shape to reproduce: Scheme-1 shifts the CDF tails left (paper: the
//! 90th percentile drops from ~700 to ~600 cycles) and moves PDF mass out of
//! the high-delay region.
//!
//! Sharded: each scheme variant runs [`DEFAULT_SHARDS`] paired replicates
//! (shard `s` uses the same derived seed under both variants) whose latency
//! trackers merge exactly, so reports are identical for every `--jobs`.

use noclat::{LatencyTracker, Scheme, SystemConfig};
use noclat_bench::banner;
use noclat_engine::{
    self as sweep, histogram_json, job_seed, MixCell, Obj, SweepArgs, DEFAULT_SHARDS,
};
use noclat_workloads::{workload, SpecApp};

fn cdf_row(t: &LatencyTracker, cores: &[usize], x: u64) -> Vec<f64> {
    cores.iter().map(|&c| t.app(c).total.cdf_at(x)).collect()
}

fn print_cdfs(label: &str, t: &LatencyTracker, cores: &[usize]) -> f64 {
    println!("\n--- {label} ---");
    print!("{:>6}", "x");
    for &c in cores {
        print!(" {:>9}", format!("core{c}"));
    }
    println!();
    for x in (100..=1600).step_by(100) {
        print!("{x:>6}");
        for f in cdf_row(t, cores, x) {
            print!(" {f:>9.3}");
        }
        println!();
    }
    // The paper's headline: the x where 90% of accesses complete.
    let mut p90s = Vec::new();
    for &c in cores {
        p90s.push(t.app(c).total.percentile(0.90));
    }
    let avg_p90 = p90s.iter().sum::<u64>() as f64 / p90s.len() as f64;
    println!("average 90th percentile across these apps: {avg_p90:.0} cycles");
    avg_p90
}

fn main() {
    let args = SweepArgs::parse(&format!("fig12 {}", sweep::SWEEP_USAGE));
    banner(
        "Figure 12: CDFs of off-chip latency, first 8 apps of workload-1; PDF of lbm",
        "(a) baseline, (b) Scheme-1, (c) lbm PDF before/after.",
    );
    let apps = workload(1).apps();
    let lbm = apps
        .iter()
        .position(|&a| a == SpecApp::Lbm)
        .expect("workload-1 contains lbm");

    let mut cells = Vec::new();
    for (variant, scheme) in [("base", Scheme::Baseline), ("s1", Scheme::S1)] {
        for s in 0..DEFAULT_SHARDS {
            let mut cfg = SystemConfig::baseline_32().with_scheme(scheme);
            cfg.seed = job_seed(args.seed, s); // paired across variants
            let label = format!("fig12/{variant}/shard-{s}");
            cells.push(MixCell::new(label, cfg, apps.clone()));
        }
    }
    let mut results = sweep::run_mix_grid(&args, cells, |r| r.system.tracker().clone());
    let shards = DEFAULT_SHARDS as usize;
    let s1_shards = results.split_off(shards);
    let mut base = results.remove(0);
    for t in &results {
        base.merge(t);
    }
    let mut s1 = s1_shards[0].clone();
    for t in &s1_shards[1..] {
        s1.merge(t);
    }

    let cores: Vec<usize> = (0..8).collect();
    let p90_base = print_cdfs("(a) baseline CDFs", &base, &cores);
    let p90_s1 = print_cdfs("(b) Scheme-1 CDFs", &s1, &cores);

    println!("\n--- (c) lbm latency PDF, baseline vs Scheme-1 (core {lbm}) ---");
    println!("{:>6} {:>9} {:>9}", "center", "base", "scheme1");
    let pb = base.app(lbm).total.pdf_points();
    let ps = s1.app(lbm).total.pdf_points();
    for i in 0..pb.len().max(ps.len()) {
        let (c, f1) = pb.get(i).copied().unwrap_or((i as u64 * 25 + 12, 0.0));
        let (_, f2) = ps.get(i).copied().unwrap_or((0, 0.0));
        if f1 > 0.001 || f2 > 0.001 {
            println!("{c:>6} {f1:>9.4} {f2:>9.4}");
        }
    }
    let hb = &base.app(lbm).total;
    let hs = &s1.app(lbm).total;
    println!(
        "\nlbm p90: {} -> {} cycles; p99: {} -> {}; tail (>1.7x mean): {:.1}% -> {:.1}%",
        hb.percentile(0.90),
        hs.percentile(0.90),
        hb.percentile(0.99),
        hs.percentile(0.99),
        (1.0 - hb.cdf_at((1.7 * hb.mean()) as u64)) * 100.0,
        (1.0 - hs.cdf_at((1.7 * hb.mean()) as u64)) * 100.0,
    );

    let json = sweep::report(
        "fig12",
        &args,
        Obj::new()
            .field("workload", 1u64)
            .field("shards", DEFAULT_SHARDS)
            .field("avg_p90_base", p90_base)
            .field("avg_p90_s1", p90_s1)
            .field("lbm_core", lbm)
            .field("lbm_base", histogram_json(hb))
            .field("lbm_s1", histogram_json(hs))
            .build(),
    );
    sweep::finish(&args, &json);
}
