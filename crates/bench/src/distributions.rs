//! The distribution figures: where the cycles of an off-chip round trip go
//! (Figures 4, 5, 9, 12) and how evenly a controller's banks are used
//! (Figures 6, 13, 14). The sharded ones run [`DEFAULT_SHARDS`]
//! independently seeded replicates whose statistics merge exactly, so every
//! report is identical for every `--jobs` value.

use noclat::{AppLatency, MixResult, Scheme, SystemConfig};
use noclat_engine::{
    self as sweep, histogram_json, job_seed, Json, MixCell, Obj, SweepArgs, DEFAULT_SHARDS,
};
use noclat_sim::stats::Histogram;
use noclat_workloads::SpecApp;

use crate::{w, LEGS};

/// The workload-2 baseline cell behind Figures 4, 5, 6 and 9, `<fig>/w2`.
fn w2_baseline(fig: &str) -> MixCell {
    MixCell::new(
        format!("{fig}/w2"),
        SystemConfig::baseline_32(),
        w(2).apps(),
    )
}

/// The core running milc in a workload-2 run, and its latency statistics.
fn milc(r: &MixResult) -> (usize, AppLatency) {
    let app = r.per_app.iter().find(|a| a.app == SpecApp::Milc);
    let core = app.expect("workload-2 contains milc").core;
    (core, r.system.tracker().app(core).clone())
}

/// Shard reduction: histograms and breakdown rows add sample for sample.
fn merged<'a>(shards: impl IntoIterator<Item = &'a AppLatency>) -> AppLatency {
    let mut all = AppLatency::empty();
    for shard in shards {
        all.merge(shard);
    }
    all
}

/// The bins of two latency PDFs side by side, `(center, frac_a, frac_b)`,
/// keeping the bins where either fraction exceeds `floor`.
fn pdf_pair(a: &Histogram, b: &Histogram, floor: f64) -> Vec<(u64, f64, f64)> {
    let (pa, pb) = (a.pdf_points(), b.pdf_points());
    (0..pa.len().max(pb.len()))
        .map(|i| {
            let (center, fa) = pa.get(i).copied().unwrap_or((i as u64 * 25 + 12, 0.0));
            (center, fa, pb.get(i).map_or(0.0, |p| p.1))
        })
        .filter(|&(_, fa, fb)| fa > floor || fb > floor)
        .collect()
}

/// Fraction of `h`'s samples beyond 1.7 × `mean`.
fn tail_beyond(h: &Histogram, mean: f64) -> f64 {
    1.0 - h.cdf_at((1.7 * mean) as u64)
}

/// Figure 4 — milc's round trips broken into the five path components of
/// Figure 2, bucketed by total delay. Paper shape: the memory component
/// grows steeply with the delay range and the network components grow too,
/// so late accesses are late because of both.
pub fn fig04(args: &SweepArgs, _: &[String]) -> Json {
    let shards = sweep::run_mix_shards(args, &w2_baseline("fig04"), milc);
    let core = shards[0].0;
    let app = merged(shards.iter().map(|(_, shard)| shard));
    println!("milc runs on core {core}\n");
    print!("{:>7} {:>6}", "range", "count");
    for (head, _) in LEGS.iter().chain(&[("total", "")]) {
        print!(" {head:>8}");
    }
    println!();
    let mut rows_json = Vec::new();
    for (range, row) in app.breakdown() {
        let legs = row.averages();
        print!("{range:>7} {:>6}", row.count);
        for v in legs.iter().chain(&[legs.iter().sum::<f64>()]) {
            print!(" {v:>8.0}");
        }
        println!();
        let obj = Obj::new().field("range", range).field("count", row.count);
        let keyed = LEGS.iter().zip(legs);
        rows_json.push(
            keyed
                .fold(obj, |obj, ((_, key), v)| obj.field(*key, v))
                .build(),
        );
    }
    let (count, mean) = (app.total.count(), app.total.mean());
    println!("\nmilc off-chip accesses: {count}  mean round-trip: {mean:.0} cycles (paper: ~350)");
    Obj::new()
        .field("workload", 2u64)
        .field("app", "milc")
        .field("core", core)
        .field("shards", DEFAULT_SHARDS)
        .field("offchip", count)
        .field("mean_round_trip", mean)
        .field("breakdown", Json::Arr(rows_json))
        .build()
}

/// Figure 5 — latency PDF of milc's off-chip accesses. Paper shape: most
/// accesses cluster around the average, with a small but heavy tail of very
/// slow ones (the "late" accesses Scheme-1 targets).
pub fn fig05(args: &SweepArgs, _: &[String]) -> Json {
    let shards = sweep::run_mix_shards(args, &w2_baseline("fig05"), |r| milc(r).1);
    let app = merged(&shards);
    let h = &app.total;
    for (center, frac) in h.pdf_points() {
        if frac > 0.0005 {
            let bar = "#".repeat((frac * 400.0).round() as usize);
            println!("{center:>6}  {frac:>7.4}  {bar}");
        }
    }
    let (mean, p90, p99, max) = (h.mean(), h.percentile(0.90), h.percentile(0.99), h.max());
    println!("\nmean {mean:.0} cycles, p90 {p90} cycles, p99 {p99} cycles, max {max} cycles");
    let tail = tail_beyond(h, mean);
    println!(
        "fraction of accesses beyond 1.7 x mean: {:.1}% (paper: ~10% beyond 600 with mean ~350)",
        tail * 100.0
    );
    Obj::new()
        .field("workload", 2u64)
        .field("app", "milc")
        .field("shards", DEFAULT_SHARDS)
        .field("latency", histogram_json(h))
        .field("tail_beyond_1p7x_mean", tail)
        .build()
}

/// Figure 9 — milc's round-trip delays beside the so-far delays observed
/// right after the memory controller, with the Scheme-1 threshold marked.
/// Paper shape: the so-far distribution sits left of the round-trip one and
/// the threshold `1.2 × Delay_avg` cuts off its tail.
pub fn fig09(args: &SweepArgs, _: &[String]) -> Json {
    let shards = sweep::run_mix_shards(args, &w2_baseline("fig09"), |r| milc(r).1);
    let app = merged(&shards);
    println!("{:>6} {:>11} {:>9}", "center", "round-trip", "so-far");
    for (center, rt, sf) in pdf_pair(&app.total, &app.so_far, 0.0005) {
        println!("{center:>6} {rt:>11.4} {sf:>9.4}");
    }
    let factor = SystemConfig::baseline_32().scheme1.threshold_factor;
    let delay_avg = app.total.mean();
    let threshold = factor * delay_avg;
    let (so_far_avg, late) = (app.so_far.mean(), 1.0 - app.so_far.cdf_at(threshold as u64));
    let late_pct = late * 100.0;
    println!("\nDelay_avg (round-trip)       : {delay_avg:.0} cycles");
    println!("Delay_so-far_avg             : {so_far_avg:.0} cycles");
    println!("threshold {factor} x Delay_avg     : {threshold:.0} cycles");
    println!("so-far fraction beyond it    : {late_pct:.1}% (these become 'late')");
    Obj::new()
        .field("workload", 2u64)
        .field("app", "milc")
        .field("shards", DEFAULT_SHARDS)
        .field("round_trip", histogram_json(&app.total))
        .field("so_far", histogram_json(&app.so_far))
        .field("delay_avg", delay_avg)
        .field("threshold_factor", factor)
        .field("threshold", threshold)
        .field("late_fraction", late)
        .build()
}

/// Figure 12 — CDFs of the first 8 applications of workload-1 under the
/// baseline (a) and Scheme-1 (b), and lbm's PDF before/after (c). Paper
/// shape: Scheme-1 shifts the CDF tails left (90th percentile ~700 → ~600
/// cycles) and moves PDF mass out of the high-delay region. Shard `s` uses
/// the same derived seed under both variants.
pub fn fig12(args: &SweepArgs, _: &[String]) -> Json {
    let apps = w(1).apps();
    let lbm = apps.iter().position(|&a| a == SpecApp::Lbm);
    let lbm = lbm.expect("workload-1 contains lbm");
    let mut cells = Vec::new();
    for (variant, scheme) in [("base", Scheme::Baseline), ("s1", Scheme::S1)] {
        for s in 0..DEFAULT_SHARDS {
            let mut cfg = SystemConfig::baseline_32().with_scheme(scheme);
            cfg.seed = job_seed(args.seed, s); // paired across variants
            let label = format!("fig12/{variant}/shard-{s}");
            cells.push(MixCell::new(label, cfg, apps.clone()));
        }
    }
    let shards = sweep::run_mix_grid(args, cells, |r| r.system.tracker().clone());
    let mut variants = shards.chunks(DEFAULT_SHARDS as usize).map(|shards| {
        let mut tracker = shards[0].clone();
        shards[1..].iter().for_each(|t| tracker.merge(t));
        tracker
    });
    let mut variant = || variants.next().expect("two variants of eight shards");
    let (base, s1) = (variant(), variant());

    // The paper's headline: the x where 90% of accesses complete.
    let mut avg_p90 = [0.0; 2];
    for (k, (label, t)) in [("(a) baseline", &base), ("(b) Scheme-1", &s1)]
        .into_iter()
        .enumerate()
    {
        println!("\n--- {label} CDFs ---");
        print!("{:>6}", "x");
        for c in 0..8 {
            print!(" {:>9}", format!("core{c}"));
        }
        println!();
        for x in (100..=1600).step_by(100) {
            print!("{x:>6}");
            for c in 0..8 {
                print!(" {:>9.3}", t.app(c).total.cdf_at(x));
            }
            println!();
        }
        let p90s = (0..8).map(|c| t.app(c).total.percentile(0.90));
        let avg = p90s.sum::<u64>() as f64 / 8.0;
        println!("average 90th percentile across these apps: {avg:.0} cycles");
        avg_p90[k] = avg;
    }

    println!("\n--- (c) lbm latency PDF, baseline vs Scheme-1 (core {lbm}) ---");
    println!("{:>6} {:>9} {:>9}", "center", "base", "scheme1");
    let (hb, hs) = (&base.app(lbm).total, &s1.app(lbm).total);
    for (center, fb, fs) in pdf_pair(hb, hs, 0.001) {
        println!("{center:>6} {fb:>9.4} {fs:>9.4}");
    }
    let [(b90, b99, btail), (s90, s99, stail)] = [hb, hs].map(|h| {
        let tail = tail_beyond(h, hb.mean()) * 100.0;
        (h.percentile(0.90), h.percentile(0.99), tail)
    });
    println!(
        "\nlbm p90: {b90} -> {s90} cycles; p99: {b99} -> {s99}; \
         tail (>1.7x mean): {btail:.1}% -> {stail:.1}%"
    );
    Obj::new()
        .field("workload", 1u64)
        .field("shards", DEFAULT_SHARDS)
        .field("avg_p90_base", avg_p90[0])
        .field("avg_p90_s1", avg_p90[1])
        .field("lbm_core", lbm)
        .field("lbm_base", histogram_json(hb))
        .field("lbm_s1", histogram_json(hs))
        .build()
}

/// Per-bank and overall idleness of memory controller 0 (a bank is idle
/// when its queue is empty at a sampling instant).
fn bank_idleness(r: &MixResult) -> (Vec<f64>, f64) {
    let idleness = r.system.idleness(0);
    (idleness.per_bank_idleness(), idleness.overall())
}

/// Figure 6 — average idleness of one controller's banks under the
/// baseline. Paper shape: idleness differs noticeably across banks — some
/// sit idle while others serve queues (Motivation 2). The equal-weight mean
/// across shards, reduced in shard order.
pub fn fig06(args: &SweepArgs, _: &[String]) -> Json {
    let shards = sweep::run_mix_shards(args, &w2_baseline("fig06"), bank_idleness);
    let n = shards.len() as f64;
    let banks = 0..shards[0].0.len();
    let idleness: Vec<f64> = banks
        .map(|b| shards.iter().map(|s| s.0[b]).sum::<f64>() / n)
        .collect();
    let overall = shards.iter().map(|s| s.1).sum::<f64>() / n;

    println!("{:>5} {:>9}  bar", "bank", "idleness");
    for (b, idl) in idleness.iter().enumerate() {
        let bar = "#".repeat((idl * 50.0).round() as usize);
        println!("{b:>5} {idl:>9.3}  {bar}");
    }
    let min = idleness.iter().copied().fold(f64::INFINITY, f64::min);
    let max = idleness.iter().copied().fold(0.0, f64::max);
    println!("\nspread across banks: min {min:.3}, max {max:.3}, overall {overall:.3}");
    Obj::new()
        .field("workload", 2u64)
        .field("controller", 0u64)
        .field("shards", DEFAULT_SHARDS)
        .field("per_bank_idleness", idleness)
        .field("min", min)
        .field("max", max)
        .field("overall", overall)
        .build()
}

/// The four cells of Figures 13 and 14 as one grid: default vs Scheme-2 on
/// the paper's workload-1 and on the memory-intensive workload-8 (in our
/// calibration the mixed workloads leave banks mostly idle; bank pressure
/// exists on workload-8). Calls `render` once per workload with its
/// `(default, scheme2)` extracts and wraps the rows it returns.
fn default_vs_scheme2<T: Send + sweep::CellCodec + 'static>(
    args: &SweepArgs,
    fig: &str,
    extract: impl Fn(&MixResult) -> T + Send + Sync + 'static,
    render: impl Fn(usize, &T, &T) -> Obj,
) -> Json {
    const WORKLOADS: [usize; 2] = [1, 8];
    let mut cells = Vec::new();
    for widx in WORKLOADS {
        for (label, scheme) in [("default", Scheme::Baseline), ("scheme2", Scheme::S2)] {
            let mut cfg = SystemConfig::baseline_32().with_scheme(scheme);
            cfg.seed = args.seed;
            let label = format!("{fig}/w{widx}/{label}");
            cells.push(MixCell::new(label, cfg, w(widx).apps()));
        }
    }
    let results = sweep::run_mix_grid(args, cells, extract);
    let rows = WORKLOADS.iter().zip(results.chunks(2));
    let rows = rows.map(|(&widx, pair)| render(widx, &pair[0], &pair[1]).build());
    Obj::new()
        .field("controller", 0u64)
        .field("workloads", rows.collect::<Vec<Json>>())
        .build()
}

/// Figure 13 — per-bank idleness of one controller with and without
/// Scheme-2. Paper shape: Scheme-2 reduces idleness in most banks (requests
/// reach idle banks faster, so they spend less time empty).
pub fn fig13(args: &SweepArgs, _: &[String]) -> Json {
    default_vs_scheme2(args, "fig13", bank_idleness, |widx, default, scheme2| {
        let ((ib, overall_b), (is2, overall_s)) = (default, scheme2);
        println!("\n--- workload-{widx} ---");
        println!(
            "{:>5} {:>9} {:>9} {:>8}",
            "bank", "default", "scheme2", "delta"
        );
        for b in 0..ib.len() {
            let d = is2[b] - ib[b];
            println!("{b:>5} {:>9.3} {:>9.3} {d:>+8.3}", ib[b], is2[b]);
        }
        let reduced = ib.iter().zip(is2).filter(|(b, s)| *s - *b < 0.0).count();
        let banks = ib.len();
        println!(
            "overall idleness: {overall_b:.4} -> {overall_s:.4}  (reduced in {reduced}/{banks} banks)"
        );
        Obj::new()
            .field("workload", widx)
            .field("default", ib.clone())
            .field("scheme2", is2.clone())
            .field("overall_default", *overall_b)
            .field("overall_scheme2", *overall_s)
            .field("banks_reduced", reduced)
    })
}

/// Figure 14 — average bank idleness over the course of execution. Paper
/// shape: the Scheme-2 curve sits below the default curve across the run.
pub fn fig14(args: &SweepArgs, _: &[String]) -> Json {
    let over_time = |r: &MixResult| r.system.idleness(0).idleness_over_time();
    default_vs_scheme2(args, "fig14", over_time, |widx, tb, ts| {
        println!("\n--- workload-{widx} (10k-cycle intervals, controller 0) ---");
        println!("{:>10} {:>9} {:>9}", "interval", "default", "scheme2");
        for (i, (b, s)) in tb.iter().zip(ts).enumerate() {
            println!("{i:>10} {b:>9.3} {s:>9.3}");
        }
        let (below, of) = (
            tb.iter().zip(ts).filter(|(b, s)| s <= b).count(),
            tb.len().min(ts.len()),
        );
        println!("Scheme-2 at or below default in {below}/{of} intervals");
        Obj::new()
            .field("workload", widx)
            .field("default", tb.clone())
            .field("scheme2", ts.clone())
            .field("intervals_at_or_below", below)
    })
}
