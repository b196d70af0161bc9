//! Golden-result regression suite: pinned seed-run metrics for the
//! `baseline_32` system on workload-2 under all four scheme combinations.
//!
//! The simulator is deterministic, so any drift in these numbers means a
//! behavioural change in the model — intended changes must regenerate the
//! table (run with `NOCLAT_REGEN_GOLDEN=1 cargo test --test golden_results
//! -- --nocapture regen` and paste the printed block), unintended ones are
//! regressions. Integer counts are compared exactly; floating-point
//! metrics use a 0.5% relative band so the suite survives benign
//! re-orderings of IEEE-identical arithmetic, while still failing loudly
//! when a scheme constant (threshold factor, history window, …) is
//! perturbed — the perturbation tests below prove the bands are tight
//! enough to catch exactly that.

use std::collections::HashMap;
use std::sync::OnceLock;

use noclat::{alone_ipc, run_mix, weighted_speedup_of, RunLengths, Scheme, SystemConfig};
use noclat_sim::stats::Histogram;
use noclat_workloads::{workload, SpecApp};

const WORKLOAD: usize = 2;
const RTOL: f64 = 5e-3;
const PINNED_CORES: usize = 4;

/// Long enough that Scheme-1's default 10k-cycle threshold update period
/// elapses during measurement (shorter windows never activate it, and the
/// suite must pin the schemes actually doing something).
fn lengths() -> RunLengths {
    RunLengths {
        warmup: 300,
        measure: 12_000,
    }
}

fn config_for(scheme: &str) -> SystemConfig {
    SystemConfig::baseline_32().with_scheme(Scheme::parse(scheme).expect("golden scheme name"))
}

/// The metrics one golden row pins.
#[derive(Debug, Clone, PartialEq)]
struct Metrics {
    scheme: &'static str,
    /// Total completed off-chip accesses (exact).
    offchip: u64,
    /// Per-core off-chip accesses for the first few cores (exact).
    core_offchip: [u64; PINNED_CORES],
    /// Per-core IPC for the first few cores (0.5% band).
    core_ipc: [f64; PINNED_CORES],
    /// Sum of per-app IPCs (0.5% band).
    ipc_sum: f64,
    /// Mean of the merged round-trip latency histogram (0.5% band).
    mean_latency: f64,
    /// 95th percentile of the merged histogram (exact bin center).
    p95_latency: u64,
    /// Weighted speedup vs the alone runs (0.5% band).
    weighted_speedup: f64,
}

/// Alone-run IPC denominators, computed once per test process (every test
/// needs the same table and the runs are the expensive part).
fn alone_table() -> &'static HashMap<SpecApp, f64> {
    static TABLE: OnceLock<HashMap<SpecApp, f64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let cfg = SystemConfig::baseline_32();
        let mut distinct: Vec<SpecApp> = Vec::new();
        for app in workload(WORKLOAD).apps() {
            if !distinct.contains(&app) {
                distinct.push(app);
            }
        }
        distinct
            .into_iter()
            .map(|app| (app, alone_ipc(&cfg, app, lengths())))
            .collect()
    })
}

fn measure(scheme: &'static str, alone: &HashMap<SpecApp, f64>, cfg: &SystemConfig) -> Metrics {
    let r = run_mix(cfg, &workload(WORKLOAD).apps(), lengths());
    let mut merged = Histogram::new(25, 4000);
    for c in 0..r.per_app.len() {
        merged.merge(&r.system.tracker().app(c).total);
    }
    let mut core_offchip = [0u64; PINNED_CORES];
    let mut core_ipc = [0f64; PINNED_CORES];
    for c in 0..PINNED_CORES {
        core_offchip[c] = r.per_app[c].offchip;
        core_ipc[c] = r.per_app[c].ipc;
    }
    Metrics {
        scheme,
        offchip: r.per_app.iter().map(|a| a.offchip).sum(),
        core_offchip,
        core_ipc,
        ipc_sum: r.per_app.iter().map(|a| a.ipc).sum(),
        mean_latency: merged.mean(),
        p95_latency: merged.percentile(0.95),
        weighted_speedup: weighted_speedup_of(&r, alone),
    }
}

fn assert_close(what: &str, scheme: &str, got: f64, want: f64) {
    let rel = if want == 0.0 {
        got.abs()
    } else {
        ((got - want) / want).abs()
    };
    assert!(
        rel <= RTOL,
        "{scheme}/{what}: got {got}, golden {want} (rel err {rel:.2e} > {RTOL:.0e})"
    );
}

fn check(golden: &Metrics, alone: &HashMap<SpecApp, f64>) {
    let m = measure(golden.scheme, alone, &config_for(golden.scheme));
    assert_eq!(
        m.offchip, golden.offchip,
        "{}/offchip: got {}, golden {}",
        golden.scheme, m.offchip, golden.offchip
    );
    assert_eq!(
        m.core_offchip, golden.core_offchip,
        "{}/core_offchip drifted",
        golden.scheme
    );
    for c in 0..PINNED_CORES {
        assert_close(
            &format!("core{c}_ipc"),
            golden.scheme,
            m.core_ipc[c],
            golden.core_ipc[c],
        );
    }
    assert_close("ipc_sum", golden.scheme, m.ipc_sum, golden.ipc_sum);
    assert_close(
        "mean_latency",
        golden.scheme,
        m.mean_latency,
        golden.mean_latency,
    );
    assert_eq!(
        m.p95_latency, golden.p95_latency,
        "{}/p95_latency: got {}, golden {}",
        golden.scheme, m.p95_latency, golden.p95_latency
    );
    assert_close(
        "weighted_speedup",
        golden.scheme,
        m.weighted_speedup,
        golden.weighted_speedup,
    );
}

// ---------------------------------------------------------------------------
// The golden table (regenerate with NOCLAT_REGEN_GOLDEN=1, see module doc).
// ---------------------------------------------------------------------------

const GOLDEN: [Metrics; 4] = [
    Metrics {
        scheme: "baseline",
        offchip: 1539,
        core_offchip: [100, 91, 213, 234],
        core_ipc: [0.4195, 0.3915, 0.3710833333333333, 0.32108333333333333],
        ipc_sum: 15.779333333333334,
        mean_latency: 457.140350877193,
        p95_latency: 700,
        weighted_speedup: 16.905833508546884,
    },
    Metrics {
        scheme: "s1",
        offchip: 1534,
        core_offchip: [100, 91, 212, 234],
        core_ipc: [0.4195, 0.39166666666666666, 0.3695, 0.32108333333333333],
        ipc_sum: 15.76366666666667,
        mean_latency: 453.6681877444589,
        p95_latency: 675,
        weighted_speedup: 16.884056605601163,
    },
    Metrics {
        scheme: "s2",
        offchip: 1584,
        core_offchip: [101, 91, 219, 235],
        core_ipc: [0.4105, 0.39625, 0.3829166666666667, 0.32066666666666666],
        ipc_sum: 15.87425,
        mean_latency: 424.35290404040404,
        p95_latency: 600,
        weighted_speedup: 17.031022929381365,
    },
    Metrics {
        scheme: "both",
        offchip: 1595,
        core_offchip: [96, 93, 223, 236],
        core_ipc: [
            0.4038333333333333,
            0.3963333333333333,
            0.3829166666666667,
            0.3294166666666667,
        ],
        ipc_sum: 15.892999999999999,
        mean_latency: 423.59937304075237,
        p95_latency: 600,
        weighted_speedup: 17.052545958513512,
    },
];

/// Prints the golden table in source form when `NOCLAT_REGEN_GOLDEN=1`
/// (otherwise a no-op), so intended model changes can re-pin it.
#[test]
fn regen_golden_table() {
    if std::env::var("NOCLAT_REGEN_GOLDEN").as_deref() != Ok("1") {
        return;
    }
    let alone = alone_table();
    println!("const GOLDEN: [Metrics; 4] = [");
    for scheme in ["baseline", "s1", "s2", "both"] {
        let m = measure(scheme, alone, &config_for(scheme));
        println!("    Metrics {{");
        println!("        scheme: \"{}\",", m.scheme);
        println!("        offchip: {},", m.offchip);
        println!("        core_offchip: {:?},", m.core_offchip);
        println!("        core_ipc: {:?},", m.core_ipc);
        println!("        ipc_sum: {:?},", m.ipc_sum);
        println!("        mean_latency: {:?},", m.mean_latency);
        println!("        p95_latency: {},", m.p95_latency);
        println!("        weighted_speedup: {:?},", m.weighted_speedup);
        println!("    }},");
    }
    println!("];");
}

#[test]
fn golden_baseline() {
    check(&GOLDEN[0], alone_table());
}

#[test]
fn golden_scheme1() {
    check(&GOLDEN[1], alone_table());
}

#[test]
fn golden_scheme2() {
    check(&GOLDEN[2], alone_table());
}

#[test]
fn golden_both_schemes() {
    check(&GOLDEN[3], alone_table());
}

/// The suite's reason to exist: a perturbed scheme constant must push the
/// measured metrics out of the golden bands. Here Scheme-1's lateness
/// threshold is halved — the run must visibly diverge from the pinned
/// "both" row.
#[test]
fn perturbed_threshold_factor_escapes_the_bands() {
    let alone = alone_table();
    let mut cfg = config_for("both");
    cfg.scheme1.threshold_factor = 0.6;
    let m = measure("both", alone, &cfg);
    let golden = &GOLDEN[3];
    assert_ne!(
        m.offchip, golden.offchip,
        "halving the lateness threshold must change the trajectory"
    );
}

/// Same for Scheme-2: a different bank-history window must change the run.
#[test]
fn perturbed_history_window_escapes_the_bands() {
    let alone = alone_table();
    let mut cfg = config_for("both");
    cfg.scheme2.history_window *= 4;
    let m = measure("both", alone, &cfg);
    let golden = &GOLDEN[3];
    assert_ne!(
        m.offchip, golden.offchip,
        "a 4x bank-history window must change the trajectory"
    );
}

// ---------------------------------------------------------------------------
// Off-mesh golden rows: the 16x16 torus (256 cores, dateline VCs) under all
// four scheme combos. No weighted speedup here — 256 alone runs would
// dominate the suite's budget; the pinned counts and latency shape already
// lock the fabric's trajectory.
// ---------------------------------------------------------------------------

use noclat::TopologyOverride;

/// Shorter than the mesh window: a 256-core cycle is ~8x the work, and the
/// torus rows pin network behaviour (wraparound routing, dateline VC
/// allocation), which saturates well before Scheme-1's threshold updates.
fn torus_lengths() -> RunLengths {
    RunLengths {
        warmup: 200,
        measure: 4_000,
    }
}

fn torus_config_for(scheme: &str) -> SystemConfig {
    let scheme = Scheme::parse(scheme).expect("golden scheme name");
    let mut cfg = SystemConfig::baseline_256().with_scheme(scheme);
    TopologyOverride::parse("torus")
        .expect("valid spec")
        .apply(&mut cfg);
    cfg
}

/// The metrics one torus golden row pins.
#[derive(Debug, Clone, PartialEq)]
struct TorusMetrics {
    scheme: &'static str,
    /// Total completed off-chip accesses (exact).
    offchip: u64,
    /// Per-core off-chip accesses for the first few cores (exact).
    core_offchip: [u64; PINNED_CORES],
    /// Sum of per-app IPCs (0.5% band).
    ipc_sum: f64,
    /// Mean of the merged round-trip latency histogram (0.5% band).
    mean_latency: f64,
    /// 95th percentile of the merged histogram (exact bin center).
    p95_latency: u64,
}

fn torus_measure(scheme: &'static str, cfg: &SystemConfig) -> TorusMetrics {
    let apps = workload(WORKLOAD).apps_for(cfg.num_cores());
    let r = run_mix(cfg, &apps, torus_lengths());
    let mut merged = Histogram::new(25, 4000);
    for c in 0..r.per_app.len() {
        merged.merge(&r.system.tracker().app(c).total);
    }
    let mut core_offchip = [0u64; PINNED_CORES];
    for (c, slot) in core_offchip.iter_mut().enumerate() {
        *slot = r.per_app[c].offchip;
    }
    TorusMetrics {
        scheme,
        offchip: r.per_app.iter().map(|a| a.offchip).sum(),
        core_offchip,
        ipc_sum: r.per_app.iter().map(|a| a.ipc).sum(),
        mean_latency: merged.mean(),
        p95_latency: merged.percentile(0.95),
    }
}

fn torus_check(golden: &TorusMetrics) {
    let m = torus_measure(golden.scheme, &torus_config_for(golden.scheme));
    assert_eq!(
        m.offchip, golden.offchip,
        "torus/{}/offchip: got {}, golden {}",
        golden.scheme, m.offchip, golden.offchip
    );
    assert_eq!(
        m.core_offchip, golden.core_offchip,
        "torus/{}/core_offchip drifted",
        golden.scheme
    );
    assert_close("ipc_sum", golden.scheme, m.ipc_sum, golden.ipc_sum);
    assert_close(
        "mean_latency",
        golden.scheme,
        m.mean_latency,
        golden.mean_latency,
    );
    assert_eq!(
        m.p95_latency, golden.p95_latency,
        "torus/{}/p95_latency: got {}, golden {}",
        golden.scheme, m.p95_latency, golden.p95_latency
    );
}

// Within this window Scheme-1 is inert (its first 10k-cycle threshold
// update never arrives), so the s1 row equals baseline and the both row
// equals s2 — the rows still pin that *remaining* equality.
const TORUS_GOLDEN: [TorusMetrics; 4] = [
    TorusMetrics {
        scheme: "baseline",
        offchip: 742,
        core_offchip: [9, 7, 4, 19],
        ipc_sum: 55.616,
        mean_latency: 2053.9029649595686,
        p95_latency: 3250,
    },
    TorusMetrics {
        scheme: "s1",
        offchip: 742,
        core_offchip: [9, 7, 4, 19],
        ipc_sum: 55.616,
        mean_latency: 2053.9029649595686,
        p95_latency: 3250,
    },
    TorusMetrics {
        scheme: "s2",
        offchip: 787,
        core_offchip: [10, 8, 3, 19],
        ipc_sum: 59.274250000000016,
        mean_latency: 1872.4269377382466,
        p95_latency: 3100,
    },
    TorusMetrics {
        scheme: "both",
        offchip: 787,
        core_offchip: [10, 8, 3, 19],
        ipc_sum: 59.274250000000016,
        mean_latency: 1872.4269377382466,
        p95_latency: 3100,
    },
];

/// Prints the torus golden table in source form when `NOCLAT_REGEN_GOLDEN=1`
/// (otherwise a no-op), so intended model changes can re-pin it.
#[test]
fn regen_torus_golden_table() {
    if std::env::var("NOCLAT_REGEN_GOLDEN").as_deref() != Ok("1") {
        return;
    }
    println!("const TORUS_GOLDEN: [TorusMetrics; 4] = [");
    for scheme in ["baseline", "s1", "s2", "both"] {
        let m = torus_measure(scheme, &torus_config_for(scheme));
        println!("    TorusMetrics {{");
        println!("        scheme: \"{}\",", m.scheme);
        println!("        offchip: {},", m.offchip);
        println!("        core_offchip: {:?},", m.core_offchip);
        println!("        ipc_sum: {:?},", m.ipc_sum);
        println!("        mean_latency: {:?},", m.mean_latency);
        println!("        p95_latency: {},", m.p95_latency);
        println!("    }},");
    }
    println!("];");
}

#[test]
fn torus_golden_baseline() {
    torus_check(&TORUS_GOLDEN[0]);
}

#[test]
fn torus_golden_scheme1() {
    torus_check(&TORUS_GOLDEN[1]);
}

#[test]
fn torus_golden_scheme2() {
    torus_check(&TORUS_GOLDEN[2]);
}

#[test]
fn torus_golden_both_schemes() {
    torus_check(&TORUS_GOLDEN[3]);
}

/// The torus bands must catch *fabric-level* drift, not just scheme-constant
/// drift: doubling the link latency changes every wraparound hop and must
/// push the run out of the pinned trajectory.
#[test]
fn perturbed_link_latency_escapes_the_torus_bands() {
    let mut cfg = torus_config_for("both");
    cfg.noc.link_latency = 2;
    let m = torus_measure("both", &cfg);
    let golden = &TORUS_GOLDEN[3];
    assert_ne!(
        m.offchip, golden.offchip,
        "doubling link latency must change the torus trajectory"
    );
}
