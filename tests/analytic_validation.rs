//! Analytic-model validation: the closed-form estimator of
//! `noclat-analytic` must land inside a pinned relative-error band of the
//! cycle simulator's golden mean latencies (`tests/golden_results.rs`) for
//! every scheme combination on both golden fabrics.
//!
//! The golden constants are repeated here as locals (the golden suite pins
//! them against the simulator; this suite pins the *model* against them) —
//! if `golden_results.rs` is regenerated, re-paste the latencies below.
//!
//! Two bands are pinned:
//!   * per-cell: each estimate within `CELL_BAND` of its golden latency;
//!   * mean: the average |error| over all eight cells within `MEAN_BAND`.
//!
//! The perturbation test proves the bands have teeth: breaking a single
//! model coefficient must push the suite out of band.

use noclat::{RunLengths, Scheme, SystemConfig, TopologyOverride};
use noclat_analytic::AnalyticModel;
use noclat_workloads::{workload, SpecApp};

const WORKLOAD: usize = 2;

/// Per-cell relative-error ceiling. The model currently sits under 3% on
/// every golden cell; 10% leaves calibration headroom while still failing
/// on any structural regression (a dropped leg, a broken coefficient).
const CELL_BAND: f64 = 0.10;

/// Mean |error| ceiling across all eight golden cells (the ISSUE's
/// acceptance band is 15%; the model currently delivers ~1.1%).
const MEAN_BAND: f64 = 0.15;

/// Golden mean latencies from `tests/golden_results.rs` (`GOLDEN` and
/// `TORUS_GOLDEN` tables), in scheme order baseline, s1, s2, both.
const MESH_GOLDEN: [f64; 4] = [
    457.140350877193,
    453.6681877444589,
    424.35290404040404,
    423.59937304075237,
];
const TORUS_GOLDEN: [f64; 4] = [
    2053.9029649595686,
    2053.9029649595686,
    1872.4269377382466,
    1872.4269377382466,
];

const SCHEMES: [&str; 4] = ["baseline", "s1", "s2", "both"];

fn with_scheme(base: &SystemConfig, scheme: &str) -> SystemConfig {
    base.clone()
        .with_scheme(Scheme::parse(scheme).expect("golden scheme name"))
}

fn mesh_family() -> (SystemConfig, Vec<SpecApp>, RunLengths) {
    (
        SystemConfig::baseline_32(),
        workload(WORKLOAD).apps(),
        RunLengths {
            warmup: 300,
            measure: 12_000,
        },
    )
}

fn torus_family() -> (SystemConfig, Vec<SpecApp>, RunLengths) {
    let mut cfg = SystemConfig::baseline_256();
    TopologyOverride::parse("torus")
        .expect("valid spec")
        .apply(&mut cfg);
    let apps = workload(WORKLOAD).apps_for(cfg.num_cores());
    (
        cfg,
        apps,
        RunLengths {
            warmup: 200,
            measure: 4_000,
        },
    )
}

fn estimate(base: &SystemConfig, apps: &[SpecApp], lengths: RunLengths, scheme: &str) -> f64 {
    AnalyticModel::new(&with_scheme(base, scheme), apps)
        .expect("golden configs validate")
        .with_lengths(lengths.warmup, lengths.measure)
        .evaluate()
        .mean_latency
}

/// Relative errors for all eight golden cells, mesh first then torus, in
/// scheme order.
fn all_errors() -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let (mesh, mesh_apps, mesh_len) = mesh_family();
    for (scheme, &golden) in SCHEMES.iter().zip(&MESH_GOLDEN) {
        let model = estimate(&mesh, &mesh_apps, mesh_len, scheme);
        out.push((format!("mesh/{scheme}"), (model - golden) / golden));
    }
    let (torus, torus_apps, torus_len) = torus_family();
    for (scheme, &golden) in SCHEMES.iter().zip(&TORUS_GOLDEN) {
        let model = estimate(&torus, &torus_apps, torus_len, scheme);
        out.push((format!("torus/{scheme}"), (model - golden) / golden));
    }
    out
}

#[test]
fn every_golden_cell_is_inside_the_per_cell_band() {
    for (label, err) in all_errors() {
        assert!(
            err.abs() <= CELL_BAND,
            "{label}: model off by {:+.2}% (band ±{:.0}%)",
            err * 100.0,
            CELL_BAND * 100.0
        );
    }
}

#[test]
fn mean_error_is_inside_the_acceptance_band() {
    let errors = all_errors();
    let mean = errors.iter().map(|(_, e)| e.abs()).sum::<f64>() / errors.len() as f64;
    assert!(
        mean <= MEAN_BAND,
        "mean |error| {:.2}% exceeds the {:.0}% acceptance band",
        mean * 100.0,
        MEAN_BAND * 100.0
    );
}

/// The torus goldens are window-limited, so the model must report them as
/// unstable within the pinned window while the mesh cells stay stable —
/// the estimator reproduces not just the numbers but the regime.
#[test]
fn model_reproduces_the_stability_regime_of_each_family() {
    let (mesh, mesh_apps, mesh_len) = mesh_family();
    let (torus, torus_apps, torus_len) = torus_family();
    for scheme in SCHEMES {
        let m = AnalyticModel::new(&with_scheme(&mesh, scheme), &mesh_apps)
            .unwrap()
            .with_lengths(mesh_len.warmup, mesh_len.measure)
            .evaluate();
        assert!(
            m.stability.is_stable(),
            "mesh/{scheme}: golden cell must be model-stable"
        );
        let t = AnalyticModel::new(&with_scheme(&torus, scheme), &torus_apps)
            .unwrap()
            .with_lengths(torus_len.warmup, torus_len.measure)
            .evaluate();
        assert!(
            !t.stability.is_stable(),
            "torus/{scheme}: golden cell is window-limited, model must agree"
        );
    }
}

/// The band's reason to exist: breaking one model coefficient must escape
/// it. Tripling `sat_fill` blows up every window-limited torus estimate,
/// dragging the mean error far out of the acceptance band.
#[test]
fn broken_coefficient_escapes_the_bands() {
    let (torus, torus_apps, torus_len) = torus_family();
    let mut bad = 0;
    let mut mean = 0.0;
    for (scheme, &golden) in SCHEMES.iter().zip(&TORUS_GOLDEN) {
        let model = AnalyticModel::new(&with_scheme(&torus, scheme), &torus_apps).unwrap();
        let mut coeffs = model.coefficients();
        coeffs.sat_fill *= 3.0;
        let est = model
            .with_coefficients(coeffs)
            .with_lengths(torus_len.warmup, torus_len.measure)
            .evaluate()
            .mean_latency;
        let err = ((est - golden) / golden).abs();
        mean += err / SCHEMES.len() as f64;
        if err > CELL_BAND {
            bad += 1;
        }
    }
    assert_eq!(
        bad,
        SCHEMES.len(),
        "a 3x sat_fill must push every torus cell out of the per-cell band"
    );
    assert!(
        mean > MEAN_BAND,
        "a 3x sat_fill must push the torus mean error ({:.1}%) out of the acceptance band",
        mean * 100.0
    );
}
