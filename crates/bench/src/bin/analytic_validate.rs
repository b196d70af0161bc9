//! Bench: analytic-model validation — closed-form estimate vs cycle-sim
//! measurement on the pinned golden configurations.
//!
//! Runs the eight golden cells (`tests/golden_results.rs`: all four scheme
//! combos on the 32-core mesh baseline and on the 16×16 torus) through both
//! the cycle simulator and `noclat-analytic`, and reports the per-cell and
//! mean relative error of the estimator. This is the calibration
//! dashboard: `tests/analytic_validation.rs` pins the error band, this
//! binary shows where inside the band the model currently sits.
//!
//! The run lengths are pinned to the golden windows (they are part of what
//! the model estimates — the torus cells are deliberately window-limited),
//! so `--warmup`/`--measure`/`quick` are ignored, and `--policy`/
//! `--topology` are rejected: the model column describes the pinned cells,
//! so simulating anything else would compare two different systems. Writes
//! `BENCH_analytic.json` (override with `--json PATH`).

use noclat::{RunLengths, Scheme, SystemConfig, TopologyOverride};
use noclat_analytic::AnalyticModel;
use noclat_bench::{banner, w};
use noclat_engine::{self as sweep, CellMetrics, ExitCode, Json, MixCell, Obj, SweepArgs};
use noclat_workloads::SpecApp;

/// Workload driving every golden cell.
const WORKLOAD: usize = 2;

/// One golden family: a base config, its placement and its pinned window.
fn families() -> Vec<(&'static str, SystemConfig, Vec<SpecApp>, RunLengths)> {
    let mesh = SystemConfig::baseline_32();
    let mesh_apps = w(WORKLOAD).apps();
    let mesh_lengths = RunLengths {
        warmup: 300,
        measure: 12_000,
    };
    let mut torus = SystemConfig::baseline_256();
    TopologyOverride::parse("torus")
        .expect("static spec parses")
        .apply(&mut torus);
    let torus_apps = w(WORKLOAD).apps_for(torus.num_cores());
    let torus_lengths = RunLengths {
        warmup: 200,
        measure: 4_000,
    };
    vec![
        ("mesh-32", mesh, mesh_apps, mesh_lengths),
        ("torus-16x16", torus, torus_apps, torus_lengths),
    ]
}

fn main() {
    let usage = format!("analytic_validate {}", sweep::SWEEP_USAGE);
    let args = SweepArgs::parse(&usage);
    if !args.policy.is_empty() || !args.topology.is_empty() {
        eprintln!(
            "error: analytic_validate compares the model with its pinned golden cells; \
             --policy/--topology would simulate different ones"
        );
        eprintln!("usage: {usage}");
        ExitCode::Config.exit();
    }
    banner(
        "Analytic-model validation: estimator vs cycle simulator",
        "Eight golden cells (mesh-32 + torus-16x16, four scheme combos); \
         relative error of the closed-form mean-latency estimate.",
    );

    let mut cells = Vec::new();
    let mut estimates = Vec::new();
    let mut labels = Vec::new();
    for (family, base, apps, lengths) in families() {
        for scheme in Scheme::ALL {
            let cfg = base.clone().with_scheme(scheme);
            let scheme = scheme.name();
            let model = AnalyticModel::new(&cfg, &apps)
                .expect("golden configs validate")
                .with_lengths(lengths.warmup, lengths.measure);
            estimates.push(model.evaluate());
            labels.push((family, scheme));
            cells.push(MixCell {
                window: Some(lengths),
                ..MixCell::new(format!("analytic/{family}/{scheme}"), cfg, apps.clone())
            });
        }
    }
    let simulated = sweep::run_mix_grid(&args, cells, |r| CellMetrics::of(r).mean_latency);

    println!(
        "{:>12} {:>9} {:>10} {:>10} {:>8} {:>9}",
        "family", "scheme", "model", "sim", "err", "stable"
    );
    let mut rows = Vec::new();
    let mut err_sum = 0.0;
    let mut err_max = 0.0f64;
    for ((&(family, scheme), report), &sim) in labels.iter().zip(&estimates).zip(&simulated) {
        let err = (report.mean_latency - sim) / sim;
        err_sum += err.abs();
        err_max = err_max.max(err.abs());
        println!(
            "{family:>12} {scheme:>9} {:>10.1} {sim:>10.1} {:>7.2}% {:>9}",
            report.mean_latency,
            err * 100.0,
            if report.stability.is_stable() {
                "yes"
            } else {
                "no"
            }
        );
        rows.push(
            Obj::new()
                .field("family", family)
                .field("scheme", scheme)
                .field("model_latency", report.mean_latency)
                .field("sim_latency", sim)
                .field("rel_error", err)
                .field("zero_load_latency", report.zero_load_latency)
                .field("max_channel_utilization", report.max_channel_utilization)
                .field("mc_utilization", report.mc_utilization)
                .field("stable", report.stability.is_stable())
                .build(),
        );
    }
    let mean_err = err_sum / simulated.len() as f64;
    println!(
        "{:>12} {:>9} {:>10} {:>10} {:>7.2}%",
        "mean |err|",
        "",
        "",
        "",
        mean_err * 100.0
    );

    let body = Obj::new()
        .field("workload", format!("workload-{WORKLOAD}"))
        .field("cells", Json::Arr(rows))
        .field("mean_rel_error", mean_err)
        .field("max_rel_error", err_max)
        .build();
    let report = sweep::report("analytic_validate", &args, body);
    let path = args
        .json
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_analytic.json"));
    if let Err(e) = sweep::write_json_file(&path, &report) {
        eprintln!("error: failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote JSON report to {}", path.display());
}
