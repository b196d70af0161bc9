//! Beyond the paper: the NoC characterized in isolation (`loadlatency`),
//! where the traffic and the slow accesses are (`netmap`, `slowest`), the
//! schemes on other fabrics at hundreds-cores scale (`topo_sweep`) and the
//! analytic model against the simulator (`analytic_validate`).

use noclat::{McPlacement, RunLengths, Scheme, SystemConfig, TopologyKind, TopologyOverride};
use noclat_analytic::AnalyticModel;
use noclat_engine::{
    self as sweep, fail_usage, CellMetrics, CellSpec, Job, Json, MixCell, Obj, RestFlags, SweepArgs,
};
use noclat_noc::{characterize, Network, Topology, TrafficPattern};
use noclat_sim::config::RoutingAlgorithm;

use crate::{usage_of, w, LEGS};

/// Load–latency curves of the Table-1 network alone — the classic curves
/// behind the paper's premise that network latency matters to memory
/// latency — for uniform-random and corner-hotspot traffic (the S-NUCA +
/// corner-controller shape). Every (pattern, load) point is one pool job.
pub fn loadlatency(args: &SweepArgs, _: &[String]) -> Json {
    const PATTERNS: [(&str, TrafficPattern); 4] = [
        ("uniform-random", TrafficPattern::UniformRandom),
        (
            "corner-hotspot-30%",
            TrafficPattern::CornerHotspot { percent: 30 },
        ),
        ("transpose", TrafficPattern::Transpose),
        ("bit-complement", TrafficPattern::BitComplement),
    ];
    const LOADS: [f64; 7] = [0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40];
    // There are no cells to hand to a runner here, so the sweep's overrides
    // are applied by hand; only the arbitration slot of --policy can matter
    // (the request/response policies live above the raw network).
    let mut sys_cfg = SystemConfig::baseline_32();
    args.apply_policy(&mut sys_cfg);
    let cfg = sys_cfg.noc;
    // The synthetic-traffic driver has its own notion of run length.
    let quick = args.lengths.measure <= RunLengths::quick().measure;
    let cycles = if quick { 2_000 } else { 8_000 };
    let seed = args.seed;

    let mut jobs = Vec::new();
    for (name, pattern) in PATTERNS {
        for load in LOADS {
            jobs.push(Job::new(format!("loadlat/{name}/{load}"), move || {
                let mut net: Network<()> = Network::new(Topology::new(8, 4), cfg);
                characterize(&mut net, pattern, load, 5, cycles, seed)
            }));
        }
    }
    let points = sweep::run_grid(args, jobs);

    let mut curves_json = Vec::new();
    for ((name, _), curve) in PATTERNS.iter().zip(points.chunks(LOADS.len())) {
        println!("\n--- {name} ---");
        println!(
            "{:>8} {:>10} {:>10} {:>9}",
            "load", "delivered", "avg lat", "backlog"
        );
        let mut points_json = Vec::new();
        for p in curve {
            println!(
                "{:>8.2} {:>10} {:>10.1} {:>9}",
                p.offered_load, p.delivered, p.avg_latency, p.backlog
            );
            points_json.push(
                Obj::new()
                    .field("offered_load", p.offered_load)
                    .field("delivered", p.delivered)
                    .field("avg_latency", p.avg_latency)
                    .field("backlog", p.backlog)
                    .build(),
            );
        }
        curves_json.push(
            Obj::new()
                .field("pattern", *name)
                .field("points", Json::Arr(points_json))
                .build(),
        );
    }
    println!("\nHotspot traffic saturates far earlier than uniform random: the");
    println!("corner links are the bottleneck the paper's request traffic lives on.");
    Obj::new()
        .field("cycles", cycles)
        .field("curves", Json::Arr(curves_json))
        .build()
}

/// Flits forwarded per router for workload-8 under X-Y and Y-X routing:
/// the request traffic of an S-NUCA system converges on the corner
/// controllers, and the routing algorithm moves the hot rows/columns.
pub fn netmap(args: &SweepArgs, _: &[String]) -> Json {
    const ALGOS: [(&str, RoutingAlgorithm); 2] = [
        ("X-Y routing", RoutingAlgorithm::XY),
        ("Y-X routing", RoutingAlgorithm::YX),
    ];
    let (width, height) = (8, 4);
    let cells = ALGOS.map(|(label, algo)| {
        let mut cfg = SystemConfig::baseline_32();
        cfg.noc.routing = algo;
        cfg.seed = args.seed;
        MixCell::new(format!("netmap/{label}"), cfg, w(8).apps())
    });
    let results = sweep::run_mix_grid(args, cells.into(), |r| r.system.forwarding_heat());

    let mut maps_json = Vec::new();
    for ((label, _), heat) in ALGOS.iter().zip(results) {
        let max = *heat.iter().max().unwrap_or(&1) as f64;
        println!("\n--- {label} (flits forwarded per router; # = load) ---");
        for y in 0..height {
            let mut row = String::new();
            for x in 0..width {
                let v = heat[y * width + x] as f64 / max.max(1.0);
                row.push_str(match (v * 9.0) as u32 {
                    0 => " .",
                    1..=2 => " -",
                    3..=4 => " +",
                    5..=6 => " *",
                    _ => " #",
                });
            }
            println!("  {row}");
        }
        let (max, total) = (max as u64, heat.iter().sum::<u64>());
        println!("  max router forwarded {max} flits; total {total}");
        let map = Obj::new().field("routing", *label).field("heat", heat);
        maps_json.push(map.build());
    }
    Obj::new()
        .field("workload", 8u64)
        .field("width", width)
        .field("height", height)
        .field("maps", Json::Arr(maps_json))
        .build()
}

/// The paper's Figure-3 narrative made concrete: the slowest off-chip
/// accesses of workload-8 with their five-path breakdowns, under the
/// baseline and under Scheme-1.
pub fn slowest(args: &SweepArgs, _: &[String]) -> Json {
    const TOP_K: usize = 15;
    /// Core, app name, total, five path segments.
    type Row = (usize, String, u64, [u64; 5]);
    // Journal label, title, report key, scheme.
    let variants = [
        ("base", "baseline", "baseline", Scheme::Baseline),
        ("s1", "Scheme-1", "scheme1", Scheme::S1),
    ];
    let cells = variants.map(|(label, _, _, scheme)| {
        let mut cfg = SystemConfig::baseline_32().with_scheme(scheme);
        cfg.seed = args.seed;
        MixCell::new(format!("slowest/{label}"), cfg, w(8).apps())
    });
    let results = sweep::run_mix_grid(args, cells.into(), |r| {
        let slowest = r.system.slowest_transactions();
        let rows = slowest.iter().take(TOP_K).map(|rec| {
            let app = r.per_app[rec.core].app.name().to_string();
            (rec.core, app, rec.total(), rec.times.segments())
        });
        rows.collect::<Vec<Row>>()
    });

    let mut body = Obj::new().field("workload", 8u64);
    for ((_, title, key, _), rows) in variants.iter().zip(&results) {
        println!("\n--- {title}: {TOP_K} slowest off-chip accesses ---");
        print!("{:>5} {:>12} {:>7}", "core", "app", "total");
        LEGS.iter().for_each(|(head, _)| print!(" {head:>8}"));
        println!();
        let mut rows_json = Vec::new();
        for (core, app, total, legs) in rows {
            print!("{core:>5} {app:>12} {total:>7}");
            legs.iter().for_each(|v| print!(" {v:>8}"));
            println!();
            rows_json.push(
                Obj::new()
                    .field("core", *core)
                    .field("app", app.clone())
                    .field("total", *total)
                    .field("segments", legs.to_vec())
                    .build(),
            );
        }
        body = body.field(*key, Json::Arr(rows_json));
    }
    let [base, s1] = [0, 1].map(|k| results[k].first().map_or(0, |row| row.2));
    println!("\nworst-case access: {base} -> {s1} cycles");
    body.build()
}

/// Scheme gains across fabrics at hundreds-cores scale: the paper's
/// Scheme-1/Scheme-2 study unchanged on mesh, torus, concentrated-mesh and
/// express fabrics at 16×16 (and 32×32), with memory-controller placement
/// as a swept sub-axis, through the journal-backed engine. `--topology` is
/// rejected: the fabric *is* the axis; `--fabrics`/`--mc`/`--size` restrict
/// the grid instead.
pub fn topo_sweep(args: &SweepArgs, rest: &[String]) -> Json {
    /// Workload driving every cell (the paper's milc-bearing mixed one).
    const WORKLOAD: usize = 2;
    let usage = usage_of("topo_sweep");
    if !args.topology.is_empty() {
        fail_usage(
            "topo_sweep sweeps the topology axis itself; restrict it with --fabrics/--mc/--size",
            &usage,
        );
    }
    let mut flags = RestFlags::new(rest, &usage);
    let sizes = flags.take("--size", |s| match s {
        "16" => Ok(vec![16u16]),
        "32" => Ok(vec![32]),
        "both" => Ok(vec![16, 32]),
        other => Err(format!("expected 16|32|both, got {other}")),
    });
    let list = |s: &str| s.split(',').map(CellSpec::parse_fabric).collect();
    let fabrics: Vec<TopologyOverride> = flags.take("--fabrics", list).unwrap_or_else(|| {
        list("mesh,torus,cmesh:c=4,express:skip=2").expect("the default fabrics parse")
    });
    let mcs = flags.take("--mc", |s| s.split(',').map(McPlacement::parse).collect());
    let mcs: Vec<McPlacement> = mcs.unwrap_or_else(|| McPlacement::ALL.to_vec());
    flags.finish();

    // Each cell is the one a sweepd client would submit (validated up
    // front, so a bad --fabrics spec is a usage error, not a quarantined
    // cell) under this harness's label. The pinned 16×16 torus corner cells
    // (the `tests/golden_results.rs` anchors) are golden and survive any
    // `--prune`.
    let mut cells = Vec::new();
    let mut labels: Vec<(String, String, &str, &str)> = Vec::new();
    for &size in sizes.as_deref().unwrap_or(&[16]) {
        for &fabric in &fabrics {
            for &mc in &mcs {
                for scheme in Scheme::ALL {
                    let spec = CellSpec {
                        size,
                        fabric,
                        mc,
                        scheme,
                        workload: WORKLOAD,
                        seed: args.seed,
                        warmup: args.lengths.warmup,
                        measure: args.lengths.measure,
                        kernel: args.kernel,
                    };
                    let mut cell = spec
                        .build()
                        .unwrap_or_else(|e| fail_usage(&format!("--fabrics: {e}"), &usage));
                    let (mc, scheme) = (mc.name(), scheme.name());
                    cell.label = format!("topo/{size}x{size}/{fabric}/mc={mc}/{scheme}");
                    let topology = cell.cfg.topology;
                    labels.push((format!("{size}x{size}"), topology.label(), mc, scheme));
                    let golden = size == 16
                        && topology.kind == TopologyKind::Torus
                        && topology.concentration <= 1
                        && topology.mc_placement == McPlacement::Corner;
                    cells.push((cell, golden));
                }
            }
        }
    }
    let outcome = sweep::run_pruned_grid(args, cells, CellMetrics::of);

    println!(
        "{:>7} {:>22} {:>7} {:>9} {:>9} {:>9} {:>10} {:>6}",
        "size", "fabric", "mc", "scheme", "offchip", "ipc_sum", "mean_lat", "p95"
    );
    let mut rows = Vec::new();
    let mut pruned_rows = Vec::new();
    for (i, ((size, fabric, mc, scheme), cell)) in labels.iter().zip(&outcome.results).enumerate() {
        let row = Obj::new()
            .field("size", size.as_str())
            .field("fabric", fabric.as_str())
            .field("mc", *mc)
            .field("scheme", *scheme);
        let Some(cell) = cell else {
            // Pruned: recorded in the report's prune section, not as a row
            // (surviving rows stay byte-identical to an unpruned run's).
            let predicted = outcome.predicted[i].unwrap_or(f64::NAN);
            pruned_rows.push(row.field("predicted_latency", predicted).build());
            continue;
        };
        println!(
            "{size:>7} {fabric:>22} {mc:>7} {scheme:>9} {:>9} {:>9.3} {:>10.1} {:>6}",
            cell.offchip, cell.ipc_sum, cell.mean_latency, cell.p95_latency
        );
        rows.push(
            row.field("offchip", cell.offchip)
                .field("ipc_sum", cell.ipc_sum)
                .field("mean_latency", cell.mean_latency)
                .field("p95_latency", cell.p95_latency)
                .build(),
        );
    }

    let mut body = Obj::new()
        .field("workload", format!("workload-{WORKLOAD}"))
        .field("cells", Json::Arr(rows));
    if args.prune.enabled() {
        body = body.field(
            "prune",
            Obj::new()
                .field("spec", args.prune.to_string())
                .field("kept", outcome.kept as u64)
                .field("pruned", Json::Arr(pruned_rows))
                .build(),
        );
    }
    body.build()
}

/// The calibration dashboard of `noclat-analytic`: the eight golden cells
/// of `tests/golden_results.rs` (four scheme combos on the 32-core mesh and
/// on the 16×16 torus) through both the cycle simulator and the closed-form
/// estimator, with per-cell and mean relative error
/// (`tests/analytic_validation.rs` pins the band). The windows are pinned
/// to the goldens' — they are part of what the model estimates — so
/// `--warmup`/`--measure`/`quick` are ignored, and `--policy`/`--topology`
/// are rejected: simulating other cells under the same row labels would
/// compare two different systems.
pub fn analytic_validate(args: &SweepArgs, _: &[String]) -> Json {
    /// Workload driving every golden cell.
    const WORKLOAD: usize = 2;
    if !args.policy.is_empty() || !args.topology.is_empty() {
        fail_usage(
            "analytic_validate compares the model with its pinned golden cells; \
             --policy/--topology would simulate different ones",
            &usage_of("analytic_validate"),
        );
    }
    // One golden family: a base config and its pinned window.
    let mut torus = SystemConfig::baseline_256();
    let spec = TopologyOverride::parse("torus").expect("static spec parses");
    spec.apply(&mut torus);
    let families = [
        ("mesh-32", SystemConfig::baseline_32(), (300, 12_000)),
        ("torus-16x16", torus, (200, 4_000)),
    ];

    let mut cells = Vec::new();
    let mut estimates = Vec::new();
    for (family, base, (warmup, measure)) in &families {
        let apps = w(WORKLOAD).apps_for(base.num_cores());
        for scheme in Scheme::ALL {
            let cfg = base.clone().with_scheme(scheme);
            let scheme = scheme.name();
            let model = AnalyticModel::new(&cfg, &apps)
                .expect("golden configs validate")
                .with_lengths(*warmup, *measure);
            estimates.push((*family, scheme, model.evaluate()));
            let (warmup, measure) = (*warmup, *measure);
            cells.push(MixCell {
                window: Some(RunLengths { warmup, measure }),
                ..MixCell::new(format!("analytic/{family}/{scheme}"), cfg, apps.clone())
            });
        }
    }
    let simulated = sweep::run_mix_grid(args, cells, |r| CellMetrics::of(r).mean_latency);

    println!(
        "{:>12} {:>9} {:>10} {:>10} {:>8} {:>9}",
        "family", "scheme", "model", "sim", "err", "stable"
    );
    let mut rows = Vec::new();
    let mut err_sum = 0.0;
    let mut err_max = 0.0f64;
    for ((family, scheme, report), &sim) in estimates.iter().zip(&simulated) {
        let err = (report.mean_latency - sim) / sim;
        err_sum += err.abs();
        err_max = err_max.max(err.abs());
        let stable = report.stability.is_stable();
        println!(
            "{family:>12} {scheme:>9} {:>10.1} {sim:>10.1} {:>7.2}% {:>9}",
            report.mean_latency,
            err * 100.0,
            if stable { "yes" } else { "no" }
        );
        rows.push(
            Obj::new()
                .field("family", *family)
                .field("scheme", *scheme)
                .field("model_latency", report.mean_latency)
                .field("sim_latency", sim)
                .field("rel_error", err)
                .field("zero_load_latency", report.zero_load_latency)
                .field("max_channel_utilization", report.max_channel_utilization)
                .field("mc_utilization", report.mc_utilization)
                .field("stable", stable)
                .build(),
        );
    }
    let mean_err = err_sum / simulated.len() as f64;
    println!("{:>12}{:>40.2}%", "mean |err|", mean_err * 100.0);
    Obj::new()
        .field("workload", format!("workload-{WORKLOAD}"))
        .field("cells", Json::Arr(rows))
        .field("mean_rel_error", mean_err)
        .field("max_rel_error", err_max)
        .build()
}
