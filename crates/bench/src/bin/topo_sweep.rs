//! Topology sweep — scheme gains across fabrics at hundreds-cores scale.
//!
//! Grids (topology × MC placement × scheme combo × size) through the
//! journal-backed sweep engine. The paper only evaluates small meshes; this
//! harness re-runs the Scheme-1/Scheme-2 study unchanged on torus,
//! concentrated-mesh and express fabrics at 16×16 (256 cores) and 32×32
//! (1024 cores), with memory-controller placement as a swept sub-axis.
//!
//! Unlike the figure harnesses, `--topology` is rejected here: the fabric
//! *is* the sweep axis. Use `--fabrics`/`--mc`/`--size` to restrict the
//! grid instead (CI smokes a single torus cell that way). Output is
//! byte-identical across `--jobs N` by the sweep engine's construction.

use noclat::{McPlacement, Scheme, TopologyKind};
use noclat_bench::banner;
use noclat_engine::{self as sweep, CellMetrics, CellSpec, ExitCode, Json, Obj, SweepArgs};

/// Workload driving every cell (the paper's milc-bearing mixed workload).
const WORKLOAD: usize = 2;

/// Default fabric axis, as `--topology`-style override specs.
const FABRICS: [&str; 4] = ["mesh", "torus", "cmesh:c=4", "express:skip=2"];

fn usage() -> String {
    format!(
        "topo_sweep [--size 16|32|both] [--fabrics CSV] [--mc CSV] {}",
        sweep::SWEEP_USAGE
    )
}

fn fail_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {}", usage());
    ExitCode::Config.exit();
}

struct Grid {
    sizes: Vec<u16>,
    fabrics: Vec<String>,
    mcs: Vec<McPlacement>,
}

fn parse_rest(rest: &[String]) -> Grid {
    let mut grid = Grid {
        sizes: vec![16],
        fabrics: FABRICS.iter().map(ToString::to_string).collect(),
        mcs: vec![McPlacement::Corner, McPlacement::Edge, McPlacement::Center],
    };
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i].as_str();
        let value = rest
            .get(i + 1)
            .unwrap_or_else(|| fail_usage(&format!("{key} needs a value")));
        match key {
            "--size" => {
                grid.sizes = match value.as_str() {
                    "16" => vec![16],
                    "32" => vec![32],
                    "both" => vec![16, 32],
                    other => fail_usage(&format!("--size: expected 16|32|both, got {other}")),
                };
            }
            "--fabrics" => {
                grid.fabrics = value.split(',').map(ToString::to_string).collect();
            }
            "--mc" => {
                grid.mcs = value
                    .split(',')
                    .map(|m| McPlacement::parse(m).unwrap_or_else(|e| fail_usage(&e)))
                    .collect();
            }
            other => fail_usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    grid
}

fn main() {
    let (args, rest) = SweepArgs::parse_with_rest(&usage());
    if !args.topology.is_empty() {
        fail_usage(
            "topo_sweep sweeps the topology axis itself; restrict it with --fabrics/--mc/--size",
        );
    }
    let grid = parse_rest(&rest);
    banner(
        "Topology sweep: scheme gains across fabrics at 16x16 / 32x32",
        "Grid: topology x MC placement x scheme combo x size; workload-2 cycled per core.",
    );

    // Build the grid: each cell is the one a sweepd client would submit
    // (validated up front, so a bad --fabrics spec is a usage error, not a
    // quarantined cell) under this harness's label. The pinned 16×16 torus
    // corner cells (the `tests/golden_results.rs` anchors) are golden and
    // survive any `--prune`.
    let mut cells = Vec::new();
    let mut labels: Vec<(String, String, &str, &str)> = Vec::new();
    for &size in &grid.sizes {
        for fabric in &grid.fabrics {
            for &mc in &grid.mcs {
                for scheme in Scheme::ALL {
                    let spec = CellSpec {
                        size,
                        fabric: fabric.clone(),
                        mc,
                        scheme,
                        workload: WORKLOAD,
                        seed: args.seed,
                        warmup: args.lengths.warmup,
                        measure: args.lengths.measure,
                        kernel: args.kernel,
                    };
                    let mut cell = spec.build().unwrap_or_else(|e| fail_usage(&e));
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
    let outcome = sweep::run_pruned_grid(&args, cells, CellMetrics::of);

    println!(
        "{:>7} {:>22} {:>7} {:>9} {:>9} {:>9} {:>10} {:>6}",
        "size", "fabric", "mc", "scheme", "offchip", "ipc_sum", "mean_lat", "p95"
    );
    let mut rows = Vec::new();
    let mut pruned_rows = Vec::new();
    for (i, ((size, fabric, mc, scheme), cell)) in labels.iter().zip(&outcome.results).enumerate() {
        let Some(cell) = cell else {
            // Pruned: recorded in the report's prune section, not as a row
            // (surviving rows stay byte-identical to an unpruned run's).
            pruned_rows.push(
                Obj::new()
                    .field("size", size.as_str())
                    .field("fabric", fabric.as_str())
                    .field("mc", *mc)
                    .field("scheme", *scheme)
                    .field(
                        "predicted_latency",
                        outcome.predicted[i].unwrap_or(f64::NAN),
                    )
                    .build(),
            );
            continue;
        };
        println!(
            "{size:>7} {fabric:>22} {mc:>7} {scheme:>9} {:>9} {:>9.3} {:>10.1} {:>6}",
            cell.offchip, cell.ipc_sum, cell.mean_latency, cell.p95_latency
        );
        rows.push(
            Obj::new()
                .field("size", size.as_str())
                .field("fabric", fabric.as_str())
                .field("mc", *mc)
                .field("scheme", *scheme)
                .field("offchip", cell.offchip)
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
    let json = sweep::report("topo_sweep", &args, body.build());
    sweep::finish(&args, &json);
}
