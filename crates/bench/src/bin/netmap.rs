//! Network congestion heat-map (beyond the paper): flits forwarded per
//! router for one workload, under X-Y and Y-X routing.
//!
//! The request traffic of an S-NUCA system converges on the corner memory
//! controllers; the heat-map makes the resulting hot rows/columns visible,
//! and shows how the routing algorithm moves them.
//!
//! Both routing runs execute as one pool grid.

use noclat::SystemConfig;
use noclat_bench::banner;
use noclat_engine::{self as sweep, Json, MixCell, Obj, SweepArgs};
use noclat_sim::config::RoutingAlgorithm;
use noclat_workloads::workload;

fn print_heat(label: &str, heat: &[u64], width: usize, height: usize) {
    let max = *heat.iter().max().unwrap_or(&1) as f64;
    println!("\n--- {label} (flits forwarded per router; # = load) ---");
    for y in 0..height {
        let mut row = String::new();
        for x in 0..width {
            let v = heat[y * width + x] as f64 / max.max(1.0);
            let glyph = match (v * 9.0) as u32 {
                0 => " .",
                1..=2 => " -",
                3..=4 => " +",
                5..=6 => " *",
                _ => " #",
            };
            row.push_str(glyph);
        }
        println!("  {row}");
    }
    println!(
        "  max router forwarded {} flits; total {}",
        max as u64,
        heat.iter().sum::<u64>()
    );
}

fn main() {
    let args = SweepArgs::parse(&format!("netmap {}", sweep::SWEEP_USAGE));
    banner(
        "Network heat-map (extension): router forwarding load, X-Y vs Y-X",
        "Workload-8 (memory-intensive); corners host the memory controllers.",
    );
    let apps = workload(8).apps();
    let algos = [
        ("X-Y routing", RoutingAlgorithm::XY),
        ("Y-X routing", RoutingAlgorithm::YX),
    ];

    let cells = algos
        .iter()
        .map(|&(label, algo)| {
            let mut cfg = SystemConfig::baseline_32();
            cfg.noc.routing = algo;
            cfg.seed = args.seed;
            MixCell::new(format!("netmap/{label}"), cfg, apps.clone())
        })
        .collect();
    let results = sweep::run_mix_grid(&args, cells, |r| r.system.forwarding_heat());

    let mut maps_json = Vec::new();
    for ((label, _), heat) in algos.iter().zip(&results) {
        print_heat(label, heat, 8, 4);
        maps_json.push(
            Obj::new()
                .field("routing", *label)
                .field("heat", heat.clone())
                .build(),
        );
    }

    let json = sweep::report(
        "netmap",
        &args,
        Obj::new()
            .field("workload", 8u64)
            .field("width", 8u64)
            .field("height", 4u64)
            .field("maps", Json::Arr(maps_json))
            .build(),
    );
    sweep::finish(&args, &json);
}
