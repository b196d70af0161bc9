//! Load–latency characterization of the NoC in isolation (extension): the
//! classic curves behind the paper's premise that "network latency can play
//! a significant role in overall memory access latency".
//!
//! Sweeps offered load for uniform-random and corner-hotspot traffic (the
//! S-NUCA + corner-controller shape) on the Table-1 network. Every
//! (pattern, load) point is one pool job — the curves are embarrassingly
//! parallel.

use noclat_bench::banner;
use noclat_engine::{self as sweep, Job, Json, Obj, SweepArgs};
use noclat_noc::{characterize, LoadPoint, Network, Topology, TrafficPattern};
use noclat_sim::config::SystemConfig;

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

fn main() {
    let args = SweepArgs::parse(&format!("loadlatency {}", sweep::SWEEP_USAGE));
    banner(
        "NoC load-latency curves (extension)",
        "Table-1 network, 5-flit packets; latency in cycles vs offered load.",
    );
    // Only the arbitration slot of --policy can matter here (the request/
    // response policies live above the raw network), so apply the override
    // before extracting the NoC configuration.
    let mut sys_cfg = SystemConfig::baseline_32();
    args.apply_policy(&mut sys_cfg);
    let cfg = sys_cfg.noc;
    // The synthetic-traffic driver has its own notion of run length.
    let quick = args.lengths.measure <= noclat::RunLengths::quick().measure;
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
    let points = sweep::run_grid(&args, jobs);

    let mut curves_json = Vec::new();
    for (k, (name, _)) in PATTERNS.iter().enumerate() {
        println!("\n--- {name} ---");
        println!(
            "{:>8} {:>10} {:>10} {:>9}",
            "load", "delivered", "avg lat", "backlog"
        );
        let mut points_json = Vec::new();
        for p in &points[k * LOADS.len()..(k + 1) * LOADS.len()] {
            let LoadPoint {
                offered_load,
                delivered,
                avg_latency,
                backlog,
            } = *p;
            println!("{offered_load:>8.2} {delivered:>10} {avg_latency:>10.1} {backlog:>9}");
            points_json.push(
                Obj::new()
                    .field("offered_load", offered_load)
                    .field("delivered", delivered)
                    .field("avg_latency", avg_latency)
                    .field("backlog", backlog)
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

    let json = sweep::report(
        "loadlatency",
        &args,
        Obj::new()
            .field("cycles", cycles)
            .field("curves", Json::Arr(curves_json))
            .build(),
    );
    sweep::finish(&args, &json);
}
