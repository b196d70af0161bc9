//! Property-based tests of the network: under arbitrary admissible traffic,
//! no packet is lost, duplicated, or delivered faster than physics allows,
//! and the age field never decreases along a path.

use noclat_noc::{flits_for_payload, Dir, Network, NodeId, Priority, Topology, VNet};
use noclat_sim::check::{self, pick, range_u64};
use noclat_sim::config::{RouterPipeline, RoutingAlgorithm, SystemConfig, TopologyConfig};
use noclat_sim::rng::SimRng;

/// One injected packet description.
#[derive(Debug, Clone)]
struct Inj {
    src: u16,
    dest: u16,
    response: bool,
    high: bool,
    at: u64,
    initial_age: u32,
}

fn random_injections(rng: &mut SimRng, nodes: u16, horizon: u64) -> Vec<Inj> {
    let n = range_u64(rng, 1, 150) as usize;
    (0..n)
        .map(|_| Inj {
            src: rng.below(u64::from(nodes)) as u16,
            dest: rng.below(u64::from(nodes)) as u16,
            response: rng.chance(0.5),
            high: rng.chance(0.5),
            at: rng.below(horizon),
            initial_age: rng.below(500) as u32,
        })
        .collect()
}

fn run_traffic(
    injections: Vec<Inj>,
    pipeline: RouterPipeline,
    bypass: bool,
) -> Vec<(Inj, u64, u32)> {
    let mut cfg = SystemConfig::baseline_32().noc;
    cfg.pipeline = pipeline;
    cfg.bypass_enabled = bypass;
    let mesh = Topology::new(8, 4);
    let mut net: Network<usize> = Network::new(mesh, cfg);
    let mut sorted = injections;
    sorted.sort_by_key(|i| i.at);
    let mut delivered: Vec<Option<(u64, u32)>> = vec![None; sorted.len()];
    let mut next = 0usize;
    let mut ids = std::collections::HashMap::new();
    let mut t = 0u64;
    while delivered.iter().any(Option::is_none) {
        assert!(t < 400_000, "traffic did not drain (deadlock?)");
        while next < sorted.len() && sorted[next].at <= t {
            let i = &sorted[next];
            let flits = if i.response {
                flits_for_payload(64, cfg.flit_bits)
            } else {
                1
            };
            let id = net
                .inject(
                    NodeId(i.src),
                    NodeId(i.dest),
                    if i.response {
                        VNet::Response
                    } else {
                        VNet::Request
                    },
                    if i.high {
                        Priority::High
                    } else {
                        Priority::Normal
                    },
                    flits,
                    i.initial_age,
                    next,
                    t,
                )
                .expect("admissible injection");
            ids.insert(id, next);
            next += 1;
        }
        net.tick(t);
        for node in 0..32 {
            for d in net.take_delivered(NodeId(node as u16)) {
                let idx = ids[&d.meta.id];
                assert!(delivered[idx].is_none(), "duplicate delivery");
                delivered[idx] = Some((d.delivered_at, d.final_age));
            }
        }
        t += 1;
    }
    sorted
        .into_iter()
        .zip(delivered)
        .map(|(i, d)| {
            let (at, age) = d.expect("all delivered");
            (i, at, age)
        })
        .collect()
}

#[test]
fn conservation_and_physics() {
    check::cases(16, |rng| {
        let injections = random_injections(rng, 32, 3_000);
        let pipeline = pick(rng, &[RouterPipeline::FiveStage, RouterPipeline::TwoStage]);
        let bypass = rng.chance(0.5);
        let mesh = Topology::new(8, 4);
        let results = run_traffic(injections, pipeline, bypass);
        for (inj, delivered_at, final_age) in results {
            // Physics: a packet cannot beat per-hop pipeline delay.
            let hops = mesh.hop_distance(NodeId(inj.src), NodeId(inj.dest)) as u64;
            let min_residency = match (pipeline, bypass && inj.high) {
                (RouterPipeline::TwoStage, _) | (_, true) => 1,
                (RouterPipeline::FiveStage, false) => 4,
            };
            // hops+1 routers traversed (incl. ejection), link per hop.
            let floor = (hops + 1) * (min_residency + 1);
            let latency = delivered_at - inj.at;
            assert!(
                latency + 1 >= floor,
                "{}->{} delivered in {latency} < floor {floor}",
                inj.src,
                inj.dest
            );
            // The age field never loses the delay accumulated before
            // injection (it saturates at 4095).
            assert!(
                final_age >= inj.initial_age.min(4095),
                "age shrank: {} -> {final_age}",
                inj.initial_age
            );
        }
    });
}

#[test]
fn conservation_under_random_drop_faults() {
    use noclat_sim::faults::FaultPlan;
    // Every injected packet either arrives or is reported dropped — never
    // both, never neither — and the network always drains.
    check::cases(12, |rng| {
        let injections = random_injections(rng, 32, 2_000);
        let plan = FaultPlan::uniform_drop(rng.next_u64(), 0.01);
        let cfg = SystemConfig::baseline_32().noc;
        let mut net: Network<usize> = Network::with_faults(Topology::new(8, 4), cfg, &plan);
        let mut sorted = injections;
        sorted.sort_by_key(|i| i.at);
        let mut outcome: Vec<Option<&'static str>> = vec![None; sorted.len()];
        let mut ids = std::collections::HashMap::new();
        let mut next = 0usize;
        for t in 0..40_000u64 {
            while next < sorted.len() && sorted[next].at <= t {
                let i = &sorted[next];
                let id = net
                    .inject(
                        NodeId(i.src),
                        NodeId(i.dest),
                        if i.response {
                            VNet::Response
                        } else {
                            VNet::Request
                        },
                        if i.high {
                            Priority::High
                        } else {
                            Priority::Normal
                        },
                        if i.response { 5 } else { 1 },
                        i.initial_age,
                        next,
                        t,
                    )
                    .expect("admissible injection");
                ids.insert(id, next);
                next += 1;
            }
            net.tick(t);
            for node in 0..32 {
                for d in net.take_delivered(NodeId(node as u16)) {
                    let idx = ids[&d.meta.id];
                    assert_eq!(outcome[idx], None, "double outcome");
                    outcome[idx] = Some("delivered");
                }
            }
            for (meta, payload) in net.take_dropped() {
                let idx = ids[&meta.id];
                assert_eq!(idx, payload, "payload follows its packet");
                assert_eq!(outcome[idx], None, "double outcome");
                outcome[idx] = Some("dropped");
            }
            if next == sorted.len() && net.packets_in_flight() == 0 {
                break;
            }
        }
        assert_eq!(net.packets_in_flight(), 0, "network failed to drain");
        assert!(
            outcome.iter().all(Option::is_some),
            "every packet needs exactly one outcome"
        );
        let dropped = outcome.iter().filter(|o| **o == Some("dropped")).count() as u64;
        assert_eq!(net.stats().packets_dropped.get(), dropped);
    });
}

// ---------------------------------------------------------------------------
// Topology-parametric properties: every fabric the config layer can build is
// checked for route termination (with an exact per-topology hop bound),
// link sanity (no self-loops, neighbor symmetry), and — on the torus — the
// acyclicity of the dateline VC discipline's channel-dependency graph.
// ---------------------------------------------------------------------------

/// A representative instance of every fabric, including odd torus rings and
/// both even and non-dividing-adjacent express skips.
fn all_fabrics() -> Vec<Topology> {
    vec![
        Topology::new(8, 4),
        Topology::new(16, 16),
        Topology::from_config(&TopologyConfig::torus(8, 4)),
        Topology::from_config(&TopologyConfig::torus(5, 5)),
        Topology::from_config(&TopologyConfig::torus(16, 16)),
        Topology::from_config(&TopologyConfig::cmesh(8, 4, 2)),
        Topology::from_config(&TopologyConfig::cmesh(8, 8, 4)),
        Topology::from_config(&TopologyConfig::cmesh(16, 16, 4)),
        Topology::from_config(&TopologyConfig::express(8, 8, 2)),
        Topology::from_config(&TopologyConfig::express(16, 16, 2)),
        Topology::from_config(&TopologyConfig::express(16, 16, 5)),
    ]
}

/// Walks the deterministic route from `src` to `dest`, returning the hop
/// sequence `(router, out_dir)` taken (excluding the final `Local` step).
/// Panics if the walk exceeds an obviously-broken step budget.
fn walk_route(
    topo: &Topology,
    algo: RoutingAlgorithm,
    src: NodeId,
    dest: NodeId,
) -> Vec<(NodeId, Dir)> {
    let budget = 2 * (topo.width() + topo.height()) as usize + 4;
    let mut here = topo.router_of(src);
    let mut hops = Vec::new();
    loop {
        let d = topo.route(algo, here, dest);
        if d == Dir::Local {
            return hops;
        }
        assert!(
            hops.len() < budget,
            "{}: route {src}->{dest} did not terminate within {budget} hops",
            topo.config().label(),
        );
        hops.push((here, d));
        here = topo
            .neighbor(here, d)
            .unwrap_or_else(|| panic!("route stepped off the fabric: {here} {d:?}"));
    }
}

#[test]
fn routes_terminate_with_exact_hop_distance() {
    for topo in all_fabrics() {
        let label = topo.config().label();
        for algo in [RoutingAlgorithm::XY, RoutingAlgorithm::YX] {
            for src in topo.nodes() {
                for dest in topo.nodes() {
                    let hops = walk_route(&topo, algo, src, dest);
                    let last = hops
                        .last()
                        .map_or(topo.router_of(src), |&(r, d)| topo.neighbor(r, d).unwrap());
                    assert_eq!(
                        last,
                        topo.router_of(dest),
                        "{label}: {algo:?} route {src}->{dest} ended at wrong router"
                    );
                    assert_eq!(
                        hops.len() as u32,
                        topo.hop_distance(src, dest),
                        "{label}: {algo:?} route {src}->{dest} hop count != hop_distance"
                    );
                }
            }
        }
    }
}

#[test]
fn no_link_is_a_self_loop() {
    for topo in all_fabrics() {
        for r in topo.routers() {
            for &d in topo.ports() {
                if d == Dir::Local {
                    continue;
                }
                assert_ne!(
                    topo.neighbor(r, d),
                    Some(r),
                    "{}: router {r} port {d:?} loops back to itself",
                    topo.config().label()
                );
            }
        }
    }
}

#[test]
fn neighbor_links_are_symmetric() {
    for topo in all_fabrics() {
        for r in topo.routers() {
            for &d in topo.ports() {
                if d == Dir::Local {
                    continue;
                }
                if let Some(s) = topo.neighbor(r, d) {
                    assert_eq!(
                        topo.neighbor(s, d.opposite()),
                        Some(r),
                        "{}: link {r} -{d:?}-> {s} has no reverse",
                        topo.config().label()
                    );
                }
            }
        }
    }
}

/// The deadlock-freedom argument for torus wraparound: collect the channel
/// dependencies (VC class at one router feeding a VC class at the next) of
/// *every* deterministic route, then check the dependency graph is acyclic.
/// Without datelines, any ring of size ≥ 3 makes this fail.
#[test]
fn torus_dateline_discipline_never_forms_a_cycle() {
    use std::collections::{HashMap, HashSet};
    for topo in [
        Topology::from_config(&TopologyConfig::torus(4, 4)),
        Topology::from_config(&TopologyConfig::torus(5, 3)),
        Topology::from_config(&TopologyConfig::torus(8, 8)),
    ] {
        let label = topo.config().label();
        // Channel = (router, mesh dir, dateline subclass), densely numbered.
        let chan = |r: NodeId, d: Dir, s: u8| -> u32 {
            ((r.index() * 4 + d.index()) * 2 + s as usize) as u32
        };
        // One graph per routing algorithm: a network runs exactly one, so
        // only dependencies of the same algorithm can ever coexist.
        for algo in [RoutingAlgorithm::XY, RoutingAlgorithm::YX] {
            let mut edges: HashSet<(u32, u32)> = HashSet::new();
            let mut nodes: HashSet<u32> = HashSet::new();
            for src in topo.nodes() {
                for dest in topo.nodes() {
                    let mut prev: Option<u32> = None;
                    for (r, d) in walk_route(&topo, algo, src, dest) {
                        let s = topo
                            .vc_subclass(r, dest, d)
                            .expect("torus mesh dirs are classed");
                        let c = chan(r, d, s);
                        nodes.insert(c);
                        if let Some(p) = prev {
                            edges.insert((p, c));
                        }
                        prev = Some(c);
                    }
                }
            }
            // Kahn's algorithm: a full topological drain proves acyclicity.
            let mut indeg: HashMap<u32, usize> = nodes.iter().map(|&n| (n, 0)).collect();
            let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
            for &(a, b) in &edges {
                *indeg.get_mut(&b).unwrap() += 1;
                adj.entry(a).or_default().push(b);
            }
            let mut queue: Vec<u32> = indeg
                .iter()
                .filter(|&(_, &deg)| deg == 0)
                .map(|(&n, _)| n)
                .collect();
            let mut drained = 0usize;
            while let Some(n) = queue.pop() {
                drained += 1;
                for &m in adj.get(&n).into_iter().flatten() {
                    let deg = indeg.get_mut(&m).unwrap();
                    *deg -= 1;
                    if *deg == 0 {
                        queue.push(m);
                    }
                }
            }
            assert_eq!(
                drained,
                nodes.len(),
                "{label}/{algo:?}: channel dependency graph has a cycle ({drained} of {} channels drain)",
                nodes.len()
            );
        }
    }
}
