//! The network visits only components that hold work. Two things must
//! follow from that on every fabric, healthy or faulted:
//!
//! * the active sets name exactly the busy components — `Network::tick`
//!   checks its sets, counters and running traversal total against a scan of
//!   every router, wire, injector and inbox after each cycle of a debug
//!   build, and each router's stage and parked sets and the credits of every
//!   link likewise, so any test that ticks a network exercises the check
//!   and this one aims it at stalls, delays, drops and a slow clock domain,
//!   on every fabric, on a router whose VCs fill both words of a 128-bit set
//!   and on the two-stage pipeline without bypassing;
//! * ticking every cycle and jumping between the cycles `next_event` names
//!   deliver the same `(packet, cycle, final_age)` stream, whether the
//!   packets are collected tile by tile or drained at once.

use noclat_noc::{Network, NodeId, Priority, Topology, VNet};
use noclat_sim::check::{self, range_u64};
use noclat_sim::config::{NocConfig, RouterPipeline, SystemConfig, TopologyConfig};
use noclat_sim::faults::{CycleWindow, FaultPlan, LinkFault, RouterStall};
use noclat_sim::rng::SimRng;
use noclat_sim::Cycle;

#[derive(Debug, Clone, Copy)]
struct Inj {
    src: u16,
    dest: u16,
    response: bool,
    high: bool,
    at: Cycle,
}

fn random_injections(rng: &mut SimRng, tiles: u16) -> Vec<Inj> {
    let n = range_u64(rng, 20, 120) as usize;
    let mut v: Vec<Inj> = (0..n)
        .map(|_| Inj {
            src: rng.below(u64::from(tiles)) as u16,
            dest: rng.below(u64::from(tiles)) as u16,
            response: rng.chance(0.5),
            high: rng.chance(0.3),
            at: rng.below(1_500),
        })
        .collect();
    v.sort_by_key(|i| i.at);
    v
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    Healthy,
    Stall,
    Delay,
    DropWithRecovery,
    SlowRouter,
}

fn build(topo: Topology, noc: NocConfig, scenario: Scenario, rng: &mut SimRng) -> Network<usize> {
    let router = rng.index(topo.num_routers());
    let mut plan = FaultPlan::none();
    match scenario {
        Scenario::Stall => {
            let start = rng.below(800);
            plan.router_stalls.push(RouterStall {
                node: router,
                window: CycleWindow {
                    start,
                    end: start + range_u64(rng, 50, 400),
                },
            });
        }
        Scenario::Delay => plan.links.push(LinkFault {
            node: rng.chance(0.5).then_some(router),
            drop_prob: 0.0,
            extra_delay: range_u64(rng, 1, 12),
            window: CycleWindow::ALWAYS,
        }),
        Scenario::DropWithRecovery => plan = FaultPlan::uniform_drop(rng.next_u64(), 0.02),
        Scenario::Healthy | Scenario::SlowRouter => {}
    }
    let mut net = Network::with_faults(topo, noc, &plan);
    if scenario == Scenario::SlowRouter {
        net.set_node_period(NodeId(router as u16), 3).unwrap();
    }
    net
}

/// Runs `injections` to completion and returns every delivery in the order
/// it was handed out. Dropped packets are re-injected the cycle after the
/// drop. With `skip_idle` only the cycles `next_event` (or the injection
/// schedule) names are ticked and the mail is drained at once; without it
/// every cycle is ticked and the tiles are emptied one by one.
fn drive(
    net: &mut Network<usize>,
    injections: &[Inj],
    skip_idle: bool,
) -> Vec<(usize, Cycle, u32)> {
    let tiles = net.mesh().num_nodes() as u16;
    let mut stream = Vec::new();
    let mut mail = Vec::new();
    let mut next = 0;
    let mut t: Cycle = 0;
    while stream.len() < injections.len() {
        assert!(t < 400_000, "traffic did not drain");
        if skip_idle {
            let due = injections.get(next).map(|i| i.at);
            let wake = [net.next_event(t), due].into_iter().flatten().min();
            t = t.max(wake.expect("undelivered packets are somewhere"));
        }
        while next < injections.len() && injections[next].at <= t {
            let i = injections[next];
            let (vnet, flits) = if i.response {
                (VNet::Response, 5)
            } else {
                (VNet::Request, 1)
            };
            let priority = if i.high {
                Priority::High
            } else {
                Priority::Normal
            };
            net.inject(
                NodeId(i.src),
                NodeId(i.dest),
                vnet,
                priority,
                flits,
                0,
                next,
                t,
            )
            .expect("admissible injection");
            next += 1;
        }
        net.tick(t);
        if skip_idle {
            net.drain_delivered(&mut mail);
        } else {
            for tile in 0..tiles {
                mail.extend(net.take_delivered(NodeId(tile)));
            }
        }
        for d in mail.drain(..) {
            stream.push((d.payload, d.delivered_at, d.final_age));
        }
        for (m, payload) in net.take_dropped() {
            net.inject(
                m.src,
                m.dest,
                m.vnet,
                m.priority,
                m.num_flits,
                0,
                payload,
                t + 1,
            )
            .expect("admissible re-injection");
        }
        t += 1;
    }
    stream
}

#[test]
fn skipping_idle_cycles_changes_nothing_on_any_fabric_under_any_fault() {
    let paper = SystemConfig::baseline_32().noc;
    let express = Topology::from_config(&TopologyConfig::express(8, 8, 2));
    let cells = [
        (Topology::new(8, 4), paper),
        (Topology::from_config(&TopologyConfig::torus(8, 4)), paper),
        (
            Topology::from_config(&TopologyConfig::cmesh(8, 4, 2)),
            paper,
        ),
        (express, paper),
        // 9 ports x 8 VCs = 72 input VCs: both words of a router's sets.
        (
            express,
            NocConfig {
                vcs_per_port: 8,
                ..paper
            },
        ),
        (
            Topology::new(8, 4),
            NocConfig {
                pipeline: RouterPipeline::TwoStage,
                bypass_enabled: false,
                ..paper
            },
        ),
    ];
    let scenarios = [
        Scenario::Healthy,
        Scenario::Stall,
        Scenario::Delay,
        Scenario::DropWithRecovery,
        Scenario::SlowRouter,
    ];
    for (topo, noc) in cells {
        for scenario in scenarios {
            check::cases(2, |rng| {
                let injections = random_injections(rng, topo.num_nodes() as u16);
                // Both runs draw their fault plan from the same stream.
                let mut twin = rng.clone();
                let every_cycle = drive(&mut build(topo, noc, scenario, rng), &injections, false);
                let skipping = drive(
                    &mut build(topo, noc, scenario, &mut twin),
                    &injections,
                    true,
                );
                assert_eq!(every_cycle.len(), injections.len());
                assert_eq!(
                    every_cycle,
                    skipping,
                    "{} {} VCs {:?} {scenario:?}: delivery streams diverged",
                    topo.config().label(),
                    noc.vcs_per_port,
                    noc.pipeline
                );
            });
        }
    }
}

#[test]
fn drained_network_reports_idle_and_its_counters_agree() {
    check::cases(4, |rng| {
        let topo = Topology::from_config(&TopologyConfig::torus(8, 4));
        let injections = random_injections(rng, 32);
        let mut net = build(
            topo,
            SystemConfig::baseline_32().noc,
            Scenario::Healthy,
            rng,
        );
        let delivered = drive(&mut net, &injections, true);
        assert_eq!(delivered.len(), injections.len());
        // Let the trailing credits land; nothing may be left anywhere.
        let mut t = delivered.iter().map(|d| d.1).max().unwrap_or(0) + 1;
        while let Some(wake) = net.next_event(t) {
            t = t.max(wake);
            net.tick(t);
            t += 1;
        }
        assert_eq!(net.packets_in_flight(), 0);
        assert_eq!(net.flits_traversed(), net.router_counters().flits_traversed);
        assert!(net.router_queue_depths().iter().all(|&d| d == 0));
    });
}
