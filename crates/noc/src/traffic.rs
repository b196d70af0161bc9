//! Synthetic traffic patterns for network-only characterization.
//!
//! The paper evaluates its NoC inside a full multicore; for unit-level
//! validation (and for the classic load–latency curves every NoC paper
//! leans on) this module provides the standard synthetic patterns —
//! uniform random, transpose, bit-complement, and corner hotspot (the
//! S-NUCA-with-corner-controllers traffic shape) — plus a driver that
//! measures average packet latency at a given injection rate.

use noclat_sim::rng::SimRng;
use noclat_sim::Cycle;

use crate::network::Network;
use crate::packet::{Priority, VNet};
use crate::topology::{Coord, NodeId, Topology};

/// A destination-selection rule for synthetic traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Every node sends to uniformly random destinations.
    UniformRandom,
    /// Node `(x, y)` sends to node `(y, x)` (requires a square mesh for a
    /// perfect permutation; rectangular meshes clamp).
    Transpose,
    /// Node `i` sends to node `N-1-i`.
    BitComplement,
    /// A fraction of the traffic converges on the mesh corners (the
    /// memory-controller traffic shape of the paper's system).
    CornerHotspot {
        /// Percentage (0–100) of packets that target a corner.
        percent: u8,
    },
}

impl TrafficPattern {
    /// Picks a destination for a packet from `src`.
    pub fn destination(&self, mesh: Topology, src: NodeId, rng: &mut SimRng) -> NodeId {
        match *self {
            TrafficPattern::UniformRandom => NodeId(rng.index(mesh.num_nodes()) as u16),
            TrafficPattern::Transpose => {
                let c = mesh.coord_of(src);
                let t = Coord {
                    x: c.y.min(mesh.width() - 1),
                    y: c.x.min(mesh.height() - 1),
                };
                mesh.node_at(t)
            }
            TrafficPattern::BitComplement => NodeId((mesh.num_nodes() - 1 - src.index()) as u16),
            TrafficPattern::CornerHotspot { percent } => {
                if rng.below(100) < u64::from(percent.min(100)) {
                    let corners = mesh.corner_nodes(4);
                    corners[rng.index(corners.len())]
                } else {
                    NodeId(rng.index(mesh.num_nodes()) as u16)
                }
            }
        }
    }
}

/// Result of one load point of a load–latency characterization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Offered load in flits per node per cycle.
    pub offered_load: f64,
    /// Packets delivered during the measurement window.
    pub delivered: u64,
    /// Average packet latency (injection → tail ejection).
    pub avg_latency: f64,
    /// Packets still in flight when the window closed (saturation marker).
    pub backlog: usize,
}

/// Drives `pattern` traffic at `offered_load` (flits/node/cycle) for
/// `cycles` cycles after a warmup of the same length, and reports average
/// latency. Packets are `flits_per_packet` long on the request vnet.
pub fn characterize(
    net: &mut Network<()>,
    pattern: TrafficPattern,
    offered_load: f64,
    flits_per_packet: u8,
    cycles: Cycle,
    seed: u64,
) -> LoadPoint {
    let mesh = net.mesh();
    let mut rng = SimRng::new(seed);
    let p_inject = offered_load / f64::from(flits_per_packet);
    let warmup = cycles;
    let mut latencies = 0.0;
    let mut delivered = 0u64;
    let mut mail = Vec::new();
    for t in 0..(warmup + cycles) {
        for node in mesh.nodes() {
            if rng.chance(p_inject) {
                let dest = pattern.destination(mesh, node, &mut rng);
                net.inject(
                    node,
                    dest,
                    VNet::Request,
                    Priority::Normal,
                    flits_per_packet,
                    0,
                    (),
                    t,
                )
                .expect("synthetic injection is admissible");
            }
        }
        net.tick(t);
        net.drain_delivered(&mut mail);
        for d in mail.drain(..) {
            if t >= warmup {
                delivered += 1;
                latencies += d.network_latency() as f64;
            }
        }
    }
    LoadPoint {
        offered_load,
        delivered,
        avg_latency: if delivered == 0 {
            f64::NAN
        } else {
            latencies / delivered as f64
        },
        backlog: net.packets_in_flight(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noclat_sim::config::SystemConfig;

    fn mesh() -> Topology {
        Topology::new(8, 4)
    }

    #[test]
    fn transpose_is_deterministic() {
        let m = Topology::new(4, 4);
        let mut rng = SimRng::new(1);
        let d1 = TrafficPattern::Transpose.destination(m, NodeId(1), &mut rng);
        let d2 = TrafficPattern::Transpose.destination(m, NodeId(1), &mut rng);
        assert_eq!(d1, d2);
        // (1, 0) -> (0, 1) = node 4 on a 4x4 mesh.
        assert_eq!(d1, NodeId(4));
    }

    #[test]
    fn bit_complement_is_an_involution() {
        let m = mesh();
        let mut rng = SimRng::new(1);
        for n in m.nodes() {
            let d = TrafficPattern::BitComplement.destination(m, n, &mut rng);
            let back = TrafficPattern::BitComplement.destination(m, d, &mut rng);
            assert_eq!(back, n);
        }
    }

    #[test]
    fn hotspot_skews_toward_corners() {
        let m = mesh();
        let mut rng = SimRng::new(2);
        let corners = m.corner_nodes(4);
        let pat = TrafficPattern::CornerHotspot { percent: 80 };
        let hits = (0..2000)
            .filter(|_| {
                let d = pat.destination(m, NodeId(10), &mut rng);
                corners.contains(&d)
            })
            .count();
        // 80% directed + ~12.5% of the uniform remainder.
        assert!((1400..1900).contains(&hits), "corner hits {hits}");
    }

    #[test]
    fn low_load_latency_is_near_zero_load() {
        let cfg = SystemConfig::baseline_32().noc;
        let mut net: Network<()> = Network::new(mesh(), cfg);
        let p = characterize(&mut net, TrafficPattern::UniformRandom, 0.02, 1, 4_000, 7);
        assert!(p.delivered > 100, "too few packets delivered");
        // Zero-load uniform-random latency on a 4x8 mesh with 5-stage
        // routers is ~25-30 cycles; light load should stay close.
        assert!(
            p.avg_latency < 60.0,
            "low-load latency {:.0} looks congested",
            p.avg_latency
        );
        assert!(p.backlog < 32, "backlog {} at low load", p.backlog);
    }

    #[test]
    fn latency_rises_with_load() {
        let cfg = SystemConfig::baseline_32().noc;
        let low = {
            let mut net: Network<()> = Network::new(mesh(), cfg);
            characterize(&mut net, TrafficPattern::UniformRandom, 0.02, 5, 3_000, 7)
        };
        let high = {
            let mut net: Network<()> = Network::new(mesh(), cfg);
            characterize(&mut net, TrafficPattern::UniformRandom, 0.30, 5, 3_000, 7)
        };
        assert!(
            high.avg_latency > low.avg_latency * 1.3,
            "latency must rise with load ({:.0} vs {:.0})",
            low.avg_latency,
            high.avg_latency
        );
    }
}
