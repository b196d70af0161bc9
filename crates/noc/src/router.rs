//! A virtual-channel wormhole router with the paper's prioritization hooks.
//!
//! The baseline router is the 5-stage pipeline of Section 3.3: buffer write
//! (BW), route computation (RC), VC allocation (VA), switch allocation (SA)
//! and switch traversal (ST), followed by link traversal. Pipeline depth is
//! modeled by a per-flit `ready_at` stamp assigned on arrival; arbitration
//! runs every cycle, so contention delays add on top of the pipeline depth.
//!
//! Prioritized flits win VA and SA arbitration (subject to the starvation
//! age guard) and, when `bypass_enabled` is set, skip to a combined *setup*
//! stage followed directly by ST (Figure 10), cutting the no-contention
//! residency from 5 cycles to 2.

use std::collections::VecDeque;

use noclat_sim::config::NocConfig;
use noclat_sim::Cycle;

use crate::arbiter::{Candidate, RoundRobinArbiter};
use crate::bitset::BitSet;
use crate::packet::{accumulate_age, Flit, Priority, VNet};
use crate::topology::{Dir, NodeId, Topology};

/// State of one input VC. All input VCs of a router live in one flat array
/// indexed `port * vcs_per_port + vc`, which is also the arbiter tag.
#[derive(Debug, Clone)]
struct VcState {
    buf: VecDeque<Flit>,
    /// Output port of the packet currently at the head of this VC.
    route: Option<Dir>,
    /// Downstream VC allocated to that packet.
    out_vc: Option<u8>,
    /// Downstream VCs `[start, end)` that packet may be granted: its
    /// virtual network's half, narrowed on a torus to the dateline subclass
    /// [`Topology::vc_subclass`] assigns to the hop. Fixed at RC with the route.
    class: (u16, u16),
    /// This VC as the upstream router knows it (what ST hands back).
    credit: CreditReturn,
}

/// A flit leaving the router this cycle, tagged with its output port.
#[derive(Debug, Clone, Copy)]
pub struct Traversal {
    /// Output port the flit leaves through (`Local` = ejection).
    pub out_port: Dir,
    /// The flit, with its `vc` field set to the downstream VC and its age
    /// updated for the residency at this router.
    pub flit: Flit,
}

/// A credit to return upstream: the input port and VC that freed a slot.
#[derive(Debug, Clone, Copy)]
pub struct CreditReturn {
    /// Input port whose buffer freed a slot.
    pub in_port: Dir,
    /// VC index within that port.
    pub vc: u8,
}

/// Result of one router cycle.
#[derive(Debug, Clone, Default)]
pub struct RouterOutput {
    /// Flits traversing the switch this cycle (at most one per output port).
    pub traversals: Vec<Traversal>,
    /// Credits to return to upstream routers.
    pub credits: Vec<CreditReturn>,
}

/// A requester of one output port, in VA (a routed header without a
/// downstream VC) or in SA phase 2 (a phase-1 winner).
#[derive(Debug, Clone, Copy)]
struct PortRequest {
    out_port: usize,
    cand: Candidate,
}

/// Everything one [`Router::tick`] writes besides the router's own state:
/// the per-cycle output and the candidate lists of the allocators. A
/// [`crate::Network`] owns one and lends it to each router in turn, so a
/// steady-state cycle allocates nothing and a router carries no buffers of
/// its own; a router driven standalone creates its own on first use.
#[derive(Debug, Clone, Default)]
pub(crate) struct RouterScratch {
    pub(crate) out: RouterOutput,
    /// Requesters of every output port, in `(port, vc)` order.
    requests: Vec<PortRequest>,
    /// The requesters of the output port being arbitrated, same order.
    candidates: Vec<Candidate>,
    /// VA only: the candidates a free downstream VC exists for.
    grantable: Vec<Candidate>,
}

/// Event counters for one router.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterCounters {
    /// Flits that traversed the switch.
    pub flits_traversed: u64,
    /// Flits that used the pipeline-bypass path.
    pub flits_bypassed: u64,
    /// High-priority flits that traversed the switch.
    pub high_priority_traversed: u64,
    /// Traversals whose accumulated so-far delay saturated the age field
    /// (Section 3.1's 12-bit header field clips at 4095).
    pub age_saturations: u64,
}

/// A single mesh router.
#[derive(Debug, Clone)]
pub struct Router {
    node: NodeId,
    mesh: Topology,
    cfg: NocConfig,
    /// Input VCs, flat (see [`VcState`]).
    vcs: Vec<VcState>,
    /// Free buffer slots at each downstream input VC, flat by
    /// `out_port * vcs_per_port + vc`.
    credits: Vec<u32>,
    /// Whether a packet currently owns each downstream VC, same indexing.
    out_vc_taken: Vec<bool>,
    va_arb: Vec<RoundRobinArbiter>,
    sa_in_arb: Vec<RoundRobinArbiter>,
    sa_out_arb: Vec<RoundRobinArbiter>,
    counters: RouterCounters,
    /// Total flits buffered across all input VCs.
    occupancy: usize,
    /// Input VCs whose front flit is a header without a route (RC's work).
    needs_rc: BitSet,
    /// Input VCs holding a routed header without a downstream VC (VA's).
    needs_va: BitSet,
    /// Non-empty input VCs with both a route and a downstream VC (SA's).
    /// Every buffered flit is at the front of, or queued behind, a VC in
    /// exactly one of the three sets, so a stage with an empty set has
    /// nothing to do and the others walk only their members.
    sa_ready: BitSet,
    /// Scratch of a standalone router (see [`RouterScratch`]).
    scratch: Option<Box<RouterScratch>>,
}

impl Router {
    /// Creates the router `node` (a router-grid id) of `mesh` with the
    /// given NoC parameters. Port arrays are sized per topology (5 ports on
    /// mesh-like fabrics, 9 on express).
    #[must_use]
    pub fn new(node: NodeId, mesh: Topology, cfg: NocConfig) -> Self {
        let v = cfg.vcs_per_port;
        let ports = mesh.num_ports();
        let vcs = mesh
            .ports()
            .iter()
            .flat_map(|&in_port| {
                (0..v).map(move |vc| VcState {
                    buf: VecDeque::with_capacity(cfg.buffer_depth),
                    route: None,
                    out_vc: None,
                    class: (0, 0),
                    credit: CreditReturn {
                        in_port,
                        vc: vc as u8,
                    },
                })
            })
            .collect();
        Router {
            node,
            mesh,
            cfg,
            vcs,
            credits: vec![cfg.buffer_depth as u32; ports * v],
            out_vc_taken: vec![false; ports * v],
            va_arb: vec![RoundRobinArbiter::new(); ports],
            sa_in_arb: vec![RoundRobinArbiter::new(); ports],
            sa_out_arb: vec![RoundRobinArbiter::new(); ports],
            counters: RouterCounters::default(),
            occupancy: 0,
            needs_rc: BitSet::new(ports * v),
            needs_va: BitSet::new(ports * v),
            sa_ready: BitSet::new(ports * v),
            scratch: None,
        }
    }

    /// Node this router serves.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Event counters.
    #[must_use]
    pub fn counters(&self) -> RouterCounters {
        self.counters
    }

    /// Total flits buffered across all input VCs. Zero means a tick is a
    /// guaranteed no-op, which is the network's active-set membership rule
    /// and the event kernel's idleness criterion for routers.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Flat index of an input VC (or of a downstream VC of an output port).
    fn slot(&self, port: Dir, vc: usize) -> usize {
        port.index() * self.cfg.vcs_per_port + vc
    }

    /// Free buffer slots in a local-input VC (used by the injection logic,
    /// which sits at zero distance and needs no credit wire).
    #[must_use]
    pub fn local_vc_space(&self, vc: usize) -> usize {
        self.cfg.buffer_depth - self.vcs[self.slot(Dir::Local, vc)].buf.len()
    }

    /// Whether a local-input VC currently holds or streams a packet (its
    /// head has not been fully routed out yet, or flits remain buffered).
    #[must_use]
    pub fn local_vc_busy(&self, vc: usize) -> bool {
        let b = &self.vcs[self.slot(Dir::Local, vc)];
        !b.buf.is_empty() || b.route.is_some()
    }

    /// Accepts a flit into an input VC buffer, stamping its arrival and
    /// pipeline-readiness times (this is the BW stage; bypass eligibility is
    /// decided here).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the buffer is full (credit protocol
    /// violation).
    pub fn accept_flit(&mut self, port: Dir, mut flit: Flit, now: Cycle) {
        let slot = self.slot(port, usize::from(flit.vc));
        let state = &mut self.vcs[slot];
        debug_assert!(
            state.buf.len() < self.cfg.buffer_depth,
            "credit violation at {:?} port {:?} vc {}",
            self.node,
            port,
            flit.vc
        );
        let buf_empty = state.buf.is_empty();
        let bypass = self.cfg.bypass_enabled && flit.priority == Priority::High && buf_empty;
        flit.arrived_at = now;
        flit.ready_at = now
            + if bypass {
                1
            } else {
                self.cfg.pipeline.min_residency()
            };
        if bypass {
            self.counters.flits_bypassed += 1;
        }
        self.occupancy += 1;
        state.buf.push_back(flit);
        if buf_empty {
            // The new front decides which stage the VC waits for. A routed
            // header keeps the front until VA and SA served it, so an empty
            // VC with a route also has its downstream VC.
            match (state.route, state.out_vc) {
                (None, _) => self.needs_rc.insert(slot),
                (Some(_), Some(_)) => self.sa_ready.insert(slot),
                (Some(_), None) => unreachable!("routed header left its VC before VA"),
            }
        }
    }

    /// Restores one credit for a downstream VC of an output port.
    pub fn apply_credit(&mut self, out_port: Dir, vc: u8) {
        let slot = self.slot(out_port, usize::from(vc));
        let c = &mut self.credits[slot];
        debug_assert!(
            (*c as usize) < self.cfg.buffer_depth,
            "credit overflow at {:?} port {:?} vc {}",
            self.node,
            out_port,
            vc
        );
        *c += 1;
    }

    /// VC index range of a virtual network (`[start, end)`).
    fn vnet_range(&self, vnet: VNet) -> (usize, usize) {
        let half = self.cfg.vcs_per_port / 2;
        let start = vnet.index() * half;
        (start, start + half)
    }

    /// Runs one cycle: RC, VA, SA and ST. Returns the flits leaving the
    /// router and the credits to send upstream.
    pub fn tick(&mut self, now: Cycle) -> &RouterOutput {
        let mut scratch = self.scratch.take().unwrap_or_default();
        self.tick_into(now, &mut scratch);
        &self.scratch.insert(scratch).out
    }

    /// [`Router::tick`] over the caller's scratch; the cycle's output is
    /// left in `scratch.out`.
    pub(crate) fn tick_into(&mut self, now: Cycle, scratch: &mut RouterScratch) {
        scratch.out.traversals.clear();
        scratch.out.credits.clear();
        if !self.needs_rc.is_empty() {
            self.route_compute();
        }
        if !self.needs_va.is_empty() {
            self.vc_allocate(now, scratch);
        }
        if !self.sa_ready.is_empty() {
            self.switch_allocate_and_traverse(now, scratch);
        }
    }

    /// RC: compute the output port for every VC whose front flit is a header
    /// without a route.
    fn route_compute(&mut self) {
        let mut next = self.needs_rc.first_from(0);
        while let Some(slot) = next {
            next = self.needs_rc.first_from(slot + 1);
            let front = *self.vcs[slot].buf.front().expect("RC set holds a flit");
            debug_assert!(
                front.kind.is_head(),
                "body flit at VC front without a route (wormhole violation)"
            );
            if !front.kind.is_head() {
                continue;
            }
            let route = self.mesh.route(self.cfg.routing, self.node, front.dest);
            let (start, end) = self.vnet_range(front.vnet);
            let class = match self.mesh.vc_subclass(self.node, front.dest, route) {
                None => (start, end),
                Some(s) => {
                    let quarter = (end - start) / 2;
                    let s = start + usize::from(s) * quarter;
                    (s, s + quarter)
                }
            };
            let state = &mut self.vcs[slot];
            state.route = Some(route);
            state.class = (class.0 as u16, class.1 as u16);
            self.needs_rc.remove(slot);
            self.needs_va.insert(slot);
        }
    }

    /// The arbitration candidate for the front flit of input VC `slot`.
    fn candidate(slot: usize, front: &Flit, now: Cycle) -> Candidate {
        Candidate {
            tag: slot,
            priority: front.priority,
            effective_age: u64::from(front.age) + now.saturating_sub(front.arrived_at),
            batch: front.batch,
        }
    }

    /// Lists the requesters of the lowest output port at or after `from` in
    /// `scratch.candidates`, keeping their `(port, vc)` order, and returns
    /// that port.
    fn next_port_candidates(scratch: &mut RouterScratch, from: usize) -> Option<usize> {
        let out_port = scratch
            .requests
            .iter()
            .map(|r| r.out_port)
            .filter(|&p| p >= from)
            .min()?;
        scratch.candidates.clear();
        scratch.candidates.extend(
            scratch
                .requests
                .iter()
                .filter(|r| r.out_port == out_port)
                .map(|r| r.cand),
        );
        Some(out_port)
    }

    /// VA: allocate free downstream VCs to waiting headers, priority-aware.
    fn vc_allocate(&mut self, now: Cycle, scratch: &mut RouterScratch) {
        // One pass over the waiting headers; walking the set in ascending
        // order lists each output port's requesters in `(port, vc)` order.
        scratch.requests.clear();
        for slot in self.needs_va.iter() {
            let state = &self.vcs[slot];
            let front = state.buf.front().expect("VA set holds a header");
            debug_assert!(front.kind.is_head(), "VA requester is not a header");
            scratch.requests.push(PortRequest {
                out_port: state.route.expect("VA set is routed").index(),
                cand: Self::candidate(slot, front, now),
            });
        }
        let v = self.cfg.vcs_per_port;
        let (policy, guard) = (self.cfg.starvation, self.cfg.starvation_age_guard);
        let mut from = 0;
        while let Some(out_port) = Self::next_port_candidates(scratch, from) {
            from = out_port + 1;
            // Grant free VCs one winner at a time until no grantable
            // requester remains.
            while !scratch.candidates.is_empty() {
                // A requester is grantable if a free VC exists in its class
                // (on a torus: in its dateline subclass of the class).
                scratch.grantable.clear();
                scratch.grantable.extend(
                    scratch
                        .candidates
                        .iter()
                        .filter(|c| self.free_vc_in_class(out_port, c.tag).is_some()),
                );
                let Some(winner) = self.va_arb[out_port].pick(&scratch.grantable, policy, guard)
                else {
                    break;
                };
                let free = self
                    .free_vc_in_class(out_port, winner)
                    .expect("winner was grantable");
                self.out_vc_taken[out_port * v + free] = true;
                self.vcs[winner].out_vc = Some(free as u8);
                self.needs_va.remove(winner);
                self.sa_ready.insert(winner);
                scratch.candidates.retain(|c| c.tag != winner);
            }
        }
    }

    /// First free downstream VC of `out_port` within the class RC fixed for
    /// the header at input VC `slot`.
    fn free_vc_in_class(&self, out_port: usize, slot: usize) -> Option<usize> {
        let (start, end) = self.vcs[slot].class;
        let taken = &self.out_vc_taken[out_port * self.cfg.vcs_per_port..];
        (usize::from(start)..usize::from(end)).find(|&v| !taken[v])
    }

    /// SA phase 1 (one VC per input port), SA phase 2 (one input per output
    /// port), then ST for the winners.
    fn switch_allocate_and_traverse(&mut self, now: Cycle, scratch: &mut RouterScratch) {
        // Phase 1: per input port, pick one ready VC. The set lists an
        // input port's VCs consecutively.
        scratch.requests.clear();
        let v = self.cfg.vcs_per_port;
        let (policy, guard) = (self.cfg.starvation, self.cfg.starvation_age_guard);
        let mut next = self.sa_ready.first_from(0);
        while let Some(first) = next {
            let port = self.vcs[first].credit.in_port.index();
            scratch.candidates.clear();
            while let Some(slot) = next.filter(|&s| s < (port + 1) * v) {
                next = self.sa_ready.first_from(slot + 1);
                let state = &self.vcs[slot];
                let route = state.route.expect("SA set is routed");
                let out_vc = state.out_vc.expect("SA set holds a downstream VC");
                let front = state.buf.front().expect("SA set holds a flit");
                if front.ready_at > now {
                    continue;
                }
                let has_credit =
                    route == Dir::Local || self.credits[self.slot(route, usize::from(out_vc))] > 0;
                if has_credit {
                    scratch.candidates.push(Self::candidate(slot, front, now));
                }
            }
            if let Some(tag) = self.sa_in_arb[port].pick(&scratch.candidates, policy, guard) {
                let state = &self.vcs[tag];
                scratch.requests.push(PortRequest {
                    out_port: state.route.expect("SA set is routed").index(),
                    cand: Self::candidate(
                        tag,
                        state.buf.front().expect("winner holds a flit"),
                        now,
                    ),
                });
            }
        }
        // Phase 2: per output port, pick one phase-1 winner. A winner asks
        // for exactly one output port, so traversals never disturb the
        // requests of the ports still to come.
        let mut from = 0;
        while let Some(out_port) = Self::next_port_candidates(scratch, from) {
            from = out_port + 1;
            let tag = self.sa_out_arb[out_port]
                .pick(&scratch.candidates, policy, guard)
                .expect("an output port with requesters has a winner");
            self.traverse(tag, now, &mut scratch.out);
        }
    }

    /// ST: move the winning flit out of its buffer, update its age, consume
    /// a credit, release the VC on tails, and emit a credit return.
    fn traverse(&mut self, slot: usize, now: Cycle, out: &mut RouterOutput) {
        let state = &mut self.vcs[slot];
        let route = state.route.expect("traversing flit has a route");
        let out_vc = state.out_vc.expect("traversing flit has an output VC");
        let mut flit = state.buf.pop_front().expect("traversing flit exists");
        self.occupancy -= 1;
        let unsaturated = u128::from(flit.age)
            + u128::from(now.saturating_sub(flit.arrived_at)) * u128::from(self.cfg.freq_mult);
        if unsaturated > u128::from(self.cfg.max_age()) {
            self.counters.age_saturations += 1;
        }
        flit.age = accumulate_age(
            flit.age,
            now.saturating_sub(flit.arrived_at),
            self.cfg.freq_mult,
            self.cfg.max_age(),
        );
        flit.vc = out_vc;
        let out_slot = route.index() * self.cfg.vcs_per_port + usize::from(out_vc);
        if flit.kind.is_tail() {
            state.route = None;
            state.out_vc = None;
            self.out_vc_taken[out_slot] = false;
            self.sa_ready.remove(slot);
            if !state.buf.is_empty() {
                self.needs_rc.insert(slot);
            }
        } else if state.buf.is_empty() {
            self.sa_ready.remove(slot);
        }
        if route != Dir::Local {
            let credit = &mut self.credits[out_slot];
            debug_assert!(*credit > 0, "ST without credit");
            *credit -= 1;
        }
        self.counters.flits_traversed += 1;
        if flit.priority == Priority::High {
            self.counters.high_priority_traversed += 1;
        }
        out.credits.push(state.credit);
        out.traversals.push(Traversal {
            out_port: route,
            flit,
        });
    }

    /// Total flits currently buffered in this router, recounted from the
    /// buffers (test/diagnostic aid; [`Router::occupancy`] is the running
    /// count).
    #[must_use]
    pub fn buffered_flits(&self) -> usize {
        self.vcs.iter().map(|v| v.buf.len()).sum()
    }

    /// Longest time any buffered flit has waited at this router (watchdog
    /// starvation probe). Only the front flit of each VC is inspected: VC
    /// buffers are FIFOs, so the front is the oldest.
    #[must_use]
    pub fn oldest_buffered_wait(&self, now: Cycle) -> Option<Cycle> {
        self.vcs
            .iter()
            .filter_map(|v| v.buf.front())
            .map(|f| now.saturating_sub(f.arrived_at))
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlitKind, PacketId};
    use noclat_sim::config::{RouterPipeline, SystemConfig};

    fn cfg() -> NocConfig {
        SystemConfig::baseline_32().noc
    }

    fn mesh() -> Topology {
        Topology::new(8, 4)
    }

    fn flit(packet: u64, kind: FlitKind, dest: NodeId, vc: u8, priority: Priority) -> Flit {
        Flit {
            packet: PacketId(packet),
            kind,
            dest,
            vnet: VNet::Request,
            priority,
            age: 0,
            batch: 0,
            vc,
            arrived_at: 0,
            ready_at: 0,
        }
    }

    #[test]
    fn single_flit_traverses_after_pipeline_depth() {
        let mut r = Router::new(NodeId(0), mesh(), cfg());
        // Destination east of node 0: route = East.
        r.accept_flit(
            Dir::Local,
            flit(1, FlitKind::HeadTail, NodeId(3), 0, Priority::Normal),
            10,
        );
        // 5-stage pipeline: BW at 10, ST possible at 14.
        for t in 10..14 {
            assert!(r.tick(t).traversals.is_empty(), "premature ST at {t}");
        }
        let out = r.tick(14);
        assert_eq!(out.traversals.len(), 1);
        let tr = out.traversals[0];
        assert_eq!(tr.out_port, Dir::East);
        // Age accumulated = residency at this router = 4 cycles.
        assert_eq!(tr.flit.age, 4);
        assert_eq!(out.credits.len(), 1);
        assert_eq!(out.credits[0].in_port, Dir::Local);
    }

    #[test]
    fn high_priority_bypasses_pipeline() {
        let mut r = Router::new(NodeId(0), mesh(), cfg());
        r.accept_flit(
            Dir::Local,
            flit(1, FlitKind::HeadTail, NodeId(3), 0, Priority::High),
            10,
        );
        assert!(r.tick(10).traversals.is_empty());
        let out = r.tick(11);
        assert_eq!(out.traversals.len(), 1, "bypassed flit must ST at +1");
        assert_eq!(r.counters().flits_bypassed, 1);
        assert_eq!(r.counters().high_priority_traversed, 1);
    }

    #[test]
    fn bypass_disabled_uses_full_pipeline() {
        let mut c = cfg();
        c.bypass_enabled = false;
        let mut r = Router::new(NodeId(0), mesh(), c);
        r.accept_flit(
            Dir::Local,
            flit(1, FlitKind::HeadTail, NodeId(3), 0, Priority::High),
            0,
        );
        assert!(r.tick(1).traversals.is_empty());
        assert!(r.tick(3).traversals.is_empty());
        assert_eq!(r.tick(4).traversals.len(), 1);
        assert_eq!(r.counters().flits_bypassed, 0);
    }

    #[test]
    fn two_stage_router_is_fast_for_everyone() {
        let mut c = cfg();
        c.pipeline = RouterPipeline::TwoStage;
        let mut r = Router::new(NodeId(0), mesh(), c);
        r.accept_flit(
            Dir::Local,
            flit(1, FlitKind::HeadTail, NodeId(3), 0, Priority::Normal),
            0,
        );
        assert!(r.tick(0).traversals.is_empty());
        assert_eq!(r.tick(1).traversals.len(), 1);
    }

    #[test]
    fn local_destination_ejects() {
        let mut r = Router::new(NodeId(5), mesh(), cfg());
        r.accept_flit(
            Dir::West,
            flit(1, FlitKind::HeadTail, NodeId(5), 1, Priority::Normal),
            0,
        );
        let out = r.tick(4);
        assert_eq!(out.traversals.len(), 1);
        assert_eq!(out.traversals[0].out_port, Dir::Local);
    }

    #[test]
    fn wormhole_keeps_packet_on_one_vc_and_releases_on_tail() {
        let mut r = Router::new(NodeId(0), mesh(), cfg());
        let dest = NodeId(3);
        r.accept_flit(
            Dir::Local,
            flit(7, FlitKind::Head, dest, 0, Priority::Normal),
            0,
        );
        r.accept_flit(
            Dir::Local,
            flit(7, FlitKind::Body, dest, 0, Priority::Normal),
            1,
        );
        r.accept_flit(
            Dir::Local,
            flit(7, FlitKind::Tail, dest, 0, Priority::Normal),
            2,
        );
        let mut sent = Vec::new();
        for t in 0..12 {
            for tr in &r.tick(t).traversals {
                sent.push((t, tr.flit.kind, tr.flit.vc));
            }
        }
        assert_eq!(sent.len(), 3);
        // All three on the same downstream VC, in order.
        assert!(sent.windows(2).all(|w| w[0].2 == w[1].2));
        assert_eq!(sent[0].1, FlitKind::Head);
        assert_eq!(sent[2].1, FlitKind::Tail);
        assert_eq!(r.buffered_flits(), 0);
    }

    /// Drives a router, feeding `packet_flits` one per 10 cycles (so buffer
    /// space always exists), for `cycles`; returns total traversals.
    fn drive(r: &mut Router, packet_flits: &[Flit], cycles: Cycle) -> usize {
        let mut traversed = 0;
        let mut next = 0usize;
        for t in 0..cycles {
            if next < packet_flits.len() && t == next as Cycle * 10 {
                r.accept_flit(Dir::Local, packet_flits[next], t);
                next += 1;
            }
            traversed += r.tick(t).traversals.len();
        }
        traversed
    }

    fn packet_of(n: usize, dest: NodeId) -> Vec<Flit> {
        (0..n)
            .map(|i| {
                let kind = match (i, n) {
                    (0, 1) => FlitKind::HeadTail,
                    (0, _) => FlitKind::Head,
                    (i, n) if i + 1 == n => FlitKind::Tail,
                    _ => FlitKind::Body,
                };
                flit(7, kind, dest, 0, Priority::Normal)
            })
            .collect()
    }

    #[test]
    fn credits_throttle_output() {
        let c = cfg();
        let mut r = Router::new(NodeId(0), mesh(), c);
        // Send depth + 2 flits of one packet; never return credits.
        let flits = packet_of(c.buffer_depth + 2, NodeId(3));
        let traversed = drive(&mut r, &flits, 300);
        // Only `buffer_depth` flits may leave; the rest starve on credits.
        assert_eq!(traversed, c.buffer_depth);
    }

    #[test]
    fn credit_return_reopens_output() {
        let c = cfg();
        let mut r = Router::new(NodeId(0), mesh(), c);
        let flits = packet_of(c.buffer_depth + 1, NodeId(3));
        let traversed = drive(&mut r, &flits, 300);
        // With depth+1 flits and depth credits, the tail is stuck...
        assert_eq!(traversed, c.buffer_depth);
        // ...until a credit comes back.
        r.apply_credit(Dir::East, 0);
        let mut more = 0;
        for t in 300..360 {
            more += r.tick(t).traversals.len();
        }
        assert_eq!(more, 1, "tail must flow after credit return");
    }

    #[test]
    fn high_priority_wins_switch_contention() {
        let c = cfg();
        let mut r = Router::new(NodeId(1), mesh(), c);
        let dest = NodeId(3); // east of node 1
        let mut normal = flit(1, FlitKind::HeadTail, dest, 0, Priority::Normal);
        normal.age = 50;
        let mut high = flit(2, FlitKind::HeadTail, dest, 0, Priority::High);
        high.age = 0;
        r.accept_flit(Dir::West, normal, 0);
        r.accept_flit(Dir::North, high, 0);
        // Run until both have left; record order.
        let mut order = Vec::new();
        for t in 0..20 {
            for tr in &r.tick(t).traversals {
                order.push(tr.flit.packet.0);
            }
        }
        assert_eq!(order, vec![2, 1], "high priority must leave first");
    }

    #[test]
    fn starved_normal_flit_beats_high_priority() {
        // Disable bypassing so both flits contend for the switch in the same
        // cycle and the outcome is decided purely by SA arbitration.
        let mut c = cfg();
        c.bypass_enabled = false;
        let mut r = Router::new(NodeId(1), mesh(), c);
        let dest = NodeId(3);
        let mut normal = flit(1, FlitKind::HeadTail, dest, 0, Priority::Normal);
        normal.age = c.starvation_age_guard + 500; // way past the guard
        let high = flit(2, FlitKind::HeadTail, dest, 1, Priority::High);
        r.accept_flit(Dir::West, normal, 0);
        r.accept_flit(Dir::North, high, 0);
        let mut order = Vec::new();
        for t in 0..20 {
            for tr in &r.tick(t).traversals {
                order.push(tr.flit.packet.0);
            }
        }
        assert_eq!(order, vec![1, 2], "starved normal flit must win");
    }

    #[test]
    fn packets_on_different_vcs_of_one_port_interleave() {
        // Two 3-flit packets arrive on the same input port but different
        // VCs, heading to different outputs: wormhole keeps each packet
        // contiguous per VC while the switch serves both VCs over time.
        let mut r = Router::new(NodeId(9), mesh(), cfg());
        let mk = |pkt: u64, kind, vc| {
            let mut f = flit(pkt, kind, NodeId(15), vc, Priority::Normal);
            if pkt == 2 {
                f.dest = NodeId(8); // westward
            }
            f
        };
        for (i, kind) in [FlitKind::Head, FlitKind::Body, FlitKind::Tail]
            .into_iter()
            .enumerate()
        {
            r.accept_flit(Dir::North, mk(1, kind, 0), i as u64);
            r.accept_flit(Dir::North, mk(2, kind, 1), i as u64);
        }
        let mut east = Vec::new();
        let mut west = Vec::new();
        for t in 0..30 {
            for tr in &r.tick(t).traversals {
                match tr.out_port {
                    Dir::East => east.push(tr.flit.kind),
                    Dir::West => west.push(tr.flit.kind),
                    other => panic!("unexpected port {other:?}"),
                }
            }
        }
        assert_eq!(east, vec![FlitKind::Head, FlitKind::Body, FlitKind::Tail]);
        assert_eq!(west, vec![FlitKind::Head, FlitKind::Body, FlitKind::Tail]);
    }

    #[test]
    fn ejection_port_serializes_one_flit_per_cycle() {
        // Two single-flit packets arriving on different input ports, both
        // destined here: the local output port can only eject one per cycle.
        let mut r = Router::new(NodeId(5), mesh(), cfg());
        r.accept_flit(
            Dir::West,
            flit(1, FlitKind::HeadTail, NodeId(5), 0, Priority::Normal),
            0,
        );
        r.accept_flit(
            Dir::East,
            flit(2, FlitKind::HeadTail, NodeId(5), 0, Priority::Normal),
            0,
        );
        let mut per_cycle = Vec::new();
        for t in 0..12 {
            per_cycle.push(r.tick(t).traversals.len());
        }
        assert!(
            per_cycle.iter().all(|&n| n <= 1),
            "ejected >1 flit in a cycle"
        );
        assert_eq!(per_cycle.iter().sum::<usize>(), 2);
    }

    #[test]
    fn distinct_outputs_traverse_in_parallel() {
        // Flits bound for different output ports can cross the switch in the
        // same cycle (crossbar parallelism).
        let mut r = Router::new(NodeId(9), mesh(), cfg());
        r.accept_flit(
            Dir::West,
            flit(1, FlitKind::HeadTail, NodeId(15), 0, Priority::Normal), // east
            0,
        );
        r.accept_flit(
            Dir::East,
            flit(2, FlitKind::HeadTail, NodeId(8), 0, Priority::Normal), // west
            0,
        );
        let out = r.tick(4);
        assert_eq!(out.traversals.len(), 2, "independent outputs must overlap");
    }

    #[test]
    fn vnet_classes_use_disjoint_vcs() {
        let c = cfg();
        let mut r = Router::new(NodeId(0), mesh(), c);
        let dest = NodeId(3);
        let mut req = flit(1, FlitKind::HeadTail, dest, 0, Priority::Normal);
        req.vnet = VNet::Request;
        let mut resp = flit(2, FlitKind::HeadTail, dest, 2, Priority::Normal);
        resp.vnet = VNet::Response;
        r.accept_flit(Dir::Local, req, 0);
        r.accept_flit(Dir::Local, resp, 0);
        let mut out_vcs = Vec::new();
        for t in 0..20 {
            for tr in &r.tick(t).traversals {
                out_vcs.push((tr.flit.packet.0, tr.flit.vc));
            }
        }
        assert_eq!(out_vcs.len(), 2);
        let req_vc = out_vcs.iter().find(|(p, _)| *p == 1).unwrap().1;
        let resp_vc = out_vcs.iter().find(|(p, _)| *p == 2).unwrap().1;
        let half = c.vcs_per_port as u8 / 2;
        assert!(req_vc < half, "request must use the request VC class");
        assert!(resp_vc >= half, "response must use the response VC class");
    }
}
