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
//!
//! A VC that cannot win an allocator is *parked* on the one event that can
//! change that — its front leaving the pipeline, a credit for the
//! downstream VC it owns, a VC of its output port being released — and that
//! event files it again, so the allocators visit only VCs that may win
//! (`DESIGN.md` §16).

use noclat_sim::config::NocConfig;
use noclat_sim::Cycle;

use crate::arbiter::{Candidate, RoundRobinArbiter};
use crate::bitset::Bits;
use crate::packet::{accumulate_age, Flit, FlitKind, PacketId, Priority, VNet};
use crate::topology::{Dir, NodeId, Topology};

/// Ports of the widest router (express): the length of per-port set arrays.
const MAX_PORTS: usize = Dir::EXPRESS_ALL.len();

/// Buckets of the pipeline wheel, one per cycle a parked front may wait for.
/// A front is filed at most `min_residency()` (4) cycles before it is ready,
/// so it parks once and is re-filed exactly on its ready cycle.
const PIPE_WHEEL: usize = 8;

// Every input VC of a router that validates is one bit of a `Bits`.
const _: () = assert!(NocConfig::MAX_ROUTER_VCS <= Bits::CAPACITY);

/// What a ring slot holds before its first flit.
const NO_FLIT: Flit = Flit {
    packet: PacketId(0),
    kind: FlitKind::HeadTail,
    dest: NodeId(0),
    vnet: VNet::Request,
    priority: Priority::Normal,
    age: 0,
    batch: 0,
    vc: 0,
    arrived_at: 0,
    ready_at: 0,
};

/// State of one input VC. All input VCs of a router live in one flat array
/// indexed `port * vcs_per_port + vc` — the arbiter tag, and the VC's bit in
/// every set — and buffer their flits in a ring of `buffer_depth` slots of
/// `Router::flits`, from `slot * buffer_depth` on.
#[derive(Debug, Clone)]
struct VcState {
    /// Ring position of the front flit.
    head: u8,
    /// Flits buffered.
    len: u8,
    /// Output port of the packet currently at the head of this VC.
    route: Option<Dir>,
    /// Downstream VC allocated to that packet.
    out_vc: Option<u8>,
    /// Downstream VCs `[start, end)` that packet may be granted: its
    /// virtual network's half, narrowed on a torus to the dateline subclass
    /// [`Topology::vc_subclass`] assigns to the hop. Fixed at RC with the route.
    class: (u8, u8),
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

/// Everything one [`Router::tick`] writes besides the router's own state:
/// the per-cycle output and the candidate lists of the allocators. A
/// [`crate::Network`] owns one and lends it to each router in turn, so a
/// steady-state cycle allocates nothing and a router carries no buffers of
/// its own; a router driven standalone creates its own on first use.
#[derive(Debug, Clone, Default)]
pub(crate) struct RouterScratch {
    pub(crate) out: RouterOutput,
    /// The requesters of the port being arbitrated, in `(port, vc)` order.
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
///
/// Every non-empty input VC is a member of exactly one of six sets: the
/// three stage sets `needs_rc`, `needs_va` and `sa_ready` say which stage
/// it waits for, the three parked sets which event (`DESIGN.md` §16).
#[derive(Debug, Clone)]
pub struct Router {
    node: NodeId,
    mesh: Topology,
    cfg: NocConfig,
    /// Input VCs, flat (see [`VcState`]).
    vcs: Vec<VcState>,
    /// The flit rings of every input VC, `buffer_depth` slots each.
    flits: Vec<Flit>,
    /// Free buffer slots at each downstream input VC, flat by
    /// `out_port * vcs_per_port + vc`.
    credits: Vec<u32>,
    /// Downstream VCs a packet currently owns, same indexing.
    out_taken: Bits,
    /// The input VC owning each taken downstream VC, same indexing: the one
    /// VC a credit for it can unpark.
    owner: Vec<u8>,
    va_arb: Vec<RoundRobinArbiter>,
    sa_in_arb: Vec<RoundRobinArbiter>,
    sa_out_arb: Vec<RoundRobinArbiter>,
    counters: RouterCounters,
    /// Total flits buffered across all input VCs.
    occupancy: usize,
    /// Input VCs whose front flit is a header without a route (RC's work).
    needs_rc: Bits,
    /// Routed headers without a downstream VC, by output port (VA's work).
    needs_va: [Bits; MAX_PORTS],
    /// The output ports whose `needs_va` entry is non-empty.
    va_ports: Bits,
    /// VCs with a route and a downstream VC whose front may traverse (SA's
    /// work).
    sa_ready: Bits,
    /// SA VCs whose front is still in the pipeline, by the cycle they are
    /// due — `ready_at`, or `pipe_from` if that is later — modulo
    /// [`PIPE_WHEEL`]. A tick re-files the buckets due since the last one.
    pipe_wheel: [Bits; PIPE_WHEEL],
    /// The first cycle whose wheel bucket no tick has re-filed yet.
    pipe_from: Cycle,
    /// SA VCs without a credit for their downstream VC; re-filed by
    /// [`Router::apply_credit`] for that VC.
    parked_credit: Bits,
    /// Headers with no free downstream VC in their class, by output port;
    /// re-filed when a tail releases a VC of that port.
    parked_va: [Bits; MAX_PORTS],
    /// Scratch of a standalone router (see [`RouterScratch`]).
    scratch: Option<Box<RouterScratch>>,
}

impl Router {
    /// Creates the router `node` (a router-grid id) of `mesh` with the
    /// given NoC parameters. Port arrays are sized per topology (5 ports on
    /// mesh-like fabrics, 9 on express).
    ///
    /// # Panics
    ///
    /// Panics on more input VCs than [`NocConfig::MAX_ROUTER_VCS`] or VCs
    /// deeper than [`NocConfig::MAX_BUFFER_DEPTH`] — bounds
    /// `SystemConfig::validate` reports as a typed error first.
    #[must_use]
    pub fn new(node: NodeId, mesh: Topology, cfg: NocConfig) -> Self {
        let v = cfg.vcs_per_port;
        let ports = mesh.num_ports();
        assert!(
            ports * v <= NocConfig::MAX_ROUTER_VCS,
            "{ports} ports x {v} VCs exceed one router's VC sets"
        );
        assert!(
            cfg.buffer_depth <= NocConfig::MAX_BUFFER_DEPTH,
            "VC buffer depth {} exceeds a one-byte ring position",
            cfg.buffer_depth
        );
        let vcs = mesh
            .ports()
            .iter()
            .flat_map(|&in_port| {
                (0..v).map(move |vc| VcState {
                    head: 0,
                    len: 0,
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
            flits: vec![NO_FLIT; ports * v * cfg.buffer_depth],
            credits: vec![cfg.buffer_depth as u32; ports * v],
            out_taken: Bits::default(),
            owner: vec![0; ports * v],
            va_arb: vec![RoundRobinArbiter::new(); ports],
            sa_in_arb: vec![RoundRobinArbiter::new(); ports],
            sa_out_arb: vec![RoundRobinArbiter::new(); ports],
            counters: RouterCounters::default(),
            occupancy: 0,
            needs_rc: Bits::default(),
            needs_va: [Bits::default(); MAX_PORTS],
            va_ports: Bits::default(),
            sa_ready: Bits::default(),
            pipe_wheel: [Bits::default(); PIPE_WHEEL],
            pipe_from: 0,
            parked_credit: Bits::default(),
            parked_va: [Bits::default(); MAX_PORTS],
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

    /// The front flit of the (non-empty) input VC `slot`.
    fn front(&self, slot: usize) -> &Flit {
        &self.flits[slot * self.cfg.buffer_depth + usize::from(self.vcs[slot].head)]
    }

    /// Free buffer slots in a local-input VC (used by the injection logic,
    /// which sits at zero distance and needs no credit wire).
    #[must_use]
    pub fn local_vc_space(&self, vc: usize) -> usize {
        self.cfg.buffer_depth - self.buffered(self.slot(Dir::Local, vc))
    }

    /// Flits buffered in the input VC `slot`.
    pub(crate) fn buffered(&self, slot: usize) -> usize {
        usize::from(self.vcs[slot].len)
    }

    /// Credits held for the downstream VC `slot` (`out_port * vcs + vc`).
    pub(crate) fn credit(&self, slot: usize) -> u32 {
        self.credits[slot]
    }

    /// Whether a local-input VC currently holds or streams a packet (its
    /// head has not been fully routed out yet, or flits remain buffered).
    #[must_use]
    pub fn local_vc_busy(&self, vc: usize) -> bool {
        let b = &self.vcs[self.slot(Dir::Local, vc)];
        b.len > 0 || b.route.is_some()
    }

    /// Accepts a flit into an input VC buffer, stamping its arrival and
    /// pipeline-readiness times (this is the BW stage; bypass eligibility is
    /// decided here).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the buffer is full (credit protocol
    /// violation); a release build drops the flit instead.
    pub fn accept_flit(&mut self, port: Dir, mut flit: Flit, now: Cycle) {
        let slot = self.slot(port, usize::from(flit.vc));
        let depth = self.cfg.buffer_depth;
        let state = &mut self.vcs[slot];
        let len = usize::from(state.len);
        debug_assert!(
            len < depth,
            "credit violation at {:?} port {:?} vc {}",
            self.node,
            port,
            flit.vc
        );
        if len == depth {
            return; // only a router fed by hand, past its credits, gets here
        }
        let bypass = self.cfg.bypass_enabled && flit.priority == Priority::High && len == 0;
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
        if self.occupancy == 0 {
            // An empty router has nothing parked: its wheel may start at
            // `now`, so the first tick back re-files one bucket, not all.
            self.pipe_from = self.pipe_from.max(now);
        }
        let at = usize::from(state.head) + len;
        self.flits[slot * depth + if at < depth { at } else { at - depth }] = flit;
        state.len += 1;
        self.occupancy += 1;
        if len == 0 {
            // The new front decides which stage the VC waits for. A routed
            // header keeps the front until VA and SA served it, so an empty
            // VC with a route also has its downstream VC.
            match (state.route, state.out_vc) {
                (None, _) => self.needs_rc.insert(slot),
                (Some(_), Some(_)) => self.file_for_sa(slot, now),
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
        // Only the packet owning this downstream VC can have waited for it,
        // and its front was ready when it parked.
        if self.out_taken.contains(slot) {
            let owner = usize::from(self.owner[slot]);
            if self.parked_credit.contains(owner) {
                self.parked_credit.remove(owner);
                self.sa_ready.insert(owner);
            }
        }
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
        if !self.va_ports.is_empty() {
            self.vc_allocate(now, scratch);
        }
        self.unpark_pipeline(now);
        if !self.sa_ready.is_empty() {
            self.switch_allocate_and_traverse(now, scratch);
        }
    }

    /// RC: compute the output port for every VC whose front flit is a header
    /// without a route.
    fn route_compute(&mut self) {
        for slot in self.needs_rc {
            let front = *self.front(slot);
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
            state.class = (class.0 as u8, class.1 as u8);
            self.needs_rc.remove(slot);
            self.needs_va[route.index()].insert(slot);
            self.va_ports.insert(route.index());
        }
    }

    /// The arbitration candidate for the front flit of input VC `slot`.
    fn candidate(&self, slot: usize, now: Cycle) -> Candidate {
        let front = self.front(slot);
        Candidate {
            tag: slot,
            priority: front.priority,
            effective_age: u64::from(front.age) + now.saturating_sub(front.arrived_at),
        }
    }

    /// VA: allocate free downstream VCs to waiting headers, priority-aware,
    /// output port by output port (ascending), each port's requesters in
    /// `(port, vc)` order. A requester left without a VC is parked until a
    /// VC of its port is released.
    fn vc_allocate(&mut self, now: Cycle, scratch: &mut RouterScratch) {
        let (policy, guard) = (self.cfg.starvation, self.cfg.starvation_age_guard);
        for out_port in std::mem::take(&mut self.va_ports) {
            let waiting = std::mem::take(&mut self.needs_va[out_port]);
            // A lone requester needs no arbitration, only a free VC.
            if let Some(slot) = waiting.sole() {
                match self.free_vc_in_class(out_port, slot) {
                    Some(free) => {
                        self.va_arb[out_port].grant_sole();
                        self.grant_vc(slot, out_port, free, now);
                    }
                    None => self.parked_va[out_port].insert(slot),
                }
                continue;
            }
            scratch.candidates.clear();
            for slot in waiting {
                debug_assert!(
                    self.front(slot).kind.is_head(),
                    "VA requester is not a header"
                );
                scratch.candidates.push(self.candidate(slot, now));
            }
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
                self.grant_vc(winner, out_port, free, now);
                scratch.candidates.retain(|c| c.tag != winner);
            }
            for c in &scratch.candidates {
                self.parked_va[out_port].insert(c.tag);
            }
        }
    }

    /// Hands downstream VC `free` of `out_port` to the header at input VC
    /// `slot`, which then waits for SA.
    fn grant_vc(&mut self, slot: usize, out_port: usize, free: usize, now: Cycle) {
        let out_slot = out_port * self.cfg.vcs_per_port + free;
        self.out_taken.insert(out_slot);
        self.owner[out_slot] = slot as u8;
        self.vcs[slot].out_vc = Some(free as u8);
        self.file_for_sa(slot, now);
    }

    /// First free downstream VC of `out_port` within the class RC fixed for
    /// the header at input VC `slot`.
    fn free_vc_in_class(&self, out_port: usize, slot: usize) -> Option<usize> {
        let (start, end) = self.vcs[slot].class;
        let base = out_port * self.cfg.vcs_per_port;
        self.out_taken
            .first_absent(base + usize::from(start), base + usize::from(end))
            .map(|free| free - base)
    }

    /// Files an input VC holding a route and a downstream VC: into
    /// `sa_ready` if its front may traverse at `now`, else parked on what it
    /// waits for — the front's `ready_at`, or a credit.
    fn file_for_sa(&mut self, slot: usize, now: Cycle) {
        let ready_at = self.front(slot).ready_at;
        if ready_at > now {
            self.pipe_wheel[Self::pipe_bucket(ready_at.max(self.pipe_from))].insert(slot);
        } else if self.has_credit(slot) {
            self.sa_ready.insert(slot);
        } else {
            self.parked_credit.insert(slot);
        }
    }

    /// Whether the packet at input VC `slot` may send a flit downstream
    /// (ejection needs no credit).
    fn has_credit(&self, slot: usize) -> bool {
        let state = &self.vcs[slot];
        let route = state.route.expect("SA candidate is routed");
        let out_vc = state.out_vc.expect("SA candidate holds a downstream VC");
        route == Dir::Local || self.credits[self.slot(route, usize::from(out_vc))] > 0
    }

    /// Re-files the fronts of the wheel buckets due from `pipe_from` to
    /// `now`. After a gap of a whole turn (a clock divider, a stall) that is
    /// every bucket, and the fronts not yet ready park again.
    fn unpark_pipeline(&mut self, now: Cycle) {
        let span = (now + 1)
            .saturating_sub(self.pipe_from)
            .min(PIPE_WHEEL as Cycle);
        for cycle in self.pipe_from..self.pipe_from + span {
            for slot in std::mem::take(&mut self.pipe_wheel[Self::pipe_bucket(cycle)]) {
                self.file_for_sa(slot, now);
            }
        }
        self.pipe_from = self.pipe_from.max(now + 1);
    }

    fn pipe_bucket(cycle: Cycle) -> usize {
        cycle as usize % PIPE_WHEEL
    }

    /// SA phase 1 (one VC per input port), SA phase 2 (one input per output
    /// port), then ST for the winners. Every `sa_ready` VC is a candidate:
    /// fronts still in the pipeline and VCs without a credit are parked. A
    /// lone requester wins without its candidate being built.
    fn switch_allocate_and_traverse(&mut self, now: Cycle, scratch: &mut RouterScratch) {
        let v = self.cfg.vcs_per_port;
        let (policy, guard) = (self.cfg.starvation, self.cfg.starvation_age_guard);
        // Phase 1: `winners[in_port]` is that port's winning VC, and
        // `requests[p]` the input ports whose winner asks for output `p`.
        let mut winners = [0; MAX_PORTS];
        let mut requests = [Bits::default(); MAX_PORTS];
        let mut out_ports = Bits::default();
        let ports = self.mesh.num_ports();
        for (in_port, winner) in winners.iter_mut().enumerate().take(ports) {
            let ready = self.sa_ready.window(in_port * v, v);
            let tag = if let Some(vc) = ready.sole() {
                self.sa_in_arb[in_port].grant_sole();
                in_port * v + vc
            } else if ready.is_empty() {
                continue;
            } else {
                scratch.candidates.clear();
                for slot in ready.map(|vc| in_port * v + vc) {
                    scratch.candidates.push(self.candidate(slot, now));
                }
                self.sa_in_arb[in_port]
                    .pick(&scratch.candidates, policy, guard)
                    .expect("an input port with ready VCs has a winner")
            };
            debug_assert!(self.front(tag).ready_at <= now && self.has_credit(tag));
            let out_port = self.vcs[tag].route.expect("SA set is routed").index();
            *winner = tag;
            requests[out_port].insert(in_port);
            out_ports.insert(out_port);
        }
        // Phase 2: per output port, pick one phase-1 winner. A winner asks
        // for exactly one output port, so traversals never disturb the
        // requests of the ports still to come.
        for out_port in out_ports {
            let tag = if let Some(in_port) = requests[out_port].sole() {
                self.sa_out_arb[out_port].grant_sole();
                winners[in_port]
            } else {
                scratch.candidates.clear();
                for in_port in requests[out_port] {
                    scratch
                        .candidates
                        .push(self.candidate(winners[in_port], now));
                }
                self.sa_out_arb[out_port]
                    .pick(&scratch.candidates, policy, guard)
                    .expect("an output port with requesters has a winner")
            };
            self.traverse(tag, now, &mut scratch.out);
        }
    }

    /// ST: move the winning flit out of its buffer, update its age, consume
    /// a credit, release the VC on tails, and emit a credit return.
    fn traverse(&mut self, slot: usize, now: Cycle, out: &mut RouterOutput) {
        let depth = self.cfg.buffer_depth;
        let mut flit = *self.front(slot);
        let state = &mut self.vcs[slot];
        state.head = if usize::from(state.head) + 1 == depth {
            0
        } else {
            state.head + 1
        };
        state.len -= 1;
        let route = state.route.expect("traversing flit has a route");
        let out_vc = state.out_vc.expect("traversing flit has an output VC");
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
        self.sa_ready.remove(slot);
        if flit.kind.is_tail() {
            state.route = None;
            state.out_vc = None;
            self.out_taken.remove(out_slot);
            if state.len > 0 {
                self.needs_rc.insert(slot);
            }
            // The released VC may be the one the parked headers of this
            // port wait for: VA looks at them again next cycle.
            let parked = std::mem::take(&mut self.parked_va[route.index()]);
            if !parked.is_empty() {
                self.needs_va[route.index()].absorb(parked);
                self.va_ports.insert(route.index());
            }
        } else if state.len > 0 {
            self.file_for_sa(slot, now);
        }
    }

    /// The membership rules of the stage and parked sets, checked against a
    /// scan of every VC (debug builds, from `Network::check_active_sets`):
    /// every non-empty VC is in exactly one set and an empty one in none, a
    /// VC parked for a credit holds none, a header parked for a VC has no
    /// free VC in its class, a front parked in the pipeline sits in the
    /// wheel bucket of the cycle it is due, an SA-ready front is ready at
    /// `now` with a credit, the ownership table names every taken
    /// downstream VC, and `occupancy` counts the buffered flits.
    pub(crate) fn check_invariants(&self, now: Cycle) {
        let node = self.node;
        let v = self.cfg.vcs_per_port;
        let (mut non_empty, mut owned, mut buffered) = (Bits::default(), Bits::default(), 0);
        for (slot, state) in self.vcs.iter().enumerate() {
            if state.len > 0 {
                non_empty.insert(slot);
                buffered += usize::from(state.len);
            }
            if let (Some(route), Some(out_vc)) = (state.route, state.out_vc) {
                let out_slot = route.index() * v + usize::from(out_vc);
                assert_eq!(
                    usize::from(self.owner[out_slot]),
                    slot,
                    "router {node}: owner"
                );
                owned.insert(out_slot);
            }
        }
        assert_eq!(self.occupancy, buffered, "router {node}: occupancy");
        assert_eq!(owned, self.out_taken, "router {node}: taken downstream VCs");
        let mut filed = Bits::default();
        let mut file = |set: Bits| {
            assert!(!filed.overlaps(set), "router {node}: a VC is in two sets");
            filed.absorb(set);
        };
        file(self.needs_rc);
        file(self.sa_ready);
        for bucket in self.pipe_wheel {
            file(bucket);
        }
        file(self.parked_credit);
        for port in 0..self.mesh.num_ports() {
            file(self.needs_va[port]);
            file(self.parked_va[port]);
            assert_eq!(
                self.va_ports.contains(port),
                !self.needs_va[port].is_empty(),
                "router {node}: VA port mask at port {port}"
            );
            for slot in self.needs_va[port] {
                assert_eq!(self.vcs[slot].route, Some(self.mesh.ports()[port]));
            }
            for slot in self.parked_va[port] {
                assert_eq!(self.vcs[slot].route, Some(self.mesh.ports()[port]));
                assert_eq!(
                    self.free_vc_in_class(port, slot),
                    None,
                    "router {node}: VC {slot} parked for a VC while one of its class is free"
                );
            }
        }
        assert_eq!(
            filed, non_empty,
            "router {node}: the non-empty VCs are not all filed"
        );
        for slot in self.sa_ready {
            assert!(
                self.front(slot).ready_at <= now && self.has_credit(slot),
                "router {node}: SA-ready VC {slot} cannot traverse at {now}"
            );
        }
        for slot in self.parked_credit {
            assert!(
                !self.has_credit(slot),
                "router {node}: VC {slot} parked for a credit holds one"
            );
        }
        for (bucket, parked) in self.pipe_wheel.into_iter().enumerate() {
            for slot in parked {
                let ready_at = self.front(slot).ready_at;
                assert_eq!(
                    Self::pipe_bucket(ready_at.max(self.pipe_from)),
                    bucket,
                    "router {node}: VC {slot}'s front, ready at {ready_at}, is parked in the \
                     wrong bucket (wheel from {})",
                    self.pipe_from
                );
            }
        }
    }

    /// Total flits currently buffered in this router, recounted from the
    /// buffers (test/diagnostic aid; [`Router::occupancy`] is the running
    /// count).
    #[must_use]
    pub fn buffered_flits(&self) -> usize {
        self.vcs.iter().map(|v| usize::from(v.len)).sum()
    }

    /// Longest time any buffered flit has waited at this router (watchdog
    /// starvation probe). Only the front flit of each VC is inspected: VC
    /// buffers are FIFOs, so the front is the oldest.
    #[must_use]
    pub fn oldest_buffered_wait(&self, now: Cycle) -> Option<Cycle> {
        (0..self.vcs.len())
            .filter(|&slot| self.vcs[slot].len > 0)
            .map(|slot| now.saturating_sub(self.front(slot).arrived_at))
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

    // -- parking: each path wakes on the cycle its event allows ----------

    /// `(cycle, packet, kind, downstream vc)` of every traversal over `cycles`.
    fn sent_over(
        r: &mut Router,
        cycles: std::ops::Range<Cycle>,
    ) -> Vec<(Cycle, u64, FlitKind, u8)> {
        let mut sent = Vec::new();
        for t in cycles {
            for tr in &r.tick(t).traversals {
                sent.push((t, tr.flit.packet.0, tr.flit.kind, tr.flit.vc));
            }
        }
        sent
    }

    #[test]
    fn piped_front_traverses_at_its_ready_cycle_across_skipped_ticks() {
        let mut r = Router::new(NodeId(0), mesh(), cfg());
        let slot = r.slot(Dir::Local, 0);
        let dest = NodeId(3);
        r.accept_flit(
            Dir::Local,
            flit(1, FlitKind::HeadTail, dest, 0, Priority::Normal),
            10,
        );
        // Tick 10 routes and allocates, and parks the front in the bucket
        // of cycle 14.
        assert!(r.tick(10).traversals.is_empty());
        assert!(r.pipe_wheel[14 % PIPE_WHEEL].contains(slot) && !r.sa_ready.contains(slot));
        assert_eq!(r.pipe_from, 11);
        r.check_invariants(10);
        assert!(r.tick(13).traversals.is_empty());
        assert_eq!(
            sent_over(&mut r, 14..15),
            vec![(14, 1, FlitKind::HeadTail, 0)]
        );
        assert!(r.pipe_wheel.iter().all(|b| b.is_empty()));
        // A clock-divided router ticking long after `ready_at` still finds
        // the front, with the whole wait in its age.
        r.accept_flit(
            Dir::Local,
            flit(2, FlitKind::HeadTail, dest, 0, Priority::Normal),
            20,
        );
        assert!(r.tick(21).traversals.is_empty());
        assert!(r.pipe_wheel[24 % PIPE_WHEEL].contains(slot));
        let out = r.tick(30);
        assert_eq!(out.traversals.len(), 1);
        assert_eq!(out.traversals[0].flit.age, 10);
        r.check_invariants(30);
    }

    #[test]
    fn a_router_stalled_past_a_turn_of_the_wheel_finds_its_fronts_on_the_first_tick_back() {
        let mut r = Router::new(NodeId(1), mesh(), cfg());
        let dest = NodeId(3);
        let (early, late) = (r.slot(Dir::Local, 0), r.slot(Dir::West, 0));
        r.accept_flit(
            Dir::Local,
            flit(1, FlitKind::HeadTail, dest, 0, Priority::Normal),
            20,
        );
        assert!(r.tick(20).traversals.is_empty());
        assert!(r.pipe_wheel[24 % PIPE_WHEEL].contains(early));
        // Stalled from 21 to 37, more than a turn of the wheel; a second
        // front arrives at 37, ready at 41.
        r.accept_flit(
            Dir::West,
            flit(2, FlitKind::HeadTail, dest, 0, Priority::Normal),
            37,
        );
        // The first tick back re-files every bucket: the early front
        // traverses with its whole wait in its age, the late one parks
        // again until its own ready cycle.
        let out = r.tick(38);
        assert_eq!(out.traversals.len(), 1);
        assert_eq!(out.traversals[0].flit.packet, PacketId(1));
        assert_eq!(out.traversals[0].flit.age, 18);
        assert!(r.pipe_wheel[41 % PIPE_WHEEL].contains(late));
        r.check_invariants(38);
        assert_eq!(
            sent_over(&mut r, 39..50),
            vec![(41, 2, FlitKind::HeadTail, 1)]
        );
        r.check_invariants(49);
    }

    #[test]
    fn credit_starved_vc_traverses_on_the_tick_after_its_credit() {
        let c = cfg();
        let mut r = Router::new(NodeId(0), mesh(), c);
        let flits = packet_of(c.buffer_depth + 1, NodeId(3));
        assert_eq!(drive(&mut r, &flits, 300), c.buffer_depth);
        // The tail fronts Local VC 0 with East VC 0's credits spent.
        let slot = r.slot(Dir::Local, 0);
        assert!(r.parked_credit.contains(slot) && !r.sa_ready.contains(slot));
        r.check_invariants(299);
        assert!(sent_over(&mut r, 300..320).is_empty());
        r.apply_credit(Dir::East, 0);
        assert!(r.sa_ready.contains(slot), "the credit re-files its owner");
        assert_eq!(
            sent_over(&mut r, 320..330),
            vec![(320, 7, FlitKind::Tail, 0)]
        );
        r.check_invariants(329);
    }

    #[test]
    fn blocked_header_is_granted_on_the_tick_after_a_tail_frees_its_vc() {
        // Router 1: packets 1 and 2 from the Local port take both request
        // VCs of the East port; packet 3 from the West port finds none free.
        let mut r = Router::new(NodeId(1), mesh(), cfg());
        let dest = NodeId(3);
        let normal = |pkt, kind, vc| flit(pkt, kind, dest, vc, Priority::Normal);
        r.accept_flit(Dir::Local, normal(1, FlitKind::Head, 0), 0); // keeps VC 0
        r.accept_flit(Dir::Local, normal(2, FlitKind::Head, 1), 0);
        let mut sent = sent_over(&mut r, 0..1);
        r.accept_flit(Dir::West, normal(3, FlitKind::HeadTail, 0), 1);
        sent.extend(sent_over(&mut r, 1..20));
        let blocked = r.slot(Dir::West, 0);
        assert!(r.parked_va[Dir::East.index()].contains(blocked));
        r.check_invariants(19);
        // Packet 2's tail arrives at 20, is ready at 24 and frees VC 1.
        r.accept_flit(Dir::Local, normal(2, FlitKind::Tail, 1), 20);
        sent.extend(sent_over(&mut r, 20..40));
        let tail = sent
            .iter()
            .find(|s| s.1 == 2 && s.2 == FlitKind::Tail)
            .expect("tail left")
            .0;
        assert_eq!(tail, 24);
        let granted = sent.iter().find(|s| s.1 == 3).copied();
        assert_eq!(granted, Some((tail + 1, 3, FlitKind::HeadTail, 1)));
        r.check_invariants(39);
    }
}
