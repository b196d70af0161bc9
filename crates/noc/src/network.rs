//! The mesh network: routers, links, credit returns, injection queues and
//! ejection (packet reassembly).
//!
//! [`Network`] is generic over the payload type `P`; payloads are held in a
//! side table while their flits are in flight, so flits stay small and
//! `Copy`. Injection queues and ejection inboxes are unbounded (standard
//! source/sink simplification): the network interior is fully flow-controlled
//! by credits, while end-point protocol queues are bounded in practice by
//! the cores' instruction windows and MSHRs.

use std::collections::{HashMap, VecDeque};

/// Struct-of-arrays side table for packets in flight.
///
/// Metadata, payloads and head-flit ages live in parallel vectors indexed by
/// slot; a [`PacketId`] packs `(generation << 32) | slot` so freed slots can
/// be reused without ever aliasing a live id. Compared to the former
/// `HashMap<u64, (PacketMeta, P)>`, lookups are direct indexing and the hot
/// metadata scan stays dense in cache.
#[derive(Debug, Clone)]
struct PacketStore<P> {
    metas: Vec<PacketMeta>,
    payloads: Vec<Option<P>>,
    /// Head-flit age recorded at ejection; `u32::MAX` = not yet recorded
    /// (real ages saturate at 4095, so the sentinel is unreachable).
    head_ages: Vec<u32>,
    /// Current generation per slot; bumped when the slot is freed.
    gens: Vec<u32>,
    free: Vec<u32>,
    live: usize,
}

const HEAD_AGE_UNSET: u32 = u32::MAX;

impl<P> PacketStore<P> {
    fn new() -> Self {
        PacketStore {
            metas: Vec::new(),
            payloads: Vec::new(),
            head_ages: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    fn pack(gen: u32, slot: u32) -> PacketId {
        PacketId((u64::from(gen) << 32) | u64::from(slot))
    }

    fn unpack(id: PacketId) -> (u32, u32) {
        ((id.0 >> 32) as u32, id.0 as u32)
    }

    /// Slot index for `id` if that id is still live.
    fn slot_of(&self, id: PacketId) -> Option<usize> {
        let (gen, slot) = Self::unpack(id);
        let s = slot as usize;
        (s < self.gens.len() && self.gens[s] == gen && self.payloads[s].is_some()).then_some(s)
    }

    /// Allocates a slot, builds the metadata from the assigned id, and
    /// stores both.
    fn insert_with(
        &mut self,
        make_meta: impl FnOnce(PacketId) -> PacketMeta,
        payload: P,
    ) -> PacketId {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            let s = slot as usize;
            let id = Self::pack(self.gens[s], slot);
            self.metas[s] = make_meta(id);
            self.payloads[s] = Some(payload);
            self.head_ages[s] = HEAD_AGE_UNSET;
            id
        } else {
            let slot = self.metas.len() as u32;
            let id = Self::pack(0, slot);
            self.metas.push(make_meta(id));
            self.payloads.push(Some(payload));
            self.head_ages.push(HEAD_AGE_UNSET);
            self.gens.push(0);
            id
        }
    }

    fn meta(&self, id: PacketId) -> Option<&PacketMeta> {
        self.slot_of(id).map(|s| &self.metas[s])
    }

    fn set_head_age(&mut self, id: PacketId, age: u32) {
        if let Some(s) = self.slot_of(id) {
            self.head_ages[s] = age;
        }
    }

    fn take_head_age(&mut self, id: PacketId) -> Option<u32> {
        let s = self.slot_of(id)?;
        let age = std::mem::replace(&mut self.head_ages[s], HEAD_AGE_UNSET);
        (age != HEAD_AGE_UNSET).then_some(age)
    }

    /// Removes a live packet, freeing its slot for reuse under a new
    /// generation.
    fn remove(&mut self, id: PacketId) -> Option<(PacketMeta, P)> {
        let s = self.slot_of(id)?;
        let payload = self.payloads[s].take().expect("slot_of checked payload");
        self.gens[s] = self.gens[s].wrapping_add(1);
        self.free.push(s as u32);
        self.live -= 1;
        Some((self.metas[s], payload))
    }

    fn len(&self) -> usize {
        self.live
    }
}

use noclat_sim::calendar::Calendar;
use noclat_sim::config::{NocConfig, StarvationPolicy};
use noclat_sim::error::SimError;
use noclat_sim::faults::{FaultPlan, LinkFaultState, LinkOutcome, RouterStallState};
use noclat_sim::stats::{Counter, RunningMean};
use noclat_sim::Cycle;

use crate::bitset::BitSet;
use crate::packet::{
    accumulate_age, Delivered, Flit, FlitKind, PacketId, PacketMeta, Priority, VNet,
};
use crate::router::{Router, RouterCounters, RouterScratch};
use crate::topology::{Dir, NodeId, Topology};

/// Network-wide event counters and latency aggregates.
#[derive(Debug, Clone, Default)]
pub struct NetworkStats {
    /// Packets handed to [`Network::inject`].
    pub packets_injected: Counter,
    /// Packets fully delivered to their destination inbox.
    pub packets_delivered: Counter,
    /// Packets injected at high priority.
    pub high_priority_injected: Counter,
    /// Per-leg network latency of request-class packets.
    pub request_latency: RunningMean,
    /// Per-leg network latency of response-class packets.
    pub response_latency: RunningMean,
    /// Packets destroyed by injected link faults (head flit dropped).
    pub packets_dropped: Counter,
    /// Individual flits destroyed by injected link faults.
    pub flits_dropped: Counter,
}

/// One switch traversal, as seen by a [`Network::tick_with`] observer: a
/// flit leaving `node` through `out_port` (`Local` = ejection at that node).
///
/// This is the per-hop probe point of the policy layer. The observer is a
/// generic closure, so [`Network::tick`] — which passes an empty one —
/// monomorphizes to exactly the pre-probe code.
#[derive(Debug, Clone, Copy)]
pub struct Hop {
    /// Router the flit is leaving.
    pub node: NodeId,
    /// Output port (`Local` = ejection).
    pub out_port: Dir,
    /// Priority class of the flit.
    pub priority: Priority,
    /// Virtual network the flit travels on.
    pub vnet: VNet,
    /// So-far-delay field after this router's residency.
    pub age: u32,
    /// Cycle of the traversal.
    pub cycle: Cycle,
}

/// A packet waiting at a node for a free injection VC.
#[derive(Debug, Clone, Copy)]
struct PendingPacket {
    id: PacketId,
}

/// A packet currently streaming flits into its bound local VC.
///
/// Carries its own copy of the packet metadata: a fault may drop the head
/// flit (removing the packet from the in-flight table) while later flits are
/// still streaming in at the source, and those flits must keep flowing so
/// the wormhole state unwinds cleanly.
#[derive(Debug, Clone, Copy)]
struct ActiveInjection {
    id: PacketId,
    sent: u8,
    meta: PacketMeta,
}

/// Per-node injection state: FIFOs per (vnet, priority) and the packet bound
/// to each local input VC.
#[derive(Debug, Clone)]
struct Injector {
    /// Index: `vnet.index() * 2 + priority` (high first at dequeue).
    queues: [VecDeque<PendingPacket>; 4],
    /// One slot per local input VC.
    active: Vec<Option<ActiveInjection>>,
    /// Round-robin pointer over VCs for the one-flit-per-cycle local port.
    rr: usize,
    /// Packets queued or still streaming here (zero = nothing to inject).
    pending: usize,
}

impl Injector {
    fn new(vcs: usize) -> Self {
        Injector {
            queues: [
                VecDeque::new(),
                VecDeque::new(),
                VecDeque::new(),
                VecDeque::new(),
            ],
            active: vec![None; vcs],
            rr: 0,
            pending: 0,
        }
    }

    fn queue_index(vnet: VNet, priority: Priority) -> usize {
        vnet.index() * 2 + usize::from(priority == Priority::High)
    }
}

/// `link_peer` entry of a port no link leaves through (mesh edges, `Local`).
const NO_LINK: u32 = u32::MAX;

/// The mesh network.
///
/// A cycle visits only components that hold work: the `busy_*` sets and
/// `mailed` name exactly the routers buffering flits, the injectors with
/// packets left to stream and the tiles with undelivered mail, and the
/// arrival calendar holds the flits on the links by the cycle they land.
/// The sets are walked in ascending index order, so arbitration and
/// delivery order equal a scan of everything (`DESIGN.md` §16). Credits
/// need no per-link state: see `credits_due`.
#[derive(Debug)]
pub struct Network<P> {
    mesh: Topology,
    cfg: NocConfig,
    routers: Vec<Router>,
    /// Routers with `occupancy() > 0`. A stalled or clock-divided router
    /// stays a member until it drains.
    busy_routers: BitSet,
    /// The routers' shared per-cycle scratch and output.
    scratch: RouterScratch,
    /// Flits on the links as `(far-end wire, flit)`, by arrival cycle and
    /// in send order within a cycle. A wire is the `router * num_ports +
    /// input port` slot the flit enters.
    arrivals: Calendar<(u32, Flit)>,
    /// Arrival cycle of the last flit sent down each wire. A flit lands no
    /// earlier, so a wire stays FIFO when a fault delays the flit ahead.
    last_arrival: Vec<Cycle>,
    /// The flits landing this cycle, empty between ticks and kept for its
    /// capacity.
    landed: Vec<(u32, Flit)>,
    /// Credits the routers freed this cycle, as `(upstream router *
    /// num_ports + output port, vc)`.
    credits_sent: Vec<(u32, u8)>,
    /// Credits sent on the previous router cycle, which `deliver_wires`
    /// applies next. Every credit takes exactly one cycle and increments
    /// commute, so this one double-buffered pair serves every link.
    credits_due: Vec<(u32, u8)>,
    /// The cycle `credits_due` lands on.
    credits_due_at: Cycle,
    /// Scratch of the debug-build credit audit (`check_active_sets`).
    credit_audit: Vec<usize>,
    /// Far end of the link at each `router * num_ports + port` slot: the
    /// neighbour's input wire for a flit leaving through `port`, which is
    /// also the upstream `(router, output port)` a credit freed at input
    /// `port` returns to. Built once, so a hop or a credit costs one load
    /// instead of `mesh.neighbor()`'s coordinate arithmetic.
    link_peer: Vec<u32>,
    /// Its inverse: the upstream `(router, output port)` feeding each wire,
    /// by which the credit audit charges a flit on the links to its link.
    link_source: Vec<u32>,
    injectors: Vec<Injector>,
    busy_injectors: BitSet,
    inboxes: Vec<Vec<Delivered<P>>>,
    /// Tiles whose inbox is non-empty.
    mailed: BitSet,
    /// Flits carried per directed link, indexed
    /// `router * num_ports + out_port` (5 ports on mesh-like fabrics, 9 on
    /// express; `Local` = ejections at that router).
    link_flits: Vec<u64>,
    /// Running total of switch traversals: the sum of every router's
    /// `flits_traversed`, kept here so the watchdog reads it in O(1).
    flits_traversed: u64,
    /// Clock divider per router: router `n` arbitrates only on cycles
    /// divisible by `periods[n]` (1 = full speed). Models the heterogeneous
    /// clock domains Equation 1's `FREQ_MULT / local_frequency` term is
    /// designed for.
    periods: Vec<u32>,
    /// Payload, metadata and head-flit age of packets not yet delivered,
    /// stored struct-of-arrays and indexed by packet slot.
    packets: PacketStore<P>,
    stats: NetworkStats,
    /// Injected link faults (empty state = healthy links, zero cost).
    link_faults: LinkFaultState,
    /// Injected router arbitration stalls.
    router_stalls: RouterStallState,
    /// Packets whose head flit was dropped, mapped to the node whose
    /// outgoing link destroyed them. Remaining flits of a doomed packet are
    /// silently discarded at the same link so wormhole state stays
    /// consistent (no tail-less packet ever wedges a downstream VC).
    doomed: HashMap<u64, usize>,
    /// Dropped packets awaiting pickup by [`Network::take_dropped`].
    dropped: Vec<(PacketMeta, P)>,
}

impl<P> Network<P> {
    /// Creates a healthy network over `mesh` with the given NoC parameters.
    #[must_use]
    pub fn new(mesh: Topology, cfg: NocConfig) -> Self {
        Self::with_faults(mesh, cfg, &FaultPlan::none())
    }

    /// Creates a network with an injected fault plan (link drops/delays and
    /// router stalls; bank and ingress faults are consumed by the memory
    /// controllers, not the network).
    #[must_use]
    pub fn with_faults(mesh: Topology, cfg: NocConfig, plan: &FaultPlan) -> Self {
        // Tiles and routers coincide except on a concentrated mesh, where
        // several tiles share one router: router-side state (wires, ports,
        // clock dividers, injection front-ends) is per router, while
        // delivery inboxes stay per tile.
        let tiles = mesh.num_nodes();
        let n = mesh.num_routers();
        let ports = mesh.num_ports();
        let link_peer: Vec<u32> = mesh
            .routers()
            .flat_map(|r| mesh.ports().iter().map(move |&d| (r, d)))
            .map(|(r, d)| {
                mesh.neighbor(r, d).map_or(NO_LINK, |nb| {
                    (nb.index() * ports + d.opposite().index()) as u32
                })
            })
            .collect();
        let mut link_source = vec![NO_LINK; n * ports];
        for (up, &wire) in link_peer.iter().enumerate() {
            if wire != NO_LINK {
                link_source[wire as usize] = up as u32;
            }
        }
        Network {
            mesh,
            cfg,
            routers: mesh
                .routers()
                .map(|id| Router::new(id, mesh, cfg))
                .collect(),
            busy_routers: BitSet::new(n),
            scratch: RouterScratch::default(),
            arrivals: Calendar::new(cfg.link_latency),
            last_arrival: vec![0; n * ports],
            landed: Vec::new(),
            credits_sent: Vec::new(),
            credits_due: Vec::new(),
            credits_due_at: 0,
            credit_audit: Vec::new(),
            link_peer,
            link_source,
            injectors: (0..n).map(|_| Injector::new(cfg.vcs_per_port)).collect(),
            busy_injectors: BitSet::new(n),
            inboxes: (0..tiles).map(|_| Vec::new()).collect(),
            mailed: BitSet::new(tiles),
            link_flits: vec![0; n * ports],
            flits_traversed: 0,
            periods: vec![1; n],
            packets: PacketStore::new(),
            stats: NetworkStats::default(),
            link_faults: LinkFaultState::new(plan),
            router_stalls: RouterStallState::new(plan),
            doomed: HashMap::new(),
            dropped: Vec::new(),
        }
    }

    /// The mesh this network spans.
    #[must_use]
    pub fn mesh(&self) -> Topology {
        self.mesh
    }

    /// Network-wide statistics.
    #[must_use]
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Sum of all routers' event counters.
    #[must_use]
    pub fn router_counters(&self) -> RouterCounters {
        let mut total = RouterCounters::default();
        for r in &self.routers {
            let c = r.counters();
            total.flits_traversed += c.flits_traversed;
            total.flits_bypassed += c.flits_bypassed;
            total.high_priority_traversed += c.high_priority_traversed;
            total.age_saturations += c.age_saturations;
        }
        total
    }

    /// Total switch traversals so far: `router_counters().flits_traversed`
    /// without the walk over every router (the watchdog's progress signal).
    #[must_use]
    pub fn flits_traversed(&self) -> u64 {
        self.flits_traversed
    }

    /// Flits currently buffered at each router, indexed by node (watchdog
    /// diagnostic snapshot).
    #[must_use]
    pub fn router_queue_depths(&self) -> Vec<usize> {
        self.routers.iter().map(Router::buffered_flits).collect()
    }

    /// The longest any buffered flit has waited at any router, with the
    /// router holding it (watchdog starvation probe; `None` when the network
    /// interior is empty).
    #[must_use]
    pub fn max_buffered_wait(&self, now: Cycle) -> Option<(NodeId, Cycle)> {
        self.routers
            .iter()
            .filter_map(|r| r.oldest_buffered_wait(now).map(|w| (r.node(), w)))
            .max_by_key(|&(_, w)| w)
    }

    /// Number of packets injected but not yet delivered.
    #[must_use]
    pub fn packets_in_flight(&self) -> usize {
        self.packets.len()
    }

    /// The next cycle (at or after `now`) at which ticking the network could
    /// do any work, or `None` when the network is completely drained (the
    /// event kernel's wake-up).
    ///
    /// Any injector-side state (queued or actively streaming packets) or
    /// buffered flit inside a router means "busy right now" — arbitration,
    /// clock dividers and stall faults make the precise next-progress cycle
    /// expensive to predict, and a whole-system skip only happens when every
    /// component is quiet anyway. With all of those empty, the only latent
    /// events are flits still travelling on wires and credits still due;
    /// skipping past a credit's arrival would make the first post-skip
    /// arbitration see stale credit state, so the arrival calendar's
    /// earliest cycle and the credits' landing cycle are exact wake-ups.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.busy_injectors.is_empty() || !self.busy_routers.is_empty() {
            return Some(now);
        }
        let credits = (!self.credits_due.is_empty()).then_some(self.credits_due_at);
        self.arrivals
            .next_due()
            .into_iter()
            .chain(credits)
            .min()
            .map(|t| t.max(now))
    }

    /// Slows router `node` (a router-grid id) down to arbitrate once every
    /// `period` cycles (1 = full speed). Flits still arrive and buffer at
    /// wire speed; only the router pipeline is clock-divided, as in a
    /// slower clock domain.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ZeroClockPeriod`] if `period` is zero and
    /// [`SimError::NodeOutOfRange`] if `node` is outside the router grid.
    pub fn set_node_period(&mut self, node: NodeId, period: u32) -> Result<(), SimError> {
        if period == 0 {
            return Err(SimError::ZeroClockPeriod);
        }
        let nodes = self.mesh.num_routers();
        if node.index() >= nodes {
            return Err(SimError::NodeOutOfRange {
                node: node.index(),
                nodes,
            });
        }
        self.periods[node.index()] = period;
        Ok(())
    }

    /// Flits carried by the directed link leaving router `node` through
    /// `port` (`Local` counts ejections at that router).
    #[must_use]
    pub fn link_flits(&self, node: NodeId, port: Dir) -> u64 {
        self.link_flits[node.index() * self.mesh.num_ports() + port.index()]
    }

    /// Per-router total of flits forwarded onto links (a congestion
    /// heat-map: hot routers forward the most flits). Ejections (`Local`)
    /// are excluded; express channels count like any other link.
    #[must_use]
    pub fn node_forwarding_heat(&self) -> Vec<u64> {
        let ports = self.mesh.num_ports();
        (0..self.routers.len())
            .map(|n| {
                self.mesh
                    .ports()
                    .iter()
                    .filter(|d| **d != Dir::Local)
                    .map(|d| self.link_flits[n * ports + d.index()])
                    .sum()
            })
            .collect()
    }

    /// Hands a packet to the network for delivery.
    ///
    /// `initial_age` seeds the header's so-far-delay field (the delay the
    /// enclosing transaction accumulated before this network leg).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ZeroFlitPacket`] if `num_flits` is zero and
    /// [`SimError::NodeOutOfRange`] if src or dest is outside the mesh.
    #[allow(clippy::too_many_arguments)]
    pub fn inject(
        &mut self,
        src: NodeId,
        dest: NodeId,
        vnet: VNet,
        priority: Priority,
        num_flits: u8,
        initial_age: u32,
        payload: P,
        now: Cycle,
    ) -> Result<PacketId, SimError> {
        if num_flits == 0 {
            return Err(SimError::ZeroFlitPacket);
        }
        let nodes = self.mesh.num_nodes();
        for n in [src, dest] {
            if n.index() >= nodes {
                return Err(SimError::NodeOutOfRange {
                    node: n.index(),
                    nodes,
                });
            }
        }
        let max_age = self.cfg.max_age();
        let id = self.packets.insert_with(
            |id| PacketMeta {
                id,
                src,
                dest,
                vnet,
                priority,
                num_flits,
                initial_age: initial_age.min(max_age),
                injected_at: now,
            },
            payload,
        );
        let router = self.mesh.router_of(src).index();
        let inj = &mut self.injectors[router];
        inj.queues[Injector::queue_index(vnet, priority)].push_back(PendingPacket { id });
        inj.pending += 1;
        self.busy_injectors.insert(router);
        self.stats.packets_injected.inc();
        if priority == Priority::High {
            self.stats.high_priority_injected.inc();
        }
        Ok(id)
    }

    /// Takes all packets delivered to `node` since the last call. A
    /// per-cycle consumer should prefer [`Network::drain_delivered`], which
    /// visits only tiles with mail and allocates nothing.
    pub fn take_delivered(&mut self, node: NodeId) -> Vec<Delivered<P>> {
        self.mailed.remove(node.index());
        self.inboxes[node.index()].drain(..).collect()
    }

    /// Moves every packet delivered since the last call to the end of
    /// `out`: ascending destination tile (`meta.dest`), delivery order
    /// within a tile — the order of calling [`Network::take_delivered`] on
    /// each tile in turn. The inboxes keep their capacity.
    pub fn drain_delivered(&mut self, out: &mut Vec<Delivered<P>>) {
        let mut next = self.mailed.first_from(0);
        while let Some(tile) = next {
            next = self.mailed.first_from(tile + 1);
            self.mailed.remove(tile);
            out.append(&mut self.inboxes[tile]);
        }
    }

    /// Takes all packets destroyed by link faults since the last call,
    /// with their payloads (the recovery layer re-injects from these).
    pub fn take_dropped(&mut self) -> Vec<(PacketMeta, P)> {
        std::mem::take(&mut self.dropped)
    }

    /// Advances the network by one cycle.
    ///
    /// Order matters: routers run *before* wire delivery so that a flit
    /// arriving one cycle behind its (bypassed) predecessor observes the
    /// buffer state after this cycle's switch traversals — without this, a
    /// high-priority body flit would never see the empty buffer that makes
    /// it bypass-eligible (Section 3.3).
    pub fn tick(&mut self, now: Cycle) {
        self.tick_with(now, &mut |_| {});
    }

    /// Like [`Network::tick`], invoking `observer` once per switch
    /// traversal (the per-hop probe point). Monomorphized per closure type:
    /// the no-op observer of `tick` compiles away entirely.
    pub fn tick_with<F: FnMut(&Hop)>(&mut self, now: Cycle, observer: &mut F) {
        self.injection_step(now);
        self.router_step(now, observer);
        self.deliver_wires(now);
        if cfg!(debug_assertions) {
            self.check_active_sets(now);
        }
    }

    /// The membership rules of the active sets, the running counts, each
    /// router's stage and parked sets and credit conservation, checked
    /// against a scan of everything (debug builds, once per tick).
    fn check_active_sets(&mut self, now: Cycle) {
        for (r, router) in self.routers.iter().enumerate() {
            router.check_invariants(now);
            let buffered = router.occupancy();
            assert_eq!(
                self.busy_routers.contains(r),
                buffered > 0,
                "router {r}: busy-set membership with {buffered} flits buffered"
            );
            let inj = &self.injectors[r];
            let pending = inj.queues.iter().map(VecDeque::len).sum::<usize>()
                + inj.active.iter().flatten().count();
            assert_eq!(inj.pending, pending, "injector {r}: pending count");
            assert_eq!(
                self.busy_injectors.contains(r),
                pending > 0,
                "injector {r}: busy-set membership with {pending} packets pending"
            );
        }
        self.check_credit_conservation();
        for (tile, inbox) in self.inboxes.iter().enumerate() {
            assert_eq!(
                self.mailed.contains(tile),
                !inbox.is_empty(),
                "tile {tile}: mailed-set membership"
            );
        }
        assert_eq!(
            self.flits_traversed,
            self.router_counters().flits_traversed,
            "running traversal total"
        );
    }

    /// Credits are conserved per link and VC: the upstream router's credits,
    /// the credits due back to it, the flits on the wire and the flits in
    /// the downstream buffer add up to `buffer_depth` — under faults too,
    /// since a dropped flit refunds its credit.
    fn check_credit_conservation(&mut self) {
        let (ports, v) = (self.mesh.num_ports(), self.cfg.vcs_per_port);
        // Per `(upstream router * ports + output port) * vcs + vc`; the
        // buffer is kept so that a tick allocates nothing after the first.
        let mut held = std::mem::take(&mut self.credit_audit);
        held.clear();
        held.resize(self.link_peer.len() * v, 0);
        for &(up, vc) in self.credits_due.iter().chain(&self.credits_sent) {
            held[up as usize * v + usize::from(vc)] += 1;
        }
        for (wire, flit) in self.arrivals.iter() {
            let up = self.link_source[*wire as usize] as usize;
            held[up * v + usize::from(flit.vc)] += 1;
        }
        for (up, &wire) in self.link_peer.iter().enumerate() {
            if wire == NO_LINK {
                continue;
            }
            let wire = wire as usize;
            let (router, down) = (&self.routers[up / ports], &self.routers[wire / ports]);
            let (out_port, in_port) = (up % ports, wire % ports);
            for vc in 0..v {
                let total = held[up * v + vc]
                    + router.credit(out_port * v + vc) as usize
                    + down.buffered(in_port * v + vc);
                assert_eq!(
                    total,
                    self.cfg.buffer_depth,
                    "credits of router {} port {out_port} VC {vc} are not conserved",
                    up / ports
                );
            }
        }
        self.credit_audit = held;
    }

    /// The carried-age identity, checked on every ejected head flit of a
    /// debug build whose plan has no link fault: the age field holds the
    /// initial age plus every cycle since injection that the head did not
    /// spend on a link — source queue and router residencies, stalls and
    /// slow clock domains included — scaled by `freq_mult` and saturated at
    /// the field's width. Link faults are left out because a delayed link
    /// adds link time the hop count does not know about.
    fn check_carried_age(&self, head: &Flit, now: Cycle) {
        let meta = self
            .packets
            .meta(head.packet)
            .expect("an ejected head's packet is in flight");
        let on_links =
            Cycle::from(self.mesh.hop_distance(meta.src, meta.dest)) * self.cfg.link_latency;
        let expected = accumulate_age(
            meta.initial_age,
            now.saturating_sub(meta.injected_at + on_links),
            self.cfg.freq_mult,
            self.cfg.max_age(),
        );
        assert_eq!(
            head.age, expected,
            "packet {:?} {:?} -> {:?} injected at {} ejected at {now}: carried age",
            head.packet, meta.src, meta.dest, meta.injected_at
        );
    }

    /// Moves arrived flits from the links into the routers, and applies the
    /// credits sent on an earlier cycle.
    ///
    /// Flits land in send order, not wire order: an arriving flit touches
    /// only its own (router, input port, VC) and sets and counters whose
    /// updates commute, and the flits of one VC share a wire, which the
    /// calendar keeps in order.
    fn deliver_wires(&mut self, now: Cycle) {
        let ports = self.mesh.num_ports();
        let port_dirs = self.mesh.ports();
        self.arrivals.drain_due(now, &mut self.landed);
        for (slot, flit) in self.landed.drain(..) {
            let (node, dir) = (slot as usize / ports, port_dirs[slot as usize % ports]);
            self.routers[node].accept_flit(dir, flit, now);
            self.busy_routers.insert(node);
        }
        // Sent on a cycle before `now`, so due by now.
        for (slot, vc) in self.credits_due.drain(..) {
            let (node, dir) = (slot as usize / ports, port_dirs[slot as usize % ports]);
            self.routers[node].apply_credit(dir, vc);
        }
        if !self.credits_sent.is_empty() {
            std::mem::swap(&mut self.credits_due, &mut self.credits_sent);
            self.credits_due_at = now + 1;
        }
    }

    /// Binds pending packets to free local VCs and streams one flit per
    /// virtual network per node per cycle into the local input port (the
    /// network interface serves each message class independently, as in
    /// Garnet-style NIs).
    fn injection_step(&mut self, now: Cycle) {
        let vcs = self.cfg.vcs_per_port;
        let half = vcs / 2;
        let mut next = self.busy_injectors.first_from(0);
        while let Some(node) = next {
            next = self.busy_injectors.first_from(node + 1);
            // Bind pending packets (high-priority queue first per vnet).
            for vnet in [VNet::Request, VNet::Response] {
                let (start, end) = (vnet.index() * half, vnet.index() * half + half);
                for pri_first in [Priority::High, Priority::Normal] {
                    let qi = Injector::queue_index(vnet, pri_first);
                    while !self.injectors[node].queues[qi].is_empty() {
                        let free_vc = (start..end).find(|&v| {
                            self.injectors[node].active[v].is_none()
                                && !self.routers[node].local_vc_busy(v)
                        });
                        let Some(v) = free_vc else { break };
                        let pending = self.injectors[node].queues[qi]
                            .pop_front()
                            .expect("queue non-empty");
                        let meta = *self
                            .packets
                            .meta(pending.id)
                            .expect("pending packet is in flight");
                        self.injectors[node].active[v] = Some(ActiveInjection {
                            id: pending.id,
                            sent: 0,
                            meta,
                        });
                    }
                }
            }
            for vnet in [VNet::Request, VNet::Response] {
                self.stream_one_flit(node, vnet, now);
            }
            if self.injectors[node].pending == 0 {
                self.busy_injectors.remove(node);
            }
        }
    }

    /// Streams at most one flit of `vnet`-class traffic at `node`,
    /// round-robin over that class's active VCs.
    fn stream_one_flit(&mut self, node: usize, vnet: VNet, now: Cycle) {
        let vcs = self.cfg.vcs_per_port;
        let half = vcs / 2;
        let start = vnet.index() * half;
        {
            let rr = self.injectors[node].rr;
            for off in 0..half {
                let v = start + (rr + off) % half;
                let Some(active) = self.injectors[node].active[v] else {
                    continue;
                };
                if self.routers[node].local_vc_space(v) == 0 {
                    continue;
                }
                let meta = &active.meta;
                let kind = match (active.sent, meta.num_flits) {
                    (0, 1) => FlitKind::HeadTail,
                    (0, _) => FlitKind::Head,
                    (s, n) if s + 1 == n => FlitKind::Tail,
                    _ => FlitKind::Body,
                };
                // Charge the time spent waiting in the source queue to the
                // so-far-delay field: the network interface is one of the
                // "stages" of Equation 1.
                let batch = match self.cfg.starvation {
                    StarvationPolicy::Batching { interval } => {
                        (meta.injected_at / Cycle::from(interval.max(1))) as u32
                    }
                    _ => 0,
                };
                let flit = Flit {
                    packet: active.id,
                    kind,
                    dest: meta.dest,
                    vnet: meta.vnet,
                    priority: meta.priority,
                    age: accumulate_age(
                        meta.initial_age,
                        now.saturating_sub(meta.injected_at),
                        self.cfg.freq_mult,
                        self.cfg.max_age(),
                    ),
                    batch,
                    vc: v as u8,
                    arrived_at: now,
                    ready_at: now,
                };
                let num_flits = meta.num_flits;
                self.routers[node].accept_flit(Dir::Local, flit, now);
                self.busy_routers.insert(node);
                let inj = &mut self.injectors[node];
                let slot = inj.active[v].as_mut().expect("active injection");
                slot.sent += 1;
                if slot.sent == num_flits {
                    inj.active[v] = None;
                    inj.pending -= 1;
                }
                inj.rr = (v + 1) % half;
                return; // one flit per vnet per node per cycle
            }
        }
    }

    /// Ticks every router holding flits and routes its outputs onto wires /
    /// inboxes.
    fn router_step<F: FnMut(&Hop)>(&mut self, now: Cycle, observer: &mut F) {
        let ports = self.mesh.num_ports();
        // The routers write into the scratch, the rest of the network reads
        // it: lift it out for the step so both can be borrowed.
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut next = self.busy_routers.first_from(0);
        while let Some(node) = next {
            next = self.busy_routers.first_from(node + 1);
            let node_id = NodeId(node as u16);
            // A slowed router only arbitrates on its own clock edges.
            if !now.is_multiple_of(Cycle::from(self.periods[node])) {
                continue;
            }
            // An injected stall freezes VA/SA entirely; flits keep arriving
            // and buffering at wire speed (deliver_wires still runs).
            if self.router_stalls.is_active() && self.router_stalls.stalled(node, now) {
                continue;
            }
            self.routers[node].tick_into(now, &mut scratch);
            if self.routers[node].occupancy() == 0 {
                self.busy_routers.remove(node);
            }
            self.flits_traversed += scratch.out.traversals.len() as u64;
            for tr in &scratch.out.traversals {
                self.link_flits[node * ports + tr.out_port.index()] += 1;
                observer(&Hop {
                    node: node_id,
                    out_port: tr.out_port,
                    priority: tr.flit.priority,
                    vnet: tr.flit.vnet,
                    age: tr.flit.age,
                    cycle: now,
                });
                if tr.out_port == Dir::Local {
                    self.eject(node_id, tr.flit, now);
                } else {
                    let mut extra_delay: Cycle = 0;
                    if self.link_faults.is_active() || !self.doomed.is_empty() {
                        match self.link_fate(node, &tr.flit, now) {
                            LinkOutcome::Drop => {
                                // The router already did its work (credit
                                // consumed, VC ownership advanced); refund
                                // the credit so the output VC does not leak,
                                // and let remaining flits of the packet be
                                // discarded here too so no tail-less packet
                                // ever reaches downstream.
                                self.routers[node].apply_credit(tr.out_port, tr.flit.vc);
                                continue;
                            }
                            LinkOutcome::Delay(d) => extra_delay = d,
                            LinkOutcome::Deliver => {}
                        }
                    }
                    let wire = self.link_peer[node * ports + tr.out_port.index()];
                    assert_ne!(wire, NO_LINK, "route stays inside mesh");
                    let last = &mut self.last_arrival[wire as usize];
                    *last = (now + self.cfg.link_latency + extra_delay).max(*last);
                    self.arrivals.push(*last, (wire, tr.flit));
                }
            }
            for cr in &scratch.out.credits {
                if cr.in_port == Dir::Local {
                    continue; // injector reads buffer occupancy directly
                }
                let upstream = self.link_peer[node * ports + cr.in_port.index()];
                assert_ne!(upstream, NO_LINK, "credit goes to an existing neighbor");
                self.credits_sent.push((upstream, cr.vc));
            }
        }
        self.scratch = scratch;
    }

    /// Decides what the faulty link leaving `node` does to `flit`.
    ///
    /// Stochastic drop/delay decisions are made once per packet, on the head
    /// flit; body and tail flits inherit the head's fate (dropping a body
    /// flit independently would leave a tail-less worm wedging a downstream
    /// VC forever, which models an unprotected link, not a recoverable one).
    fn link_fate(&mut self, node: usize, flit: &Flit, now: Cycle) -> LinkOutcome {
        if let Some(&doom_node) = self.doomed.get(&flit.packet.0) {
            if doom_node == node {
                self.stats.flits_dropped.inc();
                if flit.kind.is_tail() {
                    self.doomed.remove(&flit.packet.0);
                }
                return LinkOutcome::Drop;
            }
            return LinkOutcome::Deliver;
        }
        if !flit.kind.is_head() || !self.link_faults.is_active() {
            return LinkOutcome::Deliver;
        }
        let outcome = self.link_faults.outcome(node, now);
        if outcome == LinkOutcome::Drop {
            self.stats.flits_dropped.inc();
            self.stats.packets_dropped.inc();
            if !flit.kind.is_tail() {
                self.doomed.insert(flit.packet.0, node);
            }
            if let Some((meta, payload)) = self.packets.remove(flit.packet) {
                self.dropped.push((meta, payload));
            }
        }
        outcome
    }

    /// Consumes a flit at its destination; delivers the packet on its tail.
    fn eject(&mut self, node: NodeId, flit: Flit, now: Cycle) {
        if flit.kind.is_head() {
            if cfg!(debug_assertions) && !self.link_faults.is_active() {
                self.check_carried_age(&flit, now);
            }
            self.packets.set_head_age(flit.packet, flit.age);
        }
        if !flit.kind.is_tail() {
            return;
        }
        let final_age = self.packets.take_head_age(flit.packet).unwrap_or(flit.age);
        let (meta, payload) = self
            .packets
            .remove(flit.packet)
            .expect("delivered packet was in flight");
        debug_assert_eq!(
            self.mesh.router_of(meta.dest),
            node,
            "flit ejected at wrong router"
        );
        let delivered = Delivered {
            meta,
            final_age,
            delivered_at: now,
            payload,
        };
        self.stats.packets_delivered.inc();
        let lat = delivered.network_latency() as f64;
        match meta.vnet {
            VNet::Request => self.stats.request_latency.record(lat),
            VNet::Response => self.stats.response_latency.record(lat),
        }
        // Deliver to the destination *tile*: on a concentrated mesh several
        // tiles share the ejecting router.
        self.inboxes[meta.dest.index()].push(delivered);
        self.mailed.insert(meta.dest.index());
    }
}

/// Number of flits for a message with `payload_bytes` of data: one header
/// flit plus enough flits to carry the payload (Table 1: 128-bit flits, so a
/// 64 B cache line takes 1 + 4 = 5 flits).
#[must_use]
pub fn flits_for_payload(payload_bytes: usize, flit_bits: usize) -> u8 {
    let data_flits = (payload_bytes * 8).div_ceil(flit_bits);
    (1 + data_flits) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use noclat_sim::config::SystemConfig;

    fn network() -> Network<u32> {
        let cfg = SystemConfig::baseline_32();
        Network::new(Topology::new(8, 4), cfg.noc)
    }

    fn run_until_delivered(
        net: &mut Network<u32>,
        dest: NodeId,
        start: Cycle,
        limit: Cycle,
    ) -> (Cycle, Vec<Delivered<u32>>) {
        for t in start..start + limit {
            net.tick(t);
            let got = net.take_delivered(dest);
            if !got.is_empty() {
                return (t, got);
            }
        }
        panic!("packet not delivered within {limit} cycles");
    }

    #[test]
    fn single_flit_end_to_end() {
        let mut net = network();
        let src = NodeId(0);
        let dest = NodeId(7); // 7 hops east
        net.inject(src, dest, VNet::Request, Priority::Normal, 1, 0, 42, 0)
            .unwrap();
        let (t, got) = run_until_delivered(&mut net, dest, 0, 200);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, 42);
        assert_eq!(got[0].meta.src, src);
        // 8 switch traversals (7 forwarding routers + ejection) at 4 cycles
        // of pipeline each, plus 7 link cycles: earliest delivery is t=39.
        assert_eq!(t, 39, "zero-load latency must match the pipeline model");
        assert_eq!(got[0].final_age, 32, "age = 8 routers x 4-cycle residency");
        assert_eq!(net.packets_in_flight(), 0);
    }

    #[test]
    fn multi_flit_packet_arrives_whole() {
        let mut net = network();
        let src = NodeId(3);
        let dest = NodeId(28);
        net.inject(src, dest, VNet::Response, Priority::Normal, 5, 100, 7, 0)
            .unwrap();
        let (_, got) = run_until_delivered(&mut net, dest, 0, 400);
        assert_eq!(got.len(), 1);
        assert!(got[0].final_age >= 100, "initial age must be preserved");
    }

    #[test]
    fn local_delivery_works() {
        let mut net = network();
        let n = NodeId(9);
        net.inject(n, n, VNet::Request, Priority::Normal, 1, 0, 1, 0)
            .unwrap();
        let (_, got) = run_until_delivered(&mut net, n, 0, 50);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn next_event_tracks_idle_and_busy_states() {
        let mut net = network();
        assert_eq!(net.next_event(0), None, "fresh network is fully drained");
        net.inject(
            NodeId(0),
            NodeId(3),
            VNet::Request,
            Priority::Normal,
            1,
            0,
            9,
            0,
        )
        .unwrap();
        assert_eq!(net.next_event(0), Some(0), "queued packet means busy now");
    }

    #[test]
    fn event_driven_delivery_matches_cycle_driven() {
        let dest = NodeId(7);
        let mut reference = network();
        reference
            .inject(
                NodeId(0),
                dest,
                VNet::Request,
                Priority::Normal,
                1,
                0,
                42,
                0,
            )
            .unwrap();
        let (t_ref, _) = run_until_delivered(&mut reference, dest, 0, 200);

        // Event-driven twin: tick only at cycles next_event reports.
        let mut net = network();
        net.inject(
            NodeId(0),
            dest,
            VNet::Request,
            Priority::Normal,
            1,
            0,
            42,
            0,
        )
        .unwrap();
        let mut t: Cycle = 0;
        let mut delivered_at = None;
        while delivered_at.is_none() {
            assert!(t < 500, "packet never delivered");
            let wake = net.next_event(t).expect("packet still in flight");
            t = wake.max(t);
            net.tick(t);
            if !net.take_delivered(dest).is_empty() {
                delivered_at = Some(t);
            }
            t += 1;
        }
        assert_eq!(
            delivered_at,
            Some(t_ref),
            "skipping idle cycles changed timing"
        );
        // Drain trailing credits; the network then reports fully idle.
        while let Some(wake) = net.next_event(t) {
            assert!(t < 1_000, "credits never drained");
            t = wake.max(t);
            net.tick(t);
            t += 1;
        }
        assert_eq!(net.next_event(t), None);
    }

    #[test]
    fn packet_ids_stay_unique_across_slot_reuse() {
        let mut net = network();
        let first = net
            .inject(
                NodeId(0),
                NodeId(1),
                VNet::Request,
                Priority::Normal,
                1,
                0,
                1,
                0,
            )
            .unwrap();
        let (_, got) = run_until_delivered(&mut net, NodeId(1), 0, 100);
        assert_eq!(got[0].meta.id, first);
        let second = net
            .inject(
                NodeId(0),
                NodeId(1),
                VNet::Request,
                Priority::Normal,
                1,
                0,
                2,
                50,
            )
            .unwrap();
        assert_ne!(first, second, "reused slot must carry a fresh generation");
        let (_, got2) = run_until_delivered(&mut net, NodeId(1), 50, 100);
        assert_eq!(got2[0].meta.id, second);
        assert_eq!(got2[0].payload, 2);
    }

    #[test]
    fn high_priority_is_faster_under_load() {
        let cfg = SystemConfig::baseline_32();
        let mesh = Topology::new(8, 4);
        let measure = |priority: Priority| -> f64 {
            let mut net: Network<u32> = Network::new(mesh, cfg.noc);
            // Background traffic: every node hammers node 31.
            let mut t: Cycle = 0;
            let mut probe_latencies = Vec::new();
            let mut next_probe = 50;
            let mut outstanding: Option<(PacketId, Cycle)> = None;
            while t < 6000 {
                if t.is_multiple_of(3) {
                    let src = NodeId((t % 24) as u16);
                    net.inject(src, NodeId(31), VNet::Request, Priority::Normal, 5, 0, 0, t)
                        .unwrap();
                }
                if t == next_probe && outstanding.is_none() {
                    let id = net
                        .inject(NodeId(0), NodeId(31), VNet::Request, priority, 1, 0, 1, t)
                        .unwrap();
                    outstanding = Some((id, t));
                }
                net.tick(t);
                for d in net.take_delivered(NodeId(31)) {
                    if let Some((id, at)) = outstanding {
                        if d.meta.id == id {
                            probe_latencies.push((d.delivered_at - at) as f64);
                            outstanding = None;
                            next_probe = t + 200;
                        }
                    }
                }
                t += 1;
            }
            assert!(!probe_latencies.is_empty(), "no probes delivered");
            probe_latencies.iter().sum::<f64>() / probe_latencies.len() as f64
        };
        let normal = measure(Priority::Normal);
        let high = measure(Priority::High);
        assert!(
            high < normal,
            "high priority ({high:.1}) must beat normal ({normal:.1}) under load"
        );
    }

    #[test]
    fn conservation_no_packet_lost_under_random_traffic() {
        use noclat_sim::rng::SimRng;
        let mut net = network();
        let mut rng = SimRng::new(99);
        let mut injected = 0u64;
        for t in 0..5000u64 {
            if rng.chance(0.4) {
                let src = NodeId(rng.index(32) as u16);
                let dest = NodeId(rng.index(32) as u16);
                let vnet = if rng.chance(0.5) {
                    VNet::Request
                } else {
                    VNet::Response
                };
                let pri = if rng.chance(0.1) {
                    Priority::High
                } else {
                    Priority::Normal
                };
                let flits = if vnet == VNet::Response { 5 } else { 1 };
                net.inject(src, dest, vnet, pri, flits, 0, 0, t).unwrap();
                injected += 1;
            }
            net.tick(t);
        }
        // Drain: no more injections; everything in flight must arrive.
        let mut t = 5000u64;
        while net.packets_in_flight() > 0 && t < 60_000 {
            net.tick(t);
            t += 1;
        }
        assert_eq!(net.packets_in_flight(), 0, "packets stuck in network");
        let delivered: u64 = net.stats().packets_delivered.get();
        assert_eq!(delivered, injected);
    }

    #[test]
    fn age_reflects_path_length() {
        let mut net = network();
        // Short hop: 0 -> 1. Long: 0 -> 31.
        net.inject(
            NodeId(0),
            NodeId(1),
            VNet::Request,
            Priority::Normal,
            1,
            0,
            1,
            0,
        )
        .unwrap();
        let (_, short) = run_until_delivered(&mut net, NodeId(1), 0, 100);
        let mut net2 = network();
        net2.inject(
            NodeId(0),
            NodeId(31),
            VNet::Request,
            Priority::Normal,
            1,
            0,
            2,
            0,
        )
        .unwrap();
        let (_, long) = run_until_delivered(&mut net2, NodeId(31), 0, 300);
        assert!(
            long[0].final_age > short[0].final_age,
            "age must grow with distance ({} vs {})",
            long[0].final_age,
            short[0].final_age
        );
    }

    #[test]
    fn take_delivered_clears_the_inbox() {
        let mut net = network();
        net.inject(
            NodeId(0),
            NodeId(1),
            VNet::Request,
            Priority::Normal,
            1,
            0,
            1,
            0,
        )
        .unwrap();
        let (_, got) = run_until_delivered(&mut net, NodeId(1), 0, 100);
        assert_eq!(got.len(), 1);
        assert!(net.take_delivered(NodeId(1)).is_empty(), "inbox must drain");
    }

    #[test]
    fn initial_age_is_clamped_to_the_field_width() {
        let mut net = network();
        net.inject(
            NodeId(0),
            NodeId(1),
            VNet::Request,
            Priority::Normal,
            1,
            u32::MAX, // far beyond the 12-bit field
            9,
            0,
        )
        .unwrap();
        let (_, got) = run_until_delivered(&mut net, NodeId(1), 0, 100);
        assert!(
            got[0].final_age <= 4095,
            "age {} exceeds 12 bits",
            got[0].final_age
        );
    }

    #[test]
    fn latency_stats_split_by_vnet() {
        let mut net = network();
        net.inject(
            NodeId(0),
            NodeId(3),
            VNet::Request,
            Priority::Normal,
            1,
            0,
            1,
            0,
        )
        .unwrap();
        net.inject(
            NodeId(0),
            NodeId(3),
            VNet::Response,
            Priority::Normal,
            5,
            0,
            2,
            0,
        )
        .unwrap();
        for t in 0..300 {
            net.tick(t);
            let _ = net.take_delivered(NodeId(3));
        }
        assert_eq!(net.stats().request_latency.count(), 1);
        assert_eq!(net.stats().response_latency.count(), 1);
    }

    #[test]
    fn flits_for_payload_matches_table1() {
        assert_eq!(flits_for_payload(64, 128), 5);
        assert_eq!(flits_for_payload(0, 128), 1);
        assert_eq!(flits_for_payload(16, 128), 2);
        assert_eq!(flits_for_payload(17, 128), 3);
    }

    #[test]
    fn slowed_router_delays_traffic_through_it() {
        // Packets 0 -> 2 pass through router 1; dividing router 1's clock
        // by 8 must lengthen the trip, and the slow residency must appear
        // in the age field.
        let deliver = |slow: bool| -> (u64, u32) {
            let cfg = SystemConfig::baseline_32().noc;
            let mut net: Network<u32> = Network::new(Topology::new(8, 4), cfg);
            if slow {
                net.set_node_period(NodeId(1), 8).unwrap();
            }
            net.inject(
                NodeId(0),
                NodeId(2),
                VNet::Request,
                Priority::Normal,
                1,
                0,
                1,
                0,
            )
            .unwrap();
            for t in 0..500 {
                net.tick(t);
                if let Some(d) = net.take_delivered(NodeId(2)).first() {
                    return (d.delivered_at, d.final_age);
                }
            }
            panic!("not delivered");
        };
        let (fast_t, fast_age) = deliver(false);
        let (slow_t, slow_age) = deliver(true);
        assert!(slow_t > fast_t, "slow domain must delay delivery");
        assert!(
            slow_age > fast_age,
            "the extra residency must age the message"
        );
    }

    #[test]
    fn freq_mult_scales_accumulated_age() {
        // The paper's Equation 1 divides local delays by the local clock and
        // multiplies by FREQ_MULT; with a uniform clock, doubling FREQ_MULT
        // doubles every accumulated delay.
        let run_age = |fm: u32| -> u32 {
            let mut cfg = SystemConfig::baseline_32().noc;
            cfg.freq_mult = fm;
            let mut net: Network<u32> = Network::new(Topology::new(8, 4), cfg);
            net.inject(
                NodeId(0),
                NodeId(7),
                VNet::Request,
                Priority::Normal,
                1,
                0,
                1,
                0,
            )
            .unwrap();
            for t in 0..200 {
                net.tick(t);
                let got = net.take_delivered(NodeId(7));
                if let Some(d) = got.first() {
                    return d.final_age;
                }
            }
            panic!("not delivered");
        };
        let a1 = run_age(1);
        let a2 = run_age(2);
        assert_eq!(a2, a1 * 2, "ages must scale with FREQ_MULT");
    }

    #[test]
    fn yx_routing_delivers_everything() {
        use noclat_sim::config::RoutingAlgorithm;
        let mut cfg = SystemConfig::baseline_32();
        cfg.noc.routing = RoutingAlgorithm::YX;
        let mut net: Network<u32> = Network::new(Topology::new(8, 4), cfg.noc);
        // All 64 enter before the first tick, so all are stamped cycle 0.
        for i in 0..64u64 {
            net.inject(
                NodeId((i % 32) as u16),
                NodeId(((i * 7) % 32) as u16),
                VNet::Request,
                Priority::Normal,
                1,
                0,
                i as u32,
                0,
            )
            .unwrap();
        }
        let mut t = 0;
        while net.packets_in_flight() > 0 && t < 20_000 {
            net.tick(t);
            for n in 0..32 {
                let _ = net.take_delivered(NodeId(n));
            }
            t += 1;
        }
        assert_eq!(net.packets_in_flight(), 0, "Y-X routing lost packets");
    }

    #[test]
    fn batching_policy_delivers_everything() {
        use noclat_sim::config::StarvationPolicy;
        let mut cfg = SystemConfig::baseline_32();
        cfg.noc.starvation = StarvationPolicy::Batching { interval: 500 };
        let mut net: Network<u32> = Network::new(Topology::new(8, 4), cfg.noc);
        let mut rng = noclat_sim::rng::SimRng::new(5);
        let mut injected = 0u64;
        for t in 0..3000u64 {
            if rng.chance(0.3) {
                let pri = if rng.chance(0.3) {
                    Priority::High
                } else {
                    Priority::Normal
                };
                net.inject(
                    NodeId(rng.index(32) as u16),
                    NodeId(rng.index(32) as u16),
                    VNet::Response,
                    pri,
                    5,
                    0,
                    0,
                    t,
                )
                .unwrap();
                injected += 1;
            }
            net.tick(t);
        }
        let mut t = 3000;
        while net.packets_in_flight() > 0 && t < 60_000 {
            net.tick(t);
            t += 1;
        }
        assert_eq!(net.packets_in_flight(), 0);
        assert_eq!(net.stats().packets_delivered.get(), injected);
    }

    #[test]
    fn link_counters_track_forwarded_flits() {
        let mut net = network();
        // A single 5-flit packet 0 -> 2 crosses two eastward links and
        // ejects at node 2.
        net.inject(
            NodeId(0),
            NodeId(2),
            VNet::Response,
            Priority::Normal,
            5,
            0,
            1,
            0,
        )
        .unwrap();
        for t in 0..200 {
            net.tick(t);
        }
        assert_eq!(net.link_flits(NodeId(0), Dir::East), 5);
        assert_eq!(net.link_flits(NodeId(1), Dir::East), 5);
        assert_eq!(net.link_flits(NodeId(2), Dir::Local), 5);
        assert_eq!(net.link_flits(NodeId(0), Dir::South), 0);
        let heat = net.node_forwarding_heat();
        assert_eq!(heat[0], 5);
        assert_eq!(heat[1], 5);
        assert_eq!(heat[2], 0, "ejection is not forwarding");
    }

    #[test]
    fn zero_flit_injection_rejected() {
        let mut net = network();
        let got = net.inject(
            NodeId(0),
            NodeId(1),
            VNet::Request,
            Priority::Normal,
            0,
            0,
            1,
            0,
        );
        assert_eq!(got, Err(SimError::ZeroFlitPacket));
    }

    #[test]
    fn out_of_mesh_endpoints_rejected() {
        let mut net = network();
        let got = net.inject(
            NodeId(99),
            NodeId(1),
            VNet::Request,
            Priority::Normal,
            1,
            0,
            1,
            0,
        );
        assert!(matches!(
            got,
            Err(SimError::NodeOutOfRange { node: 99, .. })
        ));
        let got = net.inject(
            NodeId(0),
            NodeId(40),
            VNet::Request,
            Priority::Normal,
            1,
            0,
            1,
            0,
        );
        assert!(matches!(
            got,
            Err(SimError::NodeOutOfRange { node: 40, .. })
        ));
        assert_eq!(
            net.set_node_period(NodeId(0), 0),
            Err(SimError::ZeroClockPeriod)
        );
        assert!(matches!(
            net.set_node_period(NodeId(99), 2),
            Err(SimError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn dropped_packets_are_reported_not_lost() {
        use noclat_sim::faults::{CycleWindow, FaultPlan, LinkFault};
        // Every link drops every head flit in [0, 50): the packet must come
        // back through take_dropped(), with wormhole state fully unwound.
        let mut plan = FaultPlan::none();
        plan.links.push(LinkFault {
            node: None,
            drop_prob: 1.0,
            extra_delay: 0,
            window: CycleWindow { start: 0, end: 50 },
        });
        let cfg = SystemConfig::baseline_32();
        let mut net: Network<u32> = Network::with_faults(Topology::new(8, 4), cfg.noc, &plan);
        net.inject(
            NodeId(0),
            NodeId(7),
            VNet::Response,
            Priority::Normal,
            5,
            0,
            77,
            0,
        )
        .unwrap();
        for t in 0..200 {
            net.tick(t);
        }
        let dropped = net.take_dropped();
        assert_eq!(dropped.len(), 1);
        assert_eq!(dropped[0].1, 77, "payload must come back with the drop");
        assert_eq!(net.packets_in_flight(), 0);
        assert_eq!(net.stats().packets_dropped.get(), 1);
        assert_eq!(net.stats().flits_dropped.get(), 5, "all 5 flits discarded");
        assert_eq!(net.stats().packets_delivered.get(), 0);
        // The network must be fully healthy afterwards: a fresh packet past
        // the fault window sails through.
        net.inject(
            NodeId(0),
            NodeId(7),
            VNet::Response,
            Priority::Normal,
            5,
            0,
            78,
            200,
        )
        .unwrap();
        let (_, got) = run_until_delivered(&mut net, NodeId(7), 200, 300);
        assert_eq!(got[0].payload, 78);
    }

    #[test]
    fn link_delay_faults_slow_but_do_not_lose_packets() {
        use noclat_sim::faults::{CycleWindow, FaultPlan, LinkFault};
        let mut plan = FaultPlan::none();
        plan.links.push(LinkFault {
            node: None,
            drop_prob: 0.0,
            extra_delay: 10,
            window: CycleWindow::ALWAYS,
        });
        let cfg = SystemConfig::baseline_32();
        let mut healthy: Network<u32> = Network::new(Topology::new(8, 4), cfg.noc);
        healthy
            .inject(
                NodeId(0),
                NodeId(7),
                VNet::Request,
                Priority::Normal,
                1,
                0,
                1,
                0,
            )
            .unwrap();
        let (t_healthy, _) = run_until_delivered(&mut healthy, NodeId(7), 0, 400);
        let mut slow: Network<u32> = Network::with_faults(Topology::new(8, 4), cfg.noc, &plan);
        slow.inject(
            NodeId(0),
            NodeId(7),
            VNet::Request,
            Priority::Normal,
            1,
            0,
            1,
            0,
        )
        .unwrap();
        let (t_slow, _) = run_until_delivered(&mut slow, NodeId(7), 0, 400);
        assert!(
            t_slow >= t_healthy + 70,
            "7 faulty links x 10 extra cycles must show up ({t_healthy} -> {t_slow})"
        );
        assert_eq!(slow.stats().packets_dropped.get(), 0);
    }

    #[test]
    fn flits_behind_a_delayed_head_land_with_it_after_the_window_closes() {
        use noclat_sim::faults::{CycleWindow, FaultPlan, LinkFault};
        // Router 0's links add 20 cycles in [0, 5): the head of a 5-flit
        // packet leaves at 4, inside the window, and lands at 25; its body
        // and tail leave after the window closed and must still land behind
        // it. A debug build audits the credits of every link on every tick.
        let mut plan = FaultPlan::none();
        plan.links.push(LinkFault {
            node: Some(0),
            drop_prob: 0.0,
            extra_delay: 20,
            window: CycleWindow { start: 0, end: 5 },
        });
        let cfg = SystemConfig::baseline_32();
        let mut net: Network<u32> = Network::with_faults(Topology::new(8, 4), cfg.noc, &plan);
        net.inject(
            NodeId(0),
            NodeId(2),
            VNet::Response,
            Priority::Normal,
            5,
            0,
            1,
            0,
        )
        .unwrap();
        let mut leaving_router_1 = Vec::new();
        let mut delivered = None;
        for t in 0..100 {
            net.tick_with(t, &mut |hop: &Hop| {
                if hop.node == NodeId(1) {
                    leaving_router_1.push(hop.cycle);
                }
            });
            if let Some(d) = net.take_delivered(NodeId(2)).pop() {
                delivered = Some((t, d.payload));
            }
        }
        // All five landed at 25 and leave router 1 one per cycle from its
        // pipeline depth on, head first (a body flit at the front of an
        // unrouted VC would have wedged it).
        assert_eq!(leaving_router_1, vec![29, 30, 31, 32, 33]);
        assert_eq!(delivered, Some((38, 1)), "the packet arrives whole");
        assert_eq!(net.packets_in_flight(), 0);
        assert_eq!(net.next_event(100), None);
    }

    #[test]
    fn stalled_router_blocks_and_releases_traffic() {
        use noclat_sim::faults::{CycleWindow, FaultPlan, RouterStall};
        let mut plan = FaultPlan::none();
        plan.router_stalls.push(RouterStall {
            node: 1,
            window: CycleWindow { start: 0, end: 100 },
        });
        let cfg = SystemConfig::baseline_32();
        let mut net: Network<u32> = Network::with_faults(Topology::new(8, 4), cfg.noc, &plan);
        net.inject(
            NodeId(0),
            NodeId(2),
            VNet::Request,
            Priority::Normal,
            1,
            0,
            9,
            0,
        )
        .unwrap();
        let (t, got) = run_until_delivered(&mut net, NodeId(2), 0, 400);
        assert_eq!(got[0].payload, 9);
        assert!(
            t >= 100,
            "delivery at {t} should have waited out the stall window"
        );
    }
}
