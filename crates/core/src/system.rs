//! The full NoC-based multicore: cores + private L1s + banked S-NUCA L2 +
//! mesh network + corner memory controllers, wired together with the
//! five-path memory-access protocol of Figure 2 and the two prioritization
//! schemes of Section 3.
//!
//! One [`System::step`] advances everything by one core cycle, in a fixed
//! deterministic order: cores (dispatch/commit, new L1 misses), policy
//! threshold updates, the network, packet deliveries, delayed cache-bank
//! work, and finally the memory controllers.
//!
//! Every network-priority decision is delegated to the policy layer
//! ([`crate::policy`]): request injection at L2 miss goes through a
//! [`RequestPolicy`], response injection at the controllers through a
//! [`ResponsePolicy`], and router arbitration through the
//! `StarvationPolicy` key inside each router. Observers can attach
//! [`Probe`]s to watch hops, controller dequeues and retirements without
//! perturbing the simulation.

use std::collections::HashMap;

use noclat_cache::{L1Access, L1Cache, L2Access, L2Bank, MshrFile, SnucaMap};
use noclat_cpu::{InstrStream, MemAccess, MemToken, MemoryPort, OooCore};
use noclat_mem::{AddressMap, IdlenessMonitor, MemoryController};
use noclat_noc::{
    accumulate_age, flits_for_payload, Delivered, Network, NodeId, Priority, RouterCounters,
    Topology,
};
use noclat_sim::calendar::Calendar;
use noclat_sim::cancel::CancelToken;
use noclat_sim::config::{KernelKind, SystemConfig};
use noclat_sim::error::SimError;
use noclat_sim::rng::SimRng;
use noclat_sim::Cycle;
use noclat_workloads::{SpecApp, SyntheticStream};

use crate::messages::{MemMsg, TxnId};
use crate::metrics::{LatencyTracker, TxnTimes};
use crate::policy::{RequestPolicy, ResponsePolicy};
use crate::probe::{McDequeue, Probe, Retire};
use crate::trace::{TraceLog, TxnRecord};
use crate::watchdog::{LivenessViolation, Snapshot, Watchdog};

/// Token bit marking controller writeback tokens (no response expected).
const WB_FLAG: u64 = 1 << 63;
/// Retry delay when an L2 bank's MSHRs are exhausted.
const MSHR_RETRY_DELAY: Cycle = 8;
/// Base delay before a dropped packet's first re-injection; doubles per
/// attempt (exponential backoff keeps retry storms off a faulty link).
const RETRY_BACKOFF_BASE: Cycle = 64;
/// How often the per-transaction timeout backstop scans in-flight
/// transactions.
const TIMEOUT_SCAN_PERIOD: Cycle = 512;

/// Delay before re-injecting a packet dropped for the `attempt`-th time.
fn retry_backoff(attempt: u32) -> Cycle {
    RETRY_BACKOFF_BASE << (attempt - 1).min(16)
}

/// Everything the system knows about one in-flight L1 miss: the single
/// record every leg of Figure 2 stamps, from issue to retirement.
#[derive(Debug, Clone, Copy)]
struct Txn {
    core: usize,
    line: u64,
    /// Leg-arrival stamps, written in place as each leg lands (`done` at
    /// retirement).
    times: TxnTimes,
    /// Last cycle this transaction made observable progress (a leg arrived
    /// or a retry was scheduled); drives the timeout backstop.
    touched: Cycle,
    /// So-far delay the `MemReq` carried into its controller; the DRAM
    /// completion adds the controller delay to it.
    age_at_mc: u32,
    /// Packets of this transaction dropped so far. The retry budget is
    /// cumulative over the transaction's legs.
    drops: u32,
    /// Already counted by the timeout backstop.
    timed_out: bool,
    /// The access missed in L2 and went to memory.
    offchip: bool,
    /// The access merged into another transaction's L2 MSHR entry.
    merged: bool,
}

/// Fault-recovery counters, exposed through [`System::robustness`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustnessStats {
    /// Packets the network reported dropped by injected link faults.
    pub packets_dropped: u64,
    /// Flits belonging to dropped packets.
    pub flits_dropped: u64,
    /// Dropped packets re-injected by the recovery layer.
    pub retries: u64,
    /// Transactions flagged by the timeout backstop (no progress for longer
    /// than the recovery timeout).
    pub timeouts: u64,
    /// Transactions abandoned after exhausting retries or the timeout
    /// budget.
    pub lost_txns: u64,
    /// Liveness/conservation violations raised by the watchdog.
    pub violations: u64,
}

/// Identity, for retry accounting, of a droppable message that belongs to
/// no transaction (a transaction's legs count in `Txn::drops`): writebacks
/// per line, threshold updates per core and controller node. An entry lives
/// from the message's first drop until its delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum RetryKey {
    Line(u64),
    Threshold(usize, usize),
}

/// Deferred work modeling cache-bank access latencies.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// An L2 lookup for a request that arrived `l2.latency` cycles ago.
    L2Request { node: usize, txn: TxnId, age: u32 },
    /// Apply an L1 writeback at the L2 bank.
    L2Writeback { node: usize, line: u64 },
    /// A memory response finished its L2-side handling; wake L2 waiters.
    L2Fill(Fill),
    /// Re-inject a dropped packet after its backoff delay.
    Reinject {
        src: usize,
        dest: usize,
        priority: Priority,
        msg: MemMsg,
    },
    /// A data response reached the core tile; fill L1 and wake the core.
    CoreFill(Fill),
}

/// A data response (`MemResp` or `L2Resp`) as it arrived at tile `node`.
#[derive(Debug, Clone, Copy)]
struct Fill {
    node: usize,
    txn: TxnId,
    line: u64,
    /// So-far delay on arrival.
    age: u32,
    /// The priority it travelled at; the next leg inherits it.
    priority: Priority,
}

/// A memory controller attached to a mesh corner.
#[derive(Debug)]
struct McNode {
    node: usize,
    ctrl: MemoryController,
    monitor: IdlenessMonitor,
}

/// The memory hierarchy as seen by one core during its tick.
struct TilePort<'a> {
    core: usize,
    l1: &'a mut L1Cache,
    mshr: &'a mut MshrFile<MemToken>,
    next_txn: &'a mut u64,
    txns: &'a mut HashMap<TxnId, Txn>,
    out: &'a mut Vec<(usize, MemMsg)>,
    map: AddressMap,
    l1_latency: Cycle,
}

impl MemoryPort for TilePort<'_> {
    fn access(&mut self, addr: u64, is_write: bool, now: Cycle) -> MemAccess {
        let line = self.map.line_addr(addr);
        // A fill for this line is already in flight: wait on it regardless
        // of what the (already-allocated) tag array says.
        if self.mshr.contains(line) {
            let token = MemToken(*self.next_txn);
            *self.next_txn += 1;
            self.mshr.alloc(line, token);
            return MemAccess::Pending { token };
        }
        match self.l1.access(addr, is_write) {
            L1Access::Hit => MemAccess::Done {
                latency: self.l1_latency,
            },
            L1Access::Miss { writeback } => {
                if let Some(victim) = writeback {
                    self.out
                        .push((self.core, MemMsg::L1Writeback { line: victim }));
                }
                let txn = *self.next_txn;
                *self.next_txn += 1;
                self.mshr.alloc(line, MemToken(txn));
                self.txns.insert(
                    txn,
                    Txn {
                        core: self.core,
                        line,
                        times: TxnTimes {
                            issued: now,
                            at_l2: now,
                            at_mc: now,
                            mc_done: now,
                            back_at_l2: now,
                            done: now,
                        },
                        touched: now,
                        age_at_mc: 0,
                        drops: 0,
                        timed_out: false,
                        offchip: false,
                        merged: false,
                    },
                );
                self.out.push((self.core, MemMsg::L2Req { txn, line }));
                MemAccess::Pending {
                    token: MemToken(txn),
                }
            }
        }
    }
}

/// The assembled multicore system.
pub struct System {
    cfg: SystemConfig,
    now: Cycle,
    net: Network<MemMsg>,
    cores: Vec<OooCore>,
    streams: Vec<Box<dyn InstrStream>>,
    apps: Vec<Option<SpecApp>>,
    l1s: Vec<L1Cache>,
    l1_mshrs: Vec<MshrFile<MemToken>>,
    l2_banks: Vec<L2Bank>,
    l2_mshrs: Vec<MshrFile<TxnId>>,
    /// Deferred work by the cycle it is due, in scheduling order within a
    /// cycle.
    work: Calendar<Action>,
    mcs: Vec<McNode>,
    mc_at_node: Vec<Option<usize>>,
    /// Decision point 1: priority of L2-miss requests entering the request
    /// network (Scheme-2's seam).
    req_policy: RequestPolicy,
    /// Decision point 2: priority of responses injected by the memory
    /// controllers, plus the threshold side-channel (Scheme-1's seam).
    resp_policy: ResponsePolicy,
    /// Attached observers; empty by default, in which case the system runs
    /// the plain monomorphized network path with zero probe overhead.
    probes: Vec<Box<dyn Probe>>,
    txns: HashMap<TxnId, Txn>,
    next_txn: u64,
    next_wb_token: u64,
    tracker: LatencyTracker,
    trace: TraceLog,
    addr_map: AddressMap,
    snuca: SnucaMap,
    data_flits: u8,
    watchdog: Watchdog,
    /// Drop counts of in-flight transaction-less messages; empty on a
    /// fault-free run.
    retry_attempts: HashMap<RetryKey, u32>,
    robust: RobustnessStats,
    /// Cooperative cancellation flag, polled at loop boundaries by
    /// [`System::run`]. `None` when the run is unbounded (no deadline).
    cancel: Option<CancelToken>,
    /// Set once a run loop observed the cancel flag and stopped early.
    interrupted: bool,
    /// Per-step buffers of [`System::tick_cores`],
    /// [`System::handle_deliveries`] and [`System::process_work`], empty
    /// between steps and kept for their capacity.
    outbox: Vec<(usize, MemMsg)>,
    mail: Vec<Delivered<MemMsg>>,
    due_work: Vec<Action>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("now", &self.now)
            .field("cores", &self.cores.len())
            .field("controllers", &self.mcs.len())
            .field("txns_in_flight", &self.txns.len())
            .field("request_policy", &self.req_policy.name())
            .field("response_policy", &self.resp_policy.name())
            .finish_non_exhaustive()
    }
}

impl System {
    /// Builds a system running `apps[i]` on core `i` (the
    /// `Simulation::builder(cfg).workload(&apps).build()` path): synthesizes
    /// one stream per application and records the app assignment for
    /// [`System::app`].
    pub(crate) fn assemble_apps(cfg: SystemConfig, apps: &[SpecApp]) -> Result<System, SimError> {
        let rng = SimRng::new(cfg.seed);
        let streams: Vec<Box<dyn InstrStream>> = apps
            .iter()
            .enumerate()
            .map(|(slot, &app)| {
                Box::new(SyntheticStream::new(app, slot, &rng)) as Box<dyn InstrStream>
            })
            .collect();
        let mut sys = Self::assemble(cfg, streams)?;
        sys.apps = apps.iter().copied().map(Some).collect();
        Ok(sys)
    }

    /// Builds a system from caller-supplied instruction streams, one per
    /// core (the [`crate::simulation::SimulationBuilder`] `streams` path).
    pub(crate) fn assemble(
        cfg: SystemConfig,
        streams: Vec<Box<dyn InstrStream>>,
    ) -> Result<System, SimError> {
        cfg.validate()?;
        let n = cfg.num_cores();
        if streams.len() != n {
            return Err(SimError::StreamCountMismatch {
                streams: streams.len(),
                cores: n,
            });
        }
        let mesh = Topology::from_config(&cfg.topology);
        let addr_map = AddressMap::new(
            cfg.l2.line_bytes,
            cfg.mem.num_controllers,
            cfg.mem.banks_per_controller,
            cfg.mem.row_bytes,
        );
        let mc_nodes = mesh.mc_nodes(cfg.topology.mc_placement, cfg.mem.num_controllers);
        let mut mc_at_node = vec![None; n];
        let mcs: Vec<McNode> = mc_nodes
            .iter()
            .enumerate()
            .map(|(i, &node)| {
                mc_at_node[node.index()] = Some(i);
                McNode {
                    node: node.index(),
                    ctrl: MemoryController::with_faults(cfg.mem, &cfg.faults, i),
                    monitor: IdlenessMonitor::new(
                        cfg.mem.banks_per_controller,
                        cfg.idleness_sample_period,
                        10_000,
                    ),
                }
            })
            .collect();
        let mut sys = System {
            net: Network::with_faults(mesh, cfg.noc, &cfg.faults),
            cores: (0..n).map(|_| OooCore::new(cfg.cpu)).collect(),
            apps: vec![None; n],
            streams,
            l1s: (0..n)
                .map(|_| L1Cache::new(cfg.l1.size_bytes, cfg.l1.line_bytes))
                .collect(),
            l1_mshrs: (0..n).map(|_| MshrFile::new(cfg.cpu.lsq_size)).collect(),
            l2_banks: (0..n)
                .map(|bank| {
                    L2Bank::new_interleaved(
                        cfg.l2.bank_size_bytes,
                        cfg.l2.line_bytes,
                        cfg.l2.associativity,
                        n,
                        bank,
                    )
                })
                .collect(),
            l2_mshrs: (0..n)
                .map(|_| MshrFile::new(cfg.l2.mshrs_per_bank))
                .collect(),
            work: Calendar::new(cfg.l1.latency.max(cfg.l2.latency).max(MSHR_RETRY_DELAY)),
            mcs,
            mc_at_node,
            req_policy: RequestPolicy::new(&cfg, addr_map.total_banks()),
            resp_policy: ResponsePolicy::new(&cfg),
            probes: Vec::new(),
            txns: HashMap::new(),
            next_txn: 0,
            next_wb_token: 0,
            tracker: LatencyTracker::new(n),
            trace: TraceLog::new(64),
            addr_map,
            snuca: SnucaMap::new(n, cfg.l2.line_bytes),
            data_flits: flits_for_payload(cfg.l2.line_bytes, cfg.noc.flit_bits),
            watchdog: Watchdog::new(cfg.watchdog, {
                // The wall-clock starvation bound scales off the age guard,
                // but a disabled (0) or beyond-the-age-field guard can never
                // fire in arbitration — fall back to the representable age
                // ceiling so the watchdog still bounds waiting time when the
                // anti-starvation mechanism itself is switched off.
                let guard = cfg.noc.starvation_age_guard;
                let basis = if guard == 0 || guard > cfg.noc.max_age() {
                    cfg.noc.max_age()
                } else {
                    guard
                };
                Cycle::from(cfg.watchdog.starvation_factor) * Cycle::from(basis)
            }),
            retry_attempts: HashMap::new(),
            robust: RobustnessStats::default(),
            cancel: None,
            interrupted: false,
            outbox: Vec::new(),
            mail: Vec::new(),
            due_work: Vec::new(),
            now: 0,
            cfg,
        };
        sys.prefill_caches();
        Ok(sys)
    }

    /// Installs each stream's fast-forward-resident lines into the tag
    /// arrays (the paper fast-forwards 1 B cycles before measuring; without
    /// this, the cold-start transient — every hot/warm line missing at once —
    /// saturates the memory system for a long ramp-up period).
    fn prefill_caches(&mut self) {
        for core in 0..self.cores.len() {
            let resident = self.streams[core].resident_lines();
            // Warm lines first, hot lines last, so hot lines are the most
            // recently used in both levels.
            for &addr in resident.l2.iter().chain(&resident.l1) {
                let line = self.addr_map.line_addr(addr);
                let bank = self.snuca.bank_of(line);
                let _ = self.l2_banks[bank].access(line, false);
            }
            for &addr in &resident.l1 {
                let _ = self.l1s[core].access(addr, false);
            }
        }
    }

    /// The configuration this system was built with.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The application assigned to `core`, if built from a workload
    /// (`Simulation::builder(cfg).workload(&apps)`).
    #[must_use]
    pub fn app(&self, core: usize) -> Option<SpecApp> {
        self.apps[core]
    }

    /// Per-core commit statistics.
    #[must_use]
    pub fn core_stats(&self, core: usize) -> noclat_cpu::CoreStats {
        self.cores[core].stats()
    }

    /// Latency statistics.
    #[must_use]
    pub fn tracker(&self) -> &LatencyTracker {
        &self.tracker
    }

    /// The slowest off-chip transactions of the measurement window, slowest
    /// first, with their five-path timestamps.
    #[must_use]
    pub fn slowest_transactions(&self) -> Vec<TxnRecord> {
        self.trace.slowest()
    }

    /// Network statistics.
    #[must_use]
    pub fn network_stats(&self) -> &noclat_noc::NetworkStats {
        self.net.stats()
    }

    /// Aggregated router counters.
    #[must_use]
    pub fn router_counters(&self) -> RouterCounters {
        self.net.router_counters()
    }

    /// Per-node count of flits forwarded onto mesh links (congestion
    /// heat-map; index = node id, row-major).
    #[must_use]
    pub fn forwarding_heat(&self) -> Vec<u64> {
        self.net.node_forwarding_heat()
    }

    /// Number of memory controllers.
    #[must_use]
    pub fn num_controllers(&self) -> usize {
        self.mcs.len()
    }

    /// Controller statistics of controller `mc`.
    ///
    /// # Panics
    ///
    /// Panics if `mc` is out of range.
    #[must_use]
    pub fn controller_stats(&self, mc: usize) -> &noclat_mem::ControllerStats {
        self.mcs[mc].ctrl.stats()
    }

    /// Requests inside controller `mc` (front end + queues + in service).
    ///
    /// # Panics
    ///
    /// Panics if `mc` is out of range.
    #[must_use]
    pub fn controller_occupancy(&self, mc: usize) -> usize {
        self.mcs[mc].ctrl.occupancy()
    }

    /// Queue lengths of every bank of controller `mc`.
    ///
    /// # Panics
    ///
    /// Panics if `mc` is out of range.
    #[must_use]
    pub fn bank_queue_lens(&self, mc: usize) -> Vec<usize> {
        (0..self.cfg.mem.banks_per_controller)
            .map(|b| self.mcs[mc].ctrl.queue_len(b))
            .collect()
    }

    /// Bank idleness monitor of controller `mc`.
    ///
    /// # Panics
    ///
    /// Panics if `mc` is out of range.
    #[must_use]
    pub fn idleness(&self, mc: usize) -> &IdlenessMonitor {
        &self.mcs[mc].monitor
    }

    /// Transactions currently in flight.
    #[must_use]
    pub fn txns_in_flight(&self) -> usize {
        self.txns.len()
    }

    /// Packets currently inside the network (injected, not yet delivered or
    /// dropped).
    #[must_use]
    pub fn packets_in_flight(&self) -> usize {
        self.net.packets_in_flight()
    }

    /// Liveness and conservation violations detected so far.
    #[must_use]
    pub fn violations(&self) -> &[LivenessViolation] {
        self.watchdog.violations()
    }

    /// Fault-recovery counters (drops, retries, timeouts, losses).
    #[must_use]
    pub fn robustness(&self) -> RobustnessStats {
        let ns = self.net.stats();
        RobustnessStats {
            packets_dropped: ns.packets_dropped.get(),
            flits_dropped: ns.flits_dropped.get(),
            violations: self.watchdog.violations().len() as u64,
            ..self.robust
        }
    }

    /// Captures the diagnostic state attached to violations.
    fn snapshot(&self, now: Cycle) -> Snapshot {
        Snapshot {
            cycle: now,
            txns_in_flight: self.txns.len(),
            queue_depths: self.net.router_queue_depths(),
        }
    }

    /// Runs the system for `cycles` cycles using the configured kernel
    /// strategy: the cycle kernel steps every cycle; the event kernel
    /// produces bit-identical results but fast-forwards over spans it can
    /// prove no component will act in.
    /// Cancellation is cooperative: when a [`CancelToken`] is attached and
    /// fires mid-run, the loop stops at the next iteration boundary, marks
    /// the system [`System::interrupted`] and returns early with every data
    /// structure intact. A run that completes normally is never affected —
    /// both kernels advance identically whether or not a token is attached.
    pub fn run(&mut self, cycles: Cycle) {
        let end = self.now.saturating_add(cycles);
        match self.cfg.kernel {
            KernelKind::Cycle => {
                while self.now < end {
                    if self.cancel_requested() {
                        return;
                    }
                    self.step();
                }
            }
            KernelKind::Event => self.run_event(end),
        }
    }

    /// The event-wheel driver: steps only the cycles some component needs,
    /// bulk-accounting the provably idle spans in between.
    fn run_event(&mut self, end: Cycle) {
        while self.now < end {
            if self.cancel_requested() {
                return;
            }
            let wake = self.next_wake(self.now).unwrap_or(end).min(end);
            if wake > self.now {
                self.skip_to(wake);
            } else {
                self.step();
            }
        }
    }

    /// Polls the attached cancellation token (one relaxed atomic load per
    /// loop iteration when a token is attached, zero work otherwise) and
    /// latches [`System::interrupted`] on the first observation.
    fn cancel_requested(&mut self) -> bool {
        if self.interrupted {
            return true;
        }
        match &self.cancel {
            Some(token) if token.is_cancelled() => {
                self.interrupted = true;
                true
            }
            _ => false,
        }
    }

    /// Attaches a cooperative cancellation token; [`System::run`] polls it
    /// at loop boundaries and winds down cleanly once it fires.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Whether a run loop stopped early because the attached cancellation
    /// token fired. Once set, further `run` calls return immediately; the
    /// system's state is consistent but its metrics describe a truncated
    /// run and must not be reported as a complete result.
    #[must_use]
    pub fn interrupted(&self) -> bool {
        self.interrupted
    }

    /// The earliest cycle at or after `now` at which stepping could have any
    /// effect: the minimum over every component's own wake-up. `None` means
    /// nothing is scheduled at all (then nothing can happen before the
    /// caller's horizon).
    /// The idleness monitors and the watchdog's polled scans are *not* wake
    /// sources: their inputs are frozen across any span the other sources
    /// allow skipping, so [`System::skip_to`] replays them in bulk at their
    /// exact scheduled cycles instead of waking the whole system for them.
    fn next_wake(&self, now: Cycle) -> Option<Cycle> {
        let mut wake: Option<Cycle> = None;
        let mut fold = |t: Cycle| match wake {
            Some(w) if w <= t => {}
            _ => wake = Some(t),
        };
        // Deferred cache-bank work. Each source checks for "busy right now"
        // before folding the next: a step is already unavoidable then, and
        // the remaining scans would only be thrown away.
        if let Some(due) = self.work.next_due() {
            if due <= now {
                return Some(now);
            }
            fold(due);
        }
        // Network: packets anywhere in the injectors, routers or wires.
        if let Some(t) = self.net.next_event(now) {
            if t == now {
                return Some(now);
            }
            fold(t);
        }
        // Cores: dispatch opportunity or the head's completion time.
        for c in &self.cores {
            if let Some(t) = c.next_wake(now) {
                if t == now {
                    return Some(now);
                }
                fold(t);
            }
        }
        // Controllers: command scheduling and refresh.
        for mc in &self.mcs {
            let t = mc.ctrl.next_event(now);
            if t == now {
                return Some(now);
            }
            fold(t);
        }
        // Policy layer: scheduled threshold broadcasts.
        if let Some(t) = self.resp_policy.next_update() {
            fold(t.max(now));
        }
        // Watchdog: the deadlock deadline, so a trip is detected — and
        // time-stamped — exactly when a cycle-driven run detects it.
        if self.watchdog.enabled() {
            if let Some(t) = self.watchdog.next_deadlock_check(self.txns.len()) {
                fold(t.max(now));
            }
        }
        // Per-transaction timeout backstop scan.
        if self.cfg.recovery.enabled && !self.txns.is_empty() {
            fold(now + (TIMEOUT_SCAN_PERIOD - 1 - now % TIMEOUT_SCAN_PERIOD));
        }
        wake
    }

    /// Fast-forwards from `self.now` to `to` without stepping: every
    /// component proved it cannot act before `to`, so the span's per-cycle
    /// effects — the cores' idle accounting, the watchdog's progress clock,
    /// idleness samples and polled scans — are replayed in bulk.
    fn skip_to(&mut self, to: Cycle) {
        debug_assert!(to > self.now, "skip must move forward");
        let from = self.now;
        let span = to - from;
        for c in &mut self.cores {
            c.account_idle(span);
        }
        // Idleness samples due inside the span: bank queues only change when
        // a controller ticks or a request arrives, and neither can happen in
        // a skipped cycle, so every sample sees the same frozen idle vector —
        // at the exact cycle per-cycle stepping would have recorded it.
        for i in 0..self.mcs.len() {
            if self.mcs[i].monitor.next_sample_at() < to {
                let idle = self.mcs[i].ctrl.idle_banks();
                self.mcs[i].monitor.replay_idle_span(from, to, &idle);
            }
        }
        if self.watchdog.enabled() {
            // Polled scans due inside the span, each at its scheduled cycle:
            // their inputs (router buffers, network counters) are equally
            // frozen, so only the first can record anything new — but *it*
            // must carry the cycle number a per-cycle run would stamp.
            while self.watchdog.next_poll_at() < to {
                let at = self.watchdog.next_poll_at().max(from);
                let due = self.watchdog.poll_due(at);
                debug_assert!(due, "replayed poll must be due");
                self.poll_scan(at);
            }
            self.watchdog.observe_idle_span(to, self.txns.len());
        }
        self.now = to;
    }

    /// Runs `cycles` of warmup, then clears all measurement state (core
    /// commit statistics, latency tracker, idleness monitors) while keeping
    /// caches, queues and schemes warm.
    pub fn warm_up(&mut self, cycles: Cycle) {
        self.tracker.disable();
        self.run(cycles);
        for c in &mut self.cores {
            c.reset_stats();
        }
        self.tracker.reset();
        self.tracker.enable();
        self.trace.clear();
        for mc in &mut self.mcs {
            mc.monitor = IdlenessMonitor::new(
                self.cfg.mem.banks_per_controller,
                self.cfg.idleness_sample_period,
                10_000,
            );
        }
    }

    /// CLI name of the active request-injection policy.
    #[must_use]
    pub fn request_policy_name(&self) -> &'static str {
        self.req_policy.name()
    }

    /// CLI name of the active response-injection policy.
    #[must_use]
    pub fn response_policy_name(&self) -> &'static str {
        self.resp_policy.name()
    }

    /// Attaches an observer to the per-hop, per-controller-dequeue and
    /// per-retirement probe points. Probes only watch; they cannot change
    /// timing or priorities. With none attached the system takes the plain
    /// monomorphized network path, so the hooks cost nothing.
    pub fn attach_probe(&mut self, probe: Box<dyn Probe>) {
        self.probes.push(probe);
    }

    /// Advances the system by one cycle.
    pub fn step(&mut self) {
        let now = self.now;
        self.tick_cores(now);
        self.policy_updates(now);
        if self.probes.is_empty() {
            self.net.tick(now);
        } else {
            let System { net, probes, .. } = self;
            net.tick_with(now, &mut |hop| {
                for p in probes.iter_mut() {
                    p.on_hop(hop);
                }
            });
        }
        self.handle_drops(now);
        self.handle_deliveries(now);
        self.process_work(now);
        self.tick_mcs(now);
        self.audit(now);
        self.now += 1;
    }

    /// The one way a message enters the network. Virtual network and
    /// length come from the message itself ([`MemMsg::vnet`],
    /// [`MemMsg::flits`]); the caller supplies only what varies per send.
    fn send(
        &mut self,
        src: usize,
        dest: usize,
        msg: MemMsg,
        priority: Priority,
        age: u32,
        now: Cycle,
    ) {
        // The system only builds packets between nodes it owns, so a
        // rejection here is a wiring bug, not a runtime condition.
        self.net
            .inject(
                NodeId(src as u16),
                NodeId(dest as u16),
                msg.vnet(),
                priority,
                msg.flits(self.data_flits),
                age,
                msg,
                now,
            )
            .expect("system injections are admissible");
    }

    /// Collects packets the network dropped this cycle and schedules their
    /// re-injection (bounded retries with exponential backoff). With
    /// recovery disabled the drops are only counted; the timeout backstop
    /// and watchdog surface the consequences.
    fn handle_drops(&mut self, now: Cycle) {
        let max_retries = self.cfg.recovery.max_retries;
        for (meta, msg) in self.net.take_dropped() {
            if !self.cfg.recovery.enabled {
                continue;
            }
            let (src, dest) = (meta.src.index(), meta.dest.index());
            let attempt = match msg {
                MemMsg::L2Req { txn, .. }
                | MemMsg::MemReq { txn, .. }
                | MemMsg::MemResp { txn, .. }
                | MemMsg::L2Resp { txn, .. } => {
                    // A leg of an abandoned transaction has nobody waiting.
                    let Some(t) = self.txns.get_mut(&txn) else {
                        continue;
                    };
                    t.drops += 1;
                    if t.drops > max_retries {
                        self.lose_txn(txn, now);
                        continue;
                    }
                    t.touched = now + retry_backoff(t.drops);
                    t.drops
                }
                MemMsg::L1Writeback { line } | MemMsg::MemWriteback { line } => {
                    self.count_drop(RetryKey::Line(line))
                }
                MemMsg::ThresholdUpdate { core, .. } => {
                    self.count_drop(RetryKey::Threshold(core, dest))
                }
            };
            if attempt > max_retries {
                continue;
            }
            self.robust.retries += 1;
            self.work.push(
                now + retry_backoff(attempt),
                Action::Reinject {
                    src,
                    dest,
                    priority: meta.priority,
                    msg,
                },
            );
        }
    }

    /// Counts one more drop of the transaction-less message `key` names and
    /// returns its attempt number. Exhausting the budget ends the entry, so
    /// the next message of that line or core starts with its own budget.
    fn count_drop(&mut self, key: RetryKey) -> u32 {
        let attempts = self.retry_attempts.entry(key).or_insert(0);
        *attempts += 1;
        let attempt = *attempts;
        if attempt > self.cfg.recovery.max_retries {
            self.retry_attempts.remove(&key);
        }
        attempt
    }

    /// A transaction-less message arrived: its retry budget ends with it.
    /// The table is empty unless something was dropped, so fault-free runs
    /// never hash.
    fn end_retry_budget(&mut self, key: RetryKey) {
        if !self.retry_attempts.is_empty() {
            self.retry_attempts.remove(&key);
        }
    }

    /// Abandons a transaction whose packets cannot be recovered: records a
    /// [`LivenessViolation::Lost`], releases the cache-side bookkeeping, and
    /// wakes the cores waiting on it so the simulation degrades instead of
    /// wedging. Whatever of it is still queued in a controller or crossing
    /// the network finds no record on arrival and is discarded there.
    fn lose_txn(&mut self, txn: TxnId, now: Cycle) {
        let Some(t) = self.txns.remove(&txn) else {
            return;
        };
        self.robust.lost_txns += 1;
        let snapshot = self.snapshot(now);
        self.watchdog.record(LivenessViolation::Lost {
            txn: Some(txn),
            count: 1,
            snapshot,
        });
        // Release the L2 MSHR entry; merged waiters on the same line go
        // down with the primary (their fill will never arrive either).
        let bank = self.snuca.bank_of(t.line);
        let mut casualties = vec![t.core];
        if self.l2_mshrs[bank].contains(t.line) {
            for waiter in self.l2_mshrs[bank].complete(t.line) {
                if waiter == txn {
                    continue;
                }
                if let Some(w) = self.txns.remove(&waiter) {
                    casualties.push(w.core);
                }
            }
        }
        for core in casualties {
            for token in self.l1_mshrs[core].complete(t.line) {
                self.cores[core].complete(token, now);
            }
        }
    }

    /// Watchdog checks and the per-transaction timeout backstop.
    fn audit(&mut self, now: Cycle) {
        if self.cfg.recovery.enabled && now % TIMEOUT_SCAN_PERIOD == TIMEOUT_SCAN_PERIOD - 1 {
            self.timeout_scan(now);
        }
        if !self.watchdog.enabled() {
            return;
        }
        if let Some(quiet_for) =
            self.watchdog
                .observe_progress(now, self.net.flits_traversed(), self.txns.len())
        {
            let snapshot = self.snapshot(now);
            self.watchdog.record(LivenessViolation::Deadlock {
                quiet_for,
                snapshot,
            });
        }
        if !self.watchdog.poll_due(now) {
            return;
        }
        self.poll_scan(now);
    }

    /// The expensive polled liveness scans (starvation, age saturation,
    /// packet conservation), run when [`Watchdog::poll_due`] fires — from
    /// [`System::audit`] on a stepped cycle, or replayed at the same cycle
    /// by [`System::skip_to`] when the poll lands inside a skipped span.
    fn poll_scan(&mut self, now: Cycle) {
        let rc = self.net.router_counters();
        debug_assert_eq!(
            rc.flits_traversed,
            self.net.flits_traversed(),
            "the network's running traversal total left the per-router sum"
        );
        let wait = self.net.max_buffered_wait(now);
        if let Some(limit) = self.watchdog.observe_wait(wait.map(|(_, w)| w)) {
            let (node, waited) = wait.expect("a wait tripped the limit");
            let snapshot = self.snapshot(now);
            self.watchdog.record(LivenessViolation::Starvation {
                node: node.0,
                waited,
                limit,
                snapshot,
            });
        }
        if let Some(saturations) = self.watchdog.observe_saturations(rc.age_saturations) {
            let snapshot = self.snapshot(now);
            self.watchdog.record(LivenessViolation::AgeOverflow {
                saturations,
                snapshot,
            });
        }
        let ns = self.net.stats();
        let injected = ns.packets_injected.get();
        let accounted = ns.packets_delivered.get()
            + ns.packets_dropped.get()
            + self.net.packets_in_flight() as u64;
        if let Some(delta) = self.watchdog.observe_conservation(injected, accounted) {
            let snapshot = self.snapshot(now);
            self.watchdog.record(if delta < 0 {
                LivenessViolation::Lost {
                    txn: None,
                    count: delta.unsigned_abs(),
                    snapshot,
                }
            } else {
                LivenessViolation::Duplicated {
                    count: delta.unsigned_abs(),
                    snapshot,
                }
            });
        }
    }

    /// Flags transactions with no progress for longer than the recovery
    /// timeout; past the full retry budget they are abandoned as lost.
    fn timeout_scan(&mut self, now: Cycle) {
        let timeout = self.cfg.recovery.timeout;
        let give_up = timeout.saturating_mul(Cycle::from(self.cfg.recovery.max_retries) + 1);
        let mut lost: Vec<TxnId> = Vec::new();
        for (&txn, t) in &mut self.txns {
            // Merged transactions ride on their primary's packets; the
            // primary's fate decides theirs.
            if t.merged {
                continue;
            }
            let idle = now.saturating_sub(t.touched);
            if idle > timeout && !t.timed_out {
                t.timed_out = true;
                self.robust.timeouts += 1;
            }
            if idle > give_up {
                lost.push(txn);
            }
        }
        // Each `Lost` record snapshots the table it leaves behind, so the
        // order of abandonment is part of the run's output; the table's
        // iteration order is not reproducible, ascending ids are.
        lost.sort_unstable();
        for txn in lost {
            self.lose_txn(txn, now);
        }
    }

    fn tick_cores(&mut self, now: Cycle) {
        let mut outbox = std::mem::take(&mut self.outbox);
        {
            let System {
                cores,
                streams,
                l1s,
                l1_mshrs,
                next_txn,
                txns,
                addr_map,
                cfg,
                ..
            } = self;
            for (i, core) in cores.iter_mut().enumerate() {
                let mut port = TilePort {
                    core: i,
                    l1: &mut l1s[i],
                    mshr: &mut l1_mshrs[i],
                    next_txn: &mut *next_txn,
                    txns: &mut *txns,
                    out: &mut outbox,
                    map: *addr_map,
                    l1_latency: cfg.l1.latency,
                };
                core.tick(now, &mut streams[i], &mut port);
            }
        }
        let l1_age = self.cfg.l1.latency as u32;
        for (core, msg) in outbox.drain(..) {
            // A miss has already spent the L1 lookup; a victim has no age.
            let (line, age) = match msg {
                MemMsg::L2Req { line, .. } => (line, l1_age),
                MemMsg::L1Writeback { line } => (line, 0),
                _ => unreachable!("a core tile emits only misses and victims"),
            };
            let bank = self.snuca.bank_of(line);
            self.send(core, bank, msg, Priority::Normal, age, now);
        }
        self.outbox = outbox;
    }

    /// Broadcasts whatever threshold updates the response policy wants to
    /// send this cycle (Scheme-1's periodic `factor × Delay_avg` messages;
    /// an empty poll — the common case — costs one match).
    fn policy_updates(&mut self, now: Cycle) {
        let updates = self.resp_policy.poll_updates(now);
        if updates.is_empty() {
            return;
        }
        for (core, threshold) in updates {
            for m in 0..self.mcs.len() {
                // Threshold updates are themselves prioritized (Section 3.1).
                let msg = MemMsg::ThresholdUpdate { core, threshold };
                self.send(core, self.mcs[m].node, msg, Priority::High, 0, now);
            }
        }
    }

    fn handle_deliveries(&mut self, now: Cycle) {
        let l2_latency = self.cfg.l2.latency;
        let l1_latency = self.cfg.l1.latency;
        let mut mail = std::mem::take(&mut self.mail);
        self.net.drain_delivered(&mut mail);
        for d in mail.drain(..) {
            let (node, age, priority) = (d.meta.dest.index(), d.final_age, d.meta.priority);
            let fill = |txn, line| Fill {
                node,
                txn,
                line,
                age,
                priority,
            };
            match d.payload {
                MemMsg::L2Req { txn, .. } => {
                    if let Some(t) = self.txns.get_mut(&txn) {
                        t.times.at_l2 = now;
                        t.touched = now;
                    }
                    self.work
                        .push(now + l2_latency, Action::L2Request { node, txn, age });
                }
                MemMsg::L1Writeback { line } => {
                    self.end_retry_budget(RetryKey::Line(line));
                    self.work
                        .push(now + l2_latency, Action::L2Writeback { node, line });
                }
                MemMsg::MemReq { txn, line } => {
                    let mc_idx =
                        self.mc_at_node[node].expect("MemReq delivered to a non-controller node");
                    // A request for an abandoned transaction (timed out
                    // while this packet crawled through a faulty mesh)
                    // has nobody waiting: drop it at the controller door.
                    let Some(t) = self.txns.get_mut(&txn) else {
                        continue;
                    };
                    t.times.at_mc = now;
                    t.touched = now;
                    t.age_at_mc = age;
                    let decoded = self.addr_map.decode(line);
                    debug_assert_eq!(decoded.controller, mc_idx, "MC interleaving mismatch");
                    self.mcs[mc_idx]
                        .ctrl
                        .enqueue(txn, decoded.bank, decoded.row, false, now)
                        .expect("decoded bank is in range");
                }
                MemMsg::MemWriteback { line } => {
                    let mc_idx = self.mc_at_node[node]
                        .expect("MemWriteback delivered to a non-controller node");
                    self.end_retry_budget(RetryKey::Line(line));
                    let decoded = self.addr_map.decode(line);
                    self.next_wb_token += 1;
                    let token = WB_FLAG | self.next_wb_token;
                    self.mcs[mc_idx]
                        .ctrl
                        .enqueue(token, decoded.bank, decoded.row, true, now)
                        .expect("decoded bank is in range");
                }
                MemMsg::MemResp { txn, line } => {
                    if let Some(t) = self.txns.get_mut(&txn) {
                        t.times.back_at_l2 = now;
                        t.touched = now;
                    }
                    self.work
                        .push(now + l2_latency, Action::L2Fill(fill(txn, line)));
                }
                MemMsg::L2Resp { txn, line } => {
                    self.work
                        .push(now + l1_latency, Action::CoreFill(fill(txn, line)));
                }
                MemMsg::ThresholdUpdate { core, threshold } => {
                    let mc_idx = self.mc_at_node[node]
                        .expect("ThresholdUpdate delivered to a non-controller node");
                    self.end_retry_budget(RetryKey::Threshold(core, node));
                    self.resp_policy.install_threshold(mc_idx, core, threshold);
                }
            }
        }
        self.mail = mail;
    }

    fn process_work(&mut self, now: Cycle) {
        let mut due = std::mem::take(&mut self.due_work);
        self.work.drain_due(now, &mut due);
        for action in due.drain(..) {
            match action {
                Action::L2Request { node, txn, age } => self.l2_request(node, txn, age, now),
                Action::L2Writeback { node, line } => self.l2_writeback(node, line, now),
                Action::L2Fill(fill) => self.l2_fill(fill, now),
                Action::CoreFill(fill) => self.core_fill(fill, now),
                Action::Reinject {
                    src,
                    dest,
                    priority,
                    msg,
                } => {
                    // Restart the age field: the paper's so-far delay rides
                    // in the dropped header and is gone with it.
                    self.send(src, dest, msg, priority, 0, now);
                }
            }
        }
        self.due_work = due;
        // One drain is enough: no action files work due the cycle it runs.
        debug_assert!(self.work.next_due().is_none_or(|due| due > now));
    }

    fn l2_request(&mut self, node: usize, txn: TxnId, age: u32, now: Cycle) {
        // The transaction may have been abandoned while this request was
        // queued at the bank; there is nobody left to answer.
        let Some(t) = self.txns.get_mut(&txn) else {
            return;
        };
        let (line, core) = (t.line, t.core);
        let max_age = self.cfg.noc.max_age();
        // Merge with an in-flight fill before consulting the tag array (the
        // tag is already allocated while the fill is outstanding).
        if self.l2_mshrs[node].contains(line) {
            self.l2_mshrs[node].alloc(line, txn);
            t.offchip = true;
            t.merged = true;
            return;
        }
        // No MSHR free: retry shortly (models bank-side back-pressure); the
        // wait is part of the access's so-far delay.
        if self.l2_mshrs[node].len() == self.l2_mshrs[node].capacity() {
            let age = accumulate_age(age, MSHR_RETRY_DELAY, 1, max_age);
            self.work
                .push(now + MSHR_RETRY_DELAY, Action::L2Request { node, txn, age });
            return;
        }
        // Either way the L2 lookup joins the access's so-far delay.
        let out_age = accumulate_age(age, self.cfg.l2.latency, 1, max_age);
        match self.l2_banks[node].access(line, false) {
            L2Access::Hit => {
                let msg = MemMsg::L2Resp { txn, line };
                self.send(node, core, msg, Priority::Normal, out_age, now);
            }
            L2Access::Miss { writeback } => {
                t.offchip = true;
                if let Some(victim) = writeback {
                    self.send_mem_writeback(node, victim, now);
                }
                self.l2_mshrs[node].alloc(line, txn);
                let bank = self.addr_map.global_bank(line);
                // Decision point 1: the request policy picks the priority
                // this miss rides to the controller with.
                let priority = self.req_policy.request_priority(node, bank, core, age, now);
                let mc_node = self.mcs[self.addr_map.decode(line).controller].node;
                let msg = MemMsg::MemReq { txn, line };
                self.send(node, mc_node, msg, priority, out_age, now);
            }
        }
    }

    fn l2_writeback(&mut self, node: usize, line: u64, now: Cycle) {
        // Write-allocate the dirty line; a displaced dirty victim goes to
        // memory. No fill from memory is needed (the writeback carries the
        // whole line).
        if let L2Access::Miss {
            writeback: Some(victim),
        } = self.l2_banks[node].access(line, true)
        {
            self.send_mem_writeback(node, victim, now);
        }
    }

    fn send_mem_writeback(&mut self, node: usize, line: u64, now: Cycle) {
        let mc_node = self.mcs[self.addr_map.decode(line).controller].node;
        let msg = MemMsg::MemWriteback { line };
        self.send(node, mc_node, msg, Priority::Normal, 0, now);
    }

    fn l2_fill(&mut self, fill: Fill, now: Cycle) {
        let (node, line) = (fill.node, fill.line);
        // A fill for an abandoned transaction finds no waiters: the MSHR
        // entry was already torn down when the transaction was lost.
        let waiters = self.l2_mshrs[node].complete(line);
        debug_assert!(
            waiters.contains(&fill.txn) || !self.txns.contains_key(&fill.txn),
            "fill for a live transaction with no matching MSHR entry"
        );
        let out_age = accumulate_age(fill.age, self.cfg.l2.latency, 1, self.cfg.noc.max_age());
        for waiter in waiters {
            let Some(t) = self.txns.get(&waiter) else {
                continue;
            };
            let msg = MemMsg::L2Resp { txn: waiter, line };
            self.send(node, t.core, msg, fill.priority, out_age, now);
        }
    }

    fn core_fill(&mut self, fill: Fill, now: Cycle) {
        let (core, txn) = (fill.node, fill.txn);
        for token in self.l1_mshrs[core].complete(fill.line) {
            self.cores[core].complete(token, now);
        }
        let Some(mut t) = self.txns.remove(&txn) else {
            return;
        };
        t.times.done = now;
        let max_age = self.cfg.noc.max_age();
        // The one record of a finished access; every consumer below reads
        // this value and nothing else.
        let ev = Retire {
            core,
            line: t.line,
            offchip: t.offchip,
            merged: t.merged,
            total_latency: t.times.total(),
            cycle: now,
            times: t.times,
            expedited: fill.priority == Priority::High,
            // The paper reads the round-trip delay from the age field of
            // the returning message, so `Delay_avg` and the so-far
            // comparison at the controller share units.
            age: accumulate_age(fill.age, self.cfg.l1.latency, 1, max_age),
        };
        if ev.offchip {
            if !ev.merged {
                // The paper's accounting identities (Figure 2), checked on
                // every off-chip access of every debug-build run.
                debug_assert!(
                    ev.times.stamps().is_sorted(),
                    "txn {txn}: leg stamps out of order: {:?}",
                    ev.times
                );
                debug_assert_eq!(
                    ev.times.segments().iter().sum::<Cycle>(),
                    ev.times.total(),
                    "txn {txn}: the five legs do not sum to the round trip"
                );
                debug_assert!(ev.age <= max_age, "txn {txn}: age {} overflows", ev.age);
                let return_leg = ev.times.done.saturating_sub(ev.times.mc_done);
                self.tracker.record_return_leg(ev.expedited, return_leg);
                self.tracker.record_completion(core, &ev.times);
                self.trace.offer(TxnRecord {
                    core,
                    line: ev.line,
                    times: ev.times,
                });
            }
            self.resp_policy.record_round_trip(core, ev.age);
        }
        for p in &mut self.probes {
            p.on_retire(&ev);
        }
    }

    fn tick_mcs(&mut self, now: Cycle) {
        for m in 0..self.mcs.len() {
            if self.mcs[m].monitor.due(now) {
                let idle = self.mcs[m].ctrl.idle_banks();
                self.mcs[m].monitor.sample(now, &idle);
            }
            let completions = self.mcs[m].ctrl.tick(now);
            for c in completions {
                if c.req.token & WB_FLAG != 0 {
                    continue; // writebacks need no response
                }
                let txn = c.req.token;
                // The transaction may have been abandoned while the access
                // was queued in DRAM; its completion needs no response.
                let Some(t) = self.txns.get_mut(&txn) else {
                    continue;
                };
                t.times.mc_done = now;
                t.touched = now;
                let (core, line) = (t.core, t.line);
                let age =
                    accumulate_age(t.age_at_mc, c.controller_delay, 1, self.cfg.noc.max_age());
                self.tracker.record_so_far(core, age);
                // Decision point 2: the response policy picks the priority
                // of the reply's whole return path.
                let priority = self.resp_policy.response_priority(m, core, age);
                let ev = McDequeue {
                    mc: m,
                    core,
                    so_far_delay: age,
                    queued_for: c.controller_delay,
                    priority,
                    cycle: now,
                };
                for p in &mut self.probes {
                    p.on_mc_dequeue(&ev);
                }
                // The response retraces the request: the `MemReq` came from
                // the line's home bank.
                let l2_bank = self.snuca.bank_of(line);
                let msg = MemMsg::MemResp { txn, line };
                self.send(self.mcs[m].node, l2_bank, msg, priority, age, now);
            }
        }
    }
}
