//! The memory controller: a fixed-latency front pipeline, per-bank queues,
//! FR-FCFS (or FCFS) scheduling, a shared data bus with rank and read/write
//! turnaround penalties, and periodic refresh.
//!
//! Timing model (all Table-1 parameters are in DRAM cycles and scaled by the
//! bus multiplier):
//!
//! * a row-buffer **hit** occupies its bank for `row_hit_latency`,
//! * a row **miss** (activate + access, and precharge of the old row)
//!   occupies its bank for `bank_busy`,
//! * the read data then streams over the shared data bus for
//!   `burst_latency`, plus `rank_delay` when the previous burst came from
//!   the other rank and `read_write_delay` when the bus turns around;
//! * banks overlap their access phases freely (bank-level parallelism); only
//!   the data bus serializes bursts.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use noclat_sim::config::{MemConfig, MemSchedPolicy};
use noclat_sim::error::SimError;
use noclat_sim::faults::{ControllerFaultState, FaultPlan};
use noclat_sim::stats::{Counter, RunningMean};
use noclat_sim::Cycle;

use crate::bank::Bank;
use crate::request::{MemCompletion, MemRequest};

/// Aggregate controller statistics.
#[derive(Debug, Clone, Default)]
pub struct ControllerStats {
    /// Reads served.
    pub reads: Counter,
    /// Writes (writebacks) served.
    pub writes: Counter,
    /// Row-buffer hits.
    pub row_hits: Counter,
    /// Row-buffer misses.
    pub row_misses: Counter,
    /// Refreshes performed.
    pub refreshes: Counter,
    /// Mean total controller delay (queueing + service) of completed
    /// requests.
    pub controller_delay: RunningMean,
}

impl ControllerStats {
    /// Fraction of served requests that hit the row buffer.
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits.get() + self.row_misses.get();
        if total == 0 {
            0.0
        } else {
            self.row_hits.get() as f64 / total as f64
        }
    }
}

/// A completion waiting for its finish time, ordered for a min-heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    finished: Cycle,
    seq: u64,
    completion: MemCompletion,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.finished, self.seq).cmp(&(other.finished, other.seq))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One memory controller (one channel).
#[derive(Debug)]
pub struct MemoryController {
    cfg: MemConfig,
    banks: Vec<Bank>,
    /// Requests inside the fixed-latency controller front end.
    front: VecDeque<(Cycle, MemRequest)>,
    /// In-service requests waiting for their finish time.
    pending: BinaryHeap<Reverse<Pending>>,
    seq: u64,
    data_bus_free_at: Cycle,
    last_rank: Option<usize>,
    last_was_write: Option<bool>,
    next_refresh: Cycle,
    stats: ControllerStats,
    /// Injected DRAM bank faults and ingress stalls for this controller
    /// (empty state = healthy, zero cost).
    faults: ControllerFaultState,
}

impl MemoryController {
    /// Creates a healthy controller with `cfg.banks_per_controller` idle
    /// banks.
    #[must_use]
    pub fn new(cfg: MemConfig) -> Self {
        Self::with_faults(cfg, &FaultPlan::none(), 0)
    }

    /// Creates a controller that honors the bank/ingress faults targeting
    /// `controller_idx` in `plan`.
    #[must_use]
    pub fn with_faults(cfg: MemConfig, plan: &FaultPlan, controller_idx: usize) -> Self {
        let refresh_interval = Cycle::from(cfg.refresh_period) * Cycle::from(cfg.bus_multiplier);
        MemoryController {
            faults: ControllerFaultState::new(plan, controller_idx),
            banks: (0..cfg.banks_per_controller).map(|_| Bank::new()).collect(),
            front: VecDeque::new(),
            pending: BinaryHeap::new(),
            seq: 0,
            data_bus_free_at: 0,
            last_rank: None,
            last_was_write: None,
            next_refresh: refresh_interval,
            stats: ControllerStats::default(),
            cfg,
        }
    }

    /// Statistics.
    #[must_use]
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Queue length of a bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn queue_len(&self, bank: usize) -> usize {
        self.banks[bank].queue_len()
    }

    /// The idleness sample of Section 2.4.2: for each bank, whether its
    /// queue is currently empty.
    #[must_use]
    pub fn idle_banks(&self) -> Vec<bool> {
        self.banks.iter().map(Bank::is_idle).collect()
    }

    /// Number of requests anywhere inside the controller (front end, bank
    /// queues, or in service).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.front.len()
            + self.banks.iter().map(Bank::queue_len).sum::<usize>()
            + self.pending.len()
    }

    /// The next cycle at which [`MemoryController::tick`] could change any
    /// state — the controller's wake-up contract with the event kernel. A
    /// cycle strictly before the returned value is a provable no-op:
    /// refresh is not due, no front-pipeline request matures, every queued
    /// bank is still occupied, and no in-service access finishes.
    ///
    /// Refresh always schedules a wake-up (it fires even on an idle
    /// controller and occupies every bank, so skipping past it would
    /// corrupt row state and the refresh ledger). While bank or ingress
    /// faults are active the controller reports `now` whenever it holds any
    /// work, since fault windows open and close on arbitrary cycles.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Cycle {
        if self.faults.is_active() && self.occupancy() > 0 {
            return now;
        }
        let mut wake = self.next_refresh;
        if let Some(&(ready, _)) = self.front.front() {
            wake = wake.min(ready);
        }
        for bank in &self.banks {
            if bank.queue_len() > 0 {
                wake = wake.min(bank.busy_until());
            }
        }
        if let Some(Reverse(p)) = self.pending.peek() {
            wake = wake.min(p.finished);
        }
        wake.max(now)
    }

    /// Hands a request to the controller at cycle `now`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BankOutOfRange`] if `bank` does not name one of
    /// this controller's banks.
    pub fn enqueue(
        &mut self,
        token: u64,
        bank: usize,
        row: u64,
        is_write: bool,
        now: Cycle,
    ) -> Result<(), SimError> {
        if bank >= self.banks.len() {
            return Err(SimError::BankOutOfRange {
                bank,
                banks: self.banks.len(),
            });
        }
        let req = MemRequest {
            token,
            bank,
            row,
            is_write,
            arrived: now,
        };
        self.front.push_back((now + self.cfg.ctl_latency, req));
        Ok(())
    }

    /// Advances the controller one cycle; returns accesses that finished.
    pub fn tick(&mut self, now: Cycle) -> Vec<MemCompletion> {
        self.maybe_refresh(now);
        self.drain_front(now);
        self.schedule(now);
        self.collect(now)
    }

    fn maybe_refresh(&mut self, now: Cycle) {
        if now < self.next_refresh {
            return;
        }
        let mult = Cycle::from(self.cfg.bus_multiplier);
        let duration = Cycle::from(self.cfg.refresh_duration) * mult;
        for bank in &mut self.banks {
            bank.occupy_until(now + duration);
            bank.close_row();
        }
        self.stats.refreshes.inc();
        self.next_refresh += Cycle::from(self.cfg.refresh_period) * mult;
    }

    fn drain_front(&mut self, now: Cycle) {
        // An ingress backpressure fault holds requests in the front pipeline:
        // they keep their arrival stamps but cannot reach the bank queues.
        if self.faults.is_active() && self.faults.ingress_stalled(now) {
            return;
        }
        while self.front.front().is_some_and(|&(ready, _)| ready <= now) {
            let (_, req) = self.front.pop_front().expect("checked front");
            self.banks[req.bank].enqueue(req);
        }
    }

    /// Rank of a bank: the banks of a controller split evenly across two
    /// ranks.
    fn rank_of(&self, bank: usize) -> usize {
        usize::from(bank >= self.banks.len() / 2)
    }

    /// Issues at most one command this cycle: among ready banks, prefer a
    /// row-hit pick with the oldest arrival (FR-FCFS across banks), else the
    /// oldest pick overall.
    fn schedule(&mut self, now: Cycle) {
        let mut best: Option<(bool, Cycle, usize, usize)> = None; // (hit, arrived, bank, idx)
        for (b, bank) in self.banks.iter().enumerate() {
            if !bank.is_ready(now) {
                continue;
            }
            // An offline bank holds its queue but issues nothing; requests
            // resume (in order) when the fault window closes.
            if self.faults.is_active() && self.faults.bank_offline(b, now) {
                continue;
            }
            let pick = match self.cfg.scheduler {
                MemSchedPolicy::FrFcfs => bank.fr_fcfs_pick(),
                MemSchedPolicy::Fcfs => bank.fcfs_pick(),
            };
            let Some(idx) = pick else { continue };
            let hit = bank.hit_at(idx).expect("pick index valid");
            let arrived = bank.arrival_at(idx).expect("pick index valid");
            let better = match best {
                None => true,
                Some((bh, ba, _, _)) => match self.cfg.scheduler {
                    MemSchedPolicy::FrFcfs => (hit, Reverse(arrived)) > (bh, Reverse(ba)),
                    MemSchedPolicy::Fcfs => arrived < ba,
                },
            };
            if better {
                best = Some((hit, arrived, b, idx));
            }
        }
        let Some((_, _, bank_idx, req_idx)) = best else {
            return;
        };
        self.issue(bank_idx, req_idx, now);
    }

    fn issue(&mut self, bank_idx: usize, req_idx: usize, now: Cycle) {
        let mult = Cycle::from(self.cfg.bus_multiplier);
        let will_hit = self.banks[bank_idx].hit_at(req_idx).expect("valid pick");
        let mut access_dram = if will_hit {
            Cycle::from(self.cfg.row_hit_latency)
        } else {
            Cycle::from(self.cfg.bank_busy)
        };
        if self.faults.is_active() {
            access_dram *= Cycle::from(self.faults.bank_slowdown(bank_idx, now));
        }
        let rank = self.rank_of(bank_idx);
        let mut penalty_dram: Cycle = 0;
        if self.last_rank.is_some_and(|r| r != rank) {
            penalty_dram += Cycle::from(self.cfg.rank_delay);
        }
        let access_done = now + access_dram * mult;
        let bus_start = access_done.max(self.data_bus_free_at);
        let (req, hit) = self.banks[bank_idx].issue(req_idx, access_done);
        debug_assert_eq!(hit, will_hit);
        if self.last_was_write.is_some_and(|w| w != req.is_write) {
            penalty_dram += Cycle::from(self.cfg.read_write_delay);
        }
        let burst = (Cycle::from(self.cfg.burst_latency) + penalty_dram) * mult;
        let finished = bus_start + burst;
        self.data_bus_free_at = finished;
        // The bank cannot start a new access until its burst has drained.
        self.banks[bank_idx].occupy_until(finished);
        self.last_rank = Some(rank);
        self.last_was_write = Some(req.is_write);

        if req.is_write {
            self.stats.writes.inc();
        } else {
            self.stats.reads.inc();
        }
        if hit {
            self.stats.row_hits.inc();
        } else {
            self.stats.row_misses.inc();
        }
        let completion = MemCompletion {
            req,
            finished,
            controller_delay: finished.saturating_sub(req.arrived),
            row_hit: hit,
        };
        self.seq += 1;
        self.pending.push(Reverse(Pending {
            finished,
            seq: self.seq,
            completion,
        }));
    }

    fn collect(&mut self, now: Cycle) -> Vec<MemCompletion> {
        let mut done = Vec::new();
        while self
            .pending
            .peek()
            .is_some_and(|Reverse(p)| p.finished <= now)
        {
            let Reverse(p) = self.pending.pop().expect("checked peek");
            self.stats
                .controller_delay
                .record(p.completion.controller_delay as f64);
            done.push(p.completion);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noclat_sim::config::SystemConfig;

    fn cfg() -> MemConfig {
        SystemConfig::baseline_32().mem
    }

    fn run(mc: &mut MemoryController, from: Cycle, to: Cycle) -> Vec<MemCompletion> {
        let mut all = Vec::new();
        for t in from..to {
            all.extend(mc.tick(t));
        }
        all
    }

    #[test]
    fn single_read_completes_with_expected_latency() {
        let c = cfg();
        let mut mc = MemoryController::new(c);
        mc.enqueue(1, 0, 5, false, 0).unwrap();
        let done = run(&mut mc, 0, 1000);
        assert_eq!(done.len(), 1);
        let d = done[0];
        assert_eq!(d.req.token, 1);
        assert!(!d.row_hit, "cold bank must miss");
        // ctl latency + (bank_busy + burst) × multiplier.
        let expect = c.ctl_latency
            + Cycle::from(c.bank_busy + c.burst_latency) * Cycle::from(c.bus_multiplier);
        assert!(
            d.controller_delay >= expect && d.controller_delay <= expect + 2,
            "delay {} vs expected ~{}",
            d.controller_delay,
            expect
        );
    }

    #[test]
    fn row_hit_is_much_faster_than_miss() {
        let c = cfg();
        let mut mc = MemoryController::new(c);
        mc.enqueue(1, 0, 5, false, 0).unwrap();
        let first = run(&mut mc, 0, 2000);
        let t0 = first[0].finished;
        mc.enqueue(2, 0, 5, false, t0 + 1).unwrap();
        let second = run(&mut mc, t0 + 1, t0 + 2000);
        assert!(second[0].row_hit);
        assert!(
            second[0].controller_delay < first[0].controller_delay,
            "hit {} must beat miss {}",
            second[0].controller_delay,
            first[0].controller_delay
        );
    }

    #[test]
    fn banks_overlap_but_bus_serializes_bursts() {
        let c = cfg();
        // Two requests to different banks, same instant.
        let mut mc = MemoryController::new(c);
        mc.enqueue(1, 0, 5, false, 0).unwrap();
        mc.enqueue(2, 1, 9, false, 0).unwrap();
        let done = run(&mut mc, 0, 3000);
        assert_eq!(done.len(), 2);
        let gap = done[1].finished - done[0].finished;
        let serial = Cycle::from(c.bank_busy + c.burst_latency) * Cycle::from(c.bus_multiplier);
        assert!(
            gap < serial,
            "bank-level parallelism missing: gap {gap} ≥ serial {serial}"
        );
        let burst = Cycle::from(c.burst_latency) * Cycle::from(c.bus_multiplier);
        assert!(
            gap >= burst,
            "bus must serialize bursts (gap {gap} < burst {burst})"
        );
    }

    #[test]
    fn same_bank_requests_serialize() {
        let c = cfg();
        let mut mc = MemoryController::new(c);
        mc.enqueue(1, 0, 5, false, 0).unwrap();
        mc.enqueue(2, 0, 9, false, 0).unwrap();
        let done = run(&mut mc, 0, 4000);
        assert_eq!(done.len(), 2);
        let gap = done[1].finished - done[0].finished;
        let one_access = Cycle::from(c.bank_busy) * Cycle::from(c.bus_multiplier);
        assert!(
            gap >= one_access,
            "same-bank gap {gap} < access {one_access}"
        );
    }

    #[test]
    fn fr_fcfs_reorders_for_row_hits_fcfs_does_not() {
        let mut c = cfg();
        let order_of = |policy: MemSchedPolicy, c: &mut MemConfig| {
            c.scheduler = policy;
            let mut mc = MemoryController::new(*c);
            // Open row 5 with a first access; while the bank is busy serving
            // it, an older miss (row 9) and a younger hit (row 5) pile up in
            // the queue.
            mc.enqueue(0, 0, 5, false, 0).unwrap();
            let _ = run(&mut mc, 0, 30); // past the front pipeline; in service
            mc.enqueue(1, 0, 9, false, 30).unwrap();
            mc.enqueue(2, 0, 5, false, 31).unwrap();
            let done = run(&mut mc, 30, 6000);
            done.iter().map(|d| d.req.token).collect::<Vec<_>>()
        };
        assert_eq!(order_of(MemSchedPolicy::FrFcfs, &mut c), vec![0, 2, 1]);
        assert_eq!(order_of(MemSchedPolicy::Fcfs, &mut c), vec![0, 1, 2]);
    }

    #[test]
    fn rank_switches_cost_extra_bus_cycles() {
        // Same-rank back-to-back bursts vs alternating-rank bursts: the
        // alternating sequence must take longer on the shared bus.
        let c = cfg();
        let span = |banks: [usize; 4]| -> Cycle {
            let mut mc = MemoryController::new(c);
            for (i, &b) in banks.iter().enumerate() {
                mc.enqueue(i as u64, b, 5, false, 0).unwrap();
            }
            let done = run(&mut mc, 0, 6000);
            assert_eq!(done.len(), 4);
            done.iter().map(|d| d.finished).max().unwrap()
        };
        // Banks 0..7 are rank 0; 8..15 rank 1 (16-bank controller).
        let same_rank = span([0, 1, 2, 3]);
        let alternating = span([0, 8, 1, 9]);
        assert!(
            alternating > same_rank,
            "rank switching must cost time ({alternating} <= {same_rank})"
        );
    }

    #[test]
    fn read_write_turnaround_costs_extra_bus_cycles() {
        let c = cfg();
        let span = |writes: [bool; 4]| -> Cycle {
            let mut mc = MemoryController::new(c);
            for (i, &w) in writes.iter().enumerate() {
                mc.enqueue(i as u64, i, 5, w, 0).unwrap(); // distinct banks, same rank
            }
            let done = run(&mut mc, 0, 6000);
            assert_eq!(done.len(), 4);
            done.iter().map(|d| d.finished).max().unwrap()
        };
        let all_reads = span([false; 4]);
        let mixed = span([false, true, false, true]);
        assert!(
            mixed > all_reads,
            "bus turnaround must cost time ({mixed} <= {all_reads})"
        );
    }

    #[test]
    fn idleness_reflects_queue_state() {
        let c = cfg();
        let mut mc = MemoryController::new(c);
        assert!(mc.idle_banks().iter().all(|&b| b));
        // Two requests to the same bank: while the first is in service, the
        // second waits in the bank queue, so the bank is not idle.
        mc.enqueue(1, 3, 5, false, 0).unwrap();
        mc.enqueue(2, 3, 9, false, 0).unwrap();
        let _ = run(&mut mc, 0, c.ctl_latency + 2);
        assert!(
            !mc.idle_banks()[3],
            "second request must be queued at bank 3"
        );
        let _ = run(&mut mc, c.ctl_latency + 2, 4000);
        assert!(mc.idle_banks()[3]);
    }

    #[test]
    fn refresh_closes_rows() {
        let c = cfg();
        let mut mc = MemoryController::new(c);
        mc.enqueue(1, 0, 5, false, 0).unwrap();
        let first = run(&mut mc, 0, 2000);
        let t0 = first[0].finished;
        // Wait past a refresh boundary, then access the same row again: the
        // refresh closed it, so it must miss.
        let refresh_at = Cycle::from(c.refresh_period) * Cycle::from(c.bus_multiplier);
        let t1 = refresh_at + Cycle::from(c.refresh_duration) * Cycle::from(c.bus_multiplier) + 10;
        assert!(
            t1 > t0,
            "test assumes first access completes before refresh"
        );
        mc.enqueue(2, 0, 5, false, t1).unwrap();
        let second = run(&mut mc, t0 + 1, t1 + 4000);
        assert_eq!(second.len(), 1);
        assert!(!second[0].row_hit, "refresh must close the row buffer");
        assert!(mc.stats().refreshes.get() >= 1);
    }

    #[test]
    fn stats_track_reads_writes_and_hits() {
        let c = cfg();
        let mut mc = MemoryController::new(c);
        mc.enqueue(1, 0, 5, false, 0).unwrap();
        mc.enqueue(2, 0, 5, true, 1).unwrap();
        let done = run(&mut mc, 0, 3000);
        assert_eq!(done.len(), 2);
        assert_eq!(mc.stats().reads.get(), 1);
        assert_eq!(mc.stats().writes.get(), 1);
        assert_eq!(mc.stats().row_hits.get() + mc.stats().row_misses.get(), 2);
        assert!(mc.stats().controller_delay.mean().is_some());
        assert!(mc.stats().row_hit_rate() > 0.0);
    }

    #[test]
    fn occupancy_counts_everywhere() {
        let c = cfg();
        let mut mc = MemoryController::new(c);
        assert_eq!(mc.occupancy(), 0);
        mc.enqueue(1, 0, 5, false, 0).unwrap();
        mc.enqueue(2, 1, 6, false, 0).unwrap();
        assert_eq!(mc.occupancy(), 2);
        let _ = run(&mut mc, 0, 3000);
        assert_eq!(mc.occupancy(), 0);
    }

    #[test]
    fn bad_bank_rejected() {
        let c = cfg();
        let banks = c.banks_per_controller;
        let mut mc = MemoryController::new(c);
        assert_eq!(
            mc.enqueue(1, 99, 0, false, 0),
            Err(SimError::BankOutOfRange { bank: 99, banks })
        );
        assert_eq!(mc.occupancy(), 0, "rejected request must not be queued");
    }

    #[test]
    fn offline_bank_defers_service_until_window_ends() {
        use noclat_sim::faults::{BankFault, BankFaultKind, CycleWindow, FaultPlan};
        let c = cfg();
        let mut plan = FaultPlan::none();
        plan.banks.push(BankFault {
            controller: 0,
            bank: Some(0),
            kind: BankFaultKind::Offline,
            window: CycleWindow {
                start: 0,
                end: 2_000,
            },
        });
        let mut mc = MemoryController::with_faults(c, &plan, 0);
        mc.enqueue(1, 0, 5, false, 0).unwrap();
        let early = run(&mut mc, 0, 2_000);
        assert!(early.is_empty(), "offline bank must not serve requests");
        assert_eq!(mc.occupancy(), 1, "request must be held, not lost");
        let late = run(&mut mc, 2_000, 6_000);
        assert_eq!(late.len(), 1, "service resumes after the window");
        assert!(late[0].finished >= 2_000);
    }

    #[test]
    fn offline_fault_on_other_controller_is_ignored() {
        use noclat_sim::faults::{BankFault, BankFaultKind, CycleWindow, FaultPlan};
        let c = cfg();
        let mut plan = FaultPlan::none();
        plan.banks.push(BankFault {
            controller: 3,
            bank: None,
            kind: BankFaultKind::Offline,
            window: CycleWindow::ALWAYS,
        });
        let mut mc = MemoryController::with_faults(c, &plan, 0);
        mc.enqueue(1, 0, 5, false, 0).unwrap();
        assert_eq!(run(&mut mc, 0, 2_000).len(), 1);
    }

    #[test]
    fn bank_slowdown_lengthens_access_time() {
        use noclat_sim::faults::{BankFault, BankFaultKind, CycleWindow, FaultPlan};
        let c = cfg();
        let delay_with = |plan: &FaultPlan| -> Cycle {
            let mut mc = MemoryController::with_faults(c, plan, 0);
            mc.enqueue(1, 0, 5, false, 0).unwrap();
            let done = run(&mut mc, 0, 20_000);
            assert_eq!(done.len(), 1);
            done[0].controller_delay
        };
        let healthy = delay_with(&FaultPlan::none());
        let mut plan = FaultPlan::none();
        plan.banks.push(BankFault {
            controller: 0,
            bank: Some(0),
            kind: BankFaultKind::Slowdown(4),
            window: CycleWindow::ALWAYS,
        });
        let slowed = delay_with(&plan);
        assert!(
            slowed > healthy,
            "slowdown must lengthen the access ({slowed} <= {healthy})"
        );
    }

    #[test]
    fn ingress_stall_holds_requests_in_the_front_end() {
        use noclat_sim::faults::{CycleWindow, FaultPlan, IngressStall};
        let c = cfg();
        let mut plan = FaultPlan::none();
        plan.ingress.push(IngressStall {
            controller: 0,
            window: CycleWindow {
                start: 0,
                end: 1_500,
            },
        });
        let mut mc = MemoryController::with_faults(c, &plan, 0);
        mc.enqueue(1, 0, 5, false, 0).unwrap();
        let early = run(&mut mc, 0, 1_500);
        assert!(early.is_empty(), "stalled ingress must not admit requests");
        let late = run(&mut mc, 1_500, 6_000);
        assert_eq!(late.len(), 1);
        assert!(late[0].finished >= 1_500);
    }

    #[test]
    fn event_driven_drain_matches_per_cycle_drain() {
        // Jumping between next_event() wake-ups must produce the same
        // completions (same finish times, same stats) as ticking every
        // cycle, including across a refresh boundary.
        let c = cfg();
        let horizon = 40_000; // covers two refresh periods
        let feed = |mc: &mut MemoryController| {
            for (i, row) in [5u64, 5, 9, 9, 5].iter().enumerate() {
                mc.enqueue(i as u64, i % 4, *row, i % 3 == 0, (i as Cycle) * 7)
                    .unwrap();
            }
        };
        let mut reference = MemoryController::new(c);
        feed(&mut reference);
        let ref_done = run(&mut reference, 0, horizon);

        let mut event = MemoryController::new(c);
        feed(&mut event);
        let mut done = Vec::new();
        let mut now = 0;
        while now < horizon {
            done.extend(event.tick(now));
            now = event.next_event(now + 1).max(now + 1);
        }
        let key = |d: &MemCompletion| (d.req.token, d.finished, d.controller_delay, d.row_hit);
        assert_eq!(
            ref_done.iter().map(key).collect::<Vec<_>>(),
            done.iter().map(key).collect::<Vec<_>>()
        );
        assert_eq!(
            reference.stats().refreshes.get(),
            event.stats().refreshes.get(),
            "skipping must not miss refreshes"
        );
        assert_eq!(
            reference.stats().row_hits.get(),
            event.stats().row_hits.get()
        );
    }
}
