//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes, per run, which parts of the machine misbehave
//! and when: mesh links drop or delay flits, routers stall their arbitration
//! pipelines, DRAM banks slow down or go offline, and memory-controller
//! ingress pipelines exert backpressure. Every stochastic decision derives
//! from the plan's own seed through [`SimRng`], so a fault scenario replays
//! bit-for-bit from `(config, plan)` alone.
//!
//! The plan is pure data; components own small *state* evaluators
//! ([`LinkFaultState`], [`RouterStallState`], [`ControllerFaultState`]) built
//! from it, which they consult on their hot paths. With an empty plan every
//! evaluator short-circuits, so the fault machinery costs nothing when
//! disabled.

use crate::error::FaultError;
use crate::rng::SimRng;
use crate::Cycle;

/// A half-open window of cycles `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CycleWindow {
    /// First cycle the fault is active.
    pub start: Cycle,
    /// First cycle the fault is no longer active.
    pub end: Cycle,
}

impl CycleWindow {
    /// A window covering every cycle of a run.
    pub const ALWAYS: CycleWindow = CycleWindow {
        start: 0,
        end: Cycle::MAX,
    };

    /// Whether `now` falls inside the window.
    #[must_use]
    pub fn contains(&self, now: Cycle) -> bool {
        self.start <= now && now < self.end
    }

    /// Validates that the window is non-empty.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::EmptyWindow`] when `end <= start`.
    pub fn validate(&self) -> Result<(), FaultError> {
        if self.end <= self.start {
            return Err(FaultError::EmptyWindow {
                start: self.start,
                end: self.end,
            });
        }
        Ok(())
    }
}

/// A link-level fault: flits leaving matching routers are dropped with a
/// probability and/or delayed by extra cycles while the window is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Router whose *outgoing* mesh links are affected; `None` = every
    /// router.
    pub node: Option<usize>,
    /// Per-flit drop probability while active (head-flit drops doom the
    /// whole packet, preserving wormhole integrity).
    pub drop_prob: f64,
    /// Extra link traversal delay in cycles while active.
    pub extra_delay: Cycle,
    /// When the fault is active.
    pub window: CycleWindow,
}

/// A router stall: the router skips VA/SA arbitration entirely while the
/// window is active (flits still arrive and buffer at wire speed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterStall {
    /// Stalled router.
    pub node: usize,
    /// When the stall is active.
    pub window: CycleWindow,
}

/// What a faulty DRAM bank does while its window is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankFaultKind {
    /// The bank accepts no commands (requests queue up and wait).
    Offline,
    /// Every access occupies the bank `multiplier`× as long.
    Slowdown(u32),
}

/// A DRAM bank fault on one controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankFault {
    /// Controller index.
    pub controller: usize,
    /// Bank behind that controller; `None` = all of its banks.
    pub bank: Option<usize>,
    /// Offline or slowdown.
    pub kind: BankFaultKind,
    /// When the fault is active.
    pub window: CycleWindow,
}

/// Memory-controller ingress backpressure: the front-end pipeline stops
/// draining while active, so arriving requests accumulate ahead of the bank
/// queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngressStall {
    /// Controller index.
    pub controller: usize,
    /// When the backpressure is active.
    pub window: CycleWindow,
}

/// A complete, deterministic fault scenario for one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for every stochastic fault decision (independent of the system
    /// seed, so traffic and faults can be varied separately).
    pub seed: u64,
    /// Link drop/delay faults.
    pub links: Vec<LinkFault>,
    /// Router arbitration stalls.
    pub router_stalls: Vec<RouterStall>,
    /// DRAM bank faults.
    pub banks: Vec<BankFault>,
    /// Controller ingress backpressure windows.
    pub ingress: Vec<IngressStall>,
}

impl FaultPlan {
    /// The empty plan: no faults.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
            && self.router_stalls.is_empty()
            && self.banks.is_empty()
            && self.ingress.is_empty()
    }

    /// Convenience: drop every flit on every link with probability `p` for
    /// the whole run.
    #[must_use]
    pub fn uniform_drop(seed: u64, p: f64) -> Self {
        FaultPlan {
            seed,
            links: vec![LinkFault {
                node: None,
                drop_prob: p,
                extra_delay: 0,
                window: CycleWindow::ALWAYS,
            }],
            ..FaultPlan::default()
        }
    }

    /// Validates every entry of the plan.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultError`] found.
    pub fn validate(&self) -> Result<(), FaultError> {
        for l in &self.links {
            if !(0.0..=1.0).contains(&l.drop_prob) || l.drop_prob.is_nan() {
                return Err(FaultError::BadProbability(l.drop_prob));
            }
            l.window.validate()?;
        }
        for s in &self.router_stalls {
            s.window.validate()?;
        }
        for b in &self.banks {
            if let BankFaultKind::Slowdown(m) = b.kind {
                if m < 1 {
                    return Err(FaultError::BadSlowdown(m));
                }
            }
            b.window.validate()?;
        }
        for i in &self.ingress {
            i.window.validate()?;
        }
        Ok(())
    }
}

/// Per-network runtime state for link faults.
///
/// Owned by the network; consulted once per flit leaving a router onto a
/// mesh link. The RNG stream is split from the plan seed so link decisions
/// never perturb workload or traffic randomness.
#[derive(Debug, Clone)]
pub struct LinkFaultState {
    faults: Vec<LinkFault>,
    rng: SimRng,
    drops: u64,
    delays: u64,
}

/// What a link does to one flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkOutcome {
    /// Deliver normally.
    Deliver,
    /// Deliver after this many extra cycles.
    Delay(Cycle),
    /// The flit is lost.
    Drop,
}

impl LinkFaultState {
    /// Builds the state from a plan (only link faults are retained).
    #[must_use]
    pub fn new(plan: &FaultPlan) -> Self {
        LinkFaultState {
            faults: plan.links.clone(),
            rng: SimRng::new(plan.seed).split(0x11),
            drops: 0,
            delays: 0,
        }
    }

    /// Whether any link fault exists at all (fast path guard).
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.faults.is_empty()
    }

    /// Decides the fate of a flit leaving `node` at `now`.
    pub fn outcome(&mut self, node: usize, now: Cycle) -> LinkOutcome {
        let mut delay: Cycle = 0;
        for f in &self.faults {
            if !f.window.contains(now) || f.node.is_some_and(|n| n != node) {
                continue;
            }
            if f.drop_prob > 0.0 && self.rng.chance(f.drop_prob) {
                self.drops += 1;
                return LinkOutcome::Drop;
            }
            delay += f.extra_delay;
        }
        if delay > 0 {
            self.delays += 1;
            LinkOutcome::Delay(delay)
        } else {
            LinkOutcome::Deliver
        }
    }

    /// Flits dropped so far.
    #[must_use]
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Flits delayed so far.
    #[must_use]
    pub fn delays(&self) -> u64 {
        self.delays
    }
}

/// Per-network runtime state for router stalls.
#[derive(Debug, Clone, Default)]
pub struct RouterStallState {
    stalls: Vec<RouterStall>,
}

impl RouterStallState {
    /// Builds the state from a plan (only router stalls are retained).
    #[must_use]
    pub fn new(plan: &FaultPlan) -> Self {
        RouterStallState {
            stalls: plan.router_stalls.clone(),
        }
    }

    /// Whether any stall exists at all (fast path guard).
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.stalls.is_empty()
    }

    /// Whether router `node` skips arbitration at `now`.
    #[must_use]
    pub fn stalled(&self, node: usize, now: Cycle) -> bool {
        self.stalls
            .iter()
            .any(|s| s.node == node && s.window.contains(now))
    }
}

/// Per-controller runtime state for DRAM bank faults and ingress stalls.
#[derive(Debug, Clone, Default)]
pub struct ControllerFaultState {
    banks: Vec<BankFault>,
    ingress: Vec<IngressStall>,
}

impl ControllerFaultState {
    /// Builds the state for controller `controller` from a plan.
    #[must_use]
    pub fn new(plan: &FaultPlan, controller: usize) -> Self {
        ControllerFaultState {
            banks: plan
                .banks
                .iter()
                .copied()
                .filter(|b| b.controller == controller)
                .collect(),
            ingress: plan
                .ingress
                .iter()
                .copied()
                .filter(|i| i.controller == controller)
                .collect(),
        }
    }

    /// Whether any fault exists for this controller (fast path guard).
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.banks.is_empty() || !self.ingress.is_empty()
    }

    /// Whether `bank` refuses commands at `now`.
    #[must_use]
    pub fn bank_offline(&self, bank: usize, now: Cycle) -> bool {
        self.banks.iter().any(|b| {
            b.kind == BankFaultKind::Offline
                && b.bank.is_none_or(|x| x == bank)
                && b.window.contains(now)
        })
    }

    /// Access-time multiplier of `bank` at `now` (1 = healthy).
    #[must_use]
    pub fn bank_slowdown(&self, bank: usize, now: Cycle) -> u32 {
        self.banks
            .iter()
            .filter(|b| b.bank.is_none_or(|x| x == bank) && b.window.contains(now))
            .filter_map(|b| match b.kind {
                BankFaultKind::Slowdown(m) => Some(m),
                BankFaultKind::Offline => None,
            })
            .max()
            .unwrap_or(1)
    }

    /// Whether the controller's ingress pipeline is stalled at `now`.
    #[must_use]
    pub fn ingress_stalled(&self, now: Cycle) -> bool {
        self.ingress.iter().any(|i| i.window.contains(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_contain_and_validate() {
        let w = CycleWindow { start: 10, end: 20 };
        assert!(!w.contains(9));
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
        assert!(w.validate().is_ok());
        assert!(CycleWindow { start: 5, end: 5 }.validate().is_err());
        assert!(CycleWindow::ALWAYS.contains(u64::MAX - 1));
    }

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(p.validate().is_ok());
        assert!(!LinkFaultState::new(&p).is_active());
        assert!(!RouterStallState::new(&p).is_active());
        assert!(!ControllerFaultState::new(&p, 0).is_active());
    }

    #[test]
    fn validation_catches_bad_entries() {
        let mut p = FaultPlan::uniform_drop(1, 1.5);
        assert!(matches!(
            p.validate(),
            Err(FaultError::BadProbability(x)) if x > 1.0
        ));
        p = FaultPlan::none();
        p.banks.push(BankFault {
            controller: 0,
            bank: None,
            kind: BankFaultKind::Slowdown(0),
            window: CycleWindow::ALWAYS,
        });
        assert_eq!(p.validate(), Err(FaultError::BadSlowdown(0)));
        p = FaultPlan::none();
        p.router_stalls.push(RouterStall {
            node: 3,
            window: CycleWindow { start: 9, end: 9 },
        });
        assert!(matches!(p.validate(), Err(FaultError::EmptyWindow { .. })));
    }

    #[test]
    fn link_drops_are_deterministic_and_calibrated() {
        let plan = FaultPlan::uniform_drop(42, 0.25);
        let run = || {
            let mut s = LinkFaultState::new(&plan);
            (0..10_000)
                .map(|t| u64::from(s.outcome(3, t) == LinkOutcome::Drop))
                .sum::<u64>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same plan must replay identically");
        assert!((2000..3000).contains(&a), "drop rate off: {a}/10000");
    }

    #[test]
    fn link_faults_respect_node_and_window() {
        let mut plan = FaultPlan::none();
        plan.links.push(LinkFault {
            node: Some(5),
            drop_prob: 1.0,
            extra_delay: 0,
            window: CycleWindow {
                start: 100,
                end: 200,
            },
        });
        let mut s = LinkFaultState::new(&plan);
        assert_eq!(s.outcome(5, 50), LinkOutcome::Deliver);
        assert_eq!(s.outcome(4, 150), LinkOutcome::Deliver);
        assert_eq!(s.outcome(5, 150), LinkOutcome::Drop);
        assert_eq!(s.outcome(5, 200), LinkOutcome::Deliver);
        assert_eq!(s.drops(), 1);
    }

    #[test]
    fn link_delay_accumulates_across_matching_faults() {
        let mut plan = FaultPlan::none();
        for _ in 0..2 {
            plan.links.push(LinkFault {
                node: None,
                drop_prob: 0.0,
                extra_delay: 3,
                window: CycleWindow::ALWAYS,
            });
        }
        let mut s = LinkFaultState::new(&plan);
        assert_eq!(s.outcome(0, 0), LinkOutcome::Delay(6));
        assert_eq!(s.delays(), 1);
    }

    #[test]
    fn router_stalls_match_node_and_window() {
        let mut plan = FaultPlan::none();
        plan.router_stalls.push(RouterStall {
            node: 7,
            window: CycleWindow { start: 10, end: 30 },
        });
        let s = RouterStallState::new(&plan);
        assert!(s.stalled(7, 15));
        assert!(!s.stalled(7, 30));
        assert!(!s.stalled(6, 15));
    }

    #[test]
    fn controller_faults_filter_by_controller() {
        let mut plan = FaultPlan::none();
        plan.banks.push(BankFault {
            controller: 1,
            bank: Some(2),
            kind: BankFaultKind::Offline,
            window: CycleWindow::ALWAYS,
        });
        plan.banks.push(BankFault {
            controller: 1,
            bank: None,
            kind: BankFaultKind::Slowdown(4),
            window: CycleWindow { start: 0, end: 100 },
        });
        plan.ingress.push(IngressStall {
            controller: 0,
            window: CycleWindow { start: 0, end: 50 },
        });
        let c0 = ControllerFaultState::new(&plan, 0);
        let c1 = ControllerFaultState::new(&plan, 1);
        assert!(c0.ingress_stalled(10));
        assert!(!c0.ingress_stalled(50));
        assert!(!c0.bank_offline(2, 10));
        assert!(c1.bank_offline(2, 10));
        assert!(!c1.bank_offline(3, 10));
        assert_eq!(c1.bank_slowdown(3, 10), 4);
        assert_eq!(c1.bank_slowdown(3, 100), 1);
        assert_eq!(c0.bank_slowdown(3, 10), 1);
    }
}
