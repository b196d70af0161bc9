//! The pluggable prioritization-policy layer.
//!
//! Every point where a message's network priority is decided goes through
//! one of three seams:
//!
//! 1. **Request injection** ([`RequestPolicy`]): the priority an L2 miss
//!    gets when it enters the request network (the paper's Scheme-2 site).
//! 2. **Response injection** ([`ResponsePolicy`]): the priority a memory
//!    controller gives a reply it is about to inject (the Scheme-1 site),
//!    plus the side-channel Scheme-1 needs — periodic threshold updates,
//!    threshold installation at the controllers, and round-trip feedback.
//! 3. **Arbitration** (`noclat_noc::arbiter::key_for`): how routers rank
//!    competing flits in VC/switch allocation, including the starvation
//!    age guard.
//!
//! Which request and response policy a run uses is the
//! [`noclat_sim::config::PolicyConfig`] pair of kinds;
//! [`build_request_policy`] and [`build_response_policy`] are the only place
//! a kind is matched to an implementation.

use noclat_noc::Priority;
use noclat_sim::config::{RequestPolicyKind, ResponsePolicyKind, SystemConfig};
use noclat_sim::stats::Ewma;
use noclat_sim::Cycle;

use crate::scheme1::{Scheme1, ThresholdTable};
use crate::scheme2::BankHistoryTable;

/// Smoothing weight for the oldest-first policies' running age averages
/// (mirrors Scheme-1's `Delay_avg` smoothing so the two are comparable).
const OLDEST_FIRST_ALPHA: f64 = 0.05;

/// Decision point 1: the priority an L2 miss gets when it is injected into
/// the request network toward a memory controller.
pub trait RequestPolicy: std::fmt::Debug + Send {
    /// CLI name of this policy (the `name()` of the kind that selects it).
    fn name(&self) -> &'static str;

    /// Decides the injection priority of an off-chip request leaving the L2
    /// bank at `node`, issued by `core`, targeting global DRAM `bank`, with
    /// so-far delay `age`. Called exactly once per injected request (a
    /// stateful policy may record the event).
    fn request_priority(
        &mut self,
        node: usize,
        bank: usize,
        core: usize,
        age: u32,
        now: Cycle,
    ) -> Priority;
}

/// Decision point 2: the priority a memory controller gives a response it
/// is about to inject, plus the feedback/update side-channel Scheme-1 uses.
///
/// The update hooks default to no-ops so stateless policies implement only
/// [`ResponsePolicy::response_priority`].
pub trait ResponsePolicy: std::fmt::Debug + Send {
    /// CLI name of this policy (the `name()` of the kind that selects it).
    fn name(&self) -> &'static str;

    /// Threshold updates to broadcast this cycle, as `(core, threshold)`
    /// pairs; an empty vector means no messages (and no network activity).
    /// Called once per cycle before the network ticks.
    fn poll_updates(&mut self, now: Cycle) -> Vec<(usize, u32)> {
        let _ = now;
        Vec::new()
    }

    /// The next cycle at which [`ResponsePolicy::poll_updates`] could return
    /// anything (the policy's wake-up for the event kernel). `None` — the
    /// default, right for stateless policies — means the policy never
    /// initiates traffic on its own.
    fn next_update(&self) -> Option<Cycle> {
        None
    }

    /// Installs a threshold update delivered to controller `mc`.
    fn install_threshold(&mut self, mc: usize, core: usize, threshold: u32) {
        let _ = (mc, core, threshold);
    }

    /// Feedback when an off-chip access completes at the core: the
    /// round-trip delay read from the returning message's age field.
    fn record_round_trip(&mut self, core: usize, final_age: u32) {
        let _ = (core, final_age);
    }

    /// Decides the injection priority of the response controller `mc` is
    /// about to send back for `core`'s access, whose accumulated so-far
    /// delay is `so_far_delay`.
    fn response_priority(
        &mut self,
        mc: usize,
        core: usize,
        so_far_delay: u32,
        now: Cycle,
    ) -> Priority;
}

/// The no-op policy: every message is injected at normal priority. Equals
/// running with the schemes disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselinePolicy;

impl RequestPolicy for BaselinePolicy {
    fn name(&self) -> &'static str {
        "baseline"
    }
    fn request_priority(&mut self, _: usize, _: usize, _: usize, _: u32, _: Cycle) -> Priority {
        Priority::Normal
    }
}

impl ResponsePolicy for BaselinePolicy {
    fn name(&self) -> &'static str {
        "baseline"
    }
    fn response_priority(&mut self, _: usize, _: usize, _: u32, _: Cycle) -> Priority {
        Priority::Normal
    }
}

/// Scheme-2 behind the [`RequestPolicy`] seam: per-node Bank History
/// Tables expedite requests aimed at banks this tile has not used recently
/// (Section 3.2).
#[derive(Debug, Clone)]
pub struct Scheme2Policy {
    tables: Vec<BankHistoryTable>,
}

impl Scheme2Policy {
    /// One Bank History Table per node, covering `total_banks` DRAM banks.
    #[must_use]
    pub fn new(cfg: &SystemConfig, total_banks: usize) -> Self {
        Scheme2Policy {
            tables: (0..cfg.num_cores())
                .map(|_| BankHistoryTable::new(cfg.scheme2, total_banks))
                .collect(),
        }
    }
}

impl RequestPolicy for Scheme2Policy {
    fn name(&self) -> &'static str {
        "scheme2"
    }
    fn request_priority(
        &mut self,
        node: usize,
        bank: usize,
        _core: usize,
        _age: u32,
        now: Cycle,
    ) -> Priority {
        let expedite = self.tables[node].should_expedite(bank, now);
        self.tables[node].record(bank, now);
        if expedite {
            Priority::High
        } else {
            Priority::Normal
        }
    }
}

/// Scheme-1 behind the [`ResponsePolicy`] seam: cores advertise
/// `factor × Delay_avg` thresholds to the controllers, which expedite
/// responses whose so-far delay exceeds the owner's threshold
/// (Section 3.1).
#[derive(Debug, Clone)]
pub struct Scheme1Policy {
    s1: Scheme1,
    tables: Vec<ThresholdTable>,
}

impl Scheme1Policy {
    /// Core-side averages plus one threshold table per controller.
    #[must_use]
    pub fn new(cfg: &SystemConfig) -> Self {
        let n = cfg.num_cores();
        Scheme1Policy {
            s1: Scheme1::new(cfg.scheme1, n),
            tables: (0..cfg.mem.num_controllers)
                .map(|_| ThresholdTable::new(n))
                .collect(),
        }
    }
}

impl ResponsePolicy for Scheme1Policy {
    fn name(&self) -> &'static str {
        "scheme1"
    }
    fn poll_updates(&mut self, now: Cycle) -> Vec<(usize, u32)> {
        if !self.s1.update_due(now) {
            return Vec::new();
        }
        let n = self.s1.num_cores();
        (0..n)
            .filter_map(|c| self.s1.threshold(c).map(|t| (c, t)))
            .collect()
    }
    fn next_update(&self) -> Option<Cycle> {
        Some(self.s1.next_update_at())
    }
    fn install_threshold(&mut self, mc: usize, core: usize, threshold: u32) {
        self.tables[mc].set(core, threshold);
    }
    fn record_round_trip(&mut self, core: usize, final_age: u32) {
        self.s1.record_round_trip(core, Cycle::from(final_age));
    }
    fn response_priority(
        &mut self,
        mc: usize,
        core: usize,
        so_far_delay: u32,
        _now: Cycle,
    ) -> Priority {
        if self.tables[mc].is_late(core, so_far_delay) {
            Priority::High
        } else {
            Priority::Normal
        }
    }
}

/// Global-age ("oldest-first") injection policy: expedite a message whose
/// so-far delay exceeds `factor ×` the running average of all delays seen
/// at the same decision point. A message-free, locally-computed ablation of
/// Scheme-1's core-driven thresholds (the comparison uses the pre-update
/// average, then records, so the decision sequence is deterministic).
#[derive(Debug, Clone)]
pub struct OldestFirstPolicy {
    avg: Ewma,
    factor: f64,
}

impl OldestFirstPolicy {
    /// Uses the Scheme-1 threshold factor so the two are comparable.
    #[must_use]
    pub fn new(cfg: &SystemConfig) -> Self {
        OldestFirstPolicy {
            avg: Ewma::new(OLDEST_FIRST_ALPHA),
            factor: cfg.scheme1.threshold_factor,
        }
    }

    fn decide(&mut self, age: u32) -> Priority {
        let late = self
            .avg
            .value()
            .is_some_and(|avg| f64::from(age) > self.factor * avg);
        self.avg.record(f64::from(age));
        if late {
            Priority::High
        } else {
            Priority::Normal
        }
    }
}

impl RequestPolicy for OldestFirstPolicy {
    fn name(&self) -> &'static str {
        "oldest-first"
    }
    fn request_priority(&mut self, _: usize, _: usize, _: usize, age: u32, _: Cycle) -> Priority {
        self.decide(age)
    }
}

impl ResponsePolicy for OldestFirstPolicy {
    fn name(&self) -> &'static str {
        "oldest-first"
    }
    fn response_priority(&mut self, _: usize, _: usize, so_far_delay: u32, _: Cycle) -> Priority {
        self.decide(so_far_delay)
    }
}

/// Static criticality-class policy: the first `high_cores` cores' traffic
/// is always high priority, everyone else's never is. Models the
/// fixed-priority end of the criticality spectrum discussed in the *Data
/// Criticality in Network-on-Chip Design* line of related work (PAPERS.md).
#[derive(Debug, Clone, Copy)]
pub struct StaticPolicy {
    high_cores: usize,
}

impl StaticPolicy {
    /// The lower half of the core IDs form the high-priority class.
    #[must_use]
    pub fn new(cfg: &SystemConfig) -> Self {
        StaticPolicy {
            high_cores: cfg.num_cores() / 2,
        }
    }

    fn decide(&self, core: usize) -> Priority {
        if core < self.high_cores {
            Priority::High
        } else {
            Priority::Normal
        }
    }
}

impl RequestPolicy for StaticPolicy {
    fn name(&self) -> &'static str {
        "static"
    }
    fn request_priority(&mut self, _: usize, _: usize, core: usize, _: u32, _: Cycle) -> Priority {
        self.decide(core)
    }
}

impl ResponsePolicy for StaticPolicy {
    fn name(&self) -> &'static str {
        "static"
    }
    fn response_priority(&mut self, _: usize, core: usize, _: u32, _: Cycle) -> Priority {
        self.decide(core)
    }
}

/// The request policy `cfg.policy.request` selects.
#[must_use]
pub fn build_request_policy(cfg: &SystemConfig, total_banks: usize) -> Box<dyn RequestPolicy> {
    match cfg.policy.request {
        RequestPolicyKind::Baseline => Box::new(BaselinePolicy),
        RequestPolicyKind::Scheme2 => Box::new(Scheme2Policy::new(cfg, total_banks)),
        RequestPolicyKind::OldestFirst => Box::new(OldestFirstPolicy::new(cfg)),
        RequestPolicyKind::Static => Box::new(StaticPolicy::new(cfg)),
    }
}

/// The response policy `cfg.policy.response` selects.
#[must_use]
pub fn build_response_policy(cfg: &SystemConfig) -> Box<dyn ResponsePolicy> {
    match cfg.policy.response {
        ResponsePolicyKind::Baseline => Box::new(BaselinePolicy),
        ResponsePolicyKind::Scheme1 => Box::new(Scheme1Policy::new(cfg)),
        ResponsePolicyKind::OldestFirst => Box::new(OldestFirstPolicy::new(cfg)),
        ResponsePolicyKind::Static => Box::new(StaticPolicy::new(cfg)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::baseline_32()
    }

    #[test]
    fn every_kind_builds_the_policy_of_its_name() {
        for kind in RequestPolicyKind::ALL {
            let mut c = cfg();
            c.policy.request = kind;
            assert_eq!(build_request_policy(&c, 64).name(), kind.name());
        }
        for kind in ResponsePolicyKind::ALL {
            let mut c = cfg();
            c.policy.response = kind;
            assert_eq!(build_response_policy(&c).name(), kind.name());
        }
    }

    #[test]
    fn baseline_never_expedites() {
        let mut p = BaselinePolicy;
        for i in 0..8 {
            assert_eq!(
                RequestPolicy::request_priority(&mut p, i, i, i, 4000, 100),
                Priority::Normal
            );
            assert_eq!(
                ResponsePolicy::response_priority(&mut p, 0, i, 4000, 100),
                Priority::Normal
            );
        }
        assert!(ResponsePolicy::poll_updates(&mut p, 10_000).is_empty());
    }

    #[test]
    fn scheme2_policy_matches_bank_history_semantics() {
        let c = cfg();
        let mut p = Scheme2Policy::new(&c, 64);
        // First request to an idle bank is expedited; an immediate repeat
        // from the same node is not; other nodes keep their own history.
        assert_eq!(p.request_priority(3, 7, 3, 0, 1000), Priority::High);
        assert_eq!(p.request_priority(3, 7, 3, 0, 1010), Priority::Normal);
        assert_eq!(p.request_priority(4, 7, 4, 0, 1010), Priority::High);
        // The window expires.
        let past = 1010 + c.scheme2.history_window + 1;
        assert_eq!(p.request_priority(3, 7, 3, 0, past), Priority::High);
    }

    #[test]
    fn scheme1_policy_threshold_lifecycle() {
        let c = cfg();
        let mut p = Scheme1Policy::new(&c);
        // No completed accesses yet: nothing to advertise, nothing late.
        assert!(p.poll_updates(c.scheme1.update_period).is_empty());
        assert_eq!(p.response_priority(0, 5, u32::MAX - 1, 0), Priority::Normal);
        // Feed round trips and let the schedule fire.
        for _ in 0..50 {
            p.record_round_trip(5, 300);
        }
        let updates = p.poll_updates(2 * c.scheme1.update_period);
        assert_eq!(updates.len(), 1);
        let (core, threshold) = updates[0];
        assert_eq!(core, 5);
        assert!(
            (300..=400).contains(&threshold),
            "≈1.2 × 300, got {threshold}"
        );
        // Install at controller 1 only: controller 0 still sees MAX.
        p.install_threshold(1, core, threshold);
        assert_eq!(
            p.response_priority(1, core, threshold + 1, 0),
            Priority::High
        );
        assert_eq!(p.response_priority(1, core, threshold, 0), Priority::Normal);
        assert_eq!(
            p.response_priority(0, core, threshold + 1, 0),
            Priority::Normal
        );
    }

    #[test]
    fn oldest_first_expedites_above_running_average() {
        let mut p = OldestFirstPolicy::new(&cfg());
        // First observation can never be late (no average yet).
        assert_eq!(
            ResponsePolicy::response_priority(&mut p, 0, 0, 1000, 0),
            Priority::Normal
        );
        for _ in 0..100 {
            ResponsePolicy::response_priority(&mut p, 0, 0, 100, 0);
        }
        // 1.2 × ~100 = ~120: 400 is late, 100 is not.
        assert_eq!(
            ResponsePolicy::response_priority(&mut p, 0, 0, 400, 0),
            Priority::High
        );
        assert_eq!(
            ResponsePolicy::response_priority(&mut p, 0, 0, 100, 0),
            Priority::Normal
        );
    }

    #[test]
    fn static_policy_splits_by_core_id() {
        let c = cfg();
        let mut p = StaticPolicy::new(&c);
        let half = c.num_cores() / 2;
        assert_eq!(
            RequestPolicy::request_priority(&mut p, 0, 0, half - 1, 0, 0),
            Priority::High
        );
        assert_eq!(
            RequestPolicy::request_priority(&mut p, 0, 0, half, 0, 0),
            Priority::Normal
        );
        assert_eq!(
            ResponsePolicy::response_priority(&mut p, 0, half - 1, 0, 0),
            Priority::High
        );
        assert_eq!(
            ResponsePolicy::response_priority(&mut p, 0, half, 0, 0),
            Priority::Normal
        );
    }
}
