//! The prioritization-policy layer: two closed enums, one per decision
//! point, each matched once per decision.
//!
//! Every point where a message's network priority is decided is one of
//! three:
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
//! [`noclat_sim::config::PolicyConfig`] pair of kinds; a policy is the
//! variant its kind names, holding that policy's state, and an arm in each
//! decision it takes part in (`DESIGN.md` §10).

use noclat_noc::Priority;
use noclat_sim::config::{RequestPolicyKind, ResponsePolicyKind, SystemConfig};
use noclat_sim::stats::Ewma;
use noclat_sim::Cycle;

use crate::scheme1::{Scheme1, ThresholdTable};
use crate::scheme2::BankHistoryTable;

/// Smoothing weight for the oldest-first policies' running age averages
/// (mirrors Scheme-1's `Delay_avg` smoothing so the two are comparable).
const OLDEST_FIRST_ALPHA: f64 = 0.05;

fn expedite(yes: bool) -> Priority {
    if yes {
        Priority::High
    } else {
        Priority::Normal
    }
}

/// State of the global-age ("oldest-first") policies: expedite a message
/// whose so-far delay exceeds `factor ×` the running average of all delays
/// seen at the same decision point. A message-free, locally-computed
/// ablation of Scheme-1's core-driven thresholds (the comparison uses the
/// pre-update average, then records, so the decision sequence is
/// deterministic).
#[derive(Debug, Clone)]
pub struct RunningAge {
    avg: Ewma,
    factor: f64,
}

impl RunningAge {
    /// Uses the Scheme-1 threshold factor so the two are comparable.
    fn new(cfg: &SystemConfig) -> Self {
        RunningAge {
            avg: Ewma::new(OLDEST_FIRST_ALPHA),
            factor: cfg.scheme1.threshold_factor,
        }
    }

    fn decide(&mut self, age: u32) -> Priority {
        let avg = self.avg.value();
        let late = avg.is_some_and(|avg| f64::from(age) > self.factor * avg);
        self.avg.record(f64::from(age));
        expedite(late)
    }
}

/// The static criticality classes: the lower half of the core IDs is always
/// high priority, everyone else never is. Models the fixed-priority end of
/// the criticality spectrum discussed in the *Data Criticality in
/// Network-on-Chip Design* line of related work (PAPERS.md).
fn high_cores(cfg: &SystemConfig) -> usize {
    cfg.num_cores() / 2
}

/// Decision point 1: the priority an L2 miss gets when it is injected into
/// the request network toward a memory controller.
#[derive(Debug, Clone)]
pub enum RequestPolicy {
    /// Every request at normal priority: the schemes disabled.
    Baseline,
    /// Scheme-2 (Section 3.2): one Bank History Table per node expedites
    /// requests aimed at banks this tile has not used recently.
    Scheme2(Vec<BankHistoryTable>),
    /// Expedite requests older than the running average age.
    OldestFirst(RunningAge),
    /// The first `high_cores` cores' requests are always expedited.
    Static {
        /// Size of the high-priority class.
        high_cores: usize,
    },
}

impl RequestPolicy {
    /// The policy `cfg.policy.request` selects, over `total_banks` DRAM
    /// banks.
    #[must_use]
    pub fn new(cfg: &SystemConfig, total_banks: usize) -> Self {
        match cfg.policy.request {
            RequestPolicyKind::Baseline => Self::Baseline,
            RequestPolicyKind::Scheme2 => Self::Scheme2(
                (0..cfg.num_cores())
                    .map(|_| BankHistoryTable::new(cfg.scheme2, total_banks))
                    .collect(),
            ),
            RequestPolicyKind::OldestFirst => Self::OldestFirst(RunningAge::new(cfg)),
            RequestPolicyKind::Static => Self::Static {
                high_cores: high_cores(cfg),
            },
        }
    }

    /// CLI name of this policy (the `name()` of the kind that selects it).
    #[must_use]
    pub fn name(&self) -> &'static str {
        let kind = match self {
            Self::Baseline => RequestPolicyKind::Baseline,
            Self::Scheme2(_) => RequestPolicyKind::Scheme2,
            Self::OldestFirst(_) => RequestPolicyKind::OldestFirst,
            Self::Static { .. } => RequestPolicyKind::Static,
        };
        kind.name()
    }

    /// Decides the injection priority of an off-chip request leaving the L2
    /// bank at `node`, issued by `core`, targeting global DRAM `bank`, with
    /// so-far delay `age`. Called exactly once per injected request (a
    /// stateful policy records the event).
    pub fn request_priority(
        &mut self,
        node: usize,
        bank: usize,
        core: usize,
        age: u32,
        now: Cycle,
    ) -> Priority {
        match self {
            Self::Baseline => Priority::Normal,
            Self::Scheme2(tables) => {
                let idle = tables[node].should_expedite(bank, now);
                tables[node].record(bank, now);
                expedite(idle)
            }
            Self::OldestFirst(ages) => ages.decide(age),
            Self::Static { high_cores } => expedite(core < *high_cores),
        }
    }
}

/// Decision point 2: the priority a memory controller gives a response it
/// is about to inject, plus the feedback/update side-channel Scheme-1 uses
/// (the other policies take no part in it).
#[derive(Debug, Clone)]
pub enum ResponsePolicy {
    /// Every response at normal priority: the schemes disabled.
    Baseline,
    /// Scheme-1 (Section 3.1): cores advertise `factor × Delay_avg`
    /// thresholds to the controllers, which expedite responses whose
    /// so-far delay exceeds the owner's threshold.
    Scheme1 {
        /// Core-side averages and the broadcast schedule.
        cores: Scheme1,
        /// One threshold table per controller.
        tables: Vec<ThresholdTable>,
    },
    /// Expedite responses older than the running average age.
    OldestFirst(RunningAge),
    /// The first `high_cores` cores' responses are always expedited.
    Static {
        /// Size of the high-priority class.
        high_cores: usize,
    },
}

impl ResponsePolicy {
    /// The policy `cfg.policy.response` selects.
    #[must_use]
    pub fn new(cfg: &SystemConfig) -> Self {
        let n = cfg.num_cores();
        match cfg.policy.response {
            ResponsePolicyKind::Baseline => Self::Baseline,
            ResponsePolicyKind::Scheme1 => Self::Scheme1 {
                cores: Scheme1::new(cfg.scheme1, n),
                tables: vec![ThresholdTable::new(n); cfg.mem.num_controllers],
            },
            ResponsePolicyKind::OldestFirst => Self::OldestFirst(RunningAge::new(cfg)),
            ResponsePolicyKind::Static => Self::Static {
                high_cores: high_cores(cfg),
            },
        }
    }

    /// CLI name of this policy (the `name()` of the kind that selects it).
    #[must_use]
    pub fn name(&self) -> &'static str {
        let kind = match self {
            Self::Baseline => ResponsePolicyKind::Baseline,
            Self::Scheme1 { .. } => ResponsePolicyKind::Scheme1,
            Self::OldestFirst(_) => ResponsePolicyKind::OldestFirst,
            Self::Static { .. } => ResponsePolicyKind::Static,
        };
        kind.name()
    }

    /// Threshold updates to broadcast this cycle, as `(core, threshold)`
    /// pairs; an empty vector means no messages (and no network activity).
    /// Called once per cycle before the network ticks.
    pub fn poll_updates(&mut self, now: Cycle) -> Vec<(usize, u32)> {
        let Self::Scheme1 { cores, .. } = self else {
            return Vec::new();
        };
        if !cores.update_due(now) {
            return Vec::new();
        }
        (0..cores.num_cores())
            .filter_map(|c| cores.threshold(c).map(|t| (c, t)))
            .collect()
    }

    /// The next cycle at which [`ResponsePolicy::poll_updates`] could return
    /// anything (the policy's wake-up for the event kernel). `None` means
    /// the policy never initiates traffic on its own.
    #[must_use]
    pub fn next_update(&self) -> Option<Cycle> {
        match self {
            Self::Scheme1 { cores, .. } => Some(cores.next_update_at()),
            _ => None,
        }
    }

    /// Installs a threshold update delivered to controller `mc`.
    pub fn install_threshold(&mut self, mc: usize, core: usize, threshold: u32) {
        if let Self::Scheme1 { tables, .. } = self {
            tables[mc].set(core, threshold);
        }
    }

    /// Feedback when an off-chip access completes at the core: the
    /// round-trip delay read from the returning message's age field.
    pub fn record_round_trip(&mut self, core: usize, final_age: u32) {
        if let Self::Scheme1 { cores, .. } = self {
            cores.record_round_trip(core, Cycle::from(final_age));
        }
    }

    /// Decides the injection priority of the response controller `mc` is
    /// about to send back for `core`'s access, whose accumulated so-far
    /// delay is `so_far_delay`.
    pub fn response_priority(&mut self, mc: usize, core: usize, so_far_delay: u32) -> Priority {
        match self {
            Self::Baseline => Priority::Normal,
            Self::Scheme1 { tables, .. } => expedite(tables[mc].is_late(core, so_far_delay)),
            Self::OldestFirst(ages) => ages.decide(so_far_delay),
            Self::Static { high_cores } => expedite(core < *high_cores),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        SystemConfig::baseline_32()
    }

    fn request(kind: RequestPolicyKind) -> RequestPolicy {
        let mut c = cfg();
        c.policy.request = kind;
        RequestPolicy::new(&c, 64)
    }

    fn response(kind: ResponsePolicyKind) -> ResponsePolicy {
        let mut c = cfg();
        c.policy.response = kind;
        ResponsePolicy::new(&c)
    }

    #[test]
    fn every_kind_builds_the_policy_of_its_name() {
        for kind in RequestPolicyKind::ALL {
            assert_eq!(request(kind).name(), kind.name());
        }
        for kind in ResponsePolicyKind::ALL {
            assert_eq!(response(kind).name(), kind.name());
        }
    }

    #[test]
    fn baseline_never_expedites() {
        let mut req = request(RequestPolicyKind::Baseline);
        let mut resp = response(ResponsePolicyKind::Baseline);
        for i in 0..8 {
            assert_eq!(req.request_priority(i, i, i, 4000, 100), Priority::Normal);
            assert_eq!(resp.response_priority(0, i, 4000), Priority::Normal);
        }
        assert!(resp.poll_updates(10_000).is_empty());
        assert_eq!(resp.next_update(), None);
    }

    #[test]
    fn scheme2_policy_matches_bank_history_semantics() {
        let c = cfg();
        let mut p = request(RequestPolicyKind::Scheme2);
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
        let mut p = response(ResponsePolicyKind::Scheme1);
        assert_eq!(p.next_update(), Some(c.scheme1.update_period));
        // No completed accesses yet: nothing to advertise, nothing late.
        assert!(p.poll_updates(c.scheme1.update_period).is_empty());
        assert_eq!(p.response_priority(0, 5, u32::MAX - 1), Priority::Normal);
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
        assert_eq!(p.response_priority(1, core, threshold + 1), Priority::High);
        assert_eq!(p.response_priority(1, core, threshold), Priority::Normal);
        assert_eq!(
            p.response_priority(0, core, threshold + 1),
            Priority::Normal
        );
    }

    #[test]
    fn oldest_first_expedites_above_running_average() {
        let mut p = response(ResponsePolicyKind::OldestFirst);
        // First observation can never be late (no average yet).
        assert_eq!(p.response_priority(0, 0, 1000), Priority::Normal);
        for _ in 0..100 {
            p.response_priority(0, 0, 100);
        }
        // 1.2 × ~100 = ~120: 400 is late, 100 is not.
        assert_eq!(p.response_priority(0, 0, 400), Priority::High);
        assert_eq!(p.response_priority(0, 0, 100), Priority::Normal);
        // The request side runs the same rule on the request's age.
        let mut p = request(RequestPolicyKind::OldestFirst);
        assert_eq!(p.request_priority(0, 0, 0, 1000, 0), Priority::Normal);
        assert_eq!(p.request_priority(0, 0, 0, 5000, 0), Priority::High);
    }

    #[test]
    fn static_policy_splits_by_core_id() {
        let half = cfg().num_cores() / 2;
        let mut req = request(RequestPolicyKind::Static);
        assert_eq!(req.request_priority(0, 0, half - 1, 0, 0), Priority::High);
        assert_eq!(req.request_priority(0, 0, half, 0, 0), Priority::Normal);
        let mut resp = response(ResponsePolicyKind::Static);
        assert_eq!(resp.response_priority(0, half - 1, 0), Priority::High);
        assert_eq!(resp.response_priority(0, half, 0), Priority::Normal);
    }
}
