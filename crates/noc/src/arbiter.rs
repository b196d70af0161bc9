//! Priority- and age-aware arbitration (Section 3.3).
//!
//! A high-priority flit beats a normal-priority one *unless* the normal flit
//! is older by more than the starvation guard `T`. Within a class, older
//! flits win ("the routers also consider the local delays in addition to the
//! age fields"); remaining ties break round-robin.
//!
//! This is implemented as a scalar key: high-priority candidates get a bonus
//! of exactly `T` cycles on top of their effective age, so
//! `high wins ⇔ age_normal ≤ age_high + T`, which is the paper's rule.

use noclat_sim::config::StarvationPolicy;

use crate::packet::Priority;

/// A competitor in a VA or SA arbitration round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Caller-defined identifier (e.g. `(input_port, vc)` encoded as an
    /// index); returned on grant.
    pub tag: usize,
    /// Arbitration priority.
    pub priority: Priority,
    /// Effective age: header age plus time already waited at this router.
    pub effective_age: u64,
    /// Injection batch (used by the batching starvation policy).
    pub batch: u32,
}

/// Scalar arbitration key; larger wins.
#[must_use]
pub fn arbitration_key(priority: Priority, effective_age: u64, starvation_guard: u32) -> u64 {
    match priority {
        Priority::High => effective_age.saturating_add(u64::from(starvation_guard)),
        Priority::Normal => effective_age,
    }
}

/// Arbitration key under the batching policy: packets from an older batch
/// beat any priority difference; within a batch, high priority wins, then
/// age (the batching method the paper cites and contrasts with its age
/// guard).
#[must_use]
pub fn batching_key(batch: u32, priority: Priority, effective_age: u64) -> u64 {
    let batch_rank = u64::from(u32::MAX - batch) << 21;
    let pri = u64::from(priority == Priority::High) << 20;
    batch_rank + pri + effective_age.min((1 << 20) - 1)
}

/// Key for a candidate under the configured policy (decision point 3 of
/// the policy layer); larger wins. Equal keys prefer the higher priority
/// class, then round-robin — that tie-break lives in
/// [`RoundRobinArbiter::pick`] and is shared by every policy.
///
/// * `AgeGuard` — the paper's Section-3.3 rule: high priority wins unless a
///   normal candidate is older by more than the guard `T`.
/// * `Batching` — the alternative the paper cites: an older batch beats any
///   priority difference; within a batch, priority then age.
/// * `OldestFirst` — the oldest flit wins outright; priority only breaks
///   exact-age ties.
/// * `StaticPriority` — the priority class alone decides; within a class,
///   round-robin. No starvation protection.
#[must_use]
pub fn key_for(policy: StarvationPolicy, guard: u32, c: &Candidate) -> u64 {
    match policy {
        StarvationPolicy::AgeGuard => arbitration_key(c.priority, c.effective_age, guard),
        StarvationPolicy::Batching { .. } => batching_key(c.batch, c.priority, c.effective_age),
        StarvationPolicy::OldestFirst => c.effective_age,
        StarvationPolicy::StaticPriority => u64::from(c.priority == Priority::High),
    }
}

/// Round-robin tie-breaking arbiter over [`key_for`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundRobinArbiter {
    next: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter with its pointer at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Picks a winner among `candidates` under `policy` (with starvation
    /// guard `guard`); returns its `tag`, or `None` when there are no
    /// candidates. Ties on the key prefer the higher priority class, then
    /// the first candidate at or after the rotating pointer, which advances
    /// past the winner.
    ///
    /// The rotating pointer is an index into the candidate list of the
    /// *previous* call, taken modulo the *current* candidate count: which
    /// candidate an equal-key tie falls to depends on the list's length and
    /// order, not only on its members. A caller that must reproduce a grant
    /// sequence has to present the same candidates in the same order (the
    /// router lists them in ascending `(port, vc)` order).
    ///
    /// # Panics
    ///
    /// In debug builds, under [`StarvationPolicy::AgeGuard`], if a `High`
    /// winner beats a `Normal` candidate older than it by more than `guard`
    /// (the paper's starvation bound, Section 3.3).
    pub fn pick(
        &mut self,
        candidates: &[Candidate],
        policy: StarvationPolicy,
        guard: u32,
    ) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        let n = candidates.len();
        let mut best: Option<(u64, Priority, usize)> = None; // (key, prio, offset)
        for offset in 0..n {
            let idx = (self.next + offset) % n;
            let c = candidates[idx];
            let key = key_for(policy, guard, &c);
            let better = match best {
                None => true,
                Some((bk, bp, _)) => key > bk || (key == bk && c.priority > bp),
            };
            if better {
                best = Some((key, c.priority, idx));
            }
        }
        let (_, _, idx) = best.expect("non-empty candidate list");
        self.next = (idx + 1) % n.max(1);
        let winner = &candidates[idx];
        if cfg!(debug_assertions)
            && policy == StarvationPolicy::AgeGuard
            && winner.priority == Priority::High
        {
            let bound = winner.effective_age.saturating_add(u64::from(guard));
            for c in candidates.iter().filter(|c| c.priority == Priority::Normal) {
                debug_assert!(
                    c.effective_age <= bound,
                    "high-priority grant (age {}) over a normal candidate of age {} \
                     beyond the starvation guard {guard}",
                    winner.effective_age,
                    c.effective_age
                );
            }
        }
        Some(winner.tag)
    }

    /// What [`RoundRobinArbiter::pick`] does to the pointer when the list
    /// holds one candidate — it returns to the start — for a caller that
    /// knows the lone winner without listing it.
    pub(crate) fn grant_sole(&mut self) {
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AGE_GUARD: StarvationPolicy = StarvationPolicy::AgeGuard;
    const BATCHING: StarvationPolicy = StarvationPolicy::Batching { interval: 64 };

    fn cand(tag: usize, priority: Priority, age: u64) -> Candidate {
        Candidate {
            tag,
            priority,
            effective_age: age,
            batch: 0,
        }
    }

    #[test]
    fn high_beats_normal_within_guard() {
        let mut arb = RoundRobinArbiter::new();
        let got = arb.pick(
            &[cand(0, Priority::Normal, 100), cand(1, Priority::High, 10)],
            AGE_GUARD,
            1000,
        );
        assert_eq!(got, Some(1));
    }

    #[test]
    fn starved_normal_beats_high() {
        // Normal is older than high by more than the guard (Section 3.3
        // condition 2), so it must win.
        let mut arb = RoundRobinArbiter::new();
        let got = arb.pick(
            &[cand(0, Priority::Normal, 1500), cand(1, Priority::High, 10)],
            AGE_GUARD,
            1000,
        );
        assert_eq!(got, Some(0));
    }

    #[test]
    fn guard_boundary_prefers_high() {
        // age_normal == age_high + T is "not more than T greater" → high wins.
        let mut arb = RoundRobinArbiter::new();
        let got = arb.pick(
            &[cand(0, Priority::Normal, 1010), cand(1, Priority::High, 10)],
            AGE_GUARD,
            1000,
        );
        assert_eq!(got, Some(1));
    }

    #[test]
    fn oldest_wins_within_class() {
        let mut arb = RoundRobinArbiter::new();
        let got = arb.pick(
            &[
                cand(0, Priority::Normal, 5),
                cand(1, Priority::Normal, 50),
                cand(2, Priority::Normal, 20),
            ],
            AGE_GUARD,
            1000,
        );
        assert_eq!(got, Some(1));
    }

    #[test]
    fn round_robin_rotates_on_ties() {
        let mut arb = RoundRobinArbiter::new();
        let cands = [
            cand(0, Priority::Normal, 7),
            cand(1, Priority::Normal, 7),
            cand(2, Priority::Normal, 7),
        ];
        let mut wins = Vec::new();
        for _ in 0..6 {
            wins.push(arb.pick(&cands, AGE_GUARD, 1000).unwrap());
        }
        // Every candidate must win at least once across the rotation.
        for tag in 0..3 {
            assert!(wins.contains(&tag), "tag {tag} never won: {wins:?}");
        }
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut arb = RoundRobinArbiter::new();
        assert_eq!(arb.pick(&[], AGE_GUARD, 1000), None);
    }

    /// Section 3.3's bound on random lists where the guard decides often
    /// (ages within a few guards of each other): a `High` grant never passes
    /// over a `Normal` candidate older by more than the guard — checked
    /// here, and by `pick` itself on every debug-build grant.
    #[test]
    fn age_guard_grants_respect_the_starvation_bound() {
        let mut rng = noclat_sim::rng::SimRng::new(25);
        let mut arb = RoundRobinArbiter::new();
        for _ in 0..2_000 {
            let cands: Vec<Candidate> = (0..1 + rng.index(12))
                .map(|tag| {
                    let priority = if rng.chance(0.3) {
                        Priority::High
                    } else {
                        Priority::Normal
                    };
                    cand(tag, priority, rng.below(40))
                })
                .collect();
            let won = cands[arb.pick(&cands, AGE_GUARD, 10).expect("non-empty")];
            if won.priority == Priority::High {
                assert!(cands
                    .iter()
                    .filter(|c| c.priority == Priority::Normal)
                    .all(|c| c.effective_age <= won.effective_age + 10));
            }
        }
    }

    #[test]
    fn batching_older_batch_beats_priority() {
        let old_normal = Candidate {
            tag: 0,
            priority: Priority::Normal,
            effective_age: 5,
            batch: 2,
        };
        let new_high = Candidate {
            tag: 1,
            priority: Priority::High,
            effective_age: 900,
            batch: 3,
        };
        let mut arb = RoundRobinArbiter::new();
        assert_eq!(arb.pick(&[old_normal, new_high], BATCHING, 1000), Some(0));
    }

    #[test]
    fn batching_same_batch_uses_priority_then_age() {
        let normal = Candidate {
            tag: 0,
            priority: Priority::Normal,
            effective_age: 500,
            batch: 7,
        };
        let high = Candidate {
            tag: 1,
            priority: Priority::High,
            effective_age: 5,
            batch: 7,
        };
        let mut arb = RoundRobinArbiter::new();
        assert_eq!(arb.pick(&[normal, high], BATCHING, 1000), Some(1));
    }

    #[test]
    fn key_saturates() {
        assert_eq!(arbitration_key(Priority::High, u64::MAX, 1000), u64::MAX);
    }

    #[test]
    fn age_guard_tie_at_exactly_equal_ages_prefers_high() {
        // T_starve edge: with equal effective ages the keys differ by
        // exactly the guard, and with guard 0 the keys are *equal* — the
        // shared tie-break must still hand the grant to the High class.
        let mut arb = RoundRobinArbiter::new();
        let cands = [cand(0, Priority::Normal, 42), cand(1, Priority::High, 42)];
        assert_eq!(arb.pick(&cands, AGE_GUARD, 1000), Some(1));
        let mut arb = RoundRobinArbiter::new();
        assert_eq!(
            arb.pick(&cands, AGE_GUARD, 0),
            Some(1),
            "equal keys break by class"
        );
    }

    #[test]
    fn oldest_first_ignores_priority_static_ignores_age() {
        let old_normal = cand(0, Priority::Normal, 500);
        let young_high = cand(1, Priority::High, 10);
        let mut arb = RoundRobinArbiter::new();
        assert_eq!(
            arb.pick(
                &[old_normal, young_high],
                StarvationPolicy::OldestFirst,
                1000
            ),
            Some(0)
        );
        let mut arb = RoundRobinArbiter::new();
        assert_eq!(
            arb.pick(
                &[old_normal, young_high],
                StarvationPolicy::StaticPriority,
                1000
            ),
            Some(1)
        );
    }
}
