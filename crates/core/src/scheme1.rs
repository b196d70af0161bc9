//! Scheme-1: expediting late memory responses (Section 3.1).
//!
//! Each core tracks the dynamic average round-trip delay (`Delay_avg`) of
//! its completed off-chip accesses and periodically sends
//! `threshold = factor × Delay_avg` to every memory controller. When a
//! controller is about to inject a response whose accumulated so-far delay
//! exceeds the owning application's threshold, the response is marked
//! high-priority for its entire return path, so the latency tail is
//! squeezed toward the mean.

use noclat_sim::config::Scheme1Config;
use noclat_sim::stats::Ewma;
use noclat_sim::Cycle;

/// Smoothing weight for the dynamic `Delay_avg`. The paper recomputes the
/// average as responses return; an EWMA keeps it phase-adaptive without
/// unbounded state.
const DELAY_AVG_ALPHA: f64 = 0.05;

/// Core-side state: per-application dynamic delay averages and the periodic
/// threshold-update schedule.
#[derive(Debug, Clone)]
pub struct Scheme1 {
    cfg: Scheme1Config,
    delay_avg: Vec<Ewma>,
    next_update: Cycle,
}

impl Scheme1 {
    /// Creates state for `num_cores` applications.
    #[must_use]
    pub fn new(cfg: Scheme1Config, num_cores: usize) -> Self {
        Scheme1 {
            delay_avg: vec![Ewma::new(DELAY_AVG_ALPHA); num_cores],
            next_update: cfg.update_period,
            cfg,
        }
    }

    /// Number of applications (cores) being tracked.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.delay_avg.len()
    }

    /// Records a completed off-chip access's round-trip delay for `core`.
    pub fn record_round_trip(&mut self, core: usize, delay: Cycle) {
        self.delay_avg[core].record(delay as f64);
    }

    /// Current `Delay_avg` of `core`, if any access has completed.
    #[must_use]
    pub fn delay_avg(&self, core: usize) -> Option<f64> {
        self.delay_avg[core].value()
    }

    /// The threshold `core` would currently advertise
    /// (`factor × Delay_avg`), if it has one.
    #[must_use]
    pub fn threshold(&self, core: usize) -> Option<u32> {
        self.delay_avg[core]
            .value()
            .map(|avg| (self.cfg.threshold_factor * avg).round().max(1.0) as u32)
    }

    /// The cycle of the next scheduled threshold broadcast (the schedule's
    /// wake-up for the event kernel: skipping past it would shift every
    /// later update).
    #[must_use]
    pub fn next_update_at(&self) -> Cycle {
        self.next_update
    }

    /// Whether threshold-update messages are due at `now`; if so, advances
    /// the schedule and returns true. The caller then sends each core's
    /// [`Scheme1::threshold`] to every controller.
    pub fn update_due(&mut self, now: Cycle) -> bool {
        if now < self.next_update {
            return false;
        }
        self.next_update = now + self.cfg.update_period;
        true
    }
}

/// Controller-side state: the latest threshold received from each core.
/// Until a core's first update arrives, its responses are never considered
/// late (threshold = `u32::MAX`).
#[derive(Debug, Clone)]
pub struct ThresholdTable {
    thresholds: Vec<u32>,
}

impl ThresholdTable {
    /// Creates a table for `num_cores` applications.
    #[must_use]
    pub fn new(num_cores: usize) -> Self {
        ThresholdTable {
            thresholds: vec![u32::MAX; num_cores],
        }
    }

    /// Installs a received threshold update.
    pub fn set(&mut self, core: usize, threshold: u32) {
        self.thresholds[core] = threshold;
    }

    /// The decision of Section 3.1: is a response with this so-far delay
    /// late for `core`?
    #[must_use]
    pub fn is_late(&self, core: usize, so_far_delay: u32) -> bool {
        so_far_delay > self.thresholds[core]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noclat_sim::config::SystemConfig;

    fn cfg() -> Scheme1Config {
        SystemConfig::baseline_32().scheme1
    }

    #[test]
    fn threshold_tracks_average() {
        let mut s = Scheme1::new(cfg(), 2);
        assert_eq!(s.threshold(0), None);
        for _ in 0..200 {
            s.record_round_trip(0, 300);
        }
        let th = s.threshold(0).unwrap();
        assert!(
            (355..=365).contains(&th),
            "1.2 × 300 should be ~360, got {th}"
        );
        assert_eq!(s.threshold(1), None, "cores are independent");
    }

    #[test]
    fn threshold_never_rounds_to_zero() {
        let mut s = Scheme1::new(cfg(), 1);
        s.record_round_trip(0, 0); // degenerate zero-delay sample
        assert_eq!(s.threshold(0), Some(1), "threshold floors at 1 cycle");
    }

    #[test]
    fn update_schedule_fires_periodically() {
        let mut s = Scheme1::new(cfg(), 1);
        let period = cfg().update_period;
        assert!(!s.update_due(period - 1));
        assert!(s.update_due(period));
        assert!(!s.update_due(period + 1));
        assert!(s.update_due(2 * period));
    }

    #[test]
    fn table_defaults_to_never_late() {
        let t = ThresholdTable::new(4);
        assert!(!t.is_late(2, u32::MAX - 1));
    }

    #[test]
    fn table_lateness_decision() {
        let mut t = ThresholdTable::new(4);
        t.set(1, 400);
        assert!(!t.is_late(1, 400), "equal to threshold is not late");
        assert!(t.is_late(1, 401));
        assert!(!t.is_late(0, 401), "other cores unaffected");
    }

    #[test]
    fn saturated_age_is_still_late_not_wrapped() {
        use noclat_noc::accumulate_age;
        // The so-far-delay field is 12 bits (Section 3.1): a message that
        // has waited past 4095 cycles must saturate at the maximum, not
        // wrap around to a small value that would read as "young" and lose
        // its expedited treatment at the controller.
        let max_age = SystemConfig::baseline_32().noc.max_age();
        assert_eq!(max_age, 4095, "paper's 12-bit age field");
        let near_full = max_age - 10;
        let saturated = accumulate_age(near_full, 100, 1, max_age);
        assert_eq!(saturated, max_age, "accumulation caps at the field max");
        assert_eq!(
            accumulate_age(saturated, 1, 1, max_age),
            max_age,
            "further hops stay pinned at the max"
        );
        let mut t = ThresholdTable::new(1);
        t.set(0, 400);
        assert!(
            t.is_late(0, saturated),
            "a saturated age must still exceed any realistic threshold"
        );
        // Wraparound would have produced (near_full + 100) mod 4096 = 89,
        // which reads as a fresh message and silently drops the priority.
        let wrapped = (u64::from(near_full) + 100) % (u64::from(max_age) + 1);
        assert!(!t.is_late(0, wrapped as u32), "the bug saturation prevents");
    }

    #[test]
    fn saturation_with_frequency_multiplier_cannot_overflow() {
        use noclat_noc::accumulate_age;
        let max_age = 4095;
        // Even an absurd delay × multiplier product saturates cleanly.
        assert_eq!(accumulate_age(4000, u64::MAX, u32::MAX, max_age), max_age);
        assert_eq!(accumulate_age(max_age, 0, 1, max_age), max_age);
    }

    #[test]
    fn delay_avg_adapts_to_phases() {
        let mut s = Scheme1::new(cfg(), 1);
        for _ in 0..200 {
            s.record_round_trip(0, 200);
        }
        for _ in 0..200 {
            s.record_round_trip(0, 800);
        }
        let avg = s.delay_avg(0).unwrap();
        assert!(avg > 700.0, "average must follow the new phase, got {avg}");
    }
}
