//! End-to-end latency accounting: per-application round-trip histograms,
//! so-far-delay histograms at the memory controller, and the five-segment
//! path breakdown of Figure 4.

use noclat_sim::stats::{Histogram, RunningMean};
use noclat_sim::Cycle;

/// Histogram geometry for latency distributions: 25-cycle bins over
/// `[0, 4000)` (the 12-bit age field saturates at 4095).
const BIN_WIDTH: u64 = 25;
const RANGE: u64 = 4000;
/// Bucket width for the Figure-4 style breakdown (delay ranges on the
/// x-axis).
const BREAKDOWN_BUCKET: u64 = 50;

/// Timestamps of one off-chip transaction along the five paths of Figure 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnTimes {
    /// L1 miss detected; request injected toward L2 (start of path 1).
    pub issued: Cycle,
    /// Request delivered at the L2 bank (end of path 1).
    pub at_l2: Cycle,
    /// Request delivered at the memory controller (end of path 2).
    pub at_mc: Cycle,
    /// Data read from DRAM; response about to be injected (end of path 3).
    pub mc_done: Cycle,
    /// Response delivered back at the L2 bank (end of path 4).
    pub back_at_l2: Cycle,
    /// Data filled into L1/core (end of path 5).
    pub done: Cycle,
}

impl TxnTimes {
    /// Total round-trip delay.
    #[must_use]
    pub fn total(&self) -> Cycle {
        self.done.saturating_sub(self.issued)
    }

    /// The six stamps in path order, `issued` first. A complete off-chip
    /// access has them non-decreasing.
    #[must_use]
    pub fn stamps(&self) -> [Cycle; 6] {
        [
            self.issued,
            self.at_l2,
            self.at_mc,
            self.mc_done,
            self.back_at_l2,
            self.done,
        ]
    }

    /// The five path segments, in Figure-2 order:
    /// `[L1→L2, L2→Mem, Mem, Mem→L2, L2→L1]`.
    #[must_use]
    pub fn segments(&self) -> [Cycle; 5] {
        let at = self.stamps();
        std::array::from_fn(|leg| at[leg + 1].saturating_sub(at[leg]))
    }
}

/// Per-delay-range accumulator for the Figure-4 breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SegmentRow {
    /// Transactions in this delay range.
    pub count: u64,
    /// Summed segment delays `[L1→L2, L2→Mem, Mem, Mem→L2, L2→L1]`.
    pub sums: [f64; 5],
}

impl SegmentRow {
    /// Average segment delays for this range.
    #[must_use]
    pub fn averages(&self) -> [f64; 5] {
        if self.count == 0 {
            [0.0; 5]
        } else {
            self.sums.map(|s| s / self.count as f64)
        }
    }

    /// Merges another row into this one (shard reduction).
    pub fn merge(&mut self, other: &SegmentRow) {
        self.count += other.count;
        for (a, b) in self.sums.iter_mut().zip(&other.sums) {
            *a += b;
        }
    }
}

/// Latency statistics for one application (core).
#[derive(Debug, Clone)]
pub struct AppLatency {
    /// Round-trip delays of completed off-chip accesses.
    pub total: Histogram,
    /// So-far delays captured right after the memory controller (the value
    /// Scheme-1 compares against its threshold; Figure 9's solid curve).
    pub so_far: Histogram,
    /// Figure-4 breakdown rows, indexed by `total / BREAKDOWN_BUCKET`.
    rows: Vec<SegmentRow>,
}

impl AppLatency {
    fn new() -> Self {
        AppLatency {
            total: Histogram::new(BIN_WIDTH, RANGE),
            so_far: Histogram::new(BIN_WIDTH, RANGE),
            rows: vec![SegmentRow::default(); (RANGE / BREAKDOWN_BUCKET) as usize + 1],
        }
    }

    /// Breakdown rows: `(range_start, row)` for every non-empty delay range.
    #[must_use]
    pub fn breakdown(&self) -> Vec<(u64, SegmentRow)> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.count > 0)
            .map(|(i, r)| (i as u64 * BREAKDOWN_BUCKET, *r))
            .collect()
    }

    /// An empty per-application accumulator with the standard geometry, for
    /// use as the identity of a shard reduction.
    #[must_use]
    pub fn empty() -> Self {
        AppLatency::new()
    }

    /// All breakdown rows in bucket order, including empty ones. Together
    /// with [`AppLatency::from_parts`] this is the lossless serialization
    /// surface the sweep journal uses.
    #[must_use]
    pub fn rows(&self) -> &[SegmentRow] {
        &self.rows
    }

    /// Reconstructs an accumulator from its parts (inverse of reading
    /// `total`/`so_far`/[`AppLatency::rows`] back).
    ///
    /// # Panics
    ///
    /// Panics if `rows` does not have the standard breakdown geometry.
    #[must_use]
    pub fn from_parts(total: Histogram, so_far: Histogram, rows: Vec<SegmentRow>) -> Self {
        assert_eq!(
            rows.len(),
            (RANGE / BREAKDOWN_BUCKET) as usize + 1,
            "breakdown row count must match the standard geometry"
        );
        AppLatency {
            total,
            so_far,
            rows,
        }
    }

    /// Merges another application's statistics into this one (shard
    /// reduction): histograms and breakdown rows add sample-for-sample, so
    /// merging the shards of a sharded sweep yields exactly the aggregate a
    /// serial pass over the same runs would produce.
    pub fn merge(&mut self, other: &AppLatency) {
        self.total.merge(&other.total);
        self.so_far.merge(&other.so_far);
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            a.merge(b);
        }
    }
}

/// Tracks latency statistics for every application in a run.
#[derive(Debug, Clone)]
pub struct LatencyTracker {
    apps: Vec<AppLatency>,
    /// Return-path delay (MC-done → core fill) of responses expedited by
    /// Scheme-1.
    expedited_return: RunningMean,
    /// Return-path delay of normal-priority responses.
    normal_return: RunningMean,
    enabled: bool,
}

impl LatencyTracker {
    /// Creates a tracker for `num_cores` applications (enabled).
    #[must_use]
    pub fn new(num_cores: usize) -> Self {
        LatencyTracker {
            apps: (0..num_cores).map(|_| AppLatency::new()).collect(),
            expedited_return: RunningMean::new(),
            normal_return: RunningMean::new(),
            enabled: true,
        }
    }

    /// Suspends recording (warmup).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Resumes recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Discards all recorded samples (end of warmup).
    pub fn reset(&mut self) {
        let n = self.apps.len();
        self.apps = (0..n).map(|_| AppLatency::new()).collect();
        self.expedited_return = RunningMean::new();
        self.normal_return = RunningMean::new();
    }

    /// Records the return-path delay of one response, by priority class.
    pub fn record_return_leg(&mut self, expedited: bool, delay: u64) {
        if !self.enabled {
            return;
        }
        if expedited {
            self.expedited_return.record(delay as f64);
        } else {
            self.normal_return.record(delay as f64);
        }
    }

    /// Mean return-path delay of (expedited, normal) responses.
    #[must_use]
    pub fn return_leg_means(&self) -> (Option<f64>, Option<f64>) {
        (self.expedited_return.mean(), self.normal_return.mean())
    }

    /// The raw (expedited, normal) return-leg accumulators, for lossless
    /// serialization by the sweep journal.
    #[must_use]
    pub fn return_legs(&self) -> (&RunningMean, &RunningMean) {
        (&self.expedited_return, &self.normal_return)
    }

    /// Reconstructs a tracker from its parts (inverse of reading
    /// [`LatencyTracker::app`] per core and [`LatencyTracker::return_legs`]
    /// back). The restored tracker is enabled.
    #[must_use]
    pub fn from_parts(
        apps: Vec<AppLatency>,
        expedited_return: RunningMean,
        normal_return: RunningMean,
    ) -> Self {
        LatencyTracker {
            apps,
            expedited_return,
            normal_return,
            enabled: true,
        }
    }

    /// Records the so-far delay of a response at MC injection time.
    pub fn record_so_far(&mut self, core: usize, so_far: u32) {
        if self.enabled {
            self.apps[core].so_far.record(u64::from(so_far));
        }
    }

    /// Records a completed off-chip transaction.
    pub fn record_completion(&mut self, core: usize, times: &TxnTimes) {
        if !self.enabled {
            return;
        }
        let app = &mut self.apps[core];
        let total = times.total();
        app.total.record(total);
        let bucket = ((total / BREAKDOWN_BUCKET) as usize).min(app.rows.len() - 1);
        let row = &mut app.rows[bucket];
        row.count += 1;
        for (sum, seg) in row.sums.iter_mut().zip(times.segments()) {
            *sum += seg as f64;
        }
    }

    /// Latency statistics of one application.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn app(&self, core: usize) -> &AppLatency {
        &self.apps[core]
    }

    /// Number of tracked applications.
    #[must_use]
    pub fn num_apps(&self) -> usize {
        self.apps.len()
    }

    /// Completed off-chip accesses per application.
    #[must_use]
    pub fn completions(&self) -> Vec<u64> {
        self.apps.iter().map(|a| a.total.count()).collect()
    }

    /// Merges another tracker into this one (shard reduction).
    ///
    /// # Panics
    ///
    /// Panics if the trackers cover different application counts.
    pub fn merge(&mut self, other: &LatencyTracker) {
        assert_eq!(
            self.apps.len(),
            other.apps.len(),
            "tracker app counts must match"
        );
        for (a, b) in self.apps.iter_mut().zip(&other.apps) {
            a.merge(b);
        }
        self.expedited_return.merge(&other.expedited_return);
        self.normal_return.merge(&other.normal_return);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(issued: u64, segs: [u64; 5]) -> TxnTimes {
        let mut t = TxnTimes {
            issued,
            ..TxnTimes::default()
        };
        t.at_l2 = issued + segs[0];
        t.at_mc = t.at_l2 + segs[1];
        t.mc_done = t.at_mc + segs[2];
        t.back_at_l2 = t.mc_done + segs[3];
        t.done = t.back_at_l2 + segs[4];
        t
    }

    #[test]
    fn segments_roundtrip() {
        let t = times(100, [20, 30, 150, 25, 15]);
        assert_eq!(t.segments(), [20, 30, 150, 25, 15]);
        assert_eq!(t.total(), 240);
    }

    #[test]
    fn tracker_records_and_buckets() {
        let mut tr = LatencyTracker::new(2);
        tr.record_completion(0, &times(0, [20, 30, 150, 25, 15])); // total 240
        tr.record_completion(0, &times(0, [20, 30, 160, 25, 15])); // total 250
        tr.record_so_far(0, 200);
        let app = tr.app(0);
        assert_eq!(app.total.count(), 2);
        assert_eq!(app.so_far.count(), 1);
        let rows = app.breakdown();
        assert_eq!(rows.len(), 2, "240 and 250 land in ranges 200 and 250");
        assert_eq!(rows[0].0, 200);
        assert_eq!(rows[1].0, 250);
        let avg = rows[0].1.averages();
        assert_eq!(avg[2], 150.0);
        assert_eq!(tr.completions(), vec![2, 0]);
    }

    #[test]
    fn disabled_tracker_drops_samples() {
        let mut tr = LatencyTracker::new(1);
        tr.disable();
        tr.record_completion(0, &times(0, [1, 1, 1, 1, 1]));
        tr.record_so_far(0, 10);
        assert_eq!(tr.app(0).total.count(), 0);
        assert_eq!(tr.app(0).so_far.count(), 0);
        tr.enable();
        tr.record_completion(0, &times(0, [1, 1, 1, 1, 1]));
        assert_eq!(tr.app(0).total.count(), 1);
    }

    #[test]
    fn reset_clears_samples() {
        let mut tr = LatencyTracker::new(1);
        tr.record_completion(0, &times(0, [1, 1, 1, 1, 1]));
        tr.reset();
        assert_eq!(tr.app(0).total.count(), 0);
    }

    #[test]
    fn tracker_merge_equals_unsharded() {
        let recs = [
            (0usize, times(0, [20, 30, 150, 25, 15])),
            (1, times(0, [10, 10, 400, 10, 10])),
            (0, times(0, [5, 5, 50, 5, 5])),
            (1, times(0, [8, 9, 10, 11, 12])),
        ];
        let mut whole = LatencyTracker::new(2);
        let mut a = LatencyTracker::new(2);
        let mut b = LatencyTracker::new(2);
        for (i, (core, t)) in recs.iter().enumerate() {
            whole.record_completion(*core, t);
            whole.record_so_far(*core, t.total() as u32);
            whole.record_return_leg(i % 2 == 0, t.total());
            let shard = if i < 2 { &mut a } else { &mut b };
            shard.record_completion(*core, t);
            shard.record_so_far(*core, t.total() as u32);
            shard.record_return_leg(i % 2 == 0, t.total());
        }
        a.merge(&b);
        for core in 0..2 {
            assert_eq!(a.app(core).total, whole.app(core).total);
            assert_eq!(a.app(core).so_far, whole.app(core).so_far);
            assert_eq!(a.app(core).breakdown(), whole.app(core).breakdown());
        }
        assert_eq!(a.return_leg_means(), whole.return_leg_means());
    }

    #[test]
    #[should_panic(expected = "tracker app counts must match")]
    fn tracker_merge_rejects_shape_mismatch() {
        let mut a = LatencyTracker::new(1);
        let b = LatencyTracker::new(2);
        a.merge(&b);
    }
}
