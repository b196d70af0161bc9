//! Scheme-2: expediting requests destined for idle banks (Section 3.2).
//!
//! No global bank-queue state is visible to a tile, so each node keeps a
//! *Bank History Table* recording how many off-chip requests it injected
//! toward each DRAM bank during the last `T` cycles. When an L2 miss is
//! about to leave the tile and the table shows fewer than `th` recent
//! requests to the target bank, the request is injected at high priority —
//! a local estimate that the bank is idle and should be fed quickly.

use std::collections::VecDeque;

use noclat_sim::config::Scheme2Config;
use noclat_sim::Cycle;

/// Per-node Bank History Table with a sliding window of length `T`.
#[derive(Debug, Clone)]
pub struct BankHistoryTable {
    cfg: Scheme2Config,
    /// Recent injections: `(cycle, global bank)`.
    events: VecDeque<(Cycle, u32)>,
    /// Live counts per global bank (events within the window).
    counts: Vec<u32>,
}

impl BankHistoryTable {
    /// Creates a table covering `total_banks` banks.
    #[must_use]
    pub fn new(cfg: Scheme2Config, total_banks: usize) -> Self {
        BankHistoryTable {
            cfg,
            events: VecDeque::new(),
            counts: vec![0; total_banks],
        }
    }

    fn prune(&mut self, now: Cycle) {
        let horizon = now.saturating_sub(self.cfg.history_window);
        while self.events.front().is_some_and(|&(t, _)| t < horizon) {
            let (_, bank) = self.events.pop_front().expect("checked front");
            self.counts[bank as usize] -= 1;
        }
    }

    /// Requests sent from this node to `bank` within the last `T` cycles.
    pub fn recent_count(&mut self, bank: usize, now: Cycle) -> u32 {
        self.prune(now);
        self.counts[bank]
    }

    /// The Scheme-2 decision: expedite a request to `bank`?
    pub fn should_expedite(&mut self, bank: usize, now: Cycle) -> bool {
        self.recent_count(bank, now) < self.cfg.idle_threshold
    }

    /// Records an injected off-chip request toward `bank`.
    pub fn record(&mut self, bank: usize, now: Cycle) {
        self.prune(now);
        self.events.push_back((now, bank as u32));
        self.counts[bank] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noclat_sim::config::SystemConfig;

    fn cfg() -> Scheme2Config {
        SystemConfig::baseline_32().scheme2
    }

    #[test]
    fn first_request_to_a_bank_is_expedited() {
        let mut t = BankHistoryTable::new(cfg(), 64);
        assert!(t.should_expedite(5, 1000));
    }

    #[test]
    fn recent_request_suppresses_expediting() {
        let mut t = BankHistoryTable::new(cfg(), 64);
        t.record(5, 1000);
        assert!(!t.should_expedite(5, 1100), "within T=200");
        assert!(t.should_expedite(6, 1100), "other banks unaffected");
    }

    #[test]
    fn window_expires() {
        let mut t = BankHistoryTable::new(cfg(), 64);
        t.record(5, 1000);
        assert!(t.should_expedite(5, 1000 + cfg().history_window + 1));
    }

    #[test]
    fn counts_accumulate_and_prune() {
        let mut t = BankHistoryTable::new(cfg(), 64);
        t.record(3, 100);
        t.record(3, 150);
        t.record(3, 250);
        assert_eq!(t.recent_count(3, 260), 3);
        // At 340, the horizon is 140: the event at 100 expires.
        assert_eq!(t.recent_count(3, 340), 2);
        assert_eq!(t.recent_count(3, 10_000), 0);
    }

    #[test]
    fn higher_threshold_expedites_more() {
        let mut c = cfg();
        c.idle_threshold = 2;
        let mut t = BankHistoryTable::new(c, 64);
        t.record(5, 1000);
        assert!(t.should_expedite(5, 1010), "one recent request < th=2");
        t.record(5, 1010);
        assert!(!t.should_expedite(5, 1020));
    }
}
