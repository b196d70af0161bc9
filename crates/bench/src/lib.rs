//! Shared harness plumbing for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index). They all honor a `quick` command-line
//! argument (or `NOCLAT_QUICK=1`) that shrinks the simulation windows for
//! smoke-testing the harness itself.

use std::collections::HashMap;

use noclat::{
    alone_ipc, run_mix, weighted_speedup_of, MixResult, RouterPipeline, RunLengths, SystemConfig,
};
use noclat_sim::stats::Histogram;
use noclat_workloads::{workload, SpecApp, Workload};

pub mod sweep;

/// Simulation windows selected from the command line (`quick` argument or
/// `NOCLAT_QUICK=1` environment variable shrink them).
#[must_use]
pub fn lengths_from_args() -> RunLengths {
    let quick = std::env::args().any(|a| a == "quick" || a == "--quick")
        || std::env::var("NOCLAT_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    if quick {
        RunLengths {
            warmup: 5_000,
            measure: 40_000,
        }
    } else {
        RunLengths::standard()
    }
}

/// Prints the standard harness header.
pub fn banner(artifact: &str, what: &str) {
    println!("==============================================================");
    println!("{artifact}");
    println!("{what}");
    println!("==============================================================");
}

/// An alone-IPC table shared across scheme variants of the same hardware
/// (alone runs are scheme-independent by construction).
#[derive(Debug, Default)]
pub struct AloneTable {
    cache: HashMap<(u16, u16, usize, RouterPipeline, SpecApp), f64>,
}

impl AloneTable {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Alone IPC of `app` on the hardware described by `cfg` (cached).
    pub fn get(&mut self, cfg: &SystemConfig, app: SpecApp, lengths: RunLengths) -> f64 {
        let key = (
            cfg.topology.width,
            cfg.topology.height,
            cfg.mem.num_controllers,
            cfg.noc.pipeline,
            app,
        );
        *self
            .cache
            .entry(key)
            .or_insert_with(|| alone_ipc(cfg, app, lengths))
    }

    /// Alone IPCs for every distinct app of a workload.
    pub fn table(
        &mut self,
        cfg: &SystemConfig,
        apps: &[SpecApp],
        lengths: RunLengths,
    ) -> HashMap<SpecApp, f64> {
        apps.iter()
            .map(|&a| (a, self.get(cfg, a, lengths)))
            .collect()
    }
}

/// Runs one workload under a configuration and returns `(result, WS)`.
pub fn run_with_ws(
    cfg: &SystemConfig,
    apps: &[SpecApp],
    alone: &HashMap<SpecApp, f64>,
    lengths: RunLengths,
) -> (MixResult, f64) {
    let r = run_mix(cfg, apps, lengths);
    let ws = weighted_speedup_of(&r, alone);
    (r, ws)
}

/// Normalized weighted speedups of scheme variants against the baseline,
/// for one workload on one hardware configuration.
#[derive(Debug, Clone, Copy)]
pub struct NormalizedWs {
    /// Baseline (no prioritization) absolute WS.
    pub base: f64,
    /// Scheme-1 WS normalized to baseline.
    pub s1: f64,
    /// Scheme-1 + Scheme-2 WS normalized to baseline.
    pub both: f64,
}

/// Runs baseline / Scheme-1 / Scheme-1+2 for a workload and normalizes.
pub fn normalized_ws(
    hw: &SystemConfig,
    w: &Workload,
    alone: &mut AloneTable,
    lengths: RunLengths,
) -> NormalizedWs {
    let apps = w.apps();
    let table = alone.table(hw, &apps, lengths);
    let (_, base) = run_with_ws(hw, &apps, &table, lengths);
    let (_, s1) = run_with_ws(&hw.clone().with_scheme1(), &apps, &table, lengths);
    let (_, both) = run_with_ws(&hw.clone().with_both_schemes(), &apps, &table, lengths);
    NormalizedWs {
        base,
        s1: s1 / base,
        both: both / base,
    }
}

/// Merged round-trip latency histogram across all applications of a run.
#[must_use]
pub fn merged_latency_histogram(result: &MixResult) -> Histogram {
    let mut h = Histogram::new(25, 4000);
    for c in 0..result.per_app.len() {
        h.merge(&result.system.tracker().app(c).total);
    }
    h
}

/// Core index of the first instance of `app` in a mix result.
#[must_use]
pub fn core_of(result: &MixResult, app: SpecApp) -> Option<usize> {
    result.per_app.iter().find(|a| a.app == app).map(|a| a.core)
}

/// Convenience: the paper's workload-N.
#[must_use]
pub fn w(n: usize) -> Workload {
    workload(n)
}

/// Formats a fraction as a percent delta ("+3.4%").
#[must_use]
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1.034), "+3.4%");
        assert_eq!(pct(0.99), "-1.0%");
    }

    #[test]
    fn alone_table_caches() {
        // Cache key ignores schemes (alone runs are scheme-independent).
        let mut t = AloneTable::new();
        let cfg = SystemConfig::baseline_32();
        let lengths = RunLengths {
            warmup: 500,
            measure: 3_000,
        };
        let a = t.get(&cfg, SpecApp::Gamess, lengths);
        let b = t.get(&cfg.clone().with_both_schemes(), SpecApp::Gamess, lengths);
        assert_eq!(a, b);
        assert_eq!(t.cache.len(), 1);
    }
}
