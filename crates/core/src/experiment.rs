//! Experiment driver: runs workload mixes, computes per-application IPCs,
//! alone-run baselines and the (normalized) weighted speedup metric of
//! Section 4.1.

use std::collections::HashMap;

use noclat_cpu::{Instr, InstrStream};
use noclat_sim::config::SystemConfig;
use noclat_sim::Cycle;
use noclat_workloads::SpecApp;

use crate::simulation::Simulation;
use crate::system::System;

/// Warmup/measurement lengths for one simulation.
///
/// The paper fast-forwards 1 B cycles and measures over a multi-million
/// cycle window; our synthetic streams reach steady state far faster, so the
/// defaults are scaled down (see EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLengths {
    /// Cycles simulated before measurement starts.
    pub warmup: Cycle,
    /// Cycles measured.
    pub measure: Cycle,
}

impl RunLengths {
    /// Harness defaults: 20 k warmup + 150 k measured cycles (the paper
    /// fast-forwards 1 B cycles and measures for millions; our synthetic
    /// streams are stationary after warmup, so shorter windows suffice —
    /// see EXPERIMENTS.md for the stability check).
    #[must_use]
    pub fn standard() -> Self {
        RunLengths {
            warmup: 20_000,
            measure: 150_000,
        }
    }

    /// Short runs for tests and smoke checks.
    #[must_use]
    pub fn quick() -> Self {
        RunLengths {
            warmup: 5_000,
            measure: 40_000,
        }
    }
}

impl Default for RunLengths {
    fn default() -> Self {
        Self::standard()
    }
}

/// Measured behaviour of one application within a mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppResult {
    /// The application.
    pub app: SpecApp,
    /// Core it ran on.
    pub core: usize,
    /// Instructions per cycle over the measurement window.
    pub ipc: f64,
    /// Completed off-chip accesses.
    pub offchip: u64,
    /// Mean end-to-end latency of its off-chip accesses (cycles).
    pub avg_latency: f64,
}

/// Result of simulating one workload mix: per-app results plus the final
/// [`System`] for deeper inspection (latency histograms, idleness monitors).
#[derive(Debug)]
pub struct MixResult {
    /// Per-application results, in core order.
    pub per_app: Vec<AppResult>,
    /// The simulated system after the measurement window.
    pub system: System,
}

impl MixResult {
    /// Per-core IPCs.
    #[must_use]
    pub fn ipcs(&self) -> Vec<f64> {
        self.per_app.iter().map(|a| a.ipc).collect()
    }

    /// Average bank idleness across all controllers.
    #[must_use]
    pub fn avg_bank_idleness(&self) -> f64 {
        let n = self.system.num_controllers();
        (0..n)
            .map(|m| self.system.idleness(m).overall())
            .sum::<f64>()
            / n as f64
    }
}

/// Simulates `apps` on a system built from `cfg`.
///
/// # Panics
///
/// Panics if the configuration is invalid or `apps.len()` differs from the
/// configured core count.
#[must_use]
pub fn run_mix(cfg: &SystemConfig, apps: &[SpecApp], lengths: RunLengths) -> MixResult {
    let mut sim = Simulation::builder(cfg.clone())
        .workload(apps)
        .build()
        .expect("valid experiment configuration");
    sim.warm_up(lengths.warmup);
    sim.run(lengths.measure);
    let system = sim.into_system();
    let per_app = apps
        .iter()
        .enumerate()
        .map(|(core, &app)| {
            let stats = system.core_stats(core);
            let lat = system.tracker().app(core);
            AppResult {
                app,
                core,
                ipc: stats.ipc(),
                offchip: lat.total.count(),
                avg_latency: lat.total.mean(),
            }
        })
        .collect();
    MixResult { per_app, system }
}

/// An instruction stream that never touches memory; used to idle the other
/// cores during alone runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdleStream;

impl InstrStream for IdleStream {
    fn next_instr(&mut self) -> Instr {
        Instr::Compute { latency: 1 }
    }
}

/// The canonical core used for alone runs: a central tile, so alone-run
/// network distances are representative.
#[must_use]
pub fn canonical_core(cfg: &SystemConfig) -> usize {
    let w = usize::from(cfg.topology.width);
    let h = usize::from(cfg.topology.height);
    (h / 2) * w + w / 2
}

/// The configuration an alone run of `cfg`'s hardware uses, and the identity
/// its result is cached under. Alone runs never benefit from prioritization
/// (there is nothing to contend with), so they run on the baseline policies
/// and share one result across scheme variants; they are denominators shared
/// across kernel comparisons too, so the default kernel is pinned.
#[must_use]
pub fn alone_config(cfg: &SystemConfig) -> SystemConfig {
    let mut base = cfg.clone();
    base.policy = noclat_sim::config::PolicyConfig::default();
    base.kernel = noclat_sim::config::KernelKind::default();
    base
}

/// IPC of `app` running alone (every other core idles), the denominator of
/// the weighted-speedup metric.
///
/// # Panics
///
/// Panics if the configuration is invalid.
#[must_use]
pub fn alone_ipc(cfg: &SystemConfig, app: SpecApp, lengths: RunLengths) -> f64 {
    let core = canonical_core(cfg);
    let base = alone_config(cfg);
    let rng = noclat_sim::rng::SimRng::new(base.seed);
    let streams: Vec<Box<dyn InstrStream>> = (0..base.num_cores())
        .map(|slot| {
            if slot == core {
                Box::new(noclat_workloads::SyntheticStream::new(app, slot, &rng))
                    as Box<dyn InstrStream>
            } else {
                Box::new(IdleStream) as Box<dyn InstrStream>
            }
        })
        .collect();
    let mut sim = Simulation::builder(base)
        .streams(streams)
        .build()
        .expect("valid configuration");
    sim.warm_up(lengths.warmup);
    sim.run(lengths.measure);
    sim.system().core_stats(core).ipc()
}

/// Computes alone IPCs for every distinct application in `apps`.
#[must_use]
pub fn alone_ipc_table(
    cfg: &SystemConfig,
    apps: &[SpecApp],
    lengths: RunLengths,
) -> HashMap<SpecApp, f64> {
    let mut table = HashMap::new();
    for &app in apps {
        table
            .entry(app)
            .or_insert_with(|| alone_ipc(cfg, app, lengths));
    }
    table
}

/// Weighted speedup (Section 4.1): `Σ IPC_shared(i) / IPC_alone(i)`.
///
/// # Panics
///
/// Panics if the slices differ in length or an alone IPC is non-positive.
#[must_use]
pub fn weighted_speedup(shared: &[f64], alone: &[f64]) -> f64 {
    assert_eq!(shared.len(), alone.len(), "per-app IPC lists must align");
    shared
        .iter()
        .zip(alone)
        .map(|(&s, &a)| {
            assert!(a > 0.0, "alone IPC must be positive");
            s / a
        })
        .sum()
}

/// Weighted speedup of a mix result given an alone-IPC table.
///
/// # Panics
///
/// Panics if an application is missing from the table.
#[must_use]
pub fn weighted_speedup_of(result: &MixResult, alone: &HashMap<SpecApp, f64>) -> f64 {
    let shared: Vec<f64> = result.per_app.iter().map(|a| a.ipc).collect();
    let alone: Vec<f64> = result
        .per_app
        .iter()
        .map(|a| *alone.get(&a.app).expect("alone IPC available"))
        .collect();
    weighted_speedup(&shared, &alone)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_speedup_math() {
        let ws = weighted_speedup(&[1.0, 2.0], &[2.0, 2.0]);
        assert!((ws - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn weighted_speedup_rejects_mismatch() {
        let _ = weighted_speedup(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn alone_table_computes_each_app_once() {
        let cfg = SystemConfig::baseline_32();
        let lengths = RunLengths {
            warmup: 200,
            measure: 1_500,
        };
        let apps = [
            noclat_workloads::SpecApp::Gamess,
            noclat_workloads::SpecApp::Gamess,
            noclat_workloads::SpecApp::Povray,
        ];
        let table = alone_ipc_table(&cfg, &apps, lengths);
        assert_eq!(table.len(), 2, "duplicates must collapse");
        assert!(table.values().all(|&v| v > 0.0));
    }

    #[test]
    fn canonical_core_is_central() {
        let cfg = SystemConfig::baseline_32();
        let c = canonical_core(&cfg);
        assert_eq!(c, 2 * 8 + 4);
        assert!(c < cfg.num_cores());
    }

    #[test]
    fn idle_stream_never_touches_memory() {
        let mut s = IdleStream;
        for _ in 0..100 {
            assert!(!s.next_instr().is_mem());
        }
    }
}
