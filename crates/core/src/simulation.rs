//! The front door of the simulator: a validating builder plus a run-control
//! handle.
//!
//! [`SimulationBuilder`] collects everything a run needs — configuration
//! (which carries the policy kinds), kernel strategy, fault plan, workload
//! and probes — in one fluent chain, validates the combination once, and
//! yields a [`Simulation`]. The handle owns the assembled [`System`] and
//! exposes run control
//! ([`Simulation::run_until`], [`Simulation::run_to_completion`]) without
//! callers writing manual step loops.
//!
//! ```
//! use noclat::{KernelKind, Simulation, SystemConfig};
//! use noclat_workloads::workload;
//!
//! let mut sim = Simulation::builder(SystemConfig::baseline_32())
//!     .kernel(KernelKind::Event)
//!     .workload(&workload(2).apps())
//!     .build()
//!     .expect("valid configuration");
//! sim.run_until(2_000);
//! assert_eq!(sim.now(), 2_000);
//! ```

use noclat_cpu::InstrStream;
use noclat_sim::cancel::CancelToken;
use noclat_sim::config::{KernelKind, SystemConfig};
use noclat_sim::error::SimError;
use noclat_sim::faults::FaultPlan;
use noclat_sim::Cycle;
use noclat_workloads::SpecApp;

use crate::probe::Probe;
use crate::system::System;

/// Granularity of [`Simulation::run_to_completion`]'s drain loop.
const DRAIN_CHUNK: Cycle = 512;
/// How long the drain loop tolerates zero change in the in-flight counts
/// before concluding the system is wedged. Generous enough for the deepest
/// legitimate quiet spans (retry backoff, refresh, timeout scans).
const DRAIN_STALL_LIMIT: Cycle = 200_000;

/// What the builder will run: applications (synthetic streams derived per
/// core) or caller-supplied instruction streams.
enum Workload {
    None,
    Apps(Vec<SpecApp>),
    Streams(Vec<Box<dyn InstrStream>>),
}

impl Workload {
    fn kind(&self) -> &'static str {
        match self {
            Workload::None => "none",
            Workload::Apps(_) => "apps",
            Workload::Streams(_) => "streams",
        }
    }
}

/// Fluent, validating constructor for a [`Simulation`].
///
/// Every setter is sugar over a [`SystemConfig`] field or a [`System`]
/// attachment; [`SimulationBuilder::build`] validates the combined
/// configuration (topology/bank inconsistencies, malformed fault plans)
/// before anything is assembled.
pub struct SimulationBuilder {
    cfg: SystemConfig,
    workload: Workload,
    probes: Vec<Box<dyn Probe>>,
    cancel: Option<CancelToken>,
}

impl std::fmt::Debug for SimulationBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulationBuilder")
            .field("kernel", &self.cfg.kernel)
            .field("workload", &self.workload.kind())
            .field("probes", &self.probes.len())
            .finish_non_exhaustive()
    }
}

impl SimulationBuilder {
    /// Starts a builder from a base configuration.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        SimulationBuilder {
            cfg,
            workload: Workload::None,
            probes: Vec::new(),
            cancel: None,
        }
    }

    /// Selects the simulation kernel ([`KernelKind::Cycle`] scans every
    /// cycle; [`KernelKind::Event`] skips provably idle spans with
    /// bit-identical results).
    #[must_use]
    pub fn kernel(mut self, kernel: KernelKind) -> Self {
        self.cfg.kernel = kernel;
        self
    }

    /// Injects a fault plan (link drops/delays, router stalls, bank and
    /// ingress faults).
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.faults = plan;
        self
    }

    /// Runs `apps[i]` on core `i` (one application per core, as in the
    /// paper). Replaces any previously attached workload.
    #[must_use]
    pub fn workload(mut self, apps: &[SpecApp]) -> Self {
        self.workload = Workload::Apps(apps.to_vec());
        self
    }

    /// Runs caller-supplied instruction streams, one per core. Replaces any
    /// previously attached workload.
    #[must_use]
    pub fn streams(mut self, streams: Vec<Box<dyn InstrStream>>) -> Self {
        self.workload = Workload::Streams(streams);
        self
    }

    /// Attaches an observer to the hop/dequeue/retire probe points.
    #[must_use]
    pub fn probe(mut self, probe: Box<dyn Probe>) -> Self {
        self.probes.push(probe);
        self
    }

    /// Attaches a cooperative cancellation token: once it fires, the run
    /// loop stops at the next iteration boundary and the simulation reports
    /// [`Simulation::interrupted`]. When no explicit token is attached,
    /// [`SimulationBuilder::build`] inherits the thread's current token
    /// (installed by the sweep pool's deadline supervisor) — this is how
    /// `--job-timeout` reaches every harness without per-binary plumbing.
    #[must_use]
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Validates the collected configuration and assembles the system.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MissingWorkload`] when neither
    /// [`SimulationBuilder::workload`] nor [`SimulationBuilder::streams`]
    /// was called, and any [`SimError`] the configuration validation or
    /// assembly raises (stream-count mismatches, malformed fault plans…).
    pub fn build(self) -> Result<Simulation, SimError> {
        let mut sys = match self.workload {
            Workload::Apps(apps) => System::assemble_apps(self.cfg, &apps)?,
            Workload::Streams(streams) => System::assemble(self.cfg, streams)?,
            Workload::None => return Err(SimError::MissingWorkload),
        };
        for p in self.probes {
            sys.attach_probe(p);
        }
        if let Some(token) = self.cancel.or_else(CancelToken::current) {
            sys.set_cancel_token(token);
        }
        Ok(Simulation { sys })
    }
}

/// A built simulation: run control over an assembled [`System`].
pub struct Simulation {
    sys: System,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("system", &self.sys)
            .finish()
    }
}

impl Simulation {
    /// Starts a [`SimulationBuilder`] from a base configuration.
    #[must_use]
    pub fn builder(cfg: SystemConfig) -> SimulationBuilder {
        SimulationBuilder::new(cfg)
    }

    /// Current cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.sys.now()
    }

    /// Advances by `cycles` cycles.
    pub fn run(&mut self, cycles: Cycle) {
        self.sys.run(cycles);
    }

    /// Advances to the absolute cycle `cycle`; a target at or before
    /// [`Simulation::now`] is a no-op (run control is monotone).
    pub fn run_until(&mut self, cycle: Cycle) {
        let now = self.sys.now();
        if cycle > now {
            self.sys.run(cycle - now);
        }
    }

    /// Runs `cycles` of warmup, then clears measurement state while keeping
    /// caches, queues and schemes warm.
    pub fn warm_up(&mut self, cycles: Cycle) {
        self.sys.warm_up(cycles);
    }

    /// Runs until every in-flight transaction and network packet has
    /// drained, returning `true` on success. Returns `false` — instead of
    /// looping forever — if the in-flight counts stop changing for
    /// `DRAIN_STALL_LIMIT` cycles (a wedged system; consult
    /// [`System::violations`] for the diagnosis).
    pub fn run_to_completion(&mut self) -> bool {
        let mut last = (self.sys.txns_in_flight(), self.sys.packets_in_flight());
        let mut last_change = self.sys.now();
        while last != (0, 0) || self.sys.interrupted() {
            if self.sys.interrupted() {
                return false;
            }
            self.sys.run(DRAIN_CHUNK);
            let current = (self.sys.txns_in_flight(), self.sys.packets_in_flight());
            if current != last {
                last = current;
                last_change = self.sys.now();
            } else if self.sys.now().saturating_sub(last_change) >= DRAIN_STALL_LIMIT {
                return false;
            }
        }
        true
    }

    /// Whether a run loop stopped early because an attached cancellation
    /// token fired. An interrupted simulation's state is consistent, but its
    /// metrics describe a truncated run; the sweep layer discards them.
    #[must_use]
    pub fn interrupted(&self) -> bool {
        self.sys.interrupted()
    }

    /// The underlying system, for metric extraction.
    #[must_use]
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// Mutable access to the underlying system (attaching probes mid-run,
    /// injecting node clock changes…).
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.sys
    }

    /// Unwraps the handle into the underlying system.
    #[must_use]
    pub fn into_system(self) -> System {
        self.sys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noclat_sim::config::TopologyConfig;
    use noclat_workloads::workload;

    fn apps() -> Vec<SpecApp> {
        workload(2).apps()
    }

    #[test]
    fn build_requires_a_workload() {
        let err = Simulation::builder(SystemConfig::baseline_32())
            .build()
            .unwrap_err();
        assert_eq!(err, SimError::MissingWorkload);
    }

    /// Every row type-checks, and every row must come back from `build()`
    /// as a typed error that says what is wrong — not as a panic out of a
    /// component constructor.
    #[test]
    fn build_rejects_invalid_configurations() {
        type Corrupt = fn(&mut SystemConfig);
        let table: [(&str, Corrupt); 16] = [
            ("buffer depth is zero", |c| c.noc.buffer_depth = 0),
            // A router's input VCs are one 128-bit set and VC ids one byte.
            ("noc.vcs_per_port = 258", |c| c.noc.vcs_per_port = 258),
            ("noc.vcs_per_port = 16", |c| {
                c.topology = TopologyConfig::express(8, 4, 2);
                c.noc.vcs_per_port = 16;
            }),
            ("noc.buffer_depth = 256", |c| c.noc.buffer_depth = 256),
            ("cpu.window_size = 0", |c| c.cpu.window_size = 0),
            ("cpu.lsq_size = 0", |c| c.cpu.lsq_size = 0),
            ("cpu.issue_width = 0", |c| c.cpu.issue_width = 0),
            ("cpu.commit_width = 0", |c| c.cpu.commit_width = 0),
            ("l2.mshrs_per_bank = 0", |c| c.l2.mshrs_per_bank = 0),
            ("mem.refresh_period = 0", |c| c.mem.refresh_period = 0),
            ("threshold factor NaN", |c| {
                c.scheme1.threshold_factor = f64::NAN;
            }),
            ("mem.banks_per_controller = 0", |c| {
                c.mem.banks_per_controller = 0;
            }),
            ("mem.row_bytes = 100", |c| c.mem.row_bytes = 100),
            ("noc.flit_bits = 0", |c| c.noc.flit_bits = 0),
            ("noc.age_bits = 32", |c| c.noc.age_bits = 32),
            ("idleness_sample_period = 0", |c| {
                c.idleness_sample_period = 0;
            }),
        ];
        for (says, corrupt) in table {
            let mut cfg = SystemConfig::baseline_32();
            corrupt(&mut cfg);
            let built = std::panic::catch_unwind(move || {
                Simulation::builder(cfg).workload(&apps()).build().err()
            });
            match built {
                Ok(Some(SimError::Config(e))) => {
                    assert!(e.to_string().contains(says), "{says}: got \"{e}\"");
                }
                Ok(other) => panic!("{says}: expected a ConfigError, got {other:?}"),
                Err(_) => panic!("{says}: build() panicked"),
            }
        }
        // The widest router that fits: 9 ports x 8 VCs = 72 input VCs.
        let mut express = SystemConfig::baseline_32();
        express.topology = TopologyConfig::express(8, 4, 2);
        express.noc.vcs_per_port = 8;
        let built = Simulation::builder(express).workload(&apps()).build();
        assert!(built.is_ok(), "express with 8 VCs: {:?}", built.err());
    }

    #[test]
    fn run_until_is_absolute_and_monotone() {
        let mut sim = Simulation::builder(SystemConfig::baseline_32())
            .workload(&apps())
            .build()
            .expect("valid");
        sim.run_until(500);
        assert_eq!(sim.now(), 500);
        sim.run_until(300); // already past: no-op
        assert_eq!(sim.now(), 500);
        sim.run(100);
        assert_eq!(sim.now(), 600);
    }

    #[test]
    fn pre_fired_token_stops_the_run_immediately() {
        for kernel in [KernelKind::Cycle, KernelKind::Event] {
            let token = CancelToken::new();
            token.cancel();
            let mut sim = Simulation::builder(SystemConfig::baseline_32())
                .kernel(kernel)
                .cancel_token(token)
                .workload(&apps())
                .build()
                .expect("valid");
            sim.run_until(10_000);
            assert_eq!(sim.now(), 0, "no cycles advance under a fired token");
            assert!(sim.interrupted());
            assert!(!sim.run_to_completion(), "interrupted runs never drain");
        }
    }

    #[test]
    fn firing_mid_run_stops_early_with_state_intact() {
        let token = CancelToken::new();
        let mut sim = Simulation::builder(SystemConfig::baseline_32())
            .cancel_token(token.clone())
            .workload(&apps())
            .build()
            .expect("valid");
        let canceller = {
            let token = token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                token.cancel();
            })
        };
        // Far enough out that the canceller fires first on any machine.
        sim.run_until(2_000_000_000);
        canceller.join().unwrap();
        assert!(sim.interrupted());
        assert!(sim.now() < 2_000_000_000, "run stopped before the target");
    }

    #[test]
    fn build_inherits_the_thread_current_token() {
        let token = CancelToken::new();
        token.cancel();
        let guard = token.install_current();
        let mut sim = Simulation::builder(SystemConfig::baseline_32())
            .workload(&apps())
            .build()
            .expect("valid");
        drop(guard);
        sim.run_until(1_000);
        assert_eq!(sim.now(), 0);
        assert!(sim.interrupted());
    }

    #[test]
    fn unfired_token_leaves_the_run_untouched() {
        let fingerprint = |token: Option<CancelToken>| {
            let mut b = Simulation::builder(SystemConfig::baseline_32()).workload(&apps());
            if let Some(t) = token {
                b = b.cancel_token(t);
            }
            let mut sim = b.build().expect("valid");
            sim.run(2_000);
            let sys = sim.system();
            (
                sys.now(),
                sys.network_stats().packets_delivered.get(),
                sim.interrupted(),
            )
        };
        assert_eq!(fingerprint(None), fingerprint(Some(CancelToken::new())));
    }

    #[test]
    fn event_kernel_matches_cycle_kernel_on_a_short_run() {
        let fingerprint = |kernel: KernelKind| {
            let mut sim = Simulation::builder(SystemConfig::baseline_32())
                .kernel(kernel)
                .workload(&apps())
                .build()
                .expect("valid");
            sim.run(3_000);
            let sys = sim.system();
            let stats = sys.network_stats();
            (
                sys.now(),
                (0..sys.config().topology.num_nodes())
                    .map(|c| {
                        let s = sys.core_stats(c);
                        (s.committed, s.cycles, s.mem_stall_cycles)
                    })
                    .collect::<Vec<_>>(),
                stats.packets_injected.get(),
                stats.packets_delivered.get(),
                sys.txns_in_flight(),
            )
        };
        assert_eq!(
            fingerprint(KernelKind::Cycle),
            fingerprint(KernelKind::Event)
        );
    }
}
