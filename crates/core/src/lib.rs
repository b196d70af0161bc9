//! Reproduction of *Addressing End-to-End Memory Access Latency in NoC-Based
//! Multicores* (Sharifi, Kultursay, Kandemir, Das — MICRO 2012).
//!
//! This crate assembles the complete simulated multicore — out-of-order
//! cores, private L1s, a banked S-NUCA L2, a 2D-mesh wormhole NoC and corner
//! memory controllers — and implements the paper's two contributions on top:
//!
//! * **Scheme-1** ([`scheme1`]): memory responses whose accumulated
//!   so-far delay exceeds a per-application dynamic threshold
//!   (`1.2 × Delay_avg`) are expedited through the return network, squeezing
//!   the latency tail.
//! * **Scheme-2** ([`scheme2`]): L2-miss requests destined for banks a tile
//!   believes idle (per its local Bank History Table) are expedited toward
//!   the memory controllers, balancing bank load.
//!
//! # Quick start
//!
//! ```
//! use noclat::{run_mix, RunLengths, SystemConfig};
//! use noclat_workloads::workload;
//!
//! // Paper baseline (Table 1), with both schemes enabled.
//! let cfg = SystemConfig::baseline_32().with_both_schemes();
//! let apps = workload(2).apps();
//! let lengths = RunLengths { warmup: 200, measure: 2_000 }; // tiny demo run
//! let result = run_mix(&cfg, &apps, lengths);
//! assert_eq!(result.per_app.len(), 32);
//! ```

pub mod experiment;
pub mod messages;
pub mod metrics;
pub mod policy;
pub mod probe;
pub mod report;
pub mod scheme1;
pub mod scheme2;
pub mod simulation;
pub mod system;
pub mod trace;
pub mod watchdog;

pub use experiment::{
    alone_config, alone_ipc, alone_ipc_table, canonical_core, run_mix, weighted_speedup,
    weighted_speedup_of, AppResult, IdleStream, MixResult, RunLengths,
};
pub use messages::{MemMsg, TxnId};
pub use metrics::{AppLatency, LatencyTracker, SegmentRow, TxnTimes};
pub use policy::{RequestPolicy, ResponsePolicy};
pub use probe::{CountingProbe, McDequeue, Probe, ProbeCounters, Retire};
pub use report::{ControllerReport, NetworkReport, SystemReport};
pub use scheme1::{Scheme1, ThresholdTable};
pub use scheme2::BankHistoryTable;
pub use simulation::{Simulation, SimulationBuilder};
pub use system::{RobustnessStats, System};
pub use trace::{TraceLog, TxnRecord};
pub use watchdog::{LivenessViolation, Watchdog};

// Re-export the configuration types callers need to drive experiments.
pub use noclat_sim::cancel::CancelToken;
pub use noclat_sim::config::{
    ConfigError, KernelKind, McPlacement, MemSchedPolicy, PolicyConfig, PolicyOverride,
    RequestPolicyKind, ResponsePolicyKind, RouterPipeline, Scheme, Scheme1Config, Scheme2Config,
    StarvationPolicy, SystemConfig, TopologyConfig, TopologyKind, TopologyOverride, WatchdogConfig,
};
pub use noclat_sim::error::{FaultError, JournalError, SimError};
pub use noclat_sim::faults::FaultPlan;
pub use noclat_sim::journal::{Journal, JournalRecord};
pub use noclat_sim::pool::{job_seed, run_jobs, run_jobs_supervised, Job, JobCtx, RetryPolicy};
pub use noclat_sim::Cycle;
