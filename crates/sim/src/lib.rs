//! Deterministic cycle-driven simulation kernel for the NoC-multicore
//! reproduction of *Addressing End-to-End Memory Access Latency in NoC-Based
//! Multicores* (MICRO 2012).
//!
//! This crate holds the pieces every other crate in the workspace shares:
//!
//! * [`Cycle`] — the global time unit (one core clock cycle),
//! * [`calendar`] — a queue of work filed by the cycle it falls due, the
//!   flit wires' and the deferred cache-bank work's timeline,
//! * [`config`] — the full system configuration, with defaults mirroring the
//!   paper's Table 1,
//! * [`rng`] — seeded, splittable random number generation so whole-system
//!   runs are reproducible bit-for-bit,
//! * [`stats`] — counters, histograms, CDF/PDF extraction and windowed time
//!   series used to regenerate the paper's figures,
//! * [`faults`] — deterministic fault injection plans (link drops/delays,
//!   router stalls, DRAM bank faults, controller backpressure),
//! * [`error`] — typed errors ([`error::SimError`]) raised by public APIs
//!   instead of panicking,
//! * [`check`] — a dependency-free seeded property-testing harness,
//! * [`pool`] — a scoped worker pool with deterministic per-job seeding,
//!   panic isolation, per-job deadlines and bounded retry, backing the
//!   parallel sweep harnesses,
//! * [`cancel`] — cooperative cancellation tokens the pool's deadline
//!   supervisor uses to wind down overrunning simulations cleanly,
//! * [`journal`] — the durable, content-addressed run journal behind
//!   `--resume`: append-only, checksummed per record, recoverable after
//!   truncation or tail corruption.
//!
//! # Example
//!
//! ```
//! use noclat_sim::config::SystemConfig;
//!
//! let cfg = SystemConfig::baseline_32();
//! assert_eq!(cfg.topology.num_nodes(), 32);
//! assert_eq!(cfg.mem.num_controllers, 4);
//! ```

pub mod calendar;
pub mod cancel;
pub mod check;
pub mod config;
pub mod error;
pub mod faults;
pub mod journal;
pub mod pool;
pub mod rng;
pub mod stats;

/// Global simulation time, measured in core clock cycles.
///
/// A plain alias (not a newtype) because cycle arithmetic saturates the hot
/// path of every component; the alias keeps call sites readable without
/// unwrap noise. Component-local clock domains convert through
/// [`config::NocConfig::freq_mult`].
pub type Cycle = u64;
