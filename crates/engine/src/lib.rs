//! Reusable sweep engine for the MICRO 2012 reproduction.
//!
//! Everything a sweep harness needs, hoisted out of the `noclat-bench`
//! binaries so other frontends (the `sweepd` daemon, future drivers) can
//! run the same grids with the same guarantees:
//!
//! * [`SweepArgs`]/[`RestFlags`]/[`PruneSpec`] — the shared command-line
//!   surface, a harness's own flags on top of it, and the
//!   [`sweep_fingerprint`]/[`job_key`] content addressing;
//! * [`run_grid`]/[`try_run_grid`] — deterministic parallel grid execution
//!   over [`noclat_sim::pool`], with journal resume;
//! * [`MixCell`] and its runners ([`run_mix_grid`], [`run_ws_grid`],
//!   [`run_mix_shards`], [`run_pruned_grid`]) — a sweep cell as a value,
//!   with the sweep's overrides applied in exactly one place, the
//!   [`AloneMap`] weighted-speedup denominator phase and two-tier analytic
//!   pruning;
//! * [`Json`]/[`Obj`]/[`CellCodec`] — dependency-free, deterministic
//!   serialization (bit-exact for floats via [`f64::to_bits`]);
//! * [`cache`] — the journal promoted to a content-addressed result cache
//!   with a single-writer lock and lock-free snapshot readers;
//! * [`server`] — the `sweepd` daemon: submit/status/result/cancel over
//!   line-delimited JSON, deduplicating identical in-flight cells and
//!   serving cache hits without recompute;
//! * [`ExitCode`] — the typed process exit codes every binary shares.
//!
//! Determinism is preserved by construction: each job is self-contained
//! and seeded only from `(base seed, job index)` via [`job_seed`], results
//! come back in job-index order regardless of scheduling, and all
//! rendering happens after the grid completes. Running the same sweep with
//! `--jobs 1` and `--jobs 8` produces byte-identical reports; progress
//! notes go to stderr so stdout stays comparable across worker counts.

pub mod args;
pub mod cache;
pub mod codec;
pub mod exit;
pub mod grid;
pub mod json;
pub mod report;
pub mod server;

pub use args::{
    fail_usage, job_key, sweep_fingerprint, sweep_usage, PruneSpec, RestFlags, SweepArgs,
    DEFAULT_SHARDS,
};
pub use cache::{read_snapshot, sweepd_cache_fingerprint, CacheError, ResultCache};
pub use codec::CellCodec;
pub use exit::ExitCode;
pub use grid::{
    alone_key, run_grid, run_mix_grid, run_mix_shards, run_pruned_grid, run_ws_grid, try_run_grid,
    try_run_pruned_grid, AloneMap, CellMetrics, MixCell, PruneOutcome, PrunedResults,
};
pub use json::{Json, Obj, MAX_PARSE_DEPTH};
pub use noclat_sim::pool::{job_seed, run_jobs, run_jobs_supervised, Job, JobCtx, RetryPolicy};
pub use report::{finish, histogram_json, report, write_json_file};
pub use server::{CellSpec, ServerConfig, SweepServer};
