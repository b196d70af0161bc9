//! Grid execution: fan a sweep's jobs out over the supervised pool, with
//! optional journal resume and analytic two-tier pruning.
//!
//! Two levels. [`try_run_grid`]/[`run_grid`] run opaque [`Job`]s and own
//! the journal. On top, every figure is a grid of [`MixCell`]s — one
//! configuration plus one application placement, as a value — and the
//! `run_mix_*`/[`run_ws_grid`]/[`run_pruned_grid`] runners turn cells into
//! jobs. The runners are the only place `--policy/--kernel/--topology`
//! meet a configuration ([`SweepArgs::apply_policy`], on the main thread,
//! once per cell), so an override reaches every cell of every harness by
//! construction. The harness owns the labels: they are journal addresses.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};

use noclat::{
    alone_config, alone_ipc, run_mix, weighted_speedup_of, MixResult, RunLengths, SimError,
    SystemConfig,
};
use noclat_analytic::AnalyticModel;
use noclat_sim::journal::fnv1a64;
use noclat_sim::pool::{job_seed, run_jobs_supervised, Job};
use noclat_sim::stats::Histogram;
use noclat_workloads::SpecApp;

use crate::args::{job_key, sweep_fingerprint, PruneSpec, SweepArgs, DEFAULT_SHARDS};
use crate::cache::ResultCache;
use crate::codec::CellCodec;
use crate::exit::ExitCode;
use crate::json::{Json, Obj};

/// Runs a job grid under the sweep's worker budget and returns results in
/// job order, aborting the process with a per-job diagnostic if any job
/// failed.
///
/// The abort path reports *every* failing cell as a quarantine list (a
/// panicking cell does not hide its siblings' outcomes) and exits with the
/// most severe applicable [`ExitCode`]: panics beat timeouts beat the
/// generic failure code. A journal problem (`--resume` mismatch, IO
/// failure) is a usage error and exits with [`ExitCode::Config`].
#[must_use]
pub fn run_grid<T: Send + CellCodec>(args: &SweepArgs, jobs: Vec<Job<T>>) -> Vec<T> {
    // Callers index the returned values by position, which leaves a pruned
    // cell nowhere to go; accepting `--prune` here would silently run
    // everything. ([`run_pruned_grid`] is the entry point that honours it.)
    if args.prune.enabled() {
        eprintln!("error: this binary does not support --prune");
        ExitCode::Config.exit();
    }
    let results = match try_run_grid(args, jobs) {
        Ok(results) => results,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::Config.exit();
        }
    };
    let mut quarantined = Vec::new();
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        match r {
            Ok(v) => out.push(v),
            Err(e) => quarantined.push(e),
        }
    }
    exit_on_quarantine(&quarantined);
    out
}

/// Reports a non-empty quarantine list on stderr and exits with the most
/// severe applicable code; returns silently when nothing was quarantined.
fn exit_on_quarantine(quarantined: &[SimError]) {
    if quarantined.is_empty() {
        return;
    }
    eprintln!("sweep: {} cell(s) quarantined:", quarantined.len());
    for e in quarantined {
        eprintln!("  error: {e}");
    }
    match ExitCode::from_quarantined(quarantined) {
        // from_quarantined maps an empty list to Success, which the guard
        // above already excluded; a non-empty list is at least Generic.
        ExitCode::Success => ExitCode::Generic.exit(),
        code => code.exit(),
    }
}

/// Like [`run_grid`], but surfaces failures as values instead of aborting
/// (the library entry point the tests drive): the outer `Err` is a journal
/// problem that prevented the sweep from running at all, the inner ones are
/// quarantined cells.
///
/// Every job gets a content address (`[config <hash>]` in error reports,
/// the record key in the journal). With `--resume`, cells whose records are
/// already journaled are decoded instead of re-run — the codec roundtrip is
/// exact by construction, so resumed output is byte-identical — and each
/// cell completing in this run is appended (and flushed) the moment it
/// finishes, making progress durable against SIGKILL.
///
/// # Errors
///
/// [`SimError::Journal`] when the `--resume` journal cannot be opened,
/// belongs to a sweep with different arguments, is not a journal at all, or
/// is being written by another live process (the journal is opened as a
/// single-writer [`ResultCache`]).
pub fn try_run_grid<T: Send + CellCodec>(
    args: &SweepArgs,
    jobs: Vec<Job<T>>,
) -> Result<Vec<Result<T, SimError>>, SimError> {
    let fingerprint = sweep_fingerprint(args);
    let keys: Vec<u64> = jobs
        .iter()
        .map(|j| job_key(fingerprint, j.label()))
        .collect();
    let jobs: Vec<Job<T>> = jobs
        .into_iter()
        .zip(&keys)
        .map(|(j, key)| j.config_hash(format!("{key:016x}")))
        .collect();
    let n = jobs.len();
    let policy = args.retry_policy();

    let Some(path) = &args.resume else {
        if n > 1 {
            eprintln!("sweep: {} jobs on {} worker(s)", n, args.jobs.clamp(1, n));
        }
        return Ok(run_jobs_supervised(args.jobs, jobs, &policy, None));
    };

    let cache = ResultCache::open(path, fingerprint)?;
    // A record that fails to decode (format drift, hand-edited file) is not
    // an error: the cell is simply recomputed and its record rewritten.
    let mut slots: Vec<Option<Result<T, SimError>>> = keys
        .iter()
        .map(|&key| {
            let value = T::decode_cell(&Json::parse(cache.get(key)?).ok()?)?;
            Some(Ok(value))
        })
        .collect();
    let pending: Vec<(usize, Job<T>)> = jobs
        .into_iter()
        .enumerate()
        .filter(|(i, _)| slots[*i].is_none())
        .collect();
    let resumed = n - pending.len();
    if resumed > 0 {
        eprintln!(
            "sweep: resumed {resumed} of {n} cell(s) from {}",
            path.display()
        );
    }
    if pending.len() > 1 {
        eprintln!(
            "sweep: {} jobs on {} worker(s)",
            pending.len(),
            args.jobs.clamp(1, pending.len())
        );
    }
    let indices: Vec<usize> = pending.iter().map(|(i, _)| *i).collect();
    let pending_jobs: Vec<Job<T>> = pending.into_iter().map(|(_, j)| j).collect();
    let cache = Mutex::new(cache);
    let observer = |pi: usize, r: &Result<T, SimError>| {
        if let Ok(v) = r {
            let payload = v.encode_cell().to_compact_string();
            // An insert leaves the cache valid wherever it stops, so a
            // poisoned lock is recovered rather than failing every later cell.
            let mut cache = cache.lock().unwrap_or_else(PoisonError::into_inner);
            if let Err(e) = cache.insert(keys[indices[pi]], &payload) {
                // Losing durability degrades resume, not this run's results.
                eprintln!("warning: {e}");
            }
        }
    };
    let results = run_jobs_supervised(args.jobs, pending_jobs, &policy, Some(&observer));
    for (pi, result) in results.into_iter().enumerate() {
        let i = indices[pi];
        slots[i] = Some(result.map_err(|e| at_grid_index(e, i)));
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every cell is cached or computed"))
        .collect())
}

/// Errors report the cell's position in the full grid, not in the subset
/// (pending after resume, surviving after pruning) the pool happened to run.
fn at_grid_index(mut e: SimError, i: usize) -> SimError {
    if let SimError::JobPanicked { index, .. } | SimError::JobTimeout { index, .. } = &mut e {
        *index = i;
    }
    e
}

/// One sweep cell as a value: the configuration and per-tile application
/// placement [`run_mix`] simulates, under the label that names the cell in
/// error reports and addresses it in the `--resume` journal. Build cells
/// from the harness's own axes only — the sweep's `--policy/--kernel/
/// --topology` overrides are applied by the runner that consumes the cell.
#[derive(Debug, Clone)]
pub struct MixCell {
    /// Unique within the harness; never reworded once released (an old
    /// journal must resume under a new binary).
    pub label: String,
    /// The cell's configuration, before the sweep's overrides.
    pub cfg: SystemConfig,
    /// Per-tile application placement, exactly as [`run_mix`] assigns it.
    pub apps: Vec<SpecApp>,
    /// The cell's own simulation window, for cells whose window is part of
    /// their identity: a [`crate::CellSpec`]'s (always set by
    /// `CellSpec::build`) and `analytic_validate`'s golden anchors, which
    /// pin a different window per family inside one journal. `None` — every
    /// figure harness — runs the sweep's `--warmup`/`--measure`.
    pub window: Option<RunLengths>,
}

impl MixCell {
    /// Packages a configuration and placement as a labelled cell that runs
    /// the sweep's window.
    pub fn new(label: impl Into<String>, cfg: SystemConfig, apps: Vec<SpecApp>) -> MixCell {
        MixCell {
            label: label.into(),
            cfg,
            apps,
            window: None,
        }
    }

    fn lengths(&self, args: &SweepArgs) -> RunLengths {
        self.window.unwrap_or(args.lengths)
    }
}

/// The one place a sweep's overrides meet a configuration: on the main
/// thread, before any job exists, so an override the grid cannot satisfy is
/// a usage error ([`ExitCode::Config`]), never a cell panic.
fn overridden(args: &SweepArgs, mut cell: MixCell) -> MixCell {
    args.apply_policy(&mut cell.cfg);
    cell
}

/// What a job keeps of a finished run; shared by the jobs of a grid.
type Extract<T> = Arc<dyn Fn(&MixResult) -> T + Send + Sync>;

/// The pool job of an already-[`overridden`] cell.
fn mix_job<T: 'static>(cell: MixCell, args: &SweepArgs, extract: Extract<T>) -> Job<T> {
    let lengths = cell.lengths(args);
    let MixCell {
        label, cfg, apps, ..
    } = cell;
    Job::new(label, move || extract(&run_mix(&cfg, &apps, lengths)))
}

/// Simulates every cell on the pool and returns `extract` of each result,
/// in cell order (aborting like [`run_grid`] on any failure). `extract`
/// runs on the worker, so only what it returns crosses threads and reaches
/// the journal.
#[must_use]
pub fn run_mix_grid<T, F>(args: &SweepArgs, cells: Vec<MixCell>, extract: F) -> Vec<T>
where
    T: Send + CellCodec + 'static,
    F: Fn(&MixResult) -> T + Send + Sync + 'static,
{
    let extract: Extract<T> = Arc::new(extract);
    let jobs = cells
        .into_iter()
        .map(|cell| mix_job(overridden(args, cell), args, Arc::clone(&extract)))
        .collect();
    run_grid(args, jobs)
}

/// Weighted speedup of every cell, in cell order. Each cell comes with the
/// hardware its alone runs use (the cell's configuration minus whatever the
/// harness sweeps on top of it), so scheme and knob variants of one
/// hardware point share their denominators. Two pool phases: the distinct
/// `(hardware, app)` alone runs via [`AloneMap`], then the mixes.
#[must_use]
pub fn run_ws_grid(args: &SweepArgs, cells: Vec<(MixCell, SystemConfig)>) -> Vec<f64> {
    let alone = AloneMap::compute(
        args,
        cells.iter().map(|(cell, hw)| (hw, cell.apps.as_slice())),
    );
    let jobs = cells
        .into_iter()
        .map(|(cell, hw)| {
            let table = alone.table(&hw, &cell.apps);
            let ws: Extract<f64> = Arc::new(move |r| weighted_speedup_of(r, &table));
            mix_job(overridden(args, cell), args, ws)
        })
        .collect();
    run_grid(args, jobs)
}

/// [`DEFAULT_SHARDS`] replicates of one cell, in shard order, ready to be
/// merged: shard `s` is labelled `<label>/shard-<s>` and seeded
/// `job_seed(args.seed, s)`.
#[must_use]
pub fn run_mix_shards<T, F>(args: &SweepArgs, cell: &MixCell, extract: F) -> Vec<T>
where
    T: Send + CellCodec + 'static,
    F: Fn(&MixResult) -> T + Send + Sync + 'static,
{
    let shards = (0..DEFAULT_SHARDS)
        .map(|s| {
            let mut shard = cell.clone();
            shard.label = format!("{}/shard-{s}", cell.label);
            shard.cfg.seed = job_seed(args.seed, s);
            shard
        })
        .collect();
    run_mix_grid(args, shards, extract)
}

/// What a pruned grid produced, aligned with the input cells.
pub struct PruneOutcome<T> {
    /// Per-cell outcome: `None` when the pre-pass pruned the cell,
    /// otherwise the cycle-accurate result (or its quarantined error).
    pub results: Vec<Option<Result<T, SimError>>>,
    /// The estimator's predicted mean latency per cell (`None` for cells
    /// the model cannot rank, or when pruning is off).
    pub predicted: Vec<Option<f64>>,
    /// How many cells were submitted to the cycle-accurate pool.
    pub kept: usize,
}

/// Two-tier grid execution over [`MixCell`]s, each paired with whether it
/// is golden-pinned (regression anchors must always run). With `--prune
/// analytic:top=K` the closed-form estimator ranks every cell — its model
/// inputs *are* the cell — and only the K lowest-predicted-latency cells,
/// plus all golden-pinned cells and any cell the model cannot rank, reach
/// the cycle-accurate pool. Surviving cells run through [`try_run_grid`]
/// exactly as an unpruned run's would, so their results are byte-identical;
/// the pruning spec is part of the sweep fingerprint, so `--resume`
/// journals of pruned and unpruned sweeps never mix.
///
/// With `--prune off` every cell runs and no prediction is computed.
///
/// # Errors
///
/// [`SimError::Journal`] exactly as [`try_run_grid`].
pub fn try_run_pruned_grid<T, F>(
    args: &SweepArgs,
    cells: Vec<(MixCell, bool)>,
    extract: F,
) -> Result<PruneOutcome<T>, SimError>
where
    T: Send + CellCodec + 'static,
    F: Fn(&MixResult) -> T + Send + Sync + 'static,
{
    let n = cells.len();
    let extract: Extract<T> = Arc::new(extract);
    let cells: Vec<(MixCell, bool)> = cells
        .into_iter()
        .map(|(cell, golden)| (overridden(args, cell), golden))
        .collect();
    let PruneSpec::Analytic { top } = args.prune else {
        let jobs = cells
            .into_iter()
            .map(|(cell, _)| mix_job(cell, args, Arc::clone(&extract)))
            .collect();
        let results = try_run_grid(args, jobs)?;
        return Ok(PruneOutcome {
            results: results.into_iter().map(Some).collect(),
            predicted: vec![None; n],
            kept: n,
        });
    };

    // Tier 1: rank by the analytic estimator. A cell whose configuration
    // the model rejects is kept conservatively (the cycle pool will report
    // the config error properly).
    let predicted: Vec<Option<f64>> = cells
        .iter()
        .map(|(cell, _)| {
            let model = AnalyticModel::new(&cell.cfg, &cell.apps).ok()?;
            let lengths = cell.lengths(args);
            let report = model
                .with_lengths(lengths.warmup, lengths.measure)
                .evaluate();
            Some(report.mean_latency)
        })
        .collect();
    let mut ranked: Vec<(usize, f64)> = predicted
        .iter()
        .enumerate()
        .filter(|(i, _)| !cells[*i].1)
        .filter_map(|(i, p)| p.map(|p| (i, p)))
        .collect();
    // Ascending predicted latency; grid order breaks ties, so the
    // selection is deterministic.
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
    let mut keep: Vec<bool> = cells
        .iter()
        .zip(&predicted)
        .map(|((_, golden), p)| *golden || p.is_none())
        .collect();
    for &(i, _) in ranked.iter().take(top) {
        keep[i] = true;
    }
    let kept = keep.iter().filter(|k| **k).count();
    eprintln!("sweep: analytic pre-pass kept {kept} of {n} cell(s) (top={top} plus pinned)");

    // Tier 2: the surviving jobs, bit-identical to an unpruned run.
    let mut survivors: Vec<Job<T>> = Vec::with_capacity(kept);
    let mut indices = Vec::with_capacity(kept);
    for (i, (cell, _)) in cells.into_iter().enumerate() {
        if keep[i] {
            indices.push(i);
            survivors.push(mix_job(cell, args, Arc::clone(&extract)));
        }
    }
    let sub = try_run_grid(args, survivors)?;
    let mut results: Vec<Option<Result<T, SimError>>> = (0..n).map(|_| None).collect();
    for (si, r) in sub.into_iter().enumerate() {
        let i = indices[si];
        results[i] = Some(r.map_err(|e| at_grid_index(e, i)));
    }
    Ok(PruneOutcome {
        results,
        predicted,
        kept,
    })
}

/// A pruned grid after quarantine handling: every surviving cell's value,
/// aligned with the input cells (`None` = pruned away).
pub struct PrunedResults<T> {
    /// Per-cell value; `None` when the pre-pass pruned the cell.
    pub results: Vec<Option<T>>,
    /// The estimator's predicted mean latency per cell.
    pub predicted: Vec<Option<f64>>,
    /// How many cells ran cycle-accurately.
    pub kept: usize,
}

/// Like [`run_mix_grid`] under `--prune` (cells as for
/// [`try_run_pruned_grid`]): aborts on journal problems and quarantined
/// cells with the same exit codes as [`run_grid`], and exits with
/// [`ExitCode::PrunedEmpty`] when the pre-pass eliminated every cell of a
/// non-empty grid (a sweep that simulated nothing must not look like a
/// success).
#[must_use]
pub fn run_pruned_grid<T, F>(
    args: &SweepArgs,
    cells: Vec<(MixCell, bool)>,
    extract: F,
) -> PrunedResults<T>
where
    T: Send + CellCodec + 'static,
    F: Fn(&MixResult) -> T + Send + Sync + 'static,
{
    let n = cells.len();
    let outcome = match try_run_pruned_grid(args, cells, extract) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::Config.exit();
        }
    };
    if outcome.kept == 0 && n > 0 {
        eprintln!(
            "error: --prune {} eliminated all {n} cell(s); nothing was simulated",
            args.prune
        );
        ExitCode::PrunedEmpty.exit();
    }
    let quarantined: Vec<SimError> = outcome
        .results
        .iter()
        .flatten()
        .filter_map(|r| r.as_ref().err().cloned())
        .collect();
    exit_on_quarantine(&quarantined);
    PrunedResults {
        results: outcome
            .results
            .into_iter()
            .map(|r| r.map(|v| v.expect("quarantine exit handled errors")))
            .collect(),
        predicted: outcome.predicted,
        kept: outcome.kept,
    }
}

/// The four headline numbers of one cell — what `topo_sweep` tabulates and
/// `sweepd` serves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// Completed off-chip accesses, all applications.
    pub offchip: u64,
    /// Sum of per-application IPCs.
    pub ipc_sum: f64,
    /// Mean round-trip latency over all applications' accesses.
    pub mean_latency: f64,
    /// 95th-percentile round-trip latency.
    pub p95_latency: u64,
}

impl CellMetrics {
    /// Extracts the metrics of a finished run.
    #[must_use]
    pub fn of(r: &MixResult) -> CellMetrics {
        let mut merged = Histogram::new(25, 4000);
        for c in 0..r.per_app.len() {
            merged.merge(&r.system.tracker().app(c).total);
        }
        CellMetrics {
            offchip: r.per_app.iter().map(|a| a.offchip).sum(),
            ipc_sum: r.per_app.iter().map(|a| a.ipc).sum(),
            mean_latency: merged.mean(),
            p95_latency: merged.percentile(0.95),
        }
    }

    /// The decimal rendering `sweepd` stores and serves (field order and
    /// names are protocol).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Obj::new()
            .field("offchip", self.offchip)
            .field("ipc_sum", self.ipc_sum)
            .field("mean_latency", self.mean_latency)
            .field("p95_latency", self.p95_latency)
            .build()
    }
}

/// Positional and bit-exact, like the tuple `topo_sweep` journaled before
/// this type existed.
impl CellCodec for CellMetrics {
    fn encode_cell(&self) -> Json {
        (
            self.offchip,
            self.ipc_sum,
            self.mean_latency,
            self.p95_latency,
        )
            .encode_cell()
    }
    fn decode_cell(json: &Json) -> Option<Self> {
        let (offchip, ipc_sum, mean_latency, p95_latency) = CellCodec::decode_cell(json)?;
        Some(CellMetrics {
            offchip,
            ipc_sum,
            mean_latency,
            p95_latency,
        })
    }
}

/// A table of alone-run IPCs (the weighted-speedup denominators), computed
/// as its own parallel phase so the mix-run grid never recomputes them.
///
/// Entries are keyed by the *full* hardware configuration (schemes
/// stripped, since alone runs never contend) plus the application, so
/// distinct hardware points — different meshes, VC counts, schedulers,
/// pipelines — never alias each other's denominators.
#[derive(Debug, Default)]
pub struct AloneMap {
    map: HashMap<(String, SpecApp), f64>,
}

/// Cache key of a hardware configuration for alone-run purposes: the Debug
/// rendering of [`alone_config`] (policies and kernel stripped — neither
/// changes what an alone run measures).
#[must_use]
pub fn alone_key(cfg: &SystemConfig) -> String {
    format!("{:?}", alone_config(cfg))
}

impl AloneMap {
    /// Computes alone IPCs for every distinct `(hardware, app)` pair in
    /// `requests`, one pool job per pair.
    #[must_use]
    pub fn compute<'a>(
        args: &SweepArgs,
        requests: impl IntoIterator<Item = (&'a SystemConfig, &'a [SpecApp])>,
    ) -> AloneMap {
        let lengths = args.lengths;
        let mut pairs: Vec<(String, SystemConfig, SpecApp)> = Vec::new();
        let mut seen: HashSet<(String, SpecApp)> = HashSet::new();
        for (cfg, apps) in requests {
            let key = alone_key(cfg);
            for &app in apps {
                if seen.insert((key.clone(), app)) {
                    pairs.push((key.clone(), cfg.clone(), app));
                }
            }
        }
        let jobs: Vec<Job<f64>> = pairs
            .iter()
            .map(|(key, cfg, app)| {
                let cfg = cfg.clone();
                let app = *app;
                // The hardware key disambiguates the label: the same app on
                // two hardware points must never share a journal address.
                let hw = fnv1a64(key.as_bytes());
                Job::new(format!("alone/{}/{hw:016x}", app.name()), move || {
                    alone_ipc(&cfg, app, lengths)
                })
            })
            .collect();
        let ipcs = run_grid(args, jobs);
        let map = pairs
            .into_iter()
            .zip(ipcs)
            .map(|((key, _, app), ipc)| ((key, app), ipc))
            .collect();
        AloneMap { map }
    }

    /// The alone IPC of `app` on `cfg`'s hardware.
    ///
    /// # Panics
    ///
    /// Panics if the pair was not part of [`AloneMap::compute`].
    #[must_use]
    pub fn ipc(&self, cfg: &SystemConfig, app: SpecApp) -> f64 {
        *self
            .map
            .get(&(alone_key(cfg), app))
            .unwrap_or_else(|| panic!("alone IPC of {} not precomputed", app.name()))
    }

    /// Alone IPCs for every distinct app of a workload, in the shape
    /// [`noclat::weighted_speedup_of`] consumes.
    #[must_use]
    pub fn table(&self, cfg: &SystemConfig, apps: &[SpecApp]) -> HashMap<SpecApp, f64> {
        apps.iter().map(|&a| (a, self.ipc(cfg, a))).collect()
    }

    /// Number of distinct `(hardware, app)` entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries have been computed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noclat::{KernelKind, RequestPolicyKind, ResponsePolicyKind};

    #[test]
    fn cell_metrics_keep_their_two_renderings() {
        let m = CellMetrics {
            offchip: 21840,
            ipc_sum: 17.25,
            mean_latency: 412.5,
            p95_latency: 975,
        };
        // sweepd's stored payload: decimal, these names, this order.
        assert_eq!(
            m.to_json().to_compact_string(),
            r#"{"offchip":21840,"ipc_sum":17.25,"mean_latency":412.5,"p95_latency":975}"#
        );
        // The journal record: the positional bit-exact tuple, so journals
        // written before the type existed still resume.
        let tuple = (21840u64, 17.25f64, 412.5f64, 975u64).encode_cell();
        assert_eq!(m.encode_cell(), tuple);
        assert_eq!(CellMetrics::decode_cell(&tuple), Some(m));
    }

    #[test]
    fn alone_key_strips_schemes_but_keeps_hardware() {
        let base = SystemConfig::baseline_32();
        assert_eq!(
            alone_key(&base),
            alone_key(&base.clone().with_both_schemes())
        );
        // Either slot alone is also contention-only: alone runs share a key.
        let mut request_only = base.clone();
        request_only.policy.request = RequestPolicyKind::Scheme2;
        assert_eq!(alone_key(&base), alone_key(&request_only));
        let mut response_only = base.clone();
        response_only.policy.response = ResponsePolicyKind::Scheme1;
        assert_eq!(alone_key(&base), alone_key(&response_only));
        let mut more_vcs = base.clone();
        more_vcs.noc.vcs_per_port = 8;
        assert_ne!(alone_key(&base), alone_key(&more_vcs));
        let mut other_seed = base.clone();
        other_seed.seed ^= 1;
        assert_ne!(alone_key(&base), alone_key(&other_seed));
        // Kernel selection never changes results, so it never splits keys.
        let mut event = base.clone();
        event.kernel = KernelKind::Event;
        assert_eq!(alone_key(&base), alone_key(&event));
    }
}
