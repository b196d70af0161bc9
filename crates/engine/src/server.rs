//! `sweepd`: a persistent sweep service over TCP.
//!
//! The figure binaries pay full simulation cost on every invocation even
//! when the requested cell was computed minutes ago by a sibling process.
//! This module keeps the engine resident: clients submit cells over a
//! line-delimited JSON protocol, identical in-flight submissions from
//! concurrent clients deduplicate onto one simulation, and completed cells
//! land in the content-addressed [`crate::cache::ResultCache`] so repeats
//! are served verbatim without recompute.
//!
//! # Protocol
//!
//! One JSON object per line in each direction. Requests carry an `op`:
//!
//! * `{"op":"submit","cell":{…},"wait":true}` — run (or fetch) a cell.
//!   The ack reports `status` `cached` (with the `result` inline),
//!   `queued` or `running` (with `dedup:true` when an identical cell was
//!   already in flight, and the analytic model's `estimate` when it can
//!   rank the cell). With `wait:true` the connection then streams
//!   `{"event":"state",…}` transitions followed by a terminal
//!   `{"event":"done"|"failed"|"cancelled",…}` line.
//! * `{"op":"status","key":"<16-hex>"}` — state of one cell.
//! * `{"op":"result","key":"<16-hex>","wait":bool}` — fetch (optionally
//!   await) a submitted cell's result.
//! * `{"op":"cancel","key":"<16-hex>"}` — fire the cell's cancel token.
//! * `{"op":"stats"}` — daemon counters (the dedup/cache-hit proof the
//!   integration suite pins).
//! * `{"op":"shutdown"}` — stop accepting connections and exit `serve`.
//!
//! A request line longer than [`MAX_REQUEST_LINE`] bytes is answered with
//! `{"ok":false,"error":"request line exceeds N bytes"}` and its connection
//! is closed; other connections and in-flight cells are unaffected.
//!
//! Cached results are spliced into responses as the stored payload string,
//! byte-for-byte — two clients asking for the same cell always read
//! identical result bytes, whether computed or cached.
//!
//! # Cell addressing
//!
//! A cell's key is the fnv1a64 of its canonical spec rendering
//! ([`CellSpec::canonical`]), which covers every result-determining field
//! (size, fabric, MC placement, scheme, workload, seed, window, kernel) —
//! the service-side analogue of [`crate::sweep_fingerprint`] +
//! [`crate::job_key`]. The cache file itself pins the constant
//! [`crate::cache::sweepd_cache_fingerprint`] since it spans many sweeps.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};

use noclat::{
    run_mix, KernelKind, McPlacement, RunLengths, Scheme, SystemConfig, TopologyOverride,
};
use noclat_analytic::AnalyticModel;
use noclat_sim::cancel::CancelToken;
use noclat_sim::journal::fnv1a64;
use noclat_sim::pool::{run_jobs_supervised, Job, RetryPolicy};
use noclat_workloads::workload;

use crate::cache::{sweepd_cache_fingerprint, ResultCache};
use crate::grid::{CellMetrics, MixCell};
use crate::json::{Json, Obj};

/// One simulation request: everything that determines the cell's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// Mesh side: 4 (16 cores), 8 (the paper's 8×4), 16 (256) or 32 (1024).
    pub size: u16,
    /// Fabric override spec (`mesh`, `torus`, `cmesh:c=4`, `express:skip=2`…).
    pub fabric: String,
    /// Memory-controller placement.
    pub mc: McPlacement,
    /// Scheme combination (`baseline`/`none`, `s1`, `s2` or `both`).
    pub scheme: Scheme,
    /// Table-2 workload index (1..=18).
    pub workload: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Warmup cycles.
    pub warmup: u64,
    /// Measurement cycles.
    pub measure: u64,
    /// Simulation kernel (results are kernel-independent by contract).
    pub kernel: KernelKind,
}

impl CellSpec {
    /// Decodes a `cell` object from a submit request, applying defaults for
    /// omitted fields (8×4 baseline mesh, workload 2, standard windows).
    ///
    /// # Errors
    ///
    /// A protocol-level message naming the offending field.
    pub fn from_json(json: &Json) -> Result<CellSpec, String> {
        let Json::Obj(_) = json else {
            return Err("cell must be an object".into());
        };
        let str_field = |key: &str, default: &str| -> Result<String, String> {
            match json.get(key) {
                None => Ok(default.to_string()),
                Some(v) => v
                    .as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("cell.{key} must be a string")),
            }
        };
        let u64_field = |key: &str, default: u64| -> Result<u64, String> {
            match json.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| format!("cell.{key} must be an unsigned integer")),
            }
        };
        let lengths = RunLengths::standard();
        let size = u64_field("size", 8)?;
        let size = u16::try_from(size)
            .ok()
            .filter(|s| base_config(*s).is_some());
        let Some(size) = size else {
            return Err("cell.size must be 4, 8, 16 or 32".into());
        };
        let spec = CellSpec {
            size,
            fabric: str_field("fabric", "mesh")?,
            mc: McPlacement::parse(&str_field("mc", "corner")?)
                .map_err(|e| format!("cell.mc: {e}"))?,
            scheme: Scheme::parse(&str_field("scheme", "baseline")?)
                .map_err(|e| format!("cell.scheme: {e}"))?,
            workload: usize::try_from(u64_field("workload", 2)?).unwrap_or(0),
            seed: u64_field("seed", SystemConfig::baseline_32().seed)?,
            warmup: u64_field("warmup", lengths.warmup)?,
            measure: u64_field("measure", lengths.measure)?,
            kernel: KernelKind::parse(&str_field("kernel", KernelKind::default().name())?)
                .map_err(|e| format!("cell.kernel: {e}"))?,
        };
        if !(1..=18).contains(&spec.workload) {
            return Err("cell.workload must be in 1..=18".into());
        }
        if spec.measure == 0 {
            return Err("cell.measure must be at least 1 cycle".into());
        }
        // Validate the fabric eagerly so a bad spec is a protocol error at
        // submit time, not a quarantined job later.
        spec.build().map_err(|e| format!("cell: {e}"))?;
        Ok(spec)
    }

    /// Canonical single-line rendering: the content-address preimage. Every
    /// result-determining field appears; formatting never changes once
    /// released (cache keys must stay stable across versions).
    #[must_use]
    pub fn canonical(&self) -> String {
        format!(
            "cell v1 size={} fabric={} mc={} scheme={} workload={} seed={} warmup={} measure={} kernel={}",
            self.size,
            self.fabric,
            self.mc.name(),
            self.scheme.name(),
            self.workload,
            self.seed,
            self.warmup,
            self.measure,
            self.kernel.name(),
        )
    }

    /// The cell's content address.
    #[must_use]
    pub fn key(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }

    /// Simulation window.
    #[must_use]
    pub fn lengths(&self) -> RunLengths {
        RunLengths {
            warmup: self.warmup,
            measure: self.measure,
        }
    }

    /// The validated [`MixCell`] this spec describes, labelled with its
    /// canonical rendering and carrying the spec's own window (a runner
    /// simulates exactly what the label says, whatever the sweep's
    /// `--warmup`/`--measure`).
    ///
    /// # Errors
    ///
    /// The fabric/config validation message.
    pub fn build(&self) -> Result<MixCell, String> {
        let mut cfg = base_config(self.size)
            .expect("size validated at parse")
            .with_scheme(self.scheme);
        cfg.seed = self.seed;
        TopologyOverride::parse(&self.fabric)?.apply(&mut cfg);
        cfg.topology.mc_placement = self.mc;
        cfg.kernel = self.kernel;
        cfg.validate()
            .map_err(|e| format!("{} at {}x{}: {e}", self.fabric, self.size, self.size))?;
        let apps = workload(self.workload).apps_for(cfg.num_cores());
        Ok(MixCell {
            window: Some(self.lengths()),
            ..MixCell::new(self.canonical(), cfg, apps)
        })
    }

    /// Runs the cell and renders its metrics payload (compact, single-line;
    /// the bytes stored in the cache and spliced into responses).
    #[must_use]
    pub fn run(&self) -> String {
        let cell = self.build().expect("spec validated at submit");
        let r = run_mix(&cell.cfg, &cell.apps, self.lengths());
        CellMetrics::of(&r).to_json().to_compact_string()
    }

    /// The analytic model's take on this cell, as a response fragment:
    /// `{"mean_latency":…,"stable":…}`, or [`Json::Null`] when the model
    /// cannot rank the configuration.
    #[must_use]
    pub fn estimate(&self) -> Json {
        let Ok(cell) = self.build() else {
            return Json::Null;
        };
        match AnalyticModel::new(&cell.cfg, &cell.apps) {
            Ok(model) => {
                let report = model.with_lengths(self.warmup, self.measure).evaluate();
                Obj::new()
                    .field("mean_latency", report.mean_latency)
                    .field("stable", report.stability.is_stable())
                    .build()
            }
            Err(_) => Json::Null,
        }
    }
}

/// Baseline configuration for a mesh side, `None` for unsupported sizes.
fn base_config(size: u16) -> Option<SystemConfig> {
    match size {
        4 => Some(SystemConfig::baseline_16()),
        8 => Some(SystemConfig::baseline_32()),
        16 => Some(SystemConfig::baseline_256()),
        32 => Some(SystemConfig::baseline_1024()),
        _ => None,
    }
}

/// Lifecycle of an in-flight cell.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    /// Completed; the stored payload string.
    Done(String),
    /// Quarantined after retries; the error rendering.
    Failed(String),
    Cancelled,
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done(_) | JobState::Failed(_) | JobState::Cancelled
        )
    }
}

/// One deduplicated in-flight cell: every concurrent submitter of the same
/// key shares this entry (and therefore the single simulation).
#[derive(Debug)]
struct JobEntry {
    key: u64,
    spec: CellSpec,
    state: Mutex<JobState>,
    changed: Condvar,
    /// The running attempt's cancel token, published by the job closure.
    cancel: Mutex<Option<CancelToken>>,
    /// Set by the `cancel` op so the server can tell an operator cancel
    /// from a deadline timeout (the pool classifies both as timeouts).
    cancel_requested: AtomicBool,
}

impl JobEntry {
    fn set_state(&self, next: JobState) {
        *self.state.lock().expect("job state") = next;
        self.changed.notify_all();
    }

    fn state(&self) -> JobState {
        self.state.lock().expect("job state").clone()
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executor threads (concurrent simulations).
    pub workers: usize,
    /// Deadline/retry budget applied to every cell.
    pub retry: RetryPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            retry: RetryPolicy::default(),
        }
    }
}

/// Shared daemon state.
struct ServerState {
    cache: Mutex<ResultCache>,
    jobs: Mutex<HashMap<u64, Arc<JobEntry>>>,
    queue: Mutex<mpsc::Sender<Arc<JobEntry>>>,
    retry: RetryPolicy,
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Simulations actually executed (the dedup proof: a cache-served or
    /// deduplicated submission never increments this).
    jobs_run: AtomicU64,
    /// Submissions answered straight from the cache.
    cache_hits: AtomicU64,
    /// Submissions answered by joining an identical in-flight cell.
    dedup_joins: AtomicU64,
}

/// The sweep daemon: a bound listener plus its executor pool.
pub struct SweepServer {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl SweepServer {
    /// Binds the listener, opens (and locks) the result cache, and spawns
    /// the executor pool. `listen` may use port 0 to let the OS pick.
    ///
    /// # Errors
    ///
    /// Socket errors as IO; a busy or unreadable cache as a rendered
    /// [`crate::cache::CacheError`] (the caller prints it and exits with
    /// the config code).
    pub fn bind(
        listen: &str,
        cache_path: &std::path::Path,
        config: &ServerConfig,
    ) -> Result<SweepServer, String> {
        let listener = TcpListener::bind(listen).map_err(|e| format!("bind {listen}: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let cache = ResultCache::open(cache_path, sweepd_cache_fingerprint())
            .map_err(|e| format!("open cache {}: {e}", cache_path.display()))?;
        let (tx, rx) = mpsc::channel::<Arc<JobEntry>>();
        let state = Arc::new(ServerState {
            cache: Mutex::new(cache),
            jobs: Mutex::new(HashMap::new()),
            queue: Mutex::new(tx),
            retry: config.retry.clone(),
            addr,
            shutdown: AtomicBool::new(false),
            jobs_run: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            dedup_joins: AtomicU64::new(0),
        });
        let rx = Arc::new(Mutex::new(rx));
        for worker in 0..config.workers.max(1) {
            let state = Arc::clone(&state);
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("sweepd-exec-{worker}"))
                .spawn(move || executor_loop(&state, &rx))
                .map_err(|e| format!("spawn executor: {e}"))?;
        }
        Ok(SweepServer { listener, state })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Accepts connections until a `shutdown` op arrives, handling each
    /// client on its own thread.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only; per-connection failures are logged to
    /// stderr and the daemon keeps serving.
    pub fn serve(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            if self.state.shutdown.load(Ordering::Acquire) {
                break;
            }
            match stream {
                Ok(stream) => {
                    let state = Arc::clone(&self.state);
                    std::thread::Builder::new()
                        .name("sweepd-conn".to_string())
                        .spawn(move || {
                            if let Err(e) = handle_connection(&state, stream) {
                                eprintln!("sweepd: connection error: {e}");
                            }
                        })?;
                }
                Err(e) => eprintln!("sweepd: accept failed: {e}"),
            }
        }
        Ok(())
    }
}

/// Executor: claims queued entries and runs them under pool supervision.
fn executor_loop(state: &Arc<ServerState>, rx: &Arc<Mutex<mpsc::Receiver<Arc<JobEntry>>>>) {
    loop {
        // Hold the receiver lock only while claiming, never while running.
        let entry = match rx.lock().expect("executor queue").recv() {
            Ok(entry) => entry,
            Err(_) => return, // all senders gone: daemon is shutting down
        };
        run_entry(state, &entry);
        // Completed (or cancelled) entries leave the in-flight table *after*
        // their result is visible in the cache, so a submitter always finds
        // the cell in one of the two (see the submit path's re-check).
        state.jobs.lock().expect("jobs table").remove(&entry.key);
    }
}

fn run_entry(state: &Arc<ServerState>, entry: &Arc<JobEntry>) {
    if entry.cancel_requested.load(Ordering::Acquire) {
        entry.set_state(JobState::Cancelled);
        return;
    }
    entry.set_state(JobState::Running);
    let spec = entry.spec.clone();
    let publish = Arc::clone(entry);
    let job = Job::with_ctx(spec.canonical(), move |ctx| {
        // Expose the attempt's token so the cancel op can fire it.
        *publish.cancel.lock().expect("cancel slot") = Some(ctx.cancel.clone());
        spec.run()
    })
    .config_hash(format!("{:016x}", entry.key));
    let mut results = run_jobs_supervised(1, vec![job], &state.retry, None);
    match results.pop().expect("one job, one result") {
        Ok(payload) => {
            state.jobs_run.fetch_add(1, Ordering::AcqRel);
            let mut cache = state.cache.lock().expect("cache lock");
            if let Err(e) = cache.insert(entry.key, &payload) {
                // Durability degraded, not the in-flight result.
                eprintln!("sweepd: cache write failed: {e}");
            }
            drop(cache);
            entry.set_state(JobState::Done(payload));
        }
        Err(e) => {
            // An operator cancel is classified by the pool as a timeout
            // (the token fired); re-label it with the operator's intent.
            if entry.cancel_requested.load(Ordering::Acquire) {
                entry.set_state(JobState::Cancelled);
            } else {
                entry.set_state(JobState::Failed(e.to_string()));
            }
        }
    }
}

/// Renders a response line with the stored payload spliced in verbatim, so
/// result bytes are identical however the cell was obtained.
fn result_line(op: &str, key: u64, status: &str, payload: &str) -> String {
    format!(
        r#"{{"ok":true,"op":"{op}","key":"{key:016x}","status":"{status}","result":{payload}}}"#
    )
}

fn error_line(msg: &str) -> String {
    Obj::new()
        .field("ok", false)
        .field("error", msg)
        .build()
        .to_compact_string()
}

/// Longest request line a connection may send, in bytes (the newline not
/// counted). The largest legitimate request — a `submit` with every cell
/// field spelled out — is a few hundred bytes.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    // Never buffer more than the limit plus the byte that proves a line is
    // over it, whatever the client sends.
    let limit = MAX_REQUEST_LINE as u64 + 1;
    let mut line = Vec::new();
    loop {
        line.clear();
        let read = (&mut reader).take(limit).read_until(b'\n', &mut line)?;
        if read == 0 {
            return Ok(());
        }
        if read > MAX_REQUEST_LINE && line.last() != Some(&b'\n') {
            let refusal = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
            writeln!(writer, "{}", error_line(&refusal))?;
            // Dropping the stream closes this connection only.
            return writer.flush();
        }
        if line.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        let parsed = std::str::from_utf8(&line)
            .map_err(|e| e.to_string())
            .and_then(Json::parse);
        let request = match parsed {
            Ok(request) => request,
            Err(e) => {
                writeln!(writer, "{}", error_line(&format!("bad request: {e}")))?;
                continue;
            }
        };
        let op = request.get("op").and_then(Json::as_str).unwrap_or("");
        match op {
            "submit" => handle_submit(state, &request, &mut writer)?,
            "status" => handle_status(state, &request, &mut writer)?,
            "result" => handle_result(state, &request, &mut writer)?,
            "cancel" => handle_cancel(state, &request, &mut writer)?,
            "stats" => handle_stats(state, &mut writer)?,
            "shutdown" => {
                state.shutdown.store(true, Ordering::Release);
                writeln!(writer, r#"{{"ok":true,"op":"shutdown"}}"#)?;
                // Wake the accept loop so serve() observes the flag.
                let _ = TcpStream::connect(state.addr);
                return Ok(());
            }
            other => {
                writeln!(writer, "{}", error_line(&format!("unknown op {other:?}")))?;
            }
        }
        writer.flush()?;
    }
}

/// Looks the key up in cache and in-flight table, closing the race with
/// executors (which insert into the cache before leaving the table, while
/// holding the table lock for the removal).
fn find_cell(state: &ServerState, key: u64) -> (Option<String>, Option<Arc<JobEntry>>) {
    let jobs = state.jobs.lock().expect("jobs table");
    let entry = jobs.get(&key).cloned();
    let cached = state
        .cache
        .lock()
        .expect("cache lock")
        .get(key)
        .map(str::to_string);
    (cached, entry)
}

fn handle_submit(
    state: &Arc<ServerState>,
    request: &Json,
    writer: &mut TcpStream,
) -> std::io::Result<()> {
    let Some(cell) = request.get("cell") else {
        return writeln!(writer, "{}", error_line("submit needs a cell object"));
    };
    let spec = match CellSpec::from_json(cell) {
        Ok(spec) => spec,
        Err(e) => return writeln!(writer, "{}", error_line(&e)),
    };
    let key = spec.key();
    let wait = request.get("wait").and_then(Json::as_bool).unwrap_or(false);

    // Fast path: answered from the cache, byte-identical to the original
    // computation's response, no simulation work.
    if let Some(payload) = state.cache.lock().expect("cache lock").get(key) {
        let line = result_line("submit", key, "cached", payload);
        state.cache_hits.fetch_add(1, Ordering::AcqRel);
        return writeln!(writer, "{line}");
    }

    // Slow path: join an identical in-flight cell or enqueue a new one.
    // Everything under the jobs lock so an executor completing concurrently
    // cannot slip between the table check and the cache re-check.
    let (entry, dedup, cached) = {
        let mut jobs = state.jobs.lock().expect("jobs table");
        if let Some(existing) = jobs.get(&key) {
            state.dedup_joins.fetch_add(1, Ordering::AcqRel);
            (Arc::clone(existing), true, None)
        } else if let Some(payload) = state.cache.lock().expect("cache lock").get(key) {
            // The cell completed between the fast path and here.
            (
                Arc::new(JobEntry {
                    key,
                    spec: spec.clone(),
                    state: Mutex::new(JobState::Done(payload.to_string())),
                    changed: Condvar::new(),
                    cancel: Mutex::new(None),
                    cancel_requested: AtomicBool::new(false),
                }),
                false,
                Some(payload.to_string()),
            )
        } else {
            let entry = Arc::new(JobEntry {
                key,
                spec: spec.clone(),
                state: Mutex::new(JobState::Queued),
                changed: Condvar::new(),
                cancel: Mutex::new(None),
                cancel_requested: AtomicBool::new(false),
            });
            jobs.insert(key, Arc::clone(&entry));
            state
                .queue
                .lock()
                .expect("queue sender")
                .send(Arc::clone(&entry))
                .expect("executor pool outlives the listener");
            (entry, false, None)
        }
    };
    if let Some(payload) = cached {
        let line = result_line("submit", key, "cached", &payload);
        state.cache_hits.fetch_add(1, Ordering::AcqRel);
        return writeln!(writer, "{line}");
    }

    // Ack with the analytic estimate: the client learns immediately roughly
    // what latency to expect and whether the cell is in a stable regime.
    let ack = Obj::new()
        .field("ok", true)
        .field("op", "submit")
        .field("key", format!("{key:016x}"))
        .field("status", entry.state().name())
        .field("dedup", dedup)
        .field("estimate", spec.estimate())
        .build()
        .to_compact_string();
    writeln!(writer, "{ack}")?;
    if !wait {
        return Ok(());
    }
    writer.flush()?;
    stream_until_terminal(&entry, writer)
}

/// Streams state-transition events for an entry until it reaches a terminal
/// state, then emits the terminal event line.
fn stream_until_terminal(entry: &JobEntry, writer: &mut TcpStream) -> std::io::Result<()> {
    let mut last: Option<JobState> = None;
    let mut guard = entry.state.lock().expect("job state");
    loop {
        let current = guard.clone();
        if last.as_ref() != Some(&current) {
            last = Some(current.clone());
            if current.is_terminal() {
                drop(guard);
                let line = match &current {
                    JobState::Done(payload) => format!(
                        r#"{{"event":"done","key":"{:016x}","result":{payload}}}"#,
                        entry.key
                    ),
                    JobState::Failed(msg) => Obj::new()
                        .field("event", "failed")
                        .field("key", format!("{:016x}", entry.key))
                        .field("error", msg.as_str())
                        .build()
                        .to_compact_string(),
                    _ => format!(r#"{{"event":"cancelled","key":"{:016x}"}}"#, entry.key),
                };
                return writeln!(writer, "{line}");
            }
            // Progress event (queued → running). Write outside the lock so a
            // slow client never stalls the executor's notify.
            drop(guard);
            writeln!(
                writer,
                r#"{{"event":"state","key":"{:016x}","state":"{}"}}"#,
                entry.key,
                current.name()
            )?;
            writer.flush()?;
            guard = entry.state.lock().expect("job state");
            continue;
        }
        guard = entry.changed.wait(guard).expect("job state");
    }
}

fn parse_key(request: &Json) -> Result<u64, String> {
    let key = request
        .get("key")
        .and_then(Json::as_str)
        .ok_or("missing key")?;
    u64::from_str_radix(key, 16).map_err(|e| format!("bad key {key:?}: {e}"))
}

fn handle_status(
    state: &Arc<ServerState>,
    request: &Json,
    writer: &mut TcpStream,
) -> std::io::Result<()> {
    let key = match parse_key(request) {
        Ok(key) => key,
        Err(e) => return writeln!(writer, "{}", error_line(&e)),
    };
    let (cached, entry) = find_cell(state, key);
    let status = match (&entry, cached.is_some()) {
        (Some(entry), _) => entry.state().name().to_string(),
        (None, true) => "cached".to_string(),
        (None, false) => "unknown".to_string(),
    };
    let line = Obj::new()
        .field("ok", true)
        .field("op", "status")
        .field("key", format!("{key:016x}"))
        .field("status", status)
        .build()
        .to_compact_string();
    writeln!(writer, "{line}")
}

fn handle_result(
    state: &Arc<ServerState>,
    request: &Json,
    writer: &mut TcpStream,
) -> std::io::Result<()> {
    let key = match parse_key(request) {
        Ok(key) => key,
        Err(e) => return writeln!(writer, "{}", error_line(&e)),
    };
    let wait = request.get("wait").and_then(Json::as_bool).unwrap_or(false);
    let (cached, entry) = find_cell(state, key);
    if let Some(payload) = cached {
        state.cache_hits.fetch_add(1, Ordering::AcqRel);
        return writeln!(writer, "{}", result_line("result", key, "cached", &payload));
    }
    let Some(entry) = entry else {
        return writeln!(writer, "{}", error_line("unknown key (never submitted)"));
    };
    if wait {
        return stream_until_terminal(&entry, writer);
    }
    match entry.state() {
        JobState::Done(payload) => {
            writeln!(writer, "{}", result_line("result", key, "done", &payload))
        }
        other => {
            let line = Obj::new()
                .field("ok", true)
                .field("op", "result")
                .field("key", format!("{key:016x}"))
                .field("status", other.name())
                .build()
                .to_compact_string();
            writeln!(writer, "{line}")
        }
    }
}

fn handle_cancel(
    state: &Arc<ServerState>,
    request: &Json,
    writer: &mut TcpStream,
) -> std::io::Result<()> {
    let key = match parse_key(request) {
        Ok(key) => key,
        Err(e) => return writeln!(writer, "{}", error_line(&e)),
    };
    let entry = state.jobs.lock().expect("jobs table").get(&key).cloned();
    let cancelled = match entry {
        Some(entry) => {
            entry.cancel_requested.store(true, Ordering::Release);
            if let Some(token) = &*entry.cancel.lock().expect("cancel slot") {
                token.cancel();
            }
            true
        }
        None => false,
    };
    let line = Obj::new()
        .field("ok", true)
        .field("op", "cancel")
        .field("key", format!("{key:016x}"))
        .field("cancelled", cancelled)
        .build()
        .to_compact_string();
    writeln!(writer, "{line}")
}

fn handle_stats(state: &Arc<ServerState>, writer: &mut TcpStream) -> std::io::Result<()> {
    let line = Obj::new()
        .field("ok", true)
        .field("op", "stats")
        .field("jobs_run", state.jobs_run.load(Ordering::Acquire))
        .field("cache_hits", state.cache_hits.load(Ordering::Acquire))
        .field("dedup_joins", state.dedup_joins.load(Ordering::Acquire))
        .field(
            "cache_size",
            state.cache.lock().expect("cache lock").len() as u64,
        )
        .field(
            "inflight",
            state.jobs.lock().expect("jobs table").len() as u64,
        )
        .build()
        .to_compact_string();
    writeln!(writer, "{line}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_json(fields: &str) -> Json {
        Json::parse(&format!("{{{fields}}}")).unwrap()
    }

    #[test]
    fn cell_spec_parses_defaults_and_validates() {
        let spec = CellSpec::from_json(&spec_json("")).unwrap();
        assert_eq!(spec.size, 8);
        assert_eq!(spec.fabric, "mesh");
        assert_eq!(spec.mc, McPlacement::Corner);
        assert_eq!(spec.scheme, Scheme::Baseline);
        assert_eq!(spec.workload, 2);
        assert_eq!(spec.lengths(), RunLengths::standard());

        let spec = CellSpec::from_json(&spec_json(
            r#""size":16,"fabric":"torus","mc":"edge","scheme":"both","workload":3,"seed":9,"warmup":100,"measure":1000,"kernel":"event""#,
        ))
        .unwrap();
        assert_eq!(spec.size, 16);
        assert_eq!(spec.fabric, "torus");
        assert_eq!(spec.mc, McPlacement::Edge);
        assert_eq!(spec.kernel, KernelKind::Event);
        let cell = spec.build().unwrap();
        assert_eq!(cell.cfg.num_cores(), 256);
        assert_eq!(cell.apps.len(), 256);

        assert!(CellSpec::from_json(&spec_json(r#""size":7"#)).is_err());
        assert!(CellSpec::from_json(&spec_json(r#""scheme":"s3""#)).is_err());
        assert!(CellSpec::from_json(&spec_json(r#""workload":19"#)).is_err());
        assert!(CellSpec::from_json(&spec_json(r#""measure":0"#)).is_err());
        assert!(CellSpec::from_json(&spec_json(r#""fabric":"donut""#)).is_err());
        assert!(CellSpec::from_json(&Json::Uint(3)).is_err());
    }

    #[test]
    fn cell_key_covers_every_result_determining_field() {
        let base = CellSpec::from_json(&spec_json("")).unwrap();
        let mut seen = std::collections::HashSet::new();
        assert!(seen.insert(base.key()));
        for fields in [
            r#""size":4"#,
            r#""fabric":"torus""#,
            r#""mc":"center""#,
            r#""scheme":"s1""#,
            r#""workload":5"#,
            r#""seed":123"#,
            r#""warmup":777"#,
            r#""measure":888"#,
        ] {
            let spec = CellSpec::from_json(&spec_json(fields)).unwrap();
            assert!(seen.insert(spec.key()), "key collision for {fields}");
        }
        // Same spec → same key (the dedup invariant).
        let again = CellSpec::from_json(&spec_json("")).unwrap();
        assert_eq!(base.key(), again.key());
    }

    #[test]
    fn estimate_ranks_valid_cells() {
        let spec = CellSpec::from_json(&spec_json(r#""warmup":100,"measure":1000"#)).unwrap();
        let estimate = spec.estimate();
        let mean = estimate.get("mean_latency");
        assert!(
            mean.is_some(),
            "baseline cell must be rankable: {estimate:?}"
        );
    }

    #[test]
    fn result_line_splices_payload_verbatim() {
        let a = result_line("submit", 0xabc, "cached", r#"{"x":1.5}"#);
        let b = result_line("submit", 0xabc, "cached", r#"{"x":1.5}"#);
        assert_eq!(a, b);
        assert!(a.contains(r#""result":{"x":1.5}"#));
        assert!(Json::parse(&a).is_ok(), "response lines are valid JSON");
    }
}
