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
//! * `{"op":"cancel","key":"<16-hex>"}` — stop a cell: a queued one never
//!   runs, a running one has its cancel token fired.
//! * `{"op":"stats"}` — daemon counters (the dedup/cache-hit proof the
//!   integration suite pins).
//! * `{"op":"shutdown"}` — cancel what is in flight and exit `serve`, which
//!   returns with the executors joined and the cache file's lock released.
//!
//! Anything else is refused with one `{"ok":false,"error":…}` line. A
//! request line over [`MAX_REQUEST_LINE`] bytes (`request line exceeds N
//! bytes`) and a connection beyond [`MAX_CONNECTIONS`] (`too many
//! connections (limit N)`) are closed after it; nobody else is affected.
//!
//! Cached results are spliced into responses as the stored payload string,
//! byte-for-byte — two clients asking for the same cell always read
//! identical result bytes, whether computed or cached.
//!
//! # State
//!
//! One `Mutex<Table>` holds cache, in-flight map and queue: a key is looked
//! up, enqueued and retired in single critical sections, so it is never in
//! both cache and map. Each in-flight cell has one lock of its own, for its
//! state and its waiters' condvar (DESIGN.md §15).
//!
//! # Cell addressing
//!
//! A cell's key is the fnv1a64 of its canonical spec rendering
//! ([`CellSpec::canonical`]), which covers every result-determining field
//! (size, fabric, MC placement, scheme, workload, seed, window, kernel) —
//! the service-side analogue of [`crate::sweep_fingerprint`] +
//! [`crate::job_key`]. It is rendered from the parsed values, never from
//! the request's text: every spelling of a cell (`cmesh`, `cmesh:c=4`,
//! `cmesh:concentration=4`; `none`, `baseline`) has the one key. The cache
//! file itself pins the constant
//! [`crate::cache::sweepd_cache_fingerprint`] since it spans many sweeps.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

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
    /// The fabric, resolved ([`CellSpec::parse_fabric`]): rendered `mesh`,
    /// `torus`, `cmesh:c=N` or `express:skip=N`.
    pub fabric: TopologyOverride,
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
            fabric: Self::parse_fabric(&str_field("fabric", "mesh")?)
                .map_err(|e| format!("cell.fabric: {e}"))?,
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

    /// Parses a cell's fabric: any `--topology` spelling but `mc=` (a cell
    /// names its placement in a field of its own), with the fabric's
    /// defaults filled in so that equal fabrics are equal values.
    ///
    /// # Errors
    ///
    /// The grammar's message, or the refusal of `mc=`.
    pub fn parse_fabric(text: &str) -> Result<TopologyOverride, String> {
        let fabric = TopologyOverride::parse(text)?;
        if fabric.mc_placement.is_some() {
            return Err(format!(
                "{text:?} sets mc=, which a cell takes as its own field"
            ));
        }
        Ok(fabric.resolved())
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
        self.fabric.apply(&mut cfg);
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
#[derive(Clone, Default)]
enum JobState {
    #[default]
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
}

/// What changes about a cell while it is in flight.
#[derive(Default)]
struct Progress {
    state: JobState,
    /// The running attempt's cancel token, published by the job closure.
    token: Option<CancelToken>,
    /// Set by the `cancel` op and by shutdown, so that a cancel can be told
    /// from a deadline timeout (the pool classifies both as timeouts).
    cancel_requested: bool,
}

/// One deduplicated in-flight cell: every concurrent submitter of the same
/// key shares this entry (and therefore the single simulation). Waiters
/// block on `changed` holding this entry's lock only, never the table's.
struct JobEntry {
    key: u64,
    spec: CellSpec,
    progress: Mutex<Progress>,
    changed: Condvar,
}

impl JobEntry {
    /// The entry's only lock site. Nothing under it panics (state and token
    /// clones, an atomic store), and every step leaves `Progress` valid, so
    /// a poisoned lock is recovered, not passed on to every waiter.
    fn lock(&self) -> MutexGuard<'_, Progress> {
        self.progress.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn set_state(&self, next: JobState) {
        self.lock().state = next;
        self.changed.notify_all();
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

/// Where a key stands: exactly one of the three, because the cache and the
/// in-flight map only ever change together, under the table lock.
enum Lookup {
    Cached(String),
    InFlight(Arc<JobEntry>),
    Unknown,
}

/// All of the daemon's mutable state, behind [`Shared`]'s one lock.
#[derive(Default)]
struct Table {
    /// `None` once the daemon has closed and released the cache file.
    cache: Option<ResultCache>,
    /// Cells submitted and not finished. While the table stays locked each
    /// is `Queued` or `Running`: a terminal state is set as the cell leaves.
    in_flight: HashMap<u64, Arc<JobEntry>>,
    /// The in-flight cells no executor has claimed yet, oldest first.
    queue: VecDeque<Arc<JobEntry>>,
    /// Set by the `shutdown` op: executors stop claiming, `serve` returns.
    shutdown: bool,
    /// Open client connections, at most [`MAX_CONNECTIONS`].
    connections: usize,
    /// Simulations run to completion (the dedup proof: a cache-served or
    /// deduplicated submission never increments this).
    jobs_run: u64,
    /// `submit`s and `result`s answered straight from the cache.
    cache_hits: u64,
    /// Submissions answered by joining an identical in-flight cell.
    dedup_joins: u64,
}

impl Table {
    /// The one place a key is looked up.
    fn lookup(&self, key: u64) -> Lookup {
        if let Some(payload) = self.cache.as_ref().and_then(|cache| cache.get(key)) {
            Lookup::Cached(payload.to_string())
        } else if let Some(entry) = self.in_flight.get(&key) {
            Lookup::InFlight(Arc::clone(entry))
        } else {
            Lookup::Unknown
        }
    }

    /// Cancels an in-flight cell; false when the key is not in flight. A
    /// running cell's token is fired and its executor relabels the timeout;
    /// a queued cell is `Cancelled` here and now, and never runs.
    fn cancel(&mut self, key: u64) -> bool {
        let Some(entry) = self.in_flight.get(&key) else {
            return false;
        };
        let mut progress = entry.lock();
        progress.cancel_requested = true;
        if let Some(token) = &progress.token {
            token.cancel();
        }
        if matches!(progress.state, JobState::Queued) {
            progress.state = JobState::Cancelled;
            entry.changed.notify_all();
            drop(progress);
            self.queue.retain(|queued| queued.key != key);
            self.in_flight.remove(&key);
        }
        true
    }
}

/// What every daemon thread shares: the table, the condvar executors park
/// on (signalled on enqueue and on close), and two constants.
struct Shared {
    table: Mutex<Table>,
    wake: Condvar,
    retry: RetryPolicy,
    addr: SocketAddr,
}

impl Shared {
    /// The table's only lock site. Its sections update maps and counters
    /// and, in [`executor_loop`], append to the journal (may block on the
    /// disk; fails as a value); none writes to a socket, simulates or waits
    /// for a cell. Nothing under the lock panics and every step leaves the
    /// table valid, so a poisoned lock is recovered: one thread's bug must
    /// not take down the daemon (or panic its `Drop`).
    fn lock(&self) -> MutexGuard<'_, Table> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// An executor: claims the oldest queued cell, runs it with the table
/// unlocked, and retires it — in one section its result enters the cache
/// and its entry leaves the in-flight map; then its waiters wake.
fn executor_loop(shared: &Shared) {
    let mut table = shared.lock();
    while !table.shutdown {
        let Some(entry) = table.queue.pop_front() else {
            table = shared
                .wake
                .wait(table)
                .unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        entry.set_state(JobState::Running);
        drop(table);
        let outcome = run_entry(&shared.retry, &entry);
        table = shared.lock();
        if let (JobState::Done(payload), Some(cache)) = (&outcome, table.cache.as_mut()) {
            if let Err(e) = cache.insert(entry.key, payload) {
                // Durability degraded, not the in-flight result.
                eprintln!("sweepd: cache write failed: {e}");
            }
            table.jobs_run += 1;
        }
        table.in_flight.remove(&entry.key);
        entry.set_state(outcome);
    }
}

/// The sweep daemon: a bound listener plus its executor pool.
pub struct SweepServer {
    listener: TcpListener,
    shared: Arc<Shared>,
    executors: Vec<JoinHandle<()>>,
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
        let table = Table {
            cache: Some(cache),
            ..Table::default()
        };
        // From here on an early return drops `server`, which closes it.
        let mut server = SweepServer {
            listener,
            shared: Arc::new(Shared {
                table: Mutex::new(table),
                wake: Condvar::new(),
                retry: config.retry.clone(),
                addr,
            }),
            executors: Vec::new(),
        };
        for worker in 0..config.workers.max(1) {
            let shared = Arc::clone(&server.shared);
            let executor = std::thread::Builder::new()
                .name(format!("sweepd-exec-{worker}"))
                .spawn(move || executor_loop(&shared))
                .map_err(|e| format!("spawn executor: {e}"))?;
            server.executors.push(executor);
        }
        Ok(server)
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Accepts connections until a `shutdown` op arrives, handling each
    /// client on its own thread, then closes the daemon (see `Drop`): on
    /// return no executor is alive and the cache file's lock is released.
    ///
    /// # Errors
    ///
    /// Fatal listener errors only; per-connection failures are logged to
    /// stderr and the daemon keeps serving.
    pub fn serve(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            let table = self.shared.lock();
            if table.shutdown {
                break;
            }
            let admitted = table.connections < MAX_CONNECTIONS;
            drop(table);
            match stream {
                Ok(stream) if admitted => {
                    self.shared.lock().connections += 1;
                    let shared = Arc::clone(&self.shared);
                    std::thread::Builder::new()
                        .name("sweepd-conn".to_string())
                        .spawn(move || {
                            if let Err(e) = handle_connection(&shared, stream) {
                                eprintln!("sweepd: connection error: {e}");
                            }
                            shared.lock().connections -= 1;
                        })?;
                }
                // Refused, best effort; dropping the stream closes it.
                Ok(mut stream) => drop(send(
                    &mut stream,
                    Line::error(&format!("too many connections (limit {MAX_CONNECTIONS})")),
                )),
                Err(e) => eprintln!("sweepd: accept failed: {e}"),
            }
        }
        Ok(())
    }
}

impl Drop for SweepServer {
    /// Closes the daemon: cancels every in-flight cell (its waiters read
    /// `cancelled`), joins the executors and releases the cache file and
    /// its lock. A connection thread may outlive this: it finds an empty
    /// table and closes after its next reply.
    fn drop(&mut self) {
        let mut table = self.shared.lock();
        table.shutdown = true;
        for key in table.in_flight.keys().copied().collect::<Vec<_>>() {
            table.cancel(key);
        }
        drop(table);
        self.shared.wake.notify_all();
        for executor in self.executors.drain(..) {
            if executor.join().is_err() {
                eprintln!("sweepd: an executor thread panicked");
            }
        }
        self.shared.lock().cache = None;
    }
}

/// Runs a claimed cell under pool supervision, to its terminal state.
fn run_entry(retry: &RetryPolicy, entry: &Arc<JobEntry>) -> JobState {
    let spec = entry.spec.clone();
    let publish = Arc::clone(entry);
    let job = Job::with_ctx(spec.canonical(), move |ctx| {
        // Publish the attempt's token so that a cancel can fire it; an
        // attempt that starts after the cancel (a retry) ends on the spot.
        let mut progress = publish.lock();
        if progress.cancel_requested {
            ctx.cancel.cancel();
        }
        progress.token = Some(ctx.cancel.clone());
        drop(progress);
        spec.run()
    })
    .config_hash(format!("{:016x}", entry.key));
    let mut results = run_jobs_supervised(1, vec![job], retry, None);
    match results.pop().expect("one job, one result") {
        Ok(payload) => JobState::Done(payload),
        // The pool classifies a cancel as a timeout: the token fired.
        Err(_) if entry.lock().cancel_requested => JobState::Cancelled,
        Err(e) => JobState::Failed(e.to_string()),
    }
}

/// One protocol line: a JSON object, then — last and verbatim — a result's
/// stored payload, so result bytes are identical however the cell was got.
struct Line(Obj, Option<String>);

impl Line {
    fn reply(op: &str) -> Line {
        Line(Obj::new().field("ok", true).field("op", op), None)
    }

    fn event(name: &str, key: u64) -> Line {
        Line(Obj::new().field("event", name), None).key(key)
    }

    fn error(msg: &str) -> Line {
        Line(Obj::new().field("ok", false).field("error", msg), None)
    }

    fn field(self, name: &str, value: impl Into<Json>) -> Line {
        Line(self.0.field(name, value), self.1)
    }

    fn key(self, key: u64) -> Line {
        self.field("key", format!("{key:016x}"))
    }

    fn result(self, payload: String) -> Line {
        Line(self.0, Some(payload))
    }

    fn render(self) -> String {
        let mut line = self.0.build().to_compact_string();
        if let Some(payload) = self.1 {
            line.pop();
            line.push_str(r#","result":"#);
            line.push_str(&payload);
            line.push('}');
        }
        line
    }
}

/// The only place a line reaches a socket: the line and its newline in one
/// write. Two writes on the unbuffered stream would meet Nagle's algorithm,
/// which holds the newline until the client's delayed ACK (≈44 ms a reply).
fn send(writer: &mut impl Write, line: Line) -> std::io::Result<()> {
    let mut bytes = line.render();
    bytes.push('\n');
    writer.write_all(bytes.as_bytes())
}

/// Longest request line a connection may send, in bytes (the newline not
/// counted). The largest legitimate request — a `submit` with every cell
/// field spelled out — is a few hundred bytes.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Most client connections served at once; each is a thread.
pub const MAX_CONNECTIONS: usize = 256;

/// A request's answer: the reply line, if any, and the in-flight cell whose
/// events follow it (`wait:true`). `Err` is the text of a typed refusal.
type Answer = Result<(Option<Line>, Option<Arc<JobEntry>>), String>;

fn handle_connection(shared: &Shared, stream: TcpStream) -> std::io::Result<()> {
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
            // Returning drops the stream, which closes this connection only.
            return send(&mut writer, Line::error(&refusal));
        }
        if line.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        let request = std::str::from_utf8(&line)
            .map_err(|e| e.to_string())
            .and_then(Json::parse)
            .map_err(|e| format!("bad request: {e}"));
        // The connection closes after its reply to the shutdown request or
        // to any request that arrives once the daemon is shutting down.
        // Decided before answering, so that a reply which raced another
        // connection's shutdown does not close this one unasked.
        let closes = shared.lock().shutdown
            || request
                .as_ref()
                .is_ok_and(|request| request.get("op").and_then(Json::as_str) == Some("shutdown"));
        let answered = request.and_then(|request| answer(shared, &request));
        let (reply, follow) = answered.unwrap_or_else(|e| (Some(Line::error(&e)), None));
        if let Some(reply) = reply {
            send(&mut writer, reply)?;
        }
        if let Some(entry) = follow {
            stream_until_terminal(&entry, &mut writer)?;
        }
        if closes {
            // Wake the accept loop so that serve() observes the flag.
            let _ = TcpStream::connect(shared.addr);
            return Ok(());
        }
    }
}

/// One request: everything between its parsed line and its [`Answer`].
fn answer(shared: &Shared, request: &Json) -> Answer {
    let wait = request.get("wait").and_then(Json::as_bool).unwrap_or(false);
    let op = request.get("op").and_then(Json::as_str).unwrap_or("");
    let reply = Line::reply(op);
    let reply = match op {
        "submit" => {
            let cell = request.get("cell").ok_or("submit needs a cell object")?;
            return submit(shared, CellSpec::from_json(cell)?, reply, wait);
        }
        "status" | "result" | "cancel" => {
            let key = request
                .get("key")
                .and_then(Json::as_str)
                .ok_or("missing key")?;
            let key = u64::from_str_radix(key, 16).map_err(|e| format!("bad key {key:?}: {e}"))?;
            let reply = reply.key(key);
            let mut table = shared.lock();
            match (op, table.lookup(key)) {
                ("cancel", _) => reply.field("cancelled", table.cancel(key)),
                ("status", Lookup::Unknown) => reply.field("status", "unknown"),
                ("status", Lookup::Cached(_)) => reply.field("status", "cached"),
                ("result", Lookup::InFlight(entry)) if wait => return Ok((None, Some(entry))),
                (_, Lookup::InFlight(entry)) => reply.field("status", entry.lock().state.name()),
                (_, Lookup::Unknown) => return Err("unknown key (never submitted)".into()),
                (_, Lookup::Cached(payload)) => {
                    table.cache_hits += 1;
                    reply.field("status", "cached").result(payload)
                }
            }
        }
        "stats" => {
            let table = shared.lock();
            let cached = table.cache.as_ref().map_or(0, ResultCache::len);
            reply
                .field("jobs_run", table.jobs_run)
                .field("cache_hits", table.cache_hits)
                .field("dedup_joins", table.dedup_joins)
                .field("cache_size", cached as u64)
                .field("inflight", table.in_flight.len() as u64)
        }
        "shutdown" => {
            shared.lock().shutdown = true;
            reply
        }
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok((Some(reply), None))
}

/// Lookup-or-enqueue, in one critical section.
fn submit(shared: &Shared, spec: CellSpec, reply: Line, wait: bool) -> Answer {
    let key = spec.key();
    let reply = reply.key(key);
    let mut table = shared.lock();
    let (entry, dedup) = match table.lookup(key) {
        // Byte-identical to the computation's own answer, no simulation work.
        Lookup::Cached(payload) => {
            table.cache_hits += 1;
            return Ok((Some(reply.field("status", "cached").result(payload)), None));
        }
        Lookup::InFlight(entry) => {
            table.dedup_joins += 1;
            (entry, true)
        }
        Lookup::Unknown if table.shutdown => return Err("shutting down".into()),
        Lookup::Unknown => {
            let entry = Arc::new(JobEntry {
                key,
                spec,
                progress: Mutex::default(),
                changed: Condvar::new(),
            });
            table.in_flight.insert(key, Arc::clone(&entry));
            table.queue.push_back(Arc::clone(&entry));
            shared.wake.notify_one();
            (entry, false)
        }
    };
    let status = entry.lock().state.name();
    drop(table);
    // The ack carries the analytic estimate: roughly what latency to expect
    // and whether the cell is in a stable regime, before any simulation.
    let ack = reply
        .field("status", status)
        .field("dedup", dedup)
        .field("estimate", entry.spec.estimate());
    Ok((Some(ack), wait.then_some(entry)))
}

/// Streams an entry's transitions as `state` events, then its terminal
/// event. Written outside every lock: a slow client stalls no executor.
fn stream_until_terminal(entry: &JobEntry, writer: &mut impl Write) -> std::io::Result<()> {
    let mut last = None;
    loop {
        let current = entry
            .changed
            .wait_while(entry.lock(), |p| Some(p.state.name()) == last)
            .unwrap_or_else(PoisonError::into_inner)
            .state
            .clone();
        let name = current.name();
        let event = |event| Line::event(event, entry.key);
        let (event, terminal) = match current {
            JobState::Queued | JobState::Running => (event("state").field("state", name), false),
            JobState::Done(payload) => (event(name).result(payload), true),
            JobState::Failed(msg) => (event(name).field("error", msg), true),
            JobState::Cancelled => (event(name), true),
        };
        send(writer, event)?;
        if terminal {
            return Ok(());
        }
        last = Some(name);
    }
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
        assert_eq!(spec.fabric.to_string(), "mesh");
        assert_eq!(spec.mc, McPlacement::Corner);
        assert_eq!(spec.scheme, Scheme::Baseline);
        assert_eq!(spec.workload, 2);
        assert_eq!(spec.lengths(), RunLengths::standard());

        let spec = CellSpec::from_json(&spec_json(
            r#""size":16,"fabric":"torus","mc":"edge","scheme":"both","workload":3,"seed":9,"warmup":100,"measure":1000,"kernel":"event""#,
        ))
        .unwrap();
        assert_eq!(spec.size, 16);
        assert_eq!(spec.fabric.to_string(), "torus");
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
    fn every_spelling_of_a_cell_has_the_one_frozen_key() {
        let key = |fields: &str| {
            let spec = CellSpec::from_json(&spec_json(fields)).expect(fields);
            format!("{:016x}", spec.key())
        };
        // The spellings `topo_sweep`, CI and `benchmark/` send keep the keys
        // they had when the request's text was hashed.
        let mesh = key(r#""size":16,"fabric":"mesh""#);
        let cmesh = key(r#""size":16,"fabric":"cmesh:c=4""#);
        assert_eq!(mesh, "f44c8ba5a7b61df8");
        assert_eq!(cmesh, "cc9a9c5aff78010f");
        assert_eq!(
            key(r#""size":16,"fabric":"torus","mc":"edge""#),
            "11553328c95f3976"
        );
        // Every other spelling of the same cell lands on them.
        for same_as_mesh in [r#""size":16"#, r#""size":16,"fabric":"""#] {
            assert_eq!(key(same_as_mesh), mesh, "{same_as_mesh}");
        }
        for fabric in ["cmesh", "cmesh:concentration=4"] {
            let fields = format!(r#""size":16,"fabric":"{fabric}","scheme":"none""#);
            assert_eq!(key(&fields), cmesh, "{fabric}");
        }
        assert_eq!(
            key(r#""size":16,"fabric":"express""#),
            key(r#""size":16,"fabric":"express:ruche=2""#)
        );
        assert_ne!(key(r#""size":16,"fabric":"cmesh:c=2""#), cmesh);

        // What used to be dropped or overridden in silence is refused, and
        // the refusal names the field.
        for (fabric, says) in [
            (
                "torus:mc=edge",
                "sets mc=, which a cell takes as its own field",
            ),
            ("mesh:c=4", "mesh takes no c= parameter"),
            ("torus:skip=3", "torus takes no skip= parameter"),
        ] {
            let fields = format!(r#""size":16,"fabric":"{fabric}""#);
            let err = CellSpec::from_json(&spec_json(&fields)).unwrap_err();
            assert!(err.starts_with("cell.fabric: "), "{err}");
            assert!(err.ends_with(says), "{err}");
        }
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
    fn lines_splice_the_payload_verbatim_and_last() {
        let hit = Line::reply("submit")
            .key(0xabc)
            .field("status", "cached")
            .result(r#"{"x":1.50}"#.to_string())
            .render();
        assert_eq!(
            hit,
            r#"{"ok":true,"op":"submit","key":"0000000000000abc","status":"cached","result":{"x":1.50}}"#
        );
        assert!(Json::parse(&hit).is_ok(), "response lines are valid JSON");
        assert_eq!(
            Line::event("failed", 7).field("error", "a \"b\"").render(),
            r#"{"event":"failed","key":"0000000000000007","error":"a \"b\""}"#
        );
        assert_eq!(
            Line::error("missing key").render(),
            r#"{"ok":false,"error":"missing key"}"#
        );
    }

    /// A writer that keeps every `write` call apart.
    #[derive(Default)]
    struct Calls(Vec<String>);

    impl Write for Calls {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(String::from_utf8_lossy(buf).into_owned());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_line_leaves_in_one_write() {
        let lines: [fn() -> Line; 3] = [
            || Line::reply("status").key(0xabc).field("status", "running"),
            || Line::event("done", 7).result(r#"{"x":1.50}"#.to_string()),
            || Line::error("missing key"),
        ];
        for line in lines {
            let mut calls = Calls::default();
            send(&mut calls, line()).unwrap();
            let expected = format!("{}\n", line().render());
            assert_eq!(calls.0, [expected.as_str()]);
            assert_eq!(expected.matches('\n').count(), 1, "{expected}");
        }
    }
}
