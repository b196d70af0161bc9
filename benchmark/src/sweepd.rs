//! `sweepd`: the service path. An in-process `SweepServer` on a loopback
//! port, driven in a closed loop by two plain `TcpStream` clients (default
//! socket options, one `write_all` per request line, like the CI python
//! client): cold cells with `wait:true`, a `status` of each, rounds of both
//! clients submitting one new identical cell at once, then re-submits of
//! cached cells.
//! Simulation is a small share of a hit, so this is the workload where
//! protocol, lock and socket costs show and simulator speed-ups do not.
//!
//! `BENCHMARK.json` does not list this workload, so the acceptance driver
//! does not gate on it: two simulations side by side on a shared two-thread
//! host spread 10-20 % between runs of the same code in every figure that
//! is processor time (cold cells, cells per second), whatever the estimator.
//! What the driver does gate is [`probe`], the service path in short, which
//! every simulation workload runs beside its main leg for the request
//! latencies: those wait for a timer and repeat to a percent.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::Instant;

use noclat_engine::server::ServerConfig;
use noclat_engine::{Json, Obj, SweepServer};
use noclat_sim::pool::{job_seed, RetryPolicy};

use crate::spec::Metrics;
use crate::stats::{median, percentile, top_percentile};
use crate::trace::Tracer;
use crate::{layers, report_samples, Outcome, DEFAULT_SECONDS};

/// Connections and executor threads: this many, or one on a one-thread box.
const MAX_CLIENTS: usize = 2;

/// A running daemon: its address and the thread inside `serve()`.
struct Daemon {
    addr: SocketAddr,
    serving: JoinHandle<std::io::Result<()>>,
}

/// Bind + cache open + executor and accept threads started, up to the
/// moment a client has its first answer: a daemon is set up when it serves.
fn start_daemon(cache: &Path, workers: usize) -> Result<Daemon, String> {
    let config = ServerConfig {
        workers,
        retry: RetryPolicy::default(),
    };
    let server = SweepServer::bind("127.0.0.1:0", cache, &config)?;
    let addr = server.local_addr();
    let serving = std::thread::Builder::new()
        .name("sweepd-serve".into())
        .spawn(move || server.serve())
        .map_err(|e| format!("spawn serve thread: {e}"))?;
    let mut first = Client::connect(addr)?;
    first.send(&Obj::new().field("op", "stats").build())?;
    first.recv()?;
    Ok(Daemon { addr, serving })
}

/// One client connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client { stream, reader })
    }

    /// One request line, one `write_all`.
    fn send(&mut self, request: &Json) -> Result<(), String> {
        let mut line = request.to_compact_string();
        line.push('\n');
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("write request: {e}"))
    }

    /// The next reply line; a closed connection is a missing line.
    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed before a reply line".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("read reply: {e}")),
        }
    }

    fn shutdown_daemon(mut self, daemon: Daemon) -> Result<(), String> {
        self.send(&Obj::new().field("op", "shutdown").build())?;
        self.recv()?;
        daemon
            .serving
            .join()
            .map_err(|_| "serve thread panicked")?
            .map_err(|e| format!("serve: {e}"))
    }
}

/// The bytes of a reply's `result` member, exactly as the daemon spliced
/// them in (it is always the last member).
fn result_bytes(line: &str) -> Option<&str> {
    let at = line.find(r#""result":"#)?;
    line[at + r#""result":"#.len()..].strip_suffix('}')
}

fn submit(cell: &Json) -> Json {
    Obj::new()
        .field("op", "submit")
        .field("cell", cell.clone())
        .field("wait", true)
        .build()
}

fn cell(seed: u64, warmup: u64, measure: u64, kernel: &str) -> Json {
    Obj::new()
        .field("size", 8u64)
        .field("fabric", "mesh")
        .field("mc", "corner")
        .field("scheme", "both")
        .field("workload", 2u64)
        .field("seed", seed)
        .field("warmup", warmup)
        .field("measure", measure)
        .field("kernel", kernel)
        .build()
}

/// Whether a reply line ends a `wait:true` exchange: a cached answer, a
/// terminal event, or a protocol error.
fn is_terminal(line: &str) -> bool {
    [
        r#""status":"cached""#,
        r#""event":"done""#,
        r#""event":"failed""#,
        r#""event":"cancelled""#,
        r#""ok":false"#,
    ]
    .iter()
    .any(|mark| line.contains(mark))
}

/// The plan both clients follow. Cells are the 4x8 paper mesh (`size` 8),
/// workload 2, both schemes; the seed differs, and the kernel alternates so
/// that the service runs both.
#[derive(Debug)]
pub struct Plan {
    seed: u64,
    cold_cells: usize,
    dedup_rounds: usize,
    hits_per_client: usize,
    warmup: u64,
    measure: u64,
    /// `min(2, nproc)`.
    clients: usize,
}

impl Plan {
    fn new(seed: u64, cold_cells: usize, dedup_rounds: usize, hits: usize) -> Plan {
        let clients = std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_CLIENTS));
        Plan {
            seed,
            cold_cells,
            dedup_rounds,
            // The same number of re-submits in all on a one-thread box.
            hits_per_client: hits * MAX_CLIENTS / clients,
            warmup: 500,
            measure: 5_000,
            clients,
        }
    }

    /// The `sweepd` workload: 24 cold cells, 8 rounds of one cell submitted
    /// by both clients at once, 150 re-submits per client. The counts are
    /// what the percentiles need (12 samples beyond the cold median, 15
    /// beyond the hits' p95), so `--seconds` scales the cells' window only.
    fn workload(seed: u64, seconds: f64) -> Plan {
        let mut plan = Plan::new(seed, 24, 8, 150);
        plan.measure = ((plan.measure as f64 * seconds / DEFAULT_SECONDS) as u64).max(100);
        plan
    }

    /// Every cell of the run, cold cells first, then the dedup rounds'.
    fn cells(&self) -> Vec<Json> {
        (0..self.cold_cells + self.dedup_rounds)
            .map(|i| {
                let kernel = ["cycle", "event"][usize::from(self.on_event_kernel(i))];
                cell(
                    job_seed(self.seed, i as u64),
                    self.warmup,
                    self.measure,
                    kernel,
                )
            })
            .collect()
    }

    /// Kernels alternate in pairs, so each client gets half of each.
    fn on_event_kernel(&self, cell: usize) -> bool {
        cell / self.clients % 2 == 1
    }
}

/// What one client measured.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    ack_s: Vec<f64>,
    cold_s: Vec<f64>,
    cold_phase_s: f64,
    status_s: Vec<f64>,
    hit_s: Vec<f64>,
    /// `(cell index, result bytes)` of every answer this client read.
    results: Vec<(usize, String)>,
}

impl Tally {
    /// Counts one checked operation; `what` is only rendered on failure.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("  sweepd: request failed: {}", what());
        }
    }

    /// Submits cell `index` with `wait:true` and reads to the terminal
    /// line. Returns the ack line, seconds to the ack and seconds in all.
    fn submit_and_wait(
        &mut self,
        client: &mut Client,
        span: &'static str,
        (index, cell): (usize, &Json),
        tracer: &mut Tracer,
    ) -> Result<(String, f64, f64), String> {
        let request = submit(cell);
        let (exchange, total_s) = tracer.time(span, 1, |t| {
            let (ack, ack_s) = t.time("engine.sweepd_ack", 1, |_| {
                client.send(&request)?;
                client.recv()
            });
            let ack = ack?;
            let mut last = ack.clone();
            while !is_terminal(&last) {
                last = client.recv()?;
            }
            Ok::<_, String>((ack, ack_s, last))
        });
        let (ack, ack_s, last) = exchange?;
        let bytes = result_bytes(&last).filter(|_| ack.contains(r#""ok":true"#));
        self.check(bytes.is_some(), || {
            format!("{span} of cell {index}: {last}")
        });
        self.results.extend(bytes.map(|b| (index, b.to_string())));
        Ok((ack, ack_s, total_s))
    }
}

/// One client's whole session: its share of the cold cells, a `status` of
/// each, the dedup rounds, its re-submits.
fn session(
    id: usize,
    addr: SocketAddr,
    plan: &Plan,
    barrier: &Barrier,
    tracer: &mut Tracer,
) -> Result<Tally, String> {
    let mut client = Client::connect(addr)?;
    let mut tally = Tally::default();
    let cells = plan.cells();

    barrier.wait();
    let cold_started = Instant::now();
    let mut keys = Vec::new();
    for index in (id..plan.cold_cells).step_by(plan.clients) {
        let (ack, ack_s, total_s) = tally.submit_and_wait(
            &mut client,
            "engine.sweepd_cold",
            (index, &cells[index]),
            tracer,
        )?;
        tally.ack_s.push(ack_s);
        tally.cold_s.push(total_s);
        let key = Json::parse(&ack)
            .ok()
            .and_then(|a| a.get("key")?.as_str().map(String::from));
        keys.push(key.unwrap_or_default());
    }
    barrier.wait();
    tally.cold_phase_s = cold_started.elapsed().as_secs_f64();

    for key in keys {
        let status = Obj::new().field("op", "status").field("key", key).build();
        let (reply, status_s) = tracer.time("engine.sweepd_status", 1, |_| {
            client.send(&status)?;
            client.recv()
        });
        let reply = reply?;
        // The entry leaves the in-flight table just after its result is
        // cached, so a finished cell reads `done` or `cached`.
        let settled = [r#""status":"done""#, r#""status":"cached""#];
        tally.check(settled.iter().any(|s| reply.contains(s)), || {
            format!("status: {reply}")
        });
        tally.status_s.push(status_s);
    }

    for cell in cells.iter().enumerate().skip(plan.cold_cells) {
        // Both clients submit the same new cell at the same moment.
        barrier.wait();
        tally.submit_and_wait(&mut client, "engine.sweepd_dedup", cell, tracer)?;
    }
    barrier.wait();

    for hit in 0..plan.hits_per_client {
        // Start the clients at different cells so they do not march in step.
        let index = (hit + id * cells.len() / plan.clients) % cells.len();
        let (_, _, total_s) = tally.submit_and_wait(
            &mut client,
            "engine.sweepd_hit",
            (index, &cells[index]),
            tracer,
        )?;
        tally.hit_s.push(total_s);
    }
    Ok(tally)
}

/// What one daemon and its clients measured, all clients together.
pub struct Service {
    pub attempted: u64,
    pub failed: u64,
    /// Bind + cache open + thread start, up to the first answer.
    setup_s: f64,
    cold_cells: usize,
    cold_phase_s: f64,
    ack_s: Vec<f64>,
    cold_s: Vec<f64>,
    status_s: Vec<f64>,
    hit_s: Vec<f64>,
    dedup_joins: u64,
    jobs_run: u64,
    cache_hits: u64,
}

impl Service {
    /// The request latencies only a daemon has: ack, cached re-submit.
    pub fn set_latencies(&self, metrics: &mut Metrics) {
        metrics.set("ack_p50_ms", median(&self.ack_s) * 1e3);
        metrics.set("hit_p50_ms", median(&self.hit_s) * 1e3);
        metrics.set("hit_p95_ms", percentile(&self.hit_s, 95.0) * 1e3);
    }

    fn report_samples(&self) {
        report_samples("ack", "s", &self.ack_s);
        report_samples("cold cell", "s", &self.cold_s);
        report_samples("hit", "s", &self.hit_s);
        eprintln!(
            "  hit tail: p95 {:.4} s; highest percentile with ten samples beyond it: {:?}",
            percentile(&self.hit_s, 95.0),
            top_percentile(self.hit_s.len())
        );
    }
}

/// Starts one daemon on `cache`, runs the plan against it, checks every
/// answer and shuts it down.
fn drive(plan: &Plan, cache: &Path, tracer: &mut Tracer) -> Result<Service, String> {
    let (daemon, setup_s) = tracer.time("engine.sweepd_start", 1, |_| {
        start_daemon(cache, plan.clients)
    });
    let daemon = daemon?;

    // On a one-thread box there is one client: the dedup rounds then find
    // nobody to join and simply run their cell.
    let barrier = Barrier::new(plan.clients);
    let (sessions, _) = tracer.time("engine.sweepd_session", 1, |t| {
        let forks: Vec<Tracer> = (0..plan.clients).map(|id| t.fork(id as u32 + 1)).collect();
        let joined: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = forks
                .into_iter()
                .enumerate()
                .map(|(id, mut fork)| {
                    let (barrier, addr) = (&barrier, daemon.addr);
                    scope.spawn(move || (session(id, addr, plan, barrier, &mut fork), fork))
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut tallies = Vec::new();
        for result in joined {
            let (tally, fork) = result.map_err(|_| "client thread panicked".to_string())?;
            t.absorb(fork);
            tallies.push(tally?);
        }
        Ok::<_, String>(tallies)
    });
    let tallies = sessions?;

    // Every answer for one cell must carry the same result bytes: dedup
    // joins, cache hits and the original computation alike.
    let mut control = Tally::default();
    let mut first_answer: HashMap<usize, &str> = HashMap::new();
    let answers = tallies.iter().flat_map(|t| &t.results);
    let differing = answers
        .filter(|(index, bytes)| *first_answer.entry(*index).or_insert(bytes) != bytes.as_str())
        .count();
    control.check(differing == 0, || {
        format!("{differing} answers differ from the first answer for their cell")
    });

    let mut client = Client::connect(daemon.addr)?;
    client.send(&Obj::new().field("op", "stats").build())?;
    let stats = Json::parse(&client.recv()?).map_err(|e| format!("stats reply: {e}"))?;
    let counter = |name: &str| stats.get(name).and_then(Json::as_u64).unwrap_or(u64::MAX);
    let jobs_run = counter("jobs_run");
    let expected_jobs = (plan.cold_cells + plan.dedup_rounds) as u64;
    control.check(jobs_run == expected_jobs, || {
        format!("jobs_run {jobs_run}, expected {expected_jobs}")
    });
    client.shutdown_daemon(daemon)?;

    let all =
        |f: fn(&Tally) -> &Vec<f64>| -> Vec<f64> { tallies.iter().flat_map(f).copied().collect() };
    Ok(Service {
        attempted: control.attempted + tallies.iter().map(|t| t.attempted).sum::<u64>(),
        failed: control.failed + tallies.iter().map(|t| t.failed).sum::<u64>(),
        setup_s,
        cold_cells: plan.cold_cells,
        cold_phase_s: tallies[0].cold_phase_s,
        ack_s: all(|t| &t.ack_s),
        cold_s: all(|t| &t.cold_s),
        status_s: all(|t| &t.status_s),
        hit_s: all(|t| &t.hit_s),
        dedup_joins: counter("dedup_joins"),
        jobs_run,
        cache_hits: counter("cache_hits"),
    })
}

/// A scratch directory under `benchmark/out/` for this process's daemons.
fn scratch_dir() -> Result<std::path::PathBuf, String> {
    let dir = crate::out_dir().join(format!("sweepd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The service path in short, for the other workloads' untraced runs: the
/// one end-to-end list wants the request latencies from them too. Eight
/// cold cells of 100+400 cycles (a connection's first ack is quick, the
/// later ones wait for the delayed-ACK timer, so the median needs a few),
/// 40 re-submits per client; the tail figure of so few is a nearest-rank
/// p95 with four samples beyond it.
pub fn probe(seed: u64) -> Result<Service, String> {
    let mut plan = Plan::new(seed, 8, 0, 40);
    (plan.warmup, plan.measure) = (100, 400);
    let dir = scratch_dir()?;
    let service = drive(&plan, &dir.join("cache"), &mut Tracer::new(false));
    let _ = std::fs::remove_dir_all(&dir);
    service
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let plan = Plan::workload(seed, seconds);
    let dir = scratch_dir()?;
    let service = drive(&plan, &dir.join("cache"), tracer)?;
    let mut outcome = Outcome::new(service.attempted, service.failed, tracer.recording());
    if tracer.recording() {
        layers::reference_cell(seed, tracer, &mut outcome);
        let metrics = &mut outcome.metrics;
        metrics.set(
            "engine.sweepd.status_p50_ms",
            median(&service.status_s) * 1e3,
        );
        metrics.set("engine.sweepd.dedup_joins", service.dedup_joins as f64);
        metrics.set("engine.sweepd.jobs_run", service.jobs_run as f64);
        metrics.set("engine.sweepd.cache_hits", service.cache_hits as f64);
        metrics.set("bench.trace_spans", tracer.span_count() as f64);
    } else {
        service.report_samples();
        let metrics = &mut outcome.metrics;
        metrics.set("setup_s", service.setup_s);
        metrics.set("peak_rss_mb", crate::own_peak_rss_mb()?);
        metrics.set(
            "cells_per_s",
            service.cold_cells as f64 / service.cold_phase_s,
        );
        metrics.set("cold_cell_p50_ms", median(&service.cold_s) * 1e3);
        service.set_latencies(metrics);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_bytes_are_the_spliced_payload() {
        let done = r#"{"event":"done","key":"00ab","result":{"offchip":3,"ipc_sum":1.5}}"#;
        assert_eq!(result_bytes(done), Some(r#"{"offchip":3,"ipc_sum":1.5}"#));
        let hit =
            r#"{"ok":true,"op":"submit","key":"00ab","status":"cached","result":{"offchip":3}}"#;
        assert_eq!(result_bytes(hit), Some(r#"{"offchip":3}"#));
        assert_eq!(result_bytes(r#"{"ok":false,"error":"x"}"#), None);
    }

    #[test]
    fn terminal_lines_end_an_exchange_and_progress_lines_do_not() {
        assert!(is_terminal(r#"{"event":"done","key":"1","result":{}}"#));
        assert!(is_terminal(r#"{"ok":true,"status":"cached","result":{}}"#));
        assert!(is_terminal(
            r#"{"ok":false,"error":"cell.size must be 4, 8, 16 or 32"}"#
        ));
        assert!(!is_terminal(
            r#"{"ok":true,"op":"submit","status":"queued","dedup":false}"#
        ));
        assert!(!is_terminal(
            r#"{"event":"state","key":"1","state":"running"}"#
        ));
    }

    #[test]
    fn each_client_gets_half_of_each_kernel() {
        for clients in 1..=MAX_CLIENTS {
            let mut plan = Plan::workload(1, 10.0);
            plan.clients = clients;
            for id in 0..clients {
                let mine: Vec<usize> = (id..plan.cold_cells).step_by(clients).collect();
                let on_event = mine.iter().filter(|&&c| plan.on_event_kernel(c)).count();
                assert_eq!(mine.len(), plan.cold_cells / clients);
                assert_eq!(on_event, mine.len() / 2);
            }
        }
    }
}
