//! Per-layer measurements of a traced run. The layers are the crates;
//! each is measured from outside by timing calls into its public functions,
//! replayed standalone at the operating point the workload's own run
//! observed (packet rate, controller occupancy, off-chip latency, …). Every
//! timing is a span; the figures are read back from the trace.
//!
//! These are cost *estimates*: a standalone `Network` under synthetic
//! corner-hotspot traffic is not the network inside `System`. They say
//! where a cycle's host time plausibly goes (`*.share_pct`) and give each
//! layer a number an optimisation of that layer must move.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use noclat_analytic::AnalyticModel;
use noclat_cache::{L1Cache, L2Bank, MshrFile};
use noclat_cpu::{Instr, InstrStream, MemAccess, MemToken, MemoryPort, OooCore};
use noclat_engine::{
    sweepd_cache_fingerprint, try_run_grid, CellCodec, CellSpec, Job, Json, ResultCache, SweepArgs,
};
use noclat_mem::MemoryController;
use noclat_noc::{
    flits_for_payload, Coord, Dir, Flit, FlitKind, Network, NodeId, PacketId, Priority, Router,
    Topology, TrafficPattern, VNet,
};
use noclat_sim::cancel::CancelToken;
use noclat_sim::journal::{self, Journal};
use noclat_sim::pool::run_jobs;
use noclat_sim::rng::SimRng;
use noclat_sim::stats::Histogram;
use noclat_sim::Cycle;
use noclat_workloads::workload;

use crate::simwl::{SimRun, SimSpec, Source};
use crate::spec::Metrics;
use crate::stats::median;
use crate::trace::Tracer;

/// Host seconds each standalone replay is given.
const SLICE_S: f64 = 0.06;

/// Runs `chunk` as spans called `name` (each `ops` operations) until
/// [`SLICE_S`] has passed.
fn replay(tracer: &mut Tracer, name: &'static str, ops: u64, mut chunk: impl FnMut()) {
    let started = Instant::now();
    loop {
        tracer.time(name, ops, |_| chunk());
        if started.elapsed().as_secs_f64() >= SLICE_S {
            break;
        }
    }
}

/// A scratch file under `benchmark/out/`, unique to this process.
fn scratch(stem: &str) -> std::path::PathBuf {
    let path = crate::out_dir().join(format!("scratch-{stem}-{}", std::process::id()));
    remove_scratch(&path);
    path
}

fn remove_scratch(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(noclat_engine::cache::lock_path(path));
}

/// Sets the figures that come straight from the workload's own run: the
/// `*.sim.*` counts at the pin, build and warm-up times, host time per
/// simulated event.
pub fn sim_metrics(spec: &SimSpec, run: &SimRun, tracer: &Tracer, metrics: &mut Metrics) {
    for (name, value) in run.pin.metrics() {
        metrics.set(name, value);
    }
    let wall_ns = run.cycle.total_wall_s() * 1e9;
    let per = |events: u64| {
        if events == 0 {
            0.0
        } else {
            wall_ns / events as f64
        }
    };
    metrics.set(
        "core.build_ms",
        median(&tracer.durations("core.build")) * 1e3,
    );
    metrics.set("core.warmup_s", median(&tracer.durations("core.warm_up")));
    // As `kernel_bench` computes its `event_speedup`: whole-run rates. (The
    // quiet rates' ratio is higher where the event wheel skips, because
    // the event kernel loses more to the host's neighbours.)
    let whole_run = |k: &crate::simwl::Segments| k.total_cycles() as f64 / k.total_wall_s();
    metrics.set(
        "core.event_over_cycle",
        whole_run(&run.event) / whole_run(&run.cycle),
    );
    metrics.set("core.ns_per_flit_hop", per(run.flit_hops));
    metrics.set("core.ns_per_committed_instr", per(run.committed));
    metrics.set(
        "core.instr_per_s",
        run.committed as f64 / run.cycle.total_wall_s(),
    );
    metrics.set("bench.traced_cycles_per_s", run.cycle.quiet_rate());
    if let Source::Apps(apps) = &spec.source {
        analytic_cross_check(apps, spec, run, metrics);
    }
}

/// What the analytic model says about the cell the workload just ran —
/// data its coefficients were not tuned on — beside what the simulator
/// measured: mean off-chip latency, and which router carries most load.
fn analytic_cross_check(
    apps: &[noclat_workloads::SpecApp],
    spec: &SimSpec,
    run: &SimRun,
    metrics: &mut Metrics,
) {
    let Ok(model) = AnalyticModel::new(&spec.cfg, apps) else {
        return;
    };
    let report = model
        .with_lengths(spec.warmup, run.pin.cycle - spec.warmup)
        .evaluate();
    metrics.set("analytic.sim.model_lat_cyc", report.mean_latency);
    if run.pin.offchip_lat_mean > 0.0 {
        let err = (report.mean_latency - run.pin.offchip_lat_mean).abs() / run.pin.offchip_lat_mean;
        metrics.set("analytic.err_pct", err * 100.0);
    }
    // `forwarding_heat` counts flits sent onto links, so ejection channels
    // are left out of the model's side too.
    let hottest = report
        .channel_utilization
        .iter()
        .filter(|c| c.port != Dir::Local)
        .max_by(|a, b| a.utilization.total_cmp(&b.utilization))
        .map(|c| c.router.index());
    let agrees = hottest == Some(run.pin.hottest_node);
    eprintln!(
        "  analytic: model {:.0} cyc vs simulated {:.0} cyc mean off-chip latency; hottest router: \
         model {hottest:?}, simulated {}",
        report.mean_latency, run.pin.offchip_lat_mean, run.pin.hottest_node
    );
    metrics.set(
        "analytic.hottest_channel_agrees",
        f64::from(u8::from(agrees)),
    );
}

/// For the two sweep workloads: runs the cell they sweep (4x8 baseline,
/// workload 2, both schemes) in-process on both kernels and reports the
/// simulator's layers at that operating point.
pub fn reference_cell(seed: u64, tracer: &mut Tracer, outcome: &mut crate::Outcome) {
    let cell = SimSpec::reference_cell(seed);
    let run = crate::simwl::run(&cell, cell.rounds, None, tracer);
    outcome.attempted += run.attempted;
    outcome.failed += run.failed;
    sim_metrics(&cell, &run, tracer, &mut outcome.metrics);
    measure_layers(&cell, &run, tracer, &mut outcome.metrics);
}

/// Replays every layer standalone and sets its timing figures.
pub fn measure_layers(spec: &SimSpec, run: &SimRun, tracer: &mut Tracer, metrics: &mut Metrics) {
    noc(spec, run, tracer);
    mem(spec, run, tracer);
    cpu(spec, run, tracer);
    cache(spec, tracer);
    streams(spec, tracer);
    sim_crate(tracer);
    engine(tracer);
    analytic(tracer);

    let ns = |tracer: &Tracer, name: &str| tracer.ns_per_op(name).unwrap_or(0.0);
    for (metric, span, scale) in [
        ("noc.tick_ns", "noc.tick", 1.0),
        ("noc.tick_ns_idle", "noc.tick_idle", 1.0),
        ("noc.next_event_ns", "noc.next_event", 1.0),
        ("noc.router_tick_ns", "noc.router_tick", 1.0),
        ("mem.tick_ns", "mem.tick", 1.0),
        ("mem.tick_ns_idle", "mem.tick_idle", 1.0),
        ("cpu.tick_ns", "cpu.tick", 1.0),
        ("cpu.next_wake_ns", "cpu.next_wake", 1.0),
        ("cache.l1_access_ns", "cache.l1_access", 1.0),
        ("cache.l2_access_ns", "cache.l2_access", 1.0),
        ("cache.mshr_alloc_ns", "cache.mshr_alloc", 1.0),
        ("workloads.next_instr_ns", "workloads.next_instr", 1.0),
        ("workloads.next_instr_ns.w2", "workloads.next_instr_w2", 1.0),
        ("workloads.next_instr_ns.w8", "workloads.next_instr_w8", 1.0),
        (
            "workloads.next_instr_ns.w13",
            "workloads.next_instr_w13",
            1.0,
        ),
        ("sim.pool_dispatch_us.w1", "sim.pool_dispatch_w1", 1e-3),
        ("sim.pool_dispatch_us.w2", "sim.pool_dispatch_w2", 1e-3),
        ("sim.journal_append_us", "sim.journal_append", 1e-3),
        ("sim.journal_scan_us_per_rec", "sim.journal_scan", 1e-3),
        ("sim.cancel_poll_ns", "sim.cancel_poll", 1.0),
        ("engine.grid_overhead_ms_per_cell", "engine.grid_noop", 1e-6),
        ("engine.codec_roundtrip_us", "engine.codec_roundtrip", 1e-3),
        ("engine.json_parse_us", "engine.json_parse", 1e-3),
        ("engine.cache_get_ns", "engine.cache_get", 1.0),
        ("engine.cache_insert_us", "engine.cache_insert", 1e-3),
        ("engine.estimate_ms", "engine.estimate", 1e-6),
        ("analytic.evaluate_ms.4x8", "analytic.evaluate_4x8", 1e-6),
        (
            "analytic.evaluate_ms.16x16",
            "analytic.evaluate_16x16",
            1e-6,
        ),
    ] {
        metrics.set(metric, ns(tracer, span) * scale);
    }

    // With one thread and no contention a faster layer saves at most its
    // share of a simulated cycle's host time; what the four standalone
    // shares leave is `System` glue (work queue, policy updates, audit).
    let per_cycle = run.ns_per_cycle();
    let cores = spec.cfg.num_cores() as f64;
    let ipc = run.committed as f64 / run.cycle.total_cycles() as f64;
    let shares = [
        ("noc.share_pct", ns(tracer, "noc.tick")),
        (
            "mem.share_pct",
            ns(tracer, "mem.tick") * spec.cfg.mem.num_controllers as f64,
        ),
        ("cpu.share_pct", ns(tracer, "cpu.tick") * cores),
        (
            "workloads.share_pct",
            ns(tracer, "workloads.next_instr") * ipc,
        ),
    ];
    let mut glue = 100.0;
    for (metric, ns_per_cycle) in shares {
        let pct = ns_per_cycle / per_cycle * 100.0;
        metrics.set(metric, pct);
        glue -= pct;
    }
    metrics.set("core.glue_share_pct", glue);
    metrics.set("bench.trace_spans", tracer.span_count() as f64);
}

// ------------------------------------------------------------------ noc --

fn noc(spec: &SimSpec, run: &SimRun, tracer: &mut Tracer) {
    let topo = Topology::from_config(&spec.cfg.topology);
    let nodes: Vec<NodeId> = topo.nodes().collect();
    // Network counters run from cycle 0, so the rate is over the whole run.
    let rate = run.pin.packets as f64 / (nodes.len() as f64 * run.pin.cycle as f64);
    let data_flits = flits_for_payload(spec.cfg.l2.line_bytes, spec.cfg.noc.flit_bits);
    // One leg of every DRAM access ends at a corner controller; the other
    // packets spread over the S-NUCA banks.
    let to_corners = (run.pin.reads + run.pin.writes) as f64 / run.pin.packets.max(1) as f64;
    let pattern = TrafficPattern::CornerHotspot {
        percent: (to_corners * 100.0).round().min(100.0) as u8,
    };
    let mut rng = SimRng::new(spec.cfg.seed);
    let mut net: Network<()> = Network::new(topo, spec.cfg.noc);
    let mut now: Cycle = 0;
    let mut sent = 0u64;
    replay(tracer, "noc.tick", 200, || {
        for _ in 0..200 {
            for &node in &nodes {
                if rng.chance(rate) {
                    let dest = pattern.destination(topo, node, &mut rng);
                    // Requests are one flit, data responses a full line.
                    let (vnet, flits) = if sent.is_multiple_of(2) {
                        (VNet::Request, 1)
                    } else {
                        (VNet::Response, data_flits)
                    };
                    sent += 1;
                    net.inject(node, dest, vnet, Priority::Normal, flits, 0, (), now)
                        .expect("synthetic injection is admissible");
                }
            }
            net.tick(now);
            for &node in &nodes {
                black_box(net.take_delivered(node));
            }
            now += 1;
        }
    });
    eprintln!(
        "  noc replay: {:.1} flit-hops per cycle standalone, {:.1} in the workload",
        net.router_counters().flits_traversed as f64 / now as f64,
        run.pin.flit_hops as f64 / run.pin.cycle as f64
    );
    replay(tracer, "noc.next_event", 1_000, || {
        for _ in 0..1_000 {
            black_box(net.next_event(black_box(now)));
        }
    });
    let mut idle: Network<()> = Network::new(topo, spec.cfg.noc);
    let mut now: Cycle = 0;
    replay(tracer, "noc.tick_idle", 200, || {
        for _ in 0..200 {
            idle.tick(now);
            now += 1;
        }
    });
    router(spec, topo, tracer);
}

/// One router under sustained four-way contention, every flit ejecting
/// locally (folded in from `benches/router_throughput.rs`).
fn router(spec: &SimSpec, topo: Topology, tracer: &mut Tracer) {
    let here = topo.node_at(Coord { x: 1, y: 1 });
    let mut r = Router::new(here, topo, spec.cfg.noc);
    let (mut t, mut pkt) = (0u64, 0u64);
    replay(tracer, "noc.router_tick", 500, || {
        for _ in 0..500 {
            for (i, port) in [Dir::North, Dir::South, Dir::East, Dir::West]
                .into_iter()
                .enumerate()
            {
                // Feed every other cycle, and only into free space, so the
                // credit protocol is respected.
                if t % 2 == 0 && r.local_vc_space(0) > 0 {
                    pkt += 1;
                    let flit = Flit {
                        packet: PacketId(pkt),
                        kind: FlitKind::HeadTail,
                        dest: here,
                        vnet: VNet::Request,
                        priority: if i == 0 {
                            Priority::High
                        } else {
                            Priority::Normal
                        },
                        age: (t % 500) as u32,
                        batch: 0,
                        vc: (t / 2 % 2) as u8,
                        arrived_at: t,
                        ready_at: t,
                    };
                    r.accept_flit(port, flit, t);
                }
            }
            black_box(r.tick(t).traversals.len());
            t += 1;
        }
    });
}

// ------------------------------------------------------------------ mem --

fn mem(spec: &SimSpec, run: &SimRun, tracer: &mut Tracer) {
    let cfg = spec.cfg.mem;
    let target = run.pin.mc_occupancy.round().max(1.0) as usize;
    let served = (run.pin.reads + run.pin.writes).max(1);
    let write_share = run.pin.writes as f64 / served as f64;
    let mut rng = SimRng::new(spec.cfg.seed);
    let mut mc = MemoryController::new(cfg);
    let (mut t, mut token) = (0u64, 0u64);
    replay(tracer, "mem.tick", 2_000, || {
        for _ in 0..2_000 {
            if mc.occupancy() < target {
                token += 1;
                let bank = rng.index(cfg.banks_per_controller);
                mc.enqueue(token, bank, rng.below(256), rng.chance(write_share), t)
                    .expect("bank index in range");
            }
            black_box(mc.tick(t).len());
            t += 1;
        }
    });
    let mut idle = MemoryController::new(cfg);
    let mut t = 0u64;
    replay(tracer, "mem.tick_idle", 2_000, || {
        for _ in 0..2_000 {
            black_box(idle.tick(t).len());
            t += 1;
        }
    });
}

// ------------------------------------------------------------------ cpu --

/// A memory hierarchy that answers every `every`-th access after `latency`
/// cycles and all others as L1 hits.
struct StubPort {
    every: u64,
    latency: Cycle,
    l1_latency: Cycle,
    accesses: u64,
    pending: VecDeque<(Cycle, MemToken)>,
}

impl MemoryPort for StubPort {
    fn access(&mut self, _addr: u64, _is_write: bool, now: Cycle) -> MemAccess {
        self.accesses += 1;
        if self.every > 0 && self.accesses.is_multiple_of(self.every) {
            let token = MemToken(self.accesses);
            self.pending.push_back((now + self.latency, token));
            MemAccess::Pending { token }
        } else {
            MemAccess::Done {
                latency: self.l1_latency,
            }
        }
    }
}

fn cpu(spec: &SimSpec, run: &SimRun, tracer: &mut Tracer) {
    let pin = &run.pin;
    let mut port = StubPort {
        // The workload's own ratio of memory operations to L1 misses.
        every: pin
            .mem_ops
            .checked_div(pin.offchip_ops)
            .map_or(0, |every| every.max(1)),
        latency: if pin.offchip_lat_mean > 0.0 {
            pin.offchip_lat_mean as Cycle
        } else {
            300
        },
        l1_latency: spec.cfg.l1.latency,
        accesses: 0,
        pending: VecDeque::new(),
    };
    let mut stream = spec.stream(0);
    let mut core = OooCore::new(spec.cfg.cpu);
    let mut now: Cycle = 0;
    replay(tracer, "cpu.tick", 5_000, || {
        for _ in 0..5_000 {
            while port.pending.front().is_some_and(|&(ready, _)| ready <= now) {
                let (_, token) = port.pending.pop_front().expect("checked front");
                core.complete(token, now);
            }
            core.tick(now, &mut stream, &mut port);
            now += 1;
        }
    });
    replay(tracer, "cpu.next_wake", 10_000, || {
        for _ in 0..10_000 {
            black_box(core.next_wake(black_box(now)));
        }
    });
}

// ---------------------------------------------------------------- cache --

fn cache(spec: &SimSpec, tracer: &mut Tracer) {
    // Addresses the workload's first core actually issues; the idle-heavy
    // stream issues almost none, so it falls back to a line-strided sweep.
    let mut stream = spec.stream(0);
    let mut addrs: Vec<(u64, bool)> = (0..200_000)
        .filter_map(|_| match stream.next_instr() {
            Instr::Load { addr } => Some((addr, false)),
            Instr::Store { addr } => Some((addr, true)),
            Instr::Compute { .. } => None,
        })
        .collect();
    if addrs.len() < 1_000 {
        addrs = (0..50_000u64).map(|i| (i * 64, i % 4 == 0)).collect();
    }
    let n = addrs.len() as u64;
    let (l1c, l2c) = (spec.cfg.l1, spec.cfg.l2);
    let mut l1 = L1Cache::new(l1c.size_bytes, l1c.line_bytes);
    replay(tracer, "cache.l1_access", n, || {
        for &(addr, write) in &addrs {
            black_box(l1.access(addr, write));
        }
    });
    let mut l2 = L2Bank::new(l2c.bank_size_bytes, l2c.line_bytes, l2c.associativity);
    replay(tracer, "cache.l2_access", n, || {
        for &(addr, write) in &addrs {
            black_box(l2.access(addr, write));
        }
    });
    let mut mshrs: MshrFile<u32> = MshrFile::new(l2c.mshrs_per_bank);
    replay(tracer, "cache.mshr_alloc", n, || {
        for (i, &(addr, _)) in addrs.iter().enumerate() {
            let line = addr / l2c.line_bytes as u64;
            black_box(mshrs.alloc(line, i as u32));
            // Keep the file half full, as a loaded bank's is.
            if mshrs.len() > l2c.mshrs_per_bank / 2 {
                black_box(mshrs.complete(line));
            }
        }
    });
}

// ------------------------------------------------------------ workloads --

fn next_instr(tracer: &mut Tracer, name: &'static str, mut streams: Vec<Box<dyn InstrStream>>) {
    let per_stream = 500u64;
    replay(tracer, name, per_stream * streams.len() as u64, || {
        for s in &mut streams {
            for _ in 0..per_stream {
                black_box(s.next_instr());
            }
        }
    });
}

fn streams(spec: &SimSpec, tracer: &mut Tracer) {
    let own = (0..spec.cfg.num_cores().min(32))
        .map(|s| spec.stream(s))
        .collect();
    next_instr(tracer, "workloads.next_instr", own);
    // One mix per class: mixed, memory-intensive, memory-non-intensive.
    for (index, name) in [
        (2, "workloads.next_instr_w2"),
        (8, "workloads.next_instr_w8"),
        (13, "workloads.next_instr_w13"),
    ] {
        let class = SimSpec {
            source: Source::Apps(workload(index).apps()),
            ..spec.clone()
        };
        next_instr(tracer, name, (0..32).map(|s| class.stream(s)).collect());
    }
}

// ------------------------------------------------------------------ sim --

fn sim_crate(tracer: &mut Tracer) {
    for (workers, name) in [(1, "sim.pool_dispatch_w1"), (2, "sim.pool_dispatch_w2")] {
        let jobs: Vec<Job<u64>> = (0..1_000u64)
            .map(|i| Job::new(format!("noop/{i}"), move || i))
            .collect();
        tracer.time(name, 1_000, |_| black_box(run_jobs(workers, jobs)));
    }

    // A real fig11 cell's payload: one weighted speedup, bit-exact.
    let payload = 1.0371_f64.encode_cell().to_compact_string();
    let path = scratch("journal");
    let (mut journal, _) = Journal::open(&path, 0x5eed).expect("fresh scratch journal");
    let mut key = 0u64;
    replay(tracer, "sim.journal_append", 500, || {
        for _ in 0..500 {
            key += 1;
            journal
                .append(key, &payload)
                .expect("scratch journal append");
        }
    });
    drop(journal);
    let text = std::fs::read_to_string(&path).expect("scratch journal readable");
    tracer.time("sim.journal_scan", key, |_| {
        black_box(journal::scan(&text).expect("journal just written scans"))
    });
    remove_scratch(&path);

    let token = CancelToken::new();
    replay(tracer, "sim.cancel_poll", 100_000, || {
        for _ in 0..100_000 {
            black_box(black_box(&token).is_cancelled());
        }
    });
}

// --------------------------------------------------------------- engine --

/// A submit line as the CI client sends it.
pub const SUBMIT_LINE: &str = r#"{"op":"submit","cell":{"size":8,"fabric":"mesh","mc":"corner","scheme":"both","workload":2,"seed":207547666,"warmup":500,"measure":5000,"kernel":"cycle"},"wait":true}"#;

fn engine(tracer: &mut Tracer) {
    // Pool + journal + codec with zero simulation.
    let path = scratch("grid");
    let argv = ["--jobs", "2", "--resume"].map(String::from).into_iter();
    let argv: Vec<String> = argv.chain([path.display().to_string()]).collect();
    let (args, _) = SweepArgs::parse_argv(&argv).expect("fixed sweep arguments parse");
    let jobs: Vec<Job<f64>> = (0..500u32)
        .map(|i| Job::new(format!("noop/{i}"), move || f64::from(i)))
        .collect();
    tracer.time("engine.grid_noop", 500, |_| {
        black_box(try_run_grid(&args, jobs).expect("scratch journal opens"))
    });
    remove_scratch(&path);

    let mut hist = Histogram::new(25, 4000);
    (0..1_000u64).for_each(|i| hist.record(i * 7 % 4_000));
    replay(tracer, "engine.codec_roundtrip", 20, || {
        for _ in 0..20 {
            let text = hist.encode_cell().to_compact_string();
            let back = Json::parse(&text)
                .ok()
                .and_then(|j| Histogram::decode_cell(&j));
            assert_eq!(
                black_box(back).as_ref(),
                Some(&hist),
                "codec round trip is exact"
            );
        }
    });

    replay(tracer, "engine.json_parse", 100, || {
        for _ in 0..100 {
            black_box(Json::parse(black_box(SUBMIT_LINE)).expect("submit line parses"));
        }
    });

    let path = scratch("cache");
    let mut cache =
        ResultCache::open(&path, sweepd_cache_fingerprint()).expect("fresh scratch cache");
    let payload = r#"{"offchip":21840,"ipc_sum":17.25,"mean_latency":412.5,"p95_latency":975}"#;
    let mut key = 0u64;
    replay(tracer, "engine.cache_insert", 200, || {
        for _ in 0..200 {
            key += 1;
            cache.insert(key, payload).expect("scratch cache insert");
        }
    });
    replay(tracer, "engine.cache_get", 10_000, || {
        for i in 0..10_000u64 {
            black_box(cache.get(black_box(i % key + 1)));
        }
    });
    drop(cache);
    remove_scratch(&path);

    let request = Json::parse(SUBMIT_LINE).expect("submit line parses");
    let cell = CellSpec::from_json(request.get("cell").expect("has a cell"))
        .expect("submit line names a valid cell");
    replay(tracer, "engine.estimate", 1, || {
        black_box(cell.estimate());
    });
}

// ------------------------------------------------------------- analytic --

fn analytic(tracer: &mut Tracer) {
    for (name, size) in [
        ("analytic.evaluate_4x8", "paper_load"),
        ("analytic.evaluate_16x16", "big_fabric"),
    ] {
        let spec = SimSpec::named(size, crate::default_seed()).expect("named workload");
        let Source::Apps(apps) = &spec.source else {
            unreachable!("both are application workloads");
        };
        replay(tracer, name, 1, || {
            let model = AnalyticModel::new(&spec.cfg, apps).expect("benchmark cells are modelable");
            black_box(model.evaluate());
        });
    }
}
