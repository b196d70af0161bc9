//! The four in-process simulation workloads: one `Simulation` per kernel,
//! warm-up, then a fixed plan of turns in which each kernel advances as a
//! run of short timed segments. At the end of every round (the issue's
//! segment length) the two kernels must agree on a digest of the model's
//! public statistics; after [`PIN_ROUNDS`] rounds the digest and the
//! `*.sim.*` counts are captured, so they do not depend on `--seconds`, and
//! — for the default seed — must equal `expected.json`.
//!
//! Segments are a few milliseconds of host time each, a thousand or more
//! per kernel, and a segment that short fits into the quiet moments a
//! shared host leaves. A kernel's rate is its simulated cycles over the host
//! time its simulated work takes at the [`crate::stats::quiet`] time per
//! unit of work (see there for why not the median). The unit is the
//! flit-hop where the workload loads the fabric — a segment's host time is
//! proportional to its switch traversals there, to within a few percent,
//! and a lull of the traffic must not pass for a fast machine — and the
//! cycle where the fabric idles.

use std::collections::VecDeque;

use noclat::{CountingProbe, KernelKind, Simulation, System, SystemConfig, TopologyOverride};
use noclat_cpu::{Instr, InstrStream};
use noclat_sim::journal::fnv1a64;
use noclat_sim::rng::SimRng;
use noclat_sim::stats::Histogram;
use noclat_workloads::{workload, SpecApp, SyntheticStream};

use crate::stats::quiet;
use crate::trace::Tracer;

/// Where a workload's instructions come from.
#[derive(Debug, Clone)]
pub enum Source {
    /// One Table-2 application per core.
    Apps(Vec<SpecApp>),
    /// The idle-heavy synthetic pattern of `kernel_bench`.
    Sparse,
}

/// One simulation workload: hardware point, instruction source, plan.
#[derive(Debug, Clone)]
pub struct SimSpec {
    pub name: &'static str,
    pub cfg: SystemConfig,
    pub source: Source,
    /// Warm-up cycles before measurement state is cleared.
    pub warmup: u64,
    /// Simulated cycles per timed segment of the cycle and of the event
    /// kernel: 2 to 5 ms of host time, and a stretch over which the
    /// workload does the same work every time (any, for the cycle kernel
    /// and for a loaded system; whole traffic periods where the event wheel
    /// skips). Each divides its kernel's `turn` and `round`.
    pub segment: [u64; 2],
    /// Simulated cycles the cycle and the event kernel advance per turn (ten
    /// segments or so: the kernels' samples are dealt evenly over the run,
    /// and neither pays for the other's cache footprint on every segment).
    /// The event kernel's is the longer where the event wheel skips and it
    /// needs a tenth of the host time per cycle: it simulates further in the
    /// same time, for as many samples. The cycle kernel's divides `round`.
    pub turn: [u64; 2],
    /// Simulated cycles per round, at the end of which the kernels are
    /// compared: the issue's segment length.
    pub round: u64,
    /// Rounds of the cycle kernel at `--seconds 10`.
    pub rounds: u64,
    /// Set-ups timed per untraced run, the main leg's among them: five, or
    /// what fits into half a second where a set-up is over in 16 ms.
    pub setups: usize,
}

/// Rounds after which digest and counts are pinned; also all that
/// `--check-only` runs.
pub const PIN_ROUNDS: u64 = 2;

impl SimSpec {
    /// Looks a simulation workload up by name.
    #[must_use]
    pub fn named(name: &str, seed: u64) -> Option<SimSpec> {
        let paper = || {
            let mut cfg = SystemConfig::baseline_32();
            cfg.seed = seed;
            cfg
        };
        Some(match name {
            "paper_load" => SimSpec {
                name: "paper_load",
                cfg: paper().with_both_schemes(),
                source: Source::Apps(workload(2).apps()),
                warmup: 5_000,
                segment: [50, 50],
                turn: [500, 500],
                round: 5_000,
                rounds: 15,
                setups: 5,
            },
            "mem_bound" => SimSpec {
                name: "mem_bound",
                cfg: paper(),
                source: Source::Apps(workload(8).apps()),
                warmup: 5_000,
                segment: [50, 50],
                turn: [500, 500],
                round: 5_000,
                rounds: 15,
                setups: 5,
            },
            "idle_heavy" => {
                // The pinned hardware point of `kernel_bench`, copied so the
                // benchmark does not move when that binary does: the 32-core
                // baseline stretched to a full 8x8 mesh, corner controllers.
                let mut cfg = paper();
                cfg.topology.height = 8;
                SimSpec {
                    name: "idle_heavy",
                    cfg,
                    source: Source::Sparse,
                    warmup: 5_000,
                    // `SparseTraffic` repeats every 8 000 cycles, so that is
                    // the shortest stretch of equal work for the event
                    // wheel; the cycle kernel scans every router every
                    // cycle whatever the traffic.
                    segment: [1_000, 8_000],
                    turn: [20_000, 160_000],
                    round: 200_000,
                    rounds: 8,
                    setups: 25,
                }
            }
            "big_fabric" => {
                let mut cfg = SystemConfig::baseline_256().with_both_schemes();
                cfg.seed = seed;
                TopologyOverride::parse("torus")
                    .expect("torus is a known fabric")
                    .apply(&mut cfg);
                let apps = workload(2).apps_for(cfg.num_cores());
                SimSpec {
                    name: "big_fabric",
                    cfg,
                    source: Source::Apps(apps),
                    warmup: 1_000,
                    segment: [10, 10],
                    turn: [100, 100],
                    round: 1_000,
                    rounds: 10,
                    setups: 5,
                }
            }
            _ => return None,
        })
    }

    /// The cell `fig_sweep` and `sweepd` simulate most (4x8 baseline,
    /// workload 2, both schemes) in short rounds: the sweep workloads run
    /// it in-process so their traced runs can report the simulator's layers
    /// on the cell they actually sweep.
    #[must_use]
    pub fn reference_cell(seed: u64) -> SimSpec {
        let mut spec = SimSpec::named("paper_load", seed).expect("paper_load exists");
        spec.name = "reference_cell";
        spec.warmup = 500;
        spec.round = 1_000;
        spec.rounds = 12;
        spec
    }

    /// Rounds of this plan at `--seconds`, never fewer than the pin.
    #[must_use]
    pub fn rounds_for(&self, seconds: f64) -> u64 {
        ((self.rounds as f64 * seconds / crate::DEFAULT_SECONDS).round() as u64).max(PIN_ROUNDS)
    }

    /// Whether the traffic keeps the routers busy, so that a segment's host
    /// time goes with its flit-hops and not with its cycles.
    fn loads_fabric(&self) -> bool {
        matches!(self.source, Source::Apps(_))
    }

    /// The instruction stream core `slot` runs.
    #[must_use]
    pub fn stream(&self, slot: usize) -> Box<dyn InstrStream> {
        match &self.source {
            Source::Apps(apps) => Box::new(SyntheticStream::new(
                apps[slot % apps.len()],
                slot,
                &SimRng::new(self.cfg.seed),
            )),
            Source::Sparse => Box::new(SparseTraffic {
                slot: slot as u64,
                count: 0,
            }),
        }
    }

    fn build(&self, kernel: KernelKind, probed: bool) -> Simulation {
        let mut builder = Simulation::builder(self.cfg.clone()).kernel(kernel);
        builder = match &self.source {
            Source::Apps(apps) => builder.workload(apps),
            Source::Sparse => {
                builder.streams((0..self.cfg.num_cores()).map(|s| self.stream(s)).collect())
            }
        };
        if probed {
            builder = builder.probe(Box::new(CountingProbe::new().0));
        }
        builder.build().expect("benchmark configurations are valid")
    }
}

/// Idle-heavy traffic, copied from `kernel_bench`: a period-128 pattern of
/// one 8000-cycle serializing burst, single-cycle fillers and — every
/// eighth period, staggered by core — one cold load to a fresh line. The
/// load sits right behind the burst, so memory latency never feeds back
/// into core timing, and only 8 of 64 cores load per period, so mesh and
/// controllers genuinely empty between episodes: the regime the event
/// wheel exists for.
#[derive(Debug)]
struct SparseTraffic {
    slot: u64,
    count: u64,
}

impl InstrStream for SparseTraffic {
    fn next_instr(&mut self) -> Instr {
        let phase = self.count % 128;
        let period = self.count / 128;
        self.count += 1;
        match phase {
            0 => Instr::Compute { latency: 8_000 },
            1 if period % 8 == self.slot % 8 => Instr::Load {
                addr: (1u64 << 41) | (self.slot << 32) | (period * 64),
            },
            _ => Instr::Compute { latency: 1 },
        }
    }
}

/// The model's public statistics at one simulated cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCounts {
    /// Simulated cycle the snapshot was taken at.
    pub cycle: u64,
    /// `fnv1a64` of [`render_state`].
    pub digest: u64,
    pub committed: u64,
    pub ipc_sum: f64,
    pub offchip_txns: u64,
    pub offchip_lat_mean: f64,
    pub offchip_lat_p99: u64,
    pub violations: u64,
    pub packets: u64,
    pub hp_packets: u64,
    pub flit_hops: u64,
    pub bypassed: u64,
    pub req_leg: f64,
    pub resp_leg: f64,
    pub hottest_node: usize,
    pub hottest_node_share: f64,
    pub reads: u64,
    pub writes: u64,
    pub row_hit_rate: f64,
    pub ctrl_delay: f64,
    pub bank_idleness: f64,
    /// Mean requests inside one controller at the snapshot.
    pub mc_occupancy: f64,
    pub mem_stall_cycles: u64,
    pub mem_ops: u64,
    pub offchip_ops: u64,
}

impl SimCounts {
    /// The `*.sim.*` metrics, by declared name.
    #[must_use]
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("core.sim.committed", self.committed as f64),
            ("core.sim.ipc_sum", self.ipc_sum),
            ("core.sim.offchip_txns", self.offchip_txns as f64),
            ("core.sim.offchip_lat_mean_cyc", self.offchip_lat_mean),
            ("core.sim.offchip_lat_p99_cyc", self.offchip_lat_p99 as f64),
            ("core.sim.violations", self.violations as f64),
            ("noc.sim.packets", self.packets as f64),
            ("noc.sim.hp_packets", self.hp_packets as f64),
            ("noc.sim.flit_hops", self.flit_hops as f64),
            ("noc.sim.bypassed", self.bypassed as f64),
            ("noc.sim.req_leg_cyc", self.req_leg),
            ("noc.sim.resp_leg_cyc", self.resp_leg),
            ("noc.sim.hottest_node_share", self.hottest_node_share),
            ("mem.sim.reads", self.reads as f64),
            ("mem.sim.writes", self.writes as f64),
            ("mem.sim.row_hit_rate", self.row_hit_rate),
            ("mem.sim.ctrl_delay_cyc", self.ctrl_delay),
            ("mem.sim.bank_idleness", self.bank_idleness),
            ("cpu.sim.mem_stall_cycles", self.mem_stall_cycles as f64),
        ]
    }
}

fn merged_latency(sys: &System) -> Histogram {
    let mut merged = Histogram::new(25, 4000);
    for c in 0..sys.tracker().num_apps() {
        merged.merge(&sys.tracker().app(c).total);
    }
    merged
}

/// Canonical rendering of everything the digest covers: per-core committed
/// and off-chip counts, the merged latency histogram, `NetworkStats`,
/// `RouterCounters` and every `ControllerStats`. Floats render as bit
/// patterns, so equal text means bit-equal statistics.
#[must_use]
pub fn render_state(sys: &System) -> String {
    use std::fmt::Write;
    let mut out = format!("cycle {}\n", sys.now());
    for c in 0..sys.config().num_cores() {
        let s = sys.core_stats(c);
        let _ = writeln!(
            out,
            "core {c} {} {} {} {} {}",
            s.committed, s.cycles, s.mem_stall_cycles, s.mem_ops, s.offchip_ops
        );
    }
    let h = merged_latency(sys);
    let _ = writeln!(
        out,
        "lat {} {} {} {:?}",
        h.count(),
        h.sum(),
        h.max(),
        h.bins()
    );
    let n = sys.network_stats();
    let _ = writeln!(
        out,
        "net {} {} {} {} {:x} {} {:x} {} {}",
        n.packets_injected.get(),
        n.packets_delivered.get(),
        n.high_priority_injected.get(),
        n.request_latency.count(),
        n.request_latency.sum().to_bits(),
        n.response_latency.count(),
        n.response_latency.sum().to_bits(),
        n.packets_dropped.get(),
        n.flits_dropped.get(),
    );
    let r = sys.router_counters();
    let _ = writeln!(
        out,
        "routers {} {} {} {}",
        r.flits_traversed, r.flits_bypassed, r.high_priority_traversed, r.age_saturations
    );
    for m in 0..sys.num_controllers() {
        let s = sys.controller_stats(m);
        let _ = writeln!(
            out,
            "mc {m} {} {} {} {} {} {} {:x}",
            s.reads.get(),
            s.writes.get(),
            s.row_hits.get(),
            s.row_misses.get(),
            s.refreshes.get(),
            s.controller_delay.count(),
            s.controller_delay.sum().to_bits(),
        );
    }
    out
}

/// `fnv1a64` of [`render_state`]: what the two kernels must agree on.
#[must_use]
pub fn digest(sys: &System) -> u64 {
    fnv1a64(render_state(sys).as_bytes())
}

/// Instructions committed on all cores since warm-up.
fn committed(sys: &System) -> u64 {
    (0..sys.config().num_cores())
        .map(|c| sys.core_stats(c).committed)
        .sum()
}

/// Snapshot of the statistics the `*.sim.*` metrics and the layer replays
/// are derived from.
#[must_use]
pub fn snapshot(sys: &System) -> SimCounts {
    let cores = sys.config().num_cores();
    let stats: Vec<_> = (0..cores).map(|c| sys.core_stats(c)).collect();
    let lat = merged_latency(sys);
    let net = sys.network_stats();
    let routers = sys.router_counters();
    let heat = sys.forwarding_heat();
    let heat_sum: u64 = heat.iter().sum();
    let (hottest_node, hottest) = heat
        .iter()
        .enumerate()
        .max_by_key(|&(i, &h)| (h, std::cmp::Reverse(i)))
        .map_or((0, 0), |(i, &h)| (i, h));
    let mcs: Vec<_> = (0..sys.num_controllers())
        .map(|m| sys.controller_stats(m))
        .collect();
    let mc_count =
        |f: fn(&noclat_mem::ControllerStats) -> u64| mcs.iter().map(|s| f(s)).sum::<u64>();
    let hits = mc_count(|s| s.row_hits.get());
    let misses = mc_count(|s| s.row_misses.get());
    let delay_n = mc_count(|s| s.controller_delay.count());
    let delay_sum: f64 = mcs.iter().map(|s| s.controller_delay.sum()).sum();
    let per_mc = |f: &dyn Fn(usize) -> f64| (0..mcs.len()).map(f).sum::<f64>() / mcs.len() as f64;
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    SimCounts {
        cycle: sys.now(),
        digest: digest(sys),
        committed: stats.iter().map(|s| s.committed).sum(),
        ipc_sum: stats.iter().map(|s| s.ipc()).sum(),
        offchip_txns: lat.count(),
        offchip_lat_mean: if lat.count() == 0 { 0.0 } else { lat.mean() },
        offchip_lat_p99: if lat.count() == 0 {
            0
        } else {
            lat.percentile(0.99)
        },
        violations: sys.violations().len() as u64,
        packets: net.packets_injected.get(),
        hp_packets: net.high_priority_injected.get(),
        flit_hops: routers.flits_traversed,
        bypassed: routers.flits_bypassed,
        req_leg: net.request_latency.mean_or(0.0),
        resp_leg: net.response_latency.mean_or(0.0),
        hottest_node,
        hottest_node_share: ratio(hottest as f64, heat_sum as f64),
        reads: mc_count(|s| s.reads.get()),
        writes: mc_count(|s| s.writes.get()),
        row_hit_rate: ratio(hits as f64, (hits + misses) as f64),
        ctrl_delay: ratio(delay_sum, delay_n as f64),
        bank_idleness: per_mc(&|m| sys.idleness(m).overall()),
        mc_occupancy: per_mc(&|m| sys.controller_occupancy(m) as f64),
        mem_stall_cycles: stats.iter().map(|s| s.mem_stall_cycles).sum(),
        mem_ops: stats.iter().map(|s| s.mem_ops).sum(),
        offchip_ops: stats.iter().map(|s| s.offchip_ops).sum(),
    }
}

/// The timed segments of one simulation, each `cycles` simulated cycles
/// long.
#[derive(Debug)]
pub struct Segments {
    pub cycles: u64,
    /// Whether work is counted in flit-hops (else in cycles).
    by_hops: bool,
    /// Host seconds of each segment.
    pub wall_s: Vec<f64>,
    /// Units of simulated work done in each segment.
    pub work: Vec<u64>,
}

impl Segments {
    fn new(cycles: u64, by_hops: bool) -> Segments {
        Segments {
            cycles,
            by_hops,
            wall_s: Vec::new(),
            work: Vec::new(),
        }
    }

    /// Runs and times one more segment on `sim`, as a span called `span`.
    fn time_one(&mut self, sim: &mut Simulation, span: &'static str, tracer: &mut Tracer) {
        let hops = |sim: &Simulation| sim.system().router_counters().flits_traversed;
        let before = hops(sim);
        let (_, wall_s) = tracer.time(span, self.cycles, |_| sim.run(self.cycles));
        self.wall_s.push(wall_s);
        self.work.push(if self.by_hops {
            hops(sim) - before
        } else {
            self.cycles
        });
    }

    #[must_use]
    pub fn total_wall_s(&self) -> f64 {
        self.wall_s.iter().sum()
    }

    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.cycles * self.wall_s.len() as u64
    }

    /// Simulated cycles per host second of each segment.
    #[must_use]
    pub fn rates(&self) -> Vec<f64> {
        self.wall_s.iter().map(|w| self.cycles as f64 / w).collect()
    }

    /// Simulated cycles per host second while the machine is quiet: all
    /// the segments' work at the quiet host time per unit of work.
    #[must_use]
    pub fn quiet_rate(&self) -> f64 {
        let per_unit: Vec<f64> = self
            .wall_s
            .iter()
            .zip(&self.work)
            .filter(|(_, &work)| work > 0)
            .map(|(wall, &work)| wall / work as f64)
            .collect();
        let total_work: u64 = self.work.iter().sum();
        self.total_cycles() as f64 / (quiet(&per_unit) * total_work as f64)
    }
}

/// What one run of a simulation workload observed.
#[derive(Debug)]
pub struct SimRun {
    /// Wall seconds of the set-up (build + warm-up of both kernels).
    pub setup_s: f64,
    /// The timed segments of the cycle and of the event kernel.
    pub cycle: Segments,
    pub event: Segments,
    /// Rounds checked, and how many disagreed (kernel against kernel, or
    /// against the pinned digest).
    pub attempted: u64,
    pub failed: u64,
    /// Statistics after [`PIN_ROUNDS`] rounds (cycle kernel; the event
    /// kernel's are checked equal).
    pub pin: SimCounts,
    /// Instructions committed and flit-hops (switch traversals) simulated
    /// over the cycle kernel's timed segments.
    pub committed: u64,
    pub flit_hops: u64,
}

impl SimRun {
    /// Host nanoseconds the cycle kernel spends per simulated cycle.
    #[must_use]
    pub fn ns_per_cycle(&self) -> f64 {
        self.cycle.total_wall_s() * 1e9 / self.cycle.total_cycles() as f64
    }

    /// Host seconds of each kernel's whole cell on the quiet machine, as a
    /// user running it alone would wait: half of `setup_s` (one build +
    /// warm-up) plus its simulated cycles at its quiet rate.
    #[must_use]
    pub fn cell_s(&self, setup_s: f64) -> [f64; 2] {
        [&self.cycle, &self.event].map(|k| setup_s / 2.0 + k.total_cycles() as f64 / k.quiet_rate())
    }
}

/// Builds and warms one simulation per kernel; returns the pair and the
/// set-up's wall time.
pub fn set_up(spec: &SimSpec, tracer: &mut Tracer) -> ([Simulation; 2], f64) {
    tracer.time("core.setup", 1, |t| {
        [KernelKind::Cycle, KernelKind::Event].map(|kernel| {
            let (mut sim, _) = t.time("core.build", 1, |_| spec.build(kernel, false));
            t.time("core.warm_up", spec.warmup, |_| sim.warm_up(spec.warmup));
            sim
        })
    })
}

fn work_done(sys: &System) -> (u64, u64) {
    (committed(sys), sys.router_counters().flits_traversed)
}

/// Runs `rounds` rounds of `spec` (at least up to the pin): set-up, then
/// turn by turn the event kernel and the cycle kernel each advance by their
/// `turn`. The event kernel goes first and keeps its digest at every round
/// boundary; the cycle kernel compares when it gets there. `pinned` is the
/// digest `expected.json` holds for this workload, when the seed is the
/// default one.
pub fn run(spec: &SimSpec, rounds: u64, pinned: Option<u64>, tracer: &mut Tracer) -> SimRun {
    let rounds = rounds.max(PIN_ROUNDS);
    // Index 0 is the cycle kernel, 1 the event kernel.
    let (mut sims, setup_s) = set_up(spec, tracer);
    let before = work_done(sims[0].system());
    let mut timed = spec
        .segment
        .map(|cycles| Segments::new(cycles, spec.loads_fabric()));
    let mut event_digests = VecDeque::new();
    let (mut checked, mut failed, mut pin) = (0, 0, None);
    for _ in 0..rounds * spec.round / spec.turn[0] {
        for k in [1, 0] {
            for _ in 0..spec.turn[k] / spec.segment[k] {
                timed[k].time_one(&mut sims[k], "core.run", tracer);
                if timed[k].total_cycles() % spec.round != 0 {
                    continue;
                }
                let sys = sims[k].system();
                if k == 1 {
                    event_digests.push_back(digest(sys));
                    continue;
                }
                checked += 1;
                let (c, e) = (digest(sys), event_digests.pop_front());
                let mut ok = e == Some(c);
                if checked == PIN_ROUNDS {
                    ok &= pinned.is_none_or(|d| d == c);
                    pin = Some(snapshot(sys));
                }
                if !ok {
                    failed += 1;
                    eprintln!(
                        "{}: digest mismatch at cycle {}: cycle kernel {c:016x}, event kernel {e:016x?}, pinned {pinned:016x?}",
                        spec.name,
                        sys.now(),
                    );
                }
            }
        }
    }
    let after = work_done(sims[0].system());
    let [cycle, event] = timed;
    SimRun {
        setup_s,
        cycle,
        event,
        attempted: checked,
        failed,
        pin: pin.expect("a run goes at least to the pin"),
        committed: after.0 - before.0,
        flit_hops: after.1 - before.1,
    }
}

/// Host-time cost of an attached [`CountingProbe`]: two fresh cycle-kernel
/// simulations, one probed, run over the same `rounds` rounds turn by turn;
/// the result is the probed segments' extra quiet host time, in percent
/// (negative = noise won).
pub fn probe_overhead_pct(spec: &SimSpec, rounds: u64, tracer: &mut Tracer) -> f64 {
    let mut sims = [false, true].map(|probed| {
        let mut sim = spec.build(KernelKind::Cycle, probed);
        sim.warm_up(spec.warmup);
        sim
    });
    let mut timed = [0, 1].map(|_| Segments::new(spec.segment[0], spec.loads_fabric()));
    for _ in 0..rounds * spec.round / spec.turn[0] {
        for (i, span) in ["core.run_plain", "core.run_probed"]
            .into_iter()
            .enumerate()
        {
            for _ in 0..spec.turn[0] / spec.segment[0] {
                timed[i].time_one(&mut sims[i], span, tracer);
            }
        }
    }
    let [plain, probed] = timed.map(|segments| segments.quiet_rate());
    (plain / probed - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_builds_and_unknown_names_do_not() {
        for name in ["paper_load", "mem_bound", "idle_heavy", "big_fabric"] {
            let spec = SimSpec::named(name, 7).unwrap();
            assert_eq!(spec.name, name);
            assert!(spec.rounds >= PIN_ROUNDS);
            for k in [0, 1] {
                assert!(spec.turn[k].is_multiple_of(spec.segment[k]));
                assert!(spec.round.is_multiple_of(spec.segment[k]));
                assert!(spec.turn[k] >= spec.turn[0]);
            }
            assert!(spec.round.is_multiple_of(spec.turn[0]));
        }
        assert!(SimSpec::named("fig_sweep", 7).is_none());
    }

    #[test]
    fn the_plan_scales_with_seconds_and_always_reaches_the_pin() {
        let spec = SimSpec::named("paper_load", 7).unwrap();
        assert_eq!(spec.rounds_for(10.0), 15);
        assert_eq!(spec.rounds_for(20.0), 30);
        assert_eq!(spec.rounds_for(0.1), PIN_ROUNDS);
    }

    #[test]
    fn the_rate_of_a_plan_is_its_quiet_segment_rate() {
        let mut segments = Segments::new(100, false);
        (segments.wall_s, segments.work) = (vec![2e-3, 3e-3, 1e-3], vec![100; 3]);
        assert!((segments.quiet_rate() - 100_000.0).abs() < 1e-6);
        assert_eq!(segments.total_cycles(), 300);
        // By flit-hops, a lull (the last segment) does not pass for speed:
        // 10 us per hop at best, 600 hops in 300 cycles.
        segments.by_hops = true;
        segments.work = vec![200, 300, 100];
        assert!((segments.quiet_rate() - 50_000.0).abs() < 1e-6);
    }

    #[test]
    fn kernels_agree_and_the_digest_sees_the_seed() {
        let digest_at = |seed: u64, kernel: KernelKind| {
            let spec = SimSpec::reference_cell(seed);
            let mut sim = spec.build(kernel, false);
            sim.warm_up(spec.warmup);
            sim.run(spec.round);
            snapshot(sim.system())
        };
        let cycle = digest_at(1, KernelKind::Cycle);
        assert_eq!(cycle, digest_at(1, KernelKind::Event));
        assert_eq!(cycle.cycle, 1_500);
        assert!(cycle.packets > 0 && cycle.committed > 0);
        assert_ne!(cycle.digest, digest_at(2, KernelKind::Cycle).digest);
    }
}
