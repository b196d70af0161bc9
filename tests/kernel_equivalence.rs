//! Kernel-equivalence matrix: the event-wheel kernel must be *bit-identical*
//! to the cycle-driven kernel — not statistically close — on every scheme
//! combination, on every request × response policy kind and arbitration
//! policy, under injected faults, on every fabric and on the widest and the
//! shortest router.
//!
//! Each cell runs the same configuration under both kernels and compares a
//! deep fingerprint: per-core counters for all 32 cores, network and
//! controller statistics, in-flight populations, the liveness violations
//! in the order they were raised, and the *complete* probe event stream
//! (every router hop, every controller dequeue, every retirement, each with
//! its cycle stamp). A kernel that skips one cycle it should not have — or
//! wakes one cycle late — moves an event stamp and fails the cell.

use std::sync::{Arc, Mutex};

use noclat_repro::noc::Hop;
use noclat_repro::sim::config::{RouterPipeline, TopologyConfig};
use noclat_repro::sim::faults::{
    BankFault, BankFaultKind, CycleWindow, FaultPlan, LinkFault, RouterStall,
};
use noclat_repro::workloads::workload;
use noclat_repro::{
    KernelKind, McDequeue, Probe, RequestPolicyKind, ResponsePolicyKind, Retire, RobustnessStats,
    Simulation, StarvationPolicy, SystemConfig, TopologyOverride,
};

/// Cycles per run: long enough that Scheme-1's 10k-cycle threshold-update
/// period elapses (shorter windows never exercise its wake-up source).
const RUN_CYCLES: u64 = 12_000;

/// Cycles per off-mesh topology cell. The 256-core fabrics are ~8x the work
/// per cycle of the 32-core mesh, and their cells target the *network*
/// wake-up contracts (wraparound links, shared cmesh routers, express
/// channels), which a few thousand cycles exercise densely.
const TOPO_RUN_CYCLES: u64 = 3_000;

/// Cycles per cell of the policy-space sweep: enough for every kind to
/// expedite traffic on the 16-core system, short enough for 19 cells.
const POLICY_RUN_CYCLES: u64 = 1_500;

/// Records every probe event as a rendered line, shared out via `Arc` so the
/// stream survives the probe moving into the system.
#[derive(Default)]
struct Recorder {
    events: Arc<Mutex<Vec<String>>>,
}

impl Recorder {
    fn new() -> (Self, Arc<Mutex<Vec<String>>>) {
        let rec = Recorder::default();
        let events = Arc::clone(&rec.events);
        (rec, events)
    }

    fn push(&self, line: String) {
        self.events.lock().expect("recorder lock").push(line);
    }
}

impl Probe for Recorder {
    fn on_hop(&mut self, hop: &Hop) {
        self.push(format!(
            "hop {:?} {:?} {:?} {:?} age={} @{}",
            hop.node, hop.out_port, hop.priority, hop.vnet, hop.age, hop.cycle
        ));
    }

    fn on_mc_dequeue(&mut self, ev: &McDequeue) {
        self.push(format!(
            "mc{} core={} so_far={} queued={} {:?} @{}",
            ev.mc, ev.core, ev.so_far_delay, ev.queued_for, ev.priority, ev.cycle
        ));
    }

    fn on_retire(&mut self, ev: &Retire) {
        self.push(format!(
            "retire core={} line={:#x} offchip={} merged={} lat={} @{}",
            ev.core, ev.line, ev.offchip, ev.merged, ev.total_latency, ev.cycle
        ));
    }
}

/// Everything one run pins. `PartialEq` + `Debug` so a failing cell prints
/// both sides.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    now: u64,
    cores: Vec<(u64, u64, u64, u64)>,
    packets_injected: u64,
    packets_delivered: u64,
    high_priority_injected: u64,
    controller_reads: Vec<u64>,
    txns_in_flight: usize,
    packets_in_flight: usize,
    robustness: RobustnessStats,
    violations: Vec<String>,
    events: Vec<String>,
}

fn run_cell(
    label: &str,
    cfg: &SystemConfig,
    plan: &FaultPlan,
    warmup: u64,
    cycles: u64,
    kernel: KernelKind,
) -> Fingerprint {
    let (rec, events) = Recorder::new();
    let mut sim = Simulation::builder(cfg.clone())
        .kernel(kernel)
        .fault_plan(plan.clone())
        .workload(&workload(2).apps_for(cfg.num_cores()))
        .probe(Box::new(rec))
        .build()
        .unwrap_or_else(|e| panic!("{label}: invalid config: {e}"));
    if warmup > 0 {
        sim.warm_up(warmup);
    }
    sim.run(cycles);
    let sys = sim.system();
    // Each kind built the implementation of its name.
    assert_eq!(sys.request_policy_name(), cfg.policy.request.name());
    assert_eq!(sys.response_policy_name(), cfg.policy.response.name());
    // As recorded: the order violations are raised in is part of the run.
    let violations: Vec<String> = sys.violations().iter().map(|v| format!("{v:?}")).collect();
    let events = events.lock().expect("recorder lock").clone();
    Fingerprint {
        now: sys.now(),
        cores: (0..cfg.num_cores())
            .map(|c| {
                let s = sys.core_stats(c);
                (s.committed, s.cycles, s.mem_stall_cycles, s.offchip_ops)
            })
            .collect(),
        packets_injected: sys.network_stats().packets_injected.get(),
        packets_delivered: sys.network_stats().packets_delivered.get(),
        high_priority_injected: sys.network_stats().high_priority_injected.get(),
        controller_reads: (0..sys.num_controllers())
            .map(|m| sys.controller_stats(m).reads.get())
            .collect(),
        txns_in_flight: sys.txns_in_flight(),
        packets_in_flight: sys.packets_in_flight(),
        robustness: sys.robustness(),
        violations,
        events,
    }
}

fn assert_kernels_agree(label: &str, cfg: &SystemConfig, plan: &FaultPlan) {
    assert_kernels_agree_for(label, cfg, plan, 0, RUN_CYCLES);
}

fn assert_kernels_agree_warmed(label: &str, cfg: &SystemConfig, plan: &FaultPlan, warmup: u64) {
    assert_kernels_agree_for(label, cfg, plan, warmup, RUN_CYCLES);
}

/// Returns the (agreed) fingerprint for cell-specific checks.
fn assert_kernels_agree_for(
    label: &str,
    cfg: &SystemConfig,
    plan: &FaultPlan,
    warmup: u64,
    cycles: u64,
) -> Fingerprint {
    let cycle = run_cell(label, cfg, plan, warmup, cycles, KernelKind::Cycle);
    let event = run_cell(label, cfg, plan, warmup, cycles, KernelKind::Event);
    assert!(
        !cycle.events.is_empty(),
        "{label}: cell observed no traffic — the comparison is vacuous"
    );
    // Compare the streams first with a usable diff location, then the whole
    // fingerprint (which re-checks the streams plus all counters).
    assert_eq!(
        cycle.events.len(),
        event.events.len(),
        "{label}: event counts diverge ({} vs {})",
        cycle.events.len(),
        event.events.len()
    );
    if let Some((i, (c, e))) = cycle
        .events
        .iter()
        .zip(&event.events)
        .enumerate()
        .find(|(_, (c, e))| c != e)
    {
        panic!("{label}: first probe divergence at event #{i}:\n  cycle: {c}\n  event: {e}");
    }
    assert_eq!(cycle, event, "{label}: kernels diverged");
    cycle
}

#[test]
fn baseline_matches() {
    let plan = FaultPlan::none();
    assert_kernels_agree("baseline", &SystemConfig::baseline_32(), &plan);
}

#[test]
fn scheme1_matches() {
    let plan = FaultPlan::none();
    assert_kernels_agree("s1", &SystemConfig::baseline_32().with_scheme1(), &plan);
}

#[test]
fn scheme2_matches() {
    let plan = FaultPlan::none();
    assert_kernels_agree("s2", &SystemConfig::baseline_32().with_scheme2(), &plan);
}

#[test]
fn both_schemes_match() {
    let plan = FaultPlan::none();
    assert_kernels_agree(
        "both",
        &SystemConfig::baseline_32().with_both_schemes(),
        &plan,
    );
}

/// The non-paper policy kinds over the full window (the whole kind space
/// runs, shorter, in [`every_policy_combination_matches`]).
#[test]
fn named_policies_match() {
    let mut cfg = SystemConfig::baseline_32();
    cfg.policy.request = RequestPolicyKind::OldestFirst;
    cfg.policy.response = ResponsePolicyKind::Static;
    let plan = FaultPlan::none();
    assert_kernels_agree("named-policies", &cfg, &plan);
}

/// The whole policy space, cheaply: all 4 × 4 request × response kinds
/// under the paper's age guard, plus the paper pair under every arbitration
/// policy, on the 16-core system. Every cell must build, report the
/// policies it was given, agree across kernels and leave the watchdog
/// silent.
#[test]
fn every_policy_combination_matches() {
    let plan = FaultPlan::none();
    let mut cells = Vec::new();
    for request in RequestPolicyKind::ALL {
        for response in ResponsePolicyKind::ALL {
            let mut cfg = SystemConfig::baseline_16();
            cfg.policy.request = request;
            cfg.policy.response = response;
            cells.push(cfg);
        }
    }
    for starvation in [
        StarvationPolicy::Batching { interval: 200 },
        StarvationPolicy::OldestFirst,
        StarvationPolicy::StaticPriority,
    ] {
        let mut cfg = SystemConfig::baseline_16().with_both_schemes();
        cfg.noc.starvation = starvation;
        cells.push(cfg);
    }
    for cfg in cells {
        let label = format!(
            "req={} resp={} arb={:?}",
            cfg.policy.request.name(),
            cfg.policy.response.name(),
            cfg.noc.starvation
        );
        let fp = assert_kernels_agree_for(&label, &cfg, &plan, 0, POLICY_RUN_CYCLES);
        assert_eq!(fp.violations, Vec::<String>::new(), "{label}");
    }
}

/// `warm_up` rebuilds the idleness monitors with a stale (cycle-0) sample
/// schedule, so the event kernel's bulk replay must *catch up* at the
/// current cycle exactly as per-cycle stepping does. Scheme 1 reads the
/// monitors for its threshold broadcasts, so a drifted sample schedule
/// changes priorities — and with them the probe streams this cell compares.
#[test]
fn warmed_up_scheme1_matches() {
    let plan = FaultPlan::none();
    assert_kernels_agree_warmed(
        "warmed-s1",
        &SystemConfig::baseline_32().with_scheme1(),
        &plan,
        1_500,
    );
}

/// Faults force the kernel through its busy-now paths: an offline DRAM bank
/// window defers service (controller wake-ups), and a windowed router stall
/// wedges flits in place (occupancy holds the network busy while nothing
/// moves). Watchdog polls and timeout scans must still land on the exact
/// cycles the per-cycle kernel lands on.
#[test]
fn faulted_run_matches() {
    let mut cfg = SystemConfig::baseline_32();
    cfg.watchdog.deadlock_cycles = 2_000;
    let mut plan = FaultPlan::none();
    plan.banks.push(BankFault {
        controller: 0,
        bank: None,
        kind: BankFaultKind::Offline,
        window: CycleWindow {
            start: 3_000,
            end: 6_000,
        },
    });
    for node in [0usize, 31] {
        plan.router_stalls.push(RouterStall {
            node,
            window: CycleWindow {
                start: 4_000,
                end: 7_000,
            },
        });
    }
    assert_kernels_agree("faulted", &cfg, &plan);
}

/// Link faults: drops on every link, refunded credits and far-future
/// re-injections after the retry backoff, and a delayed router whose later
/// flits queue behind each delayed head on the wire.
#[test]
fn link_faulted_run_matches() {
    let mut cfg = SystemConfig::baseline_32();
    cfg.recovery.enabled = true;
    cfg.watchdog.deadlock_cycles = 2_000;
    let mut plan = FaultPlan::none();
    plan.links.push(LinkFault {
        node: None,
        drop_prob: 0.02,
        extra_delay: 0,
        window: CycleWindow {
            start: 2_000,
            end: 5_000,
        },
    });
    plan.links.push(LinkFault {
        node: Some(9),
        drop_prob: 0.0,
        extra_delay: 7,
        window: CycleWindow {
            start: 3_000,
            end: 8_000,
        },
    });
    let fp = assert_kernels_agree_for("link-faulted", &cfg, &plan, 0, RUN_CYCLES);
    let r = fp.robustness;
    assert!(
        r.packets_dropped > 0 && r.retries == r.packets_dropped && r.lost_txns == 0,
        "link-faulted: the cell must drop and re-inject packets and lose none: {r:?}"
    );
}

// ---------------------------------------------------------------------------
// Off-mesh fabrics at 16x16 (256 cores, workload-2 cycled per core): every
// topology's wake-up contract must hold under the event kernel — wraparound
// links and dateline VCs (torus), tiles sharing routers (cmesh), and the
// 9-port express channels.
// ---------------------------------------------------------------------------

fn topo_config(spec: &str) -> SystemConfig {
    let mut cfg = SystemConfig::baseline_256().with_both_schemes();
    TopologyOverride::parse(spec)
        .unwrap_or_else(|e| panic!("{spec}: {e}"))
        .apply(&mut cfg);
    cfg
}

#[test]
fn torus_16x16_matches() {
    let plan = FaultPlan::none();
    assert_kernels_agree_for(
        "torus-16x16",
        &topo_config("torus"),
        &plan,
        0,
        TOPO_RUN_CYCLES,
    );
}

#[test]
fn cmesh_16x16_matches() {
    let plan = FaultPlan::none();
    assert_kernels_agree_for(
        "cmesh-16x16",
        &topo_config("cmesh:c=4"),
        &plan,
        0,
        TOPO_RUN_CYCLES,
    );
}

#[test]
fn express_16x16_matches() {
    let plan = FaultPlan::none();
    assert_kernels_agree_for(
        "express-16x16",
        &topo_config("express:skip=2"),
        &plan,
        0,
        TOPO_RUN_CYCLES,
    );
}

// ---------------------------------------------------------------------------
// Router shapes at the edges of the router's bookkeeping: the widest VC sets
// and the shortest pipeline (fronts parked for one cycle only).
// ---------------------------------------------------------------------------

/// Express at 4x8 with 8 VCs: 9 ports x 8 = 72 input VCs, so a router's
/// sets use both words of their 128 bits.
#[test]
fn express_eight_vcs_matches() {
    let mut cfg = SystemConfig::baseline_32().with_both_schemes();
    cfg.topology = TopologyConfig::express(8, 4, 2);
    cfg.noc.vcs_per_port = 8;
    let plan = FaultPlan::none();
    assert_kernels_agree_for("express-8vc", &cfg, &plan, 0, TOPO_RUN_CYCLES);
}

/// The Fig-17 two-stage router without pipeline bypassing.
#[test]
fn two_stage_without_bypass_matches() {
    let mut cfg = SystemConfig::baseline_32().with_both_schemes();
    cfg.noc.pipeline = RouterPipeline::TwoStage;
    cfg.noc.bypass_enabled = false;
    let plan = FaultPlan::none();
    assert_kernels_agree_for("two-stage-no-bypass", &cfg, &plan, 0, TOPO_RUN_CYCLES);
}
