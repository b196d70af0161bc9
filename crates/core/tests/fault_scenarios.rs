//! Injected-fault scenarios: wedged hardware must surface as *structured
//! liveness violations* from the watchdog — never as a hung simulation —
//! and windowed faults must heal once their window closes.

use noclat::{LivenessViolation, Simulation, System, SystemConfig};
use noclat_sim::faults::{
    BankFault, BankFaultKind, CycleWindow, FaultPlan, LinkFault, RouterStall,
};
use noclat_workloads::{workload, SpecApp};

/// Builds the scenario system through the Simulation API, with the fault
/// plan attached where a harness would attach it.
fn build(cfg: SystemConfig, plan: FaultPlan, apps: &[SpecApp]) -> System {
    Simulation::builder(cfg)
        .fault_plan(plan)
        .workload(apps)
        .build()
        .expect("valid config")
        .into_system()
}

/// Stalling every router's arbitration forever wedges the whole mesh; the
/// watchdog must report a deadlock (with a usable snapshot) instead of the
/// run spinning silently.
#[test]
fn global_router_stall_is_reported_as_deadlock() {
    let mut cfg = SystemConfig::baseline_32();
    cfg.watchdog.deadlock_cycles = 2_000;
    // Recovery re-injection cannot help when no router arbitrates; keep it
    // out of the way so the scenario stays a pure detection test.
    cfg.recovery.enabled = false;
    let mut plan = FaultPlan::none();
    for node in 0..32 {
        plan.router_stalls.push(RouterStall {
            node,
            window: CycleWindow {
                start: 1_000,
                end: u64::MAX,
            },
        });
    }
    let apps = workload(2).apps();
    let mut sys = build(cfg, plan, &apps);
    // This returns (bounded by the cycle count) even though the mesh is
    // dead — the whole point of the watchdog is that nothing inside spins.
    sys.run(12_000);
    let deadlocks: Vec<_> = sys
        .violations()
        .iter()
        .filter(|v| matches!(v, LivenessViolation::Deadlock { .. }))
        .collect();
    assert!(
        !deadlocks.is_empty(),
        "a fully stalled mesh must be flagged as deadlock, got {:?}",
        sys.violations()
    );
    if let LivenessViolation::Deadlock {
        quiet_for,
        snapshot,
    } = deadlocks[0]
    {
        assert!(*quiet_for >= 2_000);
        assert!(snapshot.cycle > 1_000, "detected before the stall?");
        assert!(snapshot.txns_in_flight > 0, "idle mesh is not deadlock");
        assert_eq!(snapshot.queue_depths.len(), 32);
        assert!(
            snapshot.queue_depths.iter().any(|&d| d > 0),
            "deadlock snapshot must show where flits are stuck"
        );
    }
}

/// Stalling only the corner (memory-controller) routers keeps the rest of
/// the mesh moving, so no deadlock — but flits wedged behind the stalled
/// arbiters blow past the starvation bound and must be reported as such.
#[test]
fn corner_router_stalls_are_reported_as_starvation() {
    let mut cfg = SystemConfig::baseline_32();
    cfg.watchdog.starvation_factor = 2; // limit = 2 × 1000-cycle age guard
    cfg.watchdog.deadlock_cycles = 50_000; // keep deadlock out of the way
    cfg.recovery.enabled = false;
    let mut plan = FaultPlan::none();
    for node in [0usize, 7, 24, 31] {
        plan.router_stalls.push(RouterStall {
            node,
            window: CycleWindow {
                start: 2_000,
                end: 14_000,
            },
        });
    }
    let apps = workload(2).apps();
    let mut sys = build(cfg, plan, &apps);
    sys.run(14_000);
    let starved: Vec<_> = sys
        .violations()
        .iter()
        .filter(|v| matches!(v, LivenessViolation::Starvation { .. }))
        .collect();
    assert!(
        !starved.is_empty(),
        "flits wedged behind stalled corner routers must be flagged, got {:?}",
        sys.violations()
    );
    if let LivenessViolation::Starvation { waited, limit, .. } = starved[0] {
        assert!(waited >= limit, "reported wait below the configured limit");
        assert_eq!(*limit, 2_000);
    }
}

/// Disabling the anti-starvation age guard (`u32::MAX` can never be
/// exceeded by the saturating 12-bit age field) while priority traffic
/// flows must not neuter the watchdog: its wall-clock starvation bound
/// falls back to the age-field ceiling, and flits repeatedly losing
/// arbitration behind stalled corner routers are still flagged.
#[test]
fn disabled_age_guard_still_detects_starvation() {
    let mut cfg = SystemConfig::baseline_32().with_both_schemes();
    cfg.noc.starvation_age_guard = u32::MAX; // arbitration guard off
    cfg.watchdog.starvation_factor = 1; // limit falls back to max_age (4095)
    cfg.watchdog.deadlock_cycles = 50_000;
    cfg.recovery.enabled = false;
    let mut plan = FaultPlan::none();
    for node in [0usize, 7, 24, 31] {
        plan.router_stalls.push(RouterStall {
            node,
            window: CycleWindow {
                start: 2_000,
                end: 16_000,
            },
        });
    }
    let apps = workload(8).apps();
    let mut sys = build(cfg, plan, &apps);
    sys.run(16_000);
    let starved = sys
        .violations()
        .iter()
        .filter(|v| matches!(v, LivenessViolation::Starvation { .. }))
        .count();
    assert!(
        starved > 0,
        "guard-off starvation went undetected: {:?}",
        sys.violations()
    );
}

/// A windowed stall must heal: once the window closes the system drains and
/// the watchdog re-arms without further violations.
#[test]
fn windowed_stall_recovers_after_the_window() {
    let mut cfg = SystemConfig::baseline_32();
    cfg.watchdog.deadlock_cycles = 2_000;
    let mut plan = FaultPlan::none();
    for node in 0..32 {
        plan.router_stalls.push(RouterStall {
            node,
            window: CycleWindow {
                start: 2_000,
                end: 8_000,
            },
        });
    }
    let apps = workload(2).apps();
    let mut sys = build(cfg, plan, &apps);
    sys.run(8_000);
    let during = sys.violations().len();
    assert!(
        during > 0,
        "the 6k-cycle global stall must trip the watchdog"
    );
    sys.run(20_000);
    // Traffic flows again: cores commit and the network delivers.
    assert!(
        sys.network_stats().packets_delivered.get() > 0,
        "network never recovered after the stall window"
    );
    let after: Vec<_> = sys.violations().iter().skip(during).collect();
    assert!(
        after
            .iter()
            .all(|v| !matches!(v, LivenessViolation::Deadlock { .. })),
        "deadlock reported after the mesh healed: {after:?}"
    );
}

/// An offline DRAM bank window slows its controller but must not break
/// correctness: the run completes with zero lost transactions and no
/// conservation violations.
#[test]
fn offline_bank_window_degrades_gracefully() {
    let cfg = SystemConfig::baseline_32();
    let mut plan = FaultPlan::none();
    plan.banks.push(BankFault {
        controller: 0,
        bank: None,
        kind: BankFaultKind::Offline,
        window: CycleWindow {
            start: 3_000,
            end: 9_000,
        },
    });
    let apps = workload(2).apps();
    let mut sys = build(cfg, plan, &apps);
    sys.run(30_000);
    let rb = sys.robustness();
    assert_eq!(rb.lost_txns, 0, "an offline window must not lose work");
    assert!(
        sys.violations().iter().all(|v| !matches!(
            v,
            LivenessViolation::Lost { .. } | LivenessViolation::Duplicated { .. }
        )),
        "conservation violated: {:?}",
        sys.violations()
    );
    // The stalled controller's requests were deferred, not vaporized.
    assert!(sys.controller_stats(0).reads.get() > 0);
}

/// The retry budget belongs to a message, not to the run: a short total
/// drop window at every Scheme-1 update period kills each core's threshold
/// broadcast (and whatever writebacks are in the air) eight times over, and
/// every one of those packets must be re-injected — the last window's
/// victims have as much budget as the first's.
#[test]
fn retry_budget_is_per_message_across_repeated_drop_windows() {
    let cfg = SystemConfig::baseline_32().with_both_schemes();
    let period = cfg.scheme1.update_period;
    let mut plan = FaultPlan::none();
    for k in 1..=8 {
        plan.links.push(LinkFault {
            node: None,
            drop_prob: 1.0,
            extra_delay: 0,
            window: CycleWindow {
                start: k * period,
                end: k * period + 6,
            },
        });
    }
    let mut sys = build(cfg, plan, &workload(2).apps());
    sys.run(8 * period + 2_000);
    let rb = sys.robustness();
    assert!(rb.packets_dropped > 800, "the windows never fired: {rb:?}");
    assert_eq!(
        rb.packets_dropped, rb.retries,
        "dropped packets were abandoned without a retry: {rb:?}"
    );
    assert_eq!(rb.lost_txns, 0);
    assert!(sys.violations().is_empty(), "{:?}", sys.violations());
}

/// Abandonment is part of a run's output (every `Lost` record snapshots the
/// transaction table it leaves behind), so two identical builds must record
/// the same violations in the same order — not merely the same multiset.
#[test]
fn identical_runs_abandon_transactions_in_the_same_order() {
    let violations = || {
        let mut cfg = SystemConfig::baseline_32();
        cfg.recovery.timeout = 1_000;
        cfg.recovery.max_retries = 1;
        let mut plan = FaultPlan::none();
        plan.router_stalls.push(RouterStall {
            node: 0,
            window: CycleWindow {
                start: 2_000,
                end: u64::MAX,
            },
        });
        let mut sys = build(cfg, plan, &workload(2).apps());
        sys.run(12_000);
        sys.violations().to_vec()
    };
    let (first, second) = (violations(), violations());
    let lost = |v: &[LivenessViolation]| {
        v.iter()
            .filter(|v| matches!(v, LivenessViolation::Lost { .. }))
            .count()
    };
    assert!(
        lost(&first) > 100,
        "the scenario must abandon many transactions per scan, got {}",
        lost(&first)
    );
    assert_eq!(first, second);
}
