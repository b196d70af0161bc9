//! Property-style integration tests of the two schemes' externally
//! observable guarantees, run through the public API — plus the robustness
//! guarantees of the fault-injection/recovery layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use noclat_repro::sim::check::{self, pick, range_f64, range_u64};
use noclat_repro::workloads::workload;
use noclat_repro::{
    run_mix, FaultPlan, Probe, Retire, RunLengths, Scheme, Simulation, SystemConfig,
};

fn quick() -> RunLengths {
    RunLengths {
        warmup: 3_000,
        measure: 20_000,
    }
}

#[test]
fn scheme1_expedites_only_a_minority() {
    // The threshold is above the average by construction, so only the tail
    // may be marked; a majority-marked network would defeat prioritization
    // (Section 4.2's threshold discussion).
    let apps = workload(8).apps();
    let r = run_mix(&SystemConfig::baseline_32().with_scheme1(), &apps, quick());
    let hp = r.system.router_counters().high_priority_traversed as f64;
    let total = r.system.router_counters().flits_traversed as f64;
    assert!(
        hp / total < 0.5,
        "more than half of the flits are high priority ({:.1}%)",
        hp / total * 100.0
    );
}

#[test]
fn combined_schemes_do_not_collapse_throughput() {
    // Prioritization redistributes latency; it must never wreck aggregate
    // throughput (the paper's worst per-workload case is ~-1%). Allow a
    // margin for measurement noise on the short test window.
    let apps = workload(2).apps();
    let base = run_mix(&SystemConfig::baseline_32(), &apps, quick());
    let both = run_mix(
        &SystemConfig::baseline_32().with_both_schemes(),
        &apps,
        quick(),
    );
    let sum_base: f64 = base.per_app.iter().map(|a| a.ipc).sum();
    let sum_both: f64 = both.per_app.iter().map(|a| a.ipc).sum();
    assert!(
        sum_both > sum_base * 0.95,
        "aggregate IPC collapsed: {sum_base:.2} -> {sum_both:.2}"
    );
}

/// Any valid scheme parameterization must produce a functioning system:
/// all cores progress and all injected packets eventually deliver.
#[test]
fn arbitrary_scheme_parameters_are_safe() {
    check::cases(8, |rng| {
        let mut cfg = SystemConfig::baseline_32().with_both_schemes();
        cfg.scheme1.threshold_factor = range_f64(rng, 0.5, 2.5);
        cfg.scheme2.history_window = range_u64(rng, 50, 800);
        cfg.scheme2.idle_threshold = range_u64(rng, 1, 4) as u32;
        cfg.noc.starvation_age_guard = pick(rng, &[0u32, 200, 1000, 4000]);
        let apps = workload(1).apps();
        let r = run_mix(
            &cfg,
            &apps,
            RunLengths {
                warmup: 1_000,
                measure: 8_000,
            },
        );
        for a in &r.per_app {
            assert!(
                a.ipc > 0.0,
                "core {} starved with {:?}",
                a.core,
                cfg.scheme1
            );
        }
        // No unbounded packet leakage.
        assert!(r.system.txns_in_flight() <= 32 * cfg.cpu.lsq_size);
    });
}

/// With fault injection disabled, the liveness watchdog and conservation
/// audit must stay silent: every run is clean by construction, so any
/// violation would be a false positive.
#[test]
fn fault_free_runs_report_zero_violations() {
    for cfg in [
        SystemConfig::baseline_32(),
        SystemConfig::baseline_32().with_both_schemes(),
    ] {
        let r = run_mix(&cfg, &workload(2).apps(), quick());
        let rb = r.system.robustness();
        assert_eq!(rb.violations, 0, "fault-free run raised violations");
        assert_eq!(rb.packets_dropped, 0);
        assert_eq!(rb.lost_txns, 0);
        assert_eq!(rb.retries, 0);
        assert!(r.system.violations().is_empty());
    }
}

/// Under random link flit drops, the recovery layer (detection + bounded
/// re-injection) must retire every transaction: drops are observed (the
/// fault plan really fires) but nothing is permanently lost.
#[test]
fn drop_faults_with_recovery_retire_all_transactions() {
    check::cases(4, |rng| {
        let rate = pick(rng, &[1e-4, 5e-4, 1e-3]);
        let mut cfg = SystemConfig::baseline_32().with_both_schemes();
        cfg.faults = FaultPlan::uniform_drop(rng.next_u64(), rate);
        let r = run_mix(&cfg, &workload(2).apps(), quick());
        let rb = r.system.robustness();
        assert!(
            rb.packets_dropped > 0,
            "drop plan at rate {rate} never fired"
        );
        assert!(rb.retries > 0, "drops must trigger re-injection");
        assert_eq!(
            rb.lost_txns, 0,
            "recovery lost {} transactions at drop rate {rate}",
            rb.lost_txns
        );
    });
}

/// Checks the paper's accounting identities (Figure 2) on every off-chip,
/// non-merged access it sees retire, and counts them.
struct LegAudit {
    max_age: u32,
    audited: Arc<AtomicU64>,
}

impl Probe for LegAudit {
    fn on_retire(&mut self, ev: &Retire) {
        if !ev.offchip || ev.merged {
            return;
        }
        let t = &ev.times;
        assert!(t.stamps().is_sorted(), "leg stamps out of order: {ev:?}");
        assert_eq!(t.segments().iter().sum::<u64>(), t.total(), "{ev:?}");
        assert_eq!((t.total(), t.done), (ev.total_latency, ev.cycle), "{ev:?}");
        assert!(ev.age <= self.max_age, "age overflows its field: {ev:?}");
        self.audited.fetch_add(1, Ordering::Relaxed);
    }
}

/// The debug-build assertions at the retire site, as a release-mode
/// property seen from outside through the probe seam: under every scheme
/// combination, any seed and any age-field width (a narrow field saturates
/// constantly), the six stamps of a retired access are in path order, its
/// five legs sum to its round trip, and the age it returns fits its field.
#[test]
fn retired_accesses_satisfy_the_accounting_identities() {
    check::cases(3, |rng| {
        for scheme in Scheme::ALL {
            let mut cfg = SystemConfig::baseline_32().with_scheme(scheme);
            cfg.seed = rng.next_u64();
            cfg.noc.age_bits = pick(rng, &[8, 10, 12]);
            let audited = Arc::new(AtomicU64::new(0));
            let probe = LegAudit {
                max_age: cfg.noc.max_age(),
                audited: Arc::clone(&audited),
            };
            let mut sim = Simulation::builder(cfg)
                .probe(Box::new(probe))
                .workload(&workload(pick(rng, &[2, 8])).apps())
                .build()
                .expect("valid config");
            sim.run(6_000);
            assert!(
                audited.load(Ordering::Relaxed) > 100,
                "{}: too few off-chip accesses retired to mean anything",
                scheme.name()
            );
        }
    });
}
