//! Cross-crate integration: drive the full stack through the facade crate,
//! exactly as a downstream user would.

use noclat_repro::workloads::{workload, SpecApp, WorkloadKind};
use noclat_repro::{
    run_mix, weighted_speedup, weighted_speedup_of, RunLengths, Simulation, SystemConfig,
};

fn quick() -> RunLengths {
    RunLengths {
        warmup: 3_000,
        measure: 20_000,
    }
}

#[test]
fn facade_exposes_the_full_pipeline() {
    let cfg = SystemConfig::baseline_32().with_both_schemes();
    let mix = workload(1);
    assert_eq!(mix.kind, WorkloadKind::Mixed);
    let r = run_mix(&cfg, &mix.apps(), quick());
    assert_eq!(r.per_app.len(), 32);
    assert!(r.per_app.iter().all(|a| a.ipc > 0.0));
    // Latency machinery is reachable through the result.
    let total: u64 = r.system.tracker().completions().iter().sum();
    assert!(total > 100, "expected off-chip traffic, got {total}");
}

#[test]
fn substrate_crates_compose_via_reexports() {
    // Types from every substrate crate are usable through the facade.
    let mesh = noclat_repro::noc::Topology::new(8, 4);
    assert_eq!(mesh.num_nodes(), 32);
    let map = noclat_repro::mem::AddressMap::new(64, 4, 16, 8192);
    assert_eq!(map.total_banks(), 64);
    let l1 = noclat_repro::cache::L1Cache::new(32 * 1024, 64);
    assert_eq!(l1.num_sets(), 512);
    let cfg = noclat_repro::sim::config::SystemConfig::baseline_32();
    let core = noclat_repro::cpu::OooCore::new(cfg.cpu);
    assert_eq!(core.window_len(), 0);
    assert_eq!(SpecApp::ALL.len(), 28);
}

#[test]
fn weighted_speedup_is_the_paper_metric() {
    // WS = sum of IPC_shared / IPC_alone (Section 4.1).
    let ws = weighted_speedup(&[0.5, 1.0, 0.25], &[1.0, 1.0, 0.5]);
    assert!((ws - 2.0).abs() < 1e-12);
}

#[test]
fn scheme_toggles_change_behavior() {
    let apps = workload(8).apps();
    let base = run_mix(&SystemConfig::baseline_32(), &apps, quick());
    let both = run_mix(
        &SystemConfig::baseline_32().with_both_schemes(),
        &apps,
        quick(),
    );
    // The runs must actually differ (schemes perturb arbitration).
    let diff = base
        .per_app
        .iter()
        .zip(&both.per_app)
        .filter(|(a, b)| a.ipc != b.ipc)
        .count();
    assert!(diff > 16, "schemes changed only {diff}/32 cores");
    // And high-priority traffic exists only with schemes on.
    assert_eq!(
        base.system.network_stats().high_priority_injected.get(),
        0,
        "baseline must not prioritize"
    );
    assert!(both.system.network_stats().high_priority_injected.get() > 0);
}

#[test]
fn alone_runs_beat_shared_runs() {
    // IPC_alone >= IPC_shared for a memory-intensive app (contention only
    // hurts), making weighted speedups <= num_cores.
    let lengths = quick();
    let apps = workload(8).apps();
    let shared = run_mix(&SystemConfig::baseline_32(), &apps, lengths);
    let alone = noclat_repro::alone_ipc(&SystemConfig::baseline_32(), SpecApp::Mcf, lengths);
    let shared_mcf = shared
        .per_app
        .iter()
        .find(|a| a.app == SpecApp::Mcf)
        .expect("mcf in workload-8")
        .ipc;
    assert!(
        alone > shared_mcf,
        "alone IPC {alone:.3} must beat shared IPC {shared_mcf:.3}"
    );
    let table = std::collections::HashMap::from([(SpecApp::Mcf, alone)]);
    let _ = &table; // silence unused in case of future edits
    let ws = weighted_speedup_of(
        &shared,
        &noclat_repro::alone_ipc_table(&SystemConfig::baseline_32(), &apps, lengths),
    );
    assert!(ws > 1.0 && ws < 32.0, "weighted speedup {ws} out of range");
}

#[test]
fn all_18_workloads_build_and_step() {
    for i in 1..=18 {
        let apps = workload(i).apps();
        let mut sim = Simulation::builder(SystemConfig::baseline_32())
            .workload(&apps)
            .build()
            .expect("valid");
        sim.run_until(500);
        assert!(
            sim.system().network_stats().packets_injected.get() > 0,
            "workload-{i} injected nothing"
        );
    }
}

#[test]
fn sixteen_core_variant_is_consistent() {
    let cfg = SystemConfig::baseline_16();
    let apps = workload(1).first_half();
    assert_eq!(apps.len(), cfg.num_cores());
    let r = run_mix(&cfg, &apps, quick());
    assert!(r.per_app.iter().all(|a| a.ipc > 0.0));
    assert_eq!(r.system.num_controllers(), 2);
}
