//! The prioritization-policy layer end to end.
//!
//! Request and response policies are selected by kind
//! (`SystemConfig::policy`), so "the paper schemes by name" and "the paper
//! schemes by flag" are one configuration and need no equivalence test; the
//! whole kind × kind space is run under both kernels in
//! `kernel_equivalence.rs`. These tests run strict-priority arbitration
//! (`arb=static`) through the `--policy` grammar, check that a built system
//! reports the policies it was given, and check that attaching probes
//! observes traffic without perturbing it.

use noclat::{
    run_mix, CountingProbe, PolicyOverride, RequestPolicyKind, RunLengths, Simulation, System,
    SystemConfig,
};
use noclat_sim::config::StarvationPolicy;
use noclat_workloads::workload;

const WORKLOAD: usize = 2;

/// A bit-exact run fingerprint: per-app off-chip counts and IPC bits.
fn fingerprint(cfg: &SystemConfig, lengths: RunLengths) -> Vec<u64> {
    let r = run_mix(cfg, &workload(WORKLOAD).apps(), lengths);
    let mut fp = Vec::with_capacity(2 * r.per_app.len());
    for a in &r.per_app {
        fp.push(a.offchip);
        fp.push(a.ipc.to_bits());
    }
    fp
}

fn build_system(cfg: SystemConfig, apps: &[noclat_workloads::SpecApp]) -> System {
    Simulation::builder(cfg)
        .workload(apps)
        .build()
        .unwrap()
        .into_system()
}

/// Strict-priority arbitration runs end-to-end under each scheme, and the
/// `--policy` spec grammar drives all three decision layers.
#[test]
fn static_arbitration_runs_end_to_end() {
    let short = RunLengths {
        warmup: 200,
        measure: 4_000,
    };
    for spec in [
        "arb=static",
        "req=scheme2,arb=static",
        "resp=scheme1,arb=static",
        "req=scheme2,resp=scheme1,arb=static",
    ] {
        let ov = PolicyOverride::parse(spec).expect("spec parses");
        let mut cfg = SystemConfig::baseline_32();
        ov.apply(&mut cfg);
        cfg.validate().expect("override yields a valid config");
        let fp = fingerprint(&cfg, short);
        let offchip: u64 = fp.iter().step_by(2).sum();
        assert!(offchip > 0, "{spec}: the run must retire off-chip accesses");
    }
    // The arbitration slot reaches NocConfig.
    let ov = PolicyOverride::parse("arb=static").expect("static arbitration parses");
    let mut cfg = SystemConfig::baseline_32();
    ov.apply(&mut cfg);
    assert_eq!(cfg.noc.starvation, StarvationPolicy::StaticPriority);
}

/// The policy objects a system was built with are visible on it (and in
/// its Debug rendering).
#[test]
fn system_reports_resolved_policy_names() {
    let apps = workload(WORKLOAD).apps();
    let sys = build_system(SystemConfig::baseline_32().with_both_schemes(), &apps);
    assert_eq!(sys.request_policy_name(), "scheme2");
    assert_eq!(sys.response_policy_name(), "scheme1");
    let dbg = format!("{sys:?}");
    assert!(dbg.contains("scheme2") && dbg.contains("scheme1"), "{dbg}");

    let mut cfg = SystemConfig::baseline_32();
    cfg.policy.request = RequestPolicyKind::Scheme2;
    let sys = build_system(cfg, &apps);
    assert_eq!(sys.request_policy_name(), "scheme2");
    assert_eq!(sys.response_policy_name(), "baseline");
}

/// Probes observe every layer without changing the simulation.
#[test]
fn counting_probe_observes_without_perturbing() {
    let cfg = SystemConfig::baseline_32().with_both_schemes();
    let apps = workload(WORKLOAD).apps();
    let mut plain = build_system(cfg.clone(), &apps);
    let mut probed = build_system(cfg, &apps);
    let (probe, counters) = CountingProbe::new();
    probed.attach_probe(Box::new(probe));

    let cycles = 6_000;
    plain.run(cycles);
    probed.run(cycles);

    let [hops, high_hops, mc_dequeues, _expedited, retirements, offchip] = counters.snapshot();
    assert!(hops > 0, "router hops must be observed");
    assert!(
        high_hops > 0,
        "with both schemes on, some flits travel at high priority"
    );
    assert!(mc_dequeues > 0, "controller dequeues must be observed");
    assert!(retirements > 0, "retirements must be observed");
    assert!(offchip > 0, "off-chip retirements must be observed");

    // Observation is free: the probed system walked the same trajectory.
    assert_eq!(plain.now(), probed.now());
    assert_eq!(plain.txns_in_flight(), probed.txns_in_flight());
    let (a, b) = (plain.network_stats(), probed.network_stats());
    assert_eq!(a.packets_injected.get(), b.packets_injected.get());
    assert_eq!(a.packets_delivered.get(), b.packets_delivered.get());
    for core in 0..4 {
        assert_eq!(
            plain.tracker().app(core).total.count(),
            probed.tracker().app(core).total.count(),
            "core {core} latency samples diverged under observation"
        );
    }
}
