//! System-level coverage of the configurable policy knobs: routing and
//! arbitration compose with the full system and the schemes.

use noclat::{run_mix, RunLengths, SystemConfig};
use noclat_sim::config::{RoutingAlgorithm, StarvationPolicy};
use noclat_workloads::workload;

fn quick() -> RunLengths {
    RunLengths {
        warmup: 2_000,
        measure: 15_000,
    }
}

fn assert_runs(cfg: &SystemConfig) -> noclat::MixResult {
    let apps = workload(2).apps();
    let r = run_mix(cfg, &apps, quick());
    for a in &r.per_app {
        assert!(a.ipc > 0.0, "core {} starved under {:?}", a.core, cfg.noc);
    }
    r
}

#[test]
fn yx_routing_runs_the_full_system() {
    let mut cfg = SystemConfig::baseline_32().with_both_schemes();
    cfg.noc.routing = RoutingAlgorithm::YX;
    let r = assert_runs(&cfg);
    // The heat-map must show forwarding activity somewhere.
    assert!(r.system.forwarding_heat().iter().sum::<u64>() > 0);
}

#[test]
fn routing_choice_changes_link_loads() {
    let apps = workload(8).apps();
    let mut xy = SystemConfig::baseline_32();
    xy.noc.routing = RoutingAlgorithm::XY;
    let mut yx = xy.clone();
    yx.noc.routing = RoutingAlgorithm::YX;
    let hx = run_mix(&xy, &apps, quick()).system.forwarding_heat();
    let hy = run_mix(&yx, &apps, quick()).system.forwarding_heat();
    assert_ne!(hx, hy, "X-Y and Y-X must distribute load differently");
}

/// Strict priority has no age guard: the watchdog is the only backstop, so
/// every core must still make progress on its own.
#[test]
fn static_arbitration_runs_with_schemes() {
    let mut cfg = SystemConfig::baseline_32().with_both_schemes();
    cfg.noc.starvation = StarvationPolicy::StaticPriority;
    let r = assert_runs(&cfg);
    assert!(
        r.system.network_stats().high_priority_injected.get() > 0,
        "schemes must still mark messages under strict priority"
    );
}
