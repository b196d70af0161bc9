//! Tests of the configuration values, their validation and their grammar.

use super::*;
use crate::check;
use crate::error::FaultError;

#[test]
fn baseline_matches_table1() {
    let cfg = SystemConfig::baseline_32();
    assert_eq!(cfg.topology.num_nodes(), 32);
    assert_eq!(cfg.cpu.window_size, 128);
    assert_eq!(cfg.cpu.lsq_size, 64);
    assert_eq!(cfg.l1.size_bytes, 32 * 1024);
    assert_eq!(cfg.l1.num_sets(), 512);
    assert_eq!(cfg.l2.sets_per_bank(), 512);
    assert_eq!(cfg.noc.vcs_per_port, 4);
    assert_eq!(cfg.noc.buffer_depth, 5);
    assert_eq!(cfg.noc.flit_bits, 128);
    assert_eq!(cfg.mem.num_controllers, 4);
    assert_eq!(cfg.mem.banks_per_controller, 16);
    // DRAM timing values are calibrated (see the MemConfig defaults);
    // sanity-check the structural knobs instead of exact figures.
    assert!(cfg.mem.bank_busy >= cfg.mem.row_hit_latency);
    assert!(cfg.mem.rank_delay >= 1);
    assert!(cfg.mem.read_write_delay >= 1);
    cfg.validate().expect("baseline must be valid");
}

#[test]
fn baseline_16_shrinks_mesh_and_mcs() {
    let cfg = SystemConfig::baseline_16();
    assert_eq!(cfg.topology.num_nodes(), 16);
    assert_eq!(cfg.mem.num_controllers, 2);
    cfg.validate().expect("16-core baseline must be valid");
}

#[test]
fn scheme_toggles() {
    let cfg = SystemConfig::baseline_32().with_both_schemes();
    assert_eq!(cfg.policy.response, ResponsePolicyKind::Scheme1);
    assert_eq!(cfg.policy.request, RequestPolicyKind::Scheme2);
    let cfg = SystemConfig::baseline_32().with_scheme1();
    assert_eq!(cfg.policy.response, ResponsePolicyKind::Scheme1);
    assert_eq!(cfg.policy.request, RequestPolicyKind::Baseline);
}

#[test]
fn scheme_names_match_the_toggles() {
    let base = SystemConfig::baseline_32;
    assert_eq!(base().with_scheme(Scheme::Baseline), base());
    assert_eq!(base().with_scheme(Scheme::S1), base().with_scheme1());
    assert_eq!(base().with_scheme(Scheme::S2), base().with_scheme2());
    assert_eq!(base().with_scheme(Scheme::Both), base().with_both_schemes());
    // Exactly the named schemes: selecting one switches the other off.
    let s2_only = base().with_both_schemes().with_scheme(Scheme::S2);
    assert_eq!(s2_only, base().with_scheme2());
}

#[test]
fn validation_rejects_bad_configs() {
    let mut cfg = SystemConfig::baseline_32();
    cfg.topology.width = 1;
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::MeshTooSmall { .. })
    ));

    let mut cfg = SystemConfig::baseline_32();
    cfg.mem.num_controllers = 3;
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::UnsupportedControllerCount(3))
    ));

    let mut cfg = SystemConfig::baseline_32();
    cfg.noc.vcs_per_port = 3;
    assert!(matches!(cfg.validate(), Err(ConfigError::BadVcCount(3))));

    let mut cfg = SystemConfig::baseline_32();
    cfg.l1.line_bytes = 32;
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::LineSizeMismatch { .. })
    ));

    let mut cfg = SystemConfig::baseline_32();
    for not_positive in [0.0, -1.0, f64::NAN] {
        cfg.scheme1.threshold_factor = not_positive;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadThresholdFactor(_))
        ));
    }

    let mut cfg = SystemConfig::baseline_32();
    cfg.mem.num_controllers = 64;
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::ControllersExceedNodes { .. })
    ));

    let mut cfg = SystemConfig::baseline_32();
    cfg.l1.size_bytes = 32 * 1024 + 1;
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::CacheSizeNotLineMultiple { cache: "L1", .. })
    ));

    let mut cfg = SystemConfig::baseline_32();
    cfg.l2.bank_size_bytes = 512 * 1024 + 64;
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::CacheSizeNotLineMultiple { cache: "L2", .. })
    ));

    let mut cfg = SystemConfig::baseline_32();
    cfg.watchdog.deadlock_cycles = 0;
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::ZeroWatchdogInterval)
    ));
    cfg.watchdog.enabled = false;
    assert!(cfg.validate().is_ok(), "disabled watchdog is unchecked");

    let mut cfg = SystemConfig::baseline_32();
    cfg.recovery.timeout = 0;
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::ZeroRecoveryTimeout)
    ));

    let mut cfg = SystemConfig::baseline_32();
    cfg.faults = crate::faults::FaultPlan::uniform_drop(1, 2.0);
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::InvalidFaultPlan(_))
    ));
}

#[test]
fn topology_baselines_are_valid_on_every_fabric() {
    for base in [
        SystemConfig::baseline_16(),
        SystemConfig::baseline_32(),
        SystemConfig::baseline_256(),
        SystemConfig::baseline_1024(),
    ] {
        let (w, h) = (base.topology.width, base.topology.height);
        for topo in [
            TopologyConfig::mesh(w, h),
            TopologyConfig::torus(w, h),
            TopologyConfig::cmesh(w, h, 2),
            TopologyConfig::cmesh(w, h, 4),
            TopologyConfig::express(w, h, 2),
        ] {
            // 4×4 with c=4 gives a 2×2 router grid — still valid.
            let mut cfg = base.clone();
            cfg.topology = topo;
            cfg.validate()
                .unwrap_or_else(|e| panic!("{} must validate: {e}", topo.label()));
        }
    }
    assert_eq!(SystemConfig::baseline_256().num_cores(), 256);
    assert_eq!(SystemConfig::baseline_1024().num_cores(), 1024);
}

#[test]
fn validation_rejects_bad_topologies() {
    // Concentration 0 (and any value outside {1,2,4}) is typed, not a
    // deep panic in network construction.
    let mut cfg = SystemConfig::baseline_256();
    cfg.topology = TopologyConfig::cmesh(16, 16, 0);
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::BadConcentration {
            concentration: 0,
            ..
        })
    ));
    cfg.topology = TopologyConfig::cmesh(16, 16, 3);
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::BadConcentration { .. })
    ));

    // Blocks must tile the grid and leave a router mesh of >= 2x2.
    cfg.topology = TopologyConfig::cmesh(5, 4, 2);
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::ConcentrationDoesNotDivide { .. })
    ));
    cfg.topology = TopologyConfig::cmesh(2, 2, 4);
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::ConcentrationDoesNotDivide { .. })
    ));

    // Concentration on a non-concentrated fabric is rejected.
    cfg.topology = TopologyConfig::mesh(16, 16);
    cfg.topology.concentration = 2;
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::BadConcentration { .. })
    ));

    // Express skip must fit strictly inside both dimensions.
    let mut cfg = SystemConfig::baseline_32();
    cfg.topology = TopologyConfig::express(8, 4, 4);
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::BadExpressSkip { skip: 4, .. })
    ));
    cfg.topology = TopologyConfig::express(8, 4, 1);
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::BadExpressSkip { skip: 1, .. })
    ));
    // ... and a stray skip on a plain mesh is rejected too.
    cfg.topology = TopologyConfig::mesh(8, 4);
    cfg.topology.express_skip = 2;
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::BadExpressSkip { skip: 2, .. })
    ));

    // Torus needs the VC count divisible by 4 for dateline subclasses.
    let mut cfg = SystemConfig::baseline_32();
    cfg.topology = TopologyConfig::torus(8, 4);
    cfg.noc.vcs_per_port = 6;
    assert!(matches!(
        cfg.validate(),
        Err(ConfigError::TorusNeedsDatelineVcs(6))
    ));
    cfg.noc.vcs_per_port = 4;
    assert!(cfg.validate().is_ok());
}

#[test]
fn topology_override_parses_and_applies() {
    let ov = TopologyOverride::parse("torus").expect("valid spec");
    assert_eq!(ov.kind, Some(TopologyKind::Torus));
    let mut cfg = SystemConfig::baseline_32();
    ov.apply(&mut cfg);
    assert_eq!(cfg.topology, TopologyConfig::torus(8, 4));

    let ov = TopologyOverride::parse("cmesh:c=2,mc=edge").expect("valid spec");
    let mut cfg = SystemConfig::baseline_256();
    ov.apply(&mut cfg);
    assert_eq!(cfg.topology.kind, TopologyKind::CMesh);
    assert_eq!(cfg.topology.concentration, 2);
    assert_eq!(cfg.topology.mc_placement, McPlacement::Edge);
    assert_eq!(cfg.topology.width, 16, "grid dimensions are preserved");

    // Per-fabric defaults fill unspecified parameters.
    let ov = TopologyOverride::parse("cmesh").expect("valid spec");
    let mut cfg = SystemConfig::baseline_256();
    ov.apply(&mut cfg);
    assert_eq!(cfg.topology.concentration, 4);
    let ov = TopologyOverride::parse("express").expect("valid spec");
    let mut cfg = SystemConfig::baseline_256();
    ov.apply(&mut cfg);
    assert_eq!(cfg.topology.express_skip, 2);

    // Switching back to mesh clears fabric parameters.
    let ov = TopologyOverride::parse("mesh").expect("valid spec");
    let mut cfg = SystemConfig::baseline_256();
    cfg.topology = TopologyConfig::cmesh(16, 16, 4);
    ov.apply(&mut cfg);
    assert_eq!(cfg.topology, TopologyConfig::mesh(16, 16));

    // mc-only override keeps the fabric.
    let ov = TopologyOverride::parse("").expect("empty is fine");
    assert!(ov.is_empty());
}

#[test]
fn topology_override_rejects_bad_specs() {
    assert!(TopologyOverride::parse("ring").is_err());
    assert!(TopologyOverride::parse("cmesh:c=x").is_err());
    assert!(TopologyOverride::parse("express:skip=").is_err());
    assert!(TopologyOverride::parse("torus:mc=middle").is_err());
    assert!(TopologyOverride::parse("mesh:speed=9").is_err());
    assert!(TopologyOverride::parse("mesh:c").is_err());
    // A parameter the named fabric does not take is refused, not dropped.
    assert_eq!(
        TopologyOverride::parse("mesh:c=4").unwrap_err(),
        "mesh takes no c= parameter"
    );
    assert_eq!(
        TopologyOverride::parse("torus:ruche=3").unwrap_err(),
        "torus takes no skip= parameter"
    );
    assert!(TopologyOverride::parse("cmesh:skip=2").is_err());
}

#[test]
fn topology_labels_are_compact() {
    assert_eq!(TopologyConfig::mesh(8, 4).label(), "mesh:8x4");
    assert_eq!(TopologyConfig::torus(16, 16).label(), "torus:16x16");
    assert_eq!(TopologyConfig::cmesh(16, 16, 4).label(), "cmesh:16x16,c=4");
    let mut t = TopologyConfig::express(32, 32, 2);
    t.mc_placement = McPlacement::Center;
    assert_eq!(t.label(), "express:32x32,skip=2,mc=center");
}

#[test]
fn age_field_saturates_at_4095() {
    let cfg = SystemConfig::baseline_32();
    assert_eq!(cfg.noc.max_age(), 4095);
}

#[test]
fn pipeline_residency() {
    assert_eq!(RouterPipeline::FiveStage.min_residency(), 4);
    assert_eq!(RouterPipeline::TwoStage.min_residency(), 1);
}

#[test]
fn new_policy_enums_default_to_paper_baseline() {
    let cfg = SystemConfig::baseline_32();
    assert_eq!(cfg.noc.routing, RoutingAlgorithm::XY);
    assert_eq!(cfg.noc.starvation, StarvationPolicy::AgeGuard);
    assert_eq!(cfg.mem.scheduler, MemSchedPolicy::FrFcfs);
}

#[test]
fn policy_kinds_default_to_baseline_and_keep_their_own_vocabulary() {
    assert_eq!(
        SystemConfig::baseline_32().policy,
        PolicyConfig {
            request: RequestPolicyKind::Baseline,
            response: ResponsePolicyKind::Baseline,
        }
    );
    // Each slot has its own vocabulary, and the error lists it.
    let err = RequestPolicyKind::parse("scheme1").unwrap_err();
    assert_eq!(
        err,
        "unknown request policy \"scheme1\" \
         (known: baseline, scheme2)"
    );
    let err = ResponsePolicyKind::parse("fifo").unwrap_err();
    assert_eq!(
        err,
        "unknown response policy \"fifo\" \
         (known: baseline, scheme1)"
    );
}

#[test]
fn policy_override_parses_and_applies() {
    let ov = PolicyOverride::parse("req=scheme2,resp=scheme1,arb=static").expect("valid spec");
    assert_eq!(ov.request, Some(RequestPolicyKind::Scheme2));
    assert_eq!(ov.response, Some(ResponsePolicyKind::Scheme1));
    assert_eq!(ov.arbitration, Some(StarvationPolicy::StaticPriority));
    let mut cfg = SystemConfig::baseline_32();
    ov.apply(&mut cfg);
    assert_eq!(
        cfg.policy,
        SystemConfig::baseline_32().with_both_schemes().policy
    );
    assert_eq!(cfg.noc.starvation, StarvationPolicy::StaticPriority);

    // Partial overrides leave the other slots untouched.
    let ov = PolicyOverride::parse("resp=scheme1").expect("valid spec");
    assert!(ov.request.is_none());
    let mut cfg = SystemConfig::baseline_32();
    ov.apply(&mut cfg);
    assert_eq!(cfg.policy.request, RequestPolicyKind::Baseline);
    assert_eq!(cfg.policy.response, ResponsePolicyKind::Scheme1);
    assert_eq!(cfg.noc.starvation, StarvationPolicy::AgeGuard);

    assert!(PolicyOverride::parse("").expect("empty is fine").is_empty());
    assert_eq!(
        PolicyOverride::parse("arb=age-guard").unwrap().arbitration,
        Some(StarvationPolicy::AgeGuard)
    );
    assert_eq!(
        PolicyOverride::parse("arb=static").unwrap().arbitration,
        Some(StarvationPolicy::StaticPriority)
    );
}

#[test]
fn policy_override_rejects_bad_specs() {
    assert!(PolicyOverride::parse("req=fifo").is_err());
    assert!(PolicyOverride::parse("resp=scheme2").is_err());
    assert!(PolicyOverride::parse("req").is_err());
    assert!(PolicyOverride::parse("mode=fast").is_err());
    assert!(PolicyOverride::parse("arb=lottery").is_err());
    assert!(PolicyOverride::parse("arb=age-guard:5").is_err());
    // Removed values are unknown names, and the error lists the survivors.
    for (spec, known) in [
        ("arb=batching:64", "age-guard, static"),
        ("arb=oldest-first", "age-guard, static"),
        ("req=static", "baseline, scheme2"),
        ("req=oldest-first", "baseline, scheme2"),
        ("resp=oldest-first", "baseline, scheme1"),
        ("resp=static", "baseline, scheme1"),
    ] {
        let err = PolicyOverride::parse(spec).unwrap_err();
        assert!(err.ends_with(&format!("(known: {known})")), "{spec}: {err}");
    }
    let err = MemSchedPolicy::parse("frfcfs-cap").unwrap_err();
    assert_eq!(
        err,
        "unknown scheduler \"frfcfs-cap\" (known: frfcfs, fcfs)"
    );
}

#[test]
fn config_error_display_nonempty() {
    let errors: Vec<ConfigError> = vec![
        ConfigError::MeshTooSmall {
            width: 1,
            height: 1,
        },
        ConfigError::UnsupportedControllerCount(3),
        ConfigError::BadVcCount(3),
        ConfigError::ZeroBufferDepth,
        ConfigError::LineSizeMismatch { l1: 32, l2: 64 },
        ConfigError::LineSizeNotPowerOfTwo(48),
        ConfigError::BadThresholdFactor(-1.0),
        ConfigError::ControllersExceedNodes {
            controllers: 64,
            nodes: 32,
        },
        ConfigError::CacheSizeNotLineMultiple {
            cache: "L1",
            size: 1000,
            line: 64,
        },
        ConfigError::ZeroWatchdogInterval,
        ConfigError::ZeroRecoveryTimeout,
        ConfigError::InvalidFaultPlan(FaultError::BadProbability(2.0)),
        ConfigError::BadConcentration {
            concentration: 0,
            kind: TopologyKind::CMesh,
        },
        ConfigError::ConcentrationDoesNotDivide {
            concentration: 4,
            width: 5,
            height: 5,
        },
        ConfigError::BadExpressSkip {
            skip: 9,
            width: 8,
            height: 4,
        },
        ConfigError::TorusNeedsDatelineVcs(6),
    ];
    for e in errors {
        assert!(!e.to_string().is_empty());
    }
}

/// One name table per closed set: checks `parse(name(v)) == v` over `ALL`,
/// that an unknown name's error lists every known name, and that `HELP`
/// quotes them all.
macro_rules! check_vocabulary {
    ($($ty:ty),+) => {$(
        let names: Vec<&str> = <$ty>::ALL.iter().map(|v| v.name()).collect();
        for value in <$ty>::ALL {
            assert_eq!(<$ty>::parse(value.name()), Ok(value));
        }
        let err = <$ty>::parse("no-such-name").unwrap_err();
        assert!(err.contains("\"no-such-name\""), "{err}");
        assert!(err.ends_with(&format!("(known: {})", names.join(", "))), "{err}");
        assert_eq!(<$ty>::HELP, names.join("|"));
    )+};
}

#[test]
fn grammar_round_trips_every_vocabulary_and_both_overrides() {
    check_vocabulary!(
        TopologyKind,
        McPlacement,
        KernelKind,
        Scheme,
        RequestPolicyKind,
        ResponsePolicyKind,
        RoutingAlgorithm,
        MemSchedPolicy,
        StarvationPolicy
    );
    // Aliases are input only: they parse, and render as the one name.
    assert_eq!(Scheme::parse("none").map(|s| s.name()), Ok("baseline"));
    let aliased = "request=scheme2,response=scheme1,arbitration=static";
    let spelled = PolicyOverride::parse(aliased).expect("aliases parse");
    assert_eq!(spelled.to_string(), "req=scheme2,resp=scheme1,arb=static");
    let aliased = TopologyOverride::parse("cmesh:concentration=2").expect("aliases parse");
    assert_eq!(aliased.to_string(), "cmesh:c=2");
    let aliased = TopologyOverride::parse("express:ruche=3,mc=edge").expect("aliases parse");
    assert_eq!(aliased.to_string(), "express:skip=3,mc=edge");

    // The usage fragments quote every name the overrides accept.
    let help = PolicyOverride::help();
    let arbitrations = StarvationPolicy::ALL.map(|a| a.name());
    let requests = RequestPolicyKind::ALL.map(|k| k.name());
    let responses = ResponsePolicyKind::ALL.map(|k| k.name());
    for name in requests.iter().chain(&responses).chain(&arbitrations) {
        assert!(help.contains(name), "{name} missing from {help}");
    }
    let err = PolicyOverride::parse("arb=lottery").unwrap_err();
    assert!(
        err.ends_with(&format!("(known: {})", arbitrations.join(", "))),
        "{err}"
    );
    let help = TopologyOverride::help();
    let fabrics = TopologyKind::ALL.map(|k| k.name());
    let placements = McPlacement::ALL.map(|mc| mc.name());
    for name in fabrics.iter().chain(&placements) {
        assert!(help.contains(name), "{name} missing from {help}");
    }

    check::cases(200, |rng| {
        let maybe = |rng: &mut crate::rng::SimRng| rng.chance(0.5);
        let policy = PolicyOverride {
            request: maybe(rng).then(|| check::pick(rng, &RequestPolicyKind::ALL)),
            response: maybe(rng).then(|| check::pick(rng, &ResponsePolicyKind::ALL)),
            arbitration: maybe(rng).then(|| check::pick(rng, &StarvationPolicy::ALL)),
        };
        assert_eq!(PolicyOverride::parse(&policy.to_string()), Ok(policy));

        // Whatever `parse` can return: a fabric, the parameter it takes
        // (or not), a placement (or not) — or nothing at all.
        let kind = check::pick(rng, &TopologyKind::ALL);
        let param = maybe(rng).then(|| check::range_u64(rng, 0, 40) as u16);
        let mut topology = TopologyOverride {
            kind: Some(kind),
            concentration: param.filter(|_| kind == TopologyKind::CMesh),
            express_skip: param.filter(|_| kind == TopologyKind::Express),
            mc_placement: maybe(rng).then(|| check::pick(rng, &McPlacement::ALL)),
        };
        if rng.chance(0.05) {
            topology = TopologyOverride::default();
        }
        assert_eq!(TopologyOverride::parse(&topology.to_string()), Ok(topology));
        // Resolving spells the defaults out and is idempotent.
        let resolved = topology.resolved();
        assert_eq!(resolved.resolved(), resolved);
        let mut direct = SystemConfig::baseline_256();
        let mut via_text = direct.clone();
        topology.resolved().apply(&mut direct);
        let reparsed = TopologyOverride::parse(&resolved.to_string()).expect("canonical text");
        reparsed.apply(&mut via_text);
        assert_eq!(direct, via_text);
    });
}
