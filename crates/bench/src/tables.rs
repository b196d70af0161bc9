//! The paper's two tables: the simulated configuration and the workloads.
//! Neither simulates anything.

use noclat::{McPlacement, SystemConfig, TopologyKind};
use noclat_engine::{Json, Obj, SweepArgs};
use noclat_sim::config::RoutingAlgorithm;
use noclat_workloads::{all_workloads, WorkloadKind};

/// Table 1 — the simulated system in the layout of the paper's table, so
/// any divergence from the published parameters is visible at a glance
/// (calibrated DRAM timings are flagged). There is no cell to hand to a
/// runner, so the sweep's overrides are applied by hand and read back.
pub fn table1(args: &SweepArgs, _: &[String]) -> Json {
    let mut c = SystemConfig::baseline_32();
    args.apply_policy(&mut c);
    let (cores, topo, mem, noc) = (c.num_cores(), c.topology, c.mem, c.noc);
    let fabric = match topo.kind {
        TopologyKind::CMesh => format!("cmesh (concentration {})", topo.concentration),
        TopologyKind::Express => format!("express (skip {})", topo.express_skip),
        kind => kind.name().to_string(),
    };
    let routing = match noc.routing {
        RoutingAlgorithm::XY => "X-Y",
        RoutingAlgorithm::YX => "Y-X",
    };
    let placement = match topo.mc_placement {
        McPlacement::Corner => "corners",
        McPlacement::Edge => "edges",
        McPlacement::Center => "center",
    };
    let mut rows_json = Vec::new();
    let mut row = |parameter: &str, value: String| {
        println!("{parameter:34} | {value}");
        let row = Obj::new().field("parameter", parameter);
        rows_json.push(row.field("value", value).build());
    };
    row(
        "Processors",
        format!(
            "{cores} out-of-order cores, window {}, LSQ {}",
            c.cpu.window_size, c.cpu.lsq_size
        ),
    );
    row(
        "NoC architecture",
        format!("{} x {} {fabric}", topo.height, topo.width),
    );
    row(
        "Private L1 D&I caches",
        format!(
            "direct mapped, {} KB, {} B lines, {}-cycle access",
            c.l1.size_bytes / 1024,
            c.l1.line_bytes,
            c.l1.latency
        ),
    );
    row(
        "L2 cache banks",
        format!("{cores} (one per tile, S-NUCA interleaved)"),
    );
    row(
        "L2 cache",
        format!(
            "{} B lines, {}-cycle access, {}-way",
            c.l2.line_bytes, c.l2.latency, c.l2.associativity
        ),
    );
    row(
        "L2 bank size",
        format!("{} KB", c.l2.bank_size_bytes / 1024),
    );
    row(
        "Banks per memory controller",
        mem.banks_per_controller.to_string(),
    );
    row(
        "Memory configuration",
        format!(
            "bus multiplier {}, bank busy {} DRAM cyc (paper: 22 core cyc), \
             rank delay {}, read-write delay {}, CTL latency {} cyc, refresh {} DRAM cyc",
            mem.bus_multiplier,
            mem.bank_busy,
            mem.rank_delay,
            mem.read_write_delay,
            mem.ctl_latency,
            mem.refresh_period
        ),
    );
    row(
        "Coherence protocol",
        "private-workload request/response (paper: MOESI_CMP_Directory; \
         multiprogrammed workloads share nothing)"
            .to_string(),
    );
    row(
        "NoC parameters",
        format!(
            "{:?} router, flit {} bits, buffer {} flits, {} VCs/port, {routing} routing",
            noc.pipeline, noc.flit_bits, noc.buffer_depth, noc.vcs_per_port
        ),
    );
    row(
        "Memory controllers",
        format!(
            "{} at {} {placement}",
            mem.num_controllers,
            topo.kind.name()
        ),
    );
    row(
        "Scheme-1 defaults",
        format!(
            "threshold {} x Delay_avg, update period {} cycles",
            c.scheme1.threshold_factor, c.scheme1.update_period
        ),
    );
    row(
        "Scheme-2 defaults",
        format!(
            "history window T = {} cycles, idle threshold {}",
            c.scheme2.history_window, c.scheme2.idle_threshold
        ),
    );
    row(
        "Prioritization policies",
        format!(
            "request {}, response {}, arbitration {:?}",
            c.policy.request.name(),
            c.policy.response.name(),
            noc.starvation
        ),
    );
    Obj::new().field("rows", Json::Arr(rows_json)).build()
}

/// Table 2 — the 18 multiprogrammed workloads, exactly as listed in the
/// paper (instance counts in parentheses).
pub fn table2(_: &SweepArgs, _: &[String]) -> Json {
    let mut current = None;
    let mut rows_json = Vec::new();
    for w in all_workloads() {
        if current != Some(w.kind) {
            current = Some(w.kind);
            let label = match w.kind {
                WorkloadKind::Mixed => "MIXED",
                WorkloadKind::MemIntensive => "MEM-INTENSIVE",
                WorkloadKind::MemNonIntensive => "MEM-NON-INTENSIVE",
            };
            println!("\n--- {label} ---");
        }
        let desc: Vec<String> = w
            .entries
            .iter()
            .map(|(app, n)| format!("{}({n})", app.name()))
            .collect();
        println!("{:12} {}", w.name(), desc.join(", "));
        assert_eq!(w.num_apps(), 32);
        rows_json.push(
            Obj::new()
                .field("workload", w.name())
                .field("kind", format!("{:?}", w.kind))
                .field("apps", desc)
                .build(),
        );
    }
    Obj::new().field("workloads", Json::Arr(rows_json)).build()
}
