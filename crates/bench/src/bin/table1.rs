//! Table 1 — baseline configuration.
//!
//! Prints the simulated system's configuration in the layout of the paper's
//! Table 1, so any divergence from the published parameters is visible at a
//! glance (calibrated DRAM timings are flagged). `--json PATH` writes the
//! same rows as a structured report.

use noclat::SystemConfig;
use noclat_bench::banner;
use noclat_engine::{self as sweep, Json, Obj, SweepArgs};

fn main() {
    let args = SweepArgs::parse(&format!("table1 {}", sweep::SWEEP_USAGE));
    banner(
        "Table 1: Baseline configuration",
        "Paper values in parentheses where our model deviates (see DESIGN.md).",
    );
    let mut c = SystemConfig::baseline_32();
    args.apply_policy(&mut c);
    let rows: Vec<(&str, String)> = vec![
        (
            "Processors",
            format!(
                "{} out-of-order cores, window {}, LSQ {}",
                c.num_cores(),
                c.cpu.window_size,
                c.cpu.lsq_size
            ),
        ),
        (
            "NoC architecture",
            format!("{} x {} mesh", c.topology.height, c.topology.width),
        ),
        (
            "Private L1 D&I caches",
            format!(
                "direct mapped, {} KB, {} B lines, {}-cycle access",
                c.l1.size_bytes / 1024,
                c.l1.line_bytes,
                c.l1.latency
            ),
        ),
        (
            "L2 cache banks",
            format!("{} (one per tile, S-NUCA interleaved)", c.num_cores()),
        ),
        (
            "L2 cache",
            format!(
                "{} B lines, {}-cycle access, {}-way",
                c.l2.line_bytes, c.l2.latency, c.l2.associativity
            ),
        ),
        (
            "L2 bank size",
            format!("{} KB", c.l2.bank_size_bytes / 1024),
        ),
        (
            "Banks per memory controller",
            format!("{}", c.mem.banks_per_controller),
        ),
        (
            "Memory configuration",
            format!(
                "bus multiplier {}, bank busy {} DRAM cyc (paper: 22 core cyc), \
                 rank delay {}, read-write delay {}, CTL latency {} cyc, refresh {} DRAM cyc",
                c.mem.bus_multiplier,
                c.mem.bank_busy,
                c.mem.rank_delay,
                c.mem.read_write_delay,
                c.mem.ctl_latency,
                c.mem.refresh_period
            ),
        ),
        (
            "Coherence protocol",
            "private-workload request/response (paper: MOESI_CMP_Directory; \
             multiprogrammed workloads share nothing)"
                .to_string(),
        ),
        (
            "NoC parameters",
            format!(
                "{:?} router, flit {} bits, buffer {} flits, {} VCs/port, X-Y routing",
                c.noc.pipeline, c.noc.flit_bits, c.noc.buffer_depth, c.noc.vcs_per_port
            ),
        ),
        (
            "Memory controllers",
            format!("{} at mesh corners", c.mem.num_controllers),
        ),
        (
            "Scheme-1 defaults",
            format!(
                "threshold {} x Delay_avg, update period {} cycles",
                c.scheme1.threshold_factor, c.scheme1.update_period
            ),
        ),
        (
            "Scheme-2 defaults",
            format!(
                "history window T = {} cycles, idle threshold {}",
                c.scheme2.history_window, c.scheme2.idle_threshold
            ),
        ),
        (
            "Prioritization policies",
            format!(
                "request {}, response {}, arbitration {:?}",
                c.policy.request.name(),
                c.policy.response.name(),
                c.noc.starvation
            ),
        ),
    ];
    let mut rows_json = Vec::new();
    for (k, v) in &rows {
        println!("{k:34} | {v}");
        rows_json.push(
            Obj::new()
                .field("parameter", *k)
                .field("value", v.clone())
                .build(),
        );
    }
    let json = sweep::report(
        "table1",
        &args,
        Obj::new().field("rows", Json::Arr(rows_json)).build(),
    );
    sweep::finish(&args, &json);
}
