//! What the benchmark declares: its workloads and every metric name with
//! its unit. `BENCHMARK.json` at the repository root carries the same
//! lists (a unit test keeps the two equal); results are built through
//! [`Metrics`], which refuses names that are not declared here.
//!
//! Naming rule: a name containing `.sim.` is *simulated* (an exact,
//! seed-determined count or cycle figure read from the model's public
//! statistics); every other name is *host* time, memory or a host-side
//! count.

use std::collections::BTreeMap;

use noclat_engine::{Json, Obj};

/// The six workloads, in the order `run` executes them. `BENCHMARK.json`
/// names all but [`UNGATED`].
pub const WORKLOADS: [&str; 6] = [
    "paper_load",
    "mem_bound",
    "idle_heavy",
    "big_fabric",
    "fig_sweep",
    "sweepd",
];

/// The workloads the acceptance driver does not run: what they time is two
/// simulations side by side for seconds on end, and on a shared host that
/// spreads 10-25 % between runs of the same code, more than any bound the
/// driver accepts leaves room for (see `figsweep` and `sweepd`).
pub const UNGATED: [&str; 2] = ["fig_sweep", "sweepd"];

/// End-to-end metrics, from the untraced run. The benchmark contract wants
/// one list that every workload it runs reports in full, never 0: a
/// simulation workload measures the metrics the issue lists for the sweep
/// workloads on its own cells, or with a short fixed probe beside its main
/// leg (`sweepd::probe`) that says nothing about that workload — the
/// README's table marks those cells. The [`UNGATED`] workloads report what
/// they measure themselves and 0 for the rest.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("sim_cycles_per_s.cycle", "cyc/s"),
    ("sim_cycles_per_s.event", "cyc/s"),
    ("peak_rss_mb", "MiB"),
    ("cells_per_s", "1/s"),
    ("ack_p50_ms", "ms"),
    ("cold_cell_p50_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("hit_p95_ms", "ms"),
];

/// Per-layer metrics of a traced run. A workload that does not exercise a
/// layer's call reports 0 for it (counts: truthfully zero; timings: not
/// measured) — the README lists which workload measures what.
pub const PER_LAYER: [(&str, &str); 72] = [
    // core: the assembled system.
    ("core.build_ms", "ms"),
    ("core.warmup_s", "s"),
    ("core.event_over_cycle", "ratio"),
    ("core.ns_per_flit_hop", "ns"),
    ("core.ns_per_committed_instr", "ns"),
    ("core.instr_per_s", "1/s"),
    ("core.probe_overhead_pct", "%"),
    ("core.glue_share_pct", "%"),
    ("core.sim.committed", "count"),
    ("core.sim.ipc_sum", "ipc"),
    ("core.sim.offchip_txns", "count"),
    ("core.sim.offchip_lat_mean_cyc", "cyc"),
    ("core.sim.offchip_lat_p99_cyc", "cyc"),
    ("core.sim.violations", "count"),
    // noc: routers, links, injection.
    ("noc.tick_ns", "ns"),
    ("noc.tick_ns_idle", "ns"),
    ("noc.next_event_ns", "ns"),
    ("noc.router_tick_ns", "ns"),
    ("noc.share_pct", "%"),
    ("noc.sim.packets", "count"),
    ("noc.sim.hp_packets", "count"),
    ("noc.sim.flit_hops", "count"),
    ("noc.sim.bypassed", "count"),
    ("noc.sim.req_leg_cyc", "cyc"),
    ("noc.sim.resp_leg_cyc", "cyc"),
    ("noc.sim.hottest_node_share", "ratio"),
    // mem: controllers and DRAM banks.
    ("mem.tick_ns", "ns"),
    ("mem.tick_ns_idle", "ns"),
    ("mem.share_pct", "%"),
    ("mem.sim.reads", "count"),
    ("mem.sim.writes", "count"),
    ("mem.sim.row_hit_rate", "ratio"),
    ("mem.sim.ctrl_delay_cyc", "cyc"),
    ("mem.sim.bank_idleness", "ratio"),
    // cpu: the out-of-order core model.
    ("cpu.tick_ns", "ns"),
    ("cpu.next_wake_ns", "ns"),
    ("cpu.share_pct", "%"),
    ("cpu.sim.mem_stall_cycles", "count"),
    // cache: L1, L2 bank, MSHR file.
    ("cache.l1_access_ns", "ns"),
    ("cache.l2_access_ns", "ns"),
    ("cache.mshr_alloc_ns", "ns"),
    // workloads: the synthetic instruction streams.
    ("workloads.next_instr_ns", "ns"),
    ("workloads.next_instr_ns.w2", "ns"),
    ("workloads.next_instr_ns.w8", "ns"),
    ("workloads.next_instr_ns.w13", "ns"),
    ("workloads.share_pct", "%"),
    // sim: pool, journal, cancellation.
    ("sim.pool_dispatch_us.w1", "us"),
    ("sim.pool_dispatch_us.w2", "us"),
    ("sim.journal_append_us", "us"),
    ("sim.journal_scan_us_per_rec", "us"),
    ("sim.cancel_poll_ns", "ns"),
    // engine: grid runner, codec, JSON, result cache, daemon.
    ("engine.grid_overhead_ms_per_cell", "ms"),
    ("engine.codec_roundtrip_us", "us"),
    ("engine.json_parse_us", "us"),
    ("engine.cache_get_ns", "ns"),
    ("engine.cache_insert_us", "us"),
    ("engine.estimate_ms", "ms"),
    ("engine.alone_phase_s", "s"),
    ("engine.grid_phase_s", "s"),
    ("engine.resume_ms", "ms"),
    ("engine.sweepd.status_p50_ms", "ms"),
    ("engine.sweepd.dedup_joins", "count"),
    ("engine.sweepd.jobs_run", "count"),
    ("engine.sweepd.cache_hits", "count"),
    // analytic: the closed-form model, also used as a cross-check.
    ("analytic.evaluate_ms.4x8", "ms"),
    ("analytic.evaluate_ms.16x16", "ms"),
    ("analytic.sim.model_lat_cyc", "cyc"),
    ("analytic.err_pct", "%"),
    ("analytic.hottest_channel_agrees", "bool"),
    // bench: the figure binary as a process, and this benchmark's tracing.
    ("bench.fig11_spawn_ms", "ms"),
    ("bench.trace_spans", "count"),
    ("bench.traced_cycles_per_s", "cyc/s"),
];

/// Named values of one run, restricted to one declared list.
#[derive(Debug)]
pub struct Metrics {
    declared: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    #[must_use]
    pub fn new(declared: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            declared,
            values: BTreeMap::new(),
        }
    }

    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the declared list: an undeclared metric
    /// is a bug in this benchmark, never a property of the input.
    pub fn set(&mut self, name: &str, value: f64) {
        let (declared, _) = self
            .declared
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared in spec.rs"));
        self.values.insert(declared, value);
    }

    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Every declared metric in declaration order; unset ones read 0.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.declared
            .iter()
            .map(|&(name, unit)| (name, unit, self.get(name).unwrap_or(0.0)))
    }

    /// `{"name": {"value": v, "unit": u}, ...}` over every declared metric.
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.rows()
            .fold(Obj::new(), |obj, (name, unit, value)| {
                obj.field(
                    name,
                    Obj::new().field("value", value).field("unit", unit).build(),
                )
            })
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses")
    }

    fn names_and_units(list: &Json) -> BTreeSet<(String, String)> {
        let Json::Arr(items) = list else {
            panic!("expected an array");
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn declared(list: &[(&str, &str)]) -> BTreeSet<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn emitted_metric_names_equal_the_declared_manifest() {
        let doc = manifest();
        assert_eq!(
            names_and_units(doc.get("end_to_end").unwrap()),
            declared(&END_TO_END)
        );
        assert_eq!(
            names_and_units(doc.get("per_layer").unwrap()),
            declared(&PER_LAYER)
        );
        // What a run emits is exactly what `rows` walks: the declared list.
        let emitted: BTreeSet<_> = Metrics::new(&PER_LAYER)
            .rows()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(emitted, declared(&PER_LAYER));
    }

    #[test]
    fn workload_names_equal_the_declared_manifest() {
        let doc = manifest();
        let Some(Json::Arr(items)) = doc.get("workloads") else {
            panic!("workloads array");
        };
        let names: Vec<&str> = items
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let gated: Vec<&str> = WORKLOADS
            .into_iter()
            .filter(|w| !UNGATED.contains(w))
            .collect();
        assert_eq!(names, gated);
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok(name, "_.-", 64), "bad metric name {name:?}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(ok(unit, "_/%.-", 16), "bad unit {unit:?}");
            assert!(seen.insert(*name), "duplicate metric {name:?}");
        }
        for w in WORKLOADS {
            assert!(ok(w, "_.-", 64) && seen.insert(w), "bad workload {w:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_refused() {
        Metrics::new(&END_TO_END).set("latency_ms", 1.0);
    }
}
