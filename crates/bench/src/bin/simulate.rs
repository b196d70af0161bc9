//! General-purpose CLI front end for the simulator.
//!
//! ```text
//! simulate [--workload N] [--scheme none|s1|s2|both] [--cores 16|32]
//!          [--warmup CYCLES] [--measure CYCLES] [--seed SEED]
//!          [--routing xy|yx] [--sched frfcfs|frfcfs-cap|fcfs]
//!          [--policy req=NAME,resp=NAME,arb=NAME] [--kernel cycle|event]
//!          [--jobs N] [--json PATH]
//! ```
//!
//! Prints a full report: per-application IPC and off-chip behaviour,
//! latency distribution summary, controller and network statistics.
//! `--json PATH` additionally writes the per-application numbers as a
//! structured report.

use noclat::{MemSchedPolicy, Scheme, SystemConfig, SystemReport};
use noclat_engine::{self as sweep, Json, MixCell, Obj, SweepArgs};
use noclat_sim::config::RoutingAlgorithm;
use noclat_workloads::workload;

const USAGE: &str = "simulate [--workload 1..18] [--scheme none|s1|s2|both] \
     [--cores 16|32] [--warmup N] [--measure N] [--seed N] \
     [--routing xy|yx] [--sched frfcfs|frfcfs-cap|fcfs] \
     [--policy req=NAME,resp=NAME,arb=NAME] [--kernel cycle|event] \
     [--jobs N] [--json PATH]";

struct Extra {
    workload: usize,
    scheme: String,
    cores: usize,
    routing: String,
    sched: String,
}

fn parse_extra(rest: &[String]) -> Result<Extra, String> {
    let mut extra = Extra {
        workload: 2,
        scheme: "both".into(),
        cores: 32,
        routing: "xy".into(),
        sched: "frfcfs".into(),
    };
    let mut i = 0;
    while i < rest.len() {
        let key = rest[i].as_str();
        let value = || -> Result<&String, String> {
            rest.get(i + 1)
                .ok_or_else(|| format!("{key} needs a value"))
        };
        match key {
            "--workload" => extra.workload = value()?.parse().map_err(|e| format!("{e}"))?,
            "--scheme" => extra.scheme = value()?.clone(),
            "--cores" => extra.cores = value()?.parse().map_err(|e| format!("{e}"))?,
            "--routing" => extra.routing = value()?.clone(),
            "--sched" => extra.sched = value()?.clone(),
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(extra)
}

fn main() {
    // The CLI keeps its historical default window; explicit flags (which
    // follow the injected defaults) override it.
    let mut argv: Vec<String> = ["--warmup", "20000", "--measure", "150000"]
        .iter()
        .map(ToString::to_string)
        .collect();
    argv.extend(std::env::args().skip(1));
    let (args, rest) = match SweepArgs::parse_argv(&argv) {
        Ok(pair) => pair,
        Err(e) => {
            let help = e == "help";
            if !help {
                eprintln!("error: {e}");
            }
            eprintln!("usage: {USAGE}");
            std::process::exit(if help { 0 } else { 2 });
        }
    };
    let extra = match parse_extra(&rest) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: {USAGE}");
            std::process::exit(2);
        }
    };
    let mut cfg = match extra.cores {
        32 => SystemConfig::baseline_32(),
        16 => SystemConfig::baseline_16(),
        n => {
            eprintln!("error: unsupported core count {n} (16 or 32)");
            std::process::exit(2);
        }
    };
    cfg = match Scheme::parse(&extra.scheme) {
        Ok(scheme) => cfg.with_scheme(scheme),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    cfg.noc.routing = match extra.routing.as_str() {
        "xy" => RoutingAlgorithm::XY,
        "yx" => RoutingAlgorithm::YX,
        other => {
            eprintln!("error: unknown routing {other}");
            std::process::exit(2);
        }
    };
    cfg.mem.scheduler = match extra.sched.as_str() {
        "frfcfs" => MemSchedPolicy::FrFcfs,
        "frfcfs-cap" => MemSchedPolicy::FrFcfsCap(4),
        "fcfs" => MemSchedPolicy::Fcfs,
        other => {
            eprintln!("error: unknown scheduler {other}");
            std::process::exit(2);
        }
    };
    cfg.seed = args.seed;
    if !(1..=18).contains(&extra.workload) {
        eprintln!("error: workload {} out of range (1..=18)", extra.workload);
        eprintln!("usage: {USAGE}");
        std::process::exit(2);
    }

    let w = workload(extra.workload);
    let apps = if extra.cores == 16 {
        w.first_half()
    } else {
        w.apps()
    };
    // The runner applies `--policy` to the cell; name what it resolves to.
    let req_policy = args.policy.request.unwrap_or(cfg.policy.request).name();
    let resp_policy = args.policy.response.unwrap_or(cfg.policy.response).name();
    println!(
        "simulating {} ({:?}) on {} cores, scheme={}, policy={req_policy}/{resp_policy}, \
         routing={}, sched={}, {}+{} cycles",
        w.name(),
        w.kind,
        extra.cores,
        extra.scheme,
        extra.routing,
        extra.sched,
        args.lengths.warmup,
        args.lengths.measure
    );
    let t0 = std::time::Instant::now();
    let cell = MixCell::new("simulate", cfg, apps);
    let mut results = sweep::run_mix_grid(&args, vec![cell], |r| {
        let per_app: Vec<(String, f64, u64)> = r
            .per_app
            .iter()
            .map(|a| (a.app.name().to_string(), a.ipc, a.offchip))
            .collect();
        (format!("{}", SystemReport::from_result(r)), per_app)
    });
    let (report_text, per_app) = results.remove(0);
    eprintln!("simulated in {:?}", t0.elapsed());
    println!("{report_text}");

    let apps_json: Vec<Json> = per_app
        .iter()
        .map(|(name, ipc, offchip)| {
            Obj::new()
                .field("app", name.clone())
                .field("ipc", *ipc)
                .field("offchip", *offchip)
                .build()
        })
        .collect();
    let json = sweep::report(
        "simulate",
        &args,
        Obj::new()
            .field("workload", extra.workload)
            .field("scheme", extra.scheme)
            .field("request_policy", req_policy)
            .field("response_policy", resp_policy)
            .field("cores", extra.cores)
            .field("routing", extra.routing)
            .field("sched", extra.sched)
            .field("per_app", Json::Arr(apps_json))
            .build(),
    );
    sweep::finish(&args, &json);
}
