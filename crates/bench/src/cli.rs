//! The two general-purpose front ends: `simulate` (one cell, full report)
//! and `faultsim` (link drop rates × schemes). Both keep their historical
//! default windows as injected default arguments (see [`crate::FIGURES`]),
//! which explicit flags override.

use noclat::{FaultPlan, MemSchedPolicy, Scheme, SystemConfig, SystemReport};
use noclat_engine::{self as sweep, ExitCode, Json, MixCell, Obj, RestFlags, SweepArgs};
use noclat_sim::config::RoutingAlgorithm;

use crate::{usage_of, w};

/// `--workload N`, in the paper's 1..=18.
fn workload_index(value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if (1..=18).contains(&n) => Ok(n),
        Ok(n) => Err(format!("workload {n} out of range (1..=18)")),
        Err(e) => Err(e.to_string()),
    }
}

/// The flags of `simulate` beyond the shared set.
pub fn simulate_usage() -> String {
    format!(
        "[--workload 1..18] [--scheme {}] [--cores 16|32] [--routing {}] [--sched {}]",
        Scheme::HELP,
        RoutingAlgorithm::HELP,
        MemSchedPolicy::HELP
    )
}

/// Simulates one workload and prints the full report: per-application IPC
/// and off-chip behaviour, latency distribution summary, controller and
/// network statistics, and the `robustness:` line.
pub fn simulate(args: &SweepArgs, rest: &[String]) -> Json {
    let usage = usage_of("simulate");
    let mut flags = RestFlags::new(rest, &usage);
    let workload = flags.take("--workload", workload_index).unwrap_or(2);
    let scheme = flags.take("--scheme", |s| {
        Scheme::parse(s).map(|scheme| (s.to_string(), scheme))
    });
    let (scheme_name, scheme) = scheme.unwrap_or(("both".into(), Scheme::Both));
    let cores = flags.take("--cores", |s| match s {
        "32" => Ok(32usize),
        "16" => Ok(16),
        other => Err(format!("expected 16|32, got {other}")),
    });
    let cores = cores.unwrap_or(32);
    let routing = flags.take("--routing", RoutingAlgorithm::parse);
    let routing = routing.unwrap_or(RoutingAlgorithm::XY);
    let sched = flags.take("--sched", MemSchedPolicy::parse);
    let sched = sched.unwrap_or(MemSchedPolicy::FrFcfs);
    flags.finish();

    let mix = w(workload);
    let (system, apps) = match cores {
        16 => (SystemConfig::baseline_16(), mix.first_half()),
        _ => (SystemConfig::baseline_32(), mix.apps()),
    };
    let mut cfg = system.with_scheme(scheme);
    cfg.noc.routing = routing;
    cfg.mem.scheduler = sched;
    cfg.seed = args.seed;
    // The runner applies `--policy` to the cell; name what it resolves to.
    let req_policy = args.policy.request.unwrap_or(cfg.policy.request).name();
    let resp_policy = args.policy.response.unwrap_or(cfg.policy.response).name();
    let (name, kind, window) = (mix.name(), mix.kind, args.lengths);
    let (routing_name, sched_name) = (routing.name(), sched.name());
    println!(
        "simulating {name} ({kind:?}) on {cores} cores, scheme={scheme_name}, \
         policy={req_policy}/{resp_policy}, routing={routing_name}, sched={sched_name}, \
         {}+{} cycles",
        window.warmup, window.measure
    );
    let t0 = std::time::Instant::now();
    let cell = MixCell::new("simulate", cfg, apps);
    let mut results = sweep::run_mix_grid(args, vec![cell], |r| {
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
        .into_iter()
        .map(|(name, ipc, offchip)| {
            Obj::new()
                .field("app", name)
                .field("ipc", ipc)
                .field("offchip", offchip)
                .build()
        })
        .collect();
    Obj::new()
        .field("workload", workload)
        .field("scheme", scheme_name)
        .field("request_policy", req_policy)
        .field("response_policy", resp_policy)
        .field("cores", cores)
        .field("routing", routing_name)
        .field("sched", sched_name)
        .field("per_app", Json::Arr(apps_json))
        .build()
}

/// Runs the 32-core system under uniformly random link drops at increasing
/// rates, for every scheme combination, as one 16-cell grid, one row per
/// cell. With the recovery layer on (the default) every drop rate must
/// retire all transactions and re-inject every dropped packet: a row with
/// `lost != 0` or `dropped != retries` (a packet abandoned without a
/// record) exits with [`ExitCode::Watchdog`], distinct from config errors
/// (2) and quarantined jobs (3/4), so CI can tell a liveness regression
/// apart from a harness failure.
pub fn faultsim(args: &SweepArgs, rest: &[String]) -> Json {
    const DROP_RATES: [f64; 4] = [0.0, 1e-5, 1e-4, 1e-3];
    let usage = usage_of("faultsim");
    let mut flags = RestFlags::new(rest, &usage);
    let widx = flags.take("--workload", workload_index).unwrap_or(2);
    flags.finish();

    println!(
        "fault sweep: workload {widx}, {}+{} cycles, drop rates {:?}",
        args.lengths.warmup, args.lengths.measure, DROP_RATES
    );
    println!("   scheme drop-rate   offchip     ipc  dropped  retries timeouts   lost violations");
    let mut grid = Vec::new();
    for scheme in Scheme::ALL {
        for rate in DROP_RATES {
            let mut cfg = SystemConfig::baseline_32().with_scheme(scheme);
            cfg.seed = args.seed;
            if rate > 0.0 {
                cfg.faults = FaultPlan::uniform_drop(args.seed ^ rate.to_bits(), rate);
            }
            let label = format!("faultsim/{}/{rate:e}", scheme.name());
            grid.push(MixCell::new(label, cfg, w(widx).apps()));
        }
    }
    // Completed off-chip accesses, aggregate IPC, the robustness counters.
    let cells = sweep::run_mix_grid(args, grid, |r| {
        let rb = r.system.robustness();
        (
            r.per_app.iter().map(|a| a.offchip).sum::<u64>(),
            r.per_app.iter().map(|a| a.ipc).sum::<f64>(),
            rb.packets_dropped,
            rb.retries,
            rb.timeouts,
            rb.lost_txns,
            rb.violations,
        )
    });

    let mut all_retired = true;
    let mut cells_json = Vec::new();
    let points = Scheme::ALL
        .iter()
        .flat_map(|s| DROP_RATES.map(|rate| (s.name(), rate)));
    for ((scheme, rate), cell) in points.zip(cells) {
        let (offchip, ipc, dropped, retries, timeouts, lost, violations) = cell;
        all_retired &= lost == 0 && dropped == retries;
        println!(
            "{scheme:>9} {rate:>9.0e} {offchip:>9} {ipc:>7.3} {dropped:>8} {retries:>8} \
             {timeouts:>8} {lost:>6} {violations:>10}"
        );
        cells_json.push(
            Obj::new()
                .field("scheme", scheme)
                .field("drop_rate", rate)
                .field("offchip", offchip)
                .field("ipc", ipc)
                .field("dropped", dropped)
                .field("retries", retries)
                .field("timeouts", timeouts)
                .field("lost", lost)
                .field("violations", violations)
                .build(),
        );
    }
    let body = Obj::new()
        .field("workload", widx)
        .field("all_retired", all_retired)
        .field("cells", Json::Arr(cells_json))
        .build();
    if all_retired {
        println!("\nall transactions retired under every drop rate (zero lost)");
    } else {
        println!("\nWARNING: transactions were lost or dropped packets never retried");
        // The report is still written; only the exit status differs.
        sweep::finish(args, &sweep::report("faultsim", args, body));
        ExitCode::Watchdog.exit();
    }
    body
}
