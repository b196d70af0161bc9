//! Fault-injection sweep: link drop rates × prioritization schemes.
//!
//! ```text
//! faultsim [--jobs N] [--json PATH] [--workload N]
//!          [--warmup CYCLES] [--measure CYCLES] [--seed SEED]
//! ```
//!
//! Runs the paper's baseline 32-core system under uniformly random link
//! drop faults at increasing rates, for every scheme configuration
//! (baseline, Scheme-1, Scheme-2, both), and prints one row per cell:
//! completed off-chip accesses, aggregate IPC, dropped packets, recovery
//! retries, timeouts, lost transactions, and watchdog violations. With the
//! recovery layer on (the default), every drop rate must retire all
//! transactions — lost must stay zero.
//!
//! All 16 cells run as one pool grid.
//!
//! Exit codes (shared with every sweep binary, see `noclat_engine::ExitCode`):
//! 0 success, 2 bad arguments/configuration, 3 a cell panicked, 4 a cell
//! exceeded `--job-timeout`, 5 transactions were lost (watchdog/liveness
//! regression).

use noclat::{FaultPlan, Scheme, SystemConfig};
use noclat_engine::{self as sweep, ExitCode, Json, MixCell, Obj, SweepArgs};
use noclat_workloads::workload;

const USAGE: &str = "faultsim [--jobs N] [--json PATH] [--workload 1..18] [--warmup N] \
     [--measure N] [--seed N] [--policy req=NAME,resp=NAME,arb=NAME] \
     [--kernel cycle|event] [--resume PATH] [--job-timeout SECS] [--retries N]";

const DROP_RATES: [f64; 4] = [0.0, 1e-5, 1e-4, 1e-3];
/// One sweep cell: completed off-chip accesses, aggregate IPC, and the
/// robustness counters.
type Cell = (u64, f64, u64, u64, u64, u64, u64);

fn main() {
    // The fault sweep keeps its historical short default window and seed;
    // explicit flags (which follow the injected defaults) override them.
    let mut argv: Vec<String> = ["--warmup", "5000", "--measure", "40000", "--seed", "42"]
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
    let mut widx = 2usize;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--workload" => {
                let Some(v) = rest.get(i + 1) else {
                    eprintln!("error: --workload needs a value");
                    std::process::exit(2);
                };
                widx = match v.parse() {
                    Ok(n) => n,
                    Err(e) => {
                        eprintln!("error: --workload: {e}");
                        std::process::exit(2);
                    }
                };
                i += 2;
            }
            other => {
                eprintln!("error: unknown argument {other}");
                eprintln!("usage: {USAGE}");
                std::process::exit(2);
            }
        }
    }
    if !(1..=18).contains(&widx) {
        eprintln!("error: workload {widx} out of range (1..=18)");
        std::process::exit(2);
    }

    let apps = workload(widx).apps();
    let lengths = args.lengths;
    println!(
        "fault sweep: workload {widx}, {}+{} cycles, drop rates {:?}",
        lengths.warmup, lengths.measure, DROP_RATES
    );
    println!(
        "{:>9} {:>9} {:>9} {:>7.7} {:>8} {:>8} {:>8} {:>6} {:>10}",
        "scheme",
        "drop-rate",
        "offchip",
        "ipc",
        "dropped",
        "retries",
        "timeouts",
        "lost",
        "violations"
    );

    let mut grid = Vec::new();
    for scheme in Scheme::ALL {
        for &rate in &DROP_RATES {
            let mut cfg = SystemConfig::baseline_32().with_scheme(scheme);
            cfg.seed = args.seed;
            if rate > 0.0 {
                cfg.faults = FaultPlan::uniform_drop(args.seed ^ rate.to_bits(), rate);
            }
            let label = format!("faultsim/{}/{rate:e}", scheme.name());
            grid.push(MixCell::new(label, cfg, apps.clone()));
        }
    }
    let cells = sweep::run_mix_grid(&args, grid, |r| -> Cell {
        let rb = r.system.robustness();
        (
            r.per_app.iter().map(|a| a.offchip).sum(),
            r.per_app.iter().map(|a| a.ipc).sum(),
            rb.packets_dropped,
            rb.retries,
            rb.timeouts,
            rb.lost_txns,
            rb.violations,
        )
    });

    let mut all_retired = true;
    let mut cells_json = Vec::new();
    for (k, scheme) in Scheme::ALL.iter().map(Scheme::name).enumerate() {
        for (j, &rate) in DROP_RATES.iter().enumerate() {
            let (offchip, ipc, dropped, retries, timeouts, lost, violations) =
                cells[k * DROP_RATES.len() + j];
            if lost > 0 {
                all_retired = false;
            }
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
    }
    if all_retired {
        println!("\nall transactions retired under every drop rate (zero lost)");
    } else {
        println!("\nWARNING: some transactions were lost despite recovery");
    }

    let json = sweep::report(
        "faultsim",
        &args,
        Obj::new()
            .field("workload", widx)
            .field("all_retired", all_retired)
            .field("cells", Json::Arr(cells_json))
            .build(),
    );
    sweep::finish(&args, &json);
    if !all_retired {
        // Distinct from config errors (2) and quarantined jobs (3/4), so CI
        // can tell a liveness regression apart from a harness failure.
        ExitCode::Watchdog.exit();
    }
}
