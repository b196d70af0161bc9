//! The paper's tables and figures — and this repo's extensions — as one
//! table, [`FIGURES`], behind one binary: `repro <id> [flags]` regenerates
//! one of them, `repro list` names them, `repro all <dir>` regenerates
//! `results/`. A row's `run` builds its grid of `MixCell`s from its own
//! axes, hands it to a `noclat_engine` runner, prints what comes back and
//! returns the report body; everything around that — arguments, banner,
//! report envelope, `--json` — is [`Figure::run_with`], written once.
//! Tests, CI and the docs' indexes read the same table.

use std::path::Path;
use std::process::Command;

use noclat_engine::{self as sweep, fail_usage, ExitCode, Json, RestFlags, SweepArgs};

mod cli;
mod distributions;
mod extensions;
mod speedups;
mod tables;

/// One regenerable table, figure or extension.
pub struct Figure {
    /// Its name on the command line, in report envelopes (`harness`) and in
    /// `results/<id>.txt`.
    pub id: &'static str,
    /// Banner title and caption (no banner when the title is empty).
    pub title: &'static str,
    /// See `title`.
    pub caption: &'static str,
    /// The flags it accepts beyond the shared sweep set, for usage strings
    /// (none: [`String::new`]).
    pub extra_usage: fn() -> String,
    /// Arguments injected before the command line's: its historical default
    /// window and seed, which explicit flags (parsed later) override.
    pub defaults: &'static [&'static str],
    /// Runs it, printing the rows and returning the report body; `rest` is
    /// what the shared parser did not recognize.
    pub run: fn(&SweepArgs, rest: &[String]) -> Json,
}

/// A row with no flags or defaults of its own.
const fn fig(
    id: &'static str,
    title: &'static str,
    caption: &'static str,
    run: fn(&SweepArgs, &[String]) -> Json,
) -> Figure {
    Figure {
        id,
        title,
        caption,
        extra_usage: String::new,
        defaults: &[],
        run,
    }
}

/// Every table, figure and extension, in paper order (`repro list`).
pub const FIGURES: &[Figure] = &[
    fig(
        "table1",
        "Table 1: Baseline configuration",
        "Paper values in parentheses where our model deviates (see DESIGN.md).",
        tables::table1,
    ),
    fig(
        "table2",
        "Table 2: Workloads used in the 32-core experiments",
        "18 mixes of SPEC CPU2006 applications (instance counts in parentheses).",
        tables::table2,
    ),
    fig(
        "fig04",
        "Figure 4: Per-range breakdown of off-chip access delay (milc, workload-2)",
        "Columns: delay range start | count | L1->L2 | L2->Mem | Mem | Mem->L2 | L2->L1",
        distributions::fig04,
    ),
    fig(
        "fig05",
        "Figure 5: Latency distribution of milc's off-chip accesses (workload-2)",
        "Columns: delay bin center | fraction of accesses | bar",
        distributions::fig05,
    ),
    fig(
        "fig06",
        "Figure 6: Average idleness of the banks of memory controller 0 (workload-2)",
        "A bank is idle when its queue is empty at a sampling instant.",
        distributions::fig06,
    ),
    fig(
        "fig09",
        "Figure 9: Round-trip vs so-far delay distributions (milc, workload-2)",
        "Columns: bin center | round-trip fraction | so-far fraction",
        distributions::fig09,
    ),
    fig(
        "fig11",
        "Figure 11: Normalized weighted speedup, 18 workloads, 32-core system",
        "Bars: Scheme-1 and Scheme-1+Scheme-2, normalized to the baseline.",
        speedups::fig11,
    ),
    fig(
        "fig12",
        "Figure 12: CDFs of off-chip latency, first 8 apps of workload-1; PDF of lbm",
        "(a) baseline, (b) Scheme-1, (c) lbm PDF before/after.",
        distributions::fig12,
    ),
    fig(
        "fig13",
        "Figure 13: Bank idleness of controller 0, default vs Scheme-2",
        "A bank is idle when its queue is empty at a sampling instant.",
        distributions::fig13,
    ),
    fig(
        "fig14",
        "Figure 14: Average bank idleness over time, default vs Scheme-2",
        "One row per 10k-cycle interval, averaged across controller 0's banks.",
        distributions::fig14,
    ),
    fig(
        "fig15",
        "Figure 15: Normalized weighted speedup on the 16-core (4x4) system",
        "First half of each Table-2 workload; 2 memory controllers.",
        speedups::fig15,
    ),
    fig(
        "fig16a",
        "Figure 16a: Threshold sensitivity (workloads 1-6, Scheme-1+2)",
        "Normalized WS for thresholds 1.0x, 1.2x and 1.4x Delay_avg.",
        speedups::fig16a,
    ),
    fig(
        "fig16b",
        "Figure 16b: Bank-history-length sensitivity (workloads 1-6, Scheme-1+2)",
        "Normalized WS for T = 100, 200 and 400 cycles.",
        speedups::fig16b,
    ),
    fig(
        "fig16c",
        "Figure 16c: 2 vs 4 memory controllers (workloads 1-6, Scheme-1+2)",
        "Normalized WS per controller count.",
        speedups::fig16c,
    ),
    fig(
        "fig17",
        "Figure 17: 5-stage vs 2-stage router pipelines (workloads 1-6, Scheme-1+2)",
        "Normalized WS per pipeline depth.",
        speedups::fig17,
    ),
    fig(
        "ablation_priority",
        "Ablation: prioritization machinery (workload-8)",
        "Normalized WS of Scheme-1+2 variants against the unprioritized baseline.",
        speedups::ablation_priority,
    ),
    fig(
        "ablation_memsched",
        "Ablation: FR-FCFS vs FCFS memory scheduling (workload-8)",
        "Baseline WS and Scheme-1+2 gains per scheduler.",
        speedups::ablation_memsched,
    ),
    fig(
        "ablation_vcs",
        "Ablation: VCs per port (workload-2)",
        "Baseline WS and Scheme-1+2 gains per VC count.",
        speedups::ablation_vcs,
    ),
    fig(
        "loadlatency",
        "NoC load-latency curves (extension)",
        "Table-1 network, 5-flit packets; latency in cycles vs offered load.",
        extensions::loadlatency,
    ),
    fig(
        "netmap",
        "Network heat-map (extension): router forwarding load, X-Y vs Y-X",
        "Workload-8 (memory-intensive); corners host the memory controllers.",
        extensions::netmap,
    ),
    fig(
        "slowest",
        "Slowest transactions (extension): where do late accesses lose time?",
        "Workload-8; baseline vs Scheme-1.",
        extensions::slowest,
    ),
    Figure {
        extra_usage: cli::simulate_usage,
        defaults: &["--warmup", "20000", "--measure", "150000"],
        ..fig("simulate", "", "", cli::simulate)
    },
    Figure {
        extra_usage: || "[--workload 1..18]".to_string(),
        defaults: &["--warmup", "5000", "--measure", "40000", "--seed", "42"],
        ..fig("faultsim", "", "", cli::faultsim)
    },
    Figure {
        extra_usage: || "[--size 16|32|both] [--fabrics CSV] [--mc CSV]".to_string(),
        ..fig(
            "topo_sweep",
            "Topology sweep: scheme gains across fabrics at 16x16 / 32x32",
            "Grid: topology x MC placement x scheme combo x size; workload-2 cycled per core.",
            extensions::topo_sweep,
        )
    },
    fig(
        "analytic_validate",
        "Analytic-model validation: estimator vs cycle simulator",
        "Eight golden cells (mesh-32 + torus-16x16, four scheme combos); \
         relative error of the closed-form mean-latency estimate.",
        extensions::analytic_validate,
    ),
];

impl Figure {
    /// `repro <id> <its own flags> <the shared flags>`.
    #[must_use]
    pub fn usage(&self) -> String {
        let (id, extra) = (self.id, (self.extra_usage)());
        let sep = if extra.is_empty() { "" } else { " " };
        format!("repro {id} {extra}{sep}{}", sweep::sweep_usage())
    }

    /// Its arguments as a run with command line `argv` parses them.
    fn parse(&self, argv: &[String]) -> (SweepArgs, Vec<String>) {
        let defaults = self.defaults.iter().map(ToString::to_string);
        let argv: Vec<String> = defaults.chain(argv.iter().cloned()).collect();
        SweepArgs::parse_or_exit(&argv, &self.usage())
    }

    /// The whole of a harness: parse, banner, run, report, `--json`.
    pub fn run_with(&self, argv: &[String]) {
        let (args, rest) = self.parse(argv);
        if (self.extra_usage)().is_empty() {
            RestFlags::new(&rest, &self.usage()).finish();
        }
        if !self.title.is_empty() {
            println!("==============================================================");
            println!("{}\n{}", self.title, self.caption);
            println!("==============================================================");
        }
        let body = (self.run)(&args, &rest);
        sweep::finish(&args, &sweep::report(self.id, &args, body));
    }
}

/// The row of figure `id`.
#[must_use]
pub fn figure(id: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.id == id)
}

/// The usage string of figure `id` (which must be listed).
#[must_use]
pub fn usage_of(id: &str) -> String {
    figure(id).expect("a listed figure").usage()
}

/// The `repro` command line (`argv` as [`SweepArgs::process_argv`] returns
/// it): `<id> [flags]`, `list`, or `all <dir> [flags]`.
pub fn repro(argv: &[String]) {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    let usage = format!(
        "repro <id> [flags; `repro <id> --help` lists them] | repro list | \
         repro all <dir> [flags passed to every id]\nids: {}",
        ids.join(" ")
    );
    match argv.split_first() {
        None => fail_usage("which table or figure?", &usage),
        Some((word, _)) if word == "--help" || word == "-h" => eprintln!("usage: {usage}"),
        Some((word, _)) if word == "list" => ids.iter().for_each(|id| println!("{id}")),
        Some((word, rest)) if word == "all" => match rest.split_first() {
            Some((dir, flags)) => match all(Path::new(dir), flags) {
                Ok(code) => code.exit(),
                Err(e) => {
                    eprintln!("error: repro all {dir}: {e}");
                    ExitCode::Generic.exit()
                }
            },
            None => fail_usage("all needs an output directory", &usage),
        },
        Some((id, flags)) => match figure(id) {
            Some(figure) => figure.run_with(flags),
            None => fail_usage(&format!("unknown table or figure {id}"), &usage),
        },
    }
}

/// `repro all <dir>`: re-executes this binary once per id, stdout into
/// `<dir>/<id>.txt` under a one-line header (seed, window, sweep
/// fingerprint), so exit codes and quarantine behaviour are each figure's
/// own and no figure body learns about files. Stops at the first id that
/// fails, with its exit code.
fn all(dir: &Path, flags: &[String]) -> std::io::Result<ExitCode> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    for figure in FIGURES {
        let (args, _) = figure.parse(flags);
        let mut file = std::fs::File::create(dir.join(format!("{}.txt", figure.id)))?;
        writeln!(
            file,
            "# repro {}: seed={} warmup={} measure={} fingerprint={:016x}",
            figure.id,
            args.seed,
            args.lengths.warmup,
            args.lengths.measure,
            sweep::sweep_fingerprint(&args)
        )?;
        eprintln!("repro all: {}", figure.id);
        let mut child = Command::new(std::env::current_exe()?);
        let status = child.arg(figure.id).args(flags).stdout(file).status()?;
        if !status.success() {
            eprintln!("repro all: {} failed ({status})", figure.id);
            let code = status.code().and_then(ExitCode::from_code);
            return Ok(code.unwrap_or(ExitCode::Generic));
        }
    }
    Ok(ExitCode::Success)
}

/// The five path legs of an off-chip round trip (the paper's Figure 2), as
/// column heads and report keys.
pub const LEGS: [(&str, &str); 5] = [
    ("L1->L2", "l1_to_l2"),
    ("L2->Mem", "l2_to_mem"),
    ("Mem", "mem"),
    ("Mem->L2", "mem_to_l2"),
    ("L2->L1", "l2_to_l1"),
];

/// The paper's workload-N.
pub use noclat_workloads::workload as w;

/// Formats a ratio as a percent delta ("+3.4%").
#[must_use]
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1.034), "+3.4%");
        assert_eq!(pct(0.99), "-1.0%");
    }
}
