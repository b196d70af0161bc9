//! Shared command-line surface of every sweep binary, and the fingerprint
//! that content-addresses a sweep's results.

use std::path::PathBuf;
use std::time::Duration;

use noclat::{KernelKind, PolicyOverride, RunLengths, SystemConfig, TopologyOverride};
use noclat_sim::journal::fnv1a64;
use noclat_sim::pool::RetryPolicy;

use crate::exit::ExitCode;

/// Number of replicate shards the distribution harnesses (fig04/05/06/09/12)
/// split their measurement into. Each shard is a full, independently seeded
/// run; shard statistics merge exactly, so more shards mean both more
/// parallelism and more samples.
pub const DEFAULT_SHARDS: u64 = 8;

/// Command-line arguments shared by every sweep binary.
#[derive(Debug, Clone)]
pub struct SweepArgs {
    /// Worker threads for the job grid (`--jobs N`; defaults to the
    /// machine's available parallelism).
    pub jobs: usize,
    /// Where to write the JSON report (`--json PATH`), if anywhere.
    pub json: Option<PathBuf>,
    /// Base RNG seed for the sweep (`--seed N`); per-job seeds derive from
    /// it via [`crate::job_seed`].
    pub seed: u64,
    /// Simulation window (`quick`/`--quick` shrink it; `--warmup N` and
    /// `--measure N` override individual components).
    pub lengths: RunLengths,
    /// Prioritization-policy overrides
    /// (`--policy req=<name>,resp=<name>,arb=<name>`), applied to every
    /// cell by the grid runners via [`SweepArgs::apply_policy`].
    pub policy: PolicyOverride,
    /// Simulation kernel (`--kernel cycle|event`). Kernels are bit-identical
    /// by contract (the equivalence suite enforces it), so this only trades
    /// wall-clock time; reports are comparable across kernels.
    pub kernel: KernelKind,
    /// Fabric override (`--topology NAME[:PARAM=V,...]`), applied to every
    /// cell by the grid runners via [`SweepArgs::apply_policy`]. Unlike
    /// `--kernel`, a topology change *does* change results, so it is part of
    /// the sweep fingerprint.
    pub topology: TopologyOverride,
    /// Journal path for durable checkpoint/resume (`--resume PATH`). Cells
    /// already present in the journal are restored instead of re-run; cells
    /// completing during this run are appended as they finish.
    pub resume: Option<PathBuf>,
    /// Per-job wall-clock deadline (`--job-timeout SECS`); overrunning jobs
    /// are cancelled cooperatively and reported as `JobTimeout`.
    pub job_timeout: Option<Duration>,
    /// Retries with exponential backoff for panicking/timing-out jobs
    /// (`--retries N`; default 0 = fail immediately).
    pub retries: u32,
    /// Two-tier search (`--prune off|analytic:top=K`): run the analytic
    /// latency model over the grid first and submit only the top-K cells
    /// (plus golden-pinned cells) to the cycle-accurate pool. Changes which
    /// cells *run*, never what a run cell contains, but is still part of
    /// the sweep fingerprint so a pruned journal never resumes an unpruned
    /// sweep (or vice versa).
    pub prune: PruneSpec,
}

/// The `--prune` strategy of a two-tier sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruneSpec {
    /// Cycle-simulate every cell (the default).
    #[default]
    Off,
    /// Rank cells by the closed-form estimator (`noclat-analytic`) and
    /// keep the `top` cells with the lowest predicted mean latency, plus
    /// every golden-pinned cell and every cell the harness supplied no
    /// model inputs for.
    Analytic {
        /// Non-golden cells to keep.
        top: usize,
    },
}

impl PruneSpec {
    /// Parses `off` or `analytic:top=K`.
    pub fn parse(s: &str) -> Result<PruneSpec, String> {
        if s == "off" {
            return Ok(PruneSpec::Off);
        }
        if let Some(rest) = s.strip_prefix("analytic:top=") {
            let top = rest
                .parse()
                .map_err(|e| format!("--prune: top={rest}: {e}"))?;
            return Ok(PruneSpec::Analytic { top });
        }
        Err(format!(
            "--prune: unknown spec {s:?} (expected off or analytic:top=K)"
        ))
    }

    /// Whether any pruning strategy is active.
    #[must_use]
    pub fn enabled(&self) -> bool {
        *self != PruneSpec::Off
    }
}

impl std::fmt::Display for PruneSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PruneSpec::Off => f.write_str("off"),
            PruneSpec::Analytic { top } => write!(f, "analytic:top={top}"),
        }
    }
}

/// Flags accepted by [`SweepArgs::parse_argv`], for inclusion in usage
/// strings; the closed vocabularies are quoted from their declarations.
#[must_use]
pub fn sweep_usage() -> String {
    format!(
        "[--jobs N] [--json PATH] [--seed N] [--warmup N] [--measure N] \
         [--policy {}] [--kernel {}] [--topology {}] \
         [--resume PATH] [--job-timeout SECS] [--retries N] \
         [--prune off|analytic:top=K] [quick]",
        PolicyOverride::help(),
        KernelKind::HELP,
        TopologyOverride::help()
    )
}

/// The one walk over a command line: removes every `flag VALUE` pair from
/// `rest` and returns the last value (later occurrences win).
fn take<'a>(rest: &mut Vec<&'a str>, flag: &str) -> Result<Option<&'a str>, String> {
    let mut last = None;
    while let Some(at) = rest.iter().position(|a| *a == flag) {
        if at + 1 == rest.len() {
            return Err(format!("{flag} needs a value"));
        }
        last = Some(rest.remove(at + 1));
        rest.remove(at);
    }
    Ok(last)
}

/// [`take`], parsed; a value `parse` rejects is `<flag>: <its error>`.
fn take_parsed<T, E: std::fmt::Display>(
    rest: &mut Vec<&str>,
    flag: &str,
    parse: impl Fn(&str) -> Result<T, E>,
) -> Result<Option<T>, String> {
    let parsed = take(rest, flag)?.map(parse);
    parsed.transpose().map_err(|e| format!("{flag}: {e}"))
}

/// Removes every occurrence of the bare words `names`; whether any was there.
fn take_switch(rest: &mut Vec<&str>, names: [&str; 2]) -> bool {
    let before = rest.len();
    rest.retain(|a| !names.contains(a));
    rest.len() != before
}

impl SweepArgs {
    fn defaults() -> Self {
        SweepArgs {
            jobs: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            json: None,
            seed: SystemConfig::baseline_32().seed,
            lengths: RunLengths::standard(),
            policy: PolicyOverride::default(),
            kernel: KernelKind::default(),
            topology: TopologyOverride::default(),
            resume: None,
            job_timeout: None,
            retries: 0,
            prune: PruneSpec::Off,
        }
    }

    /// Parses `argv` (see [`SweepArgs::process_argv`]), returning the
    /// arguments the shared set does not know for the harness to interpret
    /// with [`RestFlags`]. Prints `usage` and exits on `--help` (status 0)
    /// and on a bad shared flag ([`ExitCode::Config`]).
    #[must_use]
    pub fn parse_or_exit(argv: &[String], usage: &str) -> (SweepArgs, Vec<String>) {
        match Self::parse_argv(argv) {
            Ok(pair) => pair,
            Err(e) if e == "help" => {
                eprintln!("usage: {usage}");
                ExitCode::Success.exit()
            }
            Err(e) => fail_usage(&e, usage),
        }
    }

    /// All the process state a parse depends on, as [`SweepArgs::parse_argv`]
    /// input: the command line without the program name, plus the `quick`
    /// argument when `NOCLAT_QUICK=1` is set.
    #[must_use]
    pub fn process_argv() -> Vec<String> {
        let quick = std::env::var("NOCLAT_QUICK").is_ok_and(|v| v == "1");
        let quick = quick.then(|| "quick".to_string());
        std::env::args().skip(1).chain(quick).collect()
    }

    /// Pure parsing core (testable without process state): every shared
    /// flag is taken out of `argv`, whatever remains is returned.
    pub fn parse_argv(argv: &[String]) -> Result<(SweepArgs, Vec<String>), String> {
        let rest = &mut argv.iter().map(String::as_str).collect::<Vec<_>>();
        if take_switch(rest, ["--help", "-h"]) {
            return Err("help".into());
        }
        let mut args = Self::defaults();
        if take_switch(rest, ["quick", "--quick"]) {
            args.lengths = RunLengths::quick();
        }
        let path = |value: &str| Ok::<_, String>(PathBuf::from(value));
        let number = str::parse::<u64>;
        args.jobs = take_parsed(rest, "--jobs", str::parse)?.unwrap_or(args.jobs);
        if args.jobs == 0 {
            return Err("--jobs must be at least 1".into());
        }
        args.json = take_parsed(rest, "--json", path)?;
        args.seed = take_parsed(rest, "--seed", number)?.unwrap_or(args.seed);
        let window = &mut args.lengths;
        window.warmup = take_parsed(rest, "--warmup", number)?.unwrap_or(window.warmup);
        window.measure = take_parsed(rest, "--measure", number)?.unwrap_or(window.measure);
        if window.measure == 0 {
            return Err("--measure must be at least 1 cycle".into());
        }
        args.policy = take_parsed(rest, "--policy", PolicyOverride::parse)?.unwrap_or(args.policy);
        args.kernel = take_parsed(rest, "--kernel", KernelKind::parse)?.unwrap_or(args.kernel);
        let topology = take_parsed(rest, "--topology", TopologyOverride::parse)?;
        args.topology = topology.unwrap_or(args.topology);
        args.resume = take_parsed(rest, "--resume", path)?;
        if let Some(secs) = take_parsed(rest, "--job-timeout", str::parse::<f64>)? {
            if !(secs > 0.0 && secs.is_finite()) {
                return Err("--job-timeout must be a positive number of seconds".into());
            }
            args.job_timeout = Some(Duration::from_secs_f64(secs));
        }
        args.retries = take_parsed(rest, "--retries", str::parse)?.unwrap_or(args.retries);
        // PruneSpec::parse names its flag itself.
        let prune = take(rest, "--prune")?.map(PruneSpec::parse).transpose()?;
        args.prune = prune.unwrap_or(args.prune);
        Ok((args, rest.iter().map(ToString::to_string).collect()))
    }

    /// Applies this sweep's `--policy`, `--kernel` and `--topology`
    /// overrides to a configuration. The `MixCell` runners in
    /// [`crate::grid`] call this once per cell, so harnesses never do; a
    /// sweep run without any of the flags is untouched.
    pub fn apply_policy(&self, cfg: &mut SystemConfig) {
        self.policy.apply(cfg);
        cfg.kernel = self.kernel;
        self.topology.apply(cfg);
        // A `--topology` override can produce a config the grid can't
        // satisfy (a concentration that doesn't tile it, a torus without
        // dateline VCs). That's a usage error, not a cell panic — surface
        // the typed ConfigError and exit before any cell runs.
        if !self.topology.is_empty() {
            if let Err(e) = cfg.validate() {
                eprintln!("error: --topology: {e}");
                ExitCode::Config.exit();
            }
        }
    }

    /// The pool deadline/retry budget these arguments request.
    #[must_use]
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            timeout: self.job_timeout,
            retries: self.retries,
            ..RetryPolicy::default()
        }
    }
}

/// Reports bad usage the way every sweep binary does — `error: <msg>`, then
/// the usage line, on stderr — and exits with [`ExitCode::Config`].
pub fn fail_usage(msg: &str, usage: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {usage}");
    ExitCode::Config.exit()
}

/// The `--flag VALUE` pairs a harness accepts beyond the shared set: what
/// [`SweepArgs::parse_argv`] left over, consumed one [`RestFlags::take`]
/// per flag and closed with [`RestFlags::finish`]. Every error names its
/// flag and exits through [`fail_usage`].
#[derive(Debug)]
pub struct RestFlags<'a> {
    rest: Vec<&'a str>,
    usage: &'a str,
}

impl<'a> RestFlags<'a> {
    /// Starts consuming `rest`; `usage` is printed with any error.
    #[must_use]
    pub fn new(rest: &'a [String], usage: &'a str) -> Self {
        RestFlags {
            rest: rest.iter().map(String::as_str).collect(),
            usage,
        }
    }

    /// The parsed value of `flag`, `None` if it was not given (the last one
    /// if it was given twice, as for the shared flags); a value `parse`
    /// rejects is reported as `<flag>: <its error>`.
    pub fn take<T, E: std::fmt::Display>(
        &mut self,
        flag: &str,
        parse: impl Fn(&str) -> Result<T, E>,
    ) -> Option<T> {
        take_parsed(&mut self.rest, flag, parse).unwrap_or_else(|e| fail_usage(&e, self.usage))
    }

    /// Rejects whatever no `take` claimed.
    pub fn finish(self) {
        if let Some(unknown) = self.rest.first() {
            fail_usage(&format!("unknown argument {unknown}"), self.usage);
        }
    }
}

/// Fingerprint of everything that determines a sweep's *results*: seed,
/// simulation window, policy overrides, kernel and topology override.
/// Arguments that only affect execution (worker count, output paths,
/// deadlines, retries) are deliberately excluded — a journal written with
/// `--jobs 8` resumes fine under `--jobs 1`, and a deadline changes which
/// cells *complete*, never what a completed cell contains.
#[must_use]
pub fn sweep_fingerprint(args: &SweepArgs) -> u64 {
    // The policy slots are spelled by CLI name, in the shape journals have
    // always hashed (the `{:?}` of the override when its slots were strings).
    let mut text = format!(
        "seed={} warmup={} measure={} policy=PolicyOverride {{ request: {:?}, response: {:?}, \
         arbitration: {:?} }} kernel={} topology={:?}",
        args.seed,
        args.lengths.warmup,
        args.lengths.measure,
        args.policy.request.map(|kind| kind.name()),
        args.policy.response.map(|kind| kind.name()),
        args.policy.arbitration,
        args.kernel.name(),
        args.topology,
    );
    // Pruning decides which cells exist, so a pruned journal must never
    // satisfy an unpruned resume. Appended only when enabled to keep every
    // pre-pruning journal's fingerprint valid.
    if args.prune.enabled() {
        text.push_str(&format!(" prune={}", args.prune));
    }
    fnv1a64(text.as_bytes())
}

/// Content address of one sweep cell: the sweep fingerprint combined with
/// the cell's label (labels are unique within a harness by construction).
#[must_use]
pub fn job_key(fingerprint: u64, label: &str) -> u64 {
    fnv1a64(format!("{fingerprint:016x}/{label}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_defaults_and_flags() {
        let (args, rest) = SweepArgs::parse_argv(&argv(&[])).unwrap();
        assert!(args.jobs >= 1);
        assert!(args.json.is_none());
        assert_eq!(args.lengths, RunLengths::standard());
        assert!(rest.is_empty());

        let (args, rest) = SweepArgs::parse_argv(&argv(&[
            "--jobs",
            "4",
            "--json",
            "/tmp/x.json",
            "--seed",
            "7",
            "quick",
            "--measure",
            "123",
            "--extra",
        ]))
        .unwrap();
        assert_eq!(args.jobs, 4);
        assert_eq!(args.json.as_deref(), Some(Path::new("/tmp/x.json")));
        assert_eq!(args.seed, 7);
        assert_eq!(args.lengths.warmup, RunLengths::quick().warmup);
        assert_eq!(args.lengths.measure, 123);
        assert_eq!(rest, vec!["--extra".to_string()]);

        // What `NOCLAT_QUICK=1` contributes is an argument, wherever it
        // lands; explicit windows still win.
        let (args, _) = SweepArgs::parse_argv(&argv(&["--measure", "123", "quick"])).unwrap();
        assert_eq!(args.lengths.warmup, RunLengths::quick().warmup);
        assert_eq!(args.lengths.measure, 123);
    }

    #[test]
    fn parse_rejects_bad_values() {
        assert!(SweepArgs::parse_argv(&argv(&["--jobs", "0"])).is_err());
        assert!(SweepArgs::parse_argv(&argv(&["--jobs"])).is_err());
        assert!(SweepArgs::parse_argv(&argv(&["--measure", "0"])).is_err());
        assert!(SweepArgs::parse_argv(&argv(&["--seed", "donkey"])).is_err());
        assert!(SweepArgs::parse_argv(&argv(&["--policy", "req=donkey"])).is_err());
        assert!(SweepArgs::parse_argv(&argv(&["--policy"])).is_err());
        assert!(SweepArgs::parse_argv(&argv(&["--kernel", "donkey"])).is_err());
        assert!(SweepArgs::parse_argv(&argv(&["--kernel"])).is_err());
        assert_eq!(
            SweepArgs::parse_argv(&argv(&["--help"])).unwrap_err(),
            "help"
        );
        // The bytes a user reads: the flag first, then what is wrong with it.
        let cases: [(&[&str], &str); 8] = [
            (&["--jobs", "0"], "--jobs must be at least 1"),
            (&["--jobs"], "--jobs needs a value"),
            (&["--seed", "x"], "--seed: invalid digit found in string"),
            (
                &["--kernel", "x"],
                "--kernel: unknown kernel \"x\" (known: cycle, event)",
            ),
            (
                &["--topology", "ring"],
                "--topology: unknown fabric \"ring\" (known: mesh, torus, cmesh, express)",
            ),
            (
                &["--topology", "mesh:c=4"],
                "--topology: mesh takes no c= parameter",
            ),
            (
                &["--policy", "req=x"],
                "--policy: unknown request policy \"x\" \
                 (known: baseline, scheme2, oldest-first, static)",
            ),
            (
                &["--prune", "x"],
                "--prune: unknown spec \"x\" (expected off or analytic:top=K)",
            ),
        ];
        for (bad, says) in cases {
            assert_eq!(SweepArgs::parse_argv(&argv(bad)).unwrap_err(), says);
        }
    }

    #[test]
    fn usage_quotes_every_name_of_the_shared_vocabularies() {
        use noclat::{McPlacement, RequestPolicyKind, ResponsePolicyKind, TopologyKind};
        let usage = sweep_usage();
        let names = (KernelKind::ALL.map(|v| v.name()).into_iter())
            .chain(TopologyKind::ALL.map(|v| v.name()))
            .chain(McPlacement::ALL.map(|v| v.name()))
            .chain(RequestPolicyKind::ALL.map(|v| v.name()))
            .chain(ResponsePolicyKind::ALL.map(|v| v.name()))
            .chain(["age-guard", "batching"]);
        for name in names {
            assert!(usage.contains(name), "{name} missing from: {usage}");
        }
    }

    #[test]
    fn parse_policy_override_and_apply() {
        let (args, rest) =
            SweepArgs::parse_argv(&argv(&["--policy", "req=oldest-first,resp=static"])).unwrap();
        assert!(rest.is_empty());
        let mut cfg = SystemConfig::baseline_32();
        args.apply_policy(&mut cfg);
        assert_eq!(cfg.policy.request.name(), "oldest-first");
        assert_eq!(cfg.policy.response.name(), "static");
        // No --policy: configurations pass through untouched.
        let (args, _) = SweepArgs::parse_argv(&argv(&[])).unwrap();
        let mut cfg = SystemConfig::baseline_32();
        args.apply_policy(&mut cfg);
        assert_eq!(cfg, SystemConfig::baseline_32());
    }

    #[test]
    fn parse_kernel_override_and_apply() {
        let (args, rest) = SweepArgs::parse_argv(&argv(&["--kernel", "event"])).unwrap();
        assert!(rest.is_empty());
        assert_eq!(args.kernel, KernelKind::Event);
        let mut cfg = SystemConfig::baseline_32();
        args.apply_policy(&mut cfg);
        assert_eq!(cfg.kernel, KernelKind::Event);
        // No --kernel: configurations pass through untouched.
        let (args, _) = SweepArgs::parse_argv(&argv(&[])).unwrap();
        let mut cfg = SystemConfig::baseline_32();
        args.apply_policy(&mut cfg);
        assert_eq!(cfg, SystemConfig::baseline_32());
    }

    #[test]
    fn parse_resilience_flags() {
        let (args, rest) = SweepArgs::parse_argv(&argv(&[
            "--resume",
            "/tmp/run.nj",
            "--job-timeout",
            "2.5",
            "--retries",
            "3",
        ]))
        .unwrap();
        assert!(rest.is_empty());
        assert_eq!(args.resume.as_deref(), Some(Path::new("/tmp/run.nj")));
        assert_eq!(args.job_timeout, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(args.retries, 3);
        let policy = args.retry_policy();
        assert_eq!(policy.timeout, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(policy.retries, 3);

        assert!(SweepArgs::parse_argv(&argv(&["--resume"])).is_err());
        assert!(SweepArgs::parse_argv(&argv(&["--job-timeout", "0"])).is_err());
        assert!(SweepArgs::parse_argv(&argv(&["--job-timeout", "-1"])).is_err());
        assert!(SweepArgs::parse_argv(&argv(&["--job-timeout", "inf"])).is_err());
        assert!(SweepArgs::parse_argv(&argv(&["--retries", "-1"])).is_err());
    }

    /// The accepting half of [`RestFlags`] (the rejecting half exits the
    /// process; `crates/bench/tests/figure_goldens.rs` drives it there).
    #[test]
    fn rest_flags_take_the_last_value_and_leave_nothing_behind() {
        let (_, rest) = SweepArgs::parse_argv(&argv(&[
            "--workload",
            "3",
            "--jobs",
            "2",
            "--sched",
            "fcfs",
            "--workload",
            "7",
        ]))
        .unwrap();
        let mut flags = RestFlags::new(&rest, "usage");
        assert_eq!(flags.take("--workload", str::parse::<usize>), Some(7));
        assert_eq!(flags.take("--cores", str::parse::<usize>), None);
        let sched = flags.take("--sched", |s| Ok::<_, String>(s.to_string()));
        assert_eq!(sched.as_deref(), Some("fcfs"));
        flags.finish();
    }

    #[test]
    fn fingerprint_tracks_results_not_execution() {
        let base = SweepArgs::parse_argv(&argv(&[])).unwrap().0;
        let fp = sweep_fingerprint(&base);
        assert_eq!(fp, sweep_fingerprint(&base));
        // Execution-only knobs leave the fingerprint alone.
        let (exec, _) = SweepArgs::parse_argv(&argv(&[
            "--jobs",
            "3",
            "--json",
            "/tmp/x.json",
            "--resume",
            "/tmp/x.nj",
            "--job-timeout",
            "1",
            "--retries",
            "2",
        ]))
        .unwrap();
        assert_eq!(fp, sweep_fingerprint(&exec));
        // Result-determining knobs change it.
        let (seeded, _) = SweepArgs::parse_argv(&argv(&["--seed", "999"])).unwrap();
        assert_ne!(fp, sweep_fingerprint(&seeded));
        let (windowed, _) = SweepArgs::parse_argv(&argv(&["--measure", "12345"])).unwrap();
        assert_ne!(fp, sweep_fingerprint(&windowed));
        let (polic, _) = SweepArgs::parse_argv(&argv(&["--policy", "req=oldest-first"])).unwrap();
        assert_ne!(fp, sweep_fingerprint(&polic));
        // A `--policy` journal written when the slots were strings resumes:
        // the value below is that era's fingerprint of these arguments.
        let (full, _) = SweepArgs::parse_argv(&argv(&[
            "--seed",
            "203354130",
            "--warmup",
            "500",
            "--measure",
            "20000",
            "--policy",
            "req=scheme2,resp=oldest-first,arb=batching:2000",
        ]))
        .unwrap();
        assert_eq!(sweep_fingerprint(&full), 0xbcc8_3a43_c2df_0dfe);
        let (topo, _) = SweepArgs::parse_argv(&argv(&["--topology", "torus"])).unwrap();
        assert_ne!(fp, sweep_fingerprint(&topo));
        let (skipped, _) = SweepArgs::parse_argv(&argv(&["--topology", "express:skip=4"])).unwrap();
        assert_ne!(sweep_fingerprint(&topo), sweep_fingerprint(&skipped));
        // Labels split keys under one fingerprint.
        assert_ne!(job_key(fp, "cell-a"), job_key(fp, "cell-b"));
        assert_eq!(job_key(fp, "cell-a"), job_key(fp, "cell-a"));
    }
}
