//! Byte-identity of every row of `noclat_bench::FIGURES`, run as `repro
//! <id>`, against files generated by the commit *before* the figure
//! binaries moved onto the `MixCell` runners: stdout, the `--json` report,
//! and a hash of the `--resume` journal's sorted record lines (labels are
//! journal addresses, so an old journal must resume under a new binary).
//! Alone-cell addresses have moved twice since: an alone cell's label hashes
//! the `{:?}` of its `SystemConfig`, so the nine harnesses that journal alone
//! cells were re-pinned in `journals.txt` when the policy selection became
//! two typed fields, and again when the page-policy field left `MemConfig`
//! (neither time did their mix cells, stdout or JSON move). Separately,
//! `ablation_priority` re-pinned all three of its files when its zero-guard
//! row was relabelled oldest-first and a strict-priority row was added.
//!
//! Release-only (`cargo test --release -p noclat-bench --test
//! figure_goldens`): 25 real sweeps are too slow for the debug suite. After
//! an intended model change, regenerate with `NOCLAT_REGEN_GOLDEN=1`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use noclat_bench::FIGURES;
use noclat_engine::{CellSpec, Json};
use noclat_sim::config::{MemSchedPolicy, RoutingAlgorithm, Scheme};
use noclat_sim::journal::fnv1a64;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

/// The arguments a golden was generated with beyond the pinned window: the
/// front end away from its defaults, the topology sweep cut to one fabric.
fn golden_args(id: &str) -> &'static [&'static str] {
    match id {
        "simulate" => &["--scheme", "none", "--policy", "req=scheme2,resp=scheme1"],
        "topo_sweep" => &["--fabrics", "torus", "--mc", "corner"],
        _ => &[],
    }
}

/// The binaries that copied `policy.apply(..); cfg.kernel = ..` by hand
/// before the runners existed, and so ignored `--topology`.
const ONCE_TOPOLOGY_BLIND: [&str; 10] = [
    "fig04", "fig05", "fig06", "fig09", "fig12", "fig13", "fig14", "netmap", "slowest", "faultsim",
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "noclat-figure-goldens-{}-{test}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs `exe <lead> <golden args of id>` at the pinned small window, with
/// `more` appended.
fn spawn_via(exe: &str, lead: &[&str], id: &str, dir: &Path, more: &[&str]) -> Output {
    let _ = std::fs::remove_file(dir.join(format!("{id}.nj")));
    Command::new(exe)
        .args(lead)
        .args(golden_args(id))
        .args(["--warmup", "100", "--measure", "1000", "--seed", "7"])
        .args(["--jobs", "2", "--json"])
        .arg(dir.join(format!("{id}.json")))
        .arg("--resume")
        .arg(dir.join(format!("{id}.nj")))
        .args(more)
        .output()
        .unwrap_or_else(|e| panic!("spawn {id}: {e}"))
}

/// `repro <id>` at the pinned small window, with `more` appended.
fn spawn(id: &str, dir: &Path, more: &[&str]) -> Output {
    spawn_via(REPRO, &[id], id, dir, more)
}

/// `fnv1a64` of the journal's lines, sorted (record order depends on which
/// worker finishes first); `absent` for a harness that runs no grid.
fn journal_hash(path: &Path) -> String {
    let Ok(text) = std::fs::read_to_string(path) else {
        return "absent".to_string();
    };
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    format!("{:016x}", fnv1a64(lines.join("\n").as_bytes()))
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_figure_is_byte_identical_to_its_golden() {
    let regen = std::env::var("NOCLAT_REGEN_GOLDEN").is_ok_and(|v| v == "1");
    let (golden, dir) = (golden_dir(), scratch_dir("bytes"));
    let mut journals = BTreeMap::new();
    let mut diverged = Vec::new();
    for id in FIGURES.iter().map(|f| f.id) {
        let out = spawn(id, &dir, &[]);
        assert!(
            out.status.success(),
            "{id} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read(dir.join(format!("{id}.json"))).expect("JSON report");
        journals.insert(id, journal_hash(&dir.join(format!("{id}.nj"))));
        for (ext, bytes) in [("stdout", &out.stdout), ("json", &json)] {
            let path = golden.join(format!("{id}.{ext}"));
            if regen {
                std::fs::write(&path, bytes).expect("write golden");
            } else if std::fs::read(&path).ok().as_ref() != Some(bytes) {
                diverged.push(format!("{id}.{ext}"));
            }
        }
    }
    let rendered: String = journals
        .iter()
        .map(|(name, hash)| format!("{name} {hash}\n"))
        .collect();
    let path = golden.join("journals.txt");
    if regen {
        std::fs::write(&path, rendered).expect("write golden");
    } else {
        let pinned = std::fs::read_to_string(&path).expect("journals.txt");
        let moved = pinned.lines().zip(rendered.lines()).filter(|(a, b)| a != b);
        diverged.extend(moved.map(|(want, got)| format!("journal: {got} (pinned: {want})")));
        assert_eq!(pinned.lines().count(), rendered.lines().count());
    }
    assert!(diverged.is_empty(), "diverged from golden: {diverged:#?}");

    // `benchmark/` builds and spawns `fig11` by name: the alias is the same
    // entry point, down to the journal it writes.
    let alias = spawn_via(env!("CARGO_BIN_EXE_fig11"), &[], "fig11", &dir, &[]);
    assert!(alias.status.success(), "the fig11 alias failed");
    let pinned = std::fs::read(golden.join("fig11.stdout")).expect("golden stdout");
    assert_eq!(alias.stdout, pinned, "fig11 alias stdout");
    assert_eq!(journal_hash(&dir.join("fig11.nj")), journals["fig11"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The ids of `FIGURES`, the golden files and the lines of `journals.txt`
/// are in bijection: no orphan golden, no unpinned figure.
#[test]
fn figures_and_goldens_are_in_bijection() {
    let ids: BTreeSet<String> = FIGURES.iter().map(|f| f.id.to_string()).collect();
    assert_eq!(ids.len(), FIGURES.len(), "duplicate id");
    for ext in ["stdout", "json"] {
        let files: BTreeSet<String> = std::fs::read_dir(golden_dir())
            .expect("golden dir")
            .filter_map(|entry| {
                let name = entry.expect("dir entry").file_name();
                let stem = name.to_str()?.strip_suffix(ext)?.strip_suffix('.')?;
                Some(stem.to_string())
            })
            .collect();
        assert_eq!(files, ids, "tests/golden/*.{ext} vs FIGURES");
    }
    let pinned = std::fs::read_to_string(golden_dir().join("journals.txt")).expect("journals.txt");
    let journals: BTreeSet<String> = pinned
        .lines()
        .map(|line| line.split(' ').next().unwrap_or("").to_string())
        .collect();
    assert_eq!(journals, ids, "journals.txt vs FIGURES");
    assert_eq!(
        pinned.lines().count(),
        ids.len(),
        "duplicate journals.txt line"
    );
}

/// DESIGN.md §4 and `results/README.md` index the figures with prose columns
/// of their own; the id column (the rows between the `repro-ids` markers)
/// is `repro list`, in order.
#[test]
fn doc_indexes_list_exactly_the_ids_of_repro_list() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    for doc in ["DESIGN.md", "results/README.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        let index = text.split("<!-- repro-ids -->").nth(1);
        let index = index.and_then(|rest| rest.split("<!-- /repro-ids -->").next());
        let listed: Vec<&str> = index
            .unwrap_or_else(|| panic!("{doc}: no repro-ids markers"))
            .lines()
            .filter_map(|row| row.strip_prefix("| `")?.split('`').next())
            .collect();
        assert_eq!(listed, ids, "{doc}: id column differs from `repro list`");
    }
}

/// The command's own words: an unknown id is a usage error that lists the
/// ids, `list` prints one id per line, `--help` succeeds.
#[test]
fn repro_lists_its_ids_and_rejects_unknown_ones() {
    let run = |args: &[&str]| {
        Command::new(REPRO)
            .args(args)
            .output()
            .expect("repro spawns")
    };
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();

    let list = run(&["list"]);
    assert!(list.status.success());
    let listed = String::from_utf8(list.stdout).expect("utf-8");
    assert_eq!(listed.lines().collect::<Vec<_>>(), ids);

    for bad in [&["nosuch"][..], &[], &["all"]] {
        let out = run(bad);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bad:?} printed to stdout");
        for id in &ids {
            assert!(stderr.contains(id), "{bad:?}: {id} missing from: {stderr}");
        }
    }
    let help = run(&["--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stderr).contains("repro all <dir>"));
    let help = run(&["fig04", "--help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stderr).contains("usage: repro fig04 [--jobs N]"));
    // A front end's own vocabularies are quoted from their declarations.
    let help = run(&["simulate", "--help"]);
    let usage = String::from_utf8_lossy(&help.stderr);
    for names in [Scheme::HELP, RoutingAlgorithm::HELP, MemSchedPolicy::HELP] {
        assert!(usage.contains(names), "{names} missing from: {usage}");
    }
}

/// A figure's own flags, on top of the shared set: a bad value, a
/// missing value and an unknown flag each exit 2 naming the flag, followed
/// by a usage line that lists both the harness's flags and the shared ones.
#[test]
fn extra_flag_errors_name_their_flag() {
    let cases: [(&str, &[(&str, &str)]); 3] = [
        (
            "simulate",
            &[
                ("--workload", "abc"),
                ("--workload", "19"),
                ("--scheme", "s3"),
                ("--cores", "8"),
                ("--routing", "zz"),
                ("--sched", "lifo"),
            ],
        ),
        ("faultsim", &[("--workload", "abc"), ("--workload", "0")]),
        (
            "topo_sweep",
            &[("--size", "7"), ("--mc", "middle"), ("--fabrics", "bogus")],
        ),
    ];
    let run = |args: &[&str]| {
        let out = Command::new(REPRO)
            .args(args)
            .output()
            .expect("repro spawns");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("sweep:"), "{args:?} ran cells: {stderr}");
        stderr
    };
    for (id, flags) in cases {
        for &(flag, bad) in flags {
            let stderr = run(&[id, flag, bad]);
            let named = format!("error: {flag}: ");
            assert!(stderr.contains(&named), "{id} {flag} {bad}: {stderr}");
            let stderr = run(&[id, flag]);
            let named = format!("error: {flag} needs a value");
            assert!(stderr.contains(&named), "{id} {flag}: {stderr}");
        }
        let stderr = run(&[id, "--frobnicate", "1"]);
        assert!(stderr.contains("error: unknown argument --frobnicate"));
        let usage = stderr.lines().last().expect("usage line");
        assert!(
            usage.starts_with(&format!("usage: repro {id} [")),
            "{usage}"
        );
        for flag in flags.iter().map(|(flag, _)| flag).chain(&[
            "--topology",
            "--resume",
            "--job-timeout",
            "--retries",
            "--prune",
        ]) {
            assert!(usage.contains(flag), "{id}: {flag} missing from: {usage}");
        }
    }
}

/// `--topology` reaches every cell of every binary: the ten harnesses that
/// used to fold the flag into the journal fingerprint and then simulate the
/// mesh anyway now print something else on a torus, and reject an override
/// the grid cannot satisfy as a usage error before any cell runs.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn topology_override_reaches_the_once_blind_harnesses() {
    let (golden, dir) = (golden_dir(), scratch_dir("topology"));
    for name in ONCE_TOPOLOGY_BLIND {
        let torus = spawn(name, &dir, &["--topology", "torus"]);
        assert!(torus.status.success(), "{name} --topology torus failed");
        let mesh = std::fs::read(golden.join(format!("{name}.stdout"))).expect("golden stdout");
        assert_ne!(torus.stdout, mesh, "{name} ignored --topology torus");

        let bad = spawn(name, &dir, &["--topology", "cmesh:c=3"]);
        let stderr = String::from_utf8_lossy(&bad.stderr);
        assert_eq!(bad.status.code(), Some(2), "{name}: {stderr}");
        assert!(stderr.contains("error: --topology:"), "{name}: {stderr}");
        assert!(
            !stderr.contains("sweep:") && !stderr.contains("quarantined"),
            "{name} reached the pool before rejecting the override: {stderr}"
        );
    }
    // `table1` reads back what it applied: fabric, placement, routing.
    let table1 = spawn("table1", &dir, &["--topology", "torus:mc=edge"]);
    let stdout = String::from_utf8_lossy(&table1.stdout);
    assert!(table1.status.success(), "table1 --topology torus:mc=edge");
    assert!(stdout.contains("| 4 x 8 torus\n"), "{stdout}");
    assert!(stdout.contains("| 4 at torus edges\n"), "{stdout}");
    assert!(stdout.contains("X-Y routing\n"), "{stdout}");
    let rejected = spawn("topo_sweep", &dir, &["--topology", "torus"]);
    assert_eq!(rejected.status.code(), Some(2), "the fabric is its axis");
    // Its model column describes the pinned cells; simulating others under
    // the same row labels would compare two different systems.
    for flag in [["--topology", "mesh"], ["--policy", "arb=static"]] {
        let rejected = spawn("analytic_validate", &dir, &flag);
        let stderr = String::from_utf8_lossy(&rejected.stderr);
        assert_eq!(rejected.status.code(), Some(2), "{flag:?}: {stderr}");
        assert!(!stderr.contains("sweep:"), "{flag:?} ran cells: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// sweepd cache keys are durable addresses: the typed scheme renders the
/// same canonical bytes the string field did, and `none` is `baseline`.
#[test]
fn cell_spec_keys_are_unchanged_for_every_scheme_name() {
    let key = |scheme: &str| {
        let cell = format!(
            r#"{{"size":8,"fabric":"mesh","mc":"corner","scheme":"{scheme}","workload":2,"seed":207547666,"warmup":500,"measure":5000,"kernel":"cycle"}}"#
        );
        CellSpec::from_json(&Json::parse(&cell).expect("cell parses"))
            .unwrap_or_else(|e| panic!("scheme {scheme}: {e}"))
            .key()
    };
    assert_eq!(key("baseline"), 0x90ce_071b_7f99_d461);
    assert_eq!(key("s1"), 0x13ec_ff34_1492_febc);
    assert_eq!(key("s2"), 0x7413_d821_3b88_2b17);
    assert_eq!(key("both"), 0x54c5_fffe_505f_ef75);
    assert_eq!(key("none"), key("baseline"));
}
