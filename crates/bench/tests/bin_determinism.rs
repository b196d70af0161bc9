//! End-to-end `--jobs` equivalence of a real harness: `repro fig09` (the
//! sharded distribution figure) must print and serialize byte-identical
//! reports whether its shards run serially or on four workers.

use std::process::Command;

/// `repro <id>`, ready for its flags.
fn repro(id: &str) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.arg(id);
    cmd
}

#[test]
fn fig09_reports_are_byte_identical_across_jobs() {
    let dir = std::env::temp_dir().join(format!("noclat-bin-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut outputs = Vec::new();
    for jobs in ["1", "4"] {
        let json = dir.join(format!("fig09-{jobs}.json"));
        let out = repro("fig09")
            .args([
                "--warmup",
                "200",
                "--measure",
                "1000",
                "--jobs",
                jobs,
                "--json",
            ])
            .arg(&json)
            .output()
            .expect("fig09 spawns");
        assert!(
            out.status.success(),
            "fig09 --jobs {jobs} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let report = std::fs::read(&json).expect("fig09 wrote the JSON report");
        assert!(!report.is_empty());
        outputs.push((out.stdout, report));
    }
    assert_eq!(
        outputs[0].0, outputs[1].0,
        "stdout must not depend on --jobs"
    );
    assert_eq!(
        outputs[0].1, outputs[1].1,
        "the JSON report must not depend on --jobs"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shared flag parser rejects unknown arguments with exit status 2 (so
/// CI scripts fail fast on typos) and honors `--help` with status 0.
#[test]
fn fig09_rejects_unknown_flags() {
    let out = repro("fig09")
        .arg("--frobnicate")
        .output()
        .expect("fig09 spawns");
    assert_eq!(out.status.code(), Some(2));
    let help = repro("fig09").arg("--help").output().expect("fig09 spawns");
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stderr).contains("--jobs"));
}

/// `--topology` mistakes are usage errors (exit 2), never cell panics —
/// both the parse-time kind (unknown fabric) and the validate-time kind
/// (a concentration that can't tile the grid, caught only once the
/// override meets a concrete configuration).
#[test]
fn simulate_rejects_invalid_topology_specs_as_usage_errors() {
    let bad_fabric = repro("simulate")
        .args(["--topology", "bogus", "--measure", "100"])
        .output()
        .expect("simulate spawns");
    assert_eq!(bad_fabric.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_fabric.stderr).contains("unknown fabric"));

    let bad_concentration = repro("simulate")
        .args(["--topology", "cmesh:c=3", "--measure", "100"])
        .output()
        .expect("simulate spawns");
    assert_eq!(bad_concentration.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_concentration.stderr).contains("error: --topology:"));

    // A parameter the named fabric does not take used to be dropped in
    // silence (and `mc=` inside `--fabrics` overridden by `--mc`); each is
    // refused, naming its flag, before any cell runs.
    for (id, flag, spec, says) in [
        ("simulate", "--topology", "mesh:c=4", "mesh takes no c="),
        (
            "simulate",
            "--topology",
            "torus:skip=3",
            "torus takes no skip=",
        ),
        ("topo_sweep", "--fabrics", "torus:mc=edge", "sets mc="),
        ("topo_sweep", "--fabrics", "mesh:c=4", "mesh takes no c="),
    ] {
        let out = repro(id)
            .args([flag, spec, "--measure", "100"])
            .output()
            .expect("repro spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{id} {flag} {spec}: {stderr}");
        let named = format!("error: {flag}: ");
        assert!(stderr.contains(&named) && stderr.contains(says), "{stderr}");
        assert!(!stderr.contains("sweep:"), "{id} ran cells: {stderr}");
    }
}
