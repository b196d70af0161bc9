//! `fig_sweep`: what a user of a figure binary actually waits for. Spawns
//! the real `fig11` (28 alone-IPC cells, then 18 workloads x 3 schemes = 54
//! mix cells) on a fresh journal, then the same command again on the
//! now-full journal. Many short cells, so system build and warm-up, the
//! worker pool, the journal and the cell codec carry a visible share; a
//! faster router moves this less than it moves `paper_load`.
//!
//! `BENCHMARK.json` does not list this workload, so the acceptance driver
//! does not gate on it: `fig11` times no single cell, one sweep is one
//! sample of 24 s of work on two threads, and on the shared box that spreads
//! 10-25 % between runs of the same code — more than any bound the driver
//! accepts would leave room for. It reports the metrics it measures itself
//! and leaves the rest of the end-to-end list at 0.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use noclat_sim::journal;

use crate::trace::Tracer;
use crate::{layers, Outcome, DEFAULT_SECONDS};

/// Cells of one `fig11` sweep: 28 distinct applications alone, 54 mixes.
const CELLS: u64 = 28 + 54;
/// Each cell's window at `--seconds 10`; the sweep takes 24 s on the
/// baseline box.
const WARMUP: u64 = 1_000;
const MEASURE: u64 = 10_000;

/// One finished `fig11` process.
struct Spawned {
    /// Exit code 0 and no quarantined cell.
    ok: bool,
    wall_s: f64,
    /// Seconds from spawn to each `sweep:` line on stderr that opens a
    /// phase (alone cells, then the grid).
    sweep_lines: Vec<f64>,
    peak_rss_mb: f64,
}

/// Runs `fig11` to completion, time-stamping its stderr lines and polling
/// its peak resident set while it lives.
fn spawn(fig11: &Path, args: &[String]) -> Result<Spawned, String> {
    let started = Instant::now();
    let mut child = Command::new(fig11)
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", fig11.display()))?;
    let stderr = child.stderr.take().expect("stderr is piped");
    let pid = child.id();
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let (mut sweep_lines, mut quarantined) = (Vec::new(), false);
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if line.contains("quarantined") {
                    quarantined = true;
                    eprintln!("  fig11: {line}");
                } else if line.starts_with("sweep:") {
                    sweep_lines.push(started.elapsed().as_secs_f64());
                } else if !line.starts_with("wrote JSON report") {
                    eprintln!("  fig11: {line}");
                }
            }
            (sweep_lines, quarantined)
        });
        let mut peak_rss_mb = 0.0f64;
        let status = loop {
            // `VmHWM` only grows, so the last reading before exit is the peak.
            peak_rss_mb = peak_rss_mb.max(crate::peak_rss_mb(pid).unwrap_or(0.0));
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("wait for fig11: {e}")),
            }
        };
        let wall_s = started.elapsed().as_secs_f64();
        let (sweep_lines, quarantined) = reader.join().map_err(|_| "stderr reader panicked")?;
        Ok(Spawned {
            ok: status.success() && !quarantined,
            wall_s,
            sweep_lines,
            peak_rss_mb,
        })
    })
}

pub fn run(fig11: &Path, seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let dir = crate::out_dir().join(format!("fig_sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let scaled = |cycles: u64| ((cycles as f64 * seconds / DEFAULT_SECONDS) as u64).max(100);
    let (warmup, measure) = (scaled(WARMUP), scaled(MEASURE));
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let journal = dir.join("journal");
    let command = |json: &Path| -> Vec<String> {
        [
            "--warmup",
            &warmup.to_string(),
            "--measure",
            &measure.to_string(),
            "--jobs",
            &jobs.to_string(),
            "--seed",
            &seed.to_string(),
            "--resume",
            &journal.display().to_string(),
            "--json",
            &json.display().to_string(),
        ]
        .map(String::from)
        .to_vec()
    };

    let cold_json = dir.join("a.json");
    let (cold, _) = tracer.time("bench.fig11_cold", CELLS, |_| {
        spawn(fig11, &command(&cold_json))
    });
    let cold = cold?;
    // A failed or quarantined cell exits non-zero; either way no cell counts.
    let (attempted, mut failed) = (CELLS + 1, if cold.ok { 0 } else { CELLS });
    let &setup_s = cold
        .sweep_lines
        .first()
        .ok_or("fig11 never printed a `sweep:` line")?;

    // The same command on the now-full journal: nothing to simulate, a
    // byte-identical report.
    let report = std::fs::read(&cold_json).ok();
    let resumed_json = dir.join("b.json");
    let (resumed, _) = tracer.time("bench.fig11_resumed", CELLS, |_| {
        spawn(fig11, &command(&resumed_json))
    });
    let resumed = resumed?;
    if !resumed.ok || report.is_none() || report != std::fs::read(&resumed_json).ok() {
        failed += 1;
        eprintln!("  fig_sweep: the resumed run differs from the cold one");
    }

    let mut outcome = Outcome::new(attempted, failed, tracer.recording());
    if !tracer.recording() {
        eprintln!(
            "  cold sweep: {CELLS} cells of {warmup}+{measure} cycles on {jobs} worker(s) in {:.4} s, resumed in {:.4} s",
            cold.wall_s, resumed.wall_s
        );
        let metrics = &mut outcome.metrics;
        metrics.set("setup_s", setup_s);
        metrics.set("peak_rss_mb", cold.peak_rss_mb);
        metrics.set("cells_per_s", CELLS as f64 / cold.wall_s);
        // `fig11` does not time its cells one by one: worker time per cell,
        // a mean where the daemon's figure is a median.
        metrics.set(
            "cold_cell_p50_ms",
            jobs as f64 * cold.wall_s / CELLS as f64 * 1e3,
        );
    } else {
        // The simulator's layers, on the cell this sweep is made of.
        layers::reference_cell(seed, tracer, &mut outcome);
        let metrics = &mut outcome.metrics;
        if let [alone, grid] = cold.sweep_lines[..] {
            metrics.set("engine.alone_phase_s", grid - alone);
            metrics.set("engine.grid_phase_s", cold.wall_s - grid);
        }
        metrics.set("engine.resume_ms", resumed.wall_s * 1e3);
        // What is left of a resumed run once the journal scan is taken out:
        // process start, argument parsing, rendering, the JSON report.
        let journal_text = std::fs::read_to_string(&journal).unwrap_or_default();
        let (_, scan_s) = tracer.time("sim.journal_scan_fig11", CELLS, |_| {
            std::hint::black_box(journal::scan(&journal_text).is_ok())
        });
        metrics.set("bench.fig11_spawn_ms", (resumed.wall_s - scan_s) * 1e3);
        metrics.set("bench.trace_spans", tracer.span_count() as f64);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(outcome)
}
