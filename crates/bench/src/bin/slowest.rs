//! Slowest-transaction dissection (extension): the paper's Figure-3
//! narrative made concrete — for one workload, print the slowest off-chip
//! accesses of the run with their five-path breakdowns, under the baseline
//! and under Scheme-1.
//!
//! Both runs execute as one pool grid; the jobs return plain rows, so the
//! report is identical for every `--jobs` value.

use noclat::{Scheme, SystemConfig};
use noclat_bench::banner;
use noclat_engine::{self as sweep, Json, MixCell, Obj, SweepArgs};
use noclat_workloads::workload;

const TOP_K: usize = 15;

/// One slowest-access row: core, app name, total, five path segments.
type Row = (usize, String, u64, [u64; 5]);

fn print_slowest(label: &str, rows: &[Row]) {
    println!("\n--- {label}: {TOP_K} slowest off-chip accesses ---");
    println!(
        "{:>5} {:>12} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "core", "app", "total", "L1->L2", "L2->Mem", "Mem", "Mem->L2", "L2->L1"
    );
    for (core, app, total, s) in rows {
        println!(
            "{core:>5} {app:>12} {total:>7} {:>8} {:>8} {:>8} {:>8} {:>8}",
            s[0], s[1], s[2], s[3], s[4]
        );
    }
}

fn rows_json(rows: &[Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|(core, app, total, s)| {
                Obj::new()
                    .field("core", *core)
                    .field("app", app.clone())
                    .field("total", *total)
                    .field("segments", s.to_vec())
                    .build()
            })
            .collect(),
    )
}

fn main() {
    let args = SweepArgs::parse(&format!("slowest {}", sweep::SWEEP_USAGE));
    banner(
        "Slowest transactions (extension): where do late accesses lose time?",
        "Workload-8; baseline vs Scheme-1.",
    );
    let cells = [("base", Scheme::Baseline), ("s1", Scheme::S1)]
        .into_iter()
        .map(|(label, scheme)| {
            let mut cfg = SystemConfig::baseline_32().with_scheme(scheme);
            cfg.seed = args.seed;
            MixCell::new(format!("slowest/{label}"), cfg, workload(8).apps())
        })
        .collect();
    let results = sweep::run_mix_grid(&args, cells, |r| {
        r.system
            .slowest_transactions()
            .iter()
            .take(TOP_K)
            .map(|rec| {
                (
                    rec.core,
                    r.per_app[rec.core].app.name().to_string(),
                    rec.total(),
                    rec.times.segments(),
                )
            })
            .collect::<Vec<Row>>()
    });
    let (base, s1) = (&results[0], &results[1]);

    print_slowest("baseline", base);
    print_slowest("Scheme-1", s1);
    let worst = |rows: &[Row]| rows.first().map_or(0, |r| r.2);
    println!(
        "\nworst-case access: {} -> {} cycles",
        worst(base),
        worst(s1)
    );

    let json = sweep::report(
        "slowest",
        &args,
        Obj::new()
            .field("workload", 8u64)
            .field("baseline", rows_json(base))
            .field("scheme1", rows_json(s1))
            .build(),
    );
    sweep::finish(&args, &json);
}
