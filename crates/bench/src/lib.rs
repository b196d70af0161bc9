//! Shared harness plumbing for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index): it builds its grid of
//! [`MixCell`]s from its own axes, hands them to a `noclat_engine` runner,
//! and renders what comes back. What two or more figures render identically
//! lives here.

use noclat::{MixResult, Scheme, SystemConfig};
use noclat_engine::{run_ws_grid, Json, MixCell, Obj, SweepArgs};
use noclat_sim::stats::geomean;
use noclat_workloads::{indices_of, workload, SpecApp, Workload, WorkloadKind};

/// Prints the standard harness header.
pub fn banner(artifact: &str, what: &str) {
    println!("==============================================================");
    println!("{artifact}");
    println!("{what}");
    println!("==============================================================");
}

/// Core index of the first instance of `app` in a mix result.
#[must_use]
pub fn core_of(result: &MixResult, app: SpecApp) -> Option<usize> {
    result.per_app.iter().find(|a| a.app == app).map(|a| a.core)
}

/// Convenience: the paper's workload-N.
#[must_use]
pub fn w(n: usize) -> Workload {
    workload(n)
}

/// Formats a fraction as a percent delta ("+3.4%").
#[must_use]
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

/// The workload-2 baseline cell behind the sharded distribution figures
/// (4, 5, 6, 9), labelled `<fig>/w2`.
#[must_use]
pub fn w2_baseline(fig: &str) -> MixCell {
    MixCell::new(
        format!("{fig}/w2"),
        SystemConfig::baseline_32(),
        w(2).apps(),
    )
}

/// The unprioritized and Scheme-1+2 cells of one hardware point, labelled
/// `<prefix>/base` and `<prefix>/both`, each paired with `hw` for its alone
/// runs (the shape [`run_ws_grid`] consumes).
#[must_use]
pub fn base_and_both(
    prefix: &str,
    hw: &SystemConfig,
    apps: &[SpecApp],
) -> [(MixCell, SystemConfig); 2] {
    [("base", Scheme::Baseline), ("both", Scheme::Both)].map(|(label, scheme)| {
        let cfg = hw.clone().with_scheme(scheme);
        let cell = MixCell::new(format!("{prefix}/{label}"), cfg, apps.to_vec());
        (cell, hw.clone())
    })
}

/// Figures 11 and 15: baseline / Scheme-1 / Scheme-1+2 weighted speedups of
/// all 18 workloads on `hw` (seeded from `args`), one panel per workload
/// kind. Prints the panels — the geomean line is the caller's, it differs
/// between the two figures — and appends the `workloads` and `geomeans`
/// fields to the report `body`.
pub fn scheme_gain_panels(
    args: &SweepArgs,
    fig: &str,
    mut hw: SystemConfig,
    apps_of: fn(&Workload) -> Vec<SpecApp>,
    body: Obj,
    geomean_line: impl Fn(f64, f64),
) -> Obj {
    hw.seed = args.seed;
    let mut cells = Vec::new();
    for mix in (1..=18).map(w) {
        let apps = apps_of(&mix);
        for (variant, scheme) in [
            ("base", Scheme::Baseline),
            ("s1", Scheme::S1),
            ("both", Scheme::Both),
        ] {
            let label = format!("{fig}/{}/{variant}", mix.name());
            let cfg = hw.clone().with_scheme(scheme);
            cells.push((MixCell::new(label, cfg, apps.clone()), hw.clone()));
        }
    }
    let ws = run_ws_grid(args, cells);

    let mut rows_json = Vec::new();
    let mut geo_json = Obj::new();
    for kind in [
        WorkloadKind::Mixed,
        WorkloadKind::MemIntensive,
        WorkloadKind::MemNonIntensive,
    ] {
        println!("\n--- {kind:?} ---");
        println!(
            "{:>12} {:>9} {:>10} {:>12}",
            "workload", "base WS", "Scheme-1", "Scheme-1+2"
        );
        let mut s1s = Vec::new();
        let mut boths = Vec::new();
        for i in indices_of(kind) {
            let base = ws[(i - 1) * 3];
            let s1 = ws[(i - 1) * 3 + 1] / base;
            let both = ws[(i - 1) * 3 + 2] / base;
            println!(
                "{:>12} {:>9.3} {:>10.3} {:>12.3}",
                w(i).name(),
                base,
                s1,
                both
            );
            s1s.push(s1);
            boths.push(both);
            rows_json.push(
                Obj::new()
                    .field("workload", w(i).name())
                    .field("kind", format!("{kind:?}"))
                    .field("base_ws", base)
                    .field("s1", s1)
                    .field("both", both)
                    .build(),
            );
        }
        let g1 = geomean(&s1s).unwrap_or(1.0);
        let g2 = geomean(&boths).unwrap_or(1.0);
        geomean_line(g1, g2);
        geo_json = geo_json.field(
            format!("{kind:?}"),
            Obj::new().field("s1", g1).field("both", g2).build(),
        );
    }
    body.field("workloads", Json::Arr(rows_json))
        .field("geomeans", geo_json.build())
}

/// Figures 16a–c and 17: prints one row of normalized weighted speedups per
/// workload under `heads` (columns `width` wide), then the per-column
/// geomean row, and returns the geomeans.
pub fn ratio_table(width: usize, heads: &[&str], rows: &[(String, Vec<f64>)]) -> Vec<f64> {
    print!("{:>12}", "workload");
    for head in heads {
        print!(" {head:>width$}");
    }
    println!();
    for (name, row) in rows {
        print!("{name:>12}");
        for v in row {
            print!(" {v:>width$.3}");
        }
        println!();
    }
    let geo: Vec<f64> = (0..heads.len())
        .map(|k| {
            let col: Vec<f64> = rows.iter().map(|(_, row)| row[k]).collect();
            geomean(&col).unwrap_or(1.0)
        })
        .collect();
    print!("{:>12}", "geomean");
    for g in &geo {
        print!(" {g:>width$.3}");
    }
    println!();
    geo
}

/// Appends one `key: value` field per column to a report object.
#[must_use]
pub fn keyed(obj: Obj, keys: &[&str], values: &[f64]) -> Obj {
    keys.iter()
        .zip(values)
        .fold(obj, |obj, (key, value)| obj.field(*key, *value))
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
