//! The weighted-speedup figures: scheme gains over the unprioritized
//! baseline across workloads (Figures 11, 15), along one parameter or
//! hardware axis (Figures 16a–c, 17, the VC ablation), and with parts of
//! the machinery removed (the priority and scheduler ablations). Each runs
//! two pool phases — alone-IPC denominators, then the mix grid.

use noclat::{
    weighted_speedup_of, MemSchedPolicy, RouterPipeline, Scheme, StarvationPolicy, SystemConfig,
};
use noclat_engine::{self as sweep, AloneMap, Json, MixCell, Obj, SweepArgs};
use noclat_sim::stats::geomean;
use noclat_workloads::{indices_of, SpecApp, Workload, WorkloadKind};

use crate::{pct, w};

/// The Table-1 system under the sweep's seed.
fn seeded(mut hw: SystemConfig, args: &SweepArgs) -> SystemConfig {
    hw.seed = args.seed;
    hw
}

/// The unprioritized and Scheme-1+2 cells of one hardware point, labelled
/// `<prefix>/base` and `<prefix>/both`, each paired with `hw` for its alone
/// runs (the shape [`sweep::run_ws_grid`] consumes).
fn base_and_both(
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
/// all 18 workloads on `hw`, one panel per workload kind, each closed by
/// `geomean_line` (it differs between the two figures). Appends the
/// `workloads` and `geomeans` fields to `body`.
fn scheme_gain_panels(
    args: &SweepArgs,
    fig: &str,
    hw: SystemConfig,
    apps_of: fn(&Workload) -> Vec<SpecApp>,
    body: Obj,
    geomean_line: impl Fn(f64, f64),
) -> Json {
    let hw = seeded(hw, args);
    let mut cells = Vec::new();
    for mix in (1..=18).map(w) {
        for (variant, scheme) in [
            ("base", Scheme::Baseline),
            ("s1", Scheme::S1),
            ("both", Scheme::Both),
        ] {
            let label = format!("{fig}/{}/{variant}", mix.name());
            let cfg = hw.clone().with_scheme(scheme);
            cells.push((MixCell::new(label, cfg, apps_of(&mix)), hw.clone()));
        }
    }
    let ws = sweep::run_ws_grid(args, cells);

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
        let (mut s1s, mut boths) = (Vec::new(), Vec::new());
        for i in indices_of(kind) {
            let base = ws[(i - 1) * 3];
            let s1 = ws[(i - 1) * 3 + 1] / base;
            let both = ws[(i - 1) * 3 + 2] / base;
            let name = w(i).name();
            println!("{name:>12} {base:>9.3} {s1:>10.3} {both:>12.3}");
            s1s.push(s1);
            boths.push(both);
            rows_json.push(
                Obj::new()
                    .field("workload", name)
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
        .build()
}

/// Figure 11 — all 18 workloads on the 32-core system, in the paper's three
/// panels. Paper shape: Scheme-1+2 ≥ Scheme-1; memory-intensive workloads
/// gain the most, non-intensive the least; one or two workloads may dip
/// slightly below 1.0 under Scheme-1 alone (the paper saw workloads 2, 9).
pub fn fig11(args: &SweepArgs, _: &[String]) -> Json {
    let hw = SystemConfig::baseline_32();
    let body = scheme_gain_panels(args, "fig11", hw, Workload::apps, Obj::new(), |g1, g2| {
        let (p1, p2) = (pct(g1), pct(g2));
        println!(
            "{:>12} {:>9} {g1:>10.3} {g2:>12.3}   (Scheme-1 {p1}, Scheme-1+2 {p2})",
            "geomean", ""
        );
    });
    println!("\nPaper: up to +13% (mixed), +15% (intensive), +1% (non-intensive) for Scheme-1+2.");
    println!("See EXPERIMENTS.md for the magnitude discussion.");
    body
}

/// Figure 15 — the 16-core system (4x4 mesh, 2 controllers) on the first
/// half of each workload. Paper shape: gains are positive but smaller than
/// on 32 cores (the network contributes less to a round trip in a smaller
/// mesh); paper averages ~8% / ~11% / ~1.5% for Scheme-1+2.
pub fn fig15(args: &SweepArgs, _: &[String]) -> Json {
    let hw = SystemConfig::baseline_16();
    let body = Obj::new().field("cores", 16u64);
    scheme_gain_panels(args, "fig15", hw, Workload::first_half, body, |g1, g2| {
        let (p1, p2) = (pct(g1), pct(g2));
        println!("{:>12} geomean: Scheme-1 {p1}, Scheme-1+2 {p2}", "");
    })
}

/// The edit that moves a configuration to one point of an axis.
type Set = fn(&mut SystemConfig);

/// One sensitivity axis of the combined schemes — a row of parameters to
/// the one body below.
struct Axis {
    /// Per point: its name in cell labels, its column head, its report key,
    /// and the edit that moves a configuration to it.
    points: &'static [(&'static str, &'static str, &'static str, Set)],
    /// `Some(label)`: the axis varies a scheme parameter, so all points
    /// share the one unprioritized cell `<prefix>/<label>` (and its alone
    /// runs). `None`: it varies hardware, so every point has its own
    /// baseline, `<prefix>/<point>/{base,both}`.
    shared_base: Option<&'static str>,
    /// Column width of the printed table.
    width: usize,
}

/// Figure 16a — the Scheme-1 lateness threshold. Paper shape: 1.2x is the
/// sweet spot; 1.4x marks too few messages, 1.0x too many (prioritizing
/// everything hurts the rest).
const THRESHOLD: Axis = Axis {
    points: &[
        ("t1", "1.0x", "t1.0", |c| c.scheme1.threshold_factor = 1.0),
        ("t1.2", "1.2x", "t1.2", |c| c.scheme1.threshold_factor = 1.2),
        ("t1.4", "1.4x", "t1.4", |c| c.scheme1.threshold_factor = 1.4),
    ],
    shared_base: Some("t0"),
    width: 8,
};

/// Figure 16b — Scheme-2's bank history window T. Paper shape: T=200 is
/// best on average; T=400 expedites too few requests, T=100 misjudges idle
/// banks.
const HISTORY: Axis = Axis {
    points: &[
        ("T100", "T=100", "T100", |c| c.scheme2.history_window = 100),
        ("T200", "T=200", "T200", |c| c.scheme2.history_window = 200),
        ("T400", "T=400", "T400", |c| c.scheme2.history_window = 400),
    ],
    shared_base: Some("T0"),
    width: 8,
};

/// Figure 16c — 4 vs 2 memory controllers. Paper shape: with fewer
/// controllers, pressure per controller rises, Scheme-1 has more late
/// accesses to catch, and combined gains are slightly higher (with
/// exceptions, e.g. the paper's w-2/w-3).
const CONTROLLERS: Axis = Axis {
    points: &[
        ("4mc", "4 MCs", "mc4", |hw| hw.mem.num_controllers = 4),
        ("2mc", "2 MCs", "mc2", |hw| hw.mem.num_controllers = 2),
    ],
    shared_base: None,
    width: 8,
};

/// Figure 17 — 5-stage vs 2-stage router pipelines. Paper shape: gains
/// persist with 2-stage routers but shrink by 25-40% (shallower pipelines
/// leave less network latency to save, and bypassing has nothing to skip).
const PIPELINE: Axis = Axis {
    points: &[
        ("FiveStage", "5-stage", "five_stage", |hw| {
            hw.noc.pipeline = RouterPipeline::FiveStage;
        }),
        ("TwoStage", "2-stage", "two_stage", |hw| {
            hw.noc.pipeline = RouterPipeline::TwoStage;
        }),
    ],
    shared_base: None,
    width: 9,
};

impl Axis {
    /// The axis' cells for one workload: the shared baseline if any, then
    /// the points in order.
    fn cells(
        &self,
        args: &SweepArgs,
        prefix: &str,
        apps: &[SpecApp],
    ) -> Vec<(MixCell, SystemConfig)> {
        let hw = seeded(SystemConfig::baseline_32(), args);
        let mut cells = Vec::new();
        if let Some(label) = self.shared_base {
            let cell = MixCell::new(format!("{prefix}/{label}"), hw.clone(), apps.to_vec());
            cells.push((cell, hw.clone()));
        }
        for (part, _, _, set) in self.points {
            let label = format!("{prefix}/{part}");
            if self.shared_base.is_some() {
                let mut cfg = hw.clone().with_scheme(Scheme::Both);
                set(&mut cfg);
                cells.push((MixCell::new(label, cfg, apps.to_vec()), hw.clone()));
            } else {
                let mut point = hw.clone();
                set(&mut point);
                cells.extend(base_and_both(&label, &point, apps));
            }
        }
        cells
    }

    /// Figures 16a–c and 17: the mixed workloads 1–6 along the axis, as a
    /// table of normalized weighted speedups closed by the per-column
    /// geomean row. Returns the geomeans and the report body (`lead`, then
    /// `workloads` and `geomeans`).
    fn sweep(&self, args: &SweepArgs, fig: &str, lead: Obj) -> (Vec<f64>, Json) {
        let width = self.width;
        let keyed = |obj: Obj, values: &[f64]| {
            let fields = self.points.iter().zip(values);
            fields.fold(obj, |obj, (point, value)| obj.field(point.2, *value))
        };
        let cells = (1..=6).flat_map(|i| {
            let prefix = format!("{fig}/{}", w(i).name());
            self.cells(args, &prefix, &w(i).apps())
        });
        let ws = sweep::run_ws_grid(args, cells.collect());

        print!("{:>12}", "workload");
        for (_, head, _, _) in self.points {
            print!(" {head:>width$}");
        }
        println!();
        let mut columns = vec![Vec::new(); self.points.len()];
        let mut rows_json = Vec::new();
        for (i, chunk) in (1..=6).zip(ws.chunks(ws.len() / 6)) {
            // Scheme-1+2 weighted speedup over its baseline at every point.
            let gains: Vec<f64> = match self.shared_base {
                Some(_) => chunk[1..].iter().map(|v| v / chunk[0]).collect(),
                None => chunk.chunks(2).map(|c| c[1] / c[0]).collect(),
            };
            let name = w(i).name();
            print!("{name:>12}");
            for (column, v) in columns.iter_mut().zip(&gains) {
                print!(" {v:>width$.3}");
                column.push(*v);
            }
            println!();
            let mut row = Obj::new().field("workload", name);
            if self.shared_base.is_some() {
                row = row.field("base_ws", chunk[0]);
            }
            rows_json.push(keyed(row, &gains).build());
        }
        let geo: Vec<f64> = columns.iter().map(|c| geomean(c).unwrap_or(1.0)).collect();
        print!("{:>12}", "geomean");
        for g in &geo {
            print!(" {g:>width$.3}");
        }
        println!();
        let body = lead
            .field("workloads", Json::Arr(rows_json))
            .field("geomeans", keyed(Obj::new(), &geo).build());
        (geo, body.build())
    }
}

/// Figure 16a: [`THRESHOLD`].
pub fn fig16a(args: &SweepArgs, _: &[String]) -> Json {
    let lead = Obj::new().field("factors", vec![1.0, 1.2, 1.4]);
    THRESHOLD.sweep(args, "fig16a", lead).1
}

/// Figure 16b: [`HISTORY`].
pub fn fig16b(args: &SweepArgs, _: &[String]) -> Json {
    let lead = Obj::new().field("windows", vec![100u64, 200, 400]);
    HISTORY.sweep(args, "fig16b", lead).1
}

/// Figure 16c: [`CONTROLLERS`].
pub fn fig16c(args: &SweepArgs, _: &[String]) -> Json {
    CONTROLLERS.sweep(args, "fig16c", Obj::new()).1
}

/// Figure 17: [`PIPELINE`].
pub fn fig17(args: &SweepArgs, _: &[String]) -> Json {
    let (geo, body) = PIPELINE.sweep(args, "fig17", Obj::new());
    if geo[0] > 1.0 {
        let share = (geo[1] - 1.0) / (geo[0] - 1.0) * 100.0;
        println!("\n2-stage gains are {share:.0}% of the 5-stage gains (paper: 60-75%)");
    }
    body
}

/// Ablation — 2/4/8 virtual channels per port on workload-2: the hardware
/// points of an axis, printed as sentences. More VCs reduce head-of-line
/// blocking, which shrinks the queueing the schemes can jump.
pub fn ablation_vcs(args: &SweepArgs, _: &[String]) -> Json {
    const VCS: [usize; 3] = [2, 4, 8];
    let cells = VCS.iter().flat_map(|vcs| {
        let mut hw = seeded(SystemConfig::baseline_32(), args);
        hw.noc.vcs_per_port = *vcs;
        base_and_both(&format!("vcs/{vcs}"), &hw, &w(2).apps())
    });
    let ws = sweep::run_ws_grid(args, cells.collect());
    let mut rows_json = Vec::new();
    for (vcs, pair) in VCS.iter().zip(ws.chunks(2)) {
        let (base, gain) = (pair[0], pair[1] / pair[0]);
        let delta = pct(gain);
        println!("{vcs} VCs/port: base WS {base:.3}, Scheme-1+2 {delta}");
        rows_json.push(
            Obj::new()
                .field("vcs_per_port", *vcs)
                .field("base_ws", base)
                .field("both_over_base", gain)
                .build(),
        );
    }
    Obj::new()
        .field("workload", 2u64)
        .field("points", Json::Arr(rows_json))
        .build()
}

/// Ablation — FR-FCFS (the paper's and industry's baseline) vs FCFS, which
/// destroys row locality: how much the schemes depend on a competent
/// scheduler downstream. One alone table per scheduler (they genuinely
/// differ even alone); each cell reports its row-hit rate beside its
/// weighted speedup, so the extractor carries both tables and picks the one
/// of the scheduler the cell ran.
pub fn ablation_memsched(args: &SweepArgs, _: &[String]) -> Json {
    const SCHEDS: [MemSchedPolicy; 2] = MemSchedPolicy::ALL;
    let apps = w(8).apps();
    let hws = SCHEDS.map(|sched| {
        let mut hw = seeded(SystemConfig::baseline_32(), args);
        hw.mem.scheduler = sched;
        hw
    });
    let alone = AloneMap::compute(args, hws.iter().map(|hw| (hw, apps.as_slice())));
    let tables: Vec<_> = hws
        .iter()
        .map(|hw| (hw.mem.scheduler, alone.table(hw, &apps)))
        .collect();
    let cells = SCHEDS
        .iter()
        .zip(&hws)
        .flat_map(|(sched, hw)| base_and_both(&format!("memsched/{sched:?}"), hw, &apps))
        .map(|(cell, _)| cell)
        .collect();
    let results = sweep::run_mix_grid(args, cells, move |r| {
        let sched = r.system.config().mem.scheduler;
        let (_, table) = tables
            .iter()
            .find(|(s, _)| *s == sched)
            .expect("a swept scheduler");
        let controllers = r.system.num_controllers();
        let hit_rate: f64 = (0..controllers)
            .map(|m| r.system.controller_stats(m).row_hit_rate())
            .sum::<f64>()
            / controllers as f64;
        (weighted_speedup_of(r, table), hit_rate)
    });

    let mut rows_json = Vec::new();
    for (sched, pair) in SCHEDS.iter().zip(results.chunks(2)) {
        let ((base, hit_rate), (both, _)) = (pair[0], pair[1]);
        let delta = pct(both / base);
        println!("{sched:?}: base WS {base:.3}, row-hit rate {hit_rate:.2}, Scheme-1+2 {delta}");
        rows_json.push(
            Obj::new()
                .field("scheduler", format!("{sched:?}"))
                .field("base_ws", base)
                .field("row_hit_rate", hit_rate)
                .field("both_over_base", both / base)
                .build(),
        );
    }
    Obj::new()
        .field("workload", 8u64)
        .field("schedulers", Json::Arr(rows_json))
        .build()
}

/// Ablation — which parts of the prioritization machinery matter?
/// Scheme-1+2 against itself with pipeline bypassing disabled (arbitration
/// priority only), with the starvation age guard at zero (oldest-first
/// arbitration: priority only breaks age ties), with strict priority (the
/// class alone decides, no guard), and against each scheme alone, on
/// workload-8 (memory-intensive, the most sensitive to all of them).
pub fn ablation_priority(args: &SweepArgs, _: &[String]) -> Json {
    let hw = seeded(SystemConfig::baseline_32(), args);
    let full = hw.clone().with_scheme(Scheme::Both);
    let mut no_bypass = full.clone();
    no_bypass.noc.bypass_enabled = false;
    let mut zero_guard = full.clone();
    zero_guard.noc.starvation_age_guard = 0;
    let mut strict = full.clone();
    strict.noc.starvation = StarvationPolicy::StaticPriority;
    let variants = [
        ("baseline", "baseline WS", hw.clone()),
        ("s1", "Scheme-1 only", hw.clone().with_scheme(Scheme::S1)),
        ("s2", "Scheme-2 only", hw.clone().with_scheme(Scheme::S2)),
        ("full", "Scheme-1+2 (full)", full),
        ("no_bypass", "Scheme-1+2, no bypassing", no_bypass),
        ("zero_guard", "Scheme-1+2, oldest-first (T=0)", zero_guard),
        ("static", "Scheme-1+2, strict priority", strict),
    ];
    let cells = variants.iter().map(|(name, _, cfg)| {
        let cell = MixCell::new(format!("priority/{name}"), cfg.clone(), w(8).apps());
        (cell, hw.clone())
    });
    let ws = sweep::run_ws_grid(args, cells.collect());
    let base = ws[0];

    println!("{:31}: {base:.3}", variants[0].1);
    let mut body = Obj::new().field("workload", 8u64).field("base_ws", base);
    for ((name, title, _), ws) in variants.iter().zip(&ws).skip(1) {
        println!("{title:31}: {}", pct(ws / base));
        body = body.field(*name, ws / base);
    }
    body.build()
}
