//! System configuration.
//!
//! The defaults reproduce the paper's Table 1 (baseline configuration of the
//! 32-core, 4×8-mesh system with 4 corner memory controllers). Every
//! experiment in the evaluation section is a perturbation of
//! [`SystemConfig::baseline_32`]; the 16-core system of Figure 15 is
//! [`SystemConfig::baseline_16`].

use crate::error::FaultError;
use crate::faults::FaultPlan;
use crate::Cycle;

/// Which network fabric connects the tiles.
///
/// The tile grid (`width × height`, one core/L1/L2-bank per tile) is the
/// same for every kind — the kind only changes how routers are wired:
///
/// * `Mesh` — the paper's 2D mesh.
/// * `Torus` — mesh plus wraparound links in both dimensions; deadlock
///   freedom comes from dateline virtual-channel subclasses, which is why a
///   torus needs `vcs_per_port` divisible by 4 (request/response halves,
///   each split into two dateline subclasses).
/// * `CMesh` — concentrated mesh: `concentration` tiles share one router
///   (2 → 2×1 tile blocks, 4 → 2×2 blocks), quartering router count and
///   average hop distance at 256+ cores.
/// * `Express` — mesh plus express (ruche) channels that skip
///   `express_skip` routers per hop in each dimension, the BSG
///   `RUCHE_FACTOR` parameterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TopologyKind {
    /// Plain 2D mesh (the default; the paper's fabric).
    #[default]
    Mesh,
    /// 2D torus with dateline VCs.
    Torus,
    /// Concentrated mesh.
    CMesh,
    /// Mesh with express/ruche skip channels.
    Express,
}

impl TopologyKind {
    /// Parses a `--topology` fabric name.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown names.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value {
            "mesh" => Ok(TopologyKind::Mesh),
            "torus" => Ok(TopologyKind::Torus),
            "cmesh" => Ok(TopologyKind::CMesh),
            "express" => Ok(TopologyKind::Express),
            _ => Err(format!(
                "--topology: unknown fabric {value:?} (known: mesh, torus, cmesh, express)"
            )),
        }
    }

    /// The CLI name of this fabric.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TopologyKind::Mesh => "mesh",
            TopologyKind::Torus => "torus",
            TopologyKind::CMesh => "cmesh",
            TopologyKind::Express => "express",
        }
    }
}

/// Where memory controllers attach to the tile grid — a swept sub-axis
/// ("Optimal Placement of Cores, Caches and Memory Controllers in NoC").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum McPlacement {
    /// The paper's layout: controllers at the grid corners (default).
    #[default]
    Corner,
    /// Controllers at edge midpoints (top/bottom, then left/right).
    Edge,
    /// Controllers in the central block of the grid.
    Center,
}

impl McPlacement {
    /// Parses an `mc=` placement name.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown names.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value {
            "corner" => Ok(McPlacement::Corner),
            "edge" => Ok(McPlacement::Edge),
            "center" => Ok(McPlacement::Center),
            _ => Err(format!(
                "--topology: unknown MC placement {value:?} (known: corner, edge, center)"
            )),
        }
    }

    /// The CLI name of this placement.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            McPlacement::Corner => "corner",
            McPlacement::Edge => "edge",
            McPlacement::Center => "center",
        }
    }
}

/// Tile-grid dimensions and fabric selection.
///
/// `width × height` always counts **tiles** (cores); for a concentrated
/// mesh the router grid is smaller by the concentration factor, but the
/// cache hierarchy, workload mapping and MC placement are all expressed in
/// tiles and are untouched by the fabric choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TopologyConfig {
    /// Number of tile columns (the paper's 4×8 mesh is 4 rows × 8 columns).
    pub width: u16,
    /// Number of tile rows.
    pub height: u16,
    /// Which fabric wires the routers together.
    pub kind: TopologyKind,
    /// Tiles per router (`CMesh` only; 1 elsewhere). 2 → 2×1 tile blocks,
    /// 4 → 2×2 blocks.
    pub concentration: u16,
    /// Routers skipped by one express-channel hop (`Express` only;
    /// the BSG `RUCHE_FACTOR`). Must satisfy `2 ≤ skip < min(width, height)`.
    pub express_skip: u16,
    /// Where memory controllers attach.
    pub mc_placement: McPlacement,
}

impl TopologyConfig {
    /// A plain mesh — the paper's fabric and the default.
    #[must_use]
    pub fn mesh(width: u16, height: u16) -> Self {
        TopologyConfig {
            width,
            height,
            kind: TopologyKind::Mesh,
            concentration: 1,
            express_skip: 0,
            mc_placement: McPlacement::Corner,
        }
    }

    /// A torus of the same tile grid.
    #[must_use]
    pub fn torus(width: u16, height: u16) -> Self {
        TopologyConfig {
            kind: TopologyKind::Torus,
            ..Self::mesh(width, height)
        }
    }

    /// A concentrated mesh with `concentration` tiles per router.
    #[must_use]
    pub fn cmesh(width: u16, height: u16, concentration: u16) -> Self {
        TopologyConfig {
            kind: TopologyKind::CMesh,
            concentration,
            ..Self::mesh(width, height)
        }
    }

    /// A mesh with express channels skipping `express_skip` routers.
    #[must_use]
    pub fn express(width: u16, height: u16, express_skip: u16) -> Self {
        TopologyConfig {
            kind: TopologyKind::Express,
            express_skip,
            ..Self::mesh(width, height)
        }
    }

    /// Total number of tiles (`width × height`), i.e. cores.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        usize::from(self.width) * usize::from(self.height)
    }

    /// Compact `fabric:WxH[,extras]` label for logs and fingerprints.
    #[must_use]
    pub fn label(&self) -> String {
        let mut s = format!("{}:{}x{}", self.kind.name(), self.width, self.height);
        if self.kind == TopologyKind::CMesh {
            s.push_str(&format!(",c={}", self.concentration));
        }
        if self.kind == TopologyKind::Express {
            s.push_str(&format!(",skip={}", self.express_skip));
        }
        if self.mc_placement != McPlacement::Corner {
            s.push_str(&format!(",mc={}", self.mc_placement.name()));
        }
        s
    }
}

/// A parsed `--topology NAME[:PARAM=V,...]` override from the sweep CLI,
/// e.g. `torus`, `cmesh:c=4`, `express:skip=2,mc=edge`. Like
/// [`PolicyOverride`] it composes with each binary's own config sweep:
/// the tile-grid dimensions are left untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TopologyOverride {
    /// Fabric to select, if any.
    pub kind: Option<TopologyKind>,
    /// Concentration factor (`c=`), if given.
    pub concentration: Option<u16>,
    /// Express skip distance (`skip=`), if given.
    pub express_skip: Option<u16>,
    /// MC placement (`mc=`), if given.
    pub mc_placement: Option<McPlacement>,
}

impl TopologyOverride {
    /// Whether the override selects anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kind.is_none()
            && self.concentration.is_none()
            && self.express_skip.is_none()
            && self.mc_placement.is_none()
    }

    /// Parses `NAME[:PARAM=V,...]`, e.g. `torus`, `cmesh:c=4`,
    /// `express:skip=2,mc=center`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown fabrics, unknown keys,
    /// or malformed values.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut out = TopologyOverride::default();
        if spec.is_empty() {
            return Ok(out);
        }
        let (name, params) = match spec.split_once(':') {
            Some((name, params)) => (name, params),
            None => (spec, ""),
        };
        out.kind = Some(TopologyKind::parse(name)?);
        for part in params.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("--topology: expected key=value, got {part:?}"))?;
            match key {
                "c" | "concentration" => {
                    let c: u16 = value
                        .parse()
                        .map_err(|_| format!("--topology: bad concentration {value:?}"))?;
                    out.concentration = Some(c);
                }
                "skip" | "ruche" => {
                    let s: u16 = value
                        .parse()
                        .map_err(|_| format!("--topology: bad skip distance {value:?}"))?;
                    out.express_skip = Some(s);
                }
                "mc" => {
                    out.mc_placement = Some(McPlacement::parse(value)?);
                }
                _ => {
                    return Err(format!(
                        "--topology: unknown key {key:?} (known: c, skip, mc)"
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Applies the override to a configuration, keeping the tile-grid
    /// dimensions and filling unspecified parameters with per-fabric
    /// defaults (`c=4` for cmesh, `skip=2` for express).
    pub fn apply(&self, cfg: &mut SystemConfig) {
        if let Some(kind) = self.kind {
            cfg.topology.kind = kind;
            cfg.topology.concentration = match kind {
                TopologyKind::CMesh => self.concentration.unwrap_or(4),
                _ => 1,
            };
            cfg.topology.express_skip = match kind {
                TopologyKind::Express => self.express_skip.unwrap_or(2),
                _ => 0,
            };
        } else {
            if let Some(c) = self.concentration {
                cfg.topology.concentration = c;
            }
            if let Some(s) = self.express_skip {
                cfg.topology.express_skip = s;
            }
        }
        if let Some(mc) = self.mc_placement {
            cfg.topology.mc_placement = mc;
        }
    }
}

/// Out-of-order core parameters (Table 1: "Processors").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuConfig {
    /// Instruction window (ROB) capacity. Table 1: 128.
    pub window_size: usize,
    /// Load/store queue capacity. Table 1: 64.
    pub lsq_size: usize,
    /// Maximum instructions dispatched into the window per cycle.
    pub issue_width: usize,
    /// Maximum instructions committed (in order) per cycle.
    pub commit_width: usize,
}

/// Private L1 cache parameters (Table 1: direct-mapped, 32 KB, 64 B lines,
/// 3-cycle access).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Config {
    /// Capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Hit latency in cycles.
    pub latency: Cycle,
}

impl L1Config {
    /// Number of direct-mapped sets.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.size_bytes / self.line_bytes
    }
}

/// Shared, banked S-NUCA L2 parameters (Table 1: 32 banks × 512 KB, 64 B
/// lines, 10-cycle access).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Capacity of one bank in bytes.
    pub bank_size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Set associativity of each bank.
    pub associativity: usize,
    /// Bank hit latency in cycles.
    pub latency: Cycle,
    /// Miss-status holding registers per bank (outstanding misses).
    pub mshrs_per_bank: usize,
}

impl L2Config {
    /// Number of sets in one bank.
    #[must_use]
    pub fn sets_per_bank(&self) -> usize {
        self.bank_size_bytes / (self.line_bytes * self.associativity)
    }
}

/// Dimension-order routing variant. Both are deadlock-free on a mesh; the
/// baseline is X-Y (Table 1). Y-X is provided for traffic-shaping studies
/// (it moves the request-convergence hotspots around the corner
/// controllers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingAlgorithm {
    /// Route along X (columns) first, then Y. The Table-1 baseline.
    XY,
    /// Route along Y (rows) first, then X.
    YX,
}

/// Router pipeline depth (Table 1 baseline: 5-stage; Figure 17 compares
/// against a 2-stage design).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouterPipeline {
    /// BW → RC → VA → SA → ST, the Table-1 baseline.
    FiveStage,
    /// Aggressive two-stage router (setup → ST) evaluated in Figure 17.
    TwoStage,
}

impl RouterPipeline {
    /// Cycles a flit spends inside the router before switch traversal,
    /// assuming no contention (pipeline depth minus the traversal stage).
    #[must_use]
    pub fn min_residency(&self) -> Cycle {
        match self {
            RouterPipeline::FiveStage => 4,
            RouterPipeline::TwoStage => 1,
        }
    }
}

/// NoC parameters (Table 1: 5-stage routers, 128-bit flits, 5-flit buffers,
/// 4 VCs per port, X-Y routing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// Virtual channels per input port. Split evenly between the request and
    /// response virtual networks to avoid protocol deadlock.
    pub vcs_per_port: usize,
    /// Buffer depth per VC, in flits.
    pub buffer_depth: usize,
    /// Flit width in bits (used to compute flits per message).
    pub flit_bits: usize,
    /// Router pipeline depth.
    pub pipeline: RouterPipeline,
    /// Whether prioritized messages may bypass the router pipeline
    /// (Section 3.3 / Figure 10).
    pub bypass_enabled: bool,
    /// Starvation guard: a normal-priority flit wins over a high-priority one
    /// if its age exceeds the high-priority flit's age by more than this many
    /// cycles (Section 3.3).
    pub starvation_age_guard: u32,
    /// Link traversal latency in cycles.
    pub link_latency: Cycle,
    /// Multiplier used when accumulating so-far delays across clock domains
    /// (the paper's `FREQ_MULT`). With a single clock domain this is 1.
    pub freq_mult: u32,
    /// Width of the so-far-delay ("age") field carried in message headers,
    /// in bits. Table 1 / Section 3.1: 12 bits (values saturate at 4095).
    pub age_bits: u32,
    /// Dimension-order routing variant.
    pub routing: RoutingAlgorithm,
    /// Starvation-avoidance mechanism for prioritized arbitration.
    pub starvation: StarvationPolicy,
}

/// How prioritized arbitration treats competing flits (Section 3.3
/// discusses the first two mechanisms; the last two are research ablations
/// reachable via `--policy arb=<name>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StarvationPolicy {
    /// The paper's mechanism: a normal flit wins over a high-priority one
    /// when it is older by more than the configured guard
    /// (`starvation_age_guard`).
    AgeGuard,
    /// The batching alternative the paper cites: time is divided into
    /// intervals of the given length; flits from an older batch beat any
    /// priority difference.
    Batching {
        /// Batch interval in cycles.
        interval: u32,
    },
    /// Pure global-age arbitration: the oldest flit wins regardless of its
    /// priority class (the "oldest-first" ablation baseline).
    OldestFirst,
    /// Pure static-priority arbitration: the priority class alone decides;
    /// ages never override it (no starvation protection — the watchdog is
    /// the backstop).
    StaticPriority,
}

impl NocConfig {
    /// Maximum representable age value (saturating).
    #[must_use]
    pub fn max_age(&self) -> u32 {
        (1u32 << self.age_bits) - 1
    }
}

/// Memory request scheduling policy at the controllers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSchedPolicy {
    /// First-ready, first-come-first-served (row hits first). The baseline.
    FrFcfs,
    /// FR-FCFS with a cap on consecutive row hits per bank, bounding the
    /// starvation row-hit streaks can inflict on row-miss requests.
    FrFcfsCap(u32),
    /// Strict arrival order, for ablation.
    Fcfs,
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PagePolicy {
    /// Leave the row open after an access (the baseline; rewards locality).
    Open,
    /// Precharge after every access (uniform latency, no hits).
    Closed,
}

/// Memory system parameters (Table 1: DDR-800, bus multiplier 5, bank busy
/// 22 cycles, rank delay 2, read-write delay 3, 16 banks per controller).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Number of memory controllers attached at mesh corners (4 baseline,
    /// 2 in the Figure 16c study and the 16-core system).
    pub num_controllers: usize,
    /// DRAM banks behind each controller. Table 1: 16.
    pub banks_per_controller: usize,
    /// Core cycles per DRAM cycle ("Memory Bus Multiplier: 5").
    pub bus_multiplier: u32,
    /// Bank occupancy for a row activation + access, in DRAM cycles
    /// ("Bank Busy Time: 22 cycles").
    pub bank_busy: u32,
    /// Extra bus delay when consecutive commands target different ranks
    /// ("Rank Delay: 2 cycles"). Banks are split evenly across two ranks.
    pub rank_delay: u32,
    /// Bus turnaround penalty when switching between reads and writes
    /// ("Read-Write Delay: 3 cycles").
    pub read_write_delay: u32,
    /// Fixed controller pipeline latency in core cycles
    /// ("Memory CTL latency").
    pub ctl_latency: Cycle,
    /// Interval between periodic refreshes, in DRAM cycles.
    pub refresh_period: u32,
    /// Duration of one refresh (all banks busy), in DRAM cycles.
    pub refresh_duration: u32,
    /// DRAM row (page) size in bytes; consecutive lines within a row enjoy
    /// row-buffer hits.
    pub row_bytes: usize,
    /// Column access latency on a row-buffer hit, in DRAM cycles.
    pub row_hit_latency: u32,
    /// Data burst occupancy of the shared data bus per 64 B line, in DRAM
    /// cycles.
    pub burst_latency: u32,
    /// Scheduling policy.
    pub scheduler: MemSchedPolicy,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
}

/// Scheme-1 (late-response expediting) parameters, Section 3.1. Whether the
/// scheme runs is [`PolicyConfig::response`]'s decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scheme1Config {
    /// A response is "late" when its so-far delay exceeds
    /// `threshold_factor × Delay_avg` of its application. Default 1.2;
    /// Figure 16a sweeps {1.0, 1.2, 1.4}.
    pub threshold_factor: f64,
    /// Period (in cycles) at which cores send their current threshold to the
    /// memory controllers (the paper's "every 1 ms", scaled to our
    /// measurement window).
    pub update_period: Cycle,
}

/// Scheme-2 (idle-bank request expediting) parameters, Section 3.2. Whether
/// the scheme runs is [`PolicyConfig::request`]'s decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheme2Config {
    /// Sliding-window length `T` of the per-node Bank History Table, in
    /// cycles. Default 200; Figure 16b sweeps {100, 200, 400}.
    pub history_window: Cycle,
    /// A request is expedited when fewer than `idle_threshold` requests were
    /// sent to its bank within the window. Default 1.
    pub idle_threshold: u32,
}

/// Decision point 1: the priority an L2 miss gets when it enters the
/// request network. One variant per implementation; `DESIGN.md` §10 says
/// where a new one is added.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RequestPolicyKind {
    /// Every request at normal priority (the default).
    #[default]
    Baseline,
    /// The paper's Scheme-2: expedite requests bound for idle banks.
    Scheme2,
    /// Expedite requests older than the running average age.
    OldestFirst,
    /// The lower half of the core IDs is always expedited.
    Static,
}

impl RequestPolicyKind {
    /// Every kind, in `--policy` help order.
    pub const ALL: [Self; 4] = [
        Self::Baseline,
        Self::Scheme2,
        Self::OldestFirst,
        Self::Static,
    ];

    /// Parses a `--policy req=` value.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown names.
    pub fn parse(value: &str) -> Result<Self, String> {
        let known = Self::ALL.into_iter().find(|kind| kind.name() == value);
        known.ok_or_else(|| {
            format!(
                "--policy: unknown request policy {value:?} (known: {})",
                Self::ALL.map(|kind| kind.name()).join(", ")
            )
        })
    }

    /// The CLI name of this kind.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Baseline => "baseline",
            Self::Scheme2 => "scheme2",
            Self::OldestFirst => "oldest-first",
            Self::Static => "static",
        }
    }
}

/// Decision point 2: the priority a memory controller gives a reply it is
/// about to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResponsePolicyKind {
    /// Every response at normal priority (the default).
    #[default]
    Baseline,
    /// The paper's Scheme-1: expedite responses later than the owning
    /// application's advertised threshold.
    Scheme1,
    /// Expedite responses older than the running average age.
    OldestFirst,
    /// The lower half of the core IDs is always expedited.
    Static,
}

impl ResponsePolicyKind {
    /// Every kind, in `--policy` help order.
    pub const ALL: [Self; 4] = [
        Self::Baseline,
        Self::Scheme1,
        Self::OldestFirst,
        Self::Static,
    ];

    /// Parses a `--policy resp=` value.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown names.
    pub fn parse(value: &str) -> Result<Self, String> {
        let known = Self::ALL.into_iter().find(|kind| kind.name() == value);
        known.ok_or_else(|| {
            format!(
                "--policy: unknown response policy {value:?} (known: {})",
                Self::ALL.map(|kind| kind.name()).join(", ")
            )
        })
    }

    /// The CLI name of this kind.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Baseline => "baseline",
            Self::Scheme1 => "scheme1",
            Self::OldestFirst => "oldest-first",
            Self::Static => "static",
        }
    }
}

/// Which request and response policies a run uses: the one home of both
/// selections. [`SystemConfig::with_scheme`] and [`PolicyOverride::apply`]
/// write these fields; the simulator, the analytic model and the alone-run
/// normalisation read them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PolicyConfig {
    /// Request-injection policy.
    pub request: RequestPolicyKind,
    /// Response-injection policy.
    pub response: ResponsePolicyKind,
}

/// A parsed `--policy req=<name>,resp=<name>,arb=<name>` override from the
/// sweep CLI. Unset slots leave the configuration untouched, so a single
/// override composes with each binary's own scheme/config sweep.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PolicyOverride {
    /// Request-injection policy to select, if any.
    pub request: Option<RequestPolicyKind>,
    /// Response-injection policy to select, if any.
    pub response: Option<ResponsePolicyKind>,
    /// Arbitration policy to select, if any.
    pub arbitration: Option<StarvationPolicy>,
}

impl PolicyOverride {
    /// Whether the override selects anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.request.is_none() && self.response.is_none() && self.arbitration.is_none()
    }

    /// Parses a `key=value` list, e.g. `req=scheme2,resp=scheme1` or
    /// `arb=batching:2000`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown keys, unknown policy
    /// names, or malformed values.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut out = PolicyOverride::default();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("--policy: expected key=value, got {part:?}"))?;
            match key {
                "req" | "request" => out.request = Some(RequestPolicyKind::parse(value)?),
                "resp" | "response" => out.response = Some(ResponsePolicyKind::parse(value)?),
                "arb" | "arbitration" => out.arbitration = Some(parse_arbitration(value)?),
                _ => {
                    return Err(format!(
                        "--policy: unknown key {key:?} (known: req, resp, arb)"
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Applies the selected slots to a configuration, leaving unset slots
    /// untouched.
    pub fn apply(&self, cfg: &mut SystemConfig) {
        if let Some(req) = self.request {
            cfg.policy.request = req;
        }
        if let Some(resp) = self.response {
            cfg.policy.response = resp;
        }
        if let Some(arb) = self.arbitration {
            cfg.noc.starvation = arb;
        }
    }
}

fn parse_arbitration(value: &str) -> Result<StarvationPolicy, String> {
    if let Some(interval) = value.strip_prefix("batching:") {
        let interval: u32 = interval
            .parse()
            .map_err(|_| format!("--policy: bad batching interval {interval:?}"))?;
        if interval == 0 {
            return Err("--policy: batching interval must be positive".to_string());
        }
        return Ok(StarvationPolicy::Batching { interval });
    }
    match value {
        "age-guard" => Ok(StarvationPolicy::AgeGuard),
        "oldest-first" => Ok(StarvationPolicy::OldestFirst),
        "static" => Ok(StarvationPolicy::StaticPriority),
        _ => Err(format!(
            "--policy: unknown arbitration policy {value:?} \
             (known: age-guard, batching:<interval>, oldest-first, static)"
        )),
    }
}

/// Liveness watchdog parameters.
///
/// The watchdog observes the running system from the outside — it never
/// changes arbitration — and raises typed violations (deadlock, starvation,
/// lost/duplicated transactions, age-field saturation) with diagnostic
/// snapshots instead of letting the simulation hang or panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Whether the watchdog runs at all.
    pub enabled: bool,
    /// Declare deadlock when no flit traverses any router for this many
    /// cycles while transactions are in flight. Must comfortably exceed the
    /// longest legitimate quiet period (a refresh plus a full DRAM access).
    pub deadlock_cycles: Cycle,
    /// Declare starvation when a buffered flit has waited longer than
    /// `starvation_factor × starvation_age_guard` cycles without winning
    /// arbitration. Uses wall-clock waiting time, not the (saturating)
    /// in-header age field.
    pub starvation_factor: u32,
    /// Period of the expensive scans (per-router queue sweeps). Cheap
    /// checks run every cycle.
    pub poll_period: Cycle,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            enabled: true,
            deadlock_cycles: 10_000,
            starvation_factor: 8,
            poll_period: 1_000,
        }
    }
}

/// Recovery parameters for fault-dropped messages.
///
/// When the fault model drops a request or response packet, the originating
/// tile notices via a per-transaction timeout and re-injects, with
/// exponential backoff, up to `max_retries` times. With retries exhausted
/// the transaction is reported lost (a watchdog violation) rather than
/// hanging the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Whether timed-out transactions are re-injected.
    pub enabled: bool,
    /// Base per-transaction timeout in cycles; attempt `n` waits
    /// `timeout << n` (exponential backoff) before re-injecting.
    pub timeout: Cycle,
    /// Maximum number of re-injections per transaction.
    pub max_retries: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            enabled: true,
            timeout: 20_000,
            max_retries: 4,
        }
    }
}

/// Simulation-kernel strategy: how the system advances time.
///
/// Both kernels execute the exact same per-cycle semantics; the event
/// kernel merely skips cycles it can prove are no-ops (every core blocked,
/// network drained, no controller or scheduler activity due). Results are
/// bit-identical by construction — the kernel is a speed knob, not a model
/// knob — which is why it lives in the configuration rather than the API
/// surface: callers pick it per run (`--kernel cycle|event`) without any
/// component caring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelKind {
    /// Classic cycle-driven scanning: every component is polled every
    /// cycle. The reference kernel, and the default.
    #[default]
    Cycle,
    /// Event-wheel kernel: components report their next wake-up cycle and
    /// provably idle spans are skipped wholesale.
    Event,
}

impl KernelKind {
    /// Parses a `--kernel` CLI value.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown kernel names.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value {
            "cycle" => Ok(KernelKind::Cycle),
            "event" => Ok(KernelKind::Event),
            _ => Err(format!(
                "--kernel: unknown kernel {value:?} (known: cycle, event)"
            )),
        }
    }

    /// The CLI name of this kernel.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::Cycle => "cycle",
            KernelKind::Event => "event",
        }
    }
}

/// Which of the paper's two prioritization schemes a run enables: the one
/// vocabulary behind `--scheme`, sweepd's `"scheme"` field and every
/// harness's scheme axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scheme {
    /// No prioritization (the default).
    #[default]
    Baseline,
    /// Scheme-1 only: expedite late responses.
    S1,
    /// Scheme-2 only: expedite requests bound for idle banks.
    S2,
    /// Both schemes (the paper's headline configuration).
    Both,
}

impl Scheme {
    /// Every combination, in the order the harnesses sweep them.
    pub const ALL: [Scheme; 4] = [Scheme::Baseline, Scheme::S1, Scheme::S2, Scheme::Both];

    /// Parses a scheme name; `none` is an alias of `baseline`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown names.
    pub fn parse(value: &str) -> Result<Self, String> {
        match value {
            "baseline" | "none" => Ok(Scheme::Baseline),
            "s1" => Ok(Scheme::S1),
            "s2" => Ok(Scheme::S2),
            "both" => Ok(Scheme::Both),
            _ => Err(format!(
                "unknown scheme {value:?} (known: baseline, none, s1, s2, both)"
            )),
        }
    }

    /// The canonical name of this combination.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Baseline => "baseline",
            Scheme::S1 => "s1",
            Scheme::S2 => "s2",
            Scheme::Both => "both",
        }
    }
}

/// Complete system configuration (the union of Table 1 and the scheme
/// parameters of Section 3).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Mesh dimensions.
    pub topology: TopologyConfig,
    /// Core parameters.
    pub cpu: CpuConfig,
    /// Private L1 parameters.
    pub l1: L1Config,
    /// Shared L2 parameters.
    pub l2: L2Config,
    /// Network parameters.
    pub noc: NocConfig,
    /// Memory system parameters.
    pub mem: MemConfig,
    /// Scheme-1 parameters.
    pub scheme1: Scheme1Config,
    /// Scheme-2 parameters.
    pub scheme2: Scheme2Config,
    /// Which request and response policies run (baseline by default).
    pub policy: PolicyConfig,
    /// Master RNG seed; every component derives its stream from this.
    pub seed: u64,
    /// Sampling interval for the bank idleness monitor (Figures 6, 13, 14).
    pub idleness_sample_period: Cycle,
    /// Fault-injection plan (empty by default: a healthy machine).
    pub faults: FaultPlan,
    /// Liveness watchdog parameters.
    pub watchdog: WatchdogConfig,
    /// Dropped-message recovery parameters.
    pub recovery: RecoveryConfig,
    /// Simulation-kernel strategy (cycle-driven scanning vs event wheel).
    /// Bit-identical results either way; `Event` skips provably idle spans.
    pub kernel: KernelKind,
}

impl SystemConfig {
    /// The paper's Table-1 baseline: 32 cores on a 4×8 mesh with 4 corner
    /// memory controllers.
    #[must_use]
    pub fn baseline_32() -> Self {
        SystemConfig {
            topology: TopologyConfig::mesh(8, 4),
            cpu: CpuConfig {
                window_size: 128,
                lsq_size: 64,
                issue_width: 4,
                commit_width: 4,
            },
            l1: L1Config {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                latency: 3,
            },
            l2: L2Config {
                bank_size_bytes: 512 * 1024,
                line_bytes: 64,
                associativity: 16,
                latency: 10,
                mshrs_per_bank: 32,
            },
            noc: NocConfig {
                vcs_per_port: 4,
                buffer_depth: 5,
                flit_bits: 128,
                pipeline: RouterPipeline::FiveStage,
                bypass_enabled: true,
                starvation_age_guard: 1000,
                link_latency: 1,
                freq_mult: 1,
                age_bits: 12,
                routing: RoutingAlgorithm::XY,
                starvation: StarvationPolicy::AgeGuard,
            },
            // DRAM timings are expressed in DRAM cycles and scaled by the
            // bus multiplier. Table 1 gives core-cycle figures ("Bank Busy
            // Time: 22 cycles"); the values below are calibrated so the
            // end-to-end latency distributions (Figures 4-5) match the
            // paper's shape under the synthetic workloads — see DESIGN.md
            // for the calibration discussion.
            mem: MemConfig {
                num_controllers: 4,
                banks_per_controller: 16,
                bus_multiplier: 5,
                bank_busy: 10,
                rank_delay: 1,
                read_write_delay: 1,
                ctl_latency: 20,
                refresh_period: 3120,
                refresh_duration: 14,
                row_bytes: 8192,
                row_hit_latency: 4,
                burst_latency: 3,
                scheduler: MemSchedPolicy::FrFcfs,
                page_policy: PagePolicy::Open,
            },
            scheme1: Scheme1Config {
                threshold_factor: 1.2,
                update_period: 10_000,
            },
            scheme2: Scheme2Config {
                history_window: 200,
                idle_threshold: 1,
            },
            policy: PolicyConfig::default(),
            seed: 0x0c5e_ed12,
            idleness_sample_period: 100,
            faults: FaultPlan::none(),
            watchdog: WatchdogConfig::default(),
            recovery: RecoveryConfig::default(),
            kernel: KernelKind::default(),
        }
    }

    /// The 16-core system of Figure 15: 4×4 mesh, 2 memory controllers at
    /// opposite corners, all other parameters unchanged.
    #[must_use]
    pub fn baseline_16() -> Self {
        let mut cfg = Self::baseline_32();
        cfg.topology = TopologyConfig::mesh(4, 4);
        cfg.mem.num_controllers = 2;
        cfg
    }

    /// Hundreds-cores scale point: 256 cores on a 16×16 tile grid, 4
    /// memory controllers. The fabric defaults to mesh; swap it with
    /// [`TopologyOverride`] or by setting `topology.kind`.
    #[must_use]
    pub fn baseline_256() -> Self {
        let mut cfg = Self::baseline_32();
        cfg.topology = TopologyConfig::mesh(16, 16);
        cfg
    }

    /// Thousand-cores scale point: 1024 cores on a 32×32 tile grid, 4
    /// memory controllers.
    #[must_use]
    pub fn baseline_1024() -> Self {
        let mut cfg = Self::baseline_32();
        cfg.topology = TopologyConfig::mesh(32, 32);
        cfg
    }

    /// Selects Scheme-1 as the response policy, with its current parameters.
    #[must_use]
    pub fn with_scheme1(mut self) -> Self {
        self.policy.response = ResponsePolicyKind::Scheme1;
        self
    }

    /// Selects Scheme-2 as the request policy, with its current parameters.
    #[must_use]
    pub fn with_scheme2(mut self) -> Self {
        self.policy.request = RequestPolicyKind::Scheme2;
        self
    }

    /// Enables both schemes (the paper's headline configuration).
    #[must_use]
    pub fn with_both_schemes(self) -> Self {
        self.with_scheme1().with_scheme2()
    }

    /// Selects exactly the schemes `scheme` names, with their current
    /// parameters; the slot of an unnamed scheme goes back to baseline.
    #[must_use]
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.policy = PolicyConfig::default();
        match scheme {
            Scheme::Baseline => self,
            Scheme::S1 => self.with_scheme1(),
            Scheme::S2 => self.with_scheme2(),
            Scheme::Both => self.with_both_schemes(),
        }
    }

    /// Number of cores (one application per core).
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.topology.num_nodes()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated invariant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.topology.width < 2 || self.topology.height < 2 {
            return Err(ConfigError::MeshTooSmall {
                width: self.topology.width,
                height: self.topology.height,
            });
        }
        match self.topology.kind {
            TopologyKind::Mesh | TopologyKind::Torus | TopologyKind::Express => {
                if self.topology.concentration != 1 {
                    return Err(ConfigError::BadConcentration {
                        concentration: self.topology.concentration,
                        kind: self.topology.kind,
                    });
                }
            }
            TopologyKind::CMesh => {
                let (cx, cy) = match self.topology.concentration {
                    // c=1 degenerates to a mesh and is allowed; c=2 packs
                    // 2×1 tile blocks, c=4 packs 2×2.
                    1 => (1u16, 1u16),
                    2 => (2, 1),
                    4 => (2, 2),
                    other => {
                        return Err(ConfigError::BadConcentration {
                            concentration: other,
                            kind: self.topology.kind,
                        })
                    }
                };
                if !self.topology.width.is_multiple_of(cx)
                    || !self.topology.height.is_multiple_of(cy)
                    || self.topology.width / cx < 2
                    || self.topology.height / cy < 2
                {
                    return Err(ConfigError::ConcentrationDoesNotDivide {
                        concentration: self.topology.concentration,
                        width: self.topology.width,
                        height: self.topology.height,
                    });
                }
            }
        }
        match self.topology.kind {
            TopologyKind::Express => {
                let skip = self.topology.express_skip;
                if skip < 2 || skip >= self.topology.width.min(self.topology.height) {
                    return Err(ConfigError::BadExpressSkip {
                        skip,
                        width: self.topology.width,
                        height: self.topology.height,
                    });
                }
            }
            _ => {
                if self.topology.express_skip != 0 {
                    return Err(ConfigError::BadExpressSkip {
                        skip: self.topology.express_skip,
                        width: self.topology.width,
                        height: self.topology.height,
                    });
                }
            }
        }
        if self.topology.kind == TopologyKind::Torus && !self.noc.vcs_per_port.is_multiple_of(4) {
            return Err(ConfigError::TorusNeedsDatelineVcs(self.noc.vcs_per_port));
        }
        if self.mem.num_controllers > self.topology.num_nodes() {
            return Err(ConfigError::ControllersExceedNodes {
                controllers: self.mem.num_controllers,
                nodes: self.topology.num_nodes(),
            });
        }
        if !matches!(self.mem.num_controllers, 1 | 2 | 4) {
            return Err(ConfigError::UnsupportedControllerCount(
                self.mem.num_controllers,
            ));
        }
        if self.noc.vcs_per_port < 2 || !self.noc.vcs_per_port.is_multiple_of(2) {
            return Err(ConfigError::BadVcCount(self.noc.vcs_per_port));
        }
        if self.noc.buffer_depth == 0 {
            return Err(ConfigError::ZeroBufferDepth);
        }
        if self.l1.line_bytes != self.l2.line_bytes {
            return Err(ConfigError::LineSizeMismatch {
                l1: self.l1.line_bytes,
                l2: self.l2.line_bytes,
            });
        }
        if !self.l1.line_bytes.is_power_of_two() {
            return Err(ConfigError::LineSizeNotPowerOfTwo(self.l1.line_bytes));
        }
        if self.l1.size_bytes == 0 || !self.l1.size_bytes.is_multiple_of(self.l1.line_bytes) {
            return Err(ConfigError::CacheSizeNotLineMultiple {
                cache: "L1",
                size: self.l1.size_bytes,
                line: self.l1.line_bytes,
            });
        }
        let l2_quantum = self.l2.line_bytes * self.l2.associativity.max(1);
        if self.l2.bank_size_bytes == 0
            || self.l2.associativity == 0
            || !self.l2.bank_size_bytes.is_multiple_of(l2_quantum)
        {
            return Err(ConfigError::CacheSizeNotLineMultiple {
                cache: "L2",
                size: self.l2.bank_size_bytes,
                line: l2_quantum,
            });
        }
        // Values the component constructors would otherwise panic on.
        let line = self.l1.line_bytes;
        let buildable = [
            (
                "mem.banks_per_controller",
                self.mem.banks_per_controller as u64,
                self.mem.banks_per_controller > 0,
                "at least one bank",
            ),
            (
                "mem.row_bytes",
                self.mem.row_bytes as u64,
                self.mem.row_bytes >= line && self.mem.row_bytes.is_multiple_of(line),
                "a positive multiple of the line size",
            ),
            (
                "noc.flit_bits",
                self.noc.flit_bits as u64,
                self.noc.flit_bits > 0,
                "a positive flit width",
            ),
            (
                "noc.age_bits",
                u64::from(self.noc.age_bits),
                self.noc.age_bits < u32::BITS,
                "an age field narrower than 32 bits",
            ),
            (
                "idleness_sample_period",
                self.idleness_sample_period,
                self.idleness_sample_period > 0,
                "a positive period",
            ),
        ];
        for (field, value, ok, need) in buildable {
            if !ok {
                return Err(ConfigError::InvalidField { field, value, need });
            }
        }
        if self.scheme1.threshold_factor <= 0.0 {
            return Err(ConfigError::BadThresholdFactor(
                self.scheme1.threshold_factor,
            ));
        }
        if self.watchdog.enabled
            && (self.watchdog.deadlock_cycles == 0 || self.watchdog.poll_period == 0)
        {
            return Err(ConfigError::ZeroWatchdogInterval);
        }
        if self.recovery.enabled && self.recovery.timeout == 0 {
            return Err(ConfigError::ZeroRecoveryTimeout);
        }
        self.faults
            .validate()
            .map_err(ConfigError::InvalidFaultPlan)?;
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::baseline_32()
    }
}

/// Error returned by [`SystemConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Mesh must be at least 2×2.
    MeshTooSmall {
        /// Configured width.
        width: u16,
        /// Configured height.
        height: u16,
    },
    /// Memory controllers are placed at corners; only 1, 2 or 4 supported.
    UnsupportedControllerCount(usize),
    /// Need an even number (≥2) of VCs to split into two virtual networks.
    BadVcCount(usize),
    /// VC buffers must hold at least one flit.
    ZeroBufferDepth,
    /// L1 and L2 must agree on the line size.
    LineSizeMismatch {
        /// L1 line size.
        l1: usize,
        /// L2 line size.
        l2: usize,
    },
    /// Line size must be a power of two for address decomposition.
    LineSizeNotPowerOfTwo(usize),
    /// Scheme-1 threshold factor must be positive.
    BadThresholdFactor(f64),
    /// More memory controllers than mesh nodes to attach them to.
    ControllersExceedNodes {
        /// Configured controller count.
        controllers: usize,
        /// Nodes in the mesh.
        nodes: usize,
    },
    /// A cache capacity is zero or not a multiple of its allocation quantum.
    CacheSizeNotLineMultiple {
        /// Which cache ("L1" or "L2").
        cache: &'static str,
        /// Configured capacity in bytes.
        size: usize,
        /// Allocation quantum (line size, or line × associativity).
        line: usize,
    },
    /// Watchdog intervals must be positive when the watchdog is enabled.
    ZeroWatchdogInterval,
    /// Recovery timeout must be positive when recovery is enabled.
    ZeroRecoveryTimeout,
    /// The fault plan failed validation.
    InvalidFaultPlan(FaultError),
    /// Concentration factor invalid for the selected fabric (must be 1 on
    /// non-concentrated fabrics; 1, 2 or 4 on a concentrated mesh).
    BadConcentration {
        /// Configured tiles-per-router factor.
        concentration: u16,
        /// The fabric it was configured on.
        kind: TopologyKind,
    },
    /// The concentration blocks don't tile the grid, or the resulting
    /// router grid is smaller than 2×2.
    ConcentrationDoesNotDivide {
        /// Configured tiles-per-router factor.
        concentration: u16,
        /// Tile-grid width.
        width: u16,
        /// Tile-grid height.
        height: u16,
    },
    /// Express skip distance out of range (needs `2 ≤ skip < min(w, h)` on
    /// an express fabric, and exactly 0 elsewhere).
    BadExpressSkip {
        /// Configured skip distance.
        skip: u16,
        /// Tile-grid width.
        width: u16,
        /// Tile-grid height.
        height: u16,
    },
    /// Torus dateline deadlock avoidance splits each virtual network into
    /// two VC subclasses, so the VC count must be divisible by 4.
    TorusNeedsDatelineVcs(usize),
    /// A field holds a value the component it configures cannot be built
    /// from.
    InvalidField {
        /// Dotted path of the field inside [`SystemConfig`].
        field: &'static str,
        /// The rejected value.
        value: u64,
        /// What the field needs to hold instead.
        need: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::MeshTooSmall { width, height } => {
                write!(f, "mesh {width}x{height} is smaller than 2x2")
            }
            ConfigError::UnsupportedControllerCount(n) => {
                write!(
                    f,
                    "unsupported memory controller count {n} (need 1, 2 or 4)"
                )
            }
            ConfigError::BadVcCount(n) => {
                write!(f, "virtual channel count {n} is not an even number >= 2")
            }
            ConfigError::ZeroBufferDepth => write!(f, "VC buffer depth is zero"),
            ConfigError::LineSizeMismatch { l1, l2 } => {
                write!(f, "L1 line size {l1} differs from L2 line size {l2}")
            }
            ConfigError::LineSizeNotPowerOfTwo(n) => {
                write!(f, "line size {n} is not a power of two")
            }
            ConfigError::BadThresholdFactor(x) => {
                write!(f, "scheme-1 threshold factor {x} is not positive")
            }
            ConfigError::ControllersExceedNodes { controllers, nodes } => {
                write!(
                    f,
                    "{controllers} memory controllers for a {nodes}-node mesh"
                )
            }
            ConfigError::CacheSizeNotLineMultiple { cache, size, line } => {
                write!(
                    f,
                    "{cache} capacity {size} B is not a positive multiple of {line} B"
                )
            }
            ConfigError::ZeroWatchdogInterval => {
                write!(f, "watchdog intervals must be positive")
            }
            ConfigError::ZeroRecoveryTimeout => {
                write!(f, "recovery timeout must be positive")
            }
            ConfigError::InvalidFaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            ConfigError::BadConcentration {
                concentration,
                kind,
            } => {
                write!(
                    f,
                    "concentration factor {concentration} invalid on {} \
                     (cmesh supports 1, 2 or 4; other fabrics need 1)",
                    kind.name()
                )
            }
            ConfigError::ConcentrationDoesNotDivide {
                concentration,
                width,
                height,
            } => {
                write!(
                    f,
                    "concentration {concentration} does not tile a \
                     {width}x{height} grid into a router mesh of at least 2x2"
                )
            }
            ConfigError::BadExpressSkip {
                skip,
                width,
                height,
            } => {
                write!(
                    f,
                    "express skip {skip} out of range for a {width}x{height} grid \
                     (need 2 <= skip < min(width, height) on express, 0 elsewhere)"
                )
            }
            ConfigError::TorusNeedsDatelineVcs(n) => {
                write!(
                    f,
                    "torus dateline VCs need a VC count divisible by 4, got {n}"
                )
            }
            ConfigError::InvalidField { field, value, need } => {
                write!(f, "{field} = {value} is invalid (need {need})")
            }
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::InvalidFaultPlan(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table1() {
        let cfg = SystemConfig::baseline_32();
        assert_eq!(cfg.topology.num_nodes(), 32);
        assert_eq!(cfg.cpu.window_size, 128);
        assert_eq!(cfg.cpu.lsq_size, 64);
        assert_eq!(cfg.l1.size_bytes, 32 * 1024);
        assert_eq!(cfg.l1.num_sets(), 512);
        assert_eq!(cfg.l2.sets_per_bank(), 512);
        assert_eq!(cfg.noc.vcs_per_port, 4);
        assert_eq!(cfg.noc.buffer_depth, 5);
        assert_eq!(cfg.noc.flit_bits, 128);
        assert_eq!(cfg.mem.num_controllers, 4);
        assert_eq!(cfg.mem.banks_per_controller, 16);
        // DRAM timing values are calibrated (see the MemConfig defaults);
        // sanity-check the structural knobs instead of exact figures.
        assert!(cfg.mem.bank_busy >= cfg.mem.row_hit_latency);
        assert!(cfg.mem.rank_delay >= 1);
        assert!(cfg.mem.read_write_delay >= 1);
        cfg.validate().expect("baseline must be valid");
    }

    #[test]
    fn baseline_16_shrinks_mesh_and_mcs() {
        let cfg = SystemConfig::baseline_16();
        assert_eq!(cfg.topology.num_nodes(), 16);
        assert_eq!(cfg.mem.num_controllers, 2);
        cfg.validate().expect("16-core baseline must be valid");
    }

    #[test]
    fn scheme_toggles() {
        let cfg = SystemConfig::baseline_32().with_both_schemes();
        assert_eq!(cfg.policy.response, ResponsePolicyKind::Scheme1);
        assert_eq!(cfg.policy.request, RequestPolicyKind::Scheme2);
        let cfg = SystemConfig::baseline_32().with_scheme1();
        assert_eq!(cfg.policy.response, ResponsePolicyKind::Scheme1);
        assert_eq!(cfg.policy.request, RequestPolicyKind::Baseline);
    }

    #[test]
    fn scheme_vocabulary_roundtrips_and_matches_the_toggles() {
        let base = SystemConfig::baseline_32;
        for scheme in Scheme::ALL {
            assert_eq!(Scheme::parse(scheme.name()), Ok(scheme));
        }
        assert_eq!(Scheme::parse("none"), Ok(Scheme::Baseline));
        assert!(Scheme::parse("s3").is_err());
        assert_eq!(base().with_scheme(Scheme::Baseline), base());
        assert_eq!(base().with_scheme(Scheme::S1), base().with_scheme1());
        assert_eq!(base().with_scheme(Scheme::S2), base().with_scheme2());
        assert_eq!(base().with_scheme(Scheme::Both), base().with_both_schemes());
        // Exactly the named schemes: selecting one switches the other off.
        let s2_only = base().with_both_schemes().with_scheme(Scheme::S2);
        assert_eq!(s2_only, base().with_scheme2());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = SystemConfig::baseline_32();
        cfg.topology.width = 1;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::MeshTooSmall { .. })
        ));

        let mut cfg = SystemConfig::baseline_32();
        cfg.mem.num_controllers = 3;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::UnsupportedControllerCount(3))
        ));

        let mut cfg = SystemConfig::baseline_32();
        cfg.noc.vcs_per_port = 3;
        assert!(matches!(cfg.validate(), Err(ConfigError::BadVcCount(3))));

        let mut cfg = SystemConfig::baseline_32();
        cfg.l1.line_bytes = 32;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::LineSizeMismatch { .. })
        ));

        let mut cfg = SystemConfig::baseline_32();
        cfg.scheme1.threshold_factor = 0.0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadThresholdFactor(_))
        ));

        let mut cfg = SystemConfig::baseline_32();
        cfg.mem.num_controllers = 64;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ControllersExceedNodes { .. })
        ));

        let mut cfg = SystemConfig::baseline_32();
        cfg.l1.size_bytes = 32 * 1024 + 1;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::CacheSizeNotLineMultiple { cache: "L1", .. })
        ));

        let mut cfg = SystemConfig::baseline_32();
        cfg.l2.bank_size_bytes = 512 * 1024 + 64;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::CacheSizeNotLineMultiple { cache: "L2", .. })
        ));

        let mut cfg = SystemConfig::baseline_32();
        cfg.watchdog.deadlock_cycles = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ZeroWatchdogInterval)
        ));
        cfg.watchdog.enabled = false;
        assert!(cfg.validate().is_ok(), "disabled watchdog is unchecked");

        let mut cfg = SystemConfig::baseline_32();
        cfg.recovery.timeout = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ZeroRecoveryTimeout)
        ));

        let mut cfg = SystemConfig::baseline_32();
        cfg.faults = crate::faults::FaultPlan::uniform_drop(1, 2.0);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::InvalidFaultPlan(_))
        ));
    }

    #[test]
    fn topology_baselines_are_valid_on_every_fabric() {
        for base in [
            SystemConfig::baseline_16(),
            SystemConfig::baseline_32(),
            SystemConfig::baseline_256(),
            SystemConfig::baseline_1024(),
        ] {
            let (w, h) = (base.topology.width, base.topology.height);
            for topo in [
                TopologyConfig::mesh(w, h),
                TopologyConfig::torus(w, h),
                TopologyConfig::cmesh(w, h, 2),
                TopologyConfig::cmesh(w, h, 4),
                TopologyConfig::express(w, h, 2),
            ] {
                // 4×4 with c=4 gives a 2×2 router grid — still valid.
                let mut cfg = base.clone();
                cfg.topology = topo;
                cfg.validate()
                    .unwrap_or_else(|e| panic!("{} must validate: {e}", topo.label()));
            }
        }
        assert_eq!(SystemConfig::baseline_256().num_cores(), 256);
        assert_eq!(SystemConfig::baseline_1024().num_cores(), 1024);
    }

    #[test]
    fn validation_rejects_bad_topologies() {
        // Concentration 0 (and any value outside {1,2,4}) is typed, not a
        // deep panic in network construction.
        let mut cfg = SystemConfig::baseline_256();
        cfg.topology = TopologyConfig::cmesh(16, 16, 0);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadConcentration {
                concentration: 0,
                ..
            })
        ));
        cfg.topology = TopologyConfig::cmesh(16, 16, 3);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadConcentration { .. })
        ));

        // Blocks must tile the grid and leave a router mesh of >= 2x2.
        cfg.topology = TopologyConfig::cmesh(5, 4, 2);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ConcentrationDoesNotDivide { .. })
        ));
        cfg.topology = TopologyConfig::cmesh(2, 2, 4);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::ConcentrationDoesNotDivide { .. })
        ));

        // Concentration on a non-concentrated fabric is rejected.
        cfg.topology = TopologyConfig::mesh(16, 16);
        cfg.topology.concentration = 2;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadConcentration { .. })
        ));

        // Express skip must fit strictly inside both dimensions.
        let mut cfg = SystemConfig::baseline_32();
        cfg.topology = TopologyConfig::express(8, 4, 4);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadExpressSkip { skip: 4, .. })
        ));
        cfg.topology = TopologyConfig::express(8, 4, 1);
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadExpressSkip { skip: 1, .. })
        ));
        // ... and a stray skip on a plain mesh is rejected too.
        cfg.topology = TopologyConfig::mesh(8, 4);
        cfg.topology.express_skip = 2;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::BadExpressSkip { skip: 2, .. })
        ));

        // Torus needs the VC count divisible by 4 for dateline subclasses.
        let mut cfg = SystemConfig::baseline_32();
        cfg.topology = TopologyConfig::torus(8, 4);
        cfg.noc.vcs_per_port = 6;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::TorusNeedsDatelineVcs(6))
        ));
        cfg.noc.vcs_per_port = 4;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn topology_override_parses_and_applies() {
        let ov = TopologyOverride::parse("torus").expect("valid spec");
        assert_eq!(ov.kind, Some(TopologyKind::Torus));
        let mut cfg = SystemConfig::baseline_32();
        ov.apply(&mut cfg);
        assert_eq!(cfg.topology, TopologyConfig::torus(8, 4));

        let ov = TopologyOverride::parse("cmesh:c=2,mc=edge").expect("valid spec");
        let mut cfg = SystemConfig::baseline_256();
        ov.apply(&mut cfg);
        assert_eq!(cfg.topology.kind, TopologyKind::CMesh);
        assert_eq!(cfg.topology.concentration, 2);
        assert_eq!(cfg.topology.mc_placement, McPlacement::Edge);
        assert_eq!(cfg.topology.width, 16, "grid dimensions are preserved");

        // Per-fabric defaults fill unspecified parameters.
        let ov = TopologyOverride::parse("cmesh").expect("valid spec");
        let mut cfg = SystemConfig::baseline_256();
        ov.apply(&mut cfg);
        assert_eq!(cfg.topology.concentration, 4);
        let ov = TopologyOverride::parse("express").expect("valid spec");
        let mut cfg = SystemConfig::baseline_256();
        ov.apply(&mut cfg);
        assert_eq!(cfg.topology.express_skip, 2);

        // Switching back to mesh clears fabric parameters.
        let ov = TopologyOverride::parse("mesh").expect("valid spec");
        let mut cfg = SystemConfig::baseline_256();
        cfg.topology = TopologyConfig::cmesh(16, 16, 4);
        ov.apply(&mut cfg);
        assert_eq!(cfg.topology, TopologyConfig::mesh(16, 16));

        // mc-only override keeps the fabric.
        let ov = TopologyOverride::parse("").expect("empty is fine");
        assert!(ov.is_empty());
    }

    #[test]
    fn topology_override_rejects_bad_specs() {
        assert!(TopologyOverride::parse("ring").is_err());
        assert!(TopologyOverride::parse("cmesh:c=x").is_err());
        assert!(TopologyOverride::parse("express:skip=").is_err());
        assert!(TopologyOverride::parse("torus:mc=middle").is_err());
        assert!(TopologyOverride::parse("mesh:speed=9").is_err());
        assert!(TopologyOverride::parse("mesh:c").is_err());
    }

    #[test]
    fn topology_labels_are_compact() {
        assert_eq!(TopologyConfig::mesh(8, 4).label(), "mesh:8x4");
        assert_eq!(TopologyConfig::torus(16, 16).label(), "torus:16x16");
        assert_eq!(TopologyConfig::cmesh(16, 16, 4).label(), "cmesh:16x16,c=4");
        let mut t = TopologyConfig::express(32, 32, 2);
        t.mc_placement = McPlacement::Center;
        assert_eq!(t.label(), "express:32x32,skip=2,mc=center");
    }

    #[test]
    fn age_field_saturates_at_4095() {
        let cfg = SystemConfig::baseline_32();
        assert_eq!(cfg.noc.max_age(), 4095);
    }

    #[test]
    fn pipeline_residency() {
        assert_eq!(RouterPipeline::FiveStage.min_residency(), 4);
        assert_eq!(RouterPipeline::TwoStage.min_residency(), 1);
    }

    #[test]
    fn new_policy_enums_default_to_paper_baseline() {
        let cfg = SystemConfig::baseline_32();
        assert_eq!(cfg.noc.routing, RoutingAlgorithm::XY);
        assert_eq!(cfg.noc.starvation, StarvationPolicy::AgeGuard);
        assert_eq!(cfg.mem.scheduler, MemSchedPolicy::FrFcfs);
        assert_eq!(cfg.mem.page_policy, PagePolicy::Open);
    }

    #[test]
    fn policy_kinds_roundtrip_and_default_to_baseline() {
        assert_eq!(
            SystemConfig::baseline_32().policy,
            PolicyConfig {
                request: RequestPolicyKind::Baseline,
                response: ResponsePolicyKind::Baseline,
            }
        );
        for kind in RequestPolicyKind::ALL {
            assert_eq!(RequestPolicyKind::parse(kind.name()), Ok(kind));
        }
        for kind in ResponsePolicyKind::ALL {
            assert_eq!(ResponsePolicyKind::parse(kind.name()), Ok(kind));
        }
        // Each slot has its own vocabulary, and the error lists it.
        let err = RequestPolicyKind::parse("scheme1").unwrap_err();
        assert_eq!(
            err,
            "--policy: unknown request policy \"scheme1\" \
             (known: baseline, scheme2, oldest-first, static)"
        );
        let err = ResponsePolicyKind::parse("fifo").unwrap_err();
        assert_eq!(
            err,
            "--policy: unknown response policy \"fifo\" \
             (known: baseline, scheme1, oldest-first, static)"
        );
    }

    #[test]
    fn policy_override_parses_and_applies() {
        let ov = PolicyOverride::parse("req=scheme2,resp=scheme1,arb=batching:2000")
            .expect("valid spec");
        assert_eq!(ov.request, Some(RequestPolicyKind::Scheme2));
        assert_eq!(ov.response, Some(ResponsePolicyKind::Scheme1));
        assert_eq!(
            ov.arbitration,
            Some(StarvationPolicy::Batching { interval: 2000 })
        );
        let mut cfg = SystemConfig::baseline_32();
        ov.apply(&mut cfg);
        assert_eq!(
            cfg.policy,
            SystemConfig::baseline_32().with_both_schemes().policy
        );
        assert_eq!(
            cfg.noc.starvation,
            StarvationPolicy::Batching { interval: 2000 }
        );

        // Partial overrides leave the other slots untouched.
        let ov = PolicyOverride::parse("resp=oldest-first").expect("valid spec");
        assert!(ov.request.is_none());
        let mut cfg = SystemConfig::baseline_32();
        ov.apply(&mut cfg);
        assert_eq!(cfg.policy.request, RequestPolicyKind::Baseline);
        assert_eq!(cfg.policy.response, ResponsePolicyKind::OldestFirst);
        assert_eq!(cfg.noc.starvation, StarvationPolicy::AgeGuard);

        assert!(PolicyOverride::parse("").expect("empty is fine").is_empty());
        assert_eq!(
            PolicyOverride::parse("arb=age-guard").unwrap().arbitration,
            Some(StarvationPolicy::AgeGuard)
        );
        assert_eq!(
            PolicyOverride::parse("arb=oldest-first")
                .unwrap()
                .arbitration,
            Some(StarvationPolicy::OldestFirst)
        );
        assert_eq!(
            PolicyOverride::parse("arb=static").unwrap().arbitration,
            Some(StarvationPolicy::StaticPriority)
        );
    }

    #[test]
    fn policy_override_rejects_bad_specs() {
        assert!(PolicyOverride::parse("req=fifo").is_err());
        assert!(PolicyOverride::parse("resp=scheme2").is_err());
        assert!(PolicyOverride::parse("req").is_err());
        assert!(PolicyOverride::parse("mode=fast").is_err());
        assert!(PolicyOverride::parse("arb=batching:0").is_err());
        assert!(PolicyOverride::parse("arb=batching:x").is_err());
        assert!(PolicyOverride::parse("arb=lottery").is_err());
    }

    #[test]
    fn config_error_display_nonempty() {
        let errors: Vec<ConfigError> = vec![
            ConfigError::MeshTooSmall {
                width: 1,
                height: 1,
            },
            ConfigError::UnsupportedControllerCount(3),
            ConfigError::BadVcCount(3),
            ConfigError::ZeroBufferDepth,
            ConfigError::LineSizeMismatch { l1: 32, l2: 64 },
            ConfigError::LineSizeNotPowerOfTwo(48),
            ConfigError::BadThresholdFactor(-1.0),
            ConfigError::ControllersExceedNodes {
                controllers: 64,
                nodes: 32,
            },
            ConfigError::CacheSizeNotLineMultiple {
                cache: "L1",
                size: 1000,
                line: 64,
            },
            ConfigError::ZeroWatchdogInterval,
            ConfigError::ZeroRecoveryTimeout,
            ConfigError::InvalidFaultPlan(FaultError::BadProbability(2.0)),
            ConfigError::BadConcentration {
                concentration: 0,
                kind: TopologyKind::CMesh,
            },
            ConfigError::ConcentrationDoesNotDivide {
                concentration: 4,
                width: 5,
                height: 5,
            },
            ConfigError::BadExpressSkip {
                skip: 9,
                width: 8,
                height: 4,
            },
            ConfigError::TorusNeedsDatelineVcs(6),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
