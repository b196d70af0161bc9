//! The configuration values: plain data, their defaults (the paper's
//! Table 1) and the builders that perturb them. What a value may hold is
//! [`super::validate`]'s business; how it is spelled in text is
//! [`super::grammar`]'s.

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

    /// Ports per router, `Local` included: 9 on express (four skip
    /// channels on top of the mesh's five), 5 on every other fabric.
    #[must_use]
    pub fn router_ports(&self) -> usize {
        match self.kind {
            TopologyKind::Express => 9,
            _ => 5,
        }
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
    /// Most input VCs (`ports × vcs_per_port`, `Local` included) one router
    /// may hold: its stage sets are one 128-bit word each, and a VC id
    /// travels in a byte.
    pub const MAX_ROUTER_VCS: usize = 128;

    /// Deepest VC buffer: positions in a VC's flit ring are one byte.
    pub const MAX_BUFFER_DEPTH: usize = u8::MAX as usize;

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

/// Which request and response policies a run uses: the one home of both
/// selections. [`SystemConfig::with_scheme`] and [`super::PolicyOverride::apply`]
/// write these fields; the simulator, the analytic model and the alone-run
/// normalisation read them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PolicyConfig {
    /// Request-injection policy.
    pub request: RequestPolicyKind,
    /// Response-injection policy.
    pub response: ResponsePolicyKind,
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
    /// [`super::TopologyOverride`] or by setting `topology.kind`.
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
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::baseline_32()
    }
}
