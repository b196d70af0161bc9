//! Closed-form analytical estimator of end-to-end memory-access latency.
//!
//! The cycle simulator answers "what is the latency of configuration X"
//! exactly, in minutes; sweep grids (fabric × MC placement × scheme × size)
//! need that answer *approximately, in microseconds*, to decide which cells
//! are worth simulating at all. This crate provides that fast path: an
//! M/G/1-style nonpreemptive priority-queueing model in the spirit of
//! Mandal et al. ("Analytical Performance Models for NoCs with Multiple
//! Priority Traffic Classes", "... under Priority Arbitration and Bursty
//! Traffic" — see `PAPERS.md`), specialized to this simulator's round trip:
//!
//! ```text
//! core --1 flit--> L2 bank --1 flit--> MC --5 flits--> L2 bank --5 flits--> core
//!        (request vnet)      (request)       (response)         (response)
//! ```
//!
//! The model (full derivation in `DESIGN.md` §14):
//!
//! * **Rates.** Each core's open-loop demand comes from its profile's
//!   [`noclat_workloads::TrafficRate`] (misses per instruction, MLP); a
//!   memory-stall IPC model converts it to packets/cycle.
//!   [`AnalyticModel::evaluate`] closes the loop: injection rate and
//!   latency are solved to a fixed point by bisection, because cores with
//!   finite MLP self-throttle.
//! * **Contention.** Every (router, out-port) channel's utilization is
//!   accumulated exactly from deterministic route walks
//!   ([`Topology::route_channels`]) of all four legs over all
//!   (core, bank, controller) pairs — this is where the per-topology
//!   terms come from (wraparound shortens torus walks, concentration
//!   merges cmesh channels, express links skip routers). Waiting per
//!   channel is nonpreemptive-priority M/G/1: `W_H = R/(1-ρ_H)`,
//!   `W_L = R/((1-ρ_H)(1-ρ))` with residual `R` inflated by a batch
//!   (burstiness) coefficient per the second Mandal model.
//! * **Priority classes.** Scheme 1 promotes a fraction of *responses*
//!   (so-far delay above `threshold_factor × mean`, ≈ the exponential tail
//!   `e^{-factor}`); Scheme 2 promotes *memory requests* that find their
//!   bank idle (≈ `1 - ρ_bank`). The class split changes per-class
//!   latency; by the conservation law it barely moves the mean, so the
//!   schemes' measured mean-latency gains enter as small calibrated
//!   multipliers on the queueing delay ([`Coefficients`]).
//! * **Stability.** With no measurement horizon, offered load beyond any
//!   channel's or controller's capacity is [`Stability::Unstable`] and the
//!   open-loop latency diverges. With a horizon `W` (a real run's measure
//!   window), an unstable cell's *measured* latency is window-limited:
//!   requests sampled inside the window waited on average about half of
//!   it, so the estimate saturates at `sat_fill × W + L0` and the verdict
//!   reports the window as the binding constraint.

use noclat_noc::topology::{Dir, NodeId, Topology};
use noclat_sim::config::{ConfigError, RequestPolicyKind, ResponsePolicyKind, SystemConfig};
use noclat_sim::Cycle;
use noclat_workloads::SpecApp;

/// Calibrated coefficients of the model. Structural terms (hop counts,
/// service times, utilizations) are computed exactly from the
/// configuration; these coefficients absorb what a closed form cannot
/// capture — burst clustering, hot-bank imbalance, and the schemes'
/// measured effect on the *mean* (which pure priority queueing conserves).
///
/// Defaults are calibrated against the pinned golden results
/// (`tests/golden_results.rs`); `tests/analytic_validation.rs` holds the
/// calibration to a ≤ 15% mean relative error band and proves the band
/// catches a broken coefficient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coefficients {
    /// Batch-arrival inflation of every queueing residual (the bursty
    /// traffic correction of the second Mandal model): off-chip accesses
    /// arrive in MLP-length bursts, not Poisson-spread.
    pub burstiness: f64,
    /// Scales network (per-channel) waiting.
    pub contention: f64,
    /// Scales memory-controller waiting (bank pool + data bus).
    pub mc_pressure: f64,
    /// Hot-phase spatial concentration: multiplies effective per-bank load
    /// (phased apps hammer a window of rows, not the whole bank pool).
    pub bank_concentration: f64,
    /// Non-memory CPI floor added to `1/issue_width` in the IPC model.
    pub base_cpi: f64,
    /// Effective-MLP multiplier over the profile's mean burst length (the
    /// OoO window overlaps more than one burst).
    pub mlp_factor: f64,
    /// Fractional reduction of total queueing delay when Scheme 1
    /// (late-response expediting) is active.
    pub scheme1_gain: f64,
    /// Fractional reduction of total queueing delay when Scheme 2
    /// (idle-bank request expediting) is active.
    pub scheme2_gain: f64,
    /// Mean fraction of the measurement window a request sampled inside a
    /// saturated (unstable) run spends queued: the window-limited latency
    /// estimate is `sat_fill × measure + L0`.
    pub sat_fill: f64,
}

impl Default for Coefficients {
    fn default() -> Self {
        Coefficients {
            burstiness: 4.0,
            contention: 1.0,
            mc_pressure: 2.0,
            bank_concentration: 2.0,
            base_cpi: 0.3,
            mlp_factor: 1.5,
            scheme1_gain: 0.012,
            scheme2_gain: 0.105,
            sat_fill: 0.444,
        }
    }
}

/// Utilization of one (router, out-port) channel at the operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelUtil {
    /// Router the channel leaves.
    pub router: NodeId,
    /// Out-port ([`Dir::Local`] is the ejection channel).
    pub port: Dir,
    /// Flit-cycles per cycle demanded of the channel (ρ).
    pub utilization: f64,
}

/// What limits throughput when a cell is not stable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bottleneck {
    /// A network channel saturates first.
    Channel {
        /// Router the channel leaves.
        router: NodeId,
        /// Saturated out-port.
        port: Dir,
    },
    /// A memory controller's bank pool / data bus saturates first.
    Controller {
        /// Controller index.
        index: usize,
    },
    /// Offered load exceeds what the measurement window can drain: the
    /// run never reaches steady state and its measured latency is
    /// window-limited.
    Window,
}

/// The model's stability verdict for a configuration at its offered load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stability {
    /// A steady state exists inside the capacity region.
    Stable {
        /// `1 - max ρ` over all channels and controllers at the
        /// operating point.
        margin: f64,
    },
    /// No steady state: queues grow for as long as the run lasts.
    Unstable {
        /// The binding constraint.
        bottleneck: Bottleneck,
        /// Utilization demanded of the bottleneck (> 1, or the horizon
        /// fill for [`Bottleneck::Window`]).
        utilization: f64,
    },
}

impl Stability {
    /// Whether the verdict is [`Stability::Stable`].
    #[must_use]
    pub fn is_stable(&self) -> bool {
        matches!(self, Stability::Stable { .. })
    }
}

/// Estimated per-priority-class end-to-end latency (cycles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassLatency {
    /// Packets riding the high-priority class (scheme-expedited).
    pub high: f64,
    /// Normal-priority packets.
    pub low: f64,
}

/// Everything the model estimates for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticReport {
    /// Expected end-to-end memory-access latency in cycles (L1 miss to
    /// data back at the core), mean over all off-chip accesses.
    pub mean_latency: f64,
    /// Per-priority-class end-to-end latency.
    pub class_latency: ClassLatency,
    /// Deterministic zero-load round-trip latency.
    pub zero_load_latency: f64,
    /// Per-channel utilization at the operating point, one entry per
    /// (router, out-port) with nonzero load.
    pub channel_utilization: Vec<ChannelUtil>,
    /// Largest entry of `channel_utilization`.
    pub max_channel_utilization: f64,
    /// Data-bus utilization of one memory controller (they are symmetric
    /// under uniform interleaving).
    pub mc_utilization: f64,
    /// Total off-chip packets/cycle injected at the operating point.
    pub offered_load: f64,
    /// Stability verdict.
    pub stability: Stability,
}

/// Per-channel load basis at unit rate scale. Loads are linear in the
/// injection-rate vector, so route walks run once and every operating
/// point is a scalar multiple.
#[derive(Debug, Clone, Copy, Default)]
struct ChannelUnit {
    /// Packet arrivals per cycle.
    lam: f64,
    /// Flit-cycles per cycle (ρ).
    rho: f64,
    /// Σ λ·E[S²] (second service moment, for the M/G/1 residual).
    m2: f64,
    /// ρ from response packets (Scheme-1 promotable).
    rho_resp: f64,
    /// ρ from memory-request packets (Scheme-2 promotable).
    rho_memreq: f64,
    /// Expected crossings per read request: core→bank leg (never high).
    w_req1: f64,
    /// Expected crossings per read request: bank→MC leg (Scheme-2 class).
    w_req2: f64,
    /// Expected crossings per read request: response legs (Scheme-1 class).
    w_resp: f64,
}

/// One core's open-loop demand parameters.
#[derive(Debug, Clone, Copy)]
struct CoreDemand {
    /// Off-chip accesses per instruction.
    mpi: f64,
    /// Effective memory-level parallelism.
    mlp: f64,
    /// Write-back fraction.
    wf: f64,
    /// Base injection rate (packets/cycle) at zero-load latency.
    lam0: f64,
}

/// The estimator: build once per configuration, then query.
#[derive(Debug, Clone)]
pub struct AnalyticModel {
    cfg: SystemConfig,
    topo: Topology,
    apps: Vec<SpecApp>,
    demands: Vec<CoreDemand>,
    channels: Vec<ChannelUnit>,
    ports: usize,
    coeffs: Coefficients,
    rate_scale: f64,
    warmup: Option<Cycle>,
    measure: Option<Cycle>,
    /// Deterministic zero-load round trip.
    l0: f64,
    /// DRAM row-access service time (core cycles).
    s_bank: f64,
    /// Data-bus occupancy per access (core cycles).
    s_bus: f64,
    /// Total base read-request rate Σ lam0 (unit scale).
    lam_total: f64,
    /// Total base write-back rate (unit scale).
    lam_wb_total: f64,
}

impl AnalyticModel {
    /// Builds the estimator for a configuration and its per-core
    /// application placement (`apps[i]` runs on tile `i`, exactly as
    /// `run_mix` assigns them). Validates the configuration first.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] of [`SystemConfig::validate`] if the
    /// configuration is not simulable (the estimator must never rank a
    /// cell the cycle pool would reject).
    pub fn new(cfg: &SystemConfig, apps: &[SpecApp]) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let topo = Topology::from_config(&cfg.topology);
        let n = topo.num_nodes();
        assert_eq!(
            apps.len(),
            n,
            "placement must cover every tile: {} apps for {n} tiles",
            apps.len()
        );
        let coeffs = Coefficients::default();
        let mut model = AnalyticModel {
            cfg: cfg.clone(),
            topo,
            apps: apps.to_vec(),
            demands: Vec::new(),
            channels: Vec::new(),
            ports: 0,
            coeffs,
            rate_scale: 1.0,
            warmup: None,
            measure: None,
            l0: 0.0,
            s_bank: 0.0,
            s_bus: 0.0,
            lam_total: 0.0,
            lam_wb_total: 0.0,
        };
        model.build(apps);
        Ok(model)
    }

    /// Replaces the calibrated coefficients (perturbation tests, sweeps)
    /// and rebuilds the load basis, which depends on them through the base
    /// injection rates.
    #[must_use]
    pub fn with_coefficients(mut self, coeffs: Coefficients) -> Self {
        self.coeffs = coeffs;
        let apps = self.apps.clone();
        self.build(&apps);
        self
    }

    /// Multiplies every core's offered injection rate (property tests,
    /// load sweeps). `1.0` is the profile-derived demand.
    #[must_use]
    pub fn with_rate_scale(mut self, scale: f64) -> Self {
        assert!(scale >= 0.0 && scale.is_finite());
        self.rate_scale = scale;
        self
    }

    /// Supplies the run lengths of the cycle run being estimated. The
    /// measure window caps unstable-cell latency (a sim can only observe
    /// window-limited waits); warmup+measure gates Scheme 1, whose first
    /// threshold update only fires after `scheme1.update_period` cycles.
    #[must_use]
    pub fn with_lengths(mut self, warmup: Cycle, measure: Cycle) -> Self {
        self.warmup = Some(warmup);
        self.measure = Some(measure);
        self
    }

    /// The calibrated coefficients in use.
    #[must_use]
    pub fn coefficients(&self) -> Coefficients {
        self.coeffs
    }

    /// Deterministic zero-load end-to-end latency (cycles).
    #[must_use]
    pub fn zero_load_latency(&self) -> f64 {
        self.l0
    }

    // -- construction -----------------------------------------------------

    fn build(&mut self, apps: &[SpecApp]) {
        let per_hop = self.per_hop_cycles();
        let (req_flits, resp_flits) = self.flit_counts();

        // Zero-load round trip: average hop counts over the uniform
        // (core, bank, controller) traffic pattern.
        let topo = &self.topo;
        let n = topo.num_nodes() as f64;
        let mcs = topo.mc_nodes(self.cfg.topology.mc_placement, self.cfg.mem.num_controllers);
        let m = mcs.len() as f64;
        let mut h_core_bank = 0.0;
        let mut h_bank_mc = 0.0;
        for a in topo.nodes() {
            for b in topo.nodes() {
                h_core_bank += f64::from(topo.hop_distance(a, b));
            }
            for &mc in &mcs {
                h_bank_mc += f64::from(topo.hop_distance(a, mc));
            }
        }
        h_core_bank /= n * n;
        h_bank_mc /= n * m;

        let ser_req = f64::from(req_flits) - 1.0;
        let ser_resp = f64::from(resp_flits) - 1.0;
        let dram = self.dram_service(apps);
        self.s_bank = dram.0;
        self.s_bus = dram.1;
        let l1 = self.cfg.l1.latency as f64;
        let l2 = self.cfg.l2.latency as f64;
        let ctl = self.cfg.mem.ctl_latency as f64;
        // Four network legs (each: hops × per-hop + serialization of the
        // tail), two L2 touches, controller pipeline and one DRAM access.
        self.l0 = l1
            + (h_core_bank + 1.0) * per_hop
            + ser_req
            + l2
            + (h_bank_mc + 1.0) * per_hop
            + ser_req
            + ctl
            + self.s_bank
            + self.s_bus
            + (h_bank_mc + 1.0) * per_hop
            + ser_resp
            + l2
            + (h_core_bank + 1.0) * per_hop
            + ser_resp;

        // Per-core open-loop demands at the zero-load operating point.
        self.demands = apps
            .iter()
            .map(|a| {
                let r = a.profile().traffic_rate();
                CoreDemand {
                    mpi: r.offchip_per_instr,
                    mlp: r.mlp * self.coeffs.mlp_factor,
                    wf: r.write_fraction,
                    lam0: 0.0,
                }
            })
            .collect();
        self.recompute_base_rates();
        self.accumulate_channels(&mcs, req_flits, resp_flits);
    }

    fn recompute_base_rates(&mut self) {
        let issue = self.cfg.cpu.issue_width as f64;
        let cpi0 = 1.0 / issue + self.coeffs.base_cpi;
        let l0 = self.l0;
        self.lam_total = 0.0;
        self.lam_wb_total = 0.0;
        for d in &mut self.demands {
            let ipc0 = 1.0 / (cpi0 + d.mpi * l0 / d.mlp);
            d.lam0 = d.mpi * ipc0;
            self.lam_total += d.lam0;
            self.lam_wb_total += d.lam0 * d.wf;
        }
    }

    /// Cycles one hop costs a head flit: router traversal plus the link.
    fn per_hop_cycles(&self) -> f64 {
        self.cfg.noc.pipeline.min_residency() as f64 + self.cfg.noc.link_latency as f64
    }

    fn flit_counts(&self) -> (u8, u8) {
        let req = 1u8;
        let bits = self.cfg.l2.line_bytes * 8;
        let resp = 1 + (bits.div_ceil(self.cfg.noc.flit_bits)) as u8;
        (req, resp)
    }

    /// `(row access, data-bus occupancy)` in core cycles, rate-weighted
    /// over the placed applications' row localities.
    fn dram_service(&self, apps: &[SpecApp]) -> (f64, f64) {
        let mult = self.cfg.mem.bus_multiplier as f64;
        let mut wsum = 0.0;
        let mut hit = 0.0;
        for a in apps {
            let p = a.profile();
            let w = p.traffic_rate().offchip_per_instr;
            wsum += w;
            hit += w * p.row_locality;
        }
        let p_hit = if wsum > 0.0 { hit / wsum } else { 0.5 };
        let row = p_hit * f64::from(self.cfg.mem.row_hit_latency)
            + (1.0 - p_hit) * self.cfg.mem.bank_busy as f64;
        (row * mult, f64::from(self.cfg.mem.burst_latency) * mult)
    }

    /// Accumulates the unit-scale load basis: every channel's packet rate,
    /// utilization and second service moment from exact route walks of all
    /// four legs (plus write-back traffic on the request legs).
    fn accumulate_channels(&mut self, mcs: &[NodeId], req_flits: u8, resp_flits: u8) {
        self.ports = self.topo.num_ports();
        let mut chans = vec![ChannelUnit::default(); self.topo.num_routers() * self.ports];
        let algo = self.cfg.noc.routing;
        let topo = self.topo;
        let n = topo.num_nodes() as f64;
        let m = mcs.len() as f64;
        let fr = f64::from(req_flits);
        let fd = f64::from(resp_flits);

        let mut add = |path: &[(NodeId, Dir)],
                       rate: f64,
                       flits: f64,
                       resp: bool,
                       memreq: bool,
                       w1: f64,
                       w2: f64,
                       wr: f64| {
            for &(router, port) in path {
                let c = &mut chans[router.index() * self.ports + port.index()];
                c.lam += rate;
                c.rho += rate * flits;
                c.m2 += rate * flits * flits;
                if resp {
                    c.rho_resp += rate * flits;
                }
                if memreq {
                    c.rho_memreq += rate * flits;
                }
                c.w_req1 += w1;
                c.w_req2 += w2;
                c.w_resp += wr;
            }
        };

        let lam_total = self.lam_total;
        // Legs that depend on the individual core: core→bank requests and
        // L1 write-backs (leg 1), bank→core responses (leg 4).
        for (i, d) in self.demands.iter().enumerate() {
            let core = NodeId(i as u16);
            let rate = d.lam0 / n;
            let wb = d.lam0 * d.wf / n;
            let w = if lam_total > 0.0 {
                rate / lam_total
            } else {
                0.0
            };
            for bank in topo.nodes() {
                let out = topo.route_channels(algo, core, bank);
                add(&out, rate, fr, false, false, w, 0.0, 0.0);
                if wb > 0.0 {
                    add(&out, wb, fd, false, false, 0.0, 0.0, 0.0);
                }
                let back = topo.route_channels(algo, bank, core);
                add(&back, rate, fd, true, false, 0.0, 0.0, w);
            }
        }
        // Aggregate legs: bank→MC memory requests and L2 write-backs
        // (leg 2), MC→bank responses (leg 3). Uniform over (bank, MC).
        let rate = self.lam_total / (n * m);
        let wb = self.lam_wb_total / (n * m);
        let w = if lam_total > 0.0 {
            rate / lam_total
        } else {
            0.0
        };
        for bank in topo.nodes() {
            for &mc in mcs {
                let out = topo.route_channels(algo, bank, mc);
                add(&out, rate, fr, false, true, 0.0, w, 0.0);
                if wb > 0.0 {
                    add(&out, wb, fd, false, false, 0.0, 0.0, 0.0);
                }
                let back = topo.route_channels(algo, mc, bank);
                add(&back, rate, fd, true, false, 0.0, 0.0, w);
            }
        }
        self.channels = chans;
    }

    // -- operating-point queries ------------------------------------------

    /// Scheme-1 activity: selected as the response policy and the run long
    /// enough for the first periodic threshold update to fire. The
    /// `oldest-first` and `static` kinds have no priority-class model here:
    /// like `baseline`, they are modelled with the class off.
    fn scheme1_active(&self) -> bool {
        if self.cfg.policy.response != ResponsePolicyKind::Scheme1 {
            return false;
        }
        match (self.warmup, self.measure) {
            (Some(w), Some(m)) => w + m >= self.cfg.scheme1.update_period,
            _ => true,
        }
    }

    /// Scheme-2 activity: selected as the request policy (`oldest-first` and
    /// `static` are modelled as baseline, as for responses).
    fn scheme2_active(&self) -> bool {
        self.cfg.policy.request == RequestPolicyKind::Scheme2
    }

    /// Fraction of responses promoted by Scheme 1 (exponential so-far
    /// delay tail above `threshold_factor × mean`).
    fn p_high_resp(&self) -> f64 {
        if self.scheme1_active() {
            (-self.cfg.scheme1.threshold_factor).exp()
        } else {
            0.0
        }
    }

    /// Effective per-bank utilization at scale `s`, including hot-phase
    /// concentration.
    fn bank_rho(&self, s: f64) -> f64 {
        let banks = self.cfg.mem.banks_per_controller as f64;
        let m = self.cfg.mem.num_controllers as f64;
        let lam_mc = s * (self.lam_total + self.lam_wb_total) / m;
        lam_mc * self.s_bank / banks * self.coeffs.bank_concentration
    }

    /// Fraction of memory requests promoted by Scheme 2 (probability the
    /// target bank looks idle in the history window).
    fn p_high_req(&self, s: f64) -> f64 {
        if self.scheme2_active() {
            (1.0 - self.bank_rho(s)).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// Data-bus utilization of one controller at scale `s`.
    fn mc_rho(&self, s: f64) -> f64 {
        let m = self.cfg.mem.num_controllers as f64;
        s * (self.lam_total + self.lam_wb_total) / m * self.s_bus
    }

    /// Network + controller queueing delay per read request at scale `s`,
    /// split by priority class. Returns `(mean, high, low)`; infinite when
    /// any ρ ≥ 1.
    fn queueing(&self, s: f64) -> (f64, f64, f64) {
        let p1 = self.p_high_resp();
        let p2 = self.p_high_req(s);
        let burst = self.coeffs.burstiness;

        let mut mean = 0.0;
        let mut high = 0.0;
        let mut low = 0.0;
        for c in &self.channels {
            if c.lam <= 0.0 {
                continue;
            }
            let rho = s * c.rho;
            if rho >= 1.0 {
                return (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            }
            let rho_h = s * (c.rho_resp * p1 + c.rho_memreq * p2);
            let r = burst * s * c.m2 / 2.0;
            let w_h = r / (1.0 - rho_h);
            let w_l = r / ((1.0 - rho_h) * (1.0 - rho));
            // Crossing-weighted contribution to the end-to-end path.
            mean += c.w_req1 * w_l
                + c.w_req2 * (p2 * w_h + (1.0 - p2) * w_l)
                + c.w_resp * (p1 * w_h + (1.0 - p1) * w_l);
            high += (c.w_req1 + c.w_req2 + c.w_resp) * w_h;
            low += (c.w_req1 + c.w_req2 + c.w_resp) * w_l;
        }
        mean *= self.coeffs.contention;
        high *= self.coeffs.contention;
        low *= self.coeffs.contention;

        // Memory controller: bank pool then the shared data bus.
        let rho_bus = self.mc_rho(s);
        if rho_bus >= 1.0 {
            return (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        }
        let rho_bank = self.bank_rho(s).min(0.999);
        let w_bank = rho_bank / (1.0 - rho_bank) * self.s_bank / 2.0;
        let r_bus = burst * rho_bus * self.s_bus / 2.0;
        let rho_bus_h = rho_bus * p2;
        let bus_h = r_bus / (1.0 - rho_bus_h);
        let bus_l = r_bus / ((1.0 - rho_bus_h) * (1.0 - rho_bus));
        let mc = self.coeffs.mc_pressure;
        mean += mc * (w_bank + p2 * bus_h + (1.0 - p2) * bus_l);
        high += mc * (w_bank + bus_h);
        low += mc * (w_bank + bus_l);
        (mean, high, low)
    }

    /// Largest utilization demanded anywhere at scale `s`, with its
    /// location.
    fn max_rho(&self, s: f64) -> (f64, Bottleneck) {
        let mut best = (
            self.mc_rho(s),
            Bottleneck::Controller {
                index: 0, // symmetric under uniform interleaving
            },
        );
        for (slot, c) in self.channels.iter().enumerate() {
            let rho = s * c.rho;
            if rho > best.0 {
                let router = NodeId((slot / self.ports) as u16);
                let port = port_from_index(slot % self.ports);
                best = (rho, Bottleneck::Channel { router, port });
            }
        }
        best
    }

    /// The rate-scale multiplier at which the first channel or controller
    /// saturates: `open_loop_latency` is finite strictly below this and
    /// infinite at or above it.
    #[must_use]
    pub fn stability_boundary(&self) -> f64 {
        let (rho, _) = self.max_rho(1.0);
        if rho > 0.0 {
            1.0 / rho
        } else {
            f64::INFINITY
        }
    }

    /// Open-loop mean end-to-end latency at `scale ×` the profile-derived
    /// injection rates (Mandal-style: rates are held fixed, nothing
    /// self-throttles). Monotone non-decreasing in `scale`; infinite at
    /// and beyond [`AnalyticModel::stability_boundary`].
    #[must_use]
    pub fn open_loop_latency(&self, scale: f64) -> f64 {
        assert!(scale >= 0.0);
        let (mean, _, _) = self.queueing(scale);
        self.l0 + mean
    }

    /// Closed-loop demand at end-to-end latency `l`: each core's rate
    /// follows from the memory-stall IPC model, summed and expressed as a
    /// multiple of the base (zero-load) rates.
    fn demand_scale(&self, l: f64) -> f64 {
        if self.lam_total <= 0.0 {
            return 0.0;
        }
        let issue = self.cfg.cpu.issue_width as f64;
        let cpi0 = 1.0 / issue + self.coeffs.base_cpi;
        let mut lam = 0.0;
        for d in &self.demands {
            lam += d.mpi / (cpi0 + d.mpi * l / d.mlp);
        }
        self.rate_scale * lam / self.lam_total
    }

    /// Full estimate at the configured operating point: closed-loop fixed
    /// point of rate and latency, scheme gains applied to the queueing
    /// delay, horizon cap for window-limited (unstable) cells.
    #[must_use]
    pub fn evaluate(&self) -> AnalyticReport {
        // g(l) = l0 + W(demand(l)) - l is strictly decreasing in l:
        // bisection on [l0, lmax] finds the unique fixed point.
        let lmax = 1e9;
        let mut lo = self.l0;
        let mut hi = lmax;
        let g = |l: f64| {
            let (mean, _, _) = self.queueing(self.demand_scale(l));
            self.l0 + mean - l
        };
        if g(lo) > 0.0 {
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if g(mid) > 0.0 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
        } else {
            hi = lo;
        }
        let l_star = 0.5 * (lo + hi);
        let s = self.demand_scale(l_star);
        let (q_mean, q_high, q_low) = self.queueing(s);

        // Scheme gains on the queueing delay (conservation: priorities
        // redistribute, the measured mean effect is a small calibrated
        // fraction).
        let mut gain = 1.0;
        if self.scheme1_active() {
            gain *= 1.0 - self.coeffs.scheme1_gain;
        }
        if self.scheme2_active() {
            gain *= 1.0 - self.coeffs.scheme2_gain;
        }
        let mut q = q_mean * gain;

        // Horizon cap: a run measuring for `measure` cycles can only
        // observe window-limited waits.
        let mut window_limited = false;
        if let Some(measure) = self.measure {
            let cap = self.coeffs.sat_fill * measure as f64 * gain;
            if !q.is_finite() || q > cap {
                q = cap;
                window_limited = true;
            }
        }
        let mean_latency = self.l0 + q;
        // Per-class latencies keep the M/G/1 high/low ratio around the
        // calibrated mean.
        let (high, low) = if q_mean.is_finite() && q_mean > 0.0 {
            (q * q_high / q_mean, q * q_low / q_mean)
        } else {
            (q, q)
        };
        let class_latency = ClassLatency {
            high: self.l0 + high,
            low: self.l0 + low,
        };

        let (rho_max, bottleneck) = self.max_rho(s);
        let stability = if window_limited {
            Stability::Unstable {
                bottleneck: Bottleneck::Window,
                utilization: rho_max.max(1.0),
            }
        } else if rho_max >= 1.0 || !q_mean.is_finite() {
            Stability::Unstable {
                bottleneck,
                utilization: rho_max,
            }
        } else {
            Stability::Stable {
                margin: 1.0 - rho_max,
            }
        };

        let mut channel_utilization = Vec::new();
        let mut max_channel_utilization: f64 = 0.0;
        for (slot, c) in self.channels.iter().enumerate() {
            if c.lam <= 0.0 {
                continue;
            }
            let rho = s * c.rho;
            max_channel_utilization = max_channel_utilization.max(rho);
            channel_utilization.push(ChannelUtil {
                router: NodeId((slot / self.ports) as u16),
                port: port_from_index(slot % self.ports),
                utilization: rho,
            });
        }

        AnalyticReport {
            mean_latency,
            class_latency,
            zero_load_latency: self.l0,
            channel_utilization,
            max_channel_utilization,
            mc_utilization: self.mc_rho(s),
            offered_load: s * (self.lam_total + self.lam_wb_total),
            stability,
        }
    }
}

fn port_from_index(i: usize) -> Dir {
    Dir::EXPRESS_ALL[i]
}

#[cfg(test)]
mod tests {
    use super::*;
    use noclat_sim::config::{Scheme, TopologyOverride};
    use noclat_workloads::workload;

    fn mesh_model() -> AnalyticModel {
        let cfg = SystemConfig::baseline_32();
        let apps = workload(2).apps();
        AnalyticModel::new(&cfg, &apps).unwrap()
    }

    #[test]
    fn zero_load_latency_is_sane() {
        let m = mesh_model();
        // A few network legs, an L2 and a DRAM access: well over the raw
        // DRAM latency, well under a congested round trip.
        assert!(m.zero_load_latency() > 60.0, "{}", m.zero_load_latency());
        assert!(m.zero_load_latency() < 400.0, "{}", m.zero_load_latency());
    }

    #[test]
    fn open_loop_latency_is_monotone_and_diverges() {
        let m = mesh_model();
        let b = m.stability_boundary();
        assert!(b.is_finite() && b > 0.0);
        let mut prev = 0.0;
        for step in 1..=20 {
            let scale = b * 0.999 * f64::from(step) / 20.0;
            let l = m.open_loop_latency(scale);
            assert!(l.is_finite(), "finite below the boundary (scale {scale})");
            assert!(l >= prev, "monotone at scale {scale}: {l} < {prev}");
            prev = l;
        }
        assert!(m.open_loop_latency(b * 1.001).is_infinite());
        assert!(prev > 3.0 * m.open_loop_latency(b * 0.05));
    }

    #[test]
    fn evaluate_reports_positive_utilizations() {
        let r = mesh_model().evaluate();
        assert!(r.mean_latency > r.zero_load_latency);
        assert!(r.max_channel_utilization > 0.0);
        assert!(r.mc_utilization > 0.0);
        assert!(!r.channel_utilization.is_empty());
        assert!(r.offered_load > 0.0);
        // Ejection channels at the corner MCs carry the response stream.
        assert!(r
            .channel_utilization
            .iter()
            .any(|c| c.port == Dir::Local && c.utilization > 0.0));
    }

    #[test]
    fn torus_with_short_window_is_window_limited() {
        let mut cfg = SystemConfig::baseline_256();
        TopologyOverride::parse("torus").unwrap().apply(&mut cfg);
        let apps = workload(2).apps_for(cfg.num_cores());
        let m = AnalyticModel::new(&cfg, &apps)
            .unwrap()
            .with_lengths(200, 4_000);
        let r = m.evaluate();
        assert!(matches!(
            r.stability,
            Stability::Unstable {
                bottleneck: Bottleneck::Window,
                ..
            }
        ));
        // Window-limited latency sits near half the measure window.
        assert!(r.mean_latency > 1_000.0 && r.mean_latency < 4_000.0);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = SystemConfig::baseline_32();
        cfg.mem.num_controllers = 3;
        let apps = workload(2).apps();
        assert!(AnalyticModel::new(&cfg, &apps).is_err());
    }

    #[test]
    fn scheme2_lowers_the_mean_estimate() {
        let cfg = SystemConfig::baseline_32();
        let apps = workload(2).apps();
        let base = AnalyticModel::new(&cfg, &apps)
            .unwrap()
            .with_lengths(300, 12_000)
            .evaluate();
        let s2 = AnalyticModel::new(&cfg.clone().with_scheme2(), &apps)
            .unwrap()
            .with_lengths(300, 12_000)
            .evaluate();
        assert!(s2.mean_latency < base.mean_latency);
        // And the expedited class beats the normal class.
        assert!(s2.class_latency.high <= s2.class_latency.low);
    }

    #[test]
    fn the_model_follows_the_policy_kinds_however_they_were_set() {
        let apps = workload(2).apps();
        let report = |cfg: &SystemConfig| {
            AnalyticModel::new(cfg, &apps)
                .unwrap()
                .with_lengths(2_000, 12_000)
                .evaluate()
        };
        let base = SystemConfig::baseline_32();
        // What `--policy req=scheme2,resp=scheme1` does to a cell.
        let mut by_field = base.clone();
        by_field.policy.request = RequestPolicyKind::Scheme2;
        by_field.policy.response = ResponsePolicyKind::Scheme1;
        let both = report(&base.clone().with_scheme(Scheme::Both));
        assert_eq!(both, report(&by_field));
        assert_ne!(both, report(&base));
        // Kinds without a priority-class model are modelled as baseline.
        let mut unmodelled = base.clone();
        unmodelled.policy.request = RequestPolicyKind::OldestFirst;
        unmodelled.policy.response = ResponsePolicyKind::Static;
        assert_eq!(report(&unmodelled), report(&base));
    }
}
