//! What a configuration may hold: [`SystemConfig::validate`], the geometry
//! check it shares with the network ([`TopologyConfig::router_grid`]) and
//! the typed [`ConfigError`] both report.

use super::types::{NocConfig, SystemConfig, TopologyConfig, TopologyKind};
use crate::error::FaultError;

impl TopologyConfig {
    /// The router grid this geometry wires, as (columns, rows): the tile
    /// grid divided by the concentration blocks (2 → 2×1 tiles, 4 → 2×2).
    ///
    /// # Errors
    ///
    /// The first reason the geometry wires no fabric: a grid under 2×2, a
    /// concentration or skip distance the fabric does not take, blocks that
    /// do not tile the grid.
    pub fn router_grid(&self) -> Result<(u16, u16), ConfigError> {
        let (width, height) = (self.width, self.height);
        if width < 2 || height < 2 {
            return Err(ConfigError::MeshTooSmall { width, height });
        }
        let (cx, cy) = match (self.kind, self.concentration) {
            // c=1 on a concentrated mesh degenerates to a mesh.
            (_, 1) => (1, 1),
            (TopologyKind::CMesh, 2) => (2, 1),
            (TopologyKind::CMesh, 4) => (2, 2),
            (kind, concentration) => {
                return Err(ConfigError::BadConcentration {
                    concentration,
                    kind,
                })
            }
        };
        if !width.is_multiple_of(cx)
            || !height.is_multiple_of(cy)
            || width / cx < 2
            || height / cy < 2
        {
            return Err(ConfigError::ConcentrationDoesNotDivide {
                concentration: self.concentration,
                width,
                height,
            });
        }
        let skip = self.express_skip;
        let skip_fits = match self.kind {
            TopologyKind::Express => (2..width.min(height)).contains(&skip),
            _ => skip == 0,
        };
        if !skip_fits {
            return Err(ConfigError::BadExpressSkip {
                skip,
                width,
                height,
            });
        }
        Ok((width / cx, height / cy))
    }
}

impl SystemConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated invariant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.topology.router_grid()?;
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
        // Values a component constructor would panic on, or that stop every
        // core for good without tripping a check.
        let line = self.l1.line_bytes;
        let positive = |field, value: usize, need| (field, value as u64, value > 0, need);
        let buildable = [
            positive(
                "cpu.window_size",
                self.cpu.window_size,
                "at least one entry",
            ),
            positive("cpu.lsq_size", self.cpu.lsq_size, "at least one entry"),
            positive("cpu.issue_width", self.cpu.issue_width, "a positive width"),
            positive(
                "cpu.commit_width",
                self.cpu.commit_width,
                "a positive width",
            ),
            positive(
                "l2.mshrs_per_bank",
                self.l2.mshrs_per_bank,
                "at least one register",
            ),
            positive(
                "mem.banks_per_controller",
                self.mem.banks_per_controller,
                "at least one bank",
            ),
            (
                "mem.row_bytes",
                self.mem.row_bytes as u64,
                self.mem.row_bytes >= line && self.mem.row_bytes.is_multiple_of(line),
                "a positive multiple of the line size",
            ),
            (
                "mem.refresh_period",
                u64::from(self.mem.refresh_period),
                self.mem.refresh_period > 0,
                "a positive period",
            ),
            (
                "noc.vcs_per_port",
                self.noc.vcs_per_port as u64,
                self.noc
                    .vcs_per_port
                    .saturating_mul(self.topology.router_ports())
                    <= NocConfig::MAX_ROUTER_VCS,
                "at most 128 input VCs per router: 25 per port on 5-port fabrics, 14 on express",
            ),
            (
                "noc.buffer_depth",
                self.noc.buffer_depth as u64,
                self.noc.buffer_depth <= NocConfig::MAX_BUFFER_DEPTH,
                "at most 255 flits per VC",
            ),
            positive("noc.flit_bits", self.noc.flit_bits, "a positive flit width"),
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
        let factor = self.scheme1.threshold_factor;
        if factor.is_nan() || factor <= 0.0 {
            return Err(ConfigError::BadThresholdFactor(factor));
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
