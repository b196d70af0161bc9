//! Network topologies: node identifiers, coordinates, neighbors, routing,
//! and the positions where memory controllers attach.
//!
//! Four fabrics share one [`Topology`] value (see `DESIGN.md` §13), built
//! from the [`TopologyConfig`] that names one:
//!
//! * **mesh** — the paper's 2D mesh, bit-identical to the pre-topology
//!   code (5 ports, dimension-order routing, corner controllers).
//! * **torus** — mesh plus wraparound links; shortest-direction routing
//!   per dimension with dateline VC subclasses for deadlock freedom
//!   (see [`Topology::vc_subclass`]).
//! * **cmesh** — concentrated mesh: `c` tiles share one router. The tile
//!   grid (cores, caches, MCs) is unchanged; only the router grid shrinks.
//! * **express** — mesh plus express ("ruche") channels that skip a fixed
//!   number of routers per hop in each dimension, the BSG `RUCHE_FACTOR`
//!   parameterization. Routers grow four extra ports.
//!
//! Two coordinate spaces coexist: **tiles** (`num_nodes`, `coord_of`,
//! `node_at`, MC placement, workload mapping) and **routers**
//! (`num_routers`, `router_coord`, `neighbor`, `route`). They coincide on
//! every fabric except the concentrated mesh, where [`Topology::router_of`]
//! maps a tile to the router serving its block.

use noclat_sim::config::{McPlacement, RoutingAlgorithm, TopologyConfig, TopologyKind};

/// Index of a tile or router, row-major within its grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The index as `usize`, for container indexing.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A grid coordinate: `x` is the column, `y` the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column (0-based, grows eastward).
    pub x: u16,
    /// Row (0-based, grows southward).
    pub y: u16,
}

/// A router port. The first four are the mesh directions and `Local` is
/// the tile's injection/ejection port; the `Express*` ports (indices 5..9)
/// exist only on the express fabric and carry the skip channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Toward row 0.
    North,
    /// Toward the last row.
    South,
    /// Toward the last column.
    East,
    /// Toward column 0.
    West,
    /// The tile attached to this router.
    Local,
    /// Express channel toward row 0 (skips `express_skip` routers).
    ExpressNorth,
    /// Express channel toward the last row.
    ExpressSouth,
    /// Express channel toward the last column.
    ExpressEast,
    /// Express channel toward column 0.
    ExpressWest,
}

impl Dir {
    /// The five mesh ports, in port-index order. Kept at five — the
    /// express ports only exist on the express fabric; size port arrays
    /// with [`Topology::num_ports`] and iterate [`Topology::ports`].
    pub const ALL: [Dir; 5] = [Dir::North, Dir::South, Dir::East, Dir::West, Dir::Local];

    /// All nine ports of an express router, in port-index order.
    pub const EXPRESS_ALL: [Dir; 9] = [
        Dir::North,
        Dir::South,
        Dir::East,
        Dir::West,
        Dir::Local,
        Dir::ExpressNorth,
        Dir::ExpressSouth,
        Dir::ExpressEast,
        Dir::ExpressWest,
    ];

    /// Port index (0..=8; the mesh ports keep their historical 0..=4).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Dir::North => 0,
            Dir::South => 1,
            Dir::East => 2,
            Dir::West => 3,
            Dir::Local => 4,
            Dir::ExpressNorth => 5,
            Dir::ExpressSouth => 6,
            Dir::ExpressEast => 7,
            Dir::ExpressWest => 8,
        }
    }

    /// The opposite direction. `Local` is its own opposite.
    #[must_use]
    pub fn opposite(self) -> Dir {
        match self {
            Dir::North => Dir::South,
            Dir::South => Dir::North,
            Dir::East => Dir::West,
            Dir::West => Dir::East,
            Dir::Local => Dir::Local,
            Dir::ExpressNorth => Dir::ExpressSouth,
            Dir::ExpressSouth => Dir::ExpressNorth,
            Dir::ExpressEast => Dir::ExpressWest,
            Dir::ExpressWest => Dir::ExpressEast,
        }
    }
}

/// A `width × height` tile grid wired by one of four fabrics: a
/// [`TopologyConfig`] that passed [`TopologyConfig::router_grid`], held with
/// the router grid that check derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    cfg: TopologyConfig,
    /// Router-grid dimensions: (columns, rows).
    routers: (u16, u16),
}

impl Topology {
    /// Creates a plain 2D mesh, the paper's fabric.
    ///
    /// # Panics
    ///
    /// As [`Topology::from_config`]: a mesh is at least 2×2.
    #[must_use]
    pub fn new(width: u16, height: u16) -> Self {
        Self::from_config(&TopologyConfig::mesh(width, height))
    }

    /// Builds the fabric a [`TopologyConfig`] describes.
    ///
    /// # Panics
    ///
    /// Panics on a geometry [`TopologyConfig::router_grid`] rejects —
    /// [`SystemConfig::validate`](noclat_sim::config::SystemConfig::validate)
    /// reports the same check as a typed error first.
    #[must_use]
    pub fn from_config(cfg: &TopologyConfig) -> Self {
        match cfg.router_grid() {
            Ok(routers) => Topology { cfg: *cfg, routers },
            Err(e) => panic!("no fabric for {}: {e}", cfg.label()),
        }
    }

    /// The geometry this fabric was built from.
    #[must_use]
    pub fn config(&self) -> TopologyConfig {
        self.cfg
    }

    /// Number of tile columns.
    #[must_use]
    pub fn width(&self) -> u16 {
        self.cfg.width
    }

    /// Number of tile rows.
    #[must_use]
    pub fn height(&self) -> u16 {
        self.cfg.height
    }

    /// Tile-block dimensions per router: (columns, rows).
    fn block_dims(&self) -> (u16, u16) {
        let (rw, rh) = self.routers;
        (self.cfg.width / rw, self.cfg.height / rh)
    }

    // -- tile space ------------------------------------------------------

    /// Total tile count (`width × height`) — one core per tile.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        usize::from(self.cfg.width) * usize::from(self.cfg.height)
    }

    /// Tile at a coordinate (row-major).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the grid.
    #[must_use]
    pub fn node_at(&self, c: Coord) -> NodeId {
        assert!(
            c.x < self.cfg.width && c.y < self.cfg.height,
            "coord out of mesh"
        );
        NodeId(c.y * self.cfg.width + c.x)
    }

    /// Coordinate of a tile.
    ///
    /// # Panics
    ///
    /// Panics if the id is outside the grid.
    #[must_use]
    pub fn coord_of(&self, n: NodeId) -> Coord {
        assert!(n.index() < self.num_nodes(), "node out of mesh");
        Coord {
            x: n.0 % self.cfg.width,
            y: n.0 / self.cfg.width,
        }
    }

    /// Iterator over all tile ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes() as u16).map(NodeId)
    }

    // -- router space ----------------------------------------------------

    /// Total router count (`num_nodes / concentration`).
    #[must_use]
    pub fn num_routers(&self) -> usize {
        self.num_nodes() / usize::from(self.cfg.concentration)
    }

    /// The router serving a tile. Identity on every fabric except cmesh.
    ///
    /// # Panics
    ///
    /// Panics if the tile id is outside the grid.
    #[must_use]
    pub fn router_of(&self, tile: NodeId) -> NodeId {
        if self.cfg.concentration == 1 {
            assert!(tile.index() < self.num_nodes(), "node out of mesh");
            return tile;
        }
        let c = self.coord_of(tile);
        let (cx, cy) = self.block_dims();
        let (rw, _) = self.routers;
        NodeId((c.y / cy) * rw + (c.x / cx))
    }

    /// Coordinate of a router in the router grid.
    ///
    /// # Panics
    ///
    /// Panics if the id is outside the router grid.
    #[must_use]
    pub fn router_coord(&self, r: NodeId) -> Coord {
        assert!(r.index() < self.num_routers(), "router out of grid");
        let (rw, _) = self.routers;
        Coord {
            x: r.0 % rw,
            y: r.0 / rw,
        }
    }

    /// Router at a router-grid coordinate.
    fn router_at(&self, c: Coord) -> NodeId {
        let (rw, rh) = self.routers;
        assert!(c.x < rw && c.y < rh, "router coord out of grid");
        NodeId(c.y * rw + c.x)
    }

    /// Iterator over all router ids.
    pub fn routers(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_routers() as u16).map(NodeId)
    }

    // -- ports and links -------------------------------------------------

    /// Ports per router: 5 on mesh/torus/cmesh, 9 on express.
    #[must_use]
    pub fn num_ports(&self) -> usize {
        self.cfg.router_ports()
    }

    /// The ports of this fabric, in port-index order.
    #[must_use]
    pub fn ports(&self) -> &'static [Dir] {
        &Dir::EXPRESS_ALL[..self.num_ports()]
    }

    /// The neighboring **router** reached through a port, if that link
    /// exists. Wraparound on torus; `±skip` jumps on the express ports.
    #[must_use]
    pub fn neighbor(&self, n: NodeId, d: Dir) -> Option<NodeId> {
        let (rw, rh) = self.routers;
        let c = self.router_coord(n);
        let wrap = self.cfg.kind == TopologyKind::Torus;
        let nc = match d {
            Dir::North => {
                if c.y > 0 {
                    Some(Coord { x: c.x, y: c.y - 1 })
                } else if wrap && rh > 1 {
                    Some(Coord { x: c.x, y: rh - 1 })
                } else {
                    None
                }
            }
            Dir::South => {
                if c.y + 1 < rh {
                    Some(Coord { x: c.x, y: c.y + 1 })
                } else if wrap && rh > 1 {
                    Some(Coord { x: c.x, y: 0 })
                } else {
                    None
                }
            }
            Dir::East => {
                if c.x + 1 < rw {
                    Some(Coord { x: c.x + 1, y: c.y })
                } else if wrap && rw > 1 {
                    Some(Coord { x: 0, y: c.y })
                } else {
                    None
                }
            }
            Dir::West => {
                if c.x > 0 {
                    Some(Coord { x: c.x - 1, y: c.y })
                } else if wrap && rw > 1 {
                    Some(Coord { x: rw - 1, y: c.y })
                } else {
                    None
                }
            }
            Dir::Local => None,
            Dir::ExpressNorth => (self.cfg.kind == TopologyKind::Express
                && c.y >= self.cfg.express_skip)
                .then(|| Coord {
                    x: c.x,
                    y: c.y - self.cfg.express_skip,
                }),
            Dir::ExpressSouth => (self.cfg.kind == TopologyKind::Express
                && c.y + self.cfg.express_skip < rh)
                .then(|| Coord {
                    x: c.x,
                    y: c.y + self.cfg.express_skip,
                }),
            Dir::ExpressEast => (self.cfg.kind == TopologyKind::Express
                && c.x + self.cfg.express_skip < rw)
                .then(|| Coord {
                    x: c.x + self.cfg.express_skip,
                    y: c.y,
                }),
            Dir::ExpressWest => (self.cfg.kind == TopologyKind::Express
                && c.x >= self.cfg.express_skip)
                .then(|| Coord {
                    x: c.x - self.cfg.express_skip,
                    y: c.y,
                }),
        };
        nc.map(|c| self.router_at(c))
    }

    // -- routing ---------------------------------------------------------

    /// One routing step in a single dimension, mesh-style (no wraparound).
    fn mesh_step(from: u16, to: u16, pos: Dir, neg: Dir) -> Option<Dir> {
        match from.cmp(&to) {
            std::cmp::Ordering::Less => Some(pos),
            std::cmp::Ordering::Greater => Some(neg),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// One routing step around a ring: shortest direction, ties broken
    /// toward the positive direction (East/South).
    fn ring_step(from: u16, to: u16, size: u16, pos: Dir, neg: Dir) -> Option<Dir> {
        if from == to {
            return None;
        }
        let fwd = (to + size - from) % size;
        if u32::from(fwd) * 2 <= u32::from(size) {
            Some(pos)
        } else {
            Some(neg)
        }
    }

    /// One routing step in a dimension on the express fabric: take the
    /// skip channel while at least `skip` hops remain, else walk.
    fn express_step(from: u16, to: u16, skip: u16, pos: Dir, neg: Dir) -> Option<Dir> {
        match from.cmp(&to) {
            std::cmp::Ordering::Less if to - from >= skip => Some(match pos {
                Dir::East => Dir::ExpressEast,
                _ => Dir::ExpressSouth,
            }),
            std::cmp::Ordering::Less => Some(pos),
            std::cmp::Ordering::Greater if from - to >= skip => Some(match neg {
                Dir::West => Dir::ExpressWest,
                _ => Dir::ExpressNorth,
            }),
            std::cmp::Ordering::Greater => Some(neg),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// The step to take in one dimension, per fabric.
    fn dim_step(&self, from: u16, to: u16, size: u16, pos: Dir, neg: Dir) -> Option<Dir> {
        match self.cfg.kind {
            TopologyKind::Mesh | TopologyKind::CMesh => Self::mesh_step(from, to, pos, neg),
            TopologyKind::Torus => Self::ring_step(from, to, size, pos, neg),
            TopologyKind::Express => Self::express_step(from, to, self.cfg.express_skip, pos, neg),
        }
    }

    /// Dimension-order (X-Y) routing: the output port a packet at router
    /// `here` takes toward the **tile** `dest`. Returns [`Dir::Local`] when
    /// `here` is the router serving `dest`.
    #[must_use]
    pub fn xy_route(&self, here: NodeId, dest: NodeId) -> Dir {
        let (rw, rh) = self.routers;
        let h = self.router_coord(here);
        let d = self.router_coord(self.router_of(dest));
        self.dim_step(h.x, d.x, rw, Dir::East, Dir::West)
            .or_else(|| self.dim_step(h.y, d.y, rh, Dir::South, Dir::North))
            .unwrap_or(Dir::Local)
    }

    /// Y-X dimension-order routing (rows first).
    #[must_use]
    pub fn yx_route(&self, here: NodeId, dest: NodeId) -> Dir {
        let (rw, rh) = self.routers;
        let h = self.router_coord(here);
        let d = self.router_coord(self.router_of(dest));
        self.dim_step(h.y, d.y, rh, Dir::South, Dir::North)
            .or_else(|| self.dim_step(h.x, d.x, rw, Dir::East, Dir::West))
            .unwrap_or(Dir::Local)
    }

    /// Routes by the configured dimension-order algorithm.
    #[must_use]
    pub fn route(&self, algo: RoutingAlgorithm, here: NodeId, dest: NodeId) -> Dir {
        match algo {
            RoutingAlgorithm::XY => self.xy_route(here, dest),
            RoutingAlgorithm::YX => self.yx_route(here, dest),
        }
    }

    /// Router-grid hop distance between the routers serving tiles `a` and
    /// `b` — exactly the hops the deterministic route takes.
    #[must_use]
    pub fn hop_distance(&self, a: NodeId, b: NodeId) -> u32 {
        let (rw, rh) = self.routers;
        let ca = self.router_coord(self.router_of(a));
        let cb = self.router_coord(self.router_of(b));
        let dx = u32::from(ca.x.abs_diff(cb.x));
        let dy = u32::from(ca.y.abs_diff(cb.y));
        match self.cfg.kind {
            TopologyKind::Mesh | TopologyKind::CMesh => dx + dy,
            TopologyKind::Torus => dx.min(u32::from(rw) - dx) + dy.min(u32::from(rh) - dy),
            TopologyKind::Express => {
                let skip = u32::from(self.cfg.express_skip);
                (dx / skip + dx % skip) + (dy / skip + dy % skip)
            }
        }
    }

    /// Every `(router, out-port)` channel a packet from tile `src` to tile
    /// `dest` crosses under the deterministic route, in traversal order,
    /// ending with the ejection channel `(dest_router, Dir::Local)`. This
    /// is the contention footprint the analytic latency model charges a
    /// packet for: each entry is one switch/link the packet must win.
    ///
    /// The walk follows [`Topology::route`]/[`Topology::neighbor`] exactly,
    /// so its length (minus the ejection entry) equals
    /// [`Topology::hop_distance`] on every fabric.
    #[must_use]
    pub fn route_channels(
        &self,
        algo: RoutingAlgorithm,
        src: NodeId,
        dest: NodeId,
    ) -> Vec<(NodeId, Dir)> {
        let target = self.router_of(dest);
        let mut here = self.router_of(src);
        let mut out = Vec::new();
        // Deterministic dimension-order routes are loop-free and strictly
        // shorter than the router count; the bound only guards corruption.
        let bound = self.num_routers() + 1;
        while here != target {
            assert!(
                out.len() < bound,
                "route from {src:?} to {dest:?} exceeded {bound} hops"
            );
            let d = self.route(algo, here, dest);
            debug_assert!(d != Dir::Local, "route stalled before reaching {dest:?}");
            out.push((here, d));
            here = self
                .neighbor(here, d)
                .expect("deterministic routes only traverse existing links");
        }
        out.push((target, Dir::Local));
        out
    }

    // -- deadlock avoidance ----------------------------------------------

    /// Dateline VC subclass for a hop out of router `here` toward tile
    /// `dest` through port `d` — `Some(0|1)` on a torus, `None` elsewhere
    /// (mesh-like fabrics need no dateline discipline).
    ///
    /// The discipline is history-free: a hop whose remaining path in the
    /// traversed dimension still crosses the wraparound edge uses subclass
    /// 0, and subclass 1 once it no longer does (including the wrap hop
    /// itself). Within subclass 0 positions move monotonically toward the
    /// wrap edge and within subclass 1 monotonically toward the
    /// destination, so channel dependencies only ever go 0 → 1 and the
    /// dependency graph is acyclic (`DESIGN.md` §13, proven empirically by
    /// `proptest_network::torus_dateline_dependencies_are_acyclic`).
    #[must_use]
    pub fn vc_subclass(&self, here: NodeId, dest: NodeId, d: Dir) -> Option<u8> {
        if self.cfg.kind != TopologyKind::Torus {
            return None;
        }
        let (rw, rh) = self.routers;
        let h = self.router_coord(here);
        let t = self.router_coord(self.router_of(dest));
        let (p, target, size, positive) = match d {
            Dir::East => (h.x, t.x, rw, true),
            Dir::West => (h.x, t.x, rw, false),
            Dir::South => (h.y, t.y, rh, true),
            Dir::North => (h.y, t.y, rh, false),
            _ => return None,
        };
        let after = if positive {
            (p + 1) % size
        } else {
            (p + size - 1) % size
        };
        let wrap_remaining = if positive {
            after > target
        } else {
            after < target
        };
        Some(u8::from(!wrap_remaining))
    }

    // -- memory-controller attachment ------------------------------------

    /// Corner tiles where memory controllers attach, in the paper's
    /// layout: `count` of 1, 2 or 4. Two controllers sit at *opposite*
    /// corners (Section 4.1, 16-core setup); four occupy all corners.
    ///
    /// # Panics
    ///
    /// Panics if `count` is not 1, 2 or 4.
    #[must_use]
    pub fn corner_nodes(&self, count: usize) -> Vec<NodeId> {
        let nw = self.node_at(Coord { x: 0, y: 0 });
        let ne = self.node_at(Coord {
            x: self.cfg.width - 1,
            y: 0,
        });
        let sw = self.node_at(Coord {
            x: 0,
            y: self.cfg.height - 1,
        });
        let se = self.node_at(Coord {
            x: self.cfg.width - 1,
            y: self.cfg.height - 1,
        });
        match count {
            1 => vec![nw],
            2 => vec![nw, se],
            4 => vec![nw, ne, sw, se],
            _ => panic!("unsupported controller count {count} (need 1, 2 or 4)"),
        }
    }

    /// Tiles where memory controllers attach under a placement policy.
    /// `Corner` reproduces [`Topology::corner_nodes`] exactly (the
    /// pre-placement behavior); `Edge` uses edge midpoints (top, bottom,
    /// then left/right); `Center` uses the central 2×2 block.
    ///
    /// # Panics
    ///
    /// Panics if `count` is not 1, 2 or 4.
    #[must_use]
    pub fn mc_nodes(&self, placement: McPlacement, count: usize) -> Vec<NodeId> {
        match placement {
            McPlacement::Corner => self.corner_nodes(count),
            McPlacement::Edge => {
                let top = self.node_at(Coord {
                    x: self.cfg.width / 2,
                    y: 0,
                });
                let bottom = self.node_at(Coord {
                    x: self.cfg.width / 2,
                    y: self.cfg.height - 1,
                });
                let left = self.node_at(Coord {
                    x: 0,
                    y: self.cfg.height / 2,
                });
                let right = self.node_at(Coord {
                    x: self.cfg.width - 1,
                    y: self.cfg.height / 2,
                });
                match count {
                    1 => vec![top],
                    2 => vec![top, bottom],
                    4 => vec![top, bottom, left, right],
                    _ => panic!("unsupported controller count {count} (need 1, 2 or 4)"),
                }
            }
            McPlacement::Center => {
                let (cx, cy) = (self.cfg.width / 2, self.cfg.height / 2);
                let block = [
                    Coord {
                        x: cx - 1,
                        y: cy - 1,
                    },
                    Coord { x: cx, y: cy },
                    Coord { x: cx, y: cy - 1 },
                    Coord { x: cx - 1, y: cy },
                ];
                match count {
                    1 => vec![self.node_at(block[1])],
                    2 => vec![self.node_at(block[0]), self.node_at(block[1])],
                    4 => block.iter().map(|&c| self.node_at(c)).collect(),
                    _ => panic!("unsupported controller count {count} (need 1, 2 or 4)"),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh48() -> Topology {
        Topology::new(8, 4)
    }

    #[test]
    fn node_coord_roundtrip() {
        let m = mesh48();
        for n in m.nodes() {
            assert_eq!(m.node_at(m.coord_of(n)), n);
        }
        assert_eq!(m.num_nodes(), 32);
    }

    #[test]
    fn neighbors_at_edges() {
        let m = mesh48();
        let nw = m.node_at(Coord { x: 0, y: 0 });
        assert_eq!(m.neighbor(nw, Dir::North), None);
        assert_eq!(m.neighbor(nw, Dir::West), None);
        assert_eq!(m.neighbor(nw, Dir::East), Some(NodeId(1)));
        assert_eq!(m.neighbor(nw, Dir::South), Some(NodeId(8)));
        assert_eq!(m.neighbor(nw, Dir::Local), None);
    }

    #[test]
    fn neighbor_is_symmetric() {
        let m = mesh48();
        for n in m.nodes() {
            for d in [Dir::North, Dir::South, Dir::East, Dir::West] {
                if let Some(nb) = m.neighbor(n, d) {
                    assert_eq!(m.neighbor(nb, d.opposite()), Some(n));
                }
            }
        }
    }

    #[test]
    fn xy_routes_x_first() {
        let m = mesh48();
        let src = m.node_at(Coord { x: 1, y: 1 });
        let dst = m.node_at(Coord { x: 5, y: 3 });
        assert_eq!(m.xy_route(src, dst), Dir::East);
        let aligned = m.node_at(Coord { x: 5, y: 1 });
        assert_eq!(m.xy_route(aligned, dst), Dir::South);
        assert_eq!(m.xy_route(dst, dst), Dir::Local);
    }

    #[test]
    fn xy_route_always_reaches_destination() {
        let m = mesh48();
        for src in m.nodes() {
            for dst in m.nodes() {
                let mut here = src;
                let mut hops = 0;
                loop {
                    let d = m.xy_route(here, dst);
                    if d == Dir::Local {
                        break;
                    }
                    here = m.neighbor(here, d).expect("route must stay in mesh");
                    hops += 1;
                    assert!(hops <= 64, "routing loop from {src} to {dst}");
                }
                assert_eq!(here, dst);
                assert_eq!(hops, m.hop_distance(src, dst));
            }
        }
    }

    #[test]
    fn corners_match_paper_layout() {
        let m = mesh48();
        assert_eq!(
            m.corner_nodes(4),
            vec![NodeId(0), NodeId(7), NodeId(24), NodeId(31)]
        );
        assert_eq!(m.corner_nodes(2), vec![NodeId(0), NodeId(31)]);
        assert_eq!(m.corner_nodes(1), vec![NodeId(0)]);
    }

    #[test]
    #[should_panic(expected = "unsupported controller count")]
    fn bad_corner_count_panics() {
        let _ = mesh48().corner_nodes(3);
    }

    #[test]
    fn yx_routes_y_first() {
        let m = mesh48();
        let src = m.node_at(Coord { x: 1, y: 1 });
        let dst = m.node_at(Coord { x: 5, y: 3 });
        assert_eq!(m.yx_route(src, dst), Dir::South);
        let aligned = m.node_at(Coord { x: 1, y: 3 });
        assert_eq!(m.yx_route(aligned, dst), Dir::East);
        assert_eq!(m.route(RoutingAlgorithm::YX, dst, dst), Dir::Local);
        assert_eq!(m.route(RoutingAlgorithm::XY, src, dst), Dir::East);
    }

    #[test]
    fn yx_route_always_reaches_destination() {
        let m = mesh48();
        for src in m.nodes() {
            for dst in m.nodes() {
                let mut here = src;
                let mut hops = 0;
                loop {
                    let d = m.yx_route(here, dst);
                    if d == Dir::Local {
                        break;
                    }
                    here = m.neighbor(here, d).expect("route must stay in mesh");
                    hops += 1;
                    assert!(hops <= 64, "routing loop from {src} to {dst}");
                }
                assert_eq!(here, dst);
                assert_eq!(hops, m.hop_distance(src, dst));
            }
        }
    }

    #[test]
    fn dir_indices_are_stable() {
        for (i, d) in Dir::ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
        }
        for (i, d) in Dir::EXPRESS_ALL.iter().enumerate() {
            assert_eq!(d.index(), i);
        }
        assert_eq!(Dir::East.opposite(), Dir::West);
        assert_eq!(Dir::Local.opposite(), Dir::Local);
        assert_eq!(Dir::ExpressNorth.opposite(), Dir::ExpressSouth);
        assert_eq!(Dir::ExpressWest.opposite(), Dir::ExpressEast);
    }

    #[test]
    fn torus_wraps_and_routes_shortest() {
        let t = Topology::from_config(&TopologyConfig::torus(8, 4));
        let nw = t.node_at(Coord { x: 0, y: 0 });
        // Wraparound links exist at the edges.
        assert_eq!(t.neighbor(nw, Dir::West), Some(NodeId(7)));
        assert_eq!(t.neighbor(nw, Dir::North), Some(NodeId(24)));
        // 0 → x=6 is 2 hops west around the ring, not 6 east.
        let dst = t.node_at(Coord { x: 6, y: 0 });
        assert_eq!(t.xy_route(nw, dst), Dir::West);
        assert_eq!(t.hop_distance(nw, dst), 2);
        // Ties break toward the positive direction (East/South).
        let half = t.node_at(Coord { x: 4, y: 0 });
        assert_eq!(t.xy_route(nw, half), Dir::East);
        // On 8×4 the farthest tile is 4+2 hops away.
        let far = t.node_at(Coord { x: 4, y: 2 });
        assert_eq!(t.hop_distance(nw, far), 6);
    }

    #[test]
    fn torus_dateline_subclass_transitions_once() {
        let t = Topology::from_config(&TopologyConfig::torus(8, 4));
        // Route 6 → 1 goes east across the wrap edge: subclass 0 while the
        // wrap is still ahead, subclass 1 from the wrap hop onward.
        let src = t.node_at(Coord { x: 6, y: 0 });
        let dst = t.node_at(Coord { x: 1, y: 0 });
        let mut here = src;
        let mut classes = Vec::new();
        loop {
            let d = t.xy_route(here, dst);
            if d == Dir::Local {
                break;
            }
            classes.push(t.vc_subclass(here, dst, d).expect("torus hop"));
            here = t.neighbor(here, d).expect("link exists");
        }
        assert_eq!(classes, vec![0, 1, 1]);
        // Mesh-like fabrics never ask for a subclass.
        assert_eq!(mesh48().vc_subclass(NodeId(0), NodeId(3), Dir::East), None);
        assert_eq!(t.vc_subclass(src, dst, Dir::Local), None);
    }

    #[test]
    fn cmesh_shares_routers_between_tiles() {
        let t = Topology::from_config(&TopologyConfig::cmesh(8, 4, 4));
        assert_eq!(t.num_nodes(), 32, "tile grid unchanged");
        assert_eq!(t.num_routers(), 8, "2x2 blocks quarter the routers");
        // Tiles (0,0), (1,0), (0,1), (1,1) share router 0.
        for c in [
            Coord { x: 0, y: 0 },
            Coord { x: 1, y: 0 },
            Coord { x: 0, y: 1 },
            Coord { x: 1, y: 1 },
        ] {
            assert_eq!(t.router_of(t.node_at(c)), NodeId(0));
        }
        assert_eq!(t.router_of(t.node_at(Coord { x: 7, y: 3 })), NodeId(7));
        // Routing to a tile in the same block ejects immediately.
        let dst = t.node_at(Coord { x: 1, y: 1 });
        assert_eq!(t.xy_route(NodeId(0), dst), Dir::Local);
        assert_eq!(t.hop_distance(t.node_at(Coord { x: 0, y: 0 }), dst), 0);
        // c=1 degenerates to the identity mapping.
        let id = Topology::from_config(&TopologyConfig::cmesh(8, 4, 1));
        assert_eq!(id.num_routers(), 32);
        for n in id.nodes() {
            assert_eq!(id.router_of(n), n);
        }
    }

    #[test]
    fn express_channels_skip_routers() {
        let t = Topology::from_config(&TopologyConfig::express(8, 8, 2));
        assert_eq!(t.num_ports(), 9);
        assert_eq!(t.ports().len(), 9);
        let origin = t.node_at(Coord { x: 0, y: 0 });
        assert_eq!(
            t.neighbor(origin, Dir::ExpressEast),
            Some(t.node_at(Coord { x: 2, y: 0 }))
        );
        assert_eq!(t.neighbor(origin, Dir::ExpressWest), None);
        // 5 columns east = 2 express hops + 1 plain hop.
        let dst = t.node_at(Coord { x: 5, y: 0 });
        assert_eq!(t.xy_route(origin, dst), Dir::ExpressEast);
        assert_eq!(t.hop_distance(origin, dst), 3);
        // Within skip distance the plain port is used.
        let near = t.node_at(Coord { x: 1, y: 0 });
        assert_eq!(t.xy_route(origin, near), Dir::East);
        // Non-express fabrics expose no express links.
        assert_eq!(mesh48().neighbor(NodeId(0), Dir::ExpressEast), None);
        assert_eq!(mesh48().num_ports(), 5);
    }

    #[test]
    fn mc_placements_are_distinct_tiles() {
        let t = Topology::new(16, 16);
        for placement in [McPlacement::Corner, McPlacement::Edge, McPlacement::Center] {
            for count in [1, 2, 4] {
                let nodes = t.mc_nodes(placement, count);
                assert_eq!(nodes.len(), count);
                let mut dedup = nodes.clone();
                dedup.sort_unstable();
                dedup.dedup();
                assert_eq!(dedup.len(), count, "{placement:?} produced duplicates");
            }
        }
        // Corner placement is exactly the historical layout.
        assert_eq!(t.mc_nodes(McPlacement::Corner, 4), t.corner_nodes(4));
        // Center block on 16×16 surrounds (8,8).
        let center = t.mc_nodes(McPlacement::Center, 4);
        for n in center {
            let c = t.coord_of(n);
            assert!((7..=8).contains(&c.x) && (7..=8).contains(&c.y));
        }
    }

    #[test]
    fn route_channels_matches_hop_distance_on_every_fabric() {
        let fabrics = [
            Topology::new(8, 4),
            Topology::from_config(&TopologyConfig::torus(8, 8)),
            Topology::from_config(&TopologyConfig::cmesh(8, 8, 4)),
            Topology::from_config(&TopologyConfig::express(8, 8, 2)),
        ];
        for t in fabrics {
            for algo in [RoutingAlgorithm::XY, RoutingAlgorithm::YX] {
                for src in t.nodes() {
                    for dest in t.nodes() {
                        let path = t.route_channels(algo, src, dest);
                        // Ejection channel is always last.
                        assert_eq!(
                            *path.last().unwrap(),
                            (t.router_of(dest), Dir::Local),
                            "{:?} {src:?}->{dest:?}",
                            t.config().kind
                        );
                        assert_eq!(
                            path.len() as u32 - 1,
                            t.hop_distance(src, dest),
                            "{:?} {algo:?} {src:?}->{dest:?}",
                            t.config().kind
                        );
                        // Consecutive channels are link-connected.
                        for w in path.windows(2) {
                            assert_eq!(t.neighbor(w[0].0, w[0].1), Some(w[1].0));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn from_config_builds_every_fabric() {
        use noclat_sim::config::TopologyConfig;
        let m = Topology::from_config(&TopologyConfig::mesh(8, 4));
        assert_eq!(m, Topology::new(8, 4));
        assert_eq!(
            Topology::from_config(&TopologyConfig::torus(8, 4))
                .config()
                .kind,
            TopologyKind::Torus
        );
        assert_eq!(
            Topology::from_config(&TopologyConfig::cmesh(8, 4, 2)).num_routers(),
            16
        );
        let express = TopologyConfig::express(8, 8, 3);
        assert_eq!(Topology::from_config(&express).config(), express);
    }
}
