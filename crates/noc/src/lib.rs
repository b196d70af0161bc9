//! 2D-mesh wormhole network-on-chip with the prioritization machinery of
//! *Addressing End-to-End Memory Access Latency in NoC-Based Multicores*
//! (MICRO 2012).
//!
//! The network models the paper's Table-1 NoC: 5-stage virtual-channel
//! routers (buffer write, route computation, VC allocation, switch
//! allocation, switch traversal), 128-bit flits, 5-flit VC buffers, 4 VCs
//! per port split into request/response virtual networks, credit-based flow
//! control and X-Y routing. The prioritization hooks of Section 3.3 are
//! built in: high-priority flits win VC and switch arbitration (subject to
//! an age-based starvation guard) and may bypass the router pipeline
//! (Figure 10). Message headers carry the 12-bit so-far-delay ("age") field
//! of Section 3.1, updated hop-by-hop with local clocks only.
//!
//! # Example
//!
//! ```
//! use noclat_noc::{Topology, Network, NodeId, Priority, VNet};
//! use noclat_sim::config::SystemConfig;
//!
//! let cfg = SystemConfig::baseline_32();
//! let mut net: Network<&'static str> = Network::new(Topology::new(8, 4), cfg.noc);
//! net.inject(
//!     NodeId(0),
//!     NodeId(31),
//!     VNet::Request,
//!     Priority::Normal,
//!     1,
//!     0,
//!     "hello",
//!     0,
//! );
//! let mut delivered = Vec::new();
//! for t in 0..200 {
//!     net.tick(t);
//!     delivered.extend(net.take_delivered(NodeId(31)));
//! }
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].payload, "hello");
//! ```

pub mod arbiter;
mod bitset;
pub mod network;
pub mod packet;
pub mod router;
pub mod topology;
pub mod traffic;

pub use arbiter::{Candidate, RoundRobinArbiter};
pub use network::{flits_for_payload, Hop, Network, NetworkStats};
pub use packet::{accumulate_age, Delivered, Flit, FlitKind, PacketId, PacketMeta, Priority, VNet};
pub use router::{Router, RouterCounters};
pub use topology::{Coord, Dir, NodeId, Topology};
pub use traffic::{characterize, LoadPoint, TrafficPattern};
