//! Packets, flits and the so-far-delay ("age") field.
//!
//! A message is split into fixed-length flits (Table 1: 128-bit). Single-flit
//! messages (requests) use [`FlitKind::HeadTail`]; data-carrying messages
//! (64 B responses) are a head flit plus four body flits and a tail.
//!
//! The header carries a 12-bit *age* field holding the message's accumulated
//! so-far delay (Section 3.1, Equation 1). Each router updates the field
//! locally when the flit is sent out, so no global clock is needed.

use crate::topology::NodeId;
use noclat_sim::Cycle;

/// Monotonically increasing packet identifier, unique within one network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

/// Network arbitration priority (Section 3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Default class.
    Normal,
    /// Expedited: wins VC/switch arbitration (subject to the starvation age
    /// guard) and may bypass the router pipeline.
    High,
}

/// Virtual network a message travels on. Requests and responses use disjoint
/// VC sets to break protocol deadlock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VNet {
    /// Core/cache → L2 / memory-controller direction (read requests,
    /// writebacks, threshold updates).
    Request,
    /// L2 / memory-controller → core direction (data responses).
    Response,
}

impl VNet {
    /// Index of this virtual network (0 or 1).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            VNet::Request => 0,
            VNet::Response => 1,
        }
    }
}

/// Position of a flit within its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// First flit of a multi-flit packet; carries the header.
    Head,
    /// Interior flit.
    Body,
    /// Last flit of a multi-flit packet; releases the VC.
    Tail,
    /// Single-flit packet (header and tail in one).
    HeadTail,
}

impl FlitKind {
    /// Whether this flit carries the header (route/VC allocation happens
    /// on it).
    #[must_use]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Whether this flit closes the packet (VC is released after it).
    #[must_use]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// One flit in flight. Small and `Copy`; payloads live in a side table owned
/// by the network, keyed by [`PacketId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// Owning packet.
    pub packet: PacketId,
    /// Position within the packet.
    pub kind: FlitKind,
    /// Final destination node.
    pub dest: NodeId,
    /// Virtual network class.
    pub vnet: VNet,
    /// Arbitration priority.
    pub priority: Priority,
    /// Accumulated so-far delay (cycles), saturating at the configured
    /// age-field maximum. Updated per hop.
    pub age: u32,
    /// Always 0; nothing reads it. It stays only because the benchmark
    /// package builds a `Flit` literal with this field, and that package is
    /// edited on its own schedule.
    pub batch: u32,
    /// Input VC this flit occupies at the router currently holding it (the
    /// upstream router's allocated output VC).
    pub vc: u8,
    /// Cycle this flit entered the router currently holding it.
    pub arrived_at: Cycle,
    /// Earliest cycle this flit may traverse the switch at the router
    /// currently holding it (models pipeline depth / bypassing).
    pub ready_at: Cycle,
}

/// Immutable description of a packet, retained by the network while the
/// packet is in flight and returned on delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketMeta {
    /// Packet id.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Virtual network.
    pub vnet: VNet,
    /// Priority at injection.
    pub priority: Priority,
    /// Total flits in the packet.
    pub num_flits: u8,
    /// Age carried into the network at injection (e.g. delay accumulated
    /// before this leg of the round trip).
    pub initial_age: u32,
    /// Cycle the packet was handed to the network.
    pub injected_at: Cycle,
}

/// A fully received packet: metadata, final header age, delivery time, and
/// the caller-supplied payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered<P> {
    /// Packet description from injection time.
    pub meta: PacketMeta,
    /// Header age after the last hop (so-far delay including this leg).
    pub final_age: u32,
    /// Cycle the tail flit was ejected.
    pub delivered_at: Cycle,
    /// The payload supplied at injection.
    pub payload: P,
}

impl<P> Delivered<P> {
    /// Network latency of this leg: delivery minus injection.
    #[must_use]
    pub fn network_latency(&self) -> Cycle {
        self.delivered_at.saturating_sub(self.meta.injected_at)
    }
}

/// Saturating age accumulation (Equation 1): adds a local delay, scaled by
/// `freq_mult` for heterogeneous clock domains, capping at `max_age`.
#[must_use]
pub fn accumulate_age(age: u32, local_delay: Cycle, freq_mult: u32, max_age: u32) -> u32 {
    let add = (local_delay as u128 * u128::from(freq_mult)).min(u128::from(u32::MAX)) as u32;
    age.saturating_add(add).min(max_age)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_kind_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(FlitKind::HeadTail.is_head());
        assert!(!FlitKind::Body.is_head());
        assert!(FlitKind::Tail.is_tail());
        assert!(FlitKind::HeadTail.is_tail());
        assert!(!FlitKind::Head.is_tail());
    }

    #[test]
    fn age_accumulates_and_saturates() {
        assert_eq!(accumulate_age(10, 5, 1, 4095), 15);
        assert_eq!(accumulate_age(4090, 100, 1, 4095), 4095);
        assert_eq!(accumulate_age(0, 7, 2, 4095), 14);
        assert_eq!(accumulate_age(0, u64::MAX, 3, 4095), 4095);
    }

    #[test]
    fn vnet_indices() {
        assert_eq!(VNet::Request.index(), 0);
        assert_eq!(VNet::Response.index(), 1);
    }

    #[test]
    fn delivered_latency() {
        let meta = PacketMeta {
            id: PacketId(1),
            src: NodeId(0),
            dest: NodeId(3),
            vnet: VNet::Request,
            priority: Priority::Normal,
            num_flits: 1,
            initial_age: 0,
            injected_at: 100,
        };
        let d = Delivered {
            meta,
            final_age: 12,
            delivered_at: 112,
            payload: (),
        };
        assert_eq!(d.network_latency(), 12);
    }

    #[test]
    fn priority_orders_high_above_normal() {
        assert!(Priority::High > Priority::Normal);
    }
}
