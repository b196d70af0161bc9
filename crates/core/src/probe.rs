//! Lightweight per-layer observation hooks.
//!
//! A [`Probe`] sees the three events the policy layer decides on: a flit
//! leaving a router output port, a memory controller dequeuing a completed
//! DRAM access, and a core retiring a miss. Probes are strictly
//! observers — they cannot change priorities or timing — which makes them
//! safe to attach to a golden-verified configuration.
//!
//! [`Retire`] is also the system's own record of a finished access: the
//! latency tracker, the slowest-transaction log and the response policy's
//! round-trip feedback read the same value the probes are handed.
//!
//! When no probe is attached the system ticks the network through the
//! plain monomorphized path (`Network::tick`): zero cost unless used.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use noclat_noc::{Hop, Priority};
use noclat_sim::Cycle;

use crate::metrics::TxnTimes;

/// A memory controller handing a completed DRAM access back to the network.
#[derive(Debug, Clone, Copy)]
pub struct McDequeue {
    /// Controller index.
    pub mc: usize,
    /// Core that owns the access.
    pub core: usize,
    /// Accumulated so-far delay (age) at injection of the response.
    pub so_far_delay: u32,
    /// Cycles the access spent inside the controller (queue + service).
    pub queued_for: Cycle,
    /// Priority the response policy assigned to the reply.
    pub priority: Priority,
    /// Current cycle.
    pub cycle: Cycle,
}

/// A core completing a memory access that missed in its L1.
#[derive(Debug, Clone, Copy)]
pub struct Retire {
    /// Core that issued the access.
    pub core: usize,
    /// Cache-line address.
    pub line: u64,
    /// Whether the access went off-chip (false: satisfied by the L2).
    pub offchip: bool,
    /// Whether it merged into an already-outstanding transaction.
    pub merged: bool,
    /// End-to-end latency from issue to fill, in cycles.
    pub total_latency: Cycle,
    /// Current cycle.
    pub cycle: Cycle,
    /// Arrival stamps of the five legs of Figure 2. All six are meaningful
    /// for an off-chip, non-merged access; a leg the access never travelled
    /// (L2 hit, or merged into another miss at the L2) keeps the `issued`
    /// stamp.
    pub times: TxnTimes,
    /// Whether the data came back at high priority (a late response
    /// expedited by the response policy).
    pub expedited: bool,
    /// The so-far delay the core reads from the returning message's age
    /// field, saturated at the field's width — the round-trip sample
    /// Scheme-1 averages into `Delay_avg`.
    pub age: u32,
}

/// Observer interface over the prioritization decision points. All methods
/// default to no-ops, so a probe implements only what it needs.
pub trait Probe: Send {
    /// A flit crossed a router: it was granted an output port this cycle.
    fn on_hop(&mut self, hop: &Hop) {
        let _ = hop;
    }

    /// A memory controller dequeued a completed access and is injecting
    /// the response.
    fn on_mc_dequeue(&mut self, ev: &McDequeue) {
        let _ = ev;
    }

    /// A core retired a memory transaction.
    fn on_retire(&mut self, ev: &Retire) {
        let _ = ev;
    }
}

/// Shared counters exported by a [`CountingProbe`], readable from outside
/// the running system.
#[derive(Debug, Default)]
pub struct ProbeCounters {
    /// Router output-port grants observed.
    pub hops: AtomicU64,
    /// Of those, flits travelling at high priority.
    pub high_priority_hops: AtomicU64,
    /// Controller dequeues observed.
    pub mc_dequeues: AtomicU64,
    /// Of those, responses injected at high priority (the "late" ones).
    pub expedited_responses: AtomicU64,
    /// Retired transactions observed.
    pub retirements: AtomicU64,
    /// Of those, accesses that went off-chip.
    pub offchip_retirements: AtomicU64,
}

impl ProbeCounters {
    /// Snapshot of all counters as plain numbers, in declaration order.
    #[must_use]
    pub fn snapshot(&self) -> [u64; 6] {
        [
            self.hops.load(Ordering::Relaxed),
            self.high_priority_hops.load(Ordering::Relaxed),
            self.mc_dequeues.load(Ordering::Relaxed),
            self.expedited_responses.load(Ordering::Relaxed),
            self.retirements.load(Ordering::Relaxed),
            self.offchip_retirements.load(Ordering::Relaxed),
        ]
    }
}

/// The reference probe: counts each event class into [`ProbeCounters`]
/// shared via `Arc`, so callers keep a handle after moving the probe into
/// the system.
#[derive(Debug, Clone, Default)]
pub struct CountingProbe {
    counters: Arc<ProbeCounters>,
}

impl CountingProbe {
    /// Creates a probe and returns it with a handle to its counters.
    #[must_use]
    pub fn new() -> (Self, Arc<ProbeCounters>) {
        let probe = CountingProbe::default();
        let counters = Arc::clone(&probe.counters);
        (probe, counters)
    }
}

impl Probe for CountingProbe {
    fn on_hop(&mut self, hop: &Hop) {
        self.counters.hops.fetch_add(1, Ordering::Relaxed);
        if hop.priority == Priority::High {
            self.counters
                .high_priority_hops
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    fn on_mc_dequeue(&mut self, ev: &McDequeue) {
        self.counters.mc_dequeues.fetch_add(1, Ordering::Relaxed);
        if ev.priority == Priority::High {
            self.counters
                .expedited_responses
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    fn on_retire(&mut self, ev: &Retire) {
        self.counters.retirements.fetch_add(1, Ordering::Relaxed);
        if ev.offchip {
            self.counters
                .offchip_retirements
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noclat_noc::{Dir, NodeId, VNet};

    #[test]
    fn counting_probe_tallies_each_event_class() {
        let (mut probe, counters) = CountingProbe::new();
        let hop = Hop {
            node: NodeId(3),
            out_port: Dir::East,
            priority: Priority::High,
            vnet: VNet::Request,
            age: 12,
            cycle: 100,
        };
        probe.on_hop(&hop);
        probe.on_hop(&Hop {
            priority: Priority::Normal,
            ..hop
        });
        probe.on_mc_dequeue(&McDequeue {
            mc: 0,
            core: 5,
            so_far_delay: 200,
            queued_for: 40,
            priority: Priority::High,
            cycle: 150,
        });
        probe.on_retire(&Retire {
            core: 5,
            line: 0x40,
            offchip: true,
            merged: false,
            total_latency: 310,
            cycle: 200,
            times: TxnTimes::default(),
            expedited: true,
            age: 310,
        });
        probe.on_retire(&Retire {
            core: 6,
            line: 0x80,
            offchip: false,
            merged: false,
            total_latency: 25,
            cycle: 201,
            times: TxnTimes::default(),
            expedited: false,
            age: 25,
        });
        assert_eq!(counters.snapshot(), [2, 1, 1, 1, 2, 1]);
    }

    #[test]
    fn default_probe_methods_are_noops() {
        struct Silent;
        impl Probe for Silent {}
        let mut s = Silent;
        s.on_hop(&Hop {
            node: NodeId(0),
            out_port: Dir::Local,
            priority: Priority::Normal,
            vnet: VNet::Response,
            age: 0,
            cycle: 0,
        });
        s.on_mc_dequeue(&McDequeue {
            mc: 0,
            core: 0,
            so_far_delay: 0,
            queued_for: 0,
            priority: Priority::Normal,
            cycle: 0,
        });
        s.on_retire(&Retire {
            core: 0,
            line: 0,
            offchip: false,
            merged: false,
            total_latency: 0,
            cycle: 0,
            times: TxnTimes::default(),
            expedited: false,
            age: 0,
        });
    }
}
