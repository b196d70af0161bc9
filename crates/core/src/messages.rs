//! Protocol messages carried by the on-chip network.
//!
//! These are the five message legs of the paper's Figure 2 plus dirty
//! writebacks and the Scheme-1 threshold-update messages. Single-flit
//! messages carry no data (requests); data-bearing messages carry a 64 B
//! cache line (header + four 128-bit flits, Table 1). A message's wire
//! format — its virtual network and its length in flits — is a function of
//! the variant alone, so senders never spell either.

use noclat_noc::VNet;

/// A transaction identifier: one per L1-miss that enters the network.
pub type TxnId = u64;

/// Payload of a network packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemMsg {
    /// Path 1: L1 miss request, core tile → L2 bank tile.
    L2Req {
        /// Transaction.
        txn: TxnId,
        /// Line-aligned address.
        line: u64,
    },
    /// Dirty L1 victim, core tile → L2 bank tile (no response).
    L1Writeback {
        /// Line-aligned address of the victim.
        line: u64,
    },
    /// Path 2: L2 miss request, L2 bank tile → memory controller.
    MemReq {
        /// Transaction.
        txn: TxnId,
        /// Line-aligned address.
        line: u64,
    },
    /// Dirty L2 victim, L2 bank tile → memory controller (no response).
    MemWriteback {
        /// Line-aligned address of the victim.
        line: u64,
    },
    /// Path 4: data response, memory controller → L2 bank tile.
    MemResp {
        /// Transaction.
        txn: TxnId,
        /// Line-aligned address.
        line: u64,
    },
    /// Path 5: data response, L2 bank tile → core tile.
    L2Resp {
        /// Transaction (the L1-level primary miss).
        txn: TxnId,
        /// Line-aligned address.
        line: u64,
    },
    /// Scheme-1 control: a core's current lateness threshold, sent
    /// periodically to every memory controller (itself prioritized,
    /// Section 3.1).
    ThresholdUpdate {
        /// Originating core.
        core: usize,
        /// Threshold in cycles (compared against so-far delays).
        threshold: u32,
    },
}

impl MemMsg {
    /// Whether this message carries a cache line of data.
    #[must_use]
    pub fn carries_data(&self) -> bool {
        matches!(
            self,
            MemMsg::L1Writeback { .. }
                | MemMsg::MemWriteback { .. }
                | MemMsg::MemResp { .. }
                | MemMsg::L2Resp { .. }
        )
    }

    /// The virtual network this message travels on: the two data responses
    /// return on the response network, everything headed toward the L2 or
    /// memory rides the request network (the split that keeps a blocked
    /// request from holding up the response it waits for).
    #[must_use]
    pub fn vnet(&self) -> VNet {
        match self {
            MemMsg::MemResp { .. } | MemMsg::L2Resp { .. } => VNet::Response,
            _ => VNet::Request,
        }
    }

    /// Packet length in flits, where a cache line plus its header takes
    /// `data_flits`; everything else fits the single header flit.
    #[must_use]
    pub fn flits(&self, data_flits: u8) -> u8 {
        if self.carries_data() {
            data_flits
        } else {
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_classification() {
        assert!(!MemMsg::L2Req { txn: 1, line: 0 }.carries_data());
        assert!(!MemMsg::MemReq { txn: 1, line: 0 }.carries_data());
        assert!(!MemMsg::ThresholdUpdate {
            core: 0,
            threshold: 100
        }
        .carries_data());
        assert!(MemMsg::L1Writeback { line: 0 }.carries_data());
        assert!(MemMsg::MemWriteback { line: 0 }.carries_data());
        assert!(MemMsg::MemResp { txn: 1, line: 0 }.carries_data());
        assert!(MemMsg::L2Resp { txn: 1, line: 0 }.carries_data());
    }

    #[test]
    fn wire_format_follows_the_variant() {
        let wire = |m: MemMsg| (m.vnet(), m.flits(5));
        assert_eq!(wire(MemMsg::L2Req { txn: 1, line: 0 }), (VNet::Request, 1));
        assert_eq!(wire(MemMsg::MemReq { txn: 1, line: 0 }), (VNet::Request, 1));
        assert_eq!(wire(MemMsg::L1Writeback { line: 0 }), (VNet::Request, 5));
        assert_eq!(wire(MemMsg::MemWriteback { line: 0 }), (VNet::Request, 5));
        assert_eq!(
            wire(MemMsg::MemResp { txn: 1, line: 0 }),
            (VNet::Response, 5)
        );
        assert_eq!(
            wire(MemMsg::L2Resp { txn: 1, line: 0 }),
            (VNet::Response, 5)
        );
        let update = MemMsg::ThresholdUpdate {
            core: 0,
            threshold: 100,
        };
        assert_eq!(wire(update), (VNet::Request, 1));
    }
}
