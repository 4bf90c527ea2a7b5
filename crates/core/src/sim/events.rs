//! The typed event vocabulary of the cluster simulation.
//!
//! Every event names the component instance it is delivered to: a node,
//! a switch, or (for fault transitions) the fabric. The driver's
//! `World::dispatch` routes each one with a single exhaustive `match`,
//! so adding an event kind is a compile error until that match names its
//! owner.

use netsparse_netsim::{LinkId, SwitchId};
use netsparse_snic::ConcatPacket;

/// An event delivered to one component of the cluster model.
pub(crate) enum Event {
    /// The host core of `node` issues the next RIG command.
    HostIssue {
        /// Target node.
        node: u32,
    },
    /// Client RIG unit `unit` of `node` scans its next idx chunk.
    ClientProcess {
        /// Target node.
        node: u32,
        /// Client unit within the node's SNIC.
        unit: u16,
    },
    /// The NIC concatenator of `node` has queues past their delay budget.
    NicConcatExpire {
        /// Target node.
        node: u32,
    },
    /// The concatenator of `switch` has queues past their delay budget.
    SwitchConcatExpire {
        /// Target switch.
        switch: u32,
    },
    /// The reduce table of `switch` has partial sums whose aggregation
    /// window has closed.
    ReduceExpire {
        /// Target switch.
        switch: u32,
    },
    /// A packet arrives at `switch`.
    PacketAtSwitch {
        /// Target switch.
        switch: u32,
        /// Whether the packet entered from a directly attached NIC (the
        /// cross-node concatenation trigger) rather than another switch.
        from_nic: bool,
        /// The packet.
        pkt: ConcatPacket,
    },
    /// A packet arrives at the NIC of `node`.
    PacketAtNic {
        /// Target node.
        node: u32,
        /// The packet.
        pkt: ConcatPacket,
    },
    /// §7.1 watchdog: fires once per RIG command issue; acts only if the
    /// same command generation is still running.
    Watchdog {
        /// Target node.
        node: u32,
        /// Client unit within the node's SNIC.
        unit: u16,
        /// Command generation the timer was armed for.
        generation: u64,
    },
    /// A scheduled hardware failure or repair takes effect: the failure
    /// set is updated and every route is recomputed over the survivors.
    FaultTransition {
        /// The resolved failure or repair.
        action: FaultAction,
    },
}

/// A resolved fault-schedule entry (config targets are mapped to concrete
/// netsim ids once, at construction).
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultAction {
    /// A switch dies.
    FailSwitch(SwitchId),
    /// A switch comes back.
    RepairSwitch(SwitchId),
    /// A link dies.
    FailLink(LinkId),
    /// A link comes back.
    RepairLink(LinkId),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every engine slab node holds one `Event`: at 56 B a node is 80 B.
    /// Nesting the variants per owner (`Event::Node(u32, NodeEvent)`, ...)
    /// measured 64 B, which would grow every slab node to 96 B.
    #[test]
    fn event_stays_flat_at_56_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 56);
    }
}
