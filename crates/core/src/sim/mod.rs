//! The event-driven NetSparse cluster simulation.
//!
//! One call to [`simulate`] runs a full distributed sparse kernel's
//! communication phase (the paper's Figure 3 lifetime) over a cluster:
//!
//! 1. each node's host core issues RIG commands (batches of nonzeros) to
//!    the free client RIG units of its SNIC, paying a per-command software
//!    cost plus the PCIe DMA of the idx batch;
//! 2. client units scan idxs at one per SNIC cycle, dropping local /
//!    filtered / coalesced ones and pushing read PRs into the NIC's
//!    concatenator; units stall when their Pending PR Table fills;
//! 3. packets traverse the network hop by hop over bandwidth/latency
//!    links; NetSparse edge switches deconcatenate, probe/fill the
//!    Property Cache for inter-rack properties, and reconcatenate
//!    (cross-node concatenation);
//! 4. server RIG units at home nodes fetch properties over PCIe and emit
//!    response PRs; responses retrace the network, update caches, clear
//!    pending entries, set Idx Filter bits, and DMA properties to host
//!    memory;
//! 5. a RIG command completes when its stream is scanned and all its
//!    responses have arrived; the node finishes when all commands do.
//!
//! Event granularity is chosen for scale: per-idx work happens in tight
//! loops inside chunk events (one event per ~1024 idxs), and events exist
//! only for packets, concatenation expiries and command boundaries — so
//! event count is proportional to packets, not cycles.
//!
//! # Architecture
//!
//! The simulation is layered as components behind ports (see
//! `docs/ARCHITECTURE.md` for the full contract):
//!
//! - [`events`](self) — the typed event vocabulary and the event → port
//!   routing map;
//! - `node` — the host + SNIC command lifecycle (issue, scan, serve,
//!   respond, watchdog recovery), one component per rank;
//! - `rack` — one component per switch: the middle pipes at ToRs
//!   (Property-Cache probe/fill, in-network reduction and cross-node
//!   concatenation, in that fixed order), verbatim forwarding at spines;
//! - `fabric` — the shared transport substrate: links, routing tables,
//!   failover reconvergence;
//! - `driver` — the component wiring and the single generic event loop
//!   behind [`simulate`] (and `simulate_traced` under the `trace`
//!   feature), with auditing and tracing injected as feature-gated hooks.

mod driver;
mod error;
mod events;
mod fabric;
mod node;
mod rack;

pub use driver::{simulate, try_simulate};
#[cfg(feature = "trace")]
pub use driver::{simulate_traced, try_simulate_traced};
pub use error::SimError;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ClusterConfig, Mechanisms};
    use crate::metrics::SimReport;
    use netsparse_desim::SimTime;
    use netsparse_netsim::Topology;
    use netsparse_sparse::{CommWorkload, Partition1D};

    fn small_topo() -> Topology {
        Topology::LeafSpine {
            racks: 2,
            rack_size: 4,
            spines: 2,
        }
    }

    /// 8 nodes; node 0 references properties of nodes 1 (same rack) and
    /// 4 (other rack), with repeats.
    fn tiny_workload() -> CommWorkload {
        let part = Partition1D::even(8 * 16, 8);
        let mut streams: Vec<Vec<u32>> = vec![vec![]; 8];
        streams[0] = vec![16, 17, 16, 64, 65, 64, 0, 1, 16];
        streams[2] = vec![64, 65, 66]; // same rack as 0, shares node 4's idxs
        CommWorkload::from_streams(part, vec![16; 8], streams)
    }

    fn cfg(k: u32) -> ClusterConfig {
        ClusterConfig::mini(small_topo(), k)
    }

    #[test]
    fn tiny_run_is_functionally_correct() {
        let wl = tiny_workload();
        let r = simulate(&cfg(16), &wl);
        assert!(r.functional_check_passed);
        // Node 0 needed {16, 17, 64, 65}: responses = 4 with filtering.
        assert_eq!(r.nodes[0].responses, 4);
        assert_eq!(r.nodes[0].issued, 4);
        assert_eq!(r.nodes[0].local, 2);
        assert_eq!(r.nodes[0].filtered + r.nodes[0].coalesced, 3);
        // Node 2 needed {64, 65, 66}.
        assert_eq!(r.nodes[2].responses, 3);
        // Idle nodes finish instantly.
        assert_eq!(r.nodes[7].finish, SimTime::ZERO);
        assert!(r.comm_time > SimTime::ZERO);
    }

    #[test]
    fn disabling_filter_and_coalesce_issues_every_remote_ref() {
        let wl = tiny_workload();
        let mut c = cfg(16);
        c.mechanisms = Mechanisms {
            filter: false,
            coalesce: false,
            ..Mechanisms::all()
        };
        let r = simulate(&c, &wl);
        assert!(r.functional_check_passed);
        // All 7 remote refs of node 0 become PRs.
        assert_eq!(r.nodes[0].issued, 7);
        assert_eq!(r.nodes[0].responses, 7);
        assert_eq!(r.nodes[0].duplicate_responses, 3);
    }

    #[test]
    fn rig_only_matches_full_on_traffic_ordering() {
        let wl = tiny_workload();
        let mut c = cfg(16);
        c.mechanisms = Mechanisms::rig_only();
        let rig = simulate(&c, &wl);
        let full = simulate(&cfg(16), &wl);
        assert!(rig.functional_check_passed && full.functional_check_passed);
        // The full design never moves more bytes than RIG-only.
        assert!(full.total_link_bytes <= rig.total_link_bytes);
    }

    #[test]
    fn property_cache_serves_rack_sharing() {
        // Node 0 and node 2 (same rack) both need node 4's properties.
        // Whichever asks second should hit the ToR cache.
        let wl = tiny_workload();
        let r = simulate(&cfg(16), &wl);
        assert!(r.cache_lookups > 0);
        // Cache hits are possible but timing-dependent; inserts must have
        // happened for the inter-rack responses.
        assert!(r.functional_check_passed);
    }

    #[test]
    fn simulation_is_deterministic() {
        let wl = tiny_workload();
        let a = simulate(&cfg(16), &wl);
        let b = simulate(&cfg(16), &wl);
        assert_eq!(a.comm_time, b.comm_time);
        assert_eq!(a.total_link_bytes, b.total_link_bytes);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn larger_k_means_more_bytes() {
        let wl = tiny_workload();
        let r16 = simulate(&cfg(16), &wl);
        let r128 = simulate(&cfg(128), &wl);
        assert!(r128.total_link_bytes > r16.total_link_bytes);
    }

    #[test]
    fn adaptive_throttle_reduces_duplicates_for_reuse_heavy_workloads() {
        // A small batch size over a reuse-heavy (arabic-like) workload
        // maximizes concurrent-command overlap; the adaptive controller
        // should cut duplicate responses without breaking delivery.
        let wl = netsparse_sparse::suite::SuiteConfig {
            matrix: netsparse_sparse::SuiteMatrix::Arabic,
            nodes: 8,
            rack_size: 4,
            scale: 0.2,
            seed: 9,
        }
        .generate();
        let topo = Topology::LeafSpine {
            racks: 2,
            rack_size: 4,
            spines: 2,
        };
        let mut fixed = ClusterConfig::mini(topo, 16);
        fixed.batch_size = 256;
        let mut adaptive = fixed.clone();
        adaptive.adaptive_batch = true;
        let r_fixed = simulate(&fixed, &wl);
        let r_adapt = simulate(&adaptive, &wl);
        assert!(r_fixed.functional_check_passed && r_adapt.functional_check_passed);
        let dups = |r: &SimReport| -> u64 { r.nodes.iter().map(|n| n.duplicate_responses).sum() };
        assert!(
            dups(&r_adapt) <= dups(&r_fixed),
            "adaptive {} vs fixed {} duplicates",
            dups(&r_adapt),
            dups(&r_fixed)
        );
    }

    #[test]
    #[should_panic(expected = "node count")]
    fn mismatched_workload_panics() {
        let part = Partition1D::even(64, 4);
        let wl = CommWorkload::from_streams(part, vec![16; 4], vec![vec![]; 4]);
        simulate(&cfg(16), &wl);
    }
}
