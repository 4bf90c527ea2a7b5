//! Virtualized Concatenation Queues (paper §7.2).
//!
//! The baseline Concatenator provisions one MTU-sized CQ per possible
//! `(destination, type)` pair — SRAM that scales with cluster size and
//! sits mostly idle at large scale. The paper sketches the fix: a *fixed*
//! pool of small sub-MTU "physical" CQs (e.g. 128 B), assigned on demand
//! and linked into per-destination "virtual" CQs; when a virtual CQ's
//! total occupancy reaches the MTU, its physical CQs are concatenated into
//! one packet and returned to the pool.
//!
//! The pool is a policy on the one concatenation core: a
//! [`ConcatPoint::virtualized`] point keeps the dedicated point's contract
//! (push / expiry / flush, exactly-once PR delivery) and adds only what
//! the hardware adds. Each virtual CQ counts the physical CQs it holds;
//! when a PR needs one more and the pool is empty, the least recently
//! touched other virtual CQ is flushed early to free space; and a PR
//! larger than the whole pool bypasses the queues.
//!
//! [`ConcatPoint::virtualized`]: crate::ConcatPoint::virtualized

/// Configuration of the physical-CQ pool.
///
/// # Example
///
/// ```
/// use netsparse_snic::vconcat::VirtualCqConfig;
/// use netsparse_snic::{ConcatConfig, ConcatPoint, HeaderSpec, Pr, PrKind};
/// use netsparse_desim::SimTime;
///
/// let cfg = ConcatConfig {
///     headers: HeaderSpec::paper(),
///     mtu: 1_500,
///     delay: SimTime::from_ns(200),
///     enabled: true,
/// };
/// let mut c = ConcatPoint::virtualized(cfg, VirtualCqConfig::paper_sketch());
/// let pr = Pr { src_node: 0, src_tid: 0, idx: 9, req_id: 0 };
/// assert!(c.push(SimTime::ZERO, 3, PrKind::Read, pr, 0).is_empty());
/// assert_eq!(c.free_physical(), Some(63));
/// let pkts = c.flush_expired(SimTime::from_ns(200));
/// assert_eq!(pkts[0].prs.len(), 1);
/// assert_eq!(c.free_physical(), Some(64));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualCqConfig {
    /// Number of physical CQs (independent of cluster size).
    pub physical_queues: usize,
    /// Bytes of PR-layer data (headers + payloads) per physical CQ
    /// (paper's example: 128 B).
    pub physical_bytes: u32,
}

impl VirtualCqConfig {
    /// The paper's sketch: sub-MTU 128 B physical CQs. 64 of them hold
    /// ~8 KB — versus 2·(N−1)·MTU ≈ 381 KB of dedicated CQs at N = 128.
    pub fn paper_sketch() -> Self {
        VirtualCqConfig {
            physical_queues: 64,
            physical_bytes: 128,
        }
    }

    /// Total SRAM the pool occupies.
    pub fn sram_bytes(&self) -> u64 {
        self.physical_queues as u64 * self.physical_bytes as u64
    }
}

/// SRAM a dedicated (non-virtualized) concatenation point needs for
/// `nodes` cluster nodes: one MTU-sized CQ per destination and PR type.
pub fn dedicated_sram_bytes(nodes: u32, mtu: u32) -> u64 {
    2 * (nodes.saturating_sub(1)) as u64 * mtu as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConcatConfig, ConcatPoint, HeaderSpec, Pr, PrKind};
    use netsparse_desim::SimTime;

    fn cfg(delay_ns: u64) -> ConcatConfig {
        ConcatConfig {
            headers: HeaderSpec::paper(),
            mtu: 1_500,
            delay: SimTime::from_ns(delay_ns),
            enabled: true,
        }
    }

    fn pr(idx: u32) -> Pr {
        Pr {
            src_node: 0,
            src_tid: 0,
            idx,
            req_id: idx,
        }
    }

    #[test]
    fn sram_accounting_matches_paper_motivation() {
        let pool = VirtualCqConfig::paper_sketch();
        assert_eq!(pool.sram_bytes(), 64 * 128);
        // Dedicated CQs for 128 nodes: 2 * 127 * 1500 = 381 KB.
        assert_eq!(dedicated_sram_bytes(128, 1_500), 381_000);
        assert!(pool.sram_bytes() * 40 < dedicated_sram_bytes(128, 1_500));
    }

    #[test]
    fn exactly_once_delivery_with_pool_pressure() {
        // A tiny pool forces constant eviction; no PR may be lost or
        // duplicated regardless.
        let mut c = ConcatPoint::virtualized(
            cfg(1_000_000),
            VirtualCqConfig {
                physical_queues: 3,
                physical_bytes: 64,
            },
        );
        let mut emitted = Vec::new();
        let mut evictions = 0;
        for i in 0..500u32 {
            let dest = i % 17;
            for p in c.push(SimTime::from_ns(i as u64), dest, PrKind::Read, pr(i), 0) {
                // Nothing here fills an MTU, so a sealed packet for another
                // destination is a CQ evicted under pool pressure.
                evictions += usize::from(p.dest != dest);
                emitted.extend(p.prs);
            }
        }
        emitted.extend(c.flush_all().into_iter().flat_map(|p| p.prs));
        assert_eq!(emitted.len(), 500);
        let mut idxs: Vec<u32> = emitted.iter().map(|p| p.idx).collect();
        idxs.sort_unstable();
        idxs.dedup();
        assert_eq!(idxs.len(), 500);
        assert!(evictions > 0, "pressure must have occurred");
        // After the final drain every physical CQ is back in the pool.
        assert_eq!(c.free_physical(), Some(3));
    }

    #[test]
    fn physical_queues_return_to_pool() {
        let pool = VirtualCqConfig {
            physical_queues: 8,
            physical_bytes: 128,
        };
        let mut c = ConcatPoint::virtualized(cfg(100), pool);
        for i in 0..20 {
            c.push(SimTime::ZERO, 1, PrKind::Read, pr(i), 0);
        }
        assert!(c.free_physical() < Some(8));
        c.flush_all();
        assert_eq!(c.free_physical(), Some(8));
        assert_eq!(c.queued_prs(), 0);
        assert_eq!(ConcatPoint::dedicated(cfg(100)).free_physical(), None);
    }

    #[test]
    fn pr_larger_than_pool_bypasses_the_queues() {
        // Regression: a response PR (82 B) against a 1x32 B pool must not
        // spin in the eviction loop; it bypasses as a singleton packet.
        let mut c = ConcatPoint::virtualized(
            cfg(100),
            VirtualCqConfig {
                physical_queues: 1,
                physical_bytes: 32,
            },
        );
        let out = c.push(SimTime::ZERO, 4, PrKind::Response, pr(1), 64);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].prs.len(), 1);
        assert_eq!(c.queued_prs(), 0);
        assert_eq!(c.free_physical(), Some(1));
        assert_eq!(c.next_expiry(), None);
    }

    #[test]
    #[should_panic(expected = "sub-MTU")]
    fn oversized_physical_rejected() {
        let _ = ConcatPoint::virtualized(
            cfg(10),
            VirtualCqConfig {
                physical_queues: 4,
                physical_bytes: 9_000,
            },
        );
    }
}
