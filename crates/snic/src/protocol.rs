//! The NetSparse two-layer network protocol (paper Figure 6, Table 5).
//!
//! NetSparse packets ride as RDMA payloads. A packet carries one
//! **Concatenation-layer** header (PR type, destination, property length,
//! PR count) shared by all its PRs, plus one **PR-layer** header (source
//! node, source RIG unit, idx, request id) per PR. Table 5 fixes the header
//! sizes at 50 B (upper layers), 12 B (concatenation layer) and 18 B (PR
//! layer).

/// Whether a PR is a read request, a read response (the paper's two PR
/// types), or a partial-sum contribution for in-network reduction (the
/// scatter-side dual the reduction extension adds). Concatenation queues
/// are segregated by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PrKind {
    /// A request for a remote property.
    Read,
    /// A response carrying a property's data.
    Response,
    /// A partial-sum contribution toward the owner of an output row.
    /// Reuses the PR layer with overloaded fields — see [`Pr::partial`].
    Partial,
}

/// How many PR kinds exist; the concatenation point's per-destination CQ
/// slab is strided by this (slot `dest * PR_KINDS + kind`, see
/// [`ConcatPoint`](crate::ConcatPoint)).
pub const PR_KINDS: usize = 3;

/// One Property Request, as carried in the PR layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pr {
    /// Node that originated the request.
    pub src_node: u32,
    /// RIG unit (thread id) within the source node.
    pub src_tid: u16,
    /// The property index requested (the nonzero's column id).
    pub idx: u32,
    /// Request id, unique within `(src_node, src_tid)`.
    pub req_id: u32,
}

impl Pr {
    /// Builds a [`PrKind::Partial`] contribution PR for output row `idx`.
    /// The PR layer is reused with overloaded fields: `src_tid` carries
    /// the number of original contributions merged into this PR (1 at the
    /// source) and `req_id` carries the wrapping sum of their values, so
    /// switches can merge Partials without a wider header and conservation
    /// oracles can check `sum(inputs) == sum(merged outputs)` exactly.
    pub fn partial(src_node: u32, idx: u32, contribs: u16, value_sum: u32) -> Pr {
        Pr {
            src_node,
            src_tid: contribs,
            idx,
            req_id: value_sum,
        }
    }

    /// Original contributions folded into this Partial PR.
    pub fn partial_contribs(&self) -> u64 {
        self.src_tid as u64
    }

    /// Wrapping sum of the contribution values folded into this PR.
    pub fn partial_value(&self) -> u32 {
        self.req_id
    }
}

/// The deterministic stand-in value of one partial-sum contribution from
/// `src_node` for output row `idx` (a splitmix-style integer mix). The
/// simulator does not model numerics; this value exists so sum
/// conservation is checkable end to end — the wrapping sum of delivered
/// partials must equal the wrapping sum of issued contributions.
pub fn partial_contrib_value(src_node: u32, idx: u32) -> u32 {
    let mut z = ((src_node as u64) << 32 | idx as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u32
}

/// Header sizes of the protocol stack, in bytes.
///
/// # Example
///
/// ```
/// use netsparse_snic::HeaderSpec;
/// let h = HeaderSpec::paper();
/// // One PR per packet (no concatenation), 64 B property:
/// assert_eq!(h.packet_bytes(1, 64), 50 + 12 + 18 + 64);
/// // Ten concatenated PRs share the upper + concat headers:
/// assert_eq!(h.packet_bytes(10, 64), 50 + 12 + 10 * (18 + 64));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeaderSpec {
    /// Upper-layer (Ethernet/IP/RDMA) header bytes per packet.
    pub upper: u32,
    /// Concatenation-layer header bytes per packet.
    pub concat: u32,
    /// PR-layer header bytes per PR.
    pub pr: u32,
}

impl HeaderSpec {
    /// Table 5's values: 50 / 12 / 18 bytes.
    pub const fn paper() -> Self {
        HeaderSpec {
            upper: 50,
            concat: 12,
            pr: 18,
        }
    }

    /// Header bytes per packet, excluding per-PR headers.
    pub const fn per_packet(&self) -> u32 {
        self.upper + self.concat
    }

    /// Total wire bytes of a packet with `n_prs` PRs, each carrying
    /// `payload_per_pr` bytes of property data (0 for reads).
    pub fn packet_bytes(&self, n_prs: u32, payload_per_pr: u32) -> u64 {
        self.per_packet() as u64 + n_prs as u64 * (self.pr + payload_per_pr) as u64
    }

    /// How many PRs of `payload_per_pr` bytes fit within `mtu` bytes.
    /// At least 1 (a single PR may exceed the MTU only if the property
    /// itself does, which the Property Cache's `S_max` tiling rules out).
    pub fn prs_per_mtu(&self, mtu: u32, payload_per_pr: u32) -> u32 {
        let avail = mtu.saturating_sub(self.per_packet());
        (avail / (self.pr + payload_per_pr)).max(1)
    }

    /// The header fraction of total SA traffic for a property of `k`
    /// 4-byte elements, counting both the read and the response packet of
    /// each transfer (paper Table 3).
    pub fn sa_header_fraction(&self, k: u32) -> f64 {
        let per_pkt = (self.per_packet() + self.pr) as f64;
        let header = 2.0 * per_pkt; // read packet + response packet
        let payload = 4.0 * k as f64;
        header / (header + payload)
    }
}

impl Default for HeaderSpec {
    fn default() -> Self {
        HeaderSpec::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_header_sizes() {
        let h = HeaderSpec::paper();
        assert_eq!(h.per_packet(), 62);
        assert_eq!(h.packet_bytes(1, 0), 80); // a lone read PR
    }

    #[test]
    fn concatenation_amortizes_headers() {
        let h = HeaderSpec::paper();
        let separate = 8 * h.packet_bytes(1, 64);
        let merged = h.packet_bytes(8, 64);
        assert!(merged < separate);
        // Savings = 7 shared per-packet headers.
        assert_eq!(separate - merged, 7 * h.per_packet() as u64);
    }

    #[test]
    fn table3_header_fractions() {
        // Paper Table 3: K = 1..256 -> 97.6, 95.2, 90.9, 83.3, 71.4, 55.6,
        // 38.5, 23.8, 13.5 percent.
        let h = HeaderSpec::paper();
        let expected = [
            (1, 97.6),
            (2, 95.2),
            (4, 90.9),
            (8, 83.3),
            (16, 71.4),
            (32, 55.6),
            (64, 38.5),
            (128, 23.8),
            (256, 13.5),
        ];
        for (k, pct) in expected {
            let f = h.sa_header_fraction(k) * 100.0;
            assert!(
                (f - pct).abs() < 0.1,
                "K={k}: computed {f:.1}%, paper {pct}%"
            );
        }
    }

    #[test]
    fn prs_per_mtu_counts() {
        let h = HeaderSpec::paper();
        // 1500 - 62 = 1438; 1438 / (18 + 64) = 17 PRs for K=16.
        assert_eq!(h.prs_per_mtu(1500, 64), 17);
        // Huge payloads still admit one PR.
        assert_eq!(h.prs_per_mtu(1500, 4_000), 1);
    }

    #[test]
    fn partial_pr_round_trips_its_overloaded_fields() {
        let v = partial_contrib_value(3, 41);
        let pr = Pr::partial(3, 41, 1, v);
        assert_eq!(pr.partial_contribs(), 1);
        assert_eq!(pr.partial_value(), v);
        // Merging is a wrapping sum over values and a plain sum of counts.
        let w = partial_contrib_value(4, 41);
        let merged = Pr::partial(3, 41, 2, v.wrapping_add(w));
        assert_eq!(merged.partial_contribs(), 2);
        assert_eq!(merged.partial_value(), v.wrapping_add(w));
    }

    #[test]
    fn contrib_values_are_deterministic_and_spread() {
        assert_eq!(partial_contrib_value(1, 2), partial_contrib_value(1, 2));
        assert_ne!(partial_contrib_value(1, 2), partial_contrib_value(2, 1));
        assert_ne!(partial_contrib_value(0, 0), partial_contrib_value(0, 1));
    }

    #[test]
    fn packet_bytes_monotone_in_prs() {
        let h = HeaderSpec::paper();
        let mut prev = 0;
        for n in 1..20 {
            let b = h.packet_bytes(n, 4);
            assert!(b > prev);
            prev = b;
        }
    }
}
