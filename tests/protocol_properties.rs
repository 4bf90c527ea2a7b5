//! Property-based tests over the substrate components: protocol
//! accounting, concatenation, filtering, caching, partitioning and routing
//! must hold their invariants for randomized inputs.
//!
//! Inputs are drawn from a seeded [`SplitMix64`] (the workspace's only
//! sanctioned randomness source) rather than proptest, so every run of this
//! suite exercises exactly the same cases — failures reproduce by name, no
//! shrinking or persistence files needed.

use netsparse_desim::{SimTime, SplitMix64};
use netsparse_netsim::{Network, Topology};
use netsparse_snic::vconcat::VirtualCqConfig;
use netsparse_snic::{ConcatConfig, ConcatPacket, ConcatPoint, HeaderSpec, IdxFilter, Pr, PrKind};
use netsparse_sparse::Partition1D;
use netsparse_switch::{PropertyCache, PropertyCacheConfig};

/// Runs `body` for `cases` randomized cases, seeding each case's generator
/// from `seed` and the case index so cases are independent and any single
/// one can be replayed in isolation.
fn for_cases(seed: u64, cases: u64, mut body: impl FnMut(&mut SplitMix64)) {
    for case in 0..cases {
        let mut rng = SplitMix64::new(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        body(&mut rng);
    }
}

#[test]
fn packet_bytes_are_consistent() {
    for_cases(0x01, 256, |rng| {
        let n_prs = rng.range_u32(1, 200);
        let payload = rng.range_u32(0, 2_048);
        let h = HeaderSpec::paper();
        let merged = h.packet_bytes(n_prs, payload);
        let separate: u64 = (0..n_prs).map(|_| h.packet_bytes(1, payload)).sum();
        // Concatenation can only save header bytes, exactly (n-1) shared
        // per-packet headers' worth.
        assert_eq!(
            separate - merged,
            (n_prs as u64 - 1) * h.per_packet() as u64
        );
        // A packet always carries its payloads.
        assert!(merged >= n_prs as u64 * payload as u64);
    });
}

#[test]
fn prs_per_mtu_fits() {
    for_cases(0x02, 256, |rng| {
        let mtu = rng.range_u32(100, 9_000);
        let payload = rng.range_u32(0, 1_024);
        let h = HeaderSpec::paper();
        let n = h.prs_per_mtu(mtu, payload);
        assert!(n >= 1);
        if n > 1 {
            // n PRs fit; n+1 would not.
            assert!(h.packet_bytes(n, payload) <= mtu as u64);
            assert!(h.packet_bytes(n + 1, payload) > mtu as u64);
        }
    });
}

#[test]
fn concatenator_never_loses_or_duplicates_prs() {
    for_cases(0x03, 128, |rng| {
        let n_pushes = rng.range_u32(1, 300) as usize;
        let delay_ns = rng.range_u64(1, 2_000);
        let cfg = ConcatConfig {
            headers: HeaderSpec::paper(),
            mtu: 1_500,
            delay: SimTime::from_ns(delay_ns),
            enabled: true,
        };
        let mut c = ConcatPoint::dedicated(cfg);
        let mut emitted: Vec<Pr> = Vec::new();
        let mut pushed = 0u32;
        for i in 0..n_pushes {
            let dest = rng.range_u32(0, 8);
            let kind = if rng.next_bool() {
                PrKind::Read
            } else {
                PrKind::Response
            };
            let t = rng.range_u64(0, 2_000);
            let payload = if kind == PrKind::Read { 0 } else { 64 };
            let pr = Pr {
                src_node: 99,
                src_tid: 0,
                idx: i as u32,
                req_id: i as u32,
            };
            pushed += 1;
            for p in c.push(SimTime::from_ns(t), dest, kind, pr, payload) {
                assert!(p.wire_bytes <= 1_500);
                emitted.extend(p.prs);
            }
            c.flush_expired_with(SimTime::from_ns(t), |p| {
                emitted.extend(p.prs);
            });
        }
        for p in c.flush_all() {
            emitted.extend(p.prs);
        }
        // Exactly-once delivery: every pushed PR emitted exactly once.
        assert_eq!(emitted.len() as u32, pushed);
        let mut ids: Vec<u32> = emitted.iter().map(|p| p.idx).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u32, pushed);
    });
}

#[test]
fn concatenated_packets_are_homogeneous() {
    for_cases(0x04, 128, |rng| {
        let n_pushes = rng.range_u32(1, 200) as usize;
        let cfg = ConcatConfig {
            headers: HeaderSpec::paper(),
            mtu: 1_500,
            delay: SimTime::from_ns(100),
            enabled: true,
        };
        let mut c = ConcatPoint::dedicated(cfg);
        let check = |p: ConcatPacket| {
            // All PRs in one packet share destination and kind by
            // construction; wire bytes must match the formula.
            let expect = HeaderSpec::paper().packet_bytes(p.prs.len() as u32, p.payload_per_pr);
            assert_eq!(p.wire_bytes, expect);
        };
        for i in 0..n_pushes {
            let dest = rng.range_u32(0, 4);
            let kind = if rng.next_bool() {
                PrKind::Read
            } else {
                PrKind::Response
            };
            let payload = if kind == PrKind::Read { 0 } else { 512 };
            let pr = Pr {
                src_node: 1,
                src_tid: 2,
                idx: i as u32,
                req_id: i as u32,
            };
            for p in c.push(SimTime::ZERO, dest, kind, pr, payload) {
                check(p);
            }
        }
        for p in c.flush_all() {
            check(p);
        }
    });
}

#[test]
fn idx_filter_matches_reference_set() {
    for_cases(0x05, 128, |rng| {
        let n_ops = rng.range_u32(1, 500);
        let mut filter = IdxFilter::new(10_000);
        let mut reference = std::collections::BTreeSet::new();
        for _ in 0..n_ops {
            let insert = rng.next_bool();
            let idx = rng.range_u32(0, 10_000);
            if insert {
                assert_eq!(filter.insert(idx), reference.insert(idx));
            } else {
                assert_eq!(filter.contains(idx), reference.contains(&idx));
            }
        }
        assert_eq!(filter.len(), reference.len() as u64);
    });
}

#[test]
fn property_cache_hits_only_after_insert() {
    for_cases(0x06, 64, |rng| {
        let inserts: Vec<u32> = (0..rng.range_u32(1, 200))
            .map(|_| rng.range_u32(0, 50_000))
            .collect();
        let probes: Vec<u32> = (0..rng.range_u32(1, 200))
            .map(|_| rng.range_u32(0, 50_000))
            .collect();
        let cfg = PropertyCacheConfig {
            capacity_bytes: 1 << 20,
            ..PropertyCacheConfig::paper()
        };
        let mut cache = PropertyCache::new(cfg, 64);
        let inserted: std::collections::BTreeSet<u32> = inserts.iter().copied().collect();
        for &i in &inserts {
            cache.insert(i);
        }
        for &p in &probes {
            if cache.lookup(p) {
                // A hit must be a previously inserted idx (never invented).
                assert!(inserted.contains(&p));
            }
        }
    });
}

#[test]
fn lru_cache_never_exceeds_capacity() {
    for_cases(0x07, 64, |rng| {
        let inserts: Vec<u32> = (0..rng.range_u32(1, 2_000))
            .map(|_| rng.range_u32(0, 100_000))
            .collect();
        let cfg = PropertyCacheConfig {
            capacity_bytes: 16 * 512, // one set of 16 ways at 512 B lines
            ..PropertyCacheConfig::paper()
        };
        let mut cache = PropertyCache::new(cfg, 512);
        for &i in &inserts {
            cache.insert(i);
        }
        let stats = cache.stats();
        assert!(stats.insertions <= inserts.len() as u64);
        // Residents = insertions - evictions <= entries.
        assert!(stats.insertions - stats.evictions <= cache.entries() as u64);
    });
}

#[test]
fn partition_owner_is_a_total_function() {
    for_cases(0x08, 256, |rng| {
        let n = rng.range_u32(1, 100_000);
        let parts = rng.range_u32(1, 256);
        let p = Partition1D::even(n, parts);
        let mut counted = 0u32;
        for part in 0..p.parts() {
            counted += p.part_len(part);
        }
        assert_eq!(counted, n);
        // Spot-check ownership at every boundary.
        for part in 0..p.parts() {
            let r = p.range(part);
            if r.start < r.end {
                assert_eq!(p.owner(r.start), part);
                assert_eq!(p.owner(r.end - 1), part);
            }
        }
    });
}

#[test]
fn routing_reaches_every_destination() {
    for_cases(0x09, 24, |rng| {
        let racks = rng.range_u32(2, 6);
        let rack_size = rng.range_u32(2, 6);
        let spines = rng.range_u32(1, 5);
        let topo = Topology::LeafSpine {
            racks,
            rack_size,
            spines,
        };
        let net = Network::new(topo);
        for src in 0..net.nodes() {
            for dst in 0..net.nodes() {
                if src == dst {
                    continue;
                }
                let path = net.path(src, dst);
                assert!(!path.hops.is_empty());
                assert_eq!(
                    path.hops.last().unwrap().to,
                    netsparse_netsim::Element::Nic(dst)
                );
                // Intra-rack stays under one switch; inter-rack uses three.
                let sw = path.switches().count();
                if topo.edge_switch_of(src) == topo.edge_switch_of(dst) {
                    assert_eq!(sw, 1);
                } else {
                    assert_eq!(sw, 3);
                }
            }
        }
    });
}

use netsparse_sparse::suite::{SuiteConfig, SuiteMatrix};

#[test]
fn suite_generator_invariants() {
    for_cases(0x0A, 16, |rng| {
        let matrix_id = rng.range_u32(0, 5) as usize;
        let nodes = rng.range_u32(2, 40);
        let rack_size = rng.range_u32(1, 8);
        let seed = rng.next_u64();
        let cfg = SuiteConfig {
            matrix: SuiteMatrix::ALL[matrix_id],
            nodes,
            rack_size,
            scale: 0.01,
            seed,
        };
        let wl = cfg.generate();
        assert_eq!(wl.nodes(), nodes);
        // Column space covered exactly by the partition.
        let total: u32 = (0..nodes).map(|p| wl.partition().part_len(p)).sum();
        assert_eq!(total, wl.n_cols());
        // Every stream index is in range (checked again by the
        // constructor, but the property documents it).
        for p in 0..nodes {
            for &idx in wl.stream(p) {
                assert!(idx < wl.n_cols());
            }
        }
        // Statistics are internally consistent.
        let stats = wl.pattern_stats();
        assert!(stats.total_unique_remote() <= stats.total_remote_refs());
        assert!(stats.total_remote_refs() <= stats.total_nnz());
        // Determinism.
        let again = cfg.generate();
        assert_eq!(wl.stream(0), again.stream(0));
    });
}

#[test]
fn virtual_concatenator_exactly_once() {
    for_cases(0x0B, 64, |rng| {
        let n_pushes = rng.range_u32(1, 250) as usize;
        let physical_queues = rng.range_u32(1, 12) as usize;
        let physical_bytes = rng.range_u32(32, 512);
        let cfg = ConcatConfig {
            headers: HeaderSpec::paper(),
            mtu: 1_500,
            delay: SimTime::from_ns(100),
            enabled: true,
        };
        let mut c = ConcatPoint::virtualized(
            cfg,
            VirtualCqConfig {
                physical_queues,
                physical_bytes,
            },
        );
        let mut emitted = 0usize;
        for i in 0..n_pushes {
            let dest = rng.range_u32(0, 6);
            let kind = if rng.next_bool() {
                PrKind::Read
            } else {
                PrKind::Response
            };
            let payload = if kind == PrKind::Read { 0 } else { 64 };
            let pr = Pr {
                src_node: 0,
                src_tid: 0,
                idx: i as u32,
                req_id: i as u32,
            };
            for p in c.push(SimTime::from_ns(i as u64), dest, kind, pr, payload) {
                assert!(p.wire_bytes <= 1_500);
                emitted += p.prs.len();
            }
        }
        for p in c.flush_all() {
            emitted += p.prs.len();
        }
        assert_eq!(emitted, n_pushes);
        assert_eq!(c.free_physical(), Some(physical_queues));
    });
}

#[test]
fn reservoir_quantiles_are_ordered() {
    for_cases(0x0C, 128, |rng| {
        let values: Vec<u64> = (0..rng.range_u32(1, 400))
            .map(|_| rng.range_u64(0, 1_000_000))
            .collect();
        let capacity = rng.range_u32(1, 64) as usize;
        let mut r = netsparse_desim::Reservoir::new(capacity, 3);
        for &v in &values {
            r.record(v);
        }
        let q25 = r.quantile(0.25).unwrap();
        let q50 = r.quantile(0.5).unwrap();
        let q99 = r.quantile(0.99).unwrap();
        assert!(q25 <= q50 && q50 <= q99);
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();
        assert!(q50 >= lo && q50 <= hi);
    });
}

#[test]
fn filter_never_passes_a_duplicate_idx_within_a_window() {
    // Within one filter window (no clears), a given idx results in at
    // most one issued PR, no matter how requests and responses interleave:
    // outstanding duplicates coalesce, completed duplicates filter.
    use netsparse_snic::{IdxOutcome, RigClient};
    for_cases(0x20, 128, |rng| {
        let n_cols = 256u32;
        let mut unit = RigClient::new(0, 0, 48);
        let mut filter = IdxFilter::new(n_cols);
        let mut issued = vec![false; n_cols as usize];
        let mut outstanding: Vec<u32> = Vec::new();
        for _ in 0..rng.range_u32(50, 400) {
            let idx = rng.range_u32(0, n_cols);
            match unit.process_idx(idx, false, true, true, &mut filter) {
                IdxOutcome::Issued(pr) => {
                    assert_eq!(pr.idx, idx);
                    assert!(
                        !issued[idx as usize],
                        "idx {idx} issued twice within one filter window"
                    );
                    issued[idx as usize] = true;
                    outstanding.push(idx);
                }
                IdxOutcome::Stalled => {
                    let done = outstanding.swap_remove(0);
                    unit.complete(done, &mut filter);
                }
                IdxOutcome::Coalesced | IdxOutcome::Filtered => {}
                IdxOutcome::Local => unreachable!("no idx is marked local"),
            }
            // Complete a random outstanding PR about half the time, so the
            // stream sees idxs in all three states.
            if !outstanding.is_empty() && rng.next_bool() {
                let i = rng.range_u32(0, outstanding.len() as u32) as usize;
                let done = outstanding.swap_remove(i);
                unit.complete(done, &mut filter);
            }
        }
    });
}

#[test]
fn coalescing_preserves_the_exact_requested_index_set() {
    // Redundancy elimination drops *transfers*, never *data*: the set of
    // idxs issued to the network equals the set of distinct remote idxs
    // requested — nothing lost, nothing extra.
    use netsparse_snic::{IdxOutcome, RigClient};
    for_cases(0x21, 128, |rng| {
        let n_cols = 256u32;
        let mut unit = RigClient::new(1, 0, 16);
        let mut filter = IdxFilter::new(n_cols);
        let mut requested = vec![false; n_cols as usize];
        let mut issued = vec![false; n_cols as usize];
        let mut outstanding: Vec<u32> = Vec::new();
        let idxs: Vec<u32> = (0..rng.range_u32(20, 300))
            .map(|_| rng.range_u32(0, n_cols))
            .collect();
        for &idx in &idxs {
            loop {
                match unit.process_idx(idx, false, true, true, &mut filter) {
                    IdxOutcome::Stalled => {
                        // Drain one response and retry the same idx, as
                        // the event loop does on wake-up.
                        let done = outstanding.swap_remove(0);
                        unit.complete(done, &mut filter);
                    }
                    IdxOutcome::Issued(pr) => {
                        assert!(!issued[pr.idx as usize], "duplicate PR for {idx}");
                        issued[pr.idx as usize] = true;
                        outstanding.push(pr.idx);
                        requested[idx as usize] = true;
                        break;
                    }
                    IdxOutcome::Coalesced | IdxOutcome::Filtered => {
                        requested[idx as usize] = true;
                        break;
                    }
                    IdxOutcome::Local => unreachable!("no idx is marked local"),
                }
            }
        }
        assert_eq!(
            requested, issued,
            "issued set differs from the requested set"
        );
    });
}

#[test]
fn concat_flush_sizes_never_exceed_the_mtu() {
    // Every packet either fits the MTU or is a single PR that alone
    // exceeds it (jumbo payloads have no smaller representation). Holds
    // for the dedicated and the virtualized concatenator alike, on every
    // flush path: MTU-full, timer expiry, pressure eviction and drain.
    for_cases(0x22, 96, |rng| {
        let mtu = rng.range_u32(200, 9_000);
        let h = HeaderSpec::paper();
        let cfg = ConcatConfig {
            headers: h,
            mtu,
            delay: SimTime::from_ns(rng.range_u64(1, 800)),
            enabled: true,
        };
        let payload_of = |kind: PrKind| if kind == PrKind::Read { 0 } else { 64 };
        let bound = |kind: PrKind| (mtu as u64).max(h.packet_bytes(1, payload_of(kind)));
        let mut c = ConcatPoint::dedicated(cfg);
        let mut v = ConcatPoint::virtualized(
            cfg,
            VirtualCqConfig {
                physical_queues: 8,
                physical_bytes: rng.range_u32(64, 1_024).min(mtu),
            },
        );
        for i in 0..rng.range_u32(1, 300) {
            let dest = rng.range_u32(0, 6);
            let kind = if rng.next_bool() {
                PrKind::Read
            } else {
                PrKind::Response
            };
            let t = SimTime::from_ns(rng.range_u64(0, 3_000));
            let pr = Pr {
                src_node: 0,
                src_tid: 0,
                idx: i,
                req_id: i,
            };
            for p in c.push(t, dest, kind, pr, payload_of(kind)) {
                assert!(p.wire_bytes <= bound(p.kind), "dedicated push overflow");
            }
            c.flush_expired_with(t, |p| {
                assert!(p.wire_bytes <= bound(p.kind), "dedicated expiry overflow");
            });
            for p in v.push(t, dest, kind, pr, payload_of(kind)) {
                assert!(p.wire_bytes <= bound(p.kind), "virtual push overflow");
            }
            v.flush_expired_with(t, |p| {
                assert!(p.wire_bytes <= bound(p.kind), "virtual expiry overflow");
            });
        }
        for p in c.flush_all() {
            assert!(p.wire_bytes <= bound(p.kind), "dedicated drain overflow");
        }
        for p in v.flush_all() {
            assert!(p.wire_bytes <= bound(p.kind), "virtual drain overflow");
        }
    });
}

#[test]
fn the_virtual_pool_is_only_a_policy() {
    // A virtualized point whose pool can never run dry seals exactly the
    // packets a dedicated point seals, call by call. Only the order within
    // one expiry flush may differ: the virtual point drains in ascending
    // (dest, kind) order.
    type Key = (u32, usize, u32, Vec<u32>);
    fn keys(pkts: &[ConcatPacket]) -> Vec<Key> {
        let mut keys: Vec<Key> = pkts
            .iter()
            .map(|p| {
                let idxs = p.prs.iter().map(|pr| pr.idx).collect();
                (p.dest, p.kind as usize, p.payload_per_pr, idxs)
            })
            .collect();
        keys.sort();
        keys
    }
    for_cases(0x23, 128, |rng| {
        let mtu = rng.range_u32(200, 9_000);
        let physical_bytes = rng.range_u32(64, 1_024).min(mtu);
        let cfg = ConcatConfig {
            headers: HeaderSpec::paper(),
            mtu,
            delay: SimTime::from_ns(rng.range_u64(1, 800)),
            enabled: true,
        };
        // 8 destinations × 2 kinds, each CQ under one MTU: the pool
        // covers every CQ at its fullest.
        let physical_queues = 16 * mtu.div_ceil(physical_bytes) as usize;
        let mut d = ConcatPoint::dedicated(cfg);
        let mut v = ConcatPoint::virtualized(
            cfg,
            VirtualCqConfig {
                physical_queues,
                physical_bytes,
            },
        );
        let mut t = 0;
        for i in 0..rng.range_u32(1, 400) {
            t += rng.range_u64(0, 40);
            let now = SimTime::from_ns(t);
            let dest = rng.range_u32(0, 8);
            let (kind, payload) = if rng.next_bool() {
                (PrKind::Read, 0)
            } else {
                (PrKind::Response, 64)
            };
            let pr = Pr {
                src_node: 0,
                src_tid: 0,
                idx: i,
                req_id: i,
            };
            assert_eq!(
                keys(&d.push(now, dest, kind, pr, payload)),
                keys(&v.push(now, dest, kind, pr, payload)),
                "push {i} sealed different packets"
            );
            let (expired_d, expired_v) = (d.flush_expired(now), v.flush_expired(now));
            assert_eq!(
                keys(&expired_d),
                keys(&expired_v),
                "expiry flush after push {i} sealed different packets"
            );
            let order: Vec<(u32, usize)> = expired_v
                .iter()
                .map(|p| (p.dest, p.kind as usize))
                .collect();
            assert!(
                order.windows(2).all(|w| w[0] < w[1]),
                "virtual expiry flush out of (dest, kind) order: {order:?}"
            );
            assert_eq!(d.next_expiry(), v.next_expiry());
        }
        assert_eq!(keys(&d.flush_all()), keys(&v.flush_all()));
        assert_eq!(v.free_physical(), Some(physical_queues));
    });
}
