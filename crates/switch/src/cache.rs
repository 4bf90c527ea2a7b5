//! The segmented Property Cache (paper §6.2.2, Figure 9).
//!
//! The cache stores remote-rack properties keyed by idx. To support
//! different kernels' property sizes with one SRAM array, it is built from
//! 16 B **segments**: a row of 32 segments can hold thirty-two 16 B
//! properties, sixteen 32 B properties, … or one 512 B property. Before a
//! kernel runs, the control plane configures the *mode* (one property
//! size); a Segment Selector then enables the right group of segments per
//! access. Whatever the mode, the full capacity is usable.
//!
//! Functionally the cache is set-associative with true-LRU replacement
//! (Table 5: 32 MB, 16 ways, 16-cycle access). The simulation models tags
//! only — property payloads are synthesized deterministically end to end —
//! but geometry, indexing and replacement are faithful. Tags and
//! replacement stamps live in two parallel arrays, 12 bytes per line, so
//! a probe scans one set's tags contiguously (64 bytes at 16 ways) and
//! reads a stamp only to refresh it or to pick a victim.

use netsparse_desim::trace::{TraceEvent, Tracer, TrackId};

/// Replacement policy of the Property Cache. The paper's design point is
/// LRU (Table 5); the alternatives exist for the policy ablation — FIFO
/// ignores reuse, random needs no per-line state at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// Evict the least recently used line (Table 5's choice).
    #[default]
    Lru,
    /// Evict the oldest inserted line (hits do not refresh).
    Fifo,
    /// Evict a pseudo-random way.
    Random,
}

/// Static geometry of a Property Cache (one middle-pipe bank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PropertyCacheConfig {
    /// Total data capacity in bytes (Table 5: 32 MB per switch).
    pub capacity_bytes: u64,
    /// Bytes per segment (Table 5: 16 B minimum line).
    pub segment_bytes: u32,
    /// Segments per row (Table 5: 32, i.e. 512 B maximum line).
    pub n_segments: u32,
    /// Associativity (Table 5: 16 ways).
    pub ways: u32,
    /// Access latency in switch cycles (Table 5: 16).
    pub latency_cycles: u32,
    /// Replacement policy (Table 5: LRU).
    pub policy: ReplacementPolicy,
}

impl PropertyCacheConfig {
    /// Table 5's per-switch configuration.
    pub fn paper() -> Self {
        PropertyCacheConfig {
            capacity_bytes: 32 << 20,
            segment_bytes: 16,
            n_segments: 32,
            ways: 16,
            latency_cycles: 16,
            policy: ReplacementPolicy::Lru,
        }
    }

    /// Largest supported property size (`S_max`); larger properties must
    /// be tiled by the host (paper §6.2.2).
    pub fn max_property_bytes(&self) -> u32 {
        self.segment_bytes * self.n_segments
    }
}

impl Default for PropertyCacheConfig {
    fn default() -> Self {
        PropertyCacheConfig::paper()
    }
}

/// Tag of an invalid line. No idx can take it (`idx < n_cols ≤
/// u32::MAX`), the same reservation the Pending PR Table makes.
const INVALID: u32 = u32::MAX;

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read-PR lookups performed.
    pub lookups: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (`hits + misses == lookups` always).
    pub misses: u64,
    /// Properties inserted.
    pub insertions: u64,
    /// Valid lines evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate over all lookups (0 when none).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Merges another bank's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
    }

    /// Checks the internal accounting invariants against `entries`, the
    /// capacity of the cache these stats came from; called by the runtime
    /// auditor at end of run.
    ///
    /// # Panics
    ///
    /// Panics if `hits + misses != lookups` or occupancy
    /// (`insertions - evictions`) is negative or above capacity.
    pub fn check_invariants(&self, entries: u64) {
        assert!(
            self.hits + self.misses == self.lookups,
            "audit: cache hits ({}) + misses ({}) != lookups ({})",
            self.hits,
            self.misses,
            self.lookups
        );
        assert!(
            self.evictions <= self.insertions,
            "audit: cache evictions ({}) exceed insertions ({})",
            self.evictions,
            self.insertions
        );
        assert!(
            self.insertions - self.evictions <= entries,
            "audit: cache occupancy ({}) exceeds capacity ({entries})",
            self.insertions - self.evictions
        );
    }
}

/// A configured Property Cache bank.
///
/// # Example
///
/// ```
/// use netsparse_switch::{PropertyCache, PropertyCacheConfig};
///
/// let mut cfg = PropertyCacheConfig::paper();
/// cfg.capacity_bytes = 64 * 1024;
/// let mut c = PropertyCache::new(cfg, /*property bytes*/ 64);
/// assert!(!c.lookup(7));   // cold miss
/// c.insert(7);
/// assert!(c.lookup(7));    // hit
/// assert_eq!(c.stats().hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct PropertyCache {
    cfg: PropertyCacheConfig,
    property_bytes: u32,
    segments_per_entry: u32,
    sets: usize,
    /// Per line, sets × ways row-major: the cached idx, or [`INVALID`].
    tags: Vec<u32>,
    /// Per line: the tick of its last use (LRU) or its insertion (FIFO).
    stamps: Vec<u64>,
    tick: u64,
    stats: CacheStats,
    tracer: Option<(Tracer, TrackId)>,
}

impl PropertyCache {
    /// Creates an invalid (cold) cache configured for `property_bytes`
    /// properties.
    ///
    /// Property sizes are rounded up to a whole number of segments; sizes
    /// above [`PropertyCacheConfig::max_property_bytes`] panic — the host
    /// is expected to tile such kernels.
    ///
    /// # Panics
    ///
    /// Panics if `property_bytes` is 0 or exceeds `S_max`, or the
    /// configured capacity cannot hold a single way of lines.
    #[expect(
        clippy::disallowed_macros,
        reason = "allocates the tag and stamp arrays once per bank, at build time"
    )]
    pub fn new(cfg: PropertyCacheConfig, property_bytes: u32) -> Self {
        assert!(property_bytes > 0, "property size must be nonzero");
        assert!(
            property_bytes <= cfg.max_property_bytes(),
            "property size {property_bytes} exceeds S_max {}; tile the input array",
            cfg.max_property_bytes()
        );
        let segments_per_entry = property_bytes
            .div_ceil(cfg.segment_bytes)
            .next_power_of_two();
        let line_bytes = (segments_per_entry * cfg.segment_bytes) as u64;
        let entries = (cfg.capacity_bytes / line_bytes) as usize;
        assert!(
            entries >= cfg.ways as usize,
            "capacity too small for one set of {} ways",
            cfg.ways
        );
        let sets = entries / cfg.ways as usize;
        let lines = sets * cfg.ways as usize;
        PropertyCache {
            cfg,
            property_bytes,
            segments_per_entry,
            sets,
            tags: vec![INVALID; lines],
            stamps: vec![0; lines],
            tick: 0,
            stats: CacheStats::default(),
            tracer: None,
        }
    }

    /// Attaches a tracer; probes and deposits are recorded on `track`
    /// (the owning switch's cache lane).
    pub fn set_tracer(&mut self, tracer: Tracer, track: TrackId) {
        self.tracer = Some((tracer, track));
    }

    #[inline]
    fn trace(&self, event: TraceEvent) {
        if let Some((tracer, track)) = &self.tracer {
            tracer.record(*track, event);
        }
    }

    /// The configured property size in bytes.
    pub fn property_bytes(&self) -> u32 {
        self.property_bytes
    }

    /// Number of lines the cache can hold in this mode.
    pub fn entries(&self) -> usize {
        self.sets * self.cfg.ways as usize
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The geometry configuration.
    pub fn config(&self) -> &PropertyCacheConfig {
        &self.cfg
    }

    /// Figure 9's Segment Selector: the 32-bit enable mask raised for
    /// `idx`'s access in the current mode. The selector ignores the low
    /// `log2(segments_per_entry)` segment bits and enables that many
    /// adjacent segments.
    pub fn segment_enable_mask(&self, idx: u32) -> u32 {
        let seg_bits = idx % self.cfg.n_segments;
        let group = seg_bits / self.segments_per_entry;
        let base = ((1u64 << self.segments_per_entry) - 1) as u32;
        base << (group * self.segments_per_entry)
    }

    #[inline]
    fn set_of(&self, idx: u32) -> usize {
        // Low bits above the segment field index the set; a multiplicative
        // scramble avoids pathological striding from 1-D partitions.
        let segs = self.cfg.n_segments;
        let above = if segs.is_power_of_two() {
            (idx >> segs.trailing_zeros()) as u64
        } else {
            (idx / segs) as u64
        };
        let scrambled = above.wrapping_mul(0x9E37_79B9);
        // Same reduction either way; power-of-two set counts (every paper
        // geometry) skip the hardware divide on this per-PR path.
        if self.sets.is_power_of_two() {
            (scrambled as usize) & (self.sets - 1)
        } else {
            (scrambled % self.sets as u64) as usize
        }
    }

    /// The first and one-past-last line of `idx`'s set.
    #[inline]
    fn set_bounds(&self, idx: u32) -> (usize, usize) {
        let ways = self.cfg.ways as usize;
        let base = self.set_of(idx) * ways;
        (base, base + ways)
    }

    /// The line holding `idx`, if cached.
    #[inline]
    fn find(&self, idx: u32) -> Option<usize> {
        if idx == INVALID {
            return None;
        }
        let (base, end) = self.set_bounds(idx);
        self.tags[base..end]
            .iter()
            .position(|&t| t == idx)
            .map(|way| base + way)
    }

    /// Read-PR path: probes for `idx`, updating LRU and statistics.
    /// Returns whether the property was present.
    pub fn lookup(&mut self, idx: u32) -> bool {
        self.stats.lookups += 1;
        self.tick += 1;
        if let Some(line) = self.find(idx) {
            if self.cfg.policy == ReplacementPolicy::Lru {
                self.stamps[line] = self.tick;
            }
            self.stats.hits += 1;
            self.trace(TraceEvent::CacheHit { idx });
            return true;
        }
        self.stats.misses += 1;
        self.trace(TraceEvent::CacheMiss { idx });
        false
    }

    /// Whether `idx` is cached, without perturbing LRU or statistics.
    pub fn contains(&self, idx: u32) -> bool {
        self.find(idx).is_some()
    }

    /// Response-PR path: deposits `idx`'s property if absent (the paper:
    /// "If a PR finds the property, no action is taken. Otherwise, the
    /// PR's property is saved in the cache"). The victim is the set's
    /// first invalid way; in a full set it is the first way with the
    /// oldest stamp (LRU, FIFO) or a hash of the tick and idx (random).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is `u32::MAX`, the invalid-line tag.
    pub fn insert(&mut self, idx: u32) {
        assert!(
            idx != INVALID,
            "idx u32::MAX is the invalid-line tag and cannot be cached"
        );
        self.tick += 1;
        let tick = self.tick;
        let (base, end) = self.set_bounds(idx);
        let tags = &self.tags[base..end];
        if tags.contains(&idx) {
            return; // already present: no action
        }
        let way = match tags.iter().position(|&t| t == INVALID) {
            Some(way) => way,
            None if self.cfg.policy == ReplacementPolicy::Random => {
                // Cheap stateless hash of (tick, idx) picks the way.
                let h = (tick ^ idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                (h >> 33) as usize % self.cfg.ways as usize
            }
            // LRU stamps track recency, FIFO stamps insertion age (hits
            // do not refresh them under FIFO), so one ranking serves both;
            // `min_by_key` keeps the first of equal stamps.
            None => self.stamps[base..end]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &stamp)| stamp)
                .map_or(0, |(way, _)| way),
        };
        let line = base + way;
        if self.tags[line] != INVALID {
            self.stats.evictions += 1;
            self.trace(TraceEvent::CacheEvict {
                idx: self.tags[line],
            });
        }
        self.tags[line] = idx;
        self.stamps[line] = tick;
        self.stats.insertions += 1;
        self.trace(TraceEvent::CacheInsert { idx });
    }

    /// Invalidates everything (control-plane reset before a kernel).
    pub fn clear(&mut self) {
        self.tags.fill(INVALID);
        self.stats = CacheStats::default();
        self.tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsparse_desim::SplitMix64;

    /// The array-of-structs layout the cache had before its tags and
    /// stamps were split into two arrays, kept as a reference model: one
    /// `Line` per way, validity as a flag, and one scan that finds a hit,
    /// the first invalid way and the first least-stamped way together.
    struct AosCache {
        cfg: PropertyCacheConfig,
        sets: usize,
        lines: Vec<Line>,
        tick: u64,
        stats: CacheStats,
    }

    #[derive(Clone, Copy)]
    struct Line {
        idx: u32,
        last_use: u64,
        valid: bool,
    }

    impl AosCache {
        fn new(cfg: PropertyCacheConfig, property_bytes: u32) -> Self {
            let segments = property_bytes
                .div_ceil(cfg.segment_bytes)
                .next_power_of_two();
            let entries = (cfg.capacity_bytes / (segments * cfg.segment_bytes) as u64) as usize;
            let sets = entries / cfg.ways as usize;
            let invalid = Line {
                idx: 0,
                last_use: 0,
                valid: false,
            };
            AosCache {
                cfg,
                sets,
                lines: vec![invalid; sets * cfg.ways as usize],
                tick: 0,
                stats: CacheStats::default(),
            }
        }

        fn set_lines(&mut self, idx: u32) -> &mut [Line] {
            let segs = self.cfg.n_segments;
            let above = if segs.is_power_of_two() {
                (idx >> segs.trailing_zeros()) as u64
            } else {
                (idx / segs) as u64
            };
            let scrambled = above.wrapping_mul(0x9E37_79B9);
            let set = if self.sets.is_power_of_two() {
                (scrambled as usize) & (self.sets - 1)
            } else {
                (scrambled % self.sets as u64) as usize
            };
            let w = self.cfg.ways as usize;
            &mut self.lines[set * w..(set + 1) * w]
        }

        fn lookup(&mut self, idx: u32) -> bool {
            self.stats.lookups += 1;
            self.tick += 1;
            let (tick, refresh) = (self.tick, self.cfg.policy == ReplacementPolicy::Lru);
            for line in self.set_lines(idx) {
                if line.valid && line.idx == idx {
                    if refresh {
                        line.last_use = tick;
                    }
                    self.stats.hits += 1;
                    return true;
                }
            }
            self.stats.misses += 1;
            false
        }

        fn contains(&mut self, idx: u32) -> bool {
            self.set_lines(idx).iter().any(|l| l.valid && l.idx == idx)
        }

        fn insert(&mut self, idx: u32) {
            self.tick += 1;
            let (tick, policy, ways) = (self.tick, self.cfg.policy, self.cfg.ways as usize);
            let (mut victim, mut victim_use, mut invalid_way) = (0, u64::MAX, None);
            let lines = self.set_lines(idx);
            for (w, line) in lines.iter().enumerate() {
                if line.valid && line.idx == idx {
                    return;
                }
                if !line.valid && invalid_way.is_none() {
                    invalid_way = Some(w);
                }
                let use_rank = if line.valid { line.last_use } else { 0 };
                if use_rank < victim_use {
                    victim_use = use_rank;
                    victim = w;
                }
            }
            if let Some(w) = invalid_way {
                victim = w;
            } else if policy == ReplacementPolicy::Random {
                let h = (tick ^ idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                victim = (h >> 33) as usize % ways;
            }
            let evicted = lines[victim].valid;
            lines[victim] = Line {
                idx,
                last_use: tick,
                valid: true,
            };
            self.stats.evictions += u64::from(evicted);
            self.stats.insertions += 1;
        }

        fn clear(&mut self) {
            self.lines.iter_mut().for_each(|l| l.valid = false);
            self.stats = CacheStats::default();
            self.tick = 0;
        }
    }

    /// Random streams of probes, fills and membership checks, skewed
    /// toward a hot eighth of the idxs, through both layouts under every
    /// policy and four geometries: one set, 64 sets, 3 sets (the modulo
    /// reduction) and 12 sets of 4 ways over 24 segments (the divide).
    /// Every hit, every counter, eviction included, and every membership
    /// answer must agree, across a mid-stream clear.
    #[test]
    fn split_layout_matches_the_array_of_structs_model_on_random_streams() {
        let geometries = [
            (16 * 512, 512, 16, 32),
            (64 << 10, 64, 16, 32),
            (3 * 16 * 512, 512, 16, 32),
            (48 * 64, 64, 4, 24),
        ];
        let policies = [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ];
        for (p, policy) in policies.into_iter().enumerate() {
            for (g, (capacity_bytes, property_bytes, ways, n_segments)) in
                geometries.into_iter().enumerate()
            {
                let cfg = PropertyCacheConfig {
                    capacity_bytes,
                    ways,
                    n_segments,
                    policy,
                    ..PropertyCacheConfig::paper()
                };
                let mut cache = PropertyCache::new(cfg, property_bytes);
                let mut model = AosCache::new(cfg, property_bytes);
                let universe = 4 * cache.entries() as u64;
                let mut rng = SplitMix64::new((p * 4 + g) as u64);
                for step in 0..20_000 {
                    let idx = if rng.chance(0.5) {
                        rng.next_range(universe / 8)
                    } else {
                        rng.next_range(universe)
                    } as u32;
                    match rng.next_range(10) {
                        0..=4 => assert_eq!(cache.lookup(idx), model.lookup(idx), "step {step}"),
                        5..=8 => {
                            cache.insert(idx);
                            model.insert(idx);
                        }
                        _ => assert_eq!(cache.contains(idx), model.contains(idx), "step {step}"),
                    }
                    assert_eq!(
                        cache.stats(),
                        model.stats,
                        "{policy:?} geometry {g} step {step}"
                    );
                    if step == 9_999 {
                        cache.clear();
                        model.clear();
                    }
                }
                let s = model.stats;
                assert!(
                    s.hits > 0 && s.evictions > 0,
                    "{policy:?} geometry {g}: {s:?}"
                );
                for idx in 0..universe as u32 {
                    assert_eq!(cache.contains(idx), model.contains(idx), "idx {idx}");
                }
            }
        }
    }

    #[test]
    fn invalid_tag_misses_and_cannot_be_inserted() {
        let mut c = small(64 << 10, 64);
        assert!(!c.contains(u32::MAX));
        assert!(!c.lookup(u32::MAX));
        c.insert(u32::MAX - 1);
        assert!(c.lookup(u32::MAX - 1) && !c.lookup(u32::MAX));
        let s = c.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (3, 1, 2));
    }

    #[test]
    #[should_panic(expected = "invalid-line tag")]
    fn inserting_the_invalid_tag_panics() {
        small(64 << 10, 64).insert(u32::MAX);
    }

    fn small(capacity: u64, prop: u32) -> PropertyCache {
        let cfg = PropertyCacheConfig {
            capacity_bytes: capacity,
            ..PropertyCacheConfig::paper()
        };
        PropertyCache::new(cfg, prop)
    }

    #[test]
    fn geometry_uses_full_capacity_at_any_property_size() {
        // 64 KB cache: 4096 lines at 16 B, 128 lines at 512 B.
        assert_eq!(small(64 << 10, 16).entries(), 4096);
        assert_eq!(small(64 << 10, 4).entries(), 4096); // K=1 rounds to 16 B
        assert_eq!(small(64 << 10, 64).entries(), 1024);
        assert_eq!(small(64 << 10, 512).entries(), 128);
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = small(64 << 10, 64);
        assert!(!c.lookup(100));
        c.insert(100);
        assert!(c.lookup(100));
        assert!(c.contains(100));
        let s = c.stats();
        assert_eq!((s.lookups, s.hits, s.insertions), (2, 1, 1));
    }

    #[test]
    fn reinsert_is_a_no_op() {
        let mut c = small(64 << 10, 64);
        c.insert(5);
        c.insert(5);
        assert_eq!(c.stats().insertions, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Capacity = exactly one set of 16 ways at 512 B lines: 8 KB.
        let cfg = PropertyCacheConfig {
            capacity_bytes: 16 * 512,
            ..PropertyCacheConfig::paper()
        };
        let mut c = PropertyCache::new(cfg, 512);
        assert_eq!(c.entries(), 16);
        for i in 0..16 {
            c.insert(i * 32); // same set (single set), distinct idxs
        }
        // Touch idx 0 so it is MRU; inserting a 17th evicts idx 32 (LRU).
        assert!(c.lookup(0));
        c.insert(16 * 32);
        assert!(c.contains(0));
        assert!(!c.contains(32));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn segment_selector_matches_figure9() {
        // 32 B mode (2 segments per entry): segment bits 1110x enable the
        // one-before-last pair, bits 28 and 29.
        let c = small(64 << 10, 32);
        let idx = 0b11100; // segment bits = 28
        assert_eq!(c.segment_enable_mask(idx), 0b11 << 28);
        // 16 B mode: exactly one enable bit.
        let c = small(64 << 10, 16);
        assert_eq!(c.segment_enable_mask(7).count_ones(), 1);
        // 512 B mode: all 32 segments.
        let c = small(64 << 10, 512);
        assert_eq!(c.segment_enable_mask(123), u32::MAX);
    }

    #[test]
    fn clear_invalidates() {
        let mut c = small(64 << 10, 64);
        c.insert(9);
        c.clear();
        assert!(!c.contains(9));
        assert_eq!(c.stats().lookups, 0);
    }

    #[test]
    fn hit_rate_math() {
        let mut c = small(64 << 10, 64);
        c.insert(1);
        c.lookup(1);
        c.lookup(2);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fifo_evicts_by_insertion_order_despite_hits() {
        let cfg = PropertyCacheConfig {
            capacity_bytes: 16 * 512,
            policy: ReplacementPolicy::Fifo,
            ..PropertyCacheConfig::paper()
        };
        let mut c = PropertyCache::new(cfg, 512);
        for i in 0..16 {
            c.insert(i * 32);
        }
        // Touch the oldest line; FIFO must still evict it first.
        assert!(c.lookup(0));
        c.insert(16 * 32);
        assert!(!c.contains(0), "FIFO ignores recency");
        assert!(c.contains(32));
    }

    #[test]
    fn random_policy_stays_within_capacity() {
        let cfg = PropertyCacheConfig {
            capacity_bytes: 16 * 512,
            policy: ReplacementPolicy::Random,
            ..PropertyCacheConfig::paper()
        };
        let mut c = PropertyCache::new(cfg, 512);
        for i in 0..200u32 {
            c.insert(i * 32);
        }
        let s = c.stats();
        assert!(s.insertions - s.evictions <= c.entries() as u64);
    }

    #[test]
    #[should_panic(expected = "exceeds S_max")]
    fn oversized_property_rejected() {
        small(64 << 10, 1024);
    }
}
