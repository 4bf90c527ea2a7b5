//! Middle pipes: the switch's cache banks and Table 5 configuration.
//!
//! The NetSparse switch (Figure 8) routes every packet through one of its
//! middle pipes, each holding a Property Cache. For a {read, response} pair
//! to meet in the *same* cache, the paper relies on deterministic routing
//! making the read's egress port match the response's ingress port. In the
//! simulation we realize the same invariant directly: the middle pipe is
//! selected by the property's **home node**, which both the read (its
//! destination) and the response (its source) carry — a deterministic
//! function both packet types agree on, implementable in hardware from the
//! PR-layer headers.

#[cfg(feature = "trace")]
use netsparse_desim::trace::{Tracer, TrackId};

use crate::cache::{CacheStats, PropertyCache, PropertyCacheConfig};

/// Switch parameters (Table 5, "Switches" rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchConfig {
    /// Ports (32 × 400 Gbps in the paper).
    pub ports: u32,
    /// Pipes (8 in the paper); middle pipes mirror this count.
    pub pipes: u32,
    /// Pipe clock in GHz (2 GHz in the paper).
    pub clock_ghz: f64,
    /// Zero-load switch traversal latency in nanoseconds (300 ns).
    pub latency_ns: u64,
    /// Concatenator delay budget in switch cycles (125).
    pub concat_delay_cycles: u64,
    /// Packet buffer size in bytes (96 MB; tracked as a statistic).
    pub packet_buffer_bytes: u64,
    /// Property Cache geometry, total per switch (split across pipes).
    pub cache: PropertyCacheConfig,
}

impl SwitchConfig {
    /// Table 5's ToR switch.
    pub fn paper() -> Self {
        SwitchConfig {
            ports: 32,
            pipes: 8,
            clock_ghz: 2.0,
            latency_ns: 300,
            concat_delay_cycles: 125,
            packet_buffer_bytes: 96 << 20,
            cache: PropertyCacheConfig::paper(),
        }
    }
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig::paper()
    }
}

/// The array of middle-pipe Property Cache banks of one switch.
///
/// The switch's total cache capacity is divided evenly across pipes, and
/// every access for a given home node goes to the same bank.
///
/// # Example
///
/// ```
/// use netsparse_switch::{MiddlePipes, SwitchConfig};
///
/// let mut cfg = SwitchConfig::paper();
/// cfg.cache.capacity_bytes = 1 << 20;
/// let mut pipes = MiddlePipes::new(&cfg, /*property bytes*/ 64);
/// let home = 42u32;
/// assert!(!pipes.lookup(home, 7));
/// pipes.insert(home, 7);
/// assert!(pipes.lookup(home, 7));
/// ```
#[derive(Debug, Clone)]
pub struct MiddlePipes {
    banks: Vec<PropertyCache>,
}

impl MiddlePipes {
    /// Builds `cfg.pipes` banks, each with `1/pipes` of the switch's cache
    /// capacity, configured for `property_bytes`. A zero-capacity cache
    /// yields no banks (the no-cache ablation).
    pub fn new(cfg: &SwitchConfig, property_bytes: u32) -> Self {
        let per_bank = cfg.cache.capacity_bytes / cfg.pipes.max(1) as u64;
        let line = (property_bytes
            .div_ceil(cfg.cache.segment_bytes)
            .next_power_of_two()
            * cfg.cache.segment_bytes) as u64;
        if per_bank < line * cfg.cache.ways as u64 {
            // Too small to form even one set per bank: model as cacheless.
            return MiddlePipes { banks: Vec::new() };
        }
        let bank_cfg = PropertyCacheConfig {
            capacity_bytes: per_bank,
            ..cfg.cache
        };
        MiddlePipes {
            banks: (0..cfg.pipes.max(1))
                .map(|_| PropertyCache::new(bank_cfg, property_bytes))
                .collect(),
        }
    }

    /// Whether any cache exists (false under the no-cache ablation).
    #[must_use]
    pub fn enabled(&self) -> bool {
        !self.banks.is_empty()
    }

    /// Attaches a tracer to every bank; all banks share `track` (the
    /// switch's cache lane — bank interleaving is a simulation detail).
    #[cfg(feature = "trace")]
    pub fn set_tracer(&mut self, tracer: Tracer, track: TrackId) {
        for b in &mut self.banks {
            b.set_tracer(tracer.clone(), track);
        }
    }

    /// The bank index serving properties homed at `home`.
    #[must_use]
    pub fn bank_of(&self, home: u32) -> usize {
        (home as usize) % self.banks.len().max(1)
    }

    /// Read-PR probe for `idx` homed at `home`.
    pub fn lookup(&mut self, home: u32, idx: u32) -> bool {
        if self.banks.is_empty() {
            return false;
        }
        let b = self.bank_of(home);
        self.banks[b].lookup(idx)
    }

    /// Response-PR deposit for `idx` homed at `home`.
    pub fn insert(&mut self, home: u32, idx: u32) {
        if self.banks.is_empty() {
            return;
        }
        let b = self.bank_of(home);
        self.banks[b].insert(idx);
    }

    /// Aggregated statistics across banks.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for b in &self.banks {
            total.merge(&b.stats());
        }
        total
    }

    /// Total line capacity across banks.
    pub fn entries(&self) -> u64 {
        self.banks.iter().map(|b| b.entries() as u64).sum()
    }

    /// Checks every bank's accounting invariants (see
    /// [`CacheStats::check_invariants`]); called by the runtime auditor.
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant.
    pub fn check_invariants(&self) {
        for b in &self.banks {
            b.stats().check_invariants(b.entries() as u64);
        }
    }

    /// Invalidates all banks.
    pub fn clear(&mut self) {
        for b in &mut self.banks {
            b.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipes(capacity: u64, prop: u32) -> MiddlePipes {
        let mut cfg = SwitchConfig::paper();
        cfg.cache.capacity_bytes = capacity;
        MiddlePipes::new(&cfg, prop)
    }

    #[test]
    fn home_keyed_banking_is_consistent() {
        let mut p = pipes(4 << 20, 64);
        // The read (home = dest) and the response (home = src) agree.
        p.insert(13, 999);
        assert!(p.lookup(13, 999));
        // A different home maps elsewhere: same idx is not visible.
        let other_home = 13 + 1;
        if p.bank_of(other_home) != p.bank_of(13) {
            assert!(!p.lookup(other_home, 999));
        }
    }

    #[test]
    fn capacity_splits_across_banks() {
        let p = pipes(8 << 20, 64);
        assert!(p.enabled());
        assert_eq!(p.banks.len(), 8);
        assert_eq!(p.banks[0].entries(), (1 << 20) / 64);
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let mut p = pipes(0, 64);
        assert!(!p.enabled());
        p.insert(1, 2); // no-ops
        assert!(!p.lookup(1, 2));
        assert_eq!(p.stats().lookups, 0);
    }

    #[test]
    fn stats_aggregate_across_banks() {
        let mut p = pipes(8 << 20, 64);
        for home in 0..16u32 {
            p.insert(home, home * 100);
            p.lookup(home, home * 100);
        }
        let s = p.stats();
        assert_eq!(s.insertions, 16);
        assert_eq!(s.hits, 16);
        assert!((s.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_all_banks() {
        let mut p = pipes(8 << 20, 64);
        p.insert(3, 30);
        p.clear();
        assert!(!p.lookup(3, 30));
    }
}
