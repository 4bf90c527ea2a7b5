//! The host-speed reference: a fixed kernel of the benchmark's own that
//! the end-to-end pass times once per round.
//!
//! On a shared host, other tenants slow the whole process for seconds to
//! minutes at a time, and every phase of a round slows with them. The
//! reference slows too, so the end-to-end pass multiplies each phase's
//! time by [`NOMINAL_S`] over the reference's time in the same run. The
//! kernel touches nothing of the simulator's, so no change to the
//! simulator can move it. The README's noise study gives the spreads
//! with and without the scaling.

/// The reference's median time on the host the bounds were set on (a
/// 2-vCPU Intel Xeon VM) in a quiet spell. Scaled times read as seconds
/// on that host.
pub const NOMINAL_S: f64 = 0.006;

/// Keys sorted per run (1 MiB).
const KEYS: usize = 1 << 17;
/// Entries of the pointer-chasing table (8 MiB).
const TABLE: usize = 1 << 21;
/// Dependent loads per run.
const STEPS: usize = 1 << 15;

/// The reference kernel's buffers.
pub struct Reference {
    keys: Vec<u64>,
    /// A single cycle through every entry (Sattolo's shuffle), so the
    /// chase never settles into a short loop the caches could hold.
    table: Vec<u32>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Reference {
    /// Allocates and fills the kernel's buffers.
    pub fn new() -> Reference {
        let mut table: Vec<u32> = (0..TABLE as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1d;
        for i in (1..TABLE).rev() {
            let j = (xorshift(&mut x) % i as u64) as usize;
            table.swap(i, j);
        }
        Reference {
            keys: vec![0; KEYS],
            table,
        }
    }

    /// One run: fill and sort the keys, then chase pointers through the
    /// table. Returns a checksum for the caller to `black_box`.
    pub fn run(&mut self) -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15;
        for k in &mut self.keys {
            *k = xorshift(&mut x);
        }
        self.keys.sort_unstable();
        let mut at = 0u32;
        let mut sum = 0u64;
        for _ in 0..STEPS {
            at = self.table[at as usize];
            sum = sum.wrapping_add(at as u64);
        }
        sum ^ self.keys[KEYS / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_one_cycle_and_runs_repeat() {
        let mut r = Reference::new();
        let mut at = 0u32;
        for step in 1..=TABLE {
            at = r.table[at as usize];
            assert_eq!(at == 0, step == TABLE, "cycle closed at step {step}");
        }
        assert_eq!(r.run(), r.run());
    }
}
