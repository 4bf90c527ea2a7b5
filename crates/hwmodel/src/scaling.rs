//! Process scaling factors (Stillmaker–Baas style, the paper's reference 83).
//!
//! The paper synthesizes at 45 nm and scales results to 10 nm using the
//! scaling equations of Stillmaker & Baas (Integration, 2017). This module
//! provides the area / power / delay factors between the nodes used in the
//! paper, fitted to the published per-node tables.

/// Scaling factors from one process node to another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessScaling {
    /// Source feature size in nanometres.
    pub from_nm: f64,
    /// Target feature size in nanometres.
    pub to_nm: f64,
    /// Multiply source area by this to get target area.
    pub area: f64,
    /// Multiply source dynamic power (at equal frequency) by this.
    pub dynamic_power: f64,
    /// Multiply source static power by this.
    pub static_power: f64,
    /// Multiply source gate delay by this.
    pub delay: f64,
}

impl ProcessScaling {
    /// The 45 nm → 10 nm scaling the paper uses.
    ///
    /// Area scales slightly worse than the ideal `(10/45)²` ≈ 0.049
    /// because SRAM and wiring stop scaling; the Stillmaker–Baas fits give
    /// roughly 0.064 for area, 0.17 for dynamic power and 0.48 for delay
    /// between these nodes.
    pub fn n45_to_n10() -> Self {
        ProcessScaling {
            from_nm: 45.0,
            to_nm: 10.0,
            area: 0.064,
            dynamic_power: 0.17,
            static_power: 0.30,
            delay: 0.48,
        }
    }

    /// A frequency reached at `from_nm` that the same design can sustain
    /// at `to_nm` (inverse delay scaling).
    pub fn scaled_frequency_ghz(&self, freq_ghz_at_from: f64) -> f64 {
        freq_ghz_at_from / self.delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_frequency_claim_holds() {
        // §8.3: designs meet 1.5 GHz at 45 nm, so 2.2 GHz at 7–10 nm "is
        // very reasonable". Our delay factor must support that.
        let s = ProcessScaling::n45_to_n10();
        assert!(s.scaled_frequency_ghz(1.5) >= 2.2);
    }

    #[test]
    fn area_scales_down_hard() {
        let s = ProcessScaling::n45_to_n10();
        assert!(s.area < 0.1 && s.area > 0.03);
    }
}
