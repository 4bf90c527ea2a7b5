//! Area/power estimates for the SNIC and switch extensions.
//!
//! Storage sizes come from Table 5; the technology parameters are the
//! calibrated 10 nm densities described on [`TechParams`]. Reported
//! quantities mirror Figure 20 (per-component area, static and peak dynamic
//! power of the SNIC extensions), Table 9 (RIG-unit area split) and §9.5's
//! switch numbers.

/// Calibrated 10 nm technology parameters.
///
/// - `sram_mbit_per_mm2`: effective density of small/medium SRAM arrays
///   including peripherals (≈26 Mbit/mm² at 10 nm),
/// - `cache_mbit_per_mm2`: density of the large set-associative Property
///   Cache arrays (tag + data + multi-segment muxing lowers density),
/// - `cam_area_factor`: area of a CAM bit relative to an SRAM bit (≈8×,
///   CACTI-class),
/// - `logic_overhead`: synthesized control logic as a fraction of the
///   storage area it manages,
/// - power densities: W/mm² for leakage and for switching at full
///   activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechParams {
    /// SRAM density, Mbit/mm².
    pub sram_mbit_per_mm2: f64,
    /// Large-cache density, Mbit/mm².
    pub cache_mbit_per_mm2: f64,
    /// CAM bit area relative to SRAM bit area.
    pub cam_area_factor: f64,
    /// Control-logic area fraction added to storage area.
    pub logic_overhead: f64,
    /// Leakage power density, W/mm².
    pub static_w_per_mm2: f64,
    /// Peak dynamic power density at activity 1.0, W/mm².
    pub dynamic_w_per_mm2: f64,
}

impl TechParams {
    /// The calibrated 10 nm parameters used throughout §9.5.
    pub fn n10() -> Self {
        TechParams {
            sram_mbit_per_mm2: 26.0,
            cache_mbit_per_mm2: 12.0,
            cam_area_factor: 8.0,
            logic_overhead: 0.15,
            static_w_per_mm2: 0.33,
            dynamic_w_per_mm2: 2.6,
        }
    }

    fn sram_mm2(&self, bytes: f64) -> f64 {
        bytes * 8.0 / (self.sram_mbit_per_mm2 * 1e6)
    }

    fn cam_mm2(&self, bytes: f64) -> f64 {
        self.sram_mm2(bytes) * self.cam_area_factor
    }

    fn cache_mm2(&self, bytes: f64) -> f64 {
        bytes * 8.0 / (self.cache_mbit_per_mm2 * 1e6)
    }
}

impl Default for TechParams {
    fn default() -> Self {
        TechParams::n10()
    }
}

/// One component's estimate (a bar group of Figure 20).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentEstimate {
    /// Component name.
    pub name: String,
    /// Silicon area in mm².
    pub area_mm2: f64,
    /// Leakage power in watts.
    pub static_w: f64,
    /// Peak dynamic power in watts (maximum activity).
    pub dynamic_w: f64,
}

impl ComponentEstimate {
    fn new(name: &str, t: &TechParams, area_mm2: f64, activity: f64) -> Self {
        ComponentEstimate {
            name: name.to_string(),
            area_mm2,
            static_w: area_mm2 * t.static_w_per_mm2,
            dynamic_w: area_mm2 * t.dynamic_w_per_mm2 * activity,
        }
    }

    /// Total (static + peak dynamic) power.
    pub fn peak_w(&self) -> f64 {
        self.static_w + self.dynamic_w
    }
}

/// Storage inside one RIG unit (Table 5): sizes in bytes and whether each
/// structure is a CAM.
const RIG_UNIT_STRUCTURES: [(&str, f64, bool); 4] = [
    ("Idx Buffer", 4096.0, false),
    ("Pending PR Table", 256.0 * 8.0, true), // 256 entries x ~8 B each
    ("Property Buffer", 4096.0, false),
    ("LSQ", 64.0 * 8.0, true), // 64 entries x ~8 B
];

fn rig_unit_area(t: &TechParams) -> (f64, Vec<(&'static str, f64)>) {
    let mut parts: Vec<(&'static str, f64)> = RIG_UNIT_STRUCTURES
        .iter()
        .map(|&(name, bytes, cam)| {
            let a = if cam {
                t.cam_mm2(bytes)
            } else {
                t.sram_mm2(bytes)
            };
            (name, a)
        })
        .collect();
    let storage: f64 = parts.iter().map(|(_, a)| a).sum();
    let rest = storage * t.logic_overhead;
    parts.push(("Rest", rest));
    (storage + rest, parts)
}

/// Table 9: the fraction of a RIG unit's area in each structure.
///
/// # Example
///
/// ```
/// use netsparse_hwmodel::{rig_unit_breakdown, TechParams};
/// let parts = rig_unit_breakdown(&TechParams::n10());
/// let total: f64 = parts.iter().map(|(_, f)| f).sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// ```
pub fn rig_unit_breakdown(t: &TechParams) -> Vec<(&'static str, f64)> {
    let (total, parts) = rig_unit_area(t);
    parts.into_iter().map(|(n, a)| (n, a / total)).collect()
}

/// Figure 20: per-component area and power of the SNIC extensions
/// (32 RIG units, 16 L1s of 32 KB, 16 L2s of 128 KB, and the
/// con/de-concatenator blocks with 512 KB of CQ SRAM).
pub fn snic_extension_report(t: &TechParams) -> Vec<ComponentEstimate> {
    let (unit_area, _) = rig_unit_area(t);
    vec![
        // RIG units run flat out (1 idx/cycle): highest activity.
        ComponentEstimate::new("RIG Units", t, 32.0 * unit_area, 1.0),
        ComponentEstimate::new("L1 caches", t, t.sram_mm2(16.0 * 32.0 * 1024.0) * 1.1, 0.5),
        ComponentEstimate::new("L2 caches", t, t.sram_mm2(16.0 * 128.0 * 1024.0) * 1.1, 0.2),
        ComponentEstimate::new(
            "Con/De-concat",
            t,
            t.sram_mm2(512.0 * 1024.0) * (1.0 + t.logic_overhead),
            0.4,
        ),
    ]
}

/// §9.5 switch overheads: Property Caches (32 MB), switch concatenators
/// (512 KB per pipe × 8 pipes), and a point estimate for the second
/// crossbar.
pub fn switch_extension_report(t: &TechParams) -> Vec<ComponentEstimate> {
    vec![
        ComponentEstimate::new(
            "Property Caches",
            t,
            t.cache_mm2(32.0 * 1024.0 * 1024.0),
            0.10,
        ),
        ComponentEstimate::new(
            "Concatenators",
            t,
            t.sram_mm2(8.0 * 512.0 * 1024.0) * (1.0 + t.logic_overhead),
            0.25,
        ),
        // Stand-alone 32x32 crossbar (paper cites <5 mm²); the full
        // uncertainty range (1-15% of a ~700 mm² switch) is discussed in
        // §9.5 and reported by `crossbar_area_range_mm2`.
        ComponentEstimate::new("Second crossbar", t, 5.0, 0.3),
    ]
}

/// The paper's quoted uncertainty interval for the extra crossbar and
/// inter-pipe routing: 1–15 % of a 700 mm² switch ASIC.
pub fn crossbar_area_range_mm2() -> (f64, f64) {
    (0.01 * 700.0, 0.15 * 700.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table9_fractions_match_paper() {
        // Paper: IdxBuf 12%, Pending PR 53%, PropBuf 12%, LSQ 10%, Rest 13%.
        let parts = rig_unit_breakdown(&TechParams::n10());
        let get = |name: &str| {
            parts
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, f)| *f * 100.0)
                .expect("structure present")
        };
        assert!((get("Idx Buffer") - 12.0).abs() < 3.0);
        assert!((get("Pending PR Table") - 53.0).abs() < 6.0);
        assert!((get("Property Buffer") - 12.0).abs() < 3.0);
        assert!((get("LSQ") - 10.0).abs() < 3.0);
        assert!((get("Rest") - 13.0).abs() < 3.0);
    }

    #[test]
    fn pending_pr_table_dominates_unit_area() {
        let parts = rig_unit_breakdown(&TechParams::n10());
        let max = parts
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("nonempty");
        assert_eq!(max.0, "Pending PR Table");
    }

    #[test]
    fn snic_totals_match_figure20() {
        // Paper: combined ~1.43 mm², ~2.1 W peak, idle (static) ~0.5 W.
        let report = snic_extension_report(&TechParams::n10());
        let area: f64 = report.iter().map(|c| c.area_mm2).sum();
        let peak: f64 = report.iter().map(|c| c.peak_w()).sum();
        let stat: f64 = report.iter().map(|c| c.static_w).sum();
        assert!((1.0..2.2).contains(&area), "area {area}");
        assert!((1.4..3.0).contains(&peak), "peak {peak}");
        assert!((0.3..0.8).contains(&stat), "static {stat}");
    }

    #[test]
    fn l2_dominates_area_rig_dominates_dynamic() {
        // Figure 20's qualitative findings.
        let report = snic_extension_report(&TechParams::n10());
        let by = |name: &str| report.iter().find(|c| c.name == name).unwrap();
        let max_area = report
            .iter()
            .max_by(|a, b| a.area_mm2.total_cmp(&b.area_mm2));
        assert_eq!(max_area.unwrap().name, "L2 caches");
        let max_dyn = report
            .iter()
            .max_by(|a, b| a.dynamic_w.total_cmp(&b.dynamic_w));
        assert_eq!(max_dyn.unwrap().name, "RIG Units");
        assert!(by("L2 caches").static_w > by("L1 caches").static_w);
    }

    #[test]
    fn switch_totals_match_section95() {
        // Paper: caches ~21.3 mm², concatenators ~1.5 mm², power ~10 W.
        let report = switch_extension_report(&TechParams::n10());
        let by = |name: &str| report.iter().find(|c| c.name == name).unwrap();
        let cache = by("Property Caches").area_mm2;
        let conc = by("Concatenators").area_mm2;
        assert!((18.0..25.0).contains(&cache), "cache {cache}");
        assert!((1.0..2.5).contains(&conc), "concat {conc}");
        let power: f64 = report
            .iter()
            .filter(|c| c.name != "Second crossbar")
            .map(|c| c.peak_w())
            .sum();
        assert!((6.0..16.0).contains(&power), "power {power}");
    }

    #[test]
    fn crossbar_range_matches_paper_interval() {
        let (lo, hi) = crossbar_area_range_mm2();
        assert_eq!(lo, 7.0);
        assert_eq!(hi, 105.0);
    }
}
