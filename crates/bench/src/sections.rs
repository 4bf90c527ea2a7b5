//! The section registry behind the `repro` binary: every table, figure
//! and extension table the harness regenerates, in the order `repro all`
//! prints them.

use crate::opts::BenchOpts;
use crate::tables;

/// The key that selects every section.
pub const ALL: &str = "all";

/// One regenerable section of the evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// The name `repro` selects it by.
    pub key: &'static str,
    /// The banner `repro all` prints above it.
    pub title: &'static str,
    /// Renders the section.
    pub run: fn(&BenchOpts) -> String,
}

/// A registry entry whose key is the name of the `tables` function that
/// renders it.
macro_rules! section {
    ($key:ident, $title:literal) => {
        Section {
            key: stringify!($key),
            title: $title,
            run: tables::$key,
        }
    };
}

/// Every section, in `repro all` order.
pub static SECTIONS: &[Section] = &[
    section!(table1, "Table 1"),
    section!(table2, "Table 2"),
    section!(table3, "Table 3"),
    section!(table4, "Table 4"),
    section!(fig10, "Figure 10"),
    section!(fig12, "Figure 12"),
    section!(table7, "Table 7"),
    section!(fig13, "Figure 13"),
    section!(fig14, "Figure 14"),
    section!(table8, "Table 8"),
    section!(fig15, "Figure 15"),
    section!(fig16, "Figure 16"),
    section!(fig17, "Figure 17"),
    section!(fig18, "Figure 18"),
    section!(fig19, "Figure 19"),
    section!(fig20, "Figure 20"),
    section!(table9, "Table 9"),
    section!(fig21, "Figure 21"),
    section!(fig22, "Figure 22"),
    section!(ext_virtual_cq, "Extension: virtual CQs (§7.2)"),
    section!(ext_faults, "Extension: fault recovery (§7.1)"),
    section!(ext_fault_sweep, "Extension: fault sweep (§7.1 extended)"),
    section!(ext_hybrid, "Extension: hybrid baseline"),
    section!(ext_partition, "Extension: partitioning (§9.4)"),
    section!(ext_reduce, "Extension: in-network reduction"),
    section!(ext_kernels, "Extension: kernels (§2.1)"),
    section!(ext_adaptive, "Extension: adaptive batching (§9.4)"),
    section!(ext_latency, "Extension: PR latency"),
    section!(ext_cache_policy, "Extension: cache replacement policy"),
    section!(characterize, "Workload characterization"),
    section!(ext_trace, "Extension: trace timeline (observability)"),
];

/// Every valid key, `all` first, separated by spaces.
pub fn keys() -> String {
    let keys: Vec<&str> = SECTIONS.iter().map(|s| s.key).collect();
    format!("{ALL} {}", keys.join(" "))
}

/// The sections `key` selects: all of them for [`ALL`], otherwise the one
/// section with that key. An unknown key's error lists the valid ones.
pub fn select(key: &str) -> Result<&'static [Section], String> {
    if key == ALL {
        return Ok(SECTIONS);
    }
    SECTIONS
        .iter()
        .find(|s| s.key == key)
        .map(std::slice::from_ref)
        .ok_or_else(|| format!("unknown section '{key}'; valid keys: {}", keys()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_unique_and_none_is_all() {
        let mut keys: Vec<&str> = SECTIONS.iter().map(|s| s.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), SECTIONS.len(), "duplicate key");
        assert!(!keys.contains(&ALL));
    }

    #[test]
    fn all_selects_every_section_once_in_order() {
        let order: Vec<&str> = "table1 table2 table3 table4 fig10 fig12 table7 fig13 fig14 \
             table8 fig15 fig16 fig17 fig18 fig19 fig20 table9 fig21 fig22 ext_virtual_cq \
             ext_faults ext_fault_sweep ext_hybrid ext_partition ext_reduce ext_kernels \
             ext_adaptive ext_latency ext_cache_policy characterize ext_trace"
            .split(' ')
            .collect();
        let all = select(ALL).expect("all is a key");
        let keys: Vec<&str> = all.iter().map(|s| s.key).collect();
        assert_eq!(keys, order);
        for s in SECTIONS {
            let one = select(s.key).expect("registered key");
            assert_eq!(one.len(), 1);
            assert_eq!(one[0].key, s.key);
        }
    }

    #[test]
    fn unknown_key_error_lists_the_valid_keys() {
        let err = select("fig99").expect_err("not a key");
        assert!(err.contains("'fig99'"), "{err}");
        for key in std::iter::once(ALL).chain(SECTIONS.iter().map(|s| s.key)) {
            assert!(err.contains(key), "{key} missing from: {err}");
        }
    }
}
