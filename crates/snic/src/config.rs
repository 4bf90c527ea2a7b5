//! SNIC configuration (paper Table 5, "SNIC" rows).

/// Parameters of a NetSparse-extended SmartNIC.
///
/// Defaults follow Table 5: an AMD Pensando-like part at 2.2 GHz with
/// 32 RIG units (half configured as clients, half as servers), 256-entry
/// Pending PR Tables, 4 KB idx/property buffers, and a 400 Gbps network
/// interface with 1500 B MTU.
///
/// # Example
///
/// ```
/// use netsparse_snic::SnicConfig;
/// let c = SnicConfig::paper();
/// assert_eq!(c.rig_units, 32);
/// assert_eq!(c.client_units(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnicConfig {
    /// SNIC clock in GHz (RIG units process one idx per cycle).
    pub clock_ghz: f64,
    /// Total RIG units; even ids run as clients, odd as servers.
    pub rig_units: u32,
    /// Pending PR Table entries per client unit.
    pub pending_entries: usize,
    /// Idx Buffer bytes per unit (bounds the DMA chunk of a batch).
    pub idx_buffer_bytes: u32,
    /// Rx Property Buffer bytes per unit.
    pub prop_buffer_bytes: u32,
    /// Load-store-queue entries per unit (Idx Filter accesses in flight).
    pub lsq_entries: u32,
    /// SNIC DRAM bandwidth in GB/s (Idx Filter traffic).
    pub dram_gbps: f64,
    /// Network interface rate in Gbps.
    pub line_rate_gbps: f64,
    /// Maximum transmission unit in bytes.
    pub mtu: u32,
    /// Concatenator delay budget in SNIC cycles (paper: 500).
    pub concat_delay_cycles: u64,
    /// PCIe one-way latency in nanoseconds (paper: 200 ns, Gen6).
    pub pcie_latency_ns: u64,
    /// PCIe bandwidth in GB/s (paper: 256 GB/s).
    pub pcie_gbps: f64,
}

impl SnicConfig {
    /// Table 5's SNIC configuration.
    pub fn paper() -> Self {
        SnicConfig {
            clock_ghz: 2.2,
            rig_units: 32,
            pending_entries: 256,
            idx_buffer_bytes: 4 * 1024,
            prop_buffer_bytes: 4 * 1024,
            lsq_entries: 64,
            dram_gbps: 64.0,
            line_rate_gbps: 400.0,
            mtu: 1_500,
            concat_delay_cycles: 500,
            pcie_latency_ns: 200,
            pcie_gbps: 256.0,
        }
    }

    /// Client-mode RIG units (half of the total, at least 1).
    pub fn client_units(&self) -> u32 {
        (self.rig_units / 2).max(1)
    }

    /// Server-mode RIG units (the other half, at least 1).
    pub fn server_units(&self) -> u32 {
        (self.rig_units - self.client_units()).max(1)
    }

    /// Idxs that fit in one Idx Buffer DMA chunk (4-byte idxs).
    pub fn idx_chunk(&self) -> usize {
        (self.idx_buffer_bytes as usize / 4).max(1)
    }
}

impl Default for SnicConfig {
    fn default() -> Self {
        SnicConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SnicConfig::paper();
        assert_eq!(c.client_units() + c.server_units(), 32);
        assert_eq!(c.idx_chunk(), 1024);
        assert_eq!(c.mtu, 1_500);
    }

    #[test]
    fn degenerate_unit_counts_stay_positive() {
        let mut c = SnicConfig::paper();
        c.rig_units = 2;
        assert_eq!(c.client_units(), 1);
        assert_eq!(c.server_units(), 1);
    }
}
