//! Typed failures for the fallible simulation entry point.
//!
//! [`try_simulate`](crate::sim::try_simulate) front-loads every way a run
//! can go wrong — bad configuration, workload/topology mismatch, an
//! unroutable topology, a fault schedule naming links that do not exist —
//! and reports them as a [`SimError`] instead of aborting the process.
//! The panicking [`simulate`](crate::sim::simulate) wrapper keeps the old
//! contract for hand-written experiments; generated configurations (the
//! chaoscheck harness) must go through the `Result` surface so invalid
//! scenarios are *rejected* and counted, not crashed on.

use netsparse_desim::StallReport;
use netsparse_netsim::RouteError;

use crate::config::ConfigError;

/// Why a simulation could not start, or could not finish.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The configuration failed
    /// [`ClusterConfig::validate`](crate::config::ClusterConfig::validate)
    /// (e.g. packet loss without a watchdog, a zero clock or batch, fault
    /// targets out of range).
    Config(ConfigError),
    /// The workload was generated for a different cluster size than the
    /// topology provides.
    WorkloadMismatch {
        /// Nodes the workload was partitioned over.
        workload_nodes: u32,
        /// Nodes the topology actually has.
        topology_nodes: u32,
    },
    /// The topology could not be constructed or routed.
    Route(RouteError),
    /// The fault schedule cuts a switch-to-switch link the topology does
    /// not have (indices in range, but no such adjacency).
    MissingFaultLink {
        /// Upstream switch of the named link.
        from: u32,
        /// Downstream switch of the named link.
        to: u32,
    },
    /// The run tripped a liveness budget
    /// ([`ClusterConfig::limits`](crate::config::ClusterConfig::limits))
    /// before draining its event queue.
    Stalled(StallReport),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid cluster config: {e}"),
            SimError::WorkloadMismatch {
                workload_nodes,
                topology_nodes,
            } => write!(
                f,
                "workload node count ({workload_nodes}) must match the \
                 topology ({topology_nodes} nodes)"
            ),
            SimError::Route(e) => write!(f, "unroutable topology: {e}"),
            SimError::MissingFaultLink { from, to } => write!(
                f,
                "fault schedule cuts a nonexistent link: switch {from} -> switch {to}"
            ),
            SimError::Stalled(r) => write!(f, "simulation stalled: {r}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::Route(e) => Some(e),
            SimError::Stalled(r) => Some(r),
            _ => None,
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<RouteError> for SimError {
    fn from(e: RouteError) -> Self {
        SimError::Route(e)
    }
}

impl From<StallReport> for SimError {
    fn from(r: StallReport) -> Self {
        SimError::Stalled(r)
    }
}
