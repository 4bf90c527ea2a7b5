//! Cluster configuration: Table 5 plus the mechanism ablation switches.

use std::fmt;

use netsparse_desim::{Clock, Liveness, LossModel, SimTime};
use netsparse_netsim::{LinkParams, Topology};
use netsparse_snic::vconcat::VirtualCqConfig;
use netsparse_snic::{HeaderSpec, SnicConfig};
use netsparse_switch::SwitchConfig;

/// Which concatenator implementation concatenation points deploy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcatImpl {
    /// One MTU-sized CQ per `(destination, type)` (§6.1.2) — SRAM scales
    /// with cluster size.
    Dedicated,
    /// A fixed pool of virtualized sub-MTU physical CQs (§7.2) — SRAM is
    /// cluster-size independent.
    Virtual(VirtualCqConfig),
}

/// A configuration rejected by validation, with enough context to print a
/// useful message instead of panicking deep inside the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A probability parameter fell outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Faults that require recovery are enabled but no watchdog is armed.
    WatchdogUnarmed,
    /// A backoff parameter is nonsensical.
    BackoffOutOfRange {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A degradation factor is nonsensical.
    DegradationOutOfRange {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A scheduled repair precedes its failure.
    RepairBeforeFailure {
        /// Failure time, ns.
        at_ns: u64,
        /// Repair time, ns.
        repair_at_ns: u64,
    },
    /// A fault targets an element the topology does not have.
    TargetOutOfRange {
        /// Which kind of element.
        what: &'static str,
        /// The offending index.
        index: u32,
        /// The topology's element count.
        limit: u32,
    },
    /// A structural cluster parameter is zero or degenerate.
    DegenerateCluster {
        /// Which parameter.
        what: &'static str,
    },
    /// A clock or line rate is zero, negative, or not finite.
    NotPositive {
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The property is larger than one Property Cache row (`S_max`).
    ExceedsCacheRow {
        /// The property size in bytes (`4 * k`).
        bytes: u32,
        /// The cache's `S_max` in bytes.
        max: u32,
    },
    /// A buffer that must fit in one packet is larger than the MTU.
    ExceedsMtu {
        /// Which parameter.
        what: &'static str,
        /// Its size in bytes.
        bytes: u32,
        /// The SNIC MTU in bytes.
        mtu: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::ProbabilityOutOfRange { what, value } => {
                write!(f, "{what} must be a probability in [0, 1], got {value}")
            }
            ConfigError::WatchdogUnarmed => {
                write!(f, "packet loss without a watchdog would hang the kernel")
            }
            ConfigError::BackoffOutOfRange { what, value } => {
                write!(f, "{what} out of range: {value}")
            }
            ConfigError::DegradationOutOfRange { what, value } => {
                write!(f, "{what} out of range: {value}")
            }
            ConfigError::RepairBeforeFailure {
                at_ns,
                repair_at_ns,
            } => {
                write!(
                    f,
                    "repair at {repair_at_ns} ns precedes its failure at {at_ns} ns"
                )
            }
            ConfigError::TargetOutOfRange { what, index, limit } => {
                write!(f, "fault targets {what} {index} but topology has {limit}")
            }
            ConfigError::DegenerateCluster { what } => {
                write!(f, "cluster config is degenerate: {what} must be nonzero")
            }
            ConfigError::NotPositive { what, value } => {
                write!(f, "{what} must be positive and finite, got {value}")
            }
            ConfigError::ExceedsCacheRow { bytes, max } => write!(
                f,
                "a {bytes} B property exceeds the Property Cache's {max} B rows; \
                 tile the input array or turn the cache off"
            ),
            ConfigError::ExceedsMtu { what, bytes, mtu } => {
                write!(f, "{what} = {bytes} exceeds the {mtu} B MTU")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// What a scheduled [`FailureEvent`] kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// A whole switch (all its links go dark).
    Switch(u32),
    /// The directed link from switch `from` to switch `to`.
    SwitchLink {
        /// Source switch index.
        from: u32,
        /// Destination switch index.
        to: u32,
    },
}

/// One scheduled element failure, permanent or transient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureEvent {
    /// When the element dies, nanoseconds of simulated time.
    pub at_ns: u64,
    /// What dies.
    pub target: FaultTarget,
    /// When the element heals (`None` = permanent failure).
    pub repair_at_ns: Option<u64>,
}

/// Per-node degradation: a straggler that computes slowly and/or a NIC
/// running below line rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeDegradation {
    /// Which node.
    pub node: u32,
    /// Multiplier (≥ 1) on the node's compute/serve time.
    pub compute_slowdown: f64,
    /// Factor (in `(0, 1]`) on the node's NIC bandwidth.
    pub nic_bandwidth_factor: f64,
}

/// Fault injection and recovery (§7.1, grown into the faultnet subsystem).
///
/// NetSparse assumes a lossless fabric, so losses model *hardware
/// failures*. Detection is a watchdog timer per RIG operation: on timeout
/// the operation is failed, its partially gathered buffer is discarded
/// (filter bits dropped), and the command restarts — with exponential
/// backoff, a retry budget, and escalation to a degraded direct-fetch mode
/// once the budget is exhausted (see `docs/FAULTS.md`).
///
/// Construct with [`FaultConfig::none`] or the validated
/// [`FaultConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Per-switch-traversal packet-loss model.
    pub loss: LossModel,
    /// Watchdog timeout per RIG command, nanoseconds (0 = disabled).
    pub watchdog_ns: u64,
    /// Consecutive watchdog restarts of one command before the node
    /// escalates to degraded mode (unconcatenated, uncached PRs).
    pub max_retries: u32,
    /// Watchdog-interval multiplier per consecutive retry (exponential
    /// backoff; 1.0 = fixed interval).
    pub backoff_multiplier: f64,
    /// Jitter as a fraction of the backed-off interval, drawn from the
    /// sanctioned RNG, in `[0, 1]`.
    pub backoff_jitter: f64,
    /// Seed for the loss process and backoff jitter.
    pub seed: u64,
    /// Scheduled link/switch failures.
    pub failures: Vec<FailureEvent>,
    /// Degraded (straggler) nodes.
    pub degraded: Vec<NodeDegradation>,
}

impl FaultConfig {
    /// No faults (the paper's default lossless environment).
    pub fn none() -> Self {
        FaultConfig {
            loss: LossModel::None,
            watchdog_ns: 0,
            max_retries: 8,
            backoff_multiplier: 2.0,
            backoff_jitter: 0.1,
            seed: 0,
            failures: Vec::new(),
            degraded: Vec::new(),
        }
    }

    /// Starts a validated builder (see [`FaultConfigBuilder`]).
    pub fn builder() -> FaultConfigBuilder {
        FaultConfigBuilder {
            cfg: FaultConfig::none(),
        }
    }

    /// Whether any fault mechanism is active.
    pub fn is_active(&self) -> bool {
        self.loss.is_lossy() || !self.failures.is_empty() || !self.degraded.is_empty()
    }

    /// Whether faults that *lose data in flight* (and therefore need
    /// watchdog recovery) are active. Pure degradation only slows nodes
    /// down and cannot hang a run.
    pub fn needs_watchdog(&self) -> bool {
        self.loss.is_lossy() || !self.failures.is_empty()
    }

    /// Checks every invariant the old panicking constructor enforced, plus
    /// the burst/backoff/schedule parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let prob = |what: &'static str, value: f64| {
            if (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                Err(ConfigError::ProbabilityOutOfRange { what, value })
            }
        };
        match self.loss {
            LossModel::None => {}
            LossModel::Bernoulli { rate } => prob("loss rate", rate)?,
            LossModel::GilbertElliott {
                p_enter_burst,
                p_exit_burst,
                loss_good,
                loss_bad,
            } => {
                prob("burst entry probability", p_enter_burst)?;
                prob("burst exit probability", p_exit_burst)?;
                prob("good-state loss rate", loss_good)?;
                prob("bad-state loss rate", loss_bad)?;
                if p_exit_burst == 0.0 && p_enter_burst > 0.0 {
                    // An absorbing bad state is a config bug: the run would
                    // degrade to pure Bernoulli(loss_bad) forever.
                    return Err(ConfigError::ProbabilityOutOfRange {
                        what: "burst exit probability (absorbing bad state)",
                        value: p_exit_burst,
                    });
                }
            }
        }
        if self.needs_watchdog() && self.watchdog_ns == 0 {
            return Err(ConfigError::WatchdogUnarmed);
        }
        if !(self.backoff_multiplier >= 1.0 && self.backoff_multiplier.is_finite()) {
            return Err(ConfigError::BackoffOutOfRange {
                what: "backoff multiplier (must be >= 1)",
                value: self.backoff_multiplier,
            });
        }
        if !(0.0..=1.0).contains(&self.backoff_jitter) {
            return Err(ConfigError::BackoffOutOfRange {
                what: "backoff jitter (fraction of interval)",
                value: self.backoff_jitter,
            });
        }
        for ev in &self.failures {
            if let Some(r) = ev.repair_at_ns {
                if r <= ev.at_ns {
                    return Err(ConfigError::RepairBeforeFailure {
                        at_ns: ev.at_ns,
                        repair_at_ns: r,
                    });
                }
            }
        }
        for d in &self.degraded {
            if !(d.compute_slowdown >= 1.0 && d.compute_slowdown.is_finite()) {
                return Err(ConfigError::DegradationOutOfRange {
                    what: "compute slowdown (must be >= 1)",
                    value: d.compute_slowdown,
                });
            }
            if !(d.nic_bandwidth_factor > 0.0 && d.nic_bandwidth_factor <= 1.0) {
                return Err(ConfigError::DegradationOutOfRange {
                    what: "NIC bandwidth factor (must be in (0, 1])",
                    value: d.nic_bandwidth_factor,
                });
            }
        }
        Ok(())
    }

    /// Validates fault targets against a topology (switch indices in
    /// range, degraded nodes exist).
    pub fn validate_against(&self, topology: &Topology) -> Result<(), ConfigError> {
        self.validate()?;
        let switches = topology.switches();
        let nodes = topology.nodes();
        for ev in &self.failures {
            let check = |index: u32| {
                if index < switches {
                    Ok(())
                } else {
                    Err(ConfigError::TargetOutOfRange {
                        what: "switch",
                        index,
                        limit: switches,
                    })
                }
            };
            match ev.target {
                FaultTarget::Switch(s) => check(s)?,
                FaultTarget::SwitchLink { from, to } => {
                    check(from)?;
                    check(to)?;
                }
            }
        }
        for d in &self.degraded {
            if d.node >= nodes {
                return Err(ConfigError::TargetOutOfRange {
                    what: "node",
                    index: d.node,
                    limit: nodes,
                });
            }
        }
        Ok(())
    }
}

/// Validated builder for [`FaultConfig`]: accumulate fault settings, then
/// [`FaultConfigBuilder::build`] checks every invariant and returns
/// `Result` instead of panicking.
///
/// # Example
///
/// ```
/// use netsparse::config::FaultConfig;
///
/// let faults = FaultConfig::builder()
///     .bernoulli_loss(0.01)
///     .watchdog_ns(100_000)
///     .seed(7)
///     .build()
///     .unwrap();
/// assert!(faults.is_active());
/// assert!(FaultConfig::builder().bernoulli_loss(1.5).build().is_err());
/// assert!(FaultConfig::builder().bernoulli_loss(0.01).build().is_err()); // no watchdog
/// ```
#[derive(Debug, Clone)]
pub struct FaultConfigBuilder {
    cfg: FaultConfig,
}

impl FaultConfigBuilder {
    /// Independent per-packet loss at `rate` per switch traversal.
    pub fn bernoulli_loss(mut self, rate: f64) -> Self {
        self.cfg.loss = LossModel::Bernoulli { rate };
        self
    }

    /// Gilbert–Elliott burst loss (see [`LossModel::GilbertElliott`]).
    pub fn burst_loss(
        mut self,
        p_enter_burst: f64,
        p_exit_burst: f64,
        loss_good: f64,
        loss_bad: f64,
    ) -> Self {
        self.cfg.loss = LossModel::GilbertElliott {
            p_enter_burst,
            p_exit_burst,
            loss_good,
            loss_bad,
        };
        self
    }

    /// Any loss model directly.
    pub fn loss(mut self, model: LossModel) -> Self {
        self.cfg.loss = model;
        self
    }

    /// Arms the per-command watchdog with base timeout `ns`.
    pub fn watchdog_ns(mut self, ns: u64) -> Self {
        self.cfg.watchdog_ns = ns;
        self
    }

    /// Retry budget before escalation to degraded mode.
    pub fn max_retries(mut self, n: u32) -> Self {
        self.cfg.max_retries = n;
        self
    }

    /// Exponential-backoff shape (interval multiplier per retry, jitter
    /// fraction).
    pub fn backoff(mut self, multiplier: f64, jitter: f64) -> Self {
        self.cfg.backoff_multiplier = multiplier;
        self.cfg.backoff_jitter = jitter;
        self
    }

    /// Seed for the loss process and jitter stream.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Kills switch `switch` permanently at `at_ns`.
    pub fn fail_switch_at(mut self, switch: u32, at_ns: u64) -> Self {
        self.cfg.failures.push(FailureEvent {
            at_ns,
            target: FaultTarget::Switch(switch),
            repair_at_ns: None,
        });
        self
    }

    /// Kills switch `switch` at `at_ns` and repairs it at `repair_at_ns`.
    pub fn fail_switch_transient(mut self, switch: u32, at_ns: u64, repair_at_ns: u64) -> Self {
        self.cfg.failures.push(FailureEvent {
            at_ns,
            target: FaultTarget::Switch(switch),
            repair_at_ns: Some(repair_at_ns),
        });
        self
    }

    /// Cuts the directed switch-to-switch link permanently at `at_ns`.
    pub fn fail_link_at(mut self, from: u32, to: u32, at_ns: u64) -> Self {
        self.cfg.failures.push(FailureEvent {
            at_ns,
            target: FaultTarget::SwitchLink { from, to },
            repair_at_ns: None,
        });
        self
    }

    /// Cuts the directed link at `at_ns`, repaired at `repair_at_ns`.
    pub fn fail_link_transient(
        mut self,
        from: u32,
        to: u32,
        at_ns: u64,
        repair_at_ns: u64,
    ) -> Self {
        self.cfg.failures.push(FailureEvent {
            at_ns,
            target: FaultTarget::SwitchLink { from, to },
            repair_at_ns: Some(repair_at_ns),
        });
        self
    }

    /// Marks `node` as a straggler: compute `slowdown`× slower, NIC at
    /// `bandwidth_factor` of line rate.
    pub fn degrade_node(mut self, node: u32, slowdown: f64, bandwidth_factor: f64) -> Self {
        self.cfg.degraded.push(NodeDegradation {
            node,
            compute_slowdown: slowdown,
            nic_bandwidth_factor: bandwidth_factor,
        });
        self
    }

    /// Validates and returns the config.
    pub fn build(self) -> Result<FaultConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Which NetSparse mechanisms are active — the ablation axis of Table 8.
///
/// RIG offload itself is always on inside the simulator (it *is* the
/// simulated communication engine); the stages of Table 8 successively
/// enable the remaining mechanisms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mechanisms {
    /// Idx Filter: drop PRs whose property was already fetched.
    pub filter: bool,
    /// Pending-PR coalescing within each RIG unit.
    pub coalesce: bool,
    /// Concatenation at the SNIC.
    pub nic_concat: bool,
    /// Concatenation at NetSparse (edge) switches.
    pub switch_concat: bool,
    /// The in-switch Property Cache.
    pub property_cache: bool,
}

impl Mechanisms {
    /// Everything on — the full NetSparse design.
    pub fn all() -> Self {
        Mechanisms {
            filter: true,
            coalesce: true,
            nic_concat: true,
            switch_concat: true,
            property_cache: true,
        }
    }

    /// RIG offload only (Table 8 row 1).
    pub fn rig_only() -> Self {
        Mechanisms {
            filter: false,
            coalesce: false,
            nic_concat: false,
            switch_concat: false,
            property_cache: false,
        }
    }

    /// The five cumulative ablation stages of Table 8, in order:
    /// RIG, +Filter, +Coalesce, +Conc(NIC), +Switch.
    pub fn ablation_stages() -> [(&'static str, Mechanisms); 5] {
        let rig = Mechanisms::rig_only();
        let filter = Mechanisms {
            filter: true,
            ..rig
        };
        let coalesce = Mechanisms {
            coalesce: true,
            ..filter
        };
        let conc_nic = Mechanisms {
            nic_concat: true,
            ..coalesce
        };
        let switch = Mechanisms {
            switch_concat: true,
            property_cache: true,
            ..conc_nic
        };
        [
            ("RIG", rig),
            ("Filter", filter),
            ("Coalesce", coalesce),
            ("ConcNIC", conc_nic),
            ("Switch", switch),
        ]
    }

    /// Whether edge switches run the NetSparse middle-pipe path at all.
    pub fn netsparse_switch(&self) -> bool {
        self.switch_concat || self.property_cache
    }
}

impl Default for Mechanisms {
    fn default() -> Self {
        Mechanisms::all()
    }
}

/// The in-network reduction extension (the scatter-side dual of the
/// paper's gather mechanisms, after SwitchML/Flare — see PAPERS.md).
///
/// When `enabled`, every issued read PR also emits one partial-sum
/// *contribution* PR ([`netsparse_snic::PrKind::Partial`]) toward the
/// owner of its output row, modeling the scatter half of SpMM. When
/// `in_network` is additionally set, edge switches merge contributions per
/// row in a bounded partial-sum table in their middle pipes before
/// forwarding, cutting the bytes arriving at each root.
/// Comparing `in_network` on vs off at fixed `enabled` isolates the
/// mechanism's saving; `enabled: false` (the default everywhere) produces
/// zero Partial traffic and leaves every existing scenario byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceConfig {
    /// Whether scatter contributions flow at all.
    pub enabled: bool,
    /// Whether edge switches merge contributions in-network (off =
    /// contributions travel to the root unmerged, the software baseline).
    pub in_network: bool,
    /// Partial-sum table capacity per switch, in entries (rows).
    pub table_entries: usize,
    /// Aggregation window per table entry, nanoseconds: how long a row
    /// waits for more contributions before the merged PR moves on.
    pub flush_ns: u64,
}

impl ReduceConfig {
    /// Reduction off — the default; no Partial traffic exists.
    pub fn disabled() -> Self {
        ReduceConfig {
            enabled: false,
            in_network: false,
            table_entries: 0,
            flush_ns: 0,
        }
    }

    /// Contributions flow and switches merge them (the mechanism under
    /// test), with a table/window sized for the mini profile.
    pub fn in_network() -> Self {
        ReduceConfig {
            enabled: true,
            in_network: true,
            table_entries: 4096,
            flush_ns: 200,
        }
    }

    /// Contributions flow but switches only forward — the software
    /// baseline the in-network variant is compared against.
    pub fn software_baseline() -> Self {
        ReduceConfig {
            in_network: false,
            ..ReduceConfig::in_network()
        }
    }
}

impl Default for ReduceConfig {
    fn default() -> Self {
        ReduceConfig::disabled()
    }
}

/// Full configuration of a simulated cluster.
///
/// Two profiles are provided:
///
/// - [`ClusterConfig::paper`] — Table 5 verbatim: 400 Gbps links, 450 ns
///   link / 300 ns switch latency (2.4 µs / 5.4 µs zero-load RTTs), 32 MB
///   Property Caches, 32 k RIG batches.
/// - [`ClusterConfig::mini`] — the same machine scaled coherently for the
///   synthetic workloads in this repository (~1/40 of the paper's
///   per-node nonzeros). Kernel time scales roughly with
///   `matrix bytes / bandwidth`, so with bandwidth ÷4 runtimes shrink
///   ~10x; every *fixed* per-operation cost is therefore also scaled ÷10 —
///   link/switch/PCIe latencies and per-command host software — to
///   preserve each cost's share of the kernel. Property Caches are ÷16
///   (preserving the cache-capacity-to-rack-demand ratio) and RIG batches
///   are 1024 (preserving commands-per-unit). Concatenation delay budgets
///   are *not* scaled: they are set by PR generation rates, which the
///   scaling leaves unchanged.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Network topology.
    pub topology: Topology,
    /// SmartNIC parameters.
    pub snic: SnicConfig,
    /// Edge-switch parameters.
    pub switch: SwitchConfig,
    /// Protocol header sizes.
    pub headers: HeaderSpec,
    /// Network link parameters (node-switch and switch-switch).
    pub link: LinkParams,
    /// Property size in 4-byte elements (the paper's K).
    pub k: u32,
    /// Nonzeros per RIG command.
    pub batch_size: usize,
    /// Active mechanisms.
    pub mechanisms: Mechanisms,
    /// Host software cost to issue one RIG command, nanoseconds.
    pub host_cmd_ns: u64,
    /// §9.4's future-work idea, implemented: dynamic adjustment of RIG
    /// parallelism. The host watches the duplicate-response rate (the
    /// signature of concurrent commands re-fetching each other's columns,
    /// which per-unit coalescing cannot see) and AIMD-throttles how many
    /// commands run at once.
    pub adaptive_batch: bool,
    /// Concatenator implementation (dedicated CQs vs §7.2 virtual CQs).
    pub concat_impl: ConcatImpl,
    /// In-network reduction extension; defaults to disabled (no Partial
    /// traffic, byte-identical to the pre-extension simulator).
    pub reduce: ReduceConfig,
    /// Fault injection (§7.1); defaults to lossless.
    pub faults: FaultConfig,
    /// Liveness budgets for [`try_simulate`](crate::sim::try_simulate):
    /// an event budget and a zero-delay-loop bound, handed straight to
    /// the engine's run loop. A tripped budget is
    /// [`SimError::Stalled`](crate::sim::SimError::Stalled). Defaults to
    /// none, which never stalls and leaves every digest unchanged.
    pub limits: Liveness,
}

impl ClusterConfig {
    /// The paper's Table 5 configuration for `topology` at property size
    /// `k`.
    pub fn paper(topology: Topology, k: u32) -> Self {
        ClusterConfig {
            topology,
            snic: SnicConfig::paper(),
            switch: SwitchConfig::paper(),
            headers: HeaderSpec::paper(),
            link: LinkParams::new(400.0, 450),
            k,
            batch_size: 32 * 1024,
            mechanisms: Mechanisms::all(),
            host_cmd_ns: 300,
            adaptive_batch: false,
            concat_impl: ConcatImpl::Dedicated,
            reduce: ReduceConfig::disabled(),
            faults: FaultConfig::none(),
            limits: Liveness::none(),
        }
    }

    /// The scaled profile used by the default experiments (see type-level
    /// docs for the scaling rationale).
    pub fn mini(topology: Topology, k: u32) -> Self {
        let mut cfg = ClusterConfig::paper(topology, k);
        cfg.link = LinkParams::new(100.0, 45);
        cfg.snic.pcie_latency_ns = 20;
        cfg.switch.latency_ns = 30;
        cfg.switch.cache.capacity_bytes = 2 << 20;
        cfg.batch_size = 2048;
        cfg.host_cmd_ns = 30;
        cfg
    }

    /// Property payload bytes (4 per element).
    pub fn payload_bytes(&self) -> u32 {
        4 * self.k
    }

    /// The SNIC clock.
    pub fn snic_clock(&self) -> Clock {
        Clock::from_ghz(self.snic.clock_ghz)
    }

    /// The switch pipe clock.
    pub fn switch_clock(&self) -> Clock {
        Clock::from_ghz(self.switch.clock_ghz)
    }

    /// The SNIC concatenation delay budget as simulated time.
    pub fn nic_concat_delay(&self) -> SimTime {
        self.snic_clock().cycles(self.snic.concat_delay_cycles)
    }

    /// The switch concatenation delay budget as simulated time.
    pub fn switch_concat_delay(&self) -> SimTime {
        self.switch_clock().cycles(self.switch.concat_delay_cycles)
    }

    /// Zero-load switch traversal latency.
    pub fn switch_latency(&self) -> SimTime {
        SimTime::from_ns(self.switch.latency_ns)
    }

    /// PCIe one-way latency.
    pub fn pcie_latency(&self) -> SimTime {
        SimTime::from_ns(self.snic.pcie_latency_ns)
    }

    /// PCIe link parameters (for the host-SNIC DMA model). The paper's
    /// 256 GB/s Gen6 x16 link is 2048 Gbps.
    pub fn pcie_link(&self) -> LinkParams {
        LinkParams::new(self.snic.pcie_gbps * 8.0, self.snic.pcie_latency_ns)
    }

    /// Validates the whole configuration — structural parameters plus the
    /// fault schedule against the topology — so a bad config fails with a
    /// message before the simulator starts, not a panic inside it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // The cache geometry and the reduce table matter only when their
        // mechanism builds them.
        let cache = self.mechanisms.property_cache;
        let reduce = self.reduce.enabled && self.reduce.in_network;
        let zero = [
            ("k", self.k == 0),
            ("batch_size", self.batch_size == 0),
            ("snic.rig_units", self.snic.rig_units == 0),
            ("snic.pending_entries", self.snic.pending_entries == 0),
            ("switch.cache.ways", cache && self.switch.cache.ways == 0),
            (
                "switch.cache.segment_bytes",
                cache && self.switch.cache.segment_bytes == 0,
            ),
            (
                "reduce.table_entries",
                reduce && self.reduce.table_entries == 0,
            ),
        ];
        if let Some(&(what, _)) = zero.iter().find(|&&(_, is_zero)| is_zero) {
            return Err(ConfigError::DegenerateCluster { what });
        }
        for (what, value) in [
            ("snic.clock_ghz", self.snic.clock_ghz),
            ("snic.pcie_gbps", self.snic.pcie_gbps),
            ("switch.clock_ghz", self.switch.clock_ghz),
            ("link.bandwidth_bps", self.link.bandwidth_bps),
        ] {
            if !(value > 0.0 && value.is_finite()) {
                return Err(ConfigError::NotPositive { what, value });
            }
        }
        if cache {
            let (bytes, max) = (self.payload_bytes(), self.switch.cache.max_property_bytes());
            if bytes > max {
                return Err(ConfigError::ExceedsCacheRow { bytes, max });
            }
        }
        if let ConcatImpl::Virtual(pool) = self.concat_impl {
            // `ConcatPoint::virtualized` asserts on these; reject them here
            // so `try_simulate` returns an error instead of panicking.
            if pool.physical_queues == 0 {
                return Err(ConfigError::DegenerateCluster {
                    what: "concat_impl.physical_queues",
                });
            }
            if pool.physical_bytes == 0 {
                return Err(ConfigError::DegenerateCluster {
                    what: "concat_impl.physical_bytes",
                });
            }
            if pool.physical_bytes > self.snic.mtu {
                return Err(ConfigError::ExceedsMtu {
                    what: "concat_impl.physical_bytes",
                    bytes: pool.physical_bytes,
                    mtu: self.snic.mtu,
                });
            }
        }
        self.faults.validate_against(&self.topology)
    }

    /// A coarse upper estimate of one RIG command's worst-case round-trip,
    /// in nanoseconds: host issue + PCIe both ways + concatenation delay
    /// budgets + diameter-many store-and-forward hops out and back +
    /// remote service. A watchdog below this fires on *healthy* commands,
    /// and the resulting restart storm is indistinguishable from loss in
    /// the aggregate stats — [`crate::metrics::FaultReport`] carries a
    /// warning when `faults.watchdog_ns` is under this bound.
    #[expect(
        clippy::cast_sign_loss,
        reason = "every term is a non-negative latency, so the ceiling of their sum is too"
    )]
    pub fn estimated_worst_rtt_ns(&self) -> u64 {
        // Network diameter in switch hops (edge..edge), per topology.
        let switch_hops: u64 = match self.topology {
            Topology::LeafSpine { .. } => 3, // ToR -> spine -> ToR
            Topology::HyperX { .. } => 4,    // 3 corrections + src edge
            Topology::Dragonfly { .. } => 4, // src sw, gw, gw, dst sw
        };
        // Store-and-forward: each hop pays link latency + switch traversal
        // + serialization of a full MTU.
        let mtu_ns = self.link.serialization(self.snic.mtu as u64).as_ns_f64();
        let hop_ns = self.link.latency.as_ns_f64() + self.switch.latency_ns as f64 + mtu_ns;
        let net_one_way = (switch_hops + 1) as f64 * hop_ns;
        let concat_budget =
            self.nic_concat_delay().as_ns_f64() + self.switch_concat_delay().as_ns_f64();
        let pcie = 2.0 * self.pcie_latency().as_ns_f64();
        let serve = self.payload_bytes() as f64 / 8.0; // ~8 B/ns serve rate floor
        (self.host_cmd_ns as f64 + pcie + concat_budget + 2.0 * net_one_way + serve).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_matches_table5() {
        let c = ClusterConfig::paper(Topology::leaf_spine_128(), 16);
        assert_eq!(c.payload_bytes(), 64);
        assert_eq!(c.batch_size, 32 * 1024);
        assert_eq!(c.link.bandwidth_bps, 400e9);
        // 500 SNIC cycles at 2.2 GHz ~ 227 ns.
        let d = c.nic_concat_delay();
        assert!((d.as_ns_f64() - 227.27).abs() < 1.0, "{d}");
        // 125 switch cycles at 2 GHz = 62.5 ns.
        assert_eq!(c.switch_concat_delay(), SimTime::from_ps(62_500));
    }

    #[test]
    fn mini_profile_scales_coherently() {
        let p = ClusterConfig::paper(Topology::leaf_spine_128(), 16);
        let m = ClusterConfig::mini(Topology::leaf_spine_128(), 16);
        // Bandwidth and latency scale together: BDP shrinks ~16x.
        assert!(m.link.bandwidth_bps < p.link.bandwidth_bps);
        assert!(m.switch.cache.capacity_bytes < p.switch.cache.capacity_bytes);
        // Concat delays are NOT scaled.
        assert_eq!(m.nic_concat_delay(), p.nic_concat_delay());
    }

    #[test]
    fn fault_builder_validates() {
        // Happy path.
        let f = FaultConfig::builder()
            .burst_loss(0.01, 0.25, 0.0, 0.9)
            .watchdog_ns(100_000)
            .max_retries(4)
            .backoff(2.0, 0.2)
            .seed(7)
            .fail_switch_transient(9, 1_000, 5_000)
            .degrade_node(3, 2.0, 0.5)
            .build()
            .unwrap();
        assert!(f.is_active());
        assert!(f.needs_watchdog());

        // Loss-rate range.
        assert!(matches!(
            FaultConfig::builder().bernoulli_loss(1.5).build(),
            Err(ConfigError::ProbabilityOutOfRange { .. })
        ));
        // Watchdog-armed.
        assert_eq!(
            FaultConfig::builder().bernoulli_loss(0.01).build(),
            Err(ConfigError::WatchdogUnarmed)
        );
        // A scheduled failure also requires a watchdog (its packets
        // blackhole until failover kicks in).
        assert_eq!(
            FaultConfig::builder().fail_switch_at(8, 100).build(),
            Err(ConfigError::WatchdogUnarmed)
        );
        // Burst parameters.
        assert!(FaultConfig::builder()
            .burst_loss(0.01, -0.1, 0.0, 1.0)
            .watchdog_ns(1)
            .build()
            .is_err());
        // Absorbing bad state.
        assert!(FaultConfig::builder()
            .burst_loss(0.01, 0.0, 0.0, 1.0)
            .watchdog_ns(1)
            .build()
            .is_err());
        // Backoff and degradation shapes.
        assert!(FaultConfig::builder().backoff(0.5, 0.1).build().is_err());
        assert!(FaultConfig::builder().backoff(2.0, 1.5).build().is_err());
        assert!(FaultConfig::builder()
            .degrade_node(0, 0.5, 1.0)
            .build()
            .is_err());
        assert!(FaultConfig::builder()
            .degrade_node(0, 2.0, 0.0)
            .build()
            .is_err());
        // Repair before failure.
        assert!(FaultConfig::builder()
            .fail_switch_transient(8, 5_000, 1_000)
            .watchdog_ns(1)
            .build()
            .is_err());
    }

    #[test]
    fn cluster_validation_catches_out_of_range_targets() {
        let mut cfg = ClusterConfig::mini(Topology::leaf_spine_128(), 16);
        cfg.validate().unwrap();
        // Leaf-spine 128 has 24 switches; 99 is out of range.
        cfg.faults = FaultConfig::builder()
            .fail_switch_at(99, 100)
            .watchdog_ns(1)
            .build()
            .unwrap();
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::TargetOutOfRange { what: "switch", .. })
        ));
        cfg.faults = FaultConfig::builder()
            .degrade_node(999, 2.0, 1.0)
            .build()
            .unwrap();
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::TargetOutOfRange { what: "node", .. })
        ));
        cfg.faults = FaultConfig::none();
        cfg.k = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::DegenerateCluster { what: "k" })
        ));
    }

    #[test]
    fn reduce_config_validates() {
        let mut cfg = ClusterConfig::mini(Topology::leaf_spine_128(), 16);
        assert_eq!(cfg.reduce, ReduceConfig::disabled());
        cfg.reduce = ReduceConfig::in_network();
        cfg.validate().unwrap();
        // In-network merging with a zero-entry table is degenerate...
        cfg.reduce.table_entries = 0;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::DegenerateCluster {
                what: "reduce.table_entries"
            })
        ));
        // ...but the software baseline never touches the table.
        cfg.reduce = ReduceConfig::software_baseline();
        cfg.reduce.table_entries = 0;
        cfg.validate().unwrap();
    }

    #[test]
    fn config_error_messages_are_informative() {
        let msg = ConfigError::WatchdogUnarmed.to_string();
        assert!(msg.contains("watchdog"), "{msg}");
        let msg = ConfigError::ProbabilityOutOfRange {
            what: "loss rate",
            value: 2.0,
        }
        .to_string();
        assert!(msg.contains("loss rate") && msg.contains('2'), "{msg}");
    }

    #[test]
    fn worst_rtt_estimate_is_sane() {
        // The mini profile's estimate must sit well under the test suite's
        // 50-100 us watchdogs (otherwise every faulted test would warn)
        // but above one zero-load network RTT.
        let m = ClusterConfig::mini(Topology::leaf_spine_128(), 16);
        let est = m.estimated_worst_rtt_ns();
        assert!(est > 500, "{est}");
        assert!(est < 50_000, "{est}");
        // The paper profile is slower in absolute terms.
        let p = ClusterConfig::paper(Topology::leaf_spine_128(), 16);
        assert!(p.estimated_worst_rtt_ns() > est);
    }

    #[test]
    fn ablation_stages_are_cumulative() {
        let stages = Mechanisms::ablation_stages();
        let count = |m: Mechanisms| {
            [
                m.filter,
                m.coalesce,
                m.nic_concat,
                m.switch_concat,
                m.property_cache,
            ]
            .iter()
            .filter(|&&b| b)
            .count()
        };
        let mut prev = 0;
        for (name, m) in stages {
            let c = count(m);
            assert!(c >= prev, "stage {name} lost mechanisms");
            prev = c;
        }
        assert_eq!(stages[4].1, Mechanisms::all());
    }
}
