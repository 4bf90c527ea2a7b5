//! Link timing: serialization, propagation and backlog tracking.

use netsparse_desim::SimTime;

#[cfg(feature = "trace")]
use netsparse_desim::trace::{TraceEvent, Tracer, TrackId};

/// Static link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Line rate in bits per second (paper: 400 Gbps per link).
    pub bandwidth_bps: f64,
    /// One-way propagation latency (paper: 450 ns per network link).
    pub latency: SimTimeNs,
}

/// Serializable nanosecond wrapper for [`SimTime`] inside configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimTimeNs(pub u64);

impl From<SimTimeNs> for SimTime {
    fn from(v: SimTimeNs) -> SimTime {
        SimTime::from_ns(v.0)
    }
}

impl LinkParams {
    /// Creates parameters from a Gbps line rate and nanosecond latency.
    pub fn new(bandwidth_gbps: f64, latency_ns: u64) -> Self {
        assert!(
            bandwidth_gbps > 0.0 && bandwidth_gbps.is_finite(),
            "bandwidth must be positive"
        );
        LinkParams {
            bandwidth_bps: bandwidth_gbps * 1e9,
            latency: SimTimeNs(latency_ns),
        }
    }

    /// Time to serialize `bytes` onto the wire.
    pub fn serialization(&self, bytes: u64) -> SimTime {
        SimTime::serialization(bytes, self.bandwidth_bps)
    }
}

/// Runtime state of one directed link: an output-queued,
/// store-and-forward wire.
///
/// A packet handed to [`Link::transmit`] at time `now` begins serializing
/// when the wire frees up, occupies it for `bytes * 8 / bandwidth`, and
/// arrives one propagation latency after its last bit leaves. Backlog
/// (`depart - now`) is the output-queueing delay; the simulator tracks its
/// maximum as a buffer-occupancy statistic.
///
/// # Example
///
/// ```
/// use netsparse_netsim::{Link, LinkParams};
/// use netsparse_desim::SimTime;
///
/// let mut link = Link::new(LinkParams::new(400.0, 450));
/// let t0 = SimTime::ZERO;
/// let a1 = link.transmit(t0, 1_500); // 1500B at 400G = 30ns ser
/// let a2 = link.transmit(t0, 1_500); // queues behind the first
/// assert_eq!(a1, SimTime::from_ns(480));
/// assert_eq!(a2, SimTime::from_ns(510));
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    params: LinkParams,
    busy_until: SimTime,
    max_backlog: SimTime,
    bytes: u64,
    packets: u64,
    /// The last packet size transmitted and its serialization time. A
    /// link mostly carries runs of one size, so this spares the f64
    /// divide-and-round of [`LinkParams::serialization`] per packet.
    last_serialization: (u64, SimTime),
    #[cfg(feature = "trace")]
    tracer: Option<(Tracer, TrackId)>,
}

impl Link {
    /// Creates an idle link.
    pub fn new(params: LinkParams) -> Self {
        Link {
            params,
            busy_until: SimTime::ZERO,
            max_backlog: SimTime::ZERO,
            bytes: 0,
            packets: 0,
            last_serialization: (0, params.serialization(0)),
            #[cfg(feature = "trace")]
            tracer: None,
        }
    }

    /// Attaches a tracer; every transmit is recorded as a `link_tx` on
    /// `track` (this link's wire lane), carrying the packet's bytes and
    /// the queueing delay it saw.
    #[cfg(feature = "trace")]
    pub fn set_tracer(&mut self, tracer: Tracer, track: TrackId) {
        self.tracer = Some((tracer, track));
    }

    /// The link's static parameters.
    pub fn params(&self) -> &LinkParams {
        &self.params
    }

    /// Enqueues a packet of `bytes` at `now`; returns its arrival time at
    /// the far end.
    pub fn transmit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let depart = self.busy_until.max(now);
        let backlog = depart.saturating_sub(now);
        self.max_backlog = self.max_backlog.max(backlog);
        if self.last_serialization.0 != bytes {
            self.last_serialization = (bytes, self.params.serialization(bytes));
        }
        self.busy_until = depart + self.last_serialization.1;
        self.bytes += bytes;
        self.packets += 1;
        #[cfg(feature = "trace")]
        if let Some((tracer, track)) = &self.tracer {
            tracer.record(
                *track,
                TraceEvent::LinkTx {
                    bytes: bytes as u32,
                    backlog_ps: backlog.as_ps(),
                },
            );
        }
        self.busy_until + self.params.latency.into()
    }

    /// When the wire next becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Worst queueing delay seen by any packet on this link.
    pub fn max_backlog(&self) -> SimTime {
        self.max_backlog
    }

    /// Total bytes carried.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total packets carried.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Utilization of the line rate over `[0, elapsed]`: the carried
    /// bits per second over the line rate (0 for zero elapsed time).
    pub fn utilization(&self, elapsed: SimTime) -> f64 {
        let secs = elapsed.as_secs_f64();
        let line_rate = self.params.bandwidth_bps;
        if secs <= 0.0 || line_rate <= 0.0 {
            0.0
        } else {
            self.bytes as f64 * 8.0 / secs / line_rate
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_matches_line_rate() {
        let p = LinkParams::new(400.0, 0);
        // 1500 bytes at 400 Gbps = 30 ns.
        assert_eq!(p.serialization(1_500), SimTime::from_ns(30));
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut l = Link::new(LinkParams::new(100.0, 100));
        // 1250 bytes at 100 Gbps = 100 ns serialization.
        let a1 = l.transmit(SimTime::ZERO, 1_250);
        let a2 = l.transmit(SimTime::ZERO, 1_250);
        assert_eq!(a1, SimTime::from_ns(200));
        assert_eq!(a2, SimTime::from_ns(300));
        assert_eq!(l.max_backlog(), SimTime::from_ns(100));
        assert_eq!(l.bytes(), 2_500);
        assert_eq!(l.packets(), 2);
    }

    #[test]
    fn idle_gaps_do_not_queue() {
        let mut l = Link::new(LinkParams::new(100.0, 0));
        l.transmit(SimTime::ZERO, 1_250);
        let a = l.transmit(SimTime::from_us(1), 1_250);
        assert_eq!(a, SimTime::from_ns(1_100));
        assert_eq!(l.max_backlog(), SimTime::ZERO);
    }

    #[test]
    fn utilization_accounts_for_carried_bytes() {
        let mut l = Link::new(LinkParams::new(100.0, 0));
        l.transmit(SimTime::ZERO, 12_500); // 1 us of wire time
        let u = l.utilization(SimTime::from_us(2));
        assert!((u - 0.5).abs() < 1e-9, "{u}");
        assert_eq!(l.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn mixed_sizes_serialize_like_the_closed_form() {
        let p = LinkParams::new(100.0, 0);
        let mut l = Link::new(p);
        let mut busy = SimTime::ZERO;
        for bytes in [0, 64, 64, 1_500, 64, 1_500, 1_500, 0, 9_000] {
            l.transmit(SimTime::ZERO, bytes);
            busy += p.serialization(bytes);
            assert_eq!(l.busy_until(), busy, "after a {bytes}-byte packet");
        }
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_zero_bandwidth() {
        LinkParams::new(0.0, 1);
    }
}
