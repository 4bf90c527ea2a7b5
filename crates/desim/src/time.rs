//! Simulated time.
//!
//! Time is tracked in integer **picoseconds** inside a [`SimTime`] newtype.
//! Picosecond resolution lets us represent single cycles of the fastest
//! clocks in the system (the 2.2 GHz SNIC clock is ~454.5 ps per cycle)
//! without rounding error accumulating over a simulation, while a `u64`
//! still covers more than 200 days of simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time (or a span of it), in picoseconds.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic impls (`Add`, `Sub`, scalar `Mul`/`Div`) make either usage
/// read naturally, mirroring how SST and gem5 treat ticks.
///
/// # Example
///
/// ```
/// use netsparse_desim::SimTime;
/// let t = SimTime::from_ns(450) + SimTime::from_us(2);
/// assert_eq!(t.as_ps(), 2_450_000);
/// assert!((t.as_secs_f64() - 2.45e-6).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero timestamp (simulation start).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable timestamp; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a timestamp from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a timestamp from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a timestamp from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a timestamp from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a timestamp from (possibly fractional) seconds, rounding to
    /// the nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large for the `u64`
    /// picosecond range.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs >= 0.0 && secs.is_finite(),
            "SimTime::from_secs_f64: invalid seconds value {secs}"
        );
        let ps = secs * 1e12;
        assert!(ps <= u64::MAX as f64, "SimTime::from_secs_f64: overflow");
        SimTime(ps.round() as u64)
    }

    /// Creates a timestamp from fractional picoseconds, rounding to the
    /// nearest whole picosecond.
    ///
    /// This is the one sanctioned float→time conversion for model code,
    /// so rounding behaviour stays uniform across the stack: clippy's
    /// `cast_sign_loss`, denied in `netsparse`, `netsparse-snic`,
    /// `netsparse-switch`, `netsparse-netsim` and the engine, flags an
    /// ad-hoc `... as u64` cast, and `disallowed_types` rules out
    /// `std::time::Duration` and its `from_secs_f64` in every library
    /// crate (`docs/STATIC_ANALYSIS.md`).
    ///
    /// # Panics
    ///
    /// Panics if `ps` is negative, NaN, or too large for the `u64` range.
    #[inline]
    pub fn from_ps_f64(ps: f64) -> Self {
        assert!(
            ps >= 0.0 && ps.is_finite(),
            "SimTime::from_ps_f64: invalid picosecond value {ps}"
        );
        assert!(ps <= u64::MAX as f64, "SimTime::from_ps_f64: overflow");
        SimTime(ps.round() as u64)
    }

    /// The serialization delay of `bytes` over a link of `bandwidth_bps`
    /// bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not strictly positive and finite.
    #[inline]
    pub fn serialization(bytes: u64, bandwidth_bps: f64) -> Self {
        assert!(
            bandwidth_bps > 0.0 && bandwidth_bps.is_finite(),
            "SimTime::serialization: invalid bandwidth {bandwidth_bps}"
        );
        SimTime::from_secs_f64(bytes as f64 * 8.0 / bandwidth_bps)
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Time as fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Time as fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: returns zero rather than wrapping when
    /// `other` is later than `self`.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub fn checked_add(self, other: SimTime) -> Option<SimTime> {
        self.0.checked_add(other.0).map(SimTime)
    }

    /// The later of two timestamps.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two timestamps.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps < 1_000 {
            write!(f, "{ps}ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else {
            write!(f, "{:.6}s", ps as f64 / 1e12)
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

/// A fixed-frequency clock used to convert between cycle counts and
/// [`SimTime`].
///
/// Hardware models in the SNIC and switch crates express their costs in
/// cycles of their local clock (the paper's SNIC runs at 2.2 GHz, switch
/// pipes at 2 GHz); the event loop converts with a `Clock`.
///
/// # Example
///
/// ```
/// use netsparse_desim::{Clock, SimTime};
/// let snic = Clock::from_ghz(2.2);
/// let t = snic.cycles(2_200_000);
/// assert_eq!(t, SimTime::from_ms(1));
/// assert_eq!(snic.cycles_in(SimTime::from_ms(1)), 2_200_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    period_ps: f64,
    freq_hz: f64,
}

impl Clock {
    /// Creates a clock with the given frequency in hertz.
    ///
    /// # Panics
    ///
    /// Panics if `freq_hz` is not strictly positive and finite.
    pub fn from_hz(freq_hz: f64) -> Self {
        assert!(
            freq_hz > 0.0 && freq_hz.is_finite(),
            "Clock::from_hz: invalid frequency {freq_hz}"
        );
        Clock {
            period_ps: 1e12 / freq_hz,
            freq_hz,
        }
    }

    /// Creates a clock with the given frequency in gigahertz.
    pub fn from_ghz(freq_ghz: f64) -> Self {
        Clock::from_hz(freq_ghz * 1e9)
    }

    /// The clock frequency in hertz.
    #[inline]
    pub fn freq_hz(&self) -> f64 {
        self.freq_hz
    }

    /// The period of one cycle.
    #[inline]
    pub fn period(&self) -> SimTime {
        SimTime::from_ps(self.period_ps.round() as u64)
    }

    /// The duration of `n` cycles, rounded to the nearest picosecond.
    #[inline]
    pub fn cycles(&self, n: u64) -> SimTime {
        SimTime::from_ps((self.period_ps * n as f64).round() as u64)
    }

    /// How many whole cycles fit in `span`.
    #[inline]
    pub fn cycles_in(&self, span: SimTime) -> u64 {
        (span.as_ps() as f64 / self.period_ps).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_ns(3).as_ps(), 3_000);
        assert_eq!(SimTime::from_us(3).as_ps(), 3_000_000);
        assert_eq!(SimTime::from_ms(3).as_ps(), 3_000_000_000);
        assert_eq!(SimTime::from_secs_f64(1.5e-9), SimTime::from_ps(1_500));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimTime::ZERO.to_string(), "0s");
        assert_eq!(SimTime::from_ps(12).to_string(), "12ps");
        assert_eq!(SimTime::from_ns(450).to_string(), "450.000ns");
        assert_eq!(SimTime::from_us(5).to_string(), "5.000us");
        assert_eq!(SimTime::from_ms(7).to_string(), "7.000ms");
    }

    #[test]
    fn arithmetic_behaves() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(4);
        assert_eq!(a + b, SimTime::from_ns(14));
        assert_eq!(a - b, SimTime::from_ns(6));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a * 3, SimTime::from_ns(30));
        assert_eq!(a / 2, SimTime::from_ns(5));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_of_spans() {
        let total: SimTime = (1..=4).map(SimTime::from_ns).sum();
        assert_eq!(total, SimTime::from_ns(10));
    }

    #[test]
    fn clock_cycle_math() {
        let c = Clock::from_ghz(2.0);
        assert_eq!(c.period(), SimTime::from_ps(500));
        assert_eq!(c.cycles(125), SimTime::from_ps(62_500));
        assert_eq!(c.cycles_in(SimTime::from_ns(1)), 2);
    }

    #[test]
    fn snic_clock_is_subcycle_accurate() {
        // 2.2 GHz does not divide evenly into ps; accumulate over a large
        // cycle count and check the relative error stays tiny.
        let c = Clock::from_ghz(2.2);
        let t = c.cycles(22_000_000); // 10 ms worth
        let err = (t.as_secs_f64() - 0.01).abs() / 0.01;
        assert!(err < 1e-9, "relative error {err}");
    }

    #[test]
    #[should_panic(expected = "invalid frequency")]
    fn clock_rejects_zero_frequency() {
        let _ = Clock::from_hz(0.0);
    }

    #[test]
    #[should_panic(expected = "invalid seconds")]
    fn from_secs_rejects_negative() {
        let _ = SimTime::from_secs_f64(-1.0);
    }
}
