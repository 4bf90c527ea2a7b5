//! The event queue and the simulation driver.
//!
//! [`EventQueue`] is a deterministic priority queue of `(time, event)` pairs
//! on a [`BinaryHeap`]: ties in time are broken by insertion order, so a
//! simulation is a pure function of its inputs. [`Engine`] wraps the queue
//! with the run loop — event counting, the optional [`Liveness`] budgets
//! and the runtime auditor — and hands each handler a [`Scheduler`] view
//! through which new events are pushed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::SimTime;

/// Liveness limits for [`Engine::run`].
///
/// Both limits are optional; the default (`Liveness::none()`) imposes
/// nothing and the run ends when the queue drains. The limits detect the
/// two ways a discrete-event model can fail to terminate: unbounded event
/// cascades (caught by `max_events`) and zero-delay loops where events
/// keep firing at a frozen instant (caught by `max_stagnant_events`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Liveness {
    /// Abort once this many events have been processed while work is
    /// still pending. A run that *finishes* on its budget's last event
    /// is not a stall.
    pub max_events: Option<u64>,
    /// Abort once this many consecutive events run without simulated
    /// time advancing (a zero-delay livelock).
    pub max_stagnant_events: Option<u64>,
}

impl Liveness {
    /// No limits: the run drains the queue and never stalls.
    pub fn none() -> Self {
        Liveness::default()
    }
}

/// Why [`Engine::run`] aborted a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// The event budget was exhausted with events still pending.
    EventBudget,
    /// Simulated time stopped advancing: too many consecutive events
    /// ran at the same instant.
    TimeFrozen,
}

/// A structured no-progress report from [`Engine::run`] — the
/// alternative to a simulation that hangs forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// What tripped the watchdog.
    pub cause: StallCause,
    /// Simulated time at the abort.
    pub now: SimTime,
    /// Events processed before the abort.
    pub processed: u64,
    /// Events still pending in the queue (work the model never got to).
    pub pending: usize,
    /// Consecutive events processed at the frozen instant (0 unless the
    /// cause is [`StallCause::TimeFrozen`]).
    pub stagnant_events: u64,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.cause {
            StallCause::EventBudget => write!(
                f,
                "event budget exhausted at t={} after {} events ({} still pending)",
                self.now, self.processed, self.pending
            ),
            StallCause::TimeFrozen => write!(
                f,
                "time frozen at t={}: {} consecutive events without progress \
                 ({} processed, {} pending)",
                self.now, self.stagnant_events, self.processed, self.pending
            ),
        }
    }
}

impl std::error::Error for StallReport {}

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (time, seq) pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic min-priority queue of timestamped events.
///
/// Events that share a timestamp are delivered in the order they were
/// scheduled (FIFO), which makes simulations reproducible run-to-run and
/// across machines: every entry carries a unique insertion sequence
/// number, so `(time, seq)` is a total order and the pop stream is a pure
/// function of the pushes.
///
/// # Example
///
/// ```
/// use netsparse_desim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(5), "b");
/// q.push(SimTime::from_ns(1), "a");
/// q.push(SimTime::from_ns(5), "c");
/// assert_eq!(q.pop(), Some((SimTime::from_ns(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(5), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(5), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// The scheduling interface handed to event handlers.
///
/// A `Scheduler` only exposes *pushing* events; popping is owned by the
/// [`Engine`] run loop. Handlers may schedule at the current time or later.
pub struct Scheduler<'a, E> {
    queue: &'a mut EventQueue<E>,
    now: SimTime,
}

impl<'a, E> Scheduler<'a, E> {
    /// Creates a standalone scheduler view over `queue`, frozen at `now`.
    ///
    /// The [`Engine`] run loop constructs schedulers internally; this
    /// constructor exists for component test benches that drive a single
    /// handler against a bare queue without an engine.
    #[must_use]
    pub fn at(queue: &'a mut EventQueue<E>, now: SimTime) -> Self {
        Scheduler { queue, now }
    }
}

impl<E> Scheduler<'_, E> {
    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past — causality violations are always
    /// bugs in a model, and failing loudly here localizes them.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "attempted to schedule event in the past: now={}, requested={}",
            self.now,
            time
        );
        self.queue.push(time, event);
    }

    /// Schedules `event` after a relative delay from now.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` at the current instant (delivered after all events
    /// already queued for this instant, preserving FIFO order).
    #[inline]
    pub fn schedule_now(&mut self, event: E) {
        self.queue.push(self.now, event);
    }

    /// Schedules a whole batch of `(time, event)` pairs in iteration
    /// order: one call, consecutive sequence numbers, and exactly the
    /// delivery order N individual [`Scheduler::schedule`] calls would
    /// produce. Batch emitters (link flushes in the fabric) use this so
    /// a drained pool buffer turns into one scheduled batch.
    ///
    /// # Panics
    ///
    /// Panics if any item's time is in the past, like `schedule`.
    #[inline]
    pub fn schedule_batch(&mut self, batch: impl IntoIterator<Item = (SimTime, E)>) {
        for (time, event) in batch {
            self.schedule(time, event);
        }
    }
}

/// The simulation driver: an [`EventQueue`] plus a run loop.
///
/// `Engine` is generic over the event payload so different simulators (the
/// full NetSparse cluster, component test benches, microbenchmarks) can
/// reuse the same kernel. See the crate-level example for usage.
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    #[cfg(any(debug_assertions, feature = "audit"))]
    auditor: crate::audit::Auditor,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            #[cfg(any(debug_assertions, feature = "audit"))]
            auditor: crate::audit::Auditor::new(),
        }
    }

    /// Schedules an event from outside the run loop (initial stimulus).
    pub fn schedule(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "attempted to schedule event in the past: now={}, requested={}",
            self.now,
            time
        );
        self.queue.push(time, event);
    }

    /// The current simulation time (the timestamp of the last event run).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The event-stream digest accumulated by the runtime auditor, or
    /// `None` when auditing is compiled out (release builds without the
    /// `audit` feature). Two same-seed runs must return equal digests.
    pub fn audit_digest(&self) -> Option<u64> {
        #[cfg(any(debug_assertions, feature = "audit"))]
        {
            Some(self.auditor.digest())
        }
        #[cfg(not(any(debug_assertions, feature = "audit")))]
        {
            None
        }
    }

    /// Runs `f` against the engine's [`Auditor`](crate::audit::Auditor)
    /// when auditing is compiled in; a guaranteed no-op otherwise. Use this
    /// to fold model-level outputs into the run digest without sprinkling
    /// `cfg` at every call site.
    #[inline]
    pub fn with_audit(&mut self, f: impl FnOnce(&mut crate::audit::Auditor)) {
        #[cfg(any(debug_assertions, feature = "audit"))]
        f(&mut self.auditor);
        #[cfg(not(any(debug_assertions, feature = "audit")))]
        {
            let _ = f;
        }
    }

    /// Runs until the queue drains, delivering each event to `handler`
    /// along with the current time and a [`Scheduler`], and returns the
    /// final simulation time.
    ///
    /// `guard` bounds the run: instead of hanging on a runaway or
    /// zero-delay model, the loop aborts with a structured
    /// [`StallReport`]. With `Liveness::none()` the run never errs.
    /// Draining the queue exactly on the event budget's last event is
    /// normal termination, not a stall.
    pub fn run<F>(&mut self, guard: Liveness, mut handler: F) -> Result<SimTime, StallReport>
    where
        F: FnMut(SimTime, E, &mut Scheduler<'_, E>),
    {
        let mut stagnant: u64 = 0;
        while let Some((time, event)) = self.queue.pop() {
            debug_assert!(time >= self.now, "event queue violated time order");
            if time > self.now {
                stagnant = 0;
            }
            stagnant += 1;
            if let Some(max) = guard.max_stagnant_events {
                if stagnant > max {
                    return Err(StallReport {
                        cause: StallCause::TimeFrozen,
                        now: time,
                        processed: self.processed,
                        // The popped event was never delivered; count it
                        // back into the pending work.
                        pending: self.queue.len() + 1,
                        stagnant_events: stagnant,
                    });
                }
            }
            self.now = time;
            self.processed += 1;
            #[cfg(any(debug_assertions, feature = "audit"))]
            self.auditor.record_event(time);
            let mut sched = Scheduler {
                queue: &mut self.queue,
                now: time,
            };
            handler(time, event, &mut sched);
            if let Some(max) = guard.max_events {
                if self.processed >= max && !self.queue.is_empty() {
                    return Err(StallReport {
                        cause: StallCause::EventBudget,
                        now: self.now,
                        processed: self.processed,
                        pending: self.queue.len(),
                        stagnant_events: 0,
                    });
                }
            }
        }
        Ok(self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(2), 20);
        q.push(SimTime::from_ns(1), 10);
        q.push(SimTime::from_ns(2), 21);
        q.push(SimTime::from_ns(1), 11);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![10, 11, 20, 21]);
    }

    #[test]
    fn engine_runs_cascading_events() {
        #[derive(Debug)]
        enum Ev {
            Tick(u32),
        }
        let mut engine: Engine<Ev> = Engine::new();
        engine.schedule(SimTime::ZERO, Ev::Tick(0));
        let mut count = 0u32;
        let end = engine
            .run(Liveness::none(), |now, Ev::Tick(n), sched| {
                count += 1;
                if n < 9 {
                    sched.schedule(now + SimTime::from_ns(10), Ev::Tick(n + 1));
                }
            })
            .unwrap();
        assert_eq!(count, 10);
        assert_eq!(end, SimTime::from_ns(90));
        assert_eq!(engine.processed(), 10);
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut engine: Engine<u8> = Engine::new();
        engine.schedule(SimTime::from_ns(10), 1);
        let _ = engine.run(Liveness::none(), |_, _, sched| {
            sched.schedule(SimTime::from_ns(5), 2);
        });
    }

    #[test]
    fn schedule_now_preserves_fifo_at_same_instant() {
        let mut engine: Engine<u8> = Engine::new();
        engine.schedule(SimTime::from_ns(1), 0);
        let mut seen = Vec::new();
        engine
            .run(Liveness::none(), |_, e, sched| {
                seen.push(e);
                if e == 0 {
                    sched.schedule_now(1);
                    sched.schedule_now(2);
                }
            })
            .unwrap();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn standalone_scheduler_pushes_into_a_bare_queue() {
        let mut q: EventQueue<u8> = EventQueue::new();
        {
            let mut sched = Scheduler::at(&mut q, SimTime::from_ns(5));
            assert_eq!(sched.now(), SimTime::from_ns(5));
            sched.schedule_now(1);
            sched.schedule(SimTime::from_ns(9), 2);
        }
        assert_eq!(q.pop(), Some((SimTime::from_ns(5), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(9), 2)));
    }

    #[test]
    fn event_budget_stall_is_reported_not_hung() {
        let mut engine: Engine<()> = Engine::new();
        engine.schedule(SimTime::ZERO, ());
        let guard = Liveness {
            max_events: Some(100),
            max_stagnant_events: None,
        };
        // Self-rescheduling event: would run forever without a budget.
        let err = engine
            .run(guard, |now, (), sched| {
                sched.schedule(now + SimTime::from_ns(1), ());
            })
            .unwrap_err();
        assert_eq!(err.cause, StallCause::EventBudget);
        assert_eq!(err.processed, 100);
        assert_eq!(err.pending, 1);
        assert!(err.to_string().contains("event budget"), "{err}");
    }

    #[test]
    fn finishing_exactly_on_budget_is_not_a_stall() {
        let mut engine: Engine<u8> = Engine::new();
        for i in 0..4 {
            engine.schedule(SimTime::from_ns(i), 0);
        }
        let guard = Liveness {
            max_events: Some(4),
            max_stagnant_events: None,
        };
        let end = engine.run(guard, |_, _, _| ()).unwrap();
        assert_eq!(end, SimTime::from_ns(3));
        assert_eq!(engine.processed(), 4);
    }

    #[test]
    fn zero_delay_livelock_reports_time_frozen() {
        let mut engine: Engine<u8> = Engine::new();
        engine.schedule(SimTime::from_ns(7), 0);
        let guard = Liveness {
            max_events: None,
            max_stagnant_events: Some(50),
        };
        // schedule_now loop: time never advances.
        let err = engine
            .run(guard, |_, _, sched| sched.schedule_now(0))
            .unwrap_err();
        assert_eq!(err.cause, StallCause::TimeFrozen);
        assert_eq!(err.now, SimTime::from_ns(7));
        assert_eq!(err.stagnant_events, 51);
        assert!(err.pending >= 1);
        assert!(err.to_string().contains("time frozen"), "{err}");
    }

    #[test]
    fn stagnant_counter_resets_when_time_advances() {
        let mut engine: Engine<u8> = Engine::new();
        engine.schedule(SimTime::ZERO, 0);
        let guard = Liveness {
            max_events: None,
            max_stagnant_events: Some(3),
        };
        // Three events per instant, then the clock moves: never stalls.
        let end = engine
            .run(guard, |now, e, sched| {
                if e < 2 {
                    sched.schedule_now(e + 1);
                } else if now < SimTime::from_ns(5) {
                    sched.schedule(now + SimTime::from_ns(1), 0);
                }
            })
            .unwrap();
        assert_eq!(end, SimTime::from_ns(5));
    }

    #[test]
    fn queue_matches_brute_force_model_on_random_churn() {
        // Interleaved pushes and pops with clustered, duplicated and
        // far-apart timestamps, checked against a model that pops the
        // linear minimum of `(time, seq)`: same-time entries must come
        // out in push order even while pops interleave with pushes.
        use crate::rng::SplitMix64;
        fn model_pop(model: &mut Vec<(SimTime, u64, u64)>) -> Option<(SimTime, u64)> {
            let (i, _) = model
                .iter()
                .enumerate()
                .min_by_key(|(_, &(t, seq, _))| (t, seq))?;
            let (t, _, payload) = model.swap_remove(i);
            Some((t, payload))
        }
        for seed in [3u64, 17, 92] {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut model: Vec<(SimTime, u64, u64)> = Vec::new();
            let mut rng = SplitMix64::new(seed);
            let mut base = 0u64;
            for i in 0..5_000u64 {
                // Mostly near-future pushes, occasional same-instant
                // bursts and millisecond-scale outliers.
                let dt = match rng.next_range(10) {
                    0 => 0,
                    1..=7 => rng.next_range(2_000),
                    _ => rng.next_range(2_000_000),
                };
                let t = SimTime::from_ps(base + dt);
                q.push(t, i);
                // The payload doubles as the push sequence number.
                model.push((t, i, i));
                if rng.chance(0.6) {
                    let got = q.pop();
                    assert_eq!(got, model_pop(&mut model), "diverged (seed {seed})");
                    if let Some((t, _)) = got {
                        // Keep pushes causal, like a Scheduler would.
                        base = base.max(t.as_ps());
                    }
                }
            }
            assert_eq!(q.len(), model.len());
            while let Some(got) = q.pop() {
                assert_eq!(
                    Some(got),
                    model_pop(&mut model),
                    "drain diverged (seed {seed})"
                );
            }
            assert!(model.is_empty());
        }
    }

    #[test]
    fn queue_jumps_far_future_gaps() {
        let mut q: EventQueue<u32> = EventQueue::new();
        // A tight cluster, then a gap of many orders of magnitude.
        for i in 0..40 {
            q.push(SimTime::from_ns(i as u64), i);
        }
        q.push(SimTime::from_ms(250), 1_000);
        q.push(SimTime::from_ms(250), 1_001);
        for i in 0..40 {
            assert_eq!(q.pop(), Some((SimTime::from_ns(i as u64), i)));
        }
        assert_eq!(q.pop(), Some((SimTime::from_ms(250), 1_000)));
        assert_eq!(q.pop(), Some((SimTime::from_ms(250), 1_001)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn queue_survives_growth_and_shrink_cycles() {
        // 10k pushes grow the queue; the full drain empties it again.
        use crate::rng::SplitMix64;
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rng = SplitMix64::new(7);
        for i in 0..10_000u64 {
            q.push(SimTime::from_ps(rng.next_range(1 << 30)), i);
        }
        assert_eq!(q.len(), 10_000);
        let mut last = (SimTime::ZERO, 0u64);
        let mut popped = 0;
        while let Some((t, e)) = q.pop() {
            assert!((t, e) >= last, "pop order regressed at {t} #{e}");
            last = (t, e);
            popped += 1;
        }
        assert_eq!(popped, 10_000);
        assert!(q.is_empty());
    }

    #[test]
    fn standalone_queue_accepts_pushes_behind_the_cursor() {
        // A bare queue (no Scheduler causality guard) may push earlier
        // than the last pop; the next pop must serve it first.
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push(SimTime::from_us(10), 1);
        assert_eq!(q.pop(), Some((SimTime::from_us(10), 1)));
        q.push(SimTime::from_ns(3), 2);
        q.push(SimTime::from_us(20), 3);
        assert_eq!(q.pop(), Some((SimTime::from_ns(3), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_us(20), 3)));
    }

    #[test]
    fn schedule_batch_matches_individual_schedules() {
        let run = |batched: bool| {
            let mut q: EventQueue<u8> = EventQueue::new();
            {
                let mut sched = Scheduler::at(&mut q, SimTime::from_ns(1));
                let items = [
                    (SimTime::from_ns(5), 1),
                    (SimTime::from_ns(2), 2),
                    (SimTime::from_ns(5), 3),
                ];
                if batched {
                    sched.schedule_batch(items);
                } else {
                    for (t, e) in items {
                        sched.schedule(t, e);
                    }
                }
            }
            let mut order = Vec::new();
            while let Some(x) = q.pop() {
                order.push(x);
            }
            order
        };
        assert_eq!(run(true), run(false));
    }
}
