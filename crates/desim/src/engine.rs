//! The event queue and the simulation driver.
//!
//! [`EventQueue`] is a deterministic priority queue of `(time, event)` pairs:
//! ties in time are broken by insertion order, so a simulation is a pure
//! function of its inputs. Every pending event sits in one slab node and
//! its [`BinaryHeap`] orders 16-byte keys naming those nodes. Besides
//! plain pushes it has FIFO *lanes* for streams whose times never
//! decrease, such as the arrivals one link produces: a lane's entries form
//! a list of slab nodes, each holding its successor's key, and only the
//! head's key sits in the heap, so a backlog of thousands of packets costs
//! the heap one entry per link and a pop reads one node. [`Engine`] wraps the queue
//! with the run loop — event counting, the optional [`Liveness`] budgets
//! and the runtime auditor — and hands each handler a [`Scheduler`] view
//! through which new events are pushed.

// Event-path rules (docs/STATIC_ANALYSIS.md).
#![deny(clippy::cast_sign_loss, clippy::redundant_clone)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_macros))]

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
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

/// The low bits of a [`Key`], which name the event's slab node; its `seq`
/// sits above them, under the time. So one queue holds at most
/// `MAX_SLOTS` pending events and draws fewer than `MAX_SEQ` sequence
/// numbers (2^28 − 1 and 2^36: a 20 GiB slab of the simulator's 80-byte
/// nodes, and about 15,000 times the events of the largest benchmark
/// workload). Both limits are asserted on every push.
const SLOT_BITS: u32 = 28;
/// One less than `1 << SLOT_BITS`, so no key's slot bits are all ones and
/// [`Key::NONE`] matches no real key.
const MAX_SLOTS: usize = (1 << SLOT_BITS) - 1;
const MAX_SEQ: u64 = 1 << (64 - SLOT_BITS);

/// A heap key: `time` in the high 64 bits, `seq << SLOT_BITS | slot` in
/// the low 64. Sequence numbers are unique, so integer order is exactly
/// `(time, seq)` order and the slot bits never decide a comparison.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key(u128);

impl Key {
    /// No key: a lane with nothing queued, or a node with no successor.
    const NONE: Key = Key(u128::MAX);

    #[inline]
    fn new(time: SimTime, seq: u64, slot: u32) -> Key {
        Key(u128::from(time.as_ps()) << 64 | u128::from(seq << SLOT_BITS | u64::from(slot)))
    }

    #[inline]
    fn time(self) -> SimTime {
        let ps = (self.0 >> 64) as u64;
        SimTime::from_ps(ps)
    }

    #[inline]
    fn slot(self) -> u32 {
        (self.0 as u32) & ((1 << SLOT_BITS) - 1)
    }
}

/// The end of the free list; the `lane` of an event pushed with
/// [`EventQueue::push`].
const NIL: u32 = u32::MAX;

/// One slab node: a pending event, or (with `event == None`) a free node.
struct Node<E> {
    event: Option<E>,
    /// The lane the event waits on, [`NIL`] for a plain event; on the
    /// free list, the next free node.
    lane: u32,
    /// The key of the lane's next entry, written by the `push_lane` that
    /// queued it behind this one, so a pop hands the lane on to the heap
    /// without touching the successor's node. [`Key::NONE`] for a lane's
    /// last entry and for plain events.
    next: Key,
}

/// A deterministic min-priority queue of timestamped events.
///
/// Events that share a timestamp are delivered in the order they were
/// scheduled (FIFO), which makes simulations reproducible run-to-run and
/// across machines: every entry carries a unique insertion sequence
/// number, so `(time, seq)` is a total order and the pop stream is a pure
/// function of the pushes.
///
/// Every pending event lives in one slab node, and the [`BinaryHeap`]
/// holds only 16-byte `(time, seq, slot)` keys, so a sift moves keys, not
/// events. [`EventQueue::push_lane`] appends to a FIFO lane instead: its
/// entries take their `seq` at push time like any other, and a lane's
/// times may not decrease, so each lane is already sorted by
/// `(time, seq)`. The heap holds only each non-empty lane's head, and each
/// lane node carries its successor's key, so [`EventQueue::pop`] is a
/// k-way merge that reads one node per event and yields exactly the order
/// an all-heap queue would.
///
/// # Example
///
/// ```
/// use netsparse_desim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(5), "b");
/// q.push(SimTime::from_ns(1), "a");
/// q.push_lane(0, SimTime::from_ns(2), "lane 0, first");
/// q.push(SimTime::from_ns(5), "c");
/// q.push_lane(0, SimTime::from_ns(5), "lane 0, second");
/// assert_eq!(q.len(), 5);
/// assert_eq!(q.pop(), Some((SimTime::from_ns(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(2), "lane 0, first")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(5), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(5), "c")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(5), "lane 0, second")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Key>>,
    seq: u64,
    /// Lane entries queued behind their lane's head, the pending events
    /// the heap does not count.
    behind_heads: usize,
    /// Each lane's last queued entry, or [`Key::NONE`] when it is empty.
    lanes: Vec<Key>,
    slab: Vec<Node<E>>,
    /// Head of the free-node list threaded through `slab`.
    free: u32,
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
            behind_heads: 0,
            lanes: Vec::new(),
            slab: Vec::new(),
            free: NIL,
        }
    }

    /// Stores `event` in a slab node and returns its key, drawing the
    /// next sequence number.
    #[inline]
    fn insert(&mut self, time: SimTime, lane: u32, event: E) -> Key {
        let seq = self.seq;
        assert!(seq < MAX_SEQ, "event queue ran out of sequence numbers");
        self.seq += 1;
        let node = Node {
            event: Some(event),
            lane,
            next: Key::NONE,
        };
        let slot = if self.free == NIL {
            assert!(
                self.slab.len() < MAX_SLOTS,
                "event queue is full ({MAX_SLOTS} pending events)"
            );
            self.slab.push(node);
            (self.slab.len() - 1) as u32
        } else {
            let slot = self.free;
            self.free = std::mem::replace(&mut self.slab[slot as usize], node).lane;
            slot
        };
        Key::new(time, seq, slot)
    }

    /// Schedules `event` at `time`.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        let key = self.insert(time, NIL, event);
        self.heap.push(Reverse(key));
    }

    /// Schedules `event` at `time` at the back of FIFO lane `lane`. Lanes
    /// are numbered densely from 0; the queue grows to the highest lane
    /// pushed.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than the last entry still queued on
    /// `lane`: a lane pops in push order, so a later push with an earlier
    /// time would silently be delivered out of time order. Also panics if
    /// `lane` is `u32::MAX`.
    #[inline]
    pub fn push_lane(&mut self, lane: u32, time: SimTime, event: E) {
        assert!(lane != NIL, "lane {NIL} is reserved");
        let l = lane as usize;
        if l >= self.lanes.len() {
            self.lanes.resize(l + 1, Key::NONE);
        }
        let tail = self.lanes[l];
        if tail != Key::NONE {
            let last = tail.time();
            assert!(
                time >= last,
                "lane {lane} went back in time: {time} pushed behind {last}"
            );
        }
        let key = self.insert(time, lane, event);
        if tail == Key::NONE {
            self.heap.push(Reverse(key));
        } else {
            self.slab[tail.slot() as usize].next = key;
            self.behind_heads += 1;
        }
        self.lanes[l] = key;
    }

    /// Removes and returns the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let mut top = self.heap.peek_mut()?;
        let Reverse(key) = *top;
        let slot = key.slot();
        let node = &mut self.slab[slot as usize];
        let event = node.event.take();
        let lane = std::mem::replace(&mut node.lane, self.free);
        self.free = slot;
        if lane == NIL {
            PeekMut::pop(top);
        } else if node.next == Key::NONE {
            PeekMut::pop(top);
            self.lanes[lane as usize] = Key::NONE;
        } else {
            // The lane's next entry takes its head's place in the heap.
            *top = Reverse(node.next);
            self.behind_heads -= 1;
        }
        // Every key in the heap names a node that holds its event.
        event.map(|event| (key.time(), event))
    }

    /// Number of pending events, lane entries included.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() + self.behind_heads
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        // Every non-empty lane keeps its head in the heap.
        self.heap.is_empty()
    }
}

/// Panics if `time` is before `now`: causality violations are always bugs
/// in a model, and failing loudly at the push localizes them.
#[inline]
fn assert_causal(now: SimTime, time: SimTime) {
    assert!(
        time >= now,
        "attempted to schedule event in the past: now={now}, requested={time}"
    );
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
        assert_causal(self.now, time);
        self.queue.push(time, event);
    }

    /// Schedules `event` at absolute time `time` on FIFO lane `lane` (see
    /// [`EventQueue::push_lane`]). Delivery order is exactly what
    /// [`Scheduler::schedule`] would give: the event takes its sequence
    /// number now, and only where it waits differs.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past, like `schedule`, or earlier than
    /// the last event still queued on `lane`.
    #[inline]
    pub fn schedule_lane(&mut self, lane: u32, time: SimTime, event: E) {
        assert_causal(self.now, time);
        self.queue.push_lane(lane, time, event);
    }

    /// Schedules `event` at the current instant (delivered after all events
    /// already queued for this instant, preserving FIFO order).
    #[inline]
    pub fn schedule_now(&mut self, event: E) {
        self.queue.push(self.now, event);
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
        assert_causal(self.now, time);
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
        // out in push order even while pops interleave with pushes. A
        // third of the pushes go to sixteen FIFO lanes, each fed
        // nondecreasing times (with same-time runs) while it has entries
        // queued, as a link feeds its arrivals. The pop rate swings
        // between filling and draining phases, so lanes often drain and
        // restart, half the time earlier than their last entry, and plain
        // and lane events take over each other's freed slab nodes.
        use crate::rng::SplitMix64;
        const LANES: usize = 16;
        type Entry = (SimTime, u64, Option<usize>);
        fn model_pop(model: &mut Vec<Entry>) -> Option<Entry> {
            let (i, _) = model
                .iter()
                .enumerate()
                .min_by_key(|(_, &(t, seq, _))| (t, seq))?;
            Some(model.swap_remove(i))
        }
        for seed in [3u64, 17, 92] {
            let mut q: EventQueue<u64> = EventQueue::new();
            // The payload doubles as the push sequence number.
            let mut model: Vec<Entry> = Vec::new();
            let mut rng = SplitMix64::new(seed);
            let mut base = 0u64;
            let mut lane_last = [0u64; LANES];
            let mut lane_queued = [0u32; LANES];
            let (mut lane_pushes, mut lane_ties, mut restarts) = (0u32, 0u32, 0u32);
            let mut earlier_restarts = 0u32;
            let (mut peak, mut phase_end, mut draining) = (0, 0u64, false);
            for i in 0..20_000u64 {
                if i == phase_end {
                    draining = !draining;
                    phase_end = i + 50 + rng.next_range(1_000);
                }
                // Mostly near-future pushes, occasional same-instant
                // bursts and millisecond-scale outliers.
                let dt = match rng.next_range(10) {
                    0 => 0,
                    1..=7 => rng.next_range(2_000),
                    _ => rng.next_range(2_000_000),
                };
                let lane = rng
                    .chance(1.0 / 3.0)
                    .then(|| rng.next_range(LANES as u64) as usize);
                let t = match lane {
                    Some(l) if lane_queued[l] > 0 => {
                        // Never before the lane's last queued arrival,
                        // often tied with it.
                        let t = if rng.chance(0.3) {
                            lane_last[l]
                        } else {
                            lane_last[l] + dt
                        };
                        lane_ties += u32::from(t == lane_last[l]);
                        t
                    }
                    Some(l) => {
                        // A drained lane restarts at any time, often
                        // before its last entry (a bare queue accepts
                        // pushes behind the last pop).
                        restarts += 1;
                        if rng.chance(0.5) {
                            earlier_restarts += 1;
                            lane_last[l].saturating_sub(1 + rng.next_range(5_000))
                        } else {
                            base + dt
                        }
                    }
                    None => base + dt,
                };
                match lane {
                    Some(l) => {
                        lane_last[l] = t;
                        lane_queued[l] += 1;
                        lane_pushes += 1;
                        q.push_lane(l as u32, SimTime::from_ps(t), i);
                    }
                    None => q.push(SimTime::from_ps(t), i),
                }
                model.push((SimTime::from_ps(t), i, lane));
                peak = peak.max(model.len());
                assert_eq!(q.len(), model.len());
                let pops = if draining { 2 } else { 1 };
                for _ in 0..pops {
                    if !rng.chance(if draining { 0.9 } else { 0.6 }) {
                        continue;
                    }
                    let want = model_pop(&mut model);
                    let got = q.pop();
                    assert_eq!(got, want.map(|(t, seq, _)| (t, seq)), "seed {seed}");
                    if let Some((t, _, lane)) = want {
                        // Keep pushes causal, like a Scheduler would.
                        base = base.max(t.as_ps());
                        if let Some(l) = lane {
                            lane_queued[l] -= 1;
                        }
                    }
                }
            }
            assert!(lane_pushes > 5_000 && lane_ties > 500, "lanes barely used");
            assert!(
                restarts > 1_000 && earlier_restarts > 500,
                "lanes barely drained: {restarts} restarts, {earlier_restarts} earlier"
            );
            // Every pending event holds one node and freed nodes are
            // reused before the slab grows, whichever kind freed them.
            assert_eq!(q.slab.len(), peak);
            assert_eq!(q.len(), model.len());
            while let Some(got) = q.pop() {
                let want = model_pop(&mut model).map(|(t, seq, _)| (t, seq));
                assert_eq!(Some(got), want, "drain diverged (seed {seed})");
            }
            assert!(model.is_empty());
            assert!(q.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "lane 3 went back in time")]
    fn lane_time_going_backwards_panics() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push_lane(3, SimTime::from_ns(10), 1);
        q.push_lane(3, SimTime::from_ns(9), 2);
    }

    #[test]
    fn lane_may_restart_earlier_once_drained() {
        // Monotonicity binds only entries still queued on the lane.
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push_lane(0, SimTime::from_ns(10), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), 1)));
        q.push_lane(0, SimTime::from_ns(4), 2);
        q.push_lane(1, SimTime::from_ns(4), 3);
        assert_eq!(q.pop(), Some((SimTime::from_ns(4), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_ns(4), 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn lane_entries_count_as_pending() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.push_lane(5, SimTime::from_ns(1), 0);
        assert!(!q.is_empty());
        q.push_lane(5, SimTime::from_ns(2), 1);
        q.push_lane(5, SimTime::from_ns(2), 2);
        q.push(SimTime::from_ns(3), 3);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((SimTime::from_ns(1), 0)));
        assert_eq!(q.len(), 3);

        // A stalled run reports the events still queued on its lanes.
        let mut engine: Engine<u32> = Engine::new();
        engine.schedule(SimTime::ZERO, 0);
        let guard = Liveness {
            max_events: Some(1),
            max_stagnant_events: None,
        };
        let err = engine
            .run(guard, |now, _, sched| {
                for i in 0..7 {
                    sched.schedule_lane(0, now + SimTime::from_ns(i), i as u32);
                }
                sched.schedule_now(99);
            })
            .unwrap_err();
        assert_eq!(err.cause, StallCause::EventBudget);
        assert_eq!(err.pending, 8);
        assert_eq!(engine.pending(), 8);
    }

    #[test]
    fn lane_slab_reuses_freed_nodes() {
        // A lane that is drained and refilled keeps its slab at the peak
        // depth instead of growing with the total pushed.
        let mut q: EventQueue<u32> = EventQueue::new();
        for round in 0..100u64 {
            for i in 0..8 {
                q.push_lane(round as u32 % 3, SimTime::from_ns(round * 10 + i), i as u32);
            }
            for i in 0..8 {
                assert_eq!(q.pop(), Some((SimTime::from_ns(round * 10 + i), i as u32)));
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.slab.len(), 8);
        // Plain events take the nodes the lanes freed.
        for i in 0..8 {
            q.push(SimTime::from_ns(2_000 - i), i as u32);
        }
        assert_eq!(q.slab.len(), 8);
        assert_eq!(q.pop(), Some((SimTime::from_ns(1_993), 7)));
        assert_eq!(q.len(), 7);
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
}
