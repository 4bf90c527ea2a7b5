//! Discrete-event simulation engine for the NetSparse reproduction.
//!
//! This crate is the bottom-most substrate of the workspace: a small,
//! deterministic, allocation-conscious discrete-event kernel in the spirit of
//! the SST core the paper uses, plus the measurement utilities (counters,
//! histograms, time series) every other crate reports statistics with.
//! The kernel is one [`EventQueue`] and one run loop, [`Engine::run`],
//! which [`Liveness`] budgets can bound so that a model that never
//! terminates comes back as a [`StallReport`] instead of a hang. The queue
//! keeps every event in a slab node and orders only `(time, seq, slot)`
//! keys in a binary heap. It also has FIFO lanes: a stream of events whose
//! times never decrease (the arrivals one link produces) waits in its own
//! lane with only its head's key in the heap, each node carrying its
//! successor's key, and pops merge back into exactly the all-heap
//! `(time, seq)` order.
//!
//! The engine is deliberately generic: the event payload type is chosen by
//! the embedding simulator (see the `netsparse` core crate), and components
//! in the other crates are written as *passive state machines* that are
//! driven by the event loop rather than owning threads or channels. That
//! makes every hardware model unit-testable without an event loop, and makes
//! whole-cluster simulations single-threaded and perfectly reproducible.
//!
//! # Example
//!
//! ```
//! use netsparse_desim::{Engine, Liveness, SimTime};
//!
//! // A one-shot "ping-pong" model: each Ping schedules a Pong 5 ns later.
//! #[derive(Debug, PartialEq, Eq)]
//! enum Ev { Ping(u32), Pong(u32) }
//!
//! let mut engine: Engine<Ev> = Engine::new();
//! engine.schedule(SimTime::from_ns(1), Ev::Ping(7));
//! let mut log = Vec::new();
//! // No liveness budget: the run drains the queue and cannot stall.
//! let end = engine.run(Liveness::none(), |now, ev, sched| {
//!     match ev {
//!         Ev::Ping(x) => sched.schedule(now + SimTime::from_ns(5), Ev::Pong(x)),
//!         Ev::Pong(x) => log.push((now, x)),
//!     }
//! });
//! assert_eq!(end, Ok(SimTime::from_ns(6)));
//! assert_eq!(log, vec![(SimTime::from_ns(6), 7)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod engine;
pub mod faults;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use audit::Auditor;
pub use engine::{Engine, EventQueue, Liveness, Scheduler, StallCause, StallReport};
pub use faults::{LossModel, LossProcess};
pub use rng::SplitMix64;
pub use stats::{Histogram, Reservoir};
pub use time::{Clock, SimTime};
pub use trace::{TraceConfig, TraceReport, Tracer};
