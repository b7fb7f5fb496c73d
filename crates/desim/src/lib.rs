//! Discrete-event simulation core.
//!
//! This crate provides the three primitives every virtual-time engine in this
//! workspace is built from:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond virtual time,
//! * [`EventQueue`] — a deterministic pending-event set with stable
//!   tie-breaking and lazy cancellation,
//! * [`ProgressSet`] — a *progress-sharing resource*: a set of jobs that each
//!   carry an amount of remaining work and drain at externally assigned
//!   rates. Both the flow-level network model (bytes over shared links) and
//!   the CPU model (cpu-seconds under processor sharing) of the simulator are
//!   instances of this abstraction.
//!
//! The crate is deliberately free of any application or platform knowledge;
//! it is reused by `netmodel`, `dps-sim` and `testbed`.

#![warn(missing_docs)]

pub mod fxhash;
pub mod journal;
pub mod queue;
pub mod share;
pub mod time;

pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use journal::{crc32, Divergence, Journal, JournalDecodeError, JournalEntry, JournalEvent};
pub use queue::{EventId, EventQueue};
pub use share::ProgressSet;
pub use time::{SimDuration, SimTime};
