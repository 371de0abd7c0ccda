//! # horse-sim — discrete-event core with a hybrid DES/FTI clock
//!
//! This crate implements the simulation substrate of Horse (SIGCOMM'19):
//! the parts of a discrete-event engine (event queue, timer wheel) and a
//! clock that can run in two modes:
//!
//! * **DES** — the clock jumps directly to the timestamp of the next event.
//!   This is the fast path used while only (simulated) data-plane traffic is
//!   active.
//! * **FTI** (*Fixed Time Increment*) — the clock advances in small, fixed
//!   steps. Horse enters this mode whenever emulated control-plane activity
//!   is detected (a BGP UPDATE on the wire, an OpenFlow FLOW_MOD, …) so the
//!   emulated daemons, which live in real time, observe a simulation clock
//!   that tracks wall-clock time. After a user-configured *quiescence
//!   timeout* without control activity the clock falls back to DES.
//!
//! The building blocks are deliberately decoupled:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time.
//! * [`EventQueue`] — a stable (FIFO within equal timestamps) priority queue
//!   with O(log n) push/pop and cancellable entries.
//! * [`TimerWheel`] — a hierarchical timing wheel indexing one re-armable
//!   deadline per key (per-node protocol timers), with O(1) schedule/cancel
//!   and an O(1) global minimum off per-level occupancy bitmaps.
//! * [`HybridClock`] — the DES/FTI mode state machine with a transition log.
//! * [`Pacer`] — couples FTI steps to wall-clock time (`RealTime`) or runs
//!   them as fast as possible (`Virtual`) for deterministic tests/benches.
//!
//! The run loop that ties them together is the Horse runner
//! (`horse-core`), which drives the clock, queue and wheel directly.

pub mod clock;
pub mod event;
pub mod pacing;
pub mod time;
pub mod wheel;

pub use clock::{ClockMode, FtiConfig, HybridClock, ModeTransition};
pub use event::{EventId, EventQueue};
pub use pacing::{Pacer, Pacing};
pub use time::{SimDuration, SimTime};
pub use wheel::TimerWheel;
