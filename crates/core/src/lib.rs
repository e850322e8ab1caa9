//! # timewheel — the timewheel group membership protocol
//!
//! A Rust implementation of *The Timewheel Group Membership Protocol*
//! (Mishra, Fetzer, Cristian — IPPS 1998) together with the timewheel
//! atomic broadcast protocol it is interwoven with, for the **timed
//! asynchronous distributed system model**.
//!
//! ## What the protocol does
//!
//! A fixed *team* of `N` processes runs a replicated service. The
//! membership protocol maintains a consistent, system-wide *group* (view)
//! of the members currently exhibiting synchronous behaviour, with the
//! properties (paper §3):
//!
//! 1. a process that is ∆-stable for long enough has an up-to-date group;
//! 2. any two up-to-date groups at the same time are identical;
//! 3. a ∆-stable process is included in every up-to-date group;
//! 4. a process whose group has been out of date for ∆ time units is
//!    excluded from all up-to-date groups;
//! 5. every up-to-date group contains a majority of the team.
//!
//! ## How (the short version)
//!
//! * **Failure-free periods cost nothing.** The broadcast protocol's
//!   rotating *decider* sends a decision message at least every `D` time
//!   units; the failure detector simply watches that rotation. No
//!   membership messages flow at all.
//! * **Single failures are fast.** If the expected decider falls silent,
//!   a ring of *no-decision* messages removes it: each surviving member
//!   concurs in turn; the suspect's predecessor installs the new group.
//!   If some member *has* the allegedly-missed decision (false alarm), it
//!   enters *wrong-suspicion* state and rescues the group with no
//!   membership change.
//! * **Multiple failures fall back to time slots.** Synchronized clocks
//!   (from [`tw_clock`]) divide time into cycles of `N` slots; members
//!   exchange *reconfiguration* messages in their slots and the member
//!   with the freshest decision timestamp, seconded by a majority with
//!   identical reconfiguration lists, forms the new group.
//! * **Joins use the same slots**: joining processes send *join* messages
//!   once per own slot; the initial group forms when a majority agree on
//!   identical join lists.
//!
//! ## Crate layout
//!
//! The protocol core is **sans-I/O**: [`Member`] consumes timestamped
//! inputs (messages, ticks, client proposals) and returns [`Action`]s.
//! [`driver::Driver`] is the one way hosts feed it; [`harness`] runs
//! whole teams on the deterministic simulator from [`tw_sim`], which is
//! what the test-suite and the experiment harness use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffers;
pub mod config;
pub mod delivery;
pub mod detector;
pub mod driver;
pub mod events;
pub mod explore;
pub mod harness;
pub mod invariants;
pub mod member;
pub mod undeliverable;

pub use config::Config;
pub use driver::{AppEvent, DeliveryHook, Driver, Input};
pub use events::{Action, Delivery, LeaveReason};
pub use member::{CreatorState, Member, ProposeError};
