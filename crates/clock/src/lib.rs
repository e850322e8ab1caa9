//! # tw-clock — fail-aware clock synchronization
//!
//! The timewheel membership protocol's multiple-failure election divides a
//! *global time base* into slots; that time base is provided by a
//! fail-aware clock synchronization protocol (paper §2, citing Fetzer &
//! Cristian's fail-awareness work): synchronized clocks deviate by at most
//! a known ε **and every process knows, at any moment, whether its clock
//! is currently synchronized**. A process that cannot keep its clock
//! synchronized must leave the group and rejoin once synchronized again.
//!
//! ## The protocol implemented here
//!
//! A symmetric round-trip scheme with a rank-ordered reference chain:
//!
//! * Every process periodically broadcasts a time **request**; every
//!   receiver answers with a **reply** carrying its current synchronized
//!   time and its synced flag (and echoing the request's hardware send
//!   time, so the requester can measure the round trip on its own clock).
//! * A requester *adopts* the time of a **synced process with lower rank**
//!   when the round trip was timely (≤ 2δ): the remote synchronized time
//!   at receipt is estimated as `sync_at_reply + rtt/2`, with reading
//!   error ≤ `rtt/2 + ρ·rtt`.
//! * Rank 0 — or, after its crash, the lowest-ranked process that has
//!   heard no lower-ranked synced process for a takeover timeout — acts
//!   as the **source**, continuing the time base on its own hardware
//!   clock (keeping whatever offset it last adopted, so the time base
//!   survives source failover with a bounded jump).
//! * **Fail-awareness**: a process reports itself synchronized only while
//!   (a) its last adoption (or source self-renewal) is within the
//!   validity window, *and* (b) it has recently heard timely replies from
//!   a majority of the team. An isolated or partitioned-minority process
//!   therefore *knows* it is unsynchronized — exactly the signal the
//!   membership layer consumes.
//!
//! This is a deliberately simple instance of the fail-aware design
//! pattern: the interface (synchronized reads + a truthful synced flag +
//! an error bound) is what the membership protocol consumes; DESIGN.md
//! records the substitution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sync;

pub use sync::{ClockAction, ClockEvent, ClockSyncConfig, FailAwareClock, SyncStatus};
