//! # tw-proto — wire-level types for the timewheel group communication service
//!
//! This crate defines the identifiers, timestamps, the ordering and
//! acknowledgement list (*oal*), group views and every message exchanged by
//! the timewheel protocols (atomic broadcast, membership, clock
//! synchronization), together with the one wire format they travel in:
//! [`frame`] — a version byte, then length-prefixed LEB128 frames — and
//! its two cursors, [`WireCursor`] (write into a caller-owned `Vec<u8>`)
//! and [`FrameRef`] (read a borrowed `&[u8]`), which are also what trace
//! events are encoded with. Decoding failures
//! are a [`WireError`], never a panic.
//!
//! The types here are deliberately *dumb data*: all protocol logic lives in
//! the [`timewheel`] core crate. Keeping the wire types in a leaf crate lets
//! the simulator, the real-socket runtime and the test harnesses share one
//! vocabulary without depending on protocol internals.
//!
//! [`timewheel`]: ../timewheel/index.html

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod ids;
pub mod messages;
pub mod oal;
pub mod semantics;
pub mod time;
pub mod view;

/// Commonly used items.
pub mod prelude {
    pub use crate::frame::{FrameBuilder, FrameRef, WireCursor, WireError, WIRE_VERSION};
    pub use crate::ids::{Incarnation, Ordinal, ProcessId, ProposalId};
    pub use crate::messages::{
        ClockSyncMsg, Decision, Join, Msg, NoDecision, Proposal, Reconfig, StateTransfer,
    };
    pub use crate::oal::{AckBits, Descriptor, DescriptorBody, Entry, Oal, UpdateRun};
    pub use crate::semantics::{Atomicity, Ordering as DeliveryOrdering, Semantics};
    pub use crate::time::{Duration, HwTime, SyncTime};
    pub use crate::view::{View, ViewId};
}

pub use prelude::*;

pub use crate::messages::{AliveList, MsgKind, Nack, UpdateDesc};
pub use crate::semantics::Ordering;
