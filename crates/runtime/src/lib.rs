//! # tw-runtime — execution backends for the timewheel protocol
//!
//! The protocol core ([`timewheel::Member`]) is a sans-I/O state machine;
//! this crate hosts it on real threads, real clocks and real (or
//! in-memory) datagrams. Two executors schedule the one
//! [`timewheel::Driver`], mirroring the paper's §5 implementation
//! discussion:
//!
//! * [`event_loop`] — the design the paper chose: a **single-threaded
//!   event handler** per process that demultiplexes message arrivals,
//!   protocol ticks and clock-synchronization ticks, dispatching each to
//!   its handler with no locking and no cross-thread scheduling. On UDP
//!   on linux-gnu it reads its own socket, so the node is that one
//!   thread.
//! * [`threaded`] — the design the paper measured and rejected: one
//!   thread per event *type* (receive, protocol tick, clock tick),
//!   synchronizing on a shared lock around the protocol state. It exists
//!   so the §5 comparison (experiment T7) can be reproduced.
//!
//! A node puts each dispatch's messages on the wire with one
//! [`Transport::flush`], and every transport hands each destination its
//! share as one datagram: [`transport::UdpTransport`] (real UDP
//! datagrams with the [`tw_proto::frame`] wire format — the paper's
//! deployment style), [`transport::MemTransport`] (the in-process mesh
//! of switchable inbox slots) and [`fault::FaultTransport`] (the same
//! mesh behind a seeded fault plan, for chaos clusters).

// `deny`, not `forbid`: the one exception is the glibc FFI in [`mmsg`]
// (vectored I/O and the event loop's `ppoll` park), which carries a
// module-local `#[allow(unsafe_code)]` and a written safety argument.
// Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

// The portable core — compiled under loom too (`RUSTFLAGS="--cfg
// loom"`), so `tests/loom.rs` can model-check the hand-rolled
// concurrency primitives in isolation (see DESIGN.md §13).
pub mod inbox;
pub mod status;

// Everything that touches real threads, sockets, clocks or syscalls is
// outside the loom model and compiles only in normal builds.
#[cfg(not(loom))]
pub mod chaos;
#[cfg(not(loom))]
pub mod clock;
#[cfg(not(loom))]
pub mod event_loop;
#[cfg(not(loom))]
pub mod fault;
#[cfg(not(loom))]
pub mod metrics;
#[cfg(not(loom))]
pub mod mmsg;
#[cfg(not(loom))]
pub mod node;
#[cfg(not(loom))]
pub mod threaded;
#[cfg(not(loom))]
pub mod transport;

#[cfg(not(loom))]
pub use chaos::{ChaosCluster, ChaosController, ChaosOp, ChaosReport, ChaosSchedule, FaultBudget};
#[cfg(not(loom))]
pub use clock::{RealClock, RuntimeClock};
#[cfg(not(loom))]
pub use fault::{ChaosNet, ChaosRng, FaultTransport, LinkPlan};
#[cfg(not(loom))]
pub use metrics::NodeMetrics;
#[cfg(not(loom))]
pub use mmsg::BatchSocket;
#[cfg(not(loom))]
pub use node::{
    spawn_cluster, spawn_udp_cluster, AppEvent, ClusterBuilder, DeliveryHook, ExecutorKind, Node,
    NodeCommand, NodeOutput, OpsSetup, RecorderSetup,
};
pub use status::{NodeStatus, StatusCell};
#[cfg(not(loom))]
pub use transport::{MemTransport, OutBatch, Transport, UdpTransport, WireStats};
