//! # tw-obs — structured observability for the timewheel protocols
//!
//! The paper's guarantees are *countable* claims: zero membership
//! messages while failure-free (§4.1), recovery within one no-decision
//! cycle, fail-awareness within a bound. This crate turns those claims
//! into telemetry that can be asserted on a **running** cluster, not just
//! inside the deterministic simulator:
//!
//! * [`trace`] — a typed, allocation-light [`TraceEvent`] stream covering
//!   every protocol-visible transition (decisions sent/received,
//!   suspicions, no-decision hops, wrong-suspicion rescues,
//!   reconfiguration slots, view installations, deliveries, §4.3 purges),
//!   each stamped with the emitting member's hardware/synchronized clock
//!   pair and emitted through a pluggable [`Tracer`] sink.
//! * [`metrics`] — a lock-minimal [`Registry`] of named counters and
//!   bucketed latency histograms. Hot-path updates are single atomic
//!   adds on pre-registered handles; snapshots are `BTreeMap`-keyed so
//!   their iteration order (and JSON export) is deterministic.
//! * [`codec`] — a length-prefixed wire format for trace events so
//!   streams can cross process boundaries; unknown event tags decode to
//!   [`TraceEvent::Unknown`] instead of failing, keeping old consumers
//!   compatible with newer producers.
//! * [`audit`] — the history checker: one [`Auditor`] owns every
//!   delivery and view property (no duplicate deliveries, FIFO and time
//!   order, total-order agreement across views, majority views, view
//!   agreement, view overlap, oal-prefix). It is fed three facts —
//!   installed, delivered, restarted — from a live cluster's trace
//!   streams, from merged recordings, or from simulator logs
//!   (`timewheel::invariants`). Wiring a [`Registry`] into the auditor
//!   exports a `tw_audit_violations_total.<check>` counter per check.
//! * [`recorder`] / [`recording`] — a crash-safe [`FlightRecorder`]
//!   sink that spills CRC-framed segments of wire-encoded events to a
//!   per-node file (the node's *black box*), and the loader that reads
//!   them back tolerating torn tails: everything before the damage
//!   loads, damage is reported, never fatal.
//! * [`export`] — Prometheus text exposition of a metrics snapshot, the
//!   payload behind the ops server's `/metrics` endpoint.
//! * [`server`] — the live telemetry plane: a per-node zero-dependency
//!   ops endpoint (`/metrics`, `/status`, `/healthz`), a [`StreamSink`]
//!   that ships TWFR-framed trace segments to subscribers, and the
//!   [`LiveTail`] client that decodes them with the same
//!   [`StreamReader`] the file loader uses — one reader, one
//!   torn-stream contract for disk and wire alike.
//! * [`analyze`](mod@analyze) — offline cross-node correlation: merges per-node
//!   recordings on the synchronized clock (ε as the fuzz bound),
//!   reconstructs decision / recovery / reconfiguration spans with
//!   per-phase latency attribution, renders an ASCII global timeline,
//!   and feeds the merged stream to the [`audit`] checker, adding only
//!   the ε-causality check that needs decision spans; recovery spans
//!   are judged against the §4.2 envelope the [`StreamHeader`]s carry.
//!   The `tw-trace` binary is the CLI over this module.
//!
//! The crate depends only on the wire vocabulary ([`tw_proto`]); the
//! protocol core, the simulator and the runtime all layer it in without
//! cycles. Everything here obeys the workspace determinism lint: no
//! wall-clock reads, no ambient randomness, no hash-ordered containers,
//! no floats. File I/O is confined to the recorder/recording modules
//! and the analyzer binary, each annotated for the lint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod audit;
pub mod codec;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod recording;
pub mod server;
pub mod trace;

pub use analyze::{
    analyze, render_timeline, Analysis, DecisionSpan, ReconfigSpan, RecoverySpan, TimelineOptions,
    TraceSet,
};
pub use audit::{Auditor, SharedAuditor, Violation, AUDIT_CHECKS, AUDIT_COUNTER_PREFIX};
pub use export::{is_valid_metric_name, render_labeled, sanitize_metric_name};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot, LATENCY_BOUNDS_US,
};
pub use recorder::{encode_header, encode_segment, FlightRecorder, FlushGuard, RecorderConfig};
pub use recording::{Damage, LoadError, Recording, StreamHeader, StreamReader};
pub use server::{http_get, LiveTail, OpsServer, OpsSources, StreamSink};
pub use trace::{ClockStamp, FaultKind, TeeSink, TraceEvent, TraceSink, Tracer, VecSink};
