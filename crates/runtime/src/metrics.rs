//! Per-node metrics, backed by the shared [`tw_obs::Registry`].
//!
//! Every spawned [`crate::Node`] owns one [`NodeMetrics`]. The executors
//! feed it on the hot path (sends by message kind, deliveries, view
//! installations, event-dispatch latency) and clients read it through
//! [`crate::Node::metrics`] / [`crate::Node::metrics_snapshot`] — the
//! runtime analogue of the simulator's `Stats` ledger, sharing counter
//! names (`sends.<kind>`, …) so the same assertions work in both worlds.

use std::sync::Arc;
use std::time::Instant;
use tw_obs::{Counter, Gauge, Histogram, Registry, Snapshot, LATENCY_BOUNDS_US};
use tw_proto::MsgKind;

/// Registry-backed counters for one running node.
///
/// Handles are pre-registered at construction so the hot path is a
/// linear scan over eight kinds plus an atomic increment — no map
/// lookups, no allocation, no lock (the registry mutex is only taken
/// when registering or snapshotting).
///
/// Beyond the protocol counters, this carries the runtime's
/// *self-observation* signals — the raw inputs a Lifeguard-style
/// local-health multiplier (ROADMAP item 6(c)) needs to judge its own
/// node's health: how late protocol ticks fire (`tick_lag_us`), how far
/// past their deadline clock resyncs run (`deadline_overrun_us`), and
/// the standing backlogs (inbox depth, recorder buffer occupancy, mmsg
/// batch fill) as gauges.
///
/// A UDP event-loop node on linux-gnu has no inbox: its loop reads its
/// own socket, and the kernel's socket buffer is its bound. Its
/// `tw_inbox_depth` reads 0 and its `tw_inbox_dropped_total` never
/// moves; what it fails to read counts in `tw_udp_recv_errors_total`.
#[derive(Debug)]
pub struct NodeMetrics {
    registry: Arc<Registry>,
    sends: Vec<(MsgKind, Counter)>,
    deliveries: Counter,
    views: Counter,
    dispatch_latency: Histogram,
    tick_lag: Histogram,
    deadline_overrun: Histogram,
    inbox_depth: Gauge,
    recorder_buffered: Gauge,
    batch_fill: Gauge,
    inbox_dropped: Counter,
    udp_recv_errors: Counter,
    send_errors_emsgsize: Counter,
    send_errors_other: Counter,
}

impl NodeMetrics {
    /// Fresh metrics over a private registry.
    pub fn new() -> Arc<Self> {
        let registry = Arc::new(Registry::new());
        let sends = MsgKind::ALL
            .iter()
            .map(|k| (*k, registry.counter(&format!("sends.{}", k.as_str()))))
            .collect();
        let deliveries = registry.counter("deliveries");
        let views = registry.counter("views_installed");
        let dispatch_latency = registry.histogram("dispatch_latency_us", LATENCY_BOUNDS_US);
        let tick_lag = registry.histogram("tick_lag_us", LATENCY_BOUNDS_US);
        let deadline_overrun = registry.histogram("deadline_overrun_us", LATENCY_BOUNDS_US);
        let inbox_depth = registry.gauge("tw_inbox_depth");
        let recorder_buffered = registry.gauge("tw_recorder_buffered");
        let batch_fill = registry.gauge("tw_mmsg_batch_fill");
        let inbox_dropped = registry.counter("tw_inbox_dropped_total");
        let udp_recv_errors = registry.counter("tw_udp_recv_errors_total");
        let send_errors_emsgsize = registry.counter("tw_send_errors_total.emsgsize");
        let send_errors_other = registry.counter("tw_send_errors_total.other");
        Arc::new(Self {
            registry,
            sends,
            deliveries,
            views,
            dispatch_latency,
            tick_lag,
            deadline_overrun,
            inbox_depth,
            recorder_buffered,
            batch_fill,
            inbox_dropped,
            udp_recv_errors,
            send_errors_emsgsize,
            send_errors_other,
        })
    }

    /// Handle on the `tw_inbox_dropped_total` counter: datagrams shed
    /// because the node's bounded inbox was full (never, for a node
    /// without one).
    pub fn inbox_dropped(&self) -> Counter {
        self.inbox_dropped.clone()
    }

    /// Handle on the `tw_udp_recv_errors_total` counter: UDP socket
    /// errors absorbed as omissions by whoever reads the socket — the
    /// event loop or a receive thread.
    pub fn udp_recv_errors(&self) -> Counter {
        self.udp_recv_errors.clone()
    }

    /// Count one send/broadcast operation of `kind`.
    pub fn on_send(&self, kind: MsgKind) {
        if let Some((_, c)) = self.sends.iter().find(|(k, _)| *k == kind) {
            c.inc();
        }
    }

    /// Count one delivery handed to the client.
    pub fn on_delivery(&self) {
        self.deliveries.inc();
    }

    /// Count one view installation.
    pub fn on_view(&self) {
        self.views.inc();
    }

    /// Record the latency of one event dispatch (handler entry to actions
    /// applied), measured from `start`.
    pub fn on_dispatch(&self, start: Instant) {
        let us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        self.dispatch_latency.record(us);
    }

    /// Record how late a protocol tick fired, in microseconds past its
    /// scheduled deadline (`tick_lag_us`).
    pub fn on_tick_lag(&self, us: u64) {
        self.tick_lag.record(us);
    }

    /// Record how far past its deadline a clock-resync pass ran, in
    /// microseconds (`deadline_overrun_us`).
    pub fn on_deadline_overrun(&self, us: u64) {
        self.deadline_overrun.record(us);
    }

    /// Handle on the `tw_inbox_depth` gauge: messages queued in the
    /// node's bounded inbox at the executor's last look (0 for a node
    /// without one).
    pub fn inbox_depth(&self) -> Gauge {
        self.inbox_depth.clone()
    }

    /// Handle on the `tw_recorder_buffered` gauge: trace events held in
    /// the flight recorder's in-memory buffer awaiting a spill.
    pub fn recorder_buffered(&self) -> Gauge {
        self.recorder_buffered.clone()
    }

    /// The UDP send path's handles: the `tw_mmsg_batch_fill` gauge
    /// (datagrams coalesced into the most recent vectored send) and the
    /// `tw_send_errors_total.{emsgsize,other}` counters — datagrams the
    /// kernel refused, the ones that outgrew UDP apart from the rest.
    pub fn send_metrics(&self) -> crate::transport::SendMetrics {
        crate::transport::SendMetrics {
            batch_fill: self.batch_fill.clone(),
            errors_emsgsize: self.send_errors_emsgsize.clone(),
            errors_other: self.send_errors_other.clone(),
        }
    }

    /// The registry behind the counters.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The registry as a shareable handle, for wiring into an
    /// [`tw_obs::OpsServer`]'s scrape sources.
    pub fn shared_registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// A point-in-time copy of every counter and histogram.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sends_are_counted_per_kind() {
        let m = NodeMetrics::new();
        m.on_send(MsgKind::Decision);
        m.on_send(MsgKind::Decision);
        m.on_send(MsgKind::Join);
        let s = m.snapshot();
        assert_eq!(s.counter("sends.decision"), 2);
        assert_eq!(s.counter("sends.join"), 1);
        assert_eq!(s.counter("sends.no-decision"), 0);
    }

    #[test]
    fn dispatch_latency_lands_in_the_histogram() {
        let m = NodeMetrics::new();
        m.on_dispatch(Instant::now());
        let s = m.snapshot();
        let h = s.histograms.get("dispatch_latency_us").expect("histogram");
        assert_eq!(h.count, 1);
    }

    #[test]
    fn overload_and_socket_error_counters_are_registered() {
        let m = NodeMetrics::new();
        m.inbox_dropped().add(3);
        m.udp_recv_errors().inc();
        m.send_metrics().errors_emsgsize.add(2);
        m.send_metrics().errors_other.inc();
        let s = m.snapshot();
        assert_eq!(s.counter("tw_inbox_dropped_total"), 3);
        assert_eq!(s.counter("tw_udp_recv_errors_total"), 1);
        assert_eq!(s.counter("tw_send_errors_total.emsgsize"), 2);
        assert_eq!(s.counter("tw_send_errors_total.other"), 1);
    }

    #[test]
    fn self_observation_signals_are_registered() {
        let m = NodeMetrics::new();
        m.on_tick_lag(150);
        m.on_deadline_overrun(40);
        m.inbox_depth().set(7);
        m.recorder_buffered().set(12);
        m.send_metrics().batch_fill.set(3);
        let s = m.snapshot();
        assert_eq!(s.histograms.get("tick_lag_us").expect("tick lag").count, 1);
        assert_eq!(
            s.histograms
                .get("deadline_overrun_us")
                .expect("overrun")
                .count,
            1
        );
        assert_eq!(s.gauge("tw_inbox_depth"), 7);
        assert_eq!(s.gauge("tw_recorder_buffered"), 12);
        assert_eq!(s.gauge("tw_mmsg_batch_fill"), 3);
    }

    #[test]
    fn deliveries_and_views_count() {
        let m = NodeMetrics::new();
        m.on_delivery();
        m.on_view();
        m.on_view();
        assert_eq!(m.registry().counter_value("deliveries"), 1);
        assert_eq!(m.registry().counter_value("views_installed"), 2);
    }
}
