//! The benchmark's metric tables: the single place a metric's name,
//! unit, direction and regression bound are written down.
//! `BENCHMARK.json` repeats them for the driver; a unit test keeps the
//! two in step.

use crate::stats::Better;

/// The five workloads, in the order the suite runs them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "ladder_weak",
        "single-threaded drive of propose, v2 encode, sendmmsg, recvmmsg, decode, inbox and on_messages: the only CPU-bound path across proto, runtime transport and core",
    ),
    (
        "udp_flood",
        "closed loop of 16 weak updates on a live UDP cluster: bound by executor wake-up, queue drain and send batching, not by codec or FSM cost",
    ),
    (
        "udp_ordered",
        "open loop of 1000 total/strong updates per second on a live UDP cluster: latency set by decider pacing, the bypass workload for every CPU optimisation",
    ),
    (
        "sim_ordered",
        "2000 total/strong updates per simulated second on tw-sim: all work is core ordering plus the simulator engine, none is codec or runtime",
    ),
    (
        "sim_crash",
        "crash and rejoin of one of five members under total/strong load on tw-sim: the same core layer used for membership instead of broadcast",
    ),
];

/// An end-to-end metric: every workload reports it, and a later change
/// may not worsen it by more than `bound` (a share of the parent's
/// median).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "delivered_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "deliver_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "deliver_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "delivered_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.002,
    },
    EndToEnd {
        name: "wire_bytes_per_update",
        unit: "B",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// A per-layer metric: no bound, reported by the traced pass. A
/// workload that does not exercise the layer reports 0.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 43] = [
    lower("proto.encode_ns_per_msg", "ns"),
    lower("proto.decode_ns_per_msg", "ns"),
    lower("proto.bytes_per_msg", "B"),
    higher("proto.msgs_per_datagram", "count"),
    lower("core.propose_ns_per_update", "ns"),
    lower("core.on_messages_ns_per_msg", "ns"),
    lower("core.on_tick_ns_per_tick", "ns"),
    lower("core.busy_share", "ratio"),
    lower("core.pending_max", "count"),
    lower("core.decisions_per_update", "count"),
    lower("core.msgs_per_update", "count"),
    lower("core.membership_msgs", "count"),
    lower("core.view_changes", "count"),
    lower("core.total_order_reorders", "count"),
    lower("core.detect_p50_ms", "ms"),
    lower("core.ring_p50_ms", "ms"),
    lower("core.recovery_p50_ms", "ms"),
    lower("core.recovery_max_ms", "ms"),
    lower("core.unavailable_p50_ms", "ms"),
    lower("core.rejoin_p50_ms", "ms"),
    higher("core.rejoin_delivered_ratio", "ratio"),
    lower("clock.sync_msgs_per_s", "1/s"),
    higher("sim.events_per_s", "1/s"),
    lower("sim.self_ns_per_event", "ns"),
    lower("runtime.flush_ns_per_update", "ns"),
    lower("runtime.recv_ns_per_datagram", "ns"),
    lower("runtime.inbox_ns_per_batch", "ns"),
    lower("runtime.send_syscalls_per_update", "count"),
    lower("runtime.datagrams_per_update", "count"),
    higher("runtime.msgs_per_datagram", "count"),
    lower("runtime.dispatch_p50_us", "us"),
    lower("runtime.dispatch_p99_us", "us"),
    lower("runtime.tick_lag_p99_us", "us"),
    lower("runtime.deliver_p99_ms", "ms"),
    lower("runtime.node_cpu_us_per_update", "us"),
    lower("runtime.rx_cpu_us_per_update", "us"),
    lower("runtime.cpu_util", "ratio"),
    lower("runtime.inbox_dropped", "count"),
    lower("runtime.decode_errors", "count"),
    lower("runtime.propose_rejected", "count"),
    lower("obs.trace_ns_per_update", "ns"),
    lower("bench.gen_late_p99_us", "us"),
    lower("bench.trace_overhead_ratio", "ratio"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pull `"key": value` string or number fields out of one JSON
    /// object literal; enough for the flat objects in BENCHMARK.json.
    fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
        let at = obj.find(&format!("\"{key}\""))?;
        let rest = obj[at..].split_once(':')?.1.trim_start();
        let end = if let Some(r) = rest.strip_prefix('"') {
            return r.split_once('"').map(|(v, _)| v);
        } else {
            rest.find([',', '}']).unwrap_or(rest.len())
        };
        Some(rest[..end].trim())
    }

    fn objects<'a>(text: &'a str, section: &str) -> Vec<&'a str> {
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let open = start + text[start..].find('[').expect("array");
        let close = open + text[open..].find(']').expect("array end");
        text[open..close]
            .split('{')
            .skip(1)
            .map(|o| o.split_once('}').expect("object").0)
            .collect()
    }

    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let workloads = objects(&text, "workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (obj, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(obj, "name"), Some(name));
            assert_eq!(field(obj, "why"), Some(why));
            assert!(why.len() <= 200, "{name}: why is {} characters", why.len());
        }
        let e2e = objects(&text, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (obj, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(obj, "name"), Some(m.name));
            assert_eq!(field(obj, "unit"), Some(m.unit));
            assert_eq!(field(obj, "better"), Some(m.better.as_str()));
            let bound: f64 = field(obj, "bound").expect("bound").parse().expect("number");
            assert_eq!(bound, m.bound, "{}", m.name);
            assert!(bound <= 0.25);
        }
        let layers = objects(&text, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (obj, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(obj, "name"), Some(m.name));
            assert_eq!(field(obj, "unit"), Some(m.unit));
            assert_eq!(field(obj, "better"), Some(m.better.as_str()));
        }
    }

    #[test]
    fn names_are_unique_and_setup_has_the_largest_bound() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.0))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        let setup = end_to_end("setup_s").expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
