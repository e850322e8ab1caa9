//! Prometheus text exposition of a metrics [`Snapshot`].
//!
//! Zero-dependency by necessity (the workspace builds offline), so this
//! is a hand-rolled renderer of the stable [text-based exposition
//! format]: one `# TYPE` comment per metric family, counters and gauges
//! as single samples, histograms as cumulative `_bucket{le="…"}` series
//! plus `_sum`/`_count`. Output is deterministic — families render in
//! `BTreeMap` order of their sanitized names, so two identical
//! snapshots scrape byte-identically (the same property the JSON
//! export already has).
//!
//! Registry names use dots as separators (`sends.decision`,
//! `tw_audit_violations_total.fifo_order`); Prometheus metric names
//! must match `[a-zA-Z_][a-zA-Z0-9_]*`, so [`sanitize_metric_name`]
//! maps every illegal byte to `_` and prefixes `_` when the first byte
//! is a digit. Two raw names that collide after sanitizing would
//! produce an invalid exposition (duplicate family), so the renderer
//! keeps the first (in raw name order) and notes the dropped name in a
//! trailing comment instead of emitting a malformed scrape.
//!
//! [text-based exposition format]:
//!     https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::metrics::{HistogramSnapshot, Snapshot};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// True when `name` is a legal Prometheus metric name
/// (`[a-zA-Z_][a-zA-Z0-9_]*`; the colon is reserved for recording
/// rules, so this renderer never emits it).
pub fn is_valid_metric_name(name: &str) -> bool {
    let mut bytes = name.bytes();
    match bytes.next() {
        Some(b) if b.is_ascii_alphabetic() || b == b'_' => {}
        _ => return false,
    }
    bytes.all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// Map a registry name onto a legal Prometheus metric name: every byte
/// outside `[a-zA-Z0-9_]` becomes `_`, and a leading digit gains a `_`
/// prefix. Idempotent; an empty name becomes `_`.
pub fn sanitize_metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 1);
    for (i, b) in raw.bytes().enumerate() {
        if b.is_ascii_alphanumeric() || b == b'_' {
            if i == 0 && b.is_ascii_digit() {
                out.push('_');
            }
            out.push(b as char);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value per the exposition format: backslash, double
/// quote and newline get backslash escapes; everything else is verbatim.
fn push_label_value(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Render the shared label set as `{k="v",…}`, or nothing when empty.
fn push_labels(out: &mut String, labels: &[(String, String)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        push_label_value(out, v);
        out.push('"');
    }
    out.push('}');
}

/// Like [`push_labels`] but with one extra label appended (used for the
/// histogram `le` label).
fn push_labels_with(out: &mut String, labels: &[(String, String)], extra_k: &str, extra_v: &str) {
    out.push('{');
    for (k, v) in labels {
        out.push_str(k);
        out.push_str("=\"");
        push_label_value(out, v);
        out.push_str("\",");
    }
    out.push_str(extra_k);
    out.push_str("=\"");
    push_label_value(out, extra_v);
    out.push_str("\"}");
}

enum Family<'a> {
    Counter(u64),
    Gauge(i64),
    Histogram(&'a HistogramSnapshot),
}

/// Render `snapshot` in the Prometheus text exposition format with no
/// shared labels. See [`render_labeled`].
pub fn render(snapshot: &Snapshot) -> String {
    render_labeled(snapshot, &[])
}

/// Render `snapshot` in the Prometheus text exposition format, stamping
/// every sample with `labels` (e.g. `pid="3"`). Label *names* are used
/// verbatim and must already be legal (`[a-zA-Z_][a-zA-Z0-9_]*`); label
/// values are escaped. Counters gain a `_total` suffix unless the raw
/// name already ends in `_total` or `.total`.
pub fn render_labeled(snapshot: &Snapshot, labels: &[(String, String)]) -> String {
    debug_assert!(labels.iter().all(|(k, _)| is_valid_metric_name(k)));
    // Merge the three namespaces onto sanitized names first so the
    // output is ordered by the names a scraper actually sees and
    // collisions are detected across kinds, not just within one.
    let mut families: BTreeMap<String, (&str, Family<'_>)> = BTreeMap::new();
    let mut dropped: Vec<&str> = Vec::new();

    for (raw, v) in &snapshot.counters {
        let mut name = sanitize_metric_name(raw);
        if !name.ends_with("_total") {
            name.push_str("_total");
        }
        match families.entry(name) {
            Entry::Occupied(_) => dropped.push(raw),
            Entry::Vacant(e) => {
                e.insert((raw.as_str(), Family::Counter(*v)));
            }
        }
    }
    for (raw, v) in &snapshot.gauges {
        let name = sanitize_metric_name(raw);
        match families.entry(name) {
            Entry::Occupied(_) => dropped.push(raw),
            Entry::Vacant(e) => {
                e.insert((raw.as_str(), Family::Gauge(*v)));
            }
        }
    }
    for (raw, h) in &snapshot.histograms {
        let name = sanitize_metric_name(raw);
        match families.entry(name) {
            Entry::Occupied(_) => dropped.push(raw),
            Entry::Vacant(e) => {
                e.insert((raw.as_str(), Family::Histogram(h)));
            }
        }
    }

    let mut out = String::with_capacity(1024);
    for (name, (raw, family)) in &families {
        match family {
            Family::Counter(v) => {
                out.push_str("# HELP ");
                out.push_str(name);
                out.push_str(" counter `");
                out.push_str(raw);
                out.push_str("`\n# TYPE ");
                out.push_str(name);
                out.push_str(" counter\n");
                out.push_str(name);
                push_labels(&mut out, labels);
                out.push(' ');
                out.push_str(&v.to_string());
                out.push('\n');
            }
            Family::Gauge(v) => {
                out.push_str("# HELP ");
                out.push_str(name);
                out.push_str(" gauge `");
                out.push_str(raw);
                out.push_str("`\n# TYPE ");
                out.push_str(name);
                out.push_str(" gauge\n");
                out.push_str(name);
                push_labels(&mut out, labels);
                out.push(' ');
                out.push_str(&v.to_string());
                out.push('\n');
            }
            Family::Histogram(h) => {
                out.push_str("# HELP ");
                out.push_str(name);
                out.push_str(" histogram `");
                out.push_str(raw);
                out.push_str("` (microseconds)\n# TYPE ");
                out.push_str(name);
                out.push_str(" histogram\n");
                // Buckets are cumulative in the exposition format; the
                // registry stores per-bucket counts.
                let mut cum: u64 = 0;
                for (i, b) in h.buckets.iter().enumerate() {
                    cum += b;
                    out.push_str(name);
                    out.push_str("_bucket");
                    let le = match h.bounds.get(i) {
                        Some(bound) => bound.to_string(),
                        None => "+Inf".to_owned(),
                    };
                    push_labels_with(&mut out, labels, "le", &le);
                    out.push(' ');
                    out.push_str(&cum.to_string());
                    out.push('\n');
                }
                out.push_str(name);
                out.push_str("_sum");
                push_labels(&mut out, labels);
                out.push(' ');
                out.push_str(&h.sum.to_string());
                out.push('\n');
                out.push_str(name);
                out.push_str("_count");
                push_labels(&mut out, labels);
                out.push(' ');
                out.push_str(&h.count.to_string());
                out.push('\n');
            }
        }
    }
    for raw in dropped {
        out.push_str("# dropped colliding metric name: ");
        // Comments run to end of line; strip newlines so a hostile name
        // cannot forge exposition lines.
        for c in raw.chars().filter(|c| *c != '\n' && *c != '\r') {
            out.push(c);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn name_validity() {
        assert!(is_valid_metric_name("tw_sends_total"));
        assert!(is_valid_metric_name("_x9"));
        assert!(!is_valid_metric_name(""));
        assert!(!is_valid_metric_name("9lives"));
        assert!(!is_valid_metric_name("a.b"));
        assert!(!is_valid_metric_name("a-b"));
        assert!(!is_valid_metric_name("a:b"));
    }

    #[test]
    fn sanitizer_produces_valid_names_and_is_idempotent() {
        for raw in [
            "sends.decision",
            "tw_audit_violations_total.fifo_order",
            "9starts.with.digit",
            "weird name/…",
            "",
        ] {
            let s = sanitize_metric_name(raw);
            assert!(is_valid_metric_name(&s), "{raw:?} -> {s:?}");
            assert_eq!(sanitize_metric_name(&s), s);
        }
        assert_eq!(sanitize_metric_name("sends.decision"), "sends_decision");
        assert_eq!(sanitize_metric_name("9x"), "_9x");
    }

    #[test]
    fn golden_scrape() {
        let r = Registry::new();
        r.counter("sends.decision").add(3);
        r.gauge("node_inbox.depth").set(-2);
        let h = r.histogram("lat_us", &[10, 100]);
        h.record(5);
        h.record(50);
        h.record(500);
        let text = render_labeled(&r.snapshot(), &[("pid".to_owned(), "7".to_owned())]);
        assert_eq!(
            text,
            "# HELP lat_us histogram `lat_us` (microseconds)\n\
             # TYPE lat_us histogram\n\
             lat_us_bucket{pid=\"7\",le=\"10\"} 1\n\
             lat_us_bucket{pid=\"7\",le=\"100\"} 2\n\
             lat_us_bucket{pid=\"7\",le=\"+Inf\"} 3\n\
             lat_us_sum{pid=\"7\"} 555\n\
             lat_us_count{pid=\"7\"} 3\n\
             # HELP node_inbox_depth gauge `node_inbox.depth`\n\
             # TYPE node_inbox_depth gauge\n\
             node_inbox_depth{pid=\"7\"} -2\n\
             # HELP sends_decision_total counter `sends.decision`\n\
             # TYPE sends_decision_total counter\n\
             sends_decision_total{pid=\"7\"} 3\n"
        );
        // Deterministic across renders.
        assert_eq!(
            text,
            render_labeled(&r.snapshot(), &[("pid".to_owned(), "7".to_owned())])
        );
    }

    #[test]
    fn unlabeled_samples_have_no_brace_block() {
        let r = Registry::new();
        r.counter("c").inc();
        let text = render(&r.snapshot());
        assert!(text.contains("\nc_total 1\n"), "{text}");
    }

    #[test]
    fn counter_total_suffix_is_not_doubled() {
        let r = Registry::new();
        r.counter("deliveries_total").inc();
        let text = render(&r.snapshot());
        assert!(text.contains("\ndeliveries_total 1\n"), "{text}");
        assert!(!text.contains("total_total"), "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.gauge("g").set(1);
        let text = render_labeled(
            &r.snapshot(),
            &[("node".to_owned(), "a\"b\\c\nd".to_owned())],
        );
        assert!(text.contains("g{node=\"a\\\"b\\\\c\\nd\"} 1\n"), "{text}");
    }

    #[test]
    fn colliding_sanitized_names_keep_first_and_note_drop() {
        let r = Registry::new();
        r.counter("a.b").add(1);
        r.counter("a_b").add(2);
        let text = render(&r.snapshot());
        // "a.b" sorts before "a_b" in the raw map and both sanitize to
        // a_b_total; exactly one family must survive.
        assert_eq!(text.matches("# TYPE a_b_total counter").count(), 1);
        assert!(text.contains("a_b_total 1\n"), "{text}");
        assert!(
            text.contains("# dropped colliding metric name: a_b\n"),
            "{text}"
        );
    }

    #[test]
    fn every_emitted_family_name_is_valid() {
        let r = Registry::new();
        r.counter("sends.decision").inc();
        r.gauge("9bad/name").set(2);
        r.histogram("disp.lat", &[1]).record(1);
        let text = render(&r.snapshot());
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split(['{', ' ']).next().unwrap();
            assert!(is_valid_metric_name(name), "{line}");
        }
    }
}
