//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span has a name, a start, an end, the span that caused it (the one
//! open when it was entered) and the id of the update batch it worked
//! on. Per name the recorder keeps a running count, total time and self
//! time (duration minus the part covered by child spans); the first
//! [`KEEP`] raw spans are kept as well and written out when the
//! benchmark ends, so a run of millions of calls stays bounded in
//! memory while the aggregates cover every call.

use std::io::Write;
use std::time::Instant;

/// Raw spans kept for the trace file.
pub const KEEP: usize = 100_000;

/// Every place the benchmark records a span, named `layer.call`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// One ladder round or one simulator step: the parent of the rest.
    Round,
    Gen,
    Propose,
    Apply,
    Encode,
    Flush,
    Recv,
    Decode,
    Inbox,
    OnMessages,
    OnTick,
    OnClockTick,
    Lifecycle,
    ProposeCmd,
    OutputsWait,
}

impl Stage {
    pub const ALL: [Stage; 15] = [
        Stage::Round,
        Stage::Gen,
        Stage::Propose,
        Stage::Apply,
        Stage::Encode,
        Stage::Flush,
        Stage::Recv,
        Stage::Decode,
        Stage::Inbox,
        Stage::OnMessages,
        Stage::OnTick,
        Stage::OnClockTick,
        Stage::Lifecycle,
        Stage::ProposeCmd,
        Stage::OutputsWait,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::Round => "bench.round",
            Stage::Gen => "bench.generate",
            Stage::Propose => "core.propose_batch",
            Stage::Apply => "bench.apply_actions",
            Stage::Encode => "proto.push_msg",
            Stage::Flush => "runtime.flush",
            Stage::Recv => "runtime.recv_batch",
            Stage::Decode => "proto.decode_datagram",
            Stage::Inbox => "runtime.inbox",
            Stage::OnMessages => "core.on_messages",
            Stage::OnTick => "core.on_tick",
            Stage::OnClockTick => "core.on_clock_tick",
            Stage::Lifecycle => "core.on_start",
            Stage::ProposeCmd => "runtime.propose_cmd",
            Stage::OutputsWait => "runtime.outputs_wait",
        }
    }
}

/// One finished span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// `u32::MAX` for a root span.
    pub parent: u32,
    pub stage: Stage,
    pub start_ns: u64,
    pub end_ns: u64,
    pub batch: u64,
}

/// Running totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

struct Open {
    id: u32,
    stage: Stage,
    start_ns: u64,
    child_ns: u64,
    batch: u64,
}

/// The span recorder. A disabled recorder costs one branch per call.
pub struct Spans {
    on: bool,
    epoch: Instant,
    open: Vec<Open>,
    next_id: u32,
    agg: [Agg; Stage::ALL.len()],
    kept: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            epoch: Instant::now(),
            open: Vec::new(),
            next_id: 0,
            agg: [Agg::default(); Stage::ALL.len()],
            kept: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    #[inline]
    pub fn enter(&mut self, stage: Stage, batch: u64) {
        if self.on {
            let now = self.epoch.elapsed().as_nanos() as u64;
            self.enter_at(stage, batch, now);
        }
    }

    #[inline]
    pub fn exit(&mut self) {
        if self.on {
            let now = self.epoch.elapsed().as_nanos() as u64;
            self.exit_at(now);
        }
    }

    /// Enter a span at an explicit time (the clock-free core of
    /// [`Spans::enter`]).
    pub fn enter_at(&mut self, stage: Stage, batch: u64, now_ns: u64) {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        self.open.push(Open {
            id,
            stage,
            start_ns: now_ns,
            child_ns: 0,
            batch,
        });
    }

    /// Close the innermost open span at an explicit time.
    pub fn exit_at(&mut self, now_ns: u64) {
        let Some(o) = self.open.pop() else {
            return;
        };
        let dur = now_ns.saturating_sub(o.start_ns);
        let a = &mut self.agg[o.stage as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(o.child_ns);
        let parent = match self.open.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => u32::MAX,
        };
        if self.kept.len() < KEEP {
            self.kept.push(Span {
                id: o.id,
                parent,
                stage: o.stage,
                start_ns: o.start_ns,
                end_ns: now_ns,
                batch: o.batch,
            });
        }
    }

    pub fn agg(&self, stage: Stage) -> Agg {
        self.agg[stage as usize]
    }

    /// Self time summed over every stage except `Round`'s own: the time
    /// accounted to a named layer call.
    pub fn staged_self_ns(&self) -> u64 {
        Stage::ALL
            .iter()
            .filter(|s| **s != Stage::Round)
            .map(|s| self.agg(*s).self_ns)
            .sum()
    }

    /// Write aggregates and the kept raw spans as one JSON document.
    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"stages\":["
        )?;
        let mut first = true;
        for s in Stage::ALL {
            let a = self.agg(s);
            if a.count == 0 {
                continue;
            }
            if !first {
                write!(w, ",")?;
            }
            first = false;
            write!(
                w,
                "\n{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                s.name(),
                a.count,
                a.total_ns,
                a.self_ns
            )?;
        }
        write!(
            w,
            "\n],\"spans_kept\":{},\"spans_total\":{},\"spans\":[",
            self.kept.len(),
            Stage::ALL.iter().map(|s| self.agg(*s).count).sum::<u64>()
        )?;
        for (i, s) in self.kept.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            let parent = if s.parent == u32::MAX {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                w,
                "\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"batch\":{}}}",
                s.id,
                parent,
                s.stage.name(),
                s.start_ns,
                s.end_ns,
                s.batch
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut s = Spans::new(true);
        s.enter_at(Stage::Round, 7, 0);
        s.enter_at(Stage::Propose, 7, 10);
        s.exit_at(40); // propose: 30
        s.enter_at(Stage::Apply, 7, 50);
        s.enter_at(Stage::Flush, 7, 60);
        s.exit_at(90); // flush: 30, child of apply
        s.exit_at(100); // apply: 50 total, 20 self
        s.exit_at(120); // round: 120 total, 120-30-50 = 40 self
        assert_eq!(
            s.agg(Stage::Propose),
            Agg {
                count: 1,
                total_ns: 30,
                self_ns: 30
            }
        );
        assert_eq!(
            s.agg(Stage::Flush),
            Agg {
                count: 1,
                total_ns: 30,
                self_ns: 30
            }
        );
        assert_eq!(
            s.agg(Stage::Apply),
            Agg {
                count: 1,
                total_ns: 50,
                self_ns: 20
            }
        );
        assert_eq!(
            s.agg(Stage::Round),
            Agg {
                count: 1,
                total_ns: 120,
                self_ns: 40
            }
        );
        // Self times partition the root's duration.
        assert_eq!(s.staged_self_ns() + s.agg(Stage::Round).self_ns, 120);
    }

    #[test]
    fn parents_and_batch_ids_are_recorded() {
        let mut s = Spans::new(true);
        s.enter_at(Stage::Round, 3, 0);
        s.enter_at(Stage::Decode, 3, 1);
        s.exit_at(2);
        s.exit_at(3);
        let kept = &s.kept;
        assert_eq!(kept.len(), 2);
        // Children finish first.
        assert_eq!(kept[0].stage, Stage::Decode);
        assert_eq!(kept[0].parent, kept[1].id);
        assert_eq!(kept[1].parent, u32::MAX);
        assert!(kept.iter().all(|k| k.batch == 3));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        s.enter(Stage::Round, 0);
        s.exit();
        assert_eq!(s.agg(Stage::Round).count, 0);
        assert!(s.kept.is_empty());
    }

    #[test]
    fn unbalanced_exit_is_ignored() {
        let mut s = Spans::new(true);
        s.exit_at(5);
        assert_eq!(s.staged_self_ns(), 0);
    }
}
