//! Deterministic fault injection for in-process clusters.
//!
//! [`FaultTransport`] is a node's way onto the in-process
//! [`MemTransport`] mesh that subjects every message to a seeded,
//! per-link fault plan: drop probability, duplication, bounded reorder,
//! added delay, byte corruption, and directional link cuts. Each
//! destination's surviving share of a flush reaches it as one datagram,
//! as on UDP. Every injected fault maps onto the paper's
//! timed-asynchronous failure model:
//!
//! * drop / corrupt / cut — **omission** failures (a corrupted datagram
//!   is exercised through [`frame::decode_datagram`] like a real
//!   receiver would, then discarded — the harness plays the role of the
//!   UDP checksum);
//! * delay / reorder — **performance** failures (the datagram service is
//!   unordered, so reordering is just a per-message delay);
//! * duplication — legal datagram behavior the protocol must absorb.
//!
//! Determinism contract: the fate of message *n* on link *(from, to)* is
//! a pure function of `(seed, from, to, n)` — a private SplitMix64 lane
//! per message, so toggling one fault knob never shifts another knob's
//! draws, how messages are grouped into flushes never shifts any fate,
//! and a re-run with the same seed and same send pattern injects the
//! identical fault sequence. All knobs are switchable at runtime through
//! the shared [`ChaosNet`].
//!
//! Injected faults are emitted as [`TraceEvent::FaultInjected`] into the
//! sending node's trace sink, so flight recordings of adversarial runs
//! are self-describing.

use crate::clock::{RealClock, RuntimeClock};
use crate::transport::{MemTransport, OutBatch, Transport};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use tw_obs::{ClockStamp, FaultKind, TraceEvent, Tracer};
use tw_proto::frame;
use tw_proto::{Msg, ProcessId, SyncTime, WireError};

/// SplitMix64 — a tiny, high-quality, dependency-free PRNG. Used for
/// every chaos decision so runs are reproducible from a single seed.
#[derive(Debug, Clone)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosRng(seed)
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n` must be non-zero).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `ppm / 1_000_000`.
    pub fn chance_ppm(&mut self, ppm: u32) -> bool {
        self.below(1_000_000) < ppm as u64
    }
}

/// Flip one `rng`-chosen bit of `msg`'s datagram and hand the result to
/// the decoder every receiver runs. Returns the byte hit and what the
/// decoder made of it. Two draws, byte then bit, whatever the message.
fn corrupt_on_the_wire(msg: &Msg, rng: &mut ChaosRng) -> (usize, Result<Vec<Msg>, WireError>) {
    let mut dgram = frame::encode_single(msg);
    let at_byte = rng.below(dgram.len() as u64) as usize;
    let bit = rng.below(8) as u8;
    dgram[at_byte] ^= 1 << bit;
    (at_byte, frame::decode_datagram(&dgram))
}

/// The per-message fate lane: a fresh SplitMix64 stream keyed by
/// `(seed, from, to, seq)`, so every message's draws are independent of
/// every other message's.
fn lane(seed: u64, from: ProcessId, to: ProcessId, seq: u64) -> ChaosRng {
    let mut s = seed;
    for v in [from.0 as u64 + 1, to.0 as u64 + 1, seq + 1] {
        s = ChaosRng(s ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
    }
    ChaosRng(s)
}

/// Fault knobs for one directed link. Probabilities are integer
/// parts-per-million so plans hash and compare exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkPlan {
    /// Probability (ppm) that a datagram is silently dropped.
    pub drop_ppm: u32,
    /// Probability (ppm) that a datagram is delivered twice.
    pub dup_ppm: u32,
    /// Probability (ppm) that a datagram is held back so later traffic
    /// overtakes it (bounded reorder).
    pub reorder_ppm: u32,
    /// Probability (ppm) that a datagram is delayed in flight.
    pub delay_ppm: u32,
    /// Probability (ppm) that one byte of the datagram is bit-flipped;
    /// the mangled bytes are run through the real decoder and the
    /// datagram is then discarded (omission).
    pub corrupt_ppm: u32,
    /// How long a reordered datagram is held back, in milliseconds.
    pub hold_ms: u32,
    /// Added in-flight delay for a delayed datagram, in milliseconds.
    pub delay_ms: u32,
}

impl LinkPlan {
    /// A transparent plan: every datagram passes untouched.
    pub fn clean() -> Self {
        Self::default()
    }

    /// A lossy link: `drop_ppm` drops, nothing else.
    pub fn lossy(drop_ppm: u32) -> Self {
        LinkPlan {
            drop_ppm,
            ..Self::default()
        }
    }

    /// True when no fault can fire.
    pub fn is_clean(&self) -> bool {
        *self == Self::default()
    }
}

/// Mutable chaos state shared by every link.
#[derive(Debug, Default)]
struct NetState {
    default_plan: LinkPlan,
    cut: HashSet<(ProcessId, ProcessId)>,
    seqs: HashMap<(ProcessId, ProcessId), u64>,
}

/// A datagram parked in the delay pump.
struct Held {
    due: Instant,
    order: u64,
    from: ProcessId,
    to: ProcessId,
    msg: Msg,
    mesh: Arc<MemTransport>,
}

impl PartialEq for Held {
    fn eq(&self, other: &Self) -> bool {
        self.order == other.order
    }
}
impl Eq for Held {}
impl PartialOrd for Held {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Held {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.order).cmp(&(other.due, other.order))
    }
}

#[derive(Default)]
struct PumpState {
    heap: BinaryHeap<Reverse<Held>>,
    shutdown: bool,
}

/// The delay pump: one thread per [`ChaosNet`] that releases held
/// datagrams when their deadline passes.
struct Pump {
    state: Mutex<PumpState>,
    cv: Condvar,
}

impl Pump {
    fn lock(&self) -> MutexGuard<'_, PumpState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(&self, held: Held) {
        self.lock().heap.push(Reverse(held));
        self.cv.notify_one();
    }

    fn run(self: &Arc<Self>) {
        let mut st = self.lock();
        loop {
            if st.shutdown {
                return;
            }
            let now = Instant::now();
            match st.heap.peek() {
                Some(Reverse(head)) if head.due <= now => {
                    let Reverse(held) = st.heap.pop().expect("peeked");
                    drop(st);
                    held.mesh.deliver(held.from, held.to, vec![held.msg]);
                    st = self.lock();
                }
                Some(Reverse(head)) => {
                    let wait = head.due - now;
                    st = self
                        .cv
                        .wait_timeout(st, wait)
                        .map(|(g, _)| g)
                        .unwrap_or_else(|e| e.into_inner().0);
                }
                None => {
                    st = self
                        .cv
                        .wait_timeout(st, Duration::from_millis(200))
                        .map(|(g, _)| g)
                        .unwrap_or_else(|e| e.into_inner().0);
                }
            }
        }
    }
}

/// The shared chaos fabric for one cluster: the seeded fault plans, the
/// directional cut matrix, the delay pump, per-fault-kind counters and
/// the common hardware clock used to stamp injected-fault events.
///
/// One `ChaosNet` is shared by every node's [`FaultTransport`]; all of
/// its knobs may be changed while the cluster runs.
pub struct ChaosNet {
    seed: u64,
    clock: RealClock,
    state: Mutex<NetState>,
    counts: [AtomicU64; FaultKind::ALL.len()],
    cut_swallowed: AtomicU64,
    held_order: AtomicU64,
    pump: Arc<Pump>,
    pump_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ChaosNet {
    /// A fresh fabric from `seed`, with every link clean and connected.
    pub fn new(seed: u64) -> Arc<Self> {
        let pump = Arc::new(Pump {
            state: Mutex::new(PumpState::default()),
            cv: Condvar::new(),
        });
        let worker = pump.clone();
        let handle = std::thread::Builder::new()
            .name("chaos-pump".into())
            .spawn(move || worker.run())
            .expect("spawn chaos pump");
        Arc::new(ChaosNet {
            seed,
            clock: RealClock::new(),
            state: Mutex::new(NetState::default()),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            cut_swallowed: AtomicU64::new(0),
            held_order: AtomicU64::new(0),
            pump,
            pump_thread: Mutex::new(Some(handle)),
        })
    }

    /// The seed the fabric was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fabric's hardware clock. Clones share the epoch, so every
    /// node of a chaos cluster can stamp events on one timeline.
    pub fn clock(&self) -> RealClock {
        self.clock.clone()
    }

    /// The current stamp on the fabric clock. Fault events carry a
    /// synchronized reading equal to the hardware reading: the fabric
    /// clock is the one global observer the model otherwise forbids —
    /// fine for the harness, which stands outside the protocol.
    pub fn stamp(&self) -> ClockStamp {
        let hw = self.clock.now_hw();
        ClockStamp {
            hw,
            sync: SyncTime(hw.0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, NetState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Replace the plan applied to every link.
    pub fn set_default_plan(&self, plan: LinkPlan) {
        self.lock().default_plan = plan;
    }

    /// Cut the directed link `from → to`: datagrams vanish silently.
    /// Returns whether the link was previously connected.
    pub fn cut(&self, from: ProcessId, to: ProcessId) -> bool {
        self.lock().cut.insert((from, to))
    }

    /// Heal the directed link `from → to`. Returns whether the link was
    /// previously cut.
    pub fn heal(&self, from: ProcessId, to: ProcessId) -> bool {
        self.lock().cut.remove(&(from, to))
    }

    /// Partition the team into disjoint sides: every link crossing a
    /// side boundary is cut (both directions), links inside a side are
    /// healed. Returns the newly cut directed links, sorted.
    pub fn partition(&self, sides: &[Vec<ProcessId>]) -> Vec<(ProcessId, ProcessId)> {
        let mut st = self.lock();
        let before = std::mem::take(&mut st.cut);
        for (i, side_a) in sides.iter().enumerate() {
            for side_b in sides.iter().skip(i + 1) {
                for &a in side_a {
                    for &b in side_b {
                        st.cut.insert((a, b));
                        st.cut.insert((b, a));
                    }
                }
            }
        }
        let mut new: Vec<_> = st.cut.difference(&before).copied().collect();
        new.sort();
        new
    }

    /// Reconnect everything. Returns the healed directed links, sorted.
    pub fn heal_all(&self) -> Vec<(ProcessId, ProcessId)> {
        let mut healed: Vec<_> = std::mem::take(&mut self.lock().cut).into_iter().collect();
        healed.sort();
        healed
    }

    /// How many faults of `kind` the fabric has injected so far.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.counts[kind as usize].load(Ordering::Relaxed)
    }

    /// Total datagrams swallowed by cut links (not traced per-message —
    /// the cut/heal events bracket the interval).
    pub fn cut_swallowed(&self) -> u64 {
        self.cut_swallowed.load(Ordering::Relaxed)
    }

    /// Count one injected fault of `kind` (also used by the controller
    /// for node-level faults so one ledger covers the whole run).
    pub fn count(&self, kind: FaultKind) {
        self.counts[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the per-kind injection counters, in
    /// [`FaultKind::ALL`] order.
    pub fn injected_counts(&self) -> [u64; FaultKind::ALL.len()] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }
}

impl Drop for ChaosNet {
    fn drop(&mut self) {
        self.pump.lock().shutdown = true;
        self.pump.cv.notify_all();
        // Take the handle in its own statement: as an `if let` scrutinee
        // the guard temporary would live across the join, and the pump
        // thread's own drop path could then deadlock against us.
        let handle = self
            .pump_thread
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

/// A node's [`Transport`] onto the in-process mesh through the shared
/// [`ChaosNet`] fault fabric. One per node.
pub struct FaultTransport {
    me: ProcessId,
    mesh: Arc<MemTransport>,
    net: Arc<ChaosNet>,
    tracer: Tracer,
}

impl FaultTransport {
    /// Node `me`'s way onto `mesh`, injecting faults from `net` and
    /// emitting [`TraceEvent::FaultInjected`] into `tracer`.
    pub fn new(
        me: ProcessId,
        mesh: Arc<MemTransport>,
        net: Arc<ChaosNet>,
        tracer: Tracer,
    ) -> Arc<Self> {
        Arc::new(FaultTransport {
            me,
            mesh,
            net,
            tracer,
        })
    }

    /// The shared fabric behind this transport.
    pub fn net(&self) -> &Arc<ChaosNet> {
        &self.net
    }

    fn emit(&self, kind: FaultKind, target: ProcessId, arg: u32) {
        self.net.count(kind);
        let at = self.net.stamp();
        let pid = self.me;
        self.tracer.emit(|| TraceEvent::FaultInjected {
            pid,
            at,
            kind,
            target,
            arg,
        });
    }

    fn hold(&self, from: ProcessId, to: ProcessId, msg: Msg, ms: u32) {
        let order = self.net.held_order.fetch_add(1, Ordering::Relaxed);
        self.net.pump.push(Held {
            due: Instant::now() + Duration::from_millis(ms as u64),
            order,
            from,
            to,
            msg,
            mesh: self.mesh.clone(),
        });
    }

    /// Roll the fate of message `seq` on link `from → to` under `plan`.
    /// What arrives with this flush's datagram is pushed onto `out`, a
    /// duplicate right after its original; a reordered or delayed
    /// message goes to the pump on its own.
    fn roll(
        &self,
        plan: &LinkPlan,
        from: ProcessId,
        to: ProcessId,
        seq: u64,
        msg: &Msg,
        out: &mut Vec<Msg>,
    ) {
        // Fixed draw order, one draw per knob, so enabling one fault
        // never changes another fault's pattern.
        let mut rng = lane(self.net.seed, from, to, seq);
        let corrupt = rng.chance_ppm(plan.corrupt_ppm);
        let dropped = rng.chance_ppm(plan.drop_ppm);
        let dup = rng.chance_ppm(plan.dup_ppm);
        let reorder = rng.chance_ppm(plan.reorder_ppm);
        let delay = rng.chance_ppm(plan.delay_ppm);

        if corrupt {
            // Flip one deterministic bit and push the result through the
            // real decoder, exactly as a receiver would — it must not
            // panic. Then discard: corruption is an omission (the
            // harness plays the role of the UDP checksum).
            let (at_byte, _decoded) = corrupt_on_the_wire(msg, &mut rng);
            self.emit(FaultKind::Corrupt, to, at_byte as u32);
            return;
        }
        if dropped {
            self.emit(FaultKind::Drop, to, 0);
            return;
        }
        if reorder && plan.hold_ms > 0 {
            self.emit(FaultKind::Reorder, to, plan.hold_ms);
            self.hold(from, to, msg.clone(), plan.hold_ms);
            return;
        }
        if delay && plan.delay_ms > 0 {
            self.emit(FaultKind::Delay, to, plan.delay_ms);
            self.hold(from, to, msg.clone(), plan.delay_ms);
            if dup {
                self.emit(FaultKind::Duplicate, to, 0);
                self.hold(from, to, msg.clone(), plan.delay_ms);
            }
            return;
        }
        out.push(msg.clone());
        if dup {
            self.emit(FaultKind::Duplicate, to, 0);
            out.push(msg.clone());
        }
    }
}

impl Transport for FaultTransport {
    /// Per destination: take the link's plan and cut state once, roll
    /// each message of its share on the link's next sequence numbers in
    /// action order, and hand the mesh the survivors as one datagram.
    fn flush(&self, from: ProcessId, batch: &mut OutBatch) {
        if batch.is_empty() {
            return;
        }
        for rank in (0..self.mesh.len()).filter(|&rank| rank != from.rank()) {
            let to = ProcessId(rank as u16);
            let n = batch.share(to).count() as u64;
            let (plan, first, cut) = {
                let mut st = self.net.lock();
                let cut = st.cut.contains(&(from, to));
                let plan = st.default_plan;
                let seq = st.seqs.entry((from, to)).or_insert(0);
                let first = *seq;
                *seq += n;
                (plan, first, cut)
            };
            if cut {
                self.net.cut_swallowed.fetch_add(n, Ordering::Relaxed);
                continue;
            }
            let mut survivors = Vec::new();
            for (seq, msg) in (first..).zip(batch.share(to)) {
                self.roll(&plan, from, to, seq, msg, &mut survivors);
            }
            self.mesh.deliver(from, to, survivors);
        }
        batch.items.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Incoming, MemTransport};
    use crossbeam::channel::{unbounded, Receiver};
    use std::sync::Arc;
    use tw_obs::VecSink;
    use tw_proto::{ClockSyncMsg, HwTime};

    fn sample(from: u16, rid: u64) -> Msg {
        Msg::ClockSync(ClockSyncMsg::Request {
            sender: ProcessId(from),
            rid,
            hw_send: HwTime(1),
        })
    }

    fn rid(msg: &Msg) -> u64 {
        match msg {
            Msg::ClockSync(ClockSyncMsg::Request { rid, .. }) => *rid,
            other => panic!("unexpected message {other:?}"),
        }
    }

    fn rid_of(inc: &Incoming) -> u64 {
        match inc {
            Incoming::Msg(_, msg) => rid(msg),
            other => panic!("unexpected incoming {other:?}"),
        }
    }

    /// The rids of everything queued in `rx`, batches flattened.
    fn rids(rx: &Receiver<Incoming>) -> Vec<u64> {
        rx.try_iter()
            .flat_map(|inc| match inc {
                Incoming::Msg(_, msg) => vec![msg],
                Incoming::Batch(_, msgs) => msgs,
            })
            .map(|msg| rid(&msg))
            .collect()
    }

    /// Flush one batch from node 0: a send to node 1 of each rid.
    fn send(t: &FaultTransport, rids: impl IntoIterator<Item = u64>) {
        let mut batch = OutBatch::new();
        for rid in rids {
            batch.push_send(ProcessId(1), sample(0, rid));
        }
        t.flush(ProcessId(0), &mut batch);
    }

    /// An `n`-node fabric: node 0's transport plus every node's inbox.
    fn team(
        n: usize,
        seed: u64,
        tracer: Tracer,
    ) -> (Arc<FaultTransport>, Vec<Receiver<Incoming>>, Arc<ChaosNet>) {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let mesh = MemTransport::new(txs.into_iter().map(Into::into).collect());
        let net = ChaosNet::new(seed);
        let t = FaultTransport::new(ProcessId(0), mesh, net.clone(), tracer);
        (t, rxs, net)
    }

    /// A 2-node fabric: node 0's transport plus node 1's inbox.
    fn pair(
        seed: u64,
        sink: Arc<VecSink>,
    ) -> (Arc<FaultTransport>, Receiver<Incoming>, Arc<ChaosNet>) {
        let (t, mut rxs, net) = team(2, seed, Tracer::new(sink));
        (t, rxs.pop().expect("two inboxes"), net)
    }

    #[test]
    fn clean_plan_is_transparent() {
        let (t, rx, net) = pair(1, Arc::new(VecSink::new()));
        for rid in 0..50 {
            send(&t, [rid]);
        }
        assert_eq!(rids(&rx), (0..50).collect::<Vec<_>>());
        assert_eq!(net.injected_counts(), [0; FaultKind::ALL.len()]);
    }

    #[test]
    fn drops_are_deterministic_across_reruns() {
        let run = |seed: u64| -> Vec<u64> {
            let (t, rx, net) = pair(seed, Arc::new(VecSink::new()));
            net.set_default_plan(LinkPlan::lossy(300_000));
            for rid in 0..200 {
                send(&t, [rid]);
            }
            rids(&rx)
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed must reproduce the same drop pattern");
        assert_ne!(a, c, "different seeds should differ");
        assert!(a.len() < 200, "a 30% lossy link must drop something");
        assert!(a.len() > 100, "a 30% lossy link must pass most traffic");
    }

    #[test]
    fn toggling_one_knob_leaves_other_fates_alone() {
        // Same seed: the set of *dropped* rids must be identical whether
        // or not duplication is also enabled.
        let run = |dup_ppm: u32| -> HashSet<u64> {
            let (t, rx, net) = pair(7, Arc::new(VecSink::new()));
            net.set_default_plan(LinkPlan {
                drop_ppm: 300_000,
                dup_ppm,
                ..LinkPlan::default()
            });
            for rid in 0..200 {
                send(&t, [rid]);
            }
            rids(&rx).into_iter().collect()
        };
        let without_dup = run(0);
        let with_dup = run(500_000);
        assert_eq!(
            without_dup, with_dup,
            "the surviving set must not shift when duplication is enabled"
        );
    }

    #[test]
    fn cut_links_swallow_directionally_and_heal() {
        let (t, rx, net) = pair(3, Arc::new(VecSink::new()));
        net.cut(ProcessId(0), ProcessId(1));
        send(&t, [1]);
        assert!(rx.try_recv().is_err(), "cut link must swallow");
        assert_eq!(net.cut_swallowed(), 1);
        net.heal(ProcessId(0), ProcessId(1));
        send(&t, [2]);
        assert_eq!(rid_of(&rx.try_recv().unwrap()), 2);
    }

    #[test]
    fn partition_cuts_cross_side_links_only() {
        let net = ChaosNet::new(9);
        let p = |n: u16| ProcessId(n);
        let crossing = vec![(p(0), p(2)), (p(1), p(2)), (p(2), p(0)), (p(2), p(1))];
        assert_eq!(net.partition(&[vec![p(0), p(1)], vec![p(2)]]), crossing);
        assert!(!net.heal(p(0), p(1)), "links inside a side stay up");
        assert_eq!(net.heal_all(), crossing);
        assert!(!net.heal(p(0), p(2)), "healed");
    }

    #[test]
    fn corruption_exercises_the_decoder_then_drops() {
        let sink = Arc::new(VecSink::new());
        let (t, rx, net) = pair(5, sink.clone());
        net.set_default_plan(LinkPlan {
            corrupt_ppm: 1_000_000,
            ..LinkPlan::default()
        });
        for rid in 0..64 {
            send(&t, [rid]);
        }
        assert!(rx.try_recv().is_err(), "corrupted datagrams never arrive");
        assert_eq!(net.injected(FaultKind::Corrupt), 64);
        let hit_bytes: Vec<u32> = sink
            .snapshot()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::FaultInjected {
                    pid: ProcessId(0),
                    kind: FaultKind::Corrupt,
                    target: ProcessId(1),
                    arg,
                    ..
                } => Some(arg),
                _ => None,
            })
            .collect();
        assert_eq!(hit_bytes.len(), 64);
        // The bytes hit are bytes of the framed datagram a receiver
        // would have been handed, and the decoder run on them is the one
        // receivers run: replay each message's lane (five fate draws,
        // then byte and bit) and a flip in byte 0 is a bad *version*.
        let mut version_hits = 0;
        for (rid, &traced) in hit_bytes.iter().enumerate() {
            let msg = sample(0, rid as u64);
            let mut rng = lane(5, ProcessId(0), ProcessId(1), rid as u64);
            for _ in 0..5 {
                rng.chance_ppm(0);
            }
            let (at_byte, decoded) = corrupt_on_the_wire(&msg, &mut rng);
            assert_eq!(at_byte as u32, traced, "message {rid}");
            assert!(at_byte < frame::encode_single(&msg).len());
            assert_ne!(decoded, Ok(vec![msg]), "a flipped bit never decodes clean");
            if at_byte == 0 {
                assert!(matches!(decoded, Err(WireError::BadVersion { .. })));
                version_hits += 1;
            }
        }
        assert!(version_hits > 0, "64 draws over ~12 bytes reach byte 0");
    }

    #[test]
    fn duplicates_arrive_exactly_twice() {
        let (t, rx, net) = pair(11, Arc::new(VecSink::new()));
        net.set_default_plan(LinkPlan {
            dup_ppm: 1_000_000,
            ..LinkPlan::default()
        });
        for rid in 0..10 {
            send(&t, [rid]);
        }
        let got = rids(&rx);
        let expect: Vec<u64> = (0..10).flat_map(|r| [r, r]).collect();
        assert_eq!(got, expect);
        assert_eq!(net.injected(FaultKind::Duplicate), 10);
    }

    #[test]
    fn delayed_datagrams_arrive_late_but_arrive() {
        let (t, rx, net) = pair(13, Arc::new(VecSink::new()));
        net.set_default_plan(LinkPlan {
            delay_ppm: 1_000_000,
            delay_ms: 40,
            ..LinkPlan::default()
        });
        send(&t, [77]);
        assert!(rx.try_recv().is_err(), "must not arrive synchronously");
        let got = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("delayed datagram must eventually arrive");
        assert_eq!(rid_of(&got), 77);
        assert_eq!(net.injected(FaultKind::Delay), 1);
    }

    #[test]
    fn reordered_datagram_is_overtaken_by_later_traffic() {
        let (t, rx, net) = pair(17, Arc::new(VecSink::new()));
        // Hold the first message back, then switch the plan off at
        // runtime so the second goes straight through.
        net.set_default_plan(LinkPlan {
            reorder_ppm: 1_000_000,
            hold_ms: 60,
            ..LinkPlan::default()
        });
        send(&t, [1]);
        net.set_default_plan(LinkPlan::clean());
        send(&t, [2]);
        let first = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let second = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(rid_of(&first), 2, "later traffic overtakes the held one");
        assert_eq!(rid_of(&second), 1, "held datagram still arrives");
        assert_eq!(net.injected(FaultKind::Reorder), 1);
    }

    #[test]
    fn a_flushed_broadcast_rolls_per_link() {
        let (t, rxs, net) = team(3, 21, Tracer::disabled());
        net.cut(ProcessId(0), ProcessId(1));
        let mut batch = OutBatch::new();
        batch.push_broadcast(sample(0, 5));
        t.flush(ProcessId(0), &mut batch);
        assert!(
            rxs[1].try_recv().is_err(),
            "cut leg of the broadcast vanishes"
        );
        assert_eq!(rid_of(&rxs[2].try_recv().unwrap()), 5);
    }

    /// The survivors of rids 0..40 from node 0 to node 1 on a 30 % lossy
    /// link of `ChaosNet::new(42)`, pinned: how the messages are grouped
    /// into flushes must not move a single fate.
    const SEED_42_SURVIVORS: [u64; 27] = [
        1, 2, 5, 6, 9, 10, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 24, 26, 27, 28, 32, 33, 35, 36,
        37, 38, 39,
    ];

    #[test]
    fn fates_do_not_depend_on_batching() {
        let run = |flushes: &[Vec<u64>]| {
            let (t, rx, net) = pair(42, Arc::new(VecSink::new()));
            net.set_default_plan(LinkPlan::lossy(300_000));
            for flush in flushes {
                send(&t, flush.iter().copied());
            }
            (rids(&rx), net.injected(FaultKind::Drop))
        };
        let one_each: Vec<Vec<u64>> = (0..40).map(|rid| vec![rid]).collect();
        for flushes in [one_each, vec![(0..40).collect()]] {
            let (got, dropped) = run(&flushes);
            assert_eq!(got, SEED_42_SURVIVORS, "{} flushes", flushes.len());
            assert_eq!(dropped, 40 - SEED_42_SURVIVORS.len() as u64);
        }
    }

    #[test]
    fn a_flush_reaches_each_destination_as_one_datagram() {
        let (t, rxs, net) = team(3, 23, Tracer::disabled());
        let one = |rx: &Receiver<Incoming>| match rx.try_recv() {
            Ok(Incoming::Batch(from, msgs)) => {
                assert_eq!(from, ProcessId(0));
                assert!(rx.try_recv().is_err(), "one datagram per destination");
                msgs.iter().map(rid).collect::<Vec<_>>()
            }
            other => panic!("expected one batch, got {other:?}"),
        };
        let flush = |msgs: &[(Option<u16>, u64)]| {
            let mut batch = OutBatch::new();
            for &(to, rid) in msgs {
                match to {
                    Some(to) => batch.push_send(ProcessId(to), sample(0, rid)),
                    None => batch.push_broadcast(sample(0, rid)),
                }
            }
            t.flush(ProcessId(0), &mut batch);
            assert!(batch.is_empty());
        };
        let first_flush = [(None, 1), (Some(2), 2), (Some(1), 3), (None, 4)];

        // Every message doubled, node 2 cut off: node 1 hears its share.
        net.set_default_plan(LinkPlan {
            dup_ppm: 1_000_000,
            ..LinkPlan::default()
        });
        net.cut(ProcessId(0), ProcessId(2));
        flush(&first_flush);
        assert_eq!(
            one(&rxs[1]),
            [1, 1, 3, 3, 4, 4],
            "a duplicate follows its original"
        );
        assert!(rxs[2].try_recv().is_err(), "a cut link carries nothing");

        // Every message held, node 1 cut off: the pump delivers each of
        // node 2's on its own once its hold is over.
        net.heal(ProcessId(0), ProcessId(2));
        net.cut(ProcessId(0), ProcessId(1));
        net.set_default_plan(LinkPlan {
            reorder_ppm: 1_000_000,
            hold_ms: 300,
            ..LinkPlan::default()
        });
        flush(&first_flush);
        assert!(
            rxs[2].try_recv().is_err(),
            "held messages are not in the datagram"
        );
        net.set_default_plan(LinkPlan::clean());
        flush(&[(Some(2), 5), (Some(2), 6)]);
        assert_eq!(one(&rxs[2]), [5, 6]);
        let late: Vec<u64> = (0..3)
            .map(|_| rid_of(&rxs[2].recv_timeout(Duration::from_secs(5)).unwrap()))
            .collect();
        assert_eq!(late, [1, 2, 4], "held messages arrive later, one each");
        assert!(rxs[1].try_recv().is_err(), "node 1 stayed cut off");
        assert_eq!(net.injected(FaultKind::Reorder), 3);
        assert_eq!(net.injected(FaultKind::Duplicate), 3);
    }

    #[test]
    fn lane_is_a_pure_function_of_its_key() {
        let a: Vec<u64> = {
            let mut r = lane(99, ProcessId(1), ProcessId(2), 7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = lane(99, ProcessId(1), ProcessId(2), 7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = lane(99, ProcessId(2), ProcessId(1), 7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c, "link direction must matter");
    }
}
