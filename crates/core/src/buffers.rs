//! Proposal buffers (paper §2: "each member maintains two buffers — a
//! proposal buffer … and a proposal descriptor buffer").
//!
//! [`ProposalBuffer`] merges the paper's *pb* (full proposals awaiting
//! delivery) and the delivery-relevant parts of its *pdb* (what do I know
//! about each proposal: its ordinal once assigned, whether it was
//! delivered, whether it is locally marked undeliverable during an
//! election, §4.3). It also enforces the per-sender FIFO ("general")
//! delivery condition and incarnation-based stale-life rejection.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use tw_proto::{Incarnation, Ordinal, ProcessId, Proposal, ProposalId, SyncTime};

/// Per-sender FIFO cursor with out-of-order consumption support: purged
/// (undeliverable) proposals consume their sequence number without being
/// delivered, so later proposals from the same sender do not block.
#[derive(Debug, Clone, Default)]
struct FifoCursor {
    /// Next sequence number eligible for delivery.
    next: u64,
    /// Sequence numbers ≥ `next` already consumed out of order.
    consumed_ahead: BTreeSet<u64>,
}

impl FifoCursor {
    fn start_at(next: u64) -> Self {
        FifoCursor {
            next,
            consumed_ahead: BTreeSet::new(),
        }
    }

    fn ready(&self, seq: u64) -> bool {
        seq == self.next
    }

    fn consume(&mut self, seq: u64) {
        if seq == self.next {
            self.next += 1;
            while self.consumed_ahead.remove(&self.next) {
                self.next += 1;
            }
        } else if seq > self.next {
            self.consumed_ahead.insert(seq);
        }
        // seq < next: already consumed, ignore.
    }
}

/// The per-member store of received, delivered and purged proposals.
#[derive(Debug, Clone, Default)]
pub struct ProposalBuffer {
    /// Received, not yet delivered, not purged.
    pending: BTreeMap<ProposalId, Proposal>,
    /// Ids delivered to the application.
    delivered: BTreeSet<ProposalId>,
    /// Ordinals learned from the oal (kept after the oal prunes them).
    ordinals: BTreeMap<ProposalId, Ordinal>,
    /// §4.3 local undeliverable marks, with their expiry (one cycle,
    /// unless renewed).
    local_marks: BTreeMap<ProposalId, SyncTime>,
    /// FIFO cursors per proposer.
    fifo: BTreeMap<ProcessId, FifoCursor>,
    /// Latest known incarnation per proposer.
    incarnations: BTreeMap<ProcessId, Incarnation>,
    /// Delivered proposals retained for retransmission until their
    /// descriptor is stable (pruned from the oal).
    archive: BTreeMap<ProposalId, Proposal>,
}

impl ProposalBuffer {
    /// Empty buffer; FIFO cursors start at sequence 1 for every sender.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a received proposal. Returns false (and ignores it) if it
    /// is a duplicate, already delivered, from a stale incarnation, or
    /// below the sender's FIFO cursor (already consumed).
    pub fn insert(&mut self, p: Proposal) -> bool {
        let id = p.id();
        if let Some(&known) = self.incarnations.get(&p.sender) {
            if p.incarnation < known {
                return false;
            }
        }
        if self.delivered.contains(&id) || self.pending.contains_key(&id) {
            return false;
        }
        if let Some(c) = self.fifo.get(&p.sender) {
            if p.seq < c.next || c.consumed_ahead.contains(&p.seq) {
                return false;
            }
        }
        self.pending.insert(id, p);
        true
    }

    /// Record `p`'s current incarnation (from a join message). Raising it
    /// purges pending proposals from older incarnations of `p` and moves
    /// `p`'s FIFO cursor to the start of the new incarnation's sequence
    /// band (sequence numbers are banded: `seq = incarnation << 32 | k`),
    /// so the recovered process's fresh proposals are not blocked behind
    /// its dead incarnation's stream.
    pub fn note_incarnation(&mut self, p: ProcessId, inc: Incarnation) {
        let prev = self.incarnations.get(&p).copied();
        self.incarnations.insert(p, inc);
        if prev.map_or(inc.0 > 0, |old| inc > old) {
            self.pending
                .retain(|id, pr| id.proposer != p || pr.incarnation >= inc);
            let band_start = ((inc.0 as u64) << 32) + 1;
            let cur = self
                .fifo
                .entry(p)
                .or_insert_with(|| FifoCursor::start_at(1));
            if cur.next < band_start {
                *cur = FifoCursor::start_at(band_start);
            }
        }
    }

    /// The pending proposal with this id, if any.
    pub fn get(&self, id: ProposalId) -> Option<&Proposal> {
        self.pending.get(&id)
    }

    /// Is this proposal in the pending buffer?
    pub fn has_pending(&self, id: ProposalId) -> bool {
        self.pending.contains_key(&id)
    }

    /// Has this proposal been received at some point (pending or
    /// delivered)?
    pub fn has_received(&self, id: ProposalId) -> bool {
        self.pending.contains_key(&id) || self.delivered.contains(&id)
    }

    /// Has it been delivered?
    pub fn is_delivered(&self, id: ProposalId) -> bool {
        self.delivered.contains(&id)
    }

    /// Iterate pending proposals in id order.
    pub fn pending(&self) -> impl Iterator<Item = &Proposal> {
        self.pending.values()
    }

    /// Number of pending proposals.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The pending proposal at each proposer's FIFO cursor, in proposer
    /// order. These are the only proposals [`ProposalBuffer::fifo_ready`]
    /// can pass, so the first deliverable one among them is the first
    /// deliverable pending proposal in id order. A proposer whose cursor
    /// points at a proposal not (or no longer) held has no head.
    pub fn heads(&self) -> impl Iterator<Item = &Proposal> {
        let mut after = Bound::Unbounded;
        std::iter::from_fn(move || loop {
            let (first, _) = self.pending.range((after, Bound::Unbounded)).next()?;
            let proposer = first.proposer;
            after = Bound::Excluded(ProposalId::new(proposer, u64::MAX));
            let next = self.fifo.get(&proposer).map_or(1, |c| c.next);
            if let Some(p) = self.pending.get(&ProposalId::new(proposer, next)) {
                return Some(p);
            }
        })
    }

    /// Record an ordinal assignment learned from the oal.
    pub fn learn_ordinal(&mut self, id: ProposalId, o: Ordinal) {
        self.ordinals.insert(id, o);
    }

    /// The ordinal of `id`, if learned.
    pub fn ordinal_of(&self, id: ProposalId) -> Option<Ordinal> {
        self.ordinals.get(&id).copied()
    }

    /// Forget every learned ordinal assignment. Called when the member
    /// adopts an oal from a *diverged* lineage (a new group re-ordered
    /// in-flight updates): the old assignments are void and must be
    /// re-learned from the new window, or re-assigned by a future
    /// decider.
    pub fn clear_ordinals(&mut self) {
        self.ordinals.clear();
    }

    /// Does the sender's FIFO cursor permit delivering `id` now?
    pub fn fifo_ready(&self, id: ProposalId) -> bool {
        match self.fifo.get(&id.proposer) {
            Some(c) => c.ready(id.seq),
            None => id.seq == 1,
        }
    }

    /// Initialize a FIFO cursor (state transfer at join). Pending
    /// proposals below the cursor are dropped: the transferred
    /// application state already covers them. Cursors never move
    /// backwards — a late or duplicate transfer must not rewind FIFO.
    pub fn set_fifo_cursor(&mut self, p: ProcessId, next: u64) {
        let next = next.max(1);
        if let Some(cur) = self.fifo.get(&p) {
            if cur.next >= next {
                return;
            }
        }
        self.fifo.insert(p, FifoCursor::start_at(next));
        self.pending
            .retain(|id, _| id.proposer != p || id.seq >= next);
    }

    /// Current FIFO cursors (for state transfer to a joiner).
    pub fn fifo_cursors(&self) -> Vec<(ProcessId, u64)> {
        self.fifo.iter().map(|(p, c)| (*p, c.next)).collect()
    }

    fn cursor_mut(&mut self, p: ProcessId) -> &mut FifoCursor {
        self.fifo
            .entry(p)
            .or_insert_with(|| FifoCursor::start_at(1))
    }

    /// Deliver `id`: move from pending to delivered, consuming its FIFO
    /// slot. Returns the proposal. Panics if not pending (callers check
    /// delivery conditions first). The proposal is archived for
    /// retransmission until its descriptor becomes stable.
    pub fn deliver(&mut self, id: ProposalId) -> Proposal {
        let p = self.pending.remove(&id).expect("deliver of non-pending");
        self.cursor_mut(id.proposer).consume(id.seq);
        self.delivered.insert(id);
        self.archive.insert(id, p.clone());
        p
    }

    /// Retrieve a proposal we still hold (pending or archived) for
    /// retransmission.
    pub fn retrieve(&self, id: ProposalId) -> Option<&Proposal> {
        self.pending.get(&id).or_else(|| self.archive.get(&id))
    }

    /// Drop archived proposals whose ordinals fell below the stable
    /// frontier `base` — everyone has them, no retransmission possible.
    pub fn gc_archive(&mut self, base: tw_proto::Ordinal) {
        let ordinals = &self.ordinals;
        self.archive.retain(|id, _| match ordinals.get(id) {
            Some(&o) => o >= base,
            None => true, // not ordered yet: keep
        });
    }

    /// Purge `id` as undeliverable (decider verdict, §4.3): drop it from
    /// pending and consume its FIFO slot so successors can proceed
    /// (unless they are orphaned — the decider marks those too).
    pub fn purge(&mut self, id: ProposalId) {
        self.pending.remove(&id);
        self.local_marks.remove(&id);
        self.cursor_mut(id.proposer).consume(id.seq);
    }

    /// §4.3: locally mark `id` undeliverable until `until` (one cycle).
    /// Marked proposals are neither delivered nor acknowledged while the
    /// mark is live; it expires automatically ("an undeliverable mark on
    /// a proposal is automatically cleared after one cycle, unless it was
    /// set again").
    pub fn mark_local(&mut self, id: ProposalId, until: SyncTime) {
        let e = self.local_marks.entry(id).or_insert(until);
        *e = (*e).max(until);
    }

    /// Is `id` currently locally marked?
    pub fn is_locally_marked(&self, id: ProposalId, now: SyncTime) -> bool {
        match self.local_marks.get(&id) {
            Some(&until) => now <= until,
            None => false,
        }
    }

    /// Drop expired local marks.
    pub fn expire_marks(&mut self, now: SyncTime) {
        self.local_marks.retain(|_, &mut until| now <= until);
    }

    /// Wipe everything (crash).
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use tw_proto::Semantics;

    fn prop(sender: u16, seq: u64) -> Proposal {
        Proposal {
            sender: ProcessId(sender),
            incarnation: Incarnation(0),
            seq,
            send_ts: SyncTime(seq as i64),
            hdo: Ordinal::ZERO,
            semantics: Semantics::UNORDERED_WEAK,
            payload: Bytes::from_static(b"p"),
        }
    }

    #[test]
    fn insert_rejects_duplicates() {
        let mut b = ProposalBuffer::new();
        assert!(b.insert(prop(0, 1)));
        assert!(!b.insert(prop(0, 1)));
        assert_eq!(b.pending_len(), 1);
    }

    #[test]
    fn fifo_order_enforced() {
        let mut b = ProposalBuffer::new();
        b.insert(prop(0, 1));
        b.insert(prop(0, 2));
        assert!(b.fifo_ready(ProposalId::new(ProcessId(0), 1)));
        assert!(!b.fifo_ready(ProposalId::new(ProcessId(0), 2)));
        b.deliver(ProposalId::new(ProcessId(0), 1));
        assert!(b.fifo_ready(ProposalId::new(ProcessId(0), 2)));
    }

    #[test]
    fn purge_unblocks_successors() {
        let mut b = ProposalBuffer::new();
        b.insert(prop(0, 1));
        b.insert(prop(0, 2));
        b.purge(ProposalId::new(ProcessId(0), 1));
        assert!(b.fifo_ready(ProposalId::new(ProcessId(0), 2)));
        assert!(!b.has_pending(ProposalId::new(ProcessId(0), 1)));
    }

    #[test]
    fn out_of_order_purge_then_delivery() {
        let mut b = ProposalBuffer::new();
        b.insert(prop(0, 1));
        b.insert(prop(0, 2));
        b.insert(prop(0, 3));
        // Purge #2 first (e.g. marked undeliverable by a new decider).
        b.purge(ProposalId::new(ProcessId(0), 2));
        assert!(b.fifo_ready(ProposalId::new(ProcessId(0), 1)));
        b.deliver(ProposalId::new(ProcessId(0), 1));
        // Cursor must have skipped over consumed #2 to #3.
        assert!(b.fifo_ready(ProposalId::new(ProcessId(0), 3)));
    }

    #[test]
    fn delivered_proposals_rejected_on_reinsert() {
        let mut b = ProposalBuffer::new();
        b.insert(prop(0, 1));
        b.deliver(ProposalId::new(ProcessId(0), 1));
        assert!(!b.insert(prop(0, 1)), "retransmission of delivered");
        assert!(b.is_delivered(ProposalId::new(ProcessId(0), 1)));
    }

    #[test]
    fn stale_incarnation_rejected() {
        let mut b = ProposalBuffer::new();
        b.note_incarnation(ProcessId(0), Incarnation(2));
        let mut old = prop(0, 1);
        old.incarnation = Incarnation(1);
        assert!(!b.insert(old));
        // Fresh proposals live in the incarnation's sequence band.
        let band = (2u64 << 32) + 1;
        let mut fresh = prop(0, band);
        fresh.incarnation = Incarnation(2);
        assert!(b.insert(fresh));
        assert!(b.fifo_ready(ProposalId::new(ProcessId(0), band)));
    }

    #[test]
    fn raising_incarnation_purges_old_pending() {
        let mut b = ProposalBuffer::new();
        b.insert(prop(0, 1)); // incarnation 0
        b.note_incarnation(ProcessId(0), Incarnation(1));
        assert!(!b.has_pending(ProposalId::new(ProcessId(0), 1)));
    }

    #[test]
    fn ordinals_survive_and_gate_dpd() {
        let mut b = ProposalBuffer::new();
        b.insert(prop(0, 1));
        b.insert(prop(0, 2));
        b.deliver(ProposalId::new(ProcessId(0), 1));
        b.learn_ordinal(ProposalId::new(ProcessId(0), 2), Ordinal(7));
        b.learn_ordinal(ProposalId::new(ProcessId(0), 1), Ordinal(3));
        assert_eq!(
            b.ordinal_of(ProposalId::new(ProcessId(0), 1)),
            Some(Ordinal(3))
        );
    }

    #[test]
    fn local_marks_expire() {
        let mut b = ProposalBuffer::new();
        let id = ProposalId::new(ProcessId(0), 1);
        b.mark_local(id, SyncTime(100));
        assert!(b.is_locally_marked(id, SyncTime(50)));
        assert!(b.is_locally_marked(id, SyncTime(100)));
        assert!(!b.is_locally_marked(id, SyncTime(101)));
        b.expire_marks(SyncTime(101));
        assert!(!b.is_locally_marked(id, SyncTime(50)), "expired mark gone");
    }

    #[test]
    fn mark_extension_keeps_latest_expiry() {
        let mut b = ProposalBuffer::new();
        let id = ProposalId::new(ProcessId(0), 1);
        b.mark_local(id, SyncTime(100));
        b.mark_local(id, SyncTime(200));
        b.mark_local(id, SyncTime(150)); // does not shorten
        assert!(b.is_locally_marked(id, SyncTime(200)));
    }

    #[test]
    fn joiner_fifo_cursor_setup() {
        let mut b = ProposalBuffer::new();
        b.set_fifo_cursor(ProcessId(3), 42);
        assert!(!b.insert(prop(3, 41)), "below cursor: already consumed");
        assert!(b.insert(prop(3, 42)));
        assert!(b.fifo_ready(ProposalId::new(ProcessId(3), 42)));
        let cursors = b.fifo_cursors();
        assert!(cursors.contains(&(ProcessId(3), 42)));
    }

    #[test]
    fn heads_are_the_fifo_ready_pending_proposals() {
        let mut b = ProposalBuffer::new();
        let ids = |b: &ProposalBuffer| b.heads().map(|p| p.id()).collect::<Vec<_>>();
        assert!(ids(&b).is_empty());
        // p0 holds 1..=3 (head 1); p1 holds only 2 (blocked behind 1, no
        // head); p3 was cursored to 42 and holds 42, 43 (head 42).
        for seq in 1..=3 {
            b.insert(prop(0, seq));
        }
        b.insert(prop(1, 2));
        b.set_fifo_cursor(ProcessId(3), 42);
        b.insert(prop(3, 43));
        b.insert(prop(3, 42));
        assert_eq!(
            ids(&b),
            vec![
                ProposalId::new(ProcessId(0), 1),
                ProposalId::new(ProcessId(3), 42)
            ]
        );
        // Exactly the pending proposals `fifo_ready` passes, in id order.
        let ready: Vec<_> = b
            .pending()
            .map(|p| p.id())
            .filter(|id| b.fifo_ready(*id))
            .collect();
        assert_eq!(ids(&b), ready);
        // Consuming a head moves it; purging a hole opens the next one.
        b.deliver(ProposalId::new(ProcessId(0), 1));
        b.purge(ProposalId::new(ProcessId(1), 1));
        assert_eq!(
            ids(&b),
            vec![
                ProposalId::new(ProcessId(0), 2),
                ProposalId::new(ProcessId(1), 2),
                ProposalId::new(ProcessId(3), 42)
            ]
        );
    }

    #[test]
    fn cursor_in_a_later_incarnation_band_leaves_no_head() {
        // A proposal that claims the new incarnation but numbers itself
        // in the old band survives the purge, and sits below the cursor
        // for good: it must not be offered, and nothing must loop on it.
        let mut b = ProposalBuffer::new();
        let mut stray = prop(0, 5);
        stray.incarnation = Incarnation(1);
        b.insert(stray);
        b.note_incarnation(ProcessId(0), Incarnation(1));
        assert!(b.has_pending(ProposalId::new(ProcessId(0), 5)));
        assert_eq!(b.heads().count(), 0);
        let band = (1u64 << 32) + 1;
        let mut fresh = prop(0, band);
        fresh.incarnation = Incarnation(1);
        b.insert(fresh);
        assert_eq!(
            b.heads().map(|p| p.id()).collect::<Vec<_>>(),
            vec![ProposalId::new(ProcessId(0), band)]
        );
    }

    #[test]
    fn clear_wipes_state() {
        let mut b = ProposalBuffer::new();
        b.insert(prop(0, 1));
        b.deliver(ProposalId::new(ProcessId(0), 1));
        b.clear();
        assert!(!b.is_delivered(ProposalId::new(ProcessId(0), 1)));
        assert!(b.insert(prop(0, 1)));
    }
}
