//! Proposal buffers (paper §2: "each member maintains two buffers — a
//! proposal buffer … and a proposal descriptor buffer").
//!
//! [`ProposalBuffer`] merges the paper's *pb* (full proposals awaiting
//! delivery) and the delivery-relevant parts of its *pdb* (what do I know
//! about each proposal: its ordinal once assigned, whether it was
//! delivered, whether it is locally marked undeliverable during an
//! election, §4.3). It also enforces the per-sender FIFO ("general")
//! delivery condition and incarnation-based stale-life rejection.
//!
//! What it keeps is the window's, not the history's: delivered ids are
//! per-proposer runs of sequence numbers, and once the window base passes
//! a delivered update's ordinal the update is *settled* — its assignment
//! and its archived copy are dropped, and only the fact that it was
//! ordered stays, in a second run set. Test and debug builds also keep
//! the full history and assert at every query that the compact state
//! answers the same.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
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

/// A set of proposal ids stored as runs of consecutive sequence numbers
/// of one proposer. FIFO delivery makes each proposer's delivered ids one
/// run; only a purge or a cursor jump opens a hole.
#[derive(Debug, Clone, Default)]
struct IdRuns {
    /// First id of each run → the last sequence number in it.
    runs: BTreeMap<ProposalId, u64>,
}

impl IdRuns {
    fn contains(&self, id: ProposalId) -> bool {
        self.run_at_or_below(id)
            .is_some_and(|(_, last)| id.seq <= last)
    }

    /// The run of `id`'s proposer starting at or below `id`.
    fn run_at_or_below(&self, id: ProposalId) -> Option<(ProposalId, u64)> {
        let (&start, &last) = self.runs.range(..=id).next_back()?;
        (start.proposer == id.proposer).then_some((start, last))
    }

    /// Add `id`, joining the runs that end just below or start just
    /// above it.
    fn insert(&mut self, id: ProposalId) {
        let below = self.run_at_or_below(id);
        if below.is_some_and(|(_, last)| id.seq <= last) {
            return;
        }
        let last = id
            .seq
            .checked_add(1)
            .and_then(|next| self.runs.remove(&ProposalId::new(id.proposer, next)))
            .unwrap_or(id.seq);
        match below {
            Some((start, prev)) if prev + 1 == id.seq => self.runs.insert(start, last),
            _ => self.runs.insert(id, last),
        };
    }

    /// Number of runs.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.runs.len()
    }
}

/// The per-member store of received, delivered and purged proposals.
#[derive(Debug, Clone, Default)]
pub struct ProposalBuffer {
    /// Received, not yet delivered, not purged.
    pending: BTreeMap<ProposalId, Proposal>,
    /// Ids delivered to the application.
    delivered: IdRuns,
    /// Learned ordinal assignments not settled: those of the oal window,
    /// and those of undelivered proposals whose ordinal fell below the
    /// window base (a pending proposal can sit there).
    ordinals: BTreeMap<ProposalId, Ordinal>,
    /// The assignments of `ordinals` the next [`ProposalBuffer::settle`]
    /// must look at, in ascending order: all at or above the last settled
    /// base, plus those below it learned or delivered since. An
    /// undelivered assignment leaves it when the base passes it, and
    /// comes back if the proposal is delivered. Assignments are learned
    /// in ascending order nearly always, so keeping it sorted is a push.
    by_ordinal: VecDeque<(Ordinal, ProposalId)>,
    /// The window base at the last settle.
    settled_base: Ordinal,
    /// Delivered ids whose ordinal the window base has passed: ordered in
    /// this lineage, their assignment no longer kept.
    settled: IdRuns,
    /// §4.3 local undeliverable marks, with their expiry (one cycle,
    /// unless renewed).
    local_marks: BTreeMap<ProposalId, SyncTime>,
    /// FIFO cursors per proposer.
    fifo: BTreeMap<ProcessId, FifoCursor>,
    /// Latest known incarnation per proposer.
    incarnations: BTreeMap<ProcessId, Incarnation>,
    /// Delivered proposals retained for retransmission until they settle.
    archive: BTreeMap<ProposalId, Proposal>,
    /// The full history the compact fields stand for.
    #[cfg(any(test, debug_assertions))]
    reference: History,
}

/// What a member that forgets nothing would hold: the statement the
/// compact fields of [`ProposalBuffer`] are checked against.
#[cfg(any(test, debug_assertions))]
#[derive(Debug, Clone, Default)]
struct History {
    /// Every id ever delivered.
    delivered: BTreeSet<ProposalId>,
    /// Every assignment ever learned (until the lineage is voided).
    ordinals: BTreeMap<ProposalId, Ordinal>,
    /// The archive's ids as a sweep of the whole archive at every settle
    /// leaves them: every delivered id not assigned an ordinal below the
    /// base of the last sweep.
    archived: BTreeSet<ProposalId>,
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
        if self.is_delivered(id) || self.pending.contains_key(&id) {
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
        self.pending.contains_key(&id) || self.is_delivered(id)
    }

    /// Has it been delivered?
    pub fn is_delivered(&self, id: ProposalId) -> bool {
        let delivered = self.delivered.contains(id);
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            delivered,
            self.reference.delivered.contains(&id),
            "delivered runs and delivered set disagree on {id}"
        );
        delivered
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
        #[cfg(any(test, debug_assertions))]
        self.reference.ordinals.insert(id, o);
        match self.ordinals.insert(id, o) {
            Some(old) if old == o => return,
            Some(old) => {
                if let Ok(i) = self.by_ordinal.binary_search(&(old, id)) {
                    self.by_ordinal.remove(i);
                }
            }
            None => {}
        }
        self.index(o, id);
    }

    /// Put `(o, id)` in `by_ordinal`, in order.
    fn index(&mut self, o: Ordinal, id: ProposalId) {
        let entry = (o, id);
        if self.by_ordinal.back().is_none_or(|last| *last < entry) {
            self.by_ordinal.push_back(entry);
        } else if let Err(i) = self.by_ordinal.binary_search(&entry) {
            self.by_ordinal.insert(i, entry);
        }
    }

    /// The ordinal of `id`, if learned and not settled.
    pub fn ordinal_of(&self, id: ProposalId) -> Option<Ordinal> {
        let o = self.ordinals.get(&id).copied();
        #[cfg(any(test, debug_assertions))]
        assert!(
            o == self.reference.ordinals.get(&id).copied()
                || (o.is_none() && self.settled.contains(id)),
            "{id}: assignment {o:?}, full history {:?}",
            self.reference.ordinals.get(&id)
        );
        o
    }

    /// Was `id` ordered in this lineage — is its assignment learned, or
    /// settled?
    pub fn is_ordered(&self, id: ProposalId) -> bool {
        let ordered = self.ordinals.contains_key(&id) || self.settled.contains(id);
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            ordered,
            self.reference.ordinals.contains_key(&id),
            "assignments and full history disagree on whether {id} is ordered"
        );
        ordered
    }

    /// Forget every learned ordinal assignment, settled ones included.
    /// Called when the member adopts an oal from a *diverged* lineage (a
    /// new group re-ordered in-flight updates): the old assignments are
    /// void and must be re-learned from the new window, or re-assigned by
    /// a future decider.
    pub fn clear_ordinals(&mut self) {
        self.ordinals.clear();
        self.by_ordinal.clear();
        self.settled_base = Ordinal::ZERO;
        self.settled = IdRuns::default();
        #[cfg(any(test, debug_assertions))]
        self.reference.ordinals.clear();
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
    /// retransmission until it settles.
    pub fn deliver(&mut self, id: ProposalId) -> Proposal {
        let p = self.pending.remove(&id).expect("deliver of non-pending");
        self.cursor_mut(id.proposer).consume(id.seq);
        self.delivered.insert(id);
        if let Some(&o) = self.ordinals.get(&id) {
            if o < self.settled_base {
                // Ordered below the base already: the next settle takes it.
                self.index(o, id);
            }
        }
        self.archive.insert(id, p.clone());
        #[cfg(any(test, debug_assertions))]
        {
            self.reference.delivered.insert(id);
            self.reference.archived.insert(id);
        }
        p
    }

    /// Retrieve a proposal we still hold (pending or archived) for
    /// retransmission.
    pub fn retrieve(&self, id: ProposalId) -> Option<&Proposal> {
        self.pending.get(&id).or_else(|| self.archive.get(&id))
    }

    /// Settle what the oal window's base has passed: every delivered
    /// proposal ordered below `base` is stable — everyone has it, nobody
    /// will ask for it again — so its archived copy and its assignment
    /// go, and it is recorded as settled. Undelivered ones keep their
    /// assignment. Costs the assignments the base passed since the last
    /// call, plus, when the window re-opened below that base, one pass
    /// over the assignments kept.
    pub fn settle(&mut self, base: Ordinal) {
        if base < self.settled_base {
            let mut all: Vec<_> = self.ordinals.iter().map(|(id, o)| (*o, *id)).collect();
            all.sort_unstable();
            self.by_ordinal = all.into();
        }
        self.settled_base = base;
        while let Some(&(o, id)) = self.by_ordinal.front() {
            if o >= base {
                break;
            }
            self.by_ordinal.pop_front();
            if self.delivered.contains(id) {
                self.ordinals.remove(&id);
                self.archive.remove(&id);
                self.settled.insert(id);
            }
        }
        #[cfg(any(test, debug_assertions))]
        {
            let History {
                ordinals, archived, ..
            } = &mut self.reference;
            archived.retain(|id| ordinals.get(id).is_none_or(|&o| o >= base));
            assert!(
                self.archive.keys().eq(archived.iter()),
                "settled archive and full-history collection disagree below {base:?}"
            );
        }
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

    /// Entries kept per ordered update — assignments, their index,
    /// archived copies — and the runs of delivered and of settled ids.
    #[cfg(test)]
    pub(crate) fn footprint(&self) -> ([usize; 3], usize, usize) {
        let kept = [
            self.ordinals.len(),
            self.by_ordinal.len(),
            self.archive.len(),
        ];
        (kept, self.delivered.len(), self.settled.len())
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
        assert_eq!(b.footprint().1, 0, "no delivered runs left");
        assert!(b.insert(prop(0, 1)));
    }

    fn id(sender: u16, seq: u64) -> ProposalId {
        ProposalId::new(ProcessId(sender), seq)
    }

    /// Deliver `seqs` of sender 0, each received first.
    fn deliver_all(b: &mut ProposalBuffer, seqs: impl IntoIterator<Item = u64>) {
        for seq in seqs {
            assert!(b.insert(prop(0, seq)), "{seq} refused");
            b.deliver(id(0, seq));
        }
    }

    #[test]
    fn adjacent_runs_merge() {
        let mut r = IdRuns::default();
        for seq in [1, 2, 5, 6] {
            r.insert(id(0, seq));
        }
        r.insert(id(1, 3)); // another proposer's, between them in id order
        r.insert(id(1, 4));
        assert_eq!(r.len(), 3);
        r.insert(id(0, 4)); // joins the run above
        r.insert(id(0, 3)); // and now the one below
        assert_eq!(r.len(), 2);
        assert!((1..=6).all(|seq| r.contains(id(0, seq))));
        assert!(![id(0, 0), id(0, 7), id(1, 2), id(1, 5)]
            .into_iter()
            .any(|i| r.contains(i)));
        r.insert(id(0, u64::MAX));
        assert!(r.contains(id(0, u64::MAX)) && !r.contains(id(0, u64::MAX - 1)));
    }

    #[test]
    fn out_of_order_purge_leaves_a_hole() {
        let mut b = ProposalBuffer::new();
        for seq in 1..=4 {
            b.insert(prop(0, seq));
        }
        b.purge(id(0, 2));
        for seq in [1, 3, 4] {
            b.deliver(id(0, seq));
        }
        assert_eq!(b.footprint().1, 2);
        assert!(!b.is_delivered(id(0, 2)) && !b.has_received(id(0, 2)));
        assert!(b.is_delivered(id(0, 1)) && b.is_delivered(id(0, 3)));
    }

    #[test]
    fn cursor_jump_starts_a_run() {
        let mut b = ProposalBuffer::new();
        deliver_all(&mut b, 1..=2);
        b.set_fifo_cursor(ProcessId(0), 10);
        deliver_all(&mut b, 10..=11);
        assert_eq!(b.footprint().1, 2);
        assert!((3..10).all(|seq| !b.is_delivered(id(0, seq))));
        assert!(b.is_delivered(id(0, 11)) && !b.insert(prop(0, 11)));
    }

    #[test]
    fn incarnation_band_starts_a_run() {
        let mut b = ProposalBuffer::new();
        deliver_all(&mut b, [1]);
        b.note_incarnation(ProcessId(0), Incarnation(1));
        let band = (1u64 << 32) + 1;
        for seq in band..band + 2 {
            let mut p = prop(0, seq);
            p.incarnation = Incarnation(1);
            b.insert(p);
            b.deliver(id(0, seq));
        }
        assert_eq!(b.footprint().1, 2);
        assert!(b.is_delivered(id(0, 1)) && b.is_delivered(id(0, band + 1)));
        assert!(!b.is_delivered(id(0, 2)) && !b.is_delivered(id(0, band - 1)));
    }

    #[test]
    fn delivered_runs_answer_what_a_delivered_set_would() {
        // A seeded walk over everything that touches delivery: receipt,
        // delivery of a FIFO head, purges (in and out of order), cursor
        // jumps and crashes. Every answer is checked against a plain set.
        for seed in 1..=16u64 {
            let mut b = ProposalBuffer::new();
            let mut delivered = BTreeSet::new();
            let mut x = seed;
            for step in 0..400 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = (x >> 33) as usize;
                let sender = (r / 7 % 3) as u16;
                let next = b.fifo_cursors().into_iter().find(|(p, _)| p.0 == sender);
                let near = next.map_or(1, |(_, n)| n) + (r / 21 % 4) as u64;
                match r % 16 {
                    0..=5 => {
                        b.insert(prop(sender, near));
                    }
                    6..=10 => {
                        let head = b.heads().nth(r / 5 % 3).map(|p| p.id());
                        if let Some(head) = head {
                            b.deliver(head);
                            delivered.insert(head);
                        }
                    }
                    11 | 12 => b.purge(id(sender, near)),
                    13 | 14 => b.set_fifo_cursor(ProcessId(sender), near + (r / 84 % 3) as u64),
                    _ => {
                        if (r / 16).is_multiple_of(8) {
                            b.clear();
                            delivered.clear();
                        }
                    }
                }
                for sender in 0..3 {
                    for seq in 0..48 {
                        let i = id(sender, seq);
                        let received = b.has_pending(i) || delivered.contains(&i);
                        assert_eq!(
                            (b.is_delivered(i), b.has_received(i)),
                            (delivered.contains(&i), received),
                            "seed {seed} step {step}: {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn settling_forgets_the_assignment_but_not_that_it_was_ordered() {
        let mut b = ProposalBuffer::new();
        deliver_all(&mut b, 1..=3);
        b.insert(prop(0, 4)); // pending, ordered below the base to come
        for seq in 1..=4 {
            b.learn_ordinal(id(0, seq), Ordinal(seq));
        }
        b.settle(Ordinal(5));
        // The delivered three are settled: no assignment, no archived
        // copy, still ordered. The pending one keeps its assignment.
        assert_eq!(b.footprint(), ([1, 0, 0], 1, 1));
        assert!(b.retrieve(id(0, 3)).is_none() && b.is_ordered(id(0, 3)));
        assert_eq!(b.ordinal_of(id(0, 3)), None);
        assert_eq!(b.ordinal_of(id(0, 4)), Some(Ordinal(4)));
        // Delivered late, it settles at the next call, not before.
        b.deliver(id(0, 4));
        assert!(b.retrieve(id(0, 4)).is_some());
        b.settle(Ordinal(5));
        assert!(b.retrieve(id(0, 4)).is_none() && b.is_ordered(id(0, 4)));
        assert_eq!(b.footprint(), ([0, 0, 0], 1, 1));
        // A diverged lineage voids settled ids too.
        b.clear_ordinals();
        assert!(!b.is_ordered(id(0, 1)));
    }

    #[test]
    fn a_window_reopened_below_its_base_settles_again() {
        let mut b = ProposalBuffer::new();
        deliver_all(&mut b, 1..=2);
        b.insert(prop(0, 3));
        b.insert(prop(0, 4)); // neither delivered when the base passes them
        for seq in 1..=4 {
            b.learn_ordinal(id(0, seq), Ordinal(seq));
        }
        b.settle(Ordinal(5));
        assert_eq!(b.footprint().0, [2, 0, 0]);
        // The window re-opens at 4; 3 is delivered meanwhile, then 4.
        b.settle(Ordinal(4));
        b.deliver(id(0, 3));
        b.deliver(id(0, 4));
        b.settle(Ordinal(4));
        assert_eq!(b.footprint().0, [1, 1, 1], "4 is in the window again");
        b.settle(Ordinal(5));
        assert_eq!(b.footprint(), ([0, 0, 0], 1, 1));
    }
}
