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
//! Each proposal the member knows something about has one slot: the
//! proposal itself while pending, or its archived copy once delivered,
//! its ordinal once learned, its descriptor while it is delivered but
//! not ordered (the `dpd` pool, §4.3), and when it was last asked for.
//! Those ordered but neither held nor delivered are the *gap set*, what
//! loss repair asks for. A proposer's slots sit in
//! dense rings indexed by sequence number, beside its FIFO cursor and
//! incarnation, so a lookup is an index, not a search. Nearly always
//! there is one ring per proposer; an incarnation's band jump or a
//! state transfer's cursor jump starts another rather than a run of
//! empty slots.
//!
//! What it keeps is the window's, not the history's: delivered ids are
//! per-proposer runs of sequence numbers, and once the window base passes
//! a delivered update's ordinal the update is *settled* — its assignment
//! and its archived copy are dropped, and only the fact that it was
//! ordered stays, in a second run set. Test and debug builds also keep
//! the full history and assert at every query that the compact state
//! answers the same.
//!
//! It is kept in the runs the oal travels in. Each proposer's delivered
//! (and settled) ids are a sorted list of runs that FIFO delivery grows
//! at its end, an O(1) append. The assignments are indexed by ordinal as
//! runs — a proposer's consecutive ids at consecutive ordinals are one
//! entry — and what one run of the oal teaches is learned
//! ([`ProposalBuffer::learn_run`]) and later settled in one pass over the
//! proposer's slot ring. [`ProposalBuffer::held_from`] and
//! [`ProposalBuffer::delivered_from`] answer for a range of ids at once,
//! so a sync acknowledges, and the delivery frontier steps over, a run
//! at a time.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use tw_proto::{Incarnation, Ordinal, ProcessId, Proposal, ProposalId, SyncTime, UpdateDesc};

/// How far beyond a ring a new slot may land and still join it, the
/// sequence numbers between becoming empty slots. A slot further away
/// starts a ring of its own.
pub(crate) const RING_GAP: u64 = 256;

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

/// A set of proposal ids stored per proposer as runs of consecutive
/// sequence numbers. FIFO delivery makes each proposer's delivered ids
/// one run, growing at its end — an O(1) append; only a purge or a
/// cursor jump opens a hole.
#[derive(Debug, Clone, Default)]
struct IdRuns {
    /// Per proposer, in proposer order: the first and last sequence
    /// number of each run, ascending, disjoint and not adjacent.
    by_proposer: Vec<(ProcessId, Vec<(u64, u64)>)>,
}

impl IdRuns {
    /// Where `p` is, or would go.
    fn position(&self, p: ProcessId) -> Result<usize, usize> {
        // Ranks are usually dense from 0, so the rank is usually the index.
        if self.by_proposer.get(p.rank()).is_some_and(|(q, _)| *q == p) {
            return Ok(p.rank());
        }
        self.by_proposer.binary_search_by_key(&p, |(q, _)| *q)
    }

    fn runs(&self, p: ProcessId) -> &[(u64, u64)] {
        self.position(p)
            .map_or(&[][..], |i| self.by_proposer[i].1.as_slice())
    }

    fn contains(&self, id: ProposalId) -> bool {
        self.last_from(id).is_some()
    }

    /// The last sequence number of the run holding `id`, if one does.
    fn last_from(&self, id: ProposalId) -> Option<u64> {
        let runs = self.runs(id.proposer);
        let i = runs.partition_point(|&(first, _)| first <= id.seq);
        let (_, last) = *runs.get(i.checked_sub(1)?)?;
        (id.seq <= last).then_some(last)
    }

    /// Add `id`, joining the runs that end just below or start just
    /// above it.
    fn insert(&mut self, id: ProposalId) {
        let i = self.position(id.proposer).unwrap_or_else(|i| {
            self.by_proposer.insert(i, (id.proposer, Vec::new()));
            i
        });
        let runs = &mut self.by_proposer[i].1;
        let seq = id.seq;
        match runs.last_mut() {
            // The next in FIFO order: extend the last run.
            Some((_, last)) if last.checked_add(1) == Some(seq) => *last = seq,
            Some(&mut (_, last)) if last.checked_add(1).is_some_and(|next| next < seq) => {
                runs.push((seq, seq))
            }
            None => runs.push((seq, seq)),
            Some(_) => {
                let i = runs.partition_point(|&(first, _)| first <= seq);
                if i > 0 && runs[i - 1].1 >= seq {
                    return;
                }
                let joins_below = i > 0 && runs[i - 1].1 + 1 == seq;
                let joins_above = i < runs.len() && runs[i].0 == seq + 1;
                match (joins_below, joins_above) {
                    (true, true) => {
                        runs[i - 1].1 = runs[i].1;
                        runs.remove(i);
                    }
                    (true, false) => runs[i - 1].1 = seq,
                    (false, true) => runs[i].0 = seq,
                    (false, false) => runs.insert(i, (seq, seq)),
                }
            }
        }
    }

    /// Number of runs.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.by_proposer.iter().map(|(_, runs)| runs.len()).sum()
    }
}

/// Consecutive assignments: `count` ids of one proposer from `id` on, at
/// consecutive ordinals from `o` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Assigned {
    o: Ordinal,
    id: ProposalId,
    count: u64,
}

impl Assigned {
    fn one(o: Ordinal, id: ProposalId) -> Self {
        Assigned { o, id, count: 1 }
    }

    /// The `k`-th assignment of the run.
    fn at(&self, k: u64) -> (Ordinal, ProposalId) {
        (
            Ordinal(self.o.0 + k),
            ProposalId::new(self.id.proposer, self.id.seq + k),
        )
    }

    /// Where `(o, id)` sits in the run, if it is one of its assignments.
    fn offset_of(&self, o: Ordinal, id: ProposalId) -> Option<u64> {
        let k = o.0.checked_sub(self.o.0)?;
        (k < self.count && self.id.proposer == id.proposer && self.id.seq + k == id.seq)
            .then_some(k)
    }

    /// The run from its `k`-th assignment on.
    fn from(&self, k: u64) -> Self {
        let (o, id) = self.at(k);
        Assigned {
            o,
            id,
            count: self.count - k,
        }
    }
}

/// The proposal a slot holds. Delivery moves it from pending to
/// archived, so it is never both.
#[derive(Debug, Clone, Default)]
enum Held {
    #[default]
    Nothing,
    /// Received, not yet delivered, not purged.
    Pending(Proposal),
    /// Delivered, retained for retransmission until it settles.
    Archived(Proposal),
}

/// What a member knows of one proposal.
#[derive(Debug, Clone, Default)]
struct Slot {
    held: Held,
    /// Its learned assignment, unless settled: in the oal window, or
    /// below the window base while undelivered.
    ordinal: Option<Ordinal>,
    /// Its descriptor while it is delivered but not ordered. Stored, not
    /// derived from the archived copy: a state transfer can teach the
    /// ordinal without ending the entry, and a settle can then drop the
    /// copy.
    dpd: Option<UpdateDesc>,
    /// When a retransmission was last asked for (rate limiting), until it
    /// is delivered or the window base passes its assignment.
    nacked: Option<SyncTime>,
}

impl Slot {
    fn is_empty(&self) -> bool {
        let unheld = matches!(self.held, Held::Nothing);
        unheld && self.ordinal.is_none() && self.dpd.is_none() && self.nacked.is_none()
    }

    fn pending(&self) -> Option<&Proposal> {
        match &self.held {
            Held::Pending(p) => Some(p),
            _ => None,
        }
    }
}

/// The slots of sequence numbers `lo..=last()`, neither end empty.
#[derive(Debug, Clone)]
struct Ring {
    lo: u64,
    slots: VecDeque<Slot>,
}

impl Ring {
    /// The highest sequence number in the ring (which is never empty).
    fn last(&self) -> u64 {
        self.lo + (self.slots.len() as u64 - 1)
    }

    fn index(&self, seq: u64) -> Option<usize> {
        let i = seq.checked_sub(self.lo)?;
        (i < self.slots.len() as u64).then_some(i as usize)
    }

    /// Drop empty slots from both ends.
    fn trim(&mut self) {
        while self.slots.front().is_some_and(Slot::is_empty) {
            self.slots.pop_front();
            self.lo += 1;
        }
        while self.slots.back().is_some_and(Slot::is_empty) {
            self.slots.pop_back();
        }
    }
}

/// What a member keeps per proposer: its FIFO cursor, the latest
/// incarnation known of it, and its slots as disjoint rings in sequence
/// order.
#[derive(Debug, Clone)]
struct Proposer {
    pid: ProcessId,
    fifo: Option<FifoCursor>,
    incarnation: Option<Incarnation>,
    rings: Vec<Ring>,
}

impl Proposer {
    fn new(pid: ProcessId) -> Self {
        Proposer {
            pid,
            fifo: None,
            incarnation: None,
            rings: Vec::new(),
        }
    }

    /// Next sequence number eligible for delivery.
    fn next(&self) -> u64 {
        self.fifo.as_ref().map_or(1, |c| c.next)
    }

    fn cursor_mut(&mut self) -> &mut FifoCursor {
        self.fifo.get_or_insert_with(|| FifoCursor::start_at(1))
    }

    fn slot(&self, seq: u64) -> Option<&Slot> {
        self.rings
            .iter()
            .find_map(|r| r.index(seq).map(|i| &r.slots[i]))
    }

    fn slots(&self) -> impl DoubleEndedIterator<Item = &Slot> + Clone {
        self.rings.iter().flat_map(|r| &r.slots)
    }

    /// The slot of `seq`, made empty if there is none: in the ring that
    /// holds `seq`, else in one within [`RING_GAP`] of it, else in a new
    /// ring. The caller fills it.
    fn slot_or_new(&mut self, seq: u64) -> &mut Slot {
        // Rings wholly below `seq` come first.
        let at = self.rings.partition_point(|r| r.last() < seq);
        let i = if at < self.rings.len() && self.rings[at].lo <= seq {
            at
        } else if at > 0 && seq - self.rings[at - 1].last() <= RING_GAP {
            let ring = &mut self.rings[at - 1];
            let grow = seq - ring.last();
            ring.slots.extend((0..grow).map(|_| Slot::default()));
            at - 1
        } else if at < self.rings.len() && self.rings[at].lo - seq <= RING_GAP {
            let ring = &mut self.rings[at];
            for _ in seq..ring.lo {
                ring.slots.push_front(Slot::default());
            }
            ring.lo = seq;
            at
        } else {
            let slots = VecDeque::from([Slot::default()]);
            self.rings.insert(at, Ring { lo: seq, slots });
            at
        };
        let ring = &mut self.rings[i];
        &mut ring.slots[(seq - ring.lo) as usize]
    }

    /// Apply `f` to the slot of `seq`, if there is one, and trim what
    /// that left empty.
    fn update<R>(&mut self, seq: u64, f: impl FnOnce(&mut Slot) -> R) -> Option<R> {
        let i = self.rings.iter().position(|r| r.index(seq).is_some())?;
        let ring = &mut self.rings[i];
        let out = f(&mut ring.slots[(seq - ring.lo) as usize]);
        ring.trim();
        if ring.slots.is_empty() {
            self.rings.remove(i);
        }
        Some(out)
    }

    /// Apply `f` to the slots of `seq..seq + count` that exist, in
    /// order, and trim what that left empty. Returns how many it found.
    fn update_range(&mut self, seq: u64, count: u64, mut f: impl FnMut(u64, &mut Slot)) -> u64 {
        let (mut at, end, mut found) = (seq, seq + count, 0);
        while at < end {
            let i = self.rings.partition_point(|r| r.last() < at);
            let Some(ring) = self.rings.get_mut(i).filter(|r| r.lo < end) else {
                break;
            };
            let (from, to) = (at.max(ring.lo), end.min(ring.last() + 1));
            for q in from..to {
                f(q, &mut ring.slots[(q - ring.lo) as usize]);
            }
            found += to - from;
            ring.trim();
            if ring.slots.is_empty() {
                self.rings.remove(i);
            }
            at = to;
        }
        found
    }

    /// Make the slots of `seq..=last` exist; returns whether one ring
    /// holds them all.
    fn make_range(&mut self, seq: u64, last: u64) -> bool {
        self.slot_or_new(seq);
        self.slot_or_new(last);
        let i = self.rings.partition_point(|r| r.last() < seq);
        self.rings[i].lo <= seq && self.rings[i].last() >= last
    }

    /// Apply `f` to every slot, and trim what that left empty.
    fn update_all(&mut self, mut f: impl FnMut(&mut Slot)) {
        for ring in &mut self.rings {
            ring.slots.iter_mut().for_each(&mut f);
            ring.trim();
        }
        self.rings.retain(|r| !r.slots.is_empty());
    }

    /// Drop the pending proposals `doomed` picks; returns their ids.
    fn drop_pending(&mut self, doomed: impl Fn(&Proposal) -> bool) -> Vec<ProposalId> {
        let mut dropped = Vec::new();
        self.update_all(|s| {
            if s.pending().is_some_and(&doomed) {
                if let Held::Pending(p) = std::mem::take(&mut s.held) {
                    dropped.push(p.id());
                }
            }
        });
        dropped
    }
}

/// Every proposer's state, in proposer order.
#[derive(Debug, Clone, Default)]
struct Proposers(Vec<Proposer>);

impl Proposers {
    /// Where `p` is, or would go.
    fn position(&self, p: ProcessId) -> Result<usize, usize> {
        // Ranks are usually dense from 0, so the rank is usually the index.
        if self.0.get(p.rank()).is_some_and(|e| e.pid == p) {
            return Ok(p.rank());
        }
        self.0.binary_search_by_key(&p, |e| e.pid)
    }

    fn get(&self, p: ProcessId) -> Option<&Proposer> {
        self.position(p).ok().map(|i| &self.0[i])
    }

    fn get_mut(&mut self, p: ProcessId) -> Option<&mut Proposer> {
        self.position(p).ok().map(|i| &mut self.0[i])
    }

    fn entry(&mut self, p: ProcessId) -> &mut Proposer {
        let i = self.position(p).unwrap_or_else(|i| {
            self.0.insert(i, Proposer::new(p));
            i
        });
        &mut self.0[i]
    }

    fn slot(&self, id: ProposalId) -> Option<&Slot> {
        self.get(id.proposer)?.slot(id.seq)
    }

    fn slot_or_new(&mut self, id: ProposalId) -> &mut Slot {
        self.entry(id.proposer).slot_or_new(id.seq)
    }

    fn update<R>(&mut self, id: ProposalId, f: impl FnOnce(&mut Slot) -> R) -> Option<R> {
        self.get_mut(id.proposer)?.update(id.seq, f)
    }

    /// Every slot, in id order.
    fn slots(&self) -> impl DoubleEndedIterator<Item = &Slot> + Clone {
        self.0.iter().flat_map(Proposer::slots)
    }

    /// Every assignment kept, with its id.
    fn ordinals(&self) -> impl Iterator<Item = (Ordinal, ProposalId)> + '_ {
        self.0.iter().flat_map(|e| {
            e.rings.iter().flat_map(move |r| {
                r.slots.iter().enumerate().filter_map(move |(k, s)| {
                    let id = ProposalId::new(e.pid, r.lo + k as u64);
                    s.ordinal.map(|o| (o, id))
                })
            })
        })
    }
}

/// Put `(o, id)` in `by_ordinal`, in order, unless it is there.
fn index(by_ordinal: &mut VecDeque<Assigned>, o: Ordinal, id: ProposalId) {
    match by_ordinal.back_mut() {
        Some(last) if last.at(last.count) == (o, id) => last.count += 1,
        Some(last) if (last.o, last.id) > (o, id) || last.offset_of(o, id).is_some() => {
            // Out of order: rare, and worth a search.
            if !by_ordinal.iter().any(|a| a.offset_of(o, id).is_some()) {
                insert_sorted(by_ordinal, Assigned::one(o, id));
            }
        }
        _ => by_ordinal.push_back(Assigned::one(o, id)),
    }
}

/// Put a run in `by_ordinal` where it belongs.
fn insert_sorted(by_ordinal: &mut VecDeque<Assigned>, run: Assigned) {
    let i = by_ordinal.partition_point(|a| *a < run);
    by_ordinal.insert(i, run);
}

/// Assign `o` to `id`, whose slot is `slot`, and keep `by_ordinal` and
/// the gap set in step: the one rule by which a learned ordinal lands.
fn assign(
    slot: &mut Slot,
    id: ProposalId,
    o: Ordinal,
    by_ordinal: &mut VecDeque<Assigned>,
    gaps: &mut BTreeSet<(Ordinal, ProposalId)>,
    delivered: &IdRuns,
) {
    match slot.ordinal.replace(o) {
        Some(old) if old == o => return,
        Some(old) => {
            unindex(by_ordinal, old, id);
            gaps.remove(&(old, id));
        }
        None => {}
    }
    if matches!(slot.held, Held::Nothing) && !delivered.contains(id) {
        gaps.insert((o, id));
    }
    index(by_ordinal, o, id);
}

/// Take `(o, id)` out of `by_ordinal`, cutting the run it is in.
fn unindex(by_ordinal: &mut VecDeque<Assigned>, o: Ordinal, id: ProposalId) {
    let Some((i, k)) = by_ordinal
        .iter()
        .enumerate()
        .find_map(|(i, a)| a.offset_of(o, id).map(|k| (i, k)))
    else {
        return;
    };
    let run = by_ordinal[i];
    if k + 1 < run.count {
        by_ordinal.insert(i + 1, run.from(k + 1));
    }
    if k == 0 {
        by_ordinal.remove(i);
    } else {
        by_ordinal[i].count = k;
    }
}

/// The per-member store of received, delivered and purged proposals.
#[derive(Debug, Clone, Default)]
pub struct ProposalBuffer {
    /// Per proposer: FIFO cursor, incarnation, and a slot per proposal.
    proposers: Proposers,
    /// Slots holding a pending proposal.
    pending: usize,
    /// Slots holding a dpd descriptor.
    dpds: usize,
    /// Ids delivered to the application.
    delivered: IdRuns,
    /// The assignments the next [`ProposalBuffer::settle`] must look at,
    /// in ascending order: all at or above the last settled base, plus
    /// those below it learned or delivered since. An undelivered
    /// assignment leaves it when the base passes it, and comes back if
    /// the proposal is delivered. Assignments are learned in ascending
    /// order nearly always, so keeping it sorted is a push, and a
    /// proposer's consecutive ids at consecutive ordinals are one run.
    by_ordinal: VecDeque<Assigned>,
    /// The window base at the last settle.
    settled_base: Ordinal,
    /// Delivered ids whose ordinal the window base has passed: ordered in
    /// this lineage, their assignment no longer kept.
    settled: IdRuns,
    /// The gap set: every kept assignment of a proposal neither held nor
    /// delivered, below the window base too (it may re-open there).
    gaps: BTreeSet<(Ordinal, ProposalId)>,
    /// §4.3 local undeliverable marks, with their expiry (one cycle,
    /// unless renewed).
    local_marks: BTreeMap<ProposalId, SyncTime>,
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
    /// `ordinals` less the delivered ids.
    undelivered: BTreeMap<ProposalId, Ordinal>,
    /// The archive's ids as a sweep of the whole archive at every settle
    /// leaves them: every delivered id not assigned an ordinal below the
    /// base of the last sweep.
    archived: BTreeSet<ProposalId>,
    /// The pending ids.
    pending: BTreeSet<ProposalId>,
    /// The dpd pool, keyed by id.
    dpd: BTreeMap<ProposalId, UpdateDesc>,
}

#[cfg(any(test, debug_assertions))]
impl History {
    /// Learn that `id` is ordered at `o`.
    fn learn(&mut self, id: ProposalId, o: Ordinal) {
        if !self.delivered.contains(&id) {
            self.undelivered.insert(id, o);
        }
        self.ordinals.insert(id, o);
    }
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
        if let Some(e) = self.proposers.get(p.sender) {
            let stale = e.incarnation.is_some_and(|known| p.incarnation < known);
            let consumed = e
                .fifo
                .as_ref()
                .is_some_and(|c| p.seq < c.next || c.consumed_ahead.contains(&p.seq));
            if stale || consumed {
                return false;
            }
        }
        if self.is_delivered(id) || self.has_pending(id) {
            return false;
        }
        let slot = self.proposers.slot_or_new(id);
        if let Some(o) = slot.ordinal {
            self.gaps.remove(&(o, id));
        }
        slot.held = Held::Pending(p);
        self.pending += 1;
        #[cfg(any(test, debug_assertions))]
        self.reference.pending.insert(id);
        true
    }

    /// Record `p`'s current incarnation (from a join message). Raising it
    /// purges pending proposals from older incarnations of `p` and moves
    /// `p`'s FIFO cursor to the start of the new incarnation's sequence
    /// band (sequence numbers are banded: `seq = incarnation << 32 | k`),
    /// so the recovered process's fresh proposals are not blocked behind
    /// its dead incarnation's stream.
    pub fn note_incarnation(&mut self, p: ProcessId, inc: Incarnation) {
        let e = self.proposers.entry(p);
        let prev = e.incarnation.replace(inc);
        if prev.map_or(inc.0 > 0, |old| inc > old) {
            let dropped = e.drop_pending(|pr| pr.incarnation < inc);
            let band_start = ((inc.0 as u64) << 32) + 1;
            let cur = e.cursor_mut();
            if cur.next < band_start {
                *cur = FifoCursor::start_at(band_start);
            }
            self.forget_pending(&dropped);
        }
    }

    /// Account for pending proposals dropped without delivery: an
    /// ordered one is a gap now.
    fn forget_pending(&mut self, dropped: &[ProposalId]) {
        self.pending -= dropped.len();
        for &id in dropped {
            if let Some(o) = self.proposers.slot(id).and_then(|s| s.ordinal) {
                self.gaps.insert((o, id));
            }
            #[cfg(any(test, debug_assertions))]
            self.reference.pending.remove(&id);
        }
    }

    /// The pending proposal with this id, if any.
    pub fn get(&self, id: ProposalId) -> Option<&Proposal> {
        self.proposers.slot(id).and_then(Slot::pending)
    }

    /// Is this proposal in the pending buffer?
    pub fn has_pending(&self, id: ProposalId) -> bool {
        let pending = self.get(id).is_some();
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            pending,
            self.reference.pending.contains(&id),
            "pending slots and pending set disagree on {id}"
        );
        pending
    }

    /// Has this proposal been received at some point (pending or
    /// delivered)?
    pub fn has_received(&self, id: ProposalId) -> bool {
        self.has_pending(id) || self.is_delivered(id)
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

    /// How many of `id` and the `limit - 1` ids after it, from `id` on,
    /// have been delivered.
    pub fn delivered_from(&self, id: ProposalId, limit: u64) -> u64 {
        let n = self
            .delivered
            .last_from(id)
            .map_or(0, |last| (last - id.seq + 1).min(limit));
        #[cfg(any(test, debug_assertions))]
        {
            let ids = (id.seq..id.seq + limit).map(|seq| ProposalId::new(id.proposer, seq));
            let reference = ids
                .take_while(|i| self.reference.delivered.contains(i))
                .count() as u64;
            assert_eq!(
                n, reference,
                "delivered runs and delivered set disagree from {id}"
            );
        }
        n
    }

    /// How many of `id` and the `limit - 1` ids after it, from `id` on,
    /// this member holds — has received, and has not locally marked at
    /// `now`: the ones it acknowledges.
    pub fn held_from(&self, id: ProposalId, limit: u64, now: SyncTime) -> u64 {
        let mut n = 0;
        while n < limit {
            let next = ProposalId::new(id.proposer, id.seq + n);
            match self.delivered.last_from(next) {
                Some(last) => n = (last - id.seq + 1).min(limit),
                None if self.get(next).is_some() => n += 1,
                None => break,
            }
        }
        // Marks are few and short-lived: cut at the first one.
        let end = ProposalId::new(id.proposer, id.seq + n);
        if let Some((marked, _)) = self
            .local_marks
            .range(id..end)
            .find(|(_, &until)| now <= until)
        {
            n = marked.seq - id.seq;
        }
        #[cfg(any(test, debug_assertions))]
        {
            let ids = (id.seq..id.seq + limit).map(|seq| ProposalId::new(id.proposer, seq));
            let reference = ids
                .take_while(|&i| self.has_received(i) && !self.is_locally_marked(i, now))
                .count() as u64;
            assert_eq!(n, reference, "held runs and held ids disagree from {id}");
        }
        n
    }

    /// Iterate pending proposals in id order.
    pub fn pending(&self) -> impl Iterator<Item = &Proposal> {
        let pending = self.proposers.slots().filter_map(Slot::pending);
        pending.take(self.pending)
    }

    /// Number of pending proposals.
    pub fn pending_len(&self) -> usize {
        #[cfg(any(test, debug_assertions))]
        assert_eq!(self.pending, self.reference.pending.len());
        self.pending
    }

    /// The pending proposal at each proposer's FIFO cursor, in proposer
    /// order. These are the only proposals [`ProposalBuffer::fifo_ready`]
    /// can pass, so the first deliverable one among them is the first
    /// deliverable pending proposal in id order. A proposer whose cursor
    /// points at a proposal not (or no longer) held has no head.
    pub fn heads(&self) -> impl Iterator<Item = &Proposal> {
        self.proposers
            .0
            .iter()
            .filter_map(|e| e.slot(e.next()).and_then(Slot::pending))
    }

    /// Record an ordinal assignment learned from the oal.
    pub fn learn_ordinal(&mut self, id: ProposalId, o: Ordinal) {
        #[cfg(any(test, debug_assertions))]
        self.reference.learn(id, o);
        let slot = self.proposers.slot_or_new(id);
        assign(
            slot,
            id,
            o,
            &mut self.by_ordinal,
            &mut self.gaps,
            &self.delivered,
        );
    }

    /// Learn that the `count` ids of one proposer from `first` on are
    /// ordered at the ordinals from `o` on, and end their dpd entries:
    /// what one run of the oal teaches. One walk over the proposer's
    /// slots when one ring holds them all, as it nearly always does.
    pub fn learn_run(&mut self, first: ProposalId, o: Ordinal, count: u64) {
        let one_ring = count > 1
            && self
                .proposers
                .entry(first.proposer)
                .make_range(first.seq, first.seq + count - 1);
        if !one_ring {
            for k in 0..count {
                let id = ProposalId::new(first.proposer, first.seq + k);
                self.learn_ordinal(id, Ordinal(o.0 + k));
                self.dpd_remove(id);
            }
            return;
        }
        #[cfg(any(test, debug_assertions))]
        for k in 0..count {
            let id = ProposalId::new(first.proposer, first.seq + k);
            self.reference.learn(id, Ordinal(o.0 + k));
            self.reference.dpd.remove(&id);
        }
        let ProposalBuffer {
            proposers,
            dpds,
            delivered,
            by_ordinal,
            gaps,
            ..
        } = self;
        let e = proposers.get_mut(first.proposer).expect("made above");
        e.update_range(first.seq, count, |seq, slot| {
            if slot.dpd.take().is_some() {
                *dpds -= 1;
            }
            let id = ProposalId::new(first.proposer, seq);
            assign(
                slot,
                id,
                Ordinal(o.0 + seq - first.seq),
                by_ordinal,
                gaps,
                delivered,
            );
        });
    }

    /// The ordinal of `id`, if learned and not settled.
    pub fn ordinal_of(&self, id: ProposalId) -> Option<Ordinal> {
        let o = self.proposers.slot(id).and_then(|s| s.ordinal);
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
        let learned = self.proposers.slot(id).is_some_and(|s| s.ordinal.is_some());
        let ordered = learned || self.settled.contains(id);
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
        for e in &mut self.proposers.0 {
            e.update_all(|s| s.ordinal = None);
        }
        self.by_ordinal.clear();
        self.settled_base = Ordinal::ZERO;
        self.settled = IdRuns::default();
        self.gaps.clear();
        #[cfg(any(test, debug_assertions))]
        self.reference.ordinals.clear();
        #[cfg(any(test, debug_assertions))]
        self.reference.undelivered.clear();
    }

    /// Does the sender's FIFO cursor permit delivering `id` now?
    pub fn fifo_ready(&self, id: ProposalId) -> bool {
        match self
            .proposers
            .get(id.proposer)
            .and_then(|e| e.fifo.as_ref())
        {
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
        let e = self.proposers.entry(p);
        if e.fifo.as_ref().is_some_and(|cur| cur.next >= next) {
            return;
        }
        e.fifo = Some(FifoCursor::start_at(next));
        let dropped = e.drop_pending(|pr| pr.seq < next);
        self.forget_pending(&dropped);
    }

    /// Current FIFO cursors (for state transfer to a joiner).
    pub fn fifo_cursors(&self) -> Vec<(ProcessId, u64)> {
        self.proposers
            .0
            .iter()
            .filter_map(|e| e.fifo.as_ref().map(|c| (e.pid, c.next)))
            .collect()
    }

    /// Deliver `id`: move from pending to delivered, consuming its FIFO
    /// slot. Returns the proposal. Panics if not pending (callers check
    /// delivery conditions first). The proposal is archived for
    /// retransmission until it settles.
    pub fn deliver(&mut self, id: ProposalId) -> Proposal {
        let e = self
            .proposers
            .get_mut(id.proposer)
            .expect("deliver of non-pending");
        e.cursor_mut().consume(id.seq);
        let slot = e.slot_or_new(id.seq);
        let Held::Pending(p) = std::mem::take(&mut slot.held) else {
            panic!("deliver of non-pending");
        };
        slot.held = Held::Archived(p.clone());
        slot.nacked = None;
        let ordinal = slot.ordinal;
        self.pending -= 1;
        self.delivered.insert(id);
        if let Some(o) = ordinal {
            if o < self.settled_base {
                // Ordered below the base already: the next settle takes it.
                index(&mut self.by_ordinal, o, id);
            }
        }
        #[cfg(any(test, debug_assertions))]
        {
            self.reference.pending.remove(&id);
            self.reference.delivered.insert(id);
            self.reference.undelivered.remove(&id);
            self.reference.archived.insert(id);
        }
        p
    }

    /// The gap set from ordinal `from` on, in ordinal order: the ordered
    /// proposals this member has not received.
    pub fn gaps(&self, from: Ordinal) -> impl Iterator<Item = (Ordinal, ProposalId)> + '_ {
        #[cfg(any(test, debug_assertions))]
        self.check_gaps();
        self.gaps.range((from, ProposalId::default())..).copied()
    }

    /// Assert the gap set is the assignments minus delivered minus pending.
    #[cfg(any(test, debug_assertions))]
    fn check_gaps(&self) {
        let (undelivered, pending) = (&self.reference.undelivered, &self.reference.pending);
        let lacked = undelivered.iter().filter(|(id, _)| !pending.contains(id));
        let lacked: BTreeSet<_> = lacked.map(|(id, o)| (*o, *id)).collect();
        assert_eq!(self.gaps, lacked, "gap set and full history disagree");
    }

    /// When `id` was last asked for, unless it was delivered or passed by
    /// the window base since.
    pub fn nacked(&self, id: ProposalId) -> Option<SyncTime> {
        self.proposers.slot(id).and_then(|s| s.nacked)
    }

    /// Record that `id` was asked for at `at`.
    pub fn note_nack(&mut self, id: ProposalId, at: SyncTime) {
        self.proposers.slot_or_new(id).nacked = Some(at);
    }

    /// Retrieve a proposal we still hold (pending or archived) for
    /// retransmission.
    pub fn retrieve(&self, id: ProposalId) -> Option<&Proposal> {
        match &self.proposers.slot(id)?.held {
            Held::Pending(p) | Held::Archived(p) => Some(p),
            Held::Nothing => None,
        }
    }

    /// Settle what the oal window's base has passed: every delivered
    /// proposal ordered below `base` is stable — everyone has it, nobody
    /// will ask for it again — so its archived copy and its assignment
    /// go, and it is recorded as settled. Undelivered ones keep their
    /// assignment, and forget when they were last asked for. Costs the
    /// assignments the base passed since the last call, plus, when the
    /// window re-opened below that base, one pass over the assignments
    /// kept.
    pub fn settle(&mut self, base: Ordinal) {
        if base < self.settled_base {
            let mut all: Vec<_> = self.proposers.ordinals().collect();
            all.sort_unstable();
            self.by_ordinal.clear();
            for (o, id) in all {
                index(&mut self.by_ordinal, o, id);
            }
        }
        self.settled_base = base;
        while let Some(&run) = self.by_ordinal.front() {
            if run.o >= base {
                break;
            }
            self.by_ordinal.pop_front();
            let below = run.count.min(base.0 - run.o.0);
            if below < run.count {
                insert_sorted(&mut self.by_ordinal, run.from(below));
            }
            let ProposalBuffer {
                proposers,
                delivered,
                settled,
                ..
            } = self;
            let p = run.id.proposer;
            let found = proposers.get_mut(p).map_or(0, |e| {
                e.update_range(run.id.seq, below, |seq, s| {
                    let id = ProposalId::new(p, seq);
                    // An archived copy is delivered; without one, ask the runs.
                    if matches!(s.held, Held::Archived(_)) || delivered.contains(id) {
                        debug_assert!(s.pending().is_none(), "{id} is delivered and pending");
                        s.ordinal = None;
                        s.held = Held::Nothing;
                        settled.insert(id);
                    }
                    s.nacked = None;
                })
            });
            assert_eq!(found, below, "an indexed assignment has a slot");
        }
        #[cfg(any(test, debug_assertions))]
        {
            let History {
                ordinals, archived, ..
            } = &mut self.reference;
            archived.retain(|id| ordinals.get(id).is_none_or(|&o| o >= base));
            let archive = self.proposers.slots().filter_map(|s| match &s.held {
                Held::Archived(p) => Some(p.id()),
                _ => None,
            });
            assert!(
                archive.eq(archived.iter().copied()),
                "settled archive and full-history collection disagree below {base:?}"
            );
            self.check_gaps();
        }
    }

    /// Purge `id` as undeliverable (decider verdict, §4.3): drop it from
    /// pending and consume its FIFO slot so successors can proceed
    /// (unless they are orphaned — the decider marks those too).
    pub fn purge(&mut self, id: ProposalId) {
        let was_pending = self.proposers.update(id, |s| {
            let pending = s.pending().is_some();
            if pending {
                s.held = Held::Nothing;
            }
            pending
        });
        if was_pending == Some(true) {
            self.forget_pending(&[id]);
        }
        self.local_marks.remove(&id);
        self.proposers
            .entry(id.proposer)
            .cursor_mut()
            .consume(id.seq);
    }

    /// Remember `desc` as delivered before ordering: it rides in the
    /// `dpd` field of control messages until an ordinal is learned for it
    /// (§4.3).
    pub fn dpd_insert(&mut self, desc: UpdateDesc) {
        #[cfg(any(test, debug_assertions))]
        self.reference.dpd.insert(desc.id, desc);
        if self
            .proposers
            .slot_or_new(desc.id)
            .dpd
            .replace(desc)
            .is_none()
        {
            self.dpds += 1;
        }
    }

    /// End `id`'s dpd entry, if it has one: it is ordered now.
    pub fn dpd_remove(&mut self, id: ProposalId) {
        #[cfg(any(test, debug_assertions))]
        self.reference.dpd.remove(&id);
        if self.dpds == 0 {
            return;
        }
        if let Some(Some(_)) = self.proposers.update(id, |s| s.dpd.take()) {
            self.dpds -= 1;
        }
    }

    /// Does `id` have a dpd entry?
    #[cfg(any(test, debug_assertions))]
    pub fn has_dpd(&self, id: ProposalId) -> bool {
        let has = self.proposers.slot(id).is_some_and(|s| s.dpd.is_some());
        assert_eq!(has, self.reference.dpd.contains_key(&id), "dpd of {id}");
        has
    }

    /// Append the dpd pool to `out` in id order. Delivered-but-unordered
    /// updates are the newest slots, so the walk starts from the newest
    /// and stops at the last entry, instead of crossing every archived
    /// copy before them.
    pub fn extend_with_dpds(&self, out: &mut Vec<UpdateDesc>) {
        let from = out.len();
        let newest_first = self.proposers.slots().rev().filter_map(|s| s.dpd);
        out.extend(newest_first.take(self.dpds));
        out[from..].reverse();
        #[cfg(any(test, debug_assertions))]
        assert!(
            out[from..].iter().eq(self.reference.dpd.values()),
            "dpd slots and dpd map disagree"
        );
    }

    /// Number of dpd entries.
    pub fn dpd_len(&self) -> usize {
        #[cfg(any(test, debug_assertions))]
        assert_eq!(self.dpds, self.reference.dpd.len());
        self.dpds
    }

    /// Empty the dpd pool.
    pub fn dpd_clear(&mut self) {
        #[cfg(any(test, debug_assertions))]
        self.reference.dpd.clear();
        if self.dpds > 0 {
            for e in &mut self.proposers.0 {
                e.update_all(|s| s.dpd = None);
            }
            self.dpds = 0;
        }
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
        let slots = || self.proposers.slots();
        let kept = [
            slots().filter(|s| s.ordinal.is_some()).count(),
            self.by_ordinal.iter().map(|a| a.count as usize).sum(),
            slots()
                .filter(|s| matches!(s.held, Held::Archived(_)))
                .count(),
        ];
        (kept, self.delivered.len(), self.settled.len())
    }

    /// The sequence numbers each of `p`'s rings spans, in order.
    #[cfg(test)]
    pub(crate) fn rings(&self, p: ProcessId) -> Vec<std::ops::RangeInclusive<u64>> {
        let rings = self
            .proposers
            .get(p)
            .map_or(&[][..], |e| e.rings.as_slice());
        rings.iter().map(|r| r.lo..=r.last()).collect()
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

    /// What the slots stand for, kept the plain way: one map per kind of
    /// entry, settled by a sweep over every assignment.
    #[derive(Default)]
    struct Model {
        pending: BTreeMap<ProposalId, Proposal>,
        archive: BTreeMap<ProposalId, Proposal>,
        ordinals: BTreeMap<ProposalId, Ordinal>,
        settled: BTreeSet<ProposalId>,
        delivered: BTreeSet<ProposalId>,
        dpd: BTreeMap<ProposalId, UpdateDesc>,
        incarnations: BTreeMap<ProcessId, Incarnation>,
        nacked: BTreeMap<ProposalId, SyncTime>,
    }

    impl Model {
        fn settle(&mut self, base: Ordinal) {
            let stable: Vec<_> = self
                .ordinals
                .iter()
                .filter(|(id, o)| **o < base && self.delivered.contains(id))
                .map(|(id, _)| *id)
                .collect();
            for id in stable {
                self.ordinals.remove(&id);
                self.archive.remove(&id);
                self.settled.insert(id);
            }
            let ordinals = &self.ordinals;
            self.nacked
                .retain(|id, _| ordinals.get(id).is_none_or(|o| *o >= base));
        }

        /// Assigned ids neither pending nor delivered, by ordinal.
        fn gaps(&self) -> Vec<(Ordinal, ProposalId)> {
            let lacked = |id| !self.pending.contains_key(id) && !self.delivered.contains(id);
            let gaps = self.ordinals.iter().filter(|(id, _)| lacked(*id));
            let gaps: BTreeSet<_> = gaps.map(|(id, o)| (*o, *id)).collect();
            gaps.into_iter().collect()
        }

        /// Each proposer's pending proposal at `b`'s cursor, in order.
        fn heads(&self, b: &ProposalBuffer) -> Vec<ProposalId> {
            let cursors: BTreeMap<_, _> = b.fifo_cursors().into_iter().collect();
            let proposers: BTreeSet<_> = self.pending.keys().map(|id| id.proposer).collect();
            proposers
                .into_iter()
                .map(|p| ProposalId::new(p, cursors.get(&p).copied().unwrap_or(1)))
                .filter(|id| self.pending.contains_key(id))
                .collect()
        }
    }

    /// Proposers in order; each one's rings in order, apart, and filled
    /// at both ends.
    fn assert_rings_tidy(b: &ProposalBuffer, at: &str) {
        assert!(
            b.proposers.0.windows(2).all(|w| w[0].pid < w[1].pid),
            "{at}"
        );
        for e in &b.proposers.0 {
            for r in &e.rings {
                let ends = [r.slots.front(), r.slots.back()];
                assert!(
                    ends.iter().all(|s| s.is_some_and(|s| !s.is_empty())),
                    "{at}: {}",
                    e.pid
                );
            }
            assert!(
                e.rings.windows(2).all(|w| w[0].last() < w[1].lo),
                "{at}: {}",
                e.pid
            );
        }
    }

    #[test]
    fn slots_answer_what_plain_maps_would() {
        // A seeded walk over every operation on the buffer, with sequence
        // numbers at the cursor, within and beyond the ring gap above it,
        // below it, and a million past it; every answer is compared with
        // the plain maps after every step. NACKs are stamped on gaps at or
        // above the last settled base, as a member's window holds them.
        const JUMP: u64 = 1_000_000;
        let (mut most_rings, mut nacks_passed) = (0, 0);
        for seed in 1..=12u64 {
            let mut b = ProposalBuffer::new();
            let mut m = Model::default();
            let mut touched = BTreeSet::new();
            let mut ordinal = 1u64;
            let mut base = Ordinal::ZERO;
            let mut x = seed;
            let mut draw = |n: u64| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % n
            };
            for step in 0..300 {
                let at = format!("seed {seed} step {step}");
                let sender = ProcessId(draw(3) as u16);
                let inc = m.incarnations.get(&sender).copied().unwrap_or_default();
                let next = b
                    .fifo_cursors()
                    .into_iter()
                    .find(|(p, _)| *p == sender)
                    .map_or(1, |(_, n)| n);
                let seq = match draw(8) {
                    0..=3 => next + draw(4),
                    4 => next + 100 + draw(150),
                    5 => next + RING_GAP + 50 + draw(20),
                    6 => next.saturating_sub(1 + draw(600)).max(1),
                    _ => next + JUMP + draw(4),
                };
                let i = ProposalId::new(sender, seq);
                touched.insert(i);
                match draw(44) {
                    0..=11 => {
                        let mut p = prop(sender.0, seq);
                        p.incarnation = Incarnation(inc.0.saturating_sub((draw(4) / 3) as u32));
                        let refused = m.pending.contains_key(&i)
                            || m.delivered.contains(&i)
                            || p.incarnation < inc
                            || seq < next;
                        if b.insert(p.clone()) {
                            assert!(!refused, "{at}: took {i}");
                            m.pending.insert(i, p);
                        }
                    }
                    12..=17 => {
                        let head = b.heads().nth(draw(3) as usize).map(Proposal::id);
                        if let Some(h) = head {
                            b.deliver(h);
                            let p = m.pending.remove(&h).expect("a head is pending");
                            m.archive.insert(h, p);
                            m.delivered.insert(h);
                            m.nacked.remove(&h);
                        }
                    }
                    18 | 19 => {
                        b.purge(i);
                        m.pending.remove(&i);
                    }
                    20 | 21 => {
                        if next < seq {
                            m.pending
                                .retain(|id, _| id.proposer != sender || id.seq >= seq);
                        }
                        b.set_fifo_cursor(sender, seq);
                    }
                    22 => {
                        let raised = Incarnation(inc.0 + 1);
                        b.note_incarnation(sender, raised);
                        m.incarnations.insert(sender, raised);
                        m.pending
                            .retain(|id, p| id.proposer != sender || p.incarnation >= raised);
                    }
                    23..=28 => {
                        b.learn_ordinal(i, Ordinal(ordinal));
                        m.ordinals.insert(i, Ordinal(ordinal));
                        ordinal += 1;
                    }
                    29..=31 => {
                        base = Ordinal(ordinal.saturating_sub(draw(12)));
                        b.settle(base);
                        let nacked = m.nacked.len();
                        m.settle(base);
                        nacks_passed += nacked - m.nacked.len();
                    }
                    32 => {
                        b.clear_ordinals();
                        m.ordinals.clear();
                        m.settled.clear();
                        base = Ordinal::ZERO;
                    }
                    33..=35 => {
                        let desc = m
                            .archive
                            .get(&i)
                            .map_or(prop(sender.0, seq).desc(), Proposal::desc);
                        b.dpd_insert(desc);
                        m.dpd.insert(i, desc);
                    }
                    36 | 37 => {
                        b.dpd_remove(i);
                        m.dpd.remove(&i);
                    }
                    38 => {
                        b.dpd_clear();
                        m.dpd.clear();
                    }
                    39..=42 => {
                        let gap = b.gaps(base).nth(draw(3) as usize);
                        if let Some((_, g)) = gap {
                            let now = SyncTime(step);
                            b.note_nack(g, now);
                            m.nacked.insert(g, now);
                        }
                    }
                    _ => {
                        if draw(4) == 0 {
                            b.clear();
                            m = Model::default();
                            base = Ordinal::ZERO;
                        }
                    }
                }
                assert!(
                    b.pending().map(Proposal::id).eq(m.pending.keys().copied()),
                    "{at}"
                );
                assert_eq!(b.pending_len(), m.pending.len(), "{at}");
                let heads: Vec<_> = b.heads().map(Proposal::id).collect();
                assert_eq!(heads, m.heads(&b), "{at}");
                let mut dpds = Vec::new();
                b.extend_with_dpds(&mut dpds);
                assert!(dpds.iter().eq(m.dpd.values()), "{at}");
                assert_eq!(b.dpd_len(), m.dpd.len(), "{at}");
                let ([ordinals, _, archived], ..) = b.footprint();
                assert_eq!(
                    (ordinals, archived),
                    (m.ordinals.len(), m.archive.len()),
                    "{at}"
                );
                assert_eq!(b.gaps(Ordinal::ZERO).collect::<Vec<_>>(), m.gaps(), "{at}");
                for &i in &touched {
                    let held = m.pending.get(&i).or_else(|| m.archive.get(&i));
                    assert_eq!(b.retrieve(i), held, "{at}: {i}");
                    assert_eq!(b.ordinal_of(i), m.ordinals.get(&i).copied(), "{at}: {i}");
                    let ordered = m.ordinals.contains_key(&i) || m.settled.contains(&i);
                    assert_eq!(b.is_ordered(i), ordered, "{at}: {i}");
                    assert_eq!(b.nacked(i), m.nacked.get(&i).copied(), "{at}: {i}");
                }
                assert_rings_tidy(&b, &at);
                let rings = b.proposers.0.iter().map(|e| e.rings.len()).max();
                most_rings = most_rings.max(rings.unwrap_or(0));
            }
        }
        assert!(most_rings >= 3, "the walk never split a proposer's slots");
        assert!(nacks_passed > 0, "the base never passed a NACKed gap");
    }

    #[test]
    fn a_restart_or_a_cursor_jump_costs_one_ring() {
        let p0 = ProcessId(0);
        let slots = |b: &ProposalBuffer| -> u64 {
            b.rings(p0).iter().map(|r| r.end() - r.start() + 1).sum()
        };
        let mut b = ProposalBuffer::new();
        // A first life of 100 updates, the last 20 still in the window.
        deliver_all(&mut b, 1..=100);
        for seq in 1..=100 {
            b.learn_ordinal(id(0, seq), Ordinal(seq));
        }
        b.settle(Ordinal(81));
        assert_eq!(b.rings(p0), vec![81..=100]);
        // A restart: the new life's slots sit in a ring of their own.
        let second_life = |b: &mut ProposalBuffer, seqs: std::ops::Range<u64>| {
            for seq in seqs {
                let mut p = prop(0, seq);
                p.incarnation = Incarnation(1);
                assert!(b.insert(p));
                b.deliver(id(0, seq));
            }
        };
        b.note_incarnation(p0, Incarnation(1));
        let band = (1u64 << 32) + 1;
        second_life(&mut b, band..band + 10);
        assert_eq!(b.rings(p0), vec![81..=100, band..=band + 9]);
        // A state transfer's cursor jump: one more ring, still no empty slot.
        let far = band + 1_000_000;
        b.set_fifo_cursor(p0, far);
        second_life(&mut b, far..far + 10);
        assert_eq!(b.rings(p0), vec![81..=100, band..=band + 9, far..=far + 9]);
        assert_eq!(slots(&b), 40);
        // Something landing within the gap of a ring joins it, the way
        // between made of empty slots — at most a gap's worth.
        b.learn_ordinal(id(0, far + 9 + RING_GAP), Ordinal(200));
        b.learn_ordinal(id(0, band - RING_GAP), Ordinal(201));
        assert_eq!(b.rings(p0).len(), 3);
        assert_eq!(slots(&b), 42 + 2 * (RING_GAP - 1));
        // One step further is a ring of its own.
        b.learn_ordinal(id(0, far + 10 + 2 * RING_GAP), Ordinal(202));
        assert_eq!(b.rings(p0).len(), 4);
        // Settled, the first life's ring goes; and voided, so do the
        // assignment-only slots.
        b.settle(Ordinal(101));
        b.clear_ordinals();
        assert_eq!(b.rings(p0), vec![band..=band + 9, far..=far + 9]);
    }
}
