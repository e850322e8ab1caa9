//! The *ordering and acknowledgement list* (oal).
//!
//! The oal is the heart of the timewheel broadcast/membership coupling
//! (paper §2): a sliding window of *descriptors*, one per broadcast update
//! or membership change, each implicitly numbered with a dense [`Ordinal`]
//! and carrying per-member acknowledgement bits. The rotating decider
//! appends descriptors (assigning ordinals), merges acknowledgements, and
//! prunes the stable prefix; every decision message carries the current
//! oal, so each member's copy is a recent snapshot of the decider chain's.
//!
//! Two structural facts the protocol relies on, both enforced/checked here:
//!
//! * **Density** — ordinals are assigned by appending, so the ordinals in
//!   an oal are a contiguous range `[base, next)`.
//! * **Prefix property** — any member's view of the oal is a pruned-prefix
//!   snapshot of the decider's: same descriptors at the same ordinals
//!   (ack bits may lag). [`Oal::agrees_with`] checks this.
//!
//! # Held as it travels
//!
//! Consecutive descriptors differ in almost nothing: a decider orders a
//! proposer's batch as consecutive sequence numbers at consecutive
//! ordinals, with one dependency, one semantics, one set of
//! acknowledgements and send timestamps a constant stride apart. So the
//! window is held as the entries the oal block of a datagram carries
//! (`frame`'s module docs): maximal [`UpdateRun`]s and verbatim
//! membership entries, each with the ordinal of its first descriptor. A
//! [`Descriptor`] is the expanded form of one position, built on demand
//! by [`Oal::get`] and [`Oal::iter`].
//!
//! Everything a decision does to the window costs its runs *r*, not its
//! descriptors: [`Oal::append`] extends the last run in O(1);
//! [`Oal::ack_range`], [`Oal::mark_undeliverable`],
//! [`Oal::merge_acks`], [`Oal::adopt_latest`] (prefix check included,
//! compared run by run), [`Oal::prune_stable`], the stability queries
//! and [`Oal::ordinal_of`] are O(r); a lookup by ordinal is O(log r); a
//! clone shares the runs until either copy changes, so the decision that
//! carries a window and the copy its sender keeps cost no copy at all.
//! [`Oal::iter`] is the one walk over every descriptor, for
//! tests and cold paths. Acknowledging part of a run cuts it, and runs
//! made alike again join, so the runs stay the ones the encoder folds.
//! Test and debug builds also keep the descriptors one by one and assert
//! after every change that the runs spell them.

use crate::ids::{Ordinal, ProcessId, ProposalId};
use crate::semantics::Semantics;
use crate::time::SyncTime;
use crate::view::View;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Per-member acknowledgement bits, indexed by team rank.
///
/// The team size is bounded by 64, generous for a membership protocol whose
/// message complexity is linear in the team size.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct AckBits(pub u64);

impl AckBits {
    /// No acknowledgements.
    pub const EMPTY: AckBits = AckBits(0);

    /// Maximum team size representable.
    pub const MAX_TEAM: usize = 64;

    /// Set the bit for `p`.
    #[inline]
    pub fn set(&mut self, p: ProcessId) {
        debug_assert!(p.rank() < Self::MAX_TEAM);
        self.0 |= 1 << p.rank();
    }

    /// Clear the bit for `p`.
    #[inline]
    pub fn clear(&mut self, p: ProcessId) {
        self.0 &= !(1 << p.rank());
    }

    /// Test the bit for `p`.
    #[inline]
    pub fn contains(&self, p: ProcessId) -> bool {
        self.0 & (1 << p.rank()) != 0
    }

    /// Union with another ack set.
    #[inline]
    pub fn merge(&mut self, other: AckBits) {
        self.0 |= other.0;
    }

    /// Number of acknowledging members.
    #[inline]
    pub fn count(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// How many members of `group` have acknowledged.
    pub fn count_in(&self, group: &View) -> usize {
        group.members.iter().filter(|p| self.contains(**p)).count()
    }

    /// True when a strict majority of `group` has acknowledged.
    pub fn majority_of(&self, group: &View) -> bool {
        self.count_in(group) * 2 > group.len()
    }

    /// True when every member of `group` has acknowledged.
    pub fn all_of(&self, group: &View) -> bool {
        group.members.iter().all(|p| self.contains(*p))
    }
}

impl FromIterator<ProcessId> for AckBits {
    fn from_iter<T: IntoIterator<Item = ProcessId>>(iter: T) -> Self {
        let mut b = AckBits::EMPTY;
        for p in iter {
            b.set(p);
        }
        b
    }
}

impl fmt::Display for AckBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "acks[")?;
        let mut first = true;
        for r in 0..Self::MAX_TEAM {
            if self.0 & (1 << r) != 0 {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "p{r}")?;
                first = false;
            }
        }
        write!(f, "]")
    }
}

/// What a descriptor describes: a broadcast update or a membership change.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DescriptorBody {
    /// A client update proposed by a team member.
    Update {
        /// Which proposal this descriptor orders.
        id: ProposalId,
        /// Highest dependency ordinal: the update may depend on every
        /// update with an ordinal ≤ `hdo` (paper §4.3).
        hdo: Ordinal,
        /// Delivery semantics the proposal was broadcast with.
        semantics: Semantics,
        /// Synchronized send timestamp (drives time-ordered delivery).
        send_ts: SyncTime,
    },
    /// A membership change: installation of a new view.
    Membership(View),
}

impl DescriptorBody {
    /// The proposal id, if this is an update descriptor.
    pub fn proposal_id(&self) -> Option<ProposalId> {
        match self {
            DescriptorBody::Update { id, .. } => Some(*id),
            DescriptorBody::Membership(_) => None,
        }
    }
}

/// One oal entry. Its ordinal is implicit in its position (see [`Oal`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Descriptor {
    /// The ordered thing.
    pub body: DescriptorBody,
    /// Which team members have acknowledged receiving it.
    pub acks: AckBits,
    /// Marked by a new decider when the corresponding update must never be
    /// delivered (paper §4.3). Undeliverable descriptors keep their
    /// ordinal (so ordinals stay dense) and are pruned at the head.
    pub undeliverable: bool,
}

impl Descriptor {
    /// A fresh update descriptor acknowledged only by `by`.
    pub fn update(
        id: ProposalId,
        hdo: Ordinal,
        semantics: Semantics,
        send_ts: SyncTime,
        by: ProcessId,
    ) -> Self {
        let mut acks = AckBits::EMPTY;
        acks.set(by);
        Descriptor {
            body: DescriptorBody::Update {
                id,
                hdo,
                semantics,
                send_ts,
            },
            acks,
            undeliverable: false,
        }
    }

    /// A fresh membership descriptor.
    pub fn membership(view: View, by: ProcessId) -> Self {
        let mut acks = AckBits::EMPTY;
        acks.set(by);
        Descriptor {
            body: DescriptorBody::Membership(view),
            acks,
            undeliverable: false,
        }
    }
}

impl From<Descriptor> for Entry {
    fn from(d: Descriptor) -> Entry {
        let Descriptor {
            body,
            acks,
            undeliverable,
        } = d;
        match body {
            DescriptorBody::Update {
                id,
                hdo,
                semantics,
                send_ts,
            } => Entry::Updates(UpdateRun {
                first: id,
                count: 1,
                hdo,
                semantics,
                send_ts,
                stride: 0,
                acks,
                undeliverable,
            }),
            DescriptorBody::Membership(view) => Entry::Membership {
                view,
                acks,
                undeliverable,
            },
        }
    }
}

/// A run of update descriptors: `count` updates of one proposer at
/// consecutive sequence numbers and consecutive ordinals, alike in every
/// field but the send timestamp, which advances by `stride`. What a
/// decider appends for one proposal batch, and what the oal block codes
/// as one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UpdateRun {
    /// The first update's id; the `i`-th has sequence number `first.seq + i`.
    pub first: ProposalId,
    /// Number of updates, at least one.
    pub count: u64,
    /// Highest dependency ordinal of every update in the run.
    pub hdo: Ordinal,
    /// Delivery semantics of every update in the run.
    pub semantics: Semantics,
    /// The first update's synchronized send timestamp.
    pub send_ts: SyncTime,
    /// Send-timestamp step from one update to the next (0 in a run of one).
    pub stride: i64,
    /// Who acknowledged every update in the run.
    pub acks: AckBits,
    /// Whether every update in the run is marked undeliverable.
    pub undeliverable: bool,
}

impl UpdateRun {
    /// The id of the `i`-th update.
    #[inline]
    pub fn id(&self, i: u64) -> ProposalId {
        ProposalId::new(self.first.proposer, self.first.seq + i)
    }

    /// The send timestamp of the `i`-th update.
    #[inline]
    pub fn ts(&self, i: u64) -> SyncTime {
        // Every timestamp of a run is an i64; the product may not be.
        SyncTime((self.send_ts.0 as i128 + i as i128 * self.stride as i128) as i64)
    }

    /// The updates from the `from`-th on.
    pub fn slice_from(&self, from: u64) -> UpdateRun {
        self.slice(from, self.count - from)
    }

    /// The updates `from..from + len` of this run.
    pub(crate) fn slice(&self, from: u64, len: u64) -> UpdateRun {
        debug_assert!(len > 0 && from + len <= self.count);
        UpdateRun {
            first: self.id(from),
            count: len,
            send_ts: self.ts(from),
            stride: if len > 1 { self.stride } else { 0 },
            ..*self
        }
    }

    /// The stride of this run extended by all of `next`, if `next`
    /// continues it: every shared field equal, `next` starting one
    /// sequence number past this run's last, and one stride on in time
    /// throughout (any step continues a run of one).
    pub(crate) fn continued_by(&self, next: &UpdateRun) -> Option<i64> {
        let alike = self.first.proposer == next.first.proposer
            && self.hdo == next.hdo
            && self.semantics == next.semantics
            && self.acks == next.acks
            && self.undeliverable == next.undeliverable;
        if !alike || self.first.seq.checked_add(self.count) != Some(next.first.seq) {
            return None;
        }
        let step = next.send_ts.0.checked_sub(self.ts(self.count - 1).0)?;
        let stride = if self.count == 1 { step } else { self.stride };
        (step == stride && (next.count == 1 || next.stride == stride)).then_some(stride)
    }

    /// Extend this run by `next`, which continues it at `stride`.
    pub(crate) fn extend(&mut self, next: &UpdateRun, stride: i64) {
        self.count += next.count;
        self.stride = stride;
    }

    /// The `i`-th update as a descriptor.
    pub fn descriptor(&self, i: u64) -> Descriptor {
        Descriptor {
            body: DescriptorBody::Update {
                id: self.id(i),
                hdo: self.hdo,
                semantics: self.semantics,
                send_ts: self.ts(i),
            },
            acks: self.acks,
            undeliverable: self.undeliverable,
        }
    }
}

/// One entry of the window as it is held and encoded: a run of updates,
/// or a membership descriptor verbatim.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Entry {
    /// Consecutive update descriptors.
    Updates(UpdateRun),
    /// One membership descriptor.
    Membership {
        /// The view it installs.
        view: View,
        /// Who acknowledged it.
        acks: AckBits,
        /// Marked undeliverable.
        undeliverable: bool,
    },
}

impl Entry {
    /// How many descriptors (and ordinals) the entry stands for.
    #[inline]
    pub fn count(&self) -> u64 {
        match self {
            Entry::Updates(r) => r.count,
            Entry::Membership { .. } => 1,
        }
    }

    /// Acknowledgement bits of every descriptor in the entry.
    #[inline]
    pub fn acks(&self) -> AckBits {
        match self {
            Entry::Updates(r) => r.acks,
            Entry::Membership { acks, .. } => *acks,
        }
    }

    /// Whether every descriptor in the entry is marked undeliverable.
    #[inline]
    pub fn undeliverable(&self) -> bool {
        match self {
            Entry::Updates(r) => r.undeliverable,
            Entry::Membership { undeliverable, .. } => *undeliverable,
        }
    }

    /// Acknowledged by all of `group`, or undeliverable: prunable.
    #[inline]
    pub fn is_stable_in(&self, group: &View) -> bool {
        self.undeliverable() || self.acks().all_of(group)
    }

    fn flags_mut(&mut self) -> (&mut AckBits, &mut bool) {
        match self {
            Entry::Updates(r) => (&mut r.acks, &mut r.undeliverable),
            Entry::Membership {
                acks,
                undeliverable,
                ..
            } => (acks, undeliverable),
        }
    }

    /// The `i`-th descriptor of the entry.
    pub fn descriptor(&self, i: u64) -> Descriptor {
        match self {
            Entry::Updates(r) => r.descriptor(i),
            Entry::Membership {
                view,
                acks,
                undeliverable,
            } => Descriptor {
                body: DescriptorBody::Membership(view.clone()),
                acks: *acks,
                undeliverable: *undeliverable,
            },
        }
    }

    /// The descriptors `from..from + len` of the entry.
    fn slice(&self, from: u64, len: u64) -> Entry {
        match self {
            Entry::Updates(r) => Entry::Updates(r.slice(from, len)),
            Entry::Membership { .. } => self.clone(),
        }
    }

    /// How many of the first `len` descriptors from `self[i]` and
    /// `other[j]` on have the same body (ack bits and marks aside).
    fn bodies_agree(&self, i: u64, other: &Entry, j: u64, len: u64) -> u64 {
        match (self, other) {
            (Entry::Updates(a), Entry::Updates(b)) => {
                let head = a.id(i) == b.id(j)
                    && a.hdo == b.hdo
                    && a.semantics == b.semantics
                    && a.ts(i) == b.ts(j);
                // Equal heads with different strides part at the second.
                match (head, len == 1 || a.stride == b.stride) {
                    (false, _) => 0,
                    (true, true) => len,
                    (true, false) => 1,
                }
            }
            (Entry::Membership { view: a, .. }, Entry::Membership { view: b, .. }) if a == b => len,
            _ => 0,
        }
    }
}

/// Append `e` at ordinal `at` (the end of `runs`), folding it into the
/// last run when it continues that run.
fn push_run(runs: &mut VecDeque<(Ordinal, Entry)>, at: Ordinal, e: Entry) {
    if let (Some((_, Entry::Updates(last))), Entry::Updates(next)) = (runs.back_mut(), &e) {
        if let Some(stride) = last.continued_by(next) {
            last.extend(next, stride);
            return;
        }
    }
    runs.push_back((at, e));
}

/// Where two windows overlap, cut wherever either changes entries: the
/// ordinals `at..at + len` are `mine[i..]` in one and `theirs[j..]` in
/// the other.
struct Piece<'a> {
    at: Ordinal,
    len: u64,
    mine: &'a Entry,
    i: u64,
    theirs: &'a Entry,
    j: u64,
}

impl Piece<'_> {
    /// How many leading descriptors of the piece have the same body in
    /// both windows.
    fn agreeing(&self) -> u64 {
        self.mine
            .bodies_agree(self.i, self.theirs, self.j, self.len)
    }
}

/// The ordering and acknowledgement list: a window of descriptors over the
/// dense ordinal range `[base(), next_ordinal())`, held as runs.
///
/// It has no serde form: [`crate::frame`] is its codec, and the messages
/// that carry it ([`crate::Msg`]) derive none either.
#[derive(Debug, Clone)]
pub struct Oal {
    /// Ordinal that will be assigned to the next appended descriptor.
    next: Ordinal,
    /// The window as entries, each with the ordinal of its first
    /// descriptor: ascending, contiguous, and ending at `next`. Shared
    /// between clones until one of them changes (copy on write), so a
    /// decision that carries the window copies nothing.
    runs: Arc<VecDeque<(Ordinal, Entry)>>,
    /// The window descriptor by descriptor, which `runs` must spell.
    #[cfg(any(test, debug_assertions))]
    reference: VecDeque<Descriptor>,
}

impl Default for Oal {
    fn default() -> Self {
        // Ordinal 0 is reserved as the "depends on nothing" hdo.
        Oal::starting_at(Ordinal(1))
    }
}

/// Same next ordinal and the same descriptors, however they are cut into
/// runs.
impl PartialEq for Oal {
    fn eq(&self, other: &Oal) -> bool {
        self.next == other.next
            && self.base() == other.base()
            && self.pieces(other).all(|p| {
                p.agreeing() == p.len
                    && p.mine.acks() == p.theirs.acks()
                    && p.mine.undeliverable() == p.theirs.undeliverable()
            })
    }
}

impl Eq for Oal {}

impl Oal {
    /// An empty oal whose first assigned ordinal will be 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty window whose next ordinal is `next`.
    pub(crate) fn starting_at(next: Ordinal) -> Self {
        Oal {
            next,
            runs: Arc::default(),
            #[cfg(any(test, debug_assertions))]
            reference: VecDeque::new(),
        }
    }

    /// Ordinal of the head entry (== `next_ordinal()` when empty).
    #[inline]
    pub fn base(&self) -> Ordinal {
        self.runs.front().map_or(self.next, |(at, _)| *at)
    }

    /// Ordinal the next appended descriptor will get.
    #[inline]
    pub fn next_ordinal(&self) -> Ordinal {
        self.next
    }

    /// Highest assigned ordinal so far (`None` before the first append —
    /// across the lifetime of this copy, including pruned entries).
    #[inline]
    pub fn highest_ordinal(&self) -> Option<Ordinal> {
        if self.next.0 > 1 {
            Some(Ordinal(self.next.0 - 1))
        } else {
            None
        }
    }

    /// Number of descriptors currently in the window.
    #[inline]
    pub fn len(&self) -> usize {
        (self.next.0 - self.base().0) as usize
    }

    /// True when the window is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Append a descriptor, assigning it the next ordinal. Extends the
    /// last run when the descriptor continues it.
    pub fn append(&mut self, d: Descriptor) -> Ordinal {
        let o = self.next;
        #[cfg(any(test, debug_assertions))]
        self.reference.push_back(d.clone());
        self.push_entry(Entry::from(d));
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            self.get(o).as_ref(),
            self.reference.back(),
            "oal runs and expanded descriptors disagree on the appended {o:?}"
        );
        o
    }

    /// Append a whole entry at the next ordinal (the codec's append).
    pub(crate) fn push(&mut self, e: Entry) {
        #[cfg(any(test, debug_assertions))]
        self.reference
            .extend((0..e.count()).map(|i| e.descriptor(i)));
        self.push_entry(e);
    }

    fn push_entry(&mut self, e: Entry) {
        let at = self.next;
        self.next = Ordinal(at.0 + e.count());
        push_run(Arc::make_mut(&mut self.runs), at, e);
    }

    /// The entries of the window with their first ordinals, in order.
    pub fn runs(&self) -> impl Iterator<Item = (Ordinal, &Entry)> + '_ {
        self.runs.iter().map(|(at, e)| (*at, e))
    }

    /// The entries from the one holding ordinal `from` on (all of them
    /// when `from` is below the base, none when it is past the window).
    /// The first may start below `from`.
    pub fn runs_from(&self, from: Ordinal) -> impl Iterator<Item = (Ordinal, &Entry)> + '_ {
        let i = self.index_of(from.max(self.base()));
        self.runs.range(i..).map(|(at, e)| (*at, e))
    }

    /// Index of the entry holding `o`, `runs.len()` when `o` is at or
    /// past the end of the window. `o` must not be below the base.
    fn index_of(&self, o: Ordinal) -> usize {
        if o >= self.next {
            return self.runs.len();
        }
        self.runs.partition_point(|(at, _)| *at <= o) - 1
    }

    /// The index among [`Oal::runs`] of the entry holding `ordinal`,
    /// trying `hint` (where that entry was before) first.
    pub fn run_index(&self, ordinal: Ordinal, hint: usize) -> Option<usize> {
        if ordinal < self.base() || ordinal >= self.next {
            return None;
        }
        let holds = |(at, e): &(Ordinal, Entry)| *at <= ordinal && ordinal.0 < at.0 + e.count();
        if self.runs.get(hint).is_some_and(holds) {
            return Some(hint);
        }
        Some(self.index_of(ordinal))
    }

    /// The entry at `index` among [`Oal::runs`], with its first ordinal.
    pub fn run(&self, index: usize) -> Option<(Ordinal, &Entry)> {
        self.runs.get(index).map(|(at, e)| (*at, e))
    }

    /// The entry holding `ordinal`, with its first ordinal.
    pub fn run_at(&self, ordinal: Ordinal) -> Option<(Ordinal, &Entry)> {
        if ordinal < self.base() || ordinal >= self.next {
            return None;
        }
        let (at, e) = &self.runs[self.index_of(ordinal)];
        Some((*at, e))
    }

    /// The descriptor at `ordinal`, if it is inside the window.
    pub fn get(&self, ordinal: Ordinal) -> Option<Descriptor> {
        self.run_at(ordinal)
            .map(|(at, e)| e.descriptor(ordinal.0 - at.0))
    }

    /// Is the descriptor at `ordinal` in the window and marked
    /// undeliverable?
    pub fn is_undeliverable(&self, ordinal: Ordinal) -> bool {
        self.run_at(ordinal).is_some_and(|(_, e)| e.undeliverable())
    }

    /// Iterate `(ordinal, descriptor)` pairs over the window, expanding
    /// every run: O(window), where [`Oal::runs`] is O(runs).
    pub fn iter(&self) -> impl Iterator<Item = (Ordinal, Descriptor)> + '_ {
        self.runs()
            .flat_map(|(at, e)| (0..e.count()).map(move |i| (Ordinal(at.0 + i), e.descriptor(i))))
    }

    /// Find the ordinal assigned to proposal `id`, if present in the window.
    pub fn ordinal_of(&self, id: ProposalId) -> Option<Ordinal> {
        self.runs().find_map(|(at, e)| match e {
            Entry::Updates(r)
                if r.first.proposer == id.proposer
                    && id.seq >= r.first.seq
                    && id.seq - r.first.seq < r.count =>
            {
                Some(Ordinal(at.0 + (id.seq - r.first.seq)))
            }
            _ => None,
        })
    }

    /// Record that `p` acknowledged the descriptor at `ordinal`.
    /// Returns false if the ordinal is outside the window (already pruned
    /// — which itself implies stability — or not yet assigned).
    pub fn ack(&mut self, ordinal: Ordinal, p: ProcessId) -> bool {
        self.ack_range(ordinal..ordinal.next(), p)
    }

    /// Record that `p` acknowledged every descriptor of `range` that is
    /// inside the window; returns whether any is.
    pub fn ack_range(&mut self, range: Range<Ordinal>, p: ProcessId) -> bool {
        self.update_range(range, |acks, _| acks.set(p))
    }

    /// Mark the descriptor at `ordinal` undeliverable. Returns whether the
    /// ordinal was inside the window.
    pub fn mark_undeliverable(&mut self, ordinal: Ordinal) -> bool {
        self.update_range(ordinal..ordinal.next(), |_, u| *u = true)
    }

    /// Apply `f` to the ack bits and mark of every descriptor of `range`
    /// inside the window, cutting the runs it cuts through and joining
    /// those it makes alike. Returns whether the range meets the window.
    fn update_range(&mut self, range: Range<Ordinal>, f: impl Fn(&mut AckBits, &mut bool)) -> bool {
        let (lo, hi) = (range.start.max(self.base()), range.end.min(self.next));
        if lo >= hi {
            return false;
        }
        #[cfg(any(test, debug_assertions))]
        {
            let base = self.base().0;
            let span = (lo.0 - base) as usize..(hi.0 - base) as usize;
            for d in self.reference.range_mut(span) {
                f(&mut d.acks, &mut d.undeliverable);
            }
        }
        let changes = |e: &Entry| {
            let (mut acks, mut undeliverable) = (e.acks(), e.undeliverable());
            f(&mut acks, &mut undeliverable);
            (acks, undeliverable) != (e.acks(), e.undeliverable())
        };
        let (first, last) = (self.index_of(lo), self.index_of(Ordinal(hi.0 - 1)));
        if self.runs.range(first..=last).any(|(_, e)| changes(e)) {
            let first = self.split_at(lo);
            let end = self.split_at(hi);
            for (_, e) in Arc::make_mut(&mut self.runs).range_mut(first..end) {
                let (acks, undeliverable) = e.flags_mut();
                f(acks, undeliverable);
            }
            self.join(first.saturating_sub(1), end);
        }
        self.check();
        true
    }

    /// Make `o` (inside the window, or its end) start an entry; returns
    /// that entry's index.
    fn split_at(&mut self, o: Ordinal) -> usize {
        let i = self.index_of(o);
        let runs = Arc::make_mut(&mut self.runs);
        let Some((at, e)) = runs.get_mut(i) else {
            return i;
        };
        let k = o.0 - at.0;
        if k == 0 {
            return i;
        }
        let tail = e.slice(k, e.count() - k);
        *e = e.slice(0, k);
        runs.insert(i + 1, (o, tail));
        i + 1
    }

    /// Join the neighbours in `runs[from..=to]` that continue each other.
    fn join(&mut self, from: usize, to: usize) {
        let runs = Arc::make_mut(&mut self.runs);
        let mut i = to.min(runs.len().saturating_sub(1));
        while i > from {
            if let (Entry::Updates(a), Entry::Updates(b)) = (&runs[i - 1].1, &runs[i].1) {
                if let Some(stride) = a.continued_by(b) {
                    let b = *b;
                    if let Entry::Updates(a) = &mut runs[i - 1].1 {
                        a.extend(&b, stride);
                    }
                    runs.remove(i);
                }
            }
            i -= 1;
        }
    }

    /// The overlap of this window with `other`'s, cut into [`Piece`]s.
    fn pieces<'a>(&'a self, other: &'a Oal) -> impl Iterator<Item = Piece<'a>> + 'a {
        let (lo, hi) = (self.base().max(other.base()), self.next.min(other.next));
        let (mut i, mut j, mut o) = (self.index_of(lo), other.index_of(lo), lo);
        std::iter::from_fn(move || {
            if o >= hi {
                return None;
            }
            let (mine_at, mine) = &self.runs[i];
            let (theirs_at, theirs) = &other.runs[j];
            let (mine_end, theirs_end) = (mine_at.0 + mine.count(), theirs_at.0 + theirs.count());
            let end = mine_end.min(theirs_end).min(hi.0);
            let piece = Piece {
                at: o,
                len: end - o.0,
                mine,
                i: o.0 - mine_at.0,
                theirs,
                j: o.0 - theirs_at.0,
            };
            o = Ordinal(end);
            i += usize::from(end == mine_end);
            j += usize::from(end == theirs_end);
            Some(piece)
        })
    }

    /// Merge another snapshot's acknowledgement bits into this oal.
    ///
    /// Only overlapping ordinals are merged; entries the other snapshot has
    /// pruned were already stable there. Descriptor bodies must agree on
    /// the overlap (the prefix property) — violations indicate a protocol
    /// bug and are reported via `Err` with the first mismatching ordinal,
    /// below which the bits are merged. Costs the runs of both windows.
    pub fn merge_acks(&mut self, other: &Oal) -> Result<(), Ordinal> {
        #[cfg(any(test, debug_assertions))]
        let expected = {
            let base = self.base().0;
            let mut expected = Ok(());
            for (o, theirs) in (other.base().0..).zip(&other.reference) {
                let Some(mine) = o
                    .checked_sub(base)
                    .and_then(|k| self.reference.get_mut(k as usize))
                else {
                    continue;
                };
                if mine.body != theirs.body {
                    expected = Err(Ordinal(o));
                    break;
                }
                mine.acks.merge(theirs.acks);
                mine.undeliverable |= theirs.undeliverable;
            }
            expected
        };
        let mut out = VecDeque::with_capacity(self.runs.len() + other.runs.len());
        let mut done = self.base();
        let mut result = Ok(());
        for p in self.pieces(other) {
            self.copy_into(&mut out, done..p.at);
            let agree = p.agreeing();
            if agree > 0 {
                let mut merged = p.mine.slice(p.i, agree);
                let (acks, undeliverable) = merged.flags_mut();
                acks.merge(p.theirs.acks());
                *undeliverable |= p.theirs.undeliverable();
                push_run(&mut out, p.at, merged);
            }
            done = Ordinal(p.at.0 + agree);
            if agree < p.len {
                result = Err(done);
                break;
            }
        }
        self.copy_into(&mut out, done..self.next);
        self.runs = Arc::new(out);
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            result, expected,
            "run-wise and descriptor-wise merges disagree"
        );
        self.check();
        result
    }

    /// Append this window's descriptors of `range` to `out` unchanged.
    fn copy_into(&self, out: &mut VecDeque<(Ordinal, Entry)>, range: Range<Ordinal>) {
        if range.start >= range.end {
            return;
        }
        for (at, e) in self.runs_from(range.start) {
            if at >= range.end {
                break;
            }
            let from = range.start.max(at);
            let to = range.end.0.min(at.0 + e.count());
            push_run(out, from, e.slice(from.0 - at.0, to - from.0));
        }
    }

    /// Adopt `other` wholesale when it extends further than this copy
    /// (e.g. on receiving a decision message): keeps whichever snapshot
    /// has assigned more ordinals, merging ack bits from the other. Takes
    /// `other` by value, so adopting it copies nothing.
    ///
    /// On a prefix violation returns the first mismatching ordinal, and
    /// `other` as it came in, for a caller that falls back on it.
    pub fn adopt_latest(&mut self, mut other: Oal) -> Result<(), (Ordinal, Oal)> {
        if other.next >= self.next {
            // Check before merging: a merge that fails half-way would
            // leave `other` holding some of our bits.
            if let Some(o) = self.first_disagreement(&other) {
                return Err((o, other));
            }
            let merged = other.merge_acks(self);
            debug_assert!(merged.is_ok(), "bodies were checked to agree");
            *self = other;
        } else if let Err(o) = self.merge_acks(&other) {
            return Err((o, other));
        }
        Ok(())
    }

    /// True when the descriptor at `ordinal` has been acknowledged by all
    /// members of `group` (is *stable*), or has already been pruned.
    pub fn is_stable(&self, ordinal: Ordinal, group: &View) -> bool {
        if ordinal < self.base() {
            return ordinal.0 >= 1; // pruned ⇒ was stable
        }
        self.run_at(ordinal)
            .is_some_and(|(_, e)| e.is_stable_in(group))
    }

    /// True when every descriptor with ordinal ≤ `ordinal` is stable.
    pub fn stable_through(&self, ordinal: Ordinal, group: &View) -> bool {
        if ordinal < self.base() {
            return true;
        }
        ordinal < self.next
            && self
                .runs()
                .take_while(|(at, _)| *at <= ordinal)
                .all(|(_, e)| e.is_stable_in(group))
    }

    /// Pop stable head descriptors (acked by all of `group`, or marked
    /// undeliverable), returning the ordinals popped. This is the
    /// decider-side pruning that keeps the window bounded; it pops whole
    /// entries, since an entry's descriptors share their bits.
    pub fn prune_stable(&mut self, group: &View) -> Range<Ordinal> {
        let from = self.base();
        let stable = |runs: &VecDeque<(Ordinal, Entry)>| {
            runs.front().is_some_and(|(_, e)| e.is_stable_in(group))
        };
        if stable(&self.runs) {
            let runs = Arc::make_mut(&mut self.runs);
            while stable(runs) {
                runs.pop_front();
            }
        }
        #[cfg(any(test, debug_assertions))]
        while self
            .reference
            .front()
            .is_some_and(|d| d.undeliverable || d.acks.all_of(group))
        {
            self.reference.pop_front();
        }
        self.check();
        from..self.base()
    }

    /// Check the prefix property against a longer (or equal) snapshot:
    /// every descriptor in `self`'s window that also lies in `longer`'s
    /// window must have an identical body. Ack bits are allowed to differ.
    pub fn agrees_with(&self, longer: &Oal) -> bool {
        self.first_disagreement(longer).is_none()
    }

    /// The first ordinal of this window whose descriptor `other` holds
    /// with a different body, if any (one `other` does not hold — pruned
    /// there or not yet assigned — agrees).
    fn first_disagreement(&self, other: &Oal) -> Option<Ordinal> {
        self.pieces(other).find_map(|p| {
            let agree = p.agreeing();
            (agree < p.len).then_some(Ordinal(p.at.0 + agree))
        })
    }

    /// Rebuild an oal from its parts: the next ordinal to assign and
    /// the current window descriptors (whose ordinals are implicit);
    /// `entries.len()` must not exceed `next - 1`.
    pub fn restore(&mut self, next: Ordinal, entries: Vec<Descriptor>) {
        debug_assert!((entries.len() as u64) < next.0.max(1) + 1);
        *self = Oal::starting_at(Ordinal(next.0 - entries.len() as u64));
        for d in entries {
            self.push(Entry::from(d));
        }
        self.check();
    }

    /// The highest ordinal `o` such that every descriptor ≤ `o` is stable
    /// in `group` (the stability frontier). `Ordinal::ZERO` when nothing
    /// is stable.
    pub fn stability_frontier(&self, group: &View) -> Ordinal {
        let unstable = self
            .runs()
            .find(|(_, e)| !e.is_stable_in(group))
            .map_or(self.next, |(at, _)| at);
        Ordinal(unstable.0.saturating_sub(1))
    }

    /// Assert that the runs tile the window and spell the descriptors the
    /// window was built from (test and debug builds; free elsewhere).
    pub(crate) fn check(&self) {
        #[cfg(any(test, debug_assertions))]
        {
            let mut o = self.base();
            for (at, e) in self.runs.iter() {
                assert!(
                    *at == o && e.count() > 0,
                    "oal runs do not tile the window at {o:?}"
                );
                o = Ordinal(o.0 + e.count());
            }
            assert_eq!(o, self.next, "oal runs end short of the next ordinal");
            assert!(
                self.iter()
                    .map(|(_, d)| d)
                    .eq(self.reference.iter().cloned()),
                "oal runs and expanded descriptors disagree in {self}"
            );
        }
    }
}

impl fmt::Display for Oal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oal[{}..{})", self.base().0, self.next.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::ViewId;

    fn group(ids: &[u16]) -> View {
        View::new(
            ViewId::new(1, ProcessId(ids[0])),
            ids.iter().map(|&i| ProcessId(i)),
        )
    }

    fn upd(p: u16, seq: u64) -> Descriptor {
        Descriptor::update(
            ProposalId::new(ProcessId(p), seq),
            Ordinal::ZERO,
            Semantics::UNORDERED_WEAK,
            SyncTime::ZERO,
            ProcessId(p),
        )
    }

    #[test]
    fn append_assigns_dense_ordinals() {
        let mut oal = Oal::new();
        assert_eq!(oal.append(upd(0, 1)), Ordinal(1));
        assert_eq!(oal.append(upd(1, 1)), Ordinal(2));
        assert_eq!(oal.append(upd(0, 2)), Ordinal(3));
        assert_eq!(oal.base(), Ordinal(1));
        assert_eq!(oal.next_ordinal(), Ordinal(4));
        assert_eq!(oal.highest_ordinal(), Some(Ordinal(3)));
        assert_eq!(oal.len(), 3);
    }

    #[test]
    fn get_respects_window() {
        let mut oal = Oal::new();
        oal.append(upd(0, 1));
        assert!(oal.get(Ordinal(0)).is_none());
        assert!(oal.get(Ordinal(1)).is_some());
        assert!(oal.get(Ordinal(2)).is_none());
    }

    #[test]
    fn ordinal_of_finds_proposals() {
        let mut oal = Oal::new();
        oal.append(upd(0, 1));
        oal.append(upd(2, 7));
        assert_eq!(
            oal.ordinal_of(ProposalId::new(ProcessId(2), 7)),
            Some(Ordinal(2))
        );
        assert_eq!(oal.ordinal_of(ProposalId::new(ProcessId(2), 8)), None);
    }

    #[test]
    fn stability_and_pruning() {
        let g = group(&[0, 1, 2]);
        let mut oal = Oal::new();
        let o1 = oal.append(upd(0, 1));
        let o2 = oal.append(upd(1, 1));
        assert!(!oal.is_stable(o1, &g));
        oal.ack(o1, ProcessId(1));
        oal.ack(o1, ProcessId(2));
        assert!(oal.is_stable(o1, &g));
        assert!(!oal.stable_through(o2, &g));
        assert_eq!(oal.prune_stable(&g), o1..o2);
        assert_eq!(oal.base(), o2);
        // Pruned ordinals still count as stable.
        assert!(oal.is_stable(o1, &g));
    }

    #[test]
    fn undeliverable_counts_as_stable_for_pruning() {
        let g = group(&[0, 1]);
        let mut oal = Oal::new();
        let o1 = oal.append(upd(0, 1));
        oal.mark_undeliverable(o1);
        assert!(oal.get(o1).unwrap().undeliverable);
        assert_eq!(oal.prune_stable(&g), o1..o1.next());
    }

    #[test]
    fn merge_acks_unions_bits() {
        let mut a = Oal::new();
        let o1 = a.append(upd(0, 1));
        let mut b = a.clone();
        a.ack(o1, ProcessId(1));
        b.ack(o1, ProcessId(2));
        a.merge_acks(&b).unwrap();
        let d = a.get(o1).unwrap();
        assert!(d.acks.contains(ProcessId(0)));
        assert!(d.acks.contains(ProcessId(1)));
        assert!(d.acks.contains(ProcessId(2)));
    }

    #[test]
    fn merge_acks_detects_prefix_violation() {
        let mut a = Oal::new();
        a.append(upd(0, 1));
        let mut b = Oal::new();
        b.append(upd(5, 9));
        assert_eq!(a.merge_acks(&b), Err(Ordinal(1)));
        assert!(!a.agrees_with(&b));
    }

    #[test]
    fn adopt_latest_prefers_longer() {
        let mut a = Oal::new();
        let o1 = a.append(upd(0, 1));
        let mut b = a.clone();
        b.append(upd(1, 1));
        a.ack(o1, ProcessId(3));
        a.adopt_latest(b).unwrap();
        assert_eq!(a.len(), 2);
        // a's ack on o1 survived the adoption.
        assert!(a.get(o1).unwrap().acks.contains(ProcessId(3)));
    }

    #[test]
    fn adopt_latest_hands_back_a_violating_oal_untouched() {
        let mut a = Oal::new();
        let o1 = a.append(upd(0, 1));
        a.append(upd(0, 2));
        a.ack(o1, ProcessId(3));
        // Agrees at o1, differs at o2, and is longer: a merge would have
        // copied a's ack on o1 before finding o2.
        let mut b = Oal::new();
        b.append(upd(0, 1));
        b.append(upd(5, 9));
        b.append(upd(5, 10));
        let before = a.clone();
        let (at, back) = a.adopt_latest(b.clone()).unwrap_err();
        assert_eq!((at, &back, &a), (Ordinal(2), &b, &before));
    }

    #[test]
    fn agrees_with_pruned_prefix() {
        let g = group(&[0]);
        let mut long = Oal::new();
        let o1 = long.append(upd(0, 1));
        long.append(upd(0, 2));
        let short = long.clone();
        long.ack(o1, ProcessId(0));
        long.prune_stable(&g);
        // `short` still holds o1; `long` pruned it. Both directions agree.
        assert!(short.agrees_with(&long));
        assert!(long.agrees_with(&short));
    }

    #[test]
    fn stability_frontier_walks_prefix() {
        let g = group(&[0, 1]);
        let mut oal = Oal::new();
        let o1 = oal.append(upd(0, 1));
        let o2 = oal.append(upd(0, 2));
        let o3 = oal.append(upd(0, 3));
        oal.ack(o1, ProcessId(1));
        oal.ack(o3, ProcessId(1));
        assert_eq!(oal.stability_frontier(&g), o1);
        oal.ack(o2, ProcessId(1));
        assert_eq!(oal.stability_frontier(&g), o3);
    }

    /// `n` updates of `p` from `seq` on, sent `stride` apart from `ts`.
    fn batch(oal: &mut Oal, p: u16, seq: u64, ts: i64, stride: i64, n: u64) -> Ordinal {
        let first = oal.next_ordinal();
        for k in 0..n {
            oal.append(Descriptor::update(
                ProposalId::new(ProcessId(p), seq + k),
                Ordinal(3),
                Semantics::UNORDERED_WEAK,
                SyncTime(ts + stride * k as i64),
                ProcessId(0),
            ));
        }
        first
    }

    #[test]
    fn a_batch_is_one_run_and_a_partial_ack_cuts_it_until_it_heals() {
        let mut oal = Oal::new();
        let o = batch(&mut oal, 0, 1, 100, 1, 64);
        batch(&mut oal, 1, 1, 100, 1, 1);
        assert_eq!((oal.len(), oal.runs().count()), (65, 2));
        assert!(oal.ack_range(Ordinal(o.0 + 10)..Ordinal(o.0 + 20), ProcessId(2)));
        assert_eq!(oal.runs().count(), 4, "cut into before, acked, after");
        assert_eq!(oal.get(Ordinal(o.0 + 10)).unwrap().acks.count(), 2);
        assert_eq!(oal.get(Ordinal(o.0 + 20)).unwrap().acks.count(), 1);
        oal.ack_range(o..Ordinal(o.0 + 64), ProcessId(2));
        assert_eq!(oal.runs().count(), 2, "alike again, joined again");
        // A repeated ack changes nothing and cuts nothing.
        assert!(oal.ack(o, ProcessId(2)));
        assert_eq!(oal.runs().count(), 2);
        assert!(!oal.ack(oal.next_ordinal(), ProcessId(2)));
    }

    #[test]
    fn where_runs_are_cut_is_not_what_an_oal_is() {
        let mut a = Oal::new();
        batch(&mut a, 0, 1, 0, 2, 10);
        let mut b = a.clone();
        b.ack_range(Ordinal(4)..Ordinal(6), ProcessId(1));
        let mut c = b.clone();
        c.ack_range(Ordinal(4)..Ordinal(6), ProcessId(1));
        assert_ne!(a, b);
        assert_eq!(b, c);
        // Merging across different cuts unions the bits position-wise.
        a.merge_acks(&b).unwrap();
        assert_eq!(a, b);
        let rebuilt: Vec<_> = b.iter().map(|(_, d)| d).collect();
        let mut d = Oal::new();
        d.restore(b.next_ordinal(), rebuilt);
        assert_eq!(d, b);
        assert_eq!(d.runs().count(), 3);
    }

    #[test]
    fn a_stride_mismatch_is_found_at_the_second_descriptor() {
        let mut a = Oal::new();
        batch(&mut a, 0, 1, 0, 1, 4);
        let mut b = Oal::new();
        batch(&mut b, 0, 1, 0, 2, 4);
        a.ack(Ordinal(4), ProcessId(3));
        b.ack(Ordinal(1), ProcessId(3));
        assert_eq!(a.merge_acks(&b), Err(Ordinal(2)));
        // Merged below the mismatch, untouched from it on.
        assert!(a.get(Ordinal(1)).unwrap().acks.contains(ProcessId(3)));
        assert!(!a.get(Ordinal(2)).unwrap().acks.contains(ProcessId(3)));
        assert!(!a.agrees_with(&b));
    }

    /// SplitMix64, for the randomized walk below.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// Random appends, acks, marks, prunes, merges and adoptions between
    /// two copies; every change asserts the runs against the descriptors
    /// they stand for (`Oal::check`).
    #[test]
    fn runs_spell_their_descriptors_through_random_histories() {
        let g = group(&[0, 1, 2]);
        for seed in 0..40 {
            let mut rng = Mix(seed);
            let mut oals = [Oal::new(), Oal::new()];
            let mut seqs = [0u64; 3];
            for _ in 0..200 {
                let k = rng.below(2) as usize;
                match rng.below(8) {
                    0..=2 => {
                        let p = rng.below(3) as u16;
                        let n = 1 + rng.below(6);
                        let (ts, stride) = (rng.below(50) as i64, rng.below(3) as i64);
                        batch(&mut oals[k], p, seqs[p as usize] + 1, ts, stride, n);
                        seqs[p as usize] += n;
                        if rng.below(2) == 0 {
                            oals[1 - k] = oals[k].clone();
                        }
                    }
                    3 => {
                        let (base, len) = (oals[k].base().0, oals[k].len() as u64 + 1);
                        let lo = base + rng.below(len);
                        let hi = lo + rng.below(8);
                        let p = ProcessId(rng.below(3) as u16);
                        oals[k].ack_range(Ordinal(lo)..Ordinal(hi), p);
                    }
                    4 => {
                        let o = oals[k].base().0 + rng.below(oals[k].len() as u64 + 1);
                        oals[k].mark_undeliverable(Ordinal(o));
                    }
                    5 => {
                        oals[k].prune_stable(&g);
                    }
                    6 => {
                        let other = oals[1 - k].clone();
                        let _ = oals[k].merge_acks(&other);
                    }
                    _ => {
                        let other = oals[1 - k].clone();
                        if let Err((_, back)) = oals[k].adopt_latest(other) {
                            oals[k] = back;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ackbits_set_clear_count() {
        let mut b = AckBits::EMPTY;
        b.set(ProcessId(0));
        b.set(ProcessId(5));
        assert_eq!(b.count(), 2);
        assert!(b.contains(ProcessId(5)));
        b.clear(ProcessId(5));
        assert!(!b.contains(ProcessId(5)));
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn ackbits_group_queries() {
        let g = group(&[0, 1, 2]);
        let b: AckBits = [ProcessId(0), ProcessId(1)].into_iter().collect();
        assert_eq!(b.count_in(&g), 2);
        assert!(b.majority_of(&g));
        assert!(!b.all_of(&g));
        let all: AckBits = g.members.iter().copied().collect();
        assert!(all.all_of(&g));
    }

    #[test]
    fn ackbits_display() {
        let b: AckBits = [ProcessId(1), ProcessId(3)].into_iter().collect();
        assert_eq!(b.to_string(), "acks[p1,p3]");
    }
}
