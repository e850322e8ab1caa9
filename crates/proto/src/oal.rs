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

use crate::ids::{Ordinal, ProcessId, ProposalId};
use crate::semantics::Semantics;
use crate::time::SyncTime;
use crate::view::View;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

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

/// The ordering and acknowledgement list: a window of descriptors over the
/// dense ordinal range `[base(), next_ordinal())`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Oal {
    /// Ordinal that will be assigned to the next appended descriptor.
    next: Ordinal,
    /// Window entries; entry `i` has ordinal `next - len + i`.
    entries: VecDeque<Descriptor>,
}

impl Default for Oal {
    fn default() -> Self {
        Oal {
            // Ordinal 0 is reserved as the "depends on nothing" hdo.
            next: Ordinal(1),
            entries: VecDeque::new(),
        }
    }
}

impl Oal {
    /// An empty oal whose first assigned ordinal will be 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ordinal of the head entry (== `next_ordinal()` when empty).
    #[inline]
    pub fn base(&self) -> Ordinal {
        Ordinal(self.next.0 - self.entries.len() as u64)
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
        self.entries.len()
    }

    /// True when the window is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Append a descriptor, assigning it the next ordinal.
    pub fn append(&mut self, d: Descriptor) -> Ordinal {
        let o = self.next;
        self.entries.push_back(d);
        self.next = self.next.next();
        o
    }

    /// The descriptor at `ordinal`, if it is inside the window.
    pub fn get(&self, ordinal: Ordinal) -> Option<&Descriptor> {
        let base = self.base();
        if ordinal < base || ordinal >= self.next {
            return None;
        }
        self.entries.get((ordinal.0 - base.0) as usize)
    }

    /// Mutable access to the descriptor at `ordinal`.
    pub fn get_mut(&mut self, ordinal: Ordinal) -> Option<&mut Descriptor> {
        let base = self.base();
        if ordinal < base || ordinal >= self.next {
            return None;
        }
        self.entries.get_mut((ordinal.0 - base.0) as usize)
    }

    /// Iterate `(ordinal, descriptor)` pairs over the window.
    pub fn iter(&self) -> impl Iterator<Item = (Ordinal, &Descriptor)> {
        let base = self.base();
        self.entries
            .iter()
            .enumerate()
            .map(move |(i, d)| (Ordinal(base.0 + i as u64), d))
    }

    /// Iterate mutably over `(ordinal, descriptor)` pairs.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Ordinal, &mut Descriptor)> {
        let base = self.base();
        self.entries
            .iter_mut()
            .enumerate()
            .map(move |(i, d)| (Ordinal(base.0 + i as u64), d))
    }

    /// Find the ordinal assigned to proposal `id`, if present in the window.
    pub fn ordinal_of(&self, id: ProposalId) -> Option<Ordinal> {
        self.iter()
            .find(|(_, d)| d.body.proposal_id() == Some(id))
            .map(|(o, _)| o)
    }

    /// Record that `p` acknowledged the descriptor at `ordinal`.
    /// Returns false if the ordinal is outside the window (already pruned
    /// — which itself implies stability — or not yet assigned).
    pub fn ack(&mut self, ordinal: Ordinal, p: ProcessId) -> bool {
        if let Some(d) = self.get_mut(ordinal) {
            d.acks.set(p);
            true
        } else {
            false
        }
    }

    /// Merge another snapshot's acknowledgement bits into this oal.
    ///
    /// Only overlapping ordinals are merged; entries the other snapshot has
    /// pruned were already stable there. Descriptor bodies must agree on
    /// the overlap (the prefix property) — violations indicate a protocol
    /// bug and are reported via `Err` with the first mismatching ordinal.
    pub fn merge_acks(&mut self, other: &Oal) -> Result<(), Ordinal> {
        for (o, theirs) in other.iter() {
            if let Some(mine) = self.get_mut(o) {
                if mine.body != theirs.body {
                    return Err(o);
                }
                mine.acks.merge(theirs.acks);
                mine.undeliverable |= theirs.undeliverable;
            }
        }
        Ok(())
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
        match self.get(ordinal) {
            Some(d) => d.undeliverable || d.acks.all_of(group),
            None => false,
        }
    }

    /// True when every descriptor with ordinal ≤ `ordinal` is stable.
    pub fn stable_through(&self, ordinal: Ordinal, group: &View) -> bool {
        let mut o = self.base();
        if ordinal < o {
            return true;
        }
        while o <= ordinal {
            if !self.is_stable(o, group) {
                return false;
            }
            o = o.next();
        }
        true
    }

    /// Pop stable head descriptors (acked by all of `group`, or marked
    /// undeliverable), returning them with their ordinals. This is the
    /// decider-side pruning that keeps the window bounded.
    pub fn prune_stable(&mut self, group: &View) -> Vec<(Ordinal, Descriptor)> {
        let mut out = Vec::new();
        while let Some(head) = self.entries.front() {
            if head.undeliverable || head.acks.all_of(group) {
                let o = self.base();
                out.push((o, self.entries.pop_front().expect("non-empty")));
            } else {
                break;
            }
        }
        out
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
        self.iter()
            .find(|(o, d)| other.get(*o).is_some_and(|od| od.body != d.body))
            .map(|(o, _)| o)
    }

    /// Mark the descriptor at `ordinal` undeliverable. Returns whether the
    /// ordinal was inside the window.
    pub fn mark_undeliverable(&mut self, ordinal: Ordinal) -> bool {
        if let Some(d) = self.get_mut(ordinal) {
            d.undeliverable = true;
            true
        } else {
            false
        }
    }

    /// Rebuild an oal from its wire parts: the next ordinal to assign and
    /// the current window entries (whose ordinals are implicit). Used by
    /// the codec; `entries.len()` must not exceed `next - 1`.
    pub fn restore(&mut self, next: Ordinal, entries: Vec<Descriptor>) {
        debug_assert!((entries.len() as u64) < next.0.max(1) + 1);
        self.next = next;
        self.entries = entries.into();
    }

    /// The highest ordinal `o` such that every descriptor ≤ `o` is stable
    /// in `group` (the stability frontier). `Ordinal::ZERO` when nothing
    /// is stable.
    pub fn stability_frontier(&self, group: &View) -> Ordinal {
        let mut frontier = Ordinal(self.base().0.saturating_sub(1));
        let mut o = self.base();
        while o < self.next {
            if self.is_stable(o, group) {
                frontier = o;
                o = o.next();
            } else {
                break;
            }
        }
        frontier
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
        let pruned = oal.prune_stable(&g);
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned[0].0, o1);
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
        let pruned = oal.prune_stable(&g);
        assert_eq!(pruned.len(), 1);
        assert!(pruned[0].1.undeliverable);
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
