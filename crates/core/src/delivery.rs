//! The delivery conditions of the timewheel atomic broadcast.
//!
//! An update is handed to the application only when three conditions hold
//! (paper §2, detailed in \[19]):
//!
//! * **general** — per-sender FIFO: a proposer's updates are delivered in
//!   proposal order (enforced via [`ProposalBuffer`]'s cursors);
//! * **atomicity** — *weak*: none beyond receipt; *strong*: every update
//!   the proposal can depend on (ordinal ≤ its `hdo`) has been received
//!   by a majority of the group; *strict*: by *all* of the group
//!   (stability);
//! * **order** — *unordered*: none; *total*: the update's ordinal is
//!   known and every ordered update with a smaller ordinal has been
//!   delivered (or ruled undeliverable); *time*: the synchronized clock
//!   has passed `send_ts + Δ_deliv` and every known time-ordered update
//!   with a smaller timestamp has been delivered (or ruled out).
//!
//! The conditions are *stated* once, as pure predicates over the
//! member's oal, buffers and clock reading (`deliverable` and the
//! functions it calls), and *evaluated* through a [`Frontier`]: three
//! cursors that remember how far into the oal window each condition
//! already holds, so a test is one comparison instead of a walk, and a
//! cursor steps over a whole run of the oal at once. The
//! predicates compile only into test and debug builds, where the member
//! asserts at every delivery attempt that both name the same proposal.

use crate::buffers::ProposalBuffer;
use crate::config::Config;
use tw_proto::{Atomicity, Entry, Oal, Ordering, Ordinal, Proposal, SyncTime, View, ViewId};
#[cfg(any(test, debug_assertions))]
use tw_proto::{Descriptor, DescriptorBody};

/// How far into the oal window each delivery condition holds.
///
/// Every cursor is the first ordinal at which its condition fails (the
/// oal's next ordinal when it fails nowhere), so everything below it —
/// pruned descriptors included, which were stable — passes. While the
/// view and the oal lineage stand, acknowledgements, undeliverable marks
/// and deliveries only accumulate and the window only moves forward, so
/// cursors only advance and [`Frontier::advance`] resumes where it
/// stopped. Whatever can take a passing descriptor back resets them to
/// the window base: a view change (acknowledgements are counted against
/// the view — noticed here), a window re-opened below its old base
/// (noticed here), and a replaced oal or emptied buffer (the owner calls
/// [`Frontier::reset`]).
#[derive(Debug, Clone, Default)]
pub struct Frontier {
    /// The view the acknowledgement cursors were counted against.
    view: ViewId,
    /// The window base at the last advance.
    base: Ordinal,
    /// First ordinal neither undeliverable nor acknowledged by a
    /// majority of the view.
    majority: Ordinal,
    /// First ordinal neither undeliverable nor acknowledged by all of
    /// the view.
    stable: Ordinal,
    /// First deliverable total-ordered update not yet delivered.
    total: Ordinal,
    /// The index among the oal's entries where each cursor stopped
    /// (majority, stable, total): where the next advance looks first.
    hints: [usize; 3],
    /// Window entries examined so far.
    #[cfg(test)]
    pub(crate) visits: u64,
}

impl Frontier {
    /// Forget everything learned: the next advance starts over from the
    /// window base.
    pub fn reset(&mut self) {
        self.base = Ordinal::ZERO;
        self.majority = Ordinal::ZERO;
        self.stable = Ordinal::ZERO;
        self.total = Ordinal::ZERO;
    }

    /// Move every cursor as far as the current state lets it go. Costs
    /// the oal entries passed over, each once per lineage and view.
    pub fn advance(&mut self, oal: &Oal, view: &View, buf: &ProposalBuffer) {
        if view.id != self.view || oal.base() < self.base {
            self.reset();
            self.view = view.id;
        }
        self.base = oal.base();
        let all_or_none = |passes: bool, e: &Entry, i: u64| if passes { e.count() - i } else { 0 };
        self.majority = self.walk(0, oal, self.majority, |e, i| {
            all_or_none(e.undeliverable() || e.acks().majority_of(view), e, i)
        });
        self.stable = self.walk(1, oal, self.stable, |e, i| {
            all_or_none(e.is_stable_in(view), e, i)
        });
        self.total = self.walk(2, oal, self.total, |e, i| match e {
            Entry::Updates(r) if !r.undeliverable && r.semantics.ordering == Ordering::Total => {
                // Delivered total-ordered updates pass; the first
                // undelivered one blocks.
                buf.delivered_from(r.id(i), r.count - i)
            }
            _ => e.count() - i,
        });
    }

    /// The first ordinal at or after `from` (and the window base) whose
    /// descriptor fails, for cursor `k`: `passing(entry, i)` says how many
    /// descriptors of `entry` from its `i`-th on pass.
    fn walk(
        &mut self,
        k: usize,
        oal: &Oal,
        from: Ordinal,
        passing: impl Fn(&Entry, u64) -> u64,
    ) -> Ordinal {
        let mut o = from.max(oal.base());
        let Some(mut i) = oal.run_index(o, self.hints[k]) else {
            return o;
        };
        while let Some((at, e)) = oal.run(i) {
            #[cfg(test)]
            {
                self.visits += 1;
            }
            let skip = o.0 - at.0;
            let passed = passing(e, skip);
            o = Ordinal(o.0 + passed);
            if skip + passed < e.count() {
                break;
            }
            i += 1;
        }
        self.hints[k] = i;
        o
    }

    /// Does the atomicity condition hold for `p`?
    pub fn atomicity_ok(&self, p: &Proposal) -> bool {
        match p.semantics.atomicity {
            Atomicity::Weak => true,
            Atomicity::Strong => p.hdo < self.majority,
            Atomicity::Strict => p.hdo < self.stable,
        }
    }

    /// Does the order condition hold for `p`, whose ordinal (if
    /// assigned) is `ordinal`?
    pub fn order_ok(
        &self,
        oal: &Oal,
        buf: &ProposalBuffer,
        cfg: &Config,
        now: SyncTime,
        p: &Proposal,
        ordinal: Option<Ordinal>,
    ) -> bool {
        match p.semantics.ordering {
            Ordering::Unordered => true,
            // Nothing below `o` blocks: `o` is at or below the first
            // blocker, or the window holds none.
            Ordering::Total => {
                ordinal.is_some_and(|o| o <= self.total || self.total >= oal.next_ordinal())
            }
            Ordering::Time => time_order_ok(oal, buf, cfg, now, p),
        }
    }

    /// Full deliverability check for `p`, the pending proposal at its
    /// proposer's FIFO cursor (see [`ProposalBuffer::heads`]), whose
    /// ordinal (if assigned) is `ordinal`.
    pub fn deliverable(
        &self,
        oal: &Oal,
        buf: &ProposalBuffer,
        cfg: &Config,
        now: SyncTime,
        p: &Proposal,
        ordinal: Option<Ordinal>,
    ) -> bool {
        let id = p.id();
        debug_assert!(buf.fifo_ready(id), "{id} is not a FIFO head");
        if buf.is_locally_marked(id, now) {
            return false;
        }
        // A descriptor marked undeliverable by a decider is never
        // delivered; the one lookup in the window comes last.
        self.atomicity_ok(p)
            && self.order_ok(oal, buf, cfg, now, p, ordinal)
            && !ordinal.is_some_and(|o| oal.is_undeliverable(o))
    }
}

/// Does this descriptor hold back every total-ordered update behind it —
/// a total-ordered update, not ruled out, not yet delivered here?
#[cfg(any(test, debug_assertions))]
fn blocks_total_order(d: &Descriptor, buf: &ProposalBuffer) -> bool {
    match &d.body {
        DescriptorBody::Update { id, semantics, .. } => {
            !d.undeliverable && semantics.ordering == Ordering::Total && !buf.is_delivered(*id)
        }
        DescriptorBody::Membership(_) => false,
    }
}

/// The order condition for a time-ordered `p`: its release time has come
/// and no known time-ordered update with a smaller (ts, id) is
/// outstanding, in the oal window or in the pending buffer (a
/// received-but-unordered earlier update blocks).
fn time_order_ok(
    oal: &Oal,
    buf: &ProposalBuffer,
    cfg: &Config,
    now: SyncTime,
    p: &Proposal,
) -> bool {
    if now < p.send_ts + cfg.time_delivery_latency {
        return false;
    }
    let id = p.id();
    let key = (p.send_ts, id);
    for (_, e) in oal.runs() {
        let Entry::Updates(r) = e else {
            continue;
        };
        if r.undeliverable || r.semantics.ordering != Ordering::Time {
            continue;
        }
        for i in 0..r.count {
            if (r.ts(i), r.id(i)) < key && !buf.is_delivered(r.id(i)) {
                return false;
            }
        }
    }
    for q in buf.pending() {
        if q.semantics.ordering == Ordering::Time && (q.send_ts, q.id()) < key && q.id() != id {
            return false;
        }
    }
    true
}

#[cfg(any(test, debug_assertions))]
pub use reference::*;

/// The delivery conditions as predicates that scan the pending buffer
/// and the oal window: the statement [`Frontier`] is checked against.
#[cfg(any(test, debug_assertions))]
mod reference {
    use super::*;
    use tw_proto::ProposalId;

    #[cfg(test)]
    thread_local! {
        /// Window descriptors the reference scans examined on this thread.
        pub(crate) static VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Count `n` window descriptors examined by a reference scan (tests
    /// compare it with [`Frontier`]'s own count; free elsewhere).
    pub(crate) fn visited(_n: usize) {
        #[cfg(test)]
        VISITS.with(|v| v.set(v.get() + _n as u64));
    }

    /// `oal.ordinal_of(id)`, the linear search the reference falls back on.
    fn search_window(oal: &Oal, id: ProposalId) -> Option<Ordinal> {
        visited(oal.len());
        oal.ordinal_of(id)
    }

    /// Is every descriptor with ordinal ≤ `through` acknowledged by a
    /// majority of `group` (or already pruned, which implies full stability)?
    pub fn majority_through(oal: &Oal, through: Ordinal, group: &View) -> bool {
        if through >= oal.next_ordinal() {
            // Depends on ordinals nobody we know has assigned yet.
            return false;
        }
        let mut o = oal.base();
        while o <= through {
            visited(1);
            match oal.get(o) {
                Some(d) => {
                    if !d.undeliverable && !d.acks.majority_of(group) {
                        return false;
                    }
                }
                None => return false,
            }
            o = o.next();
        }
        true
    }

    /// Is every descriptor with ordinal ≤ `through` stable (acknowledged by
    /// all of `group`, or pruned, or undeliverable)?
    pub fn stable_through(oal: &Oal, through: Ordinal, group: &View) -> bool {
        if through >= oal.next_ordinal() {
            return false;
        }
        oal.stable_through(through, group)
    }

    /// Does the atomicity condition hold for `p`?
    pub fn atomicity_ok(oal: &Oal, group: &View, p: &Proposal) -> bool {
        match p.semantics.atomicity {
            Atomicity::Weak => true,
            Atomicity::Strong => majority_through(oal, p.hdo, group),
            Atomicity::Strict => stable_through(oal, p.hdo, group),
        }
    }

    /// Does the order condition hold for `p`?
    ///
    /// `buf` supplies delivery/ordinal knowledge; `now` drives time-ordered
    /// release.
    pub fn order_ok(
        oal: &Oal,
        buf: &ProposalBuffer,
        cfg: &Config,
        now: SyncTime,
        p: &Proposal,
    ) -> bool {
        let id = p.id();
        match p.semantics.ordering {
            Ordering::Unordered => true,
            Ordering::Total => {
                let Some(o) = buf.ordinal_of(id).or_else(|| search_window(oal, id)) else {
                    return false; // not ordered yet
                };
                // Every ordered update at a smaller ordinal (still in the
                // window) must be delivered or undeliverable. Pruned entries
                // were stable, hence delivered everywhere that matters.
                for (oo, d) in oal.iter() {
                    if oo >= o {
                        break;
                    }
                    visited(1);
                    if blocks_total_order(&d, buf) {
                        return false;
                    }
                }
                true
            }
            Ordering::Time => time_order_ok(oal, buf, cfg, now, p),
        }
    }

    /// Full deliverability check for a pending proposal.
    pub fn deliverable(
        oal: &Oal,
        buf: &ProposalBuffer,
        group: &View,
        cfg: &Config,
        now: SyncTime,
        p: &Proposal,
    ) -> bool {
        let id = p.id();
        if !buf.fifo_ready(id) {
            return false;
        }
        if buf.is_locally_marked(id, now) {
            return false;
        }
        // A descriptor marked undeliverable by a decider is never delivered.
        if let Some(o) = buf.ordinal_of(id).or_else(|| search_window(oal, id)) {
            if let Some(d) = oal.get(o) {
                if d.undeliverable {
                    return false;
                }
            }
        }
        atomicity_ok(oal, group, p) && order_ok(oal, buf, cfg, now, p)
    }

    /// The first deliverable pending proposal, if any: what the member must
    /// deliver next, found by scanning every pending proposal against the
    /// whole window. The reference the [`Frontier`] path is asserted against.
    pub fn next_deliverable(
        oal: &Oal,
        buf: &ProposalBuffer,
        group: &View,
        cfg: &Config,
        now: SyncTime,
    ) -> Option<ProposalId> {
        buf.pending()
            .find(|p| deliverable(oal, buf, group, cfg, now, p))
            .map(|p| p.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use tw_proto::{Descriptor, Duration, Incarnation, ProcessId, Semantics, ViewId};

    fn cfg() -> Config {
        Config::for_team(3, Duration::from_millis(10))
    }

    fn group() -> View {
        View::new(
            ViewId::new(1, ProcessId(0)),
            [ProcessId(0), ProcessId(1), ProcessId(2)],
        )
    }

    fn prop(sender: u16, seq: u64, sem: Semantics, hdo: Ordinal, ts: i64) -> Proposal {
        Proposal {
            sender: ProcessId(sender),
            incarnation: Incarnation(0),
            seq,
            send_ts: SyncTime(ts),
            hdo,
            semantics: sem,
            payload: Bytes::from_static(b"u"),
        }
    }

    /// Append `p` to the oal with acks from the given ranks.
    fn ordered(oal: &mut Oal, p: &Proposal, acks: &[u16]) -> Ordinal {
        let o = oal.append(Descriptor::update(
            p.id(),
            p.hdo,
            p.semantics,
            p.send_ts,
            p.sender,
        ));
        for &r in acks {
            oal.ack(o, ProcessId(r));
        }
        o
    }

    #[test]
    fn weak_unordered_delivers_on_receipt() {
        let oal = Oal::new();
        let mut buf = ProposalBuffer::new();
        let p = prop(0, 1, Semantics::UNORDERED_WEAK, Ordinal::ZERO, 0);
        buf.insert(p.clone());
        assert!(deliverable(&oal, &buf, &group(), &cfg(), SyncTime(1), &p));
    }

    #[test]
    fn fifo_blocks_out_of_order() {
        let oal = Oal::new();
        let mut buf = ProposalBuffer::new();
        let p2 = prop(0, 2, Semantics::UNORDERED_WEAK, Ordinal::ZERO, 0);
        buf.insert(p2.clone());
        assert!(!deliverable(&oal, &buf, &group(), &cfg(), SyncTime(1), &p2));
    }

    #[test]
    fn strong_waits_for_majority_of_dependencies() {
        let mut oal = Oal::new();
        let mut buf = ProposalBuffer::new();
        let g = group();
        let dep = prop(1, 1, Semantics::UNORDERED_WEAK, Ordinal::ZERO, 0);
        let o_dep = ordered(&mut oal, &dep, &[]); // only proposer's ack
        let p = prop(
            0,
            1,
            Semantics::new(Ordering::Unordered, Atomicity::Strong),
            o_dep,
            1,
        );
        buf.insert(p.clone());
        assert!(!deliverable(&oal, &buf, &g, &cfg(), SyncTime(2), &p));
        // One more ack → 2/3 majority.
        oal.ack(o_dep, ProcessId(2));
        assert!(deliverable(&oal, &buf, &g, &cfg(), SyncTime(2), &p));
    }

    #[test]
    fn strict_waits_for_full_stability() {
        let mut oal = Oal::new();
        let mut buf = ProposalBuffer::new();
        let g = group();
        let dep = prop(1, 1, Semantics::UNORDERED_WEAK, Ordinal::ZERO, 0);
        let o_dep = ordered(&mut oal, &dep, &[2]); // 2/3 acks
        let p = prop(
            0,
            1,
            Semantics::new(Ordering::Unordered, Atomicity::Strict),
            o_dep,
            1,
        );
        buf.insert(p.clone());
        assert!(!deliverable(&oal, &buf, &g, &cfg(), SyncTime(2), &p));
        oal.ack(o_dep, ProcessId(0));
        assert!(deliverable(&oal, &buf, &g, &cfg(), SyncTime(2), &p));
    }

    #[test]
    fn unknown_dependency_blocks_strong() {
        let oal = Oal::new(); // next ordinal = 1, nothing assigned
        let mut buf = ProposalBuffer::new();
        let p = prop(
            0,
            1,
            Semantics::new(Ordering::Unordered, Atomicity::Strong),
            Ordinal(5),
            0,
        );
        buf.insert(p.clone());
        assert!(
            !deliverable(&oal, &buf, &group(), &cfg(), SyncTime(1), &p),
            "hdo beyond known ordinals must block"
        );
    }

    #[test]
    fn total_order_respects_ordinals() {
        let mut oal = Oal::new();
        let mut buf = ProposalBuffer::new();
        let g = group();
        let c = cfg();
        let first = prop(
            1,
            1,
            Semantics::new(Ordering::Total, Atomicity::Weak),
            Ordinal::ZERO,
            0,
        );
        let second = prop(
            0,
            1,
            Semantics::new(Ordering::Total, Atomicity::Weak),
            Ordinal::ZERO,
            1,
        );
        let o1 = ordered(&mut oal, &first, &[]);
        let o2 = ordered(&mut oal, &second, &[]);
        buf.learn_ordinal(first.id(), o1);
        buf.learn_ordinal(second.id(), o2);
        // Only `second` received so far: blocked behind undelivered o1.
        buf.insert(second.clone());
        assert!(!deliverable(&oal, &buf, &g, &c, SyncTime(2), &second));
        // Receive and deliver first → second unblocks.
        buf.insert(first.clone());
        assert!(deliverable(&oal, &buf, &g, &c, SyncTime(2), &first));
        buf.deliver(first.id());
        assert!(deliverable(&oal, &buf, &g, &c, SyncTime(2), &second));
    }

    #[test]
    fn total_order_skips_undeliverable_predecessors() {
        let mut oal = Oal::new();
        let mut buf = ProposalBuffer::new();
        let g = group();
        let c = cfg();
        let first = prop(
            1,
            1,
            Semantics::new(Ordering::Total, Atomicity::Weak),
            Ordinal::ZERO,
            0,
        );
        let second = prop(
            0,
            1,
            Semantics::new(Ordering::Total, Atomicity::Weak),
            Ordinal::ZERO,
            1,
        );
        let o1 = ordered(&mut oal, &first, &[]);
        let o2 = ordered(&mut oal, &second, &[]);
        oal.mark_undeliverable(o1);
        buf.learn_ordinal(second.id(), o2);
        buf.insert(second.clone());
        assert!(deliverable(&oal, &buf, &g, &c, SyncTime(2), &second));
    }

    #[test]
    fn unordered_updates_do_not_block_total() {
        let mut oal = Oal::new();
        let mut buf = ProposalBuffer::new();
        let g = group();
        let c = cfg();
        // An unordered update sits at a smaller ordinal, undelivered.
        let u = prop(1, 1, Semantics::UNORDERED_WEAK, Ordinal::ZERO, 0);
        ordered(&mut oal, &u, &[]);
        let t = prop(
            0,
            1,
            Semantics::new(Ordering::Total, Atomicity::Weak),
            Ordinal::ZERO,
            1,
        );
        let ot = ordered(&mut oal, &t, &[]);
        buf.learn_ordinal(t.id(), ot);
        buf.insert(t.clone());
        assert!(deliverable(&oal, &buf, &g, &c, SyncTime(2), &t));
    }

    #[test]
    fn time_order_waits_for_latency() {
        let oal = Oal::new();
        let mut buf = ProposalBuffer::new();
        let g = group();
        let c = cfg();
        let p = prop(
            0,
            1,
            Semantics::new(Ordering::Time, Atomicity::Weak),
            Ordinal::ZERO,
            1_000,
        );
        buf.insert(p.clone());
        let before = SyncTime(1_000) + c.time_delivery_latency - Duration(1);
        let after = SyncTime(1_000) + c.time_delivery_latency;
        assert!(!deliverable(&oal, &buf, &g, &c, before, &p));
        assert!(deliverable(&oal, &buf, &g, &c, after, &p));
    }

    #[test]
    fn time_order_is_timestamp_ordered() {
        let oal = Oal::new();
        let mut buf = ProposalBuffer::new();
        let g = group();
        let c = cfg();
        let early = prop(
            1,
            1,
            Semantics::new(Ordering::Time, Atomicity::Weak),
            Ordinal::ZERO,
            500,
        );
        let late = prop(
            0,
            1,
            Semantics::new(Ordering::Time, Atomicity::Weak),
            Ordinal::ZERO,
            1_000,
        );
        buf.insert(early.clone());
        buf.insert(late.clone());
        let t = SyncTime(1_000) + c.time_delivery_latency;
        // `late` blocked behind undelivered `early`.
        assert!(!deliverable(&oal, &buf, &g, &c, t, &late));
        assert!(deliverable(&oal, &buf, &g, &c, t, &early));
        buf.deliver(early.id());
        assert!(deliverable(&oal, &buf, &g, &c, t, &late));
    }

    #[test]
    fn locally_marked_blocks_delivery() {
        let oal = Oal::new();
        let mut buf = ProposalBuffer::new();
        let p = prop(0, 1, Semantics::UNORDERED_WEAK, Ordinal::ZERO, 0);
        buf.insert(p.clone());
        buf.mark_local(p.id(), SyncTime(100));
        assert!(!deliverable(&oal, &buf, &group(), &cfg(), SyncTime(50), &p));
        assert!(deliverable(&oal, &buf, &group(), &cfg(), SyncTime(101), &p));
    }

    #[test]
    fn decider_undeliverable_mark_blocks_forever() {
        let mut oal = Oal::new();
        let mut buf = ProposalBuffer::new();
        let p = prop(0, 1, Semantics::UNORDERED_WEAK, Ordinal::ZERO, 0);
        let o = ordered(&mut oal, &p, &[]);
        buf.learn_ordinal(p.id(), o);
        oal.mark_undeliverable(o);
        buf.insert(p.clone());
        assert!(!deliverable(
            &oal,
            &buf,
            &group(),
            &cfg(),
            SyncTime(9_999_999),
            &p
        ));
    }

    /// Every probe the two paths can be asked: each atomicity at each
    /// `hdo` in and around the window, and a total-ordered proposal at
    /// each ordinal.
    fn assert_frontier_matches_reference(
        f: &Frontier,
        oal: &Oal,
        buf: &ProposalBuffer,
        g: &View,
        what: &str,
    ) {
        let c = cfg();
        for hdo in 0..=oal.next_ordinal().0 + 1 {
            for atomicity in Atomicity::ALL {
                let p = prop(
                    9,
                    1,
                    Semantics::new(Ordering::Unordered, atomicity),
                    Ordinal(hdo),
                    0,
                );
                assert_eq!(
                    f.atomicity_ok(&p),
                    atomicity_ok(oal, g, &p),
                    "{what}: {atomicity:?} hdo {hdo} over {oal} {f:?}"
                );
            }
            // `hdo` doubles as the probe's own ordinal here.
            let mut buf = buf.clone();
            let t = prop(
                9,
                1,
                Semantics::new(Ordering::Total, Atomicity::Weak),
                Ordinal::ZERO,
                0,
            );
            buf.learn_ordinal(t.id(), Ordinal(hdo));
            assert_eq!(
                f.order_ok(oal, &buf, &c, SyncTime(1), &t, Some(Ordinal(hdo))),
                order_ok(oal, &buf, &c, SyncTime(1), &t),
                "{what}: total at ordinal {hdo} over {oal} {f:?}"
            );
        }
    }

    #[test]
    fn frontier_tracks_the_reference_as_state_accumulates() {
        // A seeded walk over everything that moves a cursor while view
        // and lineage stand: appends, acknowledgements, undeliverable
        // marks, deliveries and pruning, in any order.
        let g = group();
        for seed in 1..=8u64 {
            let (mut oal, mut buf, mut f) =
                (Oal::new(), ProposalBuffer::new(), Frontier::default());
            let mut x = seed;
            let mut seq = 0;
            for step in 0..150 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = (x >> 33) as usize;
                let any = Ordinal(oal.base().0 + (r / 7) as u64 % (oal.len() as u64 + 1));
                match r % 7 {
                    0 | 1 => {
                        seq += 1;
                        let sem = Semantics::matrix().nth(r / 7 % 9).unwrap();
                        let p = prop(1, seq, sem, Ordinal::ZERO, 0);
                        let o = ordered(&mut oal, &p, &[]);
                        buf.learn_ordinal(p.id(), o);
                        buf.insert(p);
                    }
                    2 | 3 => {
                        oal.ack(any, ProcessId((r / 11 % 3) as u16));
                    }
                    4 => {
                        oal.mark_undeliverable(any);
                    }
                    5 => {
                        if let Some(id) = oal.get(any).and_then(|d| d.body.proposal_id()) {
                            if buf.has_pending(id) {
                                buf.deliver(id);
                            }
                        }
                    }
                    _ => {
                        oal.prune_stable(&g);
                    }
                }
                f.advance(&oal, &g, &buf);
                assert_frontier_matches_reference(
                    &f,
                    &oal,
                    &buf,
                    &g,
                    &format!("seed {seed} step {step}"),
                );
            }
        }
    }

    #[test]
    fn frontier_recounts_when_the_view_changes() {
        // {p0, p1} is a majority of three, and all of nothing; in the
        // next view it is one member of four.
        let mut oal = Oal::new();
        let buf = ProposalBuffer::new();
        let dep = prop(1, 1, Semantics::UNORDERED_WEAK, Ordinal::ZERO, 0);
        let o = ordered(&mut oal, &dep, &[0]);
        let strong = prop(
            0,
            1,
            Semantics::new(Ordering::Unordered, Atomicity::Strong),
            o,
            1,
        );
        let mut f = Frontier::default();
        f.advance(&oal, &group(), &buf);
        assert!(f.atomicity_ok(&strong));
        let next = View::new(
            ViewId::new(2, ProcessId(0)),
            [ProcessId(0), ProcessId(2), ProcessId(3), ProcessId(4)],
        );
        f.advance(&oal, &next, &buf);
        assert!(!f.atomicity_ok(&strong), "majority counted in the old view");
        assert_frontier_matches_reference(&f, &oal, &buf, &next, "after the view change");
    }

    #[test]
    fn frontier_restarts_when_the_window_reopens_below_its_base() {
        // A window pruned to base 3 is replaced by one that still shows
        // ordinals 1..3, unacknowledged: pruned-hence-stable no longer
        // covers them.
        let g = group();
        let buf = ProposalBuffer::new();
        let mut pruned = Oal::new();
        let mut unpruned = Oal::new();
        for seq in 1..=3 {
            let p = prop(1, seq, Semantics::UNORDERED_WEAK, Ordinal::ZERO, 0);
            ordered(&mut pruned, &p, &[0, 2]);
            ordered(&mut unpruned, &p, &[]);
        }
        pruned.prune_stable(&g);
        assert_eq!(pruned.base(), Ordinal(4));
        let mut f = Frontier::default();
        f.advance(&pruned, &g, &buf);
        f.advance(&unpruned, &g, &buf);
        assert_frontier_matches_reference(&f, &unpruned, &buf, &g, "reopened window");
    }

    #[test]
    fn next_deliverable_walks_pending() {
        let oal = Oal::new();
        let mut buf = ProposalBuffer::new();
        let g = group();
        let c = cfg();
        let a = prop(0, 1, Semantics::UNORDERED_WEAK, Ordinal::ZERO, 0);
        let b = prop(1, 2, Semantics::UNORDERED_WEAK, Ordinal::ZERO, 0); // FIFO-blocked
        buf.insert(a.clone());
        buf.insert(b);
        assert_eq!(
            next_deliverable(&oal, &buf, &g, &c, SyncTime(1)),
            Some(a.id())
        );
        buf.deliver(a.id());
        assert_eq!(next_deliverable(&oal, &buf, &g, &c, SyncTime(1)), None);
    }
}
