//! What a decision on weak traffic costs each member in allocations.
//!
//! Three `Member`s wired in process on a virtual clock — no sockets, no
//! sleeps — on the schedule of the benchmark's `ladder_weak`: every
//! 2 ms member 0 proposes a batch of 64 unordered/weak updates, and
//! what each call sends crosses the wire codec as one datagram per
//! destination (`FrameBuilder::push_msg`, then
//! `frame::decode_datagram`) on its way to the others. A thread-local
//! counting allocator tallies the allocations (calls and bytes) made
//! inside `on_tick` and `on_messages`.
//!
//! Every decision carries the whole oal window, and the window holds
//! about two decisions' worth of updates. A member that copied or
//! rebuilt the window per decision would allocate in proportion to the
//! window; one that works run by run allocates in proportion to what
//! the decision appended, and a constant number of times per update.
//! The budgets hold for the shipped build: test and debug builds keep
//! reference copies of the window and the history and only run the
//! rounds. Run them with
//! `cargo test --release -p timewheel --test weak_path_cost`.

use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use timewheel::{Action, Config, CreatorState, Member};
use tw_proto::frame::{self, FrameBuilder};
use tw_proto::{Duration, HwTime, Msg, ProcessId, Semantics};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation calls and bytes so far on this thread.
fn tally() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

const N: usize = 3;
const BATCH: usize = 64;
const ROUND: Duration = Duration(2_000);

/// What one `on_tick` or `on_messages` call cost, and what it did.
struct Call {
    allocs: u64,
    bytes: u64,
    /// The window a decision in this call carried (emitted or received),
    /// and how many descriptors it appended to the one before.
    decision: Option<(usize, u64)>,
}

struct Team {
    members: Vec<Member>,
    next_tick: Vec<HwTime>,
    next_clock: Vec<HwTime>,
    now: HwTime,
    /// Datagrams in flight: (destination, sender, bytes).
    wire: Vec<(usize, ProcessId, Vec<u8>)>,
    /// Next ordinal of the last decision each member emitted or received.
    last_next: Vec<u64>,
    calls: Vec<Call>,
    delivered: Vec<u64>,
}

impl Team {
    fn new() -> Team {
        let cfg = Config::for_team(N, Duration::from_millis(10));
        let mut team = Team {
            members: (0..N)
                .map(|i| Member::new(ProcessId(i as u16), cfg).unwrap())
                .collect(),
            next_tick: vec![HwTime::ZERO; N],
            next_clock: vec![HwTime::ZERO; N],
            now: HwTime::ZERO,
            wire: Vec::new(),
            last_next: vec![0; N],
            calls: Vec::new(),
            delivered: vec![0; N],
        };
        for i in 0..N {
            let actions = team.members[i].on_start(HwTime::ZERO);
            team.next_tick[i] = HwTime::ZERO + cfg.tick;
            team.next_clock[i] = HwTime::ZERO + cfg.clock.resync_interval;
            team.apply(i, actions);
        }
        team.pump();
        team
    }

    fn formed(&self) -> bool {
        self.members
            .iter()
            .all(|m| m.state() == CreatorState::FailureFree && m.view().len() == N)
    }

    /// The window of the first decision among `msgs`, if any, and what
    /// it appended to the last one member `i` emitted or received.
    fn decision_in<'a>(
        &mut self,
        i: usize,
        mut msgs: impl Iterator<Item = &'a Msg>,
    ) -> Option<(usize, u64)> {
        let oal = msgs.find_map(|m| match m {
            Msg::Decision(d) => Some(&d.oal),
            _ => None,
        })?;
        let next = oal.next_ordinal().0;
        let appended = next.saturating_sub(self.last_next[i]);
        self.last_next[i] = next;
        Some((oal.len(), appended))
    }

    /// Carry out a member's actions: what it sends leaves as one
    /// datagram per destination, as a node's outbound batch would.
    fn apply(&mut self, i: usize, actions: Vec<Action>) {
        let mut out: Vec<FrameBuilder> = (0..N).map(|_| FrameBuilder::new()).collect();
        for a in actions {
            match a {
                Action::Broadcast(m) => {
                    for (j, b) in out.iter_mut().enumerate() {
                        if j != i {
                            b.push_msg(&m);
                        }
                    }
                }
                Action::Send(to, m) => out[to.rank()].push_msg(&m),
                Action::Deliver(_) => self.delivered[i] += 1,
                Action::ScheduleClockTick(d) => self.next_clock[i] = self.now + d,
                _ => {}
            }
        }
        let from = self.members[i].pid();
        for (j, b) in out.iter().enumerate() {
            if b.msgs() > 0 {
                self.wire.push((j, from, b.bytes().to_vec()));
            }
        }
    }

    /// Run a member call under the allocation counter.
    fn counted(
        &mut self,
        i: usize,
        decision: Option<(usize, u64)>,
        call: impl FnOnce(&mut Member) -> Vec<Action>,
    ) {
        let before = tally();
        let actions = call(&mut self.members[i]);
        let after = tally();
        let sent = actions.iter().filter_map(|a| match a {
            Action::Broadcast(m) => Some(m),
            _ => None,
        });
        let decision = decision.or_else(|| self.decision_in(i, sent));
        self.calls.push(Call {
            allocs: after.0 - before.0,
            bytes: after.1 - before.1,
            decision,
        });
        self.apply(i, actions);
    }

    /// Deliver every datagram in flight, and what that sends, until the
    /// wire is quiet.
    fn pump(&mut self) {
        while !self.wire.is_empty() {
            for (j, from, bytes) in std::mem::take(&mut self.wire) {
                let msgs = frame::decode_datagram(&bytes).expect("decodes");
                let decision = self.decision_in(j, msgs.iter());
                let now = self.now;
                self.counted(j, decision, |m| m.on_messages(now, from, msgs));
            }
        }
    }

    /// One round: member 0 proposes `batch` updates, due timers fire,
    /// the wire is drained.
    fn round(&mut self, batch: usize) {
        self.now += ROUND;
        let now = self.now;
        if batch > 0 {
            let updates =
                (0..batch).map(|k| (Bytes::from(vec![k as u8; 32]), Semantics::UNORDERED_WEAK));
            let actions = self.members[0]
                .propose_batch(now, updates)
                .expect("in the group");
            self.apply(0, actions);
        }
        for i in 0..N {
            if now >= self.next_tick[i] {
                self.next_tick[i] = now + self.members[i].config().tick;
                self.counted(i, None, |m| m.on_tick(now));
            }
            if now >= self.next_clock[i] {
                self.next_clock[i] = now + self.members[i].config().clock.resync_interval;
                let actions = self.members[i].on_clock_tick(now);
                self.apply(i, actions);
            }
        }
        self.pump();
    }
}

/// Decisions in `calls`: (allocation calls, bytes, window, appended).
fn decisions(calls: &[Call]) -> Vec<(u64, u64, usize, u64)> {
    calls
        .iter()
        .filter_map(|c| {
            c.decision
                .map(|(window, appended)| (c.allocs, c.bytes, window, appended))
        })
        .collect()
}

#[test]
fn a_weak_decision_costs_each_member_its_runs_not_its_window() {
    let mut team = Team::new();
    let mut rounds = 0;
    while !team.formed() {
        team.round(0);
        rounds += 1;
        assert!(rounds < 30_000, "the group never formed");
    }
    // Warm-up: buffers, slot rings and the window at their steady size.
    for _ in 0..300 {
        team.round(BATCH);
    }
    team.calls.clear();
    let measured = 600;
    for _ in 0..measured {
        team.round(BATCH);
    }
    let updates = (measured * BATCH) as u64;
    assert!(
        team.delivered.iter().all(|&d| d >= updates),
        "{:?}",
        team.delivered
    );

    let seen = decisions(&team.calls);
    assert!(
        seen.len() > 100,
        "only {} decisions emitted or received",
        seen.len()
    );
    let widest = seen.iter().map(|d| d.2).max().unwrap_or(0);
    assert!(
        widest > 2 * BATCH,
        "a window of {widest} descriptors shows nothing"
    );
    // Test and debug builds keep the window and the buffer's history
    // descriptor by descriptor beside the compact state, by design: the
    // budgets below are the shipped build's (CI runs this in release).
    if cfg!(debug_assertions) {
        return;
    }
    // Per decision, emitted or received: a constant plus a few words per
    // descriptor it appended, whatever the window it carries. A copy of
    // the window is 64 bytes per descriptor it holds.
    for &(allocs, bytes, window, appended) in &seen {
        let budget = 4_096 + 48 * appended;
        assert!(
            bytes <= budget,
            "a decision appending {appended} to a window of {window} allocated \
             {bytes} bytes in {allocs} calls (budget {budget})"
        );
    }

    // Everything the measured rounds cost the three members, per update:
    // proposal receipt, delivery, and the decisions — one allocation per
    // received batch (its action list) and a few per decision.
    let allocs: u64 = team.calls.iter().map(|c| c.allocs).sum();
    let per_update = allocs as f64 / updates as f64;
    println!(
        "{} decisions, widest window {widest}; {per_update:.3} allocations per update",
        seen.len()
    );
    assert!(
        per_update <= 0.1,
        "{allocs} allocations for {updates} updates ({per_update:.3} per update)"
    );
}
