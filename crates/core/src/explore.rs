//! Protocol-level schedule exploration: wire the real [`Member`] state
//! machine into the exhaustive explorer (`tw_sim::explore`) and check
//! the paper's invariants at every terminal state.
//!
//! The timed world answers "does a *realistic* seeded run stay
//! correct?"; this module answers the sharper small-scope question
//! "does **any** schedule at all — every delivery interleaving, every
//! crash placement, every omission placement within the budgets — drive
//! the protocol into an invariant violation?". The scope is deliberately
//! tiny (N ≤ 4, bounded deliveries/timer fires) per the small-scope
//! hypothesis: protocol bugs that exist tend to have small witnesses.
//!
//! Two deliberate scoping choices keep the bounded search meaningful:
//!
//! * **Formed groups, forced-sync clocks.** Scenario members are born
//!   into an installed majority view ([`Member::new_in_view`]) with
//!   synchronized clocks, except the `reconfiguration` scenario which
//!   starts from scratch and explores the join phase itself. Start-up
//!   otherwise eats the whole step budget before anything interesting
//!   can happen.
//! * **Coarse ticks.** The explorer advances a process's clock only
//!   when it executes one of that process's events, so protocol
//!   deadlines (decider interval `D`, decision timeout `2D`) are crossed
//!   by *timer fires*, not wall time. The scenario config sets
//!   `tick = D` — a granularity, not a correctness parameter — so the
//!   bounded number of fires actually reaches the deadline-driven paths
//!   (suspicion, election, decision rotation).

use crate::harness::SimMember;
use crate::invariants::check_all_members;
use crate::member::Member;
use crate::Config;
use bytes::Bytes;
use tw_obs::{ClockStamp, TraceEvent};
use tw_proto::{Duration, Msg, ProcessId, Semantics, View, ViewId};
use tw_sim::explore::{ExploreConfig, ExploreReport, Explorer};
use tw_sim::{Actor, Ctx};

/// A named small-scope scenario: how many members, which fault budgets.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (reports, CLI).
    pub name: &'static str,
    /// Team size (keep ≤ 4: the state space is exponential).
    pub members: usize,
    /// Crash placements explored (each at every point of every schedule).
    pub crashes: usize,
    /// Omission-fault placements explored.
    pub drops: usize,
    /// Start from the join phase instead of a formed group.
    pub from_scratch: bool,
    /// What the scenario demonstrates.
    pub about: &'static str,
}

/// The standard scenario set exercised by `cargo xtask explore`.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "reconfiguration",
        members: 3,
        crashes: 0,
        drops: 0,
        from_scratch: true,
        about: "all interleavings of the join/start-up phase (paper §4.5)",
    },
    Scenario {
        name: "single-failure",
        members: 3,
        crashes: 1,
        drops: 0,
        from_scratch: false,
        about: "every crash placement at every point of every schedule (paper §4.2)",
    },
    Scenario {
        name: "false-alarm",
        members: 3,
        crashes: 0,
        drops: 1,
        from_scratch: false,
        about: "every single-message omission: wrong suspicions must stay safe (paper §4.4)",
    },
];

/// Look up a standard scenario by name.
pub fn scenario(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// Budgets for one exploration run. Defaults are sized so the full
/// standard scenario set completes in seconds; raise them for deeper
/// (exponentially slower) sweeps.
#[derive(Debug, Clone)]
pub struct Budgets {
    /// Total message deliveries per schedule.
    pub deliveries: usize,
    /// Timer fires per process per schedule.
    pub timer_fires: usize,
    /// Updates proposed by p0 (once it is in a view).
    pub proposals: usize,
    /// Hard cap on complete schedules per scenario.
    pub max_schedules: u64,
    /// Sleep-set reduction on (off = exact enumeration).
    pub dpor: bool,
}

impl Default for Budgets {
    fn default() -> Self {
        Budgets {
            // Sized so even the from-scratch join scenario with a crash
            // budget finishes promptly (~100k schedules). The formed-
            // group scenarios saturate their whole bounded space well
            // inside these budgets; `--deliveries 6 --timer-fires 2`
            // deepens them (the join scenario then needs a schedule cap).
            deliveries: 4,
            timer_fires: 1,
            proposals: 1,
            max_schedules: 2_000_000,
            dpor: true,
        }
    }
}

/// The [`ExploreConfig`] a scenario runs under — exposed so tests can
/// drive [`Explorer`] directly with instrumented checkers.
pub fn config_for(sc: &Scenario, b: &Budgets) -> ExploreConfig {
    ExploreConfig {
        max_deliveries: b.deliveries,
        max_timer_fires_per_proc: b.timer_fires,
        crash_budget: sc.crashes,
        drop_budget: sc.drops,
        min_latency: Duration::from_micros(1_000),
        max_skew: None,
        max_schedules: b.max_schedules,
        max_violations: 3,
        dpor: b.dpor,
    }
}

/// The protocol config scenarios run under: δ = 10 ms with the tick
/// coarsened to `D` (see module docs for why).
pub fn scenario_config(n: usize) -> Config {
    let mut cfg = Config::for_team(n, Duration::from_millis(10));
    cfg.tick = cfg.big_d;
    cfg
}

/// Build the initial team: all members in an installed seq-1 view
/// (`from_scratch = false`) or all in the join phase.
pub fn team(sc: &Scenario) -> Vec<ExploreMember> {
    let n = sc.members;
    let cfg = scenario_config(n);
    (0..n)
        .map(|i| {
            let pid = ProcessId(i as u16);
            let inner = if sc.from_scratch {
                let mut m = Member::new_unchecked(pid, cfg);
                m.force_clock_sync();
                SimMember::new(m)
            } else {
                let view = View::new(
                    ViewId::new(1, ProcessId(0)),
                    (0..n).map(|r| ProcessId(r as u16)),
                );
                let (id, members) = (view.id, view.members.iter().copied().collect());
                let mut sm = SimMember::new(Member::new_in_view(pid, cfg, view));
                // The installed view is part of the history the checkers
                // read.
                sm.record(TraceEvent::ViewInstalled {
                    pid,
                    at: ClockStamp::default(),
                    view: id,
                    members,
                });
                sm
            };
            ExploreMember {
                inner,
                formed: !sc.from_scratch,
                proposals_left: 0,
                sabotage: false,
                sabotaged: false,
            }
        })
        .collect()
}

/// Explorer-side wrapper around [`SimMember`]: optionally proposes
/// updates (so the ordering/atomicity invariants are exercised, not
/// vacuous) and optionally sabotages its own trace (the
/// known-broken fixture that proves the pipeline can fail).
#[derive(Clone)]
pub struct ExploreMember {
    /// The adapted member with its trace.
    pub inner: SimMember,
    /// Born into a view ([`Member::new_in_view`]): skip the protocol's
    /// start-up on the first event, which would reset to the join phase.
    formed: bool,
    /// Updates still to propose; attempted after every event once the
    /// member sits in a view (proposing is a client call, so it rides
    /// on the member's own events rather than being a schedule step).
    proposals_left: usize,
    /// If set, duplicate the first delivery in the trace (a "bug").
    sabotage: bool,
    sabotaged: bool,
}

impl ExploreMember {
    /// Let this member propose `n` updates (attempted after each of its
    /// events, once in a view).
    pub fn set_proposals(&mut self, n: usize) {
        self.proposals_left = n;
    }

    fn after_event(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.proposals_left > 0 {
            // The first proposal is UNORDERED_WEAK — deliverable on
            // receipt, so the delivery-side invariants (FIFO,
            // no-duplicates) are exercised within tiny step budgets.
            // Further proposals are TOTAL_STRONG: their ordinals and
            // acks drive the oal machinery under the explored faults,
            // even when the budget ends before their delivery
            // conditions can mature.
            let sem = if self.proposals_left == 1 {
                Semantics::UNORDERED_WEAK
            } else {
                Semantics::TOTAL_STRONG
            };
            let payload = Bytes::from_static(b"explored-update");
            if self.inner.propose(ctx, payload, sem).is_ok() {
                self.proposals_left -= 1;
            }
        }
        if self.sabotage && !self.sabotaged {
            let delivered = |ev: &&TraceEvent| matches!(ev, TraceEvent::Delivered { .. });
            if let Some(&first) = self.inner.trace().iter().find(delivered) {
                self.inner.record(first);
                self.sabotaged = true;
            }
        }
    }
}

impl Actor for ExploreMember {
    type Msg = Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.formed {
            // `Member::on_start` would reset the fabricated view back to
            // the join phase; the member already started inside
            // `new_in_view`, so only the tick driver needs arming.
            self.inner.arm_tick(ctx);
        } else {
            self.inner.on_start(ctx);
        }
        self.after_event(ctx);
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.inner.on_recover(ctx);
        self.after_event(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ProcessId, msg: Msg) {
        self.inner.on_message(ctx, from, msg);
        self.after_event(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        self.inner.on_timer(ctx, token);
        self.after_event(ctx);
    }
}

/// The invariant checker over a team of [`ExploreMember`]s — exposed so
/// tests can wrap it (e.g. to count deliveries across terminal states
/// and prove a scenario is not vacuous).
pub fn check_team(actors: &[ExploreMember]) -> Vec<String> {
    let refs: Vec<&SimMember> = actors.iter().map(|m| &m.inner).collect();
    check_all_members(&refs)
        .iter()
        .map(|v| v.to_string())
        .collect()
}

/// Exhaustively explore one scenario under the given budgets.
pub fn run_scenario(sc: &Scenario, budgets: &Budgets) -> ExploreReport {
    let mut actors = team(sc);
    if let Some(p0) = actors.first_mut() {
        p0.proposals_left = budgets.proposals;
    }
    Explorer::new(config_for(sc, budgets), check_team).run(actors)
}

/// Explore the known-broken fixture: a formed 3-member group whose p1
/// duplicates its first delivery. The explorer must report a violation —
/// if it comes back clean, the *pipeline* (explorer → traces → checkers)
/// is broken, and trusting its green runs would be unfounded.
pub fn run_broken_fixture(budgets: &Budgets) -> ExploreReport {
    let sc = Scenario {
        name: "broken-fixture",
        members: 3,
        crashes: 0,
        drops: 0,
        from_scratch: false,
        about: "sabotaged member must be caught",
    };
    let mut actors = team(&sc);
    actors[0].proposals_left = budgets.proposals.max(1);
    actors[1].sabotage = true;
    Explorer::new(config_for(&sc, budgets), check_team).run(actors)
}

/// Sum of deliveries currently in the team's delivery streams.
pub fn deliveries_in(actors: &[ExploreMember]) -> usize {
    actors.iter().map(|m| m.inner.deliveries.len()).sum()
}
