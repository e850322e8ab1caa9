//! Protocol constants and the slot/cycle arithmetic of the timewheel.
//!
//! The timed asynchronous model is parameterized by a handful of bounds
//! (paper §2): the one-way timeout δ of the datagram service, the maximum
//! scheduling delay σ, the hardware-clock drift bound ρ, and the
//! synchronized-clock deviation ε. The protocol adds `D`, the maximum
//! interval after which a decider must send its decision message.
//!
//! From these, the timewheel derives its *slots*: the synchronized time
//! base is divided into cycles of `N` slots, one per team member, each of
//! length at least `D + δ` (paper §4.2). All slot arithmetic lives here
//! so the ablation experiments (A1) can violate the bound deliberately
//! and observe the consequences.

use tw_clock::ClockSyncConfig;
use tw_obs::StreamHeader;
use tw_proto::{Duration, ProcessId, SyncTime};

/// Static protocol parameters shared by every team member.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Team size `N` (2..=64).
    pub n: usize,
    /// One-way timeout δ of the datagram service.
    pub delta: Duration,
    /// Maximum decider interval `D`: a decider relinquishes its role by
    /// sending a decision message within `D` of assuming it.
    pub big_d: Duration,
    /// Maximum scheduling delay σ (used in slot sizing and margins).
    pub sigma: Duration,
    /// Hardware clock drift bound ρ.
    pub rho: f64, // tw-lint: allow(float-state) -- paper's drift *bound* parameter; never mixed into protocol arithmetic, which derives integral ε/Δ micros once at config time
    /// Synchronized clock deviation bound ε.
    pub epsilon: Duration,
    /// Granularity at which deadline predicates are evaluated. Detection
    /// latencies are quantized by this; keep it well below `D`.
    pub tick: Duration,
    /// When a decider actually emits its decision after assuming the
    /// role. Must be ≤ `D − σ` to honour the `D` bound under scheduling
    /// delays.
    pub decider_interval: Duration,
    /// How long after the last accepted control-message timestamp the
    /// failure detector waits for the next expected control message
    /// before suspecting its sender (paper §4.2 uses `2·D`).
    pub decision_timeout: Duration,
    /// Expected-sender timeout during single-failure elections (one ring
    /// hop: send within `D`, deliver within δ, clocks off by ε).
    pub election_timeout: Duration,
    /// Slot length of the reconfiguration/join timewheel. The paper
    /// requires ≥ `D + δ`; [`Config::for_team`] sets `D + δ + ε + σ`.
    /// Exposed so the A1 ablation can set an invalid length.
    pub slot_len: Duration,
    /// Delivery latency for *time-ordered* updates: delivered once the
    /// synchronized clock passes `send_ts + time_delivery_latency`.
    pub time_delivery_latency: Duration,
    /// Clock synchronization substrate parameters.
    pub clock: ClockSyncConfig,
    /// Enable the single-failure fast path (no-decision ring). Disabling
    /// it sends every timeout failure straight to the slotted
    /// reconfiguration election — the A2 ablation, quantifying what the
    /// paper's optimization buys.
    pub single_failure_fastpath: bool,
}

/// A violated configuration constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid timewheel config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// A conservative configuration for a team of `n` on a network with
    /// one-way timeout `delta`, choosing `D = 4δ` and deriving the rest.
    pub fn for_team(n: usize, delta: Duration) -> Config {
        let big_d = delta * 4;
        let sigma = delta / 4;
        let clock = ClockSyncConfig::for_team(n, delta);
        let epsilon = clock.epsilon();
        Config {
            n,
            delta,
            big_d,
            sigma,
            rho: clock.rho,
            epsilon,
            tick: delta / 2,
            decider_interval: big_d / 2,
            decision_timeout: big_d * 2,
            election_timeout: big_d * 2,
            slot_len: big_d + delta + epsilon + sigma,
            time_delivery_latency: delta * 2 + epsilon,
            clock,
            single_failure_fastpath: true,
        }
    }

    /// Check all model constraints; called by [`Member::new`]
    /// (`Member::new_unchecked` skips it for ablations).
    ///
    /// [`Member::new`]: crate::member::Member::new
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n < 2 || self.n > 64 {
            return Err(ConfigError(format!("team size {} not in 2..=64", self.n)));
        }
        if self.delta <= Duration::ZERO {
            return Err(ConfigError("delta must be positive".into()));
        }
        if self.big_d < self.delta {
            return Err(ConfigError(format!(
                "D ({}) must be at least delta ({})",
                self.big_d, self.delta
            )));
        }
        if self.decider_interval + self.sigma > self.big_d {
            return Err(ConfigError(format!(
                "decider_interval ({}) + sigma ({}) exceeds D ({})",
                self.decider_interval, self.sigma, self.big_d
            )));
        }
        if self.slot_len < self.big_d + self.delta {
            return Err(ConfigError(format!(
                "slot_len ({}) below the paper's bound D + delta ({})",
                self.slot_len,
                self.big_d + self.delta
            )));
        }
        if self.decision_timeout < self.big_d + self.delta {
            return Err(ConfigError(format!(
                "decision_timeout ({}) cannot cover one decider hop D + delta ({})",
                self.decision_timeout,
                self.big_d + self.delta
            )));
        }
        if self.tick <= Duration::ZERO || self.tick > self.big_d {
            return Err(ConfigError(format!(
                "tick ({}) must be in (0, D]",
                self.tick
            )));
        }
        Ok(())
    }

    /// Majority size: ⌊n/2⌋ + 1.
    #[inline]
    pub fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    /// Cycle length: `n` slots.
    #[inline]
    pub fn cycle(&self) -> Duration {
        self.slot_len * self.n as i64
    }

    /// The §4.2 single-failure recovery envelope, crash to the last
    /// survivor's install: a crash right after the victim's decision waits
    /// out two decision timeouts, then one no-decision hop of at most
    /// `D + δ` per survivor but the first, plus tick quantization.
    pub fn recovery_envelope(&self) -> Duration {
        self.decision_timeout * 2 + (self.big_d + self.delta) * (self.n as i64 - 2) + self.tick * 4
    }

    /// The TWFR header of `pid`'s recorded or streamed trace under this
    /// configuration: what an offline analyzer needs to judge it.
    pub fn stream_header(&self, pid: ProcessId) -> StreamHeader {
        StreamHeader {
            pid,
            team: self.n,
            epsilon: self.epsilon,
            recovery_envelope: self.recovery_envelope(),
        }
    }

    /// Index of the slot containing synchronized time `t` (global,
    /// monotone).
    #[inline]
    pub fn slot_index(&self, t: SyncTime) -> i64 {
        t.0.div_euclid(self.slot_len.0)
    }

    /// The team member owning the slot at `t`.
    #[inline]
    pub fn slot_owner(&self, t: SyncTime) -> ProcessId {
        ProcessId((self.slot_index(t).rem_euclid(self.n as i64)) as u16)
    }

    /// Is `t` inside `p`'s slot?
    #[inline]
    pub fn in_slot_of(&self, t: SyncTime, p: ProcessId) -> bool {
        self.slot_owner(t) == p
    }

    /// Start of the slot containing `t`.
    #[inline]
    pub fn slot_start(&self, t: SyncTime) -> SyncTime {
        SyncTime(self.slot_index(t) * self.slot_len.0)
    }

    /// Was timestamp `ts` within the most recent completed-or-current
    /// slot of `p` as seen from `now`? ("in p's last time slot",
    /// paper §4.2: join/reconfig messages must be fresh — sent in the
    /// sender's slot at most one cycle ago.)
    pub fn in_last_slot_of(&self, now: SyncTime, ts: SyncTime, p: ProcessId) -> bool {
        if !self.in_slot_of(ts, p) {
            return false;
        }
        let age = now - ts;
        age >= Duration::ZERO && age <= self.cycle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize) -> Config {
        Config::for_team(n, Duration::from_millis(10))
    }

    #[test]
    fn default_config_is_valid() {
        for n in 2..=13 {
            cfg(n).validate().unwrap();
        }
    }

    #[test]
    fn rejects_tiny_and_huge_teams() {
        assert!(cfg(1).validate().is_err());
        assert!(cfg(65).validate().is_err());
    }

    #[test]
    fn rejects_short_slots() {
        let mut c = cfg(3);
        c.slot_len = c.big_d; // < D + delta
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_lazy_decider() {
        let mut c = cfg(3);
        c.decider_interval = c.big_d; // + sigma > D
        assert!(c.validate().is_err());
    }

    #[test]
    fn majority_math() {
        assert_eq!(cfg(3).majority(), 2);
        assert_eq!(cfg(4).majority(), 3);
        assert_eq!(cfg(5).majority(), 3);
        assert_eq!(cfg(7).majority(), 4);
    }

    #[test]
    fn slot_rotation_covers_all_members() {
        let c = cfg(3);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..3 {
            let t = SyncTime(c.slot_len.0 * i + 1);
            seen.insert(c.slot_owner(t));
        }
        assert_eq!(seen.len(), 3);
        // Wraps around.
        assert_eq!(
            c.slot_owner(SyncTime(c.slot_len.0 * 3 + 1)),
            c.slot_owner(SyncTime(1))
        );
    }

    #[test]
    fn slot_owner_handles_negative_time() {
        // Synchronized clocks can start anywhere, including below zero.
        let c = cfg(3);
        let t = SyncTime(-1);
        let owner = c.slot_owner(t);
        assert!(owner.rank() < 3);
        assert!(c.in_slot_of(t, owner));
    }

    #[test]
    fn slot_start_floors() {
        let c = cfg(3);
        let t = SyncTime(c.slot_len.0 + 17);
        assert_eq!(c.slot_start(t), SyncTime(c.slot_len.0));
    }

    #[test]
    fn in_last_slot_of_requires_right_owner_and_freshness() {
        let c = cfg(3);
        // p1 owns slot index 1.
        let ts = SyncTime(c.slot_len.0 + 5);
        let p1 = ProcessId(1);
        assert!(c.in_last_slot_of(ts + Duration(10), ts, p1));
        // Wrong owner.
        assert!(!c.in_last_slot_of(ts + Duration(10), ts, ProcessId(0)));
        // Too old (more than a cycle).
        let much_later = ts + c.cycle() + Duration(1);
        assert!(!c.in_last_slot_of(much_later, ts, p1));
        // From the future.
        assert!(!c.in_last_slot_of(ts - Duration(1), ts, p1));
    }

    #[test]
    fn cycle_is_n_slots() {
        let c = cfg(5);
        assert_eq!(c.cycle(), c.slot_len * 5);
    }

    #[test]
    fn recovery_envelope_is_t2s_bound() {
        assert_eq!(cfg(5).recovery_envelope(), Duration::from_millis(330));
    }

    #[test]
    fn config_error_display() {
        let e = cfg(1).validate().unwrap_err();
        assert!(e.to_string().contains("team size"));
    }
}
