//! The datagram network model.
//!
//! A [`LinkModel`] describes every point-to-point link identically (the
//! paper's single moderately-loaded Ethernet): a base propagation delay,
//! uniform jitter, an omission probability, and a *performance failure*
//! probability — the chance a message is delivered but later than the
//! one-way timeout δ. Targeted, per-message faults (drop exactly the next
//! decision from p, delay one message past δ, …) are handled by
//! [`crate::fault`]; this module is the background behaviour.

// tw-lint: allow-file(float-state) -- loss/latency probabilities describe the
// simulated network, not protocol state; draws come from the seeded world RNG
// and delays are rounded to integral micros before entering the event queue.

use rand::Rng;
use tw_proto::Duration;

/// Stochastic behaviour of every network link.
#[derive(Debug, Clone, Copy)]
pub struct LinkModel {
    /// Minimum one-way delay.
    pub base_delay: Duration,
    /// Additional uniform jitter in `[0, jitter]`.
    pub jitter: Duration,
    /// Probability a datagram is silently dropped (omission failure).
    pub drop_prob: f64,
    /// Probability a datagram suffers a performance failure: it is
    /// delivered, but with `late_extra` added to its delay (intended to
    /// push it past the protocol's δ).
    pub late_prob: f64,
    /// Extra delay applied to late datagrams.
    pub late_extra: Duration,
}

impl Default for LinkModel {
    /// A healthy LAN: 1 ms ± 0.2 ms, no losses.
    fn default() -> Self {
        LinkModel {
            base_delay: Duration::from_micros(1_000),
            jitter: Duration::from_micros(200),
            drop_prob: 0.0,
            late_prob: 0.0,
            late_extra: Duration::ZERO,
        }
    }
}

/// The fate the link model assigns to one datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Delivered after the contained one-way delay.
    Deliver(Duration),
    /// Delivered late (performance failure) after the contained delay.
    DeliverLate(Duration),
    /// Dropped (omission failure).
    Drop,
}

impl LinkModel {
    /// A lossy variant of this model.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        self.drop_prob = p;
        self
    }

    /// A variant that makes a fraction of datagrams late by `extra`.
    pub fn with_late(mut self, p: f64, extra: Duration) -> Self {
        self.late_prob = p;
        self.late_extra = extra;
        self
    }

    /// The worst-case timely delay of this model (base + full jitter).
    /// Protocol configurations should pick δ at or above this.
    pub fn max_timely_delay(&self) -> Duration {
        self.base_delay + self.jitter
    }

    /// Draw the fate of one datagram.
    pub fn draw<R: Rng>(&self, rng: &mut R) -> Fate {
        // Order matters for determinism: always consume the same number of
        // random draws regardless of outcome.
        let u_drop: f64 = rng.gen();
        let u_late: f64 = rng.gen();
        let u_jitter: f64 = rng.gen();
        let jitter = Duration((self.jitter.as_micros() as f64 * u_jitter).round() as i64);
        let delay = self.base_delay + jitter;
        if u_drop < self.drop_prob {
            Fate::Drop
        } else if u_late < self.late_prob {
            Fate::DeliverLate(delay + self.late_extra)
        } else {
            Fate::Deliver(delay)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn default_is_lossless() {
        let m = LinkModel::default();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            match m.draw(&mut rng) {
                Fate::Deliver(d) => {
                    assert!(d >= m.base_delay);
                    assert!(d <= m.base_delay + m.jitter);
                }
                other => panic!("unexpected fate {other:?}"),
            }
        }
    }

    #[test]
    fn drop_prob_is_respected() {
        let m = LinkModel::default().with_drop_prob(0.5);
        let mut rng = StdRng::seed_from_u64(42);
        let drops = (0..10_000)
            .filter(|_| matches!(m.draw(&mut rng), Fate::Drop))
            .count();
        assert!((4_000..6_000).contains(&drops), "drops={drops}");
    }

    #[test]
    fn late_messages_carry_extra_delay() {
        let m = LinkModel::default().with_late(1.0, Duration::from_millis(50));
        let mut rng = StdRng::seed_from_u64(1);
        match m.draw(&mut rng) {
            Fate::DeliverLate(d) => assert!(d >= Duration::from_millis(50)),
            other => panic!("unexpected fate {other:?}"),
        }
    }

    #[test]
    fn max_timely_delay_bounds_draws() {
        let m = LinkModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            if let Fate::Deliver(d) = m.draw(&mut rng) {
                assert!(d <= m.max_timely_delay());
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let m = LinkModel::default().with_drop_prob(0.1);
        let a: Vec<Fate> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..100).map(|_| m.draw(&mut rng)).collect()
        };
        let b: Vec<Fate> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..100).map(|_| m.draw(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    /// Every seeded expectation in the repo — `benchmark/`'s `sim_ordered`
    /// and `sim_crash` at seed 42, ROADMAP item 1's repro seeds, the soak
    /// floors — is a statement about this one stream. A different `rand`
    /// behind `StdRng` turns each seed into a different fault schedule
    /// without failing anything; this fails first.
    #[test]
    fn seed_42_stream_is_frozen() {
        let rng = || StdRng::seed_from_u64(42);
        let mut r = rng();
        let ints: [u64; 8] = std::array::from_fn(|_| r.gen());
        assert_eq!(
            ints,
            [
                0x28ef_e333_b266_f103,
                0x4752_6757_130f_9f52,
                0x581c_e1ff_0e4a_e394,
                0x09bc_585a_2448_23f2,
                0xde44_31fa_3c80_db06,
                0x37e9_671c_4537_6d5d,
                0xccf6_35ee_9e9e_2fa4,
                0x5705_b877_0b3d_7dd5,
            ]
        );
        let mut r = rng();
        let floats: [f64; 8] = std::array::from_fn(|_| r.gen());
        assert_eq!(
            floats,
            [
                0.1599103928769201,
                0.27860113025513866,
                0.34419071652363753,
                0.03803016854024621,
                0.8682280765465323,
                0.21840519371218436,
                0.8006318767135033,
                0.3399310389170206,
            ]
        );
        let mut r = rng();
        let m = LinkModel::default();
        let fates: [Fate; 16] = std::array::from_fn(|_| m.draw(&mut r));
        let micros = [
            1069, 1044, 1124, 1103, 1041, 1019, 1015, 1015, 1157, 1158, 1156, 1013, 1018, 1055,
            1064, 1101,
        ];
        assert_eq!(
            fates,
            micros.map(|us| Fate::Deliver(Duration::from_micros(us)))
        );
    }
}
