//! What every workload shares: run parameters, the seeded payload
//! generator and the result a workload hands back.

use bytes::Bytes;

/// Payload size of every update; the first 8 bytes carry its index.
pub const PAYLOAD_LEN: usize = 64;

/// How one invocation is to run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Wall seconds the measured window lasts.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Smoke mode: set up once instead of several times.
    pub quick: bool,
}

/// splitmix64: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Generates the update payloads from the seed: index in the first 8
/// bytes, seeded noise in the rest.
#[derive(Debug, Clone)]
pub struct Payloads {
    rng: Rng,
    next: u64,
}

impl Payloads {
    pub fn new(seed: u64) -> Self {
        Payloads {
            rng: Rng::new(seed),
            next: 0,
        }
    }

    /// Index the next payload will carry.
    pub fn next_index(&self) -> u64 {
        self.next
    }

    pub fn next_payload(&mut self) -> Bytes {
        let mut buf = [0u8; PAYLOAD_LEN];
        buf[..8].copy_from_slice(&self.next.to_le_bytes());
        for chunk in buf[8..].chunks_mut(8) {
            let word = self.rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        self.next += 1;
        Bytes::copy_from_slice(&buf)
    }
}

/// The update index a delivered payload carries.
pub fn payload_index(payload: &[u8]) -> u64 {
    let mut b = [0u8; 8];
    let n = payload.len().min(8);
    b[..n].copy_from_slice(&payload[..n]);
    u64::from_le_bytes(b)
}

/// What a workload reports. `None` marks a metric the workload could
/// not measure here (for example CPU time without procfs).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Safety violations; any makes the run incorrect.
    pub violations: Vec<String>,
    pub metrics: Vec<(&'static str, Option<f64>)>,
    /// Sample counts and other remarks for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, Some(value)));
    }

    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        self.metrics.push((name, value));
    }

    /// Record the run's counts and, from them, `delivered_ratio`.
    pub fn set_delivered(&mut self, attempted: u64, failed: u64) {
        self.attempted = attempted;
        self.failed = failed;
        self.set(
            "delivered_ratio",
            1.0 - ratio(failed as f64, attempted as f64),
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_repeat_for_a_seed_and_carry_their_index() {
        let mut a = Payloads::new(7);
        let mut b = Payloads::new(7);
        let mut c = Payloads::new(8);
        for i in 0..5u64 {
            let (pa, pb, pc) = (a.next_payload(), b.next_payload(), c.next_payload());
            assert_eq!(pa.len(), PAYLOAD_LEN);
            assert_eq!(pa, pb);
            assert_ne!(pa, pc);
            assert_eq!(payload_index(&pa), i);
        }
    }
}
