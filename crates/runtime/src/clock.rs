//! Real hardware clocks for runtime nodes.
//!
//! In the timed asynchronous model every process reads only its own,
//! unsynchronized hardware clock. [`RealClock`] maps a node's monotonic
//! [`Instant`] stream to [`HwTime`] — each node anchors its own epoch, so
//! two nodes' hardware clocks are unrelated, exactly as the model
//! assumes. (Rate drift between cores of one machine is negligible; the
//! fail-aware clock-sync layer tolerates it by construction.)

use std::time::Instant;
use tw_proto::HwTime;

/// Source of a node's hardware time.
pub trait RuntimeClock: Send + 'static {
    /// Current hardware clock reading.
    fn now_hw(&self) -> HwTime;
}

/// Monotonic wall-clock based hardware clock with a per-node epoch.
#[derive(Debug, Clone)]
pub struct RealClock {
    start: Instant,
}

impl RealClock {
    /// A clock starting at zero now.
    pub fn new() -> Self {
        RealClock {
            start: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl RuntimeClock for RealClock {
    fn now_hw(&self) -> HwTime {
        HwTime(self.start.elapsed().as_micros() as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotone() {
        let c = RealClock::new();
        let a = c.now_hw();
        let b = c.now_hw();
        assert!(b >= a);
    }

    #[test]
    fn clock_advances() {
        let c = RealClock::new();
        let a = c.now_hw();
        std::thread::sleep(std::time::Duration::from_millis(5));
        let b = c.now_hw();
        assert!((b - a).as_micros() >= 4_000);
    }
}
