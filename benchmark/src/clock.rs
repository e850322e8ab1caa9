//! The clock the single-threaded workloads are timed on.
//!
//! `ladder_weak`, `sim_ordered` and `sim_crash` are one thread working
//! flat out, so on an undisturbed machine their wall time is that
//! thread's CPU time. On a shared two-core VM it is not: the hypervisor
//! takes the CPU away for stretches (steal), and wall-clock rates of
//! identical code then differ by tens of percent from run to run. Those
//! workloads are therefore timed in seconds of CPU time of the driving
//! thread, which leaves the stolen time out. The live workloads are
//! many threads waiting on each other and stay on the wall clock.

/// Seconds of CPU time the calling thread has used so far. Where the
/// thread clock cannot be read, seconds of wall time since the first
/// call.
pub fn thread_cpu_s() -> f64 {
    imp::thread_cpu_s().unwrap_or_else(wall_s)
}

fn wall_s() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[allow(unsafe_code)]
mod imp {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    pub fn thread_cpu_s() -> Option<f64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `timespec` of the layout the
        // 64-bit Linux C library defines (two 64-bit fields); the call
        // writes nothing else and keeps no pointer.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        (rc == 0).then(|| ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod imp {
    pub fn thread_cpu_s() -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_not_with_sleep() {
        let a = thread_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let b = thread_cpu_s();
        assert!(b > a, "{a} -> {b}");
        if imp::thread_cpu_s().is_some() {
            std::thread::sleep(std::time::Duration::from_millis(50));
            let c = thread_cpu_s();
            assert!(c - b < 0.04, "slept 50 ms, CPU clock moved {} s", c - b);
        }
    }
}
