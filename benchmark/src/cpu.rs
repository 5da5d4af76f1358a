//! Process CPU time, the clock the gated cost metric reads.
//!
//! `CLOCK_PROCESS_CPUTIME_ID` sums the CPU time of every thread of the
//! process, live or exited: the clients, the in-process server's
//! handlers and render workers, and the engine. On a virtual machine
//! with paravirtual steal accounting, time the host gives a virtual CPU
//! to someone else is not charged to the process, and neither is time
//! spent waiting for a CPU, a lock or the disk. The call is declared
//! directly against the C library, as `pagestore`'s mmap wrapper does.

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_long};

    pub const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    extern "C" {
        pub fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
}

/// CPU seconds the whole process has used so far; NaN where the clock
/// is unavailable, so a metric built on it reports as unmeasured.
#[cfg(target_os = "linux")]
pub fn process_s() -> f64 {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

#[cfg(not(target_os = "linux"))]
pub fn process_s() -> f64 {
    f64::NAN
}

#[cfg(test)]
mod tests {
    #[test]
    fn process_cpu_time_advances_with_work() {
        let t0 = super::process_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let t1 = super::process_s();
        assert!(t0.is_finite() && t1 > t0, "{t0} -> {t1}");
    }
}
