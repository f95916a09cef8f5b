//! Virtual time for the SPMD runtime.
//!
//! The paper's experiments ran on up to 16384 hardware threads; this
//! workspace runs on whatever a laptop offers, so wall-clock measurements
//! of the rank threads would reflect oversubscription, not the algorithm.
//! Instead every rank carries a *virtual clock*:
//!
//! * compute sections advance it by the rank thread's **CPU time**
//!   (`CLOCK_THREAD_CPUTIME_ID`): what the thread executed, not what passed
//!   on the wall, so time spent preempted or asleep is not charged;
//! * communication advances it according to the α–β cost model in
//!   [`crate::model`], with collectives synchronizing clocks to the
//!   maximum participant (conservative parallel-discrete-event semantics).
//!
//! The maximum clock over all ranks at the end of a phase is the modeled
//! parallel runtime of that phase — the quantity reported in the scaling
//! tables of the benches.
//!
//! Compute sections of different ranks run **concurrently**; nothing
//! orders them. With as many cores as ranks the wall time of a set-up is
//! therefore close to its virtual time. With many more ranks than cores a
//! rank is preempted inside its sections, and although the time away is
//! not charged, coming back to caches another rank has refilled is: the
//! reading carries that cost, measured at ≤ 8 % on the strong-scaling
//! figure and ≈ 12 % on the largest weak-scaling rows (EXPERIMENTS.md,
//! "Virtual time with concurrent compute sections").

/// Seconds of CPU time consumed by the calling thread.
///
/// Falls back to a process-wide monotonic clock if the platform lacks
/// `CLOCK_THREAD_CPUTIME_ID` (non-Linux); with one rank per thread on an
/// oversubscribed host the fallback overestimates compute time.
pub fn thread_cpu_time() -> f64 {
    // Miri cannot execute inline asm, so it takes the fallback below and
    // still borrow-checks everything around it.
    #[cfg(all(
        not(miri),
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        // Raw clock_gettime(CLOCK_THREAD_CPUTIME_ID) syscall: keeps the
        // crate dependency-free. vDSO would be faster but the syscall is
        // plenty for phase-granularity timing.
        const CLOCK_THREAD_CPUTIME_ID: usize = 3;
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        let rc: isize;
        // SAFETY: ts is a valid, writable timespec; clock_gettime only
        // writes through its second argument and clobbers the registers
        // declared below.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") 228usize => rc, // __NR_clock_gettime
                in("rdi") CLOCK_THREAD_CPUTIME_ID,
                in("rsi") &mut ts as *mut Timespec,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack, preserves_flags)
            );
        }
        // SAFETY: same contract as the x86_64 block — ts is a valid,
        // writable timespec owned by this frame; the svc only writes
        // through x1 and returns its status in x0.
        #[cfg(target_arch = "aarch64")]
        #[allow(unsafe_code)]
        unsafe {
            std::arch::asm!(
                "svc 0",
                in("x8") 113usize, // __NR_clock_gettime
                inlateout("x0") CLOCK_THREAD_CPUTIME_ID => rc,
                in("x1") &mut ts as *mut Timespec,
                options(nostack)
            );
        }
        if rc == 0 {
            return ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9;
        }
    }
    // Fallback: monotonic wall clock.
    use std::time::Instant;
    thread_local! {
        static START: Instant = Instant::now();
    }
    START.with(|s| s.elapsed().as_secs_f64())
}

/// A per-rank virtual clock. Owned by exactly one rank thread, hence the
/// interior mutability is a plain [`std::cell::Cell`].
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: std::cell::Cell<f64>,
}

impl VirtualClock {
    pub fn new() -> Self {
        VirtualClock {
            now: std::cell::Cell::new(0.0),
        }
    }

    /// Current virtual time in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.now.get()
    }

    /// Advance by `dt ≥ 0` seconds.
    #[inline]
    pub fn advance(&self, dt: f64) {
        debug_assert!(dt >= 0.0, "clocks only move forward");
        self.now.set(self.now.get() + dt);
    }

    /// Jump forward to `t` if `t` is later than now (receiving a message,
    /// leaving a collective).
    #[inline]
    pub fn advance_to(&self, t: f64) {
        if t > self.now.get() {
            self.now.set(t);
        }
    }

    /// Reset to zero (between benchmark phases).
    pub fn reset(&self) {
        self.now.set(0.0);
    }

    /// Run `f`, measuring its thread CPU time and advancing the clock by
    /// it. Returns `f`'s result.
    pub fn compute<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = thread_cpu_time();
        let r = f();
        let dt = (thread_cpu_time() - t0).max(0.0);
        self.advance(dt);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_monotone() {
        let a = thread_cpu_time();
        // burn a little CPU
        let mut s = 0.0f64;
        for i in 0..200_000 {
            s += (i as f64).sqrt();
        }
        assert!(s > 0.0);
        let b = thread_cpu_time();
        assert!(b >= a);
    }

    #[test]
    fn clock_advances() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), 0.0);
        c.advance(1.5);
        c.advance_to(1.0); // no-op, in the past
        assert_eq!(c.now(), 1.5);
        c.advance_to(2.0);
        assert_eq!(c.now(), 2.0);
        c.reset();
        assert_eq!(c.now(), 0.0);
    }

    #[test]
    fn compute_measures_nonnegative() {
        let c = VirtualClock::new();
        let out = c.compute(|| {
            let mut s = 0u64;
            for i in 0..100_000u64 {
                s = s.wrapping_add(i * i);
            }
            s
        });
        assert!(out > 0);
        assert!(c.now() >= 0.0);
    }
}
