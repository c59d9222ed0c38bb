//! The process's CPU time, the clock the end-to-end metrics use.
//!
//! On a shared virtual machine the wall clock keeps running while the
//! hypervisor gives the vCPU to another guest (steal time) and while other
//! processes in the guest hold the CPU. Both moved wall-clock figures of
//! the same build by more than the benchmark's bounds from one minute to
//! the next. A task's run time, as the kernel accounts it, leaves both
//! out (with paravirtual steal accounting, which Linux guests on KVM
//! have). The wall-clock figures stay in every result record.

/// CPU time used so far by every thread of this process, live or exited,
/// in nanoseconds.
pub fn process_ns() -> u64 {
    imp::process_ns()
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    const SYS_CLOCK_GETTIME: u64 = 228;
    const CLOCK_PROCESS_CPUTIME_ID: u64 = 2;

    /// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` as a raw system call: the
    /// standard library has no CPU-time clock and the benchmark takes no
    /// dependencies beyond the workspace's.
    pub fn process_ns() -> u64 {
        let mut ts = [0i64; 2];
        let ret: i64;
        // SAFETY: clock_gettime writes one `struct timespec` (two i64 on
        // x86_64 Linux) through the pointer, which `ts` provides; the
        // `syscall` instruction clobbers only rcx and r11 besides rax.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_CLOCK_GETTIME as i64 => ret,
                in("rdi") CLOCK_PROCESS_CPUTIME_ID,
                in("rsi") ts.as_mut_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        assert_eq!(ret, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        ts[0] as u64 * 1_000_000_000 + ts[1] as u64
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    /// Elsewhere: user plus system time from `/proc/self/stat`, in clock
    /// ticks of 10 ms, which is enough for whole runs but not single ops.
    pub fn process_ns() -> u64 {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime are
        // the 14th and 15th fields of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let ticks: u64 = rest
            .split_whitespace()
            .skip(11)
            .take(2)
            .filter_map(|f| f.parse::<u64>().ok())
            .sum();
        ticks * 10_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_advances_with_work_and_not_with_sleep() {
        let t0 = process_ns();
        let mut x = 0u64;
        let started = std::time::Instant::now();
        while started.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let busy = process_ns() - t0;
        assert!(busy > 10_000_000, "50 ms of work read as {busy} ns");
        let t1 = process_ns();
        std::thread::sleep(std::time::Duration::from_millis(100));
        let slept = process_ns() - t1;
        assert!(slept < 50_000_000, "100 ms of sleep read as {slept} ns");
    }
}
