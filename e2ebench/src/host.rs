//! Host facts the benchmark needs beyond `std`: CPU placement and the
//! process's CPU time.
//!
//! Threads inherit their creator's CPU mask, so pinning the calling
//! thread before the stack is started fixes where every later thread
//! runs. On a small virtual host, where the scheduler happens to put the
//! client and server threads is otherwise the largest source of
//! run-to-run spread.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Restrict the calling thread (and threads it creates from now on) to
/// `cpu`. Returns false if the kernel refused.
pub fn pin_to(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid, initialised cpu_set_t-sized buffer that
    // outlives the call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The CPU the whole benchmark runs on: the host's last one.
pub fn bench_cpu() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        - 1
}

/// CPU time consumed by every thread of this process so far, ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid out-pointer for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}
