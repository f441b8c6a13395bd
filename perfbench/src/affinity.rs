//! Moving the measuring thread between the CPUs it may use.
//!
//! On a shared virtual machine one vCPU can run 20–40% slower than another
//! for minutes at a time, with no change in clock or memory latency that a
//! small probe loop would see (README.md, *Noise*). The measuring run
//! therefore places its rounds on each allowed CPU in turn, one thread at a
//! time, so a cell's fastest round comes from whichever CPU was fast.

extern "C" {
    // glibc; `mask` points to a `cpu_set_t` of `size` bytes.
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1024 CPUs.
type CpuSet = [u64; 16];

/// The CPUs the calling thread may run on, in order; empty if unknown.
pub fn allowed() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let ok = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), mask.as_mut_ptr()) } == 0;
    if !ok {
        return Vec::new();
    }
    (0..mask.len() * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1).collect()
}

/// Moves the calling thread onto `cpu` alone; false if the kernel refused.
pub fn pin(cpu: usize) -> bool {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, size_of::<CpuSet>(), mask.as_ptr()) == 0 }
}
