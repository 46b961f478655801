//! Keeps the load generator and the system under test on different CPUs.
//!
//! Left alone, the kernel's wake-affine placement usually puts the shard
//! thread on the driver's CPU (each wakes the other and then blocks), and
//! how the two then share it is settled once per process: the same binary
//! on the same input runs a closed pass of `stock-keyed-seq` in 0.8 s or in
//! 1.3 s, and no number of passes inside one process averages that out.
//! Interleaved runs over ten seeds: throughput spread 15-25 % unpinned,
//! 4-13 % with the driver on the first allowed CPU and the runtime's
//! threads on the rest. On a host that allows the process a single CPU
//! nothing is pinned.

#[cfg(target_os = "linux")]
mod sys {
    /// Bits of a `cpu_set_t`, enough for 1024 CPUs.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on, lowest first.
    pub fn allowed() -> Vec<usize> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed, so the kernel writes inside it; pid 0 is the caller.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..mask.len() * 64).filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect()
    }

    /// Restricts the calling thread to `cpus`. A refused call leaves the
    /// old affinity in place, which is a valid state to run in.
    pub fn pin(cpus: &[usize]) {
        let mut mask: Mask = [0; 16];
        for &cpu in cpus.iter().filter(|&&cpu| cpu < 16 * 64) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `mask` is a live buffer of exactly the size passed and is
        // only read; pid 0 is the caller.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }
    pub fn pin(_cpus: &[usize]) {}
}

/// Runs `spawn` (which starts the runtime's threads; they inherit the
/// caller's affinity) restricted to every allowed CPU but the first, then
/// pins the calling thread to the first. The returned guard gives the
/// calling thread its full set back when dropped.
pub fn apart<T>(spawn: impl FnOnce() -> T) -> (T, Restore) {
    let cpus = sys::allowed();
    if cpus.len() < 2 {
        return (spawn(), Restore(Vec::new()));
    }
    sys::pin(&cpus[1..]);
    let spawned = spawn();
    sys::pin(&cpus[..1]);
    (spawned, Restore(cpus))
}

/// Restores the calling thread's affinity on drop.
pub struct Restore(Vec<usize>);

impl Drop for Restore {
    fn drop(&mut self) {
        if !self.0.is_empty() {
            sys::pin(&self.0);
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn spawned_threads_and_caller_end_up_on_disjoint_cpus() {
        let before = sys::allowed();
        let (handle, restore) = apart(|| std::thread::spawn(sys::allowed));
        let (caller, spawned) = (sys::allowed(), handle.join().unwrap());
        drop(restore);
        assert_eq!(sys::allowed(), before, "the guard restores the caller");
        if before.len() < 2 {
            assert_eq!((&caller, &spawned), (&before, &before), "one CPU: nothing to pin");
        } else {
            assert_eq!(caller, before[..1]);
            assert_eq!(spawned, before[1..]);
        }
    }
}
