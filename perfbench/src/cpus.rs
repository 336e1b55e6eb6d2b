//! Pinning the calling thread to one CPU at a time.
//!
//! A thread tends to stay on the CPU it started on, and on a shared
//! machine the CPUs of one box can differ in speed by half from one
//! process to the next. A short single-threaded measurement taken on
//! whichever CPU the process landed on reads that lottery, not the
//! code; taking it on every allowed CPU in turn does not.

use std::io;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

fn get() -> io::Result<CpuSet> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable cpu_set_t of the size passed.
    match unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } {
        0 => Ok(mask),
        _ => Err(io::Error::last_os_error()),
    }
}

fn set(mask: &CpuSet) -> io::Result<()> {
    // SAFETY: `mask` is a readable cpu_set_t of the size passed.
    match unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) } {
        0 => Ok(()),
        _ => Err(io::Error::last_os_error()),
    }
}

/// Run `f(i)` once pinned to each CPU the calling thread may use, `i`
/// counting those CPUs from 0, then restore the thread's CPU mask.
/// Threads spawned inside `f` inherit the pin. Where the mask cannot be
/// read or set, `f(0)` runs once, unpinned.
pub fn on_each(mut f: impl FnMut(usize)) {
    let Ok(allowed) = get() else {
        return f(0);
    };
    let cpus = (0..1024).filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1);
    for (i, cpu) in cpus.enumerate() {
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        if set(&one).is_err() {
            if i == 0 {
                f(0);
            }
            break;
        }
        f(i);
    }
    set(&allowed).expect("restoring the thread's own CPU mask");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visits_every_allowed_cpu_and_restores_the_mask() {
        let before = get().expect("the thread's CPU mask");
        let allowed: u32 = before.iter().map(|w| w.count_ones()).sum();
        let mut visited = Vec::new();
        on_each(|i| visited.push(i));
        assert_eq!(visited, (0..allowed as usize).collect::<Vec<_>>());
        assert_eq!(get().expect("the thread's CPU mask"), before);
    }
}
