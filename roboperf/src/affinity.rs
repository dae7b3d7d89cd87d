//! One CPU per thread for the serving workloads: the generator on one
//! CPU, the server's worker on another.
//!
//! Left to the scheduler, a wake-up sometimes places the generator on the
//! worker's CPU while the other CPU idles. Saturated throughput dropped by
//! 10–35 % when that happened: pinned runs were faster than unpinned runs
//! in 8 of 8 alternating pairs on a 2-vCPU VM. Where pinning is not
//! available the threads stay unpinned and the run's provenance says so.
//!
//! `mpc_step` instead runs on one CPU alone ([`confine_to_first_cpu`]).

/// A `cpu_set_t` of the kernel's default size: 1024 CPUs.
type CpuMask = [u64; 16];

/// Ids of this process's threads.
pub fn threads() -> Vec<u32> {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn syscall3(n: i64, a1: i64, a2: usize, a3: *const u64) -> i64 {
    let ret: i64;
    // SAFETY: the `syscall` instruction with the kernel's register
    // assignment; rcx and r11 are declared clobbered because the kernel
    // overwrites them. The two callers below pass a pointer to a live
    // `CpuMask` and its exact size, which is all the affinity calls read
    // or write.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// The calling thread's allowed CPUs (sched_getaffinity).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn get_mask() -> Option<CpuMask> {
    let mut mask: CpuMask = [0; 16];
    let ret = syscall3(204, 0, std::mem::size_of_val(&mask), mask.as_mut_ptr());
    (ret > 0).then_some(mask)
}

/// Restricts thread `tid` (0: the calling thread) to `mask`
/// (sched_setaffinity).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_mask(tid: u32, mask: &CpuMask) -> bool {
    syscall3(
        203,
        i64::from(tid),
        std::mem::size_of_val(mask),
        mask.as_ptr(),
    ) == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn get_mask() -> Option<CpuMask> {
    None
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_mask(_tid: u32, _mask: &CpuMask) -> bool {
    false
}

fn only(cpu: usize) -> CpuMask {
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    mask
}

/// The calling thread pinned to one CPU; dropping it restores the
/// thread's original CPUs (so later threads and child processes are not
/// confined).
#[derive(Debug)]
pub struct Pinned {
    original: CpuMask,
}

impl Drop for Pinned {
    fn drop(&mut self) {
        set_mask(0, &self.original);
    }
}

/// Pins the calling thread to its first allowed CPU and each of `workers`
/// to the following ones in turn. `None` (and every thread left as it
/// was) if fewer than two CPUs are allowed or any pin is refused.
pub fn pin_generator_and_workers(workers: &[u32]) -> Option<Pinned> {
    let original = get_mask()?;
    let cpus: Vec<usize> = (0..64 * original.len())
        .filter(|&c| original[c / 64] & (1 << (c % 64)) != 0)
        .collect();
    if cpus.len() < 2 {
        return None;
    }
    let pinned = workers
        .iter()
        .enumerate()
        .all(|(i, &tid)| set_mask(tid, &only(cpus[1 + i % (cpus.len() - 1)])))
        && set_mask(0, &only(cpus[0]));
    if !pinned {
        for &tid in workers {
            set_mask(tid, &original);
        }
        set_mask(0, &original);
        return None;
    }
    Some(Pinned { original })
}

/// Confines the calling thread, and every thread it spawns from now on,
/// to its first allowed CPU, for the rest of its life. `false` (and the
/// thread left as it was) if the CPUs cannot be read or set.
pub fn confine_to_first_cpu() -> bool {
    let Some(original) = get_mask() else {
        return false;
    };
    (0..64 * original.len())
        .find(|&c| original[c / 64] & (1 << (c % 64)) != 0)
        .is_some_and(|cpu| set_mask(0, &only(cpu)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Both tests change CPU masks that the other checks; they take
    /// turns.
    static MASKS: Mutex<()> = Mutex::new(());

    #[test]
    fn pins_a_helper_and_restores_the_caller() {
        let _turn = MASKS.lock().unwrap_or_else(|e| e.into_inner());
        let (tx, rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let helper = std::thread::spawn(move || {
            let me = std::fs::read_link("/proc/thread-self")
                .ok()
                .and_then(|p| p.file_name()?.to_str()?.parse::<u32>().ok());
            tx.send(me).expect("test holds the receiver");
            done_rx.recv().expect("test holds the sender");
        });
        let tid = rx.recv().expect("helper started");
        if let (Some(tid), Some(before)) = (tid, get_mask()) {
            assert!(threads().contains(&tid));
            if before.iter().map(|w| w.count_ones()).sum::<u32>() >= 2 {
                let pinned = pin_generator_and_workers(&[tid]).expect("two CPUs allowed");
                assert_eq!(
                    get_mask().map(|m| m.iter().map(|w| w.count_ones()).sum::<u32>()),
                    Some(1)
                );
                drop(pinned);
                assert_eq!(get_mask(), Some(before));
            }
        }
        done_tx.send(()).expect("helper waits for it");
        helper.join().expect("helper exits cleanly");
    }

    #[test]
    fn confines_the_caller_and_its_new_threads_to_one_cpu() {
        let _turn = MASKS.lock().unwrap_or_else(|e| e.into_inner());
        let Some(before) = get_mask() else {
            return;
        };
        assert!(confine_to_first_cpu());
        let helper = std::thread::spawn(|| {
            let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
            (cpus, get_mask())
        });
        let (cpus, helper_mask) = helper.join().expect("helper exits cleanly");
        let mine = get_mask();
        set_mask(0, &before);
        assert_eq!(cpus, 1);
        assert_eq!(helper_mask, mine);
        assert_eq!(
            mine.map(|m| m.iter().map(|w| w.count_ones()).sum::<u32>()),
            Some(1)
        );
    }
}
