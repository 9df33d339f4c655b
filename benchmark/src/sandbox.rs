//! What a 2-vCPU guest needs before its numbers repeat: one CPU, a
//! pre-faulted heap, resident-set readings, and an allocation counter.

use crate::digest::Fnv;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the process to the CPU it is running on. Must run before any
/// thread exists: the program sizes every worker pool from
/// `available_parallelism()`, which is 1 afterwards, so the benchmark
/// never has to name a thread-count knob.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    const WORDS: usize = 16;
    // SAFETY: sched_getcpu takes no arguments and only reads kernel state.
    let cpu = unsafe { sched_getcpu() };
    if cpu < 0 || cpu as usize >= WORDS * 64 {
        return Err(format!("sched_getcpu returned {cpu}"));
    }
    let cpu = cpu as usize;
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is WORDS * 8 bytes long and outlives the call; pid 0
    // is the calling thread, the only thread of the process.
    let rc = unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let seen = std::thread::available_parallelism().map_or(0, usize::from);
    if seen != 1 {
        return Err(format!("pinned, yet available_parallelism() is {seen}"));
    }
    Ok(cpu)
}

/// Touches and frees `mb` MiB so the guest kernel already holds the
/// pages the measured phase will fault in (first touch of guest memory
/// cost 25.8 s per 512 MB in this sandbox, 0.3 s on re-touch).
pub fn prefault(mb: usize) {
    let mut arena = vec![0u8; mb << 20];
    for page in arena.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&arena);
}

/// VmRSS of this process in MB, or 0 where /proc is missing.
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where this process keeps `workload`'s checkpoint: a scratch directory
/// inside the benchmark's own directory (the run may write nowhere
/// else), ignored by git.
pub fn checkpoint_path(workload: &str, seed: u64) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    std::fs::create_dir_all(&dir).expect("create benchmark/work");
    dir.join(format!("{workload}-{seed}-{}.nclmodel", std::process::id()))
}

pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).expect("create benchmark/results");
    dir
}

/// Counts allocations while [`count_allocations`] is on (the traced run
/// only); otherwise one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the counters are plain statistics and publish no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// (allocations, bytes requested) since the process started counting.
pub fn allocations() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Digest of `exp`, `ln` and `tanh` over a fixed grid, and of the CPU
/// features libm and the program's kernels dispatch on. Score bits go
/// through the platform's libm, so a pinned `ranked_digest` can only be
/// enforced where this fingerprint matches the one it was recorded with.
pub fn libm_fingerprint() -> u64 {
    let mut h = Fnv::default();
    for i in 0..(1u32 << 16) {
        let x = std::hint::black_box((i as f32 - 32768.0) / 2048.0);
        h.u32(x.exp().to_bits());
        h.u32(x.tanh().to_bits());
        h.u32((x.abs() + 0.001).ln().to_bits());
    }
    #[cfg(target_arch = "x86_64")]
    for on in [
        std::arch::is_x86_feature_detected!("sse4.1"),
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("fma"),
        std::arch::is_x86_feature_detected!("avx512f"),
    ] {
        h.u32(u32::from(on));
    }
    h.finish()
}

/// Tests that toggle the process-wide allocation counter take turns.
#[cfg(test)]
pub static TEST_SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_is_read_and_prefault_runs() {
        let before = rss_mb();
        assert!(before > 0.0, "VmRSS unreadable");
        prefault(8);
        assert!(rss_mb() > 0.0);
    }

    #[test]
    fn allocation_counter_only_counts_when_on() {
        // The test binary installs the same allocator (main.rs).
        let _serial = TEST_SERIAL.lock().unwrap();
        let (a0, _) = allocations();
        count_allocations(true);
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(1024));
        count_allocations(false);
        let (a1, b1) = allocations();
        drop(v);
        assert!(a1 > a0, "an allocation went uncounted");
        assert!(b1 >= 8192);
        let w: Vec<u64> = std::hint::black_box(Vec::with_capacity(1024));
        drop(w);
        assert_eq!(allocations().0, a1, "counted while off");
    }

    #[test]
    fn libm_fingerprint_is_stable_within_a_process() {
        assert_eq!(libm_fingerprint(), libm_fingerprint());
    }
}
