//! Host-side measurement: order statistics, process CPU time and peak RSS.

use std::time::Instant;

/// Linear-interpolated quantile of unsorted samples (`q` in 0..=1).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn min(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`; the median when there are too few samples.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    for p in [0.999, 0.99, 0.9] {
        if (samples.len() as f64) * (1.0 - p) >= 10.0 {
            return (p * 100.0, quantile(samples, p));
        }
    }
    (50.0, median(samples))
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Linux's clock id for the CPU time of the whole process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User+system CPU seconds of the whole process so far: every thread,
/// exited ones included, at nanosecond resolution (`/proc/self/stat` only
/// resolves 10 ms, too coarse to take per round).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout this target's
    // libc expects; the call writes it and keeps no pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status has VmHWM");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is a number of kB");
    kb / 1024.0
}

/// Times `f` and returns `(seconds, result)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Median seconds per call of `f` over `reps` batches of `batch` calls.
pub fn per_call_s(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&samples)
}

extern "C" {
    /// libc's wrappers of the system calls of the same names.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// A CPU affinity mask, least significant word first.
type CpuMask = [u64; 16];

/// The CPUs this thread may run on, from `/proc/thread-self/status`.
fn allowed_cpus() -> Option<CpuMask> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("Cpus_allowed:"))?;
    // Comma-separated 32-bit hex groups, most significant first.
    let mut mask = [0u64; 16];
    for (i, group) in line.split_whitespace().nth(1)?.rsplit(',').enumerate() {
        let bits = u64::from_str_radix(group, 16).ok()?;
        *mask.get_mut(i / 2)? |= bits << (32 * (i % 2));
    }
    Some(mask)
}

/// Confines the calling thread, and every thread it starts from now on, to
/// the first CPU it is allowed on. A hand-off between two threads then costs
/// a context switch, not the wake of a halted virtual CPU, whose latency
/// swings severalfold with the load on the physical host; and two workers
/// never run in parallel in one run and in turns in the next, as the host's
/// scheduler decides. Returns `false` if the affinity could not be read or
/// set; the run then goes on unpinned.
pub fn pin_to_one_cpu() -> bool {
    let Some(allowed) = allowed_cpus() else {
        return false;
    };
    let Some(word) = allowed.iter().position(|&w| w != 0) else {
        return false;
    };
    let mut one = [0u64; 16];
    one[word] = 1 << allowed[word].trailing_zeros();
    // SAFETY: `one` is a live, initialized buffer of exactly the byte length
    // passed, the kernel only reads it, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}
