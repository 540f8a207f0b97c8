//! What the operating system knows about this process: CPU time and
//! resident memory. Linux only, like the `/proc` reads in the
//! repository's own `exp_20_trace_scale`.

use std::os::raw::{c_int, c_long};

/// `struct rusage` on 64-bit Linux: two `timeval`s (seconds and
/// microseconds, one `long` each) followed by fourteen `long` fields.
#[repr(C)]
struct RUsage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    rest: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

/// `RUSAGE_SELF`: every thread of the process, joined ones included.
const RUSAGE_SELF: c_int = 0;

/// User plus system CPU time this process has used, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // the C library fills on 64-bit Linux; `RUSAGE_SELF` is a valid
    // `who`, the only documented failure being an invalid one.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let ns = |tv: [c_long; 2]| tv[0] as u64 * 1_000_000_000 + tv[1] as u64 * 1_000;
    ns(usage.utime) + ns(usage.stime)
}

/// Pins the C library's mmap threshold at its documented default of
/// 128 KiB. Setting it at all switches off glibc's habit of raising
/// the threshold (and with it the trim threshold) to the size of the
/// last large block freed, after which freed memory is kept or
/// returned depending on the order of earlier frees: with the habit
/// on, `tenant_sweep`'s peak resident set took one of two values 20 %
/// apart from the same live bytes. Pinned, `peak_rss_mb` follows live
/// memory. Call before any thread starts.
pub fn pin_allocator_thresholds() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` stores one integer in the allocator's
        // parameters; no other thread exists yet to race with it.
        let accepted = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
        assert_eq!(accepted, 1, "glibc accepts its own default threshold");
    }
}

/// A `kB` field of `/proc/self/status`, in KiB.
fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

/// Current resident set (`VmRSS`) of this process, in bytes.
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:").expect("/proc/self/status has VmRSS") * 1024
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = process_cpu_ns();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
        assert!(peak_rss_mib() > 0.0);
        assert!(rss_bytes() > 0);
    }
}
