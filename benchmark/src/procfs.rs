//! What the benchmark reads about its own process — peak memory from
//! `/proc/self/status`, CPU time from the process clock — and the one
//! thing it sets: `point_http`'s CPU affinity. std has no wrapper for the
//! two system calls, so they are declared here against the C library std
//! already links, for Linux only; elsewhere they do nothing.

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MB (10^6 bytes); 0 where there is
/// no `/proc`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

/// The lowest CPU in `Cpus_allowed_list` of `/proc/<pid>/status`
/// (`"0-1"`, `"2,4-7"`), if the text has one.
pub fn first_allowed_cpu(status: &str) -> Option<usize> {
    let line = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?;
    let list = line.split(':').nth(1)?.trim();
    list.split([',', '-']).next()?.parse().ok()
}

/// CPU seconds (user + system, every thread, living or ended) this
/// process has used, at nanosecond resolution; 0 where the clock is not
/// to be had. `/proc/self/stat` has the same number in 10 ms ticks, too
/// coarse for `update_mix`'s 100 ms epochs.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout 64-bit
    // Linux uses (two 64-bit fields), which the `cfg` above selects; the
    // call writes it and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
    } else {
        0.0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_seconds() -> f64 {
    0.0
}

/// Restricts the calling thread — and every thread it spawns later — to
/// the lowest CPU it may run on. Returns that CPU, or `None` if that
/// cannot be done (the run then goes on unpinned, and noisier).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let cpu = first_allowed_cpu(&status)?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? = 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of `size_of_val(&mask)` bytes, which
    // is the length passed; pid 0 names the calling thread; the call
    // reads the mask and changes no memory of this process.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
