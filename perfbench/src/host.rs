//! Host facts printed beside every result, and process memory.

/// Logical CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB, if the
/// kernel reports it.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Keep freed heap memory in this process instead of handing it back to
/// the kernel. Without this, glibc trims the heap when a repetition drops
/// its simulator, and the next repetition pays the first-touch page
/// faults again: about a second of kernel time per `waxman1k_passthrough`
/// repetition, whose cost swings with the host's load. Returns whether
/// the allocator took the setting.
pub fn retain_freed_memory() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only adjusts glibc's allocator tunables; it is
        // called from the bench's only thread before the workload runs.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// Reset this process's `VmHWM` to its current resident set size, so
/// that the next [`peak_rss_mb`] reading covers only what runs after it.
pub fn reset_peak_rss() {
    // Writing 5 to clear_refs resets the peak (Linux 4.0 and later). Where
    // that fails, the reading stays the process-lifetime peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
