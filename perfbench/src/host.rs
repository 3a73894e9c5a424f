//! Host and process stamp: CPU count and model, resident set sizes.

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The first `model name` line of `/proc/cpuinfo`, or `unknown`.
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

/// A `/proc/self/status` field in MB (the kernel reports kB); 0 when the
/// file or field is missing.
fn status_mb(field: &str) -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/status") else { return 0.0 };
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Current resident set size, MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Peak resident set size of the process so far, MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}
