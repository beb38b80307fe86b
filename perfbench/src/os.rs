//! What the benchmark reads from the operating system.

/// High-water resident set of process `pid` (`"self"` for this process)
/// in MiB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// Worker threads and client connections: one per core, as the sweep
/// layer's own default would pick on this host.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    #[test]
    fn own_peak_rss_is_readable() {
        let mb = super::peak_rss_mb("self").unwrap();
        assert!(mb > 0.1 && mb < 1e6, "{mb}");
    }
}
