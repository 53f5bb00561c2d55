//! Host fingerprint and the process's peak resident set.
//!
//! Both read the kernel's description of this process and CPU
//! (`/proc/self/status`, `/proc/cpuinfo`, `/sys/devices/system/cpu`); a
//! field the kernel does not provide reads as `unknown`.

use std::fmt::Write as _;

/// What a timing depends on besides the code, as one line of `key=value`
/// fields separated by `; `: two results are comparable only when their
/// fingerprints are equal. `caches` lists `L<level><d|i|u>=<size>` per
/// cache of CPU 0, ascending.
pub fn fingerprint() -> String {
    format!(
        "nproc={}; cpu={}; caches={}; kernel={}; features={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        cpu_model().unwrap_or_else(|| "unknown".into()),
        caches().unwrap_or_else(|| "unknown".into()),
        lts_sem::simd::active().name(),
        lts_sem::simd::cpu_features()
    )
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
        .map(|(_, m)| m.trim().replace(';', ","))
}

fn caches() -> Option<String> {
    let mut out = String::new();
    for i in 0.. {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let Some(level) = read("level") else { break };
        let kind = match read("type").as_deref().map(str::trim) {
            Some("Data") => "d",
            Some("Instruction") => "i",
            _ => "u",
        };
        let size = read("size").unwrap_or_default();
        if !out.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "L{}{kind}={}", level.trim(), size.trim());
    }
    (!out.is_empty()).then_some(out)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
