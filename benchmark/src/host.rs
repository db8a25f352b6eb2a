//! What the benchmark reads from the host: process CPU time and peak
//! memory from `/proc`, core count, the commit under test, and where the
//! repository root is relative to the working directory.

use std::path::{Path, PathBuf};

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`, 100
/// on every Linux ABI this repository builds on).
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds consumed by this process (all threads).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 12 and 13 after the `)`.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|v| v.parse().ok()).unwrap_or(0.0);
    (utime + stime) / CLK_TCK
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// The commit checked out at `root`, read from `.git` without spawning
/// a process; `unknown` outside a git checkout (the driver's copy).
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The repository root as a path *relative to the working directory*
/// (`.`, `..`, …): the directory holding `BENCHMARK.json`. Relative, so
/// that the Unix-socket paths built under it stay far below `sun_path`'s
/// 107 bytes however deep the checkout sits.
pub fn repo_root() -> Result<PathBuf, String> {
    let mut dir = PathBuf::from(".");
    for _ in 0..4 {
        if dir.join("BENCHMARK.json").is_file() {
            return Ok(dir);
        }
        dir = if dir == Path::new(".") { PathBuf::from("..") } else { dir.join("..") };
    }
    Err("BENCHMARK.json not found in the working directory or its parents".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive() {
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.5);
        assert!(parallelism() >= 1);
    }
}
