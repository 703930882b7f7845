//! What a run ran on, and process counters read from `/proc` only.
//!
//! Every run prints a fingerprint of its host and build (core count, AVX2,
//! CPU model, the `RIDFA_NO_SIMD` switch, commit or source hash, seed), so
//! results from a changed host or default show instead of comparing
//! silently.

use std::path::Path;
use std::time::Duration;

/// The host fingerprint line.
pub fn fingerprint(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let no_simd = std::env::var("RIDFA_NO_SIMD").unwrap_or_else(|_| "unset".into());
    format!(
        "host nproc={nproc} avx2={} simd_enabled={} cpu={:?} RIDFA_NO_SIMD={no_simd} commit={} source_fnv={:016x} seed={seed}",
        avx2(),
        ridfa::automata::simd::enabled(),
        cpu_model(),
        commit(),
        source_hash(),
    )
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, when the working directory is a git checkout.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "none".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the library's sources and manifests (paths and contents,
/// in sorted order): identifies the code under test where no commit is
/// at hand.
fn source_hash() -> u64 {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates"] {
        collect(Path::new(root), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let content = std::fs::read(&file).unwrap_or_default();
        for byte in file.to_string_lossy().bytes().chain(content) {
            hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn collect(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_dir() {
        let Ok(entries) = std::fs::read_dir(path) else {
            return;
        };
        for entry in entries.flatten() {
            collect(&entry.path(), out);
        }
    } else if path
        .extension()
        .is_some_and(|e| e == "rs" || e == "toml" || e == "lock")
    {
        out.push(path.to_path_buf());
    }
}

/// CPU time of the process: the scheduler's nanosecond run-time counters
/// (`/proc/self/task/*/schedstat`) summed over its live threads. Exact,
/// unlike tick-sampled `utime`/`stime`, but blind to threads that have
/// exited — so a measured phase reads it before any of its threads end.
pub fn cpu_time() -> Duration {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Duration::ZERO;
    };
    let ns: u64 = tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    Duration::from_nanos(ns)
}

/// The machine's CPU time stolen by the hypervisor and its total CPU
/// time, in ticks, from the first line of `/proc/stat`. A measured phase
/// with a large stolen share ran on a contended host.
pub fn steal_and_total_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice,
    // already counted in user and nice]
    let steal = ticks.get(7).copied().unwrap_or(0);
    (steal, ticks.iter().take(8).sum())
}

/// Peak resident set size (`VmHWM`) in bytes.
pub fn peak_rss_bytes() -> u64 {
    status_field(Path::new("/proc/self/status"), "VmHWM:").map_or(0, |kib| kib * 1024)
}

/// Voluntary context switches summed over the process's live threads.
pub fn voluntary_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| status_field(&task.path().join("status"), "voluntary_ctxt_switches:"))
        .sum()
}

fn status_field(path: &Path, key: &str) -> Option<u64> {
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_are_readable() {
        let busy = std::time::Instant::now();
        while busy.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(0u64);
        }
        assert!(cpu_time() > Duration::ZERO);
        assert!(peak_rss_bytes() > 0);
        assert!(voluntary_switches() > 0 || std::fs::metadata("/proc/self/task").is_ok());
    }

    #[test]
    fn fingerprint_names_the_seed() {
        assert!(fingerprint(42).ends_with("seed=42"));
    }
}
