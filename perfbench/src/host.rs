//! Host measurements (per-thread CPU time, peak memory) and the summary
//! statistics the benchmark reports.

use std::collections::BTreeMap;

/// Nanoseconds on CPU of each live thread of this process, by thread id,
/// from `/proc/self/task/*/schedstat` (nanosecond resolution, unlike the
/// 10 ms ticks of `/proc/self/stat`).
pub fn thread_cpu_ns() -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let Some(tid) = task.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let stat = std::fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
        if let Some(ns) = stat.split_whitespace().next().and_then(|s| s.parse().ok()) {
            out.insert(tid, ns);
        }
    }
    out
}

/// CPU nanoseconds all threads spent since `before` was taken. Threads
/// started since then count from zero; read this before they exit.
pub fn cpu_ns_since(before: &BTreeMap<u64, u64>) -> u64 {
    thread_cpu_ns()
        .iter()
        .map(|(tid, ns)| ns.saturating_sub(before.get(tid).copied().unwrap_or(0)))
        .sum()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The `q` quantile (0..=1) of whole-microsecond samples, each taken as
/// spread evenly over its microsecond: ties interpolate, so a quantile
/// moves with the counts around it instead of sticking to whole numbers.
/// 0 for an empty slice.
pub fn quantile_us(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = q * values.len() as f64;
    let v = values[(rank as usize).min(values.len() - 1)];
    let below = values.partition_point(|&x| x < v);
    let equal = values[below..].partition_point(|&x| x <= v);
    v - 0.5 + (rank - below as f64) / equal as f64
}

/// The median of `values`, interpolating between the middle two.
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}
