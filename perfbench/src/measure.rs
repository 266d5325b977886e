//! Process-level readings and small statistics helpers.

use std::time::Duration;

/// `/proc` reports CPU time in USER_HZ ticks, fixed at 100 on Linux.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far, from
/// `/proc/self/stat` (0 where procfs is unavailable).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 of this tail.
    let tail = stat.rsplit_once(')').map_or("", |(_, t)| t);
    let fields: Vec<&str> = tail.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) in MiB (0 where procfs is
/// unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of `values` (0 for an empty
/// slice).
pub fn percentile(values: &[u64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Lower-case hex SHA-256 of `text`.
pub fn digest(text: &str) -> String {
    ccc_crypto::sha256(text.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Nanoseconds in `d`, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Run `f` and return its result with the wall time and process CPU
/// seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration, f64) {
    let cpu0 = cpu_seconds();
    let t0 = std::time::Instant::now();
    let out = f();
    let wall = t0.elapsed();
    (out, wall, cpu_seconds() - cpu0)
}
