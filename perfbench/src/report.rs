//! Metric names, units and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), name and unit, in `BENCHMARK.json`
/// order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("domains_per_s", "1/s"),
    ("cpu_s_per_kdomain", "s"),
    ("peak_rss_mb", "MB"),
    ("chain_p50_us", "us"),
    ("chain_p99_us", "us"),
];

/// Per-layer metrics (`--trace 1`), name and unit, in `BENCHMARK.json`
/// order. `worker-s` is time summed across workers, not wall time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.sweep.wall_s", "s"),
    ("testgen.observation.busy_s", "worker-s"),
    ("testgen.observation.p50_us", "us"),
    ("x509.decode.busy_s", "worker-s"),
    ("x509.decode.mb_per_s", "MB/s"),
    ("x509.certs_decoded", "count"),
    ("core.topology.busy_s", "worker-s"),
    ("core.checker.lookups", "count"),
    ("core.checker.verifications", "count"),
    ("core.checker.entries", "count"),
    ("core.checker.hit_ratio", "ratio"),
    ("crypto.verify.fixed_base_hits", "count"),
    ("crypto.verify.cold_multiexps", "count"),
    ("crypto.verify.tables_built", "count"),
    ("crypto.verify.batched_verifies", "count"),
    ("crypto.verify.batch_flushes", "count"),
    ("crypto.verify.items_per_flush", "ratio"),
    ("crypto.verify.prefetch_busy_s", "worker-s"),
    ("core.compliance.busy_s", "worker-s"),
    ("lint.busy_s", "worker-s"),
    ("lint.findings", "count"),
    ("core.builder.busy_s", "worker-s"),
    ("core.builder.builds", "count"),
    ("core.builder.candidates_per_build", "ratio"),
    ("core.builder.backtracks", "count"),
    ("core.builder.accepted_ratio", "ratio"),
    ("netsim.fetch.busy_s", "worker-s"),
    ("netsim.fetch.attempts", "count"),
    ("netsim.fetch.success_ratio", "ratio"),
    ("netsim.fetch.retries", "count"),
    ("netsim.sim_latency_ms", "sim-ms"),
    ("bench.pipeline.idle_s", "worker-s"),
    ("bench.pipeline.worker_skew", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// Per-layer readings of one traced sweep, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Count metrics: exact for a fixed seed and input size, whatever the
/// worker count or run. The crypto route counters are left out on
/// purpose: key tables and verify ordinals are process-wide, so they
/// depend on what the process verified before the sweep.
pub const STABLE_COUNTS: &[&str] = &[
    "x509.certs_decoded",
    "core.checker.verifications",
    "core.checker.entries",
    "lint.findings",
    "core.builder.builds",
    "core.builder.backtracks",
    "core.builder.candidates_per_build",
    "netsim.fetch.attempts",
    "netsim.fetch.retries",
    "netsim.sim_latency_ms",
];

/// Unit of a metric name from either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric of `names`, read from `values`.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    names: &[(&str, &str)],
    values: &BTreeMap<&str, f64>,
) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = values.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_units_known() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert_eq!(unit_of(name), *unit);
        }
        for name in STABLE_COUNTS {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut v = BTreeMap::new();
        v.insert("setup_s", 0.5);
        v.insert("domains_per_s", 1.0 / 3.0);
        let line = result_line(true, 10, 0, &END_TO_END[..2], &v);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.5, \"unit\": \"s\"}, \"domains_per_s\": {\"value\": 0.3333333333333333, \
             \"unit\": \"1/s\"}}}"
        );
    }
}
