//! Count determinism and output-check agreement.
//!
//! Every count in `report::STABLE_COUNTS` must repeat exactly across two
//! runs and across one and two workers, and the traced sweep's digest
//! must equal the untraced sweep's. Sizes straddle the pipeline's
//! 256-domain parallel threshold so two workers really split the work.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use ccc_perfbench::report::{END_TO_END, PER_LAYER, STABLE_COUNTS};
use ccc_perfbench::{run_sweep, run_traced, setup, Workload};
use std::sync::{Mutex, MutexGuard};

/// The program's counters are process-wide, so sweeps in this file must
/// not overlap.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn counts(w: Workload, domains: usize, threads: usize) -> (Vec<(&'static str, f64)>, String) {
    let inputs = setup(w, 7, domains);
    let traced = run_traced(w, &inputs, threads);
    let sweep = run_sweep(w, &inputs, threads);
    assert_eq!(traced.failed, 0, "{} traced sweep failed checks", w.name());
    assert_eq!(sweep.failed, 0, "{} sweep failed checks", w.name());
    assert_eq!(
        traced.digest,
        sweep.digest,
        "{} traced digest differs",
        w.name()
    );
    let counts = STABLE_COUNTS
        .iter()
        .map(|&name| (name, traced.layers.get(name).copied().unwrap_or(0.0)))
        .collect();
    (counts, sweep.digest)
}

fn assert_deterministic(w: Workload, domains: usize) {
    let _serial = serial();
    let (two, digest_two) = counts(w, domains, 2);
    let (again, digest_again) = counts(w, domains, 2);
    let (one, digest_one) = counts(w, domains, 1);
    assert_eq!(two, again, "{} counts differ between runs", w.name());
    assert_eq!(
        two,
        one,
        "{} counts differ between 1 and 2 workers",
        w.name()
    );
    assert_eq!(digest_two, digest_again);
    assert_eq!(
        digest_two,
        digest_one,
        "{} digest depends on workers",
        w.name()
    );
}

#[test]
fn scan_counts_are_deterministic() {
    assert_deterministic(Workload::Scan, 300);
}

#[test]
fn chaos_counts_are_deterministic() {
    assert_deterministic(Workload::Chaos, 300);
}

#[test]
fn ingest_counts_are_deterministic() {
    assert_deterministic(Workload::Ingest, 600);
}

#[test]
fn traced_sweeps_report_their_layers() {
    let _serial = serial();
    let layer = |w: Workload, name: &str| {
        let inputs = setup(w, 7, 300);
        run_traced(w, &inputs, 2)
            .layers
            .get(name)
            .copied()
            .unwrap_or(0.0)
    };
    assert!(layer(Workload::Scan, "core.builder.busy_s") > 0.0);
    assert!(layer(Workload::Scan, "lint.findings") > 0.0);
    assert!(layer(Workload::Chaos, "netsim.fetch.attempts") > 0.0);
    assert!(layer(Workload::Chaos, "netsim.fetch.busy_s") > 0.0);
    assert!(layer(Workload::Ingest, "x509.certs_decoded") > 0.0);
    assert!(layer(Workload::Ingest, "x509.decode.busy_s") > 0.0);
    assert_eq!(layer(Workload::Ingest, "core.builder.builds"), 0.0);
}

#[test]
fn benchmark_json_lists_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert_eq!(json.matches(&entry).count(), 1, "{entry} in BENCHMARK.json");
    }
    assert_eq!(
        json.matches("\"unit\": ").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json has metrics the benchmark does not report"
    );
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
