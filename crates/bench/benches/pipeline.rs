//! Criterion benchmark for the fused analysis pipeline: one
//! single-generation sweep fanning to three passes vs. three sequential
//! single-pass sweeps, each regenerating the corpus and verifying leaf
//! signatures from a cold cache.
//!
//! The fused summaries must equal the sequential ones — asserted before
//! timing so a fusion that drifts can't "win". The corpus is small so
//! `cargo bench --bench pipeline -- --test` stays cheap in CI.

use ccc_bench::{
    CompliancePass, CorpusSummary, DifferentialPass, DifferentialSummary, LintPass, Pipeline,
};
use ccc_core::IssuanceChecker;
use ccc_lint::LintSummary;
use ccc_testgen::{Corpus, CorpusSpec};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

/// Small corpus: large enough that generation cost dominates per-pass
/// bookkeeping, small enough for bench smoke runs.
const DOMAINS: usize = 200;
const SEED: u64 = 833;

/// Three single-pass sweeps, each with a fresh checker: every pass pays
/// full observation generation + leaf signature verification.
fn sequential_3_passes(corpus: &Corpus) -> (CorpusSummary, DifferentialSummary, LintSummary) {
    let pipeline = Pipeline::from_env();
    let c1 = IssuanceChecker::new();
    let compliance = pipeline.run(corpus, &c1, CompliancePass::new()).0.into_summary();
    let c2 = IssuanceChecker::new();
    let differential = pipeline.run(corpus, &c2, DifferentialPass::new()).0.into_summary();
    let c3 = IssuanceChecker::new();
    let lint = pipeline.run(corpus, &c3, LintPass::new()).0.into_summary();
    (compliance, differential, lint)
}

/// One fused sweep: observations generated once, one shared cache.
fn fused_3_passes(corpus: &Corpus) -> (CorpusSummary, DifferentialSummary, LintSummary) {
    let checker = IssuanceChecker::new();
    let ((compliance, differential, lint), _stats) = Pipeline::from_env().run(
        corpus,
        &checker,
        (CompliancePass::new(), DifferentialPass::new(), LintPass::new()),
    );
    (compliance.into_summary(), differential.into_summary(), lint.into_summary())
}

fn bench_fused_vs_sequential(c: &mut Criterion) {
    let corpus = Corpus::new(CorpusSpec::calibrated(SEED, DOMAINS));

    let (seq_compliance, seq_differential, seq_lint) = sequential_3_passes(&corpus);
    let (compliance, differential, lint) = fused_3_passes(&corpus);
    assert_eq!(compliance, seq_compliance, "fused compliance summary drifted");
    assert_eq!(differential, seq_differential, "fused differential summary drifted");
    assert_eq!(lint, seq_lint, "fused lint summary drifted");

    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.throughput(Throughput::Elements(DOMAINS as u64));
    group.bench_function("sequential_3_passes", |b| {
        b.iter(|| std::hint::black_box(sequential_3_passes(&corpus)))
    });
    group.bench_function("fused_3_passes", |b| {
        b.iter(|| std::hint::black_box(fused_3_passes(&corpus)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_fused_vs_sequential
}
criterion_main!(benches);
