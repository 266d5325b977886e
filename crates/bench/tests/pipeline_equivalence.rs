//! Fused-pipeline equivalence guarantees (DESIGN.md §12):
//!
//! 1. Running the three analysis passes **fused** — one generation sweep,
//!    one shared checker, shared per-observation memo — is *bit-identical*
//!    to running each pass alone in its own `Pipeline::run` with a fresh
//!    checker, for every worker count. The lint side is additionally
//!    pinned to `LintSummary::compute_range`, the sequential reference
//!    that builds its own topology with no memo.
//! 2. The guarantee holds on both sides of the 256-domain parallelism
//!    threshold and is seed-independent (property test).
//!
//! This is the contract that lets `chain-chaos repro`, `table_lint` and
//! `benches/pipeline.rs` fuse passes while every table's output stays
//! what that pass computes alone.

use ccc_bench::{
    scan_corpus, AnalysisPass, CompliancePass, CorpusSummary, DifferentialPass,
    DifferentialSummary, LintPass, Pipeline,
};
use ccc_core::IssuanceChecker;
use ccc_lint::LintSummary;
use ccc_testgen::{Corpus, CorpusSpec};
use proptest::prelude::*;

/// Worker counts exercised: degenerate (1), odd/non-divisor (3), and more
/// workers than this container has cores (8).
const THREAD_COUNTS: [usize; 3] = [1, 3, 8];

/// One pass alone in its own sweep, with a fresh checker.
fn alone<'c, P: AnalysisPass<'c>>(
    corpus: &'c Corpus,
    checker: &'c IssuanceChecker,
    threads: usize,
    pass: P,
) -> P {
    let (pass, stats) = Pipeline::new(threads).run(corpus, checker, pass);
    assert_eq!(stats.passes, 1);
    pass
}

/// Standalone reference summaries: each pass in a single-pass sweep with
/// its own fresh checker, and lint also through the sequential
/// `LintSummary::compute_range` reference (which must agree).
fn standalone(
    corpus: &Corpus,
    threads: usize,
) -> (CorpusSummary, DifferentialSummary, LintSummary) {
    let (c1, c2, c3) = (IssuanceChecker::new(), IssuanceChecker::new(), IssuanceChecker::new());
    let compliance = alone(corpus, &c1, threads, CompliancePass::new()).into_summary();
    let differential = alone(corpus, &c2, threads, DifferentialPass::new()).into_summary();
    let lint = alone(corpus, &c3, threads, LintPass::new()).into_summary();
    let reference = LintSummary::compute_range(corpus, &IssuanceChecker::new(), 0, corpus.spec.domains);
    assert_eq!(lint, reference, "LintPass diverged from compute_range (threads={threads})");
    (compliance, differential, lint)
}

/// One fused sweep with all three passes registered.
fn fused(
    corpus: &Corpus,
    threads: usize,
) -> (CorpusSummary, DifferentialSummary, LintSummary) {
    let checker = IssuanceChecker::new();
    let ((c, d, l), stats) = Pipeline::new(threads).run(
        corpus,
        &checker,
        (CompliancePass::new(), DifferentialPass::new(), LintPass::new()),
    );
    assert_eq!(stats.passes, 3);
    (c.into_summary(), d.into_summary(), l.into_summary())
}

#[test]
fn fused_pipeline_is_bit_identical_to_standalone_passes() {
    // 200 stays below the 256-domain parallelism threshold (every thread
    // count takes the sequential path); 272 is above it, so the chunked
    // rank-range merge is exercised too.
    for domains in [200usize, 272] {
        let corpus = scan_corpus(domains);
        // The reference is thread-count-independent (guaranteed by
        // parallel_equivalence.rs), so compute it once at threads=1.
        let (ref_c, ref_d, ref_l) = standalone(&corpus, 1);
        assert_eq!(ref_c.total, domains);
        for threads in THREAD_COUNTS {
            let (fc, fd, fl) = fused(&corpus, threads);
            assert_eq!(fc, ref_c, "compliance diverged (domains={domains}, threads={threads})");
            assert_eq!(fd, ref_d, "differential diverged (domains={domains}, threads={threads})");
            assert_eq!(fl, ref_l, "lint diverged (domains={domains}, threads={threads})");
        }
    }
}

#[test]
fn fused_pipeline_matches_standalone_at_matching_thread_counts() {
    // Same comparison, but with the standalone side also parallel — the
    // configuration the CI job re-runs under CCC_THREADS=8.
    let corpus = scan_corpus(272);
    for threads in THREAD_COUNTS {
        let (ref_c, ref_d, ref_l) = standalone(&corpus, threads);
        let (fc, fd, fl) = fused(&corpus, threads);
        assert_eq!(fc, ref_c, "compliance diverged (threads={threads})");
        assert_eq!(fd, ref_d, "differential diverged (threads={threads})");
        assert_eq!(fl, ref_l, "lint diverged (threads={threads})");
    }
}

// Seed-independence: whatever corpus the generator produces, fused and
// standalone agree. Small corpora keep the property test fast while still
// covering the interesting chain-defect variety.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn fused_equivalence_holds_for_arbitrary_seeds(seed in 0u64..10_000, domains in 40usize..90) {
        let corpus = Corpus::new(CorpusSpec::calibrated(seed, domains));
        let (ref_c, ref_d, ref_l) = standalone(&corpus, 1);
        let (fc, fd, fl) = fused(&corpus, 3);
        prop_assert_eq!(fc, ref_c);
        prop_assert_eq!(fd, ref_d);
        prop_assert_eq!(fl, ref_l);
    }
}
