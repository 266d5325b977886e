//! Property and invariance tests for corpus-wide linting.
//!
//! The two load-bearing properties:
//! 1. **Equivalence**: a chain is non-compliant per `analyze_compliance`
//!    iff linting yields ≥1 Error-severity finding — over arbitrary corpus
//!    seeds, not just the scan seed.
//! 2. **Composition**: `LintSummary` over a rank range equals the merge of
//!    its sub-ranges, the associativity the pipeline's worker merge relies
//!    on. Thread invariance of the pipeline's `LintPass` itself is pinned
//!    at 1/3/8 workers by `ccc-bench`'s `pipeline_equivalence` suite.

use ccc_core::IssuanceChecker;
use ccc_lint::{LintSummary, Severity};
use ccc_testgen::{Corpus, CorpusSpec};
use proptest::prelude::*;
use ccc_mc::OnceLock;

/// Shared 1000-domain scan corpus (seed 833, the bench harness seed);
/// built once, reused by the heavier tests below.
fn scan_corpus_1k() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| Corpus::new(CorpusSpec::calibrated(833, 1000)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Equivalence holds for arbitrary corpus seeds: every compliant
    // chain lints clean of errors, every non-compliant chain produces at
    // least one error finding, and the mapped chain rule fires.
    #[test]
    fn lint_compliance_equivalence_over_seeds(seed in 1u64..5000) {
        let corpus = Corpus::new(CorpusSpec::calibrated(seed, 64));
        let checker = IssuanceChecker::new();
        let s = LintSummary::compute_range(&corpus, &checker, 0, 64);
        prop_assert!(s.is_consistent(), "{:?}", s.consistency_violations);
        prop_assert_eq!(s.noncompliant_chains, s.chains_with_error);
        prop_assert_eq!(s.error_findings.len(), s.severity_count(Severity::Error));
    }

    // Partial-range lints compose: linting [0, n) equals merging the
    // histograms of [0, k) and [k, n) — the associativity the pipeline's
    // worker merge relies on.
    #[test]
    fn range_splits_compose(split in 1usize..63) {
        let corpus = Corpus::new(CorpusSpec::calibrated(97, 64));
        let checker = IssuanceChecker::new();
        let whole = LintSummary::compute_range(&corpus, &checker, 0, 64);
        let left = LintSummary::compute_range(&corpus, &checker, 0, split);
        let right = LintSummary::compute_range(&corpus, &checker, split, 64);
        prop_assert_eq!(
            whole.findings_total,
            left.findings_total + right.findings_total
        );
        prop_assert_eq!(
            whole.noncompliant_chains,
            left.noncompliant_chains + right.noncompliant_chains
        );
        prop_assert_eq!(
            whole.error_findings.len(),
            left.error_findings.len() + right.error_findings.len()
        );
    }
}

/// The ISSUE's 1k-domain cross-check: the full scan corpus at 1000
/// domains upholds the equivalence contract and produces a sane
/// severity mix.
#[test]
fn scan_corpus_1k_lint_is_consistent() {
    let corpus = scan_corpus_1k();
    let checker = IssuanceChecker::new();
    let s = LintSummary::compute_range(corpus, &checker, 0, 1000);
    assert_eq!(s.total, 1000);
    assert!(s.is_consistent(), "{:?}", s.consistency_violations);
    assert_eq!(s.noncompliant_chains, s.chains_with_error);
    // The calibrated corpus plants every defect class at low rates; at 1k
    // domains some errors and plenty of notices/warnings exist.
    assert!(s.severity_count(Severity::Error) > 0);
    assert!(s.findings_total > s.severity_count(Severity::Error));
}

/// Fingerprints are content-derived: two independent passes over the
/// same corpus, with their own checkers and different range splits,
/// produce identical error-finding fingerprints, so a baseline written by
/// one run suppresses the other.
#[test]
fn baselines_transfer_between_runs() {
    let corpus = scan_corpus_1k();
    let first = LintSummary::compute_range(corpus, &IssuanceChecker::new(), 0, 1000);
    let checker = IssuanceChecker::new();
    let mut second = LintSummary::compute_range(corpus, &checker, 0, 400);
    second.merge(LintSummary::compute_range(corpus, &checker, 400, 1000));
    let baseline = ccc_lint::Baseline::from_findings(first.error_findings.iter());
    let remaining = baseline.filter(second.error_findings);
    assert!(remaining.is_empty(), "{} unsuppressed", remaining.len());
}
