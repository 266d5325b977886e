//! Cross-crate consistency of the calibrated corpus: compliance analysis,
//! differential testing, and root-store completeness must agree with the
//! generator's ground truth.

use chain_chaos::core::clients::ClientKind;
use chain_chaos::core::{
    analyze_compliance, CompletenessAnalyzer, DifferentialHarness, IssuanceChecker,
    TopologyGraph,
};
use chain_chaos::rootstore::RootProgram;
use chain_chaos::testgen::corpus::scan_time;
use chain_chaos::testgen::{Corpus, CorpusSpec, PlannedDefect};

fn corpus(n: usize) -> Corpus {
    Corpus::new(CorpusSpec::calibrated(4242, n))
}

#[test]
fn compliant_observations_accepted_by_every_client() {
    let corpus = corpus(300);
    let checker = IssuanceChecker::new();
    let cache = corpus.intermediate_cache();
    let mut harness = DifferentialHarness::new(
        corpus.programs.unified(),
        Some(&corpus.aia),
        cache,
        scan_time(),
        &checker,
    );
    let analyzer =
        CompletenessAnalyzer::new(&checker, corpus.programs.unified(), Some(&corpus.aia));
    let mut checked = 0;
    corpus.for_each(|obs| {
        if obs.planned != PlannedDefect::None || obs.terminal_akid_absent {
            return;
        }
        let report = analyze_compliance(&obs.domain, &obs.served, &checker, &analyzer);
        assert!(report.is_compliant(), "{}: {:?}", obs.domain, report.findings);
        let result = harness.run(&obs.served);
        for (kind, outcome) in &result.outcomes {
            assert!(
                outcome.accepted(),
                "{} rejected compliant {}: {:?}",
                kind.name(),
                obs.domain,
                outcome.verdict
            );
        }
        checked += 1;
    });
    assert!(checked > 150, "too few compliant observations: {checked}");
}

#[test]
fn akid_absent_chains_need_aia_for_completeness() {
    let corpus = corpus(600);
    let checker = IssuanceChecker::new();
    let with_aia =
        CompletenessAnalyzer::new(&checker, corpus.programs.unified(), Some(&corpus.aia));
    let without_aia = CompletenessAnalyzer::new(&checker, corpus.programs.unified(), None);
    let mut checked = 0;
    corpus.for_each(|obs| {
        if !obs.terminal_akid_absent || obs.planned != PlannedDefect::None {
            return;
        }
        // Skip deployments that appended the root (self-signed terminal
        // needs no AKID matching).
        if obs.served.last().map(|c| c.is_self_issued()).unwrap_or(true) {
            return;
        }
        let graph = TopologyGraph::build(&obs.served, &checker);
        assert!(with_aia.client_complete(&graph), "{} with AIA", obs.domain);
        assert!(
            !without_aia.client_complete(&graph),
            "{} without AIA should be unanchorable",
            obs.domain
        );
        checked += 1;
    });
    assert!(checked > 50, "too few AKID-absent observations: {checked}");
}

#[test]
fn incomplete_chains_fail_non_aia_libraries() {
    let corpus = corpus(2000);
    let checker = IssuanceChecker::new();
    let mut harness = DifferentialHarness::new(
        corpus.programs.unified(),
        Some(&corpus.aia),
        corpus.intermediate_cache(),
        scan_time(),
        &checker,
    );
    let mut seen = 0;
    corpus.for_each(|obs| {
        if obs.planned != PlannedDefect::Incomplete {
            return;
        }
        seen += 1;
        let result = harness.run(&obs.served);
        let get = |k: ClientKind| {
            result
                .outcomes
                .iter()
                .find(|(kind, _)| *kind == k)
                .map(|(_, o)| o.accepted())
                .unwrap()
        };
        assert!(!get(ClientKind::OpenSsl), "{}", obs.domain);
        assert!(!get(ClientKind::GnuTls), "{}", obs.domain);
        assert!(!get(ClientKind::MbedTls), "{}", obs.domain);
        // AIA clients succeed unless the AIA chain itself is broken
        // (missing field / dead URI variants) — then nobody does.
        let aia_ok = obs
            .served
            .first()
            .and_then(|c| c.aia_ca_issuers_uri().map(|u| !u.contains("/dead/")))
            .unwrap_or(false);
        if aia_ok {
            assert!(get(ClientKind::Chrome), "{} should AIA-complete", obs.domain);
            assert!(get(ClientKind::CryptoApi), "{}", obs.domain);
        } else {
            assert!(!get(ClientKind::Chrome), "{} unfixable", obs.domain);
        }
    });
    assert!(seen >= 10, "too few incomplete observations: {seen}");
}

#[test]
fn regional_chains_are_store_sensitive() {
    // Crank the regional rate so a small corpus contains them.
    let mut spec = CorpusSpec::calibrated(7, 400);
    spec.regional_mz_rate = 0.05;
    let corpus = Corpus::new(spec);
    let checker = IssuanceChecker::new();
    let mut seen = 0;
    corpus.for_each(|obs| {
        if obs.ca != "Regional (MZ-excluded)" {
            return;
        }
        seen += 1;
        let graph = TopologyGraph::build(&obs.served, &checker);
        let unified =
            CompletenessAnalyzer::new(&checker, corpus.programs.unified(), Some(&corpus.aia));
        let mozilla = CompletenessAnalyzer::new(
            &checker,
            corpus.programs.store(RootProgram::Mozilla),
            Some(&corpus.aia),
        );
        let microsoft = CompletenessAnalyzer::new(
            &checker,
            corpus.programs.store(RootProgram::Microsoft),
            Some(&corpus.aia),
        );
        assert!(unified.client_complete(&graph), "{}", obs.domain);
        assert!(!mozilla.client_complete(&graph), "{}", obs.domain);
        assert!(microsoft.client_complete(&graph), "{}", obs.domain);
    });
    assert!(seen >= 5, "regional population missing: {seen}");
}

#[test]
fn corpus_streaming_matches_collect() {
    let corpus = corpus(50);
    let collected = corpus.collect();
    let mut streamed = Vec::new();
    corpus.for_each(|obs| streamed.push(obs));
    assert_eq!(collected.len(), streamed.len());
    for (a, b) in collected.iter().zip(&streamed) {
        assert_eq!(a.served, b.served);
        assert_eq!(a.planned, b.planned);
        assert_eq!(a.ca, b.ca);
    }
}
