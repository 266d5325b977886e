//! Chaos-pass guarantees (ISSUE 6 acceptance criteria):
//!
//! 1. **Thread invariance** — the [`ChaosSummary`] for a given corpus
//!    seed + fault-plan seed is identical for worker counts {1, 3, 8}:
//!    every fetch outcome is a pure function of (plan seed, URI, attempt)
//!    and latency runs on per-build simulated clocks, never wall time.
//! 2. **Sequential identity** — every scenario of the standard sweep
//!    counts exactly what plain sequential [`ChainEngine::process`] runs
//!    over a fresh [`FaultyTransport`] produce, one build at a time; the
//!    zero-fault baseline additionally shows no retries, no simulated
//!    latency and no budget exhaustion.
//! 3. **Resilience split** — under heavy transient faults, retrying
//!    profiles (Chrome/Edge, 3 attempts) recover chains that the
//!    non-retrying CryptoAPI profile loses, and the recovery counter
//!    attributes them.
//! 4. **Golden table** — the standard-sweep table at 1000 domains is
//!    pinned byte for byte at 1 and 8 workers. To regenerate after an
//!    intentional output change:
//!
//!    ```text
//!    CCC_BLESS=1 cargo test -p ccc-bench --test chaos_determinism
//!    ```
//!
//! [`ChainEngine::process`]: ccc_core::ChainEngine::process

use ccc_bench::{scan_corpus, ChaosClientCell, ChaosSummary, FaultPass, FaultScenario, Pipeline};
use ccc_core::clients::{client_profiles, ClientKind};
use ccc_core::leaf::cert_covers_domain;
use ccc_core::{BuildContext, IssuanceChecker};
use ccc_netsim::FaultyTransport;
use ccc_testgen::corpus::scan_time;
use ccc_testgen::Corpus;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Worker counts exercised: degenerate (1), odd/non-divisor (3), and more
/// workers than this container has cores (8).
const THREAD_COUNTS: [usize; 3] = [1, 3, 8];

fn chaos(corpus: &Corpus, scenarios: Vec<FaultScenario>, threads: usize) -> ChaosSummary {
    let checker = IssuanceChecker::new();
    let (pass, stats) = Pipeline::new(threads).run(corpus, &checker, FaultPass::new(scenarios));
    assert_eq!(stats.observations, corpus.spec.domains);
    pass.into_summary()
}

#[test]
fn chaos_summary_is_thread_invariant() {
    // 300 domains: above the 256-domain threshold, so workers really run.
    let corpus = scan_corpus(300);
    let reference = chaos(&corpus, FaultScenario::standard_sweep(&corpus), THREAD_COUNTS[0]);
    assert_eq!(reference.total, 300);
    for &threads in &THREAD_COUNTS[1..] {
        let summary = chaos(&corpus, FaultScenario::standard_sweep(&corpus), threads);
        assert_eq!(summary, reference, "threads={threads} diverged");
    }
}

#[test]
fn scenario_free_sweep_counts_every_worker() {
    // Regression: with no scenarios the root and worker summaries both
    // have empty scenario lists, and merging used to replace the root's
    // total with the last worker's instead of adding them.
    let corpus = scan_corpus(300);
    let checker = IssuanceChecker::new();
    let (pass, stats) = Pipeline::new(2).run(&corpus, &checker, FaultPass::new(vec![]));
    assert_eq!(stats.threads, 2);
    assert_eq!(pass.into_summary().total, 300);
}

#[test]
fn zero_fault_scenario_matches_plain_sequential_builds() {
    let corpus = scan_corpus(120);
    let scenarios = FaultScenario::standard_sweep(&corpus);
    let summary = chaos(&corpus, scenarios.clone(), 1);

    // Reference: a hand-rolled sequential sweep, one `process` call per
    // build over a fresh transport per scenario.
    let checker = IssuanceChecker::new();
    let cache = corpus.intermediate_cache();
    let clients = client_profiles();
    for (scenario, measured) in scenarios.iter().zip(&summary.scenarios) {
        let transport = FaultyTransport::new(&corpus.aia, scenario.plan.clone());
        let ctx = BuildContext {
            store: corpus.programs.unified(),
            aia: Some(&transport),
            cache: &cache,
            now: scan_time(),
            checker: &checker,
        };
        let mut cells: BTreeMap<ClientKind, ChaosClientCell> = BTreeMap::new();
        for rank in 0..corpus.spec.domains {
            let obs = corpus.observation(rank);
            let covers = obs
                .served
                .first()
                .map(|leaf| cert_covers_domain(leaf, &obs.domain))
                .unwrap_or(false);
            for (kind, engine) in &clients {
                let outcome = engine.process(&obs.served, &ctx);
                let stats = outcome.stats;
                let cell = cells.entry(*kind).or_default();
                if outcome.accepted() && covers {
                    cell.passes += 1;
                    cell.recovered += usize::from(stats.aia_retries > 0);
                }
                cell.aia_attempts += stats.aia_attempts;
                cell.aia_fetches += stats.aia_fetches;
                cell.aia_retries += stats.aia_retries;
                cell.budget_exhausted += usize::from(stats.aia_budget_exhausted);
                cell.sim_latency_ms += stats.sim_latency_ms;
            }
        }

        assert_eq!(measured.label, scenario.label);
        assert_eq!(measured.fault_rate, scenario.fault_rate);
        for kind in ClientKind::ALL {
            assert_eq!(
                measured.per_client[&kind],
                cells[&kind],
                "{} / {}",
                scenario.label,
                kind.name()
            );
        }
    }

    // The zero-fault transport never reports Transient, so the baseline's
    // retry loop must never have engaged.
    let baseline = &summary.scenarios[0];
    assert_eq!(baseline.fault_rate, 0.0);
    for kind in ClientKind::ALL {
        let cell = baseline.per_client[&kind];
        assert_eq!(cell.recovered, 0);
        assert_eq!(cell.aia_retries, 0);
        assert_eq!(cell.sim_latency_ms, 0);
        assert_eq!(cell.budget_exhausted, 0);
    }
}

fn chaos_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chaos.txt")
}

#[test]
fn standard_sweep_table_matches_its_golden_at_1_and_8_workers() {
    let corpus = scan_corpus(1_000);
    let table =
        |threads| chaos(&corpus, FaultScenario::standard_sweep(&corpus), threads).render_table();
    let path = chaos_golden_path();
    if std::env::var("CCC_BLESS").is_ok() {
        std::fs::write(&path, table(1)).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with CCC_BLESS=1 to create it",
            path.display()
        )
    });
    for threads in [1, 8] {
        assert_eq!(
            table(threads),
            golden,
            "the chaos table drifted from its golden at {threads} worker(s); re-bless with \
             CCC_BLESS=1 only if the change is intentional"
        );
    }
}

#[test]
fn retrying_clients_recover_transient_chains() {
    let corpus = scan_corpus(400);
    let scenarios = vec![
        FaultScenario::for_corpus(&corpus, 0.0),
        FaultScenario::for_corpus(&corpus, 1.0),
    ];
    let summary = chaos(&corpus, scenarios, 2);

    let baseline = &summary.scenarios[0];
    let faulty = &summary.scenarios[1];
    let chrome = faulty.per_client[&ClientKind::Chrome];
    let cryptoapi = faulty.per_client[&ClientKind::CryptoApi];

    // Scenarios are independent: the baseline is untouched by the faulty
    // transport running in the same sweep.
    assert_eq!(baseline.per_client[&ClientKind::Chrome].aia_retries, 0);
    assert_eq!(baseline.per_client[&ClientKind::Chrome].sim_latency_ms, 0);

    // The I-4 split: Chrome's 3 attempts ride out every transient URI
    // (plans cap transient failures at 2), CryptoAPI's single shot loses
    // all of them. `recovered` attributes exactly those rescued chains.
    assert!(chrome.aia_retries > 0, "fault rate 1.0 must force retries");
    assert!(chrome.recovered > 0, "retries must rescue at least one chain");
    assert!(
        chrome.passes > cryptoapi.passes,
        "retrying Chrome ({}) must beat non-retrying CryptoAPI ({})",
        chrome.passes,
        cryptoapi.passes
    );
    assert_eq!(cryptoapi.aia_retries, 0);
    assert_eq!(cryptoapi.recovered, 0);
    assert!(
        chrome.passes - cryptoapi.passes >= chrome.recovered.min(1),
        "the pass gap must cover the recovered chains"
    );
    // Latency only accrues where faults exist.
    assert!(chrome.sim_latency_ms > 0);

    // The rendered table carries the headline counters.
    let table = summary.render_table();
    assert!(table.contains("Chrome"), "{table}");
    assert!(table.contains("recovered"), "{table}");
    assert!(table.contains("fault 100%"), "{table}");
}
