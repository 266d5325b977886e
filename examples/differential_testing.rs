//! Differential testing of real-world-shaped chains — the miniature of
//! the paper's Section 5.2.
//!
//! Generates a synthetic corpus, selects the non-compliant chains, runs
//! all eight client profiles on each, and reports agreement rates and the
//! I-1…I-4 root causes of discrepancies.
//!
//! Run with: `cargo run --release --example differential_testing [domains]`

use chain_chaos::core::report::{count_pct, TextTable};
use chain_chaos::core::{
    analyze_compliance, CompletenessAnalyzer, DifferentialHarness, DifferentialReport,
    IssuanceChecker,
};
use chain_chaos::testgen::corpus::scan_time;
use chain_chaos::testgen::{Corpus, CorpusSpec};

fn main() {
    let domains: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);
    eprintln!("generating {domains} domains and differential-testing the non-compliant ones…");

    let corpus = Corpus::new(CorpusSpec::calibrated(833, domains));
    let checker = IssuanceChecker::new();
    let analyzer =
        CompletenessAnalyzer::new(&checker, corpus.programs.unified(), Some(&corpus.aia));
    let cache = corpus.intermediate_cache();
    let mut harness = DifferentialHarness::new(
        corpus.programs.unified(),
        Some(&corpus.aia),
        cache,
        scan_time(),
        &checker,
    );

    let mut report = DifferentialReport::default();
    let mut non_compliant = 0usize;
    let mut examples: Vec<(String, String)> = Vec::new();
    corpus.for_each(|obs| {
        let compliance = analyze_compliance(&obs.domain, &obs.served, &checker, &analyzer);
        if compliance.is_compliant() {
            return;
        }
        non_compliant += 1;
        let result = harness.run(&obs.served);
        if examples.len() < 8 && !result.causes.is_empty() {
            let causes: Vec<&str> = result.causes.iter().map(|c| c.label()).collect();
            examples.push((obs.domain.clone(), causes.join(", ")));
        }
        report.absorb(&result);
    });

    println!(
        "non-compliant chains under test: {} (of {domains} domains)\n",
        non_compliant
    );
    let mut t = TextTable::new(
        "Differential results over non-compliant chains (paper Section 5.2)",
        &["Metric", "Chains"],
    );
    t.row(&[
        "passed all 4 browsers".into(),
        count_pct(report.all_browsers_pass, report.total),
    ]);
    t.row(&[
        "passed all 4 libraries".into(),
        count_pct(report.all_libraries_pass, report.total),
    ]);
    t.row(&[
        "browser-vs-browser discrepancies".into(),
        count_pct(report.browser_discrepancies, report.total),
    ]);
    t.row(&[
        "library-vs-library discrepancies".into(),
        count_pct(report.library_discrepancies, report.total),
    ]);
    t.row(&[
        "some library fails (availability impact)".into(),
        count_pct(report.library_failures, report.total),
    ]);
    t.row(&[
        "some browser fails (warning page)".into(),
        count_pct(report.browser_failures, report.total),
    ]);
    println!("{}", t.render());

    let mut causes = TextTable::new("Discrepancy root causes", &["Cause", "Chains"]);
    for (cause, count) in &report.causes {
        causes.row(&[cause.label().to_string(), count.to_string()]);
    }
    println!("{}", causes.render());

    let mut per_client = TextTable::new("Per-client acceptance", &["Client", "Accepted"]);
    for (kind, pass) in &report.per_client_pass {
        per_client.row(&[kind.name().to_string(), count_pct(*pass, report.total)]);
    }
    println!("{}", per_client.render());

    if !examples.is_empty() {
        println!("example discrepant domains:");
        for (domain, causes) in examples {
            println!("  {domain:<20} {causes}");
        }
    }
}
