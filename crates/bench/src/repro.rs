//! The reproduction driver: every table, figure and study in the paper
//! from one corpus sweep.
//!
//! ```text
//! chain-chaos repro <name>... | all [--domains N]
//! ```
//!
//! Each [`Table`] names the one input it reads — nothing (it probes its
//! own fixtures), the structural-compliance summary, the differential
//! summary, or the capability-ablation totals over the non-compliant
//! chains. [`run`] builds the scan corpus only when a selected table
//! needs it, sweeps it with **one** [`Pipeline::run`] over exactly the
//! passes the selection needs, and renders the tables in the order given.
//! Each table's text is identical for every `CCC_THREADS` value;
//! `tests/repro_golden.rs` pins it at 1000 domains against committed
//! goldens.

use crate::pipeline::{
    AnalysisPass, CompliancePass, DifferentialPass, ObservationMemo, PassContext, Pipeline,
    PipelineStats,
};
use crate::{scan_corpus, CorpusSummary, DefectCounts, DifferentialSummary};
use ccc_asn1::Time;
use ccc_core::builder::{
    BuildContext, BuilderPolicy, ChainEngine, KidPriority, SearchScope, SharedBuild,
    ValidityPriority,
};
use ccc_core::clients::{capability_coverage, client_profiles, ClientKind};
use ccc_core::report::{check, count_pct, group_thousands, TextTable};
use ccc_core::{
    analyze_order, Completeness, CompletenessAnalyzer, IssuanceChecker, LeafPlacement,
    TopologyGraph,
};
use ccc_crypto::Drbg;
use ccc_netsim::admin::{assemble, AdminBehavior};
use ccc_netsim::ca::{CaProfile, InstallGuide};
use ccc_netsim::httpserver::{FileLayout, HttpServerKind};
use ccc_netsim::AiaRepository;
use ccc_rootstore::{CaUniverse, RootProgram};
use ccc_testgen::corpus::scan_time;
use ccc_testgen::scenarios::ScenarioSet;
use ccc_testgen::{CapabilityRow, CapabilitySuite, DomainObservation};
use ccc_x509::Certificate;
use std::fmt::{self, Write as _};

/// One table's input and renderer. The variant is the pass the table
/// needs from the sweep.
#[derive(Clone, Copy, Debug)]
enum Render {
    /// Probes its own fixtures; needs no corpus.
    Fixed(fn(&mut String) -> fmt::Result),
    /// Reads the structural-compliance summary.
    Compliance(fn(&CorpusSummary, &mut String) -> fmt::Result),
    /// Reads the differential summary.
    Differential(fn(&DifferentialSummary, &mut String) -> fmt::Result),
    /// Reads the capability-ablation totals.
    Ablation(fn(&AblationSummary, &mut String) -> fmt::Result),
}

/// One reproducible result of the paper.
#[derive(Clone, Copy, Debug)]
pub struct Table {
    /// The name `repro` selects it by.
    pub name: &'static str,
    render: Render,
}

impl Table {
    /// True when the table reads the scan corpus.
    pub fn needs_corpus(&self) -> bool {
        !matches!(self.render, Render::Fixed(_))
    }
}

/// Every table, in README order (the order `all` prints).
pub static TABLES: [Table; 17] = [
    Table { name: "table1", render: Render::Fixed(table1) },
    Table { name: "table2", render: Render::Fixed(table2) },
    Table { name: "table3", render: Render::Compliance(table3) },
    Table { name: "table4", render: Render::Fixed(table4) },
    Table { name: "table5", render: Render::Compliance(table5) },
    Table { name: "table6", render: Render::Fixed(table6) },
    Table { name: "table7", render: Render::Compliance(table7) },
    Table { name: "table8", render: Render::Compliance(table8) },
    Table { name: "table9", render: Render::Fixed(table9) },
    Table { name: "table10", render: Render::Compliance(table10) },
    Table { name: "table11", render: Render::Compliance(table11) },
    Table { name: "figure2", render: Render::Fixed(figure2) },
    Table { name: "figure3", render: Render::Fixed(figure3) },
    Table { name: "figure4", render: Render::Fixed(figure4) },
    Table { name: "figure5", render: Render::Fixed(figure5) },
    Table { name: "section52", render: Render::Differential(section52) },
    Table { name: "ablation", render: Render::Ablation(ablation) },
];

/// Resolve table names in the order given; `all` expands to [`TABLES`].
/// Fails on an empty selection or any unknown name.
pub fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<&'static Table>, String> {
    if names.is_empty() {
        return Err(format!("name at least one table, or all: {}", table_names()));
    }
    let mut tables = Vec::new();
    for name in names {
        match name.as_ref() {
            "all" => tables.extend(TABLES.iter()),
            name => tables.push(
                TABLES
                    .iter()
                    .find(|t| t.name == name)
                    .ok_or_else(|| format!("unknown table '{name}'; options: all {}", table_names()))?,
            ),
        }
    }
    Ok(tables)
}

fn table_names() -> String {
    TABLES.map(|t| t.name).join(" ")
}

/// Render `tables` in order over one sweep of the `domains`-domain scan
/// corpus. The corpus is built, and the sweep run, only when a table
/// needs it; the stats of that one sweep come back alongside the text.
pub fn run(
    tables: &[&Table],
    domains: usize,
    pipeline: Pipeline,
) -> (String, Option<PipelineStats>) {
    let wants = |pass: fn(&Render) -> bool| tables.iter().any(|t| pass(&t.render));
    let checker = IssuanceChecker::new();
    let corpus = tables.iter().any(|t| t.needs_corpus()).then(|| scan_corpus(domains));
    let ((compliance, differential, ablation), stats) = match &corpus {
        None => ((None, None, None), None),
        Some(corpus) => {
            let passes = (
                wants(|r| matches!(r, Render::Compliance(_))).then(CompliancePass::new),
                wants(|r| matches!(r, Render::Differential(_))).then(DifferentialPass::new),
                wants(|r| matches!(r, Render::Ablation(_))).then(AblationPass::new),
            );
            let ((c, d, a), stats) = pipeline.run(corpus, &checker, passes);
            let summaries = (
                c.map(CompliancePass::into_summary),
                d.map(DifferentialPass::into_summary),
                a.map(|a| a.summary),
            );
            (summaries, Some(stats))
        }
    };
    let mut out = String::new();
    for table in tables {
        match table.render {
            Render::Fixed(f) => f(&mut out),
            Render::Compliance(f) => f(compliance.as_ref().expect("swept"), &mut out),
            Render::Differential(f) => f(differential.as_ref().expect("swept"), &mut out),
            Render::Ablation(f) => f(ablation.as_ref().expect("swept"), &mut out),
        }
        .expect("writing to a String cannot fail");
    }
    (out, stats)
}

// ---------------------------------------------------------------------
// Tables 1–11.
// ---------------------------------------------------------------------

/// Table 1: capability coverage of BetterTLS vs this work.
fn table1(out: &mut String) -> fmt::Result {
    let mut table = TextTable::new(
        "Table 1 — Client chain-building capability coverage: BetterTLS vs this work",
        &["Group", "Capability", "BetterTLS", "This Work"],
    );
    for (group, capability, bettertls, this_work) in capability_coverage() {
        table.row(&[
            group.to_string(),
            capability.to_string(),
            check(bettertls).to_string(),
            check(this_work).to_string(),
        ]);
    }
    writeln!(out, "{}", table.render())
}

/// Table 2: the nine chain-construction capability test cases, rendered
/// with the actual synthetic chains this repository generates for each.
fn table2(out: &mut String) -> fmt::Result {
    let mut table = TextTable::new(
        "Table 2 — Certificate chain construction capability tests",
        &["#", "Capability", "Test case"],
    );
    let rows = [
        ("1", "Order Reorganization", "{E, I2, I1, R} — true chain E <- I1 <- I2 <- R"),
        ("2", "Redundancy Elimination", "{E, X, I, R} — X unrelated self-signed"),
        ("3", "AIA Completion", "{E, I1} — I1's AIA caIssuers URI serves I2"),
        (
            "4",
            "Validity Priority",
            "{E, I1(expired), I(valid), I2(recent), I3(long), R} — same subject+key",
        ),
        (
            "5",
            "KID Matching Priority",
            "{E, I1(KID mismatch), I2(KID absent), I(KID match), R} — same subject+key",
        ),
        (
            "6",
            "KeyUsage Correctness Priority",
            "{E, I1(no keyCertSign), I2(KU absent), I(KU correct), R} — same subject+key",
        ),
        (
            "7",
            "Basic Constraints Priority",
            "{E, I1, I3(pathLen 0 violated), I2(pathLen ok), R} — I2/I3 same subject+key",
        ),
        ("8", "Path Length Constraint", "{E, I1..In, R} probed for total lengths 3..=53"),
        ("9", "Self-signed Leaf Certificate", "{ES, E, I, R} — ES self-signed twin of E"),
    ];
    for (n, cap, case) in rows {
        table.row_str(&[n, cap, case]);
    }
    writeln!(out, "{}", table.render())?;
    writeln!(
        out,
        "E = end-entity, I = intermediate, R = trusted root, X = irrelevant,\n\
         ES = self-signed server certificate. Priority-test intermediates share\n\
         subject DN AND key (reissued certificates), so every candidate's\n\
         signature verifies and the constructed path reveals the preference.\n\
         Generators: ccc_testgen::CapabilitySuite (see table9 for the results)."
    )
}

/// Table 3: leaf certificate deployment classes.
fn table3(s: &CorpusSummary, out: &mut String) -> fmt::Result {
    let paper: &[(&str, &str)] = &[
        ("Correctly Placed and Matched", "838,354 (92.5%)"),
        ("Correctly Placed but Mismatched", "62,536 (6.9%)"),
        ("Incorrectly Placed but Matched", "0 (~0%)"),
        ("Incorrectly Placed and Mismatched", "1 (~0%)"),
        ("Other", "5,445 (0.6%)"),
    ];

    let mut table = TextTable::new(
        "Table 3 — Leaf certificate deployment",
        &["Place/Match", "This run", "Paper (Tranco 1M)"],
    );
    for (class, paper_cell) in [
        LeafPlacement::CorrectlyPlacedMatched,
        LeafPlacement::CorrectlyPlacedMismatched,
        LeafPlacement::IncorrectlyPlacedMatched,
        LeafPlacement::IncorrectlyPlacedMismatched,
        LeafPlacement::Other,
    ]
    .iter()
    .zip(paper)
    {
        let count = s.placement.get(class).copied().unwrap_or(0);
        table.row(&[
            class.label().to_string(),
            count_pct(count, s.total),
            paper_cell.1.to_string(),
        ]);
    }
    writeln!(out, "{}", table.render())
}

/// Table 4: SSL certificate deployment characteristics across HTTP
/// servers, by probing the deployment models directly.
fn table4(out: &mut String) -> fmt::Result {
    let universe = CaUniverse::default_with_seed(4);
    let profile = &CaProfile::all()[1]; // a manual CA with a ca-bundle
    let bundle = profile.issue(
        &universe,
        0,
        "probe.sim",
        Time::from_ymd(2024, 1, 1).expect("literal date is valid"),
        Time::from_ymd(2025, 1, 1).expect("literal date is valid"),
        &mut Drbg::from_u64(1),
        false,
    );

    let servers = [
        HttpServerKind::ApacheOld,
        HttpServerKind::ApacheNew,
        HttpServerKind::Nginx,
        HttpServerKind::AzureAppGateway,
        HttpServerKind::Iis,
        HttpServerKind::AwsElb,
    ];
    let mut table = TextTable::new(
        "Table 4 — Deployment characteristics across HTTP servers (probed)",
        &[
            "Characteristic",
            "Apache<2.4.8",
            "Apache>=2.4.8",
            "Nginx",
            "Azure AGW",
            "IIS",
            "AWS ELB",
        ],
    );

    let layout_label = |s: HttpServerKind| match s.file_layout() {
        FileLayout::SeparateLeafAndBundle => "SF1",
        FileLayout::FullChain => "SF2",
        FileLayout::Pfx => "SF3",
    };
    let mut row = vec!["Automatic Certificate Management".to_string()];
    row.extend(servers.iter().map(|s| check(s.supports_automation()).to_string()));
    table.row(&row);
    let mut row = vec!["Supported Certificate Fields".to_string()];
    row.extend(servers.iter().map(|s| layout_label(*s).to_string()));
    table.row(&row);

    // Probe: key mismatch (serve someone else's chain).
    let mut row = vec!["Private Key / Leaf Matching Check".to_string()];
    for server in servers {
        let mut files = assemble(&bundle, &AdminBehavior::FollowGuide, server);
        files.key_matches_first_cert = false;
        row.push(check(server.deploy(&files).is_err()).to_string());
    }
    table.row(&row);

    // Probe: duplicate leaf.
    let mut row = vec!["Duplicate Leaf Certificate Check".to_string()];
    for server in servers {
        let files = assemble(&bundle, &AdminBehavior::LeafInChainFile, server);
        row.push(check(server.deploy(&files).is_err()).to_string());
    }
    table.row(&row);

    // Probe: duplicate intermediates.
    let mut row = vec!["Duplicate Intermediate/Root Check".to_string()];
    for server in servers {
        let files = assemble(&bundle, &AdminBehavior::DuplicateBundle(2), server);
        row.push(check(server.deploy(&files).is_err()).to_string());
    }
    table.row(&row);

    writeln!(out, "{}", table.render())?;
    writeln!(
        out,
        "SF1 = CertificateFile.pem + Ca-bundle.pem + key; SF2 = FullChain.pem + key; \
         SF3 = PFX container\npaper Table 4: same pattern (all servers check the key; only \
         Azure/IIS reject duplicate leaves; none reject duplicate intermediates)."
    )
}

/// Table 5: chains with non-compliant issuance order, plus the §4.2
/// duplicate-role breakdown.
fn table5(s: &CorpusSummary, out: &mut String) -> fmt::Result {
    let mut table = TextTable::new(
        "Table 5 — Chains with non-compliant issuance order",
        &["Type", "This run (% of order-non-compliant)", "Paper"],
    );
    let rows = [
        ("Duplicate Certificates", s.dup_chains, "5,974 (35.2%)"),
        ("Irrelevant Certificates", s.irrelevant_chains, "3,032 (17.9%)"),
        ("Multiple Paths", s.multipath_chains, "246 (1.5%)"),
        ("Reversed Sequences", s.reversed_chains, "8,566 (50.5%)"),
    ];
    for (label, count, paper) in rows {
        table.row(&[
            label.to_string(),
            count_pct(count, s.order_noncompliant),
            paper.to_string(),
        ]);
    }
    table.row(&[
        "Total".to_string(),
        group_thousands(s.order_noncompliant),
        "16,952".to_string(),
    ]);
    writeln!(out, "{}", table.render())?;

    let mut detail = TextTable::new(
        "Duplicate breakdown (§4.2)",
        &["Role", "Chains (this run)", "Paper"],
    );
    detail.row(&[
        "Duplicated leaf".to_string(),
        group_thousands(s.dup_leaf_chains),
        "4,730".to_string(),
    ]);
    detail.row(&[
        "Duplicated intermediate".to_string(),
        group_thousands(s.dup_intermediate_chains),
        "1,354".to_string(),
    ]);
    detail.row(&[
        "Duplicated root".to_string(),
        group_thousands(s.dup_root_chains),
        "401".to_string(),
    ]);
    writeln!(out, "{}", detail.render())?;
    writeln!(
        out,
        "all-paths-reversed chains: {} (paper: 8,370 of 8,566)\nlongest served list: {} certificates (paper max: 29)",
        group_thousands(s.all_paths_reversed_chains),
        s.longest_list
    )
}

/// Table 6: SSL certificate issuance characteristics of CAs and
/// resellers, by probing the issuance pipelines.
fn table6(out: &mut String) -> fmt::Result {
    let universe = CaUniverse::default_with_seed(6);
    let profiles = CaProfile::all();
    let picks = ["Let's Encrypt", "ZeroSSL", "GoGetSSL", "cyber_Folks S.A.", "Trustico"];

    let mut header = vec!["Issuance Characteristic"];
    header.extend(picks);
    let mut table = TextTable::new(
        "Table 6 — Issuance characteristics of CAs / resellers (probed)",
        &header,
    );

    let selected: Vec<&CaProfile> = picks
        .iter()
        .map(|name| profiles.iter().find(|p| p.name == *name).expect("profile"))
        .collect();
    let bundles: Vec<_> = selected
        .iter()
        .enumerate()
        .map(|(i, p)| {
            p.issue(
                &universe,
                0,
                &format!("probe{i}.sim"),
                Time::from_ymd(2024, 1, 1).expect("literal date is valid"),
                Time::from_ymd(2025, 1, 1).expect("literal date is valid"),
                &mut Drbg::from_u64(i as u64),
                false,
            )
        })
        .collect();

    let mut row = vec!["Automatic Certificate Management".to_string()];
    row.extend(selected.iter().map(|p| check(p.automated).to_string()));
    table.row(&row);

    let mut row = vec!["Provide Fullchain File".to_string()];
    row.extend(bundles.iter().map(|b| check(b.fullchain.is_some()).to_string()));
    table.row(&row);

    let mut row = vec!["Provide Ca-bundle File".to_string()];
    row.extend(bundles.iter().map(|b| check(b.ca_bundle.is_some()).to_string()));
    table.row(&row);

    let mut row = vec!["Provide Root Certificate".to_string()];
    row.extend(bundles.iter().map(|b| {
        let has_root = b
            .ca_bundle
            .as_ref()
            .map(|cb| cb.iter().any(|c| c.is_self_issued()))
            .unwrap_or(false);
        check(has_root).to_string()
    }));
    table.row(&row);

    let mut row = vec!["Compliant Issuance Order in Ca-bundle".to_string()];
    row.extend(bundles.iter().map(|b| {
        match &b.ca_bundle {
            None => "n/a".to_string(),
            Some(cb) => {
                // Compliant: first bundle cert is the leaf's direct issuer.
                let ok = cb.first().map(|c| *c == b.intermediate).unwrap_or(false);
                check(ok).to_string()
            }
        }
    }));
    table.row(&row);

    let mut row = vec!["Provide Certificate Installation Guide".to_string()];
    row.extend(selected.iter().map(|p| {
        match p.install_guide {
            InstallGuide::AllServers => "Y".to_string(),
            InstallGuide::ApacheIisOnly => "only Apache/IIS".to_string(),
            InstallGuide::None => "x".to_string(),
        }
    }));
    table.row(&row);

    writeln!(out, "{}", table.render())?;
    writeln!(
        out,
        "paper Table 6: Let's Encrypt automates and ships fullchain; GoGetSSL, \
         cyber_Folks and Trustico ship the ca-bundle in REVERSE issuance order \
         (root first), which naive merges propagate into reversed server chains."
    )
}

/// Table 7: completeness of certificate chains, plus the §4.3
/// AIA-recoverability breakdown.
fn table7(s: &CorpusSummary, out: &mut String) -> fmt::Result {
    let mut table = TextTable::new(
        "Table 7 — Completeness of certificate chain",
        &["Type", "This run", "Paper"],
    );
    let rows = [
        (Completeness::CompleteWithRoot, "79,144 (8.7%)"),
        (Completeness::CompleteWithoutRoot, "815,105 (89.9%)"),
        (Completeness::Incomplete, "12,087 (1.3%)"),
    ];
    for (class, paper) in rows {
        let count = s.completeness.get(&class).copied().unwrap_or(0);
        table.row(&[
            class.label().to_string(),
            count_pct(count, s.total),
            paper.to_string(),
        ]);
    }
    writeln!(out, "{}", table.render())?;

    let incomplete = s
        .completeness
        .get(&Completeness::Incomplete)
        .copied()
        .unwrap_or(0);
    let mut aia = TextTable::new(
        "Incomplete-chain recoverability (§4.3)",
        &["Outcome", "This run", "Paper"],
    );
    aia.row(&[
        "completable via recursive AIA".to_string(),
        count_pct(s.aia_completable, incomplete),
        "11,419 (94.5%)".to_string(),
    ]);
    aia.row(&[
        "missing exactly one intermediate".to_string(),
        count_pct(s.missing_single_intermediate, incomplete),
        "8,729 (72.2%)".to_string(),
    ]);
    for (reason, count) in &s.incomplete_reasons {
        let paper = match *reason {
            "AIA field missing" => "579",
            "AIA URI dead" => "88",
            "AIA served wrong certificate" => "1",
            _ => "-",
        };
        aia.row(&[
            reason.to_string(),
            group_thousands(*count),
            paper.to_string(),
        ]);
    }
    writeln!(out, "{}", aia.render())?;
    writeln!(
        out,
        "chains whose omitted root was located via AIA download rather than \
         store SKID match: {}",
        group_thousands(s.root_via_aia)
    )
}

/// Table 8: additional incomplete chains per root store, with and
/// without AIA support. "Additional" is relative to the unified-store +
/// AIA baseline, exactly as in the paper.
fn table8(s: &CorpusSummary, out: &mut String) -> fmt::Result {
    let baseline = s.unified_incomplete_with_aia;
    let mut table = TextTable::new(
        "Table 8 — Additional incomplete chains per root store × AIA",
        &["Root Store", "Mozilla", "Chrome", "Microsoft", "Apple"],
    );
    let additional = |n: usize| -> String { group_thousands(n.saturating_sub(baseline)) };
    let mut with_aia = vec!["AIA Supported".to_string()];
    let mut without_aia = vec!["AIA Not Supported".to_string()];
    for program in RootProgram::ALL {
        let sc = &s.store_completeness[&program];
        with_aia.push(additional(sc.incomplete_with_aia));
        without_aia.push(additional(sc.incomplete_without_aia));
    }
    table.row(&with_aia);
    table.row(&without_aia);
    writeln!(out, "{}", table.render())?;

    writeln!(
        out,
        "paper (Tranco 1M):      AIA supported:     66 | 66 | 5 | 4\n\
         paper (Tranco 1M):      AIA not supported: 225,608 | 225,608 | 225,538 | 225,360\n\
         baseline (unified store + AIA) incomplete here: {} of {}\n\
         scale note: paper counts are absolute over 906,336 chains; compare \
         rates — the shape to check is (a) tiny per-store differences when \
         AIA is on, (b) a jump of roughly a quarter of all chains when AIA \
         is off (terminal intermediates whose AKID cannot be matched to a \
         store SKID).",
        group_thousands(baseline),
        group_thousands(s.total),
    )
}

/// Table 9: the client capability matrix, by running the nine Table 2
/// test chains against all eight client profiles.
fn table9(out: &mut String) -> fmt::Result {
    let suite = CapabilitySuite::new(1);
    let rows: Vec<(ClientKind, CapabilityRow)> = ClientKind::ALL
        .iter()
        .map(|&k| (k, suite.evaluate(&k.engine())))
        .collect();

    let mut header = vec!["Type"];
    header.extend(ClientKind::ALL.iter().map(|k| k.name()));
    let mut table = TextTable::new("Table 9 — Capabilities of TLS implementations", &header);

    let push = |table: &mut TextTable, label: &str, f: &dyn Fn(&CapabilityRow) -> String| {
        let mut row = vec![label.to_string()];
        row.extend(rows.iter().map(|(_, r)| f(r)));
        table.row(&row);
    };
    push(&mut table, "Order Reorganization", &|r| check(r.order_reorganization).into());
    push(&mut table, "Redundancy Elimination", &|r| check(r.redundancy_elimination).into());
    push(&mut table, "AIA Completion", &|r| check(r.aia_completion).into());
    push(&mut table, "Validity Priority", &|r| r.validity_priority.label().into());
    push(&mut table, "KID Matching Priority", &|r| r.kid_priority.label().into());
    push(&mut table, "KeyUsage Correctness Priority", &|r| {
        if r.key_usage_priority { "KUP".into() } else { "-".into() }
    });
    push(&mut table, "Basic Constraints Priority", &|r| {
        if r.basic_constraints_priority { "BP".into() } else { "-".into() }
    });
    push(&mut table, "Path Length Constraint", &|r| r.max_path_len.label());
    push(&mut table, "Self-signed Leaf Certificate", &|r| check(r.self_signed_leaf).into());

    writeln!(out, "{}", table.render())?;
    writeln!(
        out,
        "paper Table 9 values: reorganization x only for MbedTLS; AIA only CryptoAPI +\n\
         Chrome/Edge/Safari; VP1 OpenSSL/MbedTLS/Firefox, VP2 CryptoAPI + browsers;\n\
         KP1 OpenSSL/GnuTLS/Safari, KP2 CryptoAPI/Chrome/Edge; limits >52/=16/=10/=13/\n\
         >52/=21/>52/=8; self-signed leaf allowed only by MbedTLS and Safari."
    )
}

/// A defect-count projection used for Table 10/11 rows.
type CountFn<'a> = &'a dyn Fn(&DefectCounts) -> usize;

/// The server buckets in Table 10 column order.
fn server_columns() -> Vec<&'static str> {
    let mut seen = Vec::new();
    for kind in HttpServerKind::ALL {
        let label = kind.display_name();
        if !seen.contains(&label) {
            seen.push(label);
        }
    }
    seen
}

/// Table 10: HTTP servers used by domains with non-compliant certificate
/// chains.
fn table10(s: &CorpusSummary, out: &mut String) -> fmt::Result {
    let columns = server_columns();
    let mut header = vec!["Non-compliant Type"];
    header.extend(columns.iter().copied());
    header.push("Total");
    let mut table = TextTable::new(
        "Table 10 — HTTP servers of domains with non-compliant chains",
        &header,
    );

    let metric = |f: CountFn<'_>| -> (Vec<usize>, usize) {
        let counts: Vec<usize> = columns
            .iter()
            .map(|c| s.by_server.get(c).map(f).unwrap_or(0))
            .collect();
        let total = counts.iter().sum();
        (counts, total)
    };
    let rows: Vec<(&str, CountFn<'_>)> = vec![
        ("Overview (any)", &|d| d.any),
        ("Duplicate Certificates", &|d| d.duplicates),
        ("Duplicate Leaf", &|d| d.duplicate_leaf),
        ("Irrelevant Certificates", &|d| d.irrelevant),
        ("Multiple Paths", &|d| d.multipath),
        ("Reversed Sequences", &|d| d.reversed),
        ("Incomplete Chain", &|d| d.incomplete),
    ];
    for (label, f) in rows {
        let (counts, total) = metric(f);
        let mut row = vec![label.to_string()];
        row.extend(counts.iter().map(|&c| count_pct(c, total)));
        row.push(total.to_string());
        table.row(&row);
    }
    writeln!(out, "{}", table.render())?;
    writeln!(
        out,
        "paper Table 10 shape to check: Apache leads duplicates (56.1%, and 63.3% of\n\
         duplicate leaves) thanks to its two-file layout; Azure shows ~0 duplicate\n\
         leaves (upload check); Nginx leads reversed sequences."
    )
}

/// The CA buckets in Table 11 column order.
const CA_ORDER: [&str; 9] = [
    "Let's Encrypt",
    "Digicert",
    "Sectigo Limited",
    "ZeroSSL",
    "GoGetSSL",
    "TAIWAN-CA",
    "cyber_Folks S.A.",
    "Trustico",
    "Other CAs",
];

/// Table 11: CAs/resellers of non-compliant chains.
fn table11(s: &CorpusSummary, out: &mut String) -> fmt::Result {
    let mut header = vec!["Type"];
    header.extend(CA_ORDER);
    let mut table = TextTable::new(
        "Table 11 — CAs / resellers of non-compliant chains (% of that CA's issuance)",
        &header,
    );
    let rows: Vec<(&str, CountFn<'_>)> = vec![
        ("Non-compliant", &|d| d.any),
        ("Duplicate Certificates", &|d| d.duplicates),
        ("Irrelevant Certificates", &|d| d.irrelevant),
        ("Multiple Paths", &|d| d.multipath),
        ("Reversed Sequences", &|d| d.reversed),
        ("Incomplete Chain", &|d| d.incomplete),
    ];
    for (label, f) in rows {
        let mut row = vec![label.to_string()];
        for ca in CA_ORDER {
            match s.by_ca.get(ca) {
                Some(d) => row.push(count_pct(f(d), d.total)),
                None => row.push("0".to_string()),
            }
        }
        table.row(&row);
    }
    let mut totals = vec!["Total issued".to_string()];
    for ca in CA_ORDER {
        totals.push(
            s.by_ca
                .get(ca)
                .map(|d| group_thousands(d.total))
                .unwrap_or_else(|| "0".to_string()),
        );
    }
    table.row(&totals);
    writeln!(out, "{}", table.render())?;
    writeln!(
        out,
        "paper Table 11 rates: non-compliance — LE 1.2%, Digicert 7.9%, Sectigo 10.7%,\n\
         ZeroSSL 2.5%, GoGetSSL 16.7%, TAIWAN-CA 50.4%, cyber_Folks 66.2%, Trustico 65.7%;\n\
         reversed sequences dominate the three reversed-bundle resellers; TAIWAN-CA's\n\
         non-compliance is mostly incomplete chains (41.9%)."
    )
}

// ---------------------------------------------------------------------
// Figures 2–5.
// ---------------------------------------------------------------------

/// Figure 2: the four server-side chain topology examples, rendered as
/// issuance graphs with their order analyses.
fn figure2(out: &mut String) -> fmt::Result {
    let set = ScenarioSet::new(5);
    let checker = IssuanceChecker::new();
    for scenario in [set.figure2a(), set.figure2b(), set.figure2c(), set.figure2d()] {
        let graph = TopologyGraph::build(&scenario.served, &checker);
        let order = analyze_order(&scenario.served, &checker);
        writeln!(out, "{} — {}", scenario.name, scenario.description)?;
        writeln!(out, "  served ({} certs):", scenario.served.len())?;
        for (i, cert) in scenario.served.iter().enumerate() {
            writeln!(
                out,
                "    [{i}] {}{}",
                cert.subject(),
                if cert.is_self_issued() { "  (self-signed)" } else { "" }
            )?;
        }
        writeln!(out, "  graph: {}", graph.describe())?;
        writeln!(
            out,
            "  order analysis: duplicates={} irrelevant={} paths={} reversed_paths={} compliant={}",
            order.duplicates.total(),
            order.irrelevant,
            order.path_count,
            order.reversed_paths,
            order.is_compliant()
        )?;
        writeln!(out)?;
    }
    writeln!(
        out,
        "paper Figure 2: (a) compliant 4-cert chain; (b) webcanny.com's five stale\n\
         leaves; (c) USERTrust cross-sign creating two paths with a reversed\n\
         insertion; (d) archives.gov.tw's foreign hierarchy with a duplicate."
    )
}

/// Figure 3 / finding I-2: the assiste6.serpro.gov.br long-list case that
/// exceeds GnuTLS's 16-certificate input limit.
fn figure3(out: &mut String) -> fmt::Result {
    let set = ScenarioSet::new(5);
    let scenario = set.figure3();
    writeln!(out, "{} — {}", scenario.name, scenario.description)?;
    writeln!(out, "served list length: {} certificates\n", scenario.served.len())?;

    let checker = IssuanceChecker::new();
    let ctx = BuildContext {
        store: &set.store,
        aia: Some(&set.aia),
        cache: &[],
        now: set.now,
        checker: &checker,
    };
    let mut table = TextTable::new("Client verdicts", &["Client", "Verdict"]);
    for (kind, engine) in client_profiles() {
        let outcome = engine.process(&scenario.served, &ctx);
        table.row(&[
            kind.name().to_string(),
            match &outcome.verdict {
                Ok(()) => "accepted".into(),
                Err(e) => format!("REJECTED: {e}"),
            },
        ]);
    }
    writeln!(out, "{}", table.render())?;
    writeln!(
        out,
        "paper I-2: GnuTLS limits the ORIGINAL LIST length to 16 (not the constructed\n\
         path), so junk-padded lists fail in GnuTLS alone — 10 real chains did."
    )
}

/// Figure 4 / finding I-3: the moex.gov.tw multi-path case where only
/// backtracking clients find the trusted path.
fn figure4(out: &mut String) -> fmt::Result {
    let set = ScenarioSet::new(5);
    let scenario = set.figure4();
    writeln!(out, "{} — {}", scenario.name, scenario.description)?;
    let checker = IssuanceChecker::new();
    let graph = TopologyGraph::build(&scenario.served, &checker);
    writeln!(out, "graph: {}\n", graph.describe())?;

    let ctx = BuildContext {
        store: &set.store,
        aia: Some(&set.aia),
        cache: &[],
        now: set.now,
        checker: &checker,
    };
    let mut table = TextTable::new(
        "Client verdicts",
        &["Client", "Verdict", "Backtracks", "Terminal"],
    );
    for (kind, engine) in client_profiles() {
        let outcome = engine.process(&scenario.served, &ctx);
        let terminal = outcome
            .path
            .last()
            .map(|c| c.subject().to_string())
            .unwrap_or_default();
        table.row(&[
            kind.name().to_string(),
            match &outcome.verdict {
                Ok(()) => "accepted".into(),
                Err(e) => format!("REJECTED: {e}"),
            },
            outcome.stats.backtracks.to_string(),
            terminal,
        ]);
    }
    writeln!(out, "{}", table.render())?;
    writeln!(
        out,
        "paper I-3: OpenSSL and GnuTLS walked into the untrusted government branch;\n\
         CryptoAPI backtracked to the trusted path; MbedTLS's outcome depended only\n\
         on served order."
    )
}

/// Figure 5 / §6.2: two issuer candidates identical but for validity —
/// which one does each client put in the path?
fn figure5(out: &mut String) -> fmt::Result {
    let set = ScenarioSet::new(5);
    let (scenario, newer, older) = set.figure5();
    writeln!(out, "{} — {}", scenario.name, scenario.description)?;
    let show = |c: &Certificate| {
        let v = c.validity();
        format!("{} .. {}", v.not_before, v.not_after)
    };
    writeln!(out, "candidate A (newer): {}", show(&newer))?;
    writeln!(out, "candidate B (older): {}\n", show(&older))?;

    let checker = IssuanceChecker::new();
    let ctx = BuildContext {
        store: &set.store,
        aia: Some(&set.aia),
        cache: &[],
        now: set.now,
        checker: &checker,
    };
    let mut table = TextTable::new("Candidate selected", &["Client", "Selected", "Verdict"]);
    for (kind, engine) in client_profiles() {
        let outcome = engine.process(&scenario.served, &ctx);
        let selected = if outcome.path.contains(&newer) {
            "A (newer)"
        } else if outcome.path.contains(&older) {
            "B (older)"
        } else {
            "-"
        };
        table.row(&[
            kind.name().to_string(),
            selected.to_string(),
            if outcome.accepted() { "accepted".into() } else { format!("{:?}", outcome.verdict) },
        ]);
    }
    writeln!(out, "{}", table.render())?;
    writeln!(
        out,
        "paper §6.2: the most recently issued candidate should be preferred (it\n\
         reflects the CA's current configuration) — VP2 clients do this; VP1\n\
         clients take the first valid candidate in served order."
    )
}

// ---------------------------------------------------------------------
// §5.2 differential statistics and the §6.2 capability ablation.
// ---------------------------------------------------------------------

/// §5.2: agreement rates across browsers and libraries over non-compliant
/// chains, the I-1…I-4 discrepancy causes, and the corpus-wide
/// availability impact.
fn section52(d: &DifferentialSummary, out: &mut String) -> fmt::Result {
    let r = &d.report;

    let mut table = TextTable::new(
        "Section 5.2 — differential results over non-compliant chains",
        &["Metric", "This run", "Paper"],
    );
    table.row(&[
        "non-compliant chains tested".into(),
        r.total.to_string(),
        "26,361".into(),
    ]);
    table.row(&[
        "passed all browsers".into(),
        count_pct(r.all_browsers_pass, r.total),
        "61.1% (3 browsers)".into(),
    ]);
    table.row(&[
        "passed all 4 libraries".into(),
        count_pct(r.all_libraries_pass, r.total),
        "47.4%".into(),
    ]);
    table.row(&[
        "browser discrepancies".into(),
        count_pct(r.browser_discrepancies, r.total),
        "3,295 chains".into(),
    ]);
    table.row(&[
        "library discrepancies".into(),
        count_pct(r.library_discrepancies, r.total),
        "10,804 chains".into(),
    ]);
    writeln!(out, "{}", table.render())?;

    let mut causes = TextTable::new(
        "Discrepancy causes (I-1 … I-4)",
        &["Cause", "Chains (this run)", "Paper"],
    );
    let paper_cause = |label: &str| -> &'static str {
        match label {
            "I-1 order reorganization" => "51",
            "I-2 overly long chains" => "10",
            "I-3 backtracking" => "1",
            "I-4 AIA completion" => "8,553 (libraries) / 1,074 (Firefox)",
            _ => "-",
        }
    };
    for (cause, count) in &r.causes {
        causes.row(&[
            cause.label().to_string(),
            count.to_string(),
            paper_cause(cause.label()).to_string(),
        ]);
    }
    writeln!(out, "{}", causes.render())?;

    let mut per_client = TextTable::new(
        "Per-client acceptance over non-compliant chains",
        &["Client", "Accepted"],
    );
    for (kind, pass) in &r.per_client_pass {
        per_client.row(&[kind.name().to_string(), count_pct(*pass, r.total)]);
    }
    writeln!(out, "{}", per_client.render())?;

    writeln!(
        out,
        "corpus-wide availability impact: {} of all chains fail in >=1 library \
         (paper: 40.9% incl. hostname/expiry errors outside chain building); \
         {} fail in >=1 browser (paper: 12.5%).",
        count_pct(d.corpus_library_failures, d.corpus_total),
        count_pct(d.corpus_browser_failures, d.corpus_total),
    )?;
    if !d.cause_examples.is_empty() {
        writeln!(out, "\nexample chains per cause:")?;
        for (cause, domain) in &d.cause_examples {
            writeln!(out, "  {:<26} {domain}", cause.label())?;
        }
    }
    Ok(())
}

/// The ablation's builder variants: full capability, then one capability
/// (or an interacting pair) knocked out at a time.
fn ablation_variants() -> Vec<(&'static str, BuilderPolicy)> {
    let full = BuilderPolicy::full_capability("full");
    vec![
        ("full capability", full.clone()),
        (
            "no AIA completion",
            BuilderPolicy { aia: false, ..full.clone() },
        ),
        (
            "no backtracking",
            BuilderPolicy { backtracking: false, ..full.clone() },
        ),
        (
            "no reordering (forward scan)",
            BuilderPolicy {
                scope: SearchScope::ForwardOnly,
                partial_validation: true,
                ..full.clone()
            },
        ),
        (
            "flat priorities",
            BuilderPolicy {
                kid_priority: KidPriority::NoPreference,
                validity_priority: ValidityPriority::NoPreference,
                key_usage_priority: false,
                basic_constraints_priority: false,
                ..full.clone()
            },
        ),
        (
            "no trusted-first preference",
            BuilderPolicy { trusted_first: false, ..full.clone() },
        ),
        (
            "path limit = 8 (Firefox-like)",
            BuilderPolicy { max_path_len: Some(8), ..full.clone() },
        ),
        (
            "list limit = 16 (GnuTLS-like)",
            BuilderPolicy { max_list_len: Some(16), ..full.clone() },
        ),
        // Interactions: AIA completion can mask the loss of other
        // capabilities (a fetch recovers an out-of-position issuer), so
        // the paper's I-1/I-3 client deficits only show once AIA is gone.
        (
            "no AIA + no reordering (MbedTLS-like)",
            BuilderPolicy {
                aia: false,
                scope: SearchScope::ForwardOnly,
                partial_validation: true,
                ..full.clone()
            },
        ),
        (
            "no AIA + no backtracking (OpenSSL-like)",
            BuilderPolicy {
                aia: false,
                backtracking: false,
                ..full
            },
        ),
    ]
}

/// One ablation variant's build totals over the non-compliant chains.
#[derive(Debug, Default)]
struct VariantTotals {
    accepted: usize,
    candidates: usize,
    fetches: usize,
    backtracks: usize,
}

/// The §6.2 ablation's totals: the non-compliant chains re-built, and
/// per builder variant (in [`ablation_variants`] order) what those
/// builds added up to.
#[derive(Debug)]
struct AblationSummary {
    chains: usize,
    variants: Vec<(&'static str, VariantTotals)>,
}

/// Pipeline pass running every ablation variant on each non-compliant
/// chain as the sweep reaches it. Workers add up per-variant totals and
/// `merge` sums them, so no chain outlives its observation.
#[derive(Debug)]
struct AblationPass<'c> {
    state: Option<AblationState<'c>>,
    summary: AblationSummary,
}

/// Worker-local analyzer, AIA repository, one engine per variant, and the
/// [`SharedBuild`] all ten variants of one chain start from.
#[derive(Debug)]
struct AblationState<'c> {
    checker: &'c IssuanceChecker,
    analyzer: CompletenessAnalyzer<'c>,
    aia: &'c AiaRepository,
    engines: Vec<ChainEngine>,
    shared: SharedBuild<'c>,
}

impl<'c> AblationPass<'c> {
    fn new() -> AblationPass<'c> {
        let variants = ablation_variants()
            .into_iter()
            .map(|(name, _)| (name, VariantTotals::default()))
            .collect();
        AblationPass { state: None, summary: AblationSummary { chains: 0, variants } }
    }
}

impl<'c> AnalysisPass<'c> for AblationPass<'c> {
    fn name(&self) -> &'static str {
        "ablation"
    }

    fn begin(&self, ctx: PassContext<'c>) -> Self {
        let corpus = ctx.corpus;
        let state = AblationState {
            analyzer: CompletenessAnalyzer::new(
                ctx.checker,
                corpus.programs.unified(),
                Some(&corpus.aia),
            ),
            checker: ctx.checker,
            aia: &corpus.aia,
            engines: ablation_variants()
                .into_iter()
                .map(|(_, policy)| ChainEngine::new(policy))
                .collect(),
            shared: SharedBuild::new(corpus.programs.unified(), &[], scan_time(), ctx.checker),
        };
        AblationPass { state: Some(state), ..AblationPass::new() }
    }

    fn visit(&mut self, obs: &DomainObservation, memo: &ObservationMemo) {
        let st = self.state.as_mut().expect("forked worker");
        if memo.report(obs, st.checker, &st.analyzer).is_compliant() {
            return;
        }
        self.summary.chains += 1;
        st.shared.load(&obs.served);
        for (engine, (_, totals)) in st.engines.iter().zip(&mut self.summary.variants) {
            let outcome = st.shared.build(engine, Some(st.aia));
            totals.accepted += usize::from(outcome.accepted());
            totals.candidates += outcome.stats.candidates_considered;
            totals.fetches += outcome.stats.aia_fetches;
            totals.backtracks += outcome.stats.backtracks;
        }
    }

    fn merge(&mut self, other: Self) {
        self.summary.chains += other.summary.chains;
        let theirs = other.summary.variants.into_iter().map(|(_, t)| t);
        for ((_, mine), theirs) in self.summary.variants.iter_mut().zip(theirs) {
            mine.accepted += theirs.accepted;
            mine.candidates += theirs.candidates;
            mine.fetches += theirs.fetches;
            mine.backtracks += theirs.backtracks;
        }
    }
}

/// §6.2 ablation: starting from a fully capable client, knock out one
/// capability at a time and measure the acceptance rate (and work done)
/// over the non-compliant chains.
fn ablation(s: &AblationSummary, out: &mut String) -> fmt::Result {
    let mut table = TextTable::new(
        "Capability ablation over non-compliant chains",
        &["Variant", "Accepted", "Avg candidates", "Avg AIA fetches", "Avg backtracks"],
    );
    let n = s.chains.max(1) as f64;
    for (name, t) in &s.variants {
        table.row(&[
            name.to_string(),
            count_pct(t.accepted, s.chains),
            format!("{:.2}", t.candidates as f64 / n),
            format!("{:.3}", t.fetches as f64 / n),
            format!("{:.3}", t.backtracks as f64 / n),
        ]);
    }
    writeln!(out, "{}", table.render())?;
    writeln!(
        out,
        "paper §6.2: completion (AIA or cache) is the dominant capability, then\n\
         backtracking, then order reorganization; the trusted-first preference\n\
         saves construction attempts without changing outcomes."
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_tables_skip_the_corpus_sweep() {
        let (text, stats) = run(&select(&["table1"]).expect("known"), 50, Pipeline::new(1));
        assert!(text.starts_with("== Table 1"), "{text}");
        assert!(stats.is_none(), "a fixture-only selection must not sweep");
    }

    #[test]
    fn one_sweep_runs_only_the_needed_passes() {
        let (_, stats) = run(&select(&["table3", "table5"]).expect("known"), 40, Pipeline::new(1));
        assert_eq!(stats.expect("swept").passes, 1);
        let (_, stats) = run(&select(&["all"]).expect("known"), 40, Pipeline::new(1));
        assert_eq!(stats.expect("swept").passes, 3);
    }
}
