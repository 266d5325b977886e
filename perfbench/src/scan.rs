//! `scan`: the fused paper reproduction.
//!
//! Untraced: `Pipeline::run(corpus, fresh IssuanceChecker,
//! (CompliancePass, DifferentialPass, LintPass))`, with [`Latency`]
//! timing each domain's `visit` (topology, compliance, the eight client
//! builds and lint, after generation and prefetch).
//!
//! Traced: the same `Pipeline::run` over [`TracedScan`], which times
//! `memo.graph` (topology) and `memo.report` (compliance) as a first
//! stage, then each leaf pass's `visit`.

use crate::measure::{digest, timed};
use crate::report::Layers;
use crate::trace::{totals, Recorder, Span};
use crate::{program_counts, worker_balance, Latency, Sweep, TracedSweep};
use ccc_bench::{
    AnalysisPass, CompliancePass, CorpusSummary, DifferentialPass, DifferentialSummary, LintPass,
    ObservationMemo, PassContext, Pipeline,
};
use ccc_core::{CompletenessAnalyzer, IssuanceChecker};
use ccc_lint::LintSummary;
use ccc_testgen::{Corpus, DomainObservation};
use std::cell::Cell;
use std::time::Instant;

/// The rendered summary the digest covers.
pub fn render(c: &CorpusSummary, d: &DifferentialSummary, l: &LintSummary) -> String {
    format!("{c:#?}\n{d:#?}\n{l:#?}\n")
}

/// Output checks: every summary total equals the domain count (else the
/// whole sweep fails), and the lint invariant holds per domain.
pub fn failed_domains(
    domains: usize,
    c: &CorpusSummary,
    d: &DifferentialSummary,
    l: &LintSummary,
) -> usize {
    if c.total != domains || d.corpus_total != domains || l.total != domains {
        return domains;
    }
    violating_domains(&l.consistency_violations)
}

/// Failed-domain count from lint consistency violations: each violation
/// line starts with its domain, and a domain may report more than one.
fn violating_domains(violations: &[String]) -> usize {
    let mut domains: Vec<&str> = violations
        .iter()
        .map(|v| v.split(':').next().unwrap_or(""))
        .collect();
    domains.sort_unstable();
    domains.dedup();
    domains.len()
}

/// One untraced sweep.
pub fn sweep(corpus: &Corpus, threads: usize) -> Sweep {
    let checker = IssuanceChecker::new();
    let passes = Latency::new((
        CompliancePass::new(),
        DifferentialPass::new(),
        LintPass::new(),
    ));
    let ((root, _stats), wall, cpu_s) =
        timed(|| Pipeline::new(threads).run(corpus, &checker, passes));
    let (c, d, l) = root.inner;
    let c = c.into_summary();
    let d = d.into_summary();
    let l = l.into_summary();
    let domains = corpus.spec.domains;
    Sweep {
        domains,
        failed: failed_domains(domains, &c, &d, &l),
        wall,
        cpu_s,
        chain_ns: root.ns,
        digest: digest(&render(&c, &d, &l)),
    }
}

/// Worker-local stage state: the analyzer `memo.report` is computed with
/// (the configuration every scan pass uses) and the worker's spans.
#[derive(Debug)]
struct Stage<'c> {
    checker: &'c IssuanceChecker,
    analyzer: CompletenessAnalyzer<'c>,
    rec: Recorder,
}

/// The traced scan pass: the three leaf passes plus a timed first stage.
#[derive(Debug)]
pub struct TracedScan<'c> {
    epoch: Instant,
    next_worker: Cell<u32>,
    stage: Option<Stage<'c>>,
    compliance: CompliancePass<'c>,
    differential: DifferentialPass<'c>,
    lint: LintPass<'c>,
    recorders: Vec<Recorder>,
}

impl<'c> TracedScan<'c> {
    /// A root pass whose spans are timed from `epoch`.
    pub fn new(epoch: Instant) -> TracedScan<'c> {
        TracedScan {
            epoch,
            next_worker: Cell::new(0),
            stage: None,
            compliance: CompliancePass::new(),
            differential: DifferentialPass::new(),
            lint: LintPass::new(),
            recorders: Vec::new(),
        }
    }
}

impl<'c> AnalysisPass<'c> for TracedScan<'c> {
    fn name(&self) -> &'static str {
        "traced-scan"
    }

    fn begin(&self, ctx: PassContext<'c>) -> Self {
        let worker = self.next_worker.get();
        self.next_worker.set(worker + 1);
        let corpus = ctx.corpus;
        TracedScan {
            epoch: self.epoch,
            next_worker: Cell::new(0),
            stage: Some(Stage {
                checker: ctx.checker,
                analyzer: CompletenessAnalyzer::new(
                    ctx.checker,
                    corpus.programs.unified(),
                    Some(&corpus.aia),
                ),
                rec: Recorder::new(self.epoch, worker),
            }),
            compliance: self.compliance.begin(ctx),
            differential: self.differential.begin(ctx),
            lint: self.lint.begin(ctx),
            recorders: Vec::new(),
        }
    }

    fn visit(&mut self, obs: &DomainObservation, memo: &ObservationMemo) {
        let TracedScan {
            stage,
            compliance,
            differential,
            lint,
            ..
        } = self;
        let st = stage
            .as_mut()
            .expect("visit is only called on forked workers");
        let rank = obs.rank;
        let rec = &mut st.rec;
        let domain = rec.enter("domain", rank);
        rec.span("core.topology", rank, || memo.graph(obs, st.checker));
        rec.span("core.compliance", rank, || {
            memo.report(obs, st.checker, &st.analyzer)
        });
        rec.span("core.compliance", rank, || compliance.visit(obs, memo));
        rec.span("core.builder", rank, || differential.visit(obs, memo));
        rec.span("lint", rank, || lint.visit(obs, memo));
        rec.exit(domain);
    }

    fn merge(&mut self, other: Self) {
        self.compliance.merge(other.compliance);
        self.differential.merge(other.differential);
        self.lint.merge(other.lint);
        self.recorders.extend(other.stage.map(|s| s.rec));
        self.recorders.extend(other.recorders);
    }

    fn pass_count(&self) -> usize {
        3
    }
}

/// One traced sweep.
pub fn traced(corpus: &Corpus, threads: usize) -> TracedSweep {
    let checker = IssuanceChecker::new();
    let reg_before = ccc_obs::MetricsRegistry::global().snapshot();
    let epoch = Instant::now();
    let (root, stats) = Pipeline::new(threads).run(corpus, &checker, TracedScan::new(epoch));
    let wall = epoch.elapsed();
    let reg = ccc_obs::MetricsRegistry::global()
        .snapshot()
        .since(&reg_before);

    let mut spans: Vec<Span> = Vec::new();
    let busy: Vec<u64> = root.recorders.iter().map(Recorder::busy_ns).collect();
    for rec in root.recorders {
        rec.drain_into(&mut spans);
    }
    let t = totals(&spans);
    let self_s = |name: &str| t.get(name).map_or(0.0, |n| n.self_ns as f64 / 1e9);
    let visits_s = t.get("domain").map_or(0.0, |n| n.total_ns as f64 / 1e9);

    let c = root.compliance.into_summary();
    let d = root.differential.into_summary();
    let l = root.lint.into_summary();
    let domains = corpus.spec.domains;

    let mut layers = Layers::new();
    program_counts(&mut layers, &checker.snapshot_stats(), &reg);
    worker_balance(&mut layers, wall, stats.threads, &busy);
    layers.insert("testgen.observation.busy_s", stats.generation.as_secs_f64());
    layers.insert("core.topology.busy_s", self_s("core.topology"));
    layers.insert("core.compliance.busy_s", self_s("core.compliance"));
    layers.insert("core.builder.busy_s", self_s("core.builder"));
    layers.insert("lint.busy_s", self_s("lint"));
    layers.insert("lint.findings", l.findings_total as f64);
    layers.insert(
        "crypto.verify.prefetch_busy_s",
        stats.analysis.as_secs_f64() - visits_s,
    );
    TracedSweep {
        wall,
        failed: failed_domains(domains, &c, &d, &l),
        digest: digest(&render(&c, &d, &l)),
        layers,
        spans,
    }
}
