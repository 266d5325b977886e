//! `chaos`: fault-injected chain building.
//!
//! Untraced: `Pipeline::run` over `FaultPass` with
//! `FaultScenario::standard_sweep` (fault rates 0, 0.1 and 0.3; eight
//! clients each, so 24 builds per domain), with [`Latency`] timing each
//! domain's 24 builds.
//!
//! Traced: [`TracedChaos`] drives `client_profiles()` ×
//! `ChainEngine::process` the way `FaultPass::visit` does, through a
//! [`TimedTransport`] that wraps `FaultyTransport` to time each AIA fetch.
//! Its summary must render byte-identically to the untraced one.

use crate::measure::{digest, timed};
use crate::report::Layers;
use crate::trace::{totals, Recorder, Span};
use crate::{program_counts, worker_balance, Latency, Sweep, TracedSweep};
use ccc_bench::{
    AnalysisPass, ChaosClientCell, ChaosScenarioSummary, ChaosSummary, FaultPass, FaultScenario,
    ObservationMemo, PassContext, Pipeline,
};
use ccc_core::clients::{client_profiles, ClientKind};
use ccc_core::leaf::cert_covers_domain;
use ccc_core::{BuildContext, BuildOutcome, ChainEngine, IssuanceChecker};
use ccc_netsim::fault::{AiaTransport, FetchResponse};
use ccc_netsim::FaultyTransport;
use ccc_rootstore::RootStore;
use ccc_testgen::corpus::scan_time;
use ccc_testgen::{Corpus, DomainObservation};
use ccc_x509::Certificate;
use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

/// Output checks: the sweep covered every domain, every cell has
/// `passes ≤ total`, and the zero-fault scenario needed no retries. A
/// failed check cannot be pinned to one domain, so it fails the sweep.
pub fn failed_domains(domains: usize, summary: &ChaosSummary) -> usize {
    let cells_ok = summary.scenarios.iter().all(|sc| {
        sc.per_client.values().all(|cell| {
            cell.passes <= summary.total && (sc.fault_rate > 0.0 || cell.aia_retries == 0)
        })
    });
    if summary.total == domains && summary.scenarios.len() == 3 && cells_ok {
        0
    } else {
        domains
    }
}

/// One untraced sweep.
pub fn sweep(corpus: &Corpus, threads: usize) -> Sweep {
    let checker = IssuanceChecker::new();
    let pass = Latency::new(FaultPass::new(FaultScenario::standard_sweep(corpus)));
    let ((root, _stats), wall, cpu_s) =
        timed(|| Pipeline::new(threads).run(corpus, &checker, pass));
    let summary = root.inner.into_summary();
    let domains = corpus.spec.domains;
    Sweep {
        domains,
        failed: failed_domains(domains, &summary),
        wall,
        cpu_s,
        chain_ns: root.ns,
        digest: digest(&summary.render_table()),
    }
}

/// An [`AiaTransport`] that times every fetch of the wrapped
/// `FaultyTransport`. The builder calls it from inside `process`, so the
/// timings wait here until the caller drains them into its recorder.
#[derive(Debug)]
pub struct TimedTransport<'r> {
    inner: FaultyTransport<'r>,
    fetches: Mutex<Vec<(Instant, Instant)>>,
}

impl<'r> TimedTransport<'r> {
    /// Wrap a fault-injecting transport.
    pub fn new(inner: FaultyTransport<'r>) -> TimedTransport<'r> {
        TimedTransport {
            inner,
            fetches: Mutex::new(Vec::new()),
        }
    }

    /// Take the fetch timings recorded since the last call.
    pub fn take(&self) -> Vec<(Instant, Instant)> {
        std::mem::take(&mut *self.fetches.lock().expect("fetch log poisoned"))
    }
}

impl AiaTransport for TimedTransport<'_> {
    fn fetch_aia(&self, uri: &str, attempt: u32) -> FetchResponse {
        let start = Instant::now();
        let response = self.inner.fetch_aia(uri, attempt);
        let end = Instant::now();
        self.fetches
            .lock()
            .expect("fetch log poisoned")
            .push((start, end));
        response
    }
}

/// The per-cell accounting of `FaultPass`: a pass counts only when the
/// client accepted the chain and the leaf covers the domain.
fn absorb(cell: &mut ChaosClientCell, outcome: &BuildOutcome, covers_domain: bool) {
    if outcome.accepted() && covers_domain {
        cell.passes += 1;
        if outcome.stats.aia_retries > 0 {
            cell.recovered += 1;
        }
    }
    cell.aia_attempts += outcome.stats.aia_attempts;
    cell.aia_fetches += outcome.stats.aia_fetches;
    cell.aia_retries += outcome.stats.aia_retries;
    if outcome.stats.aia_budget_exhausted {
        cell.budget_exhausted += 1;
    }
    cell.sim_latency_ms += outcome.stats.sim_latency_ms;
}

fn empty_summary(scenarios: &[FaultScenario]) -> ChaosSummary {
    ChaosSummary {
        total: 0,
        scenarios: scenarios
            .iter()
            .map(|sc| ChaosScenarioSummary {
                label: sc.label.clone(),
                fault_rate: sc.fault_rate,
                per_client: ClientKind::ALL
                    .iter()
                    .map(|&k| (k, ChaosClientCell::default()))
                    .collect(),
            })
            .collect(),
    }
}

/// Worker-local state: one timed transport per scenario, the eight
/// clients, and the worker's spans.
#[derive(Debug)]
struct Worker<'c> {
    checker: &'c IssuanceChecker,
    store: &'c RootStore,
    cache: Vec<Certificate>,
    transports: Vec<TimedTransport<'c>>,
    clients: Vec<(ClientKind, ChainEngine)>,
    rec: Recorder,
}

/// The traced chaos pass.
#[derive(Debug)]
pub struct TracedChaos<'c> {
    epoch: Instant,
    next_worker: Cell<u32>,
    scenarios: Vec<FaultScenario>,
    worker: Option<Worker<'c>>,
    summary: ChaosSummary,
    recorders: Vec<Recorder>,
}

impl<'c> TracedChaos<'c> {
    /// A root pass over `scenarios` whose spans are timed from `epoch`.
    pub fn new(epoch: Instant, scenarios: Vec<FaultScenario>) -> TracedChaos<'c> {
        TracedChaos {
            epoch,
            next_worker: Cell::new(0),
            summary: empty_summary(&scenarios),
            scenarios,
            worker: None,
            recorders: Vec::new(),
        }
    }
}

impl<'c> AnalysisPass<'c> for TracedChaos<'c> {
    fn name(&self) -> &'static str {
        "traced-chaos"
    }

    fn begin(&self, ctx: PassContext<'c>) -> Self {
        let id = self.next_worker.get();
        self.next_worker.set(id + 1);
        let transports = self
            .scenarios
            .iter()
            .map(|sc| TimedTransport::new(FaultyTransport::new(&ctx.corpus.aia, sc.plan.clone())))
            .collect();
        TracedChaos {
            epoch: self.epoch,
            next_worker: Cell::new(0),
            scenarios: self.scenarios.clone(),
            worker: Some(Worker {
                checker: ctx.checker,
                store: ctx.corpus.programs.unified(),
                cache: ctx.corpus.intermediate_cache(),
                transports,
                clients: client_profiles(),
                rec: Recorder::new(self.epoch, id),
            }),
            summary: empty_summary(&self.scenarios),
            recorders: Vec::new(),
        }
    }

    fn visit(&mut self, obs: &DomainObservation, _memo: &ObservationMemo) {
        let w = self
            .worker
            .as_mut()
            .expect("visit is only called on forked workers");
        let rank = obs.rank;
        self.summary.total += 1;
        let covers = obs
            .served
            .first()
            .is_some_and(|leaf| cert_covers_domain(leaf, &obs.domain));
        let domain = w.rec.enter("domain", rank);
        for (scenario, transport) in self.summary.scenarios.iter_mut().zip(&w.transports) {
            let ctx = BuildContext {
                store: w.store,
                aia: Some(transport),
                cache: &w.cache,
                now: scan_time(),
                checker: w.checker,
            };
            for (kind, engine) in &w.clients {
                let build = w.rec.enter("core.builder", rank);
                let outcome = engine.process(&obs.served, &ctx);
                for (start, end) in transport.take() {
                    w.rec.record("netsim.fetch", rank, start, end);
                }
                w.rec.exit(build);
                let cell = scenario
                    .per_client
                    .get_mut(kind)
                    .expect("prefilled for all clients");
                absorb(cell, &outcome, covers);
            }
        }
        w.rec.exit(domain);
    }

    fn merge(&mut self, other: Self) {
        self.summary.merge(other.summary);
        self.recorders.extend(other.worker.map(|w| w.rec));
        self.recorders.extend(other.recorders);
    }
}

/// One traced sweep.
pub fn traced(corpus: &Corpus, threads: usize) -> TracedSweep {
    let checker = IssuanceChecker::new();
    let reg_before = ccc_obs::MetricsRegistry::global().snapshot();
    let epoch = Instant::now();
    let root = TracedChaos::new(epoch, FaultScenario::standard_sweep(corpus));
    let (root, stats) = Pipeline::new(threads).run(corpus, &checker, root);
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

    let mut layers = Layers::new();
    program_counts(&mut layers, &checker.snapshot_stats(), &reg);
    worker_balance(&mut layers, wall, stats.threads, &busy);
    layers.insert("testgen.observation.busy_s", stats.generation.as_secs_f64());
    layers.insert("core.builder.busy_s", self_s("core.builder"));
    layers.insert("netsim.fetch.busy_s", self_s("netsim.fetch"));
    layers.insert(
        "crypto.verify.prefetch_busy_s",
        stats.analysis.as_secs_f64() - visits_s,
    );
    let domains = corpus.spec.domains;
    TracedSweep {
        wall,
        failed: failed_domains(domains, &root.summary),
        digest: digest(&root.summary.render_table()),
        layers,
        spans,
    }
}
