//! End-to-end and per-layer benchmark of the chain-chaos workspace.
//!
//! Three batch workloads, each generated in-process from a seed (the
//! `CorpusSpec::calibrated` seed) and swept on [`WORKERS`] workers:
//!
//! - [`scan`]: the fused paper reproduction, `Pipeline::run` over
//!   `(CompliancePass, DifferentialPass, LintPass)`;
//! - [`chaos`]: `FaultPass` over `FaultScenario::standard_sweep`
//!   (24 client builds per domain);
//! - [`ingest`]: TLS 1.3 Certificate messages decoded and linted, the
//!   only workload that parses DER.
//!
//! Every sweep checks its outputs. The untraced sweep feeds the
//! end-to-end metrics; a traced sweep of the same inputs times the calls
//! the benchmark makes into each crate's public entry points (see
//! [`trace`]) and reads the program's public counters. README.md in this
//! directory records why each workload exists and which end-to-end metric
//! each layer metric should move.

pub mod chaos;
pub mod ingest;
pub mod measure;
pub mod report;
pub mod scan;
pub mod trace;

use ccc_bench::{AnalysisPass, ObservationMemo, PassContext};
use ccc_core::CacheStats;
use ccc_testgen::{Corpus, DomainObservation};
use std::time::{Duration, Instant};

/// Worker count for every sweep (the load is one process, two workers).
pub const WORKERS: usize = 2;

/// The default seed: the scan seed every regeneration binary uses.
pub const DEFAULT_SEED: u64 = ccc_bench::SCAN_SEED;

/// The workloads the benchmark can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fused compliance + differential + lint sweep.
    Scan,
    /// Fault-injected chain building.
    Chaos,
    /// Certificate-message decode, topology, compliance and lint.
    Ingest,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Scan, Workload::Chaos, Workload::Ingest];

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Scan => "scan",
            Workload::Chaos => "chaos",
            Workload::Ingest => "ingest",
        }
    }

    /// Domains in one sweep: the stated input size every throughput
    /// figure refers to.
    pub fn domains(self) -> usize {
        match self {
            Workload::Scan => 6_000,
            Workload::Chaos => 3_000,
            Workload::Ingest => 12_000,
        }
    }

    /// SHA-256 (hex) of the rendered summary at [`DEFAULT_SEED`] and
    /// [`Workload::domains`]: the fixed-seed byte-identity contract.
    pub fn golden_digest(self) -> &'static str {
        match self {
            Workload::Scan => "6bf9fb57d7e708e53ecf13aafb93be8535102afa22dee787e73034371a0cca51",
            Workload::Chaos => "d8a169b5c3a959558ea8a2123354be70c5b70bdbd6adab05919c7ab23252079d",
            Workload::Ingest => "a8c081b64002f09c47663f21e20fa06e2f36f0164cb9d83a0e1f7f6fd1b0b48f",
        }
    }
}

/// One untraced sweep's outcome.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Domains swept.
    pub domains: usize,
    /// Domains whose output checks failed.
    pub failed: usize,
    /// Wall time of the sweep.
    pub wall: Duration,
    /// User + system CPU seconds the process spent during the sweep.
    pub cpu_s: f64,
    /// Per-domain latency in nanoseconds (see README.md for where each
    /// workload starts and stops the clock).
    pub chain_ns: Vec<u64>,
    /// SHA-256 (hex) of the rendered summary.
    pub digest: String,
}

/// One traced sweep's outcome: the checked result plus the per-layer
/// metrics and the recorded spans.
#[derive(Debug)]
pub struct TracedSweep {
    /// Wall time of the traced sweep.
    pub wall: Duration,
    /// Domains whose output checks failed.
    pub failed: usize,
    /// SHA-256 (hex) of the rendered summary; must equal the untraced one.
    pub digest: String,
    /// Per-layer metrics measured on this sweep.
    pub layers: report::Layers,
    /// Every span recorded, worker by worker.
    pub spans: Vec<trace::Span>,
}

/// A workload's inputs, built once per set-up.
#[derive(Debug)]
pub enum Inputs {
    /// Scan and chaos sweep a corpus that generates observations lazily.
    Corpus(Corpus),
    /// Ingest sweeps pre-encoded certificate messages.
    Ingest(ingest::IngestInputs),
}

/// Build a workload's inputs for `seed` at `domains` domains.
pub fn setup(workload: Workload, seed: u64, domains: usize) -> Inputs {
    let spec = ccc_testgen::CorpusSpec::calibrated(seed, domains);
    match workload {
        Workload::Scan | Workload::Chaos => Inputs::Corpus(Corpus::new(spec)),
        Workload::Ingest => Inputs::Ingest(ingest::IngestInputs::build(spec)),
    }
}

/// Run one untraced sweep on `threads` workers.
pub fn run_sweep(workload: Workload, inputs: &Inputs, threads: usize) -> Sweep {
    match (workload, inputs) {
        (Workload::Scan, Inputs::Corpus(c)) => scan::sweep(c, threads),
        (Workload::Chaos, Inputs::Corpus(c)) => chaos::sweep(c, threads),
        (Workload::Ingest, Inputs::Ingest(i)) => ingest::sweep(i, threads),
        _ => panic!("inputs were not built for workload {}", workload.name()),
    }
}

/// Run one traced sweep on `threads` workers.
pub fn run_traced(workload: Workload, inputs: &Inputs, threads: usize) -> TracedSweep {
    match (workload, inputs) {
        (Workload::Scan, Inputs::Corpus(c)) => scan::traced(c, threads),
        (Workload::Chaos, Inputs::Corpus(c)) => chaos::traced(c, threads),
        (Workload::Ingest, Inputs::Ingest(i)) => ingest::traced(i, threads),
        _ => panic!("inputs were not built for workload {}", workload.name()),
    }
}

/// Untraced per-domain latency: wraps a pass and times each `visit`.
#[derive(Debug)]
pub struct Latency<P> {
    /// The wrapped pass.
    pub inner: P,
    /// Nanoseconds per visited domain, in rank order once merged.
    pub ns: Vec<u64>,
}

impl<P> Latency<P> {
    /// Wrap a root pass.
    pub fn new(inner: P) -> Latency<P> {
        Latency {
            inner,
            ns: Vec::new(),
        }
    }
}

impl<'c, P: AnalysisPass<'c>> AnalysisPass<'c> for Latency<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn begin(&self, ctx: PassContext<'c>) -> Self {
        Latency::new(self.inner.begin(ctx))
    }

    fn visit(&mut self, obs: &DomainObservation, memo: &ObservationMemo) {
        let t0 = Instant::now();
        self.inner.visit(obs, memo);
        self.ns.push(measure::nanos(t0.elapsed()));
    }

    fn merge(&mut self, other: Self) {
        self.inner.merge(other.inner);
        self.ns.extend(other.ns);
    }

    fn finish(&mut self, ctx: PassContext<'c>) {
        self.inner.finish(ctx);
    }

    fn pass_count(&self) -> usize {
        self.inner.pass_count()
    }
}

/// Read the program's public counters for one sweep into `layers`: the
/// checker's cache statistics (which include the crypto verify routes)
/// and the registry delta of the builder counters.
pub fn program_counts(layers: &mut report::Layers, cache: &CacheStats, reg: &ccc_obs::Snapshot) {
    let c = |name: &str| reg.counter(name) as f64;
    let builds = c("ccc_builder_builds_total");
    let attempts = c("ccc_builder_aia_attempts_total");
    for (name, value) in [
        ("core.checker.lookups", cache.lookups as f64),
        ("core.checker.verifications", cache.verifications as f64),
        ("core.checker.entries", cache.entries as f64),
        ("core.checker.hit_ratio", cache.hit_rate()),
        (
            "crypto.verify.fixed_base_hits",
            cache.fixed_base_hits as f64,
        ),
        ("crypto.verify.cold_multiexps", cache.cold_multiexps as f64),
        ("crypto.verify.tables_built", cache.tables_built as f64),
        (
            "crypto.verify.batched_verifies",
            cache.batched_verifies as f64,
        ),
        ("crypto.verify.batch_flushes", cache.batch_flushes as f64),
        (
            "crypto.verify.items_per_flush",
            measure::ratio(cache.batched_verifies as f64, cache.batch_flushes as f64),
        ),
        ("core.builder.builds", builds),
        (
            "core.builder.candidates_per_build",
            measure::ratio(c("ccc_builder_candidates_total"), builds),
        ),
        ("core.builder.backtracks", c("ccc_builder_backtracks_total")),
        (
            "core.builder.accepted_ratio",
            measure::ratio(c("ccc_builder_accepted_total"), builds),
        ),
        ("netsim.fetch.attempts", attempts),
        (
            "netsim.fetch.success_ratio",
            measure::ratio(c("ccc_builder_aia_fetches_total"), attempts),
        ),
        ("netsim.fetch.retries", c("ccc_builder_aia_retries_total")),
        (
            "netsim.sim_latency_ms",
            c("ccc_builder_sim_latency_ms_total"),
        ),
    ] {
        layers.insert(name, value);
    }
}

/// Busy-time readings shared by every traced sweep: the sweep's wall
/// time, idle worker time (`threads × wall − Σ busy`) and the slowest ÷
/// fastest worker ratio.
pub fn worker_balance(
    layers: &mut report::Layers,
    wall: Duration,
    threads: usize,
    busy_ns: &[u64],
) {
    let wall_s = wall.as_secs_f64();
    let busy_s: Vec<f64> = busy_ns.iter().map(|&b| b as f64 / 1e9).collect();
    let max = busy_s.iter().copied().fold(0.0, f64::max);
    let min = busy_s.iter().copied().fold(f64::INFINITY, f64::min);
    layers.insert("bench.sweep.wall_s", wall_s);
    layers.insert(
        "bench.pipeline.idle_s",
        threads as f64 * wall_s - busy_s.iter().sum::<f64>(),
    );
    layers.insert("bench.pipeline.worker_skew", measure::ratio(max, min));
}

/// Time `Corpus::observation` for the first `n` ranks (the generation
/// samples behind `testgen.observation.p50_us` on workloads that generate
/// inside the sweep).
pub fn probe_generation(corpus: &Corpus, n: usize) -> Vec<u64> {
    (0..n.min(corpus.spec.domains))
        .map(|rank| {
            let t0 = Instant::now();
            let obs = corpus.observation(rank);
            let ns = measure::nanos(t0.elapsed());
            drop(obs);
            ns
        })
        .collect()
}
