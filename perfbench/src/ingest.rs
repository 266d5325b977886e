//! `ingest`: certificate messages in, lint findings out.
//!
//! Set-up generates every observation, encodes its served list with
//! `encode_tls13` and records the expected fingerprints. The timed sweep
//! runs, per chain, `decode_tls13` (DER parse and SHA-256 fingerprint) →
//! `TopologyGraph::build` → `analyze_compliance_with_graph` →
//! `LintEngine::lint_prepared`. Each worker takes a contiguous share of
//! the messages; all share one fresh checker. No prefetch runs, as on the
//! `chain-chaos lint` path.

use crate::measure::{digest, nanos, ratio, timed};
use crate::report::Layers;
use crate::trace::{totals, Recorder, Span};
use crate::{program_counts, worker_balance, Sweep, TracedSweep};
use ccc_core::{analyze_compliance_with_graph, IssuanceChecker, TopologyGraph};
use ccc_lint::{LintEngine, LintSummary};
use ccc_netsim::tlsmsg::{decode_tls13, encode_tls13};
use ccc_testgen::corpus::scan_time;
use ccc_testgen::{Corpus, CorpusSpec};
use ccc_x509::CertificateFingerprint;
use std::time::Instant;

/// One chain as the sweep receives it.
#[derive(Debug)]
pub struct Message {
    /// Queried domain.
    pub domain: String,
    /// TLS 1.3 Certificate handshake message.
    pub bytes: Vec<u8>,
    /// Fingerprints of the served certificates, in order.
    pub expected: Vec<CertificateFingerprint>,
}

/// The ingest workload's inputs.
#[derive(Debug)]
pub struct IngestInputs {
    /// The corpus: trust stores and the AIA repository the lint engine
    /// analyses against.
    pub corpus: Corpus,
    /// One message per domain, in rank order.
    pub messages: Vec<Message>,
    /// Nanoseconds `Corpus::observation` took per domain during set-up.
    pub generation_ns: Vec<u64>,
}

impl IngestInputs {
    /// Generate and encode every observation of `spec`.
    pub fn build(spec: CorpusSpec) -> IngestInputs {
        let corpus = Corpus::new(spec);
        let mut generation_ns = Vec::with_capacity(corpus.spec.domains);
        let messages = (0..corpus.spec.domains)
            .map(|rank| {
                let t0 = Instant::now();
                let obs = corpus.observation(rank);
                generation_ns.push(nanos(t0.elapsed()));
                Message {
                    bytes: encode_tls13(&obs.served).expect("generated chains fit a message"),
                    expected: obs.served.iter().map(|c| c.fingerprint()).collect(),
                    domain: obs.domain,
                }
            })
            .collect();
        IngestInputs {
            corpus,
            messages,
            generation_ns,
        }
    }
}

/// One worker's share of a sweep.
#[derive(Debug, Default)]
struct Part {
    summary: LintSummary,
    failed: usize,
    chain_ns: Vec<u64>,
    bytes: usize,
    certs: usize,
    rec: Option<Recorder>,
}

/// Run `f` inside a span when tracing, bare otherwise.
fn step<R>(
    rec: &mut Option<Recorder>,
    name: &'static str,
    rank: usize,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(r) => r.span(name, rank, f),
        None => f(),
    }
}

fn run_part(
    messages: &[Message],
    first_rank: usize,
    engine: &LintEngine<'_>,
    mut rec: Option<Recorder>,
) -> Part {
    let mut part = Part::default();
    for (i, msg) in messages.iter().enumerate() {
        let rank = first_rank + i;
        let t0 = Instant::now();
        let domain_span = rec.as_mut().map(|r| r.enter("domain", rank));
        let certs = match step(&mut rec, "x509.decode", rank, || decode_tls13(&msg.bytes)) {
            Ok(certs) => certs,
            Err(_) => {
                part.failed += 1;
                if let (Some(r), Some(id)) = (rec.as_mut(), domain_span) {
                    r.exit(id);
                }
                continue;
            }
        };
        let checker = engine.checker();
        let graph = step(&mut rec, "core.topology", rank, || {
            TopologyGraph::build(&certs, checker)
        });
        let report = step(&mut rec, "core.compliance", rank, || {
            analyze_compliance_with_graph(&msg.domain, &certs, &graph, engine.analyzer())
        });
        let findings = step(&mut rec, "lint", rank, || {
            engine.lint_prepared(&msg.domain, &certs, &graph, &report)
        });
        part.chain_ns.push(nanos(t0.elapsed()));
        let fingerprints_match = certs
            .iter()
            .map(|c| c.fingerprint())
            .eq(msg.expected.iter().copied());
        let violations = part.summary.consistency_violations.len();
        part.summary.total += 1;
        part.summary.absorb_chain(&msg.domain, &report, findings);
        if !fingerprints_match || part.summary.consistency_violations.len() != violations {
            part.failed += 1;
        }
        part.bytes += msg.bytes.len();
        part.certs += certs.len();
        if let (Some(r), Some(id)) = (rec.as_mut(), domain_span) {
            r.exit(id);
        }
    }
    part.rec = rec;
    part
}

/// Sweep all messages on `threads` workers (contiguous shares, merged in
/// rank order); recorders come back only when `epoch` is given.
fn run(
    inputs: &IngestInputs,
    checker: &IssuanceChecker,
    threads: usize,
    epoch: Option<Instant>,
) -> (Part, Vec<Recorder>) {
    let corpus = &inputs.corpus;
    let engine = LintEngine::new(
        checker,
        corpus.programs.unified(),
        Some(&corpus.aia),
        scan_time(),
    );
    let share = inputs.messages.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<Part> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .messages
            .chunks(share)
            .enumerate()
            .map(|(w, chunk)| {
                let engine = &engine;
                scope.spawn(move || {
                    let rec = epoch.map(|e| Recorder::new(e, w as u32));
                    run_part(chunk, w * share, engine, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ingest worker panicked"))
            .collect()
    });
    let mut all = Part::default();
    let mut recorders = Vec::new();
    for part in parts {
        all.summary.merge(part.summary);
        all.failed += part.failed;
        all.chain_ns.extend(part.chain_ns);
        all.bytes += part.bytes;
        all.certs += part.certs;
        recorders.extend(part.rec);
    }
    (all, recorders)
}

/// Output checks: every message decoded to the generated fingerprints
/// and the lint invariant held for every chain (`run_part` counts both
/// per chain); a chain missing from the summary fails the sweep.
fn failed_domains(inputs: &IngestInputs, part: &Part) -> usize {
    let domains = inputs.messages.len();
    if part.summary.total + part.failed < domains {
        domains
    } else {
        part.failed
    }
}

/// The rendered summary the digest covers.
pub fn render(summary: &LintSummary) -> String {
    format!("{summary:#?}\n")
}

/// One untraced sweep.
pub fn sweep(inputs: &IngestInputs, threads: usize) -> Sweep {
    let checker = IssuanceChecker::new();
    let ((part, _), wall, cpu_s) = timed(|| run(inputs, &checker, threads, None));
    Sweep {
        domains: inputs.messages.len(),
        failed: failed_domains(inputs, &part),
        wall,
        cpu_s,
        digest: digest(&render(&part.summary)),
        chain_ns: part.chain_ns,
    }
}

/// One traced sweep.
pub fn traced(inputs: &IngestInputs, threads: usize) -> TracedSweep {
    let checker = IssuanceChecker::new();
    let reg_before = ccc_obs::MetricsRegistry::global().snapshot();
    let epoch = Instant::now();
    let (part, recorders) = run(inputs, &checker, threads, Some(epoch));
    let wall = epoch.elapsed();
    let reg = ccc_obs::MetricsRegistry::global()
        .snapshot()
        .since(&reg_before);

    let mut spans: Vec<Span> = Vec::new();
    let busy: Vec<u64> = recorders.iter().map(Recorder::busy_ns).collect();
    for rec in recorders {
        rec.drain_into(&mut spans);
    }
    let t = totals(&spans);
    let self_s = |name: &str| t.get(name).map_or(0.0, |n| n.self_ns as f64 / 1e9);

    let mut layers = Layers::new();
    program_counts(&mut layers, &checker.snapshot_stats(), &reg);
    worker_balance(&mut layers, wall, busy.len(), &busy);
    let decode_s = self_s("x509.decode");
    layers.insert(
        "testgen.observation.busy_s",
        inputs.generation_ns.iter().sum::<u64>() as f64 / 1e9,
    );
    layers.insert("x509.decode.busy_s", decode_s);
    layers.insert(
        "x509.decode.mb_per_s",
        ratio(part.bytes as f64 / 1e6, decode_s),
    );
    layers.insert("x509.certs_decoded", part.certs as f64);
    layers.insert("core.topology.busy_s", self_s("core.topology"));
    layers.insert("core.compliance.busy_s", self_s("core.compliance"));
    layers.insert("lint.busy_s", self_s("lint"));
    layers.insert("lint.findings", part.summary.findings_total as f64);
    TracedSweep {
        wall,
        failed: failed_domains(inputs, &part),
        digest: digest(&render(&part.summary)),
        layers,
        spans,
    }
}
