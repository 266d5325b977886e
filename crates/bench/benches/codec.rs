//! Criterion benchmarks for the substrate codecs and crypto: DER
//! encode/parse, TLS Certificate-message framing, SHA-256, and Schnorr
//! sign/verify.
//!
//! `der/issue_leaf` issues one corpus-shaped leaf (SAN, basic constraints,
//! key usage, EKU, SKID, AKID and AIA caIssuers under a universe
//! intermediate), signing included: the per-domain work of corpus
//! generation.
//!
//! `tls_framing/decode_tls13` decodes a corpus leaf and its issuing
//! intermediate from one TLS 1.3 Certificate message, after checking that
//! both fingerprints round-trip: the per-message parse of the ingest
//! workload.
//!
//! `schnorr/verify_sim256_leaf` verifies a real corpus leaf's TBS under its
//! issuing intermediate's key, signature parsing included: the same work
//! the pipeline pays per leaf→issuer pair, so the two numbers compare.

use ccc_crypto::{sha256, Group, KeyPair};
use ccc_netsim::tlsmsg;
use ccc_testgen::{Corpus, CorpusSpec};
use ccc_x509::{Certificate, CertificateBuilder, DistinguishedName};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn test_cert() -> Certificate {
    let kp = KeyPair::from_seed(Group::simulation_256(), b"codec-bench");
    CertificateBuilder::ca_profile(DistinguishedName::cn_o("Codec Bench CA", "bench"))
        .self_signed(&kp)
}

fn bench_der(c: &mut Criterion) {
    let cert = test_cert();
    let der = cert.to_der().to_vec();
    let mut group = c.benchmark_group("der");
    group.throughput(Throughput::Bytes(der.len() as u64));
    group.bench_function("parse_certificate", |b| {
        b.iter(|| Certificate::from_der(std::hint::black_box(&der)).expect("valid DER"))
    });
    group.bench_function("encode_tbs", |b| {
        b.iter(|| std::hint::black_box(cert.tbs().to_der()))
    });

    let corpus = Corpus::new(CorpusSpec::calibrated(833, 1));
    let int = &corpus.universe.roots[0].intermediates[0];
    let leaf_key = KeyPair::from_seed(Group::simulation_256(), b"codec-bench-leaf");
    let issue = || {
        CertificateBuilder::leaf_profile("domain0.sim")
            .aia_ca_issuers(int.aia_uri.clone())
            .issued_by(&leaf_key.public, int.cert.subject().clone(), &int.keypair)
    };
    let leaf = issue();
    let reparsed = Certificate::from_der(leaf.to_der()).expect("issued leaf parses");
    assert_eq!(reparsed.fingerprint(), leaf.fingerprint(), "leaf DER round-trips");
    assert!(leaf.verify_signature_with(int.cert.public_key()), "leaf verifies");
    group.throughput(Throughput::Bytes(leaf.to_der().len() as u64));
    group.bench_function("issue_leaf", |b| b.iter(|| std::hint::black_box(issue())));
    group.finish();
}

fn bench_tls_framing(c: &mut Criterion) {
    let cert = test_cert();
    let chain = vec![cert.clone(), cert.clone(), cert];
    let msg = tlsmsg::encode_tls12(&chain).expect("chain fits TLS framing");
    let mut group = c.benchmark_group("tls_framing");
    group.throughput(Throughput::Bytes(msg.len() as u64));
    group.bench_function("encode_tls12", |b| {
        b.iter(|| tlsmsg::encode_tls12(std::hint::black_box(&chain)).expect("chain fits TLS framing"))
    });
    group.bench_function("decode_tls12", |b| {
        b.iter(|| tlsmsg::decode_tls12(std::hint::black_box(&msg)).expect("valid framing"))
    });

    // The ingest workload's per-message decode: a corpus leaf and its
    // issuing intermediate in one TLS 1.3 message.
    let (leaf, issuer) = corpus_leaf_and_issuer();
    let msg =
        tlsmsg::encode_tls13(&[leaf.clone(), issuer.clone()]).expect("chain fits TLS framing");
    let decoded = tlsmsg::decode_tls13(&msg).expect("valid framing");
    let fingerprints: Vec<_> = decoded.iter().map(Certificate::fingerprint).collect();
    assert_eq!(
        fingerprints,
        [leaf.fingerprint(), issuer.fingerprint()],
        "message round-trips"
    );
    group.throughput(Throughput::Bytes(msg.len() as u64));
    group.bench_function("decode_tls13", |b| {
        b.iter(|| tlsmsg::decode_tls13(std::hint::black_box(&msg)).expect("valid framing"))
    });
    group.finish();
}

/// The first leaf of a small calibrated corpus whose issuing certificate
/// is served alongside it.
fn corpus_leaf_and_issuer() -> (Certificate, Certificate) {
    let corpus = Corpus::new(CorpusSpec::calibrated(833, 64));
    for rank in 0..64 {
        let served = corpus.observation(rank).served;
        let Some(leaf) = served.iter().find(|c| !c.is_ca()) else {
            continue;
        };
        if let Some(issuer) = served
            .iter()
            .find(|c| c.subject() == leaf.issuer() && leaf.verify_signature_with(c.public_key()))
        {
            return (leaf.clone(), issuer.clone());
        }
    }
    panic!("no served leaf with its issuer in the first 64 domains");
}

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    let data_1k = vec![0xa5u8; 1024];
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("sha256_1k", |b| {
        b.iter(|| sha256(std::hint::black_box(&data_1k)))
    });
    group.finish();

    let mut group = c.benchmark_group("schnorr");
    let kp = KeyPair::from_seed(Group::simulation_256(), b"schnorr-bench");
    let msg = b"benchmark message for schnorr signatures";
    let sig = kp.private.sign(msg);
    group.bench_function("sign_sim256", |b| {
        b.iter(|| std::hint::black_box(kp.private.sign(msg)))
    });
    group.bench_function("verify_sim256", |b| {
        b.iter(|| assert!(kp.public.verify(msg, std::hint::black_box(&sig))))
    });
    // The helper only returns a pair that verifies, before any timing.
    let (leaf, issuer) = corpus_leaf_and_issuer();
    group.bench_function("verify_sim256_leaf", |b| {
        b.iter(|| assert!(leaf.verify_signature_with(std::hint::black_box(issuer.public_key()))))
    });
    let kp_big = KeyPair::from_seed(Group::rfc3526_1536(), b"schnorr-bench-big");
    let sig_big = kp_big.private.sign(msg);
    group.sample_size(10);
    group.bench_function("verify_rfc3526_1536", |b| {
        b.iter(|| assert!(kp_big.public.verify(msg, std::hint::black_box(&sig_big))))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_der, bench_tls_framing, bench_crypto
}
criterion_main!(benches);
