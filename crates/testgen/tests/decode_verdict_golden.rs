//! Decode verdict golden: the accept/reject verdict of the certificate and
//! TLS 1.3 decoders on hostile input is pinned.
//!
//! Takes the first 50 distinct served certificates and the first 20 served
//! lists (as TLS 1.3 Certificate messages) of a calibrated corpus, and
//! feeds seeded truncations, single-bit flips and byte replacements of each
//! through `Certificate::from_der` and `decode_tls13`. Every outcome is
//! rendered as `ok <fingerprints>` or `err <variant>` and one SHA-256 runs
//! over the lines. A decoder rewrite that flips any verdict, or returns a
//! different error variant, moves the digest.

use ccc_crypto::sha256::Sha256;
use ccc_netsim::tlsmsg::{decode_tls13, encode_tls13, TlsMsgError};
use ccc_testgen::{Corpus, CorpusSpec};
use ccc_x509::{Certificate, X509Error};
use std::collections::HashSet;

/// splitmix64: a seeded, dependency-free stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// 8 truncations, 16 single-bit flips and 8 byte replacements of `bytes`.
fn mutations(bytes: &[u8], rng: &mut Rng) -> Vec<Vec<u8>> {
    let mut out = Vec::with_capacity(32);
    for _ in 0..8 {
        out.push(bytes[..rng.below(bytes.len())].to_vec());
    }
    for _ in 0..16 {
        let mut m = bytes.to_vec();
        m[rng.below(bytes.len())] ^= 1 << rng.below(8);
        out.push(m);
    }
    for _ in 0..8 {
        let mut m = bytes.to_vec();
        let at = rng.below(bytes.len());
        m[at] = m[at].wrapping_add(1 + rng.below(255) as u8);
        out.push(m);
    }
    out
}

fn x509_variant(e: &X509Error) -> &'static str {
    match e {
        X509Error::Der(_) => "Der",
        X509Error::Profile(_) => "Profile",
        X509Error::UnsupportedAlgorithm(_) => "UnsupportedAlgorithm",
        X509Error::InvalidKey => "InvalidKey",
    }
}

fn cert_verdict(r: &Result<Certificate, X509Error>) -> String {
    match r {
        Ok(c) => format!("ok {}", c.fingerprint()),
        Err(e) => format!("err {}", x509_variant(e)),
    }
}

fn tls_verdict(r: &Result<Vec<Certificate>, TlsMsgError>) -> String {
    match r {
        Ok(certs) => {
            let fps: Vec<String> = certs.iter().map(|c| c.fingerprint().to_hex()).collect();
            format!("ok [{}]", fps.join(","))
        }
        Err(TlsMsgError::BadCertificate(e)) => format!("err BadCertificate/{}", x509_variant(e)),
        Err(e) => format!("err {e:?}"),
    }
}

/// (digest, ok outcomes, err outcomes) over every mutation.
fn verdict_digest(seed: u64) -> (String, usize, usize) {
    let corpus = Corpus::new(CorpusSpec::calibrated(seed, 40));
    let mut certs = Vec::new();
    let mut seen = HashSet::new();
    let mut messages = Vec::new();
    for rank in 0..40 {
        let served = corpus.observation(rank).served;
        if messages.len() < 20 {
            messages.push(encode_tls13(&served).expect("served list fits TLS framing"));
        }
        for cert in served {
            if certs.len() < 50 && seen.insert(cert.fingerprint()) {
                certs.push(cert);
            }
        }
    }
    assert_eq!(certs.len(), 50);
    assert_eq!(messages.len(), 20);

    let mut rng = Rng(seed);
    let mut h = Sha256::new();
    let (mut oks, mut errs) = (0, 0);
    let mut record = |line: String| {
        if line.starts_with("ok") {
            oks += 1;
        } else {
            errs += 1;
        }
        h.update(line.as_bytes());
        h.update(b"\n");
    };
    for cert in &certs {
        let der = cert.to_der();
        assert!(
            Certificate::from_der(der).is_ok(),
            "unmutated certificate decodes"
        );
        for m in mutations(der, &mut rng) {
            record(cert_verdict(&Certificate::from_der(&m)));
        }
    }
    for msg in &messages {
        assert!(decode_tls13(msg).is_ok(), "unmutated message decodes");
        for m in mutations(msg, &mut rng) {
            record(tls_verdict(&decode_tls13(&m)));
        }
    }
    let digest = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
    (digest, oks, errs)
}

#[test]
fn seed_833_decode_verdicts_are_pinned() {
    let (digest, oks, errs) = verdict_digest(833);
    // Both verdicts occur: flips inside names or key bytes still parse.
    assert!(oks > 100 && errs > 1000, "ok {oks}, err {errs}");
    assert_eq!(
        digest,
        "cefd1b85e810f1b4c2a3e7388aa19b80bf8897bd6653f5d2ebed5766f20cd1d6"
    );
}
