//! Corpus decode golden: every generated certificate decodes back to itself.
//!
//! Walks the same certificates as `corpus_der_golden` (universe, AIA
//! publications, served lists), decodes each from its DER and checks the
//! decoded value field by field against the generated one: the TBS fields,
//! the signed bytes, the signature, the fingerprint and every typed
//! extension accessor. One SHA-256 then runs over a canonical text
//! rendering of every decoded certificate, so a decoder change that keeps
//! equality but renders a field differently (an OID, a name, a key usage
//! bit) still moves the digest.

use ccc_crypto::sha256::Sha256;
use ccc_testgen::{Corpus, CorpusSpec};
use ccc_x509::Certificate;
use std::fmt::Write;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Decode `cert` from its DER, assert it equals the generated value and
/// append its canonical rendering to `out`.
fn decode_and_render(cert: &Certificate, out: &mut String) {
    let d = Certificate::from_der(cert.to_der()).expect("generated certificate decodes");
    assert_eq!(d.to_der(), cert.to_der());
    assert_eq!(d.fingerprint(), cert.fingerprint());
    assert_eq!(d.tbs(), cert.tbs(), "TBS fields of {cert}");
    assert_eq!(d.tbs_der(), cert.tbs_der());
    assert_eq!(d.signature_bytes(), cert.signature_bytes());
    assert_eq!(d.signature_algorithm(), cert.signature_algorithm());
    assert_eq!(d.skid(), cert.skid());
    assert_eq!(d.akid(), cert.akid());
    assert_eq!(d.basic_constraints(), cert.basic_constraints());
    assert_eq!(d.key_usage(), cert.key_usage());
    assert_eq!(d.san(), cert.san());
    assert_eq!(d.aia(), cert.aia());
    assert_eq!(d.eku(), cert.eku());

    macro_rules! line {
        ($($arg:tt)*) => {
            writeln!(out, $($arg)*).expect("writing to a String")
        };
    }
    line!("fp {}", d.fingerprint());
    line!("serial {}", hex(d.serial()));
    line!(
        "alg {:?} {:?}",
        d.tbs().signature_algorithm,
        d.signature_algorithm()
    );
    line!("issuer {} {}", d.issuer(), hex(&d.issuer().to_der()));
    line!("subject {} {}", d.subject(), hex(&d.subject().to_der()));
    line!("self-issued {}", d.is_self_issued());
    let v = d.validity();
    line!("validity {} {}", v.not_before.unix(), v.not_after.unix());
    line!(
        "spki {:?} {}",
        d.spki().algorithm,
        hex(d.public_key().as_bytes())
    );
    for ext in d.extensions() {
        line!("ext {} {} {}", ext.oid, ext.critical, hex(&ext.value));
    }
    line!("tbs {}", hex(&ccc_crypto::sha256(d.tbs_der())));
    line!("sig {}", hex(d.signature_bytes()));
    line!("skid {:?}", d.skid().map(hex));
    line!("akid {:?}", d.akid().map(|a| a.key_id.as_deref().map(hex)));
    line!("bc {:?}", d.basic_constraints());
    line!("ku {:?}", d.key_usage());
    if let Some(san) = d.san() {
        let names: Vec<String> = san.names.iter().map(|n| n.to_string()).collect();
        line!("san {}", names.join(" "));
    }
    if let Some(aia) = d.aia() {
        for ad in &aia.descriptions {
            line!("aia {:?} {}", ad.method, ad.location);
        }
    }
    if let Some(eku) = d.eku() {
        let purposes: Vec<String> = eku.purposes.iter().map(|p| p.to_string()).collect();
        line!("eku {} {}", purposes.join(" "), eku.allows_server_auth());
    }
}

fn corpus_decode_digest(seed: u64, domains: usize) -> String {
    let corpus = Corpus::new(CorpusSpec::calibrated(seed, domains));
    let mut h = Sha256::new();
    let mut text = String::new();
    let mut flush = |text: &mut String| {
        h.update(text.as_bytes());
        text.clear();
    };
    for root in &corpus.universe.roots {
        decode_and_render(&root.cert, &mut text);
        for int in &root.intermediates {
            decode_and_render(&int.cert, &mut text);
            decode_and_render(&int.cert_no_akid, &mut text);
        }
        flush(&mut text);
    }
    for pair in &corpus.universe.cross_signed {
        decode_and_render(&pair.cross_cert, &mut text);
    }
    let mut uris: Vec<String> = corpus.universe.aia_publications().into_keys().collect();
    uris.extend((0..corpus.universe.roots.len()).map(|i| format!("http://aia.sim/subca/{i}.crt")));
    uris.sort();
    for uri in &uris {
        let cert = corpus
            .aia
            .fetch(uri)
            .unwrap_or_else(|| panic!("{uri} is published"));
        text.push_str(uri);
        text.push('\n');
        decode_and_render(&cert, &mut text);
    }
    flush(&mut text);
    for rank in 0..domains {
        for cert in &corpus.observation(rank).served {
            decode_and_render(cert, &mut text);
        }
        flush(&mut text);
    }
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn seed_833_corpus_decode_is_pinned() {
    assert_eq!(
        corpus_decode_digest(833, 2000),
        "29a8bf770a3129a7858999118bf24fcdd243e9ccace6a8f7306bc4f1be29c231"
    );
}

#[test]
fn seed_7_corpus_decode_is_pinned() {
    assert_eq!(
        corpus_decode_digest(7, 2000),
        "56d15d595e1187544b55c3add48bf6181442e8fb67df6e2c9821156e5fa76ac3"
    );
}
