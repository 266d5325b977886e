//! Diagnostic primitives: severity ladder, findings, and the per-chain
//! evaluation context handed to every rule.

use ccc_asn1::{Encoder, Time};
use ccc_core::{ComplianceReport, IssuanceChecker, TopologyGraph};
use ccc_x509::Certificate;
use std::fmt;

/// Severity ladder, ordered from least to most severe so
/// `severity >= Severity::Warn` filters read naturally.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Informational observation worth surfacing (SARIF `note`).
    Notice,
    /// Non-actionable context (SARIF `note`).
    Info,
    /// Violates a SHOULD or best practice (SARIF `warning`).
    Warn,
    /// Violates a MUST; the chain is non-compliant (SARIF `error`).
    Error,
}

impl Severity {
    /// All severities, most severe first (table order).
    pub const ALL: [Severity; 4] = [
        Severity::Error,
        Severity::Warn,
        Severity::Info,
        Severity::Notice,
    ];

    /// Human label, matches the rule-ID prefix convention
    /// (`e_`/`w_`/`i_`/`n_`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warn",
            Severity::Info => "info",
            Severity::Notice => "notice",
        }
    }

    /// SARIF 2.1.0 `level` value.
    pub fn sarif_level(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warn => "warning",
            Severity::Info | Severity::Notice => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One structured diagnostic emitted by a rule.
///
/// Equality is structural; corpus lint summaries compare whole finding
/// vectors to assert bit-identical results across thread counts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// Stable rule ID (`e_chain_reversed_order`, …).
    pub rule_id: &'static str,
    /// Severity copied from the rule (denormalized for renderers).
    pub severity: Severity,
    /// The queried domain the chain was served for (the lint "artifact").
    pub domain: String,
    /// Human-readable explanation, deterministic for a given chain.
    pub message: String,
    /// Index of the offending certificate in the served list, when the
    /// finding is attributable to one certificate.
    pub cert_index: Option<usize>,
    /// Byte offset of the relevant DER region within the *concatenated*
    /// served-chain DER stream, when available.
    pub byte_offset: Option<usize>,
    /// Length in bytes of that region.
    pub byte_length: Option<usize>,
    /// Stable content fingerprint: the first 8 bytes of
    /// `sha256(rule ‖ 0x00 ‖ domain ‖ 0x00 ‖ site)` as 16 lowercase hex
    /// digits. Baselines suppress by `(rule_id, fingerprint)`.
    pub fingerprint: String,
}

impl Finding {
    /// Stable content fingerprint shared by chain rules and the
    /// concurrency bridge (`crate::concurrency`).
    pub(crate) fn fingerprint_for(rule_id: &str, domain: &str, site: &str) -> String {
        let mut material = Vec::with_capacity(rule_id.len() + domain.len() + site.len() + 2);
        material.extend_from_slice(rule_id.as_bytes());
        material.push(0);
        material.extend_from_slice(domain.as_bytes());
        material.push(0);
        material.extend_from_slice(site.as_bytes());
        let digest = ccc_crypto::sha256(&material);
        digest[..8].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} [{}]", self.severity, self.message, self.rule_id)?;
        if let Some(i) = self.cert_index {
            write!(f, " (cert #{i})")?;
        }
        Ok(())
    }
}

/// Everything a rule may inspect about one (domain, served list)
/// observation. Built once per chain by the [`LintEngine`]
/// (`crate::LintEngine`); rules are pure functions of this context, which
/// is what makes corpus linting embarrassingly parallel and
/// thread-count-invariant.
#[derive(Debug)]
pub struct ChainContext<'a> {
    /// The queried domain.
    pub domain: &'a str,
    /// The served certificate list, in wire order.
    pub served: &'a [Certificate],
    /// Issuance topology over `served` (duplicates collapsed).
    pub graph: &'a TopologyGraph,
    /// The aggregate compliance verdict for the same observation — chain
    /// rules read this directly, which is what guarantees the
    /// "non-compliant ⇔ ≥1 error finding" equivalence by construction.
    pub report: &'a ComplianceReport,
    /// The simulated scan instant (never the ambient clock).
    pub now: Time,
    /// The shared signature cache. Rules that need signature facts (e.g.
    /// the self-signed-root check) route through this instead of
    /// re-running Schnorr verification per chain — under the fused
    /// pipeline the same `(cert, cert)` pair is already memoized by the
    /// compliance analysis.
    pub checker: &'a IssuanceChecker,
    /// `der_offsets[i]` is the byte offset of `served[i]` within the
    /// concatenated served DER stream; one extra trailing entry holds the
    /// total length.
    pub der_offsets: Vec<usize>,
}

impl<'a> ChainContext<'a> {
    /// Assemble a context (computes the concatenated-DER offsets).
    pub fn new(
        domain: &'a str,
        served: &'a [Certificate],
        graph: &'a TopologyGraph,
        report: &'a ComplianceReport,
        now: Time,
        checker: &'a IssuanceChecker,
    ) -> ChainContext<'a> {
        let mut der_offsets = Vec::with_capacity(served.len() + 1);
        let mut offset = 0usize;
        for cert in served {
            der_offsets.push(offset);
            offset += cert.to_der().len();
        }
        der_offsets.push(offset);
        ChainContext {
            domain,
            served,
            graph,
            report,
            now,
            checker,
            der_offsets,
        }
    }

    /// Cache-routed equivalent of [`Certificate::is_self_signed`]: same
    /// predicate, but the Schnorr verification is memoized on the shared
    /// checker under the `(cert, cert)` pair key.
    pub fn is_self_signed(&self, cert: &Certificate) -> bool {
        cert.is_self_issued() && self.checker.signature_verifies(cert, cert)
    }

    /// Chain-level finding (no specific certificate).
    pub fn finding(
        &self,
        rule: &dyn crate::rules::LintRule,
        message: impl Into<String>,
    ) -> Finding {
        Finding {
            rule_id: rule.id(),
            severity: rule.severity(),
            domain: self.domain.to_string(),
            message: message.into(),
            cert_index: None,
            byte_offset: None,
            byte_length: None,
            fingerprint: Finding::fingerprint_for(rule.id(), self.domain, "chain"),
        }
    }

    /// Finding attributed to `served[index]`, with byte-range provenance
    /// covering that certificate in the concatenated DER stream.
    pub fn finding_at(
        &self,
        rule: &dyn crate::rules::LintRule,
        index: usize,
        message: impl Into<String>,
    ) -> Finding {
        let site = format!("cert:{index}:{}", self.served[index].fingerprint());
        Finding {
            rule_id: rule.id(),
            severity: rule.severity(),
            domain: self.domain.to_string(),
            message: message.into(),
            cert_index: Some(index),
            byte_offset: Some(self.der_offsets[index]),
            byte_length: Some(self.der_offsets[index + 1] - self.der_offsets[index]),
            fingerprint: Finding::fingerprint_for(rule.id(), self.domain, &site),
        }
    }

    /// Like [`finding_at`](Self::finding_at), but narrowed to the byte
    /// range of the certificate's `Validity` SEQUENCE when it can be
    /// located inside the DER (it always can for well-formed input; the
    /// fallback is the whole certificate).
    pub fn finding_at_validity(
        &self,
        rule: &dyn crate::rules::LintRule,
        index: usize,
        message: impl Into<String>,
    ) -> Finding {
        let mut f = self.finding_at(rule, index, message);
        if let Some((start, len)) = validity_byte_range(&self.served[index]) {
            f.byte_offset = Some(self.der_offsets[index] + start);
            f.byte_length = Some(len);
        }
        f
    }

    /// Served position of the first occurrence of graph node `n`.
    pub fn node_position(&self, n: usize) -> usize {
        self.graph.nodes[n].position
    }
}

/// Locate the `Validity` SEQUENCE of a certificate inside its own DER by
/// re-encoding the parsed window and searching for the byte pattern
/// (validity encodings are long and high-entropy enough that the first
/// match is the field itself). Returns `(offset, length)`.
pub fn validity_byte_range(cert: &Certificate) -> Option<(usize, usize)> {
    let v = cert.validity();
    let mut enc = Encoder::new();
    enc.sequence(|val| {
        val.time(v.not_before);
        val.time(v.not_after);
    });
    let pattern = enc.finish();
    let der = cert.to_der();
    if pattern.is_empty() || pattern.len() > der.len() {
        return None;
    }
    der.windows(pattern.len())
        .position(|w| w == pattern)
        .map(|start| (start, pattern.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_order_and_labels() {
        assert!(Severity::Error > Severity::Warn);
        assert!(Severity::Warn > Severity::Info);
        assert!(Severity::Info > Severity::Notice);
        assert_eq!(Severity::Error.sarif_level(), "error");
        assert_eq!(Severity::Warn.sarif_level(), "warning");
        assert_eq!(Severity::Notice.sarif_level(), "note");
        assert_eq!(Severity::Warn.label(), "warn");
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let a = Finding::fingerprint_for("e_x", "d.sim", "chain");
        let b = Finding::fingerprint_for("e_x", "d.sim", "chain");
        let c = Finding::fingerprint_for("e_y", "d.sim", "chain");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn validity_range_found_in_der() {
        let kp = ccc_crypto::KeyPair::from_seed(ccc_crypto::Group::simulation_256(), b"diag");
        let cert = ccc_x509::CertificateBuilder::leaf_profile("diag.sim").self_signed(&kp);
        let (start, len) = validity_byte_range(&cert).expect("validity present");
        let der = cert.to_der();
        assert!(start + len <= der.len());
        // The region is a SEQUENCE (0x30).
        assert_eq!(der[start], 0x30);
    }
}
