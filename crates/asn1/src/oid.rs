//! OBJECT IDENTIFIER values and the OID registry used by chain-chaos.

use crate::{Error, Result};
use std::cmp::Ordering;
use std::fmt;

/// Content octets up to this length are held inline. Every OID chain-chaos
/// emits takes at most 10; longer (hostile) OIDs still parse, on the heap.
const INLINE_CAP: usize = 22;

/// The content octets; the length alone picks the variant, and inline
/// bytes past `len` are zero, so the derived comparisons are byte
/// comparisons.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Content {
    Inline { len: u8, bytes: [u8; INLINE_CAP] },
    Heap(Box<[u8]>),
}

/// An object identifier, held as its validated DER content octets.
///
/// DER makes the octets canonical (minimal base-128 subidentifiers), so
/// equality and hashing compare bytes and agree with arc equality.
/// Ordering is by arcs.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Oid(Content);

impl Oid {
    /// Build from arcs. Panics if fewer than two arcs, if the first two
    /// arcs are out of range (first must be 0..=2; second < 40 when first
    /// < 2), or if `arcs[0] * 40 + arcs[1]` does not fit in 64 bits.
    pub fn new(arcs: &[u64]) -> Oid {
        let first = first_subidentifier(arcs);
        let mut content = Vec::new();
        for arc in std::iter::once(first).chain(arcs[2..].iter().copied()) {
            let (bytes, len) = base128(arc);
            content.extend_from_slice(&bytes[..len]);
        }
        Oid::from_content(&content)
    }

    /// [`Oid::new`] at compile time, for the statics in [`oids`]. Fails
    /// the build unless the encoding fits inline.
    const fn inline(arcs: &[u64]) -> Oid {
        let first = first_subidentifier(arcs);
        let mut bytes = [0u8; INLINE_CAP];
        let mut len = 0;
        let mut i = 1;
        while i < arcs.len() {
            let arc = if i == 1 { first } else { arcs[i] };
            let (group, n) = base128(arc);
            let mut j = 0;
            while j < n {
                bytes[len] = group[j];
                len += 1;
                j += 1;
            }
            i += 1;
        }
        Oid(Content::Inline {
            len: len as u8,
            bytes,
        })
    }

    #[inline]
    fn from_content(content: &[u8]) -> Oid {
        if content.len() <= INLINE_CAP {
            let mut bytes = [0u8; INLINE_CAP];
            bytes[..content.len()].copy_from_slice(content);
            Oid(Content::Inline {
                len: content.len() as u8,
                bytes,
            })
        } else {
            Oid(Content::Heap(content.into()))
        }
    }

    /// The DER content octets (without tag/length).
    #[inline]
    fn content(&self) -> &[u8] {
        match &self.0 {
            Content::Inline { len, bytes } => &bytes[..*len as usize],
            Content::Heap(bytes) => bytes,
        }
    }

    /// The arcs, decoded from the content octets on each call.
    pub fn arcs(&self) -> impl Iterator<Item = u64> + '_ {
        let mut octets = self.content().iter();
        let mut subidentifiers = std::iter::from_fn(move || {
            let mut value = 0u64;
            for &b in octets.by_ref() {
                value = (value << 7) | (b & 0x7f) as u64;
                if b & 0x80 == 0 {
                    return Some(value);
                }
            }
            None
        });
        let root = subidentifiers.next().map(|v| match v {
            0..=39 => [0, v],
            40..=79 => [1, v - 40],
            _ => [2, v - 80],
        });
        root.into_iter().flatten().chain(subidentifiers)
    }

    /// Append the content octets (without tag/length) to `out`.
    pub fn encode_content_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.content());
    }

    /// Decode from content octets: non-empty, minimal base-128
    /// subidentifiers of at most 64 bits each, the last one complete.
    #[inline]
    pub fn decode_content(content: &[u8]) -> Result<Oid> {
        if content.is_empty() {
            return Err(Error::InvalidValue("empty OID"));
        }
        let mut value: u64 = 0;
        let mut at_start = true;
        for &b in content {
            if at_start && b == 0x80 {
                return Err(Error::InvalidValue("non-minimal OID arc"));
            }
            // Test the top bits before a shift would drop them.
            if value > u64::MAX >> 7 {
                return Err(Error::InvalidValue("OID arc overflow"));
            }
            value = (value << 7) | (b & 0x7f) as u64;
            at_start = b & 0x80 == 0;
            if at_start {
                value = 0;
            }
        }
        if !at_start {
            return Err(Error::InvalidValue("truncated OID arc"));
        }
        Ok(Oid::from_content(content))
    }
}

/// The first subidentifier, `arcs[0] * 40 + arcs[1]`, after the range
/// checks [`Oid::new`] documents.
const fn first_subidentifier(arcs: &[u64]) -> u64 {
    assert!(arcs.len() >= 2, "OID needs at least two arcs");
    assert!(arcs[0] <= 2, "first OID arc must be 0, 1 or 2");
    if arcs[0] < 2 {
        assert!(arcs[1] < 40, "second OID arc must be < 40 for roots 0/1");
    }
    match arcs[1].checked_add(arcs[0] * 40) {
        Some(v) => v,
        None => panic!("first two OID arcs must combine into 64 bits"),
    }
}

/// `value` in base 128, most significant group first, with the
/// continuation bit on all but the last: the groups and their count.
const fn base128(value: u64) -> ([u8; 10], usize) {
    let mut len = 1;
    while len < 10 && value >> (7 * len) != 0 {
        len += 1;
    }
    let mut out = [0u8; 10];
    let mut i = 0;
    while i < len {
        let group = ((value >> (7 * (len - 1 - i))) & 0x7f) as u8;
        out[i] = if i + 1 < len { group | 0x80 } else { group };
        i += 1;
    }
    (out, len)
}

impl Ord for Oid {
    fn cmp(&self, other: &Self) -> Ordering {
        self.arcs().cmp(other.arcs())
    }
}

impl PartialOrd for Oid {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Oid({self})")
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, arc) in self.arcs().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{arc}")?;
        }
        Ok(())
    }
}

/// Well-known OIDs used by the X.509 layer.
pub mod oids {
    use super::Oid;

    /// id-at-commonName (2.5.4.3).
    pub static COMMON_NAME: Oid = Oid::inline(&[2, 5, 4, 3]);
    /// id-at-countryName (2.5.4.6).
    pub static COUNTRY_NAME: Oid = Oid::inline(&[2, 5, 4, 6]);
    /// id-at-organizationName (2.5.4.10).
    pub static ORGANIZATION_NAME: Oid = Oid::inline(&[2, 5, 4, 10]);
    /// id-at-organizationalUnitName (2.5.4.11).
    pub static ORGANIZATIONAL_UNIT_NAME: Oid = Oid::inline(&[2, 5, 4, 11]);

    /// id-ce-subjectKeyIdentifier (2.5.29.14).
    pub static SUBJECT_KEY_IDENTIFIER: Oid = Oid::inline(&[2, 5, 29, 14]);
    /// id-ce-keyUsage (2.5.29.15).
    pub static KEY_USAGE: Oid = Oid::inline(&[2, 5, 29, 15]);
    /// id-ce-subjectAltName (2.5.29.17).
    pub static SUBJECT_ALT_NAME: Oid = Oid::inline(&[2, 5, 29, 17]);
    /// id-ce-basicConstraints (2.5.29.19).
    pub static BASIC_CONSTRAINTS: Oid = Oid::inline(&[2, 5, 29, 19]);
    /// id-ce-authorityKeyIdentifier (2.5.29.35).
    pub static AUTHORITY_KEY_IDENTIFIER: Oid = Oid::inline(&[2, 5, 29, 35]);
    /// id-ce-extKeyUsage (2.5.29.37).
    pub static EXT_KEY_USAGE: Oid = Oid::inline(&[2, 5, 29, 37]);

    /// id-pe-authorityInfoAccess (1.3.6.1.5.5.7.1.1).
    pub static AUTHORITY_INFO_ACCESS: Oid = Oid::inline(&[1, 3, 6, 1, 5, 5, 7, 1, 1]);
    /// id-ad-ocsp (1.3.6.1.5.5.7.48.1).
    pub static AD_OCSP: Oid = Oid::inline(&[1, 3, 6, 1, 5, 5, 7, 48, 1]);
    /// id-ad-caIssuers (1.3.6.1.5.5.7.48.2).
    pub static AD_CA_ISSUERS: Oid = Oid::inline(&[1, 3, 6, 1, 5, 5, 7, 48, 2]);
    /// id-kp-serverAuth (1.3.6.1.5.5.7.3.1).
    pub static KP_SERVER_AUTH: Oid = Oid::inline(&[1, 3, 6, 1, 5, 5, 7, 3, 1]);
    /// id-kp-clientAuth (1.3.6.1.5.5.7.3.2).
    pub static KP_CLIENT_AUTH: Oid = Oid::inline(&[1, 3, 6, 1, 5, 5, 7, 3, 2]);

    // chain-chaos private arc (1.3.6.1.4.1.59999.*) for the synthetic
    // Schnorr algorithm identifiers; 59999 is an unassigned-looking PEN used
    // only inside this simulation.
    /// Schnorr public key over the 256-bit simulation group.
    pub static SCHNORR_SIM256_KEY: Oid = Oid::inline(&[1, 3, 6, 1, 4, 1, 59999, 1, 1]);
    /// Schnorr public key over the RFC 3526 1536-bit group.
    pub static SCHNORR_RFC3526_KEY: Oid = Oid::inline(&[1, 3, 6, 1, 4, 1, 59999, 1, 2]);
    /// SHA-256-Schnorr signature algorithm (sim-256 group).
    pub static SCHNORR_SIM256_SIG: Oid = Oid::inline(&[1, 3, 6, 1, 4, 1, 59999, 2, 1]);
    /// SHA-256-Schnorr signature algorithm (RFC 3526 group).
    pub static SCHNORR_RFC3526_SIG: Oid = Oid::inline(&[1, 3, 6, 1, 4, 1, 59999, 2, 2]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_known_oid() {
        // 1.2.840.113549 → 2a 86 48 86 f7 0d
        let oid = Oid::new(&[1, 2, 840, 113549]);
        let mut out = vec![0xee];
        oid.encode_content_into(&mut out);
        assert_eq!(out, vec![0xee, 0x2a, 0x86, 0x48, 0x86, 0xf7, 0x0d]);
    }

    #[test]
    fn roundtrip() {
        for arcs in [
            vec![2u64, 5, 4, 3],
            vec![1, 3, 6, 1, 5, 5, 7, 1, 1],
            vec![2, 5, 29, 35],
            vec![1, 3, 6, 1, 4, 1, 59999, 2, 1],
            vec![2, 999, 3], // first arc 2 allows second >= 40
            // 27 content octets: past the inline capacity, on the heap.
            vec![1, 3, u64::MAX, 1 << 40, u64::MAX >> 1, 6],
        ] {
            let oid = Oid::new(&arcs);
            let mut enc = Vec::new();
            oid.encode_content_into(&mut enc);
            let dec = Oid::decode_content(&enc).unwrap();
            assert_eq!(dec.arcs().collect::<Vec<_>>(), arcs);
        }
    }

    #[test]
    fn registry_statics_match_new() {
        assert_eq!(oids::BASIC_CONSTRAINTS, Oid::new(&[2, 5, 29, 19]));
        assert_eq!(
            oids::SCHNORR_SIM256_SIG.to_string(),
            "1.3.6.1.4.1.59999.2.1"
        );
        assert_eq!(
            oids::SCHNORR_SIM256_SIG,
            Oid::new(&[1, 3, 6, 1, 4, 1, 59999, 2, 1])
        );
    }

    #[test]
    fn order_is_by_arcs() {
        // 16256 encodes as ff 00 and 16384 as 81 80 00: byte order would
        // put the larger arc first.
        let mut oids = [
            Oid::new(&[2, 5, 29, 16384]),
            Oid::new(&[2, 5, 29, 16256]),
            Oid::new(&[2, 5, 29, 19, 1]),
            Oid::new(&[2, 5, 29, 19]),
            Oid::new(&[1, 3, u64::MAX, 1 << 40, u64::MAX >> 1, 6]),
        ];
        oids.sort();
        let shown: Vec<String> = oids.iter().map(|o| o.to_string()).collect();
        let long = format!("1.3.{}.{}.{}.6", u64::MAX, 1u64 << 40, u64::MAX >> 1);
        assert_eq!(
            shown,
            [
                &long,
                "2.5.29.19",
                "2.5.29.19.1",
                "2.5.29.16256",
                "2.5.29.16384"
            ]
        );
    }

    #[test]
    fn display() {
        assert_eq!(Oid::new(&[2, 5, 29, 14]).to_string(), "2.5.29.14");
    }

    #[test]
    fn decode_rejects_empty_and_nonminimal() {
        assert!(Oid::decode_content(&[]).is_err());
        // Leading 0x80 in an arc is non-minimal.
        assert!(Oid::decode_content(&[0x2a, 0x80, 0x01]).is_err());
        // Truncated continuation.
        assert!(Oid::decode_content(&[0x2a, 0x86]).is_err());
    }

    #[test]
    fn decode_rejects_arcs_beyond_64_bits() {
        let overflow = Err(Error::InvalidValue("OID arc overflow"));
        // 1.2.<2^64 + 1>: once wrapped to 1.2.1.
        let mut content = vec![0x2a, 0x82];
        content.extend([0x80; 8]);
        content.push(0x01);
        assert_eq!(Oid::decode_content(&content), overflow);
        // 2.5.29.<2^70 + 19>: once aliased basicConstraints (2.5.29.19).
        let mut content = vec![0x55, 0x1d, 0x81];
        content.extend([0x80; 9]);
        content.push(0x13);
        assert_eq!(Oid::decode_content(&content), overflow);
    }

    #[test]
    fn u64_max_arcs_round_trip() {
        for arcs in [vec![1, 2, u64::MAX], vec![2, u64::MAX - 80, u64::MAX]] {
            let oid = Oid::new(&arcs);
            let mut enc = Vec::new();
            oid.encode_content_into(&mut enc);
            let dec = Oid::decode_content(&enc).unwrap();
            assert_eq!(dec, oid);
            assert_eq!(dec.to_string(), oid.to_string());
            let mut again = Vec::new();
            dec.encode_content_into(&mut again);
            assert_eq!(again, enc);
        }
    }

    #[test]
    #[should_panic(expected = "64 bits")]
    fn new_rejects_first_arcs_overflow() {
        let _ = Oid::new(&[2, u64::MAX]);
    }

    #[test]
    #[should_panic]
    fn new_rejects_single_arc() {
        let _ = Oid::new(&[1]);
    }

    #[test]
    #[should_panic]
    fn new_rejects_bad_second_arc() {
        let _ = Oid::new(&[0, 40]);
    }
}
