//! X.501 distinguished names (the RDNSequence subset with one attribute per
//! RDN, which is what Web PKI certificates use in practice).

use ccc_asn1::{oids, Encoder, Error, Oid, Parser, Result as DerResult};
use std::cmp::Ordering;
use std::fmt;

/// Attribute types supported in distinguished names.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum AttributeType {
    /// commonName (CN).
    CommonName,
    /// countryName (C).
    Country,
    /// organizationName (O).
    Organization,
    /// organizationalUnitName (OU).
    OrganizationalUnit,
}

impl AttributeType {
    /// The attribute's OID.
    pub fn oid(self) -> &'static Oid {
        match self {
            AttributeType::CommonName => &oids::COMMON_NAME,
            AttributeType::Country => &oids::COUNTRY_NAME,
            AttributeType::Organization => &oids::ORGANIZATION_NAME,
            AttributeType::OrganizationalUnit => &oids::ORGANIZATIONAL_UNIT_NAME,
        }
    }

    /// Short display label ("CN", "C", "O", "OU").
    pub fn label(self) -> &'static str {
        match self {
            AttributeType::CommonName => "CN",
            AttributeType::Country => "C",
            AttributeType::Organization => "O",
            AttributeType::OrganizationalUnit => "OU",
        }
    }

    /// Every type, in declaration order: `ALL[ty as usize] == ty`.
    const ALL: [AttributeType; 4] = [
        AttributeType::CommonName,
        AttributeType::Country,
        AttributeType::Organization,
        AttributeType::OrganizationalUnit,
    ];

    fn from_oid(oid: &Oid) -> Option<AttributeType> {
        AttributeType::ALL.into_iter().find(|t| t.oid() == oid)
    }
}

/// An ordered distinguished name: a list of (type, value) attributes.
///
/// Equality is byte-exact on type and value, matching how chain builders
/// compare `issuer` and `subject` fields (RFC 5280 name comparison is
/// case-insensitive in theory, but implementations overwhelmingly compare
/// the DER encodings — and so does the paper's issuance-relationship rule).
/// Ordering is lexicographic over the (type, value) pairs.
///
/// The attributes share one buffer, each stored as its type byte, its
/// value length (LEB128) and its UTF-8 value, so a name costs at most one
/// allocation however many attributes it has. The encoding is injective,
/// so equality and hashing run over the buffer.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct DistinguishedName {
    buf: Vec<u8>,
}

impl DistinguishedName {
    /// The empty DN (legal: some real leaf certificates have empty
    /// subjects, carrying identity in SAN only).
    pub fn empty() -> DistinguishedName {
        DistinguishedName::default()
    }

    /// A DN with just a common name.
    pub fn cn(common_name: impl AsRef<str>) -> DistinguishedName {
        DistinguishedName::empty().with(AttributeType::CommonName, common_name)
    }

    /// A DN with common name and organization (typical CA subject shape).
    pub fn cn_o(common_name: impl AsRef<str>, org: impl AsRef<str>) -> DistinguishedName {
        DistinguishedName::empty()
            .with(AttributeType::Country, "SC")
            .with(AttributeType::Organization, org)
            .with(AttributeType::CommonName, common_name)
    }

    /// Append an attribute.
    pub fn with(mut self, ty: AttributeType, value: impl AsRef<str>) -> DistinguishedName {
        self.push(ty, value.as_ref());
        self
    }

    fn push(&mut self, ty: AttributeType, value: &str) {
        self.buf.push(ty as u8);
        let mut len = value.len();
        while len >= 0x80 {
            self.buf.push(len as u8 | 0x80);
            len >>= 7;
        }
        self.buf.push(len as u8);
        self.buf.extend_from_slice(value.as_bytes());
    }

    /// The attributes in order, values as raw bytes.
    fn pairs(&self) -> impl Iterator<Item = (AttributeType, &[u8])> + '_ {
        let mut rest = self.buf.as_slice();
        std::iter::from_fn(move || {
            let (&ty, mut tail) = rest.split_first()?;
            let mut len = 0usize;
            let mut shift = 0;
            while let Some((&b, after)) = tail.split_first() {
                len |= ((b & 0x7f) as usize) << shift;
                shift += 7;
                tail = after;
                if b & 0x80 == 0 {
                    break;
                }
            }
            let (value, after) = tail.split_at(len);
            rest = after;
            Some((AttributeType::ALL[ty as usize], value))
        })
    }

    /// All attributes in order.
    pub fn iter(&self) -> impl Iterator<Item = (AttributeType, &str)> + '_ {
        self.pairs().map(|(ty, value)| {
            (
                ty,
                std::str::from_utf8(value).expect("values are pushed as &str"),
            )
        })
    }

    /// The first commonName value, if any.
    pub fn common_name(&self) -> Option<&str> {
        self.iter()
            .find(|(t, _)| *t == AttributeType::CommonName)
            .map(|(_, v)| v)
    }

    /// True when the DN has no attributes.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Encode as an RDNSequence.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.sequence(|rdn_seq| {
            for (ty, value) in self.iter() {
                rdn_seq.set(|set| {
                    set.sequence(|attr| {
                        attr.oid(ty.oid());
                        attr.utf8_string(value);
                    });
                });
            }
        });
    }

    /// Decode an RDNSequence. Unknown attribute types are an error (the
    /// synthetic universe only emits the supported four).
    pub fn decode(parser: &mut Parser<'_>) -> DerResult<DistinguishedName> {
        parser.sequence(|rdn_seq| {
            // The RDNSequence's length bounds the buffer: an attribute's
            // type byte and length take fewer octets than its DER SET,
            // SEQUENCE, OID and string headers.
            let mut dn = DistinguishedName {
                buf: Vec::with_capacity(rdn_seq.remaining()),
            };
            while !rdn_seq.is_done() {
                rdn_seq.set(|set| {
                    set.sequence(|attr| {
                        let oid = attr.oid()?;
                        let value = attr.any_string()?;
                        let ty = AttributeType::from_oid(&oid)
                            .ok_or(Error::InvalidValue("unsupported DN attribute type"))?;
                        dn.push(ty, value);
                        Ok(())
                    })
                })?;
            }
            Ok(dn)
        })
    }

    /// Encode standalone to bytes (convenience for hashing/maps).
    pub fn to_der(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.finish()
    }
}

impl Ord for DistinguishedName {
    fn cmp(&self, other: &Self) -> Ordering {
        // Types order by declaration, and byte order on UTF-8 is `str`
        // order.
        self.pairs().cmp(other.pairs())
    }
}

impl PartialOrd for DistinguishedName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for DistinguishedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DistinguishedName")
            .field("attributes", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

impl fmt::Display for DistinguishedName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "<empty>");
        }
        for (i, (ty, value)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}={}", ty.label(), value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let dn = DistinguishedName::cn_o("Example CA", "Example Trust Services")
            .with(AttributeType::OrganizationalUnit, "Issuing");
        let der = dn.to_der();
        let mut p = Parser::new(&der);
        let decoded = DistinguishedName::decode(&mut p).unwrap();
        p.expect_done().unwrap();
        assert_eq!(decoded, dn);
    }

    #[test]
    fn empty_dn_roundtrip() {
        let dn = DistinguishedName::empty();
        let der = dn.to_der();
        assert_eq!(der, vec![0x30, 0x00]);
        let mut p = Parser::new(&der);
        assert_eq!(DistinguishedName::decode(&mut p).unwrap(), dn);
    }

    #[test]
    fn display_format() {
        let dn = DistinguishedName::cn("example.com");
        assert_eq!(dn.to_string(), "CN=example.com");
        assert_eq!(DistinguishedName::empty().to_string(), "<empty>");
    }

    #[test]
    fn common_name_accessor() {
        let dn = DistinguishedName::cn_o("Root X1", "Test Org");
        assert_eq!(dn.common_name(), Some("Root X1"));
        assert_eq!(DistinguishedName::empty().common_name(), None);
    }

    #[test]
    fn order_is_over_type_value_pairs() {
        // A length-prefixed buffer compared byte by byte would put "b"
        // before "aa"; the pairs put "aa" first.
        assert!(DistinguishedName::cn("aa") < DistinguishedName::cn("b"));
        assert!(
            DistinguishedName::cn("a")
                < DistinguishedName::cn("a").with(AttributeType::Country, "X")
        );
        // CommonName sorts before Country whatever the values.
        assert!(
            DistinguishedName::cn("z")
                < DistinguishedName::empty().with(AttributeType::Country, "A")
        );
        assert!(DistinguishedName::empty() < DistinguishedName::cn(""));
    }

    #[test]
    fn long_values_roundtrip() {
        let long = "x".repeat(300);
        let dn = DistinguishedName::cn(long.clone()).with(AttributeType::Organization, "O");
        assert_eq!(
            dn.iter().collect::<Vec<_>>(),
            [
                (AttributeType::CommonName, long.as_str()),
                (AttributeType::Organization, "O"),
            ]
        );
        let der = dn.to_der();
        assert_eq!(
            DistinguishedName::decode(&mut Parser::new(&der)).unwrap(),
            dn
        );
        assert_ne!(dn, DistinguishedName::cn(long));
    }

    #[test]
    fn equality_is_exact() {
        assert_ne!(
            DistinguishedName::cn("Example"),
            DistinguishedName::cn("example")
        );
        assert_ne!(
            DistinguishedName::cn("a"),
            DistinguishedName::cn_o("a", "b")
        );
    }
}
