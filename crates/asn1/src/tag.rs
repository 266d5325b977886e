//! DER tag representation (low-tag-number form only).

use crate::{Error, Result};

/// Tag class bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Class {
    /// Universal (0b00).
    Universal,
    /// Application (0b01).
    Application,
    /// Context-specific (0b10).
    ContextSpecific,
    /// Private (0b11).
    Private,
}

/// A decoded DER tag (class + constructed flag + tag number < 31).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Tag {
    /// Tag class.
    pub class: Class,
    /// Constructed (true) vs primitive (false).
    pub constructed: bool,
    /// Tag number (0..=30; high-tag-number form unsupported).
    pub number: u8,
}

impl Tag {
    /// BOOLEAN.
    pub const BOOLEAN: Tag = Tag::universal(1);
    /// INTEGER.
    pub const INTEGER: Tag = Tag::universal(2);
    /// BIT STRING.
    pub const BIT_STRING: Tag = Tag::universal(3);
    /// OCTET STRING.
    pub const OCTET_STRING: Tag = Tag::universal(4);
    /// NULL.
    pub const NULL: Tag = Tag::universal(5);
    /// OBJECT IDENTIFIER.
    pub const OID: Tag = Tag::universal(6);
    /// UTF8String.
    pub const UTF8_STRING: Tag = Tag::universal(12);
    /// SEQUENCE (always constructed).
    pub const SEQUENCE: Tag = Tag {
        class: Class::Universal,
        constructed: true,
        number: 16,
    };
    /// SET (always constructed).
    pub const SET: Tag = Tag {
        class: Class::Universal,
        constructed: true,
        number: 17,
    };
    /// PrintableString.
    pub const PRINTABLE_STRING: Tag = Tag::universal(19);
    /// IA5String.
    pub const IA5_STRING: Tag = Tag::universal(22);
    /// UTCTime.
    pub const UTC_TIME: Tag = Tag::universal(23);
    /// GeneralizedTime.
    pub const GENERALIZED_TIME: Tag = Tag::universal(24);

    /// A primitive universal tag.
    pub const fn universal(number: u8) -> Tag {
        Tag {
            class: Class::Universal,
            constructed: false,
            number,
        }
    }

    /// A context-specific tag, primitive form (IMPLICIT around a primitive).
    pub const fn context(number: u8) -> Tag {
        Tag {
            class: Class::ContextSpecific,
            constructed: false,
            number,
        }
    }

    /// A context-specific tag, constructed form (EXPLICIT wrapper or
    /// IMPLICIT around a constructed type).
    pub const fn context_constructed(number: u8) -> Tag {
        Tag {
            class: Class::ContextSpecific,
            constructed: true,
            number,
        }
    }

    /// Encode to the identifier octet.
    pub fn to_byte(self) -> u8 {
        let class_bits = match self.class {
            Class::Universal => 0b0000_0000,
            Class::Application => 0b0100_0000,
            Class::ContextSpecific => 0b1000_0000,
            Class::Private => 0b1100_0000,
        };
        let pc = if self.constructed { 0b0010_0000 } else { 0 };
        class_bits | pc | (self.number & 0x1f)
    }

    /// Decode from the identifier octet. High-tag-number form (number 31)
    /// is rejected.
    #[inline]
    pub fn from_byte(b: u8) -> Result<Tag> {
        let number = b & 0x1f;
        if number == 0x1f {
            return Err(Error::InvalidTag(b));
        }
        let class = match b >> 6 {
            0b00 => Class::Universal,
            0b01 => Class::Application,
            0b10 => Class::ContextSpecific,
            _ => Class::Private,
        };
        Ok(Tag {
            class,
            constructed: b & 0b0010_0000 != 0,
            number,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_common_tags() {
        for tag in [
            Tag::BOOLEAN,
            Tag::INTEGER,
            Tag::BIT_STRING,
            Tag::OCTET_STRING,
            Tag::NULL,
            Tag::OID,
            Tag::UTF8_STRING,
            Tag::SEQUENCE,
            Tag::SET,
            Tag::PRINTABLE_STRING,
            Tag::IA5_STRING,
            Tag::UTC_TIME,
            Tag::GENERALIZED_TIME,
            Tag::context(0),
            Tag::context(6),
            Tag::context_constructed(3),
        ] {
            assert_eq!(Tag::from_byte(tag.to_byte()).unwrap(), tag);
        }
    }

    #[test]
    fn sequence_byte_is_0x30() {
        assert_eq!(Tag::SEQUENCE.to_byte(), 0x30);
        assert_eq!(Tag::SET.to_byte(), 0x31);
        assert_eq!(Tag::INTEGER.to_byte(), 0x02);
        assert_eq!(Tag::context(0).to_byte(), 0x80);
        assert_eq!(Tag::context_constructed(0).to_byte(), 0xa0);
    }

    #[test]
    fn high_tag_number_rejected() {
        assert!(Tag::from_byte(0x1f).is_err());
        assert!(Tag::from_byte(0xbf).is_err());
    }
}
