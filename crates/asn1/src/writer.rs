//! DER encoder.
//!
//! One top-level encode fills one growing buffer. A constructed value
//! (SEQUENCE, SET, EXPLICIT) is written in place: its tag and a one-byte
//! placeholder length go out first, the children are appended behind
//! them, and the length is patched once they are done. Content of 128
//! bytes or more needs the long form, so the content is shifted right to
//! open the extra length octets. No child is ever encoded into a buffer of
//! its own and copied into its parent, and the primitive writers append
//! their content octets directly.

use crate::{Oid, Tag, Time};

/// An append-only DER encoder over a single buffer.
///
/// Values are appended in order; nested constructed values are built with
/// [`Encoder::sequence`]/[`Encoder::write_constructed`], whose closure
/// appends the children to the same buffer. Lengths come out definite and
/// minimal.
#[derive(Default, Clone, Debug)]
pub struct Encoder {
    out: Vec<u8>,
}

impl Encoder {
    /// New empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// Finish and return the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.out
    }

    /// Append a complete TLV with the given tag and content octets.
    pub fn write_tlv(&mut self, tag: Tag, content: &[u8]) {
        self.out.push(tag.to_byte());
        write_length(&mut self.out, content.len());
        self.out.extend_from_slice(content);
    }

    /// Append raw pre-encoded DER (must already be a well-formed TLV run).
    pub fn write_raw(&mut self, der: &[u8]) {
        self.out.extend_from_slice(der);
    }

    /// Append a constructed value whose children are written by `f`.
    pub fn write_constructed(&mut self, tag: Tag, f: impl FnOnce(&mut Encoder)) {
        let start = self.open(tag);
        f(self);
        self.close(start);
    }

    /// Append a SEQUENCE whose children are written by `f`.
    pub fn sequence(&mut self, f: impl FnOnce(&mut Encoder)) {
        self.write_constructed(Tag::SEQUENCE, f);
    }

    /// Append a SET whose children are written by `f`.
    ///
    /// Note: DER requires SET OF elements to be sorted; the X.509 layer only
    /// emits single-element SETs (one attribute per RDN) so no sort is done
    /// here.
    pub fn set(&mut self, f: impl FnOnce(&mut Encoder)) {
        self.write_constructed(Tag::SET, f);
    }

    /// Append an EXPLICIT context tag wrapping children written by `f`.
    pub fn explicit(&mut self, number: u8, f: impl FnOnce(&mut Encoder)) {
        self.write_constructed(Tag::context_constructed(number), f);
    }

    /// Append a BOOLEAN.
    pub fn boolean(&mut self, v: bool) {
        self.write_tlv(Tag::BOOLEAN, &[if v { 0xff } else { 0x00 }]);
    }

    /// Append NULL.
    pub fn null(&mut self) {
        self.write_tlv(Tag::NULL, &[]);
    }

    /// Append an INTEGER from big-endian unsigned magnitude bytes
    /// (canonical two's-complement form is produced; empty input encodes 0).
    pub fn integer_unsigned(&mut self, magnitude_be: &[u8]) {
        let skip = magnitude_be.iter().take_while(|&&b| b == 0).count();
        let stripped = &magnitude_be[skip..];
        match stripped.first() {
            None => self.write_tlv(Tag::INTEGER, &[0]),
            Some(&top) => {
                // A set top bit would read as negative: pad with one zero.
                let pad = top & 0x80 != 0;
                self.out.push(Tag::INTEGER.to_byte());
                write_length(&mut self.out, stripped.len() + pad as usize);
                if pad {
                    self.out.push(0);
                }
                self.out.extend_from_slice(stripped);
            }
        }
    }

    /// Append an INTEGER from an `i64`.
    pub fn integer_i64(&mut self, v: i64) {
        let bytes = v.to_be_bytes();
        // Trim redundant leading bytes while preserving the sign bit.
        let mut start = 0;
        while start < 7 {
            let cur = bytes[start];
            let next_top = bytes[start + 1] & 0x80;
            if (cur == 0x00 && next_top == 0) || (cur == 0xff && next_top != 0) {
                start += 1;
            } else {
                break;
            }
        }
        self.write_tlv(Tag::INTEGER, &bytes[start..]);
    }

    /// Append a BIT STRING with zero unused bits.
    pub fn bit_string(&mut self, data: &[u8]) {
        self.out.push(Tag::BIT_STRING.to_byte());
        write_length(&mut self.out, data.len() + 1);
        self.out.push(0); // unused bits
        self.out.extend_from_slice(data);
    }

    /// Append a named-bit-list BIT STRING (for KeyUsage). `bits[i]` is bit
    /// `i` in DER named-bit order (bit 0 = most significant bit of first
    /// octet). Trailing zero bits are trimmed per DER.
    pub fn bit_string_named(&mut self, bits: &[bool]) {
        let Some(last) = bits.iter().rposition(|&b| b) else {
            self.write_tlv(Tag::BIT_STRING, &[0]);
            return;
        };
        let nbytes = last / 8 + 1;
        self.out.push(Tag::BIT_STRING.to_byte());
        write_length(&mut self.out, nbytes + 1);
        self.out.push((7 - last % 8) as u8); // unused bits
        let data_start = self.out.len();
        self.out.resize(data_start + nbytes, 0);
        let data = &mut self.out[data_start..];
        for (i, &bit) in bits.iter().enumerate().take(last + 1) {
            if bit {
                data[i / 8] |= 0x80 >> (i % 8);
            }
        }
    }

    /// Append an OCTET STRING.
    pub fn octet_string(&mut self, data: &[u8]) {
        self.write_tlv(Tag::OCTET_STRING, data);
    }

    /// Append an OBJECT IDENTIFIER.
    pub fn oid(&mut self, oid: &Oid) {
        let start = self.open(Tag::OID);
        oid.encode_content_into(&mut self.out);
        self.close(start);
    }

    /// Append a UTF8String.
    pub fn utf8_string(&mut self, s: &str) {
        self.write_tlv(Tag::UTF8_STRING, s.as_bytes());
    }

    /// Append a PrintableString (caller must ensure charset validity).
    pub fn printable_string(&mut self, s: &str) {
        self.write_tlv(Tag::PRINTABLE_STRING, s.as_bytes());
    }

    /// Append an IA5String (caller must ensure ASCII).
    pub fn ia5_string(&mut self, s: &str) {
        self.write_tlv(Tag::IA5_STRING, s.as_bytes());
    }

    /// Append a Time per RFC 5280 §4.1.2.5: UTCTime (`YYMMDDHHMMSSZ`) for
    /// years 1950..=2049, GeneralizedTime (`YYYYMMDDHHMMSSZ`) otherwise.
    ///
    /// Panics when a GeneralizedTime year falls outside 0..=9999, which
    /// its four digits cannot represent.
    pub fn time(&mut self, t: Time) {
        let dt = t.to_datetime();
        if (1950..=2049).contains(&dt.year) {
            self.out.extend_from_slice(&[Tag::UTC_TIME.to_byte(), 13]);
            push_two_digits(&mut self.out, (dt.year % 100) as u8);
        } else {
            assert!(
                (0..=9999).contains(&dt.year),
                "GeneralizedTime needs a four-digit year, got {}",
                dt.year
            );
            self.out
                .extend_from_slice(&[Tag::GENERALIZED_TIME.to_byte(), 15]);
            push_two_digits(&mut self.out, (dt.year / 100) as u8);
            push_two_digits(&mut self.out, (dt.year % 100) as u8);
        }
        for v in [dt.month, dt.day, dt.hour, dt.minute, dt.second] {
            push_two_digits(&mut self.out, v);
        }
        self.out.push(b'Z');
    }

    /// Start a TLV whose content is appended next: write the tag and a
    /// one-byte placeholder length, and return where the content starts.
    fn open(&mut self, tag: Tag) -> usize {
        self.out.extend_from_slice(&[tag.to_byte(), 0]);
        self.out.len()
    }

    /// Finish the TLV opened at `start` by patching its length. Long-form
    /// lengths shift the content right to make room for their octets.
    fn close(&mut self, start: usize) {
        let len = self.out.len() - start;
        if len < 0x80 {
            self.out[start - 1] = len as u8;
            return;
        }
        let bytes = len.to_be_bytes();
        let sig = &bytes[len.leading_zeros() as usize / 8..];
        self.out[start - 1] = 0x80 | sig.len() as u8;
        let end = self.out.len();
        self.out.resize(end + sig.len(), 0);
        self.out.copy_within(start..end, start + sig.len());
        self.out[start..start + sig.len()].copy_from_slice(sig);
    }
}

/// Encode a definite-length (short or minimal long form).
fn write_length(out: &mut Vec<u8>, len: usize) {
    if len < 0x80 {
        out.push(len as u8);
    } else {
        let bytes = len.to_be_bytes();
        let sig = &bytes[len.leading_zeros() as usize / 8..];
        out.push(0x80 | sig.len() as u8);
        out.extend_from_slice(sig);
    }
}

/// Append `v` (0..=99) as two ASCII digits.
fn push_two_digits(out: &mut Vec<u8>, v: u8) {
    out.extend_from_slice(&[b'0' + v / 10, b'0' + v % 10]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_and_long_lengths() {
        let mut e = Encoder::new();
        e.octet_string(&[0xaa; 5]);
        assert_eq!(&e.finish()[..2], &[0x04, 0x05]);

        let mut e = Encoder::new();
        e.octet_string(&[0xbb; 200]);
        let out = e.finish();
        assert_eq!(&out[..3], &[0x04, 0x81, 200]);

        let mut e = Encoder::new();
        e.octet_string(&[0xcc; 70000]);
        let out = e.finish();
        assert_eq!(&out[..4], &[0x04, 0x83, 0x01, 0x11]);
        assert_eq!(out[4], 0x70);
    }

    #[test]
    fn integers_are_canonical() {
        let mut e = Encoder::new();
        e.integer_unsigned(&[]);
        e.integer_unsigned(&[0x00]);
        e.integer_unsigned(&[0x7f]);
        e.integer_unsigned(&[0x80]);
        e.integer_unsigned(&[0x00, 0x00, 0x01]);
        let out = e.finish();
        assert_eq!(
            out,
            vec![
                0x02, 0x01, 0x00, // 0
                0x02, 0x01, 0x00, // 0
                0x02, 0x01, 0x7f, // 127
                0x02, 0x02, 0x00, 0x80, // 128 needs a leading zero
                0x02, 0x01, 0x01, // 1
            ]
        );
    }

    #[test]
    fn integer_i64_values() {
        let cases: Vec<(i64, Vec<u8>)> = vec![
            (0, vec![0x02, 0x01, 0x00]),
            (1, vec![0x02, 0x01, 0x01]),
            (127, vec![0x02, 0x01, 0x7f]),
            (128, vec![0x02, 0x02, 0x00, 0x80]),
            (256, vec![0x02, 0x02, 0x01, 0x00]),
            (-1, vec![0x02, 0x01, 0xff]),
            (-128, vec![0x02, 0x01, 0x80]),
            (-129, vec![0x02, 0x02, 0xff, 0x7f]),
        ];
        for (v, expected) in cases {
            let mut e = Encoder::new();
            e.integer_i64(v);
            assert_eq!(e.finish(), expected, "value {v}");
        }
    }

    #[test]
    fn boolean_and_null() {
        let mut e = Encoder::new();
        e.boolean(true);
        e.boolean(false);
        e.null();
        assert_eq!(e.finish(), vec![0x01, 0x01, 0xff, 0x01, 0x01, 0x00, 0x05, 0x00]);
    }

    #[test]
    fn nested_sequence() {
        let mut e = Encoder::new();
        e.sequence(|s| {
            s.integer_i64(1);
            s.sequence(|inner| {
                inner.boolean(true);
            });
        });
        assert_eq!(
            e.finish(),
            vec![0x30, 0x08, 0x02, 0x01, 0x01, 0x30, 0x03, 0x01, 0x01, 0xff]
        );
    }

    #[test]
    fn named_bit_string_trims_trailing_zeros() {
        // keyCertSign is bit 5: expect 1 content byte, 2 unused bits.
        let mut bits = vec![false; 9];
        bits[5] = true;
        let mut e = Encoder::new();
        e.bit_string_named(&bits);
        assert_eq!(e.finish(), vec![0x03, 0x02, 0x02, 0x04]);

        // digitalSignature (bit 0) + keyEncipherment (bit 2).
        let mut e = Encoder::new();
        e.bit_string_named(&[true, false, true]);
        assert_eq!(e.finish(), vec![0x03, 0x02, 0x05, 0xa0]);

        // Empty named bit list.
        let mut e = Encoder::new();
        e.bit_string_named(&[false, false]);
        assert_eq!(e.finish(), vec![0x03, 0x01, 0x00]);
    }

    #[test]
    fn bit_string_plain() {
        let mut e = Encoder::new();
        e.bit_string(&[0xde, 0xad]);
        assert_eq!(e.finish(), vec![0x03, 0x03, 0x00, 0xde, 0xad]);
    }

    #[test]
    fn strings() {
        let mut e = Encoder::new();
        e.utf8_string("ab");
        e.printable_string("CD");
        e.ia5_string("e.f");
        assert_eq!(
            e.finish(),
            vec![
                0x0c, 0x02, b'a', b'b', 0x13, 0x02, b'C', b'D', 0x16, 0x03, b'e', b'.', b'f'
            ]
        );
    }

    #[test]
    fn utc_vs_generalized_selection() {
        let mut e = Encoder::new();
        e.time(Time::from_ymd(2024, 3, 15).unwrap());
        let out = e.finish();
        assert_eq!(out[..2], [0x17, 13]);
        assert_eq!(&out[2..], b"240315000000Z");
        let mut e = Encoder::new();
        e.time(Time::from_ymd(2050, 1, 1).unwrap());
        let out = e.finish();
        assert_eq!(out[..2], [0x18, 15]);
        assert_eq!(&out[2..], b"20500101000000Z");
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = Time::from_ymd_hms(2031, 7, 4, 1, 2, 3).unwrap();
        let mut e = Encoder::new();
        e.time(t);
        let out = e.finish();
        assert_eq!(out[0], 0x17);
        assert_eq!(Time::decode_utc_time(&out[2..]).unwrap(), t);
        let t2 = Time::from_ymd_hms(2055, 7, 4, 1, 2, 3).unwrap();
        let mut e = Encoder::new();
        e.time(t2);
        let out = e.finish();
        assert_eq!(out[0], 0x18);
        assert_eq!(Time::decode_generalized_time(&out[2..]).unwrap(), t2);
    }

    #[test]
    fn long_form_constructed_lengths() {
        // Content of 127, 128, 256 and 65,536 bytes: the closing patch
        // must pick the short form, then one, two and three length octets.
        for (content, header) in [
            (127usize, vec![0x30, 0x7f]),
            (128, vec![0x30, 0x81, 0x80]),
            (256, vec![0x30, 0x82, 0x01, 0x00]),
            (65_536, vec![0x30, 0x83, 0x01, 0x00, 0x00]),
        ] {
            let mut e = Encoder::new();
            e.null();
            e.sequence(|s| s.write_raw(&vec![0x5a; content]));
            let out = e.finish();
            assert_eq!(out[..2], [0x05, 0x00]);
            assert_eq!(out[2..2 + header.len()], header[..], "content {content}");
            assert_eq!(out.len(), 2 + header.len() + content);
            assert!(out[2 + header.len()..].iter().all(|&b| b == 0x5a));
        }
    }
}
