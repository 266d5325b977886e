//! Differential test of the in-place [`Encoder`] against a nested-buffer
//! reference.
//!
//! The reference below is the straightforward DER writer: every
//! constructed value encodes its children into a fresh buffer and copies
//! that buffer into its parent behind a length computed up front, and
//! every primitive builds its content octets in a temporary `Vec` first.
//! `Encoder` instead writes one buffer and back-patches each length,
//! shifting the content right when the long form needs more octets. The
//! two must agree byte for byte on every input: random nested TLV trees
//! (depth ≤ 4) whose content lengths straddle the 127/128, 255/256 and
//! 65,535/65,536 length-form boundaries, plus fixed cases at exactly
//! those boundaries.

use ccc_asn1::{Encoder, Oid, Tag, Time};
use proptest::prelude::*;

/// The nested-buffer reference encoder.
#[derive(Default)]
struct Reference {
    out: Vec<u8>,
}

impl Reference {
    fn write_tlv(&mut self, tag: Tag, content: &[u8]) {
        self.out.push(tag.to_byte());
        let len = content.len();
        if len < 0x80 {
            self.out.push(len as u8);
        } else {
            let bytes = len.to_be_bytes();
            let skip = bytes.iter().take_while(|&&b| b == 0).count();
            self.out.push(0x80 | (bytes.len() - skip) as u8);
            self.out.extend_from_slice(&bytes[skip..]);
        }
        self.out.extend_from_slice(content);
    }

    fn write_constructed(&mut self, tag: Tag, f: impl FnOnce(&mut Reference)) {
        let mut inner = Reference::default();
        f(&mut inner);
        self.write_tlv(tag, &inner.out);
    }

    fn integer_unsigned(&mut self, magnitude_be: &[u8]) {
        let skip = magnitude_be.iter().take_while(|&&b| b == 0).count();
        let stripped = &magnitude_be[skip..];
        let mut content = Vec::new();
        if stripped.is_empty() {
            content.push(0);
        } else {
            if stripped[0] & 0x80 != 0 {
                content.push(0);
            }
            content.extend_from_slice(stripped);
        }
        self.write_tlv(Tag::INTEGER, &content);
    }

    fn integer_i64(&mut self, v: i64) {
        let bytes = v.to_be_bytes();
        let mut start = 0;
        while start < 7 {
            let next_top = bytes[start + 1] & 0x80;
            match bytes[start] {
                0x00 if next_top == 0 => start += 1,
                0xff if next_top != 0 => start += 1,
                _ => break,
            }
        }
        self.write_tlv(Tag::INTEGER, &bytes[start..]);
    }

    fn bit_string(&mut self, data: &[u8]) {
        let mut content = vec![0];
        content.extend_from_slice(data);
        self.write_tlv(Tag::BIT_STRING, &content);
    }

    fn bit_string_named(&mut self, bits: &[bool]) {
        match bits.iter().rposition(|&b| b) {
            None => self.write_tlv(Tag::BIT_STRING, &[0]),
            Some(last) => {
                let mut data = vec![0u8; last / 8 + 1];
                for (i, &bit) in bits.iter().enumerate().take(last + 1) {
                    if bit {
                        data[i / 8] |= 0x80 >> (i % 8);
                    }
                }
                let mut content = vec![(7 - last % 8) as u8];
                content.extend_from_slice(&data);
                self.write_tlv(Tag::BIT_STRING, &content);
            }
        }
    }

    fn oid(&mut self, arcs: &[u64]) {
        let mut content = Vec::new();
        let mut push = |mut v: u64| {
            let mut groups = vec![(v & 0x7f) as u8];
            v >>= 7;
            while v != 0 {
                groups.push((v & 0x7f) as u8 | 0x80);
                v >>= 7;
            }
            content.extend(groups.iter().rev());
        };
        push(arcs[0] * 40 + arcs[1]);
        for &arc in &arcs[2..] {
            push(arc);
        }
        self.write_tlv(Tag::OID, &content);
    }

    fn time(&mut self, t: Time) {
        let dt = t.to_datetime();
        if (1950..=2049).contains(&dt.year) {
            let s = format!(
                "{:02}{:02}{:02}{:02}{:02}{:02}Z",
                dt.year % 100,
                dt.month,
                dt.day,
                dt.hour,
                dt.minute,
                dt.second
            );
            self.write_tlv(Tag::UTC_TIME, s.as_bytes());
        } else {
            let s = format!(
                "{:04}{:02}{:02}{:02}{:02}{:02}Z",
                dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second
            );
            self.write_tlv(Tag::GENERALIZED_TIME, s.as_bytes());
        }
    }
}

/// One value of the tree both encoders write.
#[derive(Clone, Debug)]
enum Node {
    Constructed(Tag, Vec<Node>),
    Octets(Vec<u8>),
    Utf8(String),
    Unsigned(Vec<u8>),
    I64(i64),
    Bool(bool),
    Null,
    Bits(Vec<u8>),
    NamedBits(Vec<bool>),
    Oid(Vec<u64>),
    Time(i64),
    Raw(Vec<u8>),
}

fn encode(node: &Node, e: &mut Encoder) {
    match node {
        Node::Constructed(tag, children) => e.write_constructed(*tag, |c| {
            for child in children {
                encode(child, c);
            }
        }),
        Node::Octets(d) => e.octet_string(d),
        Node::Utf8(s) => e.utf8_string(s),
        Node::Unsigned(m) => e.integer_unsigned(m),
        Node::I64(v) => e.integer_i64(*v),
        Node::Bool(b) => e.boolean(*b),
        Node::Null => e.null(),
        Node::Bits(d) => e.bit_string(d),
        Node::NamedBits(bits) => e.bit_string_named(bits),
        Node::Oid(arcs) => e.oid(&Oid::new(arcs)),
        Node::Time(secs) => e.time(Time::from_unix(*secs)),
        Node::Raw(der) => e.write_raw(der),
    }
}

fn reference(node: &Node, r: &mut Reference) {
    match node {
        Node::Constructed(tag, children) => r.write_constructed(*tag, |c| {
            for child in children {
                reference(child, c);
            }
        }),
        Node::Octets(d) => r.write_tlv(Tag::OCTET_STRING, d),
        Node::Utf8(s) => r.write_tlv(Tag::UTF8_STRING, s.as_bytes()),
        Node::Unsigned(m) => r.integer_unsigned(m),
        Node::I64(v) => r.integer_i64(*v),
        Node::Bool(b) => r.write_tlv(Tag::BOOLEAN, &[if *b { 0xff } else { 0 }]),
        Node::Null => r.write_tlv(Tag::NULL, &[]),
        Node::Bits(d) => r.bit_string(d),
        Node::NamedBits(bits) => r.bit_string_named(bits),
        Node::Oid(arcs) => r.oid(arcs),
        Node::Time(secs) => r.time(Time::from_unix(*secs)),
        Node::Raw(der) => r.out.extend_from_slice(der),
    }
}

/// Encode `nodes` with both encoders, assert byte equality, and return
/// the bytes.
fn agreed(nodes: &[Node]) -> Vec<u8> {
    let mut e = Encoder::new();
    let mut r = Reference::default();
    for node in nodes {
        encode(node, &mut e);
        reference(node, &mut r);
    }
    let got = e.finish();
    assert!(
        got == r.out,
        "encoders disagree on {} bytes of input",
        r.out.len()
    );
    got
}

/// Content lengths on and around each length-form boundary.
const BOUNDARIES: [usize; 12] = [
    126, 127, 128, 129, 254, 255, 256, 257, 65_534, 65_535, 65_536, 65_537,
];

/// Encoded size of a TLV whose content is `len` bytes.
fn tlv_size(len: usize) -> usize {
    let long = if len < 0x80 {
        0
    } else {
        8 - len.leading_zeros() as usize / 8
    };
    2 + long + len
}

/// Nodes that encode to exactly `room` (≥ 2) bytes: one OCTET STRING, or
/// a NULL plus one when `room` falls in the gap a longer length form
/// leaves (no TLV is 130, 259 or 65,540 bytes long).
fn filler(room: usize) -> Vec<Node> {
    match (0..room - 1).rev().find(|&n| tlv_size(n) == room) {
        Some(n) => vec![Node::Octets(vec![0xa5; n])],
        None => {
            let mut nodes = filler(room - 2);
            nodes.push(Node::Null);
            nodes
        }
    }
}

/// Deterministic generator behind the random trees (SplitMix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }

    /// A length that is usually small and often a boundary length.
    fn length(&mut self) -> usize {
        match self.below(4) {
            0 => BOUNDARIES[self.below(8) as usize],
            1 if self.below(8) == 0 => BOUNDARIES[8 + self.below(4) as usize],
            _ => self.below(40) as usize,
        }
    }

    fn leaf(&mut self) -> Node {
        match self.below(12) {
            0 => {
                let n = self.length();
                Node::Octets(self.bytes(n))
            }
            1 => Node::Utf8("é".repeat(self.below(70) as usize)),
            2 => {
                let n = if self.below(3) == 0 {
                    self.length()
                } else {
                    16
                };
                let mut m = self.bytes(n);
                for b in m.iter_mut().take(self.below(3) as usize) {
                    *b = 0;
                }
                Node::Unsigned(m)
            }
            3 => Node::I64(self.next() as i64 >> self.below(64)),
            4 => Node::Bool(self.below(2) == 0),
            5 => Node::Null,
            6 => {
                let n = self.length();
                Node::Bits(self.bytes(n))
            }
            7 => Node::NamedBits((0..self.below(20)).map(|_| self.below(3) == 0).collect()),
            8 => {
                let first = self.below(3);
                let second = if first < 2 {
                    self.below(40)
                } else {
                    self.next() >> (4 + self.below(60))
                };
                let mut arcs = vec![first, second];
                for _ in 0..self.below(8) {
                    arcs.push(self.next() >> self.below(64));
                }
                Node::Oid(arcs)
            }
            // Years 0000..=9999: both UTCTime and GeneralizedTime ranges.
            9 => Node::Time(self.below(315_569_520_000) as i64 - 62_167_219_200),
            10 => {
                let n = self.length();
                let mut inner = Encoder::new();
                inner.octet_string(&self.bytes(n));
                Node::Raw(inner.finish())
            }
            _ => Node::Octets(Vec::new()),
        }
    }

    /// A constructed node; half of them are padded so their content length
    /// lands exactly on a boundary length.
    fn constructed(&mut self, depth: u32) -> Node {
        let tag = match self.below(3) {
            0 => Tag::SEQUENCE,
            1 => Tag::SET,
            _ => Tag::context_constructed(self.below(31) as u8),
        };
        let mut children: Vec<Node> = (0..self.below(5)).map(|_| self.node(depth + 1)).collect();
        if self.below(2) == 0 {
            let target = BOUNDARIES[self.below(BOUNDARIES.len() as u64) as usize];
            let mut used: usize = children.iter().map(size).sum();
            while used + 2 > target {
                used -= size(&children.pop().expect("the children account for used"));
            }
            children.extend(filler(target - used));
        }
        Node::Constructed(tag, children)
    }

    fn node(&mut self, depth: u32) -> Node {
        if depth < 4 && self.below(3) != 0 {
            self.constructed(depth)
        } else {
            self.leaf()
        }
    }
}

/// Encoded size of a node.
fn size(node: &Node) -> usize {
    let mut r = Reference::default();
    reference(node, &mut r);
    r.out.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_trees_match_reference(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let nodes: Vec<Node> = (0..1 + g.below(3)).map(|_| g.constructed(1)).collect();
        agreed(&nodes);
    }
}

/// Content lengths of every constructed node in `node`.
fn constructed_lengths(node: &Node, out: &mut Vec<usize>) {
    if let Node::Constructed(_, children) = node {
        out.push(children.iter().map(size).sum());
        for child in children {
            constructed_lengths(child, out);
        }
    }
}

#[test]
fn random_trees_reach_every_boundary() {
    // The generator behind `random_trees_match_reference` must actually
    // produce constructed content on each side of every boundary, nested.
    let mut seen = Vec::new();
    for seed in 0..96 {
        constructed_lengths(&Gen(seed).constructed(1), &mut seen);
    }
    for b in BOUNDARIES {
        assert!(seen.contains(&b), "no constructed content of {b} bytes");
    }
}

#[test]
fn constructed_content_on_each_boundary() {
    for &len in &BOUNDARIES {
        for tag in [Tag::SEQUENCE, Tag::SET, Tag::context_constructed(3)] {
            let node = Node::Constructed(tag, filler(len));
            let der = agreed(std::slice::from_ref(&node));
            assert_eq!(der.len(), tlv_size(len), "content {len}");
        }
    }
}

#[test]
fn nested_long_forms_shift_together() {
    // A 65,536-byte OCTET STRING inside four constructed levels: every
    // level needs a three-octet long form, so each closing patch shifts
    // content that an inner patch already shifted.
    let mut node = Node::Octets(vec![0x3c; 65_536]);
    for tag in [
        Tag::SEQUENCE,
        Tag::context_constructed(0),
        Tag::SET,
        Tag::SEQUENCE,
    ] {
        node = Node::Constructed(tag, vec![Node::Null, node, Node::Bool(true)]);
    }
    agreed(&[Node::I64(-1), node, Node::Null]);
}

#[test]
fn primitives_on_each_boundary() {
    for &len in &BOUNDARIES {
        agreed(&[
            Node::Octets(vec![0x7e; len]),
            Node::Bits(vec![0x81; len - 1]),
            Node::Bits(vec![0x81; len]),
            Node::Unsigned(vec![0xff; len - 1]),
            Node::Unsigned(vec![0x7f; len]),
            Node::NamedBits(vec![true; len]),
        ]);
    }
}

#[test]
fn times_on_the_utc_generalized_switch() {
    for (y, m, d, h, mi, s) in [
        (0, 1, 1, 0, 0, 0),
        (1949, 12, 31, 23, 59, 59),
        (1950, 1, 1, 0, 0, 0),
        (2000, 2, 29, 12, 30, 45),
        (2049, 12, 31, 23, 59, 59),
        (2050, 1, 1, 0, 0, 0),
        (9999, 12, 31, 23, 59, 59),
    ] {
        let t = Time::from_ymd_hms(y, m, d, h, mi, s).unwrap();
        agreed(&[Node::Time(t.unix())]);
    }
}
