//! Differential test of `PublicKey::verify` against a plain reference.
//!
//! The reference recomputes `r' = modpow(g, s, p) · modpow(y, q − e, p)`
//! with the generic exponentiation and no per-key or per-group tables,
//! then checks `SHA-256(r' ‖ m) == e`. `verify` runs the fixed-base
//! tables (the group's generator table and the key's interned table, built
//! on first use), so agreement on every input — valid signatures, forged
//! `e`/`s` bit flips, truncated and out-of-range scalars, a zeroed
//! challenge, the wrong key, and the non-subgroup key `y = p − 1` — pins
//! that the tables change only the time a verdict takes. The corpus
//! analyses treat a verification failure as a compliance finding, so a
//! verdict drift here would change the paper's tables.

use ccc_bignum::{modpow, Uint};
use ccc_crypto::{sha256, Group, KeyPair, PublicKey, Signature};
use proptest::prelude::*;

/// Verification from first principles: range checks, then two generic
/// exponentiations and the challenge hash.
fn reference_verify(key: &PublicKey, message: &[u8], sig: &Signature) -> bool {
    let group = key.group();
    if sig.s.len() != group.scalar_len {
        return false;
    }
    let s = Uint::from_bytes_be(&sig.s);
    if s >= group.q {
        return false;
    }
    let e = Uint::from_bytes_be(&sig.e).rem(&group.q).expect("q > 0");
    let neg_e = group.q.checked_sub(&e).expect("e < q");
    let y = Uint::from_bytes_be(key.as_bytes());
    let gs = modpow(&group.g, &s, &group.p).expect("p > 0");
    let ye = modpow(&y, &neg_e, &group.p).expect("p > 0");
    let mut buf = gs
        .mul_mod(&ye, &group.p)
        .to_bytes_be_padded(group.element_len)
        .expect("r < p fits");
    buf.extend_from_slice(message);
    sha256(&buf) == sig.e
}

/// Assert `verify` agrees with the reference and return the verdict.
fn agreed(key: &PublicKey, message: &[u8], sig: &Signature) -> bool {
    let verdict = key.verify(message, sig);
    assert_eq!(verdict, reference_verify(key, message, sig), "verdict drift");
    verdict
}

fn group(big: bool) -> &'static Group {
    if big {
        Group::rfc3526_1536()
    } else {
        Group::simulation_256()
    }
}

/// A signing key. On the 1536-bit group the seed picks one of two fixed
/// keys, so the suite builds at most two of its ~1.1 MiB tables; on the
/// 256-bit group every seed is a fresh key whose first verification
/// builds its table.
fn key(big: bool, seed: &[u8]) -> KeyPair {
    if big {
        let pick = seed.first().copied().unwrap_or(0) % 2;
        KeyPair::from_seed(group(true), &[b'k', pick])
    } else {
        KeyPair::from_seed(group(false), seed)
    }
}

/// `y = p − 1`: in range, so `PublicKey::from_bytes` accepts it, but of
/// order 2 rather than `q`.
fn order_two_key(group: &Group) -> PublicKey {
    let bytes = group
        .p
        .checked_sub(&Uint::one())
        .expect("p > 1")
        .to_bytes_be_padded(group.element_len)
        .expect("p - 1 fits");
    PublicKey::from_bytes(group, &bytes).expect("p - 1 is in range")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn valid_signatures_verify(
        big in any::<bool>(),
        seed in proptest::collection::vec(any::<u8>(), 1..24),
        message in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let kp = key(big, &seed);
        let sig = kp.private.sign(&message);
        prop_assert!(agreed(&kp.public, &message, &sig));
    }

    #[test]
    fn forged_signatures_reject(
        big in any::<bool>(),
        seed in proptest::collection::vec(any::<u8>(), 1..24),
        message in proptest::collection::vec(any::<u8>(), 0..64),
        flip_byte in 0usize..256,
        flip_bit in 0u8..8,
        in_e in any::<bool>(),
    ) {
        let kp = key(big, &seed);
        let mut sig = kp.private.sign(&message);
        if in_e {
            sig.e[flip_byte % 32] ^= 1 << flip_bit;
        } else {
            let idx = flip_byte % sig.s.len();
            sig.s[idx] ^= 1 << flip_bit;
        }
        // A bit flip may (astronomically unlikely) produce a different
        // valid signature; agreement is asserted first, rejection after.
        prop_assert!(!agreed(&kp.public, &message, &sig));
    }

    #[test]
    fn wrong_key_rejects(
        seed in proptest::collection::vec(any::<u8>(), 1..24),
        message in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let signer = key(false, &seed);
        let mut other_seed = seed.clone();
        other_seed.push(0x5a);
        let other = key(false, &other_seed);
        let sig = signer.private.sign(&message);
        prop_assert!(!agreed(&other.public, &message, &sig));
    }

    #[test]
    fn out_of_range_scalar_rejects(
        big in any::<bool>(),
        seed in proptest::collection::vec(any::<u8>(), 1..24),
        message in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        // s ≥ q must be rejected before any arithmetic.
        let g = group(big);
        let kp = key(big, &seed);
        let mut sig = kp.private.sign(&message);
        sig.s = g.q.to_bytes_be_padded(g.scalar_len).expect("q fits scalar_len");
        prop_assert!(!agreed(&kp.public, &message, &sig));
        // All-ones scalar (well above q) as a second boundary probe.
        sig.s = vec![0xff; g.scalar_len];
        prop_assert!(!agreed(&kp.public, &message, &sig));
    }

    #[test]
    fn truncated_scalar_rejects(
        big in any::<bool>(),
        seed in proptest::collection::vec(any::<u8>(), 1..24),
        message in proptest::collection::vec(any::<u8>(), 0..32),
        cut in 1usize..32,
    ) {
        let kp = key(big, &seed);
        let mut sig = kp.private.sign(&message);
        sig.s.truncate(sig.s.len() - cut);
        prop_assert!(!agreed(&kp.public, &message, &sig));
    }

    #[test]
    fn zeroed_challenge_rejects(
        big in any::<bool>(),
        seed in proptest::collection::vec(any::<u8>(), 1..24),
        message in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        // e = 0 drives the q − e subtraction to its neg_e = q boundary.
        let kp = key(big, &seed);
        let mut sig = kp.private.sign(&message);
        sig.e = [0u8; 32];
        prop_assert!(!agreed(&kp.public, &message, &sig));
    }

    #[test]
    fn order_two_key_agrees(
        big in any::<bool>(),
        seed in proptest::collection::vec(any::<u8>(), 1..24),
        nonce in proptest::collection::vec(any::<u8>(), 1..24),
        message in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let g = group(big);
        let outsider = order_two_key(g);
        // A real key's signature, checked under y = p − 1.
        let sig = key(big, &seed).private.sign(&message);
        agreed(&outsider, &message, &sig);
        // The non-subgroup forgery: r = g^k, e = H(r ‖ m), s = k. Under
        // y = −1 it verifies exactly when q − (e mod q) is even, so about
        // half of these are accepted — by the reference too.
        let k = Uint::from_bytes_be(&nonce).rem(&g.q).expect("q > 0");
        let mut buf = g.pow_g(&k).to_bytes_be_padded(g.element_len).expect("r < p fits");
        buf.extend_from_slice(&message);
        let forged = Signature {
            e: sha256(&buf),
            s: k.to_bytes_be_padded(g.scalar_len).expect("k < q fits"),
        };
        agreed(&outsider, &message, &forged);
    }
}

#[test]
fn order_two_key_accepts_the_even_forgery_on_both_paths() {
    // Pin one accepted forgery so the property above cannot pass by
    // rejecting everything: search nonces until q − e is even.
    let g = Group::simulation_256();
    let outsider = order_two_key(g);
    let message = b"non-subgroup forgery";
    let accepted = (1u64..64).any(|n| {
        let k = Uint::from_u64(n);
        let mut buf = g.pow_g(&k).to_bytes_be_padded(g.element_len).expect("r < p fits");
        buf.extend_from_slice(message);
        let forged = Signature {
            e: sha256(&buf),
            s: k.to_bytes_be_padded(g.scalar_len).expect("k < q fits"),
        };
        agreed(&outsider, message, &forged)
    });
    assert!(accepted);
    assert!(!outsider.is_subgroup_member());
}
