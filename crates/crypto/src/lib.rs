//! From-scratch cryptographic primitives for the chain-chaos synthetic PKI.
//!
//! Provides the hash functions (SHA-256, SHA-1), HMAC, a deterministic DRBG,
//! and a real discrete-log signature scheme (Schnorr over a safe-prime
//! group). These are substrates: the paper's subject is certificate *chain
//! construction*, which needs genuine "issuer key verifies subject
//! signature" semantics — including mismatches — but not production-grade
//! performance or side-channel hardening.
//!
//! SHA-256 sits under every DRBG draw, nonce, challenge, serial and
//! fingerprint, so its block function has a fast route: on `x86_64` CPUs
//! with the SHA extensions it runs `sha256rnds2`/`sha256msg1`/`sha256msg2`
//! through `std::arch`, chosen per call by `is_x86_feature_detected!`. The
//! portable rounds stay as the reference and the fallback, and the unit
//! tests in [`sha256`](mod@sha256) hold the two to the same digests. That
//! module is the only place in the workspace where `unsafe` is allowed.
//!
//! Two group presets are provided:
//! - [`schnorr::Group::simulation_256`]: a 256-bit safe-prime group used by
//!   the corpus generators so that million-certificate experiments stay fast;
//! - [`schnorr::Group::rfc3526_1536`]: the 1536-bit MODP group from RFC 3526
//!   for interop-grade strength in examples.

pub mod drbg;
pub mod hmac;
pub mod intern;
pub mod schnorr;
pub mod sha1;
pub mod sha256;

pub use drbg::Drbg;
pub use hmac::hmac_sha256;
pub use intern::{verify_stats, InternedKey, KeyRegistry, VerifyStats};
pub use schnorr::{
    keypair_derivations, Group, GroupOps, KeyPair, PrivateKey, PublicKey, Signature,
};
pub use sha1::sha1;
pub use sha256::sha256;
