//! SHA-256 (FIPS 180-4).
//!
//! One private block function, `compress_blocks`, runs every compression.
//! On `x86_64` CPUs with the SHA extensions it takes the SHA-NI route in
//! `shani`, the only module in the workspace allowed `unsafe`; everywhere
//! else it runs the portable rounds in `compress_blocks_portable`, which
//! stay the reference the SHA-NI route is tested against. The choice is made
//! per call from the CPU's detected features: there is no knob.

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const IV: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: IV,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        // Every whole block goes to the block function in one call, straight
        // from the caller's slice.
        let (blocks, rest) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Finish and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // `0x80`, the zero fill and the 64-bit bit length, in one block, or
        // in two when the length no longer fits after 56+ buffered bytes.
        let mut tail = [0u8; 128];
        let n = self.buffer_len;
        tail[..n].copy_from_slice(&self.buffer[..n]);
        tail[n] = 0x80;
        let len = if n < 56 { 64 } else { 128 };
        tail[len - 8..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.state, &tail[..len]);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compress `blocks` (a whole number of 64-byte blocks) into `state`.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    #[cfg(target_arch = "x86_64")]
    if shani::compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_portable(state, blocks);
}

/// The portable FIPS 180-4 rounds: the reference block function and the
/// fallback on CPUs without SHA-NI.
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// The SHA-NI block function (Intel SHA extensions through `std::arch`).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Whether this CPU has every extension [`compress_blocks_sha`] is
    /// compiled for. std caches the detection, so this is a few loads.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Compress `blocks` into `state` with SHA-NI and return `true`, or
    /// return `false` without touching `state` when the CPU lacks it.
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        if !detected() {
            return false;
        }
        // SAFETY: `detected()` just confirmed at runtime, through
        // `is_x86_feature_detected!`, that the CPU supports sha, sse2, ssse3
        // and sse4.1: exactly the features `compress_blocks_sha` enables.
        unsafe { compress_blocks_sha(state, blocks) };
        true
    }

    /// Compress every whole 64-byte block of `blocks` into `state`. All
    /// memory access goes through bounds-checked slices of 16 bytes.
    ///
    /// # Safety
    ///
    /// The CPU must support sha, sse2, ssse3 and sse4.1.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_blocks_sha(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte-swaps each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // Load a..h once and rearrange into the (a, b, e, f) / (c, d, g, h)
        // register layout `sha256rnds2` works on.
        let dcba = _mm_loadu_si128(state[..4].as_ptr().cast());
        let hgfe = _mm_loadu_si128(state[4..].as_ptr().cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let (abef_saved, cdgh_saved) = (abef, cdgh);
            let load = |i: usize| _mm_loadu_si128(block[i * 16..i * 16 + 16].as_ptr().cast());
            let mut w0 = _mm_shuffle_epi8(load(0), bswap);
            let mut w1 = _mm_shuffle_epi8(load(1), bswap);
            let mut w2 = _mm_shuffle_epi8(load(2), bswap);
            let mut w3 = _mm_shuffle_epi8(load(3), bswap);
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            // Message groups 4..16, each scheduled from the four before it
            // into the register of the oldest.
            for group in (4..16).step_by(4) {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, group);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, group + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, group + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, group + 3);
            }
            abef = _mm_add_epi32(abef, abef_saved);
            cdgh = _mm_add_epi32(cdgh, cdgh_saved);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state[..4].as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state[4..].as_mut_ptr().cast(), hgef);
    }

    /// Four rounds on message group `w` (words `4 * group ..`), two per
    /// `sha256rnds2`.
    ///
    /// # Safety
    ///
    /// As for `compress_blocks_sha`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, group: usize) {
        let k = _mm_loadu_si128(K[group * 4..group * 4 + 4].as_ptr().cast());
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// The next message group from the previous four, oldest first.
    ///
    /// # Safety
    ///
    /// As for `compress_blocks_sha`.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    type BlockFn = fn(&mut [u32; 8], &[u8]);

    /// The SHA-NI block function, or `None` (noted on stderr) on a CPU
    /// without it.
    fn shani_block_fn() -> Option<BlockFn> {
        #[cfg(target_arch = "x86_64")]
        if shani::detected() {
            return Some(|state, blocks| assert!(shani::compress_blocks(state, blocks)));
        }
        eprintln!("SHA-NI not detected on this CPU: skipping the SHA-NI block function");
        None
    }

    /// Both block functions this CPU can run, by name.
    fn block_fns() -> Vec<(&'static str, BlockFn)> {
        let mut fns: Vec<(&'static str, BlockFn)> = vec![("portable", compress_blocks_portable)];
        if let Some(f) = shani_block_fn() {
            fns.push(("sha-ni", f));
        }
        fns
    }

    /// One-shot digest through `block` alone: pads the whole message
    /// itself and compresses it in one call, bypassing `Sha256`.
    fn digest_with(block: BlockFn, data: &[u8]) -> [u8; 32] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = IV;
        block(&mut state, &padded);
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn nist_vectors() {
        let vectors: [(&[u8], &str); 3] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (msg, want) in vectors {
            assert_eq!(hex(&sha256(msg)), want, "{msg:?}");
            for (name, block) in block_fns() {
                assert_eq!(hex(&digest_with(block, msg)), want, "{name} {msg:?}");
            }
        }
    }

    #[test]
    fn million_a() {
        let want = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(hex(&h.finalize()), want);
        let data = vec![b'a'; 1_000_000];
        for (name, block) in block_fns() {
            assert_eq!(hex(&digest_with(block, &data)), want, "{name}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(10_000).collect();
        for split in [0, 1, 63, 64, 65, 127, 5000, 9999, 10_000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split {split}");
        }
    }

    #[test]
    fn length_boundary_inputs() {
        // Inputs around the 55/56-byte padding boundary.
        for len in 50..70usize {
            let data = vec![0x5a; len];
            let d1 = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(&[*b]);
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn dispatching_hasher_matches_portable_at_every_length_and_split() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 131 + 7) as u8).collect();
        for len in 0..=300usize {
            let msg = &data[..len];
            let want = digest_with(compress_blocks_portable, msg);
            for split in [0, 1, 55, 56, 63, 64, 65, len.saturating_sub(1)] {
                let split = split.min(len);
                let mut h = Sha256::new();
                h.update(&msg[..split]);
                h.update(&msg[split..]);
                assert_eq!(h.finalize(), want, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn multi_block_call_matches_block_at_a_time() {
        let data: Vec<u8> = (0..17 * 64u32).map(|i| (i * 7 + 3) as u8).collect();
        let mut per_fn = Vec::new();
        for (name, block) in block_fns() {
            let mut whole = IV;
            block(&mut whole, &data);
            let mut stepped = IV;
            for one in data.chunks_exact(64) {
                block(&mut stepped, one);
            }
            assert_eq!(whole, stepped, "{name}");
            per_fn.push(whole);
        }
        assert!(per_fn.windows(2).all(|w| w[0] == w[1]), "{per_fn:x?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_chunking_matches_each_block_fn(
            data in proptest::collection::vec(any::<u8>(), 0..4097),
            chunks in proptest::collection::vec(1usize..300, 1..32),
        ) {
            let mut h = Sha256::new();
            let mut rest = &data[..];
            for size in chunks.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (head, tail) = rest.split_at((*size).min(rest.len()));
                h.update(head);
                rest = tail;
            }
            let got = h.finalize();
            for (name, block) in block_fns() {
                prop_assert!(got == digest_with(block, &data), "{} block function disagrees", name);
            }
        }
    }
}
