//! Montgomery-form modular arithmetic.
//!
//! A [`MontgomeryCtx`] precomputes, for one odd modulus `n` of `k` 64-bit
//! limbs, everything needed to multiply residues without per-step division:
//! `n' = -n⁻¹ mod 2⁶⁴` and `R² mod n` where `R = 2^(64k)`. Products are
//! reduced with CIOS (coarsely integrated operand scanning) Montgomery
//! multiplication — one fused multiply/reduce pass over the limbs — so the
//! quadratic `div_rem` the naive path performs after every multiplication
//! disappears entirely. Every product in this module goes through one
//! allocation-free CIOS body ([`cios`]); the 4-limb width of the 256-bit
//! simulation group reaches it at a length the compiler can see.
//!
//! The context deliberately widens [`Uint`]'s 32-bit limbs to 64-bit ones
//! at the conversion boundary: on 64-bit hosts one `u64×u64 → u128`
//! multiply replaces four `u32×u32 → u64` multiplies, quartering the inner
//! CIOS work for the same modulus.
//!
//! On top of the context sit two exponentiation strategies:
//!
//! - [`MontgomeryCtx::modpow`]: 4-bit fixed-window exponentiation for
//!   arbitrary bases (15 precomputed powers, then 4 squarings + at most
//!   one multiplication per window);
//! - [`FixedBaseTable`]: Brauer-style fixed-base windowing for bases that
//!   are exponentiated millions of times (the group generator `g`): all
//!   `base^(d·2^(4i))` are precomputed, so `base^e` costs only one
//!   Montgomery multiplication per non-zero 4-bit digit of `e` — no
//!   squarings at all.
//!
//! Everything here is exact integer arithmetic: results are bit-identical
//! to the schoolbook `mul` + `div_rem` path, which the proptest equivalence
//! suite (`crates/bignum/tests/montgomery_equiv.rs`) pins down.

use crate::uint::Uint;

/// Exponentiation window width in bits.
const WINDOW: usize = 4;

/// Entries in one digit table: `base^d` for `d ∈ [1, 2^WINDOW)`.
const DIGITS: usize = (1 << WINDOW) - 1;

/// The `w`-th `WINDOW`-bit digit of `exp` (digit 0 is least significant),
/// read straight from its 32-bit limbs: `WINDOW` divides 32, so a digit
/// never straddles two limbs.
fn window_digit(exp: &Uint, w: usize) -> usize {
    const PER_LIMB: usize = 32 / WINDOW;
    exp.limbs()
        .get(w / PER_LIMB)
        .map_or(0, |&l| ((l >> (WINDOW * (w % PER_LIMB))) as usize) & DIGITS)
}

/// CIOS Montgomery multiplication over limb slices: `out = a·b·R⁻¹ mod n`.
///
/// `n`, `a`, `b` and `out` all hold `k` little-endian limbs, with `a, b <
/// n`. One interleaved pass accumulates `a[i]·b` and the reduction term
/// `m·n`, shifting one limb per outer step. `out` doubles as the working
/// buffer and the two carry limbs live in registers, so nothing is
/// allocated. Callers that pass fixed-length subslices let the compiler
/// see `k` and unroll both inner loops.
#[inline(always)]
fn cios(n: &[u64], n0_inv: u64, a: &[u64], b: &[u64], out: &mut [u64]) {
    let k = n.len();
    let (a, b, out) = (&a[..k], &b[..k], &mut out[..k]);
    out.fill(0);
    // t = out + top·2^(64k); top_hi is the second carry limb.
    let mut top = 0u64;
    for &ai in a {
        // t += ai * b
        let mut carry: u128 = 0;
        for (tj, &bj) in out.iter_mut().zip(b) {
            let s = *tj as u128 + ai as u128 * bj as u128 + carry;
            *tj = s as u64;
            carry = s >> 64;
        }
        let s = top as u128 + carry;
        top = s as u64;
        let top_hi = (s >> 64) as u64;

        // m chosen so t + m*n ≡ 0 (mod 2^64); add and shift right one limb.
        let m = out[0].wrapping_mul(n0_inv);
        let s = out[0] as u128 + m as u128 * n[0] as u128;
        debug_assert_eq!(s as u64, 0);
        let mut carry = s >> 64;
        for j in 1..k {
            let s = out[j] as u128 + m as u128 * n[j] as u128 + carry;
            out[j - 1] = s as u64;
            carry = s >> 64;
        }
        let s = top as u128 + carry;
        out[k - 1] = s as u64;
        // Cannot overflow u64: t < 2n·2^(64k) throughout.
        top = top_hi + (s >> 64) as u64;
    }
    // t < 2n; one conditional subtraction normalizes. When top is set the
    // subtraction borrows out of the top limb exactly once.
    if top != 0 || !limbs_lt(out, n) {
        let mut borrow = false;
        for (o, &nj) in out.iter_mut().zip(n) {
            let (d1, b1) = o.overflowing_sub(nj);
            let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
            *o = d2;
            borrow = b1 || b2;
        }
        debug_assert_eq!(u64::from(borrow), top);
    }
}

/// Fill `out` (`DIGITS · k` limbs) with the digit table for one base:
/// entry `d - 1` holds `base^d` in Montgomery form. The one builder behind
/// both the windowed [`MontgomeryCtx::pow_mont`] table and each window row
/// of a [`FixedBaseTable`].
fn digit_powers(ctx: &MontgomeryCtx, base: &[u64], out: &mut [u64]) {
    let k = base.len();
    out[..k].copy_from_slice(base);
    for d in 1..DIGITS {
        let (done, rest) = out.split_at_mut(d * k);
        ctx.mul_into(&done[(d - 1) * k..], base, &mut rest[..k]);
    }
}

/// A residue in Montgomery form with respect to some [`MontgomeryCtx`].
///
/// The limb vector always has exactly `ctx.limbs()` entries (trailing zeros
/// included) and represents `a·R mod n`. Elements are only meaningful
/// together with the context that produced them.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MontElem {
    limbs: Vec<u64>,
}

/// Precomputed constants for Montgomery arithmetic modulo one odd `n > 1`.
#[derive(Clone, Debug)]
pub struct MontgomeryCtx {
    /// The modulus.
    n: Uint,
    /// Little-endian 64-bit limbs of `n` (length `k`, top limb non-zero).
    n_limbs: Vec<u64>,
    /// `-n⁻¹ mod 2⁶⁴` (exists because `n` is odd).
    n0_inv: u64,
    /// `R mod n` — the Montgomery form of 1.
    one: MontElem,
    /// `R² mod n` — multiplier for the to-Montgomery conversion.
    r2: MontElem,
}

/// Widen a [`Uint`]'s 32-bit limbs into `k` little-endian 64-bit limbs.
fn to_limbs64(v: &Uint, k: usize) -> Vec<u64> {
    let src = v.limbs();
    let mut out = vec![0u64; k];
    for (i, limb) in out.iter_mut().enumerate() {
        let lo = src.get(2 * i).copied().unwrap_or(0) as u64;
        let hi = src.get(2 * i + 1).copied().unwrap_or(0) as u64;
        *limb = lo | (hi << 32);
    }
    out
}

/// Narrow 64-bit limbs back into a (normalized) [`Uint`].
fn limbs64_to_uint(limbs: &[u64]) -> Uint {
    let mut out = Vec::with_capacity(limbs.len() * 2);
    for &l in limbs {
        out.push(l as u32);
        out.push((l >> 32) as u32);
    }
    Uint::from_limbs(out)
}

impl MontgomeryCtx {
    /// Build a context for `modulus`.
    ///
    /// Returns `None` when the modulus is even or `< 2`: Montgomery
    /// reduction requires `gcd(n, 2³²) = 1`, and `n = 1` has no useful
    /// residues (callers special-case it).
    pub fn new(modulus: &Uint) -> Option<MontgomeryCtx> {
        if !modulus.is_odd() || modulus <= &Uint::one() {
            return None;
        }
        let k = modulus.limbs().len().div_ceil(2);
        let n_limbs = to_limbs64(modulus, k);

        // n0_inv = -n[0]^{-1} mod 2^64 by Newton–Hensel lifting: for odd a,
        // x_{i+1} = x_i (2 - a x_i) doubles the number of correct bits.
        let a = n_limbs[0];
        let mut inv: u64 = a; // correct to 3 bits for odd a
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(inv)));
        }
        debug_assert_eq!(a.wrapping_mul(inv), 1);
        let n0_inv = inv.wrapping_neg();

        // R mod n and R^2 mod n via the (setup-only) schoolbook path.
        let r = Uint::one().shl(64 * k);
        let one_val = r.rem(modulus).expect("modulus > 1");
        let r2_val = one_val.mul_mod(&one_val, modulus);
        let pad = |v: &Uint| MontElem { limbs: to_limbs64(v, k) };
        Some(MontgomeryCtx {
            n: modulus.clone(),
            one: pad(&one_val),
            r2: pad(&r2_val),
            n_limbs,
            n0_inv,
        })
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Uint {
        &self.n
    }

    /// Number of 64-bit limbs in the modulus (the Montgomery radix is
    /// `R = 2^(64·limbs())`).
    pub fn limbs(&self) -> usize {
        self.n_limbs.len()
    }

    /// The Montgomery form of 1 (`R mod n`).
    pub fn one(&self) -> MontElem {
        self.one.clone()
    }

    /// Convert `a` (any size; reduced mod `n` first) into Montgomery form.
    pub fn to_montgomery(&self, a: &Uint) -> MontElem {
        let reduced = a.rem(&self.n).expect("modulus > 1");
        let limbs = to_limbs64(&reduced, self.limbs());
        self.mul(&MontElem { limbs }, &self.r2)
    }

    /// Convert a Montgomery residue back to a normal integer in `[0, n)`.
    pub fn from_montgomery(&self, a: &MontElem) -> Uint {
        let mut one = vec![0u64; self.limbs()];
        one[0] = 1;
        let mut out = vec![0u64; self.limbs()];
        self.mul_into(&a.limbs, &one, &mut out);
        limbs64_to_uint(&out)
    }

    /// `out = a·b·R⁻¹ mod n` over raw limbs: the one multiplication every
    /// operation in this module goes through.
    ///
    /// A 4-limb modulus (the 256-bit simulation group) reaches the same
    /// [`cios`] body through `[..4]` subslices, so the compiler specializes
    /// it for a width it can see; every other width runs it as is.
    #[inline]
    fn mul_into(&self, a: &[u64], b: &[u64], out: &mut [u64]) {
        if self.n_limbs.len() == 4 {
            cios(
                &self.n_limbs[..4],
                self.n0_inv,
                &a[..4],
                &b[..4],
                &mut out[..4],
            );
        } else {
            cios(&self.n_limbs, self.n0_inv, a, b, out);
        }
    }

    /// Montgomery multiplication: returns `a·b·R⁻¹ mod n`.
    ///
    /// Both inputs must belong to this context (limb count `k`); the result
    /// does too. The only allocation is the result's limb vector.
    pub fn mul(&self, a: &MontElem, b: &MontElem) -> MontElem {
        let mut out = vec![0u64; self.limbs()];
        self.mul_into(&a.limbs, &b.limbs, &mut out);
        MontElem { limbs: out }
    }

    /// Montgomery squaring (alias of [`mul`](Self::mul) with one operand).
    pub fn square(&self, a: &MontElem) -> MontElem {
        self.mul(a, a)
    }

    /// `base^exp mod n` with both input and output in normal form.
    pub fn modpow(&self, base: &Uint, exp: &Uint) -> Uint {
        let b = self.to_montgomery(base);
        self.from_montgomery(&self.pow_mont(&b, exp))
    }

    /// 4-bit fixed-window exponentiation over Montgomery residues.
    ///
    /// After the digit table is built, the whole ladder runs over two
    /// reused limb buffers.
    pub fn pow_mont(&self, base: &MontElem, exp: &Uint) -> MontElem {
        let bits = exp.bit_len();
        if bits == 0 {
            return self.one();
        }
        let k = self.limbs();
        let mut table = vec![0u64; DIGITS * k];
        digit_powers(self, &base.limbs, &mut table);
        let entry = |d: usize| &table[(d - 1) * k..d * k];
        // The top window holds the top set bit, so its digit is non-zero.
        let windows = bits.div_ceil(WINDOW);
        let mut acc = entry(window_digit(exp, windows - 1)).to_vec();
        let mut tmp = vec![0u64; k];
        for w in (0..windows - 1).rev() {
            for _ in 0..WINDOW {
                self.mul_into(&acc, &acc, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
            let digit = window_digit(exp, w);
            if digit != 0 {
                self.mul_into(&acc, entry(digit), &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            }
        }
        MontElem { limbs: acc }
    }
}

/// `a < b` over equal-length little-endian limb slices.
fn limbs_lt(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

/// Precomputed powers of one base for Brauer fixed-base windowing.
///
/// Entry `(i, d)` is `base^(d · 2^(WINDOW·i))` in Montgomery form, for
/// window index `i` up to `max_exp_bits` and digit `d ∈ [1, 2^WINDOW)`.
/// Evaluating `base^e` is then a product of one table entry per non-zero
/// 4-bit digit of `e` — about `bits/4` Montgomery multiplications and zero
/// squarings.
///
/// The entries live in one flat limb vector, window-major: entry `(i, d)`
/// starts at limb `(i·15 + d − 1)·k`. Memory cost is `⌈bits/4⌉ · 15 · k`
/// limbs — 30 KiB for the 256-bit group, ≈1.1 MiB for 1536 bits — paid once
/// per process via the `OnceLock` on the owning group.
#[derive(Clone, Debug)]
pub struct FixedBaseTable {
    limbs: Vec<u64>,
    max_bits: usize,
}

impl FixedBaseTable {
    /// Precompute the window tables for `base` (normal form) under `ctx`,
    /// covering exponents up to `max_exp_bits` bits.
    pub fn new(ctx: &MontgomeryCtx, base: &Uint, max_exp_bits: usize) -> FixedBaseTable {
        FixedBaseTable::from_mont(ctx, &ctx.to_montgomery(base), max_exp_bits)
    }

    /// Precompute the window tables for a base that is *already* a
    /// Montgomery residue of `ctx`.
    ///
    /// This is the general entry point: any group element — not just a
    /// generator — can get fixed-base treatment when it is exponentiated
    /// repeatedly (e.g. a CA public key `y` verified against for many
    /// certificates). `new` is the normal-form convenience wrapper.
    pub fn from_mont(ctx: &MontgomeryCtx, base: &MontElem, max_exp_bits: usize) -> FixedBaseTable {
        let k = ctx.limbs();
        let windows = max_exp_bits.div_ceil(WINDOW).max(1);
        let mut limbs = vec![0u64; windows * DIGITS * k];
        let mut block_base = base.limbs.clone();
        for (w, row) in limbs.chunks_exact_mut(DIGITS * k).enumerate() {
            digit_powers(ctx, &block_base, row);
            if w + 1 < windows {
                // base for the next block: this block's base^(2^WINDOW).
                let half = &row[((1 << (WINDOW - 1)) - 1) * k..][..k];
                ctx.mul_into(half, half, &mut block_base);
            }
        }
        FixedBaseTable {
            limbs,
            max_bits: windows * WINDOW,
        }
    }

    /// Highest exponent bit width the table covers.
    pub fn max_exp_bits(&self) -> usize {
        self.max_bits
    }

    /// `base^exp` in Montgomery form, over two reused limb buffers.
    ///
    /// Exponents wider than the table fall back to windowed square-and-
    /// multiply on the stored base (entry `(0, 1)`), so the result is
    /// always correct.
    pub fn pow_mont(&self, ctx: &MontgomeryCtx, exp: &Uint) -> MontElem {
        let k = ctx.limbs();
        let bits = exp.bit_len();
        if bits > self.max_bits {
            let base = MontElem {
                limbs: self.limbs[..k].to_vec(),
            };
            return ctx.pow_mont(&base, exp);
        }
        let mut acc = ctx.one.limbs.clone();
        let mut tmp = vec![0u64; k];
        let mut started = false;
        let rows = self.limbs.chunks_exact(DIGITS * k);
        for (w, row) in rows.take(bits.div_ceil(WINDOW)).enumerate() {
            let digit = window_digit(exp, w);
            if digit == 0 {
                continue;
            }
            let entry = &row[(digit - 1) * k..digit * k];
            if started {
                ctx.mul_into(&acc, entry, &mut tmp);
                std::mem::swap(&mut acc, &mut tmp);
            } else {
                acc.copy_from_slice(entry);
                started = true;
            }
        }
        MontElem { limbs: acc }
    }

    /// `base^exp mod n` in normal form.
    pub fn pow(&self, ctx: &MontgomeryCtx, exp: &Uint) -> Uint {
        ctx.from_montgomery(&self.pow_mont(ctx, exp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular::modpow_naive;

    fn u(hex: &str) -> Uint {
        Uint::from_hex(hex).unwrap()
    }

    #[test]
    fn rejects_even_and_trivial_moduli() {
        assert!(MontgomeryCtx::new(&Uint::zero()).is_none());
        assert!(MontgomeryCtx::new(&Uint::one()).is_none());
        assert!(MontgomeryCtx::new(&Uint::from_u64(10)).is_none());
        assert!(MontgomeryCtx::new(&u("fffffffffffffffffffffffe")).is_none());
        assert!(MontgomeryCtx::new(&Uint::from_u64(3)).is_some());
    }

    #[test]
    fn roundtrip_to_from_montgomery() {
        let n = u("edb9229e9df73cb4f4a416fb005f7dae9ccae82ad2ba6b58e7e1c47ebc596f0b");
        let ctx = MontgomeryCtx::new(&n).unwrap();
        for v in [
            Uint::zero(),
            Uint::one(),
            Uint::from_u64(0xdead_beef),
            n.checked_sub(&Uint::one()).unwrap(),
        ] {
            let m = ctx.to_montgomery(&v);
            assert_eq!(ctx.from_montgomery(&m), v);
        }
        // Values >= n reduce first.
        let big = n.mul(&Uint::from_u64(7)).add(&Uint::from_u64(42));
        assert_eq!(
            ctx.from_montgomery(&ctx.to_montgomery(&big)),
            Uint::from_u64(42)
        );
    }

    #[test]
    fn mul_matches_schoolbook() {
        let n = u("76dc914f4efb9e5a7a520b7d802fbed74e657415695d35ac73f0e23f5e2cb785");
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let a = u("1eadbeef1eadbeef1eadbeef1eadbeef1eadbeef");
        let b = u("123456789abcdef0fedcba9876543210");
        let am = ctx.to_montgomery(&a);
        let bm = ctx.to_montgomery(&b);
        assert_eq!(ctx.from_montgomery(&ctx.mul(&am, &bm)), a.mul_mod(&b, &n));
        assert_eq!(ctx.from_montgomery(&ctx.square(&am)), a.mul_mod(&a, &n));
    }

    #[test]
    fn modpow_matches_naive_single_limb() {
        let n = Uint::from_u64(0xffff_fff1); // odd single-limb modulus
        let ctx = MontgomeryCtx::new(&n).unwrap();
        for (b, e) in [(3u64, 0u64), (2, 1), (7, 65537), (0xffff_ffff, 12345)] {
            let b = Uint::from_u64(b);
            let e = Uint::from_u64(e);
            assert_eq!(
                ctx.modpow(&b, &e),
                modpow_naive(&b, &e, &n).unwrap(),
                "b={b:?} e={e:?}"
            );
        }
    }

    #[test]
    fn modpow_matches_naive_multi_limb() {
        let n = u("edb9229e9df73cb4f4a416fb005f7dae9ccae82ad2ba6b58e7e1c47ebc596f0b");
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let base = u("ab3d485627ba6272e0f9c0a9ae435e247c91df81a1743c12a89eeaf8ef52878a");
        let exp = u("1eadbeef1eadbeef1eadbeef1eadbeef1eadbeef1eadbeef");
        assert_eq!(ctx.modpow(&base, &exp), modpow_naive(&base, &exp, &n).unwrap());
    }

    #[test]
    fn fixed_base_matches_ctx_pow() {
        let n = u("edb9229e9df73cb4f4a416fb005f7dae9ccae82ad2ba6b58e7e1c47ebc596f0b");
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let g = Uint::from_u64(4);
        let table = FixedBaseTable::new(&ctx, &g, 256);
        for e in [
            Uint::zero(),
            Uint::one(),
            Uint::from_u64(2),
            Uint::from_u64(0xffff_ffff_ffff_ffff),
            u("76dc914f4efb9e5a7a520b7d802fbed74e657415695d35ac73f0e23f5e2cb784"),
        ] {
            assert_eq!(table.pow(&ctx, &e), ctx.modpow(&g, &e), "e={e:?}");
        }
    }

    #[test]
    fn digit_powers_are_successive_powers() {
        // The shared row builder: entry d-1 is base^d, for every digit.
        let n = u("edb9229e9df73cb4f4a416fb005f7dae9ccae82ad2ba6b58e7e1c47ebc596f0b");
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let k = ctx.limbs();
        let base = ctx.to_montgomery(&u("1eadbeef1eadbeef1eadbeef1eadbeef"));
        let mut powers = vec![0u64; DIGITS * k];
        digit_powers(&ctx, &base.limbs, &mut powers);
        let mut acc = base.clone();
        for p in powers.chunks_exact(k) {
            assert_eq!(p, &acc.limbs[..]);
            acc = ctx.mul(&acc, &base);
        }
        // The first Brauer row is exactly this digit table.
        let table = FixedBaseTable::from_mont(&ctx, &base, 256);
        assert_eq!(table.limbs[..DIGITS * k], powers[..]);
    }

    #[test]
    fn sim256_generator_table_is_one_flat_vector() {
        // The simulation group's g = 4 table: 64 windows of 15 digits of 4
        // limbs, 30 KiB in a single allocation (the figure DESIGN quotes).
        let p = u("edb9229e9df73cb4f4a416fb005f7dae9ccae82ad2ba6b58e7e1c47ebc596f0b");
        let q = u("76dc914f4efb9e5a7a520b7d802fbed74e657415695d35ac73f0e23f5e2cb785");
        let ctx = MontgomeryCtx::new(&p).unwrap();
        let table = FixedBaseTable::new(&ctx, &Uint::from_u64(4), q.bit_len());
        assert_eq!(table.limbs.len(), 64 * 15 * 4);
        assert_eq!(table.limbs.len() * 8, 30 * 1024);
    }

    #[test]
    fn fixed_base_falls_back_beyond_table_width() {
        let n = Uint::from_u64(1_000_003);
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let g = Uint::from_u64(5);
        let table = FixedBaseTable::new(&ctx, &g, 16);
        let wide = u("1234567890abcdef1234"); // > 16 bits
        assert_eq!(table.pow(&ctx, &wide), ctx.modpow(&g, &wide));
    }

    #[test]
    fn zero_and_one_bases() {
        let n = u("edb9229e9df73cb4f4a416fb005f7dae9ccae82ad2ba6b58e7e1c47ebc596f0b");
        let ctx = MontgomeryCtx::new(&n).unwrap();
        let e = Uint::from_u64(12345);
        assert_eq!(ctx.modpow(&Uint::zero(), &e), Uint::zero());
        assert_eq!(ctx.modpow(&Uint::one(), &e), Uint::one());
        assert_eq!(ctx.modpow(&Uint::zero(), &Uint::zero()), Uint::one());
    }
}
