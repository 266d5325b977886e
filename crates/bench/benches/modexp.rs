//! Modular-exponentiation stack comparison: schoolbook square-and-multiply
//! (`modpow_naive`) vs the Montgomery/fixed-window path (`MontgomeryCtx`)
//! vs the fixed-base generator tables (`FixedBaseTable`, the `g^k` path
//! used by keygen and signing).
//!
//! The operands mirror the crypto crate's real workload: exponentiation
//! modulo the group prime with exponents the width of the subgroup order
//! (256-bit for `sim256`, 1536-bit group with ~1530-bit order for
//! `rfc3526`). All three paths must produce identical residues — asserted
//! here before timing so a broken optimization can't "win".
//!
//! `montgomery/mul_sim256` times one Montgomery multiplication modulo the
//! 256-bit group prime: the 4-limb CIOS step every `g^k` and `y^(q−e)`
//! above is built from.

use ccc_bignum::{modpow_naive, FixedBaseTable, MontgomeryCtx, Uint};
use ccc_crypto::{Drbg, Group};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

struct Case {
    label: &'static str,
    group: &'static Group,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            label: "sim256",
            group: Group::simulation_256(),
        },
        Case {
            label: "rfc3526_1536",
            group: Group::rfc3526_1536(),
        },
    ]
}

/// Deterministic exponents below the subgroup order.
fn exponents(group: &Group, n: usize) -> Vec<Uint> {
    let mut drbg = Drbg::from_u64(0xbe9c_4a11);
    (0..n)
        .map(|_| {
            Uint::from_bytes_be(&drbg.bytes(group.scalar_len))
                .rem(&group.q)
                .expect("q > 0")
        })
        .collect()
}

fn bench_modexp(c: &mut Criterion) {
    for case in cases() {
        let group = case.group;
        let ctx = MontgomeryCtx::new(&group.p).expect("group prime is odd");
        let table = FixedBaseTable::new(&ctx, &group.g, group.q.bit_len());
        let exps = exponents(group, 8);

        // Cross-check all three paths before timing anything.
        for e in &exps {
            let naive = modpow_naive(&group.g, e, &group.p).expect("p is non-zero");
            assert_eq!(ctx.modpow(&group.g, e), naive);
            assert_eq!(table.pow(&ctx, e), naive);
        }

        let mut grp = c.benchmark_group(format!("modexp/{}", case.label));
        grp.sample_size(10);
        grp.bench_with_input(BenchmarkId::from_parameter("naive"), &exps, |b, exps| {
            b.iter(|| {
                for e in exps {
                    std::hint::black_box(modpow_naive(&group.g, e, &group.p).expect("p is non-zero"));
                }
            })
        });
        grp.bench_with_input(
            BenchmarkId::from_parameter("montgomery_window4"),
            &exps,
            |b, exps| {
                b.iter(|| {
                    for e in exps {
                        std::hint::black_box(ctx.modpow(&group.g, e));
                    }
                })
            },
        );
        grp.bench_with_input(
            BenchmarkId::from_parameter("fixed_base_table"),
            &exps,
            |b, exps| {
                b.iter(|| {
                    for e in exps {
                        std::hint::black_box(table.pow(&ctx, e));
                    }
                })
            },
        );
        grp.finish();
    }
}

fn bench_mul(c: &mut Criterion) {
    let group = Group::simulation_256();
    let ctx = MontgomeryCtx::new(&group.p).expect("group prime is odd");
    let mut values = exponents(group, 2).into_iter();
    let (a, b) = (
        values.next().expect("two values"),
        values.next().expect("two values"),
    );
    let (am, bm) = (ctx.to_montgomery(&a), ctx.to_montgomery(&b));
    assert_eq!(
        ctx.from_montgomery(&ctx.mul(&am, &bm)),
        a.mul_mod(&b, &group.p)
    );

    let mut grp = c.benchmark_group("montgomery");
    grp.bench_function("mul_sim256", |bench| {
        bench.iter(|| ctx.mul(std::hint::black_box(&am), std::hint::black_box(&bm)))
    });
    grp.finish();
}

criterion_group!(benches, bench_modexp, bench_mul);
criterion_main!(benches);
