//! Cross-tier contracts of the convolution engine:
//!
//! * every SIMD dense backend is **bit-identical** to the scalar
//!   tap-order kernel, across widths straddling every block/lane
//!   boundary (property-tested and sweep-tested);
//! * the FFT tier honours its certified per-bin error bound against the
//!   exact kernel, on random and adversarial (spiky, denormal-adjacent)
//!   mass vectors;
//! * the tier policy routes exactly the convolutions it promises to.

use proptest::prelude::*;
use statsize_dist::{
    certified_fft_error_bound, convolve_with_backend, fft_convolutions, fft_convolve, Dist,
    DistScratch, KernelBackend, TierPolicy,
};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The FFT call counter is process-global and tests run on parallel
/// threads: every FFT in this file runs under this lock, so the test that
/// counts calls sees only its own.
static FFT_COUNTER: Mutex<()> = Mutex::new(());

fn lock_fft_counter() -> MutexGuard<'static, ()> {
    FFT_COUNTER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Deterministic irregular mass vector with interior zeros: an LCG over
/// the bin index, salted per vector.
fn mass(n: usize, salt: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(salt);
            if x.is_multiple_of(7) {
                0.0
            } else {
                (x % 1000) as f64 / 1000.0 + 0.001
            }
        })
        .collect()
}

/// Normalized variant of [`mass`] (a valid probability mass vector).
fn prob_mass(n: usize, salt: u64) -> Vec<f64> {
    let mut m = mass(n, salt);
    let total: f64 = m.iter().sum();
    for v in &mut m {
        *v /= total;
    }
    m
}

fn available_simd() -> Vec<KernelBackend> {
    KernelBackend::ALL
        .into_iter()
        .filter(|b| *b != KernelBackend::Scalar && b.is_available())
        .collect()
}

/// Every available SIMD backend reproduces the scalar kernel bit for
/// bit — output bins *and* the folded index-order total — across a
/// width sweep that straddles the 4-tap block boundary (short lengths
/// around multiples of 4) and every lane width (long lengths around
/// multiples of 2 and 4, so full-vector, tail-of-one, and tail-of-three
/// interior columns all occur).
#[test]
fn simd_backends_match_scalar_bitwise_across_boundary_widths() {
    let shorts = [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17];
    let longs = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1023, 1024,
        1025,
    ];
    let simd = available_simd();
    assert!(
        !simd.is_empty() || !cfg!(any(target_arch = "x86_64", target_arch = "aarch64")),
        "a SIMD backend must be available on x86-64/AArch64 test hosts"
    );
    for &ns in &shorts {
        for &nl in &longs {
            let a = mass(ns, 1 + ns as u64);
            let b = mass(nl, 977 + nl as u64);
            let mut want = Vec::new();
            let want_total = convolve_with_backend(KernelBackend::Scalar, &a, &b, &mut want);
            for &backend in &simd {
                let mut got = Vec::new();
                let total = convolve_with_backend(backend, &a, &b, &mut got);
                assert_eq!(got.len(), want.len(), "{backend:?} ({ns}, {nl})");
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{backend:?} ({ns}, {nl}) bin {i}: {g} vs {w}"
                    );
                }
                assert_eq!(
                    total.to_bits(),
                    want_total.to_bits(),
                    "{backend:?} ({ns}, {nl}) total"
                );
            }
        }
    }
}

/// The same contract at the `Dist` level: `convolve_dense` on any
/// available backend equals the default `convolve` bit for bit (offset,
/// support, mass bits), through warmed scratch pools.
#[test]
fn dist_convolve_dense_is_bit_identical_on_every_backend() {
    let mut scratch = DistScratch::new();
    for (na, nb) in [(5usize, 61usize), (61, 300), (17, 1024)] {
        let a = Dist::new(1.0, -4, prob_mass(na, 3)).unwrap();
        let b = Dist::new(1.0, 9, prob_mass(nb, 11)).unwrap();
        let want = a.convolve(&b);
        for backend in KernelBackend::ALL {
            if !backend.is_available() {
                continue;
            }
            let got = a.convolve_dense(&b, backend, &mut scratch);
            assert_eq!(want.offset(), got.offset(), "{backend:?}");
            assert_eq!(want.support_len(), got.support_len(), "{backend:?}");
            for (i, (w, g)) in want.mass().iter().zip(got.mass()).enumerate() {
                assert_eq!(w.to_bits(), g.to_bits(), "{backend:?} bin {i}");
            }
            scratch.recycle(got);
        }
    }
}

proptest! {
    /// Property form of the bit-identity contract: random short/long
    /// widths biased to straddle the block (4) and lane (2/4) borders,
    /// random salts.
    #[test]
    fn simd_bit_identity_property(
        block in 0usize..5,
        dshort in 0usize..4,
        lane in 0usize..300,
        dlong in 0usize..4,
        salt in 0u64..u64::MAX,
    ) {
        let ns = (4 * block + dshort).max(1);
        let nl = (4 * lane + dlong).max(1);
        let a = mass(ns, salt);
        let b = mass(nl, salt.wrapping_mul(31).wrapping_add(7));
        let mut want = Vec::new();
        let want_total = convolve_with_backend(KernelBackend::Scalar, &a, &b, &mut want);
        for backend in available_simd() {
            let mut got = Vec::new();
            let total = convolve_with_backend(backend, &a, &b, &mut got);
            prop_assert_eq!(total.to_bits(), want_total.to_bits(), "{:?} total", backend);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "{:?} bin {}", backend, i);
            }
        }
    }
}

/// Max per-bin deviation of the FFT tier from the exact scalar kernel.
fn fft_vs_exact(a: &[f64], b: &[f64]) -> (f64, f64) {
    let mut scratch = DistScratch::new();
    let mut exact = Vec::new();
    convolve_with_backend(KernelBackend::Scalar, a, b, &mut exact);
    let mut got = Vec::new();
    let _fft = lock_fft_counter();
    fft_convolve(a, b, &mut got, &mut scratch);
    assert_eq!(got.len(), exact.len());
    let worst = got
        .iter()
        .zip(&exact)
        .map(|(g, e)| (g - e).abs())
        .fold(0.0f64, f64::max);
    let sa: f64 = a.iter().sum();
    let sb: f64 = b.iter().sum();
    (worst, certified_fft_error_bound(exact.len(), sa, sb))
}

/// The certified bound holds on random mass vectors across the width
/// range the tier targets, including non-power-of-two paddings.
#[test]
fn fft_certified_bound_holds_on_random_masses() {
    for (na, nb, salt) in [
        (512usize, 512usize, 5u64),
        (700, 1300, 17),
        (2048, 2048, 29),
        (2047, 2050, 43),
        (4096, 4096, 57),
        (61, 8192, 71),
        (3000, 5000, 83),
    ] {
        let a = prob_mass(na, salt);
        let b = prob_mass(nb, salt + 1);
        let (worst, bound) = fft_vs_exact(&a, &b);
        assert!(
            worst <= bound,
            "({na}, {nb}): observed {worst:e} > certified {bound:e}"
        );
    }
}

/// Adversarial masses: a spike carrying almost all probability next to
/// dust bins, and denormal-adjacent magnitudes mixed with O(1) bins.
/// The absolute certificate must still dominate.
#[test]
fn fft_certified_bound_holds_on_adversarial_masses() {
    // Spiky: one bin at ~1, the rest sharing 1e-9.
    let spiky = |n: usize, at: usize| -> Vec<f64> {
        let mut m = vec![1e-9 / (n - 1) as f64; n];
        m[at] = 1.0 - 1e-9;
        m
    };
    // Denormal-adjacent: alternating O(1) and ~1e-300 bins, normalized.
    let denormal = |n: usize, salt: u64| -> Vec<f64> {
        let mut m: Vec<f64> = (0..n)
            .map(|i| {
                if (i as u64 + salt).is_multiple_of(3) {
                    1e-300
                } else {
                    1.0 / n as f64
                }
            })
            .collect();
        let total: f64 = m.iter().sum();
        for v in &mut m {
            *v /= total;
        }
        m
    };
    let cases: Vec<(Vec<f64>, Vec<f64>)> = vec![
        (spiky(2048, 0), spiky(2048, 2047)),
        (spiky(4096, 2000), prob_mass(4096, 7)),
        (denormal(2048, 0), denormal(3000, 1)),
        (denormal(4096, 2), spiky(4096, 1)),
    ];
    for (i, (a, b)) in cases.iter().enumerate() {
        let (worst, bound) = fft_vs_exact(a, b);
        assert!(
            worst <= bound,
            "adversarial case {i}: observed {worst:e} > certified {bound:e}"
        );
    }
}

/// The `Dist`-level FFT path agrees with the exact path to well within
/// the default tier tolerance after the shared normalization, and the
/// FFT-call counter observes exactly the routed convolutions.
#[test]
fn tiered_convolve_routes_and_certifies_at_the_dist_level() {
    let _counting = lock_fft_counter();
    let a = Dist::new(1.0, 0, prob_mass(3000, 5)).unwrap();
    let b = Dist::new(1.0, 50, prob_mass(2500, 9)).unwrap();
    let exact = a.convolve(&b);

    // A scratch on the exact policy never routes through FFT.
    let before = fft_convolutions();
    let mut scratch = DistScratch::new();
    let dense = a.convolve_into(&b, &mut scratch);
    assert_eq!(fft_convolutions(), before);
    assert_eq!(dense, exact);

    // Explicitly forcing the wide tier routes through FFT and stays
    // within the certificate (loosened by the ~1 renormalization).
    let before = fft_convolutions();
    let fft = a.convolve_fft_into(&b, &mut scratch);
    assert_eq!(fft_convolutions(), before + 1);
    assert_eq!(exact.offset(), fft.offset());
    assert_eq!(exact.support_len(), fft.support_len());
    let bound = 2.0 * certified_fft_error_bound(exact.support_len(), 1.0, 1.0);
    for (i, (e, g)) in exact.mass().iter().zip(fft.mass()).enumerate() {
        assert!((e - g).abs() <= bound, "bin {i}: |{e} − {g}| > {bound}");
    }

    // The adaptive policy elects FFT on its own for wide × wide widths
    // past the crossover (policy built without consulting the
    // environment is covered in unit tests; here exercise the plumbing
    // through a policy that is FFT-capable regardless of env).
    let policy = TierPolicy::force_fft();
    if !policy.is_exact() {
        let mut wide_scratch = DistScratch::with_policy(policy);
        let before = fft_convolutions();
        let via_policy = a.convolve_into(&b, &mut wide_scratch);
        assert_eq!(fft_convolutions(), before + 1);
        assert_eq!(via_policy, fft);
    }
}
