//! Iterative real-input FFT convolution with a certified error bound —
//! the wide-arrival tier of the convolution engine.
//!
//! Dense convolution costs `O(short · long)` multiply-adds; for the
//! wide × wide products that show up in slack subtraction and deep
//! arrival-vs-arrival queries on 50k-node profiles (thousands of bins a
//! side) that quadratic term dominates whole sweeps. This module
//! provides the classic `O(n log n)` alternative: a dependency-free
//! iterative radix-2 complex FFT, with both real inputs packed into one
//! complex transform (`z = a + i·b`), spectra separated by conjugate
//! symmetry, multiplied pointwise, and inverted — two transforms total
//! per convolution.
//!
//! The price is rounding: unlike the dense kernels, FFT output is *not*
//! bit-identical to the tap-order reference. It is instead **certified**:
//! every output bin is within [`certified_fft_error_bound`] of the exact
//! value, and the tier policy ([`crate::TierPolicy`]) only routes a
//! convolution here when that bound clears its tolerance. Call sites
//! whose correctness argument needs the exact lattice — the whole-bin
//! shift bounds of Theorems 1–3 that the pruned selector's guarantees
//! rest on — never take this path (see `TierPolicy::exact`).
//!
//! Twiddle factors are computed once per transform size with a direct
//! `sin`/`cos` per entry (no recurrence, so no error accumulation across
//! the table) and cached process-wide. Every FFT convolution increments
//! a global counter ([`fft_convolutions`]) so tests can assert which
//! call sites did — and provably did not — route through this tier.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::scratch::DistScratch;

/// Empirical-with-margin constant in the per-bin error certificate. The
/// textbook bound for radix-2 FFT convolution roundoff is
/// `O(log₂ n · ε · ‖a‖₁‖b‖₁)` with a small leading constant (≈ 3–6 for
/// accurate twiddles); the adversarial-mass tests in `tests/kernels.rs`
/// observe per-bin errors more than an order of magnitude below this
/// certificate across random, spiky, and denormal-adjacent inputs.
const C_ERR: f64 = 24.0;

/// Process-wide count of convolutions routed through the FFT tier.
static FFT_CALLS: AtomicU64 = AtomicU64::new(0);

/// How many convolutions this process has routed through the FFT tier.
///
/// Monotone, process-wide, updated with relaxed ordering — meant for
/// before/after deltas in tests ("the pruned sweep performed zero FFT
/// convolutions") and coarse diagnostics, not precise accounting across
/// concurrently racing threads.
pub fn fft_convolutions() -> u64 {
    FFT_CALLS.load(Ordering::Relaxed)
}

/// Certified per-bin absolute error of [`fft_convolve`] for a
/// convolution with `result_bins` output bins and operand mass totals
/// `sum_a`, `sum_b`:
///
/// `C · log₂(n) · ε · Σa · Σb`,  `n` the padded transform size.
///
/// For probability masses (`Σ = 1`) at the default 4096-bin crossover
/// this is ≈ 7·10⁻¹⁴ — five orders of magnitude inside the default
/// 10⁻⁹ tier tolerance, and far below the `1e-6` safety slack the
/// pruned selector applies to bound comparisons.
pub fn certified_fft_error_bound(result_bins: usize, sum_a: f64, sum_b: f64) -> f64 {
    let n = padded_size(result_bins);
    C_ERR * (n as f64).log2() * f64::EPSILON * sum_a.abs() * sum_b.abs()
}

/// The power-of-two transform size for a `result_bins`-bin convolution.
fn padded_size(result_bins: usize) -> usize {
    result_bins.next_power_of_two().max(2)
}

/// A shared per-transform-size twiddle table.
type TwiddleTable = Arc<Vec<(f64, f64)>>;

/// The cached twiddle table for size `n`: `e^{−2πik/n}` for `k < n/2`,
/// each entry from a direct `sin`/`cos` evaluation.
fn twiddles(n: usize) -> TwiddleTable {
    static CACHE: OnceLock<Mutex<HashMap<usize, TwiddleTable>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("twiddle cache poisoned");
    map.entry(n)
        .or_insert_with(|| {
            let mut tw = Vec::with_capacity(n / 2);
            for k in 0..n / 2 {
                let theta = -2.0 * std::f64::consts::PI * k as f64 / n as f64;
                tw.push((theta.cos(), theta.sin()));
            }
            Arc::new(tw)
        })
        .clone()
}

/// In-place iterative radix-2 decimation-in-time FFT of `(re, im)`,
/// lengths a power of two, using the precomputed twiddle table for that
/// size.
fn fft_in_place(re: &mut [f64], im: &mut [f64], tw: &[(f64, f64)]) {
    let n = re.len();
    debug_assert!(n.is_power_of_two() && im.len() == n && tw.len() == n / 2);
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    // Butterfly stages; the k-th butterfly of a length-`len` block uses
    // w_len^k = tw[k · n/len].
    let mut len = 2usize;
    while len <= n {
        let half = len / 2;
        let step = n / len;
        for base in (0..n).step_by(len) {
            for k in 0..half {
                let (wr, wi) = tw[k * step];
                let i0 = base + k;
                let i1 = i0 + half;
                let tr = re[i1] * wr - im[i1] * wi;
                let ti = re[i1] * wi + im[i1] * wr;
                re[i1] = re[i0] - tr;
                im[i1] = im[i0] - ti;
                re[i0] += tr;
                im[i0] += ti;
            }
        }
        len <<= 1;
    }
}

/// Raw FFT convolution of two mass vectors into `out` (cleared first):
/// the wide tier's counterpart of the dense `convolve_raw`. Returns the
/// left-fold total `Σ out[k]` in index order, matching the dense
/// kernel's contract with the normalization pass. Scratch buffers for
/// the transform come from (and return to) `scratch`'s pool.
///
/// Every output bin is within
/// `certified_fft_error_bound(out.len(), Σa, Σb)` of the exact discrete
/// convolution; negative rounding dust is clamped to zero so the result
/// stays a valid mass vector.
///
/// # Panics
///
/// Panics if either mass vector is empty.
pub fn fft_convolve(a: &[f64], b: &[f64], out: &mut Vec<f64>, scratch: &mut DistScratch) -> f64 {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "mass vectors must be non-empty"
    );
    FFT_CALLS.fetch_add(1, Ordering::Relaxed);
    let result = a.len() + b.len() - 1;
    let n = padded_size(result);
    let tw = twiddles(n);
    // Pack both real inputs into one complex signal: z = a + i·b.
    let mut re = scratch.take();
    let mut im = scratch.take();
    re.resize(n, 0.0);
    im.resize(n, 0.0);
    re[..a.len()].copy_from_slice(a);
    im[..b.len()].copy_from_slice(b);
    fft_in_place(&mut re, &mut im, &tw);
    // Z[k] = A[k] + i·B[k] with A, B the operand spectra. Conjugate
    // symmetry of real-input spectra separates them:
    //   A[k] = (Z[k] + conj(Z[n−k])) / 2,
    //   B[k] = (Z[k] − conj(Z[n−k])) / 2i,
    // and C[n−k] = conj(C[k]) lets each (k, n−k) pair be overwritten
    // with the product spectrum C = A·B in place.
    let half = n / 2;
    re[0] *= im[0]; // A[0], B[0] are real: C[0] = A[0]·B[0].
    im[0] = 0.0;
    re[half] *= im[half]; // Likewise at the Nyquist bin.
    im[half] = 0.0;
    for k in 1..half {
        let m = n - k;
        let (zr, zi) = (re[k], im[k]);
        let (vr, vi) = (re[m], im[m]);
        let (ar, ai) = ((zr + vr) / 2.0, (zi - vi) / 2.0);
        let (br, bi) = ((zi + vi) / 2.0, (vr - zr) / 2.0);
        let cr = ar * br - ai * bi;
        let ci = ar * bi + ai * br;
        re[k] = cr;
        im[k] = ci;
        re[m] = cr;
        im[m] = -ci;
    }
    // Inverse transform via conjugation: c = conj(FFT(conj(C))) / n; the
    // result is real, so only the real part (already conjugate-free) is
    // read back.
    for v in im.iter_mut() {
        *v = -*v;
    }
    fft_in_place(&mut re, &mut im, &tw);
    out.clear();
    out.reserve(result);
    let scale = 1.0 / n as f64;
    let mut total = 0.0;
    for &v in &re[..result] {
        let m = (v * scale).max(0.0);
        total += m;
        out.push(m);
    }
    scratch.put(re);
    scratch.put(im);
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// [`FFT_CALLS`] is process-global and tests run on parallel threads:
    /// every FFT in these tests runs under this lock, so the test that
    /// counts calls sees only its own.
    static FFT_COUNTER: Mutex<()> = Mutex::new(());

    fn lock_fft_counter() -> MutexGuard<'static, ()> {
        FFT_COUNTER.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn fft_convolve_matches_exact_within_certificate() {
        let _counting = lock_fft_counter();
        let a: Vec<f64> = (0..300)
            .map(|i| 1.0 / 300.0 + (i % 7) as f64 * 1e-4)
            .collect();
        let b: Vec<f64> = (0..500)
            .map(|i| 1.0 / 500.0 + (i % 5) as f64 * 1e-4)
            .collect();
        let mut scratch = DistScratch::new();
        let mut exact = Vec::new();
        crate::kernel::convolve_with_backend(
            crate::kernel::KernelBackend::Scalar,
            &a,
            &b,
            &mut exact,
        );
        let mut got = Vec::new();
        let before = fft_convolutions();
        fft_convolve(&a, &b, &mut got, &mut scratch);
        assert_eq!(fft_convolutions(), before + 1);
        assert_eq!(got.len(), exact.len());
        let sa: f64 = a.iter().sum();
        let sb: f64 = b.iter().sum();
        let bound = certified_fft_error_bound(got.len(), sa, sb);
        for (i, (g, e)) in got.iter().zip(&exact).enumerate() {
            assert!((g - e).abs() <= bound, "bin {i}: |{g} − {e}| > {bound}");
        }
    }

    #[test]
    fn point_masses_convolve_exactly_enough() {
        let _fft = lock_fft_counter();
        let mut scratch = DistScratch::new();
        let mut out = Vec::new();
        let total = fft_convolve(&[1.0], &[0.5, 0.5], &mut out, &mut scratch);
        assert_eq!(out.len(), 2);
        let bound = certified_fft_error_bound(2, 1.0, 1.0);
        assert!((out[0] - 0.5).abs() <= bound && (out[1] - 0.5).abs() <= bound);
        assert!((total - 1.0).abs() <= 2.0 * bound);
    }

    #[test]
    fn certificate_grows_with_size_and_mass() {
        let small = certified_fft_error_bound(64, 1.0, 1.0);
        let large = certified_fft_error_bound(16384, 1.0, 1.0);
        assert!(small < large);
        assert!(certified_fft_error_bound(64, 2.0, 3.0) > small);
        // Probability masses at the default crossover sit far inside the
        // default tier tolerance.
        assert!(certified_fft_error_bound(4096, 1.0, 1.0) < 1e-12);
    }
}
