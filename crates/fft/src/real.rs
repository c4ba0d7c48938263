//! Real-input FFTs.
//!
//! Weight vectors and activations in the paper's layers are real, so the
//! forward transform only needs the `n/2 + 1` non-redundant spectrum bins.
//! For even lengths this module packs the real signal into an `n/2`-point
//! complex transform (the classic two-for-one trick), halving the work of
//! the kernel that dominates inference time. Odd lengths fall back to the
//! complex transform transparently.

use crate::complex::{Complex, FftFloat};
use crate::error::FftError;
use crate::lanes::{forward_group, inverse_group, BlockScratch, LaneTables, LANES};
use crate::plan::{Fft, FftPlanner};
use std::ops::{Add, Mul, Neg, Sub};
use std::sync::Arc;

/// A planned real-input FFT of fixed length `n`.
///
/// [`RealFft::forward`] maps `n` reals to the `n/2 + 1` (rounded down
/// division, plus one) non-redundant complex bins; [`RealFft::inverse`]
/// maps them back. The remaining bins of the full spectrum are the
/// conjugate mirror `X[n−k] = conj(X[k])` and are never materialized.
///
/// # Examples
///
/// ```
/// use ffdl_fft::RealFft;
///
/// let plan = RealFft::<f64>::new(8);
/// let x = [1.0, 2.0, 0.0, -1.0, 3.0, 0.5, -2.0, 1.5];
/// let spectrum = plan.forward(&x)?;
/// assert_eq!(spectrum.len(), 5); // 8/2 + 1
/// let back = plan.inverse(&spectrum)?;
/// for (a, b) in back.iter().zip(&x) {
///     assert!((a - b).abs() < 1e-12);
/// }
/// # Ok::<(), ffdl_fft::FftError>(())
/// ```
pub struct RealFft<T> {
    len: usize,
    /// Even lengths: half-size complex plans plus unpack twiddles.
    packed: Option<PackedPlans<T>>,
    /// Odd lengths: full-size complex plans.
    fallback: Option<FallbackPlans<T>>,
}

// Cloning a plan shares the Arc'd complex plans and copies the O(n)
// twiddle table — cheap enough for per-worker layer clones.
impl<T: Clone> Clone for RealFft<T> {
    fn clone(&self) -> Self {
        Self {
            len: self.len,
            packed: self.packed.clone(),
            fallback: self.fallback.clone(),
        }
    }
}

struct PackedPlans<T> {
    half_forward: Arc<dyn Fft<T>>,
    half_inverse: Arc<dyn Fft<T>>,
    /// `e^{-2πik/n}` for `k <= n/2`.
    twiddles: Vec<Complex<T>>,
    /// Radix-2 tables for the lane-batched path; `None` when `n/2` is
    /// not a power of two (the half transform is Bluestein).
    lanes: Option<Arc<LaneTables<T>>>,
}

impl<T: Clone> Clone for PackedPlans<T> {
    fn clone(&self) -> Self {
        Self {
            half_forward: Arc::clone(&self.half_forward),
            half_inverse: Arc::clone(&self.half_inverse),
            twiddles: self.twiddles.clone(),
            lanes: self.lanes.clone(),
        }
    }
}

/// Component arithmetic of the pack/unpack expressions: `f32`/`f64`
/// themselves, and the lane vectors of the batched kernel (built from
/// a scalar by broadcasting, hence `From<T>`).
pub(crate) trait Component<T>:
    Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> + Neg<Output = Self> + From<T>
{
}

impl<T, V> Component<T> for V where
    V: Copy + Add<Output = V> + Sub<Output = V> + Mul<Output = V> + Neg<Output = V> + From<T>
{
}

/// Bin `k` of a real signal's half spectrum from its packed half-length
/// spectrum `z`: `zk = z[k]`, `zm = conj(z[(n/2 − k) mod n/2])`, `w` the
/// unpack twiddle `e^{-2πik/n}`. The scalar and lane paths both run
/// this one expression.
#[inline(always)]
pub(crate) fn unpack_bin<T: FftFloat, V: Component<T>>(
    zk: Complex<V>,
    zm: Complex<V>,
    w: Complex<V>,
) -> Complex<V> {
    let half_scale = V::from(T::from_f64(0.5));
    let minus_i = Complex::new(V::from(T::ZERO), V::from(-T::ONE));
    // E[k] (even samples) and O[k] (odd samples):
    let e = (zk + zm).scale(half_scale);
    let o = (zk - zm).scale(half_scale) * minus_i;
    e + w * o
}

/// Element `k` of the packed half-length spectrum rebuilt from a half
/// spectrum: `xk = X[k]`, `xm = conj(X[n/2 − k])`, `w = e^{-2πik/n}`.
/// The scalar and lane paths both run this one expression.
#[inline(always)]
pub(crate) fn pack_bin<T: FftFloat, V: Component<T>>(
    xk: Complex<V>,
    xm: Complex<V>,
    w: Complex<V>,
) -> Complex<V> {
    let half_scale = V::from(T::from_f64(0.5));
    let plus_i = Complex::new(V::from(T::ZERO), V::from(T::ONE));
    let e = (xk + xm).scale(half_scale);
    // O[k] = (X[k] − conj(X[n/2−k])) / (2·w^k); 1/w^k = conj(w^k).
    let o = (xk - xm).scale(half_scale) * w.conj();
    e + o * plus_i
}

struct FallbackPlans<T> {
    forward: Arc<dyn Fft<T>>,
    inverse: Arc<dyn Fft<T>>,
}

impl<T> Clone for FallbackPlans<T> {
    fn clone(&self) -> Self {
        Self {
            forward: Arc::clone(&self.forward),
            inverse: Arc::clone(&self.inverse),
        }
    }
}

impl<T: FftFloat> RealFft<T> {
    /// Builds a real-FFT plan of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "cannot build a zero-length real FFT plan");
        let mut planner = FftPlanner::new();
        if len.is_multiple_of(2) && len >= 2 {
            let half = len / 2;
            let two_pi = T::from_f64(2.0) * T::PI;
            let twiddles = (0..=half)
                .map(|k| Complex::cis(-two_pi * T::from_usize(k) / T::from_usize(len)))
                .collect();
            Self {
                len,
                packed: Some(PackedPlans {
                    half_forward: planner.plan_forward(half),
                    half_inverse: planner.plan_inverse(half),
                    twiddles,
                    lanes: half
                        .is_power_of_two()
                        .then(|| Arc::new(LaneTables::new(half))),
                }),
                fallback: None,
            }
        } else {
            Self {
                len,
                packed: None,
                fallback: Some(FallbackPlans {
                    forward: planner.plan_forward(len),
                    inverse: planner.plan_inverse(len),
                }),
            }
        }
    }

    /// Signal length this plan was built for.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always `false`: zero-length plans cannot be constructed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of non-redundant spectrum bins: `len/2 + 1`.
    pub fn spectrum_len(&self) -> usize {
        self.len / 2 + 1
    }

    /// Forward transform of a real signal into its half spectrum.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] when `input.len() != self.len()`.
    pub fn forward(&self, input: &[T]) -> Result<Vec<Complex<T>>, FftError> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        self.forward_into(input, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Allocation-reusing variant of [`RealFft::forward`]: writes the
    /// half spectrum into `out` and uses `scratch` for the packed
    /// intermediate. Both vectors are cleared and refilled; once they
    /// have grown to capacity, repeated calls perform no heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] when `input.len() != self.len()`.
    pub fn forward_into(
        &self,
        input: &[T],
        scratch: &mut Vec<Complex<T>>,
        out: &mut Vec<Complex<T>>,
    ) -> Result<(), FftError> {
        if input.len() != self.len {
            return Err(FftError::LengthMismatch {
                expected: self.len,
                actual: input.len(),
            });
        }
        out.clear();
        out.resize(self.spectrum_len(), Complex::zero());
        self.forward_block(input, scratch, out)
    }

    /// The scalar forward transform of one block into `out`
    /// (`spectrum_len()` bins); lengths are checked by the callers.
    fn forward_block(
        &self,
        input: &[T],
        scratch: &mut Vec<Complex<T>>,
        out: &mut [Complex<T>],
    ) -> Result<(), FftError> {
        if let Some(p) = &self.packed {
            let half = self.len / 2;
            // Pack pairs of reals into one complex signal.
            scratch.clear();
            scratch.extend((0..half).map(|j| Complex::new(input[2 * j], input[2 * j + 1])));
            p.half_forward.process(scratch)?;

            let z: &[Complex<T>] = scratch;
            let mirror = |k: usize| if k == 0 { z[0] } else { z[half - k] };
            for (k, o) in out.iter_mut().enumerate() {
                let zk = if k == half { z[0] } else { z[k] };
                *o = unpack_bin::<T, T>(zk, mirror(k % half).conj(), p.twiddles[k]);
            }
        } else {
            let f = self.fallback.as_ref().expect("one of the plans is set");
            scratch.clear();
            scratch.extend(input.iter().map(|&x| Complex::from_real(x)));
            f.forward.process(scratch)?;
            out.copy_from_slice(&scratch[..self.spectrum_len()]);
        }
        Ok(())
    }

    /// Inverse transform of a half spectrum back to a real signal.
    ///
    /// Imaginary residue produced by rounding is discarded. Bins beyond the
    /// conjugate-symmetry constraint (`Im X[0]`, and `Im X[n/2]` for even
    /// `n`) are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] when
    /// `spectrum.len() != self.spectrum_len()`.
    pub fn inverse(&self, spectrum: &[Complex<T>]) -> Result<Vec<T>, FftError> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        self.inverse_into(spectrum, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Allocation-reusing variant of [`RealFft::inverse`]: writes the
    /// reconstructed real signal into `out` and uses `scratch` for the
    /// complex intermediate. Both vectors are cleared and refilled; once
    /// they have grown to capacity, repeated calls perform no heap
    /// allocation.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] when
    /// `spectrum.len() != self.spectrum_len()`.
    pub fn inverse_into(
        &self,
        spectrum: &[Complex<T>],
        scratch: &mut Vec<Complex<T>>,
        out: &mut Vec<T>,
    ) -> Result<(), FftError> {
        if spectrum.len() != self.spectrum_len() {
            return Err(FftError::LengthMismatch {
                expected: self.spectrum_len(),
                actual: spectrum.len(),
            });
        }
        out.clear();
        out.resize(self.len, T::ZERO);
        self.inverse_block(spectrum, scratch, out)
    }

    /// The scalar inverse transform of one half spectrum into `out`
    /// (`len()` reals); lengths are checked by the callers.
    fn inverse_block(
        &self,
        spectrum: &[Complex<T>],
        scratch: &mut Vec<Complex<T>>,
        out: &mut [T],
    ) -> Result<(), FftError> {
        if let Some(p) = &self.packed {
            let half = self.len / 2;
            scratch.clear();
            scratch.extend(
                (0..half).map(|k| {
                    pack_bin::<T, T>(spectrum[k], spectrum[half - k].conj(), p.twiddles[k])
                }),
            );
            p.half_inverse.process(scratch)?;
            for (pair, v) in out.chunks_exact_mut(2).zip(scratch.iter()) {
                pair[0] = v.re;
                pair[1] = v.im;
            }
        } else {
            let f = self.fallback.as_ref().expect("one of the plans is set");
            // Rebuild the full spectrum by conjugate symmetry.
            scratch.clear();
            scratch.resize(self.len, Complex::zero());
            scratch[..spectrum.len()].copy_from_slice(spectrum);
            for k in spectrum.len()..self.len {
                scratch[k] = spectrum[self.len - k].conj();
            }
            f.inverse.process(scratch)?;
            for (o, v) in out.iter_mut().zip(scratch.iter()) {
                *o = v.re;
            }
        }
        Ok(())
    }

    /// Forward transform of a contiguous run of blocks: `input` holds
    /// `count` signals of length `len()` back to back, `out` receives
    /// their half spectra back to back (`count · spectrum_len()` bins).
    ///
    /// Groups of [`LANES`] blocks run through the lane-batched kernel
    /// (power-of-two lengths); the remaining blocks, and every block of
    /// an odd or Bluestein length, take the scalar path. Each block's
    /// result is bit-identical to [`RealFft::forward_into`] on it alone.
    /// Calls with fewer than [`LANES`] blocks cost no more than that many
    /// scalar transforms, and warm `scratch` performs no heap allocation
    /// (power-of-two lengths; Bluestein still allocates internally).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] when `input.len()` is not a
    /// multiple of `len()` or `out.len()` does not hold one spectrum per
    /// input block.
    pub fn forward_blocks(
        &self,
        input: &[T],
        scratch: &mut BlockScratch<T>,
        out: &mut [Complex<T>],
    ) -> Result<(), FftError> {
        let (len, bins) = (self.len, self.spectrum_len());
        let count = self.block_count(input.len())?;
        if out.len() != count * bins {
            return Err(FftError::LengthMismatch {
                expected: count * bins,
                actual: out.len(),
            });
        }
        let mut done = 0;
        if let Some((p, tables)) = self.lane_tables() {
            for (x, y) in input
                .chunks_exact(LANES * len)
                .zip(out.chunks_exact_mut(LANES * bins))
            {
                forward_group(tables, &p.twiddles, x, scratch, y);
            }
            done = count - count % LANES;
        }
        for (x, y) in input[done * len..]
            .chunks_exact(len)
            .zip(out[done * bins..].chunks_exact_mut(bins))
        {
            self.forward_block(x, &mut scratch.single, y)?;
        }
        Ok(())
    }

    /// Inverse of [`RealFft::forward_blocks`]: `spectra` holds `count`
    /// half spectra back to back, `out` receives `count` real blocks.
    /// Each block's result is bit-identical to [`RealFft::inverse_into`].
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] when `spectra.len()` is not a
    /// multiple of `spectrum_len()` or `out.len()` does not hold one
    /// block per spectrum.
    pub fn inverse_blocks(
        &self,
        spectra: &[Complex<T>],
        scratch: &mut BlockScratch<T>,
        out: &mut [T],
    ) -> Result<(), FftError> {
        let (len, bins) = (self.len, self.spectrum_len());
        if !spectra.len().is_multiple_of(bins) {
            return Err(FftError::LengthMismatch {
                expected: spectra.len().div_ceil(bins) * bins,
                actual: spectra.len(),
            });
        }
        let count = spectra.len() / bins;
        if out.len() != count * len {
            return Err(FftError::LengthMismatch {
                expected: count * len,
                actual: out.len(),
            });
        }
        let mut done = 0;
        if let Some((p, tables)) = self.lane_tables() {
            for (x, y) in spectra
                .chunks_exact(LANES * bins)
                .zip(out.chunks_exact_mut(LANES * len))
            {
                inverse_group(tables, &p.twiddles, x, scratch, y);
            }
            done = count - count % LANES;
        }
        for (x, y) in spectra[done * bins..]
            .chunks_exact(bins)
            .zip(out[done * len..].chunks_exact_mut(len))
        {
            self.inverse_block(x, &mut scratch.single, y)?;
        }
        Ok(())
    }

    /// Number of whole blocks in `n` reals.
    fn block_count(&self, n: usize) -> Result<usize, FftError> {
        if !n.is_multiple_of(self.len) {
            return Err(FftError::LengthMismatch {
                expected: n.div_ceil(self.len) * self.len,
                actual: n,
            });
        }
        Ok(n / self.len)
    }

    /// The packed plans and lane tables, when this length has a lane path.
    fn lane_tables(&self) -> Option<(&PackedPlans<T>, &LaneTables<T>)> {
        let p = self.packed.as_ref()?;
        Some((p, p.lanes.as_deref()?))
    }

    /// `true` when [`RealFft::forward_blocks`] runs full groups of
    /// [`LANES`] blocks through the lane kernel (power-of-two lengths
    /// of at least 2).
    pub fn has_lane_path(&self) -> bool {
        self.lane_tables().is_some()
    }
}

/// One-shot forward real FFT (half spectrum). See [`RealFft`].
pub fn rfft<T: FftFloat>(input: &[T]) -> Vec<Complex<T>> {
    if input.is_empty() {
        return Vec::new();
    }
    RealFft::new(input.len())
        .forward(input)
        .expect("length matches plan")
}

/// One-shot inverse real FFT: reconstructs a length-`n` real signal from
/// its half spectrum.
///
/// # Panics
///
/// Panics if `spectrum.len() != n/2 + 1` or `n == 0`.
pub fn irfft<T: FftFloat>(spectrum: &[Complex<T>], n: usize) -> Vec<T> {
    RealFft::new(n)
        .inverse(spectrum)
        .expect("spectrum length matches plan")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft_real;

    fn signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| (k as f64 * 0.613).sin() + 0.3 * (k as f64 * 1.71).cos())
            .collect()
    }

    #[test]
    fn forward_matches_full_dft_even() {
        for n in [2usize, 4, 6, 8, 16, 64, 100] {
            let x = signal(n);
            let half = RealFft::new(n).forward(&x).unwrap();
            let full = dft_real(&x);
            assert_eq!(half.len(), n / 2 + 1);
            for (k, v) in half.iter().enumerate() {
                assert!(
                    (*v - full[k]).norm() < 1e-9,
                    "n={n} k={k}: {v:?} vs {:?}",
                    full[k]
                );
            }
        }
    }

    #[test]
    fn forward_matches_full_dft_odd() {
        for n in [1usize, 3, 5, 7, 9, 121] {
            let x = signal(n);
            let half = RealFft::new(n).forward(&x).unwrap();
            let full = dft_real(&x);
            assert_eq!(half.len(), n / 2 + 1);
            for (k, v) in half.iter().enumerate() {
                assert!((*v - full[k]).norm() < 1e-8, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn roundtrip_even_and_odd() {
        for n in [2usize, 5, 8, 11, 16, 121, 128] {
            let x = signal(n);
            let plan = RealFft::new(n);
            let back = plan.inverse(&plan.forward(&x).unwrap()).unwrap();
            for (a, b) in back.iter().zip(&x) {
                assert!((a - b).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn into_variants_match_and_reuse_buffers() {
        for n in [8usize, 7, 16] {
            let x = signal(n);
            let plan = RealFft::new(n);
            let mut scratch = Vec::new();
            let mut spec = Vec::new();
            plan.forward_into(&x, &mut scratch, &mut spec).unwrap();
            let reference = plan.forward(&x).unwrap();
            assert_eq!(spec.len(), reference.len());
            for (a, b) in spec.iter().zip(&reference) {
                assert!((*a - *b).norm() < 1e-12, "n={n}");
            }
            let mut back = Vec::new();
            plan.inverse_into(&spec, &mut scratch, &mut back).unwrap();
            for (a, b) in back.iter().zip(&x) {
                assert!((a - b).abs() < 1e-9, "n={n}");
            }
            // Steady state: capacities are warm, repeated calls only refill.
            let (cs, co) = (scratch.capacity(), spec.capacity());
            plan.forward_into(&x, &mut scratch, &mut spec).unwrap();
            assert_eq!(scratch.capacity(), cs);
            assert_eq!(spec.capacity(), co);
        }
    }

    #[test]
    fn spectrum_len_accessor() {
        assert_eq!(RealFft::<f64>::new(8).spectrum_len(), 5);
        assert_eq!(RealFft::<f64>::new(7).spectrum_len(), 4);
        assert_eq!(RealFft::<f64>::new(1).spectrum_len(), 1);
    }

    #[test]
    fn length_mismatch_errors() {
        let plan = RealFft::<f64>::new(8);
        assert!(matches!(
            plan.forward(&[0.0; 7]),
            Err(FftError::LengthMismatch { .. })
        ));
        assert!(matches!(
            plan.inverse(&[Complex::zero(); 4]),
            Err(FftError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn one_shot_wrappers() {
        let x = signal(12);
        let spec = rfft(&x);
        let back = irfft(&spec, 12);
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-10);
        }
        assert!(rfft::<f64>(&[]).is_empty());
    }

    #[test]
    fn f32_roundtrip() {
        let x: Vec<f32> = (0..32).map(|k| (k as f32 * 0.2).sin()).collect();
        let plan = RealFft::<f32>::new(32);
        let back = plan.inverse(&plan.forward(&x).unwrap()).unwrap();
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn zero_length_panics() {
        let _ = RealFft::<f64>::new(0);
    }
}
