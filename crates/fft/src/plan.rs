//! FFT planning: the [`Fft`] algorithm trait, the iterative radix-2
//! Cooley–Tukey implementation (Fig. 1 of the paper), and the [`FftPlanner`]
//! that caches twiddle tables per transform size.

use std::collections::HashMap;
use std::ops::{Add, Mul, Sub};
use std::sync::{Arc, OnceLock};

use crate::complex::{Complex, FftFloat};
use crate::error::FftError;
use ffdl_telemetry::Counter;

/// Process-wide plan-cache counters (`ffdl.fft.plan_cache.hit` /
/// `.miss`), registered in the global telemetry registry on first use
/// and cached so the hot path never takes the registry lock.
fn plan_cache_counters() -> &'static (Arc<Counter>, Arc<Counter>) {
    static COUNTERS: OnceLock<(Arc<Counter>, Arc<Counter>)> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let registry = ffdl_telemetry::global();
        (
            registry.counter("ffdl.fft.plan_cache.hit"),
            registry.counter("ffdl.fft.plan_cache.miss"),
        )
    })
}

/// Transform direction.
///
/// The forward transform is unscaled; the inverse transform divides by the
/// length `n`, so `ifft(fft(x)) == x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Time domain → frequency domain, kernel `e^{-2πi jk/n}`.
    Forward,
    /// Frequency domain → time domain, kernel `e^{+2πi jk/n} / n`.
    Inverse,
}

impl Direction {
    /// The opposite direction.
    pub fn reversed(self) -> Self {
        match self {
            Direction::Forward => Direction::Inverse,
            Direction::Inverse => Direction::Forward,
        }
    }

    /// Sign of the exponent in the transform kernel.
    pub fn sign<T: FftFloat>(self) -> T {
        match self {
            Direction::Forward => -T::ONE,
            Direction::Inverse => T::ONE,
        }
    }
}

/// A planned fast Fourier transform of a fixed size and direction.
///
/// Implementations precompute twiddle factors so repeated calls to
/// [`Fft::process`] avoid trigonometry entirely — the usage pattern of the
/// paper's inference engine, which transforms thousands of activation
/// vectors with the same block size.
pub trait Fft<T: FftFloat>: Send + Sync {
    /// Transform size this plan was built for.
    fn len(&self) -> usize;

    /// `true` when the transform size is zero (never, for planner-built
    /// plans, but required for a well-behaved `len`/`is_empty` pair).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Direction this plan computes.
    fn direction(&self) -> Direction;

    /// Transforms `buf` in place.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] when `buf.len() != self.len()`.
    fn process(&self, buf: &mut [Complex<T>]) -> Result<(), FftError>;
}

/// Iterative radix-2 decimation-in-time Cooley–Tukey FFT.
///
/// Bit-reversal permutation followed by `log₂ n` butterfly stages, using a
/// precomputed table of `n/2` twiddle factors. This is the classic
/// structure illustrated in Fig. 1 of the paper.
pub struct Radix2<T> {
    len: usize,
    direction: Direction,
    /// `twiddles[k] = e^{sign·2πi·k/n}` for `k < n/2`.
    twiddles: Vec<Complex<T>>,
    /// Precomputed bit-reversal permutation.
    bit_reverse: Vec<u32>,
}

impl<T: FftFloat> Radix2<T> {
    /// Builds a radix-2 plan.
    ///
    /// # Panics
    ///
    /// Panics if `len` is not a power of two (the planner guarantees this;
    /// direct constructors validate it so the invariant is explicit).
    pub fn new(len: usize, direction: Direction) -> Self {
        assert!(
            len.is_power_of_two(),
            "radix-2 FFT requires a power-of-two length, got {len}"
        );
        Self {
            len,
            direction,
            twiddles: radix2_twiddles(len, direction),
            bit_reverse: bit_reverse_table(len),
        }
    }
}

/// `e^{sign·2πi·k/n}` for `k < n/2`: the twiddle table of a length-`n`
/// radix-2 transform. Shared with the lane-batched real FFT so both use
/// the very same constants.
pub(crate) fn radix2_twiddles<T: FftFloat>(len: usize, direction: Direction) -> Vec<Complex<T>> {
    let sign: T = direction.sign();
    let two_pi = T::from_f64(2.0) * T::PI;
    (0..len / 2)
        .map(|k| Complex::cis(sign * two_pi * T::from_usize(k) / T::from_usize(len)))
        .collect()
}

/// The bit-reversal permutation of `0..len` (`len` a power of two).
pub(crate) fn bit_reverse_table(len: usize) -> Vec<u32> {
    let bits = len.trailing_zeros();
    (0..len as u32)
        .map(|i| {
            if bits == 0 {
                0
            } else {
                i.reverse_bits() >> (32 - bits)
            }
        })
        .collect()
}

/// One decimation-in-time butterfly: `(u + h·w, u − h·w)`. Generic over
/// the component type so the lane-batched kernel runs this very
/// expression on lane vectors.
#[inline(always)]
pub(crate) fn butterfly<V>(u: Complex<V>, h: Complex<V>, w: Complex<V>) -> (Complex<V>, Complex<V>)
where
    V: Copy + Add<Output = V> + Sub<Output = V> + Mul<Output = V>,
{
    let t = h * w;
    (u + t, u - t)
}

impl<T: FftFloat> Fft<T> for Radix2<T> {
    fn len(&self) -> usize {
        self.len
    }

    fn direction(&self) -> Direction {
        self.direction
    }

    fn process(&self, buf: &mut [Complex<T>]) -> Result<(), FftError> {
        if buf.len() != self.len {
            return Err(FftError::LengthMismatch {
                expected: self.len,
                actual: buf.len(),
            });
        }
        let n = self.len;

        // Bit-reversal permutation.
        for i in 0..n {
            let j = self.bit_reverse[i] as usize;
            if j > i {
                buf.swap(i, j);
            }
        }

        // Butterfly stages: sub-transform size doubles each stage.
        let mut m = 2;
        while m <= n {
            let half_m = m / 2;
            let twiddle_stride = n / m;
            for start in (0..n).step_by(m) {
                for k in 0..half_m {
                    let lo = start + k;
                    let hi = lo + half_m;
                    (buf[lo], buf[hi]) =
                        butterfly(buf[lo], buf[hi], self.twiddles[k * twiddle_stride]);
                }
            }
            m *= 2;
        }

        if self.direction == Direction::Inverse {
            let inv_n = T::ONE / T::from_usize(n);
            for v in buf.iter_mut() {
                *v = v.scale(inv_n);
            }
        }
        Ok(())
    }
}

/// Plans FFTs and caches them per `(size, direction)`.
///
/// Power-of-two sizes use [`Radix2`]; all other sizes use
/// [`Bluestein`](crate::bluestein::Bluestein)'s chirp-z algorithm. Plans are
/// returned as `Arc`s so layers can share them cheaply.
///
/// # Examples
///
/// ```
/// use ffdl_fft::{Complex, Direction, FftPlanner};
///
/// let mut planner = FftPlanner::<f64>::new();
/// let fft = planner.plan(8, Direction::Forward);
/// let ifft = planner.plan(8, Direction::Inverse);
///
/// let original: Vec<_> = (0..8).map(|k| Complex::from_real(k as f64)).collect();
/// let mut buf = original.clone();
/// fft.process(&mut buf)?;
/// ifft.process(&mut buf)?;
/// for (a, b) in buf.iter().zip(&original) {
///     assert!((*a - *b).norm() < 1e-12);
/// }
/// # Ok::<(), ffdl_fft::FftError>(())
/// ```
pub struct FftPlanner<T> {
    cache: HashMap<(usize, Direction), Arc<dyn Fft<T>>>,
}

impl<T: FftFloat> FftPlanner<T> {
    /// Creates an empty planner.
    pub fn new() -> Self {
        Self {
            cache: HashMap::new(),
        }
    }

    /// Returns a plan for the given size and direction, creating and
    /// caching it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn plan(&mut self, len: usize, direction: Direction) -> Arc<dyn Fft<T>> {
        assert!(len > 0, "cannot plan a zero-length FFT");
        if let Some(plan) = self.cache.get(&(len, direction)) {
            if ffdl_telemetry::enabled() {
                plan_cache_counters().0.inc();
            }
            return Arc::clone(plan);
        }
        if ffdl_telemetry::enabled() {
            plan_cache_counters().1.inc();
        }
        let plan: Arc<dyn Fft<T>> = if len.is_power_of_two() {
            Arc::new(Radix2::new(len, direction))
        } else {
            Arc::new(crate::bluestein::Bluestein::new(len, direction))
        };
        self.cache.insert((len, direction), Arc::clone(&plan));
        plan
    }

    /// Shorthand for a forward plan.
    pub fn plan_forward(&mut self, len: usize) -> Arc<dyn Fft<T>> {
        self.plan(len, Direction::Forward)
    }

    /// Shorthand for an inverse plan.
    pub fn plan_inverse(&mut self, len: usize) -> Arc<dyn Fft<T>> {
        self.plan(len, Direction::Inverse)
    }

    /// Number of cached plans (diagnostics / tests).
    pub fn cached_plans(&self) -> usize {
        self.cache.len()
    }
}

impl<T: FftFloat> Default for FftPlanner<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot forward FFT of a complex buffer (convenience wrapper).
///
/// For hot paths, prefer an explicit [`FftPlanner`] so twiddle tables are
/// reused across calls.
pub fn fft<T: FftFloat>(input: &[Complex<T>]) -> Vec<Complex<T>> {
    let mut buf = input.to_vec();
    if buf.is_empty() {
        return buf;
    }
    let plan = FftPlanner::new().plan(buf.len(), Direction::Forward);
    plan.process(&mut buf).expect("length matches plan");
    buf
}

/// One-shot inverse FFT of a complex buffer (convenience wrapper).
pub fn ifft<T: FftFloat>(input: &[Complex<T>]) -> Vec<Complex<T>> {
    let mut buf = input.to_vec();
    if buf.is_empty() {
        return buf;
    }
    let plan = FftPlanner::new().plan(buf.len(), Direction::Inverse);
    plan.process(&mut buf).expect("length matches plan");
    buf
}

/// One-shot forward FFT of a real signal.
pub fn fft_real<T: FftFloat>(input: &[T]) -> Vec<Complex<T>> {
    let buf: Vec<Complex<T>> = input.iter().map(|&x| Complex::from_real(x)).collect();
    fft(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;
    use crate::dft::dft;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|k| {
                Complex64::new(
                    (k as f64 * 0.37).sin() + 0.25 * (k as f64),
                    (k as f64 * 1.11).cos(),
                )
            })
            .collect()
    }

    fn assert_close(a: &[Complex64], b: &[Complex64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((*x - *y).norm() < tol, "index {i}: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn radix2_matches_dft_for_all_pow2_up_to_256() {
        for exp in 0..=8 {
            let n = 1usize << exp;
            let x = signal(n);
            let mut buf = x.clone();
            Radix2::new(n, Direction::Forward)
                .process(&mut buf)
                .unwrap();
            let reference = dft(&x, Direction::Forward);
            assert_close(&buf, &reference, 1e-8 * (n as f64));
        }
    }

    #[test]
    fn radix2_inverse_matches_dft() {
        let n = 64;
        let x = signal(n);
        let mut buf = x.clone();
        Radix2::new(n, Direction::Inverse)
            .process(&mut buf)
            .unwrap();
        let reference = dft(&x, Direction::Inverse);
        assert_close(&buf, &reference, 1e-10);
    }

    #[test]
    fn roundtrip_identity() {
        let n = 128;
        let x = signal(n);
        let mut buf = x.clone();
        Radix2::new(n, Direction::Forward)
            .process(&mut buf)
            .unwrap();
        Radix2::new(n, Direction::Inverse)
            .process(&mut buf)
            .unwrap();
        assert_close(&buf, &x, 1e-10);
    }

    #[test]
    fn length_one_is_identity() {
        let x = vec![Complex64::new(2.0, -3.0)];
        let mut buf = x.clone();
        Radix2::new(1, Direction::Forward)
            .process(&mut buf)
            .unwrap();
        assert_eq!(buf, x);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn radix2_rejects_non_pow2() {
        let _ = Radix2::<f64>::new(6, Direction::Forward);
    }

    #[test]
    fn process_rejects_wrong_length() {
        let plan = Radix2::<f64>::new(8, Direction::Forward);
        let mut buf = vec![Complex64::zero(); 4];
        let err = plan.process(&mut buf).unwrap_err();
        assert_eq!(
            err,
            FftError::LengthMismatch {
                expected: 8,
                actual: 4
            }
        );
    }

    #[test]
    fn planner_caches_plans() {
        let mut planner = FftPlanner::<f64>::new();
        let a = planner.plan(16, Direction::Forward);
        let b = planner.plan(16, Direction::Forward);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(planner.cached_plans(), 1);
        let _ = planner.plan(16, Direction::Inverse);
        assert_eq!(planner.cached_plans(), 2);
    }

    #[test]
    fn repeated_same_size_plans_reuse_twiddles_and_count_as_hits() {
        let hits = || {
            ffdl_telemetry::global()
                .snapshot()
                .counter("ffdl.fft.plan_cache.hit")
                .unwrap_or(0)
        };
        let misses = || {
            ffdl_telemetry::global()
                .snapshot()
                .counter("ffdl.fft.plan_cache.miss")
                .unwrap_or(0)
        };
        let (h0, m0) = (hits(), misses());
        ffdl_telemetry::set_enabled(true);
        let mut planner = FftPlanner::<f64>::new();
        let first = planner.plan(32, Direction::Forward); // builds twiddles
        let second = planner.plan(32, Direction::Forward); // cache hit
        let third = planner.plan_forward(32); // cache hit via shorthand
        ffdl_telemetry::set_enabled(false);
        // Same Arc ⇒ the twiddle table was built once and reused.
        assert!(Arc::ptr_eq(&first, &second));
        assert!(Arc::ptr_eq(&first, &third));
        assert_eq!(planner.cached_plans(), 1);
        // Counters are global and monotone, so concurrent tests can only
        // add: ≥, not ==.
        assert!(hits() >= h0 + 2, "hits {} -> {}", h0, hits());
        assert!(misses() > m0, "misses {} -> {}", m0, misses());
    }

    #[test]
    fn planner_handles_non_pow2_via_bluestein() {
        let mut planner = FftPlanner::<f64>::new();
        let n = 12;
        let plan = planner.plan_forward(n);
        let x = signal(n);
        let mut buf = x.clone();
        plan.process(&mut buf).unwrap();
        let reference = dft(&x, Direction::Forward);
        assert_close(&buf, &reference, 1e-8);
    }

    #[test]
    #[should_panic(expected = "zero-length")]
    fn planner_rejects_zero() {
        let _ = FftPlanner::<f64>::new().plan(0, Direction::Forward);
    }

    #[test]
    fn convenience_fft_ifft() {
        let x = signal(32);
        let back = ifft(&fft(&x));
        assert_close(&back, &x, 1e-10);
        assert!(fft::<f64>(&[]).is_empty());
        assert!(ifft::<f64>(&[]).is_empty());
    }

    #[test]
    fn fft_real_matches_complex_path() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let via_real = fft_real(&xs);
        let via_complex = fft(&xs
            .iter()
            .map(|&v| Complex64::from_real(v))
            .collect::<Vec<_>>());
        assert_close(&via_real, &via_complex, 1e-12);
    }

    #[test]
    fn direction_reversed() {
        assert_eq!(Direction::Forward.reversed(), Direction::Inverse);
        assert_eq!(Direction::Inverse.reversed(), Direction::Forward);
    }

    #[test]
    fn f32_roundtrip() {
        let x: Vec<Complex<f32>> = (0..64)
            .map(|k| Complex::new((k as f32 * 0.1).sin(), 0.0))
            .collect();
        let mut buf = x.clone();
        let mut planner = FftPlanner::<f32>::new();
        planner.plan_forward(64).process(&mut buf).unwrap();
        planner.plan_inverse(64).process(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(&x) {
            assert!((*a - *b).norm() < 1e-4);
        }
    }
}
