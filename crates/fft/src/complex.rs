//! A minimal complex-number type and the float abstraction used by the FFT
//! kernels.
//!
//! The crate is generic over [`FftFloat`] so that the same planner code can
//! run in `f32` (the precision used by the neural-network stack, matching
//! the embedded deployment target) and in `f64` (used by numerical tests
//! that validate the algebra to tight tolerances).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point scalar usable by the FFT kernels.
///
/// Implemented for `f32` and `f64`. The trait is sealed in spirit: the FFT
/// algebra assumes IEEE-754 semantics and the two std float types are the
/// only intended implementors.
pub trait FftFloat:
    Copy
    + PartialEq
    + PartialOrd
    + fmt::Debug
    + fmt::Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Default
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Archimedes' constant.
    const PI: Self;

    /// Lossless conversion from a `usize` (exact for the sizes used here).
    fn from_usize(n: usize) -> Self;
    /// Lossy conversion from `f64`.
    fn from_f64(x: f64) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Sine.
    fn sin(self) -> Self;
    /// Cosine.
    fn cos(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
}

impl FftFloat for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const PI: Self = std::f32::consts::PI;

    fn from_usize(n: usize) -> Self {
        n as f32
    }
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn sin(self) -> Self {
        self.sin()
    }
    fn cos(self) -> Self {
        self.cos()
    }
    fn sqrt(self) -> Self {
        self.sqrt()
    }
    fn abs(self) -> Self {
        self.abs()
    }
}

impl FftFloat for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const PI: Self = std::f64::consts::PI;

    fn from_usize(n: usize) -> Self {
        n as f64
    }
    fn from_f64(x: f64) -> Self {
        x
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn sin(self) -> Self {
        self.sin()
    }
    fn cos(self) -> Self {
        self.cos()
    }
    fn sqrt(self) -> Self {
        self.sqrt()
    }
    fn abs(self) -> Self {
        self.abs()
    }
}

/// A complex number `re + i·im`.
///
/// # Examples
///
/// ```
/// use ffdl_fft::Complex;
///
/// let a = Complex::new(1.0f64, 2.0);
/// let b = Complex::new(3.0, -1.0);
/// assert_eq!(a * b, Complex::new(5.0, 5.0));
/// assert_eq!(a.conj(), Complex::new(1.0, -2.0));
/// ```
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex<T> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

/// Single-precision complex number, the working type of the inference stack.
pub type Complex32 = Complex<f32>;
/// Double-precision complex number, used by high-accuracy tests.
pub type Complex64 = Complex<f64>;

// Construction, conjugation, scaling and the ring operations need only
// the component arithmetic, so they also serve the lane vectors of the
// batched real FFT (`lanes.rs`), whose components hold eight `T`s.
impl<T> Complex<T> {
    /// Creates a complex number from real and imaginary parts.
    #[inline(always)]
    pub fn new(re: T, im: T) -> Self {
        Self { re, im }
    }
}

impl<T: Copy + Neg<Output = T>> Complex<T> {
    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }
}

impl<T: Copy + Mul<Output = T>> Complex<T> {
    /// Multiplies by a real scalar.
    #[inline(always)]
    pub fn scale(self, k: T) -> Self {
        Self::new(self.re * k, self.im * k)
    }
}

impl<T: FftFloat> Complex<T> {
    /// The additive identity `0 + 0i`.
    pub fn zero() -> Self {
        Self::new(T::ZERO, T::ZERO)
    }

    /// The multiplicative identity `1 + 0i`.
    pub fn one() -> Self {
        Self::new(T::ONE, T::ZERO)
    }

    /// The imaginary unit `i`.
    pub fn i() -> Self {
        Self::new(T::ZERO, T::ONE)
    }

    /// Creates a purely real complex number.
    pub fn from_real(re: T) -> Self {
        Self::new(re, T::ZERO)
    }

    /// `e^{iθ} = cos θ + i sin θ`.
    pub fn cis(theta: T) -> Self {
        Self::new(theta.cos(), theta.sin())
    }

    /// Squared magnitude `re² + im²`.
    pub fn norm_sqr(self) -> T {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude (Euclidean norm).
    pub fn norm(self) -> T {
        self.norm_sqr().sqrt()
    }

    /// Divides by a real scalar.
    pub fn unscale(self, k: T) -> Self {
        Self::new(self.re / k, self.im / k)
    }

    /// Multiplicative inverse.
    ///
    /// Returns `NaN` components when `self` is zero, mirroring IEEE float
    /// division semantics.
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Self::new(self.re / d, -self.im / d)
    }
}

impl<T: Copy + Add<Output = T>> Add for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl<T: FftFloat> AddAssign for Complex<T> {
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl<T: Copy + Sub<Output = T>> Sub for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl<T: FftFloat> SubAssign for Complex<T> {
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl<T: Copy + Add<Output = T> + Sub<Output = T> + Mul<Output = T>> Mul for Complex<T> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl<T: FftFloat> MulAssign for Complex<T> {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<T: FftFloat> Div for Complex<T> {
    type Output = Self;
    // z / w is defined as z · w⁻¹; the multiply is intentional.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Self) -> Self {
        self * rhs.inv()
    }
}

impl<T: FftFloat> Neg for Complex<T> {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl<T: FftFloat> Sum for Complex<T> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::zero(), |a, b| a + b)
    }
}

impl<T: FftFloat> From<T> for Complex<T> {
    fn from(re: T) -> Self {
        Self::from_real(re)
    }
}

impl<T: FftFloat> fmt::Debug for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?}{:+?}i)", self.re, self.im)
    }
}

impl<T: FftFloat> fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:+}i", self.re, self.im)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex::new(re, im)
    }

    #[test]
    fn add_sub() {
        assert_eq!(c(1.0, 2.0) + c(3.0, 4.0), c(4.0, 6.0));
        assert_eq!(c(1.0, 2.0) - c(3.0, 4.0), c(-2.0, -2.0));
    }

    #[test]
    fn mul_matches_expansion() {
        // (1+2i)(3+4i) = 3+4i+6i-8 = -5+10i
        assert_eq!(c(1.0, 2.0) * c(3.0, 4.0), c(-5.0, 10.0));
    }

    #[test]
    fn mul_by_i_rotates() {
        assert_eq!(c(1.0, 0.0) * Complex::i(), c(0.0, 1.0));
        assert_eq!(c(0.0, 1.0) * Complex::i(), c(-1.0, 0.0));
    }

    #[test]
    fn div_roundtrip() {
        let a = c(2.5, -1.5);
        let b = c(0.5, 3.0);
        let q = a / b;
        let back = q * b;
        assert!((back - a).norm() < 1e-12);
    }

    #[test]
    fn inv_of_unit() {
        let z = Complex64::cis(0.7);
        let w = z.inv();
        assert!((w - z.conj()).norm() < 1e-12, "inverse of unit is conjugate");
    }

    #[test]
    fn conj_involution_and_norm() {
        let z = c(3.0, -4.0);
        assert_eq!(z.conj().conj(), z);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.norm(), 5.0);
    }

    #[test]
    fn cis_is_on_unit_circle() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::FRAC_PI_8;
            let z = Complex64::cis(theta);
            assert!((z.norm() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn scale_unscale() {
        let z = c(1.0, -2.0);
        assert_eq!(z.scale(2.0), c(2.0, -4.0));
        assert_eq!(z.scale(2.0).unscale(2.0), z);
    }

    #[test]
    fn sum_folds() {
        let s: Complex64 = (0..4).map(|k| c(k as f64, 1.0)).sum();
        assert_eq!(s, c(6.0, 4.0));
    }

    #[test]
    fn display_and_debug_nonempty() {
        let z = c(1.0, -2.0);
        assert!(!format!("{z}").is_empty());
        assert!(!format!("{z:?}").is_empty());
    }

    #[test]
    fn from_real() {
        let z: Complex64 = 3.5f64.into();
        assert_eq!(z, c(3.5, 0.0));
    }

    #[test]
    fn f32_variant_works() {
        let a = Complex32::new(1.0, 1.0);
        assert!((a.norm() - std::f32::consts::SQRT_2).abs() < 1e-6);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Complex32>();
        assert_send_sync::<Complex64>();
    }
}
