//! Lane-batched real FFTs: [`LANES`] equal-length blocks in one pass.
//!
//! Block-circulant layers transform thousands of equal-length blocks per
//! forward pass. One block at a time, a 32-point complex FFT gives the
//! vector unit too little independent work per butterfly. Here
//! [`LANES`] blocks share every stage. The working set is a structure
//! of arrays with the lane (block) index innermost — `re[j][lane]`,
//! `im[j][lane]` — so each butterfly is [`LANES`] copies of the same
//! scalar arithmetic on adjacent floats, which plain safe Rust
//! auto-vectorizes (two 4-wide ops on the x86-64 SSE2 baseline).
//!
//! Per lane the kernel performs exactly the IEEE operations of
//! [`RealFft::forward_into`](crate::RealFft::forward_into) and
//! [`RealFft::inverse_into`](crate::RealFft::inverse_into): the same
//! twiddle tables and bit-reversal permutation, and the very same
//! butterfly and pack/unpack functions, which are generic over the
//! component type — here [`Lanes`], whose every operator is the scalar
//! operator applied lane by lane. Rust never contracts `a * b + c` into
//! a fused multiply-add on its own, so the lane results are
//! bit-identical to the scalar path.

use crate::complex::{Complex, FftFloat};
use crate::plan::{bit_reverse_table, butterfly, radix2_twiddles, Direction};
use crate::real::{pack_bin, unpack_bin};
use std::ops::{Add, Mul, Neg, Sub};

/// Blocks transformed together by
/// [`RealFft::forward_blocks`](crate::RealFft::forward_blocks) and
/// [`RealFft::inverse_blocks`](crate::RealFft::inverse_blocks).
pub const LANES: usize = 8;

/// One component (real or imaginary) of [`LANES`] values: the scalar
/// operators applied lane by lane, in loops the compiler vectorizes.
#[derive(Clone, Copy)]
struct Lanes<T>([T; LANES]);

impl<T: FftFloat> Lanes<T> {
    #[inline(always)]
    fn zip(self, rhs: Self, f: impl Fn(T, T) -> T) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o = f(*o, r);
        }
        Lanes(out)
    }
}

impl<T: FftFloat> From<T> for Lanes<T> {
    #[inline(always)]
    fn from(v: T) -> Self {
        Lanes([v; LANES])
    }
}

impl<T: FftFloat> Add for Lanes<T> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| a + b)
    }
}

impl<T: FftFloat> Sub for Lanes<T> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| a - b)
    }
}

impl<T: FftFloat> Mul for Lanes<T> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        self.zip(rhs, |a, b| a * b)
    }
}

impl<T: FftFloat> Neg for Lanes<T> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        let mut out = self.0;
        for o in &mut out {
            *o = -*o;
        }
        Lanes(out)
    }
}

/// A scalar complex constant broadcast to every lane.
#[inline(always)]
fn splat<T: FftFloat>(w: Complex<T>) -> Complex<Lanes<T>> {
    Complex::new(Lanes::from(w.re), Lanes::from(w.im))
}

/// Radix-2 tables of the half-length complex transform inside a real
/// FFT of length `2·half`, built by the same functions as
/// [`Radix2`](crate::Radix2)'s.
pub(crate) struct LaneTables<T> {
    forward: Vec<Complex<T>>,
    inverse: Vec<Complex<T>>,
    bit_reverse: Vec<u32>,
}

impl<T: FftFloat> LaneTables<T> {
    /// Tables for a power-of-two `half`.
    pub(crate) fn new(half: usize) -> Self {
        debug_assert!(half.is_power_of_two());
        Self {
            forward: radix2_twiddles(half, Direction::Forward),
            inverse: radix2_twiddles(half, Direction::Inverse),
            bit_reverse: bit_reverse_table(half),
        }
    }

    fn half(&self) -> usize {
        self.bit_reverse.len()
    }
}

/// Reusable buffers for the multi-block transforms: the lane rows and
/// the scalar intermediate used for remainder blocks. Capacity is
/// `O(block)`, independent of how many blocks a call transforms, and
/// warm calls perform no heap allocation.
pub struct BlockScratch<T> {
    rows: Vec<Complex<Lanes<T>>>,
    /// Packed intermediate of the scalar path.
    pub(crate) single: Vec<Complex<T>>,
}

impl<T> Default for BlockScratch<T> {
    fn default() -> Self {
        Self {
            rows: Vec::new(),
            single: Vec::new(),
        }
    }
}

impl<T: FftFloat> BlockScratch<T> {
    /// An empty scratch set; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The lane rows, sized for a `half`-point complex transform.
    fn rows(&mut self, half: usize) -> &mut [Complex<Lanes<T>>] {
        let zero = Lanes::from(T::ZERO);
        self.rows.resize(half, Complex::new(zero, zero));
        &mut self.rows
    }
}

impl<T> std::fmt::Debug for BlockScratch<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockScratch")
            .field("rows", &self.rows.len())
            .finish()
    }
}

/// The butterfly stages of the radix-2 transform over lane rows that
/// are already in bit-reversed order.
fn stages<T: FftFloat>(rows: &mut [Complex<Lanes<T>>], twiddles: &[Complex<T>]) {
    let n = rows.len();
    let mut m = 2;
    while m <= n {
        let half_m = m / 2;
        let stride = n / m;
        for chunk in rows.chunks_exact_mut(m) {
            let (lo, hi) = chunk.split_at_mut(half_m);
            for (k, (u, h)) in lo.iter_mut().zip(hi.iter_mut()).enumerate() {
                (*u, *h) = butterfly(*u, *h, splat(twiddles[k * stride]));
            }
        }
        m *= 2;
    }
}

/// Forward transform of [`LANES`] real blocks of length `2·half`.
///
/// `input` holds the blocks back to back (`LANES · 2·half` reals);
/// `out` receives their half spectra back to back
/// (`LANES · (half + 1)` bins). `twiddles` is the real FFT's unpack
/// table, `e^{-2πik/n}` for `k ≤ n/2`.
pub(crate) fn forward_group<T: FftFloat>(
    tables: &LaneTables<T>,
    twiddles: &[Complex<T>],
    input: &[T],
    scratch: &mut BlockScratch<T>,
    out: &mut [Complex<T>],
) {
    let half = tables.half();
    let (len, bins) = (2 * half, half + 1);
    let rows = scratch.rows(half);
    // Pack pairs of reals into complex rows, stored straight at their
    // bit-reversed position: the permutation is an involution, so this
    // equals packing in order and then swapping.
    for (l, block) in input.chunks_exact(len).enumerate() {
        for (pair, &r) in block.chunks_exact(2).zip(&tables.bit_reverse) {
            let row = &mut rows[r as usize];
            row.re.0[l] = pair[0];
            row.im.0[l] = pair[1];
        }
    }
    stages(rows, &tables.forward);

    for (k, &w) in twiddles.iter().enumerate() {
        // Rows of z[k] and z[(n/2 − k) mod n/2], as in `forward_into`.
        let zk = rows[if k == half { 0 } else { k }];
        let zm = rows[if k == 0 || k == half { 0 } else { half - k }];
        let bin = unpack_bin::<T, _>(zk, zm.conj(), splat(w));
        for l in 0..LANES {
            out[l * bins + k] = Complex::new(bin.re.0[l], bin.im.0[l]);
        }
    }
}

/// Inverse of [`forward_group`]: `spectra` holds [`LANES`] half spectra
/// back to back, `out` receives the real blocks back to back.
pub(crate) fn inverse_group<T: FftFloat>(
    tables: &LaneTables<T>,
    twiddles: &[Complex<T>],
    spectra: &[Complex<T>],
    scratch: &mut BlockScratch<T>,
    out: &mut [T],
) {
    let half = tables.half();
    let (len, bins) = (2 * half, half + 1);
    let rows = scratch.rows(half);
    let zero = Lanes::from(T::ZERO);
    for (k, &r) in tables.bit_reverse.iter().enumerate() {
        // Gather X[k] and X[n/2 − k] of every lane, then rebuild packed
        // element k across the lanes.
        let (mut xk, mut xm) = (Complex::new(zero, zero), Complex::new(zero, zero));
        for (l, spec) in spectra.chunks_exact(bins).enumerate() {
            (xk.re.0[l], xk.im.0[l]) = (spec[k].re, spec[k].im);
            (xm.re.0[l], xm.im.0[l]) = (spec[half - k].re, spec[half - k].im);
        }
        rows[r as usize] = pack_bin::<T, _>(xk, xm.conj(), splat(twiddles[k]));
    }
    stages(rows, &tables.inverse);

    // The radix-2 inverse's 1/n scaling, then each complex row unpacks
    // into two consecutive reals per block.
    let inv_n = Lanes::from(T::ONE / T::from_usize(half));
    for row in rows.iter_mut() {
        *row = row.scale(inv_n);
    }
    for (l, block) in out.chunks_exact_mut(len).enumerate() {
        for (pair, row) in block.chunks_exact_mut(2).zip(rows.iter()) {
            pair[0] = row.re.0[l];
            pair[1] = row.im.0[l];
        }
    }
}
