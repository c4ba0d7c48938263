//! The spectral kernel: half-spectrum FFT plumbing shared by every
//! block-circulant layer.
//!
//! All signals in the paper's layers are real, so the kernel works on the
//! non-redundant `b/2 + 1` bins and performs the three frequency-domain
//! primitives of Algorithms 1–2:
//!
//! - `acc += FFT(w) ∘ FFT(x)` — forward (circular convolution),
//! - `acc += FFT(g) ∘ conj(FFT(·))` — both gradients (circular correlation).

use ffdl_fft::{BlockScratch, Complex32, RealFft};

/// A half-spectrum vector for a fixed block size.
pub type Spectrum = Vec<Complex32>;

/// FFT engine for one block size `b`.
///
/// Owns the planned real-input transforms; layers create one kernel per
/// block size and reuse it for every block and every sample, matching the
/// paper's deployment pattern where the twiddle tables are effectively
/// constants.
#[derive(Clone)]
pub struct SpectralKernel {
    block: usize,
    plan: RealFft<f32>,
}

impl SpectralKernel {
    /// Builds a kernel for block size `block`.
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`.
    pub fn new(block: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        Self {
            block,
            plan: RealFft::new(block),
        }
    }

    /// Block size `b`.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Number of half-spectrum bins, `b/2 + 1`.
    pub fn bins(&self) -> usize {
        self.plan.spectrum_len()
    }

    /// Forward transform of one real block.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.block()`.
    pub fn spectrum(&self, x: &[f32]) -> Spectrum {
        self.plan.forward(x).expect("block length is fixed")
    }

    /// Inverse transform back to a real block.
    ///
    /// # Panics
    ///
    /// Panics if `spec.len() != self.bins()`.
    pub fn inverse(&self, spec: &[Complex32]) -> Vec<f32> {
        self.plan.inverse(spec).expect("bin count is fixed")
    }

    /// Allocation-reusing variant of [`SpectralKernel::spectrum`]: writes
    /// the half spectrum into `out`, using `fft_scratch` for the packed
    /// intermediate. Steady-state calls perform no heap allocation once
    /// both vectors are warm (power-of-two blocks; Bluestein lengths
    /// still allocate inside the planned transform).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.block()`.
    pub fn spectrum_into(&self, x: &[f32], fft_scratch: &mut Vec<Complex32>, out: &mut Spectrum) {
        self.plan
            .forward_into(x, fft_scratch, out)
            .expect("block length is fixed");
    }

    /// Allocation-reusing variant of [`SpectralKernel::inverse`]: writes
    /// the real block into `out`, using `fft_scratch` for the complex
    /// intermediate.
    ///
    /// # Panics
    ///
    /// Panics if `spec.len() != self.bins()`.
    pub fn inverse_into(
        &self,
        spec: &[Complex32],
        fft_scratch: &mut Vec<Complex32>,
        out: &mut Vec<f32>,
    ) {
        self.plan
            .inverse_into(spec, fft_scratch, out)
            .expect("bin count is fixed");
    }

    /// Forward transforms of a contiguous run of blocks: `x` holds whole
    /// blocks back to back, `out` receives one half spectrum per block,
    /// back to back. Groups of [`LANES`](ffdl_fft::LANES) blocks share
    /// one lane-batched pass; every block's spectrum is bit-identical to
    /// [`SpectralKernel::spectrum_into`] on it alone, and warm `scratch`
    /// performs no heap allocation (power-of-two blocks).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of `block()` or
    /// `out.len() != x.len() / block() · bins()`.
    pub fn forward_blocks(
        &self,
        x: &[f32],
        scratch: &mut BlockScratch<f32>,
        out: &mut [Complex32],
    ) {
        self.plan
            .forward_blocks(x, scratch, out)
            .expect("whole blocks in, one spectrum per block out");
    }

    /// Inverse of [`SpectralKernel::forward_blocks`]: one real block per
    /// half spectrum, each bit-identical to
    /// [`SpectralKernel::inverse_into`] on it alone.
    ///
    /// # Panics
    ///
    /// Panics if `spectra.len()` is not a multiple of `bins()` or
    /// `out.len() != spectra.len() / bins() · block()`.
    pub fn inverse_blocks(
        &self,
        spectra: &[Complex32],
        scratch: &mut BlockScratch<f32>,
        out: &mut [f32],
    ) {
        self.plan
            .inverse_blocks(spectra, scratch, out)
            .expect("whole spectra in, one block per spectrum out");
    }

    /// `acc[k] += a[k] · b[k]` — the component-wise multiplication at the
    /// centre of the "FFT → ∘ → IFFT" procedure (Fig. 2).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn mul_accumulate(acc: &mut [Complex32], a: &[Complex32], b: &[Complex32]) {
        assert_eq!(acc.len(), a.len());
        assert_eq!(acc.len(), b.len());
        for ((o, &x), &y) in acc.iter_mut().zip(a).zip(b) {
            *o += x * y;
        }
    }

    /// [`SpectralKernel::mul_accumulate`] with the weight spectrum stored
    /// as interleaved `f32` re/im pairs (the serialized form
    /// [`SpectralDense`](crate::SpectralDense) keeps resident):
    /// `acc[k] += (w[2k] + i·w[2k+1]) · b[k]`, the same arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != 2 · acc.len()` or `b.len() != acc.len()`.
    pub fn mul_accumulate_interleaved(acc: &mut [Complex32], w: &[f32], b: &[Complex32]) {
        assert_eq!(w.len(), 2 * acc.len());
        assert_eq!(acc.len(), b.len());
        for ((o, w), &y) in acc.iter_mut().zip(w.chunks_exact(2)).zip(b) {
            *o += Complex32::new(w[0], w[1]) * y;
        }
    }

    /// Accumulates the component-wise product of a *fixed-point* weight
    /// spectrum (interleaved re/im integer levels) and an `f32` input
    /// spectrum: `acc[k] += (levels[2k] + i·levels[2k+1]) · b[k]`.
    ///
    /// The quantization scale is deliberately **not** applied here — the
    /// quantized circulant kernel accumulates pure level-valued products
    /// over all input blocks and applies the block scale once per output
    /// block, so the weight tensor is never dequantized into a
    /// materialized `f32` copy.
    pub fn mul_accumulate_levels(acc: &mut [Complex32], levels: &[i16], b: &[Complex32]) {
        assert_eq!(levels.len(), 2 * acc.len());
        assert_eq!(acc.len(), b.len());
        for ((o, lv), &y) in acc.iter_mut().zip(levels.chunks_exact(2)).zip(b) {
            let w = Complex32::new(lv[0] as f32, lv[1] as f32);
            *o += w * y;
        }
    }

    /// `acc[k] += a[k] · conj(b[k])` — the correlation kernel of the
    /// backward pass (Algorithm 2).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn mul_conj_accumulate(acc: &mut [Complex32], a: &[Complex32], b: &[Complex32]) {
        assert_eq!(acc.len(), a.len());
        assert_eq!(acc.len(), b.len());
        for ((o, &x), &y) in acc.iter_mut().zip(a).zip(b) {
            *o += x * y.conj();
        }
    }

    /// A zeroed accumulator of the right length.
    pub fn zero_accumulator(&self) -> Spectrum {
        vec![Complex32::zero(); self.bins()]
    }
}

impl std::fmt::Debug for SpectralKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpectralKernel")
            .field("block", &self.block)
            .field("bins", &self.bins())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffdl_fft::{circular_convolve_direct, circular_correlate_direct};

    fn signal(n: usize, seed: f32) -> Vec<f32> {
        (0..n).map(|k| (k as f32 * seed).sin() + 0.2).collect()
    }

    #[test]
    fn roundtrip() {
        for b in [1usize, 2, 3, 8, 11, 64, 121, 128] {
            let k = SpectralKernel::new(b);
            let x = signal(b, 0.7);
            let back = k.inverse(&k.spectrum(&x));
            for (a, v) in back.iter().zip(&x) {
                assert!((a - v).abs() < 1e-4, "b={b}");
            }
        }
    }

    #[test]
    fn convolution_via_kernel_matches_direct() {
        for b in [4usize, 8, 16, 64] {
            let k = SpectralKernel::new(b);
            let w = signal(b, 1.3);
            let x = signal(b, 0.4);
            let mut acc = k.zero_accumulator();
            SpectralKernel::mul_accumulate(&mut acc, &k.spectrum(&w), &k.spectrum(&x));
            let fast = k.inverse(&acc);
            let slow = circular_convolve_direct(&w, &x);
            for (a, v) in fast.iter().zip(&slow) {
                assert!((a - v).abs() < 1e-3, "b={b}: {a} vs {v}");
            }
        }
    }

    #[test]
    fn correlation_via_kernel_matches_direct() {
        let b = 16;
        let k = SpectralKernel::new(b);
        let g = signal(b, 0.9);
        let x = signal(b, 2.1);
        let mut acc = k.zero_accumulator();
        SpectralKernel::mul_conj_accumulate(&mut acc, &k.spectrum(&g), &k.spectrum(&x));
        let fast = k.inverse(&acc);
        let slow = circular_correlate_direct(&g, &x);
        for (a, v) in fast.iter().zip(&slow) {
            assert!((a - v).abs() < 1e-3);
        }
    }

    #[test]
    fn accumulation_sums_contributions() {
        let b = 8;
        let k = SpectralKernel::new(b);
        let w1 = signal(b, 0.3);
        let w2 = signal(b, 1.7);
        let x = signal(b, 0.8);
        let mut acc = k.zero_accumulator();
        SpectralKernel::mul_accumulate(&mut acc, &k.spectrum(&w1), &k.spectrum(&x));
        SpectralKernel::mul_accumulate(&mut acc, &k.spectrum(&w2), &k.spectrum(&x));
        let sum = k.inverse(&acc);
        let mut expected = circular_convolve_direct(&w1, &x);
        for (e, v) in expected.iter_mut().zip(circular_convolve_direct(&w2, &x)) {
            *e += v;
        }
        for (a, v) in sum.iter().zip(&expected) {
            assert!((a - v).abs() < 1e-3);
        }
    }

    #[test]
    fn block_runs_match_single_blocks_bitwise() {
        for b in [8usize, 11, 64] {
            let k = SpectralKernel::new(b);
            let count = 11;
            let x = signal(count * b, 0.37);
            let mut scratch = BlockScratch::new();
            let mut spectra = vec![Complex32::zero(); count * k.bins()];
            k.forward_blocks(&x, &mut scratch, &mut spectra);
            let mut back = vec![0.0f32; count * b];
            k.inverse_blocks(&spectra, &mut scratch, &mut back);
            for (j, blk) in x.chunks_exact(b).enumerate() {
                let spec = k.spectrum(blk);
                assert_eq!(spectra[j * k.bins()..(j + 1) * k.bins()], spec[..], "b={b}");
                assert_eq!(back[j * b..(j + 1) * b], k.inverse(&spec)[..], "b={b}");
            }
        }
    }

    #[test]
    fn interleaved_mac_matches_complex_mac() {
        let k = SpectralKernel::new(16);
        let w = k.spectrum(&signal(16, 1.1));
        let x = k.spectrum(&signal(16, 0.3));
        let flat: Vec<f32> = w.iter().flat_map(|c| [c.re, c.im]).collect();
        let (mut a, mut b) = (k.zero_accumulator(), k.zero_accumulator());
        SpectralKernel::mul_accumulate(&mut a, &w, &x);
        SpectralKernel::mul_accumulate_interleaved(&mut b, &flat, &x);
        assert_eq!(a, b);
    }

    #[test]
    fn bins_formula() {
        assert_eq!(SpectralKernel::new(8).bins(), 5);
        assert_eq!(SpectralKernel::new(7).bins(), 4);
        assert_eq!(SpectralKernel::new(1).bins(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_panics() {
        let _ = SpectralKernel::new(0);
    }

    #[test]
    fn debug_nonempty() {
        assert!(!format!("{:?}", SpectralKernel::new(8)).is_empty());
    }
}
