//! Property-based tests for the FFT kernel: the algebraic identities the
//! paper's Algorithm 1/2 rely on must hold for arbitrary inputs.
//!
//! Ported from `proptest` onto the in-house `ffdl_rng::prop` harness:
//! cases are generated from per-case seeds and replayable via
//! `FFDL_PROP_REPLAY` (see `crates/rng/src/prop.rs`).

use ffdl_fft::{
    circular_convolve, circular_convolve_direct, circular_correlate, circular_correlate_direct,
    dft, fft, ifft, irfft, linear_convolve, linear_convolve_direct, rfft, BlockScratch, Complex,
    Complex32, Complex64, Direction, FftPlanner, RealFft, LANES,
};
use ffdl_rng::prop::{check, moderate_f64, small_f32, vec_of};
use ffdl_rng::{prop_assert, prop_assert_eq, Rng, SmallRng};

fn complex_vec(rng: &mut SmallRng, max_len: usize) -> Vec<Complex64> {
    vec_of(rng, 1..=max_len, |r| {
        Complex::new(moderate_f64(r), moderate_f64(r))
    })
}

fn real_vec(rng: &mut SmallRng, max_len: usize) -> Vec<f64> {
    vec_of(rng, 1..=max_len, moderate_f64)
}

fn max_norm(v: &[Complex64]) -> f64 {
    v.iter().map(|z| z.norm()).fold(0.0, f64::max).max(1.0)
}

fn max_abs(v: &[f64]) -> f64 {
    v.iter().map(|x| x.abs()).fold(1.0, f64::max)
}

/// ifft(fft(x)) == x for any length (radix-2 and Bluestein paths).
#[test]
fn fft_roundtrip() {
    check(
        "fft_roundtrip",
        64,
        |rng| complex_vec(rng, 200),
        |x| {
            let back = ifft(&fft(x));
            let scale = max_norm(x);
            for (a, b) in back.iter().zip(x) {
                prop_assert!(
                    (*a - *b).norm() < 1e-8 * scale * x.len() as f64,
                    "{a:?} vs {b:?}"
                );
            }
            Ok(())
        },
    );
}

/// The fast transform agrees with the O(n²) DFT definition.
#[test]
fn fft_matches_dft() {
    check(
        "fft_matches_dft",
        64,
        |rng| complex_vec(rng, 96),
        |x| {
            let fast = fft(x);
            let slow = dft(x, Direction::Forward);
            let scale = max_norm(x) * x.len() as f64;
            for (a, b) in fast.iter().zip(&slow) {
                prop_assert!((*a - *b).norm() < 1e-8 * scale, "{a:?} vs {b:?}");
            }
            Ok(())
        },
    );
}

/// FFT is linear: FFT(αx + y) == α·FFT(x) + FFT(y).
#[test]
fn fft_linearity() {
    check(
        "fft_linearity",
        64,
        |rng| (complex_vec(rng, 64), moderate_f64(rng)),
        |(x, alpha)| {
            // Build y of the same length from x deterministically.
            let y: Vec<Complex64> = x.iter().map(|z| z.conj().scale(0.5)).collect();
            let combo: Vec<Complex64> =
                x.iter().zip(&y).map(|(&a, &b)| a.scale(*alpha) + b).collect();
            let lhs = fft(&combo);
            let fx = fft(x);
            let fy = fft(&y);
            let scale = max_norm(x) * (alpha.abs() + 1.0) * x.len() as f64;
            for ((l, a), b) in lhs.iter().zip(&fx).zip(&fy) {
                prop_assert!(
                    (*l - (a.scale(*alpha) + *b)).norm() < 1e-8 * scale,
                    "lhs {l:?}"
                );
            }
            Ok(())
        },
    );
}

/// Parseval: energy is conserved (with the 1/n convention on inverse).
#[test]
fn parseval() {
    check(
        "parseval",
        64,
        |rng| complex_vec(rng, 128),
        |x| {
            let n = x.len() as f64;
            let spec = fft(x);
            let te: f64 = x.iter().map(|z| z.norm_sqr()).sum();
            let fe: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / n;
            prop_assert!((te - fe).abs() < 1e-6 * (te.abs() + 1.0) * n, "{te} vs {fe}");
            Ok(())
        },
    );
}

/// Convolution theorem: FFT convolution equals the direct definition.
#[test]
fn convolution_theorem() {
    check(
        "convolution_theorem",
        64,
        |rng| {
            let a = real_vec(rng, 100);
            let b: Vec<f64> = (0..a.len()).map(|_| moderate_f64(rng)).collect();
            (a, b)
        },
        |(a, b)| {
            let fast = circular_convolve(a, b);
            let slow = circular_convolve_direct(a, b);
            let scale = max_abs(a) * max_abs(b) * a.len() as f64;
            for (x, y) in fast.iter().zip(&slow) {
                prop_assert!((x - y).abs() < 1e-8 * scale, "{x} vs {y}");
            }
            Ok(())
        },
    );
}

/// Correlation via FFT equals the direct definition.
#[test]
fn correlation_matches_direct() {
    check(
        "correlation_matches_direct",
        64,
        |rng| {
            let a = real_vec(rng, 80);
            let b: Vec<f64> = (0..a.len()).map(|_| moderate_f64(rng)).collect();
            (a, b)
        },
        |(a, b)| {
            let fast = circular_correlate(a, b);
            let slow = circular_correlate_direct(a, b);
            let scale = max_abs(a) * max_abs(b) * a.len() as f64;
            for (x, y) in fast.iter().zip(&slow) {
                prop_assert!((x - y).abs() < 1e-8 * scale, "{x} vs {y}");
            }
            Ok(())
        },
    );
}

/// Real FFT round-trips through the half spectrum.
#[test]
fn rfft_roundtrip() {
    check(
        "rfft_roundtrip",
        64,
        |rng| real_vec(rng, 150),
        |x| {
            let spec = rfft(x);
            prop_assert_eq!(spec.len(), x.len() / 2 + 1);
            let back = irfft(&spec, x.len());
            let scale = max_abs(x) * x.len() as f64;
            for (a, b) in back.iter().zip(x) {
                prop_assert!((a - b).abs() < 1e-9 * scale, "{a} vs {b}");
            }
            Ok(())
        },
    );
}

/// The half spectrum agrees with the full complex transform.
#[test]
fn rfft_matches_fft() {
    check(
        "rfft_matches_fft",
        64,
        |rng| real_vec(rng, 100),
        |x| {
            let half = rfft(x);
            let full = fft(&x.iter().map(|&v| Complex::from_real(v)).collect::<Vec<_>>());
            let scale = max_abs(x) * x.len() as f64;
            for (k, h) in half.iter().enumerate() {
                prop_assert!((*h - full[k]).norm() < 1e-8 * scale, "bin {k}");
            }
            Ok(())
        },
    );
}

/// Linear convolution via FFT equals direct; length is n+m−1.
#[test]
fn linear_convolution() {
    check(
        "linear_convolution",
        64,
        |rng| (real_vec(rng, 40), real_vec(rng, 40)),
        |(a, b)| {
            let fast = linear_convolve(a, b);
            let slow = linear_convolve_direct(a, b);
            prop_assert_eq!(fast.len(), a.len() + b.len() - 1);
            let scale = max_abs(a) * max_abs(b) * (a.len() + b.len()) as f64;
            for (x, y) in fast.iter().zip(&slow) {
                prop_assert!((x - y).abs() < 1e-8 * scale, "{x} vs {y}");
            }
            Ok(())
        },
    );
}

/// Time shift ↔ phase rotation: FFT(rot₁(x))[k] = FFT(x)[k]·e^{-2πik/n}.
#[test]
fn shift_theorem() {
    check(
        "shift_theorem",
        64,
        |rng| complex_vec(rng, 64),
        |x| {
            let n = x.len();
            let mut rotated = x.clone();
            rotated.rotate_right(1);
            let fx = fft(x);
            let fr = fft(&rotated);
            let scale = max_norm(x) * n as f64;
            for k in 0..n {
                let phase = Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64);
                prop_assert!((fr[k] - fx[k] * phase).norm() < 1e-8 * scale, "bin {k}");
            }
            Ok(())
        },
    );
}

#[test]
fn planner_is_reusable_across_sizes() {
    let mut planner = FftPlanner::<f64>::new();
    for n in [2usize, 3, 8, 12, 16, 121] {
        let x: Vec<Complex64> = (0..n).map(|k| Complex::from_real(k as f64)).collect();
        let mut buf = x.clone();
        planner.plan_forward(n).process(&mut buf).unwrap();
        planner.plan_inverse(n).process(&mut buf).unwrap();
        for (a, b) in buf.iter().zip(&x) {
            assert!((*a - *b).norm() < 1e-9);
        }
    }
    assert_eq!(planner.cached_plans(), 12);
}

/// Largest block count the lane oracle exercises: two full lane groups
/// plus a remainder of one.
const MAX_BLOCKS: usize = 2 * LANES + 1;

/// Random `f32` samples for the lane oracle, mostly on the coarse grid
/// with signed zeros and large magnitudes mixed in. `Debug` prints only
/// a summary; the case seed replays the full pool.
struct SamplePool(Vec<f32>);

impl std::fmt::Debug for SamplePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SamplePool({} values, first {:?})",
            self.0.len(),
            &self.0[..4]
        )
    }
}

fn sample_pool(rng: &mut SmallRng) -> SamplePool {
    let n = 2 * MAX_BLOCKS * 256;
    SamplePool(
        (0..n)
            .map(|_| match rng.gen_range(0u32..32) {
                0 => 0.0,
                1 => -0.0,
                2 => rng.gen_range(-1.0e30f32..1.0e30),
                3 => rng.gen_range(-1.0e-30f32..1.0e-30),
                _ => small_f32(rng) + rng.gen_range(-0.05f32..0.05),
            })
            .collect(),
    )
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_complex_bits(a: &[Complex32], b: &[Complex32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Checks `forward_blocks`/`inverse_blocks` against per-block
/// `forward_into`/`inverse_into`, bit for bit, for 1..=MAX_BLOCKS blocks.
fn blocks_match_scalar(plan: &RealFft<f32>, pool: &[f32]) -> Result<(), String> {
    let (n, bins) = (plan.len(), plan.spectrum_len());
    let mut scratch = BlockScratch::new();
    let (mut single, mut spec, mut back) = (Vec::new(), Vec::new(), Vec::new());
    for count in 1..=MAX_BLOCKS {
        let x = &pool[..count * n];
        let mut spectra = vec![Complex32::zero(); count * bins];
        plan.forward_blocks(x, &mut scratch, &mut spectra)
            .map_err(|e| e.to_string())?;
        for (blk, got) in x.chunks_exact(n).zip(spectra.chunks_exact(bins)) {
            plan.forward_into(blk, &mut single, &mut spec).unwrap();
            prop_assert!(same_complex_bits(got, &spec), "forward b={n} count={count}");
        }

        // Arbitrary (not necessarily Hermitian) spectra for the inverse.
        let y: Vec<Complex32> = pool[..2 * count * bins]
            .chunks_exact(2)
            .map(|c| Complex32::new(c[0], c[1]))
            .collect();
        let mut blocks = vec![0.0f32; count * n];
        plan.inverse_blocks(&y, &mut scratch, &mut blocks)
            .map_err(|e| e.to_string())?;
        for (s, got) in y.chunks_exact(bins).zip(blocks.chunks_exact(n)) {
            plan.inverse_into(s, &mut single, &mut back).unwrap();
            prop_assert!(same_bits(got, &back), "inverse b={n} count={count}");
        }
    }
    Ok(())
}

/// The lane-batched multi-block transforms equal the per-block scalar
/// transforms bit for bit: every power-of-two block from 2 to 256, block
/// counts 1..=17 (full lane groups and every remainder).
#[test]
fn lane_blocks_match_scalar_bitwise() {
    check("lane_blocks_match_scalar_bitwise", 8, sample_pool, |pool| {
        for exp in 1..=8 {
            let plan = RealFft::<f32>::new(1 << exp);
            prop_assert!(plan.has_lane_path(), "b={} has no lane path", 1 << exp);
            blocks_match_scalar(&plan, &pool.0)?;
        }
        Ok(())
    });
}

/// Odd and Bluestein lengths take the scalar path through the same
/// entry points, with the same per-block results.
#[test]
fn bluestein_blocks_take_scalar_path() {
    check(
        "bluestein_blocks_take_scalar_path",
        4,
        sample_pool,
        |pool| {
            for n in [3usize, 11, 121, 100] {
                let plan = RealFft::<f32>::new(n);
                prop_assert!(!plan.has_lane_path(), "b={n} must stay scalar");
                blocks_match_scalar(&plan, &pool.0)?;
            }
            Ok(())
        },
    );
}

#[test]
fn multi_block_entry_points_validate_lengths() {
    let plan = RealFft::<f32>::new(8);
    let mut scratch = BlockScratch::new();
    let mut spec = vec![Complex32::zero(); 10];
    assert!(plan
        .forward_blocks(&[0.0; 12], &mut scratch, &mut spec)
        .is_err());
    assert!(plan
        .forward_blocks(&[0.0; 16], &mut scratch, &mut spec[..9])
        .is_err());
    assert!(plan
        .forward_blocks(&[0.0; 16], &mut scratch, &mut spec)
        .is_ok());
    let mut out = vec![0.0f32; 16];
    assert!(plan
        .inverse_blocks(&spec[..9], &mut scratch, &mut out)
        .is_err());
    assert!(plan
        .inverse_blocks(&spec, &mut scratch, &mut out[..15])
        .is_err());
    assert!(plan.inverse_blocks(&spec, &mut scratch, &mut out).is_ok());
    // Zero blocks is a valid, empty call.
    assert!(plan.forward_blocks(&[], &mut scratch, &mut []).is_ok());
}
