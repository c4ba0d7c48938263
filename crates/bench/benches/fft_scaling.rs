//! Bench behind Fig. 1: FFT vs naive DFT across sizes, plus the
//! Bluestein path for non-power-of-two lengths, plus the `f32` real FFT
//! of the block-circulant layers one block at a time (`rfft/<b>`,
//! `irfft/<b>`) and lane-batched (`fft_lanes/<b>`, `ifft_lanes/<b>`),
//! both in ns per block. Runs on the in-house harness and writes
//! `BENCH_fft_scaling.json` at the workspace root.

use ffdl::fft::{dft, BlockScratch, Complex32, Complex64, Direction, FftPlanner, RealFft, LANES};
use ffdl_bench::harness::{black_box, BenchSet};

/// Blocks per call in the real-FFT rows: four full lane groups.
const BLOCKS: usize = 4 * LANES;

fn signal(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|k| Complex64::new((k as f64 * 0.37).sin(), (k as f64 * 0.11).cos()))
        .collect()
}

fn main() {
    let mut set = BenchSet::new("fft_scaling");
    let mut planner = FftPlanner::<f64>::new();

    for exp in [4u32, 6, 8, 10] {
        let n = 1usize << exp;
        let x = signal(n);
        let plan = planner.plan_forward(n);
        let mut buf = x.clone();
        set.bench_with_size(&format!("fft/{n}"), n as u64, || {
            buf.copy_from_slice(&x);
            plan.process(black_box(&mut buf)).expect("length matches");
        });
        if n <= 256 {
            set.bench_with_size(&format!("dft/{n}"), n as u64, || {
                black_box(dft(black_box(&x), Direction::Forward));
            });
        }
    }

    for n in [121usize, 127, 500] {
        let x = signal(n);
        let plan = planner.plan_forward(n);
        let mut buf = x.clone();
        set.bench_with_size(&format!("bluestein/{n}"), n as u64, || {
            buf.copy_from_slice(&x);
            plan.process(black_box(&mut buf)).expect("length matches");
        });
    }

    for b in [8usize, 16, 64, 128, 256] {
        let plan = RealFft::<f32>::new(b);
        let bins = plan.spectrum_len();
        let x: Vec<f32> = (0..BLOCKS * b).map(|k| (k as f32 * 0.37).sin()).collect();
        let mut spectra = vec![Complex32::zero(); BLOCKS * bins];
        let (mut single, mut spec) = (Vec::new(), Vec::new());
        set.bench_per_item(&format!("rfft/{b}"), b as u64, BLOCKS as u64, || {
            for (blk, dst) in x.chunks_exact(b).zip(spectra.chunks_exact_mut(bins)) {
                plan.forward_into(black_box(blk), &mut single, &mut spec)
                    .expect("length matches");
                dst.copy_from_slice(&spec);
            }
        });
        let mut scratch = BlockScratch::new();
        set.bench_per_item(&format!("fft_lanes/{b}"), b as u64, BLOCKS as u64, || {
            plan.forward_blocks(black_box(&x), &mut scratch, &mut spectra)
                .expect("length matches");
        });
        if b == 64 {
            let mut y = vec![0.0f32; BLOCKS * b];
            let mut back = Vec::new();
            set.bench_per_item("irfft/64", 64, BLOCKS as u64, || {
                for (s, dst) in spectra.chunks_exact(bins).zip(y.chunks_exact_mut(b)) {
                    plan.inverse_into(black_box(s), &mut single, &mut back)
                        .expect("length matches");
                    dst.copy_from_slice(&back);
                }
            });
            set.bench_per_item("ifft_lanes/64", 64, BLOCKS as u64, || {
                plan.inverse_blocks(black_box(&spectra), &mut scratch, &mut y)
                    .expect("length matches");
            });
        }
    }

    set.finish().expect("write BENCH_fft_scaling.json");
}
