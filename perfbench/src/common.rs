//! Inputs, models and helpers shared by the workloads. Every input and
//! every weight comes from the run's seed, so one seed always yields the
//! same models and the same request stream.

use ffdl::paper;
use ffdl_core::CirculantGru;
use ffdl_data::{mnist_preprocess, synthetic_cifar, synthetic_mnist, CifarConfig, MnistConfig};
use ffdl_nn::{Dense, Network, Softmax};
use ffdl_rng::{splitmix64_mix, SeedableRng, SmallRng};
use ffdl_tensor::Tensor;
use std::path::PathBuf;
use std::time::Instant;

/// Error type of the benchmark: anything that stops a run.
pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Independent random streams derived from one run seed.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// Model weights.
    Weights = 1,
    /// Input images.
    Inputs = 2,
    /// Request order and arrival times.
    Requests = 3,
}

/// The seed of one stream of a run.
pub fn sub_seed(seed: u64, stream: Stream) -> u64 {
    splitmix64_mix(seed ^ (stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A seeded generator for one stream of a run.
pub fn rng(seed: u64, stream: Stream) -> SmallRng {
    SmallRng::seed_from_u64(sub_seed(seed, stream))
}

/// `n` synthetic MNIST digits preprocessed to Arch. 1's 256 features
/// (16×16 bilinear resize + standardisation), one `[256]` tensor each.
pub fn mnist_pool(seed: u64, n: usize) -> Res<Vec<Tensor>> {
    let raw = synthetic_mnist(n, &MnistConfig::default(), &mut rng(seed, Stream::Inputs))?;
    let ds = mnist_preprocess(&raw, 16)?;
    Ok((0..n)
        .map(|i| Tensor::from_slice(ds.inputs().row(i)))
        .collect())
}

/// `n` synthetic CIFAR images, one `[3, 32, 32]` tensor each.
pub fn cifar_pool(seed: u64, n: usize) -> Res<Vec<Tensor>> {
    let ds = synthetic_cifar(n, &CifarConfig::default(), &mut rng(seed, Stream::Inputs))?;
    let plane = 3 * 32 * 32;
    let flat = ds.inputs().as_slice();
    Ok((0..n)
        .map(|i| {
            Tensor::from_vec(flat[i * plane..(i + 1) * plane].to_vec(), &[3, 32, 32])
                .expect("plane size by construction")
        })
        .collect())
}

/// The `[1, d]` view of a `[d]` sample, as `InferenceEngine::predict`
/// takes it.
pub fn as_batch(sample: &Tensor) -> Tensor {
    let mut shape = vec![1];
    shape.extend_from_slice(sample.shape());
    sample.reshape(&shape).expect("same element count")
}

/// Arch. 1 in training form (block-circulant FC, block 64).
pub fn arch1(seed: u64) -> Network {
    paper::arch1(sub_seed(seed, Stream::Weights))
}

/// Arch. 3 in training form.
pub fn arch3(seed: u64) -> Network {
    paper::arch3(sub_seed(seed, Stream::Weights))
}

/// Token width of the streaming model: one 16-pixel row of a 16×16 digit.
pub const GRU_IN: usize = 16;
/// Hidden width of the streaming model.
pub const GRU_HIDDEN: usize = 64;
/// Circulant block of the streaming model (the small-`b` FFT path).
pub const GRU_BLOCK: usize = 8;

/// The streaming model: a block-circulant GRU reading a digit row by row,
/// then a dense classifier and softmax.
pub fn gru_model(seed: u64) -> Res<Network> {
    let mut rng = rng(seed, Stream::Weights);
    let mut net = Network::new();
    net.push(CirculantGru::new(GRU_IN, GRU_HIDDEN, GRU_BLOCK, &mut rng)?);
    net.push(Dense::new(GRU_HIDDEN, 10, &mut rng));
    net.push(Softmax::new());
    Ok(net)
}

/// The rows of `images` (each `[256]`, a 16×16 digit) as `[16]` tokens,
/// image after image.
pub fn gru_tokens(images: &[Tensor]) -> Vec<Tensor> {
    images
        .iter()
        .flat_map(|img| {
            img.as_slice()
                .chunks_exact(GRU_IN)
                .map(Tensor::from_slice)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Runs `build` `repeats` times, returning the last result and every
/// build's wall time in seconds.
pub fn timed_setups<T>(repeats: usize, mut build: impl FnMut() -> Res<T>) -> Res<(T, Vec<f64>)> {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // Drop the previous build before the next one is timed, so every
        // build starts with the same memory in use.
        drop(last.take());
        let t = Instant::now();
        let built = build()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("at least one setup"), times))
}

/// How `peak_rss_mb` is taken. It is read after set-up and warm-up: the
/// answers a server buffers during the timed run grow with run length and
/// with how fast the host happened to be, which would make the peak a
/// measure of the host rather than of the deployment.
pub const RSS_NOTE: &str = "VmHWM after set-up and warm-up (models, store, server)";

/// Peak resident set of this process, MB (`VmHWM`), or NaN where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Whether two float slices are equal bit for bit.
pub fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Index of the largest value (first on ties), as the deploy engine picks
/// its label.
pub fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .fold((0, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
            if v > bv {
                (i, v)
            } else {
                (bi, bv)
            }
        })
        .0
}

/// A temporary directory inside the working directory for model stores,
/// removed when dropped.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Creates `.bench_run/<tag>-<pid>` under the working directory.
    pub fn new(tag: &str) -> Res<Self> {
        let path = std::env::current_dir()?
            .join(".bench_run")
            .join(format!("{tag}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave the parent only if another run is not using it.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The host's logical core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
