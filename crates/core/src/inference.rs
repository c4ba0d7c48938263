//! Inference-only spectral layer: stores `FFT(wᵢ)` instead of the weight
//! matrix, exactly as §IV-A prescribes for deployment ("we can simply keep
//! the FFT result FFT(wᵢ) ... instead of the whole matrix W").
//!
//! This is what the deployment pipeline ships to the embedded target: the
//! forward pass skips the weight-side FFTs entirely, leaving one FFT per
//! input block, the spectral MACs, and one IFFT per output block.

use crate::circulant::{tiled_product, BlockCirculantMatrix, CirculantScratch, Grid};
use crate::spectral::{SpectralKernel, Spectrum};
use ffdl_fft::Complex32;
use ffdl_nn::{wire, Layer, NnError, OpCost, Scratch};
use ffdl_tensor::Tensor;

/// Frozen block-circulant FC layer holding precomputed weight spectra.
///
/// Created from a trained [`CirculantDense`](crate::CirculantDense) (via
/// its matrix) with [`SpectralDense::from_matrix`]. Training is not
/// supported: `backward` returns an error, and the layer exposes no
/// parameters to the optimizer.
///
/// The spectra stay resident in their serialized form, one
/// `[out_blocks, in_blocks, 2·bins]` tensor of interleaved re/im pairs:
/// [`Layer::param_tensors`] hands it to the model format as is, and
/// worker clones share its buffer.
pub struct SpectralDense {
    in_dim: usize,
    out_dim: usize,
    block: usize,
    kb_in: usize,
    kb_out: usize,
    /// `FFT(w_ij)` for every block, `[out_block, in_block, 2·bin + re/im]`.
    spectra: Tensor,
    bias: Tensor,
    kernel: SpectralKernel,
    /// Per-layer FFT scratch for the forward paths (never cloned).
    infer_scratch: CirculantScratch,
}

impl SpectralDense {
    /// Freezes a block-circulant matrix and bias into spectral form.
    pub fn from_matrix(matrix: &BlockCirculantMatrix, bias: Tensor) -> Self {
        assert_eq!(
            bias.len(),
            matrix.out_dim(),
            "bias length must equal the output dimension"
        );
        let flat: Vec<f32> = matrix
            .weight_spectra_flat()
            .iter()
            .flat_map(|c| [c.re, c.im])
            .collect();
        let shape = spectra_shape(matrix.in_dim(), matrix.out_dim(), matrix.block());
        let spectra = Tensor::from_vec(flat, &shape).expect("size by construction");
        Self::with_spectra(matrix.in_dim(), matrix.out_dim(), matrix.block(), spectra, bias)
    }

    /// A layer over already-computed spectra of shape
    /// [`spectra_shape`]`(in_dim, out_dim, block)`.
    fn with_spectra(
        in_dim: usize,
        out_dim: usize,
        block: usize,
        spectra: Tensor,
        bias: Tensor,
    ) -> Self {
        Self {
            in_dim,
            out_dim,
            block,
            kb_in: in_dim.div_ceil(block),
            kb_out: out_dim.div_ceil(block),
            spectra,
            bias,
            kernel: SpectralKernel::new(block),
            infer_scratch: CirculantScratch::new(),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Block size.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Stored spectral coefficients (complex values across all blocks).
    pub fn stored_complex_values(&self) -> usize {
        self.kb_in * self.kb_out * (self.block / 2 + 1)
    }

    /// The frozen weight spectra decoded to `spectra[out_block][in_block]`
    /// — what the quantizer consumes when re-quantizing an already-frozen
    /// layer. Builds a copy; the layer itself keeps only
    /// [`SpectralDense::spectra_tensor`].
    pub fn spectra(&self) -> Vec<Vec<Spectrum>> {
        let bins = self.block / 2 + 1;
        self.spectra
            .as_slice()
            .chunks_exact(self.kb_in * 2 * bins)
            .map(|row| {
                row.chunks_exact(2 * bins)
                    .map(|spec| {
                        spec.chunks_exact(2)
                            .map(|c| Complex32::new(c[0], c[1]))
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// The spectra as the `[out_blocks, in_blocks, 2·bins]` tensor
    /// (re/im interleaved) — the on-disk form of "store FFT(w)". Shares
    /// the layer's buffer.
    pub fn spectra_tensor(&self) -> Tensor {
        self.spectra.clone()
    }

    /// The bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    fn check_input(&self, input: &Tensor) -> Result<(), NnError> {
        if input.ndim() != 2 || input.cols() != self.in_dim {
            return Err(NnError::BadInput {
                layer: "spectral_dense".into(),
                message: format!("expected [batch, {}], got {:?}", self.in_dim, input.shape()),
            });
        }
        Ok(())
    }

    /// `out = input · W + bias` through the tiled product, multiplying
    /// by the resident spectra; `out` holds `[batch, out_dim]`.
    fn product(&mut self, input: &Tensor, out: &mut [f32]) {
        let grid = Grid {
            in_dim: self.in_dim,
            kb_in: self.kb_in,
            kb_out: self.kb_out,
        };
        let (bins2, out_dim) = (2 * (self.block / 2 + 1), self.out_dim);
        let row_len = self.kb_in * bins2;
        let spectra = self.spectra.as_slice();
        let bias = self.bias.as_slice();
        let mac = |i: usize, acc: &mut [Complex32], x: &[Complex32]| {
            let w_row = &spectra[i * row_len..(i + 1) * row_len];
            for (w, x_j) in w_row.chunks_exact(bins2).zip(x.chunks_exact(acc.len())) {
                SpectralKernel::mul_accumulate_interleaved(acc, w, x_j);
            }
        };
        tiled_product(
            &self.kernel,
            grid,
            input.rows(),
            &mut self.infer_scratch,
            |s, row| row.copy_from_slice(input.row(s)),
            mac,
            |s, y, _| {
                for ((o, v), b) in out[s * out_dim..(s + 1) * out_dim]
                    .iter_mut()
                    .zip(y)
                    .zip(bias)
                {
                    *o = v + b;
                }
            },
        );
    }
}

impl Layer for SpectralDense {
    fn type_tag(&self) -> &'static str {
        "spectral_dense"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        self.check_input(input)?;
        let mut out = Tensor::zeros(&[input.rows(), self.out_dim]);
        self.product(input, out.as_mut_slice());
        Ok(out)
    }

    fn forward_infer(&mut self, input: &Tensor, scratch: &mut Scratch) -> Result<Tensor, NnError> {
        self.check_input(input)?;
        let mut out = scratch.take(&[input.rows(), self.out_dim]);
        self.product(input, out.as_mut_slice());
        Ok(out)
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Self {
            in_dim: self.in_dim,
            out_dim: self.out_dim,
            block: self.block,
            kb_in: self.kb_in,
            kb_out: self.kb_out,
            spectra: self.spectra.clone(),
            bias: self.bias.clone(),
            kernel: self.kernel.clone(),
            infer_scratch: CirculantScratch::new(),
        }))
    }

    fn backward(&mut self, _grad_output: &Tensor) -> Result<Tensor, NnError> {
        Err(NnError::BadInput {
            layer: "spectral_dense".into(),
            message: "inference-only layer does not support backward; train with \
                      CirculantDense and freeze afterwards"
                .into(),
        })
    }

    fn param_count(&self) -> usize {
        // Two reals per stored complex bin, plus bias.
        2 * self.stored_complex_values() + self.out_dim
    }

    fn logical_param_count(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }

    fn op_cost(&self) -> OpCost {
        // No weight-side FFTs: input FFTs + spectral MACs + output IFFTs.
        let b = self.block as u64;
        let bins = (self.block / 2 + 1) as u64;
        let kb_in = self.kb_in as u64;
        let kb_out = self.kb_out as u64;
        let log_b = (64 - b.leading_zeros() as u64).max(1);
        let fft_mults = b * log_b;
        let mults = (kb_in + kb_out) * fft_mults + kb_in * kb_out * bins * 4;
        OpCost {
            mults,
            adds: mults + self.out_dim as u64,
            nonlin: 0,
            param_reads: self.param_count() as u64,
            act_traffic: (self.in_dim + self.out_dim) as u64,
        }
    }

    fn config_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        for v in [self.in_dim, self.out_dim, self.block] {
            wire::write_u32(&mut buf, v as u32).expect("vec write is infallible");
        }
        buf
    }

    fn param_tensors(&self) -> Vec<&Tensor> {
        vec![&self.spectra, &self.bias]
    }

    fn load_params(&mut self, params: &[Tensor]) -> Result<(), NnError> {
        if params.len() != 2 {
            return Err(NnError::ModelFormat(
                "spectral_dense expects [spectra, bias]".into(),
            ));
        }
        if params[0].shape() != spectra_shape(self.in_dim, self.out_dim, self.block)
            || params[1].shape() != [self.out_dim]
        {
            return Err(NnError::ModelFormat(
                "spectral_dense parameter shapes do not match".into(),
            ));
        }
        self.spectra = params[0].clone();
        self.bias = params[1].clone();
        Ok(())
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Reconstructs an (empty) [`SpectralDense`] from its config blob.
///
/// # Errors
///
/// Returns [`NnError::ModelFormat`]/[`NnError::Io`] on malformed config.
pub fn spectral_dense_from_config(mut config: &[u8]) -> Result<Box<dyn Layer>, NnError> {
    let in_dim = wire::read_u32(&mut config)? as usize;
    let out_dim = wire::read_u32(&mut config)? as usize;
    let block = wire::read_u32(&mut config)? as usize;
    BlockCirculantMatrix::validate(in_dim, out_dim, block)
        .map_err(|e| NnError::ModelFormat(e.to_string()))?;
    // Zero spectra stand in until `load_params` replaces them.
    Ok(Box::new(SpectralDense::with_spectra(
        in_dim,
        out_dim,
        block,
        Tensor::zeros(&spectra_shape(in_dim, out_dim, block)),
        Tensor::zeros(&[out_dim]),
    )))
}

/// Shape of the resident (and serialized) spectra tensor:
/// `[out_blocks, in_blocks, 2·(b/2 + 1)]`.
fn spectra_shape(in_dim: usize, out_dim: usize, block: usize) -> [usize; 3] {
    [out_dim.div_ceil(block), in_dim.div_ceil(block), 2 * (block / 2 + 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_layer::CirculantDense;
    use ffdl_rng::rngs::SmallRng;
    use ffdl_rng::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(23)
    }

    fn input(batch: usize, dim: usize) -> Tensor {
        Tensor::from_fn(&[batch, dim], |i| ((i * 13 + 1) % 29) as f32 * 0.05 - 0.7)
    }

    #[test]
    fn frozen_layer_matches_training_layer() {
        let mut trained = CirculantDense::new(12, 8, 4, &mut rng()).unwrap();
        let mut frozen = SpectralDense::from_matrix(trained.matrix(), trained.bias().clone());
        let x = input(3, 12);
        let y_train = trained.forward(&x).unwrap();
        let y_frozen = frozen.forward(&x).unwrap();
        for (a, v) in y_train.as_slice().iter().zip(y_frozen.as_slice()) {
            assert!((a - v).abs() < 1e-4, "{a} vs {v}");
        }
    }

    #[test]
    fn backward_is_rejected() {
        let m = BlockCirculantMatrix::zeros(4, 4, 2).unwrap();
        let mut layer = SpectralDense::from_matrix(&m, Tensor::zeros(&[4]));
        assert!(layer.backward(&Tensor::zeros(&[1, 4])).is_err());
        assert!(layer.parameters().is_empty());
    }

    #[test]
    fn storage_accounting() {
        let m = BlockCirculantMatrix::zeros(128, 128, 64).unwrap();
        let layer = SpectralDense::from_matrix(&m, Tensor::zeros(&[128]));
        assert_eq!(layer.stored_complex_values(), 2 * 2 * 33);
        // Still dramatically below the dense 128·128.
        assert!(layer.param_count() < layer.logical_param_count() / 10);
    }

    #[test]
    fn serialization_roundtrip() {
        let m = BlockCirculantMatrix::random(10, 6, 4, &mut rng()).unwrap();
        let mut layer = SpectralDense::from_matrix(&m, Tensor::from_fn(&[6], |i| i as f32 * 0.1));
        let mut rebuilt = spectral_dense_from_config(&layer.config_bytes()).unwrap();
        rebuilt
            .load_params(&[layer.spectra_tensor(), layer.bias().clone()])
            .unwrap();
        let x = input(2, 10);
        let y1 = layer.forward(&x).unwrap();
        let y2 = rebuilt.forward(&x).unwrap();
        for (a, v) in y1.as_slice().iter().zip(y2.as_slice()) {
            assert!((a - v).abs() < 1e-5);
        }
    }

    #[test]
    fn spectra_are_held_once_in_wire_form() {
        let m = BlockCirculantMatrix::random(10, 6, 4, &mut rng()).unwrap();
        let layer = SpectralDense::from_matrix(&m, Tensor::zeros(&[6]));
        let params = layer.param_tensors();
        assert_eq!(params.len(), 2);
        assert_eq!(params[0].shape(), &[2, 3, 6]);
        // The serialized tensor is the resident one, not a copy.
        assert!(params[0].shares_buffer(&layer.spectra_tensor()));
        let decoded = layer.spectra();
        assert_eq!(decoded, m.weight_spectra());
        // Worker clones share it too.
        let clone = layer.clone_layer().unwrap();
        assert!(clone.param_tensors()[0].shares_buffer(params[0]));
    }

    #[test]
    fn load_params_validates() {
        let m = BlockCirculantMatrix::zeros(8, 4, 4).unwrap();
        let mut layer = SpectralDense::from_matrix(&m, Tensor::zeros(&[4]));
        assert!(layer.load_params(&[]).is_err());
        assert!(layer
            .load_params(&[Tensor::zeros(&[1, 1, 1]), Tensor::zeros(&[4])])
            .is_err());
    }

    #[test]
    fn forward_validates_input() {
        let m = BlockCirculantMatrix::zeros(8, 4, 4).unwrap();
        let mut layer = SpectralDense::from_matrix(&m, Tensor::zeros(&[4]));
        assert!(layer.forward(&Tensor::zeros(&[2, 7])).is_err());
    }

    #[test]
    fn spectral_op_cost_cheaper_than_training_layer() {
        let mut r = rng();
        let trained = CirculantDense::new(512, 512, 64, &mut r).unwrap();
        let frozen = SpectralDense::from_matrix(trained.matrix(), trained.bias().clone());
        assert!(frozen.op_cost().mults < trained.op_cost().mults);
    }
}
