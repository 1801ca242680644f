//! Property tests for the neural-network substrate: shape algebra,
//! equivalence of the blocked convolution lowering with the whole-batch
//! im2col lowering it replaced, loss-gradient validity and capture
//! invariants across randomized layer configurations.

use kfac_nn::lowering::{conv_out_dim, BLOCK};
use kfac_nn::{layer::Mode, Conv2d, CrossEntropyLoss, KfacEligible, Layer, Linear};
use kfac_tensor::{Matrix, Rng64, Tensor4};
use proptest::prelude::*;

/// The lowering `Conv2d` used before patch blocks, kept as the oracle:
/// one position-major patch matrix for the whole batch
/// (`(n·oh·ow) × (c·k·k)`, built element by element), one GEMM per
/// product over all of it, element-wise transposes between NCHW and GEMM
/// rows, and a position-by-position `col2im`.
mod oracle {
    use super::*;

    pub fn im2col(input: &Tensor4, k: usize, stride: usize, pad: usize) -> Matrix {
        let (n, c, h, w) = input.shape();
        let (oh, ow) = (
            conv_out_dim(h, k, stride, pad),
            conv_out_dim(w, k, stride, pad),
        );
        let mut out = Matrix::zeros(n * oh * ow, c * k * k);
        for ni in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = out.row_mut((ni * oh + oy) * ow + ox);
                    let mut col = 0;
                    for ci in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                let inside =
                                    iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w;
                                if inside {
                                    row[col] = input.at(ni, ci, iy as usize, ix as usize);
                                }
                                col += 1;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    pub fn col2im(
        cols: &Matrix,
        (n, c, h, w): (usize, usize, usize, usize),
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Tensor4 {
        let (oh, ow) = (
            conv_out_dim(h, k, stride, pad),
            conv_out_dim(w, k, stride, pad),
        );
        let mut out = Tensor4::zeros(n, c, h, w);
        for ni in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = cols.row((ni * oh + oy) * ow + ox);
                    let mut col = 0;
                    for ci in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                    *out.at_mut(ni, ci, iy as usize, ix as usize) += row[col];
                                }
                                col += 1;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// NCHW → GEMM rows `(n·oh·ow) × c`.
    pub fn grad_to_rows(grad: &Tensor4) -> Matrix {
        let (n, c, oh, ow) = grad.shape();
        let mut m = Matrix::zeros(n * oh * ow, c);
        for ni in 0..n {
            for ci in 0..c {
                for (pos, &v) in grad.plane(ni, ci).iter().enumerate() {
                    m[(ni * oh * ow + pos, ci)] = v;
                }
            }
        }
        m
    }

    /// GEMM rows `(n·oh·ow) × c` → NCHW.
    pub fn rows_to_tensor(rows: &Matrix, n: usize, c: usize, oh: usize, ow: usize) -> Tensor4 {
        let mut t = Tensor4::zeros(n, c, oh, ow);
        for ni in 0..n {
            for ci in 0..c {
                for (pos, v) in t.plane_mut(ni, ci).iter_mut().enumerate() {
                    *v = rows[(ni * oh * ow + pos, ci)];
                }
            }
        }
        t
    }

    /// Everything one forward/backward of the old layer produced, from
    /// zeroed parameter gradients.
    pub struct Pass {
        pub y: Tensor4,
        pub dw: Vec<f32>,
        pub db: Vec<f32>,
        pub dx: Tensor4,
        /// Bias-augmented patch rows and batch-scaled gradient rows: the
        /// matrices whose Grams are the K-FAC factors.
        pub a_rows: Matrix,
        pub g_rows: Matrix,
    }

    #[allow(clippy::too_many_arguments)]
    pub fn pass(
        x: &Tensor4,
        weight: &Matrix,
        bias: Option<&[f32]>,
        gy: &Tensor4,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Pass {
        let n = x.n();
        let (_, c_out, oh, ow) = gy.shape();
        let cols = im2col(x, k, stride, pad);
        let mut y_rows = cols.matmul_nt(weight);
        if let Some(b) = bias {
            for r in 0..y_rows.rows() {
                for (v, &bj) in y_rows.row_mut(r).iter_mut().zip(b) {
                    *v += bj;
                }
            }
        }
        let gy_rows = grad_to_rows(gy);
        let mut dw = vec![0.0f32; weight.len()];
        for (d, &v) in dw.iter_mut().zip(gy_rows.matmul_tn(&cols).as_slice()) {
            *d += v;
        }
        let mut db = vec![0.0f32; c_out];
        for r in 0..gy_rows.rows() {
            for (b, &v) in db.iter_mut().zip(gy_rows.row(r)) {
                *b += v;
            }
        }
        let dx = col2im(&gy_rows.matmul(weight), x.shape(), k, stride, pad);

        let extra = usize::from(bias.is_some());
        let mut a_rows = Matrix::zeros(cols.rows(), cols.cols() + extra);
        for r in 0..cols.rows() {
            a_rows.row_mut(r)[..cols.cols()].copy_from_slice(cols.row(r));
            if extra == 1 {
                a_rows.row_mut(r)[cols.cols()] = 1.0;
            }
        }
        let mut g_rows = gy_rows.clone();
        g_rows.scale(n as f32);
        Pass {
            y: rows_to_tensor(&y_rows, n, c_out, oh, ow),
            dw,
            db,
            dx,
            a_rows,
            g_rows,
        }
    }
}

/// Direct nested-loop convolution in f64.
fn direct_conv(
    x: &Tensor4,
    weight: &Matrix,
    bias: Option<&[f32]>,
    k: usize,
    stride: usize,
    pad: usize,
) -> Vec<f64> {
    let (n, c, h, w) = x.shape();
    let (oh, ow) = (
        conv_out_dim(h, k, stride, pad),
        conv_out_dim(w, k, stride, pad),
    );
    let mut out = Vec::with_capacity(n * weight.rows() * oh * ow);
    for ni in 0..n {
        for co in 0..weight.rows() {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias.map_or(0.0, |b| b[co] as f64);
                    for ci in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * stride + ky) as isize - pad as isize;
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                                    acc += x.at(ni, ci, iy as usize, ix as usize) as f64
                                        * weight[(co, (ci * k + ky) * k + kx)] as f64;
                                }
                            }
                        }
                    }
                    out.push(acc);
                }
            }
        }
    }
    out
}

/// A conv layer with random weights (and bias), and copies of both.
fn random_conv(
    c_in: usize,
    c_out: usize,
    k: usize,
    stride: usize,
    pad: usize,
    bias: bool,
    seed: u64,
) -> (Conv2d, Matrix, Option<Vec<f32>>) {
    let mut rng = Rng64::new(seed);
    let mut conv = Conv2d::new("c", c_in, c_out, k, stride, pad, bias, &mut rng);
    let mut weight = Matrix::zeros(0, 0);
    let mut bias_v = None;
    conv.visit_params("", &mut |name, value, _| {
        if name.ends_with("bias") {
            // Conv2d starts biases at zero; make them count.
            value.iter_mut().for_each(|b| *b = rng.normal_f32());
            bias_v = Some(value.to_vec());
        } else {
            weight = Matrix::from_vec(c_out, c_in * k * k, value.to_vec());
        }
    });
    (conv, weight, bias_v)
}

/// `(grad_weight, grad_bias)` of a conv layer.
fn conv_grads(conv: &mut Conv2d) -> (Vec<f32>, Vec<f32>) {
    let (mut dw, mut db) = (Vec::new(), Vec::new());
    conv.visit_params("", &mut |name, _, grad| {
        if name.ends_with("bias") {
            db = grad.to_vec();
        } else {
            dw = grad.to_vec();
        }
    });
    (dw, db)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn random_tensor(n: usize, c: usize, h: usize, w: usize, seed: u64) -> Tensor4 {
    let mut rng = Rng64::new(seed);
    Tensor4::from_vec(
        n,
        c,
        h,
        w,
        (0..n * c * h * w).map(|_| rng.normal_f32()).collect(),
    )
}

/// One forward/backward of a random `Conv2d` against the oracle.
///
/// Equality with the old lowering is **bitwise** for the output, the
/// weight and bias gradients and the input gradient: every product
/// reduces over the same `KC`-deep pieces in the same order (a block is
/// one such piece of the position dimension), and the scatter adds each
/// pixel's contributions in the old `(oy, ox)` order. Against the f64
/// direct convolution the bound is 1e-4 of the largest output (f32 sums
/// of at most 37 products). Returns the number of output positions.
#[allow(clippy::too_many_arguments)]
fn check_conv_against_oracle(
    (c_in, c_out): (usize, usize),
    (k, stride, pad): (usize, usize, usize),
    (n, h, w): (usize, usize, usize),
    bias: bool,
    seed: u64,
) -> usize {
    let (mut conv, weight, bias_v) = random_conv(c_in, c_out, k, stride, pad, bias, seed);
    let x = random_tensor(n, c_in, h, w, seed ^ 1);
    let y = conv.forward(&x, Mode::Train);
    let gy = random_tensor(n, c_out, y.h(), y.w(), seed ^ 2);
    conv.zero_grad();
    let dx = conv.backward(&gy);
    let (dw, db) = conv_grads(&mut conv);

    let old = oracle::pass(&x, &weight, bias_v.as_deref(), &gy, k, stride, pad);
    assert_eq!(y.shape(), old.y.shape());
    assert_eq!(bits(y.as_slice()), bits(old.y.as_slice()), "forward");
    assert_eq!(bits(&dw), bits(&old.dw), "weight gradient");
    if bias {
        assert_eq!(bits(&db), bits(&old.db), "bias gradient");
    }
    assert_eq!(
        bits(dx.as_slice()),
        bits(old.dx.as_slice()),
        "input gradient"
    );

    let direct = direct_conv(&x, &weight, bias_v.as_deref(), k, stride, pad);
    let scale = direct.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    for (&got, &want) in y.as_slice().iter().zip(&direct) {
        assert!((got as f64 - want).abs() <= 1e-4 * scale, "{got} vs {want}");
    }
    // Evaluation forwards take the same path.
    let eval = conv.forward(&x, Mode::Eval);
    assert_eq!(bits(eval.as_slice()), bits(y.as_slice()), "eval forward");
    y.len() / c_out
}

/// `(n, h, w)` of a property-test convolution, from a family and three
/// raw draws: half the cases batches of up to 7 over 4–11 planes (up to
/// four blocks with ragged ends); then planes of side 1–3 in batches of up
/// to 40, so one block holds many whole samples (`kfac_steady`'s last
/// stage runs 2×2 planes); then 16–17 planes, each sample spanning blocks.
fn conv_shape((family, n, h, w): (usize, usize, usize, usize)) -> (usize, usize, usize) {
    match family {
        0 | 1 => (1 + n % 7, 4 + h % 8, 4 + w % 8),
        2 => (1 + n, 1 + h % 3, 1 + w % 3),
        _ => (1 + n % 3, 16 + h % 2, 16 + w % 2),
    }
}

/// Batches that do not divide the block: the first block boundary falls
/// inside a sample and inside an output row (405 = 3·128 + 21 positions,
/// 128 = 81 + 47), at a sample boundary of a strided layer, in a
/// pointwise projection, after 32 whole 2×2 samples, and inside a 16×17
/// plane downsampled by stride 2.
#[test]
fn conv_matches_im2col_across_ragged_block_boundaries() {
    for pool in [1, 2] {
        rayon::set_pool_threads(pool);
        for (chans, kernel, shape) in [
            ((3, 4), (3, 1, 1), (5, 9, 9)),
            ((2, 5), (3, 2, 1), (19, 7, 9)),
            ((4, 3), (1, 2, 0), (7, 13, 11)),
            ((2, 2), (3, 1, 0), (6, 10, 9)),
            ((4, 3), (3, 1, 1), (41, 2, 2)),
            ((3, 2), (3, 2, 1), (3, 16, 17)),
        ] {
            for bias in [false, true] {
                let positions = check_conv_against_oracle(chans, kernel, shape, bias, 99);
                assert!(
                    positions > BLOCK && !positions.is_multiple_of(BLOCK),
                    "{positions}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `output_shape` always agrees with the actual forward output.
    #[test]
    fn conv_output_shape_consistent(
        c_in in 1usize..4,
        c_out in 1usize..4,
        k in 1usize..4,
        stride in 1usize..3,
        hw in 4usize..9,
        seed in any::<u64>(),
    ) {
        let pad = k / 2;
        let mut rng = Rng64::new(seed);
        let mut conv = Conv2d::new("c", c_in, c_out, k, stride, pad, false, &mut rng);
        let x = random_tensor(2, c_in, hw, hw, seed);
        let expect = conv.output_shape((2, c_in, hw, hw));
        let y = conv.forward(&x, Mode::Eval);
        prop_assert_eq!(y.shape(), expect);
    }

    /// The blocked lowering equals the whole-batch im2col lowering (see
    /// `check_conv_against_oracle` for the bounds) over k ∈ {1, 3},
    /// stride ∈ {1, 2}, pad ∈ {0, 1, 2} (2 pads past "same": whole rows
    /// and columns of padding), odd and even H/W, bias on/off,
    /// pool sizes 1 and 2, and the plane sizes of [`conv_shape`]: one to
    /// four blocks with ragged ends, blocks that each hold many whole
    /// samples, and samples that each span blocks.
    #[test]
    fn blocked_conv_equals_im2col_conv(
        chans in (1usize..5, 1usize..5),
        k3 in any::<bool>(),
        stride in 1usize..3,
        pad in 0usize..3,
        shape in (0usize..4, 0usize..40, 0usize..64, 0usize..64).prop_map(conv_shape),
        bias in any::<bool>(),
        pool in 1usize..3,
        seed in any::<u64>(),
    ) {
        rayon::set_pool_threads(pool);
        let k = if k3 { 3 } else { 1 };
        let (_, h, w) = shape;
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        check_conv_against_oracle(chans, (k, stride, pad), shape, bias, seed);
    }

    /// `compute_factors()` is the Gram of the oracle's patch matrix
    /// (bias-augmented) and gradient rows, bitwise: summing per-block
    /// Grams is the GEMM's own reduction order.
    #[test]
    fn conv_factors_are_the_patch_matrix_grams(
        c_in in 1usize..5,
        c_out in 1usize..5,
        k3 in any::<bool>(),
        stride in 1usize..3,
        hw in 5usize..12,
        n in 1usize..8,
        bias in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let k = if k3 { 3 } else { 1 };
        let pad = k / 2;
        let (mut conv, weight, bias_v) = random_conv(c_in, c_out, k, stride, pad, bias, seed);
        let x = random_tensor(n, c_in, hw, hw + 1, seed ^ 1);
        conv.set_capture(true);
        let y = conv.forward(&x, Mode::Train);
        prop_assert!(!conv.has_capture(), "half a capture is not a capture");
        let gy = random_tensor(n, c_out, y.h(), y.w(), seed ^ 2);
        let _ = conv.backward(&gy);
        prop_assert!(conv.has_capture());
        let (a, g) = conv.compute_factors();

        let old = oracle::pass(&x, &weight, bias_v.as_deref(), &gy, k, stride, pad);
        let m = old.a_rows.rows() as f32;
        let (mut want_a, mut want_g) = (old.a_rows.gram(), old.g_rows.gram());
        want_a.scale(1.0 / m);
        want_g.scale(1.0 / m);
        prop_assert_eq!(a.shape(), want_a.shape());
        prop_assert_eq!(bits(a.as_slice()), bits(want_a.as_slice()));
        prop_assert_eq!(bits(g.as_slice()), bits(want_g.as_slice()));

        // The capture is the layer's own: later passes that do not
        // capture — training or evaluation, on other data — leave it be.
        conv.set_capture(false);
        let x2 = random_tensor(n + 1, c_in, hw, hw + 1, seed ^ 3);
        let y2 = conv.forward(&x2, Mode::Train);
        let _ = conv.backward(&random_tensor(n + 1, c_out, y2.h(), y2.w(), seed ^ 4));
        let _ = conv.forward(&x2, Mode::Eval);
        prop_assert!(conv.has_capture());
        let (a_later, g_later) = conv.compute_factors();
        prop_assert_eq!(bits(a_later.as_slice()), bits(a.as_slice()));
        prop_assert_eq!(bits(g_later.as_slice()), bits(g.as_slice()));

        // Re-enabling capture drops the old one; the same pass then sums
        // the same factors again.
        conv.set_capture(true);
        prop_assert!(!conv.has_capture(), "re-enabling drops the old capture");
        let _ = conv.forward(&x, Mode::Train);
        let _ = conv.backward(&gy);
        let (a_again, g_again) = conv.compute_factors();
        prop_assert_eq!(bits(a_again.as_slice()), bits(a.as_slice()));
        prop_assert_eq!(bits(g_again.as_slice()), bits(g.as_slice()));
        prop_assert_eq!(a_again.asymmetry(), 0.0);
    }

    /// Conv out-dims follow the standard formula for all valid configs.
    #[test]
    fn out_dim_formula_bounds(
        input in 1usize..64,
        k in 1usize..8,
        stride in 1usize..4,
        pad in 0usize..4,
    ) {
        prop_assume!(input + 2 * pad >= k);
        let o = conv_out_dim(input, k, stride, pad);
        prop_assert!(o >= 1);
        // The last window must fit.
        prop_assert!((o - 1) * stride + k <= input + 2 * pad);
        prop_assert!(o * stride + k > input + 2 * pad);
    }

    /// Cross-entropy gradient always sums to ~0 per sample and points
    /// uphill w.r.t. the loss (positive inner product with itself).
    #[test]
    fn loss_gradient_properties(
        logits in proptest::collection::vec(-5.0f32..5.0, 12),
        smoothing in 0.0f32..0.3,
        t0 in 0usize..4,
        t1 in 0usize..4,
        t2 in 0usize..4,
    ) {
        let loss = CrossEntropyLoss::with_smoothing(smoothing);
        let t = Tensor4::from_vec(3, 4, 1, 1, logits);
        let (l, g) = loss.forward(&t, &[t0, t1, t2]);
        prop_assert!(l.is_finite() && l >= 0.0);
        for i in 0..3 {
            let s: f32 = g.as_slice()[i * 4..(i + 1) * 4].iter().sum();
            prop_assert!(s.abs() < 1e-5, "per-sample gradient sum {s}");
        }
    }

    /// Linear capture: factor shapes always match `factor_dims`, and the
    /// grad-matrix round-trip is exact.
    #[test]
    fn linear_capture_and_roundtrip(
        in_f in 1usize..8,
        out_f in 1usize..8,
        bias in any::<bool>(),
        batch in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng64::new(seed);
        let mut l = Linear::new("fc", in_f, out_f, bias, &mut rng);
        l.set_capture(true);
        let x = random_tensor(batch, in_f, 1, 1, seed);
        let y = l.forward(&x, Mode::Train);
        let gy = random_tensor(batch, out_f, 1, 1, seed ^ 1);
        let _ = l.backward(&gy);
        prop_assert!(l.has_capture());
        let (a, g) = l.compute_factors();
        let (da, dg) = l.factor_dims();
        prop_assert_eq!(a.shape(), (da, da));
        prop_assert_eq!(g.shape(), (dg, dg));
        prop_assert_eq!(a.asymmetry(), 0.0);

        let gm = l.grad_matrix();
        l.set_grad_matrix(&gm);
        let gm2 = l.grad_matrix();
        prop_assert_eq!(gm, gm2);
        let _ = y;
    }
}
