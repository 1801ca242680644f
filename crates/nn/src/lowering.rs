//! Cache-blocked convolution lowering: convolution as a sequence of small
//! matrix products over *patch blocks*.
//!
//! The output positions of a convolution, in `(n, oy, ox)` order, are cut
//! into blocks of [`BLOCK`] consecutive positions. For each block the
//! layer builds the *patch matrix* `P_b` — one row per `(c, ky, kx)`
//! kernel tap, one column per position, so **feature-major** (K-major):
//! `c·k·k` rows × `BLOCK` columns — and multiplies against it while it is
//! still cache-resident: `W·P_b` (forward), `gy_b·P_bᵀ` (weight
//! gradient), `Wᵀ·gy_b` scattered back to the input (input gradient).
//!
//! Feature-major is what makes the surrounding data movement cheap:
//!
//! * a patch row is built from **row runs** — for one tap, one output row
//!   is one contiguous (stride 1) or strided run of one input row, so
//!   patches are copied a run at a time, not gathered element by element;
//! * the product `W·P_b` is `c_out × positions`, i.e. channel-major: a
//!   sample's share of it *is* its NCHW output planes, so results move in
//!   and out of tensors by run copies too ([`gather_block`],
//!   [`scatter_block`]) and no transposed copy of a tensor ever exists.
//!
//! `P` is also exactly the expanded-activation matrix of Grosse &
//! Martens' convolutional factorization (the paper's \[33\]), transposed:
//! the activation factor is `A = Σ_b P_b·P_bᵀ / positions`. Because
//! [`BLOCK`] is the GEMM's reduction depth `KC`, that sum of per-block
//! Grams — which `Conv2d::backward` adds up while it holds each block —
//! is bit-identical to one Gram over the whole patch matrix (see
//! `kfac_tensor::gemm::gemm_upper_into`).

use kfac_tensor::gemm::KC;
use kfac_tensor::Tensor4;
use std::ops::Range;

/// Positions per patch block: the GEMM's reduction depth, so that a
/// product reduced block by block accumulates in the GEMM's own order.
pub const BLOCK: usize = KC;

/// Output spatial size for one dimension.
#[inline]
pub fn conv_out_dim(input: usize, k: usize, stride: usize, pad: usize) -> usize {
    assert!(input + 2 * pad >= k, "kernel larger than padded input");
    (input + 2 * pad - k) / stride + 1
}

/// Shape of one convolution call: input `(n, c, h, w)`, square `k×k`
/// kernel, and the output plane `oh × ow` that follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    pub n: usize,
    pub c: usize,
    pub h: usize,
    pub w: usize,
    pub k: usize,
    pub stride: usize,
    pub pad: usize,
    pub oh: usize,
    pub ow: usize,
}

/// The part of one output row that falls inside a block: positions
/// `ox..ox + len` of output row `oy` of sample `ni`, at column `at` of
/// the block.
struct RowRun {
    ni: usize,
    oy: usize,
    ox: usize,
    len: usize,
    at: usize,
}

impl RowRun {
    /// The run's columns that lie in `valid` (the others read padding).
    fn clip(&self, valid: &Range<usize>) -> Range<usize> {
        let lo = valid.start.clamp(self.ox, self.ox + self.len);
        lo..valid.end.clamp(lo, self.ox + self.len)
    }
}

impl Geometry {
    /// Geometry of a `k×k` / `stride` / `pad` convolution over `in_shape`.
    pub fn new(
        in_shape: (usize, usize, usize, usize),
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        let (n, c, h, w) = in_shape;
        Geometry {
            n,
            c,
            h,
            w,
            k,
            stride,
            pad,
            oh: conv_out_dim(h, k, stride, pad),
            ow: conv_out_dim(w, k, stride, pad),
        }
    }

    /// Output positions over the whole batch, `n · oh · ow`.
    pub fn positions(&self) -> usize {
        self.n * self.oh * self.ow
    }

    /// Patch features, `c · k · k`.
    pub fn fan_in(&self) -> usize {
        self.c * self.k * self.k
    }

    /// Input shape `(n, c, h, w)`.
    pub fn in_shape(&self) -> (usize, usize, usize, usize) {
        (self.n, self.c, self.h, self.w)
    }

    /// The output-row runs covering positions `q`, in order.
    fn row_runs(&self, q: Range<usize>) -> impl Iterator<Item = RowRun> {
        let (oh, ow) = (self.oh, self.ow);
        let (start, end) = (q.start, q.end);
        let mut pos = start;
        // (sample, output row, output column) of `pos`, advanced without
        // dividing again.
        let (mut ni, mut oy, mut ox) = (pos / (oh * ow), pos / ow % oh, pos % ow);
        std::iter::from_fn(move || {
            if pos >= end {
                return None;
            }
            let len = (ow - ox).min(end - pos);
            let run = RowRun {
                ni,
                oy,
                ox,
                len,
                at: pos - start,
            };
            pos += len;
            ox = 0;
            oy += 1;
            if oy == oh {
                oy = 0;
                ni += 1;
            }
            Some(run)
        })
    }

    /// Stride 1 and an output as wide as the input: output position `p` of
    /// a sample (`oy·ow + ox`) then reads input offset `p + (ky − pad)·w +
    /// (kx − pad)` for every tap, so a whole plane of patches is one
    /// shifted copy, minus the positions that read padding.
    fn is_shift(&self) -> bool {
        self.stride == 1 && self.ow == self.w
    }

    /// In shift geometry: the positions of `within` (a range inside one
    /// sample's plane) from the first to the last that reads the image
    /// under kernel row `ky` and columns `valid`. Positions outside read
    /// padding; inside, only columns outside `valid` do.
    fn shift_span(&self, ky: usize, valid: &Range<usize>, within: Range<usize>) -> Range<usize> {
        let oy_lo = self.pad.saturating_sub(ky);
        let oy_hi = (self.h + self.pad).saturating_sub(ky).min(self.oh);
        if oy_lo >= oy_hi || valid.is_empty() {
            return within.start..within.start;
        }
        let first = oy_lo * self.ow + valid.start;
        let last = (oy_hi - 1) * self.ow + valid.end;
        let start = first.clamp(within.start, within.end);
        start..last.clamp(start, within.end)
    }

    /// In shift geometry: zero the entries of `row` (positions `p0..`)
    /// that lie in `span` but in a column outside `valid` — where the
    /// shifted copy wrapped onto a neighbouring image row.
    fn zero_wrapped_columns(
        &self,
        row: &mut [f32],
        p0: usize,
        span: &Range<usize>,
        valid: &Range<usize>,
    ) {
        if span.is_empty() || (valid.start == 0 && valid.end == self.ow) {
            return;
        }
        for oy in span.start / self.ow..=(span.end - 1) / self.ow {
            for ox in (0..valid.start).chain(valid.end..self.ow) {
                let p = oy * self.ow + ox;
                if span.contains(&p) {
                    row[p - p0] = 0.0;
                }
            }
        }
    }

    /// For kernel column `kx`: the output columns whose input column
    /// `ox·stride + kx − pad` lies inside the image (the others read
    /// padding).
    fn valid_ox(&self, kx: usize) -> Range<usize> {
        let lo = self.pad.saturating_sub(kx).div_ceil(self.stride);
        let hi = if self.w + self.pad > kx {
            ((self.w + self.pad - kx - 1) / self.stride + 1).min(self.ow)
        } else {
            0
        };
        lo..hi.max(lo)
    }
}

/// Build the patch block of positions `q`: `out` is the row-major
/// `fan_in × q.len()` matrix whose row `(ci·k + ky)·k + kx` holds, for
/// each position, the input value under that kernel tap (zero where the
/// tap reads padding). Every element of `out` is written.
pub fn build_patches(input: &Tensor4, g: &Geometry, q: Range<usize>, out: &mut [f32]) {
    assert_eq!(input.shape(), g.in_shape(), "input does not match geometry");
    assert!(
        q.end <= g.positions() && !q.is_empty(),
        "bad position range"
    );
    let len = q.len();
    assert_eq!(out.len(), g.fan_in() * len, "patch block length mismatch");
    let (c, h, w, k, s, pad) = (g.c, g.h, g.w, g.k, g.stride, g.pad);
    let x = input.as_slice();
    for (tap, row) in out.chunks_exact_mut(len).enumerate() {
        let (ci, ky, kx) = (tap / (k * k), tap / k % k, tap % k);
        let valid = g.valid_ox(kx);
        if g.is_shift() {
            // One copy per sample: the tap's row is the plane, shifted.
            for (ni, p0, run, at) in plane_runs(g.oh * g.ow, q.clone()) {
                let dst = &mut row[at..at + run];
                let span = g.shift_span(ky, &valid, p0..p0 + run);
                if span.is_empty() {
                    dst.fill(0.0);
                    continue;
                }
                dst[..span.start - p0].fill(0.0);
                dst[span.end - p0..].fill(0.0);
                let plane = &x[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                // Source of position p: p + (ky − pad)·w + (kx − pad).
                let from = span.start + ky * w + kx - pad * w - pad;
                dst[span.start - p0..span.end - p0]
                    .copy_from_slice(&plane[from..from + span.len()]);
                g.zero_wrapped_columns(dst, p0, &span, &valid);
            }
            continue;
        }
        for run in g.row_runs(q.clone()) {
            let dst = &mut row[run.at..run.at + run.len];
            let iy = run.oy * s + ky;
            if iy < pad || iy - pad >= h {
                dst.fill(0.0);
                continue;
            }
            let base = ((run.ni * c + ci) * h + iy - pad) * w;
            let src = &x[base..base + w];
            let Range { start: lo, end: hi } = run.clip(&valid);
            dst[..lo - run.ox].fill(0.0);
            dst[hi - run.ox..].fill(0.0);
            let mid = &mut dst[lo - run.ox..hi - run.ox];
            if s == 1 {
                mid.copy_from_slice(&src[lo + kx - pad..hi + kx - pad]);
            } else {
                for (d, ox) in mid.iter_mut().zip(lo..hi) {
                    *d = src[ox * s + kx - pad];
                }
            }
        }
    }
}

/// Scatter-add a patch-gradient block back onto the input gradient: the
/// adjoint of [`build_patches`]. `dp` is `fan_in × q.len()` and is used
/// up as scratch; `dx` must already have the input's shape (zeroed
/// before the first block).
///
/// Taps are walked in descending `(ky, kx)` order, which makes each input
/// pixel receive its contributions in ascending `(oy, ox)` order — block
/// after block, the order of a position-by-position scatter over the
/// whole batch, so the sums round identically.
pub fn scatter_patches(dp: &mut [f32], g: &Geometry, q: Range<usize>, dx: &mut Tensor4) {
    assert_eq!(dx.shape(), g.in_shape(), "gradient does not match geometry");
    assert!(
        q.end <= g.positions() && !q.is_empty(),
        "bad position range"
    );
    let len = q.len();
    assert_eq!(dp.len(), g.fan_in() * len, "patch block length mismatch");
    let (c, h, w, k, s, pad) = (g.c, g.h, g.w, g.k, g.stride, g.pad);
    let x = dx.as_mut_slice();
    for ci in 0..c {
        for ky in (0..k).rev() {
            for kx in (0..k).rev() {
                let tap = (ci * k + ky) * k + kx;
                let row = &mut dp[tap * len..(tap + 1) * len];
                let valid = g.valid_ox(kx);
                if g.is_shift() {
                    for (ni, p0, run, at) in plane_runs(g.oh * g.ow, q.clone()) {
                        let src = &mut row[at..at + run];
                        let span = g.shift_span(ky, &valid, p0..p0 + run);
                        if span.is_empty() {
                            continue;
                        }
                        // Padding taps contribute nothing: zero them and
                        // add the span in one run (x + 0.0 is x).
                        g.zero_wrapped_columns(src, p0, &span, &valid);
                        let plane = &mut x[(ni * c + ci) * h * w..(ni * c + ci + 1) * h * w];
                        let to = span.start + ky * w + kx - pad * w - pad;
                        for (d, &v) in plane[to..to + span.len()]
                            .iter_mut()
                            .zip(&src[span.start - p0..span.end - p0])
                        {
                            *d += v;
                        }
                    }
                    continue;
                }
                for run in g.row_runs(q.clone()) {
                    let iy = run.oy * s + ky;
                    if iy < pad || iy - pad >= h {
                        continue;
                    }
                    let base = ((run.ni * c + ci) * h + iy - pad) * w;
                    let dst = &mut x[base..base + w];
                    let Range { start: lo, end: hi } = run.clip(&valid);
                    let mid = &row[run.at + lo - run.ox..run.at + hi - run.ox];
                    if s == 1 {
                        for (d, &v) in dst[lo + kx - pad..hi + kx - pad].iter_mut().zip(mid) {
                            *d += v;
                        }
                    } else {
                        for (&v, ox) in mid.iter().zip(lo..hi) {
                            dst[ox * s + kx - pad] += v;
                        }
                    }
                }
            }
        }
    }
}

/// The runs of positions `q` that fall inside single samples:
/// `(sample, first position within the sample's plane, length, column
/// in the block)`.
fn plane_runs(plane: usize, q: Range<usize>) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let (start, end) = (q.start, q.end);
    let mut pos = start;
    std::iter::from_fn(move || {
        if pos >= end {
            return None;
        }
        let (ni, within) = (pos / plane, pos % plane);
        let len = (plane - within).min(end - pos);
        let run = (ni, within, len, pos - start);
        pos += len;
        Some(run)
    })
}

/// Copy positions `q` of an NCHW tensor into a channel-major block:
/// `out` is row-major `channels × q.len()`, row `ch` holding channel
/// `ch` at each position (positions counted over `(n, y, x)`).
pub fn gather_block(t: &Tensor4, q: Range<usize>, out: &mut [f32]) {
    let (_, ch, h, w) = t.shape();
    let (plane, len) = (h * w, q.len());
    assert_eq!(out.len(), ch * len, "channel block length mismatch");
    let x = t.as_slice();
    for (ni, within, run, at) in plane_runs(plane, q) {
        for ci in 0..ch {
            let src = (ni * ch + ci) * plane + within;
            out[ci * len + at..ci * len + at + run].copy_from_slice(&x[src..src + run]);
        }
    }
}

/// Write a channel-major block (`channels × q.len()`) to positions `q`
/// of an NCHW tensor, adding `bias[ch]` to every element of channel
/// `ch` when a bias is given. The inverse of [`gather_block`].
pub fn scatter_block(block: &[f32], bias: Option<&[f32]>, q: Range<usize>, t: &mut Tensor4) {
    let (_, ch, h, w) = t.shape();
    let (plane, len) = (h * w, q.len());
    assert_eq!(block.len(), ch * len, "channel block length mismatch");
    let x = t.as_mut_slice();
    for (ni, within, run, at) in plane_runs(plane, q) {
        for ci in 0..ch {
            let dst = (ni * ch + ci) * plane + within;
            let (dst, src) = (
                &mut x[dst..dst + run],
                &block[ci * len + at..ci * len + at + run],
            );
            match bias {
                Some(b) => {
                    for (d, &v) in dst.iter_mut().zip(src) {
                        *d = v + b[ci];
                    }
                }
                None => dst.copy_from_slice(src),
            }
        }
    }
}

/// A `features × positions` matrix stored block by block: block `b` is
/// the row-major `features × len_b` matrix of positions
/// `b·BLOCK..b·BLOCK + len_b` (`len_b = BLOCK` for every block but
/// possibly the last). The storage of the patch matrix.
#[derive(Debug)]
pub struct Blocked {
    data: Vec<f32>,
    features: usize,
}

impl Blocked {
    /// A `features × positions` matrix in `data`'s allocation (kept when
    /// large enough). Contents are unspecified; callers write every block.
    pub fn from_storage(mut data: Vec<f32>, features: usize, positions: usize) -> Self {
        data.resize(features * positions, 0.0);
        Blocked { data, features }
    }

    /// The blocks in order, each with its position range.
    pub fn blocks(&self) -> impl Iterator<Item = (Range<usize>, &[f32])> {
        let f = self.features;
        self.data
            .chunks((f * BLOCK).max(1))
            .enumerate()
            .map(move |(b, blk)| (b * BLOCK..b * BLOCK + blk.len() / f, blk))
    }

    /// Mutable twin of [`blocks`](Self::blocks).
    pub fn blocks_mut(&mut self) -> impl Iterator<Item = (Range<usize>, &mut [f32])> {
        let f = self.features;
        self.data
            .chunks_mut((f * BLOCK).max(1))
            .enumerate()
            .map(move |(b, blk)| (b * BLOCK..b * BLOCK + blk.len() / f, blk))
    }

    /// Give the allocation back.
    pub fn into_storage(self) -> Vec<f32> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_tensor;
    use kfac_tensor::Rng64;

    #[test]
    fn out_dim_formula() {
        assert_eq!(conv_out_dim(8, 3, 1, 1), 8); // same-padding 3x3
        assert_eq!(conv_out_dim(8, 3, 2, 1), 4); // stride-2 downsample
        assert_eq!(conv_out_dim(8, 1, 1, 0), 8); // pointwise
        assert_eq!(conv_out_dim(7, 3, 2, 1), 4);
    }

    #[test]
    fn pointwise_patches_are_the_channel_planes() {
        // 1x1 kernel, no padding: the patch block is the input, channel-major.
        let t = Tensor4::from_vec(1, 2, 2, 2, (0..8).map(|i| i as f32).collect());
        let g = Geometry::new(t.shape(), 1, 1, 0);
        let mut p = vec![f32::NAN; 8];
        build_patches(&t, &g, 0..4, &mut p);
        assert_eq!(p, t.as_slice());
    }

    #[test]
    fn padding_zero_fills() {
        let t = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let g = Geometry::new(t.shape(), 3, 1, 1);
        let mut p = vec![f32::NAN; 9 * 4];
        build_patches(&t, &g, 0..4, &mut p);
        // Column 0 (top-left position): only the bottom-right 2x2 of the
        // kernel sees data.
        let col0: Vec<f32> = (0..9).map(|tap| p[tap * 4]).collect();
        assert_eq!(col0, [0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 4.0]);
    }

    #[test]
    fn blocks_need_not_align_with_rows_or_samples() {
        // Any cut of the position range yields the same patch columns.
        let mut rng = Rng64::new(1);
        let x = random_tensor((3, 2, 5, 7), &mut rng);
        for (k, stride, pad) in [(3, 1, 1), (3, 2, 1), (1, 2, 0), (3, 1, 0)] {
            let g = Geometry::new(x.shape(), k, stride, pad);
            let (f, total) = (g.fan_in(), g.positions());
            let mut whole = vec![f32::NAN; f * total];
            build_patches(&x, &g, 0..total, &mut whole);
            for cut in [1, 4, total / 2, total - 1] {
                for q in [0..cut, cut..total] {
                    let mut part = vec![f32::NAN; f * q.len()];
                    build_patches(&x, &g, q.clone(), &mut part);
                    for tap in 0..f {
                        assert_eq!(
                            part[tap * q.len()..(tap + 1) * q.len()],
                            whole[tap * total + q.start..tap * total + q.end]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_is_the_adjoint_of_build() {
        // ⟨build(x), y⟩ == ⟨x, scatter(y)⟩ — what the backward pass needs.
        let mut rng = Rng64::new(2);
        let x = random_tensor((2, 2, 4, 5), &mut rng);
        for (k, stride, pad) in [(3, 1, 1), (3, 2, 1), (1, 2, 0), (1, 1, 0), (3, 1, 0)] {
            let g = Geometry::new(x.shape(), k, stride, pad);
            let len = g.fan_in() * g.positions();
            let mut fx = vec![f32::NAN; len];
            build_patches(&x, &g, 0..g.positions(), &mut fx);
            let y: Vec<f32> = (0..len).map(|_| rng.normal_f32()).collect();
            let mut aty = Tensor4::zeros(2, 2, 4, 5);
            scatter_patches(&mut y.clone(), &g, 0..g.positions(), &mut aty);
            let dot = |a: &[f32], b: &[f32]| -> f64 {
                a.iter().zip(b).map(|(&a, &b)| a as f64 * b as f64).sum()
            };
            let (lhs, rhs) = (dot(&fx, &y), dot(x.as_slice(), aty.as_slice()));
            assert!(
                (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
                "{lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn channel_blocks_round_trip_across_sample_boundaries() {
        let mut rng = Rng64::new(3);
        let t = random_tensor((3, 4, 2, 3), &mut rng);
        let mut back = Tensor4::zeros(3, 4, 2, 3);
        for q in [0..5, 5..16, 16..18] {
            let mut blk = vec![f32::NAN; 4 * q.len()];
            gather_block(&t, q.clone(), &mut blk);
            // Position 7 is sample 1, pixel 1.
            if q.contains(&7) {
                assert_eq!(blk[2 * q.len() + 7 - q.start], t.at(1, 2, 0, 1));
            }
            scatter_block(&blk, None, q, &mut back);
        }
        assert_eq!(back, t);
    }
}
