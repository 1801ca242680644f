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
//! * a patch row is built a sample at a time — for one tap, a sample's
//!   positions read its input plane shifted by a constant (stride 1,
//!   output as wide as the input) or at a fixed stride, so each channel's
//!   row is one plain pass per sample, the tap's clip against the padding
//!   worked out once for all channels;
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

    /// Stride 1 and an output as wide as the input: output position `p` of
    /// a sample (`oy·ow + ox`) then reads input offset `p + (ky − pad)·w +
    /// (kx − pad)` for every tap, so a whole plane of patches is one
    /// shifted copy, minus the positions that read padding.
    fn is_shift(&self) -> bool {
        self.stride == 1 && self.ow == self.w
    }

    /// Kernel offset `(ky, kx)` of patch row `tap % (k·k)`, with the
    /// output rows and columns whose input pixel lies inside the image.
    fn tap(&self, tap: usize) -> Tap {
        let (ky, kx) = (tap / self.k % self.k, tap % self.k);
        Tap {
            ky,
            kx,
            rows: valid_out(self.h, self.oh, self.stride, self.pad, ky),
            cols: valid_out(self.w, self.ow, self.stride, self.pad, kx),
        }
    }
}

/// For kernel offset `kk` along one axis of an `input`-long image: the
/// outputs `o < out` whose input `o·stride + kk − pad` lies inside it
/// (the others read padding).
fn valid_out(input: usize, out: usize, stride: usize, pad: usize, kk: usize) -> Range<usize> {
    let lo = pad.saturating_sub(kk).div_ceil(stride);
    let hi = if input + pad > kk {
        ((input + pad - kk - 1) / stride + 1).min(out)
    } else {
        0
    };
    lo..hi.max(lo)
}

/// A kernel offset `(ky, kx)` — one patch row per input channel — and the
/// output rectangle `rows × cols` that reads the image under it; every
/// other output position reads padding.
struct Tap {
    ky: usize,
    kx: usize,
    rows: Range<usize>,
    cols: Range<usize>,
}

impl Tap {
    /// Offset of this tap's row within a channel's `k·k` patch rows.
    fn index(&self, g: &Geometry) -> usize {
        self.ky * g.k + self.kx
    }

    /// In shift geometry, for the positions `p0..p0 + run` of one sample's
    /// plane: the part `lo..hi` (counted from `p0`) that lies between the
    /// first and the last position reading the image, and the input
    /// offset it starts at. Inside it only columns outside `cols` read
    /// padding — there the shifted copy wraps onto a neighbouring row.
    fn shift_span(&self, g: &Geometry, p0: usize, run: usize) -> (Range<usize>, usize) {
        if self.rows.is_empty() || self.cols.is_empty() {
            return (0..0, 0);
        }
        let first = self.rows.start * g.ow + self.cols.start;
        let last = (self.rows.end - 1) * g.ow + self.cols.end;
        let lo = first.clamp(p0, p0 + run);
        let hi = last.clamp(lo, p0 + run);
        if lo == hi {
            return (0..0, 0);
        }
        // Position p reads input p + (ky − pad)·w + (kx − pad) ≥ 0 here.
        let from = lo + self.ky * g.w + self.kx - g.pad * g.w - g.pad;
        (lo - p0..hi - p0, from)
    }

    /// Whether a shifted copy wraps: some output columns read padding.
    fn wraps(&self, g: &Geometry) -> bool {
        self.cols != (0..g.ow)
    }

    /// Whether output column `ox` reads the image.
    #[inline(always)]
    fn keeps(&self, ox: u32) -> bool {
        contains_u32(&self.cols, ox)
    }

    /// Outside shift geometry: for each of the first `len` positions of
    /// `at`, the offset in its sample's channel plane of the pixel under
    /// this tap, or `u32::MAX` where the tap reads padding.
    fn sources(&self, g: &Geometry, at: &Outputs, len: usize) -> [u32; BLOCK] {
        let (w, s) = (g.w as u32, g.stride as u32);
        // (oy·s + ky − pad)·w + ox·s + kx − pad in wrapping arithmetic:
        // exact wherever the tap reads the image, the plane being smaller
        // than `u32::MAX`.
        let (ky, kx, pad) = (self.ky as u32, self.kx as u32, g.pad as u32);
        let base = (ky.wrapping_sub(pad))
            .wrapping_mul(w)
            .wrapping_add(kx.wrapping_sub(pad));
        let mut src = [u32::MAX; BLOCK];
        for ((j, &oy), &ox) in src[..len].iter_mut().zip(&at.oy).zip(&at.ox) {
            let inside = contains_u32(&self.rows, oy) && contains_u32(&self.cols, ox);
            let from = (oy.wrapping_mul(s).wrapping_mul(w))
                .wrapping_add(ox.wrapping_mul(s))
                .wrapping_add(base);
            *j = if inside { from } else { u32::MAX };
        }
        src
    }
}

/// `r.contains(&v)` as one wrapping compare, which vectorizes.
#[inline(always)]
fn contains_u32(r: &Range<usize>, v: u32) -> bool {
    v.wrapping_sub(r.start as u32) < (r.end - r.start) as u32
}

/// Output row and column, within its sample's plane, of each position of
/// one piece of a block (at most [`BLOCK`]): the tables a tap's pass
/// selects by.
struct Outputs {
    oy: [u32; BLOCK],
    ox: [u32; BLOCK],
}

impl Outputs {
    fn new(g: &Geometry, q: &Range<usize>) -> Self {
        let mut t = Outputs {
            oy: [0; BLOCK],
            ox: [0; BLOCK],
        };
        let within = q.start % (g.oh * g.ow);
        let (mut oy, mut ox) = (within / g.ow, within % g.ow);
        for (ty, tx) in t.oy[..q.len()].iter_mut().zip(&mut t.ox[..q.len()]) {
            (*ty, *tx) = (oy as u32, ox as u32);
            ox += 1;
            if ox == g.ow {
                ox = 0;
                oy = if oy + 1 == g.oh { 0 } else { oy + 1 };
            }
        }
        t
    }
}

/// Positions `q` cut into pieces of at most [`BLOCK`], each with its
/// offset in `q`.
fn chunks(q: &Range<usize>) -> impl Iterator<Item = (Range<usize>, usize)> {
    let (start, end) = (q.start, q.end);
    (start..end)
        .step_by(BLOCK)
        .map(move |s| (s..(s + BLOCK).min(end), s - start))
}

/// Build the patch block of positions `q`: `out` is the row-major
/// `fan_in × q.len()` matrix whose row `(ci·k + ky)·k + kx` holds, for
/// each position, the input value under that kernel tap (zero where the
/// tap reads padding). Every element of `out` is written.
///
/// A tap's clip is worked out once per [`BLOCK`] positions; then each
/// channel's patch row takes one pass per sample: in shift geometry a
/// copy of the plane, shifted, its wrapped columns selected to zero in
/// the same loop; otherwise a gather through the tap's source table.
pub fn build_patches(input: &Tensor4, g: &Geometry, q: Range<usize>, out: &mut [f32]) {
    assert_eq!(input.shape(), g.in_shape(), "input does not match geometry");
    assert!(
        q.end <= g.positions() && !q.is_empty(),
        "bad position range"
    );
    let len = q.len();
    assert_eq!(out.len(), g.fan_in() * len, "patch block length mismatch");
    let (c, kk, hw) = (g.c, g.k * g.k, g.h * g.w);
    assert!(
        hw < u32::MAX as usize,
        "input plane too large for u32 offsets"
    );
    let x = input.as_slice();
    for (part, off) in chunks(&q) {
        let outputs = Outputs::new(g, &part);
        for t in (0..kk).map(|tap| g.tap(tap)) {
            let row = t.index(g) * len + off;
            let sources = (!g.is_shift()).then(|| t.sources(g, &outputs, part.len()));
            for (ni, p0, run, at) in plane_runs(g.oh * g.ow, part.clone()) {
                let dsts = per_channel_mut(out, kk * len, row + at..row + at + run);
                let channels = dsts.zip(x[ni * c * hw..(ni + 1) * c * hw].chunks_exact(hw));
                if let Some(sources) = &sources {
                    let sources = &sources[at..at + run];
                    for (dst, plane) in channels {
                        for (d, &j) in dst.iter_mut().zip(sources) {
                            *d = plane.get(j as usize).copied().unwrap_or(0.0);
                        }
                    }
                    continue;
                }
                let (span, from) = t.shift_span(g, p0, run);
                let keep = t
                    .wraps(g)
                    .then(|| &outputs.ox[at + span.start..at + span.end]);
                for (dst, plane) in channels {
                    let (head, rest) = dst.split_at_mut(span.start);
                    let (mid, tail) = rest.split_at_mut(span.len());
                    head.fill(0.0);
                    tail.fill(0.0);
                    let src = &plane[from..from + mid.len()];
                    match keep {
                        None => mid.copy_from_slice(src),
                        Some(keep) => {
                            for ((d, &v), &ox) in mid.iter_mut().zip(src).zip(keep) {
                                *d = if t.keeps(ox) { v } else { 0.0 };
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Scatter-add a patch-gradient block back onto the input gradient: the
/// adjoint of [`build_patches`]. `dp` is `fan_in × q.len()`; `dx` must
/// already have the input's shape (zeroed before the first block).
///
/// Taps are walked in descending `(ky, kx)` order, which makes each input
/// pixel receive its contributions in ascending `(oy, ox)` order — block
/// after block, the order of a position-by-position scatter over the
/// whole batch, so the sums round identically. A tap adds one pass per
/// channel and sample in shift geometry, one per output row otherwise;
/// pixels a pass crosses without a contribution get `+0.0` (the wrapped
/// columns of a shifted pass, the pixel between two targets of a stride-2
/// row), which leaves every sum that starts from `+0.0` unchanged.
pub fn scatter_patches(dp: &[f32], g: &Geometry, q: Range<usize>, dx: &mut Tensor4) {
    assert_eq!(dx.shape(), g.in_shape(), "gradient does not match geometry");
    assert!(
        q.end <= g.positions() && !q.is_empty(),
        "bad position range"
    );
    let len = q.len();
    assert_eq!(dp.len(), g.fan_in() * len, "patch block length mismatch");
    let (c, kk, hw, w, s, pad) = (g.c, g.k * g.k, g.h * g.w, g.w, g.stride, g.pad);
    let x = dx.as_mut_slice();
    for (part, off) in chunks(&q) {
        let outputs = Outputs::new(g, &part);
        for t in (0..kk).rev().map(|tap| g.tap(tap)) {
            let row = t.index(g) * len + off;
            for (ni, p0, run, at) in plane_runs(g.oh * g.ow, part.clone()) {
                let planes = &mut x[ni * c * hw..(ni + 1) * c * hw];
                // Positions `r` of this run in each channel's row of `dp`.
                let srcs = |r: Range<usize>| {
                    let r = row + at + r.start..row + at + r.end;
                    dp.chunks_exact(kk * len).map(move |taps| &taps[r.clone()])
                };
                if g.is_shift() {
                    let (span, to) = t.shift_span(g, p0, run);
                    let keep = t
                        .wraps(g)
                        .then(|| &outputs.ox[at + span.start..at + span.end]);
                    for (src, plane) in srcs(span).zip(planes.chunks_exact_mut(hw)) {
                        let dst = &mut plane[to..to + src.len()];
                        match keep {
                            None => {
                                for (d, &v) in dst.iter_mut().zip(src) {
                                    *d += v;
                                }
                            }
                            Some(keep) => {
                                for ((d, &v), &ox) in dst.iter_mut().zip(src).zip(keep) {
                                    *d += if t.keeps(ox) { v } else { 0.0 };
                                }
                            }
                        }
                    }
                    continue;
                }
                for (oy, ox0, n, i) in rows_of(g, p0, run) {
                    let (lo, hi) = (t.cols.start.max(ox0), t.cols.end.min(ox0 + n));
                    if !t.rows.contains(&oy) || lo >= hi {
                        continue;
                    }
                    let to = (oy * s + t.ky - pad) * w + lo * s + t.kx - pad;
                    let span = (hi - lo - 1) * s + 1;
                    for (src, plane) in
                        srcs(i + lo - ox0..i + hi - ox0).zip(planes.chunks_exact_mut(hw))
                    {
                        strided_add(&mut plane[to..to + span], src, s);
                    }
                }
            }
        }
    }
}

/// `dst[m·s] += src[m]` for every `m` (`dst` is `(src.len() − 1)·s + 1`
/// long). At stride 2 the pixel between two targets gets `+0.0`, so the
/// loop is a run of whole pairs.
fn strided_add(dst: &mut [f32], src: &[f32], s: usize) {
    match s {
        2 => {
            let (last, pairs) = src.split_last().expect("a row adds at least one pixel");
            for (pair, &v) in dst.chunks_exact_mut(2).zip(pairs) {
                pair[0] += v;
                pair[1] += 0.0;
            }
            dst[dst.len() - 1] += last;
        }
        _ => {
            for (d, &v) in dst.chunks_mut(s).zip(src) {
                d[0] += v;
            }
        }
    }
}

/// The output rows of a sample's positions `p0..p0 + run`: `(oy, first
/// column, length, offset from p0)` per row.
fn rows_of(
    g: &Geometry,
    p0: usize,
    run: usize,
) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let ow = g.ow;
    let (mut oy, mut ox0, mut i) = (p0 / ow, p0 % ow, 0);
    std::iter::from_fn(move || {
        if i >= run {
            return None;
        }
        let n = (ow - ox0).min(run - i);
        let row = (oy, ox0, n, i);
        (oy, ox0, i) = (oy + 1, 0, i + n);
        Some(row)
    })
}

/// Columns `cols` of each `group`-long piece of `data`: one channel's
/// patch row over some positions, for every channel.
fn per_channel_mut(
    data: &mut [f32],
    group: usize,
    cols: Range<usize>,
) -> impl Iterator<Item = &mut [f32]> {
    data.chunks_exact_mut(group)
        .map(move |g| &mut g[cols.clone()])
}

/// The runs of positions `q` that fall inside single samples:
/// `(sample, first position within the sample's plane, length, column
/// in the block)`.
fn plane_runs(plane: usize, q: Range<usize>) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let (start, end) = (q.start, q.end);
    let (mut pos, mut ni, mut within) = (start, start / plane, start % plane);
    std::iter::from_fn(move || {
        if pos >= end {
            return None;
        }
        let len = (plane - within).min(end - pos);
        let run = (ni, within, len, pos - start);
        (pos, ni, within) = (pos + len, ni + 1, 0);
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
        // Any cut of the position range yields the same patch columns, and
        // scattering the pieces in order the same input gradient, bit for
        // bit — across more than one BLOCK, too.
        let mut rng = Rng64::new(1);
        let x = random_tensor((7, 2, 5, 7), &mut rng);
        let bits = |t: &Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (k, stride, pad) in [(3, 1, 1), (3, 2, 1), (1, 2, 0), (3, 1, 0)] {
            let g = Geometry::new(x.shape(), k, stride, pad);
            let (f, total) = (g.fan_in(), g.positions());
            let mut whole = vec![f32::NAN; f * total];
            build_patches(&x, &g, 0..total, &mut whole);
            let dp: Vec<f32> = (0..f * total).map(|_| rng.normal_f32()).collect();
            let mut dx_whole = Tensor4::zeros(7, 2, 5, 7);
            scatter_patches(&dp, &g, 0..total, &mut dx_whole);
            for cut in [1, 4, total / 2, total - 1] {
                let mut dx = Tensor4::zeros(7, 2, 5, 7);
                for q in [0..cut, cut..total] {
                    let mut part = vec![f32::NAN; f * q.len()];
                    build_patches(&x, &g, q.clone(), &mut part);
                    let mut dp_part = vec![0.0; f * q.len()];
                    for tap in 0..f {
                        assert_eq!(
                            part[tap * q.len()..(tap + 1) * q.len()],
                            whole[tap * total + q.start..tap * total + q.end]
                        );
                        dp_part[tap * q.len()..(tap + 1) * q.len()]
                            .copy_from_slice(&dp[tap * total + q.start..tap * total + q.end]);
                    }
                    scatter_patches(&dp_part, &g, q, &mut dx);
                }
                assert_eq!(
                    bits(&dx),
                    bits(&dx_whole),
                    "k={k} stride={stride} cut={cut}"
                );
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
            scatter_patches(&y, &g, 0..g.positions(), &mut aty);
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
