//! Packed, register-tiled GEMM: the compute substrate's inner engine.
//!
//! On the paper's platform every dense product (forward/backward conv
//! GEMMs, the `AᵀA`/`G Gᵀ` factor Grams) is a cuBLAS call on a V100;
//! here the equivalent is this BLIS-style CPU kernel:
//!
//! * **Packing.** `B` is packed once per product into column panels of
//!   [`NR`] columns (zero-padded), laid out so the micro-kernel streams it
//!   with unit stride; `A` is packed per row-block into [`MR`]-row panels.
//!   Packing pays one extra pass over the operands and buys perfectly
//!   contiguous, aligned inner loops — the classic GotoBLAS trade.
//! * **Register tiling.** The micro-kernel holds an `MR × NR` accumulator
//!   tile in registers across the whole `k` extent of a cache block,
//!   performing `MR·NR` multiply-adds per `MR + NR` loads. The plain
//!   `mul`/`add` formulation (no `mul_add`) keeps results bitwise
//!   identical across machines with and without FMA.
//! * **Cache blocking.** `k` is split into [`KC`]-deep blocks (B panels
//!   sized for L1, A panels for L2), rows into [`MC`]-row blocks that
//!   double as the parallel work grain.
//!
//! **Determinism is structural.** Block sizes are compile-time constants
//! and each output tile is produced by exactly one task that walks the
//! `k` blocks in ascending order, so every output element accumulates in
//! one fixed order — independent of run, pool size, and `--overlap`
//! worker count. The bitwise exec-strategy tests and the pool-size
//! determinism property tests both lean on this.
//!
//! Operands are described by [`View`]s (slice + logical shape +
//! orientation), so transposed products (`AᵀB`, `ABᵀ`) pack directly from
//! the original storage — nothing is ever materialized transposed — and
//! layers can multiply against raw parameter slices without cloning them
//! into `Matrix` values.

use crate::arena;
use rayon::prelude::*;

/// Micro-tile rows: rows of C held in registers by the micro-kernel.
pub const MR: usize = 8;
/// Micro-tile columns: one AVX-512 lane's worth of `f32`s (also fine as
/// two AVX2 lanes or four SSE lanes — the kernel autovectorizes).
pub const NR: usize = 16;
/// Depth of a cache block: a `KC × NR` B panel is ~16 KiB (L1-resident).
/// Public because it is also a unit of *accumulation order*: a product
/// whose reduction dimension is cut into `KC`-aligned pieces and summed
/// in ascending order reproduces the one-call result bit for bit (the
/// convolution lowering in `kfac-nn` sizes its patch blocks by it).
pub const KC: usize = 256;
/// Rows per A block and per parallel task: an `MC × KC` A pack is
/// 64 KiB (L2-resident), and one task owns `MC` full rows of C.
const MC: usize = 64;

/// Below this many multiply-adds the packed path's setup overhead
/// dominates; a plain triple loop wins and stays on the calling thread.
const SMALL_FLOP_CUTOFF: usize = 24 * 24 * 24;

/// Below this many multiply-adds (~150 µs on one core) a product stays on
/// the calling thread: waking the pool costs tens of microseconds, more
/// than splitting so little work saves. The convolution lowering issues
/// thousands of 0.6–2.4 M-multiply-add products per step; forking each
/// made a two-thread pool *slower* than one thread.
const PAR_MIN_MADDS: usize = 1 << 22;

/// Storage orientation of a [`View`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Logical `(r, c)` is stored at `data[r * ld + c]`.
    NoTrans,
    /// Logical `(r, c)` is stored at `data[c * ld + r]`.
    Trans,
}

/// A borrowed matrix operand: storage slice, leading dimension, logical
/// shape, and orientation. `View::new` is a plain row-major matrix;
/// `View::t` presents the same storage transposed.
#[derive(Clone, Copy)]
pub struct View<'a> {
    data: &'a [f32],
    ld: usize,
    op: Op,
    rows: usize,
    cols: usize,
}

impl<'a> View<'a> {
    /// Row-major `rows × cols` view over `data`.
    pub fn new(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "view shape mismatch");
        View {
            data,
            ld: cols,
            op: Op::NoTrans,
            rows,
            cols,
        }
    }

    /// Transposed view: `data` stores `rows × cols` row-major, presented
    /// as its `cols × rows` transpose.
    pub fn t(data: &'a [f32], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "view shape mismatch");
        View {
            data,
            ld: cols,
            op: Op::Trans,
            rows: cols,
            cols: rows,
        }
    }

    /// Logical row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        match self.op {
            Op::NoTrans => self.data[r * self.ld + c],
            Op::Trans => self.data[c * self.ld + r],
        }
    }
}

/// `out = a · b`, writing every element of `out` exactly once
/// (first-touch; `out` may be unspecified scratch). `out.len()` must be
/// `a.rows() * b.cols()`.
///
/// # Panics
/// Panics on inner-dimension or output-length mismatch.
pub fn gemm_into(a: View<'_>, b: View<'_>, out: &mut [f32]) {
    gemm_impl(a, b, out, false);
}

/// Like [`gemm_into`] for a product known to be symmetric (a Gram
/// product `XᵀX` or `XXᵀ`): only tiles touching or above the diagonal
/// are computed, then the strict upper triangle is mirrored onto the
/// lower — halving the FLOPs and guaranteeing exact (bitwise) symmetry.
pub fn gemm_symmetric_into(a: View<'_>, b: View<'_>, out: &mut [f32]) {
    assert_eq!(a.rows(), b.cols(), "symmetric product must be square");
    gemm_impl(a, b, out, true);
    mirror_upper_to_lower(out, a.rows());
}

fn gemm_impl(a: View<'_>, b: View<'_>, out: &mut [f32], upper_only: bool) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    assert_eq!(
        k,
        b.rows(),
        "gemm dimension mismatch: {m}x{k} · {}x{n}",
        b.rows()
    );
    assert_eq!(out.len(), m * n, "gemm output length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    if m * n * k <= SMALL_FLOP_CUTOFF {
        gemm_naive(a, b, out);
        return;
    }

    // ---- Pack B once: KC-deep blocks of NR-column panels. ----
    let n_pad = n.div_ceil(NR) * NR;
    let mut bpack = arena::take_f32(k * n_pad);
    {
        let bp = &mut bpack[..];
        let mut base = 0usize;
        let mut k0 = 0usize;
        while k0 < k {
            let kc = KC.min(k - k0);
            pack_b_block(b, k0, kc, n, &mut bp[base..base + kc * n_pad]);
            base += kc * n_pad;
            k0 += kc;
        }
    }

    // ---- Parallel over MC-row blocks of C; each task owns its rows. ----
    let bpack_ref = &bpack[..];
    let run_block = |i0: usize, out_block: &mut [f32]| {
        let mc = MC.min(m - i0);
        let mc_pad = mc.div_ceil(MR) * MR;
        let mut apack = arena::take_f32(mc_pad * KC);
        let mut base = 0usize;
        let mut k0 = 0usize;
        let mut first = true;
        while k0 < k {
            let kc = KC.min(k - k0);
            pack_a_block(a, i0, mc, k0, kc, &mut apack[..mc_pad * kc]);
            // Gram products skip panels strictly below the diagonal of
            // this row block; the mirror pass fills them afterwards.
            let j_start = if upper_only { (i0 / NR) * NR } else { 0 };
            let mut j0 = j_start;
            while j0 < n {
                let nr = NR.min(n - j0);
                let bpanel = &bpack_ref[base + j0 * kc..base + j0 * kc + kc * NR];
                let mut ii = 0usize;
                while ii < mc {
                    let mr = MR.min(mc - ii);
                    let apanel = &apack[ii * kc..ii * kc + kc * MR];
                    micro_kernel(kc, apanel, bpanel, out_block, ii, n, j0, mr, nr, first);
                    ii += MR;
                }
                j0 += NR;
            }
            base += kc * n_pad;
            k0 += kc;
            first = false;
        }
        arena::recycle_f32(apack);
    };

    if m > MC && m * n * k >= PAR_MIN_MADDS && rayon::current_num_threads() > 1 {
        out.par_chunks_mut(MC * n)
            .enumerate()
            .for_each(|(t, out_block)| run_block(t * MC, out_block));
    } else {
        for (t, out_block) in out.chunks_mut(MC * n).enumerate() {
            run_block(t * MC, out_block);
        }
    }
    arena::recycle_f32(bpack);
}

/// Pack rows `k0..k0+kc` of `b` into NR-column panels: panel `jp` holds
/// columns `jp*NR..` with element `(p, jj)` at `panel[p*NR + jj]`,
/// zero-padded past `n`. Every packed element is written (first-touch).
fn pack_b_block(b: View<'_>, k0: usize, kc: usize, n: usize, dst: &mut [f32]) {
    for (jp, panel) in dst.chunks_exact_mut(kc * NR).enumerate() {
        let j0 = jp * NR;
        let nr = NR.min(n - j0);
        match b.op {
            Op::NoTrans => {
                for p in 0..kc {
                    let src_row = &b.data[(k0 + p) * b.ld + j0..(k0 + p) * b.ld + j0 + nr];
                    let d = &mut panel[p * NR..p * NR + NR];
                    d[..nr].copy_from_slice(src_row);
                    d[nr..].fill(0.0);
                }
            }
            Op::Trans => {
                // Logical (p, j) lives at data[j * ld + p]: each logical
                // column is a contiguous storage row, interleaved into
                // the panel eight columns at a time.
                for jj0 in (0..nr).step_by(8) {
                    let at = |jj: usize| (j0 + jj0 + jj) * b.ld + k0;
                    interleave_rows(b.data, at, 8.min(nr - jj0), kc, &mut panel[jj0..], NR);
                }
                if nr < NR {
                    for p in 0..kc {
                        panel[p * NR + nr..(p + 1) * NR].fill(0.0);
                    }
                }
            }
        }
    }
}

/// Pack rows `i0..i0+mc`, depth `k0..k0+kc` of `a` into MR-row panels:
/// panel `ip` holds rows `ip*MR..` with element `(ii, p)` at
/// `panel[p*MR + ii]`, zero-padded past `mc`.
fn pack_a_block(a: View<'_>, i0: usize, mc: usize, k0: usize, kc: usize, dst: &mut [f32]) {
    let mut panel_base = 0usize;
    let mut ii0 = 0usize;
    while ii0 < mc {
        let mr = MR.min(mc - ii0);
        let panel = &mut dst[panel_base..panel_base + kc * MR];
        match a.op {
            Op::NoTrans => {
                let at = |ii: usize| (i0 + ii0 + ii) * a.ld + k0;
                interleave_rows(a.data, at, mr, kc, panel, MR);
                if mr < MR {
                    for p in 0..kc {
                        panel[p * MR + mr..(p + 1) * MR].fill(0.0);
                    }
                }
            }
            Op::Trans => {
                // Logical (i, p) lives at data[p * ld + i]: each depth step
                // reads a contiguous run of logical rows.
                for p in 0..kc {
                    let src = &a.data[(k0 + p) * a.ld + i0 + ii0..(k0 + p) * a.ld + i0 + ii0 + mr];
                    let d = &mut panel[p * MR..p * MR + MR];
                    d[..mr].copy_from_slice(src);
                    d[mr..].fill(0.0);
                }
            }
        }
        panel_base += kc * MR;
        ii0 += MR;
    }
}

/// Interleave up to eight storage rows into panel layout: row `i`
/// (`rows ≤ 8`) starts at `data[at(i)]`, is `kc` long, and its element
/// `p` lands at `dst[p * stride + i]` — the transposition both
/// "against the grain" packs need (`pack_a` of a row-major operand,
/// `pack_b` of a transposed one). Full groups of eight rows go through
/// an 8×8 register transpose; pure data movement either way, so the
/// packed values and every product are unchanged.
fn interleave_rows(
    data: &[f32],
    at: impl Fn(usize) -> usize,
    rows: usize,
    kc: usize,
    dst: &mut [f32],
    stride: usize,
) {
    debug_assert!(rows <= 8 && stride >= 8);
    let mut done = 0usize;
    #[cfg(target_arch = "x86_64")]
    if rows == 8 && kc >= 8 && std::arch::is_x86_feature_detected!("avx") {
        // The slices below prove every row readable for `kc` elements and
        // `dst` writable up to the last element the transposes store.
        let src: [&[f32]; 8] = std::array::from_fn(|i| &data[at(i)..at(i) + kc]);
        let dst = &mut dst[..(kc - 1) * stride + 8];
        while done + 8 <= kc {
            // SAFETY: avx checked; each `src[i]` has `done + 8 ≤ kc`
            // elements, and the stores cover `dst[(done + j) * stride..][..8]`
            // for `j < 8`, within the length asserted by the reslice above.
            unsafe {
                simd::transpose8x8(
                    src.map(|r| r.as_ptr().add(done)),
                    dst.as_mut_ptr().add(done * stride),
                    stride,
                );
            }
            done += 8;
        }
    }
    for i in 0..rows {
        let src = &data[at(i) + done..at(i) + kc];
        for (p, &v) in src.iter().enumerate() {
            dst[(done + p) * stride + i] = v;
        }
    }
}

/// The register-tile inner kernel: accumulate an `MR × NR` tile over one
/// KC block, then store (first block) or add (later blocks) the valid
/// `mr × nr` region into `out`. No data-dependent branches — the old
/// kernels' `a_ip == 0.0` skip mispredicted on dense operands and is
/// deliberately gone (see the bench note in the README).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_kernel(
    kc: usize,
    apanel: &[f32],
    bpanel: &[f32],
    out: &mut [f32],
    row0: usize,
    ldc: usize,
    j0: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    compute_tile(kc, apanel, bpanel, &mut acc);
    if first {
        for i in 0..mr {
            let dst = &mut out[(row0 + i) * ldc + j0..(row0 + i) * ldc + j0 + nr];
            dst.copy_from_slice(&acc[i][..nr]);
        }
    } else {
        for i in 0..mr {
            let dst = &mut out[(row0 + i) * ldc + j0..(row0 + i) * ldc + j0 + nr];
            for (d, &v) in dst.iter_mut().zip(acc[i][..nr].iter()) {
                *d += v;
            }
        }
    }
}

/// Accumulate the full `MR × NR` tile: `acc[i][j] = Σ_p A[i,p]·B[p,j]`.
///
/// Dispatches to an explicit-SIMD kernel where available. All paths
/// perform the *same* per-element operations in the *same* order (plain
/// mul then add, ascending `p`) — SIMD only changes how many `(i, j)`
/// lanes run at once, never an element's accumulation sequence — so
/// scalar, AVX and AVX-512 produce bitwise identical tiles. The explicit
/// intrinsics exist because LLVM's autovectorizer turns the scalar
/// formulation into gather/shuffle soup instead of the obvious
/// broadcast-multiply loop (measured at ~4 GFLOP/s vs ~25 here).
#[inline(always)]
fn compute_tile(kc: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    debug_assert!(apanel.len() >= kc * MR && bpanel.len() >= kc * NR);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: feature checked; panel lengths checked above.
            unsafe { simd::tile_avx512(kc, apanel, bpanel, acc) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx") {
            // SAFETY: feature checked; panel lengths checked above.
            unsafe { simd::tile_avx(kc, apanel, bpanel, acc) };
            return;
        }
    }
    tile_scalar(kc, apanel, bpanel, acc);
}

/// Portable fallback tile kernel (and the semantic reference for the
/// SIMD paths).
fn tile_scalar(kc: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    for p in 0..kc {
        let ap = &apanel[p * MR..p * MR + MR];
        let bp = &bpanel[p * NR..p * NR + NR];
        for (acc_row, &a_ip) in acc.iter_mut().zip(ap.iter()) {
            for (c, &b_pj) in acc_row.iter_mut().zip(bp.iter()) {
                *c += a_ip * b_pj;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod simd {
    //! Explicit-SIMD tile kernels. Layouts mirror the packing scheme:
    //! `apanel[p*MR + i]`, `bpanel[p*NR + j]`; one B row per depth step
    //! is loaded contiguously and each A element is broadcast against it.
    use super::{MR, NR};
    use std::arch::x86_64::*;

    /// One 16-lane register holds a full NR-wide tile row; MR rows keep
    /// 8 zmm accumulators live across the whole depth loop.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tile_avx512(
        kc: usize,
        apanel: &[f32],
        bpanel: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        let mut v = [_mm512_setzero_ps(); MR];
        for p in 0..kc {
            let b = _mm512_loadu_ps(bpanel.as_ptr().add(p * NR));
            for (i, vi) in v.iter_mut().enumerate() {
                let a = _mm512_set1_ps(*apanel.get_unchecked(p * MR + i));
                *vi = _mm512_add_ps(*vi, _mm512_mul_ps(a, b));
            }
        }
        for (row, vi) in acc.iter_mut().zip(v.iter()) {
            _mm512_storeu_ps(row.as_mut_ptr(), *vi);
        }
    }

    /// 8×8 transpose: element `p` of row `i` is stored at
    /// `dst[p * stride + i]`.
    ///
    /// # Safety
    /// Requires AVX; every `rows[i]` must expose 8 readable `f32`s and
    /// `dst` must be writable at `[j * stride, j * stride + 8)` for
    /// every `j < 8`.
    #[target_feature(enable = "avx")]
    pub unsafe fn transpose8x8(rows: [*const f32; 8], dst: *mut f32, stride: usize) {
        let r = rows.map(|p| _mm256_loadu_ps(p));
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let s0 = _mm256_shuffle_ps(t0, t2, 0x44);
        let s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
        let s2 = _mm256_shuffle_ps(t1, t3, 0x44);
        let s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
        let s4 = _mm256_shuffle_ps(t4, t6, 0x44);
        let s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
        let s6 = _mm256_shuffle_ps(t5, t7, 0x44);
        let s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
        _mm256_storeu_ps(dst, _mm256_permute2f128_ps(s0, s4, 0x20));
        _mm256_storeu_ps(dst.add(stride), _mm256_permute2f128_ps(s1, s5, 0x20));
        _mm256_storeu_ps(dst.add(2 * stride), _mm256_permute2f128_ps(s2, s6, 0x20));
        _mm256_storeu_ps(dst.add(3 * stride), _mm256_permute2f128_ps(s3, s7, 0x20));
        _mm256_storeu_ps(dst.add(4 * stride), _mm256_permute2f128_ps(s0, s4, 0x31));
        _mm256_storeu_ps(dst.add(5 * stride), _mm256_permute2f128_ps(s1, s5, 0x31));
        _mm256_storeu_ps(dst.add(6 * stride), _mm256_permute2f128_ps(s2, s6, 0x31));
        _mm256_storeu_ps(dst.add(7 * stride), _mm256_permute2f128_ps(s3, s7, 0x31));
    }

    /// 8-lane variant: a tile row is two ymm registers, and the tile is
    /// processed in two 4-row halves so the live accumulators (8) plus
    /// the two B registers and the broadcast stay within the 16 ymm regs.
    #[target_feature(enable = "avx")]
    pub unsafe fn tile_avx(kc: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
        const HALF: usize = MR / 2;
        for h in 0..2 {
            let r0 = h * HALF;
            let mut v = [[_mm256_setzero_ps(); 2]; HALF];
            for p in 0..kc {
                let b0 = _mm256_loadu_ps(bpanel.as_ptr().add(p * NR));
                let b1 = _mm256_loadu_ps(bpanel.as_ptr().add(p * NR + 8));
                for (i, vi) in v.iter_mut().enumerate() {
                    let a = _mm256_set1_ps(*apanel.get_unchecked(p * MR + r0 + i));
                    vi[0] = _mm256_add_ps(vi[0], _mm256_mul_ps(a, b0));
                    vi[1] = _mm256_add_ps(vi[1], _mm256_mul_ps(a, b1));
                }
            }
            for (i, vi) in v.iter().enumerate() {
                _mm256_storeu_ps(acc[r0 + i].as_mut_ptr(), vi[0]);
                _mm256_storeu_ps(acc[r0 + i].as_mut_ptr().add(8), vi[1]);
            }
        }
    }
}

/// Small-product fallback: a triple loop on the calling thread, still
/// first-touch (each output element written exactly once). It sums in
/// the packed path's order — [`KC`]-deep partial sums, added in ascending
/// order — so an element's bits do not depend on which path the shape of
/// the *rest* of the product selected.
fn gemm_naive(a: View<'_>, b: View<'_>, out: &mut [f32]) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    for i in 0..m {
        for j in 0..n {
            let mut total = 0.0f32;
            for k0 in (0..k).step_by(KC) {
                let mut acc = 0.0f32;
                for p in k0..(k0 + KC).min(k) {
                    acc += a.at(i, p) * b.at(p, j);
                }
                total = if k0 == 0 { acc } else { total + acc };
            }
            out[i * n + j] = total;
        }
    }
}

/// Copy the strict upper triangle onto the lower one.
fn mirror_upper_to_lower(out: &mut [f32], n: usize) {
    for i in 0..n {
        for j in (i + 1)..n {
            out[j * n + i] = out[i * n + j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn random(len: usize, rng: &mut Rng64) -> Vec<f32> {
        (0..len).map(|_| rng.normal_f32()).collect()
    }

    fn reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc += a[i * k + p] as f64 * b[p * n + j] as f64;
                }
                c[i * n + j] = acc as f32;
            }
        }
        c
    }

    fn max_diff(x: &[f32], y: &[f32]) -> f32 {
        x.iter()
            .zip(y)
            .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()))
    }

    #[test]
    fn packed_matches_reference_across_shapes() {
        let mut rng = Rng64::new(1);
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (64, 64, 64),
            (65, 257, 33),
            (100, 300, 100),
            (128, 512, 129),
        ] {
            let a = random(m * k, &mut rng);
            let b = random(k * n, &mut rng);
            let mut out = vec![f32::NAN; m * n];
            gemm_into(View::new(&a, m, k), View::new(&b, k, n), &mut out);
            let r = reference(&a, &b, m, k, n);
            let d = max_diff(&out, &r);
            assert!(d < 1e-2, "({m},{k},{n}) diff {d}");
        }
    }

    #[test]
    fn transposed_views_match_materialized_transpose() {
        let mut rng = Rng64::new(2);
        let (m, k, n) = (70, 130, 90);
        let at = random(k * m, &mut rng); // stores k x m, viewed as m x k
        let bt = random(n * k, &mut rng); // stores n x k, viewed as k x n
        let mut a = vec![0.0; m * k];
        for i in 0..m {
            for p in 0..k {
                a[i * k + p] = at[p * m + i];
            }
        }
        let mut b = vec![0.0; k * n];
        for p in 0..k {
            for j in 0..n {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut out_t = vec![f32::NAN; m * n];
        gemm_into(View::t(&at, k, m), View::t(&bt, n, k), &mut out_t);
        let mut out_n = vec![f32::NAN; m * n];
        gemm_into(View::new(&a, m, k), View::new(&b, k, n), &mut out_n);
        assert_eq!(out_t, out_n, "views must be bitwise path-equal");
    }

    #[test]
    fn k_zero_zeroes_output() {
        let mut out = vec![f32::NAN; 6];
        gemm_into(View::new(&[], 2, 0), View::new(&[], 0, 3), &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn symmetric_gram_is_bitwise_symmetric() {
        let mut rng = Rng64::new(3);
        let (k, n) = (200, 150);
        let x = random(k * n, &mut rng);
        let mut g = vec![f32::NAN; n * n];
        gemm_symmetric_into(View::t(&x, k, n), View::new(&x, k, n), &mut g);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(g[i * n + j].to_bits(), g[j * n + i].to_bits());
            }
        }
        // And it matches the full product numerically.
        let mut full = vec![f32::NAN; n * n];
        gemm_into(View::t(&x, k, n), View::new(&x, k, n), &mut full);
        assert!(max_diff(&g, &full) < 1e-3);
    }

    #[test]
    fn small_products_round_like_packed_ones() {
        // 2×9 over k = 600 takes the naive path; the same rows against a
        // 64-column B take the packed one. Shared columns must agree bit
        // for bit, including across the KC boundary.
        let mut rng = Rng64::new(6);
        let (m, k, n_small, n_big) = (2, 600, 9, 64);
        assert!(m * n_small * k <= SMALL_FLOP_CUTOFF && m * n_big * k > SMALL_FLOP_CUTOFF);
        let a = random(m * k, &mut rng);
        let b_big = random(k * n_big, &mut rng);
        let b_small: Vec<f32> = (0..k)
            .flat_map(|p| b_big[p * n_big..p * n_big + n_small].to_vec())
            .collect();
        let mut small = vec![f32::NAN; m * n_small];
        gemm_into(
            View::new(&a, m, k),
            View::new(&b_small, k, n_small),
            &mut small,
        );
        let mut big = vec![f32::NAN; m * n_big];
        gemm_into(View::new(&a, m, k), View::new(&b_big, k, n_big), &mut big);
        for i in 0..m {
            assert_eq!(
                small[i * n_small..(i + 1) * n_small],
                big[i * n_big..i * n_big + n_small]
            );
        }
    }

    #[test]
    fn simd_tile_is_bitwise_equal_to_scalar() {
        let mut rng = Rng64::new(5);
        let kc = 97;
        let apanel = random(kc * MR, &mut rng);
        let bpanel = random(kc * NR, &mut rng);
        let mut scalar = [[0.0f32; NR]; MR];
        tile_scalar(kc, &apanel, &bpanel, &mut scalar);
        let mut dispatched = [[0.0f32; NR]; MR];
        compute_tile(kc, &apanel, &bpanel, &mut dispatched);
        for (s, d) in scalar.iter().flatten().zip(dispatched.iter().flatten()) {
            assert_eq!(s.to_bits(), d.to_bits());
        }
    }

    #[test]
    fn deterministic_across_pool_sizes() {
        let mut rng = Rng64::new(4);
        let (m, k, n) = (300, 300, 300);
        let a = random(m * k, &mut rng);
        let b = random(k * n, &mut rng);
        let mut outs: Vec<Vec<f32>> = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            rayon::set_pool_threads(threads);
            let mut out = vec![f32::NAN; m * n];
            gemm_into(View::new(&a, m, k), View::new(&b, k, n), &mut out);
            outs.push(out);
        }
        for o in &outs[1..] {
            assert_eq!(&outs[0], o, "results must be bitwise pool-size independent");
        }
    }
}
