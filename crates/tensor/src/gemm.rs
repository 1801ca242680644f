//! Packed, register-tiled GEMM: the compute substrate's one inner engine.
//!
//! On the paper's platform every dense product (forward/backward conv
//! GEMMs, the `AᵀA`/`G Gᵀ` factor Grams) is a cuBLAS call on a V100;
//! here the equivalent is this BLIS-style CPU kernel:
//!
//! * **Packing.** `B` is packed once per product into column panels of
//!   [`NR`] columns (zero-padded), laid out so the micro-kernel streams it
//!   with unit stride; `A` is packed per row-block into [`MR`]-row panels.
//!   Packing pays one extra pass over the operands and buys perfectly
//!   contiguous, aligned inner loops — the classic GotoBLAS trade. An
//!   operand that many products read is packed once instead ([`Packed`],
//!   [`View::packed`]) and each product reads its panels as they lie.
//! * **Stored element ≠ computed element.** Operands are [`View`]s over
//!   `f32` values or bf16 words (`u16`); the packers widen whatever is
//!   stored to `f32` on the way into the panels ([`Element`]), so a bf16
//!   operand streams half the bytes from memory while everything after
//!   the pack — panels, micro-kernel, accumulators — is the same `f32`
//!   code. bf16 → f32 is exact, so a product over bf16 words equals the
//!   product over the widened values bit for bit.
//! * **Register tiling.** The micro-kernel holds an `MR × NR` accumulator
//!   tile in registers across the whole `k` extent of a cache block:
//!   `MR·NR` fused multiply-adds per `MR + NR` loads.
//! * **Cache blocking.** `k` is split into [`KC`]-deep blocks (B panels
//!   sized for L1, A panels for L2), rows into [`MC`]-row blocks that
//!   double as the parallel work grain.
//!
//! **Determinism is structural.** Block sizes are compile-time constants
//! and each output tile is produced by exactly one task that walks the
//! `k` blocks in ascending order, so every output element accumulates in
//! one fixed order — independent of run, pool size, and `--overlap`
//! worker count. Every multiply-add is *fused*: `f32::mul_add` and
//! `vfmadd…ps` are both IEEE 754 `fusedMultiplyAdd`, one correctly
//! rounded result per step, so the scalar, AVX2 and AVX-512 tiles — and a
//! machine without FMA hardware, where `mul_add` is computed in software
//! — agree bit for bit by specification. The bitwise exec-strategy tests
//! and the pool-size determinism property tests both lean on this.
//!
//! Transposed products (`AᵀB`, `ABᵀ`) pack directly from the original
//! storage — nothing is ever materialized transposed — and layers can
//! multiply against raw parameter slices without cloning them into
//! `Matrix` values.

use crate::arena;
use rayon::prelude::*;

/// Micro-tile rows: rows of C held in registers by the micro-kernel.
pub const MR: usize = 8;
/// Micro-tile columns: two AVX-512 registers per tile row. A depth step
/// is then 16 FMAs against 10 loads (two B registers, eight broadcasts),
/// wide enough that the two FMA ports, not the load ports, set the pace;
/// a 16-wide tile (8 FMAs per 9 loads) measured 60–65 GFLOP/s where
/// this one reaches 85–90.
pub const NR: usize = 32;
/// Depth of a cache block: a `KC × NR` B panel is 16 KiB (L1-resident).
/// Public because it is also a unit of *accumulation order*: a product
/// whose reduction dimension is cut into `KC`-aligned pieces and summed
/// in ascending order reproduces the one-call result bit for bit (the
/// convolution lowering in `kfac-nn` sizes its patch blocks by it).
pub const KC: usize = 128;
/// Rows per A block and per parallel task: an `MC × KC` A pack is
/// 32 KiB (L2-resident), and one task owns `MC` full rows of C.
const MC: usize = 64;

/// Below this many multiply-adds the packed path's setup overhead
/// dominates; a plain triple loop wins and stays on the calling thread.
const SMALL_FLOP_CUTOFF: usize = 24 * 24 * 24;

/// Below this many multiply-adds (~150 µs on one core) a product stays on
/// the calling thread: waking the pool costs tens of microseconds, more
/// than splitting so little work saves. The convolution lowering issues
/// thousands of 0.3–1.2 M-multiply-add products per step; forking each
/// made a two-thread pool *slower* than one thread.
const PAR_MIN_MADDS: usize = 1 << 22;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for u16 {}
}

/// What an operand *stores*: `f32`, or the bf16 word `u16`. The trait
/// supplies the two things that differ between them — widening one
/// element, and the SIMD step of the against-the-grain pack — and
/// nothing else; every loop of the engine is written once over it.
pub trait Element: Copy + Send + Sync + sealed::Sealed {
    /// The stored element as the `f32` the kernels multiply (exact).
    fn widen(self) -> f32;

    /// Depth steps one [`transpose8`](Element::transpose8) covers.
    #[doc(hidden)]
    const LANES: usize;

    /// Widen [`LANES`](Element::LANES) elements from each of eight rows
    /// and store them transposed: element `p` of row `i` at
    /// `dst[p * stride + i]`.
    ///
    /// # Safety
    /// Requires AVX2; every `rows[i]` must expose `LANES` readable
    /// elements and `dst` must be writable at `[p * stride, p * stride + 8)`
    /// for every `p < LANES`.
    #[doc(hidden)]
    #[cfg(target_arch = "x86_64")]
    unsafe fn transpose8(rows: [*const Self; 8], dst: *mut f32, stride: usize);

    /// The storage as panels, which only `f32` views hold.
    #[doc(hidden)]
    fn panels(data: &[Self]) -> &[f32];
}

impl Element for f32 {
    #[inline(always)]
    fn widen(self) -> f32 {
        self
    }

    const LANES: usize = 8;

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn transpose8(rows: [*const f32; 8], dst: *mut f32, stride: usize) {
        simd::transpose_f32_8x8(rows, dst, stride)
    }

    fn panels(data: &[f32]) -> &[f32] {
        data
    }
}

impl Element for u16 {
    #[inline(always)]
    fn widen(self) -> f32 {
        crate::half::bf16_to_f32(self)
    }

    const LANES: usize = 16;

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn transpose8(rows: [*const u16; 8], dst: *mut f32, stride: usize) {
        simd::widen_transpose_bf16_8x16(rows, dst, stride)
    }

    fn panels(_: &[u16]) -> &[f32] {
        unreachable!("panel storage is f32")
    }
}

/// The side of a product `a · b` a packed operand is laid out for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The left operand `a` (`m × k`): [`KC`]-deep blocks of [`MR`]-row
    /// panels, element `(i, p)` of a panel at `panel[p*MR + i]`.
    Left,
    /// The right operand `b` (`k × n`): [`KC`]-deep blocks of [`NR`]-column
    /// panels, element `(p, j)` of a panel at `panel[p*NR + j]`.
    Right,
}

/// Length of the panel storage of a `rows × cols` matrix packed for
/// `side`: the panels zero-pad the non-depth dimension to a whole tile.
pub fn packed_len(side: Side, rows: usize, cols: usize) -> usize {
    match side {
        Side::Left => rows.div_ceil(MR) * MR * cols,
        Side::Right => rows * cols.div_ceil(NR) * NR,
    }
}

/// Where element `(r, c)` of a `rows × cols` matrix packed for `side`
/// lies in its panel storage. Block `k0..k0 + kc` of the depth (columns
/// of a left operand, rows of a right one) starts at `k0` times the padded
/// other dimension, and its panels are `kc` deep — so the first element
/// of a panel is where the engine's micro-kernel starts reading it.
#[inline(always)]
pub fn panel_offset(side: Side, rows: usize, cols: usize, r: usize, c: usize) -> usize {
    match side {
        Side::Left => {
            let k0 = c - c % KC;
            let kc = KC.min(cols - k0);
            k0 * rows.div_ceil(MR) * MR + (r / MR) * kc * MR + (c - k0) * MR + r % MR
        }
        Side::Right => {
            let k0 = r - r % KC;
            let kc = KC.min(rows - k0);
            k0 * cols.div_ceil(NR) * NR + (c / NR) * kc * NR + (r - k0) * NR + c % NR
        }
    }
}

/// How the matrix under a [`View`] is stored.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Storage {
    /// Row-major with leading dimension `ld`: `(r, c)` at `data[r * ld + c]`.
    Dense { ld: usize },
    /// A `rows × cols` matrix in the panel layout of `side`
    /// ([`panel_offset`]).
    Panels {
        side: Side,
        rows: usize,
        cols: usize,
    },
}

impl Storage {
    fn is_dense(&self) -> bool {
        matches!(self, Storage::Dense { .. })
    }

    #[inline(always)]
    fn offset(&self, r: usize, c: usize) -> usize {
        match *self {
            Storage::Dense { ld } => r * ld + c,
            Storage::Panels { side, rows, cols } => panel_offset(side, rows, cols, r, c),
        }
    }

    /// How many of a stored row's columns `c..c + len` lie next to each
    /// other from column `c` on.
    #[inline(always)]
    fn run(&self, c: usize, len: usize) -> usize {
        match *self {
            Storage::Dense { .. } => len,
            Storage::Panels {
                side: Side::Right, ..
            } => len.min(NR - c % NR),
            Storage::Panels {
                side: Side::Left, ..
            } => 1,
        }
    }
}

/// A borrowed matrix operand: storage, its layout, and the logical shape.
/// `View::new` is a plain row-major matrix; `View::t` presents the same
/// storage transposed; [`View::packed`] and [`Packed::view`] present panel
/// storage, which a product on the side it was packed for reads as is. `E`
/// is what the slice stores — `f32`, or bf16 words as `u16`; panel storage
/// is always `f32`.
#[derive(Clone, Copy)]
pub struct View<'a, E> {
    data: &'a [E],
    storage: Storage,
    /// Logical `(r, c)` is stored at `(c, r)`.
    trans: bool,
    rows: usize,
    cols: usize,
}

impl<'a, E: Element> View<'a, E> {
    /// Row-major `rows × cols` view over `data`.
    pub fn new(data: &'a [E], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "view shape mismatch");
        View {
            data,
            storage: Storage::Dense { ld: cols },
            trans: false,
            rows,
            cols,
        }
    }

    /// Transposed view: `data` stores `rows × cols` row-major, presented
    /// as its `cols × rows` transpose.
    pub fn t(data: &'a [E], rows: usize, cols: usize) -> Self {
        View::new(data, rows, cols).transposed()
    }

    /// The same storage presented transposed.
    pub fn transposed(self) -> Self {
        View {
            trans: !self.trans,
            rows: self.cols,
            cols: self.rows,
            ..self
        }
    }

    /// The leading `rows × cols` block of this view.
    pub fn leading(self, rows: usize, cols: usize) -> Self {
        assert!(
            rows <= self.rows && cols <= self.cols,
            "leading block larger than the view"
        );
        View { rows, cols, ..self }
    }

    /// Logical row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Stored position of logical `(r, c)`.
    #[inline(always)]
    fn offset(&self, r: usize, c: usize) -> usize {
        match self.trans {
            false => self.storage.offset(r, c),
            true => self.storage.offset(c, r),
        }
    }

    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[self.offset(r, c)].widen()
    }

    /// The panel storage and stored shape, when this view is a leading
    /// block of a matrix packed for `side` — what a product reads without
    /// packing it again.
    fn panels(&self, side: Side) -> Option<(&'a [f32], usize, usize)> {
        match self.storage {
            Storage::Panels {
                side: s,
                rows,
                cols,
            } if s == side && !self.trans => Some((E::panels(self.data), rows, cols)),
            _ => None,
        }
    }
}

impl<'a> View<'a, f32> {
    /// `data` holding a `rows × cols` matrix packed for `side`
    /// ([`panel_offset`]), as a view.
    pub fn packed(data: &'a [f32], side: Side, rows: usize, cols: usize) -> Self {
        assert_eq!(
            data.len(),
            packed_len(side, rows, cols),
            "packed view shape mismatch"
        );
        View {
            data,
            storage: Storage::Panels { side, rows, cols },
            trans: false,
            rows,
            cols,
        }
    }
}

/// Pack `src` for `side` into `dst` (`packed_len(side, rows, cols)` long),
/// writing every element of it: the layout a product on that side reads
/// without packing it again ([`View::packed`], [`Packed`]).
fn pack_into<E: Element>(src: View<'_, E>, side: Side, dst: &mut [f32]) {
    let (rows, cols) = (src.rows(), src.cols());
    let pad = match side {
        Side::Left => rows.div_ceil(MR) * MR,
        Side::Right => cols.div_ceil(NR) * NR,
    };
    let depth = match side {
        Side::Left => cols,
        Side::Right => rows,
    };
    assert_eq!(dst.len(), pad * depth, "packed length mismatch");
    let mut k0 = 0usize;
    while k0 < depth {
        let kc = KC.min(depth - k0);
        let block = &mut dst[k0 * pad..(k0 + kc) * pad];
        match side {
            Side::Left => pack_a_block(src, 0, rows, k0, kc, block),
            Side::Right => pack_b_block(src, k0, kc, cols, block),
        }
        k0 += kc;
    }
}

/// An operand packed once and read by many products: the matrix in the
/// panel layout of one side.
#[derive(Debug, Clone)]
pub struct Packed {
    data: Vec<f32>,
    side: Side,
    rows: usize,
    cols: usize,
}

impl Packed {
    /// `src` packed for `side`.
    pub fn of<E: Element>(side: Side, src: View<'_, E>) -> Self {
        Packed::pack_in(side, src, Vec::new())
    }

    /// `src` packed for `side` in storage from the thread's arena, for a
    /// pack that lives for one call; give it back with
    /// [`recycle`](Packed::recycle). One buffer, reused by every layer,
    /// stays in cache where a buffer per layer would not.
    pub fn scratch<E: Element>(side: Side, src: View<'_, E>) -> Self {
        let len = packed_len(side, src.rows(), src.cols());
        Packed::pack_in(side, src, arena::take_f32(len))
    }

    /// `src` packed for `side` into `data`'s allocation.
    fn pack_in<E: Element>(side: Side, src: View<'_, E>, mut data: Vec<f32>) -> Self {
        let (rows, cols) = (src.rows(), src.cols());
        data.resize(packed_len(side, rows, cols), 0.0);
        pack_into(src, side, &mut data);
        Packed {
            data,
            side,
            rows,
            cols,
        }
    }

    /// Hand the storage of a [`scratch`](Packed::scratch) pack back.
    pub fn recycle(self) {
        arena::recycle_f32(self.data);
    }

    /// The packed matrix as an operand.
    pub fn view(&self) -> View<'_, f32> {
        View::packed(&self.data, self.side, self.rows, self.cols)
    }
}

/// `out = a · b` accumulated in `f32`, writing every element of `out`
/// exactly once (first-touch; `out` may be unspecified scratch).
/// `out.len()` must be `a.rows() * b.cols()`.
///
/// # Panics
/// Panics on inner-dimension or output-length mismatch.
pub fn gemm_into<E: Element>(a: View<'_, E>, b: View<'_, E>, out: &mut [f32]) {
    gemm_impl(a, b, out, false, true);
}

/// One piece of a product whose reduction dimension arrives in pieces:
/// `a · b` is stored into `out` when `first`, and added to what `out`
/// holds otherwise — the store-or-add the `KC` loop does between its own
/// blocks, carried across calls. Pieces that are multiples of [`KC`]
/// deep, fed in ascending order, therefore leave the bits one
/// [`gemm_into`] over the whole reduction computes.
pub fn gemm_acc_into<E: Element>(a: View<'_, E>, b: View<'_, E>, out: &mut [f32], first: bool) {
    gemm_impl(a, b, out, false, first);
}

/// Like [`gemm_into`] for a product known to be symmetric (a Gram
/// product `XᵀX` or `XXᵀ`): only tiles touching or above the diagonal
/// are computed, then the strict upper triangle is mirrored onto the
/// lower — halving the FLOPs and guaranteeing exact (bitwise) symmetry.
pub fn gemm_symmetric_into<E: Element>(a: View<'_, E>, b: View<'_, E>, out: &mut [f32]) {
    gemm_upper_into(a, b, out, true);
    mirror_upper_to_lower(out, a.rows());
}

/// One piece of a symmetric product whose reduction dimension arrives in
/// pieces: the tiles touching or above the diagonal of `a · b` are stored
/// into `out` when `first`, and added to what `out` holds otherwise — the
/// store-or-add the `KC` loop does between its own blocks, carried across
/// calls. Pieces that are multiples of [`KC`] deep, fed in ascending
/// order, therefore leave the bits one [`gemm_symmetric_into`] over the
/// whole reduction computes above the diagonal. Below it `out` is
/// unspecified until [`mirror_upper_to_lower`] runs, once, after the last
/// piece.
pub fn gemm_upper_into<E: Element>(a: View<'_, E>, b: View<'_, E>, out: &mut [f32], first: bool) {
    assert_eq!(a.rows(), b.cols(), "symmetric product must be square");
    gemm_impl(a, b, out, true, first);
}

fn gemm_impl<E: Element>(
    a: View<'_, E>,
    b: View<'_, E>,
    out: &mut [f32],
    upper_only: bool,
    first: bool,
) {
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
        if first {
            out.fill(0.0);
        }
        return;
    }
    // Panel storage has no setup left to skip, and the triple loop would
    // look up each of its elements through the panel layout. Both paths
    // round alike, so the choice is speed only.
    let dense = a.storage.is_dense() && b.storage.is_dense();
    if m * n * k <= SMALL_FLOP_CUTOFF && dense {
        gemm_naive(a, b, out, upper_only, first);
        return;
    }

    // ---- B panels: the operand itself when it is packed, else packed
    // once here. ----
    let b_own = b.panels(Side::Right).is_none().then(|| {
        let mut bpack = arena::take_f32(packed_len(Side::Right, k, n));
        pack_into(b, Side::Right, &mut bpack);
        bpack
    });
    let (bdata, b_rows, b_cols) = match &b_own {
        Some(bpack) => (&bpack[..], k, n),
        None => b.panels(Side::Right).expect("packed right operand"),
    };
    let a_packed = a.panels(Side::Left);

    // ---- Parallel over MC-row blocks of C; each task owns its rows. ----
    let run_block = |i0: usize, out_block: &mut [f32]| {
        let mc = MC.min(m - i0);
        let mc_pad = mc.div_ceil(MR) * MR;
        let mut apack = match a_packed {
            Some(_) => Vec::new(),
            None => arena::take_f32(mc_pad * KC),
        };
        let mut k0 = 0usize;
        let mut first = first;
        while k0 < k {
            let kc = KC.min(k - k0);
            // A panels of this row block and depth block: where the packed
            // operand holds them, or a pack of just them.
            let (adata, a_rows, a_cols, ai0, ak0) = match a_packed {
                Some((data, rows, cols)) => (data, rows, cols, i0, k0),
                None => {
                    pack_a_block(a, i0, mc, k0, kc, &mut apack[..mc_pad * kc]);
                    (&apack[..mc_pad * kc], mc, kc, 0, 0)
                }
            };
            // Gram products skip every tile strictly below the diagonal —
            // whole panels left of this row block, and under each panel
            // the row tiles that start past its last column; the mirror
            // pass fills them afterwards.
            let j_start = if upper_only { (i0 / NR) * NR } else { 0 };
            let mut j0 = j_start;
            while j0 < n {
                let nr = NR.min(n - j0);
                let at = panel_offset(Side::Right, b_rows, b_cols, k0, j0);
                let bpanel = &bdata[at..at + kc * NR];
                let rows = if upper_only { mc.min(j0 + NR - i0) } else { mc };
                let mut ii = 0usize;
                while ii < rows {
                    let mr = MR.min(mc - ii);
                    let at = panel_offset(Side::Left, a_rows, a_cols, ai0 + ii, ak0);
                    let apanel = &adata[at..at + kc * MR];
                    micro_kernel(kc, apanel, bpanel, out_block, ii, n, j0, mr, nr, first);
                    ii += MR;
                }
                j0 += NR;
            }
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
    if let Some(bpack) = b_own {
        arena::recycle_f32(bpack);
    }
}

/// Widen a contiguous run of stored elements into the front of a panel
/// row and zero the rest of it (the with-the-grain pack step).
#[inline(always)]
fn widen_run<E: Element>(src: &[E], dst: &mut [f32]) {
    let (head, pad) = dst.split_at_mut(src.len());
    for (d, &v) in head.iter_mut().zip(src) {
        *d = v.widen();
    }
    pad.fill(0.0);
}

/// The with-the-grain pack step over any storage: stored rows
/// `r0..r0 + rows`, each one's columns `c0..c0 + len` widened into the
/// front of its `width`-long piece of `dst`, the rest of the piece zeroed.
/// `r0..r0 + rows` lie in one `KC`-aligned block of rows, so in every
/// storage where the columns lie next to each other the rows start a fixed
/// step apart.
#[inline(always)]
fn copy_stored<E: Element>(
    v: &View<'_, E>,
    r0: usize,
    rows: usize,
    c0: usize,
    len: usize,
    dst: &mut [f32],
    width: usize,
) {
    let dst = dst.chunks_exact_mut(width).take(rows);
    if v.storage.run(c0, len) == len {
        let at = v.storage.offset(r0, c0);
        let step = if rows > 1 {
            v.storage.offset(r0 + 1, c0) - at
        } else {
            0
        };
        for (p, d) in dst.enumerate() {
            let at = at + p * step;
            widen_run(&v.data[at..at + len], d);
        }
    } else {
        for (p, d) in dst.enumerate() {
            for (j, d) in d.iter_mut().enumerate() {
                *d = if j < len {
                    v.data[v.storage.offset(r0 + p, c0 + j)].widen()
                } else {
                    0.0
                };
            }
        }
    }
}

/// The against-the-grain pack step over any storage: stored rows
/// `r0..r0 + rows` (`rows ≤ 8`, `r0` a multiple of 8), stored columns
/// `c0..c0 + len`, element `(i, p)` widened to `dst[p * stride + i]` —
/// [`interleave_rows`] over each run of columns that lie next to each
/// other. Such a group of rows lies in one `MR` panel and one `KC` block of
/// rows, so in every storage its rows start a fixed step apart.
fn interleave_stored<E: Element>(
    v: &View<'_, E>,
    r0: usize,
    rows: usize,
    c0: usize,
    len: usize,
    dst: &mut [f32],
    stride: usize,
) {
    let step = if rows > 1 {
        v.storage.offset(r0 + 1, c0) - v.storage.offset(r0, c0)
    } else {
        0
    };
    let mut p = 0usize;
    while p < len {
        let seg = v.storage.run(c0 + p, len - p);
        let at = v.storage.offset(r0, c0 + p);
        interleave_rows(v.data, at, step, rows, seg, &mut dst[p * stride..], stride);
        p += seg;
    }
}

/// Pack rows `k0..k0+kc` of `b` into NR-column panels: panel `jp` holds
/// columns `jp*NR..` with element `(p, jj)` at `panel[p*NR + jj]`,
/// zero-padded past `n`. Every packed element is written (first-touch).
fn pack_b_block<E: Element>(b: View<'_, E>, k0: usize, kc: usize, n: usize, dst: &mut [f32]) {
    for (jp, panel) in dst.chunks_exact_mut(kc * NR).enumerate() {
        let j0 = jp * NR;
        let nr = NR.min(n - j0);
        if !b.trans {
            copy_stored(&b, k0, kc, j0, nr, panel, NR);
            continue;
        }
        // Logical (p, j) is stored at (j, p): each logical column is a
        // stored row, interleaved into the panel eight columns at a time.
        for jj0 in (0..nr).step_by(8) {
            interleave_stored(&b, j0 + jj0, 8.min(nr - jj0), k0, kc, &mut panel[jj0..], NR);
        }
        if nr < NR {
            for p in 0..kc {
                panel[p * NR + nr..(p + 1) * NR].fill(0.0);
            }
        }
    }
}

/// Pack rows `i0..i0+mc`, depth `k0..k0+kc` of `a` into MR-row panels:
/// panel `ip` holds rows `ip*MR..` with element `(ii, p)` at
/// `panel[p*MR + ii]`, zero-padded past `mc`.
fn pack_a_block<E: Element>(
    a: View<'_, E>,
    i0: usize,
    mc: usize,
    k0: usize,
    kc: usize,
    dst: &mut [f32],
) {
    for (ip, panel) in dst.chunks_exact_mut(kc * MR).enumerate() {
        let ii0 = ip * MR;
        let mr = MR.min(mc - ii0);
        if a.trans {
            // Logical (i, p) is stored at (p, i): each depth step reads a
            // run of logical rows that lie next to each other.
            copy_stored(&a, k0, kc, i0 + ii0, mr, panel, MR);
            continue;
        }
        interleave_stored(&a, i0 + ii0, mr, k0, kc, panel, MR);
        if mr < MR {
            for p in 0..kc {
                panel[p * MR + mr..(p + 1) * MR].fill(0.0);
            }
        }
    }
}

/// Interleave up to eight storage rows into panel layout: row `i`
/// (`rows ≤ 8`) starts at `data[at + i * step]`, is `kc` long, and its
/// element `p` lands, widened, at `dst[p * stride + i]` — the
/// transposition both "against the grain" packs need (`pack_a` of a
/// row-major operand, `pack_b` of a transposed one). Full groups of eight
/// rows go through the element type's register transpose; pure data
/// movement either way, so the packed values and every product are
/// unchanged.
fn interleave_rows<E: Element>(
    data: &[E],
    at: usize,
    step: usize,
    rows: usize,
    kc: usize,
    dst: &mut [f32],
    stride: usize,
) {
    debug_assert!(rows <= 8 && stride >= 8);
    // One slice proves every row readable for `kc` elements.
    let src = &data[at..at + (rows - 1) * step + kc];
    let mut done = 0usize;
    #[cfg(target_arch = "x86_64")]
    if rows == 8 && kc >= E::LANES && std::arch::is_x86_feature_detected!("avx2") {
        // The reslice proves `dst` writable up to the last element the
        // transposes store.
        let dst = &mut dst[..(kc - 1) * stride + 8];
        while done + E::LANES <= kc {
            // SAFETY: avx2 checked; row `i` reads `src[i * step + done..]`
            // for `LANES` elements, `done + LANES ≤ kc`, inside `src`; the
            // stores cover `dst[(done + p) * stride..][..8]` for
            // `p < LANES`, within the length asserted by the reslice above.
            unsafe {
                E::transpose8(
                    std::array::from_fn(|i| src.as_ptr().add(i * step + done)),
                    dst.as_mut_ptr().add(done * stride),
                    stride,
                );
            }
            done += E::LANES;
        }
    }
    if done == kc {
        return;
    }
    for i in 0..rows {
        let row = &src[i * step + done..i * step + kc];
        for (p, &v) in row.iter().enumerate() {
            dst[(done + p) * stride + i] = v.widen();
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
    #[cfg(target_arch = "x86_64")]
    if mr == MR && nr == NR && std::arch::is_x86_feature_detected!("avx512f") {
        // A whole tile goes from registers to `out`: at a shallow `kc` (a
        // conv layer's `Wᵀ·gy_b` is `c_out` deep) the trip through `acc`
        // costs a third of the tile.
        let out = &mut out[row0 * ldc + j0..(row0 + MR - 1) * ldc + j0 + NR];
        assert!(apanel.len() >= kc * MR && bpanel.len() >= kc * NR);
        // SAFETY: feature checked; the panels are `kc` deep and `out` holds
        // `MR` rows of `NR` at stride `ldc` (both asserted above).
        unsafe { simd::tile_avx512_into(kc, apanel, bpanel, out, ldc, first) };
        return;
    }
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

/// Accumulate the full `MR × NR` tile: `acc[i][j] = fma(A[i,p], B[p,j], ·)`
/// over ascending `p`.
///
/// Dispatches to an explicit-SIMD kernel where available. All paths
/// perform the *same* correctly rounded fused multiply-add per element in
/// the *same* order — SIMD only changes how many `(i, j)` lanes run at
/// once, never an element's accumulation sequence — so scalar, AVX2 and
/// AVX-512 produce bitwise identical tiles. The explicit intrinsics exist
/// because LLVM's autovectorizer turns the scalar formulation into
/// gather/shuffle soup instead of the obvious broadcast-FMA loop.
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
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: features checked; panel lengths checked above.
            unsafe { simd::tile_avx2(kc, apanel, bpanel, acc) };
            return;
        }
    }
    tile_scalar(kc, apanel, bpanel, acc);
}

/// Portable fallback tile kernel (and the semantic reference for the
/// SIMD paths). Where FMA hardware is absent `mul_add` is computed in
/// software — slow, but this path only runs on pre-AVX2 machines.
fn tile_scalar(kc: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
    for p in 0..kc {
        let ap = &apanel[p * MR..p * MR + MR];
        let bp = &bpanel[p * NR..p * NR + NR];
        for (acc_row, &a_ip) in acc.iter_mut().zip(ap.iter()) {
            for (c, &b_pj) in acc_row.iter_mut().zip(bp.iter()) {
                *c = a_ip.mul_add(b_pj, *c);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod simd {
    //! Explicit-SIMD tile kernels and pack transposes. Panel layouts:
    //! `apanel[p*MR + i]`, `bpanel[p*NR + j]`, both `f32`; one B row per
    //! depth step is loaded contiguously and each A element is broadcast
    //! against it with a fused multiply-add.
    use super::{MR, NR};
    use std::arch::x86_64::*;

    /// Two zmm registers hold an NR-wide tile row; MR rows keep 16 zmm
    /// accumulators (plus two B registers and the broadcast) live across
    /// the whole depth loop — 19 of the 32 zmm registers.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tile_avx512(
        kc: usize,
        apanel: &[f32],
        bpanel: &[f32],
        acc: &mut [[f32; NR]; MR],
    ) {
        let v = accumulate_avx512(kc, apanel, bpanel);
        for (row, vi) in acc.iter_mut().zip(v.iter()) {
            _mm512_storeu_ps(row.as_mut_ptr(), vi[0]);
            _mm512_storeu_ps(row.as_mut_ptr().add(16), vi[1]);
        }
    }

    /// [`tile_avx512`] stored (`first`) or added straight into `out`, row
    /// `i` of the tile at `out[i * ldc..][..NR]`: the adds are the ones
    /// `micro_kernel` makes from `acc`, so the bits are too.
    ///
    /// # Safety
    /// Requires AVX-512F; the panels must be `kc` deep and `out` must hold
    /// `(MR − 1) · ldc + NR` elements.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn tile_avx512_into(
        kc: usize,
        apanel: &[f32],
        bpanel: &[f32],
        out: &mut [f32],
        ldc: usize,
        first: bool,
    ) {
        assert!(out.len() >= (MR - 1) * ldc + NR);
        let v = accumulate_avx512(kc, apanel, bpanel);
        for (i, vi) in v.iter().enumerate() {
            let row = out.as_mut_ptr().add(i * ldc);
            for (h, &vh) in vi.iter().enumerate() {
                let at = row.add(16 * h);
                let sum = if first {
                    vh
                } else {
                    _mm512_add_ps(_mm512_loadu_ps(at), vh)
                };
                _mm512_storeu_ps(at, sum);
            }
        }
    }

    /// The tile's accumulators: two zmm registers per row, over `kc`
    /// depth steps.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn accumulate_avx512(kc: usize, apanel: &[f32], bpanel: &[f32]) -> [[__m512; 2]; MR] {
        let mut v = [[_mm512_setzero_ps(); 2]; MR];
        for p in 0..kc {
            let b0 = _mm512_loadu_ps(bpanel.as_ptr().add(p * NR));
            let b1 = _mm512_loadu_ps(bpanel.as_ptr().add(p * NR + 16));
            for (i, vi) in v.iter_mut().enumerate() {
                let a = _mm512_set1_ps(*apanel.get_unchecked(p * MR + i));
                vi[0] = _mm512_fmadd_ps(a, b0, vi[0]);
                vi[1] = _mm512_fmadd_ps(a, b1, vi[1]);
            }
        }
        v
    }

    /// 8-lane variant: a tile row is four ymm registers, processed in
    /// 2-row quarters (8 accumulators + 4 B registers + the broadcast)
    /// to stay within 16 ymm registers.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn tile_avx2(kc: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [[f32; NR]; MR]) {
        const QUARTER: usize = MR / 4;
        for h in 0..4 {
            let r0 = h * QUARTER;
            let mut v = [[_mm256_setzero_ps(); 4]; QUARTER];
            for p in 0..kc {
                let b = [
                    _mm256_loadu_ps(bpanel.as_ptr().add(p * NR)),
                    _mm256_loadu_ps(bpanel.as_ptr().add(p * NR + 8)),
                    _mm256_loadu_ps(bpanel.as_ptr().add(p * NR + 16)),
                    _mm256_loadu_ps(bpanel.as_ptr().add(p * NR + 24)),
                ];
                for (i, vi) in v.iter_mut().enumerate() {
                    let a = _mm256_set1_ps(*apanel.get_unchecked(p * MR + r0 + i));
                    for (acc_q, &bq) in vi.iter_mut().zip(b.iter()) {
                        *acc_q = _mm256_fmadd_ps(a, bq, *acc_q);
                    }
                }
            }
            for (i, vi) in v.iter().enumerate() {
                for (q, acc_q) in vi.iter().enumerate() {
                    _mm256_storeu_ps(acc[r0 + i].as_mut_ptr().add(q * 8), *acc_q);
                }
            }
        }
    }

    /// `f32` pack step: 8×8 transpose, element `p` of row `i` stored at
    /// `dst[p * stride + i]`.
    ///
    /// # Safety
    /// Requires AVX2; every `rows[i]` must expose 8 readable `f32`s and
    /// `dst` must be writable at `[p * stride, p * stride + 8)` for
    /// every `p < 8`.
    ///
    /// `#[inline]` (here and on the bf16 step) makes the body available to
    /// every codegen unit that instantiates a pack: when the partition put
    /// this function apart from `interleave_rows::<f32>`, a call per 8×8
    /// block cost the `A·Bᵀ` conv shapes 12–17 % (`xp bench-kernels`).
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn transpose_f32_8x8(rows: [*const f32; 8], dst: *mut f32, stride: usize) {
        transpose8_store(rows.map(|p| _mm256_loadu_ps(p)), dst, stride);
    }

    /// bf16 pack step: widen 16 words from each of 8 rows (`bits << 16`,
    /// exact) and store them transposed, element `p` of row `i` at
    /// `dst[p * stride + i]`.
    ///
    /// # Safety
    /// Requires AVX2; every `rows[i]` must expose 16 readable words and
    /// `dst` must be writable at `[p * stride, p * stride + 8)` for
    /// every `p < 16`.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn widen_transpose_bf16_8x16(rows: [*const u16; 8], dst: *mut f32, stride: usize) {
        let words = rows.map(|p| _mm256_loadu_si256(p as *const __m256i));
        let widen =
            |w: __m128i| _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_cvtepu16_epi32(w), 16));
        let lo = words.map(|w| widen(_mm256_castsi256_si128(w)));
        let hi = words.map(|w| widen(_mm256_extracti128_si256(w, 1)));
        transpose8_store(lo, dst, stride);
        transpose8_store(hi, dst.add(8 * stride), stride);
    }

    /// Classic 8×8 register transpose: lane `p` of every input row is
    /// stored contiguously at `dst + p * stride`.
    #[inline(always)]
    unsafe fn transpose8_store(r: [__m256; 8], dst: *mut f32, stride: usize) {
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
}

/// Small-product fallback: a triple loop on the calling thread, still
/// first-touch (each output element written exactly once). It sums in
/// the packed path's order — [`KC`]-deep fused partial sums, stored or
/// added in ascending order — so an element's bits do not depend on which
/// path the shape of the *rest* of the product selected.
fn gemm_naive<E: Element>(
    a: View<'_, E>,
    b: View<'_, E>,
    out: &mut [f32],
    upper_only: bool,
    first: bool,
) {
    let m = a.rows();
    let k = a.cols();
    let n = b.cols();
    for i in 0..m {
        for j in if upper_only { i } else { 0 }..n {
            let mut total = out[i * n + j];
            for k0 in (0..k).step_by(KC) {
                let mut acc = 0.0f32;
                for p in k0..(k0 + KC).min(k) {
                    acc = a.at(i, p).mul_add(b.at(p, j), acc);
                }
                total = if first && k0 == 0 { acc } else { total + acc };
            }
            out[i * n + j] = total;
        }
    }
}

/// Side of the square tiles [`mirror_upper_to_lower`] transposes. A
/// column of the destination is one cache line per row; at a power-of-two
/// `n` those lines share a couple of L1 sets, and 16 of them still fit
/// the sets' ways where a whole column (or 32 rows of it) evicts itself —
/// a 512² mirror takes 100 µs at 16, 300 at 32 and 400 untiled, while the
/// odd sizes the factors have (145, 289, 577) run within 10 % of their
/// best at any tile.
const MIRROR_TILE: usize = 16;

/// Copy the strict upper triangle of the row-major `n × n` matrix `out`
/// onto the lower one, tile by tile, so the column-stride writes land in
/// cache lines that are still resident. Pure data movement: every bit
/// pattern (`-0.0`, NaN payloads) is copied as is.
pub fn mirror_upper_to_lower(out: &mut [f32], n: usize) {
    assert_eq!(out.len(), n * n, "mirror needs a square matrix");
    for i0 in (0..n).step_by(MIRROR_TILE) {
        let i1 = (i0 + MIRROR_TILE).min(n);
        for j0 in (i0..n).step_by(MIRROR_TILE) {
            let j1 = (j0 + MIRROR_TILE).min(n);
            for i in i0..i1 {
                for j in j0.max(i + 1)..j1 {
                    out[j * n + i] = out[i * n + j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! One suite, run over both stored element types.
    use super::*;
    use crate::half::f32_to_bf16;
    use crate::rng::Rng64;

    trait TestElement: Element + PartialEq + std::fmt::Debug {
        fn from_f32(v: f32) -> Self;
    }
    impl TestElement for f32 {
        fn from_f32(v: f32) -> f32 {
            v
        }
    }
    impl TestElement for u16 {
        fn from_f32(v: f32) -> u16 {
            f32_to_bf16(v)
        }
    }

    fn random<E: TestElement>(len: usize, rng: &mut Rng64) -> Vec<E> {
        (0..len).map(|_| E::from_f32(rng.normal_f32())).collect()
    }

    fn widened<E: Element>(x: &[E]) -> Vec<f32> {
        x.iter().map(|v| v.widen()).collect()
    }

    /// The `rows × cols` transpose of `x`, which stores `cols × rows`.
    fn transposed<E: Copy>(x: &[E], rows: usize, cols: usize) -> Vec<E> {
        (0..rows * cols)
            .map(|i| x[(i % cols) * rows + i / cols])
            .collect()
    }

    /// f64 reference over the widened values.
    fn reference<E: Element>(a: &[E], b: &[E], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc += a[i * k + p].widen() as f64 * b[p * n + j].widen() as f64;
                }
                c[i * n + j] = acc as f32;
            }
        }
        c
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    fn max_diff(x: &[f32], y: &[f32]) -> f32 {
        x.iter()
            .zip(y)
            .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()))
    }

    fn product<E: Element>(a: View<'_, E>, b: View<'_, E>) -> Vec<f32> {
        let mut out = vec![f32::NAN; a.rows() * b.cols()];
        gemm_into(a, b, &mut out);
        out
    }

    fn symmetric_product<E: Element>(a: View<'_, E>, b: View<'_, E>) -> Vec<f32> {
        let mut out = vec![f32::NAN; a.rows() * b.cols()];
        gemm_symmetric_into(a, b, &mut out);
        out
    }

    fn packed_matches_reference<E: TestElement>() {
        let mut rng = Rng64::new(1);
        // Around every blocking edge: MR 8, NR 32, KC 128, MC 64.
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 2),
            (7, 127, 31),
            (9, 129, 33),
            (64, 64, 64),
            (65, 257, 33),
            (100, 300, 100),
            (128, 512, 129),
        ] {
            let a = random::<E>(m * k, &mut rng);
            let b = random::<E>(k * n, &mut rng);
            let out = product(View::new(&a, m, k), View::new(&b, k, n));
            let d = max_diff(&out, &reference(&a, &b, m, k, n));
            assert!(d < 1e-3, "({m},{k},{n}) diff {d}");
        }
    }

    #[test]
    fn packed_matches_reference_across_shapes() {
        packed_matches_reference::<f32>();
        packed_matches_reference::<u16>();
    }

    fn transposed_views_match<E: TestElement>() {
        let mut rng = Rng64::new(2);
        let (m, k, n) = (70, 130, 90);
        let at = random::<E>(k * m, &mut rng); // stores k x m, viewed as m x k
        let bt = random::<E>(n * k, &mut rng); // stores n x k, viewed as k x n
        let a = transposed(&at, m, k);
        let b = transposed(&bt, k, n);
        assert_eq!(
            product(View::t(&at, k, m), View::t(&bt, n, k)),
            product(View::new(&a, m, k), View::new(&b, k, n)),
            "views must be bitwise path-equal"
        );
    }

    #[test]
    fn transposed_views_match_materialized_transpose() {
        transposed_views_match::<f32>();
        transposed_views_match::<u16>();
    }

    #[test]
    fn k_zero_zeroes_output() {
        fn check<E: TestElement>() {
            let out = product(View::<E>::new(&[], 2, 0), View::new(&[], 0, 3));
            assert!(out.iter().all(|&v| v == 0.0));
        }
        check::<f32>();
        check::<u16>();
    }

    fn symmetric_gram<E: TestElement>() {
        let mut rng = Rng64::new(3);
        let (k, n) = (200, 150);
        let x = random::<E>(k * n, &mut rng);
        // XᵀX and XXᵀ: symmetric to the bit, and — products commute inside
        // the fused multiply-add — equal to the full product.
        for (a, b) in [
            (View::t(&x, k, n), View::new(&x, k, n)),
            (View::new(&x, k, n), View::t(&x, k, n)),
        ] {
            let g = symmetric_product(a, b);
            let dim = a.rows();
            for i in 0..dim {
                for j in 0..dim {
                    assert_eq!(g[i * dim + j].to_bits(), g[j * dim + i].to_bits());
                }
            }
            assert_eq!(g, product(a, b));
        }
    }

    #[test]
    fn symmetric_gram_is_bitwise_symmetric() {
        symmetric_gram::<f32>();
        symmetric_gram::<u16>();
    }

    /// The reduction cut into `KC`-deep pieces (the last one ragged) and
    /// fed through the accumulating entry, then mirrored once, against
    /// one symmetric call and the full product over the whole reduction.
    fn upper_pieces_match_one_call<E: TestElement>() {
        let mut rng = Rng64::new(8);
        let k = 3 * KC + 37;
        // Straddling MR 8, NR 32, MC 64, and the ResNet-32 factor sides.
        for n in [8, 31, 33, 64, 65, 144, 145, 289] {
            // XᵀX: `x` stores k × n, a piece is a run of its rows.
            let x = random::<E>(k * n, &mut rng);
            // XXᵀ: the same matrix feature-major, piece by piece — each
            // piece the row-major `n × len` block a conv layer holds.
            let blocks: Vec<Vec<E>> = (0..k)
                .step_by(KC)
                .map(|k0| transposed(&x[k0 * n..(k0 + KC).min(k) * n], n, KC.min(k - k0)))
                .collect();
            let xt = transposed(&x, n, k);
            for pool in [1, 2, 4] {
                rayon::set_pool_threads(pool);
                let mut tn = vec![f32::NAN; n * n];
                let mut nt = vec![f32::NAN; n * n];
                for (b, block) in blocks.iter().enumerate() {
                    let len = block.len() / n;
                    let rows = &x[b * KC * n..(b * KC + len) * n];
                    gemm_upper_into(
                        View::t(rows, len, n),
                        View::new(rows, len, n),
                        &mut tn,
                        b == 0,
                    );
                    gemm_upper_into(
                        View::new(block, n, len),
                        View::t(block, n, len),
                        &mut nt,
                        b == 0,
                    );
                }
                mirror_upper_to_lower(&mut tn, n);
                mirror_upper_to_lower(&mut nt, n);
                let (a, b) = (View::t(&x, k, n), View::new(&x, k, n));
                let one = symmetric_product(a, b);
                assert_eq!(bits(&tn), bits(&one), "XᵀX n={n} pool={pool}");
                assert_eq!(bits(&nt), bits(&one), "XXᵀ n={n} pool={pool}");
                assert_eq!(bits(&one), bits(&product(a, b)), "full n={n} pool={pool}");
                let nt_one = symmetric_product(View::new(&xt, n, k), View::t(&xt, n, k));
                assert_eq!(bits(&nt_one), bits(&one), "XXᵀ one call n={n} pool={pool}");
            }
        }
    }

    #[test]
    fn upper_pieces_plus_one_mirror_equal_one_symmetric_call() {
        upper_pieces_match_one_call::<f32>();
        upper_pieces_match_one_call::<u16>();
    }

    /// `gemm_acc_into` over `KC`-deep pieces of the reduction (the last
    /// one ragged) against one `gemm_into` over all of it, in the weight
    /// gradient's shape `gy · Pᵀ` with each piece a feature-major block.
    #[test]
    fn acc_pieces_equal_one_call() {
        let mut rng = Rng64::new(10);
        let k = 3 * KC + 37;
        // Both sides of the small-product cutoff.
        for (m, n) in [(3, 5), (16, 27), (32, 288), (65, 145)] {
            let gy = random::<f32>(m * k, &mut rng);
            let p = random::<f32>(n * k, &mut rng);
            // Columns k0..k0 + len of a row-major `rows × k` matrix.
            let piece = |x: &[f32], rows: usize, k0: usize, len: usize| -> Vec<f32> {
                (0..rows)
                    .flat_map(|r| x[r * k + k0..r * k + k0 + len].to_vec())
                    .collect()
            };
            for pool in [1, 2] {
                rayon::set_pool_threads(pool);
                let mut acc = vec![f32::NAN; m * n];
                for k0 in (0..k).step_by(KC) {
                    let len = KC.min(k - k0);
                    let (g, q) = (piece(&gy, m, k0, len), piece(&p, n, k0, len));
                    gemm_acc_into(
                        View::new(&g, m, len),
                        View::t(&q, n, len),
                        &mut acc,
                        k0 == 0,
                    );
                }
                let one = product(View::new(&gy, m, k), View::t(&p, n, k));
                assert_eq!(bits(&acc), bits(&one), "m={m} n={n} pool={pool}");
            }
        }
    }

    #[test]
    fn tiled_mirror_copies_every_bit_pattern() {
        let mut rng = Rng64::new(9);
        for n in [1, 2, 31, 32, 33, 64, 65, 145] {
            let mut m: Vec<f32> = (0..n * n)
                .map(|i| match i % 7 {
                    0 => -0.0,
                    // Quiet and signalling NaNs with distinct payloads.
                    1 => f32::from_bits(0x7FC0_0000 | i as u32),
                    2 => f32::from_bits(0xFF80_0001 + i as u32),
                    _ => rng.normal_f32(),
                })
                .collect();
            let mut want = m.clone();
            for i in 0..n {
                for j in (i + 1)..n {
                    want[j * n + i] = want[i * n + j];
                }
            }
            mirror_upper_to_lower(&mut m, n);
            assert_eq!(bits(&m), bits(&want), "n={n}");
        }
    }

    fn small_products_round_like_packed<E: TestElement>() {
        // 2×9 over k = 600 takes the naive path; the same rows against a
        // 64-column B take the packed one. Shared columns must agree bit
        // for bit, including across the KC boundaries.
        let mut rng = Rng64::new(6);
        let (m, k, n_small, n_big) = (2, 600, 9, 64);
        assert!(m * n_small * k <= SMALL_FLOP_CUTOFF && m * n_big * k > SMALL_FLOP_CUTOFF);
        let a = random::<E>(m * k, &mut rng);
        let b_big = random::<E>(k * n_big, &mut rng);
        let b_small: Vec<E> = (0..k)
            .flat_map(|p| b_big[p * n_big..p * n_big + n_small].to_vec())
            .collect();
        let small = product(View::new(&a, m, k), View::new(&b_small, k, n_small));
        let big = product(View::new(&a, m, k), View::new(&b_big, k, n_big));
        for i in 0..m {
            assert_eq!(
                small[i * n_small..(i + 1) * n_small],
                big[i * n_big..i * n_big + n_small]
            );
        }
    }

    #[test]
    fn small_products_round_like_packed_ones() {
        small_products_round_like_packed::<f32>();
        small_products_round_like_packed::<u16>();
    }

    #[test]
    fn simd_tiles_are_bitwise_equal_to_scalar() {
        let mut rng = Rng64::new(5);
        let kc = 97;
        let apanel = random::<f32>(kc * MR, &mut rng);
        let bpanel = random::<f32>(kc * NR, &mut rng);
        let mut scalar = [[0.0f32; NR]; MR];
        tile_scalar(kc, &apanel, &bpanel, &mut scalar);
        let mut tiles = vec![[[0.0f32; NR]; MR]];
        compute_tile(kc, &apanel, &bpanel, &mut tiles[0]);
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                tiles.push([[0.0f32; NR]; MR]);
                // SAFETY: feature checked; panels are `kc` deep.
                unsafe { simd::tile_avx512(kc, &apanel, &bpanel, tiles.last_mut().unwrap()) };
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                tiles.push([[0.0f32; NR]; MR]);
                // SAFETY: features checked; panels are `kc` deep.
                unsafe { simd::tile_avx2(kc, &apanel, &bpanel, tiles.last_mut().unwrap()) };
            }
        }
        for tile in &tiles {
            for (s, d) in scalar.iter().flatten().zip(tile.iter().flatten()) {
                assert_eq!(s.to_bits(), d.to_bits());
            }
        }
    }

    fn deterministic_across_pools<E: TestElement>() {
        let mut rng = Rng64::new(4);
        let (m, k, n) = (300, 300, 300);
        assert!(m > MC && m * n * k >= PAR_MIN_MADDS, "must reach the pool");
        let a = random::<E>(m * k, &mut rng);
        let b = random::<E>(k * n, &mut rng);
        let outs: Vec<Vec<f32>> = [1usize, 2, 4, 8]
            .into_iter()
            .map(|threads| {
                rayon::set_pool_threads(threads);
                product(View::new(&a, m, k), View::new(&b, k, n))
            })
            .collect();
        for o in &outs[1..] {
            assert_eq!(&outs[0], o, "results must be bitwise pool-size independent");
        }
    }

    #[test]
    fn deterministic_across_pool_sizes() {
        deterministic_across_pools::<f32>();
        deterministic_across_pools::<u16>();
    }

    /// What only a single engine can promise: bf16 storage changes the
    /// bytes an operand streams, never a bit of the result.
    #[test]
    fn bf16_views_equal_f32_views_of_the_widened_values_bitwise() {
        let mut rng = Rng64::new(7);
        rayon::set_pool_threads(2);
        // Naive path, packed on one thread, packed across the pool.
        for (m, k, n) in [(2, 600, 9), (70, 130, 90), (200, 300, 150)] {
            let madds = m * k * n;
            match n {
                9 => assert!(madds <= SMALL_FLOP_CUTOFF),
                90 => assert!(madds > SMALL_FLOP_CUTOFF && madds < PAR_MIN_MADDS),
                _ => assert!(madds >= PAR_MIN_MADDS && m > MC),
            }
            let a16 = random::<u16>(m * k, &mut rng);
            let b16 = random::<u16>(k * n, &mut rng);
            let (a32, b32) = (widened(&a16), widened(&b16));
            // General product, both orientations of both operands.
            assert_eq!(
                product(View::new(&a16, m, k), View::new(&b16, k, n)),
                product(View::new(&a32, m, k), View::new(&b32, k, n)),
                "({m},{k},{n}) NN"
            );
            let (at16, bt16) = (transposed(&a16, k, m), transposed(&b16, n, k));
            let (at32, bt32) = (widened(&at16), widened(&bt16));
            assert_eq!(
                product(View::t(&at16, k, m), View::t(&bt16, n, k)),
                product(View::t(&at32, k, m), View::t(&bt32, n, k)),
                "({m},{k},{n}) TT"
            );
            // Symmetric product, XᵀX (k × m storage) and XXᵀ (m × k).
            assert_eq!(
                symmetric_product(View::t(&at16, k, m), View::new(&at16, k, m)),
                symmetric_product(View::t(&at32, k, m), View::new(&at32, k, m)),
                "({m},{k}) XᵀX"
            );
            assert_eq!(
                symmetric_product(View::new(&a16, m, k), View::t(&a16, m, k)),
                symmetric_product(View::new(&a32, m, k), View::t(&a32, m, k)),
                "({m},{k}) XXᵀ"
            );
        }
    }
}
