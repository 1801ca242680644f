//! Symmetric eigendecomposition — the exact solver behind every K-FAC
//! factor decomposition (the Jacobi solver of [`crate::eigen`] is its
//! non-convergence backstop and test oracle), all in `f64` (like Jacobi)
//! and rounded to `f32` on output. Householder reduction to a tridiagonal
//! (`4n³/3` FLOPs) comes first; the eigenvectors then take one of two
//! routes, split at [`DC_MIN_DIM`]:
//!
//! * **From [`DC_MIN_DIM`] up, LAPACK's `?syevd` route** (`dstedc` +
//!   `dormtr`): the tridiagonal's own eigenvectors by divide and conquer
//!   ([`dc`]; at most `4n³/3` FLOPs of products before deflation, and
//!   K-FAC's clustered, rank-deficient spectra deflate much of it), then
//!   the reflectors applied to them in compact-WY blocks `I − V T Vᵀ`
//!   (`2n³`). Both are matrix products, and run through one
//!   register-tiled `f64` product.
//! * **Below it, the `?syev` route**: the transform accumulated
//!   *transposed*, four rows per pass, then implicit-shift QL on the
//!   tridiagonal alone, its recorded rotations applied to `Zᵀ` as a
//!   wavefront: [`WAVE`] consecutive sweeps travel up an 8-column strip
//!   together, each two rows behind the one before, so a row is loaded
//!   and stored once per [`WAVE`] rotations instead of once per rotation.
//!   The divide and conquer's leaves run this QL too, on an identity.
//!
//! The layout is the algorithm: every inner loop walks contiguous
//! row-major storage, never a stride-`n` column, every row of a working
//! matrix starts on a cache line (leading dimension rounded up to a
//! line, zero pad columns), and eigenvectors are rows until the
//! transpose-out pass, which also sorts and rounds. DESIGN.md §4 has the
//! per-phase budget.
//!
//! Blocking is schedule, not arithmetic. The reduction and the QL route
//! do the operations of the one-row, one-rotation-at-a-time loops (kept
//! as the test oracle) in their order — explicit accumulator lanes,
//! separate multiply and add; the product does each element's fused
//! multiply-adds in ascending order, and `mul_add` is IEEE 754
//! `fusedMultiplyAdd` on every instruction set (the argument of
//! [`crate::gemm`]). No pool: results do not depend on vector width,
//! `KFAC_POOL_THREADS` or the calling rank. The workspace is one
//! [`arena`] buffer: a warm call allocates only its result.

use crate::eigen::{check_finite, eigh, EigenDecomposition};
use crate::{arena, LinAlgError, Matrix};
use std::time::Instant;

/// Maximum QL iterations per eigenvalue before declaring failure.
const MAX_QL_ITERS: usize = 60;

/// Independent partial sums of a dot product (two 512-bit or four 256-bit
/// accumulators hide the add latency); this also fixes the summation order.
const LANES: usize = 16;

/// `f64`s per cache line: the leading dimension of `Zᵀ` is a multiple of
/// it, and a rotation strip is this many columns wide.
const LINE: usize = 8;

/// Rows the reduction and the accumulation finish per pass.
const ROWS: usize = 4;

/// Sweeps applied together by the rotation wavefront: `2·WAVE` strip rows
/// live in registers (16 of AVX-512's 32; the 256-bit instantiation spills
/// to L1 and still runs at its FP-issue limit).
const WAVE: usize = 8;

/// Full-length QL sweeps recorded per batch of rotations. A flush costs
/// nothing (`Zᵀ` is rotated where it lies), and the reference box's cores
/// power their wide vector units down after ≈ 0.6 ms of scalar code — the
/// next burst runs three times slower for up to 0.5 ms — so batches are
/// kept short enough that the scalar QL iteration between two flushes
/// stays under that (0.3 ms at n = 312). At 128 the stage-1 factors were
/// no faster than the one-rotation-at-a-time solver this one replaced:
/// `xp bench-eig`, this constant at 32 / at 128 / that solver,
/// alternated, three runs each, ms — n = 144 1.71–1.74 / 1.95–2.02 / no
/// row, 145 1.79–1.91 / 2.19–2.33 / 2.25–2.26; 28 and 64 do not tell them
/// apart.
const SWEEPS_IN_PLACE: usize = 32;

/// Smallest dimension whose eigenvectors take the divide-and-conquer
/// route ([`dc`] and the blocked back-transform) instead of accumulation
/// and QL rotations. One solve of `xp bench-eig`'s factor in a loop,
/// QL / divide and conquer, best of two alternated runs, ms: n = 28 0.04 /
/// 0.05, 48 0.13 / 0.13–0.15, 64 0.25–0.26 / 0.24–0.27, 80 0.42–0.43 /
/// 0.36–0.37, 96 0.63–0.66 / 0.52–0.53, 144 1.58–1.62 / 1.23–1.25. The
/// crossover is between 64 and 80; the constant sits at the next measured
/// row, above the largest Rayleigh–Ritz solve of the randomized backend's
/// default policy (80: a rank-72 sketch plus 8), which so keeps its bits,
/// and at [`WIDE_MIN_DIM`], so the route always runs 512-bit where the CPU
/// has it.
const DC_MIN_DIM: usize = 96;

/// Reflectors the back-transform applies as one `I − V T Vᵀ`. Fewer cost
/// more passes over the eigenvectors, more cost `T·Vᵀ` (`b²` per column)
/// and the zero triangle of `V`: back-transform at n = 577, ms, 8.0 / 7.9
/// / 8.1 / 8.3 at 16 / 32 / 48 / 64.
const REFLECTOR_BLOCK: usize = 32;

/// Eigenvector rows one reflector block is applied to at a time, so the
/// rows stay in cache between the block's two products (32 and 64 measure
/// alike).
const PANEL_ROWS: usize = 32;

/// Rows of [`product`]'s register tile. With [`TILE_LINES`]: 16 of
/// AVX-512's 32 registers accumulate (8×2, 8×3 and 4×4 measure alike at
/// n = 577; 4×2 was 10 % slower). The 256-bit instantiation spills.
const TILE_ROWS: usize = 8;

/// Lines of [`product`]'s register tile.
const TILE_LINES: usize = 2;

/// Smallest dimension solved with 512-bit vectors. Half the time of a
/// small solve is the scalar QL iteration, which runs slower on a core
/// that is also issuing 512-bit arithmetic, so below this the 256-bit
/// instantiation is faster end to end — and at n = 28 the 512-bit one is
/// slower than the solver this one replaced. `xp bench-eig`, 256-bit /
/// 512-bit / that solver, alternated, three runs each, µs: n = 28
/// 42.6–42.7 / 48.9–49.2 / 47.8–48.1, n = 64 261–270 / 274–275 / 297–302.
/// The crossover sits between 64 and 96 (one solve in a loop, 512-bit /
/// 256-bit µs: n = 96 680 / 737, 128 1302 / 1698).
const WIDE_MIN_DIM: usize = 96;

/// Source columns per transpose-out pass: two cache lines per source row,
/// few enough write streams to stay in L1 at power-of-two `n`.
const OUT_TILE: usize = 16;

/// Symmetric eigendecomposition via Householder tridiagonalization.
///
/// Same contract as [`crate::eigh`]: eigenvalues ascending, orthonormal
/// eigenvector columns.
///
/// # Errors
/// [`LinAlgError::NonFinite`] if `a` holds a NaN or infinity,
/// [`LinAlgError::NotConverged`] if a QL iteration or a secular-equation
/// solve stalls.
pub fn eigh_tridiag(a: &Matrix) -> Result<EigenDecomposition, LinAlgError> {
    solve(a, Isa::for_dim(a.rows()), &mut ())
}

/// [`eigh_tridiag`] with the Jacobi backstop: Jacobi converges on
/// anything symmetric and finite, so a (rare) stall costs time, not the
/// training run. A non-finite input fails both, so it is not retried.
pub fn eigh_exact(a: &Matrix) -> Result<EigenDecomposition, LinAlgError> {
    match eigh_tridiag(a) {
        Err(LinAlgError::NotConverged) => eigh(a),
        result => result,
    }
}

/// The solver's phases, in [`eigh_tridiag_phases`]' order: Householder
/// reduction (with the `f32 → f64` copy-in), the tridiagonal's
/// eigenvectors (divide and conquer, or the QL iteration and its
/// rotations), the back-transform (the blocked reflectors, or the
/// accumulated transform), sorted transpose-out.
#[doc(hidden)]
pub const PHASES: [&str; 4] = ["reduce", "tridiagonal", "back_transform", "out"];

/// [`eigh_tridiag`] with the nanoseconds each of [`PHASES`] took: the
/// layer under `kfac.eig_comp_ms`, for `xp bench-eig` only.
#[doc(hidden)]
pub fn eigh_tridiag_phases(
    a: &Matrix,
) -> Result<(EigenDecomposition, [u64; PHASES.len()]), LinAlgError> {
    let mut watch = Stopwatch {
        last: Instant::now(),
        ns: [0; PHASES.len()],
    };
    let eig = solve(a, Isa::for_dim(a.rows()), &mut watch)?;
    Ok((eig, watch.ns))
}

/// Index into [`PHASES`].
#[derive(Clone, Copy)]
enum Phase {
    Reduce,
    Tridiagonal,
    BackTransform,
    Out,
}

/// Charges the time since the previous lap to a phase; `()` is the
/// production clock and compiles to nothing.
trait Clock {
    fn lap(&mut self, phase: Phase);
}

impl Clock for () {
    #[inline(always)]
    fn lap(&mut self, _: Phase) {}
}

struct Stopwatch {
    last: Instant,
    ns: [u64; PHASES.len()],
}

impl Clock for Stopwatch {
    fn lap(&mut self, phase: Phase) {
        let now = Instant::now();
        self.ns[phase as usize] += (now - self.last).as_nanos() as u64;
        self.last = now;
    }
}

/// The instruction set a phase's loops are compiled for. The arithmetic is
/// the portable body's on every one of them; only the vector width differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Isa {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// The instruction set an `n × n` solve runs on: the widest this CPU
    /// reports, 512-bit only from [`WIDE_MIN_DIM`] up.
    fn for_dim(n: usize) -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if n >= WIDE_MIN_DIM && std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Isa::Avx2;
            }
        }
        Isa::Portable
    }
}

/// Run `$body($args)` compiled for `$isa`: the body is `#[inline(always)]`
/// all the way down, so each wrapper is a full instantiation of it under
/// its own `#[target_feature]` — one definition, three schedules. The
/// bodies are `unsafe fn`s generic over [`Line`], whose one obligation (the
/// CPU runs the line's instruction set) is discharged here and nowhere else.
macro_rules! on_isa {
    ($isa:expr, $body:ident($($arg:ident: $ty:ty),*)) => {{
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn avx512($($arg: $ty),*) {
            $body::<std::arch::x86_64::__m512d>($($arg),*)
        }
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2,fma")]
        #[allow(clippy::too_many_arguments)]
        unsafe fn avx2($($arg: $ty),*) {
            $body::<[std::arch::x86_64::__m256d; 2]>($($arg),*)
        }
        match $isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => {
                assert!(std::arch::is_x86_feature_detected!("avx512f"));
                // SAFETY: the CPU reports AVX-512F, checked on the line above.
                unsafe { avx512($($arg),*) }
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                assert!(
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("fma")
                );
                // SAFETY: the CPU reports AVX2 and FMA, checked on the line above.
                unsafe { avx2($($arg),*) }
            }
            // SAFETY: the portable line asks nothing of the CPU.
            Isa::Portable => unsafe { $body::<[f64; LINE]>($($arg),*) },
        }
    }};
}

mod dc;

fn solve<C: Clock>(a: &Matrix, isa: Isa, clock: &mut C) -> Result<EigenDecomposition, LinAlgError> {
    assert!(a.is_square(), "eigh_tridiag requires a square matrix");
    check_finite(a)?;
    let n = a.rows();
    if n == 0 {
        return Ok(EigenDecomposition {
            eigenvalues: vec![],
            eigenvectors: Matrix::zeros(0, 0),
        });
    }
    decompose(a, isa, clock, |rows, ld, d, order| {
        sorted_output(rows, ld, n, d, order)
    })
}

/// The decomposition in `f64`: `finish` gets the eigenvectors as rows of
/// stride `ld`, their eigenvalues (unsorted) and an `n`-long scratch, and
/// its result is returned once the workspace is recycled.
fn decompose<C: Clock, R>(
    a: &Matrix,
    isa: Isa,
    clock: &mut C,
    finish: impl FnOnce(&[f64], usize, &[f64], &mut [f64]) -> R,
) -> Result<R, LinAlgError> {
    // One buffer: the working matrix (n rows of `ld`, the first on a cache
    // line), then per route its matrices, then the diagonal, sub-diagonal
    // and sort order.
    let n = a.rows();
    let ld = n.next_multiple_of(LINE);
    let by_dc = n >= DC_MIN_DIM;
    // Eigenvector rows of the divide and conquer, with a line of slack for
    // its products' last line; the scratch it shares with the
    // back-transform.
    let lds = ld + LINE;
    let shared = back_transform_len(ld)
        .max(dc::gather_len(n))
        .next_multiple_of(LINE);
    let route = if by_dc {
        n * lds + shared + dc::Work::len(n) + n
    } else {
        2 * n * SWEEPS_IN_PLACE
    };
    let mut ws = arena::take_f64(LINE - 1 + n * ld + route + 3 * n);
    let skew = ws.as_ptr().align_offset(8 * LINE).min(LINE - 1);
    let (z, rest) = ws[skew..].split_at_mut(n * ld);
    let (rest, vectors) = rest.split_at_mut(route);
    let (d, vectors) = vectors.split_at_mut(n);
    let (e, order) = vectors.split_at_mut(n);
    let order = &mut order[..n];
    for (dst, src) in z.chunks_exact_mut(ld).zip(a.as_slice().chunks_exact(n)) {
        let (dst, pad) = dst.split_at_mut(n);
        for (x, &v) in dst.iter_mut().zip(src) {
            *x = f64::from(v);
        }
        pad.fill(0.0);
    }

    tridiagonalize(isa, z, ld, n, d, e);
    clock.lap(Phase::Reduce);
    let result = if by_dc {
        let (s, rest) = rest.split_at_mut(n * lds);
        let (shared, rest) = rest.split_at_mut(shared);
        let (h, rest) = rest.split_at_mut(n);
        h.copy_from_slice(d);
        for (i, di) in d.iter_mut().enumerate() {
            *di = z[i * ld + i];
        }
        let solved = {
            let mut work = dc::Work::carve(rest, shared, n);
            dc::tridiagonal_eigenvectors(isa, d, e, s, lds, &mut work)
        };
        clock.lap(Phase::Tridiagonal);
        solved.map(|()| {
            back_transform(isa, z, ld, h, s, lds, shared);
            clock.lap(Phase::BackTransform);
            finish(s, lds, d, order)
        })
    } else {
        accumulate_transposed(isa, z, ld, n, d);
        clock.lap(Phase::BackTransform);
        let converged = ql_implicit(n, d, e, rest, |batch| rotate_rows(isa, z, ld, batch));
        clock.lap(Phase::Tridiagonal);
        converged.map(|()| finish(z, ld, d, order))
    };
    clock.lap(Phase::Out);
    arena::recycle_f64(ws);
    result
}

/// One cache line of `f64`s held in the widest registers an instruction
/// set has: the unit every blocked loop below is written in. Each
/// operation is one correctly rounded IEEE 754 operation on all eight
/// lanes — multiply, add, subtract, and the *fused* multiply-add — so the
/// implementations are interchangeable bit for bit and the portable one
/// is the definition.
///
/// # Safety
/// Every method runs instructions of the implementing type's instruction
/// set without checking for it (`__m512d`: AVX-512F, `[__m256d; 2]`: AVX2
/// and FMA, `[f64; LINE]`: none), so the caller must know the CPU has it.
/// The loops generic over `Line` are `unsafe fn`s that pass the
/// obligation up to [`on_isa!`], which checks.
trait Line: Copy {
    /// The first [`LINE`] elements of `x`.
    unsafe fn load(x: &[f64]) -> Self;
    /// Overwrite the first [`LINE`] elements of `x`.
    unsafe fn store(self, x: &mut [f64]);
    unsafe fn splat(x: f64) -> Self;
    unsafe fn mul(self, other: Self) -> Self;
    unsafe fn add(self, other: Self) -> Self;
    unsafe fn sub(self, other: Self) -> Self;
    /// `self · a + b`, rounded once.
    unsafe fn mul_add(self, a: Self, b: Self) -> Self;
    unsafe fn lanes(self) -> [f64; LINE];
}

impl Line for [f64; LINE] {
    #[inline(always)]
    unsafe fn load(x: &[f64]) -> Self {
        x[..LINE].try_into().expect("a whole line")
    }
    #[inline(always)]
    unsafe fn store(self, x: &mut [f64]) {
        x[..LINE].copy_from_slice(&self);
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        [x; LINE]
    }
    #[inline(always)]
    unsafe fn mul(mut self, other: Self) -> Self {
        for l in 0..LINE {
            self[l] *= other[l];
        }
        self
    }
    #[inline(always)]
    unsafe fn add(mut self, other: Self) -> Self {
        for l in 0..LINE {
            self[l] += other[l];
        }
        self
    }
    #[inline(always)]
    unsafe fn sub(mut self, other: Self) -> Self {
        for l in 0..LINE {
            self[l] -= other[l];
        }
        self
    }
    #[inline(always)]
    unsafe fn mul_add(mut self, a: Self, b: Self) -> Self {
        for l in 0..LINE {
            self[l] = self[l].mul_add(a[l], b[l]);
        }
        self
    }
    #[inline(always)]
    unsafe fn lanes(self) -> [f64; LINE] {
        self
    }
}

/// The x86 lines. Beyond [`Line`]'s own obligation the bodies need only
/// that a slice holds a whole line, which the `x[..LINE]` re-slice checks.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Line, LINE};
    use std::arch::x86_64::*;

    impl Line for __m512d {
        #[inline(always)]
        unsafe fn load(x: &[f64]) -> Self {
            _mm512_loadu_pd(x[..LINE].as_ptr())
        }
        #[inline(always)]
        unsafe fn store(self, x: &mut [f64]) {
            _mm512_storeu_pd(x[..LINE].as_mut_ptr(), self)
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            _mm512_set1_pd(x)
        }
        #[inline(always)]
        unsafe fn mul(self, other: Self) -> Self {
            _mm512_mul_pd(self, other)
        }
        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            _mm512_add_pd(self, other)
        }
        #[inline(always)]
        unsafe fn sub(self, other: Self) -> Self {
            _mm512_sub_pd(self, other)
        }
        #[inline(always)]
        unsafe fn mul_add(self, a: Self, b: Self) -> Self {
            _mm512_fmadd_pd(self, a, b)
        }
        #[inline(always)]
        unsafe fn lanes(self) -> [f64; LINE] {
            // Both are 64 bytes of plain `f64`s.
            std::mem::transmute(self)
        }
    }

    impl Line for [__m256d; 2] {
        #[inline(always)]
        unsafe fn load(x: &[f64]) -> Self {
            let x = &x[..LINE];
            [
                _mm256_loadu_pd(x.as_ptr()),
                _mm256_loadu_pd(x.as_ptr().add(4)),
            ]
        }
        #[inline(always)]
        unsafe fn store(self, x: &mut [f64]) {
            let x = &mut x[..LINE];
            _mm256_storeu_pd(x.as_mut_ptr(), self[0]);
            _mm256_storeu_pd(x.as_mut_ptr().add(4), self[1]);
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> Self {
            [_mm256_set1_pd(x); 2]
        }
        #[inline(always)]
        unsafe fn mul(self, other: Self) -> Self {
            [
                _mm256_mul_pd(self[0], other[0]),
                _mm256_mul_pd(self[1], other[1]),
            ]
        }
        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            [
                _mm256_add_pd(self[0], other[0]),
                _mm256_add_pd(self[1], other[1]),
            ]
        }
        #[inline(always)]
        unsafe fn sub(self, other: Self) -> Self {
            [
                _mm256_sub_pd(self[0], other[0]),
                _mm256_sub_pd(self[1], other[1]),
            ]
        }
        #[inline(always)]
        unsafe fn mul_add(self, a: Self, b: Self) -> Self {
            [
                _mm256_fmadd_pd(self[0], a[0], b[0]),
                _mm256_fmadd_pd(self[1], a[1], b[1]),
            ]
        }
        #[inline(always)]
        unsafe fn lanes(self) -> [f64; LINE] {
            // Both are 64 bytes of plain `f64`s.
            std::mem::transmute(self)
        }
    }
}

/// The `R` rows of `block`, each `ld` long.
#[inline(always)]
fn rows_mut<const R: usize>(block: &mut [f64], ld: usize) -> [&mut [f64]; R] {
    let mut rows = block.chunks_exact_mut(ld);
    std::array::from_fn(|_| rows.next().expect("R whole rows"))
}

/// A dot product's [`LANES`] partial sums: lane `l` sums `k ≡ l (mod LANES)`.
type Lanes<V> = [V; LANES / LINE];

/// Lanes `k..k + LANES` of `x`.
#[inline(always)]
unsafe fn load_lanes<V: Line>(x: &[f64], k: usize) -> Lanes<V> {
    [V::load(&x[k..]), V::load(&x[k + LINE..])]
}

/// `acc + x[k..k + LANES] ∘ y`, lane by lane.
#[inline(always)]
unsafe fn accumulate<V: Line>(acc: Lanes<V>, x: &[f64], k: usize, y: Lanes<V>) -> Lanes<V> {
    let x = load_lanes::<V>(x, k);
    [acc[0].add(x[0].mul(y[0])), acc[1].add(x[1].mul(y[1]))]
}

/// Finish a dot product: fold the lanes pairwise, then add the tail
/// `x · y` ascending.
#[inline(always)]
unsafe fn finish<V: Line>(acc: Lanes<V>, x: &[f64], y: &[f64]) -> f64 {
    let mut acc = acc[0].add(acc[1]).lanes();
    let mut width = LINE;
    while width > 1 {
        width /= 2;
        for l in 0..width {
            acc[l] += acc[l + width];
        }
    }
    x.iter().zip(y).fold(acc[0], |sum, (&a, &b)| sum + a * b)
}

/// Householder reduction to tridiagonal form (`tred2`'s arithmetic on the
/// lower triangle). On return `e[i]` is the sub-diagonal, `d[i]` step
/// `i`'s `h = |u|²/2` (0 for a skipped step), and row `i` holds its
/// vector `u` in columns `0..i` and the diagonal entry in column `i`.
fn tridiagonalize(isa: Isa, z: &mut [f64], ld: usize, n: usize, d: &mut [f64], e: &mut [f64]) {
    on_isa!(
        isa,
        tridiagonalize_body(z: &mut [f64], ld: usize, n: usize, d: &mut [f64], e: &mut [f64])
    )
}

#[inline(always)]
unsafe fn tridiagonalize_body<V: Line>(
    z: &mut [f64],
    ld: usize,
    n: usize,
    d: &mut [f64],
    e: &mut [f64],
) {
    for i in (1..n).rev() {
        let (above, row_i) = z.split_at_mut(i * ld);
        let u = &mut row_i[..i];
        let mut h = 0.0f64;
        let scale: f64 = u.iter().map(|x| x.abs()).sum();
        if i == 1 || scale == 0.0 {
            e[i] = u[i - 1];
        } else {
            for x in u.iter_mut() {
                *x /= scale;
                h += *x * *x;
            }
            let f = u[i - 1];
            let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            u[i - 1] = f - g;

            // p = A·u/h in e[..i], four rows of the triangle per pass.
            let p = &mut e[..i];
            for (b, block) in above.chunks(ROWS * ld).enumerate() {
                if block.len() == ROWS * ld {
                    matvec_rows::<V, ROWS>(block, ld, b * ROWS, u, p);
                } else {
                    for (j, row) in (b * ROWS..).zip(block.chunks_exact(ld)) {
                        matvec_rows::<V, 1>(row, ld, j, u, p);
                    }
                }
            }
            let mut f = 0.0f64;
            for (pj, &uj) in p.iter_mut().zip(u.iter()) {
                *pj /= h;
                f += *pj * uj;
            }
            // q = p − (uᵀp/2h)·u, then A ← A − u qᵀ − q uᵀ.
            let hh = f / (h + h);
            for (pj, &uj) in p.iter_mut().zip(u.iter()) {
                *pj -= hh * uj;
            }
            for (b, block) in above.chunks_mut(ROWS * ld).enumerate() {
                if block.len() == ROWS * ld {
                    rank2_rows::<V, ROWS>(block, ld, b * ROWS, u, p);
                } else {
                    for (j, row) in (b * ROWS..).zip(block.chunks_exact_mut(ld)) {
                        rank2_rows::<V, 1>(row, ld, j, u, p);
                    }
                }
            }
        }
        d[i] = h;
    }
}

/// Rows `j0..j0 + R` of the symmetric mat-vec: row `j` supplies `p[j]`'s
/// `k ≤ j` terms (a dot product in [`finish`]'s order) and, by symmetry, the
/// `k = j` term of every `p[k < j]`. The `R` lengths must share one lane
/// body (`R = 1`, or `R ≤ 4` with `4 | j0`): over it `u` and `p` are loaded
/// once and `p` takes the rows' terms in row order; the tails and the
/// triangle's corner stay scalar, row by row.
#[inline(always)]
unsafe fn matvec_rows<V: Line, const R: usize>(
    block: &[f64],
    ld: usize,
    j0: usize,
    u: &[f64],
    p: &mut [f64],
) {
    let body = j0 - j0 % LANES;
    let rows: [&[f64]; R] = std::array::from_fn(|t| &block[t * ld..t * ld + j0 + t + 1]);
    let uj: [f64; R] = std::array::from_fn(|t| u[j0 + t]);
    let mut acc = [[V::splat(0.0); LANES / LINE]; R];
    for k in (0..body).step_by(LANES) {
        let uc = load_lanes::<V>(u, k);
        let mut pc = load_lanes::<V>(p, k);
        for t in 0..R {
            acc[t] = accumulate(acc[t], rows[t], k, uc);
            pc = accumulate(pc, rows[t], k, [V::splat(uj[t]); LANES / LINE]);
        }
        pc[0].store(&mut p[k..]);
        pc[1].store(&mut p[k + LINE..]);
    }
    for t in 0..R {
        let (j, row) = (j0 + t, rows[t]);
        p[j] = finish(acc[t], &row[body..j], &u[body..j]) + row[j] * uj[t];
        for (pk, &r) in p[body..j].iter_mut().zip(&row[body..j]) {
            *pk += r * uj[t];
        }
    }
}

/// Rows `j0..j0 + R` of `A ← A − u qᵀ − q uᵀ` on the lower triangle, `q`
/// and `u` loaded once for the columns all `R` rows have.
#[inline(always)]
unsafe fn rank2_rows<V: Line, const R: usize>(
    block: &mut [f64],
    ld: usize,
    j0: usize,
    u: &[f64],
    q: &[f64],
) {
    let rows = rows_mut::<R>(block, ld);
    let uj: [f64; R] = std::array::from_fn(|t| u[j0 + t]);
    let qj: [f64; R] = std::array::from_fn(|t| q[j0 + t]);
    let body = j0 - j0 % LINE;
    for k in (0..body).step_by(LINE) {
        let (qc, uc) = (V::load(&q[k..]), V::load(&u[k..]));
        for t in 0..R {
            let update = V::splat(uj[t]).mul(qc).add(V::splat(qj[t]).mul(uc));
            V::load(&rows[t][k..]).sub(update).store(&mut rows[t][k..]);
        }
    }
    for t in 0..R {
        let j = j0 + t;
        let tail = rows[t][body..=j].iter_mut().zip(&q[body..=j]);
        for ((a, &qk), &uk) in tail.zip(&u[body..=j]) {
            *a -= uj[t] * qk + qj[t] * uk;
        }
    }
}

/// Accumulate the Householder transform in place, transposed: on return
/// row `j` of `z` is the `j`-th basis vector of the tridiagonal form and
/// `d` its diagonal. Row `j` is `e_jᵀ·H_{j+1}⋯H_{n-1}`, which needs only
/// the vectors stored *below* it, so rows are finished top down, four at
/// a time, staying in L1 while the reflectors stream past.
fn accumulate_transposed(isa: Isa, z: &mut [f64], ld: usize, n: usize, d: &mut [f64]) {
    on_isa!(
        isa,
        accumulate_transposed_body(z: &mut [f64], ld: usize, n: usize, d: &mut [f64])
    )
}

#[inline(always)]
unsafe fn accumulate_transposed_body<V: Line>(z: &mut [f64], ld: usize, n: usize, d: &mut [f64]) {
    for j0 in (0..n).step_by(ROWS) {
        let (head, below) = z.split_at_mut((j0 + ROWS).min(n) * ld);
        let block = &mut head[j0 * ld..];
        // A row first takes the reflectors stored in its own block, which
        // the rows under it are about to overwrite ...
        for (t, j) in (j0..n.min(j0 + ROWS)).enumerate() {
            let (top, under) = block.split_at_mut((t + 1) * ld);
            let row = &mut top[t * ld..];
            let diag = row[j];
            row.fill(0.0);
            row[j] = 1.0;
            reflect_rows::<V, 1>(row, ld, under, j + 1, d);
            d[j] = diag;
        }
        // ... then all four take every reflector below the block together.
        if !below.is_empty() {
            reflect_rows::<V, ROWS>(block, ld, below, j0 + ROWS, d);
        }
    }
}

/// Apply the reflectors stored in `below` (row `i0` first), ascending, to
/// the `R` rows of `block`: per reflector `R` independent dot → divide →
/// update chains over `[..i]`, the reflector loaded once for all of them.
#[inline(always)]
unsafe fn reflect_rows<V: Line, const R: usize>(
    block: &mut [f64],
    ld: usize,
    below: &[f64],
    i0: usize,
    d: &[f64],
) {
    let rows = rows_mut::<R>(block, ld);
    for (i, u) in (i0..).zip(below.chunks_exact(ld)) {
        if d[i] == 0.0 {
            continue;
        }
        let body = i - i % LANES;
        let mut acc = [[V::splat(0.0); LANES / LINE]; R];
        for k in (0..body).step_by(LANES) {
            let uc = load_lanes::<V>(u, k);
            for t in 0..R {
                acc[t] = accumulate(acc[t], rows[t], k, uc);
            }
        }
        let mut g = [0.0f64; R];
        for t in 0..R {
            g[t] = finish(acc[t], &rows[t][body..i], &u[body..i]) / d[i];
        }
        let body = i - i % LINE;
        for k in (0..body).step_by(LINE) {
            let uc = V::load(&u[k..]);
            for t in 0..R {
                (V::load(&rows[t][k..]).sub(V::splat(g[t]).mul(uc))).store(&mut rows[t][k..]);
            }
        }
        for t in 0..R {
            for (a, &uk) in rows[t][body..i].iter_mut().zip(&u[body..i]) {
                *a -= g[t] * uk;
            }
        }
    }
}

/// Implicit-shift QL on the tridiagonal `(d, e)` (`tqli`). The rotations
/// never read the eigenvectors, so each sweep only records its `(c, s)`
/// pairs in `rot` behind a `[first_row, last_row]` header; a full buffer
/// is handed to `apply` (see [`rotate_rows`]).
fn ql_implicit(
    n: usize,
    d: &mut [f64],
    e: &mut [f64],
    rot: &mut [f64],
    mut apply: impl FnMut(&[f64]),
) -> Result<(), LinAlgError> {
    e.copy_within(1.., 0);
    e[n - 1] = 0.0;
    let mut used = 0usize;
    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Find a small off-diagonal element to split at.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > MAX_QL_ITERS {
                return Err(LinAlgError::NotConverged);
            }
            if used + 2 * (m - l + 1) > rot.len() {
                apply(&rot[..used]);
                used = 0;
            }
            let head = used;
            used += 2;

            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r.abs() } else { -r.abs() });
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            // `tqli`'s underflow-recovery path: if a rotation radius hits
            // exactly zero mid-sweep we must restart the QL step rather
            // than apply the (now-stale) trailing updates — applying them
            // anyway corrupts the tridiagonal and stalls convergence.
            let mut first = l;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    first = i + 1;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                rot[used] = c;
                rot[used + 1] = s;
                used += 2;
            }
            rot[head] = first as f64;
            rot[head + 1] = m as f64;
            if first > l {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    apply(&rot[..used]);
    Ok(())
}

/// The sweeps of `rot` on a row-major matrix of row length `w` (a
/// multiple of [`LINE`]): the rotation of eigenvectors `i`, `i+1` mixes
/// rows `i`, `i+1`. [`WAVE`] sweeps at a time, as a wavefront: at step `r`
/// (descending) sweep `k` applies its rotation `r + 2k` to rows `r + 2k`,
/// `r + 2k + 1`. Sweep `k+1`'s rotation `i` needs only sweep `k`'s
/// rotation `i − 1` (the last of sweep `k` to touch rows `i`, `i + 1`),
/// which ran one step earlier, and within a step the sweeps touch
/// disjoint row pairs — so every element sees its rotations in the
/// recorded order, and a row crosses the load/store ports once per
/// [`WAVE`] rotations.
fn rotate_rows(isa: Isa, z: &mut [f64], w: usize, rot: &[f64]) {
    on_isa!(isa, rotate_rows_body(z: &mut [f64], w: usize, rot: &[f64]))
}

/// One recorded sweep: rotations `last − 1, …, first` in that order, the
/// `(c, s)` of rotation `last − 1` at `rot[at]`.
#[derive(Clone, Copy, Default)]
struct Sweep {
    first: usize,
    last: usize,
    at: usize,
}

#[inline(always)]
unsafe fn rotate_rows_body<V: Line>(z: &mut [f64], w: usize, rot: &[f64]) {
    debug_assert!(w.is_multiple_of(LINE));
    let mut at = 0usize;
    while at < rot.len() {
        let mut group = [Sweep::default(); WAVE];
        let mut len = 0usize;
        while len < WAVE && at < rot.len() {
            let (first, last) = (rot[at] as usize, rot[at + 1] as usize);
            if first < last {
                group[len] = Sweep {
                    first,
                    last,
                    at: at + 2,
                };
                len += 1;
            }
            at += 2 + 2 * (last - first);
        }
        let group = &group[..len];

        // Steps `lo..=hi` have every sweep of a whole group active. The
        // sweeps' `[first, last)` differ (deflation, splits, the underflow
        // restart), and a (sweep, step) outside its range must be skipped,
        // never run as an identity rotation — `0·x + 1·y` turns a `−0.0`
        // into `+0.0` — so the ragged ends above and below those steps are
        // applied one sweep at a time: sweep `k`'s end touches no row that
        // a full step of another sweep does, and the ends of different
        // sweeps keep their recorded order.
        let (mut lo, mut hi) = (0usize, Some(usize::MAX));
        for (k, sweep) in group.iter().enumerate() {
            lo = lo.max(sweep.first.saturating_sub(2 * k));
            hi = hi.min((sweep.last - 1).checked_sub(2 * k));
        }
        let full = match hi {
            Some(hi) if len == WAVE && lo <= hi => Some((lo, hi)),
            _ => None,
        };
        for (k, sweep) in group.iter().enumerate() {
            let from = full.map_or(sweep.first, |(_, hi)| hi + 1 + 2 * k);
            sweep_rows::<V>(z, w, rot, sweep, from..sweep.last);
        }
        if let Some((lo, hi)) = full {
            for c0 in (0..w).step_by(LINE) {
                wavefront::<V>(z, w, c0, rot, group, lo, hi);
            }
            for (k, sweep) in group.iter().enumerate() {
                sweep_rows::<V>(z, w, rot, sweep, sweep.first..lo + 2 * k);
            }
        }
    }
}

/// The rotated pair `(c·x − s·y, s·x + c·y)`.
#[inline(always)]
unsafe fn rotate_pair<V: Line>(x: V, y: V, c: f64, s: f64) -> (V, V) {
    let (c, s) = (V::splat(c), V::splat(s));
    (c.mul(x).sub(s.mul(y)), s.mul(x).add(c.mul(y)))
}

/// Rotations `which` of `sweep`, descending, each over the whole row pair.
#[inline(always)]
unsafe fn sweep_rows<V: Line>(
    z: &mut [f64],
    w: usize,
    rot: &[f64],
    sweep: &Sweep,
    which: std::ops::Range<usize>,
) {
    for i in which.rev() {
        let at = sweep.at + 2 * (sweep.last - 1 - i);
        let (c, s) = (rot[at], rot[at + 1]);
        let (xs, ys) = z[i * w..(i + 2) * w].split_at_mut(w);
        for (xl, yl) in xs.chunks_exact_mut(LINE).zip(ys.chunks_exact_mut(LINE)) {
            let (x, y) = rotate_pair(V::load(xl), V::load(yl), c, s);
            x.store(xl);
            y.store(yl);
        }
    }
}

/// Steps `lo..=hi` of a whole group on the strip `z[.., c0..c0 + LINE]`,
/// with the `2·WAVE` rows the group is working on held in registers: slot
/// `j` of the window is row `r + j`; before step `r` row `r` is loaded
/// into slot 0, after it row `r + 2·WAVE − 1` is finished and stored.
#[inline(always)]
unsafe fn wavefront<V: Line>(
    z: &mut [f64],
    w: usize,
    c0: usize,
    rot: &[f64],
    group: &[Sweep],
    lo: usize,
    hi: usize,
) {
    let mut win = [[V::splat(0.0); 2]; WAVE];
    for j in 1..2 * WAVE {
        win[j / 2][j % 2] = V::load(&z[(hi + j) * w + c0..]);
    }
    // Sweep `k`'s `(c, s)` pairs for these steps, in step order.
    let mut cs = [&rot[..0]; WAVE];
    for (k, sweep) in group.iter().enumerate() {
        let at = sweep.at + 2 * (sweep.last - 1 - (hi + 2 * k));
        cs[k] = &rot[at..at + 2 * (hi - lo + 1)];
    }
    for (t, r) in (lo..=hi).rev().enumerate() {
        win[0][0] = V::load(&z[r * w + c0..]);
        for k in 0..WAVE {
            let (x, y) = rotate_pair(win[k][0], win[k][1], cs[k][2 * t], cs[k][2 * t + 1]);
            win[k] = [x, y];
        }
        win[WAVE - 1][1].store(&mut z[(r + 2 * WAVE - 1) * w + c0..]);
        for j in (1..2 * WAVE).rev() {
            win[j / 2][j % 2] = win[(j - 1) / 2][(j - 1) % 2];
        }
    }
    for j in 1..2 * WAVE {
        win[j / 2][j % 2].store(&mut z[(lo + j - 1) * w + c0..]);
    }
}

/// `C ← A·B`, or `C ← C + A·B` with `accumulate`, on row-major views: `C`
/// is `rows × cols` at stride `ldc`, `A` is `rows × depth` at `lda`, `B` is
/// `depth × cols` at `ldb`, and `cols` is whole lines. Each element of `C`
/// is one chain of fused multiply-adds over ascending depth, from zero or
/// from its old value; the tiles decide how many chains run at once, not
/// one operation of any of them.
#[allow(clippy::too_many_arguments)]
fn product(
    isa: Isa,
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    rows: usize,
    depth: usize,
    cols: usize,
    accumulate: bool,
) {
    on_isa!(
        isa,
        product_body(
            c: &mut [f64],
            ldc: usize,
            a: &[f64],
            lda: usize,
            b: &[f64],
            ldb: usize,
            rows: usize,
            depth: usize,
            cols: usize,
            accumulate: bool
        )
    )
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn product_body<V: Line>(
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    rows: usize,
    depth: usize,
    cols: usize,
    accumulate: bool,
) {
    debug_assert!(cols.is_multiple_of(LINE));
    let (tall, wide) = (rows - rows % TILE_ROWS, cols - cols % (TILE_LINES * LINE));
    let at = |i0, j0| Tile {
        i0,
        j0,
        depth,
        accumulate,
    };
    for i0 in (0..tall).step_by(TILE_ROWS) {
        for j0 in (0..wide).step_by(TILE_LINES * LINE) {
            tile::<V, TILE_ROWS, TILE_LINES>(c, ldc, a, lda, b, ldb, at(i0, j0));
        }
        for j0 in (wide..cols).step_by(LINE) {
            tile::<V, TILE_ROWS, 1>(c, ldc, a, lda, b, ldb, at(i0, j0));
        }
    }
    for i0 in tall..rows {
        for j0 in (0..wide).step_by(TILE_LINES * LINE) {
            tile::<V, 1, TILE_LINES>(c, ldc, a, lda, b, ldb, at(i0, j0));
        }
        for j0 in (wide..cols).step_by(LINE) {
            tile::<V, 1, 1>(c, ldc, a, lda, b, ldb, at(i0, j0));
        }
    }
}

/// Where one register tile of [`product`] sits, and what it sums.
#[derive(Clone, Copy)]
struct Tile {
    i0: usize,
    j0: usize,
    depth: usize,
    accumulate: bool,
}

/// Rows `i0..i0 + R`, lines `j0..j0 + L·LINE` of [`product`]'s `C`, held
/// in registers across the whole depth: per step `L` lines of `B` and `R`
/// broadcasts of `A` feed `R·L` fused multiply-adds.
#[inline(always)]
unsafe fn tile<V: Line, const R: usize, const L: usize>(
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    t: Tile,
) {
    let a_rows: [&[f64]; R] = std::array::from_fn(|r| &a[(t.i0 + r) * lda..][..t.depth]);
    let mut acc = [[V::splat(0.0); L]; R];
    if t.accumulate {
        for (r, acc) in acc.iter_mut().enumerate() {
            for (l, x) in acc.iter_mut().enumerate() {
                *x = V::load(&c[(t.i0 + r) * ldc + t.j0 + l * LINE..]);
            }
        }
    }
    for p in 0..t.depth {
        let b_row = &b[p * ldb + t.j0..][..L * LINE];
        let bv: [V; L] = std::array::from_fn(|l| V::load(&b_row[l * LINE..]));
        for r in 0..R {
            let av = V::splat(a_rows[r][p]);
            for l in 0..L {
                acc[r][l] = av.mul_add(bv[l], acc[r][l]);
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        for (l, x) in acc.iter().enumerate() {
            x.store(&mut c[(t.i0 + r) * ldc + t.j0 + l * LINE..]);
        }
    }
}

/// `f64`s [`back_transform`] needs beside its operands.
fn back_transform_len(ld: usize) -> usize {
    REFLECTOR_BLOCK * (3 * ld + 2 * REFLECTOR_BLOCK + PANEL_ROWS)
}

/// Eigenvectors of `A` from its tridiagonal's: the `n` rows of `s`
/// (stride `lds`) times `H₁H₂⋯Hₙ₋₁`, the reflectors `tridiagonalize` left
/// in `z` and their `h` (0 for a skipped step). [`REFLECTOR_BLOCK`]
/// consecutive reflectors are one `I − V T Vᵀ` (`T` upper triangular,
/// LAPACK's `dlarft` forward), applied to [`PANEL_ROWS`] rows at a time
/// as three [`product`]s: `W = S·V`, `W ← −W·T`, `S += W·Vᵀ`.
fn back_transform(
    isa: Isa,
    z: &[f64],
    ld: usize,
    h: &[f64],
    s: &mut [f64],
    lds: usize,
    ws: &mut [f64],
) {
    const B: usize = REFLECTOR_BLOCK;
    let n = h.len();
    let (vt, rest) = ws.split_at_mut(B * ld);
    let (v, rest) = rest.split_at_mut(ld * B);
    let (gram, rest) = rest.split_at_mut(B * B);
    let (t, rest) = rest.split_at_mut(B * B);
    let (tv, rest) = rest.split_at_mut(B * ld);
    let w = &mut rest[..PANEL_ROWS * B];
    // Reflector `i` reaches columns `..i`; step 1 is always skipped.
    for i0 in (1..n).step_by(B) {
        let kb = B.min(n - i0);
        let m = i0 + kb - 1;
        let ml = m.next_multiple_of(LINE);
        // Vᵀ: the reflectors as rows, zero past their own length and for
        // a skipped step; V: the same, transposed, zero past `kb`.
        for (j, row) in vt.chunks_exact_mut(ld).take(kb).enumerate() {
            let i = i0 + j;
            row[..ml].fill(0.0);
            if h[i] != 0.0 {
                row[..i].copy_from_slice(&z[i * ld..][..i]);
            }
        }
        for (p, row) in v.chunks_exact_mut(B).take(m).enumerate() {
            for (j, x) in row.iter_mut().enumerate() {
                *x = if j < kb { vt[j * ld + p] } else { 0.0 };
            }
        }
        // T: τⱼ = 1/hⱼ on the diagonal, column j above it −τⱼ T (Vᵀvⱼ);
        // stored negated, as the middle product wants it.
        product(isa, gram, B, vt, ld, v, B, kb, m, B, false);
        t.fill(0.0);
        for j in 0..kb {
            let tau = if h[i0 + j] == 0.0 {
                0.0
            } else {
                1.0 / h[i0 + j]
            };
            for r in 0..j {
                let sum = (r..j).fold(0.0, |sum, q| sum + t[r * B + q] * gram[q * B + j]);
                t[r * B + j] = -tau * sum;
            }
            t[j * B + j] = tau;
        }
        t.iter_mut().for_each(|x| *x = -*x);
        product(isa, tv, ld, t, B, vt, ld, kb, kb, ml, false);
        for r0 in (0..n).step_by(PANEL_ROWS) {
            let rows = PANEL_ROWS.min(n - r0);
            let panel = &mut s[r0 * lds..];
            product(isa, w, B, panel, lds, v, B, rows, m, B, false);
            product(isa, panel, lds, w, B, tv, ld, rows, kb, ml, true);
        }
    }
}

/// Sort ascending, round to `f32` and transpose out in one tiled pass
/// (`order` holds row indices as exact `f64`s: no allocation to sort).
fn sorted_output(
    z: &[f64],
    ld: usize,
    n: usize,
    d: &[f64],
    order: &mut [f64],
) -> EigenDecomposition {
    for (i, o) in order.iter_mut().enumerate() {
        *o = i as f64;
    }
    let value = |i: &f64| d[*i as usize];
    order.sort_unstable_by(|x, y| value(x).total_cmp(&value(y)).then(x.total_cmp(y)));
    let eigenvalues: Vec<f32> = order.iter().map(|&i| d[i as usize] as f32).collect();
    let mut eigenvectors = Matrix::zeros(n, n);
    let out = eigenvectors.as_mut_slice();
    for k0 in (0..n).step_by(OUT_TILE) {
        let k1 = (k0 + OUT_TILE).min(n);
        for (new_j, &old_j) in order.iter().enumerate() {
            let src = &z[old_j as usize * ld..][k0..k1];
            for (k, &v) in (k0..k1).zip(src) {
                out[k * n + new_j] = v as f32;
            }
        }
    }
    EigenDecomposition {
        eigenvalues,
        eigenvectors,
    }
}

/// The solver as it stood before the blocked kernels — one row, one
/// reflector, one rotation at a time on an unpadded `n × n` buffer — kept
/// as the bit-for-bit oracle of the kernels above. It shares only the
/// scalar QL iteration and the output pass with them.
#[cfg(test)]
mod oracle {
    use super::*;

    fn dot(x: &[f64], y: &[f64]) -> f64 {
        let body = x.len() - x.len() % LANES;
        let mut acc = [0.0f64; LANES];
        for (xc, yc) in x[..body]
            .chunks_exact(LANES)
            .zip(y[..body].chunks_exact(LANES))
        {
            for t in 0..LANES {
                acc[t] += xc[t] * yc[t];
            }
        }
        let mut width = LANES;
        while width > 1 {
            width /= 2;
            for t in 0..width {
                acc[t] += acc[t + width];
            }
        }
        let tail = x[body..].iter().zip(&y[body..]);
        tail.fold(acc[0], |sum, (&a, &b)| sum + a * b)
    }

    fn tridiagonalize(z: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
        for i in (1..n).rev() {
            let (above, row_i) = z.split_at_mut(i * n);
            let u = &mut row_i[..i];
            let mut h = 0.0f64;
            let scale: f64 = u.iter().map(|x| x.abs()).sum();
            if i == 1 || scale == 0.0 {
                e[i] = u[i - 1];
            } else {
                for x in u.iter_mut() {
                    *x /= scale;
                    h += *x * *x;
                }
                let f = u[i - 1];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                u[i - 1] = f - g;

                let p = &mut e[..i];
                for j in 0..i {
                    let (p_head, p_tail) = p.split_at_mut(j);
                    let row = &above[j * n..=j * n + j];
                    p_tail[0] = dot(&row[..j], &u[..j]) + row[j] * u[j];
                    for (pk, &r) in p_head.iter_mut().zip(row) {
                        *pk += r * u[j];
                    }
                }
                let mut f = 0.0f64;
                for (pj, &uj) in p.iter_mut().zip(u.iter()) {
                    *pj /= h;
                    f += *pj * uj;
                }
                let hh = f / (h + h);
                for (pj, &uj) in p.iter_mut().zip(u.iter()) {
                    *pj -= hh * uj;
                }
                for j in 0..i {
                    let (uj, qj) = (u[j], p[j]);
                    let row = &mut above[j * n..=j * n + j];
                    for ((a, &qk), &uk) in row.iter_mut().zip(p.iter()).zip(u.iter()) {
                        *a -= uj * qk + qj * uk;
                    }
                }
            }
            d[i] = h;
        }
    }

    fn accumulate_transposed(z: &mut [f64], n: usize, d: &mut [f64]) {
        for j in 0..n {
            let (head, below) = z.split_at_mut((j + 1) * n);
            let row = &mut head[j * n..];
            let diag = row[j];
            row.fill(0.0);
            row[j] = 1.0;
            for (i, u) in (j + 1..n).zip(below.chunks_exact(n)) {
                if d[i] != 0.0 {
                    let g = dot(&row[..i], &u[..i]) / d[i];
                    for (a, &uk) in row[..i].iter_mut().zip(u) {
                        *a -= g * uk;
                    }
                }
            }
            d[j] = diag;
        }
    }

    pub fn rotate_rows(z: &mut [f64], w: usize, rot: &[f64]) {
        let mut at = 0usize;
        while at < rot.len() {
            let (first, last) = (rot[at] as usize, rot[at + 1] as usize);
            at += 2;
            for i in (first..last).rev() {
                let (c, s) = (rot[at], rot[at + 1]);
                at += 2;
                let (zi, zi1) = z[i * w..(i + 2) * w].split_at_mut(w);
                for (x, y) in zi.iter_mut().zip(zi1.iter_mut()) {
                    let f = *y;
                    *y = s * *x + c * f;
                    *x = c * *x - s * f;
                }
            }
        }
    }

    /// The reduction's output: each row's lower triangle and diagonal,
    /// then `h` and the sub-diagonal (index 0 of both is never written).
    pub fn reduced(a: &Matrix) -> Vec<f64> {
        let n = a.rows();
        let mut z: Vec<f64> = a.as_slice().iter().map(|&v| f64::from(v)).collect();
        let (mut d, mut e) = (vec![0.0; n], vec![0.0; n]);
        tridiagonalize(&mut z, n, &mut d, &mut e);
        let triangle = (0..n).flat_map(|i| z[i * n..=i * n + i].to_vec());
        triangle
            .chain(d.into_iter().skip(1))
            .chain(e.into_iter().skip(1))
            .collect()
    }

    pub fn eigh_tridiag(a: &Matrix) -> Result<EigenDecomposition, LinAlgError> {
        let n = a.rows();
        let mut z: Vec<f64> = a.as_slice().iter().map(|&v| f64::from(v)).collect();
        let (mut d, mut e, mut order) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut rot = vec![0.0; 2 * n * SWEEPS_IN_PLACE];
        tridiagonalize(&mut z, n, &mut d, &mut e);
        accumulate_transposed(&mut z, n, &mut d);
        ql_implicit(n, &mut d, &mut e, &mut rot, |batch| {
            rotate_rows(&mut z, n, batch)
        })?;
        Ok(sorted_output(&z, n, n, &d, &mut order))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::eigh;
    use crate::rng::Rng64;

    fn random_symmetric(n: usize, rng: &mut Rng64) -> Matrix {
        let data: Vec<f32> = (0..n * n).map(|_| rng.normal_f32()).collect();
        let mut a = Matrix::from_vec(n, n, data);
        let at = a.transpose();
        a.add_assign(&at);
        a.scale(0.5);
        a
    }

    fn random_spd(n: usize, rng: &mut Rng64) -> Matrix {
        let x = Matrix::from_vec(2 * n, n, (0..2 * n * n).map(|_| rng.normal_f32()).collect());
        let mut a = x.gram();
        a.scale(1.0 / (2 * n) as f32);
        a.add_diag(1e-3);
        a
    }

    /// Every instruction set this machine can run.
    fn isas() -> Vec<Isa> {
        let mut isas = vec![Isa::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                isas.push(Isa::Avx2);
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                isas.push(Isa::Avx512);
            }
        }
        isas
    }

    /// The shapes of spectrum and sparsity that steer the solver down
    /// different paths.
    #[derive(Clone, Copy, Debug)]
    enum Kind {
        Symmetric,
        /// `xp bench-eig`'s factor: SPD, geometrically decaying spectrum.
        DecayingSpd,
        /// Gram matrix of fewer rows than columns: many skipped reflectors.
        RankDeficient,
        Identity,
        /// Mid-matrix splits: short sweeps with ragged `[first, last)`.
        BlockDiagonal,
        /// A diagonal with one tiny off-diagonal pair.
        NearDiagonal,
        /// Two eigenvalue clusters, 1 and 2, each spread by 10⁻⁶.
        Clustered,
        /// SPD, eigenvalues graded from 1 down to about 10⁻¹⁰.
        Graded,
    }

    const KINDS: [Kind; 8] = [
        Kind::Symmetric,
        Kind::DecayingSpd,
        Kind::RankDeficient,
        Kind::Identity,
        Kind::BlockDiagonal,
        Kind::NearDiagonal,
        Kind::Clustered,
        Kind::Graded,
    ];

    fn sample(kind: Kind, n: usize, rng: &mut Rng64) -> Matrix {
        let normal = |rows: usize, rng: &mut Rng64| {
            Matrix::from_vec(rows, n, (0..rows * n).map(|_| rng.normal_f32()).collect())
        };
        match kind {
            Kind::Symmetric => random_symmetric(n, rng),
            Kind::DecayingSpd => {
                let mut x = normal(n, rng);
                let decay = (-4.605_170 * 6.0 / n as f64).exp();
                for i in 0..n {
                    let s = decay.powi(i as i32) as f32;
                    x.row_mut(i).iter_mut().for_each(|v| *v *= s);
                }
                let mut a = x.gram();
                a.scale(1.0 / n as f32);
                a.add_diag(1e-6);
                a
            }
            Kind::RankDeficient => normal((n / 3).max(1), rng).gram(),
            Kind::Identity => Matrix::identity(n),
            Kind::BlockDiagonal => {
                let mut a = Matrix::zeros(n, n);
                let (mut at, mut block) = (0, 1);
                while at < n {
                    let b = block.min(n - at);
                    let m = random_symmetric(b, rng);
                    for i in 0..b {
                        for j in 0..b {
                            a[(at + i, at + j)] = m[(i, j)];
                        }
                    }
                    at += b;
                    block = 1 + (3 * block + 4) % 23;
                }
                a
            }
            Kind::NearDiagonal => {
                let diag: Vec<f32> = (0..n).map(|i| 1.0 + (i * 7 % n) as f32).collect();
                let mut a = Matrix::from_diag(&diag);
                if n >= 2 {
                    a[(n / 2, n / 2 - 1)] = 1e-20;
                    a[(n / 2 - 1, n / 2)] = 1e-20;
                }
                a
            }
            Kind::Clustered => {
                let mut a = random_symmetric(n, rng);
                a.scale(1e-6);
                for i in 0..n {
                    a[(i, i)] += if i < n / 2 { 1.0 } else { 2.0 };
                }
                a
            }
            Kind::Graded => {
                let mut x = normal(2 * n, rng);
                for i in 0..2 * n {
                    for (j, v) in x.row_mut(i).iter_mut().enumerate() {
                        *v *= 10f32.powf(-5.0 * j as f32 / n as f32);
                    }
                }
                let mut a = x.gram();
                a.scale(1.0 / (2 * n) as f32);
                a
            }
        }
    }

    fn assert_same_bits(got: &EigenDecomposition, want: &EigenDecomposition, what: &str) {
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got.eigenvalues),
            bits(&want.eigenvalues),
            "eigenvalues, {what}"
        );
        assert_eq!(
            bits(got.eigenvectors.as_slice()),
            bits(want.eigenvectors.as_slice()),
            "eigenvectors, {what}"
        );
    }

    /// `tridiagonalize`'s output in [`oracle::reduced`]'s order.
    fn reduced(a: &Matrix, isa: Isa) -> Vec<f64> {
        let n = a.rows();
        let ld = n.next_multiple_of(LINE);
        let mut z = vec![0.0; n * ld];
        for (dst, src) in z.chunks_exact_mut(ld).zip(a.as_slice().chunks_exact(n)) {
            dst.iter_mut()
                .zip(src)
                .for_each(|(x, &v)| *x = f64::from(v));
        }
        let (mut d, mut e) = (vec![0.0; n], vec![0.0; n]);
        tridiagonalize(isa, &mut z, ld, n, &mut d, &mut e);
        let triangle = (0..n).flat_map(|i| z[i * ld..=i * ld + i].to_vec());
        triangle
            .chain(d.into_iter().skip(1))
            .chain(e.into_iter().skip(1))
            .collect()
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The blocked kernels change how often a row crosses the load/store
    /// ports, not one operation on one element: on every instruction set,
    /// at sizes on both sides of every blocking boundary (four rows, a
    /// line, a lane group, a wave), the reduction is the one-at-a-time
    /// loop's to the last bit, and so is the whole solve below
    /// [`DC_MIN_DIM`].
    #[test]
    fn every_path_matches_the_one_at_a_time_oracle_bit_for_bit() {
        let sizes = [
            1,
            2,
            3,
            4,
            5,
            7,
            8,
            9,
            15,
            16,
            17,
            31,
            32,
            33,
            63,
            64,
            65,
            DC_MIN_DIM - 1,
            144,
            145,
            288,
            289,
            512,
            576,
            577,
        ];
        let mut rng = Rng64::new(54);
        for n in sizes {
            for kind in KINDS {
                let a = sample(kind, n, &mut rng);
                let want = bits(&oracle::reduced(&a));
                for isa in isas() {
                    let what = format!("n={n} {kind:?} {isa:?}");
                    assert_eq!(bits(&reduced(&a, isa)), want, "reduction, {what}");
                }
                if n < DC_MIN_DIM {
                    let want = oracle::eigh_tridiag(&a).expect("oracle converges");
                    for isa in isas() {
                        let got = solve(&a, isa, &mut ()).expect("converges");
                        assert_same_bits(&got, &want, &format!("n={n} {kind:?} {isa:?}"));
                    }
                }
            }
        }
    }

    /// Both routes, on every spectrum shape — exact splits, repeated and
    /// clustered eigenvalues, rank-deficient Grams, a graded spectrum —
    /// at sizes around a divide-and-conquer leaf, the crossover and the
    /// benchmark's largest: in `f64`, before rounding,
    /// `‖A qⱼ − λⱼ qⱼ‖₂ ≤ c·n·ε·‖A‖_F` and `|QᵀQ − I| ≤ c·n·ε`, and every
    /// instruction set returns the same bits.
    #[test]
    fn both_routes_are_accurate_to_working_precision_on_every_isa() {
        const C: f64 = 2.0;
        let leaf = dc::LEAF;
        let sizes = [
            1,
            2,
            leaf - 1,
            leaf + 1,
            DC_MIN_DIM - 1,
            DC_MIN_DIM,
            DC_MIN_DIM + 1,
            577,
        ];
        let mut rng = Rng64::new(58);
        for n in sizes {
            for kind in KINDS {
                let a = sample(kind, n, &mut rng);
                let what = format!("n={n} {kind:?}");
                let runs: Vec<Vec<f64>> = isas()
                    .into_iter()
                    .map(|isa| {
                        decompose(&a, isa, &mut (), |rows, ld, d, _| {
                            let rows = rows.chunks_exact(ld).flat_map(|r| r[..n].to_vec());
                            d.iter().copied().chain(rows).collect()
                        })
                        .unwrap_or_else(|err| panic!("{what}: {err}"))
                    })
                    .collect();
                for run in &runs[1..] {
                    assert_eq!(bits(run), bits(&runs[0]), "{what}: instruction sets differ");
                }
                let (lam, q) = runs[0].split_at(n);
                let a64: Vec<f64> = a.as_slice().iter().map(|&v| f64::from(v)).collect();
                let norm = a64.iter().map(|v| v * v).sum::<f64>().sqrt();
                let eps = C * n as f64 * f64::EPSILON;
                let (mut residual, mut orth) = (0.0f64, 0.0f64);
                for (j, qj) in q.chunks_exact(n).enumerate() {
                    let r2: f64 = a64
                        .chunks_exact(n)
                        .zip(qj)
                        .map(|(row, &qi)| {
                            let aq: f64 = row.iter().zip(qj).map(|(x, y)| x * y).sum();
                            (aq - lam[j] * qi).powi(2)
                        })
                        .sum();
                    residual = residual.max(r2.sqrt());
                    for (k, qk) in q.chunks_exact(n).enumerate().skip(j) {
                        let dot: f64 = qj.iter().zip(qk).map(|(x, y)| x * y).sum();
                        orth = orth.max((dot - if j == k { 1.0 } else { 0.0 }).abs());
                    }
                }
                assert!(
                    residual <= eps * norm,
                    "{what}: residual {:e}",
                    residual / norm
                );
                assert!(orth <= eps, "{what}: orthogonality {orth:e}");
            }
        }
        assert!(eigh_tridiag(&Matrix::zeros(0, 0))
            .unwrap()
            .eigenvalues
            .is_empty());
    }

    /// Hand-built batches the QL iteration rarely or never produces, on
    /// rows holding `−0.0` (which an identity rotation standing in for a
    /// skipped one would turn into `+0.0`).
    #[test]
    fn wavefront_matches_the_sweep_by_sweep_loop_on_ragged_groups() {
        const N: usize = 41;
        const LAST: usize = N - 1;
        let w = 24usize;
        let mut rng = Rng64::new(55);
        type Range = fn(usize) -> (usize, usize);
        let shapes: [(&str, usize, Range); 7] = [
            ("full", 16, |_| (0, LAST)),
            ("staggered", 8, |k| (k, LAST - k)),
            ("descending", 16, |k| (2 * (7 - k % 8), LAST)),
            ("nested", 8, |k| (2 * k, LAST - 2 * k)),
            ("gaps", 24, |k| match k % 4 {
                0 => (5, 5),               // empty
                1 => (k % 30, k % 30 + 1), // a single rotation
                2 => (0, LAST),
                _ => (20, 23),
            }),
            ("far apart", 8, |k| [(0, 3), (30, LAST)][k % 2]),
            ("partial group", 11, |_| (0, LAST)),
        ];
        for (name, sweeps, range) in shapes {
            let mut rot = Vec::new();
            for k in 0..sweeps {
                let (first, last) = range(k);
                rot.extend([first as f64, last as f64]);
                for _ in first..last {
                    let theta = f64::from(rng.normal_f32());
                    rot.extend([theta.cos(), theta.sin()]);
                }
            }
            let mut z: Vec<f64> = (0..N * w).map(|_| f64::from(rng.normal_f32())).collect();
            for row in [0, 7, 8, 22, 40] {
                z[row * w..(row + 1) * w].fill(-0.0);
            }
            let mut want = z.clone();
            oracle::rotate_rows(&mut want, w, &rot);
            for isa in isas() {
                let mut got = z.clone();
                rotate_rows(isa, &mut got, w, &rot);
                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{name} {isa:?}");
            }
        }
    }

    #[test]
    fn results_do_not_depend_on_the_pool() {
        let mut rng = Rng64::new(56);
        let a = sample(Kind::DecayingSpd, 145, &mut rng);
        rayon::set_pool_threads(1);
        let want = eigh_tridiag(&a).unwrap();
        for threads in [2, 4] {
            rayon::set_pool_threads(threads);
            let got = eigh_tridiag(&a).unwrap();
            assert_same_bits(&got, &want, &format!("{threads} pool threads"));
        }
    }

    #[test]
    fn the_timed_entry_point_returns_the_same_decomposition() {
        let mut rng = Rng64::new(57);
        let a = sample(Kind::Symmetric, 40, &mut rng);
        let (eig, ns) = eigh_tridiag_phases(&a).unwrap();
        assert_same_bits(&eig, &eigh_tridiag(&a).unwrap(), "timed");
        assert_eq!(ns.len(), PHASES.len());
        assert!(ns.iter().sum::<u64>() > 0);
    }

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::from_diag(&[5.0, -1.0, 2.0]);
        let e = eigh_tridiag(&a).unwrap();
        assert_eq!(e.eigenvalues, vec![-1.0, 2.0, 5.0]);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        let mut rng = Rng64::new(51);
        for n in [1, 2, 3, 8, 33, 80] {
            let a = random_symmetric(n, &mut rng);
            let e = eigh_tridiag(&a).unwrap();
            let recon = e.reconstruct();
            let scale = a.max_abs().max(1.0);
            assert!(
                recon.max_abs_diff(&a) < 2e-4 * scale,
                "n={} diff={}",
                n,
                recon.max_abs_diff(&a)
            );
            let qtq = e.eigenvectors.matmul_tn(&e.eigenvectors);
            assert!(qtq.max_abs_diff(&Matrix::identity(n)) < 1e-4, "n={n}");
        }
    }

    #[test]
    fn matches_jacobi_spectrum() {
        let mut rng = Rng64::new(52);
        for n in [5, 17, 47] {
            let a = random_spd(n, &mut rng);
            let ql = eigh_tridiag(&a).unwrap();
            let jac = eigh(&a).unwrap();
            for (x, y) in ql.eigenvalues.iter().zip(&jac.eigenvalues) {
                assert!((x - y).abs() < 1e-4 * y.abs().max(1.0), "n={n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn eigenvalues_solve_characteristic_action() {
        // A q = λ q per column.
        let mut rng = Rng64::new(53);
        let a = random_spd(12, &mut rng);
        let e = eigh_tridiag(&a).unwrap();
        for j in 0..12 {
            let q = e.eigenvectors.col(j);
            let aq = a.matvec(&q);
            for (av, qv) in aq.iter().zip(&q) {
                assert!(
                    (av - e.eigenvalues[j] * qv).abs() < 1e-3,
                    "column {j}: {av} vs {}",
                    e.eigenvalues[j] * qv
                );
            }
        }
    }

    #[test]
    fn empty_and_single() {
        assert!(eigh_tridiag(&Matrix::zeros(0, 0))
            .unwrap()
            .eigenvalues
            .is_empty());
        let one = Matrix::from_diag(&[7.0]);
        let e = eigh_tridiag(&one).unwrap();
        assert_eq!(e.eigenvalues, vec![7.0]);
        assert!((e.eigenvectors[(0, 0)].abs() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn repeated_eigenvalues() {
        // Identity: all eigenvalues 1, any orthonormal basis is valid.
        let e = eigh_tridiag(&Matrix::identity(6)).unwrap();
        assert!(e.eigenvalues.iter().all(|&l| (l - 1.0).abs() < 1e-6));
        let qtq = e.eigenvectors.matmul_tn(&e.eigenvectors);
        assert!(qtq.max_abs_diff(&Matrix::identity(6)) < 1e-5);
    }

    #[test]
    fn non_finite_input_is_a_typed_error() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut a = Matrix::identity(5);
            a[(3, 1)] = bad;
            a[(1, 3)] = bad;
            assert_eq!(eigh_tridiag(&a).unwrap_err(), LinAlgError::NonFinite);
            assert_eq!(eigh_exact(&a).unwrap_err(), LinAlgError::NonFinite);
        }
    }

    /// A rotation radius that underflows to exactly zero mid-sweep must
    /// restart the QL step. Unreachable from `f32` input (it needs
    /// `f64`-subnormal entries), so the iteration is driven directly: in
    /// units of the smallest subnormal, `d = [1, 1, -3]`, `e = [1, -1]`
    /// zeroes `hypot(f, g)` at the second rotation of the first sweep.
    #[test]
    fn underflow_mid_sweep_restarts_the_ql_step() {
        let tiny = f64::from_bits(1);
        let mut d = [tiny, tiny, -3.0 * tiny];
        let mut e = [0.0, tiny, -tiny]; // e[i] couples i-1 and i, as `tridiagonalize` leaves it
        let mut z = [0.0f64; 3 * LINE];
        (0..3).for_each(|i| z[i * LINE + i] = 1.0);
        let mut by_sweep = z;
        let mut rot = [f64::NAN; 64];
        ql_implicit(3, &mut d, &mut e, &mut rot, |batch| {
            rotate_rows(Isa::for_dim(3), &mut z, LINE, batch);
            oracle::rotate_rows(&mut by_sweep, LINE, batch);
        })
        .expect("converges after restart");
        // The first sweep targets eigenvalue 0 over rows 0..=2; the
        // restart cut it short, so its header starts at row 1 — and the
        // wavefront honours the truncated header.
        assert_eq!(rot[..2], [1.0, 2.0], "first sweep was not cut short");
        assert_eq!(z.map(f64::to_bits), by_sweep.map(f64::to_bits));
        // (Rotations built from subnormals are not orthonormal, so the
        // eigenvectors are not checked; the trace survives exactly.)
        assert_eq!(d.iter().sum::<f64>(), -tiny, "trace not preserved");
    }
}
