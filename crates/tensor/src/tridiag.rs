//! Symmetric eigendecomposition via Householder tridiagonalization and
//! implicit-shift QL iteration — the exact solver behind every K-FAC
//! factor decomposition (the Jacobi solver of [`crate::eigen`] is its
//! non-convergence backstop and test oracle). The classic LAPACK-style
//! route (`ssyev`'s ancestor): `4n³/3` FLOPs to reduce, `4n³/3` to
//! accumulate the transform, `3–4n³` of Givens rotations on the
//! eigenvectors, all in `f64` (like Jacobi) and rounded to `f32` on output.
//!
//! The layout is the algorithm: every inner loop walks contiguous
//! row-major storage, never a stride-`n` column (which aliases in cache
//! at power-of-two `n`). The reduction touches only lower-triangle rows;
//! the transform is accumulated *transposed*, each row finished while it
//! sits in L1; the QL iteration runs on the tridiagonal alone and records
//! its rotations, which then mix pairs of contiguous rows of `Zᵀ`, one
//! L2-sized column panel per batch of sweeps; sorting and rounding ride
//! on the transpose-out pass. DESIGN.md §4 has the per-phase budget.
//!
//! Every element's operation sequence is fixed by the source (explicit
//! accumulator lanes, no pool, no FMA contraction), so results do not
//! depend on vector width, `KFAC_POOL_THREADS` or the calling rank. The
//! workspace is one [`arena`] buffer: a warm call allocates only its result.

use crate::eigen::{check_finite, eigh, EigenDecomposition};
use crate::{arena, LinAlgError, Matrix};

/// Maximum QL iterations per eigenvalue before declaring failure.
const MAX_QL_ITERS: usize = 60;

/// Independent partial sums of a dot product (four 256-bit accumulators
/// hide the add latency); this also fixes the summation order.
const LANES: usize = 16;

/// Bytes of `Zᵀ` in one rotation panel (`n` rows × panel width): half of
/// a 2 MiB L2, leaving room for the stream of rotations.
const PANEL_BYTES: usize = 1 << 20;

/// Full-length QL sweeps recorded per batch: a panel is fetched once per
/// batch, so the fetch is amortized over this many in-cache passes.
const SWEEPS_PER_BATCH: usize = 32;

/// Source columns per transpose-out pass: two cache lines per source row,
/// few enough write streams to stay in L1 at power-of-two `n`.
const OUT_TILE: usize = 16;

/// Symmetric eigendecomposition via tridiagonal QL.
///
/// Same contract as [`crate::eigh`]: eigenvalues ascending, orthonormal
/// eigenvector columns.
///
/// # Errors
/// [`LinAlgError::NonFinite`] if `a` holds a NaN or infinity,
/// [`LinAlgError::NotConverged`] if the QL iteration stalls.
pub fn eigh_tridiag(a: &Matrix) -> Result<EigenDecomposition, LinAlgError> {
    assert!(a.is_square(), "eigh_tridiag requires a square matrix");
    check_finite(a)?;
    let n = a.rows();
    if n == 0 {
        return Ok(EigenDecomposition {
            eigenvalues: vec![],
            eigenvectors: Matrix::zeros(0, 0),
        });
    }

    // One buffer: Zᵀ (n²), diagonal, sub-diagonal, sort order, a batch of
    // rotations, and the rotation panel if Zᵀ is more than one.
    let rot_len = 2 * n * SWEEPS_PER_BATCH;
    let panel_len = if 8 * n * n <= PANEL_BYTES {
        0
    } else {
        n * (PANEL_BYTES / 8 / n).max(8)
    };
    let mut ws = arena::take_f64(n * n + 3 * n + rot_len + panel_len);
    let (z, rest) = ws.split_at_mut(n * n);
    let (d, rest) = rest.split_at_mut(n);
    let (e, rest) = rest.split_at_mut(n);
    let (order, rest) = rest.split_at_mut(n);
    let (rot, panel) = rest.split_at_mut(rot_len);
    for (dst, &src) in z.iter_mut().zip(a.as_slice()) {
        *dst = f64::from(src);
    }

    tridiagonalize(z, n, d, e);
    accumulate_transposed(z, n, d);
    let result = ql_implicit(z, n, d, e, rot, panel).map(|()| sorted_output(z, n, d, order));
    arena::recycle_f64(ws);
    result
}

/// [`eigh_tridiag`] with the Jacobi backstop: Jacobi converges on
/// anything symmetric and finite, so a (rare) QL stall costs time, not
/// the training run. A non-finite input fails both, so it is not retried.
pub fn eigh_exact(a: &Matrix) -> Result<EigenDecomposition, LinAlgError> {
    match eigh_tridiag(a) {
        Err(LinAlgError::NotConverged) => eigh(a),
        result => result,
    }
}

/// `Σ x[k]·y[k]` in a fixed order: lane `t` sums `k ≡ t (mod LANES)`,
/// lanes are folded pairwise, the tail is added ascending.
#[inline(always)]
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

/// Householder reduction to tridiagonal form (`tred2`'s arithmetic on the
/// lower triangle). On return `e[i]` is the sub-diagonal, `d[i]` step
/// `i`'s `h = |u|²/2` (0 for a skipped step), and row `i` holds its
/// vector `u` in columns `0..i` and the diagonal entry in column `i`.
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

            // p = A·u/h in e[..i]: row j supplies p[j]'s k ≤ j terms and,
            // by symmetry, the k = j term of every p[k < j].
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
            // q = p − (uᵀp/2h)·u, then A ← A − u qᵀ − q uᵀ.
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

/// Accumulate the Householder transform in place, transposed: on return
/// row `j` of `z` is the `j`-th basis vector of the tridiagonal form and
/// `d` its diagonal. Row `j` is `e_jᵀ·H_{j+1}⋯H_{n-1}`, which needs only
/// the vectors stored *below* it, so rows are finished top down, each
/// staying in L1 while the reflectors stream past.
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

/// Implicit-shift QL on the tridiagonal `(d, e)` (`tqli`). The rotations
/// never read the eigenvectors, so each sweep only records its `(c, s)`
/// pairs in `rot` behind a `[first_row, last_row]` header; a full buffer
/// is applied to `z` by [`rotate_rows`].
fn ql_implicit(
    z: &mut [f64],
    n: usize,
    d: &mut [f64],
    e: &mut [f64],
    rot: &mut [f64],
    panel: &mut [f64],
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
                rotate_rows(z, n, &rot[..used], panel);
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
    rotate_rows(z, n, &rot[..used], panel);
    Ok(())
}

/// Apply recorded QL sweeps to `Zᵀ` one column panel at a time: each is
/// gathered into the contiguous `panel` scratch, takes the whole batch
/// while it sits in L2, and is scattered back. A matrix that fits one
/// panel (`panel` is then empty) is rotated where it lies.
fn rotate_rows(z: &mut [f64], n: usize, rot: &[f64], panel: &mut [f64]) {
    if panel.is_empty() {
        return rotate_panel(z, n, rot);
    }
    let width = panel.len() / n;
    for p0 in (0..n).step_by(width) {
        let w = width.min(n - p0);
        let panel = &mut panel[..n * w];
        for (dst, src) in panel.chunks_exact_mut(w).zip(z.chunks_exact(n)) {
            dst.copy_from_slice(&src[p0..p0 + w]);
        }
        rotate_panel(panel, w, rot);
        for (src, dst) in panel.chunks_exact(w).zip(z.chunks_exact_mut(n)) {
            dst[p0..p0 + w].copy_from_slice(src);
        }
    }
}

/// The sweeps of `rot` on a row-major matrix of row length `w`: the
/// rotation of eigenvectors `i`, `i+1` mixes rows `i`, `i+1`.
fn rotate_panel(z: &mut [f64], w: usize, rot: &[f64]) {
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

/// Sort ascending, round to `f32` and transpose out in one tiled pass
/// (`order` holds row indices as exact `f64`s: no allocation to sort).
fn sorted_output(z: &[f64], n: usize, d: &[f64], order: &mut [f64]) -> EigenDecomposition {
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
            let src = &z[old_j as usize * n..][k0..k1];
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
        let mut z = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        let mut rot = [f64::NAN; 64];
        ql_implicit(&mut z, 3, &mut d, &mut e, &mut rot, &mut []).expect("converges after restart");
        // The first sweep targets eigenvalue 0 over rows 0..=2; the
        // restart cut it short, so its header starts at row 1.
        assert_eq!(rot[..2], [1.0, 2.0], "first sweep was not cut short");
        // (Rotations built from subnormals are not orthonormal, so the
        // eigenvectors are not checked; the trace survives exactly.)
        assert_eq!(d.iter().sum::<f64>(), -tiny, "trace not preserved");
    }
}
