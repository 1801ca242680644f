//! Cuppen's divide and conquer on the symmetric tridiagonal, the route of
//! LAPACK's `dstedc` (`dlaed0`–`dlaed4`) with Gu & Eisenstat's
//! eigenvectors: tear the tridiagonal at its middle coupling `β` into two
//! halves and a rank-one term, solve the halves (recursively; leaves of
//! at most [`LEAF`] rows by the module's QL), and merge. A merge
//! eigendecomposes `D + ρ z zᵀ`, where `D` holds the halves' eigenvalues
//! and `z` the last row of the first half's eigenvectors beside the first
//! row of the second's:
//!
//! 1. **Deflation.** A component `ρ|zⱼ|` at the tolerance keeps its pair
//!    `(dⱼ, eⱼ)`; two poles closer than the tolerance are rotated so that
//!    one of them does. K-FAC factors are rank-deficient and clustered, so
//!    this is where most of a merge goes.
//! 2. **Secular equation.** Each remaining root `λᵢ` of
//!    `1/ρ + Σ zⱼ²/(dⱼ − λ) = 0` is found with the origin shifted to the
//!    nearer pole, so every `dⱼ − λᵢ` is formed as `(dⱼ − d_origin) − τ`
//!    without cancellation; the iteration is Li's "middle way" (a
//!    two-pole rational model through the value and slope), bracketed, so
//!    a model step that leaves the bracket falls back to Newton and then
//!    to bisection.
//! 3. **Löwner.** `z` is recomputed from the roots (`ẑⱼ² = Πᵢ(λᵢ − dⱼ) /
//!    Πᵢ≠ⱼ(dᵢ − dⱼ)` up to a common factor), which makes the vectors
//!    `ẑⱼ/(dⱼ − λᵢ)` orthogonal to working precision however close the
//!    roots.
//! 4. **Product.** The new eigenvectors are the small eigenvector matrix
//!    times the halves' — the module's register-tiled product, twice: the
//!    rows from one half only, the rows a deflating rotation mixed, and
//!    the rows from the other half are kept apart, so each product skips
//!    the half of the columns its rows do not reach.
//!
//! Eigenvectors are rows here, as everywhere in the module, and a block's
//! rows are zero outside its own columns. Nothing below is vectorized by
//! hand except the product, and none of it depends on the [`Isa`], so the
//! bits do not either.

use super::{ql_implicit, rotate_rows, rows_mut, Isa, LINE, SWEEPS_IN_PLACE};
use crate::LinAlgError;
use std::f64::consts::FRAC_1_SQRT_2;

/// Largest subproblem solved by QL instead of being torn again. Flat
/// from 16 to 48 on the reference box (n = 577, 96–577 alike within
/// run-to-run noise); LAPACK's default is 25.
pub(super) const LEAF: usize = 32;

/// Iterations one secular root may take before the solve reports
/// [`LinAlgError::NotConverged`] (and `eigh_exact` falls back to Jacobi).
/// A root takes 2–6; bisection alone would need about 60.
const SECULAR_ITERS: usize = 80;

/// `n`-long vectors a merge works in.
const VECTORS: usize = 12;

/// The divide-and-conquer workspace, carved from the solver's one arena
/// buffer.
pub(super) struct Work<'a> {
    /// A leaf's recorded QL rotations.
    rot: &'a mut [f64],
    /// A leaf's eigenvectors, rows of `LEAF` padded to a line.
    leaf: &'a mut [f64],
    /// A merge's rows, gathered: kept ones grouped by the half they reach,
    /// then deflated ones.
    gather: &'a mut [f64],
    /// A merge's `δ` matrix, then its small eigenvector matrix.
    small: &'a mut [f64],
    vectors: &'a mut [f64],
    n: usize,
}

impl<'a> Work<'a> {
    /// `f64`s the workspace of an `n`-row problem needs besides `gather`,
    /// which is [`gather_len`] and may be shared with the back-transform.
    pub(super) fn len(n: usize) -> usize {
        let leaf = n.min(LEAF);
        2 * leaf * SWEEPS_IN_PLACE + leaf * leaf.next_multiple_of(LINE) + n * n + VECTORS * n
    }

    pub(super) fn carve(buf: &'a mut [f64], gather: &'a mut [f64], n: usize) -> Self {
        let leaf = n.min(LEAF);
        let (rot, rest) = buf.split_at_mut(2 * leaf * SWEEPS_IN_PLACE);
        let (leaf, rest) = rest.split_at_mut(leaf * leaf.next_multiple_of(LINE));
        let (small, vectors) = rest.split_at_mut(n * n);
        Work {
            rot,
            leaf,
            gather,
            small,
            vectors: &mut vectors[..VECTORS * n],
            n,
        }
    }
}

/// `f64`s a merge's gathered rows take in an `n`-row problem: each of
/// its halves padded to a line.
pub(super) fn gather_len(n: usize) -> usize {
    n * (n + 2 * LINE)
}

/// Eigenvectors of the tridiagonal `(d, e)` (`e[i]` couples `i − 1` and
/// `i`; `e[0]` is not read) as the first `n` rows of `s` (stride `lds ≥ n +
/// LINE`), eigenvalues in `d`, unsorted. `e` is overwritten. The
/// tridiagonal is first split where a coupling is negligible (QL's test);
/// each piece is then divided and conquered on its own.
pub(super) fn tridiagonal_eigenvectors(
    isa: Isa,
    d: &mut [f64],
    e: &mut [f64],
    s: &mut [f64],
    lds: usize,
    work: &mut Work,
) -> Result<(), LinAlgError> {
    let n = d.len();
    debug_assert!(lds >= n + LINE);
    s[..n * lds].fill(0.0);
    let mut b0 = 0;
    for i in 1..=n {
        if i == n || e[i].abs() <= f64::EPSILON * (d[i - 1].abs() + d[i].abs()) {
            divide(isa, d, e, s, lds, b0, i, work)?;
            b0 = i;
        }
    }
    Ok(())
}

/// Rows and eigenvalues of the block `b0..b1`.
#[allow(clippy::too_many_arguments)]
fn divide(
    isa: Isa,
    d: &mut [f64],
    e: &mut [f64],
    s: &mut [f64],
    lds: usize,
    b0: usize,
    b1: usize,
    work: &mut Work,
) -> Result<(), LinAlgError> {
    if b1 - b0 <= LEAF {
        return leaf(isa, &mut d[b0..b1], &mut e[b0..b1], s, lds, b0, work);
    }
    let bm = b0 + (b1 - b0) / 2;
    let beta = e[bm];
    d[bm - 1] -= beta.abs();
    d[bm] -= beta.abs();
    divide(isa, d, e, s, lds, b0, bm, work)?;
    divide(isa, d, e, s, lds, bm, b1, work)?;
    merge(isa, &mut d[b0..b1], s, lds, b0, bm - b0, beta, work)
}

/// QL on a block, its rotations applied to an identity.
fn leaf(
    isa: Isa,
    d: &mut [f64],
    e: &mut [f64],
    s: &mut [f64],
    lds: usize,
    b0: usize,
    work: &mut Work,
) -> Result<(), LinAlgError> {
    let nb = d.len();
    let wl = nb.next_multiple_of(LINE);
    let q = &mut work.leaf[..nb * wl];
    q.fill(0.0);
    for (r, row) in q.chunks_exact_mut(wl).enumerate() {
        row[r] = 1.0;
    }
    ql_implicit(nb, d, e, work.rot, |batch| rotate_rows(isa, q, wl, batch))?;
    for (r, row) in q.chunks_exact(wl).enumerate() {
        s[(b0 + r) * lds + b0..][..nb].copy_from_slice(&row[..nb]);
    }
    Ok(())
}

/// Merge the solved halves `b0..b0 + n1` and `b0 + n1..b0 + d.len()`,
/// torn at coupling `beta`, into the eigenpairs of the whole block.
#[allow(clippy::too_many_arguments)]
fn merge(
    isa: Isa,
    d: &mut [f64],
    s: &mut [f64],
    lds: usize,
    b0: usize,
    n1: usize,
    beta: f64,
    work: &mut Work,
) -> Result<(), LinAlgError> {
    let nb = d.len();
    let (n2, bm) = (nb - n1, b0 + n1);
    let [z, idx, kind, keep, defl, p, w, lam, zhat, tmp, dd, pos] =
        rows_mut::<VECTORS>(work.vectors, work.n).map(|v| &mut v[..nb]);

    // z = Qᵀ(e_{bm−1} + sign(β) e_bm), scaled to unit norm: ρ = 2|β|.
    let sign = if beta < 0.0 { -1.0 } else { 1.0 };
    for (l, zl) in z.iter_mut().enumerate() {
        let (col, sign) = if l < n1 { (bm - 1, 1.0) } else { (bm, sign) };
        *zl = s[(b0 + l) * lds + col] * sign * FRAC_1_SQRT_2;
    }
    let rho = 2.0 * beta.abs();

    // Deflation, in ascending order of the poles. `kind` is the half a row
    // reaches: 1 the first, 3 the second, 2 both (a rotation mixed it).
    for (l, (x, k)) in idx.iter_mut().zip(kind.iter_mut()).enumerate() {
        *x = l as f64;
        *k = if l < n1 { 1.0 } else { 3.0 };
    }
    idx.sort_unstable_by(|x, y| {
        d[*x as usize]
            .total_cmp(&d[*y as usize])
            .then(x.total_cmp(y))
    });
    let dmax = d.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let zmax = z.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let tol = 8.0 * f64::EPSILON * dmax.max(zmax);
    let (mut k, mut nd) = (0usize, 0usize);
    let mut prev: Option<usize> = None;
    for &l in idx.iter() {
        let l = l as usize;
        if rho * z[l].abs() <= tol {
            defl[nd] = l as f64;
            nd += 1;
            continue;
        }
        if let Some(pj) = prev {
            let tau = z[l].hypot(z[pj]);
            let (c, sn) = (z[l] / tau, -z[pj] / tau);
            if ((d[l] - d[pj]) * c * sn).abs() <= tol {
                // Rotate pole `pj` onto `l`: its `z` vanishes.
                z[l] = tau;
                z[pj] = 0.0;
                if kind[l] != kind[pj] {
                    kind[l] = 2.0;
                }
                rotate_row_pair(&mut s[b0 * lds..], lds, b0..b0 + nb, pj, l, c, sn);
                let dp = d[pj] * c * c + d[l] * sn * sn;
                d[l] = d[pj] * sn * sn + d[l] * c * c;
                d[pj] = dp;
                defl[nd] = pj as f64;
                nd += 1;
            } else {
                keep[k] = pj as f64;
                k += 1;
            }
        }
        prev = Some(l);
    }
    if let Some(pj) = prev {
        keep[k] = pj as f64;
        k += 1;
    }
    if k == 0 {
        return Ok(());
    }

    // Kept rows grouped first-half-only, mixed, second-half-only.
    for t in 0..k {
        let l = keep[t] as usize;
        (p[t], w[t]) = (d[l], z[l]);
    }
    let count = |of: f64| {
        keep[..k]
            .iter()
            .filter(|&&l| kind[l as usize] == of)
            .count()
    };
    let (k1, k2) = (count(1.0), count(2.0));
    let mut next = [0, k1, k1 + k2];
    for t in 0..k {
        let group = kind[keep[t] as usize] as usize - 1;
        pos[t] = next[group] as f64;
        next[group] += 1;
    }
    let (n1l, n2l) = (n1.next_multiple_of(LINE), n2.next_multiple_of(LINE));
    let gl = n1l + n2l;
    let g = &mut work.gather[..nb * gl];
    let rows = (0..k)
        .map(|t| (pos[t], keep[t]))
        .chain((0..nd).map(|u| ((k + u) as f64, defl[u])));
    for (to, from) in rows {
        let (src, dst) = (
            &s[(b0 + from as usize) * lds..],
            &mut g[to as usize * gl..][..gl],
        );
        let (first, second) = dst.split_at_mut(n1l);
        first[..n1].copy_from_slice(&src[b0..bm]);
        first[n1..].fill(0.0);
        second[..n2].copy_from_slice(&src[bm..bm + n2]);
        second[n2..].fill(0.0);
    }
    for u in 0..nd {
        dd[u] = d[defl[u] as usize];
    }

    // Roots, with row `i` of `small` holding `δⱼ = pⱼ − λᵢ`.
    let small = &mut work.small[..k * k];
    for (i, (row, l)) in small.chunks_exact_mut(k).zip(lam.iter_mut()).enumerate() {
        *l = secular_root(&p[..k], &w[..k], rho, i, row, SECULAR_ITERS)?;
    }

    // Löwner: ẑⱼ² ∝ −δⱼ(j) · Πᵢ≠ⱼ δⱼ(i)/(pⱼ − pᵢ), signed as zⱼ.
    for (j, zh) in zhat[..k].iter_mut().enumerate() {
        *zh = small[j * k + j];
    }
    for (i, row) in small.chunks_exact(k).enumerate() {
        let pi = p[i];
        let (zl, zr) = zhat[..k].split_at_mut(i);
        for ((zh, &dj), &pj) in zl.iter_mut().zip(&row[..i]).zip(&p[..i]) {
            *zh *= dj / (pj - pi);
        }
        for ((zh, &dj), &pj) in zr[1..].iter_mut().zip(&row[i + 1..]).zip(&p[i + 1..k]) {
            *zh *= dj / (pj - pi);
        }
    }
    for (zh, &wj) in zhat[..k].iter_mut().zip(w.iter()) {
        *zh = (-*zh).max(0.0).sqrt().copysign(wj);
    }

    // Eigenvector `i` of `D + ρ ẑ ẑᵀ` is `ẑⱼ/δⱼ(i)`, normalized, and
    // becomes row `i` of `small` with its columns in grouped order.
    for row in small.chunks_exact_mut(k) {
        for ((t, &zh), &dj) in tmp[..k].iter_mut().zip(zhat.iter()).zip(row.iter()) {
            *t = zh / dj;
        }
        let scale = 1.0 / sum_of_squares(&tmp[..k]).sqrt();
        if !(scale.is_finite() && scale > 0.0) {
            return Err(LinAlgError::NotConverged);
        }
        for (&t, &at) in tmp[..k].iter().zip(pos.iter()) {
            row[at as usize] = t * scale;
        }
    }

    // New rows = small · gathered, one product per half; a product's
    // columns past its half are zero in `g`, so it writes zeros there
    // (the second product then overwrites the first's).
    let out = &mut s[b0 * lds..];
    let g = &work.gather[..nb * gl];
    super::product(
        isa,
        &mut out[b0..],
        lds,
        small,
        k,
        g,
        gl,
        k,
        k1 + k2,
        n1l,
        false,
    );
    let (a2, b2) = (&small[k1..], &g[k1 * gl + n1l..]);
    super::product(
        isa,
        &mut out[bm..],
        lds,
        a2,
        k,
        b2,
        gl,
        k,
        k - k1,
        n2l,
        false,
    );
    for u in 0..nd {
        let (src, dst) = (&g[(k + u) * gl..], &mut out[(k + u) * lds..]);
        dst[b0..bm].copy_from_slice(&src[..n1]);
        dst[bm..bm + n2].copy_from_slice(&src[n1l..n1l + n2]);
    }
    d[..k].copy_from_slice(&lam[..k]);
    d[k..].copy_from_slice(&dd[..nd]);
    Ok(())
}

/// Rows `x` and `y` of `s` over `cols`: `(c·x + s·y, c·y − s·x)`.
fn rotate_row_pair(
    s: &mut [f64],
    lds: usize,
    cols: std::ops::Range<usize>,
    x: usize,
    y: usize,
    c: f64,
    sn: f64,
) {
    let (lo, hi) = (x.min(y), x.max(y));
    let (head, tail) = s.split_at_mut(hi * lds);
    let (rx, ry) = (&mut head[lo * lds..][cols.clone()], &mut tail[cols]);
    let (rx, ry) = if x < y { (rx, ry) } else { (ry, rx) };
    for (a, b) in rx.iter_mut().zip(ry.iter_mut()) {
        let (u, v) = (*a, *b);
        *a = c * u + sn * v;
        *b = c * v - sn * u;
    }
}

/// Root `i` (ascending) of `1/ρ + Σⱼ wⱼ²/(pⱼ − λ) = 0`, the secular
/// equation of `diag(p) + ρ w wᵀ` (`p` strictly ascending, no `wⱼ` zero,
/// `ρ > 0`), in at most `budget` evaluations. Writes `δⱼ = pⱼ − λᵢ` to
/// `delta` and returns `λᵢ`.
///
/// The root lies in `(pᵢ, pᵢ₊₁)`, or in `(p_last, p_last + ρ|w|²]` for the
/// last; the origin is the pole it is nearer to, decided by the sign at
/// the midpoint, and the unknown is `τ = λ − p_origin`, bracketed. Each
/// step solves the model `c + s/(δ_l − η) + S/(δ_r − η)` whose two poles
/// are the two nearest the root and whose `s`, `S` carry the slope of the
/// terms on either side of the split between them (Li's middle way);
/// converged when `|f|` is at the rounding error of its own evaluation.
fn secular_root(
    p: &[f64],
    w: &[f64],
    rho: f64,
    i: usize,
    delta: &mut [f64],
    budget: usize,
) -> Result<f64, LinAlgError> {
    let k = p.len();
    if k == 1 {
        let tau = rho * w[0] * w[0];
        delta[0] = -tau;
        return Ok(p[0] + tau);
    }
    let rhoinv = 1.0 / rho;
    let split = i.min(k - 2);
    // The first evaluation, at the midpoint, also picks the origin; it is
    // made from pole `i` either way.
    let (mut origin, mut lo, mut hi, mut tau) = if i + 1 < k {
        let gap = p[i + 1] - p[i];
        (i, 0.0, gap, gap / 2.0)
    } else {
        let hi = rho * sum_of_squares(w);
        (i, 0.0, hi, hi / 2.0)
    };
    let mut first = i + 1 < k;
    for _ in 0..budget {
        let base = p[origin];
        for (dj, &pj) in delta.iter_mut().zip(p) {
            *dj = (pj - base) - tau;
        }
        let [psi, dpsi, apsi] = secular_sums(&w[..=split], &delta[..=split]);
        let [phi, dphi, aphi] = secular_sums(&w[split + 1..], &delta[split + 1..]);
        let f = rhoinv + psi + phi;
        let df = dpsi + dphi;
        if std::mem::take(&mut first) && f < 0.0 {
            origin = i + 1;
            tau += p[i] - p[i + 1];
            hi = 0.0;
        }
        if f.abs() <= f64::EPSILON * (8.0 * (apsi + aphi) + 2.0 * rhoinv + tau.abs() * df) {
            return Ok(p[origin] + tau);
        }
        if f < 0.0 {
            lo = tau;
        } else {
            hi = tau;
        }
        if hi - lo <= 4.0 * f64::EPSILON * lo.abs().max(hi.abs()) {
            return Ok(p[origin] + tau);
        }
        let inside = |eta: f64| lo < tau + eta && tau + eta < hi;
        let (dl, dr) = (delta[split], delta[split + 1]);
        let c = f - dl * dpsi - dr * dphi;
        let a1 = c * (dl + dr) + dl * dl * dpsi + dr * dr * dphi;
        let a0 = dl * dr * f;
        let model = if c == 0.0 {
            [a0 / a1, f64::NAN]
        } else {
            let q = (a1 + (a1 * a1 - 4.0 * c * a0).max(0.0).sqrt().copysign(a1)) / 2.0;
            [q / c, a0 / q]
        };
        let mut eta = model
            .into_iter()
            .filter(|&eta| inside(eta))
            .min_by(|x, y| x.abs().total_cmp(&y.abs()))
            .unwrap_or(-f / df);
        if !inside(eta) {
            eta = (lo + hi) / 2.0 - tau;
        }
        if tau + eta == tau {
            return Ok(p[origin] + tau);
        }
        tau += eta;
    }
    Err(LinAlgError::NotConverged)
}

/// `[Σ wⱼ²/δⱼ, Σ (wⱼ/δⱼ)², Σ |wⱼ²/δⱼ|]`, summed in [`LINE`] lanes folded
/// pairwise, then the tail ascending.
fn secular_sums(w: &[f64], delta: &[f64]) -> [f64; 3] {
    let body = w.len() - w.len() % LINE;
    let mut acc = [[0.0f64; LINE]; 3];
    for (wc, dc) in w[..body]
        .chunks_exact(LINE)
        .zip(delta[..body].chunks_exact(LINE))
    {
        for l in 0..LINE {
            let t = wc[l] / dc[l];
            acc[0][l] += wc[l] * t;
            acc[1][l] += t * t;
            acc[2][l] += (wc[l] * t).abs();
        }
    }
    let mut sums = acc.map(fold_lanes);
    for (&wj, &dj) in w[body..].iter().zip(&delta[body..]) {
        let t = wj / dj;
        sums[0] += wj * t;
        sums[1] += t * t;
        sums[2] += (wj * t).abs();
    }
    sums
}

/// `Σ xⱼ²` in [`secular_sums`]' order.
fn sum_of_squares(x: &[f64]) -> f64 {
    let body = x.len() - x.len() % LINE;
    let mut acc = [0.0f64; LINE];
    for chunk in x[..body].chunks_exact(LINE) {
        for l in 0..LINE {
            acc[l] += chunk[l] * chunk[l];
        }
    }
    x[body..].iter().fold(fold_lanes(acc), |sum, v| sum + v * v)
}

fn fold_lanes(mut acc: [f64; LINE]) -> f64 {
    let mut width = LINE;
    while width > 1 {
        width /= 2;
        for l in 0..width {
            acc[l] += acc[l + width];
        }
    }
    acc[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// `‖T q − λ q‖₂` over all pairs, and `max |QᵀQ − I|`, in f64.
    fn residuals(d: &[f64], e: &[f64], s: &[f64], lds: usize, lam: &[f64]) -> (f64, f64) {
        let n = d.len();
        let row = |r: usize| &s[r * lds..r * lds + n];
        let mut residual = 0.0f64;
        for (r, &l) in lam.iter().enumerate() {
            let q = row(r);
            let mut sum = 0.0;
            for i in 0..n {
                let mut tq = d[i] * q[i];
                if i > 0 {
                    tq += e[i] * q[i - 1];
                }
                if i + 1 < n {
                    tq += e[i + 1] * q[i + 1];
                }
                sum += (tq - l * q[i]).powi(2);
            }
            residual = residual.max(sum.sqrt());
        }
        let mut orth = 0.0f64;
        for a in 0..n {
            for b in a..n {
                let dot: f64 = row(a).iter().zip(row(b)).map(|(x, y)| x * y).sum();
                orth = orth.max((dot - if a == b { 1.0 } else { 0.0 }).abs());
            }
        }
        (residual, orth)
    }

    /// The stage on its own, on tridiagonals whose shapes steer it down
    /// each path — dense, split, a repeated eigenvalue, a graded diagonal
    /// — at sizes around a leaf, two leaves and the benchmark's largest.
    #[test]
    fn divide_and_conquer_solves_the_tridiagonal_to_working_precision() {
        let mut rng = Rng64::new(71);
        for n in [1, 2, 3, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 1, 577] {
            let random = |rng: &mut Rng64| (0..n).map(|_| f64::from(rng.normal_f32())).collect();
            let shapes: [(&str, Vec<f64>, Vec<f64>); 4] = [
                ("dense", random(&mut rng), random(&mut rng)),
                ("split", random(&mut rng), {
                    let mut e: Vec<f64> = random(&mut rng);
                    e.iter_mut().step_by(7).for_each(|x| *x = 0.0);
                    e
                }),
                ("repeated", vec![1.0; n], vec![0.0; n]),
                (
                    "graded",
                    (0..n)
                        .map(|i| 10f64.powf(-10.0 * i as f64 / n as f64))
                        .collect(),
                    {
                        (0..n)
                            .map(|i| 1e-6 * 10f64.powf(-4.0 * i as f64 / n as f64))
                            .collect()
                    },
                ),
            ];
            for (name, d0, e0) in shapes {
                let lds = n.next_multiple_of(LINE) + LINE;
                let mut buf = vec![f64::NAN; Work::len(n)];
                let mut gather = vec![f64::NAN; gather_len(n)];
                let mut s = vec![f64::NAN; n * lds];
                let (mut d, mut e) = (d0.clone(), e0.clone());
                let mut work = Work::carve(&mut buf, &mut gather, n);
                tridiagonal_eigenvectors(Isa::Portable, &mut d, &mut e, &mut s, lds, &mut work)
                    .unwrap_or_else(|err| panic!("{name} n={n}: {err}"));
                let norm = d0
                    .iter()
                    .chain(&e0[1..])
                    .fold(0.0f64, |m, x| m.max(x.abs()));
                let (residual, orth) = residuals(&d0, &e0, &s, lds, &d);
                let eps = f64::EPSILON * n as f64;
                assert!(
                    residual <= 10.0 * eps * norm,
                    "{name} n={n}: residual {residual:e}"
                );
                assert!(orth <= 10.0 * eps, "{name} n={n}: orthogonality {orth:e}");
            }
        }
    }

    /// Every root of a dense secular equation, against the bracket it
    /// must lie in, and a starved budget as the typed error `eigh_exact`
    /// falls back on.
    #[test]
    fn secular_roots_interlace_and_a_starved_solve_is_not_converged() {
        let mut rng = Rng64::new(72);
        let k = 40;
        let mut p: Vec<f64> = (0..k).map(|_| f64::from(rng.normal_f32())).collect();
        p.sort_by(f64::total_cmp);
        let w: Vec<f64> = (0..k).map(|_| f64::from(rng.normal_f32()) / 6.0).collect();
        let rho = 0.7;
        let mut delta = vec![0.0; k];
        for i in 0..k {
            let lam = secular_root(&p, &w, rho, i, &mut delta, SECULAR_ITERS).unwrap();
            let upper = p
                .get(i + 1)
                .copied()
                .unwrap_or(p[k - 1] + rho * sum_of_squares(&w));
            assert!(
                p[i] < lam && lam <= upper,
                "root {i}: {lam} outside ({}, {upper}]",
                p[i]
            );
            let f = 1.0 / rho + w.iter().zip(&delta).map(|(w, d)| w * w / d).sum::<f64>();
            assert!(f.abs() < 1e-9 * (1.0 / rho), "root {i}: f = {f:e}");
        }
        assert_eq!(
            secular_root(&p, &w, rho, k / 2, &mut delta, 1),
            Err(LinAlgError::NotConverged)
        );
    }
}
