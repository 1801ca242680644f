//! Property-based tests over the linear-algebra substrate.
//!
//! These are the algebraic invariants the K-FAC math rests on: the
//! Kronecker identities of §II-C, spectral reconstruction, and
//! factorization round-trips.

use kfac_tensor::gemm::{gemm_acc_into, gemm_into, gemm_upper_into, Packed, Side, View};
use kfac_tensor::matmul::reference_matmul;
use kfac_tensor::{eigh, eigh_tridiag, invert, kron, EigenDecomposition, Matrix, Rng64};
use proptest::prelude::*;

/// Strategy: a random matrix with entries in [-3, 3].
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// Strategy: a random SPD matrix built as `XᵀX/k + γI`.
fn spd_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    (
        proptest::collection::vec(-2.0f32..2.0, 2 * n * n),
        0.05f32..1.0,
    )
        .prop_map(move |(data, damp)| {
            let x = Matrix::from_vec(2 * n, n, data);
            let mut a = x.gram();
            a.scale(1.0 / (2 * n) as f32);
            a.add_diag(damp);
            a
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GEMM is associative with the naive reference (checked via identity
    /// distribution over random matrices): (A·B)·C == A·(B·C).
    #[test]
    fn matmul_associative(
        a in matrix_strategy(4, 6),
        b in matrix_strategy(6, 5),
        c in matrix_strategy(5, 3),
    ) {
        let lhs = a.matmul(&b).matmul(&c);
        let rhs = a.matmul(&b.matmul(&c));
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-2);
    }

    /// Transposition reverses products: (A·B)ᵀ == Bᵀ·Aᵀ.
    #[test]
    fn matmul_transpose_reverses(
        a in matrix_strategy(5, 7),
        b in matrix_strategy(7, 4),
    ) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    /// matmul_tn / matmul_nt agree with explicit transposes.
    #[test]
    fn fused_transpose_kernels(
        a in matrix_strategy(8, 5),
        b in matrix_strategy(8, 6),
        c in matrix_strategy(6, 5),
    ) {
        let tn = a.matmul_tn(&b);
        prop_assert!(tn.max_abs_diff(&a.transpose().matmul(&b)) < 1e-3);
        let nt = a.matmul_nt(&c);
        prop_assert!(nt.max_abs_diff(&a.matmul(&c.transpose())) < 1e-3);
    }

    /// Eigendecomposition reconstructs the input: Q Λ Qᵀ == A.
    #[test]
    fn eigh_reconstructs(a in spd_strategy(8)) {
        let e = eigh(&a).unwrap();
        let recon = e.reconstruct();
        prop_assert!(recon.max_abs_diff(&a) < 1e-3 * a.max_abs().max(1.0));
    }

    /// Eigenvector bases are orthonormal: QᵀQ == I.
    #[test]
    fn eigh_orthonormal(a in spd_strategy(7)) {
        let e = eigh(&a).unwrap();
        let qtq = e.eigenvectors.matmul_tn(&e.eigenvectors);
        prop_assert!(qtq.max_abs_diff(&Matrix::identity(7)) < 1e-4);
    }

    /// SPD matrices have strictly positive spectra.
    #[test]
    fn spd_positive_spectrum(a in spd_strategy(6)) {
        let e = eigh(&a).unwrap();
        prop_assert!(e.eigenvalues.iter().all(|&l| l > 0.0));
    }

    /// Gauss–Jordan inverse satisfies A·A⁻¹ == I.
    #[test]
    fn inverse_round_trip(a in spd_strategy(6)) {
        let inv = invert(&a).unwrap();
        let prod = a.matmul(&inv);
        prop_assert!(prod.max_abs_diff(&Matrix::identity(6)) < 5e-3);
    }

    /// The paper's Eq. 8: (A ⊗ B)⁻¹ == A⁻¹ ⊗ B⁻¹.
    #[test]
    fn kron_inverse_identity(a in spd_strategy(3), b in spd_strategy(2)) {
        let lhs = invert(&kron(&a, &b)).unwrap();
        let rhs = kron(&invert(&a).unwrap(), &invert(&b).unwrap());
        prop_assert!(lhs.max_abs_diff(&rhs) < 5e-2 * rhs.max_abs().max(1.0));
    }

    /// The paper's Eq. 10 vec-trick: (A ⊗ B) vec(X) == vec(A X Bᵀ).
    #[test]
    fn kron_vec_trick(
        a in matrix_strategy(3, 4),
        b in matrix_strategy(2, 5),
        x in matrix_strategy(4, 5),
    ) {
        let fast = a.matmul(&x.matmul_nt(&b));
        let dense = kron(&a, &b).matvec(x.as_slice());
        for (f, d) in fast.as_slice().iter().zip(&dense) {
            prop_assert!((f - d).abs() < 1e-2, "{} vs {}", f, d);
        }
    }

    /// Gram kernels are symmetric and PSD (non-negative diagonal, spectrum ≥ 0).
    #[test]
    fn gram_is_psd(a in matrix_strategy(10, 6)) {
        let g = a.gram();
        prop_assert_eq!(g.asymmetry(), 0.0);
        let e = eigh(&g).unwrap();
        prop_assert!(e.eigenvalues.iter().all(|&l| l > -1e-3));
    }

    /// Shuffle produces a permutation for arbitrary seeds and lengths.
    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), len in 0usize..200) {
        let mut rng = Rng64::new(seed);
        let mut xs: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..len).collect::<Vec<_>>());
    }
}

// ---------------------------------------------------------------------------
// Packed GEMM vs the naive reference on adversarial shapes.
//
// The packed kernel has edge behaviour at every tile boundary (MR=8 rows,
// NR=16 columns, MC=64-row parallel blocks, KC=256-deep cache blocks) plus
// degenerate dimensions (empty operands, row/column vectors, k=0). These
// tests drive exactly those edges against the f64-accumulating reference
// and pin the structural-determinism guarantee across pool sizes.
// ---------------------------------------------------------------------------

/// Dimensions straddling every packing edge: empty, vectors, exact tile
/// multiples, and off-by-one values around the MR/NR/MC boundaries.
fn edge_dim() -> impl Strategy<Value = usize> {
    const DIMS: [usize; 13] = [0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100];
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

fn seeded(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng64::new(seed);
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.normal_f32()).collect(),
    )
}

/// Absolute tolerance for an f32 dot of length `k` against the f64
/// reference, for unit-normal entries.
fn dot_tol(k: usize) -> f32 {
    1e-4 * ((k as f32).sqrt() + 1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Packed `A·B` matches the naive f64 reference on adversarial shapes.
    #[test]
    fn packed_matmul_matches_reference(
        m in edge_dim(), k in edge_dim(), n in edge_dim(), seed in any::<u64>(),
    ) {
        let a = seeded(m, k, seed);
        let b = seeded(k, n, seed ^ 0x9e3779b97f4a7c15);
        let c = a.matmul(&b);
        let r = reference_matmul(&a, &b);
        prop_assert_eq!(c.shape(), (m, n));
        prop_assert!(c.max_abs_diff(&r) <= dot_tol(k), "diff {}", c.max_abs_diff(&r));
    }

    /// Fused-transpose kernels match the reference through explicit
    /// transposes on the same adversarial shapes.
    #[test]
    fn packed_transpose_kernels_match_reference(
        m in edge_dim(), k in edge_dim(), n in edge_dim(), seed in any::<u64>(),
    ) {
        let at = seeded(k, m, seed);
        let b = seeded(k, n, seed ^ 0xdeadbeef);
        let tn = at.matmul_tn(&b);
        prop_assert!(tn.max_abs_diff(&reference_matmul(&at.transpose(), &b)) <= dot_tol(k));

        let a = seeded(m, k, seed ^ 0xabcdef);
        let bt = seeded(n, k, seed ^ 0x123456);
        let nt = a.matmul_nt(&bt);
        prop_assert!(nt.max_abs_diff(&reference_matmul(&a, &bt.transpose())) <= dot_tol(k));
    }

    /// Gram kernels match the reference and are *bitwise* symmetric on
    /// adversarial shapes (the mirror pass must cover every tile split).
    #[test]
    fn packed_gram_matches_reference(
        rows in edge_dim(), cols in edge_dim(), seed in any::<u64>(),
    ) {
        let x = seeded(rows, cols, seed);
        let g = x.gram();
        prop_assert_eq!(g.asymmetry(), 0.0);
        prop_assert!(g.max_abs_diff(&reference_matmul(&x.transpose(), &x)) <= dot_tol(rows));

        let gnt = x.gram_nt();
        prop_assert_eq!(gnt.asymmetry(), 0.0);
        prop_assert!(gnt.max_abs_diff(&reference_matmul(&x, &x.transpose())) <= dot_tol(cols));
    }

    /// Results are bitwise identical across pool sizes 1/2/4/8 — the
    /// structural-determinism guarantee the distributed trainer's
    /// cross-rank reproducibility rests on.
    #[test]
    fn packed_gemm_bitwise_deterministic_across_pool_sizes(
        m in edge_dim(), k in edge_dim(), n in edge_dim(), seed in any::<u64>(),
    ) {
        let a = seeded(m, k, seed);
        let b = seeded(k, n, seed ^ 0x5bf03635);
        let mut products: Vec<Matrix> = Vec::new();
        let mut grams: Vec<Matrix> = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            rayon::set_pool_threads(threads);
            products.push(a.matmul(&b));
            grams.push(a.gram());
        }
        rayon::set_pool_threads(1);
        for p in &products[1..] {
            prop_assert_eq!(p.as_slice(), products[0].as_slice());
        }
        for g in &grams[1..] {
            prop_assert_eq!(g.as_slice(), grams[0].as_slice());
        }
    }
}

/// Deep-`k` products cross multiple KC=256 cache blocks — the first-touch
/// store/accumulate split in the micro-kernel must hand off correctly at
/// every block seam (proptest shapes above stay below one block).
#[test]
fn packed_gemm_crosses_kc_blocks() {
    for (m, k, n) in [(9, 255, 17), (70, 256, 33), (65, 257, 16), (130, 600, 31)] {
        let a = seeded(m, k, 42);
        let b = seeded(k, n, 43);
        let c = a.matmul(&b);
        let r = reference_matmul(&a, &b);
        assert!(
            c.max_abs_diff(&r) <= dot_tol(k),
            "({m},{k},{n}) diff {}",
            c.max_abs_diff(&r)
        );
    }
}

// ---------------------------------------------------------------------------
// Pre-packed operands: an operand packed once for its side of the product
// (`gemm::Packed`, `gemm::View::packed`) is read as it lies; the result must
// carry the bits the same product computes from the unpacked operand.
// ---------------------------------------------------------------------------

/// Dimensions straddling MR 8, NR 32, MC 64 and KC 128.
fn panel_dim() -> impl Strategy<Value = usize> {
    const DIMS: [usize; 12] = [1, 7, 8, 9, 31, 33, 63, 65, 127, 128, 129, 200];
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

fn bit_vec(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// The bits on and above the diagonal of the `n × n` matrix `x`: all
/// `gemm_upper_into` defines (below it, a packed operand and a plain one
/// may take different paths through the engine).
fn upper(x: &[f32], n: usize) -> Vec<u32> {
    (0..n)
        .flat_map(|i| x[i * n + i..(i + 1) * n].iter().map(|v| v.to_bits()))
        .collect()
}

/// Every way an operand of one product can arrive: as stored, packed for
/// its side, and packed from panel storage of its transpose (the conv
/// layer's patch blocks), read transposed or through a leading block.
fn operand_forms<'a>(
    plain: View<'a, f32>,
    packs: &'a [Packed; 3],
) -> Vec<(&'static str, View<'a, f32>)> {
    let (rows, cols) = (plain.rows(), plain.cols());
    vec![
        ("plain", plain),
        ("packed", packs[0].view()),
        // `packs[1]` holds the operand's transpose packed for the right
        // side; its transposed view is the operand again.
        ("panels-t", packs[1].view().transposed()),
        // `packs[2]` holds the operand grown by one row and one column.
        ("leading", packs[2].view().leading(rows, cols)),
    ]
}

/// `x` as the `rows × cols` operand it stores, transposed when `trans`.
fn stored_view(x: &[f32], rows: usize, cols: usize, trans: bool) -> View<'_, f32> {
    if trans {
        View::t(x, cols, rows)
    } else {
        View::new(x, rows, cols)
    }
}

/// The three packs [`operand_forms`] reads for `x` (`rows × cols`, stored
/// transposed when `trans`).
fn packs_of(x: &[f32], rows: usize, cols: usize, trans: bool, side: Side) -> [Packed; 3] {
    let plain = stored_view(x, rows, cols, trans);
    let xt = Packed::of(Side::Right, plain.transposed());
    let mut grown = vec![0.0f32; (rows + 1) * (cols + 1)];
    for r in 0..rows {
        for c in 0..cols {
            grown[r * (cols + 1) + c] = x[if trans { c * rows + r } else { r * cols + c }];
        }
    }
    let grown = Packed::of(side, View::new(&grown, rows + 1, cols + 1));
    [Packed::of(side, plain), xt, grown]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `gemm_into`, `gemm_acc_into` (first and accumulating) and
    /// `gemm_upper_into` give the same bits whichever form each operand
    /// arrives in, both orientations of both operands, on pools of 1, 2
    /// and 4 threads.
    #[test]
    fn packed_operands_give_the_bits_of_plain_ones(
        m in panel_dim(), k in panel_dim(), n in panel_dim(),
        a_trans in any::<bool>(), b_trans in any::<bool>(),
        pool in (0usize..3).prop_map(|i| [1usize, 2, 4][i]),
        seed in any::<u64>(),
    ) {
        rayon::set_pool_threads(pool);
        let a = seeded(m, k, seed).as_slice().to_vec();
        let b = seeded(k, n, seed ^ 0x51ed).as_slice().to_vec();
        // The square case reuses `a`'s rows against a `k × m` right side.
        let b_sq = seeded(k, m, seed ^ 0x2545).as_slice().to_vec();
        let start = seeded(m, n, seed ^ 0x7f4a).as_slice().to_vec();
        let start_sq = seeded(m, m, seed ^ 0x7f4b).as_slice().to_vec();
        let a_packs = packs_of(&a, m, k, a_trans, Side::Left);
        let b_packs = packs_of(&b, k, n, b_trans, Side::Right);
        let sq_packs = packs_of(&b_sq, k, m, b_trans, Side::Right);
        let av = stored_view(&a, m, k, a_trans);
        let (bv, bsq) = (stored_view(&b, k, n, b_trans), stored_view(&b_sq, k, m, b_trans));

        let mut want = vec![f32::NAN; m * n];
        gemm_into(av, bv, &mut want);
        let mut want_acc = start.clone();
        gemm_acc_into(av, bv, &mut want_acc, false);
        let mut want_up = start_sq.clone();
        gemm_upper_into(av, bsq, &mut want_up, false);
        let mut want_up_first = start_sq.clone();
        gemm_upper_into(av, bsq, &mut want_up_first, true);

        for (an, a_op) in operand_forms(av, &a_packs) {
            for ((bn, b_op), (_, bsq_op)) in operand_forms(bv, &b_packs)
                .into_iter()
                .zip(operand_forms(bsq, &sq_packs))
            {
                let cell = format!("{an}·{bn} ({m},{k},{n}) pool {pool}");
                let mut got = vec![f32::NAN; m * n];
                gemm_into(a_op, b_op, &mut got);
                prop_assert_eq!(bit_vec(&got), bit_vec(&want), "gemm_into {}", &cell);
                let mut acc = start.clone();
                gemm_acc_into(a_op, b_op, &mut acc, false);
                prop_assert_eq!(bit_vec(&acc), bit_vec(&want_acc), "gemm_acc_into {}", &cell);
                let mut up = start_sq.clone();
                gemm_upper_into(a_op, bsq_op, &mut up, false);
                prop_assert_eq!(upper(&up, m), upper(&want_up, m), "gemm_upper_into {}", &cell);
                let mut up = start_sq.clone();
                gemm_upper_into(a_op, bsq_op, &mut up, true);
                prop_assert_eq!(upper(&up, m), upper(&want_up_first, m), "first upper {}", &cell);
            }
        }
        rayon::set_pool_threads(1);
    }
}

// ---------------------------------------------------------------------------
// Tridiagonal-QL eigensolver: residual and orthogonality bounds on every
// spectrum shape K-FAC produces, with the Jacobi solver as the oracle.
// ---------------------------------------------------------------------------

/// `(‖AQ − QΛ‖_max, ‖QᵀQ − I‖_max)`, the first relative to `max(‖A‖_max, 1)`.
fn eig_residuals(a: &Matrix, e: &EigenDecomposition) -> (f32, f32) {
    let n = a.rows();
    let q = &e.eigenvectors;
    let mut q_lambda = q.clone();
    for i in 0..n {
        for (v, &l) in q_lambda.row_mut(i).iter_mut().zip(&e.eigenvalues) {
            *v *= l;
        }
    }
    let residual = a.matmul(q).max_abs_diff(&q_lambda) / a.max_abs().max(1.0);
    let orthogonality = q.matmul_tn(q).max_abs_diff(&Matrix::identity(n));
    (residual, orthogonality)
}

/// `XᵀX/rows` of a Gaussian `rows×n` matrix whose column `j` is scaled by
/// `col_scale(j)`: rank `min(rows, n)`, spectrum shaped by the scales.
fn scaled_gram(rows: usize, n: usize, seed: u64, col_scale: impl Fn(usize) -> f32) -> Matrix {
    let mut x = seeded(rows, n, seed);
    for i in 0..rows {
        for (j, v) in x.row_mut(i).iter_mut().enumerate() {
            *v *= col_scale(j);
        }
    }
    let mut a = x.gram();
    a.scale(1.0 / rows as f32);
    a
}

/// The dimensions the solver's blocking has edges at: below/at/above the
/// accumulator lane count and the transpose tile, the ResNet factor
/// dims, power-of-two row strides (512), and both sides of the
/// one-panel limit (8n² = 1 MiB at n = 362).
const QL_DIMS: [usize; 13] = [1, 2, 3, 7, 8, 9, 63, 64, 65, 144, 288, 512, 576];

#[test]
fn tridiag_ql_residuals_are_bounded_on_every_spectrum_shape() {
    for n in QL_DIMS {
        let seed = 0xE16 ^ n as u64;
        let mut indefinite = seeded(n, n, seed);
        indefinite.symmetrize();
        let cases: [(&str, Matrix); 6] = [
            ("indefinite", indefinite),
            ("spd", scaled_gram(2 * n, n, seed + 1, |_| 1.0)),
            // Strongly graded: entries span ~12 orders of magnitude.
            (
                "graded",
                scaled_gram(2 * n, n, seed + 2, |j| 1e-6f32.powf(j as f32 / n as f32)),
            ),
            // Two clusters: a dominant eighth and a weak, nearly flat bulk.
            (
                "clustered",
                scaled_gram(2 * n, n, seed + 3, |j| {
                    if j < n.div_ceil(8) {
                        1.0
                    } else {
                        0.05
                    }
                }),
            ),
            ("identity", Matrix::identity(n)),
            (
                "diagonal",
                Matrix::from_diag(
                    &(0..n)
                        .map(|i| ((i * 7) % n) as f32 - 3.0)
                        .collect::<Vec<_>>(),
                ),
            ),
        ];
        for (name, a) in &cases {
            let e = eigh_tridiag(a).unwrap_or_else(|err| panic!("{name} n={n}: {err}"));
            assert!(
                e.eigenvalues.windows(2).all(|w| w[0] <= w[1]),
                "{name} n={n}: not ascending"
            );
            let (residual, orthogonality) = eig_residuals(a, &e);
            assert!(residual < 2e-5, "{name} n={n}: residual {residual}");
            assert!(
                orthogonality < 1e-5,
                "{name} n={n}: orthogonality {orthogonality}"
            );
            // The oracle: Jacobi, where it finishes in test time.
            if n <= 144 {
                let oracle = eigh(a).expect("jacobi");
                let scale = a.max_abs().max(1.0);
                for (k, (x, y)) in e.eigenvalues.iter().zip(&oracle.eigenvalues).enumerate() {
                    assert!(
                        (x - y).abs() <= 2e-5 * scale,
                        "{name} n={n} λ[{k}]: {x} vs {y}"
                    );
                }
            }
        }
    }
}

/// The `kfac_steady` capture shape: 16 rows at n = 576, so n − 16
/// eigenvalues are an exactly-degenerate zero cluster.
#[test]
fn tridiag_ql_handles_rank_deficient_psd_factors() {
    for (rows, n) in [(16, 576), (4, 64), (1, 9), (256, 576)] {
        let a = scaled_gram(rows, n, 0x9A + n as u64, |_| 1.0);
        let e = eigh_tridiag(&a).expect("ql");
        let (residual, orthogonality) = eig_residuals(&a, &e);
        assert!(residual < 2e-5, "rows={rows} n={n}: residual {residual}");
        assert!(
            orthogonality < 1e-5,
            "rows={rows} n={n}: orthogonality {orthogonality}"
        );
        let top = *e.eigenvalues.last().unwrap();
        let null = &e.eigenvalues[..n - rows];
        assert!(
            null.iter().all(|l| l.abs() <= 1e-5 * top),
            "rows={rows} n={n}: null space leaked"
        );
        assert!(
            e.eigenvalues[n - rows] > 1e-3 * top,
            "rows={rows} n={n}: rank lost"
        );
        let trace: f32 = e.eigenvalues.iter().sum();
        assert!((trace - a.trace()).abs() <= 1e-4 * a.trace());
    }
}

/// The solver does not use the pool, and must stay bitwise independent of
/// its size if it ever does: the cross-rank pins rest on it.
#[test]
fn tridiag_ql_bitwise_independent_of_pool_size() {
    for n in [65, 400] {
        let a = scaled_gram(2 * n, n, 77, |j| 0.97f32.powi(j as i32));
        let runs: Vec<EigenDecomposition> = [1usize, 2, 4]
            .iter()
            .map(|&threads| {
                rayon::set_pool_threads(threads);
                eigh_tridiag(&a).expect("ql")
            })
            .collect();
        rayon::set_pool_threads(1);
        for r in &runs[1..] {
            assert_eq!(r.eigenvalues, runs[0].eigenvalues);
            assert_eq!(r.eigenvectors.as_slice(), runs[0].eigenvectors.as_slice());
        }
    }
}
