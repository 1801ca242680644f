//! Steady-state kernel paths perform zero heap allocations.
//!
//! The compute substrate's contract (see `kfac_tensor::arena`): after one
//! warm-up iteration, the `_into` kernels (GEMM, Gram, patch blocks) and
//! the K-FAC factor update serve every transient from per-layer scratch or
//! the thread-local arena. This test pins that with a counting global
//! allocator: it arms a thread-local counter, replays the hot path on
//! warmed buffers, and asserts the count stays at zero.
//!
//! The guarantee holds on a single-thread pool (`KFAC_POOL_THREADS=1`,
//! forced below): multi-thread pools allocate small scheduler bookkeeping
//! (chunk lists, one `Arc` per parallel call) by design.
//!
//! Run explicitly (ignored by default so the custom global allocator never
//! skews timing-sensitive CI lanes):
//!
//! ```text
//! cargo test -p kfac --test zero_alloc -- --ignored
//! ```

use kfac::{EigenSolver, Kfac, KfacConfig, RandEigPolicy};
use kfac_nn::lowering::{build_patches, scatter_patches, Geometry};
use kfac_nn::{Conv2d, CrossEntropyLoss, Flatten, Layer, Linear, Mode, ReLU, Sequential};
use kfac_tensor::gemm::{packed_len, Side};
use kfac_tensor::{eigh_tridiag, HalfMatrix, Matrix, Rng64, Tensor4};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// ---------------------------------------------------------------------------
// Counting allocator: thread-local armed flag + counter, const-initialized
// so the TLS access itself never allocates or recurses.
// ---------------------------------------------------------------------------

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count() {
        // `try_with` so allocations during thread teardown stay safe.
        let armed = ARMED.try_with(Cell::get).unwrap_or(false);
        if armed {
            let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn armed<R>(f: impl FnOnce() -> R) -> (R, usize) {
    ALLOCS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let r = f();
    ARMED.with(|a| a.set(false));
    (r, ALLOCS.with(Cell::get))
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Rng64) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.normal_f32()).collect(),
    )
}

/// The raw `_into` kernels: GEMM in all orientations, both Grams, the
/// bf16-stored Gram and `A·Bᵀ`, and the patch-block build/scatter pair,
/// replayed on warmed outputs.
#[test]
#[ignore = "run explicitly: cargo test -p kfac --test zero_alloc -- --ignored"]
fn into_kernels_allocate_nothing_when_warm() {
    rayon::set_pool_threads(1);
    let mut rng = Rng64::new(7);
    // Big enough for the packed path (> 24³ multiply-adds) and for
    // multiple MR/NR tiles; odd sizes exercise the edge tiles too.
    let (m, k, n) = (70, 65, 50);
    let a = random_matrix(m, k, &mut rng);
    let b = random_matrix(k, n, &mut rng);
    let at = a.transpose();
    let bt = b.transpose();
    let (a16, bt16) = (HalfMatrix::from_matrix(&a), HalfMatrix::from_matrix(&bt));
    let x = Tensor4::from_vec(
        4,
        3,
        12,
        12,
        (0..4 * 3 * 12 * 12).map(|_| rng.normal_f32()).collect(),
    );

    let mut out = Matrix::zeros(0, 0);
    let mut out_tn = Matrix::zeros(0, 0);
    let mut out_nt = Matrix::zeros(0, 0);
    let mut gram = Matrix::zeros(0, 0);
    let mut gram_nt = Matrix::zeros(0, 0);
    let mut gram16 = Matrix::zeros(0, 0);
    let mut out16 = Matrix::zeros(0, 0);
    // Patch lowering on each of its paths: a shifted copy (stride 1 over
    // 12×12 planes and over 2×2 ones, where a block holds many samples)
    // and per-row gathers (stride 2).
    let small = Tensor4::from_vec(
        40,
        3,
        2,
        2,
        (0..40 * 3 * 2 * 2).map(|_| rng.normal_f32()).collect(),
    );
    // Input, geometry, packed patches, patch gradient, input gradient.
    type Lowering<'a> = (&'a Tensor4, Geometry, Vec<f32>, Vec<f32>, Tensor4);
    let mut lowerings: Vec<Lowering> = [(&x, 1), (&x, 2), (&small, 1)]
        .into_iter()
        .map(|(input, stride)| {
            let geom = Geometry::new(input.shape(), 3, stride, 1);
            let (f, positions) = (geom.fan_in(), geom.positions());
            let patches = vec![0.0f32; packed_len(Side::Right, f + 1, positions)];
            let dp = vec![0.5f32; f * positions];
            let (n, c, h, w) = input.shape();
            (input, geom, patches, dp, Tensor4::zeros(n, c, h, w))
        })
        .collect();

    let mut pass = |arena_warm: bool| {
        a.matmul_into(&b, &mut out);
        at.matmul_tn_into(&b, &mut out_tn);
        a.matmul_nt_into(&bt, &mut out_nt);
        a.gram_into(&mut gram);
        a.gram_nt_into(&mut gram_nt);
        a16.gram_into(&mut gram16);
        a16.matmul_nt_into(&bt16, &mut out16);
        for (input, geom, patches, dp, dx) in &mut lowerings {
            build_patches(input, geom, 0..geom.positions(), true, patches);
            scatter_patches(dp, geom, 0..geom.positions(), dx);
        }
        arena_warm
    };

    // Two unarmed warm-up passes fill the output buffers and the arena.
    pass(false);
    pass(false);

    let (_, allocs) = armed(|| pass(true));
    assert_eq!(
        allocs, 0,
        "steady-state kernel pass performed {allocs} heap allocations"
    );
}

/// The K-FAC factor update folds each layer's captured factor sums into
/// its running averages in place, upper triangle only: once the averages
/// exist, it must be allocation-free.
#[test]
#[ignore = "run explicitly: cargo test -p kfac --test zero_alloc -- --ignored"]
fn factor_update_allocates_nothing_when_warm() {
    rayon::set_pool_threads(1);
    let mut rng = Rng64::new(11);
    let mut model = Sequential::from_layers(vec![
        Box::new(Conv2d::new("conv", 3, 8, 3, 1, 1, true, &mut rng)),
        Box::new(ReLU::new()),
        Box::new(Flatten::new()),
        Box::new(Linear::new("fc", 8 * 8 * 8, 10, true, &mut rng)),
    ]);
    let mut kfac = Kfac::new(&mut model, KfacConfig::default());

    // One captured forward/backward provides the activation/gradient rows.
    let x = Tensor4::from_vec(
        4,
        3,
        8,
        8,
        (0..4 * 3 * 8 * 8).map(|_| rng.normal_f32()).collect(),
    );
    let targets: Vec<usize> = (0..4).map(|i| i % 10).collect();
    model.zero_grad();
    model.set_capture(true);
    let out = model.forward(&x, Mode::Train);
    let (_, grad) = CrossEntropyLoss::new().forward(&out, &targets);
    let _ = model.backward(&grad);

    let mut layers = Vec::new();
    model.collect_kfac(&mut layers);

    // The first fold creates the running averages; every later one
    // writes into them and needs no scratch at all.
    for (li, layer) in layers.iter().enumerate() {
        kfac.factor_update_layer(li, &**layer);
    }

    let (_, allocs) = armed(|| {
        for (li, layer) in layers.iter().enumerate() {
            kfac.factor_update_layer(li, &**layer);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state factor update performed {allocs} heap allocations"
    );
}

/// A `Conv2d` sums its factor Grams inside the capturing backward pass,
/// into sums it owns: warm, a capturing forward + backward allocates
/// exactly what a plain one does (the output and input-gradient tensors
/// that escape each layer), and the factor update after it nothing.
#[test]
#[ignore = "run explicitly: cargo test -p kfac --test zero_alloc -- --ignored"]
fn conv_capture_allocates_nothing_when_warm() {
    rayon::set_pool_threads(1);
    let mut rng = Rng64::new(17);
    let mut model = Sequential::from_layers(vec![
        Box::new(Conv2d::new("conv1", 3, 8, 3, 1, 1, true, &mut rng)),
        Box::new(ReLU::new()),
        Box::new(Conv2d::new("conv2", 8, 8, 3, 2, 1, false, &mut rng)),
    ]);
    let mut kfac = Kfac::new(&mut model, KfacConfig::default());
    let mut random_tensor = |n, c, h, w| {
        Tensor4::from_vec(
            n,
            c,
            h,
            w,
            (0..n * c * h * w).map(|_| rng.normal_f32()).collect(),
        )
    };
    // 6·12·12 = 864 positions: six full blocks and a ragged seventh.
    let x = random_tensor(6, 3, 12, 12);
    let gy = random_tensor(6, 8, 6, 6);

    let pass = |model: &mut Sequential, capture: bool| {
        model.set_capture(capture);
        armed(|| {
            let _ = model.forward(&x, Mode::Train);
            let _ = model.backward(&gy);
        })
        .1
    };
    // Rounds 0 and 1 size the sums, the averages and the arena; the
    // counts of round 2 are the warm ones.
    let (mut plain, mut capturing, mut update) = (0, 0, 0);
    for _ in 0..3 {
        plain = pass(&mut model, false);
        capturing = pass(&mut model, true);
        let mut layers = Vec::new();
        model.collect_kfac(&mut layers);
        update = armed(|| {
            for (li, layer) in layers.iter().enumerate() {
                kfac.factor_update_layer(li, &**layer);
            }
        })
        .1;
    }
    assert_eq!(
        capturing, plain,
        "capture changed a warm pass's allocations"
    );
    assert_eq!(update, 0, "warm factor update allocated");
}

/// The exact eigensolver: every f64 transient (the transposed
/// eigenvector matrix, the tridiagonal, the rotation batch, the divide
/// and conquer's matrices and vectors, the back-transform's blocks, the
/// sort order) is one arena buffer, so a warm call allocates only the
/// `EigenDecomposition` it returns — its eigenvalue vector and its
/// eigenvector matrix.
#[test]
#[ignore = "run explicitly: cargo test -p kfac --test zero_alloc -- --ignored"]
fn eigh_tridiag_allocates_only_its_result_when_warm() {
    let mut rng = Rng64::new(13);
    // 64: QL rotations on the accumulated transform; 145: divide and
    // conquer, rows padded to a cache line and the buffer's aligned start
    // in play; 400 and 577: several levels of merges.
    for n in [64usize, 145, 400, 577] {
        let mut a = random_matrix(n, n, &mut rng);
        a.symmetrize();
        drop(eigh_tridiag(&a).expect("warm-up"));
        let (e, allocs) = armed(|| eigh_tridiag(&a).expect("ql"));
        assert_eq!(e.eigenvalues.len(), n);
        assert_eq!(
            allocs, 2,
            "warm eigh_tridiag(n={n}) performed {allocs} heap allocations, expected its 2 outputs"
        );
    }
}

/// Preconditioning reads every eigenbasis from the packs it was installed
/// with: a warm `Kfac::precondition_one` allocates only the matrix it
/// returns — on complete bases and on short ones alike.
#[test]
#[ignore = "run explicitly: cargo test -p kfac --test zero_alloc -- --ignored"]
fn precondition_one_allocates_only_its_result_when_warm() {
    rayon::set_pool_threads(1);
    let mut state_len = Vec::new();
    for solver in [EigenSolver::TridiagonalQl, EigenSolver::Randomized] {
        let mut rng = Rng64::new(19);
        let mut model = Sequential::from_layers(vec![
            Box::new(Conv2d::new("conv", 8, 8, 3, 1, 1, false, &mut rng)),
            Box::new(ReLU::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new("fc", 8 * 8 * 8, 10, true, &mut rng)),
        ]);
        let cfg = KfacConfig {
            eigen_solver: solver,
            // Short bases on the 72-wide conv factor and the fc's 513-wide
            // one: the policy's smallest dimension and rank cap let it
            // truncate where the default keeps everything.
            rand_eig: RandEigPolicy {
                min_dim: 1,
                max_rank_frac: 0.5,
                ..RandEigPolicy::default()
            },
            ..KfacConfig::default()
        };
        let mut kfac = Kfac::new(&mut model, cfg);
        let x = Tensor4::from_vec(
            4,
            8,
            8,
            8,
            (0..4 * 8 * 8 * 8).map(|_| rng.normal_f32()).collect(),
        );
        let targets: Vec<usize> = (0..4).map(|i| i % 10).collect();
        model.zero_grad();
        model.set_capture(true);
        let out = model.forward(&x, Mode::Train);
        let (_, grad) = CrossEntropyLoss::new().forward(&out, &targets);
        let _ = model.backward(&grad);
        let mut layers = Vec::new();
        model.collect_kfac(&mut layers);
        for (li, layer) in layers.iter().enumerate() {
            kfac.factor_update_layer(li, &**layer);
        }
        for id in 0..2 * layers.len() {
            kfac.eig_compute_one(id);
        }
        // A checkpoint holds each basis as it is, `n × r`.
        state_len.push(kfac.save_state().len());
        let grads: Vec<Matrix> = layers.iter().map(|l| l.grad_matrix()).collect();
        for (li, g) in grads.iter().enumerate() {
            drop(kfac.precondition_one(li, g));
        }
        for (li, g) in grads.iter().enumerate() {
            let (pg, allocs) = armed(|| kfac.precondition_one(li, g));
            assert_eq!(pg.shape(), g.shape());
            assert_eq!(
                allocs, 1,
                "{solver:?} layer {li}: warm precondition_one performed {allocs} heap allocations, expected its result"
            );
        }
    }
    assert!(
        state_len[1] < state_len[0],
        "the randomized cell must hold short bases: state {state_len:?}"
    );
}
