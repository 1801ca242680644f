//! Kernel microbenchmarks: the primitive operations every experiment is
//! built from (GEMM, symmetric eigendecomposition, explicit inverse,
//! patch-block lowering, thread-rank allreduce).
//!
//! These are the numbers `kfac_cluster::calibrate_host` anchors the
//! simulator to; run `cargo bench -p kfac-bench --bench kernels` to see
//! this machine's rates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use kfac_collectives::{Communicator, ReduceOp, ThreadComm};
use kfac_harness::benchkernels::{self, Kind};
use kfac_nn::lowering::{build_patches, Geometry, BLOCK};
use kfac_tensor::{eigh, invert, Matrix, Rng64, Tensor4};
use std::time::Duration;

fn random_matrix(r: usize, c: usize, rng: &mut Rng64) -> Matrix {
    Matrix::from_vec(r, c, (0..r * c).map(|_| rng.normal_f32()).collect())
}

fn random_spd(n: usize, rng: &mut Rng64) -> Matrix {
    let x = random_matrix(2 * n, n, rng);
    let mut a = x.gram();
    a.scale(1.0 / (2 * n) as f32);
    a.add_diag(0.01);
    a
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(20);
    let mut rng = Rng64::new(1);
    for n in [64usize, 128, 256, 512, 1024] {
        let a = random_matrix(n, n, &mut rng);
        let b = random_matrix(n, n, &mut rng);
        let mut out = Matrix::zeros(0, 0);
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("matmul", n), &n, |bench, _| {
            bench.iter(|| {
                a.matmul_into(&b, &mut out);
                std::hint::black_box(&out);
            });
        });
    }
    // The K-FAC factor kernel: tall-skinny Gram, plus the square Grams
    // of the `xp bench-kernels` suite.
    let x = random_matrix(2048, 128, &mut rng);
    group.throughput(Throughput::Elements(2048 * 128 * 128));
    group.bench_function("gram_2048x128", |bench| {
        bench.iter(|| std::hint::black_box(x.gram()));
    });
    for n in [256usize, 512, 1024] {
        let x = random_matrix(n, n, &mut rng);
        let mut out = Matrix::zeros(0, 0);
        group.throughput(Throughput::Elements((n * n * (n + 1)) as u64));
        group.bench_with_input(BenchmarkId::new("gram", n), &n, |bench, _| {
            bench.iter(|| {
                x.gram_into(&mut out);
                std::hint::black_box(&out);
            });
        });
    }
    group.finish();
}

/// Every shape of the `xp bench-kernels` suite (ResNet-32/CIFAR layer
/// products + the square shapes the CI gate reads) on the packed engine,
/// so criterion history tracks the exact shapes `BENCH_kernels.json`
/// reports.
fn bench_resnet32_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed_kernels");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    let mut rng = Rng64::new(4);
    for (name, kind, m, k, n) in benchkernels::cases() {
        let (a, b, madds) = match kind {
            Kind::Matmul => (
                random_matrix(m, k, &mut rng),
                random_matrix(k, n, &mut rng),
                m * k * n,
            ),
            Kind::MatmulTn => (
                random_matrix(k, m, &mut rng),
                random_matrix(k, n, &mut rng),
                m * k * n,
            ),
            Kind::MatmulNt => (
                random_matrix(m, k, &mut rng),
                random_matrix(n, k, &mut rng),
                m * k * n,
            ),
            Kind::Gram => (
                random_matrix(k, n, &mut rng),
                Matrix::zeros(0, 0),
                k * n * (n + 1) / 2,
            ),
            Kind::GramNt => (
                random_matrix(m, k, &mut rng),
                Matrix::zeros(0, 0),
                k * m * (m + 1) / 2,
            ),
        };
        let mut out = Matrix::zeros(0, 0);
        group.throughput(Throughput::Elements(2 * madds as u64));
        group.bench_function(name, |bench| {
            bench.iter(|| {
                match kind {
                    Kind::Matmul => a.matmul_into(&b, &mut out),
                    Kind::MatmulTn => a.matmul_tn_into(&b, &mut out),
                    Kind::MatmulNt => a.matmul_nt_into(&b, &mut out),
                    Kind::Gram => a.gram_into(&mut out),
                    Kind::GramNt => a.gram_nt_into(&mut out),
                }
                std::hint::black_box(&out);
            });
        });
    }
    group.finish();
}

fn bench_eig_and_inverse(c: &mut Criterion) {
    let mut group = c.benchmark_group("second_order");
    group
        .measurement_time(Duration::from_secs(4))
        .sample_size(10);
    let mut rng = Rng64::new(2);
    for n in [32usize, 64, 128] {
        let a = random_spd(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("eigh", n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(eigh(&a).expect("converges")));
        });
        group.bench_with_input(BenchmarkId::new("invert", n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(invert(&a).expect("nonsingular")));
        });
    }
    group.finish();
}

fn bench_patches(c: &mut Criterion) {
    let mut group = c.benchmark_group("patches");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(20);
    let mut rng = Rng64::new(3);
    let x = Tensor4::from_vec(
        16,
        16,
        16,
        16,
        (0..16 * 16 * 16 * 16).map(|_| rng.normal_f32()).collect(),
    );
    // One patch block of a 3×3 / pad-1 convolution: 144 × BLOCK.
    let g = Geometry::new(x.shape(), 3, 1, 1);
    let mut block = vec![0.0f32; g.fan_in() * BLOCK];
    group.bench_function("3x3_pad1_c16s16_block", |bench| {
        bench.iter(|| {
            build_patches(&x, &g, 0..BLOCK, &mut block);
            std::hint::black_box(&block);
        });
    });
    group.finish();
}

fn bench_allreduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("allreduce");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(20);
    for ranks in [2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("thread_comm_64k_floats", ranks),
            &ranks,
            |bench, &ranks| {
                bench.iter(|| {
                    let comms = ThreadComm::create(ranks);
                    std::thread::scope(|s| {
                        for comm in &comms {
                            s.spawn(move || {
                                let mut buf = vec![1.0f32; 65536];
                                comm.allreduce(&mut buf, ReduceOp::Average);
                                std::hint::black_box(buf[0]);
                            });
                        }
                    });
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_resnet32_shapes,
    bench_eig_and_inverse,
    bench_patches,
    bench_allreduce
);
criterion_main!(benches);
