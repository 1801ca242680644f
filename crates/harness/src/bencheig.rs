//! Factor-stage eigensolver benchmark: exact backends vs. the randomized
//! truncated range-finder.
//!
//! `xp bench-eig` times every distinct Kronecker-factor dimension the
//! ResNet-32 CIFAR pipeline produces (bias-augmented activation factors
//! `9c+1`, their bias-free `9c` twins — exact multiples of a cache line,
//! so the solver's padded and exact-fit layouts both have a row — and
//! gradient factors `oc`) plus the ≥512 square stress dims the
//! acceptance criteria are stated over, on SPD inputs with the decaying
//! spectrum K-FAC factors exhibit in practice. Each dimension is solved
//! with the exact backend (`eigh_tridiag`; its `ql_*` keys keep the name
//! of the `EigenSolver::TridiagonalQl` that selects it) and its Jacobi
//! oracle (Jacobi only at the small dims where it terminates in
//! bench-budget time), with
//! the adaptive-rank randomized backend (`RandEigPolicy`, 99% captured-mass
//! target), and with fixed rank fractions n/16, n/8, n/4 and n/2 to show
//! the cost/capture trade-off and where it crosses the exact solver —
//! `RandEigPolicy::default()`'s `min_dim` and `max_rank_frac` are pinned
//! to the committed rows by a unit test in `kfac::config`. The exact time
//! comes with the solver's own per-phase means (`phases_ns`: reduction,
//! the tridiagonal's eigenvectors, back-transform, output), the layer
//! under `kfac.eig_comp_ms`. Beside the cost of *computing* a basis sits
//! the cost of *using* it, paid every iteration: one
//! `precondition_eigen` of a 64-row gradient against the exact basis
//! (`apply_exact_ns`) and against the adaptive one at the rank it kept
//! (`apply_rand_ns`). Results go to
//! stdout as a table and, with `--json`, to `BENCH_eig.json` for the CI
//! bench-smoke job.

use kfac::math::{decompose_factor, decompose_factor_randomized, precondition_eigen};
use kfac::RandEigPolicy;
use kfac_tensor::tridiag::{eigh_tridiag_phases, PHASES};
use kfac_tensor::{eigh, eigh_randomized, eigh_tridiag, Matrix, RandEigOptions, Rng64};
use std::time::Instant;

/// Rows of the gradient the apply columns precondition: the output
/// channels of ResNet-32's widest stage, whose G factor stays exact.
pub const APPLY_ROWS: usize = 64;

/// Jacobi is O(n³) *per sweep* with a sequential kernel; above this
/// dimension a single decomposition blows the per-case bench budget.
const JACOBI_MAX_DIM: usize = 289;

/// One fixed-rank-fraction measurement.
pub struct FracPoint {
    /// Sketch rank as a fraction of `n`.
    pub frac: f64,
    pub ns: f64,
    /// Spectral mass the truncated decomposition captured.
    pub mass: f64,
}

/// One benchmarked factor dimension.
pub struct EigBenchCase {
    pub name: &'static str,
    pub n: usize,
    pub ql_ns: f64,
    /// Where `ql_ns` goes: mean time in each of the solver's [`PHASES`].
    pub ql_phases_ns: [u64; PHASES.len()],
    /// 0 when Jacobi was skipped (dimension above [`JACOBI_MAX_DIM`]).
    pub jacobi_ns: f64,
    /// Adaptive-rank randomized backend (99% mass policy).
    pub rand_ns: f64,
    /// Rank the adaptive policy settled on (`n` = exact fallback).
    pub rand_rank: usize,
    /// Spectral mass captured at that rank.
    pub rand_mass: f64,
    /// One `precondition_eigen` of an [`APPLY_ROWS`]`× n` gradient with
    /// the exact basis as the A side.
    pub apply_exact_ns: f64,
    /// The same with the adaptive basis (`n × rand_rank`).
    pub apply_rand_ns: f64,
    pub fracs: Vec<FracPoint>,
}

impl EigBenchCase {
    /// Fastest *measured* exact backend for this dimension.
    pub fn best_exact_ns(&self) -> f64 {
        if self.jacobi_ns > 0.0 {
            self.ql_ns.min(self.jacobi_ns)
        } else {
            self.ql_ns
        }
    }
    pub fn speedup(&self) -> f64 {
        self.best_exact_ns() / self.rand_ns
    }
    /// Apply cost of the adaptive basis over the exact one's.
    pub fn apply_ratio(&self) -> f64 {
        self.apply_rand_ns / self.apply_exact_ns
    }
    /// The QL phases, each rendered by `entry(name, ns)`, comma-separated.
    fn phases(&self, entry: impl Fn(&str, u64) -> String) -> String {
        let entries = PHASES.iter().zip(self.ql_phases_ns);
        let entries = entries.map(|(name, ns)| entry(name, ns));
        entries.collect::<Vec<_>>().join(", ")
    }
}

/// The benchmarked dimensions: every distinct ResNet-32/CIFAR factor
/// dimension (`rn32_*`) and the square stress dims (`square_*`) the
/// ≥512 acceptance gate is stated over.
pub fn cases() -> Vec<(&'static str, usize)> {
    vec![
        ("rn32_afactor_in", 28),         // 9·3+1
        ("rn32_gfactor_s3", 64),         // oc of the widest stage
        ("rn32_afactor_s1_nobias", 144), // 9·16
        ("rn32_afactor_s1", 145),        // 9·16+1
        ("rn32_afactor_s2_nobias", 288), // 9·32
        ("rn32_afactor_s2", 289),        // 9·32+1
        ("square_512", 512),
        ("rn32_afactor_s3_nobias", 576), // 9·64
        ("rn32_afactor_s3", 577),        // 9·64+1
        ("square_1024", 1024),
    ]
}

/// SPD input with the geometrically decaying spectrum trained K-FAC
/// factors exhibit, scaled per-dimension so that ~99% of the spectral
/// mass concentrates in the top ≈n/12 modes — low-rank structure that
/// is *present but not free*: the adaptive policy still has to find the
/// rank, and a too-small sketch still fails the mass target.
pub fn bench_factor(n: usize, seed: u64) -> Matrix {
    let mut rng = Rng64::new(seed);
    let mut x = Matrix::from_vec(n, n, (0..n * n).map(|_| rng.normal_f32()).collect());
    // mass(r) ≈ 1 − d^{2r}; solve d so mass(n/12) = 0.99.
    let decay = (-4.605_170 * 6.0 / n as f64).exp();
    for i in 0..n {
        let s = decay.powi(i as i32) as f32;
        for v in x.row_mut(i) {
            *v *= s;
        }
    }
    let mut a = x.gram();
    a.scale(1.0 / n as f32);
    a.add_diag(1e-6);
    a
}

/// Time `f` adaptively: one warm-up call, then iterate until ~250 ms of
/// samples (at least 3 iterations) and report mean ns/iter.
fn time_ns(mut f: impl FnMut()) -> f64 {
    f(); // warm up (fills the arena, faults pages, warms caches)
    let budget = std::time::Duration::from_millis(250);
    let mut iters = 0u32;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        if start.elapsed() >= budget && iters >= 3 {
            break;
        }
        if iters >= 10_000 {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Captured spectral mass of a (possibly truncated) decomposition of a
/// factor with trace `trace`.
fn captured_mass(eig: &kfac_tensor::EigenDecomposition, trace: f64) -> f64 {
    if trace <= 0.0 {
        return 1.0;
    }
    let captured: f64 = eig.eigenvalues.iter().map(|&v| (v as f64).max(0.0)).sum();
    (captured / trace).min(1.0)
}

/// The policy the benchmark (and the `randomized` backend default)
/// measures: adaptive rank toward 99% captured mass, forced onto the
/// randomized path at every benchmarked dimension.
pub fn bench_policy() -> RandEigPolicy {
    RandEigPolicy {
        min_dim: 1,
        mass_threshold: 0.99,
        ..Default::default()
    }
}

/// Run the full suite.
pub fn run_all() -> Vec<EigBenchCase> {
    let mut out = Vec::new();
    let g_side = decompose_factor(&bench_factor(APPLY_ROWS, 0x5EED)).expect("ql");
    for (name, n) in cases() {
        let f = bench_factor(n, 0x5EED ^ n as u64);
        let trace = f.trace() as f64;
        let mut m = f.clone();
        m.symmetrize();

        let ql_ns = time_ns(|| {
            std::hint::black_box(eigh_tridiag(&m).expect("ql"));
        });
        let (mut ql_phases_ns, mut runs) = ([0u64; PHASES.len()], 0u64);
        time_ns(|| {
            let (_, ns) = eigh_tridiag_phases(&m).expect("ql");
            ql_phases_ns
                .iter_mut()
                .zip(ns)
                .for_each(|(sum, ns)| *sum += ns);
            runs += 1;
        });
        ql_phases_ns.iter_mut().for_each(|sum| *sum /= runs);
        let jacobi_ns = if n <= JACOBI_MAX_DIM {
            time_ns(|| {
                std::hint::black_box(eigh(&m).expect("jacobi"));
            })
        } else {
            0.0
        };

        let policy = bench_policy();
        let adaptive = decompose_factor_randomized(&f, &policy).expect("randomized");
        let rand_rank = adaptive.eigenvalues.len();
        let rand_mass = captured_mass(&adaptive, trace);
        let rand_ns = time_ns(|| {
            std::hint::black_box(decompose_factor_randomized(&f, &policy).expect("randomized"));
        });

        let exact = eigh_tridiag(&m).expect("ql");
        let mut rng = Rng64::new(0xA991 ^ n as u64);
        let grad = Matrix::from_vec(
            APPLY_ROWS,
            n,
            (0..APPLY_ROWS * n).map(|_| rng.normal_f32()).collect(),
        );
        let [apply_exact_ns, apply_rand_ns] = [&exact, &adaptive].map(|a_side| {
            time_ns(|| {
                std::hint::black_box(precondition_eigen(a_side, &g_side, &grad, 0.03));
            })
        });

        let mut fracs = Vec::new();
        for denom in [16usize, 8, 4, 2] {
            let rank = (n / denom).max(1);
            let opts = RandEigOptions {
                rank,
                oversample: policy.oversample,
                power_iters: policy.power_iters,
                seed: policy.seed,
            };
            let re = eigh_randomized(&m, &opts).expect("fixed-rank");
            let mass = re.captured_mass;
            let ns = time_ns(|| {
                std::hint::black_box(eigh_randomized(&m, &opts).expect("fixed-rank"));
            });
            fracs.push(FracPoint {
                frac: 1.0 / denom as f64,
                ns,
                mass,
            });
        }

        out.push(EigBenchCase {
            name,
            n,
            ql_ns,
            ql_phases_ns,
            jacobi_ns,
            rand_ns,
            rand_rank,
            rand_mass,
            apply_exact_ns,
            apply_rand_ns,
            fracs,
        });
    }
    out
}

/// Render the suite as an aligned text table.
pub fn render_table(cases: &[EigBenchCase]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<18} {:>6} {:>12} {:>12} {:>12} {:>6} {:>6} {:>8} {:>10} {:>10} {:>6}\n",
        "case",
        "n",
        "ql ns",
        "jacobi ns",
        "rand ns",
        "rank",
        "mass",
        "speedup",
        "apply ql",
        "apply rnd",
        "ratio"
    ));
    for c in cases {
        s.push_str(&format!(
            "{:<18} {:>6} {:>12.0} {:>12} {:>12.0} {:>6} {:>6.3} {:>7.2}x {:>10.0} {:>10.0} {:>6.2}\n",
            c.name,
            c.n,
            c.ql_ns,
            if c.jacobi_ns > 0.0 {
                format!("{:.0}", c.jacobi_ns)
            } else {
                "-".to_string()
            },
            c.rand_ns,
            c.rand_rank,
            c.rand_mass,
            c.speedup(),
            c.apply_exact_ns,
            c.apply_rand_ns,
            c.apply_ratio()
        ));
        let phases = c.phases(|name, ns| format!("{name} {ns}"));
        s.push_str(&format!("  exact phases (ns): {phases}\n"));
        for p in &c.fracs {
            s.push_str(&format!(
                "  rank n/{:<3}      {:>6} {:>12} {:>12} {:>12.0} {:>6} {:>6.3} {:>7.2}x\n",
                (1.0 / p.frac) as usize,
                "",
                "",
                "",
                p.ns,
                "",
                p.mass,
                c.best_exact_ns() / p.ns
            ));
        }
    }
    s
}

/// Serialize the suite as JSON (hand-rolled — no serde in this tree).
///
/// `min_large_speedup` is the smallest adaptive-randomized speedup over
/// the fastest exact backend across the n ≥ 512 cases, `min_large_mass`
/// the worst captured mass among them. CI gates the mass (≥99%), each
/// of those rows' `rand_ns_per_iter`, and their `apply_ratio` (a short
/// basis must cost at most half a complete one to use); the speedup —
/// "≥2×" while the exact solver was slower — is reported.
pub fn to_json(cases: &[EigBenchCase]) -> String {
    let mut s = String::from("{\n  \"benchmarks\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let fracs = c
            .fracs
            .iter()
            .map(|p| {
                format!(
                    "{{\"frac\": {:.4}, \"ns_per_iter\": {:.1}, \"mass\": {:.4}}}",
                    p.frac, p.ns, p.mass
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let phases = c.phases(|name, ns| format!("\"{name}\": {ns}"));
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"ql_ns_per_iter\": {:.1}, \
             \"phases_ns\": {{{}}}, \
             \"jacobi_ns_per_iter\": {:.1}, \"rand_ns_per_iter\": {:.1}, \
             \"rand_rank\": {}, \"rand_mass\": {:.4}, \
             \"speedup_vs_best_exact\": {:.3}, \
             \"apply_exact_ns\": {:.1}, \"apply_rand_ns\": {:.1}, \"apply_ratio\": {:.3}, \
             \"rank_fractions\": [{}]}}{}\n",
            c.name,
            c.n,
            c.ql_ns,
            phases,
            c.jacobi_ns,
            c.rand_ns,
            c.rand_rank,
            c.rand_mass,
            c.speedup(),
            c.apply_exact_ns,
            c.apply_rand_ns,
            c.apply_ratio(),
            fracs,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    let large: Vec<&EigBenchCase> = cases.iter().filter(|c| c.n >= 512).collect();
    let min_speedup = large
        .iter()
        .map(|c| c.speedup())
        .fold(f64::INFINITY, f64::min);
    let min_mass = large
        .iter()
        .map(|c| c.rand_mass)
        .fold(f64::INFINITY, f64::min);
    s.push_str(&format!(
        "  \"min_large_speedup\": {:.3},\n  \"min_large_mass\": {:.4},\n  \"pool_threads\": {}\n}}\n",
        if min_speedup.is_finite() { min_speedup } else { 0.0 },
        if min_mass.is_finite() { min_mass } else { 0.0 },
        rayon::current_num_threads()
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_factor_has_the_advertised_low_rank_structure() {
        let n = 192;
        let f = bench_factor(n, 7);
        let e = decompose_factor_randomized(&f, &bench_policy()).expect("randomized");
        let rank = e.truncated_rank().expect("should truncate");
        // 99% of the mass within n/4 modes, i.e. genuinely low-rank but
        // not trivially so (more than a handful of modes needed).
        assert!(rank <= n / 4, "rank {rank}");
        assert!(rank >= 4, "rank {rank}");
        assert!(captured_mass(&e, f.trace() as f64) >= 0.99);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let cases = vec![EigBenchCase {
            name: "square_512",
            n: 512,
            ql_ns: 8000.0,
            ql_phases_ns: [3000, 2000, 2900, 100],
            jacobi_ns: 0.0,
            rand_ns: 2000.0,
            rand_rank: 64,
            rand_mass: 0.995,
            apply_exact_ns: 900.0,
            apply_rand_ns: 90.0,
            fracs: vec![FracPoint {
                frac: 0.125,
                ns: 1500.0,
                mass: 0.99,
            }],
        }];
        let json = to_json(&cases);
        assert!(json.contains(
            "\"phases_ns\": {\"reduce\": 3000, \"tridiagonal\": 2000, \"back_transform\": 2900, "
        ));
        assert!(json.contains("\"speedup_vs_best_exact\": 4.000"));
        assert!(json.contains("\"apply_rand_ns\": 90.0, \"apply_ratio\": 0.100"));
        assert!(json.contains("\"min_large_speedup\": 4.000"));
        assert!(json.contains("\"min_large_mass\": 0.9950"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }
}
