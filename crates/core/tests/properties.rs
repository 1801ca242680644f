//! Property tests for the K-FAC math and distribution invariants.

use kfac::config::PlacementPolicy;
use kfac::distribution::{assign_factors, factor_descs, makespan, per_rank_cost, FactorDesc, Plan};
use kfac::math::{
    decompose_factor, invert_factor, kl_clip_nu, precondition_eigen, precondition_inverse,
};
use kfac_tensor::{kron, Matrix};
use proptest::prelude::*;

/// A plan constructor, applied at a world size.
type PlanAt = fn(&[FactorDesc], usize) -> Plan;

/// Strategy: a random SPD factor of dimension `n`.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-2.0f32..2.0, 2 * n * n).prop_map(move |data| {
        let x = Matrix::from_vec(2 * n, n, data);
        let mut a = x.gram();
        a.scale(1.0 / (2 * n) as f32);
        a
    })
}

fn dense_eigen_reference(a: &Matrix, g: &Matrix, grad: &Matrix, gamma: f32) -> Matrix {
    let mut big = kron(g, a);
    big.add_diag(gamma);
    let inv = kfac_tensor::invert(&big).expect("damped kron invertible");
    Matrix::from_vec(grad.rows(), grad.cols(), inv.matvec(grad.as_slice()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The eigen path computes exactly (G ⊗ A + γI)⁻¹ vec(∇L) for any
    /// PSD factors, any gradient, any positive damping.
    #[test]
    fn eigen_path_equals_dense_kronecker(
        a in spd(4),
        g in spd(3),
        grad in proptest::collection::vec(-3.0f32..3.0, 12),
        gamma in 0.01f32..0.5,
    ) {
        let grad = Matrix::from_vec(3, 4, grad);
        let (ea, eg) = (decompose_factor(&a).expect("eig"), decompose_factor(&g).expect("eig"));
        let fast = precondition_eigen(&ea, &eg, &grad, gamma);
        let dense = dense_eigen_reference(&a, &g, &grad, gamma);
        prop_assert!(
            fast.max_abs_diff(&dense) < 2e-2 * dense.max_abs().max(1.0),
            "diff {}", fast.max_abs_diff(&dense)
        );
    }

    /// The explicit-inverse path equals (G+γI)⁻¹ ∇L (A+γI)⁻¹ against
    /// dense f64 inverses within FP32 tolerance.
    #[test]
    fn inverse_path_matches_dense_separate_damping(
        a in spd(4),
        g in spd(3),
        grad in proptest::collection::vec(-3.0f32..3.0, 12),
        gamma in 0.05f32..0.5,
    ) {
        let grad = Matrix::from_vec(3, 4, grad);
        let (a_inv, g_inv) = (invert_factor(&a, gamma).expect("inv"), invert_factor(&g, gamma).expect("inv"));
        let fast = precondition_inverse(&a_inv, &g_inv, &grad);
        let mut ad = a.clone();
        ad.add_diag(gamma);
        let mut gd = g.clone();
        gd.add_diag(gamma);
        let dense = kfac_tensor::invert(&gd).expect("gd")
            .matmul(&grad)
            .matmul(&kfac_tensor::invert(&ad).expect("ad"));
        prop_assert!(fast.max_abs_diff(&dense) < 5e-2 * dense.max_abs().max(1.0));
    }

    /// Preconditioning shrinks high-curvature directions: the norm of the
    /// preconditioned gradient never exceeds ‖∇L‖/γ.
    #[test]
    fn eigen_precondition_norm_bound(
        a in spd(3),
        g in spd(3),
        grad in proptest::collection::vec(-3.0f32..3.0, 9),
        gamma in 0.05f32..1.0,
    ) {
        let grad = Matrix::from_vec(3, 3, grad);
        let (ea, eg) = (decompose_factor(&a).expect("eig"), decompose_factor(&g).expect("eig"));
        let out = precondition_eigen(&ea, &eg, &grad, gamma);
        prop_assert!(
            out.frobenius_norm() <= grad.frobenius_norm() / gamma * 1.01,
            "‖out‖ {} vs bound {}", out.frobenius_norm(), grad.frobenius_norm() / gamma
        );
    }

    /// KL-clip ν is always in (0, 1] and never produces NaN.
    #[test]
    fn kl_clip_bounded(
        p in proptest::collection::vec(-10.0f32..10.0, 16),
        g in proptest::collection::vec(-10.0f32..10.0, 16),
        kappa in 1e-5f32..1.0,
        lr in 0.0f32..2.0,
    ) {
        let pm = Matrix::from_vec(4, 4, p);
        let gm = Matrix::from_vec(4, 4, g);
        let nu = kl_clip_nu([(&pm, &gm)].into_iter(), kappa, lr);
        prop_assert!(nu.is_finite());
        prop_assert!(nu > 0.0 && nu <= 1.0);
    }

    /// Every placement policy assigns every factor to a valid rank, and
    /// the total cost is conserved.
    #[test]
    fn placement_conserves_work(
        dims in proptest::collection::vec((1usize..300, 1usize..300), 1..30),
        world in 1usize..20,
    ) {
        let factors = factor_descs(&dims);
        for policy in [PlacementPolicy::RoundRobin, PlacementPolicy::SizeBalanced] {
            let assignment = assign_factors(policy, &factors, world);
            prop_assert_eq!(assignment.len(), factors.len());
            prop_assert!(assignment.iter().all(|&r| r < world));
            let loads = per_rank_cost(&factors, &assignment, world);
            let total: u64 = factors.iter().map(|f| f.eig_cost()).sum();
            prop_assert_eq!(loads.iter().sum::<u64>(), total);
        }
    }

    /// LPT's makespan never exceeds round-robin's.
    #[test]
    fn lpt_never_worse_than_round_robin(
        dims in proptest::collection::vec((1usize..300, 1usize..300), 1..30),
        world in 1usize..20,
    ) {
        let factors = factor_descs(&dims);
        let rr = assign_factors(PlacementPolicy::RoundRobin, &factors, world);
        let lpt = assign_factors(PlacementPolicy::SizeBalanced, &factors, world);
        prop_assert!(makespan(&factors, &lpt, world) <= makespan(&factors, &rr, world));
    }

    /// LPT is within the classic 4/3 − 1/(3m) guarantee of optimal, which
    /// is itself lower-bounded by total/m and by the largest item.
    #[test]
    fn lpt_respects_approximation_guarantee(
        dims in proptest::collection::vec((1usize..300, 1usize..300), 1..30),
        world in 1usize..16,
    ) {
        let factors = factor_descs(&dims);
        let lpt = assign_factors(PlacementPolicy::SizeBalanced, &factors, world);
        let ms = makespan(&factors, &lpt, world) as f64;
        let total: u64 = factors.iter().map(|f| f.eig_cost()).sum();
        let biggest = factors.iter().map(|f| f.eig_cost()).max().unwrap_or(0);
        let lower = (total as f64 / world as f64).max(biggest as f64);
        let bound = (4.0 / 3.0 - 1.0 / (3.0 * world as f64)) * lower;
        prop_assert!(ms <= bound * 1.0001, "makespan {ms} exceeds LPT bound {bound}");
    }

    /// The -opt plan decomposes where the placement says and shares
    /// every layer; the -lw plan gives layer `l`, both its factors and its
    /// preconditioning, to rank `l mod world`. Every owner is a rank.
    #[test]
    fn plan_constructors_follow_their_schemes(
        dims in proptest::collection::vec((1usize..300, 1usize..300), 1..200),
        world in 1usize..32,
    ) {
        let factors = factor_descs(&dims);
        for policy in [PlacementPolicy::RoundRobin, PlacementPolicy::SizeBalanced] {
            let opt = Plan::opt(policy, &factors, world);
            prop_assert_eq!(&opt.eig_owner, &assign_factors(policy, &factors, world));
            prop_assert_eq!(&opt.precond_owner, &vec![None; dims.len()]);
            prop_assert!(opt.eig_owner.iter().all(|&r| r < world));
        }
        let lw = Plan::lw(&factors, world);
        prop_assert_eq!(lw.precond_owner.len(), dims.len());
        for (l, &owner) in lw.precond_owner.iter().enumerate() {
            prop_assert_eq!(owner, Some(l % world));
            prop_assert_eq!(lw.eig_owner[2 * l], l % world);
            prop_assert_eq!(lw.eig_owner[2 * l + 1], l % world);
        }
        prop_assert_eq!(lw.eig_owner.len(), factors.len());
    }

    /// Elastic shrink contract, for both plan constructors: after any
    /// single rank of worlds 2–8 is removed and the survivors re-rank
    /// contiguously, re-deriving the plan at the new world size is
    /// **total** (every factor owned exactly once), **contiguous**
    /// (owners fall in `0..world-1`, with every surviving rank used when
    /// there are enough factors — for -lw, enough layers), and
    /// **deterministic in the new size alone** — survivors agree bitwise
    /// no matter which rank died, without communicating. Shrink-world
    /// recovery restores from a checkpoint and re-derives the plan
    /// locally; this is the property that makes that sound.
    #[test]
    fn factor_assignment_remaps_cleanly_under_any_single_rank_removal(
        dims in proptest::collection::vec((1usize..128, 1usize..128), 1..16),
        world in 2usize..9,
    ) {
        let factors = factor_descs(&dims);
        let constructors: [(&str, PlanAt); 3] = [
            ("opt round-robin", |f, w| Plan::opt(PlacementPolicy::RoundRobin, f, w)),
            ("opt size-balanced", |f, w| Plan::opt(PlacementPolicy::SizeBalanced, f, w)),
            ("lw", Plan::lw),
        ];
        for (name, plan) in constructors {
            let boot = plan(&factors, world);
            // -lw gives whole layers, so a rank idles once layers run out.
            let units = if name == "lw" { dims.len() } else { factors.len() };
            let mut shrunk_views = Vec::new();
            for removed in 0..world {
                // Each survivor recomputes from only (factors, new world).
                let remapped = plan(&factors, world - 1);
                // Total: every factor assigned exactly once.
                prop_assert_eq!(remapped.eig_owner.len(), factors.len());
                prop_assert_eq!(remapped.precond_owner.len(), dims.len());
                // Contiguous: owners are valid new ranks…
                prop_assert!(remapped.eig_owner.iter().all(|&r| r < world - 1));
                prop_assert!(remapped.precond_owner.iter().flatten().all(|&r| r < world - 1));
                // …and no surviving rank is idle when work suffices.
                if units >= world - 1 {
                    for r in 0..world - 1 {
                        prop_assert!(
                            remapped.eig_owner.contains(&r),
                            "rank {} idle after removing {} ({})",
                            r, removed, name
                        );
                    }
                }
                shrunk_views.push(remapped);
            }
            // Removal-invariant + deterministic: every survivor lands on
            // the identical plan regardless of which rank died.
            for v in &shrunk_views[1..] {
                prop_assert_eq!(v, &shrunk_views[0]);
            }
            // And the boot plan itself is reproducible (survivors
            // recomputing the *old* view for fencing agree too).
            prop_assert_eq!(&boot, &plan(&factors, world));
        }
    }
}
