//! Work distribution: which rank does which K-FAC work.
//!
//! The heart of the paper's scalability story. K-FAC-opt assigns each
//! *factor* to a rank in "a greedy, round-robin fashion" (§VI-C4), which
//! doubles utilization over the per-layer scheme but leaves the size
//! imbalance quantified in Table VI (min vs max worker speedup). The
//! size-balanced LPT policy implements the paper's proposed fix: "a
//! placement policy that uses factor size as a heuristic for the eigen
//! decomposition time". A [`Plan`] holds the whole decision; K-FAC-opt
//! and K-FAC-lw are its two constructors.

use crate::config::{DistStrategy, KfacConfig, PlacementPolicy};

/// Which half of a layer's Kronecker pair a factor is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorKind {
    /// Activation factor `A_{i−1}`.
    A,
    /// Gradient factor `G_i`.
    G,
}

/// One assignable factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FactorDesc {
    /// Global factor id: `2·layer` for A, `2·layer + 1` for G.
    pub id: usize,
    /// Owning layer index.
    pub layer: usize,
    /// A or G.
    pub kind: FactorKind,
    /// Matrix dimension.
    pub dim: usize,
}

impl FactorDesc {
    /// Eigendecomposition cost heuristic: `dim³` (dense symmetric eig).
    pub fn eig_cost(&self) -> u64 {
        (self.dim as u64).pow(3)
    }
}

/// Build the factor list for layers with dims `(dim_A, dim_G)`.
pub fn factor_descs(layer_dims: &[(usize, usize)]) -> Vec<FactorDesc> {
    let mut out = Vec::with_capacity(layer_dims.len() * 2);
    for (layer, &(da, dg)) in layer_dims.iter().enumerate() {
        out.push(FactorDesc {
            id: 2 * layer,
            layer,
            kind: FactorKind::A,
            dim: da,
        });
        out.push(FactorDesc {
            id: 2 * layer + 1,
            layer,
            kind: FactorKind::G,
            dim: dg,
        });
    }
    out
}

/// Assignment of factors to ranks: `assignment[factor_id] = rank`.
///
/// Deterministic given identical inputs, so every rank computes the same
/// assignment without communication (the property Algorithm 1 line 9
/// relies on).
pub fn assign_factors(
    policy: PlacementPolicy,
    factors: &[FactorDesc],
    world_size: usize,
) -> Vec<usize> {
    assert!(world_size > 0);
    match policy {
        PlacementPolicy::RoundRobin => {
            // Greedy round-robin by id — the paper's scheme. Note ids
            // interleave A and G, which is exactly what "the eigen
            // decomposition for A_i and G_i can occur on different
            // workers" (Fig. 3) requires.
            factors.iter().map(|f| f.id % world_size).collect()
        }
        PlacementPolicy::SizeBalanced => {
            // LPT: biggest factor first onto the least-loaded rank.
            let mut order: Vec<usize> = (0..factors.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse((factors[i].eig_cost(), factors[i].id)));
            let mut load = vec![0u64; world_size];
            let mut assignment = vec![0usize; factors.len()];
            for &i in &order {
                // Least-loaded rank, lowest rank wins ties (determinism).
                let rank = (0..world_size)
                    .min_by_key(|&r| (load[r], r))
                    .expect("world>0");
                assignment[factors[i].id] = rank;
                load[rank] += factors[i].eig_cost();
            }
            assignment
        }
    }
}

/// Who does which K-FAC work in a `world`-rank group. Like
/// [`assign_factors`], a pure function of its inputs: every rank builds
/// the same plan without communicating, and a shrunk group builds the
/// survivors' plan from the new world size alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// `eig_owner[factor_id]`: the rank that decomposes the factor.
    pub eig_owner: Vec<usize>,
    /// `precond_owner[layer]`: `None` if every rank preconditions the
    /// layer from allgathered bases; `Some(rank)` if that rank alone does,
    /// having decomposed both factors, and its result is gathered.
    pub precond_owner: Vec<Option<usize>>,
}

impl Plan {
    /// The plan `cfg`'s strategy and placement name, for `factors` from
    /// [`factor_descs`].
    pub fn new(cfg: &KfacConfig, factors: &[FactorDesc], world: usize) -> Plan {
        match cfg.strategy {
            DistStrategy::Opt => Plan::opt(cfg.placement, factors, world),
            DistStrategy::Lw => Plan::lw(factors, world),
        }
    }

    /// K-FAC-opt: factors placed by `placement`, every layer
    /// preconditioned on every rank.
    pub fn opt(placement: PlacementPolicy, factors: &[FactorDesc], world: usize) -> Plan {
        Plan {
            eig_owner: assign_factors(placement, factors, world),
            precond_owner: vec![None; factors.len() / 2],
        }
    }

    /// K-FAC-lw (Osawa et al. \[6\]): layer `l`, both its factors and its
    /// preconditioning, on rank `l mod world`.
    pub fn lw(factors: &[FactorDesc], world: usize) -> Plan {
        Plan {
            eig_owner: factors.iter().map(|f| f.layer % world).collect(),
            precond_owner: (0..factors.len() / 2).map(|l| Some(l % world)).collect(),
        }
    }
}

/// Per-rank eigendecomposition cost under an assignment — the quantity
/// whose min/max ratio Table VI reports.
pub fn per_rank_cost(factors: &[FactorDesc], assignment: &[usize], world_size: usize) -> Vec<u64> {
    let mut load = vec![0u64; world_size];
    for f in factors {
        load[assignment[f.id]] += f.eig_cost();
    }
    load
}

/// Makespan (slowest rank) of an assignment — the eig-stage completion
/// time is "bounded by the slowest worker" (§VI-C4).
pub fn makespan(factors: &[FactorDesc], assignment: &[usize], world_size: usize) -> u64 {
    per_rank_cost(factors, assignment, world_size)
        .into_iter()
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_factors() -> Vec<FactorDesc> {
        // Dims chosen to be imbalanced, like a real ResNet's factor sizes.
        factor_descs(&[(576, 64), (64, 64), (4608, 512), (9, 16), (2049, 1000)])
    }

    #[test]
    fn descs_enumerate_all_factors_once() {
        let f = sample_factors();
        assert_eq!(f.len(), 10);
        for (i, d) in f.iter().enumerate() {
            assert_eq!(d.id, i);
        }
        assert_eq!(f[0].kind, FactorKind::A);
        assert_eq!(f[1].kind, FactorKind::G);
        assert_eq!(f[4].dim, 4608);
    }

    #[test]
    fn round_robin_cycles_ranks() {
        let f = sample_factors();
        let a = assign_factors(PlacementPolicy::RoundRobin, &f, 4);
        assert_eq!(a, vec![0, 1, 2, 3, 0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn a_and_g_of_same_layer_can_land_on_different_ranks() {
        // The doubled-utilization property of §IV-C.
        let f = sample_factors();
        let a = assign_factors(PlacementPolicy::RoundRobin, &f, 2);
        assert_ne!(a[0], a[1], "A and G of layer 0 on different ranks");
    }

    #[test]
    fn every_factor_assigned_exactly_once() {
        let f = sample_factors();
        for policy in [PlacementPolicy::RoundRobin, PlacementPolicy::SizeBalanced] {
            let a = assign_factors(policy, &f, 3);
            assert_eq!(a.len(), f.len());
            assert!(a.iter().all(|&r| r < 3));
        }
    }

    #[test]
    fn lpt_beats_round_robin_makespan() {
        let f = sample_factors();
        for world in [2, 4, 8] {
            let rr = assign_factors(PlacementPolicy::RoundRobin, &f, world);
            let lpt = assign_factors(PlacementPolicy::SizeBalanced, &f, world);
            assert!(
                makespan(&f, &lpt, world) <= makespan(&f, &rr, world),
                "LPT must not be worse at world={world}"
            );
        }
    }

    #[test]
    fn imbalance_grows_with_scale_under_round_robin() {
        // Table VI's phenomenon: as ranks grow, min load shrinks much
        // faster than max load (the rank holding the 4608-dim factor
        // stays slow).
        let f = sample_factors();
        let cost = |world: usize| {
            let a = assign_factors(PlacementPolicy::RoundRobin, &f, world);
            let loads = per_rank_cost(&f, &a, world);
            let max = *loads.iter().max().unwrap() as f64;
            let min = *loads.iter().filter(|&&l| l > 0).min().unwrap() as f64;
            max / min
        };
        assert!(cost(8) > cost(2), "imbalance ratio should grow with scale");
    }

    #[test]
    fn per_rank_cost_sums_to_total() {
        let f = sample_factors();
        let a = assign_factors(PlacementPolicy::SizeBalanced, &f, 4);
        let loads = per_rank_cost(&f, &a, 4);
        let total: u64 = f.iter().map(|d| d.eig_cost()).sum();
        assert_eq!(loads.iter().sum::<u64>(), total);
    }

    #[test]
    fn deterministic_assignments() {
        let f = sample_factors();
        for policy in [PlacementPolicy::RoundRobin, PlacementPolicy::SizeBalanced] {
            assert_eq!(assign_factors(policy, &f, 5), assign_factors(policy, &f, 5));
        }
    }
}
