//! The distributed K-FAC preconditioner — Algorithm 1 of the paper.
//!
//! One [`Kfac`] instance lives on each rank. Per training iteration (after
//! gradients have been allreduced, mirroring `optimizer.synchronize()` in
//! Listing 1) the rank calls [`Kfac::step`] — the infallible wrapper of
//! [`Kfac::try_step`], the one straight-line composition of the public
//! phase methods — which:
//!
//! 1. **Factor update** (every `update_freq / 10` iterations): computes
//!    local Kronecker factors from the captured activations/gradients
//!    and folds them into this rank's running averages (Eq. 16–17,
//!    Algorithm 1 lines 4–7).
//! 2. **Second-order update** (every `update_freq` iterations):
//!    allreduces the running averages (line 8 — see below for why it
//!    runs here and not after every fold), eigendecomposes (or
//!    explicitly inverts) the factors the [`Plan`] gives this rank (Fig. 3
//!    step 2), and allgathers the results (lines 10–18).
//! 3. **Preconditioning** (every iteration): computes
//!    `(F̂ + γI)⁻¹ ∇L` for every layer (Eq. 13–15), applies the
//!    KL-clip ν (Eq. 18), and writes the result back into the layers'
//!    gradients, ready for any first-order optimizer (lines 19–21).
//!
//! Between second-order updates, stale eigendecompositions are reused and
//! **no K-FAC communication happens at all** — the decoupling that §IV-C
//! credits for K-FAC-opt's scaling advantage. That includes the factor
//! allreduce: the running average and the allreduce's mean are both
//! linear, and the only reader of an average is a decomposition, so the
//! mean of rank-local running averages taken when a decomposition is
//! about to read them *is* the running average of per-iteration means, up
//! to rounding ([`Kfac::factor_exchange_due`]). Between exchanges each
//! rank's averages are its own ([`Kfac::factors_in_sync`]).
//!
//! Who does which work is one [`Plan`], rebuilt from the group's size on
//! every step. K-FAC-opt shares every layer: each factor has an owner,
//! the bases are allgathered and every rank preconditions every layer.
//! K-FAC-lw (Osawa et al. \[6\], for the Fig. 7–9 comparison) gives each
//! layer one owner, which computes both decompositions *and* the
//! preconditioned gradient; the gradients are then exchanged every
//! iteration. The step is the same code for both.
//!
//! ## Graceful degradation
//!
//! The same staleness that powers the decoupling is the natural fault
//! response: if a factor allreduce times out the decompositions simply
//! read this rank's own averages ([`Kfac::factor_unpack_checked`] /
//! [`Kfac::note_stale_factor`]) and the next exchange re-averages them;
//! if an eigendecomposition fails to converge or a gathered payload is
//! corrupted, the factor falls back to a damped-identity preconditioner
//! (gradient scaled by `1/(1+γ)` — plain SGD for that layer) rather than
//! poisoning the update. If the
//! eigendecomposition allgather fails, [`Kfac::try_step`] puts this
//! rank's freshly computed entries back to their previous values, so a
//! failed exchange leaves every rank identically stale. All
//! degradations are counted (`kfac/stale_factor_steps`,
//! `kfac/eig_fallbacks`, `kfac/identity_preconds`) and surfaced through
//! [`Kfac::stats`]. [`Kfac::save_state`] / [`Kfac::restore_state`]
//! round-trip the full optimizer state for checkpoint-based rank-loss
//! recovery.

use crate::codec::{put_f32s, put_u64, Reader};
use crate::config::{EigenSolver, InversionMethod, KfacConfig};
use crate::distribution::{factor_descs, FactorDesc, Plan};
use crate::math::{
    decompose_factor_randomized, decompose_factor_with, invert_factor, kl_clip_nu,
    precondition_bases, precondition_inverse, Basis,
};
use crate::stats::StageStats;
use kfac_collectives::{CollectiveError, Communicator, ReduceOp, RetryPolicy, TrafficClass};
use kfac_nn::{KfacEligible, Layer};
use kfac_telemetry::{Registry, Span};
use kfac_tensor::gemm::mirror_upper_to_lower;
use kfac_tensor::{arena, EigenDecomposition, Matrix};

/// Per-factor second-order state. An eigenbasis is packed when it is
/// installed ([`Basis::new`]), however it arrives: computed here,
/// gathered from its owner, or restored from a checkpoint.
enum FactorSecondOrder {
    None,
    Eigen(Basis),
    Inverse(Matrix),
}

/// Distributed K-FAC gradient preconditioner (one instance per rank).
pub struct Kfac {
    cfg: KfacConfig,
    /// `(dim_A, dim_G)` per K-FAC-eligible layer, in structural order.
    layer_dims: Vec<(usize, usize)>,
    factors: Vec<FactorDesc>,
    /// Running-average factors, indexed by factor id: each is its upper
    /// triangle as `n(n+1)/2` packed rows (row `i` from column `i` on),
    /// empty before the factor's first fold.
    averages: Vec<Vec<f32>>,
    /// Second-order state (eig or inverse), indexed by factor id.
    second_order: Vec<FactorSecondOrder>,
    iteration: u64,
    epoch: usize,
    damping: f32,
    update_freq: usize,
    /// Ambient telemetry captured at construction (registry + the rank
    /// this instance records as). All stage timing lives there; `None`
    /// when the constructing thread had no recorder installed, in which
    /// case [`Kfac::stats`] reports zero durations but correct counts.
    telemetry: Option<(Registry, usize)>,
    factor_updates: u64,
    eig_updates: u64,
    /// Iterations that reused stale factor averages because the factor
    /// allreduce failed or returned a corrupted payload.
    stale_factor_steps: u64,
    /// Factors that fell back to the damped-identity second-order state
    /// (eigendecomposition failure or corrupted gathered payload).
    eig_fallbacks: u64,
    /// Layers preconditioned with the implicit identity because no
    /// second-order state was available yet (atomic: counted from the
    /// read-only preconditioning path).
    identity_preconds: std::sync::atomic::AtomicU64,
    /// Iteration of the last completed second-order update; feeds the
    /// `kfac/staleness_age` probe (a read-only observability value —
    /// never an input to the update math).
    last_eig_iter: u64,
    /// Worst condition number in the second-order pass currently being
    /// computed (running max across this rank's factors).
    pending_max_cond: f64,
    /// Worst condition number of the most recent completed pass.
    max_cond: f64,
    /// Largest retained eigenbasis rank in the pass being computed
    /// (running max across this rank's factors).
    pending_max_rank: u64,
    /// Largest retained rank of the most recent completed pass.
    eig_rank: u64,
    /// Smallest captured spectral mass in the pass being computed
    /// (running min across this rank's factors; +∞ = none yet).
    pending_min_mass: f64,
    /// Smallest captured spectral mass of the most recent completed pass.
    eig_captured_mass: f64,
    /// f64 bits of the last KL-clip ν (atomic: recorded from the
    /// `&self` apply path).
    last_nu_bits: std::sync::atomic::AtomicU64,
    /// f64 bits of the last ‖preconditioned‖/‖raw‖ gradient norm ratio.
    precond_ratio_bits: std::sync::atomic::AtomicU64,
    /// A fold has entered `averages` since the last successful exchange
    /// (or `restore_state`): they are this rank's own, not the group's.
    unexchanged_folds: bool,
    /// Test oracle: exchange on every factor iteration, the schedule
    /// Algorithm 1 spells and this crate ran before the exchange moved to
    /// where averages are read.
    #[cfg(test)]
    exchange_every_fold: bool,
    /// Test oracle: fold through the layer's full mirrored factors and
    /// [`Matrix::axpby`], the two passes the packed fold replaced.
    #[cfg(test)]
    two_pass_fold: bool,
}

impl Kfac {
    /// Build a preconditioner for `model`. Every rank must construct it
    /// from an identically-shaped model.
    pub fn new(model: &mut dyn Layer, cfg: KfacConfig) -> Self {
        cfg.validate();
        let mut layers = Vec::new();
        model.collect_kfac(&mut layers);
        assert!(
            !layers.is_empty(),
            "model has no K-FAC-eligible (Linear/Conv2d) layers"
        );
        let layer_dims: Vec<(usize, usize)> = layers.iter().map(|l| l.factor_dims()).collect();
        let factors = factor_descs(&layer_dims);
        let n_factors = factors.len();
        let damping = cfg.damping;
        let update_freq = cfg.update_freq;
        Kfac {
            cfg,
            layer_dims,
            factors,
            averages: vec![Vec::new(); n_factors],
            second_order: (0..n_factors).map(|_| FactorSecondOrder::None).collect(),
            iteration: 0,
            epoch: 0,
            damping,
            update_freq,
            telemetry: kfac_telemetry::current(),
            factor_updates: 0,
            eig_updates: 0,
            stale_factor_steps: 0,
            eig_fallbacks: 0,
            identity_preconds: std::sync::atomic::AtomicU64::new(0),
            last_eig_iter: 0,
            pending_max_cond: 0.0,
            max_cond: 0.0,
            pending_max_rank: 0,
            eig_rank: 0,
            pending_min_mass: f64::INFINITY,
            eig_captured_mass: 0.0,
            last_nu_bits: std::sync::atomic::AtomicU64::new(0f64.to_bits()),
            precond_ratio_bits: std::sync::atomic::AtomicU64::new(0f64.to_bits()),
            unexchanged_folds: false,
            #[cfg(test)]
            exchange_every_fold: false,
            #[cfg(test)]
            two_pass_fold: false,
        }
    }

    /// The wire precision policy this instance was built with: f32 on
    /// both wires, the only one [`KfacConfig::validate`] accepts. Kept
    /// for the frozen benchmark package, which reads it.
    pub fn precision(&self) -> crate::precision::PrecisionPolicy {
        self.cfg.precision
    }

    /// The factor inventory (for placement analysis / Table VI).
    pub fn factors(&self) -> &[FactorDesc] {
        &self.factors
    }

    /// Stage timing accumulated on this rank, as a view over the
    /// telemetry registry: each duration is the summed time of the
    /// matching `kfac/*` spans this rank recorded, so this is exactly
    /// consistent with what the trace exporters see — there is no
    /// second bookkeeping path. Counts are algorithmic state and are
    /// correct even without an installed recorder.
    pub fn stats(&self) -> StageStats {
        let mut stats = StageStats::new();
        stats.factor_updates = self.factor_updates;
        stats.eig_updates = self.eig_updates;
        stats.steps = self.iteration;
        stats.stale_factor_steps = self.stale_factor_steps;
        stats.eig_fallbacks = self.eig_fallbacks;
        stats.identity_preconds = self
            .identity_preconds
            .load(std::sync::atomic::Ordering::Relaxed);
        stats.max_cond = self.max_cond;
        stats.eig_rank = self.eig_rank;
        stats.eig_captured_mass = self.eig_captured_mass;
        stats.last_nu =
            f64::from_bits(self.last_nu_bits.load(std::sync::atomic::Ordering::Relaxed));
        stats.precond_ratio = f64::from_bits(
            self.precond_ratio_bits
                .load(std::sync::atomic::Ordering::Relaxed),
        );
        stats.staleness_age = self.iteration.saturating_sub(self.last_eig_iter);
        if let Some((registry, rank)) = &self.telemetry {
            // Spans publish in batches; push this thread's tail so the
            // view is exact at the moment of the snapshot.
            kfac_telemetry::flush();
            let rank = Some(*rank);
            stats.factor_comp = registry.span_agg("kfac/factor_comp", rank).total;
            stats.factor_comm = registry.span_agg("kfac/factor_comm", rank).total;
            stats.eig_comp = registry.span_agg("kfac/eig_comp", rank).total;
            stats.eig_comm = registry.span_agg("kfac/eig_comm", rank).total;
            stats.precond = registry.span_agg("kfac/precond", rank).total;
        }
        stats
    }

    /// Current damping γ (after decays).
    pub fn damping(&self) -> f32 {
        self.damping
    }

    /// Current eigendecomposition update interval (after decays).
    pub fn update_freq(&self) -> usize {
        self.update_freq
    }

    /// Iterations between factor updates.
    pub fn factor_interval(&self) -> usize {
        (self.update_freq / self.cfg.factor_freq_multiplier).max(1)
    }

    /// Inform the preconditioner of the current epoch; applies the
    /// damping-decay and update-frequency-decay schedules of §V-C.
    pub fn set_epoch(&mut self, epoch: usize) {
        self.epoch = epoch;
        self.damping = self.cfg.damping_at(epoch);
        self.update_freq = self.cfg.update_freq_at(epoch);
        if let Some((registry, _)) = &self.telemetry {
            registry.gauge("kfac/damping").set(self.damping as f64);
            registry
                .gauge("kfac/update_freq")
                .set(self.update_freq as f64);
        }
    }

    /// Whether the *next* [`Kfac::step`] will recompute factors — the
    /// trainer enables activation/gradient capture on the model exactly
    /// for these iterations, so ordinary iterations pay no capture cost.
    pub fn needs_capture(&self) -> bool {
        self.is_factor_iteration()
    }

    /// Whether the current iteration recomputes Kronecker factors
    /// (Algorithm 1 lines 4–8 run this step).
    pub fn is_factor_iteration(&self) -> bool {
        self.iteration.is_multiple_of(self.factor_interval() as u64)
    }

    /// Whether the current iteration recomputes eigendecompositions
    /// (Algorithm 1 lines 9–18 run this step).
    pub fn is_eig_iteration(&self) -> bool {
        self.iteration.is_multiple_of(self.update_freq as u64)
    }

    /// Whether the running averages are exchanged this iteration
    /// (Algorithm 1 line 8): only where they are about to be read — an
    /// eigen-update iteration — and only if a fold has entered them since
    /// the last exchange, this iteration's own included. Every fold is
    /// linear and so is the allreduce's mean, so averaging the ranks'
    /// running averages once per eigen update equals folding per-iteration
    /// means, up to rounding. Stable for the whole iteration (true before
    /// and after this iteration's folds), so a phase-level driver may read
    /// it when it plans the iteration.
    pub fn factor_exchange_due(&self) -> bool {
        #[cfg(test)]
        if self.exchange_every_fold {
            return self.is_factor_iteration();
        }
        self.is_eig_iteration() && (self.is_factor_iteration() || self.unexchanged_folds)
    }

    /// Whether every rank of the group holds the same running averages:
    /// no fold since the last successful exchange (or
    /// [`Kfac::restore_state`], which trusts its blob to have been saved
    /// in sync). Between exchanges each rank's averages are its own, so
    /// state saved while this is `false` differs from rank to rank — a
    /// group-consistent checkpoint waits for it.
    pub fn factors_in_sync(&self) -> bool {
        !self.unexchanged_folds
    }

    /// Zero-based index of the current iteration (increments on
    /// [`Kfac::advance`], which [`Kfac::step`] calls last).
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Finish the current iteration. [`Kfac::step`] calls this
    /// internally; phase-level drivers (`stepbench`'s traced pass, the
    /// phase tests) call it once after their last phase.
    pub fn advance(&mut self) {
        self.iteration += 1;
    }

    /// Run one preconditioning step (Algorithm 1). Call after the
    /// gradient allreduce and before `optimizer.step()`, exactly like
    /// `preconditioner.step()` in Listing 1.
    ///
    /// The infallible wrapper of [`Kfac::try_step`]: no retries, and a
    /// failed or degraded exchange panics.
    pub fn step(&mut self, model: &mut dyn Layer, comm: &dyn Communicator, lr: f32) {
        let degraded = self
            .try_step(model, comm, lr, &RetryPolicy::none())
            .unwrap_or_else(|e| panic!("K-FAC collective failed: {e}"));
        assert_eq!(degraded, 0, "K-FAC exchange degraded to stale state");
    }

    /// One preconditioning step with every collective fallible: the
    /// straight-line composition of the phase methods below, for any
    /// [`Plan`]. Each K-FAC collective is the communicator's own f32
    /// collective under `retry`. Returns how many
    /// exchanges degraded:
    ///
    /// * a **Factor** allreduce that exhausts its retries, or delivers a
    ///   corrupted payload, is dropped: the decompositions proceed on
    ///   each rank's own locally folded averages, which the next exchange
    ///   — one eigen interval on — re-averages (replicas stay in lockstep:
    ///   preconditioning reads only second-order state, which is
    ///   exchanged whole; [`Kfac::factors_in_sync`] stays `false`);
    /// * a failed **Eigen** allgather puts this rank's freshly computed
    ///   entries back, so every rank keeps the identical previous
    ///   second-order state;
    ///
    /// each counted as a stale step ([`Kfac::note_stale_factor`]). A
    /// failed **Precond** allgather (K-FAC-lw) leaves no usable update
    /// and is returned as `Err` before the iteration advances, as is any
    /// [`CollectiveError::RankFailed`].
    pub fn try_step(
        &mut self,
        model: &mut dyn Layer,
        comm: &dyn Communicator,
        lr: f32,
        retry: &RetryPolicy,
    ) -> Result<u32, CollectiveError> {
        let mut layers = Vec::new();
        model.collect_kfac(&mut layers);
        assert_eq!(
            layers.len(),
            self.layer_dims.len(),
            "model structure changed since Kfac::new"
        );
        let (world, rank) = (comm.size(), comm.rank());
        let plan = Plan::new(&self.cfg, &self.factors, world);
        let mut degraded = 0u32;

        // Algorithm 1 lines 4–7: local factors into this rank's running
        // averages.
        if self.is_factor_iteration() {
            let _comp_span = Span::enter("kfac/factor_comp")
                .with("iter", self.iteration)
                .with("layers", layers.len());
            for (li, layer) in layers.iter().enumerate() {
                self.factor_update_layer(li, &**layer);
            }
            self.note_factor_update();
        }

        // Line 8, where the averages are about to be read: one fused
        // allreduce per eigen update, not per fold.
        if world == 1 {
            // A group of one is always in sync with itself.
            self.unexchanged_folds = false;
        } else if self.factor_exchange_due() {
            let _comm_span = Span::enter("kfac/factor_comm").with("iter", self.iteration);
            // Packed anew per attempt: a failed allreduce leaves its
            // buffer unspecified.
            let exchanged = retry.run(|| {
                let mut fused = self.factor_pack();
                comm.try_allreduce_tagged(&mut fused, ReduceOp::Average, TrafficClass::Factor)?;
                Ok(fused)
            });
            match exchanged {
                Ok(fused) => degraded += u32::from(!self.factor_unpack_checked(&fused)),
                Err(e) => degraded += self.keep_stale(e)?,
            }
        }

        // Lines 9–18: owners decompose their factors. The bases of shared
        // layers are allgathered; an owned layer's stay with its owner
        // (its preconditioned gradient travels instead).
        if self.is_eig_iteration() {
            let assignment = &plan.eig_owner;
            let mine: Vec<usize> = (0..self.factors.len())
                .filter(|&id| assignment[id] == rank)
                .collect();
            let comp_span = Span::enter("kfac/eig_comp")
                .with("iter", self.iteration)
                .with("factors", mine.len());
            let previous: Vec<FactorSecondOrder> = mine
                .iter()
                .map(|&id| std::mem::replace(&mut self.second_order[id], FactorSecondOrder::None))
                .collect();
            for &id in &mine {
                self.eig_compute_one(id);
            }
            drop(comp_span);

            let mut refreshed = true;
            // Every basis travels if some layer is shared; no constructor mixes.
            if plan.precond_owner.contains(&None) {
                let _comm_span = Span::enter("kfac/eig_comm").with("iter", self.iteration);
                if world > 1 {
                    let payload = self.eig_local_payload(assignment, rank);
                    let gathered =
                        retry.run(|| comm.try_allgather_tagged(&payload, TrafficClass::Eigen));
                    match gathered {
                        Ok(gathered) => self.eig_apply_gathered(assignment, rank, &gathered),
                        Err(e) => {
                            // Every rank puts its own entries back, so
                            // the group stays identically stale.
                            for (&id, prev) in mine.iter().zip(previous) {
                                self.second_order[id] = prev;
                            }
                            degraded += self.keep_stale(e)?;
                            refreshed = false;
                        }
                    }
                }
            }
            if refreshed {
                self.note_eig_update();
            }
        }

        // Lines 19–21: precondition every layer, then KL-clip. Owners
        // precondition their layers and the results are allgathered — the
        // per-iteration communication that §IV-C eliminates in K-FAC-opt.
        let _span = Span::enter("kfac/precond").with("iter", self.iteration);
        let grads: Vec<Matrix> = layers.iter().map(|l| l.grad_matrix()).collect();
        let mut payload = Vec::new();
        for (li, grad) in grads.iter().enumerate() {
            if plan.precond_owner[li] == Some(rank) {
                payload.extend_from_slice(self.precondition_one(li, grad).as_slice());
            }
        }
        let gathered = if world > 1 && plan.precond_owner.iter().any(Option::is_some) {
            retry.run(|| comm.try_allgather_tagged(&payload, TrafficClass::Precond))?
        } else {
            vec![payload]
        };
        let mut offsets = vec![0usize; world];
        let preconds: Vec<Matrix> = (grads.iter().enumerate())
            .map(|(li, grad)| match plan.precond_owner[li] {
                None => self.precondition_one(li, grad),
                Some(owner) => {
                    let (da, dg) = self.layer_dims[li];
                    let start = offsets[owner];
                    offsets[owner] += da * dg;
                    let data = &gathered[owner][start..offsets[owner]];
                    Matrix::from_vec(dg, da, data.to_vec())
                }
            })
            .collect();
        self.apply_with_clip(&mut layers, &preconds, &grads, lr);
        self.advance();
        Ok(degraded)
    }

    /// A K-FAC exchange failed for good. A lost rank is the caller's to
    /// handle; any other failure keeps the previous state, counted as
    /// one stale step.
    fn keep_stale(&mut self, e: CollectiveError) -> Result<u32, CollectiveError> {
        if let CollectiveError::RankFailed(_) = e {
            return Err(e);
        }
        self.note_stale_factor();
        Ok(1)
    }

    /// Phase: fold K-FAC-eligible layer `li`'s captured factor sums into
    /// its running averages (Eq. 16–17): `avg = ξ·(s/m) + (1 − ξ)·avg`,
    /// or `avg = s/m` for the first fold. One pass over the upper
    /// triangle, row tail by row tail into the packed average. Layers are
    /// independent, so calls may run in any order / in parallel across
    /// `li`.
    pub fn factor_update_layer(&mut self, li: usize, layer: &dyn KfacEligible) {
        assert!(
            layer.has_capture(),
            "factor update at iteration {} but layer {} ({}) has no capture; \
             enable capture when needs_capture() is true",
            self.iteration,
            li,
            layer.kfac_name()
        );
        #[cfg(test)]
        if self.two_pass_fold {
            self.two_pass_fold_layer(li, layer);
            self.unexchanged_folds = true;
            return;
        }
        let sums = layer.factor_sums();
        let inv_m = 1.0 / sums.rows() as f32;
        let (xi, keep) = (self.cfg.running_avg, 1.0 - self.cfg.running_avg);
        for (id, sum) in [(2 * li, sums.a()), (2 * li + 1, sums.g())] {
            let n = sum.rows();
            let avg = &mut self.averages[id];
            let first = avg.is_empty();
            avg.resize(n * (n + 1) / 2, 0.0);
            let mut off = 0;
            for i in 0..n {
                let (dst, src) = (&mut avg[off..off + n - i], &sum.row(i)[i..]);
                off += n - i;
                if first {
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d = s * inv_m;
                    }
                } else {
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d = xi * (s * inv_m) + keep * *d;
                    }
                }
            }
        }
        self.unexchanged_folds = true;
    }

    /// Test oracle: the fold as two full passes, the layer's mirrored
    /// factors and then [`Matrix::axpby`] over all `n²` entries of the
    /// unpacked average, packed again.
    #[cfg(test)]
    fn two_pass_fold_layer(&mut self, li: usize, layer: &dyn KfacEligible) {
        let (a, g) = layer.compute_factors();
        let xi = self.cfg.running_avg;
        for (id, new) in [(2 * li, a), (2 * li + 1, g)] {
            let full = if self.averages[id].is_empty() {
                new
            } else {
                let mut avg = self.unpacked(id);
                avg.axpby(xi, &new, 1.0 - xi);
                avg
            };
            let n = full.rows();
            self.averages[id] = (0..n).flat_map(|i| &full.row(i)[i..]).copied().collect();
        }
    }

    /// Phase: pack what this iteration's factor exchange carries into one
    /// fused payload for a single allreduce (the fusion-buffer rationale
    /// of §II-D; factors are small and numerous): every running average
    /// when [`Kfac::factor_exchange_due`], nothing — an empty payload,
    /// which [`kfac_collectives::wire::try_allreduce_half`] does not
    /// send and [`Kfac::factor_unpack`] does not read — otherwise. The
    /// payload is the packed averages end to end: factors are symmetric,
    /// so their upper triangles carry them whole at about half the words.
    pub fn factor_pack(&self) -> Vec<f32> {
        if !self.factor_exchange_due() {
            return Vec::new();
        }
        self.averages.concat()
    }

    /// Phase: write an allreduced fused payload (from
    /// [`Kfac::factor_pack`]) back into the running averages; the
    /// averages are then the group's ([`Kfac::factors_in_sync`]). An
    /// empty payload — no exchange was due — touches nothing.
    pub fn factor_unpack(&mut self, fused: &[f32]) {
        if fused.is_empty() {
            return;
        }
        let mut rest = fused;
        for avg in &mut self.averages {
            let (words, tail) = rest.split_at(avg.len());
            avg.copy_from_slice(words);
            rest = tail;
        }
        self.unexchanged_folds = false;
    }

    /// Phase: record that a factor update completed (statistics only).
    pub fn note_factor_update(&mut self) {
        self.factor_updates += 1;
    }

    /// Validated variant of [`Kfac::factor_unpack`]: installs the
    /// allreduced payload only if every element is finite and sane.
    /// Returns `false` — leaving the running averages untouched (stale
    /// but self-consistent) and counting a stale step — when the payload
    /// was corrupted in flight.
    pub fn factor_unpack_checked(&mut self, fused: &[f32]) -> bool {
        // Bit-flip corruption in the exponent shows up as non-finite or
        // absurdly large magnitudes; factor entries are batch-averaged
        // second moments and never legitimately reach 1e30. `< 1e30` is
        // false for NaN and ±∞ too, and testing whole chunks without an
        // early exit lets the scan vectorize: `try_step` runs it on
        // every exchanged payload.
        let sane = |chunk: &[f32]| chunk.iter().fold(true, |ok, v| ok & (v.abs() < 1e30));
        if fused.chunks(1024).all(sane) {
            self.factor_unpack(fused);
            true
        } else {
            self.note_stale_factor();
            false
        }
    }

    /// Record that this iteration kept its previous factor averages
    /// because the factor exchange failed (timeout, rank trouble, or a
    /// corrupted payload). Reusing stale factors is the same mechanism
    /// as the decoupled update schedule — just triggered by a fault
    /// instead of the interval.
    pub fn note_stale_factor(&mut self) {
        self.stale_factor_steps += 1;
        if let Some((registry, _)) = &self.telemetry {
            registry.counter("kfac/stale_factor_steps").inc();
        }
    }

    /// The damped-identity second-order state for factor `id`: the
    /// wire-compatible stand-in used when a decomposition fails or a
    /// gathered payload is corrupted. An identity eigenbasis with unit
    /// eigenvalues preconditions the layer with `1/(1+γ)` — plain
    /// (damped) SGD — instead of poisoning the update.
    fn identity_second_order(&self, id: usize) -> FactorSecondOrder {
        let n = self.factors[id].dim;
        match self.cfg.inversion {
            InversionMethod::Eigen => self.eigen_state(
                id,
                EigenDecomposition {
                    eigenvalues: vec![1.0; n],
                    eigenvectors: Matrix::identity(n),
                },
            ),
            InversionMethod::ExplicitInverse => {
                let mut m = Matrix::identity(n);
                m.scale(1.0 / (1.0 + self.damping));
                FactorSecondOrder::Inverse(m)
            }
        }
    }

    /// Factor `id`'s eigendecomposition installed as its second-order
    /// state, packed for the products that read it.
    fn eigen_state(&self, id: usize, eig: EigenDecomposition) -> FactorSecondOrder {
        FactorSecondOrder::Eigen(Basis::new(self.factors[id].kind, eig))
    }

    /// Record one damped-identity fallback (statistics + telemetry).
    fn note_eig_fallback(&mut self) {
        self.eig_fallbacks += 1;
        if let Some((registry, _)) = &self.telemetry {
            registry.counter("kfac/eig_fallbacks").inc();
        }
    }

    /// Compute the second-order representation (eig or inverse) of one
    /// factor from its running average. A failed or non-finite
    /// decomposition degrades to the damped identity instead of
    /// panicking; the fallback is counted in `kfac/eig_fallbacks`.
    fn compute_second_order(&mut self, id: usize) -> FactorSecondOrder {
        let full = self.unpacked(id);
        let so = match self.cfg.inversion {
            InversionMethod::Eigen => {
                let eig = match self.cfg.eigen_solver {
                    EigenSolver::Randomized => {
                        decompose_factor_randomized(&full, &self.cfg.rand_eig)
                    }
                    solver => decompose_factor_with(&full, solver),
                }
                .ok()
                .filter(|e| {
                    e.eigenvalues.iter().all(|v| v.is_finite())
                        && e.eigenvectors.as_slice().iter().all(|v| v.is_finite())
                });
                if let Some(e) = &eig {
                    self.record_spectrum(id, e, full.trace() as f64);
                }
                eig.map(|e| self.eigen_state(id, e))
            }
            InversionMethod::ExplicitInverse => invert_factor(&full, self.damping)
                .ok()
                .filter(|m| m.as_slice().iter().all(|v| v.is_finite()))
                .map(FactorSecondOrder::Inverse),
        };
        arena::recycle_matrix(full);
        match so {
            Some(so) => so,
            None => {
                self.note_eig_fallback();
                self.identity_second_order(id)
            }
        }
    }

    /// Factor `id`'s running average as the full symmetric matrix its
    /// packed upper triangle stands for, in arena scratch (hand it back
    /// with `arena::recycle_matrix`): the solvers read a square matrix,
    /// built once per update.
    fn unpacked(&self, id: usize) -> Matrix {
        let n = self.factors[id].dim;
        let packed = &self.averages[id];
        assert!(
            !packed.is_empty(),
            "factor average exists before second-order update"
        );
        let mut full = arena::take_matrix(n, n);
        let mut off = 0;
        for i in 0..n {
            full.row_mut(i)[i..].copy_from_slice(&packed[off..off + n - i]);
            off += n - i;
        }
        mirror_upper_to_lower(full.as_mut_slice(), n);
        full
    }

    /// Probe: per-factor eigen-spectrum summary — λ_min, λ_max,
    /// condition number, retained eigenbasis rank and captured spectral
    /// mass (Σλ_kept / tr F, where `trace` is the factor average's
    /// trace) as per-layer gauges plus run-wide histograms. Pure
    /// observability: values are *read* from the decomposition and
    /// never feed back into the update, and nothing at all is computed
    /// when no telemetry recorder was installed at construction.
    fn record_spectrum(&mut self, id: usize, eig: &kfac_tensor::EigenDecomposition, trace: f64) {
        if self.telemetry.is_none() {
            return;
        }
        // The decomposition holds exactly the modes that were kept.
        let rank = eig.eigenvalues.len();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut captured = 0.0f64;
        for &v in &eig.eigenvalues {
            lo = lo.min(v as f64);
            hi = hi.max(v as f64);
            captured += (v as f64).max(0.0);
        }
        if !lo.is_finite() || !hi.is_finite() {
            return;
        }
        let mass = if trace > 0.0 {
            (captured / trace).min(1.0)
        } else {
            1.0
        };
        // Factors are PSD; clamp λ_min away from zero so the condition
        // number stays finite for rank-deficient factors.
        let cond = hi / lo.max(1e-12);
        self.pending_max_cond = self.pending_max_cond.max(cond);
        self.pending_max_rank = self.pending_max_rank.max(rank as u64);
        self.pending_min_mass = self.pending_min_mass.min(mass);
        let (registry, _) = self.telemetry.as_ref().expect("checked above");
        let li = id / 2;
        let kind = if id.is_multiple_of(2) { "a" } else { "g" };
        let probes = [
            ("lambda_min", lo),
            ("lambda_max", hi),
            ("cond", cond),
            ("eig_rank", rank as f64),
            ("eig_mass", mass),
        ];
        for (name, value) in probes {
            registry
                .gauge(&format!("kfac/layer{li}/{kind}_{name}"))
                .set(value);
        }
        for (name, value) in probes {
            registry.histogram(&format!("kfac/{name}")).record(value);
        }
    }

    fn encode_second_order(&self, so: &FactorSecondOrder, out: &mut Vec<f32>) {
        match so {
            FactorSecondOrder::Eigen(b) => out.extend_from_slice(&b.eig.to_bytes_f32()),
            FactorSecondOrder::Inverse(m) => out.extend_from_slice(m.as_slice()),
            FactorSecondOrder::None => unreachable!("encoding empty second-order state"),
        }
    }

    /// Decode the frame that starts `words` as factor `id`'s
    /// second-order state; also returns the words that follow it. `None`
    /// when `words` does not start with a frame (an eigenbasis frame
    /// carries its own length, see
    /// [`EigenDecomposition::from_bytes_f32`]). A well-formed frame
    /// carrying non-finite values (silent corruption in flight) decodes
    /// to the damped identity, counted, rather than installing poison
    /// into the preconditioner.
    fn decode_second_order<'w>(
        &mut self,
        id: usize,
        words: &'w [f32],
    ) -> Option<(FactorSecondOrder, &'w [f32])> {
        let n = self.factors[id].dim;
        let (so, rest) = match self.cfg.inversion {
            InversionMethod::Eigen => {
                let (eig, rest) = EigenDecomposition::from_bytes_f32(n, words)?;
                (self.eigen_state(id, eig), rest)
            }
            InversionMethod::ExplicitInverse => {
                let (frame, rest) = words.split_at_checked(n * n)?;
                let inverse = Matrix::from_vec(n, n, frame.to_vec());
                (FactorSecondOrder::Inverse(inverse), rest)
            }
        };
        let frame = &words[..words.len() - rest.len()];
        if frame.iter().all(|v| v.is_finite()) {
            Some((so, rest))
        } else {
            self.note_eig_fallback();
            Some((self.identity_second_order(id), rest))
        }
    }

    /// Phase: the factor→rank ownership map for a `world`-rank group,
    /// the plan's eig owners (Fig. 3 step 2). Deterministic: every rank
    /// computes the same map.
    pub fn eig_assignment(&self, world: usize) -> Vec<usize> {
        Plan::new(&self.cfg, &self.factors, world).eig_owner
    }

    /// Phase: eigendecompose (or invert) factor `id` from its running
    /// average and store the result locally. Factors are independent, so
    /// calls may run in any order across `id`.
    pub fn eig_compute_one(&mut self, id: usize) {
        self.second_order[id] = self.compute_second_order(id);
    }

    /// Phase: serialize this rank's owned second-order results (factor
    /// id order) into the allgather payload of Algorithm 1 line 18.
    pub fn eig_local_payload(&self, assignment: &[usize], rank: usize) -> Vec<f32> {
        let mut payload = Vec::new();
        for f in &self.factors {
            if assignment[f.id] == rank {
                self.encode_second_order(&self.second_order[f.id], &mut payload);
            }
        }
        payload
    }

    /// Phase: decode every rank's allgathered payload into local
    /// second-order state. Each owner's payload is its factors' frames
    /// in id order (the deterministic-assignment property says whose
    /// frame comes next; an eigenbasis frame says how long it is).
    ///
    /// A payload is outside input. When what is left of one does not
    /// start with a frame — a rank word that is no rank, a frame running
    /// past the end — or words remain after its last frame, the framing
    /// of everything from there on is unknown: that factor and every
    /// later one of the same owner fall back to the damped identity,
    /// each counted in `kfac/eig_fallbacks`. Every rank decodes the same
    /// gathered words, so every rank degrades identically.
    ///
    /// This rank's own partition is installed from `gathered` like
    /// everyone else's, not kept from [`Kfac::eig_compute_one`]: what a
    /// replica holds is what the group received, so a word corrupted in
    /// flight lands identically on every rank. On a clean wire the round
    /// trip is bit-neutral.
    /// `_rank` is unused and stays only because the signature is part of
    /// the benchmark's frozen surface.
    pub fn eig_apply_gathered(
        &mut self,
        assignment: &[usize],
        _rank: usize,
        gathered: &[Vec<f32>],
    ) {
        debug_assert!(assignment.iter().all(|&owner| owner < gathered.len()));
        for (owner, payload) in gathered.iter().enumerate() {
            let owned: Vec<usize> = (0..self.factors.len())
                .filter(|&id| assignment[id] == owner)
                .collect();
            let mut rest = Some(payload.as_slice());
            for (k, &id) in owned.iter().enumerate() {
                let decoded = rest
                    .and_then(|words| self.decode_second_order(id, words))
                    .filter(|(_, tail)| k + 1 < owned.len() || tail.is_empty());
                self.second_order[id] = match decoded {
                    Some((so, tail)) => {
                        rest = Some(tail);
                        so
                    }
                    None => {
                        rest = None;
                        self.note_eig_fallback();
                        self.identity_second_order(id)
                    }
                };
            }
        }
    }

    /// Phase: record that a second-order update completed (statistics
    /// only). Also rolls the spectrum probe over: the running max
    /// condition number of the pass that just finished becomes the
    /// reported `max_cond`, and factor staleness resets to zero.
    pub fn note_eig_update(&mut self) {
        self.eig_updates += 1;
        self.last_eig_iter = self.iteration;
        if self.pending_max_cond > 0.0 {
            self.max_cond = self.pending_max_cond;
            self.pending_max_cond = 0.0;
        }
        if self.pending_max_rank > 0 {
            self.eig_rank = self.pending_max_rank;
            self.pending_max_rank = 0;
        }
        if self.pending_min_mass.is_finite() {
            self.eig_captured_mass = self.pending_min_mass;
            self.pending_min_mass = f64::INFINITY;
        }
        if let Some((registry, _)) = &self.telemetry {
            registry.gauge("kfac/max_cond").set(self.max_cond);
            registry
                .gauge("kfac/max_eig_rank")
                .set(self.eig_rank as f64);
            registry
                .gauge("kfac/min_eig_mass")
                .set(self.eig_captured_mass);
        }
    }

    /// Phase: preconditioned gradient for one layer from stored
    /// second-order state (Eq. 13–15). Read-only; layers are
    /// independent, so calls may run in any order across `li`.
    pub fn precondition_one(&self, li: usize, grad: &Matrix) -> Matrix {
        match (&self.second_order[2 * li], &self.second_order[2 * li + 1]) {
            (FactorSecondOrder::Eigen(a), FactorSecondOrder::Eigen(g)) => {
                precondition_bases(a, g, grad, self.damping)
            }
            (FactorSecondOrder::Inverse(a), FactorSecondOrder::Inverse(g)) => {
                precondition_inverse(a, g, grad)
            }
            // No (or partial) second-order state — a failed first
            // eigendecomposition exchange can leave a layer without any.
            // Degrade to the damped identity: `grad / (1 + γ)`, i.e.
            // damped SGD for this layer, and count it.
            _ => {
                self.identity_preconds
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if let Some((registry, _)) = &self.telemetry {
                    registry.counter("kfac/identity_preconds").inc();
                }
                let mut pg = grad.clone();
                pg.scale(1.0 / (1.0 + self.damping));
                pg
            }
        }
    }

    /// Phase: apply the KL-clip ν (Eq. 18) and write preconditioned
    /// gradients back into the layers. The clip couples all layers
    /// (ν sums over every `(pg, g)` pair), so this phase runs once,
    /// after every [`Kfac::precondition_one`] is done.
    pub fn apply_with_clip(
        &self,
        layers: &mut [&mut dyn KfacEligible],
        preconds: &[Matrix],
        grads: &[Matrix],
        lr: f32,
    ) {
        let nu = match self.cfg.kl_clip {
            Some(kappa) => kl_clip_nu(preconds.iter().zip(grads.iter()), kappa, lr),
            None => 1.0,
        };
        self.last_nu_bits
            .store((nu as f64).to_bits(), std::sync::atomic::Ordering::Relaxed);
        if let Some((registry, _)) = &self.telemetry {
            // Trajectory probes, once per iteration. Read-only over the
            // already-computed gradients; skipped entirely (norms never
            // even computed) when monitoring is off.
            registry.gauge("kfac/kl_nu").set(nu as f64);
            registry
                .gauge("kfac/staleness_age")
                .set(self.iteration.saturating_sub(self.last_eig_iter) as f64);
            // Per layer, then over layers in order.
            let squares =
                |m: &Matrix| -> f64 { m.as_slice().iter().map(|&v| (v as f64) * v as f64).sum() };
            let sq = |ms: &[Matrix]| ms.iter().fold(0.0f64, |acc, m| acc + squares(m));
            let (pg_sq, g_sq) = (sq(preconds), sq(grads));
            let ratio = if g_sq > 0.0 {
                (pg_sq / g_sq).sqrt()
            } else {
                0.0
            };
            self.precond_ratio_bits
                .store(ratio.to_bits(), std::sync::atomic::Ordering::Relaxed);
            registry.gauge("kfac/precond_ratio").set(ratio);
        }
        if nu == 1.0 {
            for (layer, pg) in layers.iter_mut().zip(preconds) {
                layer.set_grad_matrix(pg);
            }
            return;
        }
        // One scratch, sized for the largest layer, carries every ν·pg.
        let largest = preconds.iter().map(Matrix::len).max().unwrap_or(0);
        let mut scaled = arena::take_matrix(largest, 1);
        for (layer, pg) in layers.iter_mut().zip(preconds) {
            scaled.reset_for(pg.rows(), pg.cols());
            for (s, &p) in scaled.as_mut_slice().iter_mut().zip(pg.as_slice()) {
                *s = p * nu;
            }
            layer.set_grad_matrix(&scaled);
        }
        arena::recycle_matrix(scaled);
    }

    /// Serialize the complete optimizer state — iteration counters,
    /// schedules, running-average factors and second-order state — into
    /// a self-describing little-endian byte stream. Restoring the bytes
    /// with [`Kfac::restore_state`] on an identically-configured
    /// instance reproduces continued training bitwise, which is what
    /// checkpoint-based rank-loss recovery requires.
    pub fn save_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(b"KFAC");
        // Format version 3: packed averages (2 stored them n × n, 1 also
        // every eigenbasis).
        put_u64(&mut out, 3);
        put_u64(&mut out, self.iteration);
        put_u64(&mut out, self.epoch as u64);
        out.extend_from_slice(&self.damping.to_le_bytes());
        put_u64(&mut out, self.update_freq as u64);
        put_u64(&mut out, self.factor_updates);
        put_u64(&mut out, self.eig_updates);
        put_u64(&mut out, self.stale_factor_steps);
        put_u64(&mut out, self.eig_fallbacks);
        put_u64(
            &mut out,
            self.identity_preconds
                .load(std::sync::atomic::Ordering::Relaxed),
        );
        put_u64(&mut out, self.factors.len() as u64);
        for avg in &self.averages {
            out.push(u8::from(!avg.is_empty()));
            put_f32s(&mut out, avg);
        }
        for so in &self.second_order {
            match so {
                FactorSecondOrder::None => out.push(0),
                FactorSecondOrder::Eigen(Basis { eig: e, .. }) => {
                    out.push(1);
                    put_u64(&mut out, e.eigenvalues.len() as u64);
                    put_f32s(&mut out, &e.eigenvalues);
                    put_f32s(&mut out, e.eigenvectors.as_slice());
                }
                FactorSecondOrder::Inverse(m) => {
                    out.push(2);
                    put_f32s(&mut out, m.as_slice());
                }
            }
        }
        out
    }

    /// Restore state captured by [`Kfac::save_state`]. The instance
    /// must have been built from the same model shape and config
    /// (factor inventory must match). Errors on malformed or
    /// mismatched bytes, leaving `self` unspecified only in the
    /// already-consumed scalar fields.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), String> {
        let mut r = Reader::new(bytes, "kfac state");
        if r.take(4)? != b"KFAC" {
            return Err("not a kfac state blob".into());
        }
        if r.u64()? != 3 {
            return Err("unsupported kfac state version".into());
        }
        self.iteration = r.u64()?;
        self.epoch = r.u64()? as usize;
        self.damping = r.f32s(1)?[0];
        self.update_freq = match r.u64()? {
            // `KfacConfig::validate` forbids it, and no iteration is a
            // multiple of it: every later eig update would be skipped.
            0 => return Err("kfac state has update_freq 0".into()),
            freq => freq as usize,
        };
        self.factor_updates = r.u64()?;
        self.eig_updates = r.u64()?;
        self.stale_factor_steps = r.u64()?;
        self.eig_fallbacks = r.u64()?;
        self.identity_preconds = std::sync::atomic::AtomicU64::new(r.u64()?);
        let n_factors = r.u64()? as usize;
        if n_factors != self.factors.len() {
            return Err(format!(
                "kfac state has {n_factors} factors, model has {}",
                self.factors.len()
            ));
        }
        for id in 0..n_factors {
            let n = self.factors[id].dim;
            self.averages[id] = match r.u8()? {
                0 => Vec::new(),
                1 => r.f32s(n * (n + 1) / 2)?,
                t => return Err(format!("bad average tag {t}")),
            };
        }
        for id in 0..n_factors {
            let n = self.factors[id].dim;
            self.second_order[id] = match r.u8()? {
                0 => FactorSecondOrder::None,
                1 => {
                    let rank = r.u64()?;
                    if rank > n as u64 {
                        return Err(format!(
                            "eigenbasis rank {rank} of a {n}-dimensional factor"
                        ));
                    }
                    let rank = rank as usize;
                    let eig = EigenDecomposition {
                        eigenvalues: r.f32s(rank)?,
                        eigenvectors: Matrix::from_vec(n, rank, r.f32s(n * rank)?),
                    };
                    self.eigen_state(id, eig)
                }
                2 => FactorSecondOrder::Inverse(Matrix::from_vec(n, n, r.f32s(n * n)?)),
                t => return Err(format!("bad second-order tag {t}")),
            };
        }
        if !r.is_empty() {
            return Err("trailing bytes in kfac state".into());
        }
        // Probe state is not serialized (it never feeds the math); a
        // restored instance starts with fresh second-order state, so
        // staleness resets here.
        self.last_eig_iter = self.iteration;
        self.unexchanged_folds = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfac_collectives::ThreadComm;
    use kfac_nn::{layer::Mode, Conv2d, CrossEntropyLoss, Flatten, Linear, ReLU, Sequential};
    use kfac_tensor::{Rng64, Tensor4};

    /// Factor dimensions 7, 8, 9, 4.
    fn model() -> Sequential {
        let mut rng = Rng64::new(42);
        Sequential::from_layers(vec![
            Box::new(Linear::new("fc1", 6, 8, true, &mut rng)),
            Box::new(ReLU::new()),
            Box::new(Linear::new("fc2", 8, 4, true, &mut rng)),
        ])
    }

    /// `[rank][eigen update][factor]`: the packed running averages each
    /// rank held when an eigen update had just decomposed them.
    type Snapshots = Vec<Vec<Vec<Vec<f32>>>>;

    /// `iters` steps on a `world`-rank thread group, every rank on its own
    /// data, under the schedule in force (`eager` = the every-fold
    /// oracle). No optimizer runs, so the parameters — and with them every
    /// captured factor — are the same under both schedules and what
    /// differs is rounding alone.
    fn averages_at_eigen_updates(
        world: usize,
        cfg: &KfacConfig,
        eager: bool,
        iters: u64,
    ) -> Snapshots {
        std::thread::scope(|s| {
            let handles: Vec<_> = ThreadComm::create(world)
                .into_iter()
                .map(|comm| {
                    s.spawn(move || {
                        let mut m = model();
                        let mut kfac = Kfac::new(&mut m, cfg.clone());
                        kfac.exchange_every_fold = eager;
                        let mut snapshots = Vec::new();
                        for it in 0..iters {
                            let mut rng = Rng64::new(1000 * it + comm.rank() as u64);
                            let x = Tensor4::from_vec(
                                8,
                                6,
                                1,
                                1,
                                (0..48).map(|_| rng.normal_f32()).collect(),
                            );
                            let labels: Vec<usize> = (0..8).map(|i| i % 4).collect();
                            m.zero_grad();
                            m.set_capture(kfac.needs_capture());
                            let out = m.forward(&x, Mode::Train);
                            let (_, g) = CrossEntropyLoss::new().forward(&out, &labels);
                            let _ = m.backward(&g);
                            let decomposes = kfac.is_eig_iteration();
                            kfac.step(&mut m, &comm, 0.1);
                            if decomposes {
                                assert!(kfac.factors_in_sync());
                                snapshots.push(kfac.averages.clone());
                            }
                        }
                        snapshots
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// Largest entry-wise distance between two factors, relative to the
    /// reference's largest magnitude.
    fn distance(got: &[f32], reference: &[f32]) -> f64 {
        let scale = reference.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let diff = got
            .iter()
            .zip(reference)
            .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
        f64::from(diff) / f64::from(scale)
    }

    fn assert_replicas_agree(s: &Snapshots, what: &str) {
        for rank in &s[1..] {
            for (mine, theirs) in rank.iter().flatten().zip(s[0].iter().flatten()) {
                assert!(
                    mine == theirs,
                    "{what}: ranks decomposed different averages"
                );
            }
        }
    }

    /// The tentpole's claim. Exchanging the running averages once per
    /// eigen update hands every decomposition the averages that
    /// exchanging after every fold would have — the fold and the mean are
    /// both linear — up to rounding: within 4 ulp of the factor's largest
    /// entry on the f32 wire over four updates, five folds apart (measured:
    /// 0.8 ulp at world 2, 1.3 at world 4).
    #[test]
    fn lazy_exchange_matches_the_every_iteration_oracle() {
        let iters = 16; // eigen updates at 0, 5, 10, 15
        for world in [2, 4] {
            let cfg = KfacConfig {
                update_freq: 5,
                ..KfacConfig::default()
            };
            let lazy = averages_at_eigen_updates(world, &cfg, false, iters);
            let eager = averages_at_eigen_updates(world, &cfg, true, iters);
            assert_eq!(lazy[0].len(), 4);
            assert_replicas_agree(&lazy, "lazy");
            assert_replicas_agree(&eager, "oracle");
            let mut worst = 0.0f64;
            for (l, e) in lazy[0].iter().flatten().zip(eager[0].iter().flatten()) {
                worst = worst.max(distance(l, e));
            }
            assert!(
                worst <= 4.0 * f64::from(f32::EPSILON),
                "world {world}: f32 wire, {} ulp",
                worst / f64::from(f32::EPSILON)
            );
            assert!(worst > 0.0, "world {world}: the schedules never differed");
        }
    }

    /// Factor dimensions 28, 4 (a conv whose 288 positions span three
    /// blocks, the last one ragged) and 145, 3.
    fn conv_model() -> Sequential {
        let mut rng = Rng64::new(7);
        Sequential::from_layers(vec![
            Box::new(Conv2d::new("conv", 3, 4, 3, 1, 1, true, &mut rng)),
            Box::new(ReLU::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new("fc", 4 * 6 * 6, 3, true, &mut rng)),
        ])
    }

    /// One capturing forward + backward of `conv_model` on data of `seed`.
    fn capture(m: &mut Sequential, seed: u64) {
        let mut rng = Rng64::new(seed);
        let x = Tensor4::from_vec(
            8,
            3,
            6,
            6,
            (0..8 * 3 * 36).map(|_| rng.normal_f32()).collect(),
        );
        let labels: Vec<usize> = (0..8).map(|i| i % 3).collect();
        m.zero_grad();
        m.set_capture(true);
        let out = m.forward(&x, Mode::Train);
        let (_, g) = CrossEntropyLoss::new().forward(&out, &labels);
        let _ = m.backward(&g);
    }

    /// The upper-triangle fold keeps every bit of the two-pass fold it
    /// replaced (the layer's mirrored factors, then `axpby` over all `n²`
    /// entries of the unpacked average): on both ranks of a group, the
    /// saved state — the packed averages and the decompositions read from
    /// them — is byte-equal after the first fold, each warm fold, each
    /// factor exchange and decomposition, and each fold after a restore.
    #[test]
    fn upper_triangle_fold_matches_the_two_pass_oracle() {
        let cfg = KfacConfig {
            update_freq: 4,
            factor_freq_multiplier: 4,
            ..KfacConfig::default()
        };
        let fresh = |m: &mut Sequential, oracle: bool| {
            let mut k = Kfac::new(m, cfg.clone());
            k.two_pass_fold = oracle;
            k
        };
        std::thread::scope(|s| {
            for comm in ThreadComm::create(2) {
                s.spawn(move || {
                    let mut m = conv_model();
                    let mut kfacs = [fresh(&mut m, false), fresh(&mut m, true)];
                    let same = |kfacs: &[Kfac; 2], what: &str, it: u64| {
                        assert!(
                            kfacs[0].save_state() == kfacs[1].save_state(),
                            "rank {}: state differs after the {what} of iteration {it}",
                            comm.rank()
                        );
                    };
                    for it in 0..10 {
                        if it == 6 {
                            // Both resume from their own checkpoints.
                            kfacs = kfacs.map(|k| {
                                let mut resumed = fresh(&mut m, k.two_pass_fold);
                                resumed.restore_state(&k.save_state()).unwrap();
                                resumed
                            });
                        }
                        capture(&mut m, 100 * it + comm.rank() as u64);
                        let mut layers = Vec::new();
                        m.collect_kfac(&mut layers);
                        for k in &mut kfacs {
                            for (li, layer) in layers.iter().enumerate() {
                                k.factor_update_layer(li, &**layer);
                            }
                        }
                        same(&kfacs, "fold", it);
                        if kfacs[0].factor_exchange_due() {
                            for k in &mut kfacs {
                                let mut fused = k.factor_pack();
                                comm.allreduce_tagged(
                                    &mut fused,
                                    ReduceOp::Average,
                                    TrafficClass::Factor,
                                );
                                k.factor_unpack(&fused);
                            }
                            same(&kfacs, "exchange", it);
                        }
                        if kfacs[0].is_eig_iteration() {
                            for k in &mut kfacs {
                                for id in 0..k.factors().len() {
                                    k.eig_compute_one(id);
                                }
                            }
                            same(&kfacs, "decomposition", it);
                        }
                        for k in &mut kfacs {
                            k.advance();
                        }
                    }
                });
            }
        });
    }

    /// A running average is stored as its packed upper triangle: after
    /// one fold the state is the header, then per factor a tag and
    /// `n(n+1)/2` f32 words, then one tag per (still empty) second-order
    /// slot.
    #[test]
    fn saved_state_holds_each_average_as_its_packed_triangle() {
        let mut m = conv_model();
        let mut kfac = Kfac::new(&mut m, KfacConfig::default());
        capture(&mut m, 1);
        let mut layers = Vec::new();
        m.collect_kfac(&mut layers);
        for (li, layer) in layers.iter().enumerate() {
            kfac.factor_update_layer(li, &**layer);
        }
        let header = 4 + 10 * 8 + 4; // magic, ten u64 words, damping
        let factors = kfac.factors();
        let averages: usize = factors
            .iter()
            .map(|f| 1 + 4 * f.dim * (f.dim + 1) / 2)
            .sum();
        assert_eq!(kfac.save_state().len(), header + averages + factors.len());
    }

    /// Under -lw the owner map is the one the step decomposes with: both
    /// factors of layer `l` on rank `l mod world`.
    #[test]
    fn lw_eig_assignment_gives_both_factors_to_the_layer_owner() {
        let mut m = conv_model();
        let cfg = KfacConfig {
            strategy: crate::config::DistStrategy::Lw,
            ..KfacConfig::default()
        };
        let owners = Kfac::new(&mut m, cfg).eig_assignment(2);
        assert_eq!(owners.len(), 4, "two layers");
        for l in 0..2 {
            assert_eq!([owners[2 * l], owners[2 * l + 1]], [l % 2; 2], "layer {l}");
        }
    }
}
