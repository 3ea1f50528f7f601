//! The deterministic parameter search.
//!
//! The tuner enumerates block geometry × precision × prefetch mode ×
//! `i_schwarz` × `i_domain` in a canonical order, scores each candidate
//! with the backend's multi-node model under the Eq. 6 load-balance and
//! Fig. 4 (`cores <= ndomain/2`) hiding constraints, and ranks by
//! calibrated predicted time. Evaluation order is shuffled by a seeded
//! permutation — scoring is side-effect free, so the ranked plan is
//! bitwise identical for every seed and worker count; the shuffle (plus
//! the determinism tests) prove it.

use crate::calibrate::Calibration;
use crate::params::{fnv1a_u64, Rejection, TunePlan, TuneProblem, TunedParams};
use qdd_lattice::{load, Dims};
use qdd_machine::workload::DdParams;
use qdd_machine::{paper_block, BackendKind, Precision, PrefetchMode};
use qdd_trace::model::keys;
use qdd_trace::ModelJoin;
use qdd_util::rng::Rng64;

/// The discrete axes the search sweeps. Defaults bracket the paper's
/// hand-tuned point (`Is=16`, `Id=5`, 8x4x4x4 blocks).
#[derive(Clone, Debug)]
pub struct SearchSpace {
    pub i_schwarz: Vec<usize>,
    pub i_domain: Vec<usize>,
    pub precisions: Vec<Precision>,
    /// Block-volume bounds: small blocks drown in boundary work and
    /// barrier overhead, large blocks spill L2 and wreck the balance.
    pub min_block_volume: usize,
    pub max_block_volume: usize,
    /// Minimum block extent per direction. The site-fused even/odd SIMD
    /// layout (Sec. III-C) needs at least a 4-site extent to have an
    /// interior; 2-site slivers are all boundary and the real kernels
    /// cannot run them. The paper never uses an extent below 4.
    pub min_extent: usize,
}

impl Default for SearchSpace {
    fn default() -> Self {
        Self {
            i_schwarz: vec![4, 8, 12, 16, 20, 24],
            i_domain: vec![2, 3, 4, 5, 6, 8],
            precisions: vec![Precision::Single, Precision::Half],
            min_block_volume: 16,
            max_block_volume: 4096,
            min_extent: 4,
        }
    }
}

impl SearchSpace {
    /// Candidate Schwarz blocks for a local lattice: per-direction even
    /// divisors of the local extent, volume within bounds, tiling the
    /// local volume an *even* number of times so the red/black coloring
    /// exists, and an xy cross-section with a compiled fused kernel
    /// ([`qdd_lattice::fused_lanes`]). Canonically ordered (volume, then
    /// extents).
    pub fn blocks(&self, local: &Dims) -> Vec<Dims> {
        let axis_divisors: Vec<Vec<usize>> = (0..4)
            .map(|i| {
                let ext = local.0[i];
                (self.min_extent..=ext).filter(|&d| d % 2 == 0 && ext.is_multiple_of(d)).collect()
            })
            .collect();
        let mut out = Vec::new();
        for &bx in &axis_divisors[0] {
            for &by in &axis_divisors[1] {
                for &bz in &axis_divisors[2] {
                    for &bt in &axis_divisors[3] {
                        let block = Dims::new(bx, by, bz, bt);
                        let vb = block.volume();
                        if vb < self.min_block_volume || vb > self.max_block_volume {
                            continue;
                        }
                        if !local.volume().is_multiple_of(2 * vb)
                            || qdd_lattice::fused_lanes(&block).is_err()
                        {
                            continue;
                        }
                        out.push(block);
                    }
                }
            }
        }
        out.sort_by_key(|b| (b.volume(), b.0));
        out
    }
}

/// Iteration-response law: how the outer (FGMRES) iteration count reacts
/// to preconditioner strength. Anchored at the reference point
/// `Is=16, Id=5` (the paper's hand-set choice): sweep work
/// `w = Is * Id` relative to the reference scales iterations as
/// `base * (w_ref / w)^alpha` — a weaker preconditioner costs outer
/// iterations, a stronger one saves some, with diminishing returns
/// (`alpha < 1`). This is the model's stand-in for the convergence data
/// a production tuner would measure; the calibration loop replaces its
/// *timing* side with measurements, and `alpha` is deliberately
/// conservative.
#[derive(Copy, Clone, Debug)]
pub struct IterationModel {
    pub base_outer: usize,
    pub ref_work: f64,
    pub alpha: f64,
}

impl IterationModel {
    /// Anchor at the paper's reference strength.
    pub fn anchored(base_outer: usize) -> Self {
        Self { base_outer: base_outer.max(1), ref_work: 16.0 * 5.0, alpha: 0.5 }
    }

    /// Predicted outer iterations at a sweep strength.
    pub fn outer(&self, i_schwarz: usize, i_domain: usize) -> usize {
        let work = (i_schwarz * i_domain) as f64;
        let scaled = self.base_outer as f64 * (self.ref_work / work).powf(self.alpha);
        (scaled.ceil() as usize).clamp(1, 10 * self.base_outer)
    }
}

/// The autotuner: a backend, a search space, an iteration-response law,
/// constraint thresholds, a seed, and (optionally) a calibration learned
/// from measurements.
#[derive(Clone, Debug)]
pub struct Autotuner {
    pub backend: BackendKind,
    pub space: SearchSpace,
    /// Eq. 6 floor: candidates whose load average falls below this idle
    /// too many cores to be worth ranking.
    pub min_load: f64,
    pub seed: u64,
    pub calibration: Calibration,
}

impl Autotuner {
    pub fn new(backend: BackendKind) -> Self {
        Self {
            backend,
            space: SearchSpace::default(),
            min_load: 0.7,
            seed: 0x51ab_90dd,
            calibration: Calibration::identity(),
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_calibration(mut self, calibration: Calibration) -> Self {
        self.calibration = calibration;
        self
    }

    /// Learn a calibration from a measured-vs-predicted join (the
    /// "correct" step of predict → measure → correct). Subsequent
    /// [`tune`](Self::tune) calls rank with it.
    pub fn recalibrate(&mut self, join: &ModelJoin) {
        self.calibration = Calibration::from_join(join);
    }

    /// Score one candidate operating point against the constraints and
    /// the (calibrated) model.
    pub fn score(
        &self,
        problem: &TuneProblem,
        block: &Dims,
        precision: Precision,
        prefetch: PrefetchMode,
        i_schwarz: usize,
        i_domain: usize,
    ) -> Result<TunedParams, Rejection> {
        let local = problem.local();
        if !local.divisible_by(block) || !local.volume().is_multiple_of(2 * block.volume()) {
            return Err(Rejection::Geometry);
        }
        let iteration = IterationModel::anchored(problem.base_outer);
        let dd = DdParams::new(
            problem.max_basis,
            problem.deflate,
            i_schwarz,
            i_domain,
            iteration.outer(i_schwarz, i_domain),
        )
        .map_err(|_| Rejection::Invalid)?;

        let backend = self.backend.instance();
        let mut model = backend.multinode(precision, prefetch);
        if let Some(cores) = problem.cores {
            model.chip.cores = cores.max(1);
        }
        let cores = model.chip.cores;

        let ndom_color = load::ndomain(local.volume(), block.volume());
        let load_avg = load::load_average(ndom_color, cores);
        if load_avg < self.min_load {
            return Err(Rejection::Load);
        }
        // Fig. 4: hiding needs cores <= ndomain/2 (= domains per color).
        // Only binding when there is communication to hide.
        let can_hide = cores <= ndom_color;
        if problem.distributed() && !can_hide {
            return Err(Rejection::Hiding);
        }

        let b = model.dd_solve_with_block(&problem.dims, &problem.layout, &dd, block);
        let cal = &self.calibration;
        let time_a = cal.corrected(keys::DIRAC_APPLY, b.time_a);
        let time_m = cal.corrected(keys::SCHWARZ_SWEEP, b.time_m);
        let time_gs = cal.corrected(keys::GLOBAL_SUMS, b.time_gs);
        let predicted_total_s = time_a + time_m + time_gs + b.time_other;

        Ok(TunedParams {
            backend: self.backend,
            block: *block,
            precision,
            prefetch,
            i_schwarz,
            i_domain,
            outer_iterations: dd.outer_iterations,
            predicted_total_s,
            raw_total_s: b.total_time_s,
            predicted_m_gflops: b.gflops_knc[1],
            load: load_avg,
            can_hide,
        })
    }

    /// Score the backend's hand-set default operating point: the paper
    /// block, the backend's default precision/prefetch, `Is=16, Id=5`.
    pub fn score_default(&self, problem: &TuneProblem) -> Option<TunedParams> {
        let backend = self.backend.instance();
        self.score(
            problem,
            &paper_block(),
            backend.default_precision(),
            backend.default_prefetch(),
            16,
            5,
        )
        .ok()
    }

    /// Run the full search and return the ranked plan.
    ///
    /// Determinism: candidates are enumerated in canonical order, the
    /// *evaluation* order is a seeded Fisher–Yates permutation of that
    /// list (scoring is pure, so order cannot leak into results), and
    /// the final ranking sorts by `(predicted time, canonical key)` with
    /// `f64::total_cmp` — bitwise-identical output for any seed, worker
    /// count, or rerun.
    pub fn tune(&self, problem: &TuneProblem) -> TunePlan {
        let local = problem.local();
        let backend = self.backend.instance();

        let mut candidates: Vec<(Dims, Precision, PrefetchMode, usize, usize)> = Vec::new();
        for block in self.space.blocks(&local) {
            for &precision in &self.space.precisions {
                for &prefetch in backend.prefetch_modes() {
                    for &i_schwarz in &self.space.i_schwarz {
                        for &i_domain in &self.space.i_domain {
                            candidates.push((block, precision, prefetch, i_schwarz, i_domain));
                        }
                    }
                }
            }
        }

        // Seeded evaluation permutation (Fisher–Yates).
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        let mut rng = Rng64::new(self.seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }

        let mut ranked = Vec::new();
        let (mut rejected_load, mut rejected_hiding, mut rejected_invalid) = (0, 0, 0);
        for &i in &order {
            let (block, precision, prefetch, i_schwarz, i_domain) = candidates[i];
            match self.score(problem, &block, precision, prefetch, i_schwarz, i_domain) {
                Ok(p) => ranked.push(p),
                Err(Rejection::Load) => rejected_load += 1,
                Err(Rejection::Hiding) => rejected_hiding += 1,
                Err(Rejection::Invalid) => rejected_invalid += 1,
                Err(Rejection::Geometry) => {}
            }
        }
        ranked.sort_by(|a, b| {
            a.predicted_total_s.total_cmp(&b.predicted_total_s).then_with(|| a.key().cmp(&b.key()))
        });

        let mut fingerprint: u64 = 0xcbf29ce484222325;
        for p in &ranked {
            let (vol, dims, prec, pf, is, id) = p.key();
            for v in [vol as u64, dims[0] as u64, dims[1] as u64, dims[2] as u64, dims[3] as u64] {
                fingerprint = fnv1a_u64(fingerprint, v);
            }
            fingerprint = fnv1a_u64(fingerprint, prec as u64);
            fingerprint = fnv1a_u64(fingerprint, pf as u64);
            fingerprint = fnv1a_u64(fingerprint, is as u64);
            fingerprint = fnv1a_u64(fingerprint, id as u64);
            fingerprint = fnv1a_u64(fingerprint, p.predicted_total_s.to_bits());
        }

        TunePlan {
            backend: self.backend,
            problem: *problem,
            default_params: self.score_default(problem),
            evaluated: candidates.len(),
            rejected_load,
            rejected_hiding,
            rejected_invalid,
            seed: self.seed,
            fingerprint,
            ranked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_tile_locally_with_even_extents() {
        let space = SearchSpace::default();
        let local = Dims::new(24, 24, 12, 16);
        let blocks = space.blocks(&local);
        assert!(!blocks.is_empty());
        assert!(blocks.contains(&paper_block()));
        for b in &blocks {
            assert!(local.divisible_by(b), "{b}");
            assert!(b.0.iter().all(|&e| e % 2 == 0), "{b}");
            assert!(local.volume().is_multiple_of(2 * b.volume()), "{b}");
            let vb = b.volume();
            assert!((space.min_block_volume..=space.max_block_volume).contains(&vb));
        }
        // Canonical order: non-decreasing volume.
        for w in blocks.windows(2) {
            assert!(w[0].volume() <= w[1].volume());
        }
    }

    #[test]
    fn blocks_have_a_compiled_fused_kernel() {
        // 24x24 cross-sections offer 4x6, 6x4, 6x8, ... with lane counts
        // outside the compiled set; none may be proposed.
        let blocks = SearchSpace::default().blocks(&Dims::new(24, 24, 12, 16));
        for b in &blocks {
            let lanes = b.0[0] * b.0[1] / 2;
            assert!(qdd_lattice::FUSED_LANES.contains(&lanes), "{b}: {lanes} lanes");
        }
        assert!(!blocks.iter().any(|b| b.0[..2] == [4, 6]));
        assert!(blocks.iter().any(|b| b.0[..2] == [4, 4]));
    }

    #[test]
    fn iteration_law_is_anchored_and_monotone() {
        let law = IterationModel::anchored(198);
        // At the reference point the law returns the anchor.
        assert_eq!(law.outer(16, 5), 198);
        // Weaker preconditioning costs iterations, stronger saves.
        assert!(law.outer(8, 5) > 198);
        assert!(law.outer(24, 5) < 198);
        assert!(law.outer(16, 2) > law.outer(16, 8));
        // Clamped away from zero.
        assert!(law.outer(24, 8) >= 1);
    }

    #[test]
    fn tuner_finds_a_feasible_plan_on_the_paper_workload() {
        let problem = TuneProblem::paper_48(64).unwrap();
        for kind in BackendKind::ALL {
            let plan = Autotuner::new(kind).tune(&problem);
            assert!(plan.best().is_some(), "{kind}: empty plan");
            let default = plan.default_params.expect("paper block fits");
            let best = plan.best().unwrap();
            assert!(
                best.predicted_total_s <= default.predicted_total_s,
                "{kind}: best {} !<= default {}",
                best.predicted_total_s,
                default.predicted_total_s
            );
            // Every ranked candidate respects the constraints.
            for p in &plan.ranked {
                assert!(p.load >= 0.7 - 1e-12);
                assert!(p.can_hide);
            }
            // Ranking is non-decreasing in predicted time.
            for w in plan.ranked.windows(2) {
                assert!(w[0].predicted_total_s <= w[1].predicted_total_s);
            }
        }
    }

    #[test]
    fn seed_changes_evaluation_order_not_the_plan() {
        let problem = TuneProblem::paper_48(64).unwrap();
        let a = Autotuner::new(BackendKind::Knc7110p).with_seed(1).tune(&problem);
        let b = Autotuner::new(BackendKind::Knc7110p).with_seed(0xdead_beef).tune(&problem);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.ranked.len(), b.ranked.len());
        for (x, y) in a.ranked.iter().zip(&b.ranked) {
            assert_eq!(x.key(), y.key());
            assert_eq!(x.predicted_total_s.to_bits(), y.predicted_total_s.to_bits());
        }
    }

    #[test]
    fn calibration_rescales_the_ranking_scores() {
        let problem = TuneProblem::paper_48(64).unwrap();
        let base = Autotuner::new(BackendKind::Knc7110p).tune(&problem);
        let mut join = ModelJoin::new();
        // Pretend the machine runs the sweep 2x slower than predicted.
        join.record(keys::SCHWARZ_SWEEP, 2.0, 1.0);
        let mut tuner = Autotuner::new(BackendKind::Knc7110p);
        tuner.recalibrate(&join);
        let cal = tuner.tune(&problem);
        let b0 = base.best().unwrap();
        let c0 = cal.best().unwrap();
        // Calibrated scores exceed raw scores (the sweep dominates).
        assert!(c0.predicted_total_s > c0.raw_total_s);
        assert!(b0.predicted_total_s == b0.raw_total_s);
    }

    #[test]
    fn single_node_problems_tune_too() {
        // The serve shape: one rank, few workers, small lattice.
        let problem = TuneProblem::single_node(Dims::new(8, 8, 8, 8), 4, 24);
        let plan = Autotuner::new(BackendKind::Knc7110p).tune(&problem);
        let best = plan.best().expect("feasible");
        assert!(best.load >= 0.7);
        // Hiding constraint is vacuous on one rank.
        assert_eq!(plan.rejected_hiding, 0);
    }

    #[test]
    fn unbalanced_candidates_are_rejected_with_reasons() {
        let problem = TuneProblem::paper_48(128).unwrap();
        let tuner = Autotuner::new(BackendKind::Knc7110p);
        // 128 KNCs leave 54 domains per color with the paper block: fewer
        // than 60 cores, so the paper point cannot hide communication
        // there (cores > ndomain/2, Fig. 4).
        assert_eq!(
            tuner
                .score(&problem, &paper_block(), Precision::Half, PrefetchMode::L1L2, 16, 5)
                .unwrap_err(),
            Rejection::Hiding
        );
        let plan = tuner.tune(&problem);
        assert!(plan.rejected_hiding > 0);
        assert!(plan.rejected_load > 0);
        assert!(plan.default_params.is_none());
        // But smaller blocks restore balance, so the plan is not empty.
        assert!(plan.best().is_some());
    }
}
