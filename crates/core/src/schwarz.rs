//! The multiplicative Schwarz domain-decomposition preconditioner.
//!
//! This is the paper's `M` (Table I, lines 4-12): `ISchwarz` sweeps over
//! the two-colored domain grid; each domain is solved approximately by a
//! few MR iterations on its even-odd Schur complement; updated domains
//! immediately feed the residuals of the next half-sweep (multiplicative
//! variant). The additive variant (all domains updated from the same
//! frozen iterate) is provided for comparison.
//!
//! Every domain solve — serial, additive, pooled, and distributed
//! (`qdd-comm::dist_schwarz`) — runs on the one fused-tile engine of
//! [`domain_solve`](crate::domain_solve).
//!
//! The preconditioner is deliberately *stateless across applications* — it
//! returns `u ~= A^-1 f` from `u0 = 0` — exactly what a flexible outer
//! solver expects.

use crate::domain_solve::DomainSolver;
use crate::mr::MrConfig;
use crate::pool::{blocked_ranges, SharedSpinors, SpinBarrier, WorkerPool};
use qdd_dirac::wilson::WilsonClover;
use qdd_field::fields::SpinorField;
use qdd_lattice::{Dims, DomainColor, DomainGrid};
use qdd_util::complex::Real;
use qdd_util::stats::{Component, SolveStats};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Schwarz parameters (paper defaults: 8x4x4x4 blocks, ISchwarz = 16,
/// Idomain = 5).
#[derive(Copy, Clone, Debug)]
pub struct SchwarzConfig {
    /// Domain (block) extents.
    pub block: Dims,
    /// Number of full Schwarz sweeps (`ISchwarz`).
    pub i_schwarz: usize,
    /// MR block-solve parameters (`Idomain`).
    pub mr: MrConfig,
    /// Use the additive instead of the multiplicative method.
    pub additive: bool,
    /// Execute the Fig. 4b/4c communication-hiding schedule in the
    /// distributed sweep: boundary domains first, faces sent eagerly
    /// (t full, x/y/z in halves), receives drained before the dependent
    /// half-sweep. Ignored by the single-rank preconditioner. Overlap
    /// changes only *when* data moves, never the result.
    pub overlap: bool,
    /// Pack distributed halo faces as f16 on the wire, halving halo
    /// bytes under the overlap schedule (paper Sec. III-B extends the
    /// f16 storage choice to the preconditioner's communication).
    /// Ignored by the single-rank preconditioner. Off by default: f16
    /// faces round the exchanged boundary spinors, so existing f32-face
    /// solves stay bitwise untouched unless explicitly opted in.
    pub f16_faces: bool,
}

impl Default for SchwarzConfig {
    fn default() -> Self {
        Self {
            block: Dims::new(8, 4, 4, 4),
            i_schwarz: 16,
            mr: MrConfig { iterations: 5, tolerance: 0.0, f16_vectors: false },
            additive: false,
            overlap: true,
            f16_faces: false,
        }
    }
}

impl SchwarzConfig {
    /// Apply a tuned operating point from `qdd-autotune`: block geometry,
    /// `ISchwarz`, the MR iteration count (`Idomain`), and — when the
    /// tuned storage precision is `Half` — f16 halo faces, extending the
    /// compressed-storage choice to the preconditioner's wire traffic.
    /// The tuned prefetch mode applies to the fused *outer* operator
    /// (see `DdSolverConfig::with_tuned`); the block kernel here leaves
    /// prefetching to codegen.
    pub fn with_tuned(mut self, tuned: &qdd_autotune::TunedParams) -> Self {
        self.block = tuned.block;
        self.i_schwarz = tuned.i_schwarz;
        self.mr.iterations = tuned.i_domain;
        self.f16_faces = tuned.precision == qdd_machine::Precision::Half;
        self
    }
}

/// Which part of a face a send wave covers. Halves split the *masked*
/// (color-filtered) face-position list at `n.div_ceil(2)`; sender and
/// receiver derive the same split from their respective face masks, which
/// the global checkerboard keeps aligned across the rank boundary.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum FaceHalf {
    Full,
    First,
    Second,
}

impl FaceHalf {
    /// Sub-range of an `n`-entry masked face list this part covers.
    #[inline]
    pub fn range(self, n: usize) -> std::ops::Range<usize> {
        let mid = n.div_ceil(2);
        match self {
            FaceHalf::Full => 0..n,
            FaceHalf::First => 0..mid,
            FaceHalf::Second => mid..n,
        }
    }
}

/// One face send scheduled after a compute stage (both orientations of
/// `dir` are sent).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct SendSlot {
    pub dir: qdd_lattice::Dir,
    pub half: FaceHalf,
}

/// The executed Fig. 4 schedule for one color half-sweep: compute stages
/// (each a barrier epoch of domain solves) and the send wave posted at the
/// *start* of the following stage, so packing and sending interleave with
/// the next stage's domain solves.
///
/// Safety of the staging (the bitwise-identity argument): face sites
/// belong exclusively to boundary domains, all of which are solved in the
/// boundary stages; interior stages write only non-face sites; and
/// same-color domains are never adjacent, so reordering domains within a
/// half-sweep cannot change any update.
#[derive(Clone, Debug)]
pub struct ColorSchedule {
    /// Domain indices per stage; their disjoint union is the color's
    /// domain list (order within a stage follows the input list).
    pub stages: Vec<Vec<usize>>,
    /// `sends_after[i]` is posted once stage `i` has completed (during
    /// stage `i + 1` when one exists). Same length as `stages`.
    pub sends_after: Vec<Vec<SendSlot>>,
}

impl ColorSchedule {
    /// Total domains across all stages.
    pub fn num_domains(&self) -> usize {
        self.stages.iter().map(|s| s.len()).sum()
    }
}

/// Plan one color's Fig. 4b schedule over the local domain grid.
///
/// With `overlap` (and at least one split direction): stage 0 holds the
/// t-boundary domains (their faces — the t full-face send — go out first,
/// Fig. 4b), stage 1 the remaining x/y/z-boundary domains (first halves of
/// the x/y/z faces follow), stages 2 and 3 split the interior so the
/// second halves ride behind roughly half the remaining compute (Fig. 4c).
/// Without `overlap` (or with nothing split) the schedule degenerates to
/// one stage with every send posted after it — the legacy bulk exchange.
pub fn plan_color_schedule(
    grid: &DomainGrid,
    split: [bool; 4],
    color_domains: &[usize],
    overlap: bool,
) -> ColorSchedule {
    use qdd_lattice::Dir;
    let split_dirs: Vec<Dir> = Dir::ALL.into_iter().filter(|d| split[d.index()]).collect();
    if !overlap || split_dirs.is_empty() {
        let sends = split_dirs.iter().map(|&dir| SendSlot { dir, half: FaceHalf::Full }).collect();
        return ColorSchedule { stages: vec![color_domains.to_vec()], sends_after: vec![sends] };
    }
    let boundary_in = |idx: usize, d: Dir| {
        let c = grid.domain(idx).grid_coord[d];
        split[d.index()] && (c == 0 || c == grid.grid()[d] - 1)
    };
    let mut t_boundary = Vec::new();
    let mut xyz_boundary = Vec::new();
    let mut interior = Vec::new();
    for &idx in color_domains {
        if boundary_in(idx, Dir::T) {
            t_boundary.push(idx);
        } else if [Dir::X, Dir::Y, Dir::Z].iter().any(|&d| boundary_in(idx, d)) {
            xyz_boundary.push(idx);
        } else {
            interior.push(idx);
        }
    }
    let mid = interior.len().div_ceil(2);
    let interior_tail = interior.split_off(mid);
    let xyz_split: Vec<Dir> = split_dirs.iter().copied().filter(|&d| d != Dir::T).collect();
    let wave_t: Vec<SendSlot> = split_dirs
        .iter()
        .filter(|&&d| d == Dir::T)
        .map(|&dir| SendSlot { dir, half: FaceHalf::Full })
        .collect();
    let wave_first: Vec<SendSlot> =
        xyz_split.iter().map(|&dir| SendSlot { dir, half: FaceHalf::First }).collect();
    let wave_second: Vec<SendSlot> =
        xyz_split.iter().map(|&dir| SendSlot { dir, half: FaceHalf::Second }).collect();
    ColorSchedule {
        stages: vec![t_boundary, xyz_boundary, interior, interior_tail],
        sends_after: vec![wave_t, wave_first, wave_second, Vec::new()],
    }
}

/// The assembled preconditioner for one operator.
pub struct SchwarzPreconditioner<T: Real> {
    op: WilsonClover<T>,
    domains: DomainSolver<T>,
    grid: DomainGrid,
    cfg: SchwarzConfig,
    colors: [Vec<usize>; 2],
}

impl<T: Real> SchwarzPreconditioner<T> {
    /// Build from an operator (typically the f32 cast of the outer
    /// operator). Returns `None` if an odd-site clover block (the one the
    /// even-odd block solve inverts) is singular.
    ///
    /// # Panics
    /// If `cfg.block` has no compiled fused kernel (see
    /// [`qdd_lattice::fused_lanes`]).
    pub fn new(op: WilsonClover<T>, cfg: SchwarzConfig) -> Option<Self> {
        let grid = DomainGrid::new(*op.dims(), cfg.block);
        let domains = DomainSolver::new(&op, &grid, cfg.mr)?;
        let colors =
            [grid.domains_of_color(DomainColor::Black), grid.domains_of_color(DomainColor::White)];
        Some(Self { op, domains, grid, cfg, colors })
    }

    #[inline]
    pub fn op(&self) -> &WilsonClover<T> {
        &self.op
    }

    #[inline]
    pub fn grid(&self) -> &DomainGrid {
        &self.grid
    }

    #[inline]
    pub fn config(&self) -> &SchwarzConfig {
        &self.cfg
    }

    /// Apply the preconditioner serially: returns `u ~= A^-1 f`.
    pub fn apply(&self, f: &SpinorField<T>, stats: &mut SolveStats) -> SpinorField<T> {
        assert_eq!(f.dims(), self.op.dims());
        let mut u = SpinorField::zeros(*f.dims());
        let mut worker = self.domains.worker();
        let mut flops = 0.0;
        for _ in 0..self.cfg.i_schwarz {
            stats.span_begin(qdd_trace::Phase::SchwarzSweep);
            if self.cfg.additive {
                // All updates from the frozen iterate; domains are
                // disjoint, so each site of `du` is written once.
                let mut du = SpinorField::zeros(*f.dims());
                for dom_idx in 0..self.grid.num_domains() {
                    stats.span_begin(qdd_trace::Phase::DomainSolve);
                    flops +=
                        worker.solve(dom_idx, f, |g| self.op.apply_site_with(g, |i| *u.site(i)));
                    worker.scatter_add(|g, v| *du.site_mut(g) = v);
                    stats.span_end(qdd_trace::Phase::DomainSolve);
                }
                for (ui, di) in u.as_mut_slice().iter_mut().zip(du.as_slice()) {
                    *ui = ui.add(*di);
                }
            } else {
                for color in DomainColor::ALL {
                    stats.span_begin(qdd_trace::Phase::ColorSweep);
                    for &dom_idx in &self.colors[color as usize] {
                        stats.span_begin(qdd_trace::Phase::DomainSolve);
                        flops += worker
                            .solve(dom_idx, f, |g| self.op.apply_site_with(g, |i| *u.site(i)));
                        worker.scatter_add(|g, v| *u.site_mut(g) = u.site(g).add(v));
                        stats.span_end(qdd_trace::Phase::DomainSolve);
                    }
                    stats.span_end(qdd_trace::Phase::ColorSweep);
                }
            }
            stats.span_end(qdd_trace::Phase::SchwarzSweep);
        }
        stats.add_flops(Component::PreconditionerM, flops);
        u
    }

    /// Apply the preconditioner with the paper's threading model: the
    /// pool's workers process same-color domains concurrently, separated
    /// by barriers between half-sweeps. The pool is persistent — one job
    /// is dispatched per application instead of respawning a thread team
    /// per sweep.
    ///
    /// Produces bit-identical results to [`Self::apply`] for the
    /// multiplicative method (each site receives exactly one update per
    /// half-sweep, computed from data no concurrent worker writes). The
    /// additive method has no race-free parallel schedule here (every
    /// domain update reads the same input state but writes overlap-free
    /// only under the two-coloring), so it falls back to the serial path
    /// rather than panicking.
    pub fn apply_parallel(
        &self,
        f: &SpinorField<T>,
        pool: &WorkerPool,
        stats: &mut SolveStats,
    ) -> SpinorField<T> {
        if self.cfg.additive {
            return self.apply(f, stats);
        }
        let workers = pool.workers();
        // The data-race-freedom argument of `SharedSpinors` requires that
        // no two adjacent domains share a color. On a periodic domain grid
        // that holds iff every extent is even or 1 (an odd extent > 1 makes
        // the checkerboard wrap onto itself).
        for d in qdd_lattice::Dir::ALL {
            let e = self.grid.grid()[d];
            assert!(
                e.is_multiple_of(2) || e == 1,
                "domain grid extent {e} in {d} is odd: two-coloring breaks and \
                 parallel half-sweeps would race; use the serial apply() or an \
                 even number of domains per direction"
            );
        }
        assert_eq!(f.dims(), self.op.dims());
        let mut u = SpinorField::zeros(*f.dims());
        let shared = SharedSpinors::new(u.as_mut_slice());
        let barrier = SpinBarrier::new(workers);
        let worker_flops: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        // Workers record into per-thread lanes (tid = worker + 1; lane 0 is
        // the rank's main thread) and flush once at the end of the sweep.
        // Worker 0 runs on the calling thread but still records on lane 1:
        // the main lane stays free of preconditioner-internal events.
        let sink = stats.sink().clone();

        pool.run(&|w| {
            let sense = Cell::new(false);
            let mut rec = sink.thread(w as u32 + 1);
            rec.begin(qdd_trace::Phase::PoolJob);
            let mut worker = self.domains.worker();
            let mut flops = 0.0;
            for _ in 0..self.cfg.i_schwarz {
                for color in DomainColor::ALL {
                    rec.begin(qdd_trace::Phase::ColorSweep);
                    let list = &self.colors[color as usize];
                    let range = blocked_ranges(list.len(), workers)[w].clone();
                    for &dom_idx in &list[range] {
                        rec.begin(qdd_trace::Phase::DomainSolve);
                        // SAFETY: reads touch the domain (owned by
                        // this worker in this epoch) and its
                        // opposite-color neighbors (not written in
                        // this epoch); writes touch only the owned
                        // domain. See `SharedSpinors` contract.
                        let fetch = |i: usize| unsafe { shared.read(i) };
                        flops += worker.solve(dom_idx, f, |g| self.op.apply_site_with(g, fetch));
                        worker.scatter_add(|g, v| unsafe { shared.add(g, v) });
                        rec.end(qdd_trace::Phase::DomainSolve);
                    }
                    rec.end(qdd_trace::Phase::ColorSweep);
                    barrier.wait(&sense);
                }
            }
            rec.end(qdd_trace::Phase::PoolJob);
            rec.flush();
            worker_flops[w].store(flops.to_bits(), Ordering::Relaxed);
        });

        stats.add_flops(
            Component::PreconditionerM,
            worker_flops.iter().map(|b| f64::from_bits(b.load(Ordering::Relaxed))).sum(),
        );
        u
    }

    /// Nominal flops of one full preconditioner application (used by the
    /// machine model): per sweep and domain, one block residual, the MR
    /// solve, and the rhs/reconstruction steps.
    pub fn flops_per_application(&self) -> f64 {
        let v = self.cfg.block.volume() as f64;
        let per_domain = qdd_dirac::wilson::TOTAL_FLOPS_PER_SITE * v // residual
            + 2.0 * 924.0 * v                                        // rhs + reconstruction
            + self.cfg.mr.iterations as f64
                * (qdd_dirac::wilson::TOTAL_FLOPS_PER_SITE * v + 4.0 * 96.0 * v / 2.0);
        per_domain * self.grid.num_domains() as f64 * self.cfg.i_schwarz as f64
    }
}

/// Relative residual `||f - A u|| / ||f||` (diagnostic used by tests and
/// benches).
pub fn preconditioner_quality<T: Real>(
    op: &WilsonClover<T>,
    f: &SpinorField<T>,
    u: &SpinorField<T>,
) -> f64 {
    let mut au = SpinorField::zeros(*f.dims());
    op.apply(&mut au, u);
    let mut r = f.clone();
    r.sub_assign(&au);
    (r.norm_sqr().to_f64() / f.norm_sqr().to_f64()).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_dirac::clover::build_clover_field;
    use qdd_dirac::gamma::GammaBasis;
    use qdd_dirac::wilson::BoundaryPhases;
    use qdd_field::fields::GaugeField;
    use qdd_util::rng::Rng64;

    fn operator(dims: Dims, spread: f64, mass: f64, seed: u64) -> WilsonClover<f64> {
        let mut rng = Rng64::new(seed);
        let g = GaugeField::random(dims, &mut rng, spread);
        let basis = GammaBasis::degrand_rossi();
        let c = build_clover_field(&g, 1.5, &basis);
        WilsonClover::new(g, c, mass, BoundaryPhases::antiperiodic_t())
    }

    fn config(i_schwarz: usize, i_domain: usize, block: Dims) -> SchwarzConfig {
        SchwarzConfig {
            block,
            i_schwarz,
            mr: MrConfig { iterations: i_domain, tolerance: 0.0, f16_vectors: false },
            additive: false,
            overlap: true,
            ..Default::default()
        }
    }

    #[test]
    fn color_schedule_partitions_and_orders_boundary_first() {
        use qdd_lattice::{Dir, DomainColor};
        // 16x8x8x16 local lattice, 4^4 blocks: grid 4x2x2x4 — interior
        // domains exist in x and t.
        let grid = DomainGrid::new(Dims::new(16, 8, 8, 16), Dims::new(4, 4, 4, 4));
        let split = [true, false, false, true];
        let color_domains = grid.domains_of_color(DomainColor::Black);
        let sched = plan_color_schedule(&grid, split, &color_domains, true);
        assert_eq!(sched.stages.len(), 4);
        assert_eq!(sched.sends_after.len(), 4);
        // Disjoint union of the stages = the color list.
        let mut seen: Vec<usize> = sched.stages.iter().flatten().copied().collect();
        seen.sort_unstable();
        let mut expect = color_domains.clone();
        expect.sort_unstable();
        assert_eq!(seen, expect);
        // Stage 0 is exactly the t-boundary domains.
        for &idx in &sched.stages[0] {
            let c = grid.domain(idx).grid_coord[Dir::T];
            assert!(c == 0 || c == grid.grid()[Dir::T] - 1);
        }
        // Stage 1 domains touch a split x/y/z face but not the t face.
        for &idx in &sched.stages[1] {
            let d = grid.domain(idx);
            let cx = d.grid_coord[Dir::X];
            assert!(cx == 0 || cx == grid.grid()[Dir::X] - 1);
        }
        // Interior domains are split across the last two stages.
        assert!(!sched.stages[2].is_empty());
        assert!(sched.stages[2].len() >= sched.stages[3].len());
        // Send waves: t full after stage 0, x halves after stages 1 and 2.
        assert_eq!(sched.sends_after[0], vec![SendSlot { dir: Dir::T, half: FaceHalf::Full }]);
        assert_eq!(sched.sends_after[1], vec![SendSlot { dir: Dir::X, half: FaceHalf::First }]);
        assert_eq!(sched.sends_after[2], vec![SendSlot { dir: Dir::X, half: FaceHalf::Second }]);
        assert!(sched.sends_after[3].is_empty());
    }

    #[test]
    fn color_schedule_degenerates_without_overlap_or_split() {
        use qdd_lattice::{Dir, DomainColor};
        let grid = DomainGrid::new(Dims::new(8, 8, 8, 8), Dims::new(4, 4, 4, 4));
        let color_domains = grid.domains_of_color(DomainColor::White);
        // No overlap: one stage, all sends after it.
        let sched = plan_color_schedule(&grid, [true, true, false, false], &color_domains, false);
        assert_eq!(sched.stages, vec![color_domains.clone()]);
        assert_eq!(
            sched.sends_after,
            vec![vec![
                SendSlot { dir: Dir::X, half: FaceHalf::Full },
                SendSlot { dir: Dir::Y, half: FaceHalf::Full },
            ]]
        );
        // Nothing split: no sends at all, single stage.
        let sched = plan_color_schedule(&grid, [false; 4], &color_domains, true);
        assert_eq!(sched.stages, vec![color_domains.clone()]);
        assert_eq!(sched.sends_after, vec![Vec::new()]);
    }

    #[test]
    fn face_half_ranges_cover_exactly() {
        for n in [0usize, 1, 2, 7, 256] {
            let first = FaceHalf::First.range(n);
            let second = FaceHalf::Second.range(n);
            assert_eq!(first.end, second.start);
            assert_eq!(FaceHalf::Full.range(n), 0..n);
            assert_eq!(first.len() + second.len(), n);
            // The first half is never smaller than the second (div_ceil).
            assert!(first.len() >= second.len());
        }
    }

    #[test]
    fn preconditioner_reduces_residual() {
        let dims = Dims::new(8, 8, 4, 4);
        let op = operator(dims, 0.4, 0.3, 51);
        let block = Dims::new(4, 4, 2, 2);
        let mut rng = Rng64::new(52);
        let f = SpinorField::<f64>::random(dims, &mut rng);

        let mut prev = 1.0;
        for sweeps in [1, 2, 4, 8] {
            let pre =
                SchwarzPreconditioner::new(operator(dims, 0.4, 0.3, 51), config(sweeps, 4, block))
                    .unwrap();
            let mut stats = SolveStats::new();
            let u = pre.apply(&f, &mut stats);
            let q = preconditioner_quality(&op, &f, &u);
            assert!(q < prev, "sweeps={sweeps}: {q} !< {prev}");
            prev = q;
        }
        // After 8 sweeps the residual must be substantially reduced.
        assert!(prev < 0.2, "rel residual {prev}");
    }

    #[test]
    fn multiplicative_beats_additive() {
        let dims = Dims::new(8, 8, 4, 4);
        let block = Dims::new(4, 4, 2, 2);
        let mut rng = Rng64::new(53);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let op = operator(dims, 0.4, 0.3, 54);

        let mut mult_cfg = config(4, 4, block);
        let mut add_cfg = config(4, 4, block);
        add_cfg.additive = true;
        mult_cfg.additive = false;

        let pre_m = SchwarzPreconditioner::new(operator(dims, 0.4, 0.3, 54), mult_cfg).unwrap();
        let pre_a = SchwarzPreconditioner::new(operator(dims, 0.4, 0.3, 54), add_cfg).unwrap();
        let mut stats = SolveStats::new();
        let qm = preconditioner_quality(&op, &f, &pre_m.apply(&f, &mut stats));
        let qa = preconditioner_quality(&op, &f, &pre_a.apply(&f, &mut stats));
        assert!(qm < qa, "multiplicative {qm} !< additive {qa}");
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let dims = Dims::new(8, 8, 4, 4);
        let block = Dims::new(4, 4, 2, 2);
        let mut rng = Rng64::new(55);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let pre =
            SchwarzPreconditioner::new(operator(dims, 0.5, 0.2, 56), config(3, 4, block)).unwrap();
        let mut stats = SolveStats::new();
        let serial = pre.apply(&f, &mut stats);
        for workers in [1, 2, 3, 8] {
            let pool = WorkerPool::new(workers);
            let mut pstats = SolveStats::new();
            let parallel = pre.apply_parallel(&f, &pool, &mut pstats);
            assert_eq!(serial.as_slice(), parallel.as_slice(), "workers={workers} diverged");
            // Flop accounting identical too.
            assert!(
                (stats.flops(Component::PreconditionerM)
                    - pstats.flops(Component::PreconditionerM))
                .abs()
                    < 1.0
            );
            assert_eq!(pool.jobs_dispatched(), 1, "one pool job per application");
        }
    }

    #[test]
    fn additive_parallel_falls_back_to_serial() {
        // Regression: the parallel entry point used to panic on additive
        // configs; it must now produce the serial result bitwise.
        let dims = Dims::new(8, 8, 4, 4);
        let block = Dims::new(4, 4, 2, 2);
        let mut cfg = config(3, 4, block);
        cfg.additive = true;
        let pre = SchwarzPreconditioner::new(operator(dims, 0.5, 0.2, 60), cfg).unwrap();
        let mut rng = Rng64::new(61);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let mut stats = SolveStats::new();
        let serial = pre.apply(&f, &mut stats);
        let pool = WorkerPool::new(4);
        let mut pstats = SolveStats::new();
        let parallel = pre.apply_parallel(&f, &pool, &mut pstats);
        assert_eq!(serial.as_slice(), parallel.as_slice());
        // The fallback never dispatches a pool job.
        assert_eq!(pool.jobs_dispatched(), 0);
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let dims = Dims::new(8, 4, 4, 4);
        let pre = SchwarzPreconditioner::new(
            operator(dims, 0.5, 0.2, 57),
            config(2, 3, Dims::new(4, 2, 2, 2)),
        )
        .unwrap();
        let f = SpinorField::<f64>::zeros(dims);
        let mut stats = SolveStats::new();
        let u = pre.apply(&f, &mut stats);
        assert_eq!(u.norm_sqr(), 0.0);
    }

    #[test]
    fn stats_record_flops() {
        let dims = Dims::new(8, 4, 4, 4);
        let pre = SchwarzPreconditioner::new(
            operator(dims, 0.5, 0.2, 58),
            config(2, 3, Dims::new(4, 2, 2, 2)),
        )
        .unwrap();
        let mut rng = Rng64::new(59);
        let f = SpinorField::<f64>::random(dims, &mut rng);
        let mut stats = SolveStats::new();
        let _ = pre.apply(&f, &mut stats);
        let recorded = stats.flops(Component::PreconditionerM);
        assert!(recorded > 0.0);
        // Within 25% of the nominal estimate (boundary effects et al.).
        let nominal = pre.flops_per_application();
        let ratio = recorded / nominal;
        assert!((0.5..1.5).contains(&ratio), "recorded/nominal = {ratio}");
    }
}
