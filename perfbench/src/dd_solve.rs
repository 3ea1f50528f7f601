//! `dd-solve`: the paper's production path, single rank.
//! `DdSolver::solve` with the Table I configuration, f16-compressed gauge
//! and clover in `M`, and a two-worker pool.
//!
//! The traced run rebuilds the same solve from the public calls
//! `DdSolver::solve` makes (`fgmres_dr_with_workspace` over a
//! `FusedSystem`, `SchwarzPreconditioner::apply_parallel` as the
//! preconditioner) with timing wrappers around them, and checks that it
//! reproduces the untraced solve bit for bit.

use crate::inputs::{self, TOLERANCE};
use crate::layers::{self, LayerModel, LayerSplit, Layers, TimedSys};
use crate::report::Report;
use crate::solves::{
    self, check_bitwise, check_solution, print_decomposition, record_no_comm, record_no_serve,
};
use crate::{host, Args};
use qdd_core::{
    fgmres_dr_with_workspace, DdSolver, DdSolverConfig, FgmresConfig, FusedSystem, Precision,
    SchwarzConfig, SchwarzPreconditioner, SolveOutcome, WorkerPool, WorkspacePool,
};
use qdd_dirac::fused_full::{build_full_operator_tuned, FullOperator, FusedTuning};
use qdd_dirac::wilson::WilsonClover;
use qdd_field::fields::{CloverFieldF16, GaugeField, GaugeFieldF16, SpinorField};
use qdd_lattice::Dims;
use qdd_util::stats::SolveStats;
use std::time::Instant;

/// Global lattice of `dd-solve` and `dd-dist`.
pub fn dims() -> Dims {
    Dims::new(16, 8, 8, 8)
}
/// Quark mass of `dd-solve` and `dd-dist`. Every seed and source tried
/// converges in 3 iterations here, far from the tolerance boundary.
/// Nearer the critical mass the count flips between seeds and sources
/// (4 or 5 at m = -0.1, 9 to 13 at m = -0.15), which would move
/// `solve_s` by 25-40% with the seed.
pub const MASS: f64 = 0.1;
/// Seed stream of the gauge field and sources (shared with `dd-dist`, so
/// both workloads solve the same global problem).
pub const STREAM: u64 = 1;
/// Pool workers of the single-rank solve.
pub const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 20;

/// The paper's Table I solver: FGMRES-DR (basis 10, deflate 4) around the
/// default Schwarz preconditioner (8x4x4x4 domains, ISchwarz 16, Idomain
/// 5), f16-compressed gauge and clover.
pub fn solver_config(workers: usize) -> DdSolverConfig {
    DdSolverConfig {
        fgmres: FgmresConfig {
            max_basis: 10,
            deflate: 4,
            tolerance: TOLERANCE,
            max_iterations: 2000,
        },
        schwarz: SchwarzConfig::default(),
        precision: Precision::HalfCompressed,
        workers,
        ..Default::default()
    }
}

/// The single-precision operator of `M`, derived from `op` as
/// `DdSolver::new` and `dd_solve_distributed` derive it.
pub fn preconditioner_operator(op: &WilsonClover<f64>, precision: Precision) -> WilsonClover<f32> {
    match precision {
        Precision::Single => op.cast::<f32>(),
        Precision::HalfCompressed => {
            let g16 = GaugeFieldF16::compress(&op.gauge().cast()).decompress();
            let c16 = CloverFieldF16::compress(&op.clover().cast()).decompress();
            WilsonClover::new(g16, c16, op.mass() as f32, *op.phases())
        }
    }
}

/// The pieces `DdSolver::new` assembles, built from the same public
/// calls and timed one by one.
pub struct DdParts {
    pub op: WilsonClover<f64>,
    pub pre: SchwarzPreconditioner<f32>,
    pub fused: Option<Box<dyn FullOperator<f64>>>,
    pub fgmres: FgmresConfig,
    pub clover_s: f64,
    pub schwarz_s: f64,
    pub fused_s: f64,
}

impl DdParts {
    pub fn build(gauge: GaugeField<f64>, mass: f64, cfg: &DdSolverConfig) -> Self {
        let (clover, clover_s) = inputs::clover(&gauge);
        let op = inputs::operator(gauge, clover, mass);
        let t0 = Instant::now();
        let pre =
            SchwarzPreconditioner::new(preconditioner_operator(&op, cfg.precision), cfg.schwarz)
                .expect("singular clover block");
        let schwarz_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let fused = build_full_operator_tuned(&op, FusedTuning::default());
        let fused_s = t0.elapsed().as_secs_f64();
        Self { op, pre, fused, fgmres: cfg.fgmres, clover_s, schwarz_s, fused_s }
    }

    /// One solve through the calls `DdSolver::solve` makes, with `pool`'s
    /// worker count, timed layer by layer into `layers`.
    pub fn traced_solve(
        &self,
        pool: &WorkerPool,
        ws: &mut WorkspacePool<f64>,
        b: &SpinorField<f64>,
        layers: &Layers,
    ) -> (SpinorField<f64>, SolveOutcome, SolveStats, f64) {
        let mut stats = SolveStats::new();
        let t0 = Instant::now();
        let sys = FusedSystem::new(&self.op, self.fused.as_deref(), pool);
        let timed = TimedSys::new(&sys, layers);
        let pre = &self.pre;
        let mut precond = |r: &SpinorField<f64>, st: &mut SolveStats| -> SpinorField<f64> {
            layers.schwarz(st, |st| {
                let r32: SpinorField<f32> = r.cast();
                let u32 = if pool.workers() > 1 {
                    pre.apply_parallel(&r32, pool, st)
                } else {
                    pre.apply(&r32, st)
                };
                u32.cast()
            })
        };
        let (x, out) =
            fgmres_dr_with_workspace(&timed, b, &mut precond, &self.fgmres, ws, &mut stats);
        (x, out, stats, t0.elapsed().as_secs_f64())
    }

    /// Computed bytes one outer operator application streams.
    pub fn dirac_bytes_per_call(&self) -> f64 {
        self.fused
            .as_ref()
            .map_or(0.0, |f| (f.streamed_bytes_per_site() * self.op.dims().volume()) as f64)
    }

    /// Domain solves per preconditioner call, per worker.
    pub fn domain_solves_per_call(&self, workers: usize) -> f64 {
        (self.pre.grid().num_domains() * self.pre.config().i_schwarz) as f64 / workers as f64
    }
}

pub fn run(args: &Args, rep: &mut Report) {
    let cfg = solver_config(WORKERS);
    print_decomposition(rep, dims(), Dims::new(1, 1, 1, 1), Some(cfg.schwarz.block), 0.0);
    rep.line(format!(
        "problem: {} at m = {MASS}, tolerance {TOLERANCE:e}, f16-compressed M, {WORKERS} workers",
        dims()
    ));
    let gauge = inputs::gauge(dims(), args.seed, STREAM);
    let b = |i: u64| inputs::source(dims(), args.seed, STREAM, i);
    if rep.traced() {
        return traced(args, rep, gauge);
    }

    let (solver, setup_s) = solves::repeated_setup(
        SETUP_REPS,
        || gauge.clone(),
        |g| {
            let (clover, _) = inputs::clover(&g);
            DdSolver::new(inputs::operator(g, clover, MASS), cfg).expect("singular clover block")
        },
    );

    // Warm-up: fills the workspace pool and the caches.
    let b0 = b(0);
    let (x, out) = solver.solve(&b0, &mut SolveStats::new());
    check_solution(rep, "warm-up solve", solver.op(), &x, &b0, &out);
    rep.line(format!(
        "warm-up: {} iterations, residual {:.3e}",
        out.iterations, out.relative_residual
    ));

    let timed = solves::timed(args.seconds, |i| {
        let bi = b(i);
        let t0 = Instant::now();
        let (x, out) = solver.solve(&bi, &mut SolveStats::new());
        let t = t0.elapsed().as_secs_f64();
        let ok = check_solution(rep, "solve", solver.op(), &x, &bi, &out);
        (t, out, ok)
    });
    solves::record(rep, &timed, setup_s);
}

fn traced(args: &Args, rep: &mut Report, gauge: GaugeField<f64>) {
    let triad = host::triad_reference(rep);
    let cfg = solver_config(WORKERS);
    let parts = DdParts::build(gauge.clone(), MASS, &cfg);
    let (clover, _) = inputs::clover(&gauge);
    let solver =
        DdSolver::new(inputs::operator(gauge, clover, MASS), cfg).expect("singular clover block");
    let pool = WorkerPool::new(WORKERS);
    let mut ws = WorkspacePool::new();
    let b = |i: u64| inputs::source(dims(), args.seed, STREAM, i);

    // Warm both paths up on the first source.
    let b0 = b(0);
    let (x0, out0) = solver.solve(&b0, &mut SolveStats::new());
    let (x1, out1, _, _) = parts.traced_solve(&pool, &mut ws, &b0, &Layers::default());
    check_solution(rep, "warm-up solve", &parts.op, &x0, &b0, &out0);
    check_bitwise(rep, "warm-up", (&x0, &out0), (&x1, &out1));

    // Alternate untraced and traced solves of the same sources.
    let mut splits = Vec::new();
    let mut first = None;
    solves::alternate(rep, args.seconds, |rep, i| {
        let bi = b(i);
        let t0 = Instant::now();
        let (x0, out0) = solver.solve(&bi, &mut SolveStats::new());
        let plain = t0.elapsed().as_secs_f64();
        let layers = Layers::default();
        let (x1, out1, stats, wall) = parts.traced_solve(&pool, &mut ws, &bi, &layers);
        check_solution(rep, "solve", &parts.op, &x1, &bi, &out1);
        check_bitwise(rep, "traced solve", (&x0, &out0), (&x1, &out1));
        splits.push(LayerSplit::new(wall, out1.iterations, &stats, &layers));
        first.get_or_insert((bi, x1));
        (plain, wall)
    });
    let model = LayerModel {
        dirac_flops_per_call: parts.op.apply_flops(),
        dirac_bytes_per_call: parts.dirac_bytes_per_call(),
        domain_solves_per_call: parts.domain_solves_per_call(WORKERS),
        triad_gbps: triad,
    };
    layers::record(rep, &LayerSplit::combine(&splits), &model);

    // Single-worker baseline on the first timed source: worker-count
    // determinism on the production path, and the preconditioner speedup.
    let (b1, x2w) = first.expect("at least one traced solve");
    let pool1 = WorkerPool::new(1);
    let layers1 = Layers::default();
    let (x1w, out1w, _, _) = parts.traced_solve(&pool1, &mut WorkspacePool::new(), &b1, &layers1);
    check_solution(rep, "single-worker solve", &parts.op, &x1w, &b1, &out1w);
    if inputs::field_bits(&x1w) != inputs::field_bits(&x2w) {
        rep.problem("single-worker solution differs from the two-worker solution");
    }
    rep.metric("schwarz.speedup_2w", layers1.schwarz_s.get() / splits[0].schwarz_s);

    record_no_comm(rep);
    rep.metric("setup.clover_s", parts.clover_s);
    rep.metric("setup.schwarz_s", parts.schwarz_s);
    rep.metric("setup.fused_s", parts.fused_s);
    record_no_serve(rep);
    rep.metric("host.triad_gbps", triad);
}
