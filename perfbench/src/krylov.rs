//! `krylov`: the paper's non-DD comparator. Double-precision `bicgstab`
//! on a `FusedSystem` (the fused full-lattice operator from
//! `build_full_operator`, a two-worker pool and the blocked BLAS). All the
//! time goes to the outer operator, BLAS and reductions; there is no `M`.

use crate::inputs::{self, TOLERANCE};
use crate::layers::{self, LayerModel, LayerSplit, Layers, TimedSys};
use crate::report::Report;
use crate::solves::{
    self, check_bitwise, check_solution, print_decomposition, record_no_comm, record_no_serve,
};
use crate::{host, Args};
use qdd_core::{bicgstab, BiCgStabConfig, FusedSystem, SolveOutcome, SystemOps, WorkerPool};
use qdd_dirac::fused_full::{build_full_operator, FullOperator};
use qdd_dirac::wilson::WilsonClover;
use qdd_field::fields::{GaugeField, SpinorField};
use qdd_lattice::Dims;
use qdd_util::stats::SolveStats;
use std::time::Instant;

pub fn dims() -> Dims {
    Dims::new(16, 16, 8, 8)
}
/// Every seed and source tried takes 52 to 58 BiCGstab iterations here;
/// at m = 0.1 the count ranges over 64 to 82 with the seed and the source.
pub const MASS: f64 = 0.2;
const STREAM: u64 = 3;
pub const WORKERS: usize = 2;
const SETUP_REPS: usize = 10;

const CONFIG: BiCgStabConfig = BiCgStabConfig { tolerance: TOLERANCE, max_iterations: 5000 };

/// A solver ready to run: operator, fused kernel and worker pool.
struct Ready {
    op: WilsonClover<f64>,
    fused: Option<Box<dyn FullOperator<f64>>>,
    pool: WorkerPool,
    clover_s: f64,
    fused_s: f64,
}

impl Ready {
    fn build(gauge: GaugeField<f64>) -> Self {
        let (clover, clover_s) = inputs::clover(&gauge);
        let op = inputs::operator(gauge, clover, MASS);
        let t0 = Instant::now();
        let fused = build_full_operator(&op);
        let fused_s = t0.elapsed().as_secs_f64();
        Self { op, fused, pool: WorkerPool::new(WORKERS), clover_s, fused_s }
    }

    fn solve<S: SystemOps<f64>>(
        &self,
        sys: &S,
        b: &SpinorField<f64>,
    ) -> (SpinorField<f64>, SolveOutcome, SolveStats) {
        let mut stats = SolveStats::new();
        let (x, out) = bicgstab(sys, b, &CONFIG, &mut stats);
        (x, out, stats)
    }

    fn system(&self) -> FusedSystem<'_, f64> {
        FusedSystem::new(&self.op, self.fused.as_deref(), &self.pool)
    }
}

pub fn run(args: &Args, rep: &mut Report) {
    print_decomposition(rep, dims(), Dims::new(1, 1, 1, 1), None, 0.0);
    rep.line(format!(
        "problem: {} at m = {MASS}, tolerance {TOLERANCE:e}, f64 BiCGstab, {WORKERS} workers",
        dims()
    ));
    let gauge = inputs::gauge(dims(), args.seed, STREAM);
    let b = |i: u64| inputs::source(dims(), args.seed, STREAM, i);
    if rep.traced() {
        return traced(args, rep, gauge);
    }

    let (ready, setup_s) = solves::repeated_setup(SETUP_REPS, || gauge.clone(), Ready::build);
    if ready.fused.is_none() {
        rep.problem("no fused operator for this geometry");
    }
    let sys = ready.system();

    let b0 = b(0);
    let (x, out, _) = ready.solve(&sys, &b0);
    check_solution(rep, "warm-up solve", &ready.op, &x, &b0, &out);
    rep.line(format!(
        "warm-up: {} iterations, residual {:.3e}",
        out.iterations, out.relative_residual
    ));

    let timed = solves::timed(args.seconds, |i| {
        let bi = b(i);
        let t0 = Instant::now();
        let (x, out, _) = ready.solve(&sys, &bi);
        let t = t0.elapsed().as_secs_f64();
        let ok = check_solution(rep, "solve", &ready.op, &x, &bi, &out);
        (t, out, ok)
    });
    solves::record(rep, &timed, setup_s);
}

fn traced(args: &Args, rep: &mut Report, gauge: GaugeField<f64>) {
    let triad = host::triad_reference(rep);
    let ready = Ready::build(gauge);
    let sys = ready.system();
    let b = |i: u64| inputs::source(dims(), args.seed, STREAM, i);

    let b0 = b(0);
    let (x0, out0, _) = ready.solve(&sys, &b0);
    let (x1, out1, _) = ready.solve(&TimedSys::new(&sys, &Layers::default()), &b0);
    check_solution(rep, "warm-up solve", &ready.op, &x0, &b0, &out0);
    check_bitwise(rep, "warm-up", (&x0, &out0), (&x1, &out1));

    let mut splits = Vec::new();
    solves::alternate(rep, args.seconds, |rep, i| {
        let bi = b(i);
        let t0 = Instant::now();
        let (x0, out0, _) = ready.solve(&sys, &bi);
        let plain = t0.elapsed().as_secs_f64();
        let layers = Layers::default();
        let t0 = Instant::now();
        let (x1, out1, stats) = ready.solve(&TimedSys::new(&sys, &layers), &bi);
        let wall = t0.elapsed().as_secs_f64();
        check_solution(rep, "solve", &ready.op, &x1, &bi, &out1);
        check_bitwise(rep, "traced solve", (&x0, &out0), (&x1, &out1));
        splits.push(LayerSplit::new(wall, out1.iterations, &stats, &layers));
        (plain, wall)
    });
    let model = LayerModel {
        dirac_flops_per_call: ready.op.apply_flops(),
        dirac_bytes_per_call: ready
            .fused
            .as_ref()
            .map_or(0.0, |f| (f.streamed_bytes_per_site() * dims().volume()) as f64),
        domain_solves_per_call: 0.0,
        triad_gbps: triad,
    };
    layers::record(rep, &LayerSplit::combine(&splits), &model);
    rep.metric("schwarz.speedup_2w", 0.0);
    record_no_comm(rep);
    rep.metric("setup.clover_s", ready.clover_s);
    rep.metric("setup.schwarz_s", 0.0);
    rep.metric("setup.fused_s", ready.fused_s);
    record_no_serve(rep);
    rep.metric("host.triad_gbps", triad);
}
