//! `dd-dist`: the `dd-solve` problem on a 1x1x1x2 rank grid, through
//! `dd_solve_distributed` under `run_spmd` (two rank threads with one
//! worker each, overlap on, f32 faces). The only workload that runs halo
//! exchange, all-reduce sums, the staged overlap schedule and
//! `DistSchwarz`.

use crate::dd_solve::{self, preconditioner_operator, MASS, STREAM};
use crate::inputs::{self, TOLERANCE};
use crate::layers::{self, LayerModel, LayerSplit, Layers, TimedSys};
use crate::report::{median, Report};
use crate::solves::{self, check_bitwise, check_solution, print_decomposition, record_no_serve};
use crate::{host, Args};
use qdd_comm::{
    dd_solve_distributed, face_bytes_per_site, gather_field, run_spmd, scatter_clover,
    scatter_field, scatter_gauge, CommWorld, DistDdConfig, DistSchwarz, DistSystem,
};
use qdd_core::{fgmres_dr_with_workspace, SchwarzConfig, SolveOutcome, WorkspacePool};
use qdd_dirac::fused_full::build_full_operator;
use qdd_dirac::wilson::WilsonClover;
use qdd_field::fields::{GaugeField, SpinorField};
use qdd_lattice::{Dims, DomainGrid, RankGrid};
use qdd_trace::CommStats;
use qdd_util::stats::SolveStats;
use std::time::Instant;

pub const RANKS: usize = 2;
fn ranks() -> Dims {
    Dims::new(1, 1, 1, RANKS)
}
const SETUP_REPS: usize = 20;

fn config() -> DistDdConfig {
    let serial = dd_solve::solver_config(1);
    DistDdConfig {
        fgmres: serial.fgmres,
        schwarz: SchwarzConfig { overlap: true, f16_faces: false, ..serial.schwarz },
        precision: serial.precision,
    }
}

/// Everything a distributed solve starts from: the rank grid and each
/// rank's local operator.
struct Ready {
    grid: RankGrid,
    ops: Vec<WilsonClover<f64>>,
    clover_s: f64,
}

impl Ready {
    /// Clover build, scatter of gauge and clover, and the local operators.
    fn build(gauge: &GaugeField<f64>) -> Self {
        let (clover, clover_s) = inputs::clover(gauge);
        let grid = RankGrid::new(dd_solve::dims(), ranks());
        let lg = scatter_gauge(gauge, &grid);
        let lc = scatter_clover(&clover, &grid);
        let ops = lg.into_iter().zip(lc).map(|(g, c)| inputs::operator(g, c, MASS)).collect();
        Self { grid, ops, clover_s }
    }

    /// One untraced distributed solve; returns the gathered solution,
    /// rank 0's outcome and the wall time of the SPMD call.
    fn solve(&self, b: &SpinorField<f64>) -> (SpinorField<f64>, SolveOutcome, f64) {
        let lb = scatter_field(b, &self.grid);
        let world = CommWorld::new(self.grid.clone());
        let cfg = config();
        let t0 = Instant::now();
        let res = run_spmd(&world, |ctx| {
            let r = ctx.rank();
            dd_solve_distributed(ctx, &self.ops[r], &lb[r], &cfg, &mut SolveStats::new())
        });
        let wall = t0.elapsed().as_secs_f64();
        let (xs, outs): (Vec<_>, Vec<_>) = res.into_iter().map(|(x, o, _)| (x, o)).unzip();
        let out = outs.into_iter().next().expect("rank 0 outcome");
        (gather_field(&xs, &self.grid), out, wall)
    }

    /// The same solve rebuilt from the calls `dd_solve_distributed`
    /// makes, with timing wrappers. Per rank: outcome, traffic, layer
    /// split and the `DistSchwarz::new` time; and the SPMD call's wall
    /// time.
    #[allow(clippy::type_complexity)]
    fn traced_solve(
        &self,
        b: &SpinorField<f64>,
    ) -> (SpinorField<f64>, Vec<(SolveOutcome, CommStats, LayerSplit, f64)>, f64) {
        let lb = scatter_field(b, &self.grid);
        let world = CommWorld::new(self.grid.clone());
        let cfg = config();
        let t0 = Instant::now();
        let res = run_spmd(&world, |ctx| {
            let r = ctx.rank();
            let op = &self.ops[r];
            let before = ctx.counters.snapshot();
            let t0 = Instant::now();
            let op32 = preconditioner_operator(op, cfg.precision);
            let pre = DistSchwarz::new(ctx, &op32, cfg.schwarz).expect("singular clover block");
            let schwarz_s = t0.elapsed().as_secs_f64();
            let sys = DistSystem::new(ctx, op).with_overlap(cfg.schwarz.overlap);
            let layers = Layers::default();
            let timed = TimedSys::new(&sys, &layers);
            let mut precond = |v: &SpinorField<f64>, st: &mut SolveStats| -> SpinorField<f64> {
                layers.schwarz(st, |st| {
                    let v32: SpinorField<f32> = v.cast();
                    pre.apply(&v32, st).cast()
                })
            };
            let mut stats = SolveStats::new();
            let t1 = Instant::now();
            let (x, out) = fgmres_dr_with_workspace(
                &timed,
                &lb[r],
                &mut precond,
                &cfg.fgmres,
                &mut WorkspacePool::new(),
                &mut stats,
            );
            let split =
                LayerSplit::new(t1.elapsed().as_secs_f64(), out.iterations, &stats, &layers);
            let comm = ctx.counters.snapshot().since(&before);
            (x, (out, comm, split, schwarz_s))
        });
        let wall = t0.elapsed().as_secs_f64();
        let (xs, per_rank): (Vec<_>, Vec<_>) = res.into_iter().unzip();
        (gather_field(&xs, &self.grid), per_rank, wall)
    }
}

/// The unsplit operator the gathered solutions are checked against.
fn global_operator(gauge: &GaugeField<f64>) -> WilsonClover<f64> {
    let (clover, _) = inputs::clover(gauge);
    inputs::operator(gauge.clone(), clover, MASS)
}

fn print_problem(rep: &Report) {
    let cfg = config();
    print_decomposition(
        rep,
        dd_solve::dims(),
        ranks(),
        Some(cfg.schwarz.block),
        face_bytes_per_site::<f64>(),
    );
    rep.line(format!(
        "problem: {} at m = {MASS}, tolerance {TOLERANCE:e}, f16-compressed M, overlap on, f32 faces",
        dd_solve::dims()
    ));
}

pub fn run(args: &Args, rep: &mut Report) {
    print_problem(rep);
    let gauge = inputs::gauge(dd_solve::dims(), args.seed, STREAM);
    let b = |i: u64| inputs::source(dd_solve::dims(), args.seed, STREAM, i);
    if rep.traced() {
        return traced(args, rep, &gauge);
    }

    let (ready, setup_s) = solves::repeated_setup(SETUP_REPS, || (), |()| Ready::build(&gauge));
    let global = global_operator(&gauge);

    let b0 = b(0);
    let (x, out, _) = ready.solve(&b0);
    check_solution(rep, "warm-up solve", &global, &x, &b0, &out);
    rep.line(format!(
        "warm-up: {} iterations, residual {:.3e}",
        out.iterations, out.relative_residual
    ));

    let timed = solves::timed(args.seconds, |i| {
        let bi = b(i);
        let (x, out, wall) = ready.solve(&bi);
        let ok = check_solution(rep, "solve", &global, &x, &bi, &out);
        (wall, out, ok)
    });
    solves::record(rep, &timed, setup_s);
}

fn traced(args: &Args, rep: &mut Report, gauge: &GaugeField<f64>) {
    let triad = host::triad_reference(rep);
    let ready = Ready::build(gauge);
    let global = global_operator(gauge);
    let b = |i: u64| inputs::source(dd_solve::dims(), args.seed, STREAM, i);

    let b0 = b(0);
    let (x0, out0, _) = ready.solve(&b0);
    let (x1, ranks1, _) = ready.traced_solve(&b0);
    check_solution(rep, "warm-up solve", &global, &x0, &b0, &out0);
    check_bitwise(rep, "warm-up", (&x0, &out0), (&x1, &ranks1[0].0));

    let mut splits = Vec::new();
    let mut comms: Vec<CommStats> = Vec::new();
    let mut schwarz_setup = Vec::new();
    solves::alternate(rep, args.seconds, |rep, i| {
        let bi = b(i);
        let (x0, out0, plain) = ready.solve(&bi);
        let (x1, per_rank, wall) = ready.traced_solve(&bi);
        check_solution(rep, "solve", &global, &x1, &bi, &per_rank[0].0);
        for (r, (out, ..)) in per_rank.iter().enumerate() {
            check_bitwise(rep, &format!("traced solve, rank {r}"), (&x0, &out0), (&x1, out));
        }
        // The slowest rank sets the time: its split is the solve's split,
        // and traffic is the maximum over ranks.
        let slowest = per_rank
            .iter()
            .max_by(|a, b| a.2.solve_s.total_cmp(&b.2.solve_s))
            .expect("at least one rank");
        splits.push(slowest.2.clone());
        let mut comm = per_rank[0].1.clone();
        for (_, c, _, _) in &per_rank[1..] {
            comm.bytes_sent = comm.bytes_sent.max(c.bytes_sent);
            comm.messages_sent = comm.messages_sent.max(c.messages_sent);
            comm.reductions = comm.reductions.max(c.reductions);
            comm.recv_wait_s = comm.recv_wait_s.max(c.recv_wait_s);
            comm.faults.retries = comm.faults.retries.max(c.faults.retries);
            comm.faults.timeouts = comm.faults.timeouts.max(c.faults.timeouts);
        }
        comms.push(comm);
        schwarz_setup.push(per_rank.iter().map(|p| p.3).fold(0.0, f64::max));
        (plain, wall)
    });
    let local = *ready.grid.local();
    let cfg = config();
    let model = LayerModel {
        dirac_flops_per_call: ready.ops[0].apply_flops(),
        dirac_bytes_per_call: build_full_operator(&ready.ops[0])
            .map_or(0.0, |f| (f.streamed_bytes_per_site() * local.volume()) as f64),
        domain_solves_per_call: (DomainGrid::new(local, cfg.schwarz.block).num_domains()
            * cfg.schwarz.i_schwarz) as f64,
        triad_gbps: triad,
    };
    layers::record(rep, &LayerSplit::combine(&splits), &model);
    rep.metric("schwarz.speedup_2w", 0.0);
    let c = &comms[0];
    rep.metric("comm.bytes_sent", c.bytes_sent);
    rep.metric("comm.messages", c.messages_sent as f64);
    rep.metric("comm.reductions", c.reductions as f64);
    rep.metric(
        "comm.recv_wait_s",
        comms.iter().map(|c| c.recv_wait_s).sum::<f64>() / comms.len() as f64,
    );
    rep.metric("comm.retries", c.faults.retries as f64);
    rep.metric("comm.timeouts", c.faults.timeouts as f64);
    rep.metric("setup.clover_s", ready.clover_s);
    rep.metric("setup.schwarz_s", median(&schwarz_setup));
    rep.metric("setup.fused_s", 0.0);
    record_no_serve(rep);
    rep.metric("host.triad_gbps", triad);
}
