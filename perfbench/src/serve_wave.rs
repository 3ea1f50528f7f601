//! `serve-wave`: the single-world `serve` with one service worker. One
//! client thread submits a burst of requests round-robin over eight
//! synthetic configurations, then waits on every ticket: a loop closed at
//! the level of the wave, like a propagator campaign. The setup cache
//! holds half the configurations, so set-up runs on the request path.

use crate::dd_solve::{self, DdParts};
use crate::inputs::{self, CSW, SPREAD, TOLERANCE};
use crate::layers::{self, LayerModel, LayerSplit, Layers};
use crate::report::{median, Report};
use crate::solves::{check_bitwise, print_decomposition, print_latency, record_no_comm};
use crate::{host, Args};
use qdd_core::{DdSolver, DdSolverConfig, Precision, SchwarzConfig, WorkerPool, WorkspacePool};
use qdd_dirac::wilson::WilsonClover;
use qdd_field::fields::SpinorField;
use qdd_lattice::Dims;
use qdd_serve::{
    serve, ConfigKey, ConfigSource, ServeStatus, ServiceConfig, ServiceReport, SolveRequest,
    SolveResponse, SyntheticSource,
};
use qdd_trace::TraceSink;
use qdd_util::stats::SolveStats;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

fn dims() -> Dims {
    Dims::new(8, 4, 4, 8)
}
fn block() -> Dims {
    Dims::new(4, 4, 4, 4)
}
/// The `SyntheticSource` default mass.
const MASS: f64 = 0.2;
const STREAM: u64 = 4;
/// Gauge configurations the wave cycles over.
const CONFIGS: usize = 8;
/// Requests per wave.
const WAVE: usize = 128;
/// Pool workers of each solve inside the single service worker.
pub const SOLVER_WORKERS: usize = 2;

fn service_config() -> ServiceConfig {
    let base = dd_solve::solver_config(SOLVER_WORKERS);
    ServiceConfig {
        // The whole wave fits the queue: nothing is shed on a healthy build.
        queue_capacity: WAVE,
        workers: 1,
        max_batch: 8,
        cache_capacity: 4,
        solver: DdSolverConfig {
            schwarz: SchwarzConfig { block: block(), ..base.schwarz },
            ..base
        },
        ..Default::default()
    }
}

/// The solver configuration a request of the wave resolves to.
fn request_solver_config() -> DdSolverConfig {
    let mut cfg = service_config().solver;
    cfg.fgmres.tolerance = TOLERANCE;
    cfg.precision = Precision::HalfCompressed;
    cfg
}

fn source() -> SyntheticSource {
    SyntheticSource { dims: dims(), spread: SPREAD, mass: MASS, csw: CSW }
}

/// A `ConfigSource` that times every materialization.
struct TimingSource<'a> {
    inner: &'a dyn ConfigSource,
    nanos: AtomicU64,
}

impl ConfigSource for TimingSource<'_> {
    fn materialize(&self, key: ConfigKey) -> Option<WilsonClover<f64>> {
        let t0 = Instant::now();
        let op = self.inner.materialize(key);
        self.nanos.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        op
    }
}

/// The seeded inputs of a run: configuration keys and one source per
/// request (request `j` uses configuration `j % CONFIGS`).
struct Inputs {
    keys: Vec<ConfigKey>,
    sources: Vec<SpinorField<f64>>,
    ops: Vec<WilsonClover<f64>>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let keys: Vec<ConfigKey> =
            (0..CONFIGS as u64).map(|i| ConfigKey(inputs::mix(seed, STREAM, i))).collect();
        let sources = (0..WAVE as u64).map(|j| inputs::source(dims(), seed, STREAM, j)).collect();
        let ops =
            keys.iter().map(|&k| source().materialize(k).expect("synthetic config")).collect();
        Self { keys, sources, ops }
    }

    fn requests(&self) -> Vec<SolveRequest> {
        self.sources
            .iter()
            .enumerate()
            .map(|(j, src)| SolveRequest {
                config: self.keys[j % CONFIGS],
                source: src.clone(),
                tolerance: TOLERANCE,
                deadline: None,
                precision: Precision::HalfCompressed,
            })
            .collect()
    }
}

struct Wave {
    makespan: f64,
    /// In submission order; `None` for a request the queue shed.
    responses: Vec<Option<SolveResponse>>,
    report: ServiceReport,
}

fn run_wave(input: &Inputs, source: &dyn ConfigSource) -> Wave {
    let requests = input.requests();
    let ((makespan, responses), report) =
        serve(&service_config(), source, &TraceSink::disabled(), |handle| {
            let t0 = Instant::now();
            let tickets: Vec<_> = requests.into_iter().map(|r| handle.submit(r).ok()).collect();
            let responses: Vec<_> = tickets.into_iter().map(|t| t.map(|t| t.wait())).collect();
            (t0.elapsed().as_secs_f64(), responses)
        });
    Wave { makespan, responses, report }
}

/// Check and count every request of a wave; returns how many were
/// answered within target.
fn check_wave(rep: &mut Report, input: &Inputs, wave: &Wave) -> usize {
    let mut ok = 0;
    let mut statuses = std::collections::BTreeMap::<String, usize>::new();
    for (j, resp) in wave.responses.iter().enumerate() {
        let Some(resp) = resp else {
            *statuses.entry("shed at admission".into()).or_default() += 1;
            rep.attempt(false);
            continue;
        };
        *statuses.entry(resp.status.to_string()).or_default() += 1;
        let res =
            inputs::oracle_residual(&input.ops[j % CONFIGS], &resp.solution, &input.sources[j]);
        let good = resp.status == ServeStatus::Converged && res <= TOLERANCE;
        if resp.status.meets_target() && res > TOLERANCE {
            rep.problem(format!(
                "request {j}: status {} but the recomputed residual is {res:.3e}",
                resp.status
            ));
        }
        rep.attempt(good);
        ok += usize::from(good);
    }
    let summary: Vec<String> = statuses.iter().map(|(s, n)| format!("{n} {s}")).collect();
    let iterations: usize = answered(wave).map(|r| r.iterations).sum();
    rep.line(format!(
        "wave: {:.3} s, {}, {:.2} iterations per request; setup cache {} hits / {} misses",
        wave.makespan,
        summary.join(", "),
        iterations as f64 / wave.responses.len() as f64,
        wave.report.cache_hits,
        wave.report.cache_misses
    ));
    ok
}

fn answered(wave: &Wave) -> impl Iterator<Item = &SolveResponse> {
    wave.responses.iter().flatten()
}

pub fn run(args: &Args, rep: &mut Report) {
    let cfg = service_config();
    print_decomposition(rep, dims(), Dims::new(1, 1, 1, 1), Some(cfg.solver.schwarz.block), 0.0);
    rep.line(format!(
        "problem: {WAVE} requests per wave over {CONFIGS} configs of {} at m = {MASS}, tolerance {TOLERANCE:e}, f16-compressed M; queue {}, max batch {}, setup cache {}",
        dims(),
        cfg.queue_capacity,
        cfg.max_batch,
        cfg.cache_capacity
    ));
    let input = Inputs::new(args.seed);
    if rep.traced() {
        return traced(args, rep, &input);
    }

    // Set-up as a cache miss pays it: materialize plus solver build,
    // four times per configuration of the wave.
    let solver_cfg = request_solver_config();
    let setups: Vec<f64> = input
        .keys
        .iter()
        .cycle()
        .take(4 * CONFIGS)
        .map(|&k| {
            let t0 = Instant::now();
            let solver = source().materialize(k).and_then(|op| DdSolver::new(op, solver_cfg));
            let s = t0.elapsed().as_secs_f64();
            assert!(solver.is_some(), "singular clover block");
            s
        })
        .collect();

    // Whole waves only: another wave starts if it should end within
    // `seconds` (and the first always runs).
    let mut makespan = 0.0;
    let mut latencies = Vec::new();
    let mut ok = 0;
    let mut rss_mb = 0.0;
    let start = Instant::now();
    let mut last = 0.0;
    while latencies.is_empty() || start.elapsed().as_secs_f64() + last < args.seconds {
        let wave = run_wave(&input, &source());
        ok += check_wave(rep, &input, &wave);
        last = wave.makespan;
        makespan += wave.makespan;
        latencies.extend(answered(&wave).map(|r| r.latency.as_secs_f64() * 1e3));
        if rss_mb == 0.0 {
            rss_mb = host::peak_rss_mb();
        }
    }
    rep.metric("solve_s", makespan / latencies.len() as f64);
    rep.metric("setup_s", median(&setups));
    rep.metric("peak_rss_mb", rss_mb);
    rep.metric("throughput_rps", ok as f64 / makespan);
    print_latency(rep, &latencies);
}

fn traced(args: &Args, rep: &mut Report, input: &Inputs) {
    let triad = host::triad_reference(rep);

    // Waves through the timing source: the service's own layers.
    let mut waves = Vec::new();
    let mut materialize = Vec::new();
    let start = Instant::now();
    let mut last = 0.0;
    while waves.is_empty() || start.elapsed().as_secs_f64() + last < args.seconds {
        let base = source();
        let timing = TimingSource { inner: &base, nanos: AtomicU64::new(0) };
        let wave = run_wave(input, &timing);
        check_wave(rep, input, &wave);
        materialize.push(timing.nanos.load(Ordering::Relaxed) as f64 * 1e-9);
        last = wave.makespan;
        waves.push(wave);
    }

    // The layer split of the wave's solves: requests of configuration 0
    // solved through the calls `DdSolver::solve` makes, checked bit for
    // bit against the service's answers and against untraced `DdSolver`
    // solves, which also give the tracing overhead.
    let cfg = request_solver_config();
    let parts = DdParts::build(input.ops[0].gauge().clone(), MASS, &cfg);
    let op = source().materialize(input.keys[0]).expect("synthetic config");
    let solver = DdSolver::new(op, cfg).expect("singular clover block");
    let pool = WorkerPool::new(SOLVER_WORKERS);
    let mut ws = WorkspacePool::new();
    let mut plain = Vec::new();
    let mut splits = Vec::new();
    // The first request warms both solvers up and is not timed.
    for (n, j) in (0..WAVE).step_by(CONFIGS).take(5).enumerate() {
        let b = &input.sources[j];
        let t0 = Instant::now();
        let (x0, out0) = solver.solve(b, &mut SolveStats::new());
        let plain_s = t0.elapsed().as_secs_f64();
        let layers = Layers::default();
        let (x, out, stats, wall) = parts.traced_solve(&pool, &mut ws, b, &layers);
        check_bitwise(rep, &format!("request {j}"), (&x0, &out0), (&x, &out));
        let same = waves[0].responses[j].as_ref().is_some_and(|resp| {
            resp.iterations == out.iterations
                && inputs::field_bits(&resp.solution) == inputs::field_bits(&x)
        });
        if !same {
            rep.problem(format!("request {j}: traced solve does not reproduce the served answer"));
        }
        if n > 0 {
            plain.push(plain_s);
            splits.push(LayerSplit::new(wall, out.iterations, &stats, &layers));
        }
    }
    let model = LayerModel {
        dirac_flops_per_call: parts.op.apply_flops(),
        dirac_bytes_per_call: parts.dirac_bytes_per_call(),
        domain_solves_per_call: parts.domain_solves_per_call(SOLVER_WORKERS),
        triad_gbps: triad,
    };
    layers::record(rep, &LayerSplit::combine(&splits), &model);
    rep.metric("schwarz.speedup_2w", 0.0);
    record_no_comm(rep);
    rep.metric("setup.clover_s", parts.clover_s);
    rep.metric("setup.schwarz_s", parts.schwarz_s);
    rep.metric("setup.fused_s", parts.fused_s);

    let wave = &waves[0];
    let waits: Vec<f64> =
        waves.iter().flat_map(|w| answered(w).map(|r| r.queue_wait.as_secs_f64() * 1e3)).collect();
    let batches = wave.report.metrics.counter("serve.batches");
    rep.metric("serve.queue_wait_p50_ms", median(&waits));
    rep.metric("serve.batches", batches);
    rep.metric("serve.batch_size_mean", answered(wave).count() as f64 / batches);
    rep.metric("serve.cache_hit_rate", wave.report.cache_hit_rate);
    rep.metric("serve.materialize_s", median(&materialize));
    rep.metric("host.triad_gbps", triad);
    let traced: Vec<f64> = splits.iter().map(|s| s.solve_s).collect();
    rep.metric("trace.overhead_frac", median(&traced) / median(&plain) - 1.0);
}
