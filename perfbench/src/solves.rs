//! Helpers shared by the workloads: the output checks, the timed solve
//! loop of the solver workloads and the report lines they share.

use crate::host;
use crate::inputs::{self, TOLERANCE};
use crate::report::{median, quantile, Report};
use qdd_core::SolveOutcome;
use qdd_dirac::wilson::WilsonClover;
use qdd_field::fields::SpinorField;
use qdd_lattice::{Dims, RankGrid};
use std::time::Instant;

/// Timed solves a run makes at least, however short `--seconds` is; the
/// memory high-water mark is read after this many.
const MIN_SOLVES: usize = 3;

/// One line describing how the lattice is cut: rank grid, local
/// extents, Schwarz domains and the outer halo traffic.
pub fn print_decomposition(
    rep: &Report,
    global: Dims,
    ranks: Dims,
    block: Option<Dims>,
    halo_bytes_per_site: f64,
) {
    let grid = RankGrid::new(global, ranks);
    let local = *grid.local();
    let domains = match block {
        Some(block) => {
            let doms = Dims::new(
                local.0[0] / block.0[0],
                local.0[1] / block.0[1],
                local.0[2] / block.0[2],
                local.0[3] / block.0[3],
            );
            format!("domains {block} -> {doms} per rank ({} per color)", doms.volume() / 2)
        }
        None => "no Schwarz domains".to_string(),
    };
    let halo = grid.halo(halo_bytes_per_site as usize).bytes_per_exchange();
    rep.line(format!(
        "decomposition: global {global}, ranks {ranks} ({}), local {local}, {domains}, halo {halo} B per exchange",
        grid.num_ranks(),
    ));
}

/// Check one returned solution and count it: a solve that reports
/// convergence but misses the target on the recomputed residual is a
/// wrong output, not just a failure.
pub fn check_solution(
    rep: &mut Report,
    what: &str,
    op: &WilsonClover<f64>,
    x: &SpinorField<f64>,
    b: &SpinorField<f64>,
    out: &SolveOutcome,
) -> bool {
    let res = inputs::oracle_residual(op, x, b);
    let ok = out.converged && res <= TOLERANCE;
    if out.converged && res > TOLERANCE {
        rep.problem(format!("{what}: reported converged but the recomputed residual is {res:.3e}"));
    }
    rep.attempt(ok);
    ok
}

/// Compare a traced solve against its untraced twin, bit for bit.
pub fn check_bitwise(
    rep: &mut Report,
    what: &str,
    (x0, out0): (&SpinorField<f64>, &SolveOutcome),
    (x1, out1): (&SpinorField<f64>, &SolveOutcome),
) {
    if out0.iterations != out1.iterations
        || inputs::history_bits(&out0.history) != inputs::history_bits(&out1.history)
        || inputs::field_bits(x0) != inputs::field_bits(x1)
    {
        rep.problem(format!(
            "{what}: traced solve does not reproduce the untraced one ({} vs {} iterations)",
            out1.iterations, out0.iterations
        ));
    }
}

/// Set up `reps` times and keep the last result; returns it with the
/// median set-up time. `input` prepares each set-up's input outside the
/// timing; the previous result is dropped first, so one is alive at a
/// time.
pub fn repeated_setup<I, T>(
    reps: usize,
    mut input: impl FnMut() -> I,
    mut build: impl FnMut(I) -> T,
) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let i = input();
        let t0 = Instant::now();
        last = Some(build(i));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// The timed solves of an untraced run.
pub struct Timed {
    pub times: Vec<f64>,
    pub iterations: Vec<usize>,
    /// Solves answered within target.
    pub ok: usize,
    /// `VmHWM` after set-up, warm-up and the first `MIN_SOLVES` solves,
    /// so that it does not depend on how many solves fit in the run.
    pub rss_mb: f64,
}

/// Run `solve(i)` for sources `i = 1, 2, ...` until `seconds` have
/// passed; `solve` returns its timed seconds, its outcome and whether the
/// answer was within target.
pub fn timed(seconds: f64, mut solve: impl FnMut(u64) -> (f64, SolveOutcome, bool)) -> Timed {
    let mut t = Timed { times: Vec::new(), iterations: Vec::new(), ok: 0, rss_mb: 0.0 };
    let start = Instant::now();
    let mut i = 1;
    while start.elapsed().as_secs_f64() < seconds || t.times.len() < MIN_SOLVES {
        let (secs, out, ok) = solve(i);
        t.times.push(secs);
        t.iterations.push(out.iterations);
        t.ok += usize::from(ok);
        if t.times.len() == MIN_SOLVES {
            t.rss_mb = host::peak_rss_mb();
        }
        i += 1;
    }
    t
}

/// Alternate an untraced and a traced solve of sources 1, 2, ... until
/// `seconds` have passed, and at least twice. `pair(i)` returns the
/// untraced and the traced wall time. Records `trace.overhead_frac`.
pub fn alternate(
    rep: &mut Report,
    seconds: f64,
    mut pair: impl FnMut(&mut Report, u64) -> (f64, f64),
) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 1;
    while start.elapsed().as_secs_f64() < seconds || traced.len() < 2 {
        let (p, t) = pair(rep, i);
        plain.push(p);
        traced.push(t);
        i += 1;
    }
    rep.metric("trace.overhead_frac", median(&traced) / median(&plain) - 1.0);
}

/// The end-to-end metrics of a run of timed solves. Each solve is one
/// request of a single closed-loop client, so its latency is its time,
/// and the rate is the share within target over the median time.
pub fn record(rep: &mut Report, t: &Timed, setup_s: f64) {
    let list: Vec<String> =
        t.times.iter().zip(&t.iterations).map(|(s, n)| format!("{s:.3}/{n}")).collect();
    rep.line(format!(
        "timed solves: {} ({} within target), seconds/iterations: {}",
        t.times.len(),
        t.ok,
        list.join(" ")
    ));
    rep.metric("solve_s", median(&t.times));
    rep.metric("setup_s", setup_s);
    rep.metric("peak_rss_mb", t.rss_mb);
    rep.metric("throughput_rps", t.ok as f64 / t.times.len() as f64 / median(&t.times));
    print_latency(rep, &t.times.iter().map(|s| s * 1e3).collect::<Vec<_>>());
}

/// Print the latency percentiles of a sample, in ms. They are not in
/// the JSON: a run of the solver workloads has too few solves for a p90
/// with ten samples beyond it.
pub fn print_latency(rep: &Report, latencies_ms: &[f64]) {
    rep.info("latency_p50_ms", median(latencies_ms), "ms");
    rep.info("latency_p90_ms", quantile(latencies_ms, 0.9), "ms");
    rep.info("latency_samples", latencies_ms.len() as f64, "count");
}

/// The `comm.*` metrics of a workload that exchanges nothing.
pub fn record_no_comm(rep: &mut Report) {
    for name in [
        "comm.bytes_sent",
        "comm.messages",
        "comm.reductions",
        "comm.recv_wait_s",
        "comm.retries",
        "comm.timeouts",
    ] {
        rep.metric(name, 0.0);
    }
}

/// The `serve.*` metrics of a workload that does not run the service.
pub fn record_no_serve(rep: &mut Report) {
    for name in [
        "serve.queue_wait_p50_ms",
        "serve.batches",
        "serve.batch_size_mean",
        "serve.cache_hit_rate",
        "serve.materialize_s",
    ] {
        rep.metric(name, 0.0);
    }
}
