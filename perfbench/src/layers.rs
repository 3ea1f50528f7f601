//! Per-layer timing from outside the library: a [`SystemOps`] wrapper
//! that times the outer operator (`dirac`) and the global reductions
//! (`sums`), and a helper that times preconditioner calls (`schwarz`).
//! Whatever a solve spends outside those calls is the Krylov solver's own
//! work (`krylov.self_s`).

use qdd_core::SystemOps;
use qdd_field::fields::SpinorField;
use qdd_lattice::Dims;
use qdd_util::complex::{Complex, Real};
use qdd_util::stats::{Component, SolveStats};
use std::cell::Cell;
use std::time::Instant;

/// Busy time and call counts of the layers one solve passes through.
#[derive(Default)]
pub struct Layers {
    pub dirac_calls: Cell<u64>,
    pub dirac_s: Cell<f64>,
    pub sums_calls: Cell<u64>,
    pub sums_s: Cell<f64>,
    pub schwarz_calls: Cell<u64>,
    pub schwarz_s: Cell<f64>,
    pub schwarz_flops: Cell<f64>,
}

fn bump(calls: &Cell<u64>, secs: &Cell<f64>, t0: Instant) {
    secs.set(secs.get() + t0.elapsed().as_secs_f64());
    calls.set(calls.get() + 1);
}

impl Layers {
    /// Run one preconditioner application and charge it to `schwarz`,
    /// with the `M` flops it added to `stats`.
    pub fn schwarz<R>(
        &self,
        stats: &mut SolveStats,
        apply: impl FnOnce(&mut SolveStats) -> R,
    ) -> R {
        let flops0 = stats.flops(Component::PreconditionerM);
        let t0 = Instant::now();
        let out = apply(stats);
        bump(&self.schwarz_calls, &self.schwarz_s, t0);
        self.schwarz_flops
            .set(self.schwarz_flops.get() + stats.flops(Component::PreconditionerM) - flops0);
        out
    }
}

/// Times every call of the wrapped system; the numerics are the inner
/// system's, untouched.
pub struct TimedSys<'a, S> {
    inner: &'a S,
    layers: &'a Layers,
}

impl<'a, S> TimedSys<'a, S> {
    pub fn new(inner: &'a S, layers: &'a Layers) -> Self {
        Self { inner, layers }
    }

    fn dirac<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        bump(&self.layers.dirac_calls, &self.layers.dirac_s, t0);
        out
    }

    fn sums<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        bump(&self.layers.sums_calls, &self.layers.sums_s, t0);
        out
    }
}

impl<T: Real, S: SystemOps<T>> SystemOps<T> for TimedSys<'_, S> {
    fn local_dims(&self) -> Dims {
        self.inner.local_dims()
    }

    fn apply(&self, out: &mut SpinorField<T>, inp: &SpinorField<T>, stats: &mut SolveStats) {
        self.dirac(|| self.inner.apply(out, inp, stats))
    }

    fn apply_adjoint(
        &self,
        out: &mut SpinorField<T>,
        inp: &SpinorField<T>,
        stats: &mut SolveStats,
    ) {
        self.dirac(|| self.inner.apply_adjoint(out, inp, stats))
    }

    fn apply_flops(&self) -> f64 {
        self.inner.apply_flops()
    }

    fn dot(&self, a: &SpinorField<T>, b: &SpinorField<T>, stats: &mut SolveStats) -> Complex<T> {
        self.sums(|| self.inner.dot(a, b, stats))
    }

    fn norm_sqr(&self, a: &SpinorField<T>, stats: &mut SolveStats) -> T {
        self.sums(|| self.inner.norm_sqr(a, stats))
    }

    fn dots_batched(
        &self,
        vs: &[SpinorField<T>],
        w: &SpinorField<T>,
        stats: &mut SolveStats,
    ) -> Vec<Complex<T>> {
        self.sums(|| self.inner.dots_batched(vs, w, stats))
    }

    fn dot_and_norm(
        &self,
        a: &SpinorField<T>,
        b: &SpinorField<T>,
        stats: &mut SolveStats,
    ) -> (Complex<T>, T) {
        self.sums(|| self.inner.dot_and_norm(a, b, stats))
    }
}

/// One traced solve, reduced to the numbers the per-layer metrics need.
#[derive(Clone, Debug)]
pub struct LayerSplit {
    /// Wall time of the whole solve call.
    pub solve_s: f64,
    pub iterations: usize,
    pub operator_applications: u64,
    pub dirac_calls: u64,
    pub dirac_s: f64,
    pub sums_calls: u64,
    pub sums_s: f64,
    pub schwarz_calls: u64,
    pub schwarz_s: f64,
    pub schwarz_flops: f64,
    /// Mean seconds per operator call and per preconditioner call.
    pub dirac_call_s: f64,
    pub schwarz_call_s: f64,
}

fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl LayerSplit {
    pub fn new(solve_s: f64, iterations: usize, stats: &SolveStats, layers: &Layers) -> Self {
        Self {
            solve_s,
            iterations,
            operator_applications: stats.operator_applications(),
            dirac_calls: layers.dirac_calls.get(),
            dirac_s: layers.dirac_s.get(),
            sums_calls: layers.sums_calls.get(),
            sums_s: layers.sums_s.get(),
            schwarz_calls: layers.schwarz_calls.get(),
            schwarz_s: layers.schwarz_s.get(),
            schwarz_flops: layers.schwarz_flops.get(),
            dirac_call_s: per(layers.dirac_s.get(), layers.dirac_calls.get() as f64),
            schwarz_call_s: per(layers.schwarz_s.get(), layers.schwarz_calls.get() as f64),
        }
    }

    pub fn krylov_self_s(&self) -> f64 {
        self.solve_s - self.schwarz_s - self.dirac_s - self.sums_s
    }

    /// Several traced solves as one: counts from the first (they are
    /// deterministic, so workloads stay comparable whatever the number
    /// of solves), times and flops averaged per solve.
    pub fn combine(splits: &[LayerSplit]) -> LayerSplit {
        let n = splits.len() as f64;
        let sum = |f: fn(&LayerSplit) -> f64| splits.iter().map(f).sum::<f64>();
        let mean = |f: fn(&LayerSplit) -> f64| sum(f) / n;
        LayerSplit {
            dirac_call_s: per(sum(|s| s.dirac_s), sum(|s| s.dirac_calls as f64)),
            schwarz_call_s: per(sum(|s| s.schwarz_s), sum(|s| s.schwarz_calls as f64)),
            solve_s: mean(|s| s.solve_s),
            dirac_s: mean(|s| s.dirac_s),
            sums_s: mean(|s| s.sums_s),
            schwarz_s: mean(|s| s.schwarz_s),
            schwarz_flops: mean(|s| s.schwarz_flops),
            ..splits[0].clone()
        }
    }
}

/// What the per-layer rates are computed from, besides the timings.
pub struct LayerModel {
    /// Flops of one outer operator application.
    pub dirac_flops_per_call: f64,
    /// Computed bytes one outer operator application streams.
    pub dirac_bytes_per_call: f64,
    /// Domain solves per preconditioner call, per worker thread.
    pub domain_solves_per_call: f64,
    /// The host's bandwidth roofline (`host.triad_gbps`).
    pub triad_gbps: f64,
}

/// Record the `schwarz.*` (but `speedup_2w`), `dirac.*`, `sums.*` and
/// `krylov.*` metrics of a (combined) traced solve.
pub fn record(rep: &mut crate::report::Report, s: &LayerSplit, m: &LayerModel) {
    let dirac_gbps = per(m.dirac_bytes_per_call, s.dirac_call_s) / 1e9;
    rep.metric("schwarz.calls", s.schwarz_calls as f64);
    rep.metric("schwarz.busy_s", s.schwarz_s);
    rep.metric("schwarz.share", per(s.schwarz_s, s.solve_s));
    rep.metric("schwarz.gflops", per(s.schwarz_flops, s.schwarz_s) / 1e9);
    rep.metric("schwarz.domain_us", per(s.schwarz_call_s, m.domain_solves_per_call) * 1e6);
    rep.metric("dirac.calls", s.dirac_calls as f64);
    rep.metric("dirac.busy_s", s.dirac_s);
    rep.metric("dirac.share", per(s.dirac_s, s.solve_s));
    rep.metric("dirac.gflops", per(m.dirac_flops_per_call, s.dirac_call_s) / 1e9);
    rep.metric("dirac.gbps", dirac_gbps);
    rep.metric("dirac.roofline_frac", per(dirac_gbps, m.triad_gbps));
    rep.metric("sums.calls", s.sums_calls as f64);
    rep.metric("sums.busy_s", s.sums_s);
    rep.metric("krylov.iterations", s.iterations as f64);
    rep.metric("krylov.operator_applications", s.operator_applications as f64);
    rep.metric("krylov.self_s", s.krylov_self_s());
    rep.metric("krylov.share", per(s.krylov_self_s(), s.solve_s));
    rep.info("sums.share", per(s.sums_s, s.solve_s), "ratio");
    if s.krylov_self_s() < 0.0 {
        rep.problem("layer busy times exceed the solve wall time: timed spans overlap");
    }
}
