//! Minimal-residual (MR) block solver.
//!
//! The Schwarz method inverts each diagonal block with a few MR iterations
//! (paper Sec. II-D, Ref. \[13\]): MR needs only three vectors, which is what
//! lets the whole block solve run from a KNC core's L2 cache. The block is
//! the even-odd Schur complement `D~ee` (Eq. (5)); typically
//! `Idomain = 4..5` iterations suffice for a useful preconditioner.
//!
//! [`mr_solve_schur`] is the scalar AoS form, kept as the test and bench
//! oracle; the Schwarz sweeps run the same iteration on site-fused tiles
//! in [`domain_solve`](crate::domain_solve).

use crate::blas;
use qdd_dirac::block::SchurOperator;
use qdd_field::spinor::Spinor;
use qdd_util::complex::{Complex, Real};

/// MR iteration parameters.
#[derive(Copy, Clone, Debug)]
pub struct MrConfig {
    /// Number of MR iterations (`Idomain` in the paper).
    pub iterations: usize,
    /// Relative-residual early exit (0.0 disables; the preconditioner
    /// normally runs a fixed iteration count).
    pub tolerance: f64,
    /// Store the block iteration vectors in half precision (round every
    /// vector through f16 after each update) — the paper's Sec. VI
    /// future-work option "exploit half-precision also for the spinors",
    /// which would halve the spinor working set from 7x24 kB to 7x12 kB
    /// per domain. Off by default (the paper ships with f32 spinors).
    pub f16_vectors: bool,
}

impl Default for MrConfig {
    fn default() -> Self {
        Self { iterations: 5, tolerance: 0.0, f16_vectors: false }
    }
}

/// Round every component of a block vector through IEEE f16 — the storage
/// precision simulation for `MrConfig::f16_vectors`.
pub fn round_vector_f16<T: Real>(v: &mut [Spinor<T>]) {
    use qdd_util::half::F16;
    for s in v.iter_mut() {
        for flat in 0..12 {
            let z = s.component(flat);
            s.set_component(
                flat,
                Complex::new(
                    T::from_f64(F16::round_f32(z.re.to_f64() as f32) as f64),
                    T::from_f64(F16::round_f32(z.im.to_f64() as f32) as f64),
                ),
            );
        }
    }
}

/// Result of one block solve.
#[derive(Copy, Clone, Debug, Default)]
pub struct MrOutcome {
    pub iterations: usize,
    /// Flops spent (operator + level-1).
    pub flops: f64,
    /// Squared norm of the final residual.
    pub residual_norm_sqr: f64,
}

/// Solve `D~ee u = rhs` on one domain by MR, starting from `u = 0`.
///
/// `u` is overwritten; `r` and `q` are caller-provided scratch of the same
/// length (the paper's three-vector working set), and `scratch_odd` the
/// two odd-parity temporaries the Schur operator needs.
#[allow(clippy::too_many_arguments)]
pub fn mr_solve_schur<T: Real>(
    schur: &SchurOperator<'_, T>,
    cfg: &MrConfig,
    u: &mut [Spinor<T>],
    rhs: &[Spinor<T>],
    r: &mut [Spinor<T>],
    q: &mut [Spinor<T>],
    scratch_odd: &mut [Spinor<T>],
) -> MrOutcome {
    let n = schur.cb_len();
    debug_assert_eq!(u.len(), n);
    debug_assert_eq!(rhs.len(), n);

    blas::zero(u);
    r.copy_from_slice(rhs);
    if cfg.f16_vectors {
        round_vector_f16(r);
    }
    let mut out = MrOutcome::default();
    let rhs_norm = blas::norm_sqr(r).to_f64();
    if rhs_norm == 0.0 {
        return out;
    }
    let tol_sqr = cfg.tolerance * cfg.tolerance * rhs_norm;

    for _ in 0..cfg.iterations {
        // q = D~ee r
        schur.apply_schur(q, r, scratch_odd);
        out.flops += schur.schur_flops();
        // alpha = <q, r> / <q, q>
        let qr = blas::dot(q, r);
        let qq = blas::norm_sqr(q);
        out.flops += 2.0 * blas::level1_flops(n);
        if qq.to_f64() <= 0.0 || !qq.to_f64().is_finite() {
            break; // breakdown: D~ee r vanished
        }
        let alpha = qr.scale(T::ONE / qq);
        // u += alpha r; r -= alpha q
        blas::axpy(u, alpha, r);
        blas::axmy(r, alpha, q);
        if cfg.f16_vectors {
            round_vector_f16(u);
            round_vector_f16(r);
        }
        out.flops += 2.0 * blas::level1_flops(n);
        out.iterations += 1;
        out.residual_norm_sqr = blas::norm_sqr(r).to_f64();
        if cfg.tolerance > 0.0 && out.residual_norm_sqr <= tol_sqr {
            break;
        }
    }
    if out.residual_norm_sqr == 0.0 && out.iterations > 0 {
        out.residual_norm_sqr = blas::norm_sqr(r).to_f64();
    }
    out
}

/// Convenience alias making the `alpha` type explicit for callers.
pub type MrAlpha<T> = Complex<T>;

#[cfg(test)]
mod tests {
    use super::*;
    use qdd_dirac::block::DomainFields;
    use qdd_dirac::clover::build_clover_field;
    use qdd_dirac::gamma::GammaBasis;
    use qdd_dirac::wilson::{BoundaryPhases, WilsonClover};
    use qdd_field::fields::GaugeField;
    use qdd_lattice::{Dims, DomainGrid};
    use qdd_util::rng::Rng64;

    fn setup(spread: f64, mass: f64) -> (WilsonClover<f64>, DomainGrid) {
        let dims = Dims::new(8, 4, 4, 4);
        let mut rng = Rng64::new(91);
        let g = GaugeField::random(dims, &mut rng, spread);
        let basis = GammaBasis::degrand_rossi();
        let c = build_clover_field(&g, 1.5, &basis);
        let op = WilsonClover::new(g, c, mass, BoundaryPhases::periodic());
        let grid = DomainGrid::new(dims, Dims::new(4, 4, 2, 2));
        (op, grid)
    }

    fn run_mr(iterations: usize, spread: f64) -> (f64, f64) {
        let (op, grid) = setup(spread, 0.3);
        let fields = DomainFields::new(&op).unwrap();
        let schur = SchurOperator::new(&op, &fields, grid.domain(0));
        let n = schur.cb_len();
        let mut rng = Rng64::new(92);
        let rhs: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let mut u = vec![Spinor::ZERO; n];
        let mut r = vec![Spinor::ZERO; n];
        let mut q = vec![Spinor::ZERO; n];
        let mut scratch = vec![Spinor::ZERO; 2 * n];
        let cfg = MrConfig { iterations, tolerance: 0.0, f16_vectors: false };
        let out = mr_solve_schur(&schur, &cfg, &mut u, &rhs, &mut r, &mut q, &mut scratch);
        (out.residual_norm_sqr / blas::norm_sqr(&rhs), out.flops)
    }

    #[test]
    fn residual_decreases_monotonically_with_iterations() {
        let (r1, _) = run_mr(1, 0.5);
        let (r3, _) = run_mr(3, 0.5);
        let (r6, _) = run_mr(6, 0.5);
        let (r12, _) = run_mr(12, 0.5);
        assert!(r1 < 1.0);
        assert!(r3 < r1);
        assert!(r6 < r3);
        assert!(r12 < r6);
        // A handful of iterations already gives a useful approximation.
        assert!(r6 < 0.1, "rel residual^2 after 6 iters: {r6}");
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let (op, grid) = setup(0.5, 0.3);
        let fields = DomainFields::new(&op).unwrap();
        let schur = SchurOperator::new(&op, &fields, grid.domain(1));
        let n = schur.cb_len();
        let rhs = vec![Spinor::<f64>::ZERO; n];
        let mut u = vec![Spinor::ZERO; n];
        let mut r = vec![Spinor::ZERO; n];
        let mut q = vec![Spinor::ZERO; n];
        let mut scratch = vec![Spinor::ZERO; 2 * n];
        let out = mr_solve_schur(
            &schur,
            &MrConfig::default(),
            &mut u,
            &rhs,
            &mut r,
            &mut q,
            &mut scratch,
        );
        assert_eq!(out.iterations, 0);
        assert_eq!(blas::norm_sqr(&u), 0.0);
    }

    #[test]
    fn early_exit_on_tolerance() {
        let (op, grid) = setup(0.2, 1.0); // heavy mass: fast convergence
        let fields = DomainFields::new(&op).unwrap();
        let schur = SchurOperator::new(&op, &fields, grid.domain(0));
        let n = schur.cb_len();
        let mut rng = Rng64::new(93);
        let rhs: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let mut u = vec![Spinor::ZERO; n];
        let mut r = vec![Spinor::ZERO; n];
        let mut q = vec![Spinor::ZERO; n];
        let mut scratch = vec![Spinor::ZERO; 2 * n];
        let cfg = MrConfig { iterations: 100, tolerance: 1e-2, f16_vectors: false };
        let out = mr_solve_schur(&schur, &cfg, &mut u, &rhs, &mut r, &mut q, &mut scratch);
        assert!(out.iterations < 100, "should stop early, took {}", out.iterations);
        assert!(out.residual_norm_sqr <= 1e-4 * blas::norm_sqr(&rhs));
    }

    #[test]
    fn solves_system_to_high_accuracy_with_many_iterations() {
        let (op, grid) = setup(0.4, 0.5);
        let fields = DomainFields::new(&op).unwrap();
        let schur = SchurOperator::new(&op, &fields, grid.domain(2));
        let n = schur.cb_len();
        let mut rng = Rng64::new(94);
        // Manufacture a known solution.
        let u_true: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let mut rhs = vec![Spinor::ZERO; n];
        let mut scratch = vec![Spinor::ZERO; 2 * n];
        schur.apply_schur(&mut rhs, &u_true, &mut scratch);
        let mut u = vec![Spinor::ZERO; n];
        let mut r = vec![Spinor::ZERO; n];
        let mut q = vec![Spinor::ZERO; n];
        let cfg = MrConfig { iterations: 400, tolerance: 1e-12, f16_vectors: false };
        let out = mr_solve_schur(&schur, &cfg, &mut u, &rhs, &mut r, &mut q, &mut scratch);
        let mut diff = u.clone();
        for (d, t) in diff.iter_mut().zip(&u_true) {
            *d = d.sub(*t);
        }
        let rel = (blas::norm_sqr(&diff) / blas::norm_sqr(&u_true)).sqrt();
        assert!(rel < 1e-5, "rel err {rel} after {} iters", out.iterations);
    }

    #[test]
    fn flop_count_scales_with_iterations() {
        let (_, f2) = run_mr(2, 0.5);
        let (_, f4) = run_mr(4, 0.5);
        assert!((f4 / f2 - 2.0).abs() < 0.05);
    }
}
