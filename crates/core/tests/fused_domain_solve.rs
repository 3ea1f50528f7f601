//! The fused domain-solve engine against its scalar oracle.
//!
//! The oracle is the scalar AoS block update the Schwarz sweeps ran before
//! the tile engine: block residual, `prepare_rhs`, `mr_solve_schur`,
//! `reconstruct_odd` on a `SchurOperator`. Both compute the same
//! exact-arithmetic update `z = D^-1 (f - A u)|_b` (with `D^-1` the
//! `Idomain`-step MR approximation); they differ only in summation order
//! (lane-wise vs site-wise partial sums, FMA placement), so they agree to
//! within rounding.
//!
//! The bound. In the probabilistic rounding model (Higham & Mary, SIAM J.
//! Sci. Comput. 41 (2019) A2815), a length-`K` accumulation in unit
//! roundoff `u` has relative error `O(sqrt(K) u)`. The update is a chain
//! of `S = 2 Idomain + 4` such stages (residual, right-hand side, one
//! Schur application and one BLAS stage per MR iteration,
//! reconstruction), the longest of length `K = 12 V` real terms (the MR
//! inner products over the `12 V / 2` complex components of a parity).
//! Each path is then within `S sqrt(K) u` of the exact update, so the two
//! differ by at most
//!
//! ```text
//! ||z_fused - z_oracle|| / ||z_oracle|| <= 2 S sqrt(K) u.
//! ```
//!
//! With `f16_vectors` both paths additionally round every MR vector to
//! f16 after each update; a rounding-level difference can flip one f16
//! rounding, so the storage unit roundoff `u16 = 2^-11` replaces `u` and
//! each of the `2 Idomain` roundings adds at most one `u16` per component:
//! the bound is `2 S sqrt(K) u + 2 (2 Idomain) u16`.

use qdd_core::domain_solve::DomainSolver;
use qdd_core::mr::{mr_solve_schur, MrConfig};
use qdd_core::schwarz::{SchwarzConfig, SchwarzPreconditioner};
use qdd_dirac::block::{DomainFields, SchurOperator};
use qdd_dirac::clover::build_clover_field;
use qdd_dirac::gamma::GammaBasis;
use qdd_dirac::wilson::{BoundaryPhases, WilsonClover, TOTAL_FLOPS_PER_SITE};
use qdd_field::fields::{GaugeField, SpinorField};
use qdd_field::spinor::Spinor;
use qdd_lattice::{Dims, DomainGrid, Parity};
use qdd_util::complex::Real;
use qdd_util::rng::Rng64;

fn operator(dims: Dims, mass: f64, seed: u64) -> WilsonClover<f64> {
    let mut rng = Rng64::new(seed);
    let g = GaugeField::random(dims, &mut rng, 0.5);
    let c = build_clover_field(&g, 1.5, &GammaBasis::degrand_rossi());
    WilsonClover::new(g, c, mass, BoundaryPhases::antiperiodic_t())
}

/// The scalar block update: `(site, z(site))` for every site of the
/// domain, the flops, and the MR iterations taken.
fn oracle_update<T: Real>(
    schur: &SchurOperator<'_, T>,
    op: &WilsonClover<T>,
    mr: &MrConfig,
    f: &SpinorField<T>,
    u: &SpinorField<T>,
) -> (Vec<(usize, Spinor<T>)>, f64, usize) {
    let n = schur.cb_len();
    let even_sites = schur.global_cb_indices(Parity::Even);
    let odd_sites = schur.global_cb_indices(Parity::Odd);
    let residual = |g: &usize| f.site(*g).sub(op.apply_site_with(*g, |i| *u.site(i)));
    let r_e: Vec<Spinor<T>> = even_sites.iter().map(residual).collect();
    let r_o: Vec<Spinor<T>> = odd_sites.iter().map(residual).collect();
    let mut flops = TOTAL_FLOPS_PER_SITE * (2 * n) as f64;

    let mut scratch_odd = vec![Spinor::ZERO; 2 * n];
    let mut rhs = vec![Spinor::ZERO; n];
    schur.prepare_rhs(&mut rhs, &r_e, &r_o, &mut scratch_odd);
    flops += 924.0 * (2 * n) as f64;

    let mut z_e = vec![Spinor::ZERO; n];
    let mut mr_r = vec![Spinor::ZERO; n];
    let mut mr_q = vec![Spinor::ZERO; n];
    let out = mr_solve_schur(schur, mr, &mut z_e, &rhs, &mut mr_r, &mut mr_q, &mut scratch_odd);
    flops += out.flops;

    let mut z_o = vec![Spinor::ZERO; n];
    schur.reconstruct_odd(&mut z_o, &z_e, &r_o);
    flops += 924.0 * (2 * n) as f64;

    let z = even_sites.into_iter().zip(z_e).chain(odd_sites.into_iter().zip(z_o)).collect();
    (z, flops, out.iterations)
}

/// Run fused and scalar updates of a few domains and check them against
/// the stated bound; returns the largest relative difference seen.
fn check<T: Real>(block: Dims, mass: f64, mr: MrConfig, unit_roundoff: f64) -> f64 {
    let dims = block.times(&Dims::new(2, 2, 2, 2));
    let op: WilsonClover<T> = operator(dims, mass, 11).cast();
    let grid = DomainGrid::new(dims, block);
    let mut rng = Rng64::new(12);
    let f = SpinorField::<f64>::random(dims, &mut rng).cast::<T>();
    let u = SpinorField::<f64>::random(dims, &mut rng).cast::<T>();

    let engine = DomainSolver::new(&op, &grid, mr).unwrap();
    let mut worker = engine.worker();
    let fields = DomainFields::new(&op).unwrap();

    let mut worst = 0.0f64;
    for dom_idx in [0, grid.num_domains() / 2 + 1, grid.num_domains() - 1] {
        let flops = worker.solve(dom_idx, &f, |g| op.apply_site_with(g, |i| *u.site(i)));
        let mut fused = SpinorField::<T>::zeros(dims);
        worker.scatter_add(|g, z| *fused.site_mut(g) = z);

        let schur = SchurOperator::new(&op, &fields, grid.domain(dom_idx));
        let (expect, expect_flops, iterations) = oracle_update(&schur, &op, &mr, &f, &u);
        // Same iteration count, hence the same nominal flops.
        assert_eq!(flops, expect_flops, "block {block} domain {dom_idx}");
        if mr.tolerance > 0.0 {
            assert!(iterations < mr.iterations, "no early exit: {iterations} iterations");
        }

        let stages = (2 * iterations + 4) as f64;
        let k = 12.0 * block.volume() as f64;
        let mut bound = 2.0 * stages * k.sqrt() * unit_roundoff;
        if mr.f16_vectors {
            bound += 2.0 * (2 * iterations) as f64 * 2f64.powi(-11);
        }

        let (mut diff, mut norm) = (0.0, 0.0);
        for (g, z) in expect {
            diff += fused.site(g).sub(z).norm_sqr().to_f64();
            norm += z.norm_sqr().to_f64();
        }
        assert!(norm > 0.0);
        let rel = (diff / norm).sqrt();
        assert!(rel <= bound, "block {block} domain {dom_idx}: rel diff {rel:e} > bound {bound:e}");
        worst = worst.max(rel);
    }
    worst
}

const BLOCKS: [Dims; 4] = [
    Dims([2, 2, 2, 2]), // 2 lanes
    Dims([4, 2, 2, 2]), // 4 lanes
    Dims([4, 4, 2, 2]), // 8 lanes
    Dims([8, 4, 2, 2]), // 16 lanes
];

fn mr(iterations: usize, tolerance: f64, f16_vectors: bool) -> MrConfig {
    MrConfig { iterations, tolerance, f16_vectors }
}

#[test]
fn fused_update_matches_scalar_oracle_f64() {
    for block in BLOCKS {
        let worst = check::<f64>(block, 0.2, mr(5, 0.0, false), f64::EPSILON / 2.0);
        println!("f64 {block}: worst rel diff {worst:e}");
    }
}

#[test]
fn fused_update_matches_scalar_oracle_f32() {
    for block in BLOCKS {
        let worst = check::<f32>(block, 0.2, mr(5, 0.0, false), f32::EPSILON as f64 / 2.0);
        println!("f32 {block}: worst rel diff {worst:e}");
    }
}

#[test]
fn fused_update_matches_scalar_oracle_with_f16_vectors() {
    for block in BLOCKS {
        let w64 = check::<f64>(block, 0.2, mr(5, 0.0, true), f64::EPSILON / 2.0);
        let w32 = check::<f32>(block, 0.2, mr(5, 0.0, true), f32::EPSILON as f64 / 2.0);
        println!("f16 vectors {block}: worst rel diff f64 {w64:e}, f32 {w32:e}");
    }
}

#[test]
fn fused_update_exits_early_on_tolerance_like_the_oracle() {
    // Heavy mass: MR converges fast, so a loose tolerance stops it well
    // before the iteration cap (asserted inside `check`).
    for block in BLOCKS {
        check::<f64>(block, 1.0, mr(100, 1e-2, false), f64::EPSILON / 2.0);
        check::<f32>(block, 1.0, mr(100, 1e-2, false), f32::EPSILON as f64 / 2.0);
    }
}

#[test]
#[should_panic(expected = "has no fused kernel")]
fn unsupported_block_shape_is_rejected_at_construction() {
    // 6x2 cross-section: 6 lanes, not a compiled kernel width.
    let block = Dims::new(6, 2, 2, 2);
    let op = operator(Dims::new(12, 4, 4, 4), 0.2, 13);
    let cfg = SchwarzConfig { block, ..Default::default() };
    let _ = SchwarzPreconditioner::new(op, cfg);
}
