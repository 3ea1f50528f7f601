//! Criterion bench: the MR block solve (Table II left column, as a real
//! measured kernel), paper parameters Idomain = 5, on one 8x4x4x4 f32
//! domain:
//!
//! - `idomain5_f32`: the scalar AoS MR solve alone;
//! - `domain_update_scalar_f32`: the scalar block update the Schwarz
//!   sweeps ran before the tile engine (residual, Schur right-hand side,
//!   MR, odd reconstruction, scatter), kept as the reference;
//! - `domain_update_fused_f32`: the same update on the production fused
//!   tile engine ([`DomainSolver`]).
//!
//! The last two give the per-domain time ratio of `M`.

use criterion::{criterion_group, criterion_main, Criterion};
use qdd_bench::test_operator;
use qdd_core::domain_solve::DomainSolver;
use qdd_core::mr::{mr_solve_schur, MrConfig};
use qdd_dirac::block::{DomainFields, SchurOperator};
use qdd_field::fields::SpinorField;
use qdd_field::spinor::Spinor;
use qdd_lattice::{Dims, DomainGrid, Parity};
use qdd_util::rng::Rng64;
use std::hint::black_box;

fn bench_mr(c: &mut Criterion) {
    let block = Dims::new(8, 4, 4, 4);
    let dims = block.times(&Dims::new(2, 2, 2, 2));
    let op = test_operator(dims, 0.5, 0.2, 11).cast::<f32>();
    let grid = DomainGrid::new(dims, block);
    let fields = DomainFields::new(&op).unwrap();
    let schur = SchurOperator::new(&op, &fields, grid.domain(0));
    let n = schur.cb_len();
    let mut rng = Rng64::new(12);
    let rhs: Vec<Spinor<f32>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
    let mut u = vec![Spinor::ZERO; n];
    let mut r = vec![Spinor::ZERO; n];
    let mut q = vec![Spinor::ZERO; n];
    let mut scratch = vec![Spinor::ZERO; 2 * n];
    let cfg = MrConfig { iterations: 5, tolerance: 0.0, f16_vectors: false };

    let mut group = c.benchmark_group("mr_block_solve_8x4x4x4");
    // Flop throughput reference: ~5 Schur applications of 1848 flop/site.
    group.throughput(criterion::Throughput::Elements((5 * 1848 * block.volume()) as u64));
    group.bench_function("idomain5_f32", |b| {
        b.iter(|| {
            let out =
                mr_solve_schur(&schur, &cfg, &mut u, black_box(&rhs), &mut r, &mut q, &mut scratch);
            black_box(out);
        })
    });

    // Full block updates of domain 0 from a random iterate.
    let f = SpinorField::<f32>::random(dims, &mut rng);
    let iterate = SpinorField::<f32>::random(dims, &mut rng);
    let au = |g: usize| op.apply_site_with(g, |i| *iterate.site(i));
    let mut out = SpinorField::<f32>::zeros(dims);

    let even_sites = schur.global_cb_indices(Parity::Even);
    let odd_sites = schur.global_cb_indices(Parity::Odd);
    group.bench_function("domain_update_scalar_f32", |b| {
        b.iter(|| {
            let r_e: Vec<_> = even_sites.iter().map(|&g| f.site(g).sub(au(g))).collect();
            let r_o: Vec<_> = odd_sites.iter().map(|&g| f.site(g).sub(au(g))).collect();
            let mut rhs = vec![Spinor::ZERO; n];
            schur.prepare_rhs(&mut rhs, &r_e, &r_o, &mut scratch);
            let mut z_e = vec![Spinor::ZERO; n];
            mr_solve_schur(&schur, &cfg, &mut z_e, &rhs, &mut r, &mut q, &mut scratch);
            let mut z_o = vec![Spinor::ZERO; n];
            schur.reconstruct_odd(&mut z_o, &z_e, &r_o);
            schur.scatter_add_cb(&mut out, &z_e, Parity::Even);
            schur.scatter_add_cb(&mut out, &z_o, Parity::Odd);
        })
    });

    let engine = DomainSolver::new(&op, &grid, cfg).unwrap();
    let mut worker = engine.worker();
    group.bench_function("domain_update_fused_f32", |b| {
        b.iter(|| {
            black_box(worker.solve(0, black_box(&f), au));
            worker.scatter_add(|g, v| *out.site_mut(g) = out.site(g).add(v));
        })
    });
    group.finish();
    black_box(out);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_mr
}
criterion_main!(benches);
