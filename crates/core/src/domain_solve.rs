//! The Schwarz domain-solve engine: one block update
//! `z ~= D^-1 (f - A u)|_domain` on site-fused SoA tiles (paper Table I,
//! lines 6-10, executed in the Sec. III-A layout).
//!
//! [`DomainSolver`] is built once per operator. For every domain it holds
//! the tile-layout constants of the Schur complement ([`FusedSchur`]: gauge
//! links, `Dee` on even tiles, `Doo^-1` on odd tiles) and the
//! (parity, tile, lane) -> lattice-site table. The kernel is compiled per
//! xy lane count `bx*by/2`; the lane count is chosen once at construction.
//!
//! A [`DomainWorker`] owns the scratch tiles of one thread, allocated once
//! per preconditioner application. One update runs entirely on them:
//!
//! 1. the block residual `f - A u`, written straight into tile lanes
//!    through the caller's `(A u)(site)` closure;
//! 2. the Schur right-hand side `r_e - Deo Doo^-1 r_o`;
//! 3. `Idomain` MR iterations on `D~ee` with tile BLAS;
//! 4. the odd reconstruction `Doo^-1 (r_o - Doe z_e)`;
//! 5. a scatter-add of `(z_e, z_o)` through the caller's store closure.
//!
//! The serial, pooled and distributed sweeps differ only in those two
//! closures, so they share every arithmetic operation — the basis of the
//! worker-count and distributed ≡ serial bitwise identities. The scalar
//! AoS path (`SchurOperator` + [`mr_solve_schur`](crate::mr::mr_solve_schur))
//! computes the same update and is kept as the test oracle.

use crate::blas::level1_flops;
use crate::mr::MrConfig;
use qdd_dirac::fused::{FusedKernel, FusedSchur};
use qdd_dirac::wilson::{WilsonClover, TOTAL_FLOPS_PER_SITE};
use qdd_field::fields::SpinorField;
use qdd_field::fused::{FusedField, FusedTile, VReal};
use qdd_field::spinor::Spinor;
use qdd_lattice::{fused_lanes, DomainGrid, Parity, SiteIndexer};
use qdd_util::complex::{Complex, Real};
use qdd_util::half::F16;

/// Per-domain tile state for one lane count.
struct Engine<T: Real, const N: usize> {
    kernel: FusedKernel<T, N>,
    domains: Vec<FusedSchur<T, N>>,
    /// Lattice site of every lane, `volume` entries per domain, ordered
    /// `(parity, tile, lane)`.
    sites: Vec<u32>,
    volume: usize,
    mr: MrConfig,
}

/// The tiles one block update runs on. `res` holds the block residual;
/// `x` the update (`z_e` even, `z_o` odd); `p` the MR residual (even);
/// `q` the Schur image (even). Odd tiles of `x` and `q` double as the
/// Schur temporaries before the reconstruction writes `z_o`.
struct Scratch<T: Real, const N: usize> {
    res: FusedField<T, N>,
    x: FusedField<T, N>,
    p: FusedField<T, N>,
    q: FusedField<T, N>,
}

impl<T: Real, const N: usize> Engine<T, N> {
    fn new(op: &WilsonClover<T>, grid: &DomainGrid, mr: MrConfig) -> Option<Self> {
        let block = *grid.block();
        let kernel = FusedKernel::new(block);
        let layout = kernel.layout();
        let tiles = layout.tiles_per_parity();
        let lattice_idx = SiteIndexer::new(*op.dims());
        let mut domains = Vec::with_capacity(grid.num_domains());
        let mut sites = Vec::with_capacity(grid.num_domains() * block.volume());
        for domain in grid.domains() {
            domains.push(FusedSchur::new(op, &domain)?);
            for parity in [Parity::Even, Parity::Odd] {
                for tile in 0..tiles {
                    for lane in 0..N {
                        let local = layout.coord(parity, tile, lane);
                        let g = lattice_idx.index(&domain.to_lattice(&local));
                        sites.push(u32::try_from(g).expect("lattice volume exceeds u32"));
                    }
                }
            }
        }
        Some(Self { kernel, domains, sites, volume: block.volume(), mr })
    }

    fn scratch(&self) -> Scratch<T, N> {
        let block = *self.kernel.layout().block();
        Scratch {
            res: FusedField::zeros(block),
            x: FusedField::zeros(block),
            p: FusedField::zeros(block),
            q: FusedField::zeros(block),
        }
    }

    /// The domain's sites in `(parity, tile, lane)` order.
    #[inline]
    fn sites(&self, dom_idx: usize) -> &[u32] {
        &self.sites[dom_idx * self.volume..(dom_idx + 1) * self.volume]
    }

    /// Lane coordinates of entry `k` of [`Self::sites`].
    #[inline]
    fn lane_of(k: usize, tiles: usize) -> (Parity, usize, usize) {
        let parity = if k < tiles * N { Parity::Even } else { Parity::Odd };
        let k = k % (tiles * N);
        (parity, k / N, k % N)
    }

    /// The block update of one domain into `s.x`; returns its nominal
    /// flops (the accounting of the scalar oracle).
    fn solve(
        &self,
        s: &mut Scratch<T, N>,
        dom_idx: usize,
        f: &SpinorField<T>,
        au_site: impl Fn(usize) -> Spinor<T>,
    ) -> f64 {
        let schur = &self.domains[dom_idx];
        let tiles = self.kernel.layout().tiles_per_parity();
        let n = self.volume / 2;

        // Block residual r = (f - A u)|_domain.
        for (k, &g) in self.sites(dom_idx).iter().enumerate() {
            let g = g as usize;
            let (parity, tile, lane) = Self::lane_of(k, tiles);
            s.res.set_lane(parity, tile, lane, &f.site(g).sub(au_site(g)));
        }
        let mut flops = TOTAL_FLOPS_PER_SITE * (2 * n) as f64;

        schur.prepare_rhs(&self.kernel, &mut s.p, &s.res, &mut s.q);
        flops += 924.0 * (2 * n) as f64; // half-volume hop + diag-inv
        flops += self.mr(schur, s, n);
        schur.reconstruct_odd(&self.kernel, &mut s.x, &s.res, &mut s.q);
        flops += 924.0 * (2 * n) as f64;
        flops
    }

    /// MR on `D~ee x_e = p_e` from `x_e = 0`, overwriting `p_e` with the
    /// residual — the tile form of [`mr_solve_schur`](crate::mr::mr_solve_schur),
    /// with its breakdown test, tolerance exit, f16 rounding and flops.
    fn mr(&self, schur: &FusedSchur<T, N>, s: &mut Scratch<T, N>, n: usize) -> f64 {
        let cfg = &self.mr;
        s.x.parity_mut(Parity::Even).fill([VReal::ZERO; 24]);
        if cfg.f16_vectors {
            round_f16(s.p.parity_mut(Parity::Even));
        }
        let rhs_norm = norm_sqr(s.p.parity(Parity::Even)).to_f64();
        let mut flops = 0.0;
        if rhs_norm == 0.0 {
            return flops;
        }
        let tol_sqr = cfg.tolerance * cfg.tolerance * rhs_norm;
        for _ in 0..cfg.iterations {
            // q = D~ee p (x's odd tiles are free until the reconstruction)
            schur.apply_schur(&self.kernel, &mut s.q, &s.p, &mut s.x);
            flops += schur.schur_flops();
            let (q, p) = (s.q.parity(Parity::Even), s.p.parity(Parity::Even));
            let qr = dot(q, p);
            let qq = norm_sqr(q);
            flops += 2.0 * level1_flops(n);
            if qq.to_f64() <= 0.0 || !qq.to_f64().is_finite() {
                break; // breakdown: D~ee p vanished
            }
            let alpha = qr.scale(T::ONE / qq);
            // x += alpha p; p -= alpha q
            axpy(s.x.parity_mut(Parity::Even), alpha, s.p.parity(Parity::Even));
            axpy(s.p.parity_mut(Parity::Even), -alpha, s.q.parity(Parity::Even));
            if cfg.f16_vectors {
                round_f16(s.x.parity_mut(Parity::Even));
                round_f16(s.p.parity_mut(Parity::Even));
            }
            flops += 2.0 * level1_flops(n);
            if cfg.tolerance > 0.0 && norm_sqr(s.p.parity(Parity::Even)).to_f64() <= tol_sqr {
                break;
            }
        }
        flops
    }

    /// `store(site, z(site))` for every site of the domain.
    fn scatter_add(
        &self,
        s: &Scratch<T, N>,
        dom_idx: usize,
        mut store: impl FnMut(usize, Spinor<T>),
    ) {
        let tiles = self.kernel.layout().tiles_per_parity();
        for (k, &g) in self.sites(dom_idx).iter().enumerate() {
            let (parity, tile, lane) = Self::lane_of(k, tiles);
            store(g as usize, s.x.lane_spinor(parity, tile, lane));
        }
    }
}

/// `<a, b>` over tile vectors: lane-wise partial sums, reduced at the end.
fn dot<T: Real, const N: usize>(a: &[FusedTile<T, N>], b: &[FusedTile<T, N>]) -> Complex<T> {
    let (mut re, mut im) = (VReal::<T, N>::ZERO, VReal::<T, N>::ZERO);
    for (ta, tb) in a.iter().zip(b) {
        for k in 0..12 {
            let (ar, ai, br, bi) = (ta[2 * k], ta[2 * k + 1], tb[2 * k], tb[2 * k + 1]);
            // conj(a) b
            re = re.fma(ar, br).fma(ai, bi);
            im = im.fma(ar, bi).fms(ai, br);
        }
    }
    Complex::new(re.reduce_add(), im.reduce_add())
}

fn norm_sqr<T: Real, const N: usize>(a: &[FusedTile<T, N>]) -> T {
    let mut acc = VReal::<T, N>::ZERO;
    for t in a {
        for v in t {
            acc = acc.fma(*v, *v);
        }
    }
    acc.reduce_add()
}

/// `y += alpha x`.
fn axpy<T: Real, const N: usize>(
    y: &mut [FusedTile<T, N>],
    alpha: Complex<T>,
    x: &[FusedTile<T, N>],
) {
    let (ar, ai) = (VReal::splat(alpha.re), VReal::splat(alpha.im));
    for (ty, tx) in y.iter_mut().zip(x) {
        for k in 0..12 {
            let (xr, xi) = (tx[2 * k], tx[2 * k + 1]);
            ty[2 * k] = ty[2 * k].fma(xr, ar).fms(xi, ai);
            ty[2 * k + 1] = ty[2 * k + 1].fma(xr, ai).fma(xi, ar);
        }
    }
}

/// Round every component through IEEE f16 (`MrConfig::f16_vectors`), as
/// [`round_vector_f16`](crate::mr::round_vector_f16) does per spinor.
fn round_f16<T: Real, const N: usize>(v: &mut [FusedTile<T, N>]) {
    for t in v {
        for c in t.iter_mut() {
            for x in c.0.iter_mut() {
                *x = T::from_f64(F16::round_f32(x.to_f64() as f32) as f64);
            }
        }
    }
}

/// The engine for every compiled lane count.
enum Lanes<T: Real> {
    L2(Engine<T, 2>),
    L4(Engine<T, 4>),
    L8(Engine<T, 8>),
    L16(Engine<T, 16>),
    L32(Engine<T, 32>),
    L64(Engine<T, 64>),
    L128(Engine<T, 128>),
}

enum WorkerLanes<'a, T: Real> {
    L2(&'a Engine<T, 2>, Scratch<T, 2>),
    L4(&'a Engine<T, 4>, Scratch<T, 4>),
    L8(&'a Engine<T, 8>, Scratch<T, 8>),
    L16(&'a Engine<T, 16>, Scratch<T, 16>),
    L32(&'a Engine<T, 32>, Scratch<T, 32>),
    L64(&'a Engine<T, 64>, Scratch<T, 64>),
    L128(&'a Engine<T, 128>, Scratch<T, 128>),
}

/// Run `$body` with `$e`/`$s` bound to the engine and scratch of whichever
/// lane count `$worker` was built for.
macro_rules! with_lanes {
    ($worker:expr, |$e:ident, $s:ident| $body:expr) => {
        match $worker {
            WorkerLanes::L2($e, $s) => $body,
            WorkerLanes::L4($e, $s) => $body,
            WorkerLanes::L8($e, $s) => $body,
            WorkerLanes::L16($e, $s) => $body,
            WorkerLanes::L32($e, $s) => $body,
            WorkerLanes::L64($e, $s) => $body,
            WorkerLanes::L128($e, $s) => $body,
        }
    };
}

/// The fused block-solve state of every domain of one operator.
pub struct DomainSolver<T: Real> {
    lanes: Lanes<T>,
}

impl<T: Real> DomainSolver<T> {
    /// Build the tile state of every domain of `grid` from the
    /// whole-lattice (or rank-local) operator. Returns `None` if an
    /// odd-site diagonal — the one the Schur complement inverts — is
    /// singular.
    ///
    /// # Panics
    /// If the block shape has no compiled kernel (see
    /// [`qdd_lattice::fused_lanes`]); the message names the supported
    /// lane counts.
    pub fn new(op: &WilsonClover<T>, grid: &DomainGrid, mr: MrConfig) -> Option<Self> {
        let lanes = match fused_lanes(grid.block()) {
            Ok(lanes) => lanes,
            Err(e) => panic!("{e}"),
        };
        let lanes = match lanes {
            2 => Lanes::L2(Engine::new(op, grid, mr)?),
            4 => Lanes::L4(Engine::new(op, grid, mr)?),
            8 => Lanes::L8(Engine::new(op, grid, mr)?),
            16 => Lanes::L16(Engine::new(op, grid, mr)?),
            32 => Lanes::L32(Engine::new(op, grid, mr)?),
            64 => Lanes::L64(Engine::new(op, grid, mr)?),
            128 => Lanes::L128(Engine::new(op, grid, mr)?),
            _ => unreachable!("fused_lanes admits only compiled lane counts"),
        };
        Some(Self { lanes })
    }

    /// A worker with its own scratch tiles (one per thread and
    /// preconditioner application).
    pub fn worker(&self) -> DomainWorker<'_, T> {
        let lanes = match &self.lanes {
            Lanes::L2(e) => WorkerLanes::L2(e, e.scratch()),
            Lanes::L4(e) => WorkerLanes::L4(e, e.scratch()),
            Lanes::L8(e) => WorkerLanes::L8(e, e.scratch()),
            Lanes::L16(e) => WorkerLanes::L16(e, e.scratch()),
            Lanes::L32(e) => WorkerLanes::L32(e, e.scratch()),
            Lanes::L64(e) => WorkerLanes::L64(e, e.scratch()),
            Lanes::L128(e) => WorkerLanes::L128(e, e.scratch()),
        };
        DomainWorker { lanes, solved: None }
    }
}

/// One thread's view of a [`DomainSolver`]: the engine plus scratch tiles.
pub struct DomainWorker<'a, T: Real> {
    lanes: WorkerLanes<'a, T>,
    /// The domain whose update the scratch holds.
    solved: Option<usize>,
}

impl<T: Real> DomainWorker<'_, T> {
    /// Compute the update `z ~= D^-1 (f - A u)|_domain` of domain
    /// `dom_idx`, where `au_site(g)` evaluates `(A u)(g)` — the serial
    /// sweep reads `u` directly, the pooled sweep through a shared
    /// pointer, the distributed sweep through local data plus the rank
    /// halo. The update stays in the scratch for [`Self::scatter_add`].
    /// Returns the flops spent.
    pub fn solve(
        &mut self,
        dom_idx: usize,
        f: &SpinorField<T>,
        au_site: impl Fn(usize) -> Spinor<T>,
    ) -> f64 {
        self.solved = Some(dom_idx);
        with_lanes!(&mut self.lanes, |e, s| e.solve(s, dom_idx, f, &au_site))
    }

    /// Hand the last solved update to `store(site, increment)`, once per
    /// site of its domain.
    pub fn scatter_add(&self, store: impl FnMut(usize, Spinor<T>)) {
        let dom_idx = self.solved.expect("scatter_add before solve");
        with_lanes!(&self.lanes, |e, s| e.scatter_add(s, dom_idx, store))
    }
}
