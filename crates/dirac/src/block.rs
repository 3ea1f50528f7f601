//! Domain-restricted operators: the block-diagonal `D` of the Schwarz
//! splitting `A = D + R` and its even-odd Schur complement.
//!
//! `D` couples only sites within one domain (zero Dirichlet boundary:
//! hopping terms crossing the domain surface are masked off, paper Fig. 2).
//! The MR block solver actually inverts the Schur complement
//!
//! ```text
//! D~ee = Dee - Deo Doo^-1 Doe        (paper Eq. (5))
//! ```
//!
//! on the even checkerboard of the domain, which roughly halves the MR
//! iteration count (Sec. II-D). `Doo` is the site-local clover + mass
//! diagonal, whose 6x6 chiral blocks are inverted once per configuration.
//!
//! This scalar AoS form is the reference: the Schwarz sweeps run the
//! site-fused [`FusedSchur`](crate::fused::FusedSchur) through
//! `qdd-core::domain_solve`, and tests check them against this one.
//!
//! Block vectors are indexed by the *domain-local checkerboard index*
//! (see [`qdd_lattice::SiteIndexer::cb_index`]). Because domain extents
//! are even, a site's domain-local parity equals its global parity.

use crate::wilson::WilsonClover;
use qdd_field::fields::CloverField;
use qdd_field::spinor::{HalfSpinor, Spinor};
use qdd_lattice::{Coord, Dims, Dir, Domain, Parity, SiteIndexer};
use qdd_util::complex::Real;

/// Shared per-configuration data for all block solves: the inverted
/// site diagonal `((Nd + m) + Dcl)^-1`.
pub struct DomainFields<T: Real> {
    diag_inv: CloverField<T>,
}

impl<T: Real> DomainFields<T> {
    /// Precompute the diagonal inverse. Returns `None` if any site block
    /// is numerically singular (can happen for exceptional gauge
    /// configurations near zero quark mass).
    pub fn new(op: &WilsonClover<T>) -> Option<Self> {
        let dims = *op.dims();
        let mut data = Vec::with_capacity(dims.volume());
        for site in 0..dims.volume() {
            data.push(op.diag().site(site).invert()?);
        }
        Some(Self { diag_inv: CloverField::from_fn(dims, |s| data[s]) })
    }

    #[inline]
    pub fn diag_inv(&self) -> &CloverField<T> {
        &self.diag_inv
    }
}

/// The even-odd-preconditioned block operator for one domain.
pub struct SchurOperator<'a, T: Real> {
    op: &'a WilsonClover<T>,
    fields: &'a DomainFields<T>,
    domain: Domain,
    block_idx: SiteIndexer,
    lattice_idx: SiteIndexer,
}

impl<'a, T: Real> SchurOperator<'a, T> {
    pub fn new(op: &'a WilsonClover<T>, fields: &'a DomainFields<T>, domain: Domain) -> Self {
        let block_idx = SiteIndexer::new(domain.dims);
        let lattice_idx = SiteIndexer::new(*op.dims());
        Self { op, fields, domain, block_idx, lattice_idx }
    }

    #[inline]
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// Number of sites per checkerboard half of the block.
    #[inline]
    pub fn cb_len(&self) -> usize {
        self.domain.dims.volume() / 2
    }

    #[inline]
    fn block_dims(&self) -> &Dims {
        self.block_idx.dims()
    }

    /// Global lattice site index of a domain-local coordinate.
    #[inline]
    fn global_index(&self, local: &Coord) -> usize {
        self.lattice_idx.index(&self.domain.to_lattice(local))
    }

    /// The `-1/2 Dw` hopping restricted to the block, mapping the vector on
    /// parity `from` to its opposite-parity image. `inp` and `out` are
    /// checkerboard-indexed block vectors; `out` is overwritten.
    pub fn hop(&self, out: &mut [Spinor<T>], inp: &[Spinor<T>], from: Parity) {
        let to = from.flip();
        let bd = *self.block_dims();
        assert_eq!(out.len(), self.cb_len());
        assert_eq!(inp.len(), self.cb_len());
        let basis = self.op.basis();
        let m_half = T::from_f64(-0.5);
        for (out_cb, o) in out.iter_mut().enumerate() {
            let local = self.block_idx.cb_coord(to, out_cb);
            let gsite = self.global_index(&local);
            let mut acc = Spinor::ZERO;
            for dir in Dir::ALL {
                let gamma = &basis.gamma[dir.index()];
                // Forward hop: neighbor within the block only.
                let (nc, wrapped) = local.neighbor(&bd, dir, true);
                if !wrapped {
                    let (np, ncb) = self.block_idx.cb_index(&nc);
                    debug_assert_eq!(np, from);
                    let h = gamma.project(false, &inp[ncb]);
                    let u = self.op.gauge().link(gsite, dir);
                    let h = HalfSpinor([u.mul_vec(h.0[0]), u.mul_vec(h.0[1])]);
                    gamma.reconstruct_add(
                        false,
                        &HalfSpinor([h.0[0].scale(m_half), h.0[1].scale(m_half)]),
                        &mut acc,
                    );
                }
                // Backward hop.
                let (nc, wrapped) = local.neighbor(&bd, dir, false);
                if !wrapped {
                    let (np, ncb) = self.block_idx.cb_index(&nc);
                    debug_assert_eq!(np, from);
                    let h = gamma.project(true, &inp[ncb]);
                    let u = self.op.gauge().link(self.global_index(&nc), dir);
                    let h = HalfSpinor([u.adj_mul_vec(h.0[0]), u.adj_mul_vec(h.0[1])]);
                    gamma.reconstruct_add(
                        true,
                        &HalfSpinor([h.0[0].scale(m_half), h.0[1].scale(m_half)]),
                        &mut acc,
                    );
                }
            }
            *o = acc;
        }
    }

    /// Apply the site diagonal `(Nd + m) + Dcl` on one parity.
    pub fn apply_diag(&self, out: &mut [Spinor<T>], inp: &[Spinor<T>], parity: Parity) {
        for (cb, o) in out.iter_mut().enumerate() {
            let local = self.block_idx.cb_coord(parity, cb);
            let gsite = self.global_index(&local);
            *o = self.op.diag().site(gsite).apply(&inp[cb]);
        }
    }

    /// Apply the inverted site diagonal on one parity.
    pub fn apply_diag_inv(&self, out: &mut [Spinor<T>], inp: &[Spinor<T>], parity: Parity) {
        for (cb, o) in out.iter_mut().enumerate() {
            let local = self.block_idx.cb_coord(parity, cb);
            let gsite = self.global_index(&local);
            *o = self.fields.diag_inv().site(gsite).apply(&inp[cb]);
        }
    }

    /// The Schur complement `D~ee v = Dee v - Deo Doo^-1 Doe v`.
    /// `scratch_odd` provides the two odd-parity temporaries.
    pub fn apply_schur(
        &self,
        out: &mut [Spinor<T>],
        inp: &[Spinor<T>],
        scratch_odd: &mut [Spinor<T>],
    ) {
        let n = self.cb_len();
        assert_eq!(scratch_odd.len(), 2 * n);
        let (tmp1, tmp2) = scratch_odd.split_at_mut(n);
        // tmp1 = Doe v (odd)
        self.hop(tmp1, inp, Parity::Even);
        // tmp2 = Doo^-1 tmp1
        self.apply_diag_inv(tmp2, tmp1, Parity::Odd);
        // out = Deo tmp2 (even)
        self.hop(out, tmp2, Parity::Odd);
        // out = Dee v - out
        for (cb, o) in out.iter_mut().enumerate() {
            let local = self.block_idx.cb_coord(Parity::Even, cb);
            let gsite = self.global_index(&local);
            let dee = self.op.diag().site(gsite).apply(&inp[cb]);
            *o = dee.sub(*o);
        }
    }

    /// Schur right-hand side `f~e = fe - Deo Doo^-1 fo`.
    pub fn prepare_rhs(
        &self,
        out: &mut [Spinor<T>],
        f_even: &[Spinor<T>],
        f_odd: &[Spinor<T>],
        scratch_odd: &mut [Spinor<T>],
    ) {
        let n = self.cb_len();
        let (tmp1, _) = scratch_odd.split_at_mut(n);
        self.apply_diag_inv(tmp1, f_odd, Parity::Odd);
        let mut hop_even = vec![Spinor::ZERO; n];
        self.hop(&mut hop_even, tmp1, Parity::Odd);
        for cb in 0..n {
            out[cb] = f_even[cb].sub(hop_even[cb]);
        }
    }

    /// Reconstruct the odd half from the even solution:
    /// `uo = Doo^-1 (fo - Doe ue)`.
    pub fn reconstruct_odd(
        &self,
        out_odd: &mut [Spinor<T>],
        u_even: &[Spinor<T>],
        f_odd: &[Spinor<T>],
    ) {
        let n = self.cb_len();
        let mut hop_odd = vec![Spinor::ZERO; n];
        self.hop(&mut hop_odd, u_even, Parity::Even);
        let mut rhs = vec![Spinor::ZERO; n];
        for cb in 0..n {
            rhs[cb] = f_odd[cb].sub(hop_odd[cb]);
        }
        self.apply_diag_inv(out_odd, &rhs, Parity::Odd);
    }

    /// Apply the full block operator `D` (both parities, Dirichlet
    /// boundary) — reference path and non-even-odd solves. Vectors are
    /// `[even; odd]` concatenated checkerboard halves.
    pub fn apply_block_full(&self, out: &mut [Spinor<T>], inp: &[Spinor<T>]) {
        let n = self.cb_len();
        assert_eq!(out.len(), 2 * n);
        assert_eq!(inp.len(), 2 * n);
        let (in_e, in_o) = inp.split_at(n);
        let (out_e, out_o) = out.split_at_mut(n);
        self.hop(out_e, in_o, Parity::Odd);
        for cb in 0..n {
            let local = self.block_idx.cb_coord(Parity::Even, cb);
            let gsite = self.global_index(&local);
            out_e[cb] = self.op.diag().site(gsite).apply(&in_e[cb]).add(out_e[cb]);
        }
        self.hop(out_o, in_e, Parity::Even);
        for cb in 0..n {
            let local = self.block_idx.cb_coord(Parity::Odd, cb);
            let gsite = self.global_index(&local);
            out_o[cb] = self.op.diag().site(gsite).apply(&in_o[cb]).add(out_o[cb]);
        }
    }

    /// Nominal flop count of one Schur application (the paper's per-site
    /// accounting: two half-volume hops + two half-volume clover terms =
    /// the same 1848 flop/site as the full operator).
    pub fn schur_flops(&self) -> f64 {
        crate::wilson::TOTAL_FLOPS_PER_SITE * self.domain.volume() as f64
    }

    /// Gather the block-local checkerboard vectors of one parity from a
    /// whole-lattice field.
    pub fn gather_cb(
        &self,
        field: &qdd_field::fields::SpinorField<T>,
        parity: Parity,
    ) -> Vec<Spinor<T>> {
        self.gather_cb_with(|i| *field.site(i), parity)
    }

    /// Closure-fetching variant of [`Self::gather_cb`].
    pub fn gather_cb_with<F: Fn(usize) -> Spinor<T>>(
        &self,
        fetch: F,
        parity: Parity,
    ) -> Vec<Spinor<T>> {
        (0..self.cb_len())
            .map(|cb| {
                let local = self.block_idx.cb_coord(parity, cb);
                fetch(self.global_index(&local))
            })
            .collect()
    }

    /// Global site indices of the block's checkerboard sites, in cb order.
    pub fn global_cb_indices(&self, parity: Parity) -> Vec<usize> {
        (0..self.cb_len())
            .map(|cb| self.global_index(&self.block_idx.cb_coord(parity, cb)))
            .collect()
    }

    /// Scatter-add a block-local checkerboard vector into a whole-lattice
    /// field: `field |_block += v`.
    pub fn scatter_add_cb(
        &self,
        field: &mut qdd_field::fields::SpinorField<T>,
        v: &[Spinor<T>],
        parity: Parity,
    ) {
        for (cb, s) in v.iter().enumerate() {
            let local = self.block_idx.cb_coord(parity, cb);
            let gsite = self.global_index(&local);
            *field.site_mut(gsite) = field.site(gsite).add(*s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clover::build_clover_field;
    use crate::gamma::GammaBasis;
    use crate::wilson::BoundaryPhases;
    use qdd_field::fields::{GaugeField, SpinorField};
    use qdd_lattice::{Dims, DomainGrid};
    use qdd_util::rng::Rng64;

    fn setup() -> (WilsonClover<f64>, DomainGrid) {
        let dims = Dims::new(8, 8, 4, 4);
        let mut rng = Rng64::new(31);
        let g = GaugeField::random(dims, &mut rng, 0.6);
        let basis = GammaBasis::degrand_rossi();
        let c = build_clover_field(&g, 1.7, &basis);
        let op = WilsonClover::new(g, c, 0.2, BoundaryPhases::periodic());
        let grid = DomainGrid::new(dims, Dims::new(4, 4, 2, 2));
        (op, grid)
    }

    /// Brute-force block operator: apply A site-by-site but zero out
    /// contributions from outside the domain.
    fn block_apply_reference(
        op: &WilsonClover<f64>,
        domain: &Domain,
        inp_global: &SpinorField<f64>,
    ) -> SpinorField<f64> {
        // Zero the field outside the domain, apply A (periodic), then mask
        // the output to the domain. Hops from outside contribute nothing
        // because the input there is zero. One subtlety: with a domain
        // spanning the full lattice extent in some direction, wrap-around
        // hops would couple the block to itself; the test lattice is
        // chosen so each direction has >= 2 domains.
        let dims = *op.dims();
        let idx = SiteIndexer::new(dims);
        let masked = SpinorField::from_fn(dims, |s| {
            let c = idx.coord(s);
            let inside = (0..4).all(|d| {
                let dd = Dir::from_index(d);
                c[dd] >= domain.origin[dd] && c[dd] < domain.origin[dd] + domain.dims[dd]
            });
            if inside {
                *inp_global.site(s)
            } else {
                Spinor::ZERO
            }
        });
        let mut out = SpinorField::zeros(dims);
        op.apply(&mut out, &masked);
        SpinorField::from_fn(dims, |s| {
            let c = idx.coord(s);
            let inside = (0..4).all(|d| {
                let dd = Dir::from_index(d);
                c[dd] >= domain.origin[dd] && c[dd] < domain.origin[dd] + domain.dims[dd]
            });
            if inside {
                *out.site(s)
            } else {
                Spinor::ZERO
            }
        })
    }

    #[test]
    fn block_operator_matches_masked_global_operator() {
        let (op, grid) = setup();
        let fields = DomainFields::new(&op).unwrap();
        let mut rng = Rng64::new(32);
        let inp = SpinorField::<f64>::random(*op.dims(), &mut rng);
        for dom_idx in [0, 3, grid.num_domains() - 1] {
            let domain = grid.domain(dom_idx);
            let schur = SchurOperator::new(&op, &fields, domain);
            let n = schur.cb_len();
            // Block-local vector from the global field.
            let in_e = schur.gather_cb(&inp, Parity::Even);
            let in_o = schur.gather_cb(&inp, Parity::Odd);
            let mut block_in = in_e.clone();
            block_in.extend_from_slice(&in_o);
            let mut block_out = vec![Spinor::ZERO; 2 * n];
            schur.apply_block_full(&mut block_out, &block_in);

            let reference = block_apply_reference(&op, &domain, &inp);
            // Compare site by site.
            for cb in 0..n {
                for (parity, off) in [(Parity::Even, 0), (Parity::Odd, n)] {
                    let local = SiteIndexer::new(domain.dims).cb_coord(parity, cb);
                    let g = SiteIndexer::new(*op.dims()).index(&domain.to_lattice(&local));
                    let d = block_out[off + cb].sub(*reference.site(g));
                    assert!(
                        d.norm_sqr() < 1e-20,
                        "domain {dom_idx} parity {parity:?} cb {cb}: {}",
                        d.norm_sqr()
                    );
                }
            }
        }
    }

    #[test]
    fn schur_solution_matches_full_block_solution() {
        // If D [ue; uo] = [fe; fo], then D~ee ue = f~e and uo reconstructs.
        let (op, grid) = setup();
        let fields = DomainFields::new(&op).unwrap();
        let domain = grid.domain(5);
        let schur = SchurOperator::new(&op, &fields, domain);
        let n = schur.cb_len();
        let mut rng = Rng64::new(33);
        let u: Vec<Spinor<f64>> = (0..2 * n).map(|_| Spinor::random(&mut rng)).collect();
        let mut f = vec![Spinor::ZERO; 2 * n];
        schur.apply_block_full(&mut f, &u);
        let (u_e, u_o) = u.split_at(n);
        let (f_e, f_o) = f.split_at(n);

        // D~ee u_e must equal f~e.
        let mut scratch = vec![Spinor::ZERO; 2 * n];
        let mut schur_ue = vec![Spinor::ZERO; n];
        schur.apply_schur(&mut schur_ue, u_e, &mut scratch);
        let mut rhs = vec![Spinor::ZERO; n];
        schur.prepare_rhs(&mut rhs, f_e, f_o, &mut scratch);
        for cb in 0..n {
            let d = schur_ue[cb].sub(rhs[cb]);
            assert!(d.norm_sqr() < 1e-18, "cb {cb}: {}", d.norm_sqr());
        }

        // Odd reconstruction from the even solution.
        let mut u_o_rec = vec![Spinor::ZERO; n];
        schur.reconstruct_odd(&mut u_o_rec, u_e, f_o);
        for cb in 0..n {
            let d = u_o_rec[cb].sub(u_o[cb]);
            assert!(d.norm_sqr() < 1e-18, "cb {cb}: {}", d.norm_sqr());
        }
    }

    #[test]
    fn diag_inv_is_inverse() {
        let (op, grid) = setup();
        let fields = DomainFields::new(&op).unwrap();
        let schur = SchurOperator::new(&op, &fields, grid.domain(0));
        let n = schur.cb_len();
        let mut rng = Rng64::new(34);
        let v: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let mut dv = vec![Spinor::ZERO; n];
        schur.apply_diag(&mut dv, &v, Parity::Odd);
        let mut back = vec![Spinor::ZERO; n];
        schur.apply_diag_inv(&mut back, &dv, Parity::Odd);
        for cb in 0..n {
            let d = back[cb].sub(v[cb]);
            assert!(d.norm_sqr() < 1e-18);
        }
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let (op, grid) = setup();
        let fields = DomainFields::new(&op).unwrap();
        let schur = SchurOperator::new(&op, &fields, grid.domain(2));
        let mut rng = Rng64::new(35);
        let base = SpinorField::<f64>::random(*op.dims(), &mut rng);
        let v_e = schur.gather_cb(&base, Parity::Even);
        let mut acc = SpinorField::zeros(*op.dims());
        schur.scatter_add_cb(&mut acc, &v_e, Parity::Even);
        let back = schur.gather_cb(&acc, Parity::Even);
        for (a, b) in back.iter().zip(&v_e) {
            assert!(a.sub(*b).norm_sqr() < 1e-24);
        }
        // Everything outside the domain (or odd within) stayed zero.
        let total: f64 = acc.norm_sqr();
        let gathered: f64 = v_e.iter().map(|s| s.norm_sqr()).sum();
        assert!((total - gathered).abs() < 1e-12 * total.max(1.0));
    }

    #[test]
    fn hop_has_zero_dirichlet_boundary() {
        // A vector supported on a single corner site of the block only
        // spreads to its in-block neighbors.
        let (op, grid) = setup();
        let fields = DomainFields::new(&op).unwrap();
        let schur = SchurOperator::new(&op, &fields, grid.domain(0));
        let n = schur.cb_len();
        let bidx = SiteIndexer::new(grid.domain(0).dims);
        // Corner (0,0,0,0) is even.
        let (p, corner_cb) = bidx.cb_index(&Coord::new(0, 0, 0, 0));
        assert_eq!(p, Parity::Even);
        let mut v = vec![Spinor::<f64>::ZERO; n];
        let mut rng = Rng64::new(36);
        v[corner_cb] = Spinor::random(&mut rng);
        let mut out = vec![Spinor::ZERO; n];
        schur.hop(&mut out, &v, Parity::Even);
        // Non-zero only on the in-block forward neighbors of the corner.
        let mut nonzero = 0;
        for (cb, s) in out.iter().enumerate() {
            if s.norm_sqr() > 1e-20 {
                nonzero += 1;
                let c = bidx.cb_coord(Parity::Odd, cb);
                let dist: usize = c.0.iter().sum();
                assert_eq!(dist, 1, "unexpected spread to {c:?}");
            }
        }
        assert_eq!(nonzero, 4); // +x, +y, +z, +t neighbors only
    }
}
