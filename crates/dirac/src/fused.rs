//! The site-fused SIMD block operator (paper Sec. III-A, Figs. 2-3).
//!
//! This is the paper's data-layout contribution executed literally: the
//! spinors of a domain live in xy-tile SOA form ([`FusedField`]), gauge
//! links and clover blocks in matching per-tile SOA ([`FusedGauge`],
//! [`FusedClover`]), and the Wilson hop runs on whole lanes:
//!
//! - z/t hops move tile-to-tile with no lane shuffling; hops crossing the
//!   domain boundary are dropped wholesale (Dirichlet).
//! - x/y hops permute lanes in-register using the patterns of
//!   [`TileLayout::xy_neighbor`]; lanes whose neighbor lies outside the
//!   domain are masked to zero (the paper's mask_add, Fig. 2) — costing
//!   the documented 2/16 (x) and 4/16 (y) SIMD efficiency.
//!
//! Everything is validated lane-for-lane against the scalar
//! [`SchurOperator`](crate::block::SchurOperator) path.

use crate::gamma::GammaBasis;
use crate::wilson::WilsonClover;
use qdd_field::fused::{FusedField, FusedTile, VReal, VF16};
use qdd_field::spinor::Spinor;
use qdd_lattice::{Coord, Dims, Dir, Domain, LaneSrc, Parity, SiteIndexer, TileLayout};
use qdd_util::complex::{Real, C64};

/// One tile worth of gauge links for one direction: 3x3 complex in
/// re/im-split SOA (`idx = 2*(3*i + j) + {0: re, 1: im}`).
pub type GaugeTile<T, const N: usize> = [VReal<T, N>; 18];

/// Same layout with packed f16 storage (paper Sec. II-A: constants are
/// stored compressed and up-converted on load). Half the bytes of the f32
/// tile, a quarter of the f64 one.
pub type GaugeTileF16<const N: usize> = [VF16<N>; 18];

/// Lane-vector read access to a gauge tile in *compute* precision — the
/// hook that lets the SU(3) kernels stream either native or compressed
/// storage. The native impl is a register copy; the f16 impl fuses the
/// lane-wise up-conversion into the consuming multiply, so the compressed
/// tile is never materialized at full width in memory.
pub trait GaugeVecs<T: Real, const N: usize>: Sync {
    fn vec(&self, k: usize) -> VReal<T, N>;
}

impl<T: Real, const N: usize> GaugeVecs<T, N> for GaugeTile<T, N> {
    #[inline(always)]
    fn vec(&self, k: usize) -> VReal<T, N> {
        self[k]
    }
}

impl<T: Real, const N: usize> GaugeVecs<T, N> for GaugeTileF16<N> {
    #[inline(always)]
    fn vec(&self, k: usize) -> VReal<T, N> {
        self[k].decompress()
    }
}

/// Lane-vector read access to one tile's clover storage (both
/// chiralities), in compute precision. Mirrors [`GaugeVecs`].
pub trait CloverVecs<T: Real, const N: usize>: Sync {
    /// Real diagonal `i` (0..6) of chirality `ch`.
    fn diag(&self, ch: usize, i: usize) -> VReal<T, N>;
    /// Re/im-split off-diagonal component `k` (0..30) of chirality `ch`.
    fn off(&self, ch: usize, k: usize) -> VReal<T, N>;
}

/// Native per-tile clover storage: `(diag[6], off_re_im[30])` per
/// chirality.
pub type CloverTile<T, const N: usize> = [([VReal<T, N>; 6], [VReal<T, N>; 30]); 2];

/// Compressed per-tile clover storage. The 30 off-diagonal vectors pack
/// to f16; the 6 real diagonals stay at compute width because they carry
/// the `(4 + m)` mass shift, which is folded in *after* the clover term
/// was rounded — keeping them native makes the compressed operator
/// express the f16-rounded operator exactly (and the diagonal is the
/// term whose dynamic range f16 handles worst).
pub type CloverTileHalf<T, const N: usize> = [([VReal<T, N>; 6], [VF16<N>; 30]); 2];

impl<T: Real, const N: usize> CloverVecs<T, N> for CloverTile<T, N> {
    #[inline(always)]
    fn diag(&self, ch: usize, i: usize) -> VReal<T, N> {
        self[ch].0[i]
    }

    #[inline(always)]
    fn off(&self, ch: usize, k: usize) -> VReal<T, N> {
        self[ch].1[k]
    }
}

impl<T: Real, const N: usize> CloverVecs<T, N> for CloverTileHalf<T, N> {
    #[inline(always)]
    fn diag(&self, ch: usize, i: usize) -> VReal<T, N> {
        self[ch].0[i]
    }

    #[inline(always)]
    fn off(&self, ch: usize, k: usize) -> VReal<T, N> {
        self[ch].1[k].decompress()
    }
}

/// Apply one tile of the clover + mass diagonal: `dst = A src`, with the
/// constants streamed through [`CloverVecs`] (native or compressed). The
/// block kernel's [`FusedKernel::apply_diag`] and the full-lattice
/// operator's diagonal phase both run this exact FMA sequence, so native
/// storage stays bitwise identical across paths.
#[inline]
pub(crate) fn clover_apply_tile<T: Real, const N: usize, C: CloverVecs<T, N>>(
    clover: &C,
    src: &FusedTile<T, N>,
) -> FusedTile<T, N> {
    use qdd_field::clover::LOWER_PAIRS;
    let mut dst: FusedTile<T, N> = [VReal::ZERO; 24];
    for ch in 0..2 {
        // Diagonal.
        for i in 0..6 {
            let k = 6 * ch + i;
            let d = clover.diag(ch, i);
            dst[2 * k] = src[2 * k].mul(d);
            dst[2 * k + 1] = src[2 * k + 1].mul(d);
        }
        // Off-diagonals (i > j): dst_i += off * src_j;
        // dst_j += conj(off) * src_i.
        for (kk, &(i, j)) in LOWER_PAIRS.iter().enumerate() {
            let o_re = clover.off(ch, 2 * kk);
            let o_im = clover.off(ch, 2 * kk + 1);
            let gi = 6 * ch + i;
            let gj = 6 * ch + j;
            let (sj_re, sj_im) = (src[2 * gj], src[2 * gj + 1]);
            dst[2 * gi] = dst[2 * gi].fma(o_re, sj_re).fms(o_im, sj_im);
            dst[2 * gi + 1] = dst[2 * gi + 1].fma(o_re, sj_im).fma(o_im, sj_re);
            let (si_re, si_im) = (src[2 * gi], src[2 * gi + 1]);
            dst[2 * gj] = dst[2 * gj].fma(o_re, si_re).fma(o_im, si_im);
            dst[2 * gj + 1] = dst[2 * gj + 1].fma(o_re, si_im).fms(o_im, si_re);
        }
    }
    dst
}

/// Per-domain gauge field in fused layout.
pub struct FusedGauge<T: Real, const N: usize> {
    /// `[parity][tile][dir]`.
    data: [Vec<[GaugeTile<T, N>; 4]>; 2],
}

impl<T: Real, const N: usize> FusedGauge<T, N> {
    /// Gather the links of `domain` from the whole-lattice operator.
    pub fn gather(op: &WilsonClover<T>, domain: &Domain) -> Self {
        let layout = TileLayout::new(domain.dims);
        assert_eq!(layout.lanes(), N);
        let tiles = layout.tiles_per_parity();
        let zero = [[VReal::ZERO; 18]; 4];
        let mut data = [vec![zero; tiles], vec![zero; tiles]];
        let lattice_idx = SiteIndexer::new(*op.dims());
        let block_idx = SiteIndexer::new(domain.dims);
        for local in block_idx.iter() {
            let (p, tile, lane) = layout.locate(&local);
            let gsite = lattice_idx.index(&domain.to_lattice(&local));
            for dir in Dir::ALL {
                let u = op.gauge().link(gsite, dir);
                let gt = &mut data[p.index()][tile][dir.index()];
                for i in 0..3 {
                    for j in 0..3 {
                        gt[2 * (3 * i + j)].0[lane] = u.0[i][j].re;
                        gt[2 * (3 * i + j) + 1].0[lane] = u.0[i][j].im;
                    }
                }
            }
        }
        Self { data }
    }

    #[inline]
    pub(crate) fn tile(&self, parity: Parity, tile: usize, dir: Dir) -> &GaugeTile<T, N> {
        &self.data[parity.index()][tile][dir.index()]
    }
}

/// Per-domain clover + mass diagonal in fused layout: for each chirality,
/// 6 real diagonals and 15 complex off-diagonals (re/im split).
pub struct FusedClover<T: Real, const N: usize> {
    /// `[parity][tile][chirality]` -> (diag[6], off_re_im[30]).
    pub(crate) data: [Vec<CloverTile<T, N>>; 2],
}

impl<T: Real, const N: usize> FusedClover<T, N> {
    /// Gather the `(Nd+m) + Dcl` diagonal of `domain`.
    pub fn gather(op: &WilsonClover<T>, domain: &Domain) -> Self {
        let layout = TileLayout::new(domain.dims);
        assert_eq!(layout.lanes(), N);
        let tiles = layout.tiles_per_parity();
        let zero = [([VReal::ZERO; 6], [VReal::ZERO; 30]); 2];
        let mut data = [vec![zero; tiles], vec![zero; tiles]];
        let lattice_idx = SiteIndexer::new(*op.dims());
        let block_idx = SiteIndexer::new(domain.dims);
        for local in block_idx.iter() {
            let (p, tile, lane) = layout.locate(&local);
            let gsite = lattice_idx.index(&domain.to_lattice(&local));
            let site = op.diag().site(gsite);
            for ch in 0..2 {
                let blk = &site.block[ch];
                let (diag, off) = &mut data[p.index()][tile][ch];
                for i in 0..6 {
                    diag[i].0[lane] = blk.diag[i];
                }
                for k in 0..15 {
                    off[2 * k].0[lane] = blk.off[k].re;
                    off[2 * k + 1].0[lane] = blk.off[k].im;
                }
            }
        }
        Self { data }
    }
}

/// Per-domain gauge field with packed f16 tiles: the compressed-storage
/// counterpart of [`FusedGauge`] (paper Sec. II-A). Built by rounding a
/// native field; re-compressing values that are already
/// f16-representable is lossless, so an operator whose links were
/// pre-rounded through f16 yields bitwise-identical applies from either
/// container.
pub struct FusedGaugeF16<const N: usize> {
    /// `[parity][tile][dir]`.
    data: [Vec<[GaugeTileF16<N>; 4]>; 2],
}

impl<const N: usize> FusedGaugeF16<N> {
    /// Compress a gathered native gauge field tile-for-tile.
    pub fn compress<T: Real>(src: &FusedGauge<T, N>) -> Self {
        let data = std::array::from_fn(|p| {
            src.data[p]
                .iter()
                .map(|dirs| {
                    std::array::from_fn(|d| std::array::from_fn(|k| VF16::compress(&dirs[d][k])))
                })
                .collect()
        });
        Self { data }
    }

    #[inline]
    pub(crate) fn tile(&self, parity: Parity, tile: usize, dir: Dir) -> &GaugeTileF16<N> {
        &self.data[parity.index()][tile][dir.index()]
    }
}

/// Compressed counterpart of [`FusedClover`]: f16 off-diagonals, native
/// diagonals (see [`CloverTileHalf`]).
pub struct FusedCloverHalf<T: Real, const N: usize> {
    /// `[parity][tile][chirality]` -> (diag[6], off_re_im[30]).
    pub(crate) data: [Vec<CloverTileHalf<T, N>>; 2],
}

impl<T: Real, const N: usize> FusedCloverHalf<T, N> {
    /// Compress a gathered native clover field tile-for-tile.
    pub fn compress(src: &FusedClover<T, N>) -> Self {
        let data = std::array::from_fn(|p| {
            src.data[p]
                .iter()
                .map(|chs| {
                    std::array::from_fn(|ch| {
                        let (diag, off) = &chs[ch];
                        (*diag, std::array::from_fn(|k| VF16::compress(&off[k])))
                    })
                })
                .collect()
        });
        Self { data }
    }
}

/// Permutation pattern for one (flavor, parity, dir, orientation): source
/// lane table plus the boundary mask (false = neighbor outside block).
#[derive(Clone)]
struct Pattern<const N: usize> {
    table: [usize; N],
    mask: [bool; N],
    /// True if any lane survives (x/y always; z/t handled separately).
    any: bool,
}

/// Precomputed patterns and rules for the fused kernel of one block shape.
pub struct FusedKernel<T: Real, const N: usize> {
    layout: TileLayout,
    basis: GammaBasis,
    /// `[flavor][parity][dir(0..2 = x,y)][fwd]`.
    xy: Vec<Pattern<N>>,
    _marker: std::marker::PhantomData<T>,
}

#[inline]
pub(crate) fn xy_idx(flavor: usize, parity: Parity, dir: usize, fwd: usize) -> usize {
    ((flavor * 2 + parity.index()) * 2 + dir) * 2 + fwd
}

/// Accumulate `dst += coef * src` where `coef` is `+-1` or `+-i`
/// (complex, lane-wise on split re/im vectors).
#[inline(always)]
fn acc_unit<T: Real, const N: usize>(
    dst_re: &mut VReal<T, N>,
    dst_im: &mut VReal<T, N>,
    src_re: VReal<T, N>,
    src_im: VReal<T, N>,
    coef: C64,
) {
    if coef.im == 0.0 {
        if coef.re >= 0.0 {
            *dst_re = dst_re.add(src_re);
            *dst_im = dst_im.add(src_im);
        } else {
            *dst_re = dst_re.sub(src_re);
            *dst_im = dst_im.sub(src_im);
        }
    } else if coef.im > 0.0 {
        // * i: (re, im) -> (-im, re)
        *dst_re = dst_re.sub(src_im);
        *dst_im = dst_im.add(src_re);
    } else {
        // * -i
        *dst_re = dst_re.add(src_im);
        *dst_im = dst_im.sub(src_re);
    }
}

/// `dst += s * src` for a real lane-invariant scalar.
#[inline(always)]
fn acc_scaled<T: Real, const N: usize>(dst: &mut VReal<T, N>, src: VReal<T, N>, s: T) {
    *dst = dst.fma(src, VReal::splat(s));
}

pub(crate) type Half<T, const N: usize> = [[VReal<T, N>; 2]; 6]; // 6 complex (2 spin x 3 color), [re, im]

impl<T: Real, const N: usize> FusedKernel<T, N> {
    pub fn new(block: Dims) -> Self {
        let layout = TileLayout::new(block);
        assert_eq!(layout.lanes(), N, "lane count mismatch");
        let mut xy = Vec::with_capacity(16);
        for flavor in 0..2 {
            for parity in [Parity::Even, Parity::Odd] {
                for dir in [Dir::X, Dir::Y] {
                    for fwd in [false, true] {
                        let pat = layout.xy_neighbor(flavor, parity, dir, fwd);
                        let mut table = [0usize; N];
                        let mut mask = [false; N];
                        for (l, src) in pat.iter().enumerate() {
                            match src {
                                LaneSrc::Internal(s) => {
                                    table[l] = *s;
                                    mask[l] = true;
                                }
                                LaneSrc::Boundary(_) => {
                                    table[l] = l;
                                    mask[l] = false;
                                }
                            }
                        }
                        xy.push(Pattern { table, mask, any: mask.iter().any(|&b| b) });
                    }
                }
            }
        }
        Self { layout, basis: GammaBasis::degrand_rossi(), xy, _marker: std::marker::PhantomData }
    }

    #[inline]
    pub fn layout(&self) -> &TileLayout {
        &self.layout
    }

    /// Fetch a spinor tile with lanes permuted (and masked lanes zeroed).
    #[inline]
    fn permuted_tile(src: &FusedTile<T, N>, pattern: &Pattern<N>) -> FusedTile<T, N> {
        std::array::from_fn(|c| {
            let permuted = src[c].permute(&pattern.table);
            VReal::ZERO.masked_add(&pattern.mask, permuted)
        })
    }

    /// Project `(1 + sign*gamma_mu)` on a (possibly permuted) tile.
    #[inline]
    pub(crate) fn project(&self, dir: Dir, plus: bool, tile: &FusedTile<T, N>) -> Half<T, N> {
        let rule = self.basis.gamma[dir.index()].proj_rule(plus);
        let mut h: Half<T, N> = std::array::from_fn(|_| [VReal::ZERO; 2]);
        for s in 0..2 {
            let (src_spin, coef) = rule[s];
            for c in 0..3 {
                let k = 3 * s + c;
                let base = 3 * src_spin + c;
                let (mut re, mut im) = (tile[2 * k], tile[2 * k + 1]);
                acc_unit(&mut re, &mut im, tile[2 * base], tile[2 * base + 1], coef);
                h[k] = [re, im];
            }
        }
        h
    }

    /// `out = U * h` (color multiply of both spin components). Generic
    /// over the gauge storage: native tiles are read as-is, compressed
    /// tiles up-convert lane-wise on load — the FMA chain is identical.
    #[inline]
    pub(crate) fn su3_mul<G: GaugeVecs<T, N>>(g: &G, h: &Half<T, N>) -> Half<T, N> {
        let mut out: Half<T, N> = std::array::from_fn(|_| [VReal::ZERO; 2]);
        for s in 0..2 {
            for i in 0..3 {
                let (mut acc_re, mut acc_im) = (VReal::ZERO, VReal::ZERO);
                for c in 0..3 {
                    let u_re = g.vec(2 * (3 * i + c));
                    let u_im = g.vec(2 * (3 * i + c) + 1);
                    let h_re = h[3 * s + c][0];
                    let h_im = h[3 * s + c][1];
                    // acc += u * h
                    acc_re = acc_re.fma(u_re, h_re).fms(u_im, h_im);
                    acc_im = acc_im.fma(u_re, h_im).fma(u_im, h_re);
                }
                out[3 * s + i] = [acc_re, acc_im];
            }
        }
        out
    }

    /// `out = U^dag * h`.
    #[inline]
    pub(crate) fn su3_adj_mul<G: GaugeVecs<T, N>>(g: &G, h: &Half<T, N>) -> Half<T, N> {
        let mut out: Half<T, N> = std::array::from_fn(|_| [VReal::ZERO; 2]);
        for s in 0..2 {
            for i in 0..3 {
                let (mut acc_re, mut acc_im) = (VReal::ZERO, VReal::ZERO);
                for c in 0..3 {
                    // conj(U[c][i]) * h[c]
                    let u_re = g.vec(2 * (3 * c + i));
                    let u_im = g.vec(2 * (3 * c + i) + 1);
                    let h_re = h[3 * s + c][0];
                    let h_im = h[3 * s + c][1];
                    acc_re = acc_re.fma(u_re, h_re).fma(u_im, h_im);
                    acc_im = acc_im.fma(u_re, h_im).fms(u_im, h_re);
                }
                out[3 * s + i] = [acc_re, acc_im];
            }
        }
        out
    }

    /// One color row of `U h` (or `U^dag h` when `ADJ`) for spin `s`:
    /// the three-term FMA chain of [`Self::su3_mul`] for a single output
    /// component, returned in registers.
    #[inline(always)]
    fn su3_row<const ADJ: bool, G: GaugeVecs<T, N>>(
        g: &G,
        h: &Half<T, N>,
        s: usize,
        i: usize,
    ) -> (VReal<T, N>, VReal<T, N>) {
        let (mut acc_re, mut acc_im) = (VReal::ZERO, VReal::ZERO);
        for c in 0..3 {
            let (u_re, u_im) = if ADJ {
                (g.vec(2 * (3 * c + i)), g.vec(2 * (3 * c + i) + 1))
            } else {
                (g.vec(2 * (3 * i + c)), g.vec(2 * (3 * i + c) + 1))
            };
            let h_re = h[3 * s + c][0];
            let h_im = h[3 * s + c][1];
            if ADJ {
                acc_re = acc_re.fma(u_re, h_re).fma(u_im, h_im);
                acc_im = acc_im.fma(u_re, h_im).fms(u_im, h_re);
            } else {
                acc_re = acc_re.fma(u_re, h_re).fms(u_im, h_im);
                acc_im = acc_im.fma(u_re, h_im).fma(u_im, h_re);
            }
        }
        (acc_re, acc_im)
    }

    /// Accumulate one reconstructed component pair: the direct row `k`
    /// (scaled by -1/2) and its partner row `kr` (scaled by `coef`, which
    /// already carries the -1/2).
    #[inline(always)]
    fn recon_pair(
        acc: &mut FusedTile<T, N>,
        k: usize,
        kr: usize,
        coef: C64,
        re: VReal<T, N>,
        im: VReal<T, N>,
    ) {
        let m_half = T::from_f64(-0.5);
        acc_scaled(&mut acc[2 * k], re, m_half);
        acc_scaled(&mut acc[2 * k + 1], im, m_half);
        if coef.im == 0.0 {
            acc_scaled(&mut acc[2 * kr], re, T::from_f64(coef.re));
            acc_scaled(&mut acc[2 * kr + 1], im, T::from_f64(coef.re));
        } else {
            acc_scaled(&mut acc[2 * kr], im, T::from_f64(-coef.im));
            acc_scaled(&mut acc[2 * kr + 1], re, T::from_f64(coef.im));
        }
    }

    /// Fused color-multiply + reconstruct: `acc += -1/2 recon(U h)` (or
    /// `U^dag h` when `adj`) without materializing the intermediate
    /// half-spinor — each `U h` component is computed in registers and
    /// consumed by both rows it feeds. Performs the exact FMA sequences of
    /// [`Self::su3_mul`]/[`Self::su3_adj_mul`] followed by
    /// [`Self::reconstruct_acc`], so results are bitwise identical.
    #[inline]
    pub(crate) fn su3_recon_acc<G: GaugeVecs<T, N>>(
        &self,
        dir: Dir,
        plus: bool,
        adj: bool,
        g: &G,
        h: &Half<T, N>,
        acc: &mut FusedTile<T, N>,
    ) {
        let rule = self.basis.gamma[dir.index()].recon_rule(plus);
        // rule maps output rows 2+s to source spin rule[s].0; the two
        // source spins are a permutation of {0, 1}, so iterating the rule
        // covers every `U h` component exactly once.
        for (s_out, &(sp, coef)) in rule.iter().enumerate() {
            let coef = coef.scale(-0.5);
            for i in 0..3 {
                let (re, im) = if adj {
                    Self::su3_row::<true, G>(g, h, sp, i)
                } else {
                    Self::su3_row::<false, G>(g, h, sp, i)
                };
                Self::recon_pair(acc, 3 * sp + i, 3 * (2 + s_out) + i, coef, re, im);
            }
        }
    }

    /// Reconstruct-and-accumulate with the half-spinor read through a lane
    /// permutation (and optional per-lane sign): the backward-hop epilogue
    /// of the full-lattice kernel, where `U^dag h` is computed in source
    /// lane order and permuted on consumption instead of materialized.
    #[inline]
    pub(crate) fn reconstruct_acc_permuted(
        &self,
        dir: Dir,
        plus: bool,
        h: &Half<T, N>,
        table: &[usize; N],
        sign: Option<&VReal<T, N>>,
        acc: &mut FusedTile<T, N>,
    ) {
        let rule = self.basis.gamma[dir.index()].recon_rule(plus);
        for (s_out, &(sp, coef)) in rule.iter().enumerate() {
            let coef = coef.scale(-0.5);
            for i in 0..3 {
                let k = 3 * sp + i;
                let mut re = h[k][0].permute(table);
                let mut im = h[k][1].permute(table);
                if let Some(s) = sign {
                    re = re.mul(*s);
                    im = im.mul(*s);
                }
                Self::recon_pair(acc, k, 3 * (2 + s_out) + i, coef, re, im);
            }
        }
    }

    /// Reconstruct-and-accumulate `acc += -1/2 * recon(h)`.
    #[inline]
    pub(crate) fn reconstruct_acc(
        &self,
        dir: Dir,
        plus: bool,
        h: &Half<T, N>,
        acc: &mut FusedTile<T, N>,
    ) {
        let m_half = T::from_f64(-0.5);
        // Rows 0, 1 directly.
        for k in 0..6 {
            acc_scaled(&mut acc[2 * k], h[k][0], m_half);
            acc_scaled(&mut acc[2 * k + 1], h[k][1], m_half);
        }
        // Rows 2, 3 from the rule.
        let rule = self.basis.gamma[dir.index()].recon_rule(plus);
        for s in 0..2 {
            let (src_spin, coef) = rule[s];
            let coef = coef.scale(-0.5);
            for c in 0..3 {
                let k = 3 * (2 + s) + c;
                let base = 3 * src_spin + c;
                // acc[k] += coef * h[base]; coef is +-1/2 or +-i/2.
                let (re, im) = (h[base][0], h[base][1]);
                if coef.im == 0.0 {
                    acc_scaled(&mut acc[2 * k], re, T::from_f64(coef.re));
                    acc_scaled(&mut acc[2 * k + 1], im, T::from_f64(coef.re));
                } else {
                    acc_scaled(&mut acc[2 * k], im, T::from_f64(-coef.im));
                    acc_scaled(&mut acc[2 * k + 1], re, T::from_f64(coef.im));
                }
            }
        }
    }

    /// The fused block hop: `out = (-1/2 Dw)|_block inp`, mapping the
    /// vector on parity `from` to tiles of parity `to = from.flip()`.
    /// `out` is overwritten.
    pub fn hop(
        &self,
        out: &mut FusedField<T, N>,
        inp: &FusedField<T, N>,
        gauge: &FusedGauge<T, N>,
        from: Parity,
    ) {
        let to = from.flip();
        let block = *self.layout.block();
        let (bz, bt) = (block[Dir::Z], block[Dir::T]);
        for tz in 0..bz {
            for tt in 0..bt {
                let tile = self.layout.tile_of(tz, tt);
                let flavor = self.layout.flavor(tile);
                let mut acc: FusedTile<T, N> = [VReal::ZERO; 24];

                // x and y hops: permutations within the same (z, t) slice.
                for (di, dir) in [Dir::X, Dir::Y].into_iter().enumerate() {
                    for (fi, fwd) in [false, true].into_iter().enumerate() {
                        let pat = &self.xy[xy_idx(flavor, to, di, fi)];
                        if !pat.any {
                            continue;
                        }
                        let src = Self::permuted_tile(inp.tile(from, tile), pat);
                        if fwd {
                            // (1 - gamma) U(x) psi(x+mu)
                            let h = self.project(dir, false, &src);
                            let uh = Self::su3_mul(gauge.tile(to, tile, dir), &h);
                            self.reconstruct_acc(dir, false, &uh, &mut acc);
                        } else {
                            // (1 + gamma) U^dag(x-mu) psi(x-mu): the link
                            // lives at the source site -> permute it too.
                            let g_src: GaugeTile<T, N> = std::array::from_fn(|c| {
                                gauge.tile(from, tile, dir)[c].permute(&pat.table)
                            });
                            let h = self.project(dir, true, &src);
                            let uh = Self::su3_adj_mul(&g_src, &h);
                            self.reconstruct_acc(dir, true, &uh, &mut acc);
                        }
                    }
                }

                // z and t hops: tile-to-tile, no shuffles; drop hops that
                // cross the block boundary.
                for (dir, coord, extent) in [(Dir::Z, tz, bz), (Dir::T, tt, bt)] {
                    // Forward.
                    if coord + 1 < extent {
                        let ntile = match dir {
                            Dir::Z => self.layout.tile_of(tz + 1, tt),
                            _ => self.layout.tile_of(tz, tt + 1),
                        };
                        let src = inp.tile(from, ntile);
                        let h = self.project(dir, false, src);
                        let uh = Self::su3_mul(gauge.tile(to, tile, dir), &h);
                        self.reconstruct_acc(dir, false, &uh, &mut acc);
                    }
                    // Backward.
                    if coord > 0 {
                        let ntile = match dir {
                            Dir::Z => self.layout.tile_of(tz - 1, tt),
                            _ => self.layout.tile_of(tz, tt - 1),
                        };
                        let src = inp.tile(from, ntile);
                        let h = self.project(dir, true, src);
                        let uh = Self::su3_adj_mul(gauge.tile(from, ntile, dir), &h);
                        self.reconstruct_acc(dir, true, &uh, &mut acc);
                    }
                }

                *out.tile_mut(to, tile) = acc;
            }
        }
    }

    /// Apply the fused clover + mass diagonal on one parity (in place on
    /// `out` from `inp`).
    pub fn apply_diag(
        &self,
        out: &mut FusedField<T, N>,
        inp: &FusedField<T, N>,
        clover: &FusedClover<T, N>,
        parity: Parity,
    ) {
        for tile in 0..self.layout.tiles_per_parity() {
            let src = inp.tile(parity, tile);
            *out.tile_mut(parity, tile) =
                clover_apply_tile(&clover.data[parity.index()][tile], src);
        }
    }

    /// The full fused block operator `D = diag + hop` on both parities:
    /// `out = D inp` with Dirichlet block boundary.
    pub fn apply_block(
        &self,
        out: &mut FusedField<T, N>,
        inp: &FusedField<T, N>,
        gauge: &FusedGauge<T, N>,
        clover: &FusedClover<T, N>,
        scratch: &mut FusedField<T, N>,
    ) {
        // Hops write into `out`; diag into scratch; sum.
        self.hop(out, inp, gauge, Parity::Even); // writes odd tiles
        self.hop(out, inp, gauge, Parity::Odd); // writes even tiles
        self.apply_diag(scratch, inp, clover, Parity::Even);
        self.apply_diag(scratch, inp, clover, Parity::Odd);
        for parity in [Parity::Even, Parity::Odd] {
            for tile in 0..self.layout.tiles_per_parity() {
                let d = *scratch.tile(parity, tile);
                let o = out.tile_mut(parity, tile);
                for c in 0..24 {
                    o[c] = o[c].add(d[c]);
                }
            }
        }
    }
}

/// The fused even-odd Schur complement of one domain,
/// `D~ee = Dee - Deo Doo^-1 Doe`, entirely on tile vectors: the domain's
/// gauge links in tile layout, `Dee` on the even tiles only and `Doo^-1`
/// on the odd tiles only — exactly the constants a block solve reads.
/// The shape's [`FusedKernel`] holds nothing domain-specific, so it is
/// shared by all domains and passed in.
///
/// Every method names the tiles it reads and writes; `tmp` arguments are
/// scratch whose odd tiles are overwritten.
pub struct FusedSchur<T: Real, const N: usize> {
    gauge: FusedGauge<T, N>,
    /// `(Nd+m) + Dcl` per even tile.
    dee: Vec<CloverTile<T, N>>,
    /// Its inverse per odd tile.
    doo_inv: Vec<CloverTile<T, N>>,
}

impl<T: Real, const N: usize> FusedSchur<T, N> {
    /// Assemble from the whole-lattice operator and a domain. Returns
    /// `None` when an odd-site diagonal is singular.
    pub fn new(op: &WilsonClover<T>, domain: &Domain) -> Option<Self> {
        let gauge = FusedGauge::gather(op, domain);
        let layout = TileLayout::new(domain.dims);
        let tiles = layout.tiles_per_parity();
        let zero = [([VReal::ZERO; 6], [VReal::ZERO; 30]); 2];
        let mut dee = vec![zero; tiles];
        let mut doo_inv = vec![zero; tiles];
        let lattice_idx = SiteIndexer::new(*op.dims());
        let block_idx = SiteIndexer::new(domain.dims);
        for local in block_idx.iter() {
            let (p, tile, lane) = layout.locate(&local);
            let gsite = lattice_idx.index(&domain.to_lattice(&local));
            let site = op.diag().site(gsite);
            let (blocks, dst) = match p {
                Parity::Even => (site.block, &mut dee[tile]),
                Parity::Odd => (site.invert()?.block, &mut doo_inv[tile]),
            };
            for ch in 0..2 {
                let blk = &blocks[ch];
                let (diag_v, off) = &mut dst[ch];
                for i in 0..6 {
                    diag_v[i].0[lane] = blk.diag[i];
                }
                for k in 0..15 {
                    off[2 * k].0[lane] = blk.off[k].re;
                    off[2 * k + 1].0[lane] = blk.off[k].im;
                }
            }
        }
        Some(Self { gauge, dee, doo_inv })
    }

    /// `out(odd) = Doo^-1 inp(odd)`.
    fn apply_doo_inv(&self, out: &mut FusedField<T, N>, inp: &FusedField<T, N>) {
        for (tile, d) in self.doo_inv.iter().enumerate() {
            *out.tile_mut(Parity::Odd, tile) = clover_apply_tile(d, inp.tile(Parity::Odd, tile));
        }
    }

    /// `out(even) = D~ee inp(even)`; `out(odd)` holds `Doe inp(even)`
    /// afterwards and `tmp(odd)` is overwritten.
    pub fn apply_schur(
        &self,
        kernel: &FusedKernel<T, N>,
        out: &mut FusedField<T, N>,
        inp: &FusedField<T, N>,
        tmp: &mut FusedField<T, N>,
    ) {
        // out(odd) = Doe inp(even); tmp(odd) = Doo^-1 out(odd)
        kernel.hop(out, inp, &self.gauge, Parity::Even);
        self.apply_doo_inv(tmp, out);
        // out(even) = Dee inp(even) - Deo tmp(odd)
        kernel.hop(out, tmp, &self.gauge, Parity::Odd);
        for (tile, d) in self.dee.iter().enumerate() {
            let dee = clover_apply_tile(d, inp.tile(Parity::Even, tile));
            let o = out.tile_mut(Parity::Even, tile);
            for c in 0..24 {
                o[c] = dee[c].sub(o[c]);
            }
        }
    }

    /// Schur right-hand side `out(even) = res(even) - Deo Doo^-1 res(odd)`;
    /// `tmp(odd)` is overwritten.
    pub fn prepare_rhs(
        &self,
        kernel: &FusedKernel<T, N>,
        out: &mut FusedField<T, N>,
        res: &FusedField<T, N>,
        tmp: &mut FusedField<T, N>,
    ) {
        self.apply_doo_inv(tmp, res);
        kernel.hop(out, tmp, &self.gauge, Parity::Odd);
        for tile in 0..self.dee.len() {
            let r = res.tile(Parity::Even, tile);
            let o = out.tile_mut(Parity::Even, tile);
            for c in 0..24 {
                o[c] = r[c].sub(o[c]);
            }
        }
    }

    /// Odd half from the even solution, in place:
    /// `x(odd) = Doo^-1 (res(odd) - Doe x(even))`; `tmp(odd)` is
    /// overwritten.
    pub fn reconstruct_odd(
        &self,
        kernel: &FusedKernel<T, N>,
        x: &mut FusedField<T, N>,
        res: &FusedField<T, N>,
        tmp: &mut FusedField<T, N>,
    ) {
        kernel.hop(tmp, x, &self.gauge, Parity::Even);
        for tile in 0..self.doo_inv.len() {
            let r = res.tile(Parity::Odd, tile);
            let t = tmp.tile_mut(Parity::Odd, tile);
            for c in 0..24 {
                t[c] = r[c].sub(t[c]);
            }
        }
        self.apply_doo_inv(x, tmp);
    }

    /// Nominal flop count of one Schur application (the paper's per-site
    /// accounting, as [`SchurOperator::schur_flops`](crate::block::SchurOperator::schur_flops)).
    pub fn schur_flops(&self) -> f64 {
        crate::wilson::TOTAL_FLOPS_PER_SITE * (2 * N * self.dee.len()) as f64
    }
}

/// Gather a block-local checkerboard slice pair (as used by the scalar
/// Schur path) into a fused field. `even` and `odd` are cb-ordered block
/// vectors.
pub fn fused_from_cb<T: Real, const N: usize>(
    block: Dims,
    even: &[Spinor<T>],
    odd: &[Spinor<T>],
) -> FusedField<T, N> {
    let idx = SiteIndexer::new(block);
    let full: Vec<Spinor<T>> = idx
        .iter()
        .map(|c| {
            let (p, cb) = idx.cb_index(&c);
            match p {
                Parity::Even => even[cb],
                Parity::Odd => odd[cb],
            }
        })
        .collect();
    FusedField::gather(&full, block)
}

/// Scatter a fused field back to checkerboard vectors.
pub fn fused_to_cb<T: Real, const N: usize>(
    field: &FusedField<T, N>,
    block: Dims,
) -> (Vec<Spinor<T>>, Vec<Spinor<T>>) {
    let idx = SiteIndexer::new(block);
    let mut full = vec![Spinor::ZERO; block.volume()];
    field.scatter(&mut full);
    let half = block.volume() / 2;
    let mut even = vec![Spinor::ZERO; half];
    let mut odd = vec![Spinor::ZERO; half];
    for c in idx.iter() {
        let (p, cb) = idx.cb_index(&c);
        match p {
            Parity::Even => even[cb] = full[idx.index(&c)],
            Parity::Odd => odd[cb] = full[idx.index(&c)],
        }
    }
    (even, odd)
}

/// Helper for tests/benches: local coordinate round trip.
pub fn coord_roundtrip_check(block: Dims) -> bool {
    let layout = TileLayout::new(block);
    let idx = SiteIndexer::new(block);
    let coords: Vec<Coord> = idx.iter().collect();
    coords.iter().all(|c| {
        let (p, t, l) = layout.locate(c);
        layout.coord(p, t, l) == *c
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{DomainFields, SchurOperator};
    use crate::clover::build_clover_field;
    use crate::wilson::BoundaryPhases;
    use qdd_field::fields::GaugeField;
    use qdd_lattice::DomainGrid;
    use qdd_util::rng::Rng64;

    fn setup(block: Dims) -> (WilsonClover<f64>, DomainGrid) {
        let dims = block.times(&Dims::new(2, 2, 2, 2));
        let mut rng = Rng64::new(71);
        let g = GaugeField::random(dims, &mut rng, 0.7);
        let basis = GammaBasis::degrand_rossi();
        let c = build_clover_field(&g, 1.6, &basis);
        let op = WilsonClover::new(g, c, 0.2, BoundaryPhases::periodic());
        let grid = DomainGrid::new(dims, block);
        (op, grid)
    }

    fn check_fused_matches_scalar<const N: usize>(block: Dims) {
        let (op, grid) = setup(block);
        let fields = DomainFields::new(&op).unwrap();
        for dom_idx in [0, 5, grid.num_domains() - 1] {
            let domain = grid.domain(dom_idx);
            let schur = SchurOperator::new(&op, &fields, domain);
            let n = schur.cb_len();
            let mut rng = Rng64::new(72 + dom_idx as u64);
            let in_e: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
            let in_o: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();

            // Scalar reference: the full block operator.
            let mut block_in = in_e.clone();
            block_in.extend_from_slice(&in_o);
            let mut expect = vec![Spinor::ZERO; 2 * n];
            schur.apply_block_full(&mut expect, &block_in);

            // Fused path.
            let kernel = FusedKernel::<f64, N>::new(block);
            let gauge = FusedGauge::<f64, N>::gather(&op, &domain);
            let clover = FusedClover::<f64, N>::gather(&op, &domain);
            let inp = fused_from_cb::<f64, N>(block, &in_e, &in_o);
            let mut out = FusedField::<f64, N>::zeros(block);
            let mut scratch = FusedField::<f64, N>::zeros(block);
            kernel.apply_block(&mut out, &inp, &gauge, &clover, &mut scratch);
            let (got_e, got_o) = fused_to_cb::<f64, N>(&out, block);

            for cb in 0..n {
                let de = got_e[cb].sub(expect[cb]);
                assert!(
                    de.norm_sqr() < 1e-20,
                    "block {block} domain {dom_idx} even cb {cb}: {}",
                    de.norm_sqr()
                );
                let do_ = got_o[cb].sub(expect[n + cb]);
                assert!(
                    do_.norm_sqr() < 1e-20,
                    "block {block} domain {dom_idx} odd cb {cb}: {}",
                    do_.norm_sqr()
                );
            }
        }
    }

    #[test]
    fn fused_block_operator_matches_scalar_paper_block() {
        // The paper's 8x4 cross-section: 16 lanes.
        check_fused_matches_scalar::<16>(Dims::new(8, 4, 4, 4));
    }

    #[test]
    fn fused_block_operator_matches_scalar_8_lanes() {
        check_fused_matches_scalar::<8>(Dims::new(4, 4, 2, 2));
    }

    #[test]
    fn fused_hop_only_matches_scalar() {
        let block = Dims::new(4, 4, 2, 2);
        let (op, grid) = setup(block);
        let fields = DomainFields::new(&op).unwrap();
        let domain = grid.domain(3);
        let schur = SchurOperator::new(&op, &fields, domain);
        let n = schur.cb_len();
        let mut rng = Rng64::new(75);
        let in_e: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let zero = vec![Spinor::ZERO; n];
        let mut expect = vec![Spinor::ZERO; n];
        schur.hop(&mut expect, &in_e, Parity::Even); // even -> odd

        let kernel = FusedKernel::<f64, 8>::new(block);
        let gauge = FusedGauge::<f64, 8>::gather(&op, &domain);
        let inp = fused_from_cb::<f64, 8>(block, &in_e, &zero);
        let mut out = FusedField::<f64, 8>::zeros(block);
        kernel.hop(&mut out, &inp, &gauge, Parity::Even);
        let (_, got_o) = fused_to_cb::<f64, 8>(&out, block);
        for cb in 0..n {
            let d = got_o[cb].sub(expect[cb]);
            assert!(d.norm_sqr() < 1e-20, "cb {cb}: {}", d.norm_sqr());
        }
    }

    #[test]
    fn fused_diag_matches_scalar() {
        let block = Dims::new(4, 4, 2, 2);
        let (op, grid) = setup(block);
        let fields = DomainFields::new(&op).unwrap();
        let domain = grid.domain(1);
        let schur = SchurOperator::new(&op, &fields, domain);
        let n = schur.cb_len();
        let mut rng = Rng64::new(76);
        let in_o: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let zero = vec![Spinor::ZERO; n];
        let mut expect = vec![Spinor::ZERO; n];
        schur.apply_diag(&mut expect, &in_o, Parity::Odd);

        let kernel = FusedKernel::<f64, 8>::new(block);
        let clover = FusedClover::<f64, 8>::gather(&op, &domain);
        let inp = fused_from_cb::<f64, 8>(block, &zero, &in_o);
        let mut out = FusedField::<f64, 8>::zeros(block);
        kernel.apply_diag(&mut out, &inp, &clover, Parity::Odd);
        let (_, got_o) = fused_to_cb::<f64, 8>(&out, block);
        for cb in 0..n {
            let d = got_o[cb].sub(expect[cb]);
            assert!(d.norm_sqr() < 1e-22, "cb {cb}: {}", d.norm_sqr());
        }
    }

    #[test]
    fn f32_fused_path_works() {
        let block = Dims::new(8, 4, 4, 4);
        let (op, grid) = setup(block);
        let op32: WilsonClover<f32> = op.cast();
        let domain = grid.domain(0);
        let kernel = FusedKernel::<f32, 16>::new(block);
        let gauge = FusedGauge::<f32, 16>::gather(&op32, &domain);
        let clover = FusedClover::<f32, 16>::gather(&op32, &domain);
        let n = block.volume() / 2;
        let mut rng = Rng64::new(77);
        let in_e: Vec<Spinor<f32>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let in_o: Vec<Spinor<f32>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let inp = fused_from_cb::<f32, 16>(block, &in_e, &in_o);
        let mut out = FusedField::<f32, 16>::zeros(block);
        let mut scratch = FusedField::<f32, 16>::zeros(block);
        kernel.apply_block(&mut out, &inp, &gauge, &clover, &mut scratch);
        // Cross-check against the f64 scalar path at f32 accuracy.
        let fields = DomainFields::new(&op).unwrap();
        let schur = SchurOperator::new(&op, &fields, domain);
        let mut block_in: Vec<Spinor<f64>> = in_e.iter().map(|s| s.cast()).collect();
        block_in.extend(in_o.iter().map(|s| s.cast::<f64>()));
        let mut expect = vec![Spinor::ZERO; 2 * n];
        schur.apply_block_full(&mut expect, &block_in);
        let (got_e, got_o) = fused_to_cb::<f32, 16>(&out, block);
        for cb in 0..n {
            let ge: Spinor<f64> = got_e[cb].cast();
            let d = ge.sub(expect[cb]);
            assert!(d.norm_sqr() < 1e-8, "even cb {cb}: {}", d.norm_sqr());
            let go: Spinor<f64> = got_o[cb].cast();
            let d = go.sub(expect[n + cb]);
            assert!(d.norm_sqr() < 1e-8, "odd cb {cb}: {}", d.norm_sqr());
        }
    }

    #[test]
    fn fused_schur_matches_scalar() {
        let block = Dims::new(8, 4, 4, 4);
        let (op, grid) = setup(block);
        let fields = DomainFields::new(&op).unwrap();
        let domain = grid.domain(2);
        let schur = SchurOperator::new(&op, &fields, domain);
        let n = schur.cb_len();
        let mut rng = Rng64::new(78);
        let in_e: Vec<Spinor<f64>> = (0..n).map(|_| Spinor::random(&mut rng)).collect();
        let zero = vec![Spinor::ZERO; n];
        let mut expect = vec![Spinor::ZERO; n];
        let mut scratch = vec![Spinor::ZERO; 2 * n];
        schur.apply_schur(&mut expect, &in_e, &mut scratch);

        let fused = FusedSchur::<f64, 16>::new(&op, &domain).unwrap();
        let kernel = FusedKernel::<f64, 16>::new(block);
        let inp = fused_from_cb::<f64, 16>(block, &in_e, &zero);
        let mut out = FusedField::<f64, 16>::zeros(block);
        let mut tmp = FusedField::<f64, 16>::zeros(block);
        fused.apply_schur(&kernel, &mut out, &inp, &mut tmp);
        let (got_e, _) = fused_to_cb::<f64, 16>(&out, block);
        for cb in 0..n {
            let d = got_e[cb].sub(expect[cb]);
            assert!(d.norm_sqr() < 1e-18, "cb {cb}: {}", d.norm_sqr());
        }
    }

    #[test]
    fn coord_roundtrip_helper() {
        assert!(coord_roundtrip_check(Dims::new(8, 4, 4, 4)));
        assert!(coord_roundtrip_check(Dims::new(4, 4, 2, 2)));
    }
}
