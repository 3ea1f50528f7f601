//! Seeded inputs shared by the workloads, and the output check.
//!
//! The seed is the benchmark's argument; the library only ever sees the
//! gauge fields and sources generated from it.

use qdd_dirac::clover::build_clover_field;
use qdd_dirac::gamma::GammaBasis;
use qdd_dirac::wilson::{BoundaryPhases, WilsonClover};
use qdd_field::fields::{CloverField, GaugeField, SpinorField};
use qdd_lattice::Dims;
use qdd_util::rng::Rng64;
use std::time::Instant;

/// Spread of the synthetic gauge links.
pub const SPREAD: f64 = 0.45;
/// Clover coefficient `c_sw`.
pub const CSW: f64 = 1.5;
/// Target relative residual of every solve.
pub const TOLERANCE: f64 = 1e-10;

/// SplitMix64 finalizer: decorrelates `(seed, stream, index)` triples.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The gauge field of a workload run.
pub fn gauge(dims: Dims, seed: u64, stream: u64) -> GaugeField<f64> {
    GaugeField::random(dims, &mut Rng64::new(mix(seed, stream, 0)), SPREAD)
}

/// Right-hand side number `index` of a workload run.
pub fn source(dims: Dims, seed: u64, stream: u64, index: u64) -> SpinorField<f64> {
    SpinorField::random(dims, &mut Rng64::new(mix(seed, stream, index + 1)))
}

/// The clover field of `gauge` and the seconds its build took.
pub fn clover(gauge: &GaugeField<f64>) -> (CloverField<f64>, f64) {
    let t0 = Instant::now();
    let c = build_clover_field(gauge, CSW, &GammaBasis::degrand_rossi());
    (c, t0.elapsed().as_secs_f64())
}

/// The double-precision Wilson-Clover operator at `mass` with
/// antiperiodic time boundary.
pub fn operator(gauge: GaugeField<f64>, clover: CloverField<f64>, mass: f64) -> WilsonClover<f64> {
    WilsonClover::new(gauge, clover, mass, BoundaryPhases::antiperiodic_t())
}

/// `|b - A x| / |b|` recomputed in f64 with the scalar site-loop
/// operator, the oracle every returned solution is checked against.
pub fn oracle_residual(op: &WilsonClover<f64>, x: &SpinorField<f64>, b: &SpinorField<f64>) -> f64 {
    let mut r = SpinorField::zeros(*b.dims());
    op.apply(&mut r, x);
    r.sub_assign(b);
    r.norm() / b.norm()
}

/// Bit pattern of a field, for bitwise comparisons.
pub fn field_bits(f: &SpinorField<f64>) -> Vec<u64> {
    f.as_slice()
        .iter()
        .flat_map(|s| {
            s.0.iter().flat_map(|v| v.0.iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]))
        })
        .collect()
}

pub fn history_bits(h: &[f64]) -> Vec<u64> {
    h.iter().map(|v| v.to_bits()).collect()
}
