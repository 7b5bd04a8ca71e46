//! Order statistics over per-test samples.

/// Percentiles the tail metric may name, in per mille, lowest first.
pub const TAIL_PER_MILLE: [u64; 6] = [500, 750, 900, 950, 990, 999];
/// A tail percentile needs at least this many samples above it.
pub const TAIL_BEYOND: usize = 10;
/// Below this many samples no percentile is reported as a tail.
pub const TAIL_MIN_SAMPLES: usize = 20;

/// The samples in ascending order.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, or `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// 1-based nearest rank of the per-mille percentile `pm` among `n`
/// samples: the smallest rank whose share of samples reaches `pm`.
fn nearest_rank(pm: u64, n: usize) -> usize {
    let n64 = n as u64;
    (((pm * n64).div_ceil(1000)) as usize).clamp(1, n)
}

/// The per-mille percentile `pm` by nearest rank, or `None` for no
/// samples.
pub fn percentile(xs: &[f64], pm: u64) -> Option<f64> {
    let v = sorted(xs);
    (!v.is_empty()).then(|| v[nearest_rank(pm, v.len()) - 1])
}

/// The highest percentile of [`TAIL_PER_MILLE`] with at least
/// [`TAIL_BEYOND`] samples above its nearest-rank position, as
/// `(per mille, value)`. `None` below [`TAIL_MIN_SAMPLES`] samples.
pub fn tail(xs: &[f64]) -> Option<(u64, f64)> {
    let n = xs.len();
    if n < TAIL_MIN_SAMPLES {
        return None;
    }
    let v = sorted(xs);
    TAIL_PER_MILLE.iter().rev().find_map(|&pm| {
        let rank = nearest_rank(pm, n);
        (n - rank >= TAIL_BEYOND).then(|| (pm, v[rank - 1]))
    })
}

/// Name of a per-mille percentile: `p50`, `p99.9`.
pub fn percentile_name(pm: u64) -> String {
    if pm.is_multiple_of(10) {
        format!("p{}", pm / 10)
    } else {
        format!("p{}.{}", pm / 10, pm % 10)
    }
}
