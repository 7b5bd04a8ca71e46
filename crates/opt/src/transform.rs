//! Bijections between bounded model parameters and unconstrained space.
//!
//! BFGS works on ℝⁿ; the branch-site model's parameters live in boxes,
//! half-lines and a simplex. Each [`Block`] maps a slice of constrained
//! parameters to a slice of unconstrained ones; a [`BlockTransform`]
//! concatenates blocks into a whole-vector bijection.

/// One block of the parameter vector and its constraint geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Block {
    /// A free scalar (identity transform).
    Free,
    /// `x > lo`, via `x = lo + e^z`. Used for κ and ω2 − 1 style bounds.
    LowerBounded {
        /// Exclusive lower bound.
        lo: f64,
    },
    /// `lo < x < hi`, via a logistic map. Used for ω0 ∈ (0, 1) and branch
    /// lengths (which CodeML also caps from above).
    BoxBounded {
        /// Exclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// A parameter held constant (consumes no unconstrained coordinates).
    Fixed {
        /// The pinned value.
        value: f64,
    },
    /// `dim` probabilities that sum to less than 1 with an implicit
    /// remainder class: consumes `dim` constrained values (p₁…p_dim) and
    /// `dim` unconstrained ones, via softmax against the implicit class.
    /// Used for (p0, p1) of Table I, whose remainder 1−p0−p1 is the
    /// positively-selected mass.
    SimplexWithRest {
        /// Number of explicit proportions.
        dim: usize,
    },
    /// `count` box-bounded scalars sharing one (lo, hi) — compact encoding
    /// for branch-length vectors.
    BoxBoundedVec {
        /// Exclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
        /// Number of scalars.
        count: usize,
    },
}

impl Block {
    /// Number of constrained parameters this block covers.
    pub fn constrained_len(&self) -> usize {
        match self {
            Block::Free
            | Block::LowerBounded { .. }
            | Block::BoxBounded { .. }
            | Block::Fixed { .. } => 1,
            Block::SimplexWithRest { dim } => *dim,
            Block::BoxBoundedVec { count, .. } => *count,
        }
    }

    /// Number of unconstrained coordinates this block consumes.
    pub fn unconstrained_len(&self) -> usize {
        match self {
            Block::Fixed { .. } => 0,
            other => other.constrained_len(),
        }
    }
}

/// A whole-vector bijection assembled from [`Block`]s.
#[derive(Debug, Clone)]
pub struct BlockTransform {
    blocks: Vec<Block>,
}

/// Numerical guard: logistic inputs are clamped to ±`ZCAP` so `exp` never
/// overflows and the map stays strictly inside the box.
const ZCAP: f64 = 30.0;
/// `LowerBounded` exponents are clamped to ±`EXP_CAP`, so `e^z` stays
/// finite.
const EXP_CAP: f64 = ZCAP * 17.0;
/// Softmax logits are clamped to ±`SOFTMAX_CAP`.
const SOFTMAX_CAP: f64 = 700.0;

fn logistic(z: f64) -> f64 {
    let z = z.clamp(-ZCAP, ZCAP);
    1.0 / (1.0 + (-z).exp())
}

/// `d logistic / dz`, zero where the clamp holds `z`.
fn logistic_slope(z: f64) -> f64 {
    if z.abs() > ZCAP {
        return 0.0;
    }
    let s = logistic(z);
    s * (1.0 - s)
}

/// The softmax of `(z₁…z_dim, 0)` without its last (remainder) entry.
/// Each logit is clamped to ±[`SOFTMAX_CAP`] first, and the max is taken
/// over the clamped logits, so every exponent is ≤ 0 and the denominator
/// is ≥ 1.
fn softmax_with_rest(zs: &[f64]) -> Vec<f64> {
    let clamped: Vec<f64> = zs
        .iter()
        .map(|v| v.clamp(-SOFTMAX_CAP, SOFTMAX_CAP))
        .collect();
    let zmax = clamped.iter().copied().fold(0.0f64, f64::max); // include the 0 logit
    let exps: Vec<f64> = clamped.iter().map(|&v| (v - zmax).exp()).collect();
    let rest = (-zmax).exp();
    let denom: f64 = exps.iter().sum::<f64>() + rest;
    exps.into_iter().map(|e| e / denom).collect()
}

fn logit(p: f64) -> f64 {
    let p = p.clamp(1e-15, 1.0 - 1e-15);
    (p / (1.0 - p)).ln()
}

impl BlockTransform {
    /// Assemble from blocks.
    pub fn new(blocks: Vec<Block>) -> BlockTransform {
        BlockTransform { blocks }
    }

    /// Total constrained dimension.
    pub fn constrained_len(&self) -> usize {
        self.blocks.iter().map(Block::constrained_len).sum()
    }

    /// Total unconstrained dimension (what BFGS sees).
    pub fn unconstrained_len(&self) -> usize {
        self.blocks.iter().map(Block::unconstrained_len).sum()
    }

    /// Map constrained → unconstrained.
    ///
    /// # Panics
    /// Panics if `x.len()` mismatches, or a value sits outside its block's
    /// domain.
    pub fn to_unconstrained(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.constrained_len(),
            "to_unconstrained: length mismatch"
        );
        let mut z = Vec::with_capacity(self.unconstrained_len());
        let mut xi = 0usize;
        for block in &self.blocks {
            match *block {
                Block::Free => {
                    z.push(x[xi]);
                    xi += 1;
                }
                Block::LowerBounded { lo } => {
                    assert!(x[xi] > lo, "value {} not above lower bound {lo}", x[xi]);
                    z.push((x[xi] - lo).ln());
                    xi += 1;
                }
                Block::BoxBounded { lo, hi } => {
                    assert!(
                        x[xi] > lo && x[xi] < hi,
                        "value {} outside ({lo},{hi})",
                        x[xi]
                    );
                    z.push(logit((x[xi] - lo) / (hi - lo)));
                    xi += 1;
                }
                Block::Fixed { value } => {
                    debug_assert!(
                        (x[xi] - value).abs() < 1e-9,
                        "fixed parameter expected {value}, found {}",
                        x[xi]
                    );
                    xi += 1;
                }
                Block::SimplexWithRest { dim } => {
                    let ps = &x[xi..xi + dim];
                    let rest = (1.0 - ps.iter().sum::<f64>()).clamp(1e-15, 1.0);
                    for &p in ps {
                        z.push((p.max(1e-300) / rest).ln());
                    }
                    xi += dim;
                }
                Block::BoxBoundedVec { lo, hi, count } => {
                    for k in 0..count {
                        let v = x[xi + k];
                        assert!(v > lo && v < hi, "value {v} outside ({lo},{hi})");
                        z.push(logit((v - lo) / (hi - lo)));
                    }
                    xi += count;
                }
            }
        }
        z
    }

    /// Map unconstrained → constrained.
    ///
    /// # Panics
    /// Panics if `z.len()` mismatches.
    pub fn to_constrained(&self, z: &[f64]) -> Vec<f64> {
        assert_eq!(
            z.len(),
            self.unconstrained_len(),
            "to_constrained: length mismatch"
        );
        let mut x = Vec::with_capacity(self.constrained_len());
        let mut zi = 0usize;
        for block in &self.blocks {
            match *block {
                Block::Free => {
                    x.push(z[zi]);
                    zi += 1;
                }
                Block::LowerBounded { lo } => {
                    x.push(lo + z[zi].clamp(-EXP_CAP, EXP_CAP).exp());
                    zi += 1;
                }
                Block::BoxBounded { lo, hi } => {
                    x.push(lo + (hi - lo) * logistic(z[zi]));
                    zi += 1;
                }
                Block::Fixed { value } => {
                    x.push(value);
                }
                Block::SimplexWithRest { dim } => {
                    // softmax over (z₁…z_dim, 0): the implicit 0 is the
                    // remainder class.
                    x.extend(softmax_with_rest(&z[zi..zi + dim]));
                    zi += dim;
                }
                Block::BoxBoundedVec { lo, hi, count } => {
                    for k in 0..count {
                        x.push(lo + (hi - lo) * logistic(z[zi + k]));
                    }
                    zi += count;
                }
            }
        }
        x
    }

    /// Pull a gradient back through [`to_constrained`](Self::to_constrained):
    /// `Jᵀ·grad` with `J = ∂x/∂z` at `z`, where `grad` is a gradient over
    /// the constrained parameters (one entry per constrained value; a
    /// `Fixed` entry is dropped). Where a clamp holds a coordinate the map
    /// is flat, so its derivative there is 0.
    ///
    /// # Panics
    /// Panics if `z` or `grad` mismatches the transform's dimensions.
    pub fn pull_back(&self, z: &[f64], grad: &[f64]) -> Vec<f64> {
        assert_eq!(z.len(), self.unconstrained_len(), "pull_back: z length");
        assert_eq!(
            grad.len(),
            self.constrained_len(),
            "pull_back: gradient length"
        );
        let mut out = Vec::with_capacity(z.len());
        let (mut xi, mut zi) = (0usize, 0usize);
        for block in &self.blocks {
            match *block {
                Block::Free => out.push(grad[xi]),
                Block::LowerBounded { .. } => {
                    let slope = if z[zi].abs() > EXP_CAP {
                        0.0
                    } else {
                        z[zi].exp()
                    };
                    out.push(grad[xi] * slope);
                }
                Block::BoxBounded { lo, hi } => {
                    out.push(grad[xi] * (hi - lo) * logistic_slope(z[zi]));
                }
                Block::Fixed { .. } => {}
                Block::SimplexWithRest { dim } => {
                    // ∂p_k/∂z_j = p_k(δ_kj − p_j), so (Jᵀg)_j = p_j(g_j − Σ_k g_k p_k).
                    let zs = &z[zi..zi + dim];
                    let p = softmax_with_rest(zs);
                    let g = &grad[xi..xi + dim];
                    let mean: f64 = p.iter().zip(g).map(|(p, g)| p * g).sum();
                    for ((&zj, &pj), &gj) in zs.iter().zip(&p).zip(g) {
                        let inside = zj.abs() <= SOFTMAX_CAP;
                        out.push(if inside { pj * (gj - mean) } else { 0.0 });
                    }
                }
                Block::BoxBoundedVec { lo, hi, count } => {
                    for k in 0..count {
                        out.push(grad[xi + k] * (hi - lo) * logistic_slope(z[zi + k]));
                    }
                }
            }
            xi += block.constrained_len();
            zi += block.unconstrained_len();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(t: &BlockTransform, x: &[f64], tol: f64) {
        let z = t.to_unconstrained(x);
        assert_eq!(z.len(), t.unconstrained_len());
        let back = t.to_constrained(&z);
        assert_eq!(back.len(), x.len());
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < tol, "{a} vs {b}");
        }
    }

    #[test]
    fn free_identity() {
        let t = BlockTransform::new(vec![Block::Free, Block::Free]);
        roundtrip(&t, &[1.5, -3.0], 1e-15);
    }

    #[test]
    fn lower_bounded_roundtrip() {
        let t = BlockTransform::new(vec![Block::LowerBounded { lo: 1.0 }]);
        roundtrip(&t, &[2.5], 1e-12);
        roundtrip(&t, &[1.0001], 1e-12);
        // Constrained output never goes below the bound; at z → −∞ the
        // addition rounds to exactly `lo`, which is the closed-boundary
        // value (valid for ω2 ≥ 1 under H1).
        let x = t.to_constrained(&[-100.0]);
        assert!(x[0] >= 1.0);
    }

    #[test]
    fn box_bounded_roundtrip_and_bounds() {
        let t = BlockTransform::new(vec![Block::BoxBounded { lo: 0.0, hi: 1.0 }]);
        roundtrip(&t, &[0.3], 1e-12);
        roundtrip(&t, &[0.999], 1e-9);
        for z in [-1e6, -5.0, 0.0, 5.0, 1e6] {
            let x = t.to_constrained(&[z]);
            assert!(x[0] > 0.0 && x[0] < 1.0, "z={z} -> {}", x[0]);
        }
    }

    #[test]
    fn fixed_consumes_no_coordinates() {
        let t = BlockTransform::new(vec![
            Block::LowerBounded { lo: 0.0 },
            Block::Fixed { value: 1.0 },
            Block::Free,
        ]);
        assert_eq!(t.constrained_len(), 3);
        assert_eq!(t.unconstrained_len(), 2);
        let x = t.to_constrained(&[0.0, 7.0]);
        assert_eq!(x[1], 1.0);
        assert_eq!(x[2], 7.0);
    }

    #[test]
    fn simplex_roundtrip() {
        let t = BlockTransform::new(vec![Block::SimplexWithRest { dim: 2 }]);
        roundtrip(&t, &[0.7, 0.2], 1e-12);
        roundtrip(&t, &[0.05, 0.9], 1e-12);
        // Any z maps inside the simplex with positive remainder.
        for z in [[-50.0, 50.0], [3.0, 3.0], [0.0, 0.0]] {
            let p = t.to_constrained(&z);
            assert!(p[0] > 0.0 && p[1] > 0.0);
            assert!(p[0] + p[1] < 1.0 + 1e-12, "{p:?}");
        }
    }

    #[test]
    fn box_vec_block() {
        let t = BlockTransform::new(vec![Block::BoxBoundedVec {
            lo: 1e-6,
            hi: 50.0,
            count: 3,
        }]);
        assert_eq!(t.constrained_len(), 3);
        roundtrip(&t, &[0.1, 1.0, 10.0], 1e-9);
    }

    #[test]
    fn composite_model_layout() {
        // The H1 layout: κ, ω0, ω2, (p0,p1), 4 branch lengths.
        let t = BlockTransform::new(vec![
            Block::LowerBounded { lo: 0.0 }, // κ
            Block::BoxBounded {
                lo: 1e-6,
                hi: 1.0 - 1e-6,
            }, // ω0
            Block::LowerBounded { lo: 1.0 }, // ω2
            Block::SimplexWithRest { dim: 2 }, // p0, p1
            Block::BoxBoundedVec {
                lo: 1e-6,
                hi: 50.0,
                count: 4,
            },
        ]);
        assert_eq!(t.constrained_len(), 9);
        assert_eq!(t.unconstrained_len(), 9);
        roundtrip(&t, &[2.0, 0.2, 2.5, 0.6, 0.3, 0.1, 0.2, 0.3, 0.4], 1e-9);
    }

    #[test]
    fn h0_layout_fixes_omega2() {
        let t = BlockTransform::new(vec![
            Block::LowerBounded { lo: 0.0 },
            Block::BoxBounded {
                lo: 1e-6,
                hi: 1.0 - 1e-6,
            },
            Block::Fixed { value: 1.0 },
            Block::SimplexWithRest { dim: 2 },
        ]);
        assert_eq!(t.unconstrained_len(), 4);
        let x = t.to_constrained(&[0.7, 0.0, 1.0, -1.0]);
        assert_eq!(x[2], 1.0);
    }

    #[test]
    fn softmax_stays_finite_for_huge_logits() {
        // Logits past the ±700 clamp used to subtract the max of the
        // unclamped logits, and 0/0 gave NaN from about 1445 on.
        let t = BlockTransform::new(vec![Block::SimplexWithRest { dim: 2 }]);
        for z in [
            [1500.0, 0.0],
            [1e300, -1e300],
            [f64::MAX, 3.0],
            [-1500.0, -2000.0],
        ] {
            let p = t.to_constrained(&z);
            assert!(p.iter().all(|v| v.is_finite()), "{z:?} -> {p:?}");
            assert!(p[0] + p[1] <= 1.0, "{z:?} -> {p:?}");
        }
        assert_eq!(
            t.to_constrained(&[1500.0, 0.0]),
            t.to_constrained(&[700.0, 0.0])
        );
    }

    /// Central differences of `to_constrained`, contracted with `grad`.
    fn numeric_pull_back(t: &BlockTransform, z: &[f64], grad: &[f64]) -> Vec<f64> {
        (0..z.len())
            .map(|j| {
                let h = 1e-6 * z[j].abs().max(1.0);
                let (mut zp, mut zm) = (z.to_vec(), z.to_vec());
                zp[j] += h;
                zm[j] -= h;
                let (xp, xm) = (t.to_constrained(&zp), t.to_constrained(&zm));
                (0..grad.len())
                    .map(|i| grad[i] * (xp[i] - xm[i]) / (2.0 * h))
                    .sum()
            })
            .collect()
    }

    #[test]
    fn pull_back_matches_differences_for_every_block() {
        let t = BlockTransform::new(vec![
            Block::Free,
            Block::LowerBounded { lo: 1.0 },
            Block::BoxBounded { lo: 1e-6, hi: 1.0 },
            Block::Fixed { value: 1.0 },
            Block::SimplexWithRest { dim: 2 },
            Block::BoxBoundedVec {
                lo: 1e-6,
                hi: 50.0,
                count: 2,
            },
        ]);
        let grad = [0.3, -1.7, 2.5, 9.0, -0.4, 1.1, 0.8, -2.2];
        // Interior points, then points held by every clamp: the logistic's
        // ±30, the exponential's ±510 and the softmax's ±700 (where the
        // other logit still moves the proportions).
        for z in [
            [0.4, -0.3, 1.2, 0.5, -0.8, -2.0, 3.0],
            [-5.0, 2.0, -4.0, 3.0, 2.5, 8.0, -8.0],
            [1.0, 600.0, 40.0, 800.0, 0.1, -35.0, 31.0],
            [1.0, -600.0, -40.0, -900.0, -750.0, 45.0, -45.0],
        ] {
            let got = t.pull_back(&z, &grad);
            let want = numeric_pull_back(&t, &z, &grad);
            assert_eq!(got.len(), z.len());
            for (j, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
                    "z {z:?}, coordinate {j}: pull-back {a} vs differences {b}"
                );
            }
        }
        // Held by a clamp means exactly flat.
        let z = [1.0, 600.0, 40.0, 800.0, 0.1, -35.0, 31.0];
        let got = t.pull_back(&z, &grad);
        for j in [1, 2, 3, 5, 6] {
            assert_eq!(got[j], 0.0, "coordinate {j}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        let t = BlockTransform::new(vec![Block::Free]);
        let _ = t.to_constrained(&[1.0, 2.0]);
    }
}
