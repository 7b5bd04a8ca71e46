//! Conditional-probability-vector (CPV) application strategies (§III-B).
//!
//! Along every branch and at every alignment site, pruning computes
//! `w' = P(t)·w`. The paper ships per-site `dgemv` (its measured
//! configuration), notes that bundling all sites into one `dgemm` would be
//! faster (BLAS-3), and derives post-hoc the symmetric form of Eq. 12.
//! All four variants are implemented so the benches can ablate them.

use slim_linalg::{gemm, gemv, naive, symv, Mat, Transpose};

/// How to apply a transition matrix to per-site CPVs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CpvStrategy {
    /// Textbook per-site matrix×vector loops (CodeML baseline).
    NaivePerSite,
    /// Tuned per-site `gemv` — the configuration the paper measured.
    #[default]
    PerSiteGemv,
    /// One `gemm` over all sites (`P · W`, BLAS-3) — the §III-B
    /// "additional optimization opportunity".
    BundledGemm,
    /// Eq. 12: symmetric `M`, per-site `symv` on `Π·w` — halves memory
    /// traffic per product.
    SymmetricSymv,
}

/// Reusable column/result buffers for the per-site strategies.
///
/// The pattern-blocked parallel engine calls [`apply_dense_with`] once per
/// (branch, block) unit; keeping one scratch per worker thread makes those
/// calls allocation-free.
#[derive(Debug, Clone, Default)]
pub struct CpvScratch {
    col: Vec<f64>,
    res: Vec<f64>,
}

impl CpvScratch {
    /// Empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> CpvScratch {
        CpvScratch::default()
    }

    /// Grow-only: a scratch that has already served a dimension `>= n`
    /// keeps its allocation (callers slice to `n`), so alternating unit
    /// sizes in the parallel engine never thrash reallocations.
    fn ensure(&mut self, n: usize) {
        if self.col.len() < n {
            self.col.resize(n, 0.0);
            self.res.resize(n, 0.0);
        }
    }
}

/// Apply `P` to every column of `w` (`w` is `n × sites`, column `s` is the
/// CPV of site `s`), writing into `out` and reusing caller-owned scratch
/// buffers, so the hot path performs no per-call allocation. Every column
/// is computed independently with the same kernel, so the output does not
/// depend on how the site dimension is blocked.
///
/// # Panics
/// Panics on shape mismatches.
// check: hot dense P·W reconstruction, scratch-reusing form
// check: allow(panic-free-hot-path) shape asserts are the entry contract; scratch.ensure(n) guarantees col/res hold n
pub fn apply_dense_with(
    strategy: CpvStrategy,
    p: &Mat,
    w: &Mat,
    out: &mut Mat,
    scratch: &mut CpvScratch,
) {
    let n = p.rows();
    assert_eq!(p.cols(), n);
    assert_eq!(w.rows(), n, "apply_dense_with: W rows mismatch");
    assert_eq!((out.rows(), out.cols()), (w.rows(), w.cols()));
    match strategy {
        CpvStrategy::NaivePerSite => {
            scratch.ensure(n);
            let sites = w.cols();
            for s in 0..sites {
                for i in 0..n {
                    scratch.col[i] = w[(i, s)];
                }
                naive::matvec(p, &scratch.col[..n], &mut scratch.res[..n]);
                for i in 0..n {
                    out[(i, s)] = scratch.res[i];
                }
            }
        }
        CpvStrategy::PerSiteGemv => {
            scratch.ensure(n);
            let sites = w.cols();
            for s in 0..sites {
                for i in 0..n {
                    scratch.col[i] = w[(i, s)];
                }
                gemv(1.0, p, &scratch.col[..n], 0.0, &mut scratch.res[..n]);
                for i in 0..n {
                    out[(i, s)] = scratch.res[i];
                }
            }
        }
        CpvStrategy::BundledGemm => {
            gemm(1.0, p, Transpose::No, w, Transpose::No, 0.0, out);
        }
        CpvStrategy::SymmetricSymv => {
            panic!("SymmetricSymv needs a SymTransition; use SymTransition::apply_dense_with")
        }
    }
}

/// The Eq. 12 representation: a symmetric matrix `M = Ŷ·Ŷᵀ` and the
/// frequencies π such that `e^{Qt}·w = M·(Π·w)`.
#[derive(Debug, Clone)]
pub struct SymTransition {
    m: Mat,
    pi: Vec<f64>,
}

impl SymTransition {
    /// Wrap a precomputed symmetric matrix and frequency vector.
    ///
    /// # Panics
    /// Panics if shapes disagree.
    // check: allow(panic-free-hot-path) constructor shape contract, runs once per eigendecomposition, outside the per-site loop
    pub fn new(m: Mat, pi: Vec<f64>) -> SymTransition {
        assert!(m.is_square());
        assert_eq!(m.rows(), pi.len());
        SymTransition { m, pi }
    }

    /// The symmetric factor `M`.
    pub fn matrix(&self) -> &Mat {
        &self.m
    }

    /// The equilibrium frequencies π paired with `M`.
    pub fn pi(&self) -> &[f64] {
        &self.pi
    }

    /// Apply to a single CPV: `w' = M·(Π·w)` via `symv`.
    // check: hot symmetric single-CPV apply (Eq. 10 path)
    // check: allow(panic-free-hot-path) length assert is the entry contract; pi/w indexed below it
    pub fn apply(&self, w: &[f64]) -> Vec<f64> {
        let n = self.pi.len();
        assert_eq!(w.len(), n);
        let scaled: Vec<f64> = w.iter().zip(&self.pi).map(|(wi, p)| wi * p).collect();
        let mut out = vec![0.0; n];
        symv(1.0, &self.m, &scaled, 0.0, &mut out);
        out
    }

    /// Apply to every column of a dense `n × sites` CPV block, with
    /// caller-owned scratch buffers (no per-call allocation).
    // check: hot symmetric dense apply, scratch-reusing form
    // check: allow(panic-free-hot-path) shape asserts are the entry contract; scratch.ensure(n) sizes col/res
    pub fn apply_dense_with(&self, w: &Mat, out: &mut Mat, scratch: &mut CpvScratch) {
        let n = self.pi.len();
        assert_eq!(w.rows(), n);
        assert_eq!((out.rows(), out.cols()), (w.rows(), w.cols()));
        scratch.ensure(n);
        let sites = w.cols();
        for s in 0..sites {
            for i in 0..n {
                scratch.col[i] = w[(i, s)] * self.pi[i];
            }
            symv(1.0, &self.m, &scratch.col[..n], 0.0, &mut scratch.res[..n]);
            for i in 0..n {
                out[(i, s)] = scratch.res[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_p() -> Mat {
        // A small row-stochastic matrix.
        Mat::from_rows(&[&[0.7, 0.2, 0.1], &[0.15, 0.8, 0.05], &[0.1, 0.3, 0.6]])
    }

    fn toy_w() -> Mat {
        Mat::from_rows(&[&[1.0, 0.0, 0.5], &[0.0, 1.0, 0.25], &[0.0, 0.0, 0.25]])
    }

    #[test]
    fn strategies_agree() {
        let p = toy_p();
        let w = toy_w();
        let mut naive_out = Mat::zeros(3, 3);
        let mut gemv_out = Mat::zeros(3, 3);
        let mut gemm_out = Mat::zeros(3, 3);
        let mut scratch = CpvScratch::new();
        apply_dense_with(
            CpvStrategy::NaivePerSite,
            &p,
            &w,
            &mut naive_out,
            &mut scratch,
        );
        apply_dense_with(
            CpvStrategy::PerSiteGemv,
            &p,
            &w,
            &mut gemv_out,
            &mut scratch,
        );
        apply_dense_with(
            CpvStrategy::BundledGemm,
            &p,
            &w,
            &mut gemm_out,
            &mut scratch,
        );
        assert!(naive_out.approx_eq(&gemv_out, 1e-14));
        assert!(naive_out.approx_eq(&gemm_out, 1e-14));
    }

    #[test]
    fn known_column_result() {
        let p = toy_p();
        let w = toy_w();
        let mut out = Mat::zeros(3, 3);
        apply_dense_with(
            CpvStrategy::BundledGemm,
            &p,
            &w,
            &mut out,
            &mut CpvScratch::new(),
        );
        // Column 0 of W is e₀ → column 0 of out is column 0 of P.
        for i in 0..3 {
            assert!((out[(i, 0)] - p[(i, 0)]).abs() < 1e-15);
        }
    }

    #[test]
    fn sym_transition_apply_matches_definition() {
        // Symmetric M and π chosen arbitrarily; apply must equal M·diag(π)·w.
        let mut m = Mat::from_rows(&[&[2.0, 0.5, 0.1], &[0.5, 1.5, 0.3], &[0.1, 0.3, 1.0]]);
        m.symmetrize();
        let pi = vec![0.2, 0.3, 0.5];
        let st = SymTransition::new(m.clone(), pi.clone());
        let w = vec![1.0, -2.0, 0.5];
        let got = st.apply(&w);
        let scaled: Vec<f64> = w.iter().zip(&pi).map(|(a, b)| a * b).collect();
        let expect = m.mul_vec(&scaled);
        for i in 0..3 {
            assert!((got[i] - expect[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn sym_transition_dense_matches_single() {
        let mut m = Mat::from_rows(&[&[2.0, 0.5], &[0.5, 1.5]]);
        m.symmetrize();
        let st = SymTransition::new(m, vec![0.4, 0.6]);
        let w = Mat::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]);
        let mut out = Mat::zeros(2, 2);
        st.apply_dense_with(&w, &mut out, &mut CpvScratch::new());
        for s in 0..2 {
            let col: Vec<f64> = (0..2).map(|i| w[(i, s)]).collect();
            let single = st.apply(&col);
            for i in 0..2 {
                assert!((out[(i, s)] - single[i]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn blocked_application_is_bit_identical() {
        // The determinism contract of the parallel engine: applying P to a
        // column sub-block produces exactly the bits of the corresponding
        // columns of the full-width application, for every strategy.
        let p = toy_p();
        let w = toy_w();
        for strategy in [
            CpvStrategy::NaivePerSite,
            CpvStrategy::PerSiteGemv,
            CpvStrategy::BundledGemm,
        ] {
            let mut full = Mat::zeros(3, 3);
            let mut scratch = CpvScratch::new();
            apply_dense_with(strategy, &p, &w, &mut full, &mut scratch);
            for s in 0..3 {
                let wcol = Mat::from_fn(3, 1, |i, _| w[(i, s)]);
                let mut out = Mat::zeros(3, 1);
                apply_dense_with(strategy, &p, &wcol, &mut out, &mut scratch);
                for i in 0..3 {
                    assert_eq!(
                        out[(i, 0)].to_bits(),
                        full[(i, s)].to_bits(),
                        "{strategy:?} col {s} row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_is_grow_only_and_reusable_across_dims() {
        let mut scratch = CpvScratch::new();
        scratch.ensure(61);
        let cap = scratch.col.capacity();
        scratch.ensure(3);
        assert_eq!(scratch.col.len(), 61, "ensure must not shrink");
        scratch.ensure(61);
        assert_eq!(scratch.col.capacity(), cap, "regrowth would thrash");

        // A scratch that served a larger dimension still computes correct
        // results for a smaller one (call sites slice to n).
        let p = toy_p();
        let w = toy_w();
        let mut fresh = Mat::zeros(3, 3);
        apply_dense_with(
            CpvStrategy::PerSiteGemv,
            &p,
            &w,
            &mut fresh,
            &mut CpvScratch::new(),
        );
        let mut reused = Mat::zeros(3, 3);
        apply_dense_with(CpvStrategy::PerSiteGemv, &p, &w, &mut reused, &mut scratch);
        for i in 0..3 {
            for s in 0..3 {
                assert_eq!(reused[(i, s)].to_bits(), fresh[(i, s)].to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "SymmetricSymv")]
    fn dense_symmetric_panics_without_transition() {
        let p = toy_p();
        let w = toy_w();
        let mut out = Mat::zeros(3, 3);
        apply_dense_with(
            CpvStrategy::SymmetricSymv,
            &p,
            &w,
            &mut out,
            &mut CpvScratch::new(),
        );
    }
}
