//! Unified front-end over the symmetric eigensolvers.

use crate::bisect::sym_eigen_bisect;
use crate::jacobi::jacobi_eigen;
use crate::ql::{sort_eigenpairs, tql2, tql2_tuned};
use crate::tridiag::{tred2, tred2_tuned};
use crate::{LinalgError, Mat, Result};

/// Which algorithm to use for a symmetric eigendecomposition.
///
/// Mirrors the paper's description of LAPACK `dsyevr`: "whenever possible,
/// the eigenspectrum is computed using multiple relatively robust
/// representations (MRRR) or a QR/QL method otherwise" — here
/// [`EigenMethod::BisectionInverse`] plays the MRRR role and
/// [`EigenMethod::HouseholderQl`] the QL role.
/// [`EigenMethod::HouseholderQlNaive`] is the same algorithm as CodeML
/// hand-codes it, and [`EigenMethod::Jacobi`] a slow independent
/// cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EigenMethod {
    /// Householder tridiagonalization + implicit-shift QL, restructured to
    /// run its O(n³) loops as SIMD row updates
    /// ([`crate::tridiag::tred2_tuned`], [`crate::ql::tql2_tuned`]); the
    /// slim presets' solver (default). Returns exactly the bits of
    /// [`EigenMethod::HouseholderQlNaive`].
    #[default]
    HouseholderQl,
    /// The scalar EISPACK `tred2` + `tql2` that CodeML's `eigenQREV`
    /// follows: the codeml-style preset's solver, and the bit reference
    /// for [`EigenMethod::HouseholderQl`].
    HouseholderQlNaive,
    /// Householder tridiagonalization (the tuned one) + bisection
    /// eigenvalues + inverse iteration eigenvectors (`dsyevr`/MRRR
    /// stand-in).
    BisectionInverse,
    /// Cyclic Jacobi rotations.
    Jacobi,
}

/// A symmetric eigendecomposition `A = X · diag(λ) · Xᵀ`.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthogonal matrix whose column `j` is the eigenvector for
    /// `values[j]`.
    pub vectors: Mat,
}

impl SymEigen {
    /// Reconstruct the original matrix `X Λ Xᵀ` (test/diagnostic helper).
    pub fn reconstruct(&self) -> Mat {
        let xl = self.vectors.mul_diag_right(&self.values);
        crate::gemm::matmul(
            &xl,
            crate::Transpose::No,
            &self.vectors,
            crate::Transpose::Yes,
        )
    }

    /// Largest absolute eigenvalue.
    pub fn spectral_radius(&self) -> f64 {
        self.values.iter().map(|v| v.abs()).fold(0.0, f64::max)
    }
}

/// Compute the eigendecomposition of a symmetric matrix.
///
/// Only symmetry up to rounding is assumed; the input is symmetrized
/// defensively (averaging `a_ij` and `a_ji`) before factorization, matching
/// what `dsyevr` effectively does by referencing one triangle.
///
/// # Errors
/// Propagates [`LinalgError`] from the selected backend (non-square input,
/// iteration-cap exhaustion).
pub fn sym_eigen(a: &Mat, method: EigenMethod) -> Result<SymEigen> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            op: "sym_eigen",
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let mut work = a.clone();
    work.symmetrize();
    match method {
        EigenMethod::HouseholderQl => {
            let tri = tred2_tuned(&work);
            let mut d = tri.d;
            let mut e = tri.e;
            let mut z = tri.q;
            tql2_tuned(&mut d, &mut e, &mut z)?;
            Ok(SymEigen {
                values: d,
                vectors: z,
            })
        }
        EigenMethod::HouseholderQlNaive => {
            let tri = tred2(&work);
            let mut d = tri.d;
            let mut e = tri.e;
            let mut z = tri.q;
            tql2(&mut d, &mut e, &mut z)?;
            sort_eigenpairs(&mut d, &mut z);
            Ok(SymEigen {
                values: d,
                vectors: z,
            })
        }
        EigenMethod::BisectionInverse => {
            let tri = tred2_tuned(&work);
            let (values, vectors) = sym_eigen_bisect(&tri)?;
            Ok(SymEigen { values, vectors })
        }
        EigenMethod::Jacobi => {
            let (values, vectors) = jacobi_eigen(&work)?;
            Ok(SymEigen { values, vectors })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Transpose};
    use crate::SimdMode;

    fn random_symmetric(n: usize, seed: u64) -> Mat {
        let mut state = seed;
        let mut m = Mat::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        });
        m.symmetrize();
        m
    }

    fn bits(m: &Mat) -> Vec<u64> {
        (0..m.rows())
            .flat_map(|i| m.row(i).iter().map(|v| v.to_bits()))
            .collect()
    }

    /// The tuned solver returns the naive one's eigenvalue and eigenvector
    /// bits, with dispatch forced to scalar and on the host's best backend.
    fn assert_tuned_bits(a: &Mat, what: &str) {
        let naive = sym_eigen(a, EigenMethod::HouseholderQlNaive).unwrap();
        for mode in [SimdMode::ForceScalar, SimdMode::Auto] {
            let tuned = crate::simd::with_forced(mode, || sym_eigen(a, EigenMethod::HouseholderQl))
                .unwrap();
            let values = |e: &SymEigen| e.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(values(&tuned), values(&naive), "{what} {mode:?}: values");
            assert_eq!(
                bits(&tuned.vectors),
                bits(&naive.vectors),
                "{what} {mode:?}: vectors"
            );
        }
    }

    /// `A = Π^{1/2} S Π^{1/2}` of the universal-code GY94 model (61 sense
    /// codons, skewed π, mean rate 1), built here because this crate sits
    /// below the model crate.
    fn codon_a(kappa: f64, omega: f64) -> Mat {
        const AA: &[u8; 64] = b"FFLLSSSSYY**CC*WLLLLPPPPHHQQRRRRIIIMTTTTNNKKSSRRVVVVAAAADDEEGGGG";
        let sense: Vec<usize> = (0..64).filter(|&c| AA[c] != b'*').collect();
        let n = sense.len();
        let raw: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 5) % 11) as f64).collect();
        let total: f64 = raw.iter().sum();
        let pi: Vec<f64> = raw.iter().map(|p| p / total).collect();
        let nuc = |c: usize, pos: usize| (c >> (4 - 2 * pos)) & 3;
        let mut q = Mat::from_fn(n, n, |i, j| {
            let (ci, cj) = (sense[i], sense[j]);
            let diff: Vec<usize> = (0..3).filter(|&p| nuc(ci, p) != nuc(cj, p)).collect();
            if i == j || diff.len() != 1 {
                return 0.0;
            }
            // TCAG order: T↔C and A↔G are the transitions.
            let (x, y) = (nuc(ci, diff[0]), nuc(cj, diff[0]));
            let mut rate = if x / 2 == y / 2 { kappa } else { 1.0 };
            if AA[ci] != AA[cj] {
                rate *= omega;
            }
            rate * pi[j]
        });
        let mut mean = 0.0;
        for i in 0..n {
            let out: f64 = q.row(i).iter().sum();
            q[(i, i)] = -out;
            mean += pi[i] * out;
        }
        Mat::from_fn(n, n, |i, j| q[(i, j)] / mean * (pi[i] / pi[j]).sqrt())
    }

    #[test]
    fn tuned_ql_matches_naive_bits_on_random_orders() {
        for n in [1, 2, 3, 4, 5, 8, 60, 61, 64, 65] {
            assert_tuned_bits(&random_symmetric(n, 1000 + n as u64), &format!("order {n}"));
        }
    }

    #[test]
    fn tuned_ql_matches_naive_bits_on_codon_generators() {
        for (kappa, omega) in [(2.5, 0.0), (2.5, 999.0), (1e-3, 0.4), (150.0, 1.7)] {
            let a = codon_a(kappa, omega);
            let top = sym_eigen(&a, EigenMethod::HouseholderQl).unwrap().values[60];
            assert!(
                top.abs() < 1e-10,
                "κ {kappa} ω {omega}: stationary mode {top}"
            );
            assert_tuned_bits(&a, &format!("κ {kappa} ω {omega}"));
        }
    }

    #[test]
    fn tuned_ql_matches_naive_bits_on_structured_matrices() {
        assert_tuned_bits(&Mat::from_diag(&[3.0, -1.0, 4.0, 1.5, -9.0]), "diagonal");
        let d = [1.0, 2.0, 3.0, -4.0, 0.5, 6.0];
        let mut tri = Mat::from_diag(&d);
        for i in 1..d.len() {
            let c = 0.25 * i as f64 - 0.6;
            tri[(i, i - 1)] = c;
            tri[(i - 1, i)] = c;
        }
        assert_tuned_bits(&tri, "tridiagonal");
        // Eigenvalues {1, 1, 1, -1, -1}: identity plus two reflections.
        let mut rep = Mat::identity(5);
        rep[(1, 1)] = 0.0;
        rep[(2, 2)] = 0.0;
        rep[(1, 2)] = 1.0;
        rep[(2, 1)] = 1.0;
        rep[(3, 3)] = 0.0;
        rep[(4, 4)] = 0.0;
        rep[(3, 4)] = 1.0;
        rep[(4, 3)] = 1.0;
        assert_tuned_bits(&rep, "repeated eigenvalues");
        // Row 5 is zero left of the diagonal: tred2's `scale == 0` branch.
        let mut zero_row = random_symmetric(9, 31);
        for k in 0..5 {
            zero_row[(5, k)] = 0.0;
            zero_row[(k, 5)] = 0.0;
        }
        assert_tuned_bits(&zero_row, "zero row");
    }

    #[test]
    fn all_methods_agree_on_eigenvalues() {
        let a = random_symmetric(15, 42);
        let ql = sym_eigen(&a, EigenMethod::HouseholderQl).unwrap();
        let bi = sym_eigen(&a, EigenMethod::BisectionInverse).unwrap();
        let ja = sym_eigen(&a, EigenMethod::Jacobi).unwrap();
        for i in 0..15 {
            assert!(
                (ql.values[i] - bi.values[i]).abs() < 1e-9,
                "i={i} ql-vs-bisect"
            );
            assert!(
                (ql.values[i] - ja.values[i]).abs() < 1e-9,
                "i={i} ql-vs-jacobi"
            );
        }
    }

    #[test]
    fn reconstruct_and_orthogonality_each_method() {
        let a = random_symmetric(12, 7);
        for method in [
            EigenMethod::HouseholderQl,
            EigenMethod::BisectionInverse,
            EigenMethod::Jacobi,
        ] {
            let eig = sym_eigen(&a, method).unwrap();
            assert!(
                eig.reconstruct().approx_eq(&a, 1e-8),
                "{method:?} reconstruction"
            );
            let xtx = matmul(&eig.vectors, Transpose::Yes, &eig.vectors, Transpose::No);
            assert!(
                xtx.approx_eq(&Mat::identity(12), 1e-8),
                "{method:?} orthogonality"
            );
        }
    }

    #[test]
    fn eigenvalues_sorted_ascending() {
        let a = random_symmetric(20, 99);
        for method in [
            EigenMethod::HouseholderQl,
            EigenMethod::BisectionInverse,
            EigenMethod::Jacobi,
        ] {
            let eig = sym_eigen(&a, method).unwrap();
            for w in eig.values.windows(2) {
                assert!(w[0] <= w[1] + 1e-12, "{method:?} not sorted");
            }
        }
    }

    #[test]
    fn trace_preserved() {
        let a = random_symmetric(10, 5);
        let trace: f64 = a.diag().iter().sum();
        let eig = sym_eigen(&a, EigenMethod::HouseholderQl).unwrap();
        let sum: f64 = eig.values.iter().sum();
        assert!((trace - sum).abs() < 1e-10);
    }

    #[test]
    fn rejects_rectangular() {
        assert!(sym_eigen(&Mat::zeros(3, 4), EigenMethod::HouseholderQl).is_err());
    }

    #[test]
    fn spectral_radius() {
        let a = Mat::from_diag(&[-5.0, 2.0, 3.0]);
        let eig = sym_eigen(&a, EigenMethod::Jacobi).unwrap();
        assert!((eig.spectral_radius() - 5.0).abs() < 1e-12);
    }
}
