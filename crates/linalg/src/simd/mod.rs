//! Explicit SIMD microkernels with runtime dispatch.
//!
//! The paper attributes SlimCodeML's wins to dense-kernel reorganization;
//! this module takes the remaining hardware headroom the ROADMAP flags
//! ("SIMD kernels"): hand-written AVX2 (and NEON) inner loops for `gemm`,
//! `gemv`, `symv`, `syrk`, the tuned eigensolver and the vecops, selected
//! at runtime behind
//! [`is_x86_feature_detected!`], with a portable scalar fallback.
//!
//! ## The determinism contract: vectorize outputs, never reductions
//!
//! Every kernel here is **bit-identical** across backends, which is what
//! lets the golden snapshots, the thread-determinism layer, and the
//! `sanitize_identity` bit-pins pass with dispatch forced either way:
//!
//! * **Independent outputs** (the `j`/column dimension of `C` in `gemm`,
//!   distinct CPV sites, the `y[j]` updates of `symv`) are computed one
//!   output per lane. Each output element sees exactly the scalar
//!   sequence of operations, so lanes change nothing.
//! * **Reductions** (dot products) are *never* re-associated across the
//!   reduction dimension. The scalar [`dot`] accumulates into four fixed
//!   interleaved partial sums combined as `(s0+s1)+(s2+s3)`; the AVX2
//!   kernel maps those four accumulators onto the four lanes of one
//!   vector register and performs the identical combine tree, so every
//!   intermediate rounding is reproduced bit-for-bit. NEON emulates the
//!   same layout with two 2-lane registers.
//! * **No FMA.** Fused multiply-add rounds once where `mul` + `add`
//!   round twice; the vector kernels therefore use separate multiply and
//!   add instructions even on FMA-capable hosts.
//!
//! ## Dispatch
//!
//! The active backend resolves as: thread-scoped override (set by
//! [`with_forced`], used by the engine's `EngineConfig::simd` knob and by
//! the bit-identity tests) → the `SLIMCODEML_SIMD` environment variable
//! (`auto` | `avx2` | `neon` | `scalar`) → CPU feature detection. Forcing
//! a backend the host cannot run falls back to scalar instead of
//! faulting.

use std::cell::Cell;
use std::sync::OnceLock;

mod scalar;

#[cfg(target_arch = "x86_64")]
mod avx2;

#[cfg(target_arch = "aarch64")]
mod neon;

/// Lane width (in `f64`s) of the widest vector unit this module targets.
/// [`crate::Mat::zeros_padded`] pads row strides to a multiple of this, so
/// a 61-wide codon row occupies 64 slots and the `j`-loops of the level-3
/// kernels run tail-free.
pub const LANE: usize = 4;

/// A resolved, runnable kernel backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdBackend {
    /// Portable scalar kernels — the reference order.
    Scalar,
    /// 256-bit AVX2 kernels (4 × f64 lanes), x86-64 only.
    Avx2,
    /// 128-bit NEON kernels (2 × f64 lanes), aarch64 only.
    Neon,
}

impl SimdBackend {
    /// How many `f64` elements one vector register of this backend holds.
    pub fn lanes(self) -> usize {
        match self {
            SimdBackend::Scalar => 1,
            SimdBackend::Avx2 => 4,
            SimdBackend::Neon => 2,
        }
    }

    /// Lower-case name, as accepted by `SLIMCODEML_SIMD`.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Neon => "neon",
        }
    }
}

/// A *requested* dispatch policy (what the env var / config knob holds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdMode {
    /// Use the best backend the CPU supports (honoring `SLIMCODEML_SIMD`).
    #[default]
    Auto,
    /// Force the portable scalar kernels.
    ForceScalar,
    /// Request AVX2; falls back to scalar on hosts without it.
    ForceAvx2,
    /// Request NEON; falls back to scalar on non-aarch64 hosts.
    ForceNeon,
}

impl SimdMode {
    /// Parse an `SLIMCODEML_SIMD`-style value. Unknown strings are `None`.
    pub fn parse(s: &str) -> Option<SimdMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Some(SimdMode::Auto),
            "scalar" | "off" => Some(SimdMode::ForceScalar),
            "avx2" => Some(SimdMode::ForceAvx2),
            "neon" => Some(SimdMode::ForceNeon),
            _ => None,
        }
    }
}

/// What the hardware supports, probed once.
fn detected() -> SimdBackend {
    static DETECTED: OnceLock<SimdBackend> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdBackend::Avx2;
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            // NEON is architecturally mandatory on aarch64.
            return SimdBackend::Neon;
        }
        #[allow(unreachable_code)]
        SimdBackend::Scalar
    })
}

/// The `SLIMCODEML_SIMD` environment policy, read once per process.
fn env_mode() -> SimdMode {
    static ENV: OnceLock<SimdMode> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("SLIMCODEML_SIMD")
            .ok()
            .and_then(|v| SimdMode::parse(&v))
            .unwrap_or(SimdMode::Auto)
    })
}

/// Resolve a requested mode against what this host can actually run.
/// Unsupported forces degrade to [`SimdBackend::Scalar`] — never a fault.
pub fn resolve(mode: SimdMode) -> SimdBackend {
    match mode {
        SimdMode::ForceScalar => SimdBackend::Scalar,
        SimdMode::ForceAvx2 => {
            if detected() == SimdBackend::Avx2 {
                SimdBackend::Avx2
            } else {
                SimdBackend::Scalar
            }
        }
        SimdMode::ForceNeon => {
            if detected() == SimdBackend::Neon {
                SimdBackend::Neon
            } else {
                SimdBackend::Scalar
            }
        }
        SimdMode::Auto => match env_mode() {
            SimdMode::Auto => detected(),
            forced => resolve(forced),
        },
    }
}

thread_local! {
    /// Thread-scoped override installed by [`with_forced`]; workers of the
    /// parallel engine re-install it so an `EngineConfig` knob propagates.
    static OVERRIDE: Cell<Option<SimdBackend>> = const { Cell::new(None) };
}

/// The backend the dispatched kernels will use right now on this thread.
pub fn active() -> SimdBackend {
    OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(|| resolve(SimdMode::Auto))
}

/// Run `f` with dispatch forced to `mode` on the current thread (restored
/// afterwards, panic-safe). `SimdMode::Auto` clears any override so the
/// environment policy applies again. Results are bit-identical for every
/// mode by the determinism contract; this exists for the engine knob and
/// for the tests that prove that contract.
pub fn with_forced<R>(mode: SimdMode, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<SimdBackend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let value = match mode {
        SimdMode::Auto => None,
        forced => Some(resolve(forced)),
    };
    let _restore = Restore(OVERRIDE.with(|c| c.replace(value)));
    f()
}

macro_rules! dispatch {
    ($be:expr, $name:ident ( $($arg:expr),* )) => {
        match $be {
            SimdBackend::Scalar => scalar::$name($($arg),*),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `SimdBackend::Avx2` is only ever produced by
            // `resolve()` after a successful runtime
            // `is_x86_feature_detected!("avx2")` probe on this process.
            SimdBackend::Avx2 => unsafe { avx2::$name($($arg),*) },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: `SimdBackend::Neon` is only produced on aarch64,
            // where NEON is architecturally mandatory.
            SimdBackend::Neon => unsafe { neon::$name($($arg),*) },
            #[allow(unreachable_patterns)] // force of a cross-arch backend resolved to scalar
            _ => scalar::$name($($arg),*),
        }
    };
}

/// Dot product `xᵀy` in the canonical fixed order (see module docs).
/// Bit-identical to [`crate::vecops::dot`] on every backend.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    dot_with(active(), x, y)
}

/// [`dot`] with the backend chosen by the caller (hoists dispatch out of
/// kernel loops).
#[inline]
// check: hot SIMD kernel entry
pub fn dot_with(be: SimdBackend, x: &[f64], y: &[f64]) -> f64 {
    dispatch!(be, dot(x, y))
}

/// Two dot products sharing the right-hand side: `(x0ᵀy, x1ᵀy)`.
/// Each output is bit-identical to the corresponding [`dot`]; pairing
/// exists purely to double instruction-level parallelism in `gemv`/`syrk`.
#[inline]
// check: hot SIMD kernel entry
pub fn dot2_with(be: SimdBackend, x0: &[f64], x1: &[f64], y: &[f64]) -> (f64, f64) {
    dispatch!(be, dot2(x0, x1, y))
}

/// A 2 × 4 tile of dot products, `out[r][c] = x[r]ᵀ·y[c]` — the register
/// tile of `syrk`. Each output is bit-identical to [`dot`]`(x[r], y[c])`.
#[inline]
// check: hot SIMD kernel entry
pub fn dot_tile_with(be: SimdBackend, x: [&[f64]; 2], y: [&[f64]; 4]) -> [[f64; 4]; 2] {
    dispatch!(be, dot_tile(x, y))
}

/// `y[k] ← s·x[k] + c·y[k]`, `x[k] ← c·x[k] − s·y[k]` (old values on the
/// right) — one QL Givens rotation applied to two eigenvector rows.
#[inline]
// check: hot SIMD kernel entry
pub fn rotate_rows_with(be: SimdBackend, x: &mut [f64], y: &mut [f64], c: f64, s: f64) {
    dispatch!(be, rotate_rows(x, y, c, s))
}

/// `c[j] += a · b[j]` — one axpy row update (independent outputs).
#[inline]
// check: hot SIMD kernel entry
pub fn fma_row_with(be: SimdBackend, c: &mut [f64], a: f64, b: &[f64]) {
    dispatch!(be, fma_row(c, a, b))
}

/// `c[j] += a0·b0[j] + a1·b1[j]` — the two-way-unrolled `gemm` inner loop.
#[inline]
// check: hot SIMD kernel entry
pub fn fma_row2_with(be: SimdBackend, c: &mut [f64], a0: f64, b0: &[f64], a1: f64, b1: &[f64]) {
    dispatch!(be, fma_row2(c, a0, b0, a1, b1))
}

/// `gemm` on a strip of `rows` ≤ 4 rows of `C`: for `r < rows` and
/// `j < jw`, `c[r·ldc + j]` adds `ap[p][r]·b[p·ldb + j]` over `p` in the
/// row loop's order, `c + (ap[p][r]·b_p + ap[p+1][r]·b_{p+1})` per pair
/// and `c + ap[p][r]·b_p` for a trailing odd `p`. `ap[p][r]` is the
/// strip's `α·op(A)` packed by `p`. AVX2 computes a full strip in
/// register tiles; every other strip runs as rows through
/// [`fma_row2_with`] and [`fma_row_with`]. The bits are the same.
#[inline]
#[allow(clippy::too_many_arguments)]
// check: hot SIMD kernel entry
// check: allow(panic-free-hot-path) slice windows bounded by the strip shape gemm asserts
pub(crate) fn gemm_strip_with(
    be: SimdBackend,
    ap: &[[f64; 4]],
    rows: usize,
    b: &[f64],
    ldb: usize,
    c: &mut [f64],
    ldc: usize,
    jw: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if be == SimdBackend::Avx2 && rows == 4 {
        // SAFETY: `SimdBackend::Avx2` is only ever produced by `resolve()`
        // after a successful runtime `is_x86_feature_detected!("avx2")`.
        return unsafe { avx2::gemm_strip(ap, b, ldb, c, ldc, jw) };
    }
    for r in 0..rows {
        let c_row = &mut c[r * ldc..r * ldc + jw];
        let mut pairs = ap.chunks_exact(2);
        for (p, a) in pairs.by_ref().enumerate() {
            let b0 = &b[2 * p * ldb..2 * p * ldb + jw];
            let b1 = &b[(2 * p + 1) * ldb..(2 * p + 1) * ldb + jw];
            fma_row2_with(be, c_row, a[0][r], b0, a[1][r], b1);
        }
        if let [a] = pairs.remainder() {
            let p = ap.len() - 1;
            fma_row_with(be, c_row, a[r], &b[p * ldb..p * ldb + jw]);
        }
    }
}

/// `c[j] −= a0·b0[j] + a1·b1[j]` — the tuned tridiagonalization's rank-2
/// update, subtracting like `tred2` does so that even the sign of a zero
/// result matches it.
#[inline]
// check: hot SIMD kernel entry
pub fn fms_row2_with(be: SimdBackend, c: &mut [f64], a0: f64, b0: &[f64], a1: f64, b1: &[f64]) {
    dispatch!(be, fms_row2(c, a0, b0, a1, b1))
}

/// `y[j] *= x[j]` — the pruning combine step (independent outputs).
#[inline]
// check: hot SIMD kernel entry
pub fn mul_row_with(be: SimdBackend, y: &mut [f64], x: &[f64]) {
    dispatch!(be, mul_row(y, x))
}

/// `z[j] = x[j] · y[j]`.
#[inline]
// check: hot SIMD kernel entry
pub fn mul_into_with(be: SimdBackend, x: &[f64], y: &[f64], z: &mut [f64]) {
    dispatch!(be, mul_into(x, y, z))
}

/// `x[j] *= alpha`.
#[inline]
// check: hot SIMD kernel entry
pub fn scale_row_with(be: SimdBackend, x: &mut [f64], alpha: f64) {
    dispatch!(be, scale_row(x, alpha))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_documented_values() {
        assert_eq!(SimdMode::parse("auto"), Some(SimdMode::Auto));
        assert_eq!(SimdMode::parse(""), Some(SimdMode::Auto));
        assert_eq!(SimdMode::parse("Scalar"), Some(SimdMode::ForceScalar));
        assert_eq!(SimdMode::parse("off"), Some(SimdMode::ForceScalar));
        assert_eq!(SimdMode::parse("AVX2"), Some(SimdMode::ForceAvx2));
        assert_eq!(SimdMode::parse("neon"), Some(SimdMode::ForceNeon));
        assert_eq!(SimdMode::parse("sse9"), None);
    }

    #[test]
    fn resolve_never_yields_unsupported_backend() {
        // The dispatch-probe contract: forcing a backend the host lacks
        // degrades to scalar instead of faulting.
        for mode in [
            SimdMode::Auto,
            SimdMode::ForceScalar,
            SimdMode::ForceAvx2,
            SimdMode::ForceNeon,
        ] {
            let be = resolve(mode);
            assert_eq!(be, resolve(mode), "resolution must be stable");
            match be {
                SimdBackend::Scalar => {}
                SimdBackend::Avx2 => assert_eq!(detected(), SimdBackend::Avx2),
                SimdBackend::Neon => assert_eq!(detected(), SimdBackend::Neon),
            }
        }
        assert_eq!(resolve(SimdMode::ForceScalar), SimdBackend::Scalar);
        // A cross-architecture force always lands on scalar.
        #[cfg(target_arch = "x86_64")]
        assert_eq!(resolve(SimdMode::ForceNeon), SimdBackend::Scalar);
        #[cfg(target_arch = "aarch64")]
        assert_eq!(resolve(SimdMode::ForceAvx2), SimdBackend::Scalar);
    }

    #[test]
    fn with_forced_is_scoped_and_nestable() {
        let ambient = active();
        with_forced(SimdMode::ForceScalar, || {
            assert_eq!(active(), SimdBackend::Scalar);
            with_forced(SimdMode::ForceAvx2, || {
                assert!(matches!(active(), SimdBackend::Avx2 | SimdBackend::Scalar));
            });
            assert_eq!(active(), SimdBackend::Scalar);
        });
        assert_eq!(active(), ambient);
    }

    #[test]
    fn with_forced_restores_after_panic() {
        let ambient = active();
        let caught = std::panic::catch_unwind(|| {
            with_forced(SimdMode::ForceScalar, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(active(), ambient);
    }

    /// The rotation kernel on the host's best backend equals the scalar
    /// loop it replaces in `tql2`, at widths on both sides of the lanes.
    #[test]
    fn rotate_rows_matches_scalar_loop() {
        let be = resolve(SimdMode::ForceAvx2);
        for n in [1, 2, 3, 4, 5, 60, 61, 64, 65] {
            let x0: Vec<f64> = (0..n).map(|k| (k as f64 * 0.37).sin()).collect();
            let y0: Vec<f64> = (0..n).map(|k| (k as f64 * 0.91 + 1.0).cos()).collect();
            let (c, s) = (0.8f64.cos(), 0.8f64.sin());
            let (mut x, mut y) = (x0.clone(), y0.clone());
            rotate_rows_with(be, &mut x, &mut y, c, s);
            for k in 0..n {
                let want_y = s * x0[k] + c * y0[k];
                let want_x = c * x0[k] - s * y0[k];
                assert_eq!(y[k].to_bits(), want_y.to_bits(), "{be:?} n={n} y[{k}]");
                assert_eq!(x[k].to_bits(), want_x.to_bits(), "{be:?} n={n} x[{k}]");
            }
        }
    }

    #[test]
    fn lanes_are_declared() {
        assert_eq!(SimdBackend::Scalar.lanes(), 1);
        assert_eq!(SimdBackend::Avx2.lanes(), 4);
        assert_eq!(SimdBackend::Neon.lanes(), 2);
        assert!(active().lanes() <= LANE);
    }
}
