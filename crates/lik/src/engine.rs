//! Engine configurations: which numerics compute the same likelihood.

use slim_expm::CpvStrategy;
use slim_linalg::{EigenMethod, SimdMode};

/// Which reconstruction of `P(t)` from the eigendecomposition to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExpmPath {
    /// Eq. 9 through textbook kernels (`Z = Ỹ·Xᵀ`, strided triple loop).
    Eq9Naive,
    /// Eq. 9 through the blocked `gemm` (isolates kernel tuning from the
    /// flop-count saving in ablations).
    Eq9Tuned,
    /// Eq. 10 through the symmetric rank-k update — the SlimCodeML path.
    #[default]
    Eq10Syrk,
}

/// Full numerical configuration of the likelihood engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Transition-matrix reconstruction path.
    pub expm: ExpmPath,
    /// CPV application strategy.
    pub cpv: CpvStrategy,
    /// Symmetric eigensolver.
    pub eigen: EigenMethod,
    /// Worker threads for one likelihood evaluation (the `slim-par`
    /// intra-gene engine, §V-B's FastCodeML direction): per-branch
    /// `exp(Qt)` reconstructions are fanned across branches × ω-classes,
    /// and pruning is fanned across (background-ω group × pattern block)
    /// units; the at most three eigendecompositions run on the calling
    /// thread. `1` = serial, `0` = auto
    /// (`available_parallelism`). Any value produces **bit-identical**
    /// results: block boundaries are fixed by [`EngineConfig::pattern_block`]
    /// alone, every unit is computed independently, and the final reduction
    /// runs in fixed pattern order with compensated summation.
    pub threads: usize,
    /// Site patterns per pruning block. Fixed boundaries (independent of
    /// the thread count) are what make the thread-determinism guarantee
    /// possible; 256 columns × 61 states ≈ 125 KiB per CPV block, sized to
    /// keep a working set of a few blocks in L2.
    pub pattern_block: usize,
    /// SIMD kernel dispatch for this evaluation (default
    /// [`SimdMode::Auto`]: honor `SLIMCODEML_SIMD`, else CPU detection).
    /// Every mode produces **bit-identical** likelihoods — the kernels
    /// vectorize across independent outputs only, never across a
    /// reduction — so this knob exists for benchmarking and for proving
    /// exactly that property.
    pub simd: SimdMode,
    /// Human-readable label used by the experiment harness.
    pub label: &'static str,
}

/// Default pruning block width (site patterns per unit).
pub const DEFAULT_PATTERN_BLOCK: usize = 256;

impl EngineConfig {
    /// The CodeML v4.4c baseline profile: hand-rolled-loop numerics — the
    /// scalar `tred2`/`tql2` eigensolver, the textbook Eq. 9 product and
    /// per-site CPV loops.
    pub fn codeml_style() -> EngineConfig {
        EngineConfig {
            expm: ExpmPath::Eq9Naive,
            cpv: CpvStrategy::NaivePerSite,
            eigen: EigenMethod::HouseholderQlNaive,
            threads: 1,
            pattern_block: DEFAULT_PATTERN_BLOCK,
            simd: SimdMode::Auto,
            label: "CodeML",
        }
    }

    /// The SlimCodeML profile exactly as measured in the paper:
    /// `dsyevr`-style eigensolve (the tuned Householder + QL, same bits as
    /// codeml-style's), Eq. 10 `dsyrk` reconstruction, per-site
    /// `dgemv` CPV products (§III-B: bundling was deliberately left out of
    /// the measured prototype).
    pub fn slim() -> EngineConfig {
        EngineConfig {
            expm: ExpmPath::Eq10Syrk,
            cpv: CpvStrategy::PerSiteGemv,
            eigen: EigenMethod::HouseholderQl,
            threads: 1,
            pattern_block: DEFAULT_PATTERN_BLOCK,
            simd: SimdMode::Auto,
            label: "SlimCodeML",
        }
    }

    /// SlimCodeML plus the post-evaluation improvement the paper
    /// describes but did not measure: bundled BLAS-3 site products
    /// (§III-B).
    pub fn slim_plus() -> EngineConfig {
        EngineConfig {
            expm: ExpmPath::Eq10Syrk,
            cpv: CpvStrategy::BundledGemm,
            eigen: EigenMethod::HouseholderQl,
            threads: 1,
            pattern_block: DEFAULT_PATTERN_BLOCK,
            simd: SimdMode::Auto,
            label: "SlimCodeML+",
        }
    }

    /// SlimCodeML with the Eq. 12 symmetric CPV application (§II-C2) —
    /// per-site `symv` on `Π·w`, halving memory traffic per product.
    pub fn slim_symmetric() -> EngineConfig {
        EngineConfig {
            expm: ExpmPath::Eq10Syrk,
            cpv: CpvStrategy::SymmetricSymv,
            eigen: EigenMethod::HouseholderQl,
            threads: 1,
            pattern_block: DEFAULT_PATTERN_BLOCK,
            simd: SimdMode::Auto,
            label: "SlimCodeML-eq12",
        }
    }

    /// Swap the eigensolver (builder-style).
    pub fn with_eigen(mut self, method: EigenMethod) -> EngineConfig {
        self.eigen = method;
        self
    }

    /// Swap the CPV strategy (builder-style).
    pub fn with_cpv(mut self, cpv: CpvStrategy) -> EngineConfig {
        self.cpv = cpv;
        self
    }

    /// Set the worker-thread count (builder-style; `0` = auto).
    pub fn with_threads(mut self, threads: usize) -> EngineConfig {
        self.threads = threads;
        self
    }

    /// Set the SIMD dispatch mode (builder-style). Results are
    /// bit-identical for every mode; see [`EngineConfig::simd`].
    pub fn with_simd(mut self, simd: SimdMode) -> EngineConfig {
        self.simd = simd;
        self
    }

    /// Set the pruning pattern-block width (builder-style; clamped to ≥ 1).
    pub fn with_pattern_block(mut self, block: usize) -> EngineConfig {
        self.pattern_block = block.max(1);
        self
    }

    /// Whether pruning shares work between site classes that select the
    /// same ω slots below a node (see [`crate::pruning`]). Every preset
    /// shares except codeml-style: its naive per-site CPV kernel stands
    /// for CodeML's cost, and CodeML prunes every class at every node.
    pub(crate) fn shares_class_pruning(&self) -> bool {
        self.cpv != CpvStrategy::NaivePerSite
    }

    /// The thread count this configuration resolves to on this machine.
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::slim()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_shapes() {
        let base = EngineConfig::codeml_style();
        assert_eq!(base.expm, ExpmPath::Eq9Naive);
        assert_eq!(base.cpv, CpvStrategy::NaivePerSite);
        assert_eq!(base.eigen, EigenMethod::HouseholderQlNaive);

        let slim = EngineConfig::slim();
        assert_eq!(slim.expm, ExpmPath::Eq10Syrk);
        assert_eq!(slim.cpv, CpvStrategy::PerSiteGemv);

        let plus = EngineConfig::slim_plus();
        assert_eq!(plus.cpv, CpvStrategy::BundledGemm);

        let sym = EngineConfig::slim_symmetric();
        assert_eq!(sym.cpv, CpvStrategy::SymmetricSymv);
        for tuned in [slim, plus, sym] {
            assert_eq!(tuned.eigen, EigenMethod::HouseholderQl);
        }
    }

    #[test]
    fn builders() {
        let cfg = EngineConfig::slim()
            .with_eigen(EigenMethod::BisectionInverse)
            .with_cpv(CpvStrategy::BundledGemm);
        assert_eq!(cfg.eigen, EigenMethod::BisectionInverse);
        assert_eq!(cfg.cpv, CpvStrategy::BundledGemm);
    }
}
