//! Selectable computational backends.

use slim_lik::EngineConfig;

/// Which numerical engine computes the likelihood. All backends compute
/// the *same* function — the paper's accuracy experiment (§IV-1) checks
/// exactly this — but with very different cost profiles. Every backend's
/// fits run one evaluator that computes each new point whole; backends
/// differ only in the engine configuration they select.
///
/// # Interaction with batch runs
///
/// `slim-batch` parallelizes at the *job* level: each H0/H1 test runs on
/// one worker thread. Backends are orthogonal to that and every backend
/// is safe to use in a batch. Intra-gene threads are a separate knob
/// (`AnalysisOptions::threads`, `--threads`, `SLIMCODEML_THREADS`; `0` =
/// auto): a batch with `workers = N` and auto threads can oversubscribe
/// the machine N-fold, so on a machine sized for `N` workers let the
/// batch pool own all cores. Results are **bit-identical** either way —
/// the engine's deterministic reduction guarantees it — only the thread
/// budget differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// CodeML v4.4c profile: Eq. 9 expm through naive kernels, per-site
    /// naive matrix×vector CPV products.
    CodeMlStyle,
    /// SlimCodeML as measured in the paper: Eq. 10 `dsyrk` expm, blocked
    /// kernels, per-site `dgemv`.
    #[default]
    Slim,
    /// SlimCodeML plus bundled BLAS-3 site products (§III-B).
    SlimPlus,
    /// SlimCodeML with the Eq. 12 symmetric CPV application.
    SlimSymmetric,
}

impl Backend {
    /// All backends, for sweeps.
    pub const ALL: [Backend; 4] = [
        Backend::CodeMlStyle,
        Backend::Slim,
        Backend::SlimPlus,
        Backend::SlimSymmetric,
    ];

    /// Materialize the engine configuration.
    pub fn config(self) -> EngineConfig {
        match self {
            Backend::CodeMlStyle => EngineConfig::codeml_style(),
            Backend::Slim => EngineConfig::slim(),
            Backend::SlimPlus => EngineConfig::slim_plus(),
            Backend::SlimSymmetric => EngineConfig::slim_symmetric(),
        }
    }

    /// Display label matching the paper's terminology.
    pub fn label(self) -> &'static str {
        self.config().label
    }

    /// Parse from a CLI-style string.
    pub fn from_str_opt(s: &str) -> Option<Backend> {
        match s.to_ascii_lowercase().as_str() {
            "codeml" | "codeml-style" | "baseline" => Some(Backend::CodeMlStyle),
            "slim" | "slimcodeml" => Some(Backend::Slim),
            "slim+" | "slimplus" | "slim-plus" => Some(Backend::SlimPlus),
            "slim-sym" | "slimsymmetric" | "eq12" => Some(Backend::SlimSymmetric),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Backend::CodeMlStyle.label(), "CodeML");
        assert_eq!(Backend::Slim.label(), "SlimCodeML");
    }

    #[test]
    fn parsing() {
        assert_eq!(Backend::from_str_opt("codeml"), Some(Backend::CodeMlStyle));
        assert_eq!(Backend::from_str_opt("SLIM"), Some(Backend::Slim));
        assert_eq!(Backend::from_str_opt("slim+"), Some(Backend::SlimPlus));
        assert_eq!(Backend::from_str_opt("eq12"), Some(Backend::SlimSymmetric));
        assert_eq!(Backend::from_str_opt("nope"), None);
    }

    #[test]
    fn default_is_slim() {
        assert_eq!(Backend::default(), Backend::Slim);
    }
}
