//! The correctness gate every test passes through. A failing test counts
//! against the run's pass rate; it never stops the run.

use std::collections::BTreeMap;
use std::fmt;

/// Relative lnL tolerance: the paper's accuracy bound (§IV, D ≤ 5.5e-8).
pub const D: f64 = 5.5e-8;

/// What one positive-selection test returned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// H0 log-likelihood.
    pub lnl0: f64,
    /// H1 log-likelihood.
    pub lnl1: f64,
    /// `Analysis::log_likelihood` re-evaluated at the returned H0 and H1
    /// estimates, when the API returned them.
    pub replay: Option<(f64, f64)>,
}

/// Why a test failed the gate.
#[derive(Debug, Clone, PartialEq)]
pub enum Failure {
    /// The test errored or its batch job was quarantined.
    Error(String),
    /// An lnL is NaN or infinite.
    NonFinite,
    /// An lnL is positive.
    Positive,
    /// lnL1 < lnL0 − D·|lnL0|: H1 nests H0, so its optimum cannot be lower.
    Nesting,
    /// An lnL is below the seed commit's recorded value by more than D.
    BelowReference,
    /// Re-evaluating at the returned estimates gives other bits.
    Replay,
}

impl Failure {
    /// Short name for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Failure::Error(_) => "error",
            Failure::NonFinite => "non-finite",
            Failure::Positive => "positive",
            Failure::Nesting => "nesting",
            Failure::BelowReference => "below-reference",
            Failure::Replay => "replay",
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Error(msg) => write!(f, "error: {msg}"),
            other => f.write_str(other.kind()),
        }
    }
}

/// Gate one test. `reference` is the seed commit's `(lnL0, lnL1)` for the
/// same workload and gene, when one was recorded.
pub fn check(
    answer: &Result<Answer, String>,
    reference: Option<(f64, f64)>,
) -> Result<(), Failure> {
    let a = answer.as_ref().map_err(|e| Failure::Error(e.clone()))?;
    for lnl in [a.lnl0, a.lnl1] {
        if !lnl.is_finite() {
            return Err(Failure::NonFinite);
        }
        if lnl > 0.0 {
            return Err(Failure::Positive);
        }
    }
    if a.lnl1 < a.lnl0 - D * a.lnl0.abs() {
        return Err(Failure::Nesting);
    }
    if let Some((r0, r1)) = reference {
        if a.lnl0 < r0 - D * r0.abs() || a.lnl1 < r1 - D * r1.abs() {
            return Err(Failure::BelowReference);
        }
    }
    if let Some((p0, p1)) = a.replay {
        if p0.to_bits() != a.lnl0.to_bits() || p1.to_bits() != a.lnl1.to_bits() {
            return Err(Failure::Replay);
        }
    }
    Ok(())
}

/// Recorded lnLs keyed by (workload, gene). A gene's lnLs do not depend
/// on the run seed, which only permutes how the gene is presented.
#[derive(Debug, Clone, Default)]
pub struct References {
    map: BTreeMap<(String, String), (f64, f64)>,
}

impl References {
    /// The lnLs recorded at the seed commit, shipped with the benchmark.
    pub fn recorded() -> Result<References, String> {
        References::parse(include_str!("../reference_lnl.tsv"))
    }

    /// Parse tab-separated `workload gene lnl0 lnl1` lines; `#` starts a
    /// comment line.
    pub fn parse(text: &str) -> Result<References, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("reference line {}: {line:?}", n + 1);
            let fields: Vec<&str> = line.split('\t').collect();
            let [workload, gene, lnl0, lnl1] = fields[..] else {
                return Err(bad());
            };
            let lnl0: f64 = lnl0.parse().map_err(|_| bad())?;
            let lnl1: f64 = lnl1.parse().map_err(|_| bad())?;
            map.insert((workload.to_string(), gene.to_string()), (lnl0, lnl1));
        }
        Ok(References { map })
    }

    /// The recorded `(lnL0, lnL1)` for one gene, if any.
    pub fn get(&self, workload: &str, gene: &str) -> Option<(f64, f64)> {
        self.map
            .get(&(workload.to_string(), gene.to_string()))
            .copied()
    }

    /// Number of recorded genes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}
