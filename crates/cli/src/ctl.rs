//! CodeML-style control files.
//!
//! CodeML is driven by a `codeml.ctl` file of `key = value` lines
//! (§II of the paper: "a dedicated parameter file is read by CodeML to
//! set model parameters and corresponding optimization options"). This
//! module accepts the subset of that format relevant to the tests this
//! reproduction implements:
//!
//! ```text
//! seqfile   = gene.fasta       * codon alignment (FASTA or PHYLIP)
//! treefile  = gene.nwk         * Newick, foreground marked #1
//! model     = 2                * 2 = branch(-site) models, 0 = site models
//! NSsites   = 2                * 2 with model=2 → branch-site model A
//! CodonFreq = 2                * 0=equal 1=F1x4 2=F3x4 3=F61
//! seed      = 1                * RNG seed for starting values
//! ```
//!
//! `model = 2, NSsites = 2` selects the branch-site test (H0 + H1, the
//! paper's workload); `model = 0, NSsites = 1 2` selects the M1a/M2a
//! sites test. `*` starts a comment, as in PAML.

use slim_bio::FreqModel;
use slim_core::AnalysisOptions;

/// Which analysis a control file requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtlMode {
    /// Branch-site model A test (H0 vs H1).
    BranchSite,
    /// M1a vs M2a sites test.
    Sites,
}

/// Parsed control file.
#[derive(Debug, Clone)]
pub struct CtlConfig {
    /// Alignment path (`seqfile`).
    pub seq_path: String,
    /// Tree path (`treefile`).
    pub tree_path: String,
    /// Selected analysis.
    pub mode: CtlMode,
    /// Assembled options.
    pub options: AnalysisOptions,
}

/// Parse a control-file text.
///
/// # Errors
/// Human-readable message naming the offending line/key.
pub fn parse_ctl(text: &str) -> Result<CtlConfig, String> {
    let mut seqfile = None;
    let mut treefile = None;
    let mut model: i64 = 2;
    let mut nssites: Vec<i64> = vec![2];
    let mut options = AnalysisOptions::default();

    for (lineno, raw) in text.lines().enumerate() {
        // Strip PAML-style '*' comments.
        let line = raw.split('*').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "line {}: expected `key = value`, got {raw:?}",
                lineno + 1
            ));
        };
        let key = key.trim();
        let value = value.trim();
        let bad_int = |v: &str| format!("line {}: bad integer {v:?} for {key}", lineno + 1);
        let parse_int = |v: &str| -> Result<i64, String> { v.parse().map_err(|_| bad_int(v)) };
        match key {
            "seqfile" => seqfile = Some(value.to_string()),
            "treefile" => treefile = Some(value.to_string()),
            "outfile" => {} // accepted for compatibility; output goes to stdout
            "model" => model = parse_int(value)?,
            "NSsites" => {
                nssites = value
                    .split_whitespace()
                    .map(parse_int)
                    .collect::<Result<Vec<_>, _>>()?;
            }
            "CodonFreq" => {
                options.freq_model = match parse_int(value)? {
                    0 => FreqModel::Equal,
                    1 => FreqModel::F1x4,
                    2 => FreqModel::F3x4,
                    3 => FreqModel::F61,
                    other => {
                        return Err(format!(
                            "line {}: CodonFreq = {other} unsupported",
                            lineno + 1
                        ))
                    }
                };
            }
            // Counts parse as unsigned, so a negative value is a bad
            // integer rather than a wrapped huge one.
            "seed" => options.seed = value.parse().map_err(|_| bad_int(value))?,
            "icode" => {
                options.genetic_code = match parse_int(value)? {
                    0 => slim_bio::GeneticCode::universal(),
                    1 => slim_bio::GeneticCode::vertebrate_mitochondrial(),
                    other => {
                        return Err(format!(
                            "line {}: icode = {other} unsupported (0|1)",
                            lineno + 1
                        ))
                    }
                };
            }
            "maxiter" => options.max_iterations = value.parse().map_err(|_| bad_int(value))?,
            // Commonly present CodeML keys that this reproduction either
            // fixes implicitly (the H0/H1 pair is always run) or ignores.
            "noisy" | "verbose" | "runmode" | "seqtype" | "clock" | "getSE" | "RateAncestor"
            | "fix_kappa" | "kappa" | "fix_omega" | "omega" | "cleandata" | "fix_blength"
            | "method" | "Small_Diff" | "ndata" | "aaDist" => {}
            other => {
                return Err(format!(
                    "line {}: unknown control key {other:?}",
                    lineno + 1
                ))
            }
        }
    }

    let mode = match (model, nssites.as_slice()) {
        (2, ns) if ns.contains(&2) => CtlMode::BranchSite,
        (0, ns) if ns.contains(&1) || ns.contains(&2) => CtlMode::Sites,
        (m, ns) => {
            return Err(format!(
                "unsupported combination model = {m}, NSsites = {ns:?} \
                 (supported: model=2 NSsites=2 → branch-site; model=0 NSsites=1 2 → M1a/M2a)"
            ))
        }
    };

    Ok(CtlConfig {
        seq_path: seqfile.ok_or("control file missing `seqfile`")?,
        tree_path: treefile.ok_or("control file missing `treefile`")?,
        mode,
        options,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASIC: &str = "\
        seqfile = gene.fasta  * the alignment\n\
        treefile = gene.nwk\n\
        outfile = mlc\n\
        model = 2\n\
        NSsites = 2\n\
        CodonFreq = 3\n\
        seed = 7\n";

    #[test]
    fn parses_branch_site_ctl() {
        let c = parse_ctl(BASIC).unwrap();
        assert_eq!(c.seq_path, "gene.fasta");
        assert_eq!(c.tree_path, "gene.nwk");
        assert_eq!(c.mode, CtlMode::BranchSite);
        assert_eq!(c.options.freq_model, FreqModel::F61);
        assert_eq!(c.options.seed, 7);
    }

    #[test]
    fn parses_sites_ctl() {
        let text = "seqfile=a.fa\ntreefile=t.nwk\nmodel = 0\nNSsites = 1 2\n";
        let c = parse_ctl(text).unwrap();
        assert_eq!(c.mode, CtlMode::Sites);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "* a full comment line\n\nseqfile = a.fa * trailing\ntreefile = t.nwk\n";
        let c = parse_ctl(text).unwrap();
        assert_eq!(c.seq_path, "a.fa");
    }

    #[test]
    fn known_ignored_keys_pass() {
        let text = "seqfile=a\ntreefile=t\nnoisy = 9\ncleandata = 1\nfix_omega = 0\nomega = 1.5\n";
        assert!(parse_ctl(text).is_ok());
        let mito = parse_ctl("seqfile=a\ntreefile=t\nicode = 1\n").unwrap();
        assert_eq!(mito.options.genetic_code.n_sense(), 60);
        assert!(parse_ctl("seqfile=a\ntreefile=t\nicode = 5\n").is_err());
    }

    #[test]
    fn errors() {
        assert!(parse_ctl("treefile = t\n").unwrap_err().contains("seqfile"));
        assert!(parse_ctl("seqfile = a\ntreefile = t\nwat = 1\n")
            .unwrap_err()
            .contains("wat"));
        assert!(parse_ctl("seqfile = a\ntreefile = t\nmodel = 7\n")
            .unwrap_err()
            .contains("unsupported"));
        assert!(parse_ctl("seqfile = a\ntreefile = t\njust a line\n").is_err());
        assert!(parse_ctl("seqfile = a\ntreefile = t\nCodonFreq = 9\n").is_err());
        for (text, key) in [
            ("seqfile = a\ntreefile = t\nmaxiter = -1\n", "maxiter"),
            ("seqfile = a\ntreefile = t\nseed = -1\n", "seed"),
        ] {
            assert_eq!(
                parse_ctl(text).unwrap_err(),
                format!("line 3: bad integer \"-1\" for {key}")
            );
        }
    }
}
