//! The batch job manifest: a JSON document listing gene families and the
//! branches to test on each, validated strictly (unknown keys rejected)
//! and expanded into a deterministic job list.
//!
//! ```json
//! {
//!   "version": 1,
//!   "genes": [
//!     {
//!       "id": "ENSGT0001",
//!       "alignment": "ENSGT0001.fasta",
//!       "tree": "ENSGT0001.nwk",
//!       "branches": "all",
//!       "backend": "slim",
//!       "freq": "f3x4",
//!       "genetic_code": "universal",
//!       "seed": 1,
//!       "max_iterations": 500
//!     }
//!   ]
//! }
//! ```
//!
//! `branches` is either the string `"all"` (every branch of the tree, in
//! arena order — the paper's scan workload) or a non-empty array mixing
//! leaf names (strings) and arena node ids (integers).
//!
//! Job ids are assigned by expansion order: manifest gene order × branch
//! order. The id, and the stable key `"<gene>:<node>"`, identify a job
//! across runs of the same manifest — the basis of checkpoint/resume.

use crate::jsonio::{self, check_keys, fnum, get_str, opt_f64, opt_str, opt_u64, Obj};
use crate::scheduler::PoolJob;
use crate::{BatchError, Result};
use serde_json::Value;
use slim_bio::{CodonAlignment, FreqModel, GeneticCode, NodeId, Tree};
use slim_core::{AnalysisOptions, Backend, GradMode};
use std::path::Path;
use std::sync::Arc;

/// A branch reference in a manifest: by arena node id or by leaf name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BranchRef {
    /// Arena node id (the branch above this node).
    Node(usize),
    /// Leaf name (the terminal branch above this leaf).
    Name(String),
}

/// Which branches of a gene's tree to test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BranchSpec {
    /// Every branch, in arena order.
    All,
    /// An explicit list, tested in the order given.
    List(Vec<BranchRef>),
}

/// One gene family in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Unique gene identifier (no `:` — it separates gene from branch in
    /// job keys).
    pub id: String,
    /// Alignment path, relative to the manifest file's directory.
    pub alignment: String,
    /// Tree path, relative to the manifest file's directory.
    pub tree: String,
    /// Branches to test.
    pub branches: BranchSpec,
    /// Computational backend.
    pub backend: Backend,
    /// Codon frequency estimator.
    pub freq: FreqModel,
    /// `true` selects the vertebrate mitochondrial code.
    pub mito: bool,
    /// Where BFGS takes its gradients (`"grad"`: `analytic` or
    /// `forward`); a manifest without it follows
    /// [`AnalysisOptions::default`], the exact gradient.
    pub grad: GradMode,
    /// Base RNG seed (retries reseed deterministically from this).
    pub seed: u64,
    /// BFGS iteration cap per hypothesis.
    pub max_iterations: usize,
    /// Starting-point jitter.
    pub jitter: f64,
    /// Fixed starting branch length, if any.
    pub initial_branch_length: Option<f64>,
}

impl ManifestEntry {
    /// Assemble the analysis options this entry describes.
    pub fn options(&self) -> AnalysisOptions {
        AnalysisOptions {
            backend: self.backend,
            freq_model: self.freq,
            seed: self.seed,
            max_iterations: self.max_iterations,
            grad_mode: self.grad,
            initial_branch_length: self.initial_branch_length,
            jitter: self.jitter,
            genetic_code: if self.mito {
                GeneticCode::vertebrate_mitochondrial()
            } else {
                GeneticCode::universal()
            },
            ..AnalysisOptions::default()
        }
    }
}

/// A validated batch manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchManifest {
    /// Schema version; only 1 exists.
    pub version: u64,
    /// Gene families in manifest order.
    pub entries: Vec<ManifestEntry>,
}

const TOP_KEYS: [&str; 2] = ["version", "genes"];
const ENTRY_KEYS: [&str; 12] = [
    "id",
    "alignment",
    "tree",
    "branches",
    "backend",
    "freq",
    "genetic_code",
    "grad",
    "seed",
    "max_iterations",
    "jitter",
    "initial_branch_length",
];

fn backend_token(b: Backend) -> &'static str {
    match b {
        Backend::CodeMlStyle => "codeml",
        Backend::Slim => "slim",
        Backend::SlimPlus => "slim+",
        Backend::SlimSymmetric => "eq12",
    }
}

fn grad_token(g: GradMode) -> &'static str {
    match g {
        GradMode::Forward => "forward",
        GradMode::Analytic => "analytic",
    }
}

fn parse_grad(s: &str, ctx: &str) -> Result<GradMode> {
    match s.to_ascii_lowercase().as_str() {
        "forward" => Ok(GradMode::Forward),
        "analytic" => Ok(GradMode::Analytic),
        _ => Err(BatchError::Manifest(format!(
            "{ctx}: unknown grad mode {s:?} (analytic|forward)"
        ))),
    }
}

fn parse_genetic_code(s: &str, ctx: &str) -> Result<bool> {
    match s.to_ascii_lowercase().as_str() {
        "universal" | "standard" => Ok(false),
        "vertebrate-mt" | "vertebrate-mitochondrial" | "mito" => Ok(true),
        _ => Err(BatchError::Manifest(format!(
            "{ctx}: unknown genetic code {s:?} (universal|vertebrate-mt)"
        ))),
    }
}

impl BatchManifest {
    /// Parse and validate a manifest document.
    ///
    /// # Errors
    /// [`BatchError::Manifest`] on malformed JSON, wrong version, unknown
    /// keys, duplicate/invalid gene ids, or invalid field values.
    pub fn parse(text: &str) -> Result<BatchManifest> {
        let root: Value = serde_json::from_str(text)
            .map_err(|e| BatchError::Manifest(format!("invalid JSON: {e}")))?;
        check_keys(&root, &TOP_KEYS, "manifest")?;
        let version = opt_u64(&root, "version", "manifest")?.ok_or_else(|| {
            BatchError::Manifest("manifest: missing required key \"version\"".into())
        })?;
        if version != 1 {
            return Err(BatchError::Manifest(format!(
                "unsupported manifest version {version} (expected 1)"
            )));
        }
        let genes = root.get("genes").and_then(Value::as_array).ok_or_else(|| {
            BatchError::Manifest("manifest: \"genes\" must be a non-empty array".into())
        })?;
        if genes.is_empty() {
            return Err(BatchError::Manifest(
                "manifest: \"genes\" must be a non-empty array".into(),
            ));
        }

        let defaults = AnalysisOptions::default();
        let mut entries = Vec::with_capacity(genes.len());
        let mut seen = std::collections::BTreeSet::new();
        for (i, g) in genes.iter().enumerate() {
            let ctx = format!("genes[{i}]");
            check_keys(g, &ENTRY_KEYS, &ctx)?;
            let id = get_str(g, "id", &ctx)?.to_string();
            if id.is_empty()
                || id.contains(':')
                || id.chars().any(|c| c.is_whitespace() || c.is_control())
            {
                return Err(BatchError::Manifest(format!(
                    "{ctx}: id {id:?} must be non-empty, without ':' or whitespace"
                )));
            }
            if !seen.insert(id.clone()) {
                return Err(BatchError::Manifest(format!(
                    "{ctx}: duplicate gene id {id:?}"
                )));
            }
            let alignment = get_str(g, "alignment", &ctx)?.to_string();
            let tree = get_str(g, "tree", &ctx)?.to_string();
            if alignment.is_empty() || tree.is_empty() {
                return Err(BatchError::Manifest(format!(
                    "{ctx}: \"alignment\" and \"tree\" must be non-empty paths"
                )));
            }
            let branches = Self::parse_branches(g, &ctx)?;
            let backend = match opt_str(g, "backend", &ctx)? {
                Some(s) => Backend::from_str_opt(s)
                    .ok_or_else(|| BatchError::Manifest(format!("{ctx}: unknown backend {s:?}")))?,
                None => defaults.backend,
            };
            let freq = match opt_str(g, "freq", &ctx)? {
                Some(s) => FreqModel::from_str_opt(s).ok_or_else(|| {
                    BatchError::Manifest(format!("{ctx}: unknown frequency model {s:?}"))
                })?,
                None => defaults.freq_model,
            };
            let mito = match opt_str(g, "genetic_code", &ctx)? {
                Some(s) => parse_genetic_code(s, &ctx)?,
                None => false,
            };
            let grad = match opt_str(g, "grad", &ctx)? {
                Some(s) => parse_grad(s, &ctx)?,
                None => defaults.grad_mode,
            };
            let seed = opt_u64(g, "seed", &ctx)?.unwrap_or(defaults.seed);
            let max_iterations = opt_u64(g, "max_iterations", &ctx)?
                .map(|v| v as usize)
                .unwrap_or(defaults.max_iterations);
            if max_iterations == 0 {
                return Err(BatchError::Manifest(format!(
                    "{ctx}: max_iterations must be ≥ 1"
                )));
            }
            let jitter = match opt_f64(g, "jitter", &ctx)? {
                Some(v) if v >= 0.0 => v,
                Some(v) => {
                    return Err(BatchError::Manifest(format!(
                        "{ctx}: jitter must be ≥ 0, got {v}"
                    )))
                }
                None => defaults.jitter,
            };
            let initial_branch_length = match opt_f64(g, "initial_branch_length", &ctx)? {
                Some(v) if v > 0.0 => Some(v),
                Some(v) => {
                    return Err(BatchError::Manifest(format!(
                        "{ctx}: initial_branch_length must be > 0, got {v}"
                    )))
                }
                None => None,
            };
            entries.push(ManifestEntry {
                id,
                alignment,
                tree,
                branches,
                backend,
                freq,
                mito,
                grad,
                seed,
                max_iterations,
                jitter,
                initial_branch_length,
            });
        }
        Ok(BatchManifest { version, entries })
    }

    fn parse_branches(g: &Value, ctx: &str) -> Result<BranchSpec> {
        match g.get("branches") {
            None => Ok(BranchSpec::All),
            Some(v) if v.as_str() == Some("all") => Ok(BranchSpec::All),
            Some(v) => {
                let arr = v.as_array().ok_or_else(|| {
                    BatchError::Manifest(format!(
                        "{ctx}: \"branches\" must be \"all\" or an array of names/node ids"
                    ))
                })?;
                if arr.is_empty() {
                    return Err(BatchError::Manifest(format!(
                        "{ctx}: \"branches\" array must be non-empty"
                    )));
                }
                let mut refs = Vec::with_capacity(arr.len());
                for (j, item) in arr.iter().enumerate() {
                    if let Some(n) = item.as_u64() {
                        refs.push(BranchRef::Node(n as usize));
                    } else if let Some(s) = item.as_str() {
                        if s.is_empty() {
                            return Err(BatchError::Manifest(format!(
                                "{ctx}: branches[{j}] must be a non-empty name"
                            )));
                        }
                        refs.push(BranchRef::Name(s.to_string()));
                    } else {
                        return Err(BatchError::Manifest(format!(
                            "{ctx}: branches[{j}] must be a leaf name or a node id"
                        )));
                    }
                }
                Ok(BranchSpec::List(refs))
            }
        }
    }

    /// Canonical JSON form: every field resolved and emitted with sorted,
    /// fixed key order. `parse(canonical_json(m))` reproduces `m`, and the
    /// fingerprint is FNV-1a over these bytes.
    pub fn canonical_json(&self) -> String {
        let genes: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                let branches = match &e.branches {
                    BranchSpec::All => "\"all\"".to_string(),
                    BranchSpec::List(refs) => {
                        let items: Vec<String> = refs
                            .iter()
                            .map(|r| match r {
                                BranchRef::Node(n) => n.to_string(),
                                BranchRef::Name(s) => jsonio::esc(s),
                            })
                            .collect();
                        format!("[{}]", items.join(","))
                    }
                };
                let mut o = Obj::new();
                o.str("alignment", &e.alignment)
                    .str("backend", backend_token(e.backend))
                    .raw("branches", branches)
                    .str("freq", e.freq.label())
                    .str(
                        "genetic_code",
                        if e.mito { "vertebrate-mt" } else { "universal" },
                    )
                    .str("grad", grad_token(e.grad))
                    .str("id", &e.id)
                    .raw(
                        "initial_branch_length",
                        e.initial_branch_length
                            .map(fnum)
                            .unwrap_or_else(|| "null".into()),
                    )
                    .f64("jitter", e.jitter)
                    .u64("max_iterations", e.max_iterations as u64)
                    .u64("seed", e.seed)
                    .str("tree", &e.tree);
                o.finish()
            })
            .collect();
        format!(
            "{{\"version\":{},\"genes\":[{}]}}",
            self.version,
            genes.join(",")
        )
    }

    /// FNV-1a 64 fingerprint of the canonical JSON — stored in journal
    /// headers so `--resume` refuses a journal from a different manifest.
    pub fn fingerprint(&self) -> u64 {
        jsonio::fnv1a64(self.canonical_json().as_bytes())
    }

    /// Expand into the deterministic job list. Input files are loaded
    /// once per gene (jobs share them via `Arc`); a gene whose files fail
    /// to load becomes *poisoned* jobs that fail immediately at run time
    /// with the captured error, so one bad gene never aborts the batch.
    pub fn expand(&self, base_dir: &Path) -> Vec<PoolJob<JobPayload>> {
        let mut jobs = Vec::new();
        for entry in &self.entries {
            expand_entry(entry, base_dir, &mut jobs);
        }
        jobs
    }
}

/// Input side of one job: loaded data, or the load error to report.
#[derive(Debug, Clone)]
pub enum JobInput {
    /// Files loaded and the branch resolved.
    Ready {
        /// Shared tree (foreground set per job at fit time, no copies).
        tree: Arc<Tree>,
        /// Shared alignment.
        aln: Arc<CodonAlignment>,
        /// The branch to test, by child node.
        branch: NodeId,
    },
    /// Load/resolution failed; the job is quarantined with this error.
    Poisoned {
        /// What went wrong at expansion time.
        error: String,
    },
}

/// Payload carried by each scheduled job.
#[derive(Debug, Clone)]
pub struct JobPayload {
    /// The gene this job belongs to.
    pub gene_id: String,
    /// Loaded input or captured failure.
    pub input: JobInput,
    /// Analysis options from the manifest entry.
    pub options: AnalysisOptions,
}

fn read_input(base: &Path, rel: &str) -> std::result::Result<String, String> {
    let path = base.join(rel);
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn load_tree(text: &str) -> std::result::Result<Tree, String> {
    if slim_bio::is_nexus(text) {
        slim_bio::parse_nexus_tree(text).map_err(|e| e.to_string())
    } else {
        slim_bio::parse_newick(text).map_err(|e| e.to_string())
    }
}

fn load_alignment(text: &str, code: &GeneticCode) -> std::result::Result<CodonAlignment, String> {
    let trimmed = text.trim_start();
    if slim_bio::is_nexus(text) {
        let aln = slim_bio::parse_nexus_alignment(text).map_err(|e| e.to_string())?;
        let names = aln.names().to_vec();
        let seqs = (0..aln.n_sequences())
            .map(|i| aln.sequence(i).to_vec())
            .collect();
        CodonAlignment::new_with_code(names, seqs, code).map_err(|e| e.to_string())
    } else if trimmed.starts_with('>') {
        CodonAlignment::from_fasta_with_code(text, code).map_err(|e| e.to_string())
    } else {
        CodonAlignment::from_phylip_with_code(text, code).map_err(|e| e.to_string())
    }
}

fn expand_entry(entry: &ManifestEntry, base_dir: &Path, jobs: &mut Vec<PoolJob<JobPayload>>) {
    let options = entry.options();
    let mut push = |key: String, label: String, input: JobInput| {
        jobs.push(PoolJob {
            id: jobs.len(),
            key,
            label,
            payload: JobPayload {
                gene_id: entry.id.clone(),
                input,
                options: options.clone(),
            },
        });
    };

    // The tree determines the branch list; without it the entry reduces
    // to a single quarantined job.
    let tree = match read_input(base_dir, &entry.tree).and_then(|t| load_tree(&t)) {
        Ok(t) => Arc::new(t),
        Err(error) => {
            push(
                format!("{}:*", entry.id),
                format!("{}:*", entry.id),
                JobInput::Poisoned {
                    error: format!("tree: {error}"),
                },
            );
            return;
        }
    };
    // A bad alignment still expands per-branch (sibling isolation): each
    // branch job carries the same captured error.
    let aln = read_input(base_dir, &entry.alignment)
        .and_then(|t| load_alignment(&t, &options.genetic_code))
        .map(Arc::new);

    let branches: Vec<(String, std::result::Result<NodeId, String>)> = match &entry.branches {
        BranchSpec::All => tree
            .branch_nodes()
            .into_iter()
            .map(|id| (id.0.to_string(), Ok(id)))
            .collect(),
        BranchSpec::List(refs) => refs
            .iter()
            .map(|r| match r {
                BranchRef::Node(n) => {
                    let token = n.to_string();
                    if *n >= tree.n_nodes() {
                        (
                            token,
                            Err(format!(
                                "node id {n} out of range ({} nodes)",
                                tree.n_nodes()
                            )),
                        )
                    } else if tree.node(NodeId(*n)).parent.is_none() {
                        (
                            token,
                            Err(format!("node id {n} is the root; it has no branch")),
                        )
                    } else {
                        (token, Ok(NodeId(*n)))
                    }
                }
                BranchRef::Name(name) => match tree.leaf_by_name(name) {
                    Some(id) => (id.0.to_string(), Ok(id)),
                    None => (
                        name.clone(),
                        Err(format!("no leaf named {name:?} in the tree")),
                    ),
                },
            })
            .collect(),
    };

    for (token, resolved) in branches {
        let key = format!("{}:{}", entry.id, token);
        match resolved {
            Ok(branch) => {
                let label = match tree.node(branch).name.as_deref() {
                    Some(name) => format!("{}:{}", entry.id, name),
                    None => format!("{}:node{}", entry.id, branch.0),
                };
                match &aln {
                    Ok(aln) => push(
                        key,
                        label,
                        JobInput::Ready {
                            tree: Arc::clone(&tree),
                            aln: Arc::clone(aln),
                            branch,
                        },
                    ),
                    Err(error) => push(
                        key,
                        label,
                        JobInput::Poisoned {
                            error: format!("alignment: {error}"),
                        },
                    ),
                }
            }
            Err(error) => {
                let label = format!("{}:{}", entry.id, token);
                push(
                    key,
                    label,
                    JobInput::Poisoned {
                        error: format!("branch: {error}"),
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(branches: &str) -> String {
        format!(
            r#"{{"version": 1, "genes": [
                {{"id": "g1", "alignment": "a.fa", "tree": "t.nwk", "branches": {branches}}}
            ]}}"#
        )
    }

    #[test]
    fn parses_minimal_manifest_with_defaults() {
        let m = BatchManifest::parse(&minimal("\"all\"")).unwrap();
        assert_eq!(m.version, 1);
        assert_eq!(m.entries.len(), 1);
        let e = &m.entries[0];
        assert_eq!(e.id, "g1");
        assert_eq!(e.branches, BranchSpec::All);
        assert_eq!(e.backend, Backend::Slim);
        assert_eq!(e.freq, FreqModel::F3x4);
        assert_eq!(e.seed, 1);
        assert!(!e.mito);
    }

    #[test]
    fn branches_list_mixes_names_and_ids() {
        let m = BatchManifest::parse(&minimal("[\"A\", 3, \"B\"]")).unwrap();
        assert_eq!(
            m.entries[0].branches,
            BranchSpec::List(vec![
                BranchRef::Name("A".into()),
                BranchRef::Node(3),
                BranchRef::Name("B".into()),
            ])
        );
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        for (doc, needle) in [
            (
                r#"{"version": 2, "genes": [{"id":"g","alignment":"a","tree":"t"}]}"#,
                "version",
            ),
            (
                r#"{"genes": [{"id":"g","alignment":"a","tree":"t"}]}"#,
                "version",
            ),
            (r#"{"version": 1, "genes": [], "extra": 1}"#, "unknown key"),
            (r#"{"version": 1, "genes": []}"#, "non-empty"),
            (
                r#"{"version": 1, "genes": [{"id":"g","alignment":"a","tree":"t","typo":1}]}"#,
                "unknown key",
            ),
            (
                r#"{"version": 1, "genes": [{"id":"a:b","alignment":"a","tree":"t"}]}"#,
                "':'",
            ),
            (
                r#"{"version": 1, "genes": [{"id":"g","alignment":"a","tree":"t","branches":[]}]}"#,
                "non-empty",
            ),
            (
                r#"{"version": 1, "genes": [{"id":"g","alignment":"a","tree":"t","backend":"nope"}]}"#,
                "backend",
            ),
            (
                r#"{"version": 1, "genes": [{"id":"g","alignment":"a","tree":"t","jitter":-1}]}"#,
                "jitter",
            ),
            (
                r#"{"version": 1, "genes": [{"id":"g","alignment":"a","tree":"t","branches":[true]}]}"#,
                "branches[0]",
            ),
        ] {
            let err = BatchManifest::parse(doc).unwrap_err().to_string();
            assert!(err.contains(needle), "{doc} -> {err}");
        }
    }

    #[test]
    fn rejects_duplicate_ids() {
        let doc = r#"{"version": 1, "genes": [
            {"id":"g","alignment":"a","tree":"t"},
            {"id":"g","alignment":"b","tree":"u"}
        ]}"#;
        assert!(BatchManifest::parse(doc)
            .unwrap_err()
            .to_string()
            .contains("duplicate"));
    }

    #[test]
    fn canonical_json_roundtrips() {
        let doc = r#"{"version": 1, "genes": [
            {"id":"g1","alignment":"a.fa","tree":"t.nwk","branches":["A",3],
             "backend":"slim+","freq":"f61","genetic_code":"vertebrate-mt",
             "grad":"forward","seed":7,"max_iterations":42,"jitter":0.125,
             "initial_branch_length":0.5},
            {"id":"g2","alignment":"b.fa","tree":"u.nwk"}
        ]}"#;
        let m = BatchManifest::parse(doc).unwrap();
        let canon = m.canonical_json();
        let reparsed = BatchManifest::parse(&canon).unwrap();
        assert_eq!(reparsed, m);
        assert_eq!(reparsed.canonical_json(), canon);
        assert_eq!(reparsed.fingerprint(), m.fingerprint());
    }

    #[test]
    fn grad_tokens_roundtrip_and_default_to_the_exact_gradient() {
        for (token, mode) in [
            ("analytic", GradMode::Analytic),
            ("forward", GradMode::Forward),
        ] {
            let doc = format!(
                r#"{{"version": 1, "genes": [{{"id":"g","alignment":"a","tree":"t","grad":"{token}"}}]}}"#
            );
            let m = BatchManifest::parse(&doc).unwrap();
            assert_eq!(m.entries[0].grad, mode);
            assert_eq!(BatchManifest::parse(&m.canonical_json()).unwrap(), m);
        }
        let m = BatchManifest::parse(&minimal("\"all\"")).unwrap();
        assert_eq!(m.entries[0].grad, GradMode::Analytic);
        for token in ["secant", "central"] {
            let bad = format!(
                r#"{{"version": 1, "genes": [{{"id":"g","alignment":"a","tree":"t","grad":"{token}"}}]}}"#
            );
            let err = BatchManifest::parse(&bad).unwrap_err().to_string();
            assert!(err.contains("analytic|forward"), "{err}");
        }
    }

    #[test]
    fn fingerprint_distinguishes_manifests() {
        let a = BatchManifest::parse(&minimal("\"all\"")).unwrap();
        let b = BatchManifest::parse(&minimal("[\"A\"]")).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn expansion_assigns_dense_deterministic_ids() {
        let dir = std::env::temp_dir().join(format!("slim_batch_manifest_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("t.nwk"), "((A:0.1,B:0.2):0.05,C:0.3);").unwrap();
        std::fs::write(dir.join("a.fa"), ">A\nATGCCC\n>B\nATGCCA\n>C\nATGCCC\n").unwrap();
        let doc = r#"{"version": 1, "genes": [
            {"id":"g1","alignment":"a.fa","tree":"t.nwk","branches":"all"},
            {"id":"g2","alignment":"a.fa","tree":"t.nwk","branches":["A","nope",99]}
        ]}"#;
        let m = BatchManifest::parse(doc).unwrap();
        let jobs = m.expand(&dir);
        // g1: 4 branches (5 nodes - root); g2: 3 listed.
        assert_eq!(jobs.len(), 7);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.id, i);
        }
        assert!(jobs[..4].iter().all(|j| j.key.starts_with("g1:")));
        // Unresolvable branches become poisoned jobs, not errors.
        let poisoned: Vec<&str> = jobs
            .iter()
            .filter(|j| matches!(j.payload.input, JobInput::Poisoned { .. }))
            .map(|j| j.key.as_str())
            .collect();
        assert_eq!(poisoned, vec!["g2:nope", "g2:99"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_tree_poisons_whole_entry_missing_alignment_poisons_per_branch() {
        let dir = std::env::temp_dir().join(format!("slim_batch_manifest2_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("t.nwk"), "((A:0.1,B:0.2):0.05,C:0.3);").unwrap();
        let doc = r#"{"version": 1, "genes": [
            {"id":"g1","alignment":"missing.fa","tree":"t.nwk"},
            {"id":"g2","alignment":"missing.fa","tree":"missing.nwk"}
        ]}"#;
        let m = BatchManifest::parse(doc).unwrap();
        let jobs = m.expand(&dir);
        // g1 expands per-branch (tree known), each poisoned by the
        // alignment error; g2 collapses to one job.
        assert_eq!(jobs.len(), 5);
        assert_eq!(jobs[4].key, "g2:*");
        for j in &jobs {
            assert!(
                matches!(j.payload.input, JobInput::Poisoned { .. }),
                "{}",
                j.key
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
