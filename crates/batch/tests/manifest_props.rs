//! Property test: manifest parse ∘ canonical_json is the identity on
//! validated manifests, and the fingerprint is stable under the trip.

use proptest::prelude::*;
use slim_batch::{BatchManifest, BranchRef, BranchSpec, ManifestEntry};
use slim_bio::FreqModel;
use slim_core::{Backend, GradMode};

const ID_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-";
const BACKENDS: [Backend; 4] = [
    Backend::CodeMlStyle,
    Backend::Slim,
    Backend::SlimPlus,
    Backend::SlimSymmetric,
];
const GRADS: [GradMode; 3] = [GradMode::Analytic, GradMode::Central, GradMode::Forward];
const FREQS: [FreqModel; 4] = [
    FreqModel::Equal,
    FreqModel::F1x4,
    FreqModel::F3x4,
    FreqModel::F61,
];

fn ident() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..ID_ALPHABET.len(), 1..12)
        .prop_map(|ix| ix.into_iter().map(|i| ID_ALPHABET[i] as char).collect())
}

fn branch_ref() -> impl Strategy<Value = BranchRef> {
    (0..2usize, 0..64usize, ident()).prop_map(|(kind, node, name)| {
        if kind == 0 {
            BranchRef::Node(node)
        } else {
            BranchRef::Name(name)
        }
    })
}

fn branches() -> impl Strategy<Value = BranchSpec> {
    (0..3usize, proptest::collection::vec(branch_ref(), 1..5)).prop_map(|(kind, refs)| {
        if kind == 0 {
            BranchSpec::All
        } else {
            BranchSpec::List(refs)
        }
    })
}

fn entry() -> impl Strategy<Value = ManifestEntry> {
    let paths = (ident(), ident());
    let model = (0..BACKENDS.len(), 0..FREQS.len(), 0..2usize, 0..GRADS.len());
    // Seeds stay below 2^53 so the value survives any f64-based JSON
    // number representation; the manifest schema allows the full range.
    let numbers = (
        0..9_007_199_254_740_992u64,
        1..10_000u64,
        0.0..2.0f64,
        (0..2usize, 1e-6..5.0f64),
    );
    (ident(), paths, branches(), model, numbers).prop_map(
        |(
            id,
            (alignment, tree),
            branches,
            (b, f, mito, grad),
            (seed, max_it, jitter, (has_ibl, ibl)),
        )| {
            ManifestEntry {
                id,
                alignment,
                tree,
                branches,
                backend: BACKENDS[b],
                freq: FREQS[f],
                mito: mito == 1,
                grad: GRADS[grad],
                seed,
                max_iterations: max_it as usize,
                jitter,
                initial_branch_length: (has_ibl == 1).then_some(ibl),
            }
        },
    )
}

proptest! {
    #[test]
    fn canonical_json_roundtrips(entries in proptest::collection::vec(entry(), 1..6)) {
        // Gene ids must be unique for the manifest to validate; suffix
        // each with its index rather than rejecting collisions.
        let entries: Vec<ManifestEntry> = entries
            .into_iter()
            .enumerate()
            .map(|(i, mut e)| {
                e.id = format!("{}_{i}", e.id);
                e
            })
            .collect();
        let manifest = BatchManifest { version: 1, entries };
        let canon = manifest.canonical_json();
        let reparsed = BatchManifest::parse(&canon)
            .map_err(|e| TestCaseError::fail(format!("canonical form must reparse: {e}\n{canon}")))?;
        prop_assert_eq!(&reparsed, &manifest);
        prop_assert_eq!(reparsed.canonical_json(), canon);
        prop_assert_eq!(reparsed.fingerprint(), manifest.fingerprint());
    }
}
