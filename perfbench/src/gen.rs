//! Seeded branch-site genes, handed to the program as FASTA and Newick
//! text only.

use slim_model::BranchSiteModel;

/// Mean Yule branch length, expected substitutions per codon.
const MEAN_BRANCH_LENGTH: f64 = 0.15;

/// One generated gene.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gene {
    /// Gene id within the run, `g<index>`.
    pub id: String,
    /// Codon alignment, FASTA.
    pub fasta: String,
    /// Tree with the foreground branch marked `#1`, Newick.
    pub newick: String,
}

/// The Table II generating model: moderate positive selection on the
/// foreground branch.
pub fn generating_model() -> BranchSiteModel {
    BranchSiteModel {
        kappa: 2.5,
        omega0: 0.15,
        omega2: 3.0,
        p0: 0.65,
        p1: 0.25,
    }
}

/// The Table II presets' skewed codon frequencies.
pub fn generating_pi() -> Vec<f64> {
    let mut pi: Vec<f64> = (0..slim_bio::N_CODONS)
        .map(|i| 1.0 + 0.5 * ((i as f64 * 0.61).sin() + 1.0))
        .collect();
    let s: f64 = pi.iter().sum();
    for p in &mut pi {
        *p /= s;
    }
    pi
}

/// SplitMix64 finaliser: decorrelates nearby seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates permutation of `0..n` drawn from `seed`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = mix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// Gene `index` of a workload's panel, presented for run seed `run_seed`.
///
/// The gene itself — a Yule tree on `species` taxa and `codons` codons
/// simulated on it under [`generating_model`] — depends on `index` only,
/// so every run of a workload fits the same genes. The run seed permutes
/// the codon columns and the order of the FASTA records: the text differs
/// per seed, the set of site patterns and so the work do not.
pub fn gene(species: usize, codons: usize, index: usize, run_seed: u64) -> Gene {
    let seed = mix(index as u64);
    let tree = slim_sim::yule_tree(species, MEAN_BRANCH_LENGTH, seed);
    let aln = slim_sim::simulate_alignment(
        &tree,
        &generating_model(),
        &generating_pi(),
        codons,
        seed ^ 0xABCD,
    );
    let shuffle = mix(run_seed ^ seed);
    let columns = permutation(aln.n_codons(), shuffle);
    let mut fasta = String::new();
    for r in permutation(aln.n_sequences(), mix(shuffle)) {
        fasta.push('>');
        fasta.push_str(&aln.names()[r]);
        fasta.push('\n');
        let sites = aln.sequence(r);
        for &c in &columns {
            fasta.push_str(&sites[c].to_string_repr());
        }
        fasta.push('\n');
    }
    Gene {
        id: format!("g{index}"),
        fasta,
        newick: slim_bio::write_newick(&tree),
    }
}
