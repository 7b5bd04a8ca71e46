//! The benchmark's own checks: generator, statistics, spans and gate.

use perfbench::calib::{self, NOMINAL_SLICE_S};
use perfbench::gate::{check, Answer, Failure, References, D};
use perfbench::gen;
use perfbench::spans::{self_times, union_length, Span};
use perfbench::stats::{median, percentile, percentile_name, tail};
use perfbench::workloads::{counter_deltas, metric_names, straggler_tail, Workload};

#[test]
fn generator_is_byte_deterministic_per_seed() {
    for w in Workload::ALL {
        let (species, codons) = w.shape();
        let a = gen::gene(species, codons.min(40), 3, 7);
        let b = gen::gene(species, codons.min(40), 3, 7);
        assert_eq!(a, b, "{}", w.name());
        assert_eq!(a.id, "g3");
        let other_seed = gen::gene(species, codons.min(40), 3, 8);
        let other_gene = gen::gene(species, codons.min(40), 4, 7);
        assert_ne!(a.fasta, other_seed.fasta);
        assert_ne!(a.fasta, other_gene.fasta);
    }
}

/// Columns of a FASTA alignment as taxon-sorted codon tuples, sorted.
fn column_multiset(fasta: &str) -> Vec<String> {
    let mut records: Vec<(String, String)> = Vec::new();
    for line in fasta.lines() {
        match line.strip_prefix('>') {
            Some(name) => records.push((name.to_string(), String::new())),
            None => records.last_mut().unwrap().1.push_str(line.trim()),
        }
    }
    records.sort();
    let codons = records[0].1.len() / 3;
    let mut columns: Vec<String> = (0..codons)
        .map(|c| {
            records
                .iter()
                .map(|(_, seq)| &seq[3 * c..3 * c + 3])
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    columns.sort();
    columns
}

#[test]
fn run_seed_changes_the_text_not_the_gene() {
    let a = gen::gene(5, 60, 2, 1);
    let b = gen::gene(5, 60, 2, 99);
    assert_ne!(a.fasta, b.fasta);
    assert_eq!(a.newick, b.newick);
    assert_eq!(column_multiset(&a.fasta), column_multiset(&b.fasta));
}

#[test]
fn generated_text_has_the_workload_shape() {
    let g = gen::gene(4, 25, 1, 0);
    assert_eq!(g.fasta.matches('>').count(), 4);
    assert_eq!(g.newick.matches("#1").count(), 1, "one foreground branch");
    let residues: usize = g
        .fasta
        .lines()
        .filter(|l| !l.starts_with('>'))
        .map(str::len)
        .sum();
    assert_eq!(residues, 4 * 25 * 3);
}

fn ramp(n: usize) -> Vec<f64> {
    // Shuffled 1..=n, so the helper has to sort.
    (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
}

#[test]
fn tail_picks_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail(&ramp(19)), None, "no tail below 20 samples");
    assert_eq!(tail(&[]), None);
    // 20 samples: p50 is rank 10 with exactly 10 above it; p75 has 5.
    assert_eq!(tail(&ramp(20)), Some((500, 10.0)));
    assert_eq!(tail(&ramp(39)), Some((500, 20.0)));
    assert_eq!(tail(&ramp(40)), Some((750, 30.0)));
    assert_eq!(tail(&ramp(100)), Some((900, 90.0)));
    assert_eq!(tail(&ramp(199)), Some((900, 180.0)));
    assert_eq!(tail(&ramp(200)), Some((950, 190.0)));
    assert_eq!(tail(&ramp(1000)), Some((990, 990.0)));
    assert_eq!(tail(&ramp(10_000)), Some((999, 9990.0)));
    // Short runs fall back to a nearest-rank percentile.
    assert_eq!(percentile(&ramp(16), 750), Some(12.0));
    assert_eq!(percentile(&ramp(4), 750), Some(3.0));
    assert_eq!(percentile(&ramp(3), 750), Some(3.0));
    assert_eq!(percentile(&[], 750), None);
    assert_eq!(percentile_name(500), "p50");
    assert_eq!(percentile_name(999), "p99.9");
}

#[test]
fn median_of_even_and_odd_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
    Span {
        name: name.to_string(),
        start,
        end,
        parent,
        gene: None,
    }
}

#[test]
fn self_time_counts_overlapping_children_once() {
    let spans = vec![
        span("batch.run", 0.0, 10.0, None),
        // Two workers: overlapping jobs cover [1, 6] once, not 3 + 3.
        span("batch.job", 1.0, 4.0, Some(0)),
        span("batch.job", 3.0, 6.0, Some(0)),
        // Nested inside the first job: no effect on the run's self time.
        span("inner", 2.0, 3.0, Some(1)),
        // Sticks out past the parent: only [8, 10] counts.
        span("batch.job", 8.0, 12.0, Some(0)),
    ];
    let own = self_times(&spans);
    assert!((own[0] - 3.0).abs() < 1e-12, "run self time {}", own[0]);
    assert!((own[1] - 2.0).abs() < 1e-12);
    assert!((own[2] - 3.0).abs() < 1e-12);
    assert!((own[3] - 1.0).abs() < 1e-12);
    assert!((union_length(0.0, 1.0, &[]) - 0.0).abs() < 1e-12);
    assert!((union_length(0.0, 5.0, &[(1.0, 2.0), (1.5, 1.7), (4.0, 9.0)]) - 2.0).abs() < 1e-12);
}

fn answer(lnl0: f64, lnl1: f64) -> Result<Answer, String> {
    Ok(Answer {
        lnl0,
        lnl1,
        replay: Some((lnl0, lnl1)),
    })
}

#[test]
fn gate_flags_every_failure_kind() {
    assert_eq!(check(&answer(-100.0, -99.0), None), Ok(()));
    // Within the paper's bound below lnL0: still a pass.
    let just_below = -1000.0 - 0.5 * D * 1000.0;
    assert_eq!(check(&answer(-1000.0, just_below), None), Ok(()));

    type Case = (Result<Answer, String>, Option<(f64, f64)>, Failure);
    let cases: Vec<Case> = vec![
        (Err("boom".into()), None, Failure::Error("boom".into())),
        (answer(f64::NAN, -1.0), None, Failure::NonFinite),
        (answer(-1.0, f64::NEG_INFINITY), None, Failure::NonFinite),
        (answer(-1.0, 0.5), None, Failure::Positive),
        (
            answer(-1000.0, -1000.0 - 2.0 * D * 1000.0),
            None,
            Failure::Nesting,
        ),
        (
            answer(-100.0, -99.0),
            Some((-99.0, -98.0)),
            Failure::BelowReference,
        ),
        (
            answer(-100.0, -99.0),
            Some((-100.0, -98.0)),
            Failure::BelowReference,
        ),
        (
            Ok(Answer {
                lnl0: -100.0,
                lnl1: -99.0,
                replay: Some((-100.0, f64::from_bits((-99.0f64).to_bits() + 1))),
            }),
            None,
            Failure::Replay,
        ),
    ];
    for (ans, reference, want) in cases {
        assert_eq!(check(&ans, reference), Err(want.clone()), "{want:?}");
    }
    // A reference the answer matches or beats passes.
    assert_eq!(check(&answer(-100.0, -99.0), Some((-100.0, -99.0))), Ok(()));
    assert_eq!(check(&answer(-99.0, -98.0), Some((-100.0, -99.0))), Ok(()));
}

#[test]
fn references_parse_and_reject_malformed_lines() {
    let refs = References::parse("# comment\nmany-species\tg0\t-1.5\t-1.25\n\n").unwrap();
    assert_eq!(refs.get("many-species", "g0"), Some((-1.5, -1.25)));
    assert_eq!(refs.get("many-species", "g1"), None);
    assert_eq!(refs.get("long-alignment", "g0"), None);
    assert!(References::parse("many-species\tg0\t-1.5\n").is_err());
    assert!(References::parse("many-species\tg0\tx\t-1\n").is_err());
    assert!(References::recorded().is_ok());
}

#[test]
fn missing_counters_stay_missing() {
    let before = [Some(5), None, Some(1), None, Some(0)];
    let after = [Some(9), Some(4), None, None, Some(0)];
    assert_eq!(
        counter_deltas(before, after),
        [Some(4), Some(4), None, None, Some(0)]
    );
}

#[test]
fn straggler_tail_starts_when_a_worker_runs_dry() {
    assert_eq!(straggler_tail(&[]), None);
    assert_eq!(straggler_tail(&[3.0]), None);
    // Two workers: after the second-to-last completion one sits idle.
    assert_eq!(straggler_tail(&[5.0, 1.0, 9.0, 4.0]), Some(4.0));
}

#[test]
fn benchmark_json_names_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.extend(metric_names(false));
    names.extend(metric_names(true));
    for name in &names {
        assert!(
            text.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
    assert_eq!(text.matches("\"name\":").count(), names.len());
}

#[test]
fn calibration_scales_wall_seconds_to_nominal_ones() {
    // A host at nominal speed leaves wall seconds alone.
    assert!((calib::factor(NOMINAL_SLICE_S, NOMINAL_SLICE_S) - 1.0).abs() < 1e-12);
    // Half speed around a stretch (before and after) halves it.
    let slow = 2.0 * NOMINAL_SLICE_S;
    assert!((calib::factor(slow, slow) - 0.5).abs() < 1e-12);
    // A speed change during the stretch counts by the mean slice time.
    assert!((calib::factor(NOMINAL_SLICE_S, 3.0 * NOMINAL_SLICE_S) - 0.5).abs() < 1e-12);
    let point = calib::point(1);
    assert!(point.is_finite() && point > 0.0);
    let both = calib::point(2);
    assert!(both.is_finite() && both > 0.0);
}
