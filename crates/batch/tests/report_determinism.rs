//! Byte-identity regression for the aggregation/journal output paths:
//! whatever order workers finish in (and whether records were computed
//! fresh or recovered from the journal), the TSV and deterministic JSON
//! renderings must be byte-for-byte identical. This is the output-side
//! half of the slim-check `det-hash-iter` contract — those paths are
//! kept hash-free, and this test pins the ordering they rely on.

use slim_batch::scheduler::JobFailure;
use slim_batch::{BatchRecord, BatchReport, JobOutcome};

fn outcome(seed: u64) -> JobOutcome {
    let f = seed as f64;
    JobOutcome {
        lnl0: -1000.0 - f * 3.25,
        lnl1: -998.5 - f * 3.125,
        stat: 3.0 + f * 0.25,
        p_value: 0.05 / (1.0 + f),
        kappa: 2.0 + f * 0.0625,
        omega0: 0.1 + f * 0.015625,
        omega2: 2.5 + f,
        p0: 0.7,
        p1: 0.2,
        n_pos_sites: (seed % 5) as usize,
        iterations: 40 + seed as usize,
    }
}

fn record(id: usize, from_journal: bool) -> BatchRecord {
    let outcome = if id % 4 == 3 {
        Err(JobFailure {
            error: format!("fit diverged on job {id}\nwith a second line"),
            recoverable: true,
            timed_out: id % 8 == 7,
            trace_tail: Vec::new(),
        })
    } else {
        Ok(outcome(id as u64))
    };
    BatchRecord {
        id,
        key: format!("gene{:03}:fg", id),
        label: format!("gene{:03}:human", id),
        attempts: 1 + id % 3,
        // Wall-clock noise: must never reach deterministic output.
        seconds: 0.5 + (id as f64) * 0.777,
        outcome,
        from_journal,
    }
}

/// Deterministic order scrambles standing in for worker-completion
/// nondeterminism.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let forward: Vec<usize> = (0..n).collect();
    let mut reverse = forward.clone();
    reverse.reverse();
    // A fixed LCG shuffle (no rand dependency in this test).
    let mut shuffled = forward.clone();
    let mut state = 0x2545F4914F6CDD1Du64;
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        shuffled.swap(i, j);
    }
    // Odd IDs first: the shape a resume produces when journaled jobs are
    // merged with freshly computed ones.
    let mut interleaved: Vec<usize> = (0..n).filter(|i| i % 2 == 1).collect();
    interleaved.extend((0..n).filter(|i| i % 2 == 0));
    vec![forward, reverse, shuffled, interleaved]
}

#[test]
fn tsv_and_json_are_byte_identical_across_completion_orders() {
    let n = 17;
    let reference = BatchReport::from_records((0..n).map(|i| record(i, false)).collect(), n, 12.5);
    let ref_tsv = reference.to_tsv();
    let ref_json = reference.to_json(false);
    assert!(ref_tsv.contains("gene003"), "failure rows present");

    for (pi, perm) in permutations(n).into_iter().enumerate() {
        // Different completion order AND different wall-clock noise.
        let records: Vec<BatchRecord> = perm
            .iter()
            .map(|&i| {
                let mut r = record(i, false);
                r.seconds += pi as f64 * 3.3;
                r
            })
            .collect();
        let report = BatchReport::from_records(records, n, 99.0 + pi as f64);
        assert_eq!(report.to_tsv().as_bytes(), ref_tsv.as_bytes(), "perm {pi}");
        assert_eq!(
            report.to_json(false).as_bytes(),
            ref_json.as_bytes(),
            "perm {pi}"
        );
    }
}

#[test]
fn journal_recovery_does_not_change_deterministic_output() {
    // A resumed run recovers some records from the journal; only the
    // timing-inclusive renderings may differ.
    let n = 9;
    let fresh = BatchReport::from_records((0..n).map(|i| record(i, false)).collect(), n, 1.0);
    let resumed =
        BatchReport::from_records((0..n).map(|i| record(i, i % 2 == 0)).collect(), n, 2.0);
    assert_eq!(fresh.to_tsv().as_bytes(), resumed.to_tsv().as_bytes());
    assert_eq!(
        fresh.to_json(false).as_bytes(),
        resumed.to_json(false).as_bytes()
    );
    // Sanity: the timing-inclusive JSON is allowed to (and here does)
    // differ, so the equality above is not vacuous.
    assert_ne!(fresh.to_json(true), resumed.to_json(true));
}
