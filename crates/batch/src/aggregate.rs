//! Result aggregation: merge pool records (fresh + journaled) into a
//! deterministic report with TSV and JSON writers.
//!
//! Determinism contract: records are sorted by job ID, which the
//! manifest assigns by expansion order — so a 4-worker run, a 1-worker
//! run, and a resumed run all produce byte-identical TSV (and JSON
//! with timing suppressed) for the same manifest.

use crate::jsonio::Obj;
use crate::runner::JobOutcome;
use crate::scheduler::{JobFailure, PoolRecord};

/// One job's final state, whether computed this run or recovered from
/// the checkpoint journal.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// Deterministic job ID (manifest expansion order).
    pub id: usize,
    /// Stable identity `"{gene_id}:{branch_token}"` used for resume.
    pub key: String,
    /// Human-readable label, e.g. `"ENSG0001:human"`.
    pub label: String,
    /// Attempts consumed (1 = first try succeeded; 0 only for
    /// journal records written by older runs, never produced here).
    pub attempts: usize,
    /// Wall-clock seconds spent on this job (all attempts).
    pub seconds: f64,
    /// The fit, or why the job was quarantined.
    pub outcome: Result<JobOutcome, JobFailure>,
    /// True if this record was recovered from the journal on resume.
    pub from_journal: bool,
}

impl BatchRecord {
    /// Convert a freshly computed pool record.
    pub fn from_pool(rec: &PoolRecord<JobOutcome>) -> BatchRecord {
        BatchRecord {
            id: rec.id,
            key: rec.key.clone(),
            label: rec.label.clone(),
            attempts: rec.attempts,
            seconds: rec.seconds,
            outcome: rec.outcome.clone(),
            from_journal: false,
        }
    }

    /// Coarse status for summaries and the TSV `status` column.
    pub fn status(&self) -> RecordStatus {
        match &self.outcome {
            Ok(_) => RecordStatus::Done,
            Err(f) if f.timed_out => RecordStatus::TimedOut,
            Err(_) => RecordStatus::Failed,
        }
    }
}

/// Coarse per-job status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordStatus {
    /// Fit succeeded.
    Done,
    /// Quarantined after exhausting the retry budget (or a fatal error).
    Failed,
    /// Quarantined because the per-job time budget ran out.
    TimedOut,
}

impl RecordStatus {
    /// Fixed token used in TSV/JSON output.
    pub fn token(self) -> &'static str {
        match self {
            RecordStatus::Done => "done",
            RecordStatus::Failed => "failed",
            RecordStatus::TimedOut => "timed_out",
        }
    }
}

/// Run-level counters for the summary block.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Jobs the manifest expanded to.
    pub total: usize,
    /// Jobs with a successful fit.
    pub done: usize,
    /// Jobs quarantined with an error (incl. timeouts).
    pub failed: usize,
    /// Jobs never run (cancelled before being picked up).
    pub cancelled: usize,
    /// Jobs that needed more than one attempt.
    pub retried: usize,
    /// Records recovered from the journal rather than recomputed.
    pub from_journal: usize,
    /// Wall-clock seconds for this run (excludes journaled work).
    pub wall_seconds: f64,
}

/// The merged, sorted result set of a batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// All finished records, sorted by job ID.
    pub records: Vec<BatchRecord>,
    /// Run-level counters.
    pub summary: RunSummary,
}

impl BatchReport {
    /// Sort records by job ID and derive the summary. `total` is the
    /// full expansion size, so `total - records.len()` jobs were
    /// cancelled before starting.
    pub fn from_records(
        mut records: Vec<BatchRecord>,
        total: usize,
        wall_seconds: f64,
    ) -> BatchReport {
        records.sort_by_key(|r| r.id);
        let done = records.iter().filter(|r| r.outcome.is_ok()).count();
        let summary = RunSummary {
            total,
            done,
            failed: records.len() - done,
            cancelled: total.saturating_sub(records.len()),
            retried: records.iter().filter(|r| r.attempts > 1).count(),
            from_journal: records.iter().filter(|r| r.from_journal).count(),
            wall_seconds,
        };
        BatchReport { records, summary }
    }

    /// Render the per-job table as TSV. Contains no timing, so output is
    /// byte-identical across worker counts and resumes.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from(
            "job_id\tkey\tlabel\tstatus\tattempts\tlnl0\tlnl1\tstat\tp\tkappa\tomega0\tomega2\tp0\tp1\tpos_sites\terror\n",
        );
        for rec in &self.records {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}",
                rec.id,
                rec.key,
                rec.label,
                rec.status().token(),
                rec.attempts
            ));
            match &rec.outcome {
                Ok(o) => {
                    for v in [
                        o.lnl0, o.lnl1, o.stat, o.p_value, o.kappa, o.omega0, o.omega2, o.p0, o.p1,
                    ] {
                        out.push_str(&format!("\t{v:.6}"));
                    }
                    out.push_str(&format!("\t{}\t", o.n_pos_sites));
                }
                Err(f) => {
                    out.push_str(&"\tNA".repeat(10));
                    out.push('\t');
                    out.push_str(&sanitize(&f.error));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render the full report as JSON. With `include_timing` false the
    /// output is deterministic — no wall-clock, per-job seconds, or
    /// journal provenance (which legitimately differs between a fresh
    /// and a resumed run) — and suitable for byte-comparison across
    /// runs.
    pub fn to_json(&self, include_timing: bool) -> String {
        let mut records = String::from("[");
        for (i, rec) in self.records.iter().enumerate() {
            if i > 0 {
                records.push(',');
            }
            let mut o = Obj::new();
            o.u64("job_id", rec.id as u64)
                .str("key", &rec.key)
                .str("label", &rec.label)
                .str("status", rec.status().token())
                .u64("attempts", rec.attempts as u64);
            if include_timing {
                o.bool("from_journal", rec.from_journal);
                o.f64("seconds", rec.seconds);
            }
            match &rec.outcome {
                Ok(out) => {
                    let mut r = Obj::new();
                    r.f64("lnl0", out.lnl0)
                        .f64("lnl1", out.lnl1)
                        .f64("stat", out.stat)
                        .f64("p_value", out.p_value)
                        .f64("kappa", out.kappa)
                        .f64("omega0", out.omega0)
                        .f64("omega2", out.omega2)
                        .f64("p0", out.p0)
                        .f64("p1", out.p1)
                        .u64("n_pos_sites", out.n_pos_sites as u64)
                        .u64("iterations", out.iterations as u64);
                    o.raw("result", r.finish());
                }
                Err(f) => {
                    o.str("error", &f.error);
                }
            }
            records.push_str(&o.finish());
        }
        records.push(']');

        let s = &self.summary;
        let mut sum = Obj::new();
        sum.u64("total", s.total as u64)
            .u64("done", s.done as u64)
            .u64("failed", s.failed as u64)
            .u64("cancelled", s.cancelled as u64)
            .u64("retried", s.retried as u64);
        if include_timing {
            sum.u64("from_journal", s.from_journal as u64);
            sum.f64("wall_seconds", s.wall_seconds);
        }

        let mut top = Obj::new();
        top.raw("summary", sum.finish()).raw("jobs", records);
        let mut text = top.finish();
        text.push('\n');
        text
    }
}

/// Flatten error text for the single-line TSV cell.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c == '\t' || c == '\n' || c == '\r' {
                ' '
            } else {
                c
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_record(id: usize) -> BatchRecord {
        BatchRecord {
            id,
            key: format!("g{id}:1"),
            label: format!("g{id}:A"),
            attempts: 1,
            seconds: 0.5,
            outcome: Ok(JobOutcome {
                lnl0: -100.5,
                lnl1: -98.25,
                stat: 4.5,
                p_value: 0.0339,
                kappa: 2.0,
                omega0: 0.1,
                omega2: 4.0,
                p0: 0.7,
                p1: 0.2,
                n_pos_sites: 2,
                iterations: 40,
            }),
            from_journal: false,
        }
    }

    fn failed_record(id: usize) -> BatchRecord {
        BatchRecord {
            id,
            key: format!("g{id}:1"),
            label: format!("g{id}:A"),
            attempts: 3,
            seconds: 0.1,
            outcome: Err(JobFailure {
                error: "optimizer\tblew\nup".into(),
                recoverable: true,
                timed_out: false,
                trace_tail: Vec::new(),
            }),
            from_journal: true,
        }
    }

    #[test]
    fn report_sorts_and_counts() {
        let report =
            BatchReport::from_records(vec![failed_record(2), ok_record(0), ok_record(1)], 5, 1.25);
        assert_eq!(
            report.records.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        let s = &report.summary;
        assert_eq!((s.total, s.done, s.failed, s.cancelled), (5, 2, 1, 2));
        assert_eq!(s.retried, 1);
        assert_eq!(s.from_journal, 1);
    }

    #[test]
    fn tsv_is_complete_and_single_line_per_job() {
        let report = BatchReport::from_records(vec![ok_record(0), failed_record(1)], 2, 0.0);
        let tsv = report.to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 jobs");
        let header_cols = lines[0].split('\t').count();
        for line in &lines[1..] {
            assert_eq!(line.split('\t').count(), header_cols, "{line}");
        }
        assert!(lines[1].contains("-100.500000"));
        assert!(
            lines[2].contains("optimizer blew up"),
            "error text flattened: {}",
            lines[2]
        );
        assert!(lines[2].contains("\tNA\t"));
    }

    #[test]
    fn json_parses_and_timing_toggle_controls_determinism() {
        let report = BatchReport::from_records(vec![ok_record(0), failed_record(1)], 2, 3.5);
        let with: serde_json::Value = serde_json::from_str(&report.to_json(true)).unwrap();
        assert!(with.get("summary").unwrap().get("wall_seconds").is_some());
        assert!(with.get("jobs").unwrap().as_array().unwrap()[1]
            .get("from_journal")
            .is_some());
        let without: serde_json::Value = serde_json::from_str(&report.to_json(false)).unwrap();
        assert!(without
            .get("summary")
            .unwrap()
            .get("wall_seconds")
            .is_none());
        assert!(
            without.get("jobs").unwrap().as_array().unwrap()[1]
                .get("from_journal")
                .is_none(),
            "journal provenance differs between fresh and resumed runs; keep it out of \
             deterministic output"
        );
        let jobs = without.get("jobs").unwrap().as_array().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].get("status").unwrap().as_str().unwrap(), "done");
        assert_eq!(
            jobs[0]
                .get("result")
                .unwrap()
                .get("lnl1")
                .unwrap()
                .as_f64()
                .unwrap(),
            -98.25
        );
        assert_eq!(jobs[1].get("status").unwrap().as_str().unwrap(), "failed");
        assert!(jobs[1].get("result").is_none());
    }
}
