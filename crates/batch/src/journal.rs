//! Append-only JSONL checkpoint journal.
//!
//! Line 1 is a header binding the journal to a manifest fingerprint;
//! every further line is one completed job record, flushed as it is
//! written so a killed run loses at most the line being written. On
//! `--resume`, records are matched to the fresh manifest expansion by
//! job *key* and the remaining jobs run; a truncated final line (the
//! crash case) is tolerated and dropped.

use crate::aggregate::BatchRecord;
use crate::jsonio::{esc, Obj};
use crate::runner::JobOutcome;
use crate::scheduler::JobFailure;
use crate::{BatchError, Result};
use serde_json::Value;
use std::io::Write;
use std::path::Path;

const JOURNAL_VERSION: u64 = 1;

/// Writes the header and streams records, flushing each line.
#[derive(Debug)]
pub struct JournalWriter {
    file: std::fs::File,
}

impl JournalWriter {
    /// Start a fresh journal (truncating any existing file) bound to
    /// `fingerprint`.
    ///
    /// # Errors
    /// [`BatchError::Journal`] on IO failure.
    pub fn create(path: &Path, fingerprint: u64) -> Result<JournalWriter> {
        let mut file = std::fs::File::create(path)
            .map_err(|e| BatchError::Journal(format!("cannot create {}: {e}", path.display())))?;
        let header = format!(
            "{{\"slim_batch_journal\":{JOURNAL_VERSION},\"manifest_fp\":{}}}\n",
            esc(&format!("{fingerprint:016x}"))
        );
        file.write_all(header.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| BatchError::Journal(format!("cannot write {}: {e}", path.display())))?;
        Ok(JournalWriter { file })
    }

    /// Re-open an existing journal for appending (resume). The caller is
    /// expected to have validated the header via [`read_journal`].
    ///
    /// # Errors
    /// [`BatchError::Journal`] on IO failure.
    pub fn append(path: &Path) -> Result<JournalWriter> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| BatchError::Journal(format!("cannot open {}: {e}", path.display())))?;
        Ok(JournalWriter { file })
    }

    /// Append one record and flush.
    ///
    /// # Errors
    /// [`BatchError::Journal`] on IO failure.
    pub fn record(&mut self, rec: &BatchRecord) -> Result<()> {
        let line = encode_record(rec);
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| BatchError::Journal(format!("cannot append record: {e}")))
    }
}

fn encode_record(rec: &BatchRecord) -> String {
    let mut o = Obj::new();
    o.u64("id", rec.id as u64)
        .str("key", &rec.key)
        .str("label", &rec.label)
        .u64("attempts", rec.attempts as u64)
        .f64("seconds", rec.seconds);
    match &rec.outcome {
        Ok(out) => {
            o.str("status", "done");
            o.raw("outcome", encode_outcome(out));
        }
        Err(f) => {
            o.str("status", "failed");
            o.str("error", &f.error);
            o.bool("recoverable", f.recoverable);
            o.bool("timed_out", f.timed_out);
            if !f.trace_tail.is_empty() {
                // Flight-recorder dump (omitted when empty so journals
                // written with tracing off match the pre-trace format).
                let items: Vec<String> = f.trace_tail.iter().map(|l| esc(l)).collect();
                o.raw("trace_tail", format!("[{}]", items.join(",")));
            }
        }
    }
    let mut line = o.finish();
    line.push('\n');
    line
}

fn encode_outcome(out: &JobOutcome) -> String {
    let mut o = Obj::new();
    o.f64("lnl0", out.lnl0)
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
    o.finish()
}

fn req_f64(v: &Value, key: &str) -> Result<f64> {
    match v.get(key) {
        Some(x) if x.is_null() => Ok(f64::NAN),
        Some(x) => x
            .as_f64()
            .ok_or_else(|| BatchError::Journal(format!("record field {key:?} is not a number"))),
        None => Err(BatchError::Journal(format!("record missing field {key:?}"))),
    }
}

fn req_u64(v: &Value, key: &str) -> Result<u64> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| BatchError::Journal(format!("record missing integer field {key:?}")))
}

fn req_str<'a>(v: &'a Value, key: &str) -> Result<&'a str> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| BatchError::Journal(format!("record missing string field {key:?}")))
}

fn decode_record(v: &Value) -> Result<BatchRecord> {
    let status = req_str(v, "status")?;
    let outcome = match status {
        "done" => {
            let out = v
                .get("outcome")
                .ok_or_else(|| BatchError::Journal("done record missing \"outcome\"".into()))?;
            Ok(JobOutcome {
                lnl0: req_f64(out, "lnl0")?,
                lnl1: req_f64(out, "lnl1")?,
                stat: req_f64(out, "stat")?,
                p_value: req_f64(out, "p_value")?,
                kappa: req_f64(out, "kappa")?,
                omega0: req_f64(out, "omega0")?,
                omega2: req_f64(out, "omega2")?,
                p0: req_f64(out, "p0")?,
                p1: req_f64(out, "p1")?,
                n_pos_sites: req_u64(out, "n_pos_sites")? as usize,
                // Journals from builds with per-job eigen-cache counts
                // also carry `cache_hits`/`cache_misses`; they are
                // ignored.
                iterations: req_u64(out, "iterations")? as usize,
            })
        }
        "failed" => Err(JobFailure {
            error: req_str(v, "error")?.to_string(),
            recoverable: v
                .get("recoverable")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            timed_out: v.get("timed_out").and_then(Value::as_bool).unwrap_or(false),
            // Added with the flight recorder: absent in older journals.
            trace_tail: v
                .get("trace_tail")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(Value::as_str)
                        .map(str::to_string)
                        .collect()
                })
                .unwrap_or_default(),
        }),
        other => {
            return Err(BatchError::Journal(format!(
                "unknown record status {other:?}"
            )));
        }
    };
    Ok(BatchRecord {
        id: req_u64(v, "id")? as usize,
        key: req_str(v, "key")?.to_string(),
        label: req_str(v, "label")?.to_string(),
        attempts: req_u64(v, "attempts")? as usize,
        seconds: req_f64(v, "seconds")?,
        outcome,
        from_journal: true,
    })
}

/// Read a journal back: validate the header against `expected_fp`, decode
/// records, and tolerate a truncated final line (a crash mid-write).
///
/// # Errors
/// [`BatchError::Journal`] on IO failure, header/fingerprint mismatch, or
/// a malformed record before the final line.
pub fn read_journal(path: &Path, expected_fp: u64) -> Result<Vec<BatchRecord>> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| BatchError::Journal(format!("cannot read {}: {e}", path.display())))?;
    let mut lines = text.lines().enumerate();
    let (_, header_line) = lines
        .next()
        .ok_or_else(|| BatchError::Journal(format!("{}: empty journal", path.display())))?;
    let header: Value = serde_json::from_str(header_line)
        .map_err(|e| BatchError::Journal(format!("bad journal header: {e}")))?;
    let version = header
        .get("slim_batch_journal")
        .and_then(Value::as_u64)
        .ok_or_else(|| BatchError::Journal("not a slim-batch journal".into()))?;
    if version != JOURNAL_VERSION {
        return Err(BatchError::Journal(format!(
            "unsupported journal version {version}"
        )));
    }
    let fp = header
        .get("manifest_fp")
        .and_then(Value::as_str)
        .ok_or_else(|| BatchError::Journal("journal header missing manifest_fp".into()))?;
    if fp != format!("{expected_fp:016x}") {
        return Err(BatchError::Journal(format!(
            "journal was written for a different manifest (fp {fp}, expected {expected_fp:016x}); \
             re-run without --resume to start fresh"
        )));
    }

    let rest: Vec<(usize, &str)> = lines.filter(|(_, l)| !l.trim().is_empty()).collect();
    let mut records = Vec::with_capacity(rest.len());
    for (pos, (lineno, line)) in rest.iter().enumerate() {
        match serde_json::from_str::<Value>(line)
            .map_err(|e| e.to_string())
            .and_then(|v| decode_record(&v).map_err(|e| e.to_string()))
        {
            Ok(rec) => records.push(rec),
            Err(e) if pos + 1 == rest.len() => {
                // Truncated tail from a crash mid-write: drop it; the job
                // will simply re-run.
                let _ = e;
                break;
            }
            Err(e) => {
                return Err(BatchError::Journal(format!(
                    "{} line {}: {e}",
                    path.display(),
                    lineno + 1
                )));
            }
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: usize, key: &str, ok: bool) -> BatchRecord {
        BatchRecord {
            id,
            key: key.to_string(),
            label: format!("L{id}"),
            attempts: 2,
            seconds: 0.25,
            outcome: if ok {
                Ok(JobOutcome {
                    lnl0: -1234.567890123,
                    lnl1: -1230.1,
                    stat: 8.935780246,
                    p_value: 0.0028,
                    kappa: 2.1,
                    omega0: 0.07,
                    omega2: 3.5,
                    p0: 0.8,
                    p1: 0.15,
                    n_pos_sites: 3,
                    iterations: 120,
                })
            } else {
                Err(JobFailure {
                    error: "boom with \"quotes\"\nand newline".into(),
                    recoverable: true,
                    timed_out: false,
                    trace_tail: vec![
                        "+12us t3 i batch.retry id=1".into(),
                        "+40us t3 i batch.quarantine id=1".into(),
                    ],
                })
            },
            from_journal: false,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("slim_batch_journal_{}_{name}", std::process::id()))
    }

    #[test]
    fn roundtrip_including_failures() {
        let path = tmp("roundtrip.jsonl");
        let mut w = JournalWriter::create(&path, 0xdead_beef).unwrap();
        w.record(&record(0, "g:1", true)).unwrap();
        w.record(&record(1, "g:2", false)).unwrap();
        drop(w);
        let recs = read_journal(&path, 0xdead_beef).unwrap();
        assert_eq!(recs.len(), 2);
        let out = recs[0].outcome.as_ref().unwrap();
        assert_eq!(out.lnl0, -1234.567890123, "floats roundtrip exactly");
        assert_eq!(out.n_pos_sites, 3);
        let f = recs[1].outcome.as_ref().unwrap_err();
        assert!(f.error.contains("\"quotes\"\nand newline"));
        assert!(f.recoverable);
        assert_eq!(f.trace_tail.len(), 2, "flight-recorder dump roundtrips");
        assert_eq!(f.trace_tail[1], "+40us t3 i batch.quarantine id=1");
        assert!(recs.iter().all(|r| r.from_journal));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_mismatch_rejected() {
        let path = tmp("fp.jsonl");
        let w = JournalWriter::create(&path, 1).unwrap();
        drop(w);
        let err = read_journal(&path, 2).unwrap_err().to_string();
        assert!(err.contains("different manifest"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_tolerated_midfile_corruption_rejected() {
        let path = tmp("trunc.jsonl");
        let mut w = JournalWriter::create(&path, 7).unwrap();
        w.record(&record(0, "g:1", true)).unwrap();
        drop(w);
        // Simulate a crash mid-write of the second record.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"id\":1,\"key\":\"g:2\",\"at");
        std::fs::write(&path, &text).unwrap();
        let recs = read_journal(&path, 7).unwrap();
        assert_eq!(recs.len(), 1);

        // Same garbage NOT at the tail is a hard error.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(1, "{\"id\":1,\"key\":\"g:2\",\"at");
        let corrupted = lines.join("\n");
        std::fs::write(&path, corrupted).unwrap();
        assert!(read_journal(&path, 7).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn done_lines_with_and_without_cache_keys_decode_and_resume() {
        // Two `done` lines for the same result: one without cache keys,
        // one as builds with per-job eigen-cache counts wrote it. Both
        // decode to the same outcome, and a resumed run takes both jobs
        // from the journal instead of fitting them.
        let dir = tmp("cache_keys");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("t.nwk"), "((A:0.1,B:0.2):0.05,C:0.3);").unwrap();
        std::fs::write(
            dir.join("g.fasta"),
            ">A\nATGCCCAAA\n>B\nATGCCAAAA\n>C\nATGCCCAAG\n",
        )
        .unwrap();
        let manifest_text = r#"{"version":1,"genes":[{"id":"g","alignment":"g.fasta","tree":"t.nwk","branches":["A","B"]}]}"#;
        let manifest_path = dir.join("manifest.json");
        std::fs::write(&manifest_path, manifest_text).unwrap();
        let manifest = crate::BatchManifest::parse(manifest_text).unwrap();
        let jobs = manifest.expand(&dir);
        assert_eq!(jobs.len(), 2);

        let journal = dir.join("journal.jsonl");
        drop(JournalWriter::create(&journal, manifest.fingerprint()).unwrap());
        let outcome = "\"lnl0\":-10.0,\"lnl1\":-9.0,\"stat\":2.0,\"p_value\":0.1,\
                       \"kappa\":2.0,\"omega0\":0.1,\"omega2\":2.0,\"p0\":0.7,\"p1\":0.2,\
                       \"n_pos_sites\":0,\"iterations\":5";
        let mut text = std::fs::read_to_string(&journal).unwrap();
        for (job, extra) in jobs
            .iter()
            .zip(["", ",\"cache_hits\":55,\"cache_misses\":11"])
        {
            text.push_str(&format!(
                "{{\"id\":{},\"key\":\"{}\",\"label\":\"{}\",\"attempts\":1,\
                 \"seconds\":0.1,\"status\":\"done\",\"outcome\":{{{outcome}{extra}}}}}\n",
                job.id, job.key, job.label
            ));
        }
        std::fs::write(&journal, &text).unwrap();

        let recs = read_journal(&journal, manifest.fingerprint()).unwrap();
        assert_eq!(recs.len(), 2);
        let without = recs[0].outcome.as_ref().unwrap();
        assert_eq!(recs[1].outcome.as_ref().unwrap(), without);
        assert_eq!((without.lnl1, without.iterations), (-9.0, 5));

        let config = crate::RunConfig {
            resume: true,
            journal_path: journal.clone(),
            ..crate::RunConfig::default()
        };
        let report = crate::run_batch(&manifest_path, &config).unwrap();
        assert_eq!(report.summary.done, 2);
        assert_eq!(report.summary.from_journal, 2, "no job was refit");
        for rec in &report.records {
            assert_eq!(rec.outcome.as_ref().unwrap(), without);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_continues_existing_file() {
        let path = tmp("append.jsonl");
        let mut w = JournalWriter::create(&path, 9).unwrap();
        w.record(&record(0, "g:1", true)).unwrap();
        drop(w);
        let mut w = JournalWriter::append(&path).unwrap();
        w.record(&record(1, "g:2", true)).unwrap();
        drop(w);
        let recs = read_journal(&path, 9).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].key, "g:2");
        std::fs::remove_file(&path).ok();
    }
}
