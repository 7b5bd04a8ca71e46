//! Chrome Trace Event Format export.
//!
//! Emits the JSON Object Format — `{"traceEvents": [...], ...}` — that
//! Perfetto and chrome://tracing both ingest. Every event becomes one
//! object with the standard `name`/`cat`/`ph`/`ts`/`pid`/`tid` fields
//! (`ts` in microseconds, per the spec) plus an `args` object carrying
//! the key=value attributes. Events are sorted by timestamp with the
//! global sequence number as tie-break, so per-thread begin/end pairs
//! arrive in nesting order.

use super::event::Event;
use crate::escape_json;

/// The constant pid we emit: traces describe one process, and a fixed
/// id keeps the output reproducible run-to-run.
const PID: u64 = 1;

/// Serialize events as a Chrome Trace Event Format JSON document.
/// `dropped` (from [`super::take_events`]) is recorded in `otherData`
/// so truncated rings are visible in the artifact, not silent.
pub fn chrome_trace_json(events: &[Event], dropped: u64) -> String {
    let mut order: Vec<&Event> = events.iter().collect();
    order.sort_by_key(|e| (e.ts_us, e.seq));

    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"traceEvents\":[");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{PID},\"tid\":0,\"ts\":0,\
         \"args\":{{\"name\":\"slimcodeml\"}}}}"
    ));
    for e in order {
        out.push(',');
        push_event(&mut out, e);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{");
    out.push_str(&format!(
        "\"program\":\"slimcodeml\",\"format\":\"slimcodeml.trace.v1\",\"droppedEvents\":{dropped}"
    ));
    out.push_str("}}\n");
    out
}

fn push_event(out: &mut String, e: &Event) {
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":{PID},\"tid\":{}",
        escape_json(e.name),
        escape_json(e.cat),
        e.phase.letter(),
        e.ts_us,
        e.tid
    ));
    // Instant events need a scope; thread scope keeps them attached to
    // the emitting thread's track.
    if e.phase.letter() == 'i' {
        out.push_str(",\"s\":\"t\"");
    }
    out.push_str(",\"args\":{");
    for (i, (k, v)) in e.args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", escape_json(k), v.to_json()));
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Phase, Value};

    fn ev(seq: u64, ts_us: u64, tid: u64, phase: Phase, name: &'static str) -> Event {
        Event {
            seq,
            ts_us,
            tid,
            phase,
            name,
            cat: "test",
            args: vec![],
        }
    }

    #[test]
    fn document_shape_and_ordering() {
        let mut a = ev(1, 10, 0, Phase::Begin, "outer");
        a.args.push(("k", Value::U64(3)));
        let b = ev(0, 5, 1, Phase::Instant, "tick");
        let json = chrome_trace_json(&[a, b], 2);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"droppedEvents\":2"));
        // The earlier-timestamp event must be serialized first (after
        // the metadata record).
        let tick = json.find("\"name\":\"tick\"").unwrap();
        let outer = json.find("\"name\":\"outer\"").unwrap();
        assert!(tick < outer, "events must be time-sorted");
        assert!(json.contains("\"s\":\"t\""), "instants carry thread scope");
        assert!(json.contains("\"args\":{\"k\":3}"));
    }

    #[test]
    fn equal_timestamps_fall_back_to_sequence() {
        let a = ev(2, 7, 0, Phase::End, "second");
        let b = ev(1, 7, 0, Phase::Begin, "first");
        let json = chrome_trace_json(&[a, b], 0);
        let first = json.find("\"name\":\"first\"").unwrap();
        let second = json.find("\"name\":\"second\"").unwrap();
        assert!(first < second);
    }
}
