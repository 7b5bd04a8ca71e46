//! The event model: what one traced occurrence looks like.
//!
//! Events are deliberately tiny and self-describing — a phase (span
//! begin/end or instant), static name and category strings, a
//! monotonic timestamp in microseconds since the trace epoch, the
//! recording thread's stable id, a global sequence number for total
//! ordering, and a small list of key=value attributes.

/// What kind of event this is, mirroring the Chrome Trace Event
/// Format phases we emit (`B`, `E`, `i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A span opened (`ph: "B"`).
    Begin,
    /// A span closed (`ph: "E"`).
    End,
    /// A point-in-time occurrence (`ph: "i"`).
    Instant,
}

impl Phase {
    /// The Chrome Trace Event Format phase letter.
    pub fn letter(self) -> char {
        match self {
            Phase::Begin => 'B',
            Phase::End => 'E',
            Phase::Instant => 'i',
        }
    }
}

/// An attribute value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer attribute.
    U64(u64),
    /// Floating-point attribute.
    F64(f64),
    /// Boolean attribute.
    Bool(bool),
    /// Short string attribute (owned: values are often formatted).
    Str(String),
}

impl Value {
    /// Render the value as it appears in JSON (numbers and booleans
    /// bare, strings escaped and quoted).
    pub fn to_json(&self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::F64(v) => {
                if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".to_string()
                }
            }
            Value::Bool(v) => v.to_string(),
            Value::Str(s) => format!("\"{}\"", crate::escape_json(s)),
        }
    }

    /// Render the value for compact human-readable dumps.
    pub fn to_plain(&self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::F64(v) => format!("{v:?}"),
            Value::Bool(v) => v.to_string(),
            Value::Str(s) => s.clone(),
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Global sequence number: a total order over all events in the
    /// process, used to tie-break equal timestamps and to replay
    /// per-thread nesting exactly.
    pub seq: u64,
    /// Microseconds since the trace epoch (first event in the process).
    pub ts_us: u64,
    /// Stable small integer id of the recording thread.
    pub tid: u64,
    /// Begin / End / Instant.
    pub phase: Phase,
    /// Event name (static: instrumentation sites name their events).
    pub name: &'static str,
    /// Category (one per instrumented layer: `opt`, `lik`, `core`, `batch`).
    pub cat: &'static str,
    /// key=value attributes.
    pub args: Vec<(&'static str, Value)>,
}

impl Event {
    /// Compact single-line rendering for flight-recorder dumps:
    /// `+1234us t2 B opt.iteration iter=3 lnl=-1234.5`.
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "+{}us t{} {} {}",
            self.ts_us,
            self.tid,
            self.phase.letter(),
            self.name
        );
        for (k, v) in &self.args {
            line.push(' ');
            line.push_str(k);
            line.push('=');
            line.push_str(&v.to_plain());
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_letters_match_chrome_format() {
        assert_eq!(Phase::Begin.letter(), 'B');
        assert_eq!(Phase::End.letter(), 'E');
        assert_eq!(Phase::Instant.letter(), 'i');
    }

    #[test]
    fn value_json_rendering() {
        assert_eq!(Value::U64(7).to_json(), "7");
        assert_eq!(Value::Bool(true).to_json(), "true");
        assert_eq!(Value::F64(f64::NAN).to_json(), "null");
        assert_eq!(Value::Str("a\"b".to_string()).to_json(), "\"a\\\"b\"");
    }

    #[test]
    fn event_line_is_compact() {
        let e = Event {
            seq: 0,
            ts_us: 12,
            tid: 3,
            phase: Phase::Instant,
            name: "lik.reuse.hit",
            cat: "lik",
            args: vec![("kappa", Value::F64(2.0))],
        };
        assert_eq!(e.to_line(), "+12us t3 i lik.reuse.hit kappa=2.0");
    }
}
