//! # slim-obs
//!
//! The observability layer of the SlimCodeML reproduction — the
//! measurement layer the paper itself started from (its optimization
//! story begins with a gprof profile of CodeML, §II, Table I). It has one
//! timing primitive and two sinks. A [`Span`] opened from a `static`
//! [`Site`] times one phase, fit, test, job or worker loop; on close it
//! observes the site's `<name>_seconds` histogram in the **metrics
//! registry** when metrics are on, and emits a begin/end event pair with
//! its attributes into the **flight recorder** ([`trace`]) when tracing
//! is on. The CLI renders the registry as the `--timing` report, a
//! `--metrics` snapshot (JSON or Prometheus) and the recorder as a
//! `--trace` Chrome Trace Event Format export. Each instrumented crate
//! declares its sites and counters in its `obsm.rs` and registers both
//! in its `register_metrics()`.
//!
//! ## Design constraints
//!
//! * **Dependency-free.** Only `std`; safe to pull into any crate in the
//!   workspace, including the otherwise dependency-free `slim-opt`.
//! * **One relaxed load when disabled.** The two sink switches are two
//!   bits of one atomic. With both off a span reads no clock and
//!   allocates nothing; counters, gauges and instants pay the same one
//!   load. Metric handles are registered once (cold, behind a mutex) and
//!   then touched only through relaxed atomics.
//! * **Never perturbs numerics.** Instrumentation only *observes* —
//!   log-likelihoods are bit-identical with either sink on or off, which
//!   the `metrics_identity` and `trace_identity` test layers lock down.
//!
//! Metric names are dotted paths (`lik.phase.eigen_seconds`,
//! `opt.iterations`), so a sorted snapshot groups each subsystem and a
//! Prometheus scrape maps them to `slimcodeml_lik_phase_eigen_seconds`.
//!
//! Both sinks are off by default. `SLIMCODEML_METRICS` and
//! `SLIMCODEML_TRACE` set to anything but `0` / `false` / empty turn them
//! on (read once, at first use); [`set_enabled`] and
//! [`trace::set_enabled`] override them — the CLI calls these for
//! `--timing`/`--metrics` and `--trace`.

mod metrics;
mod registry;
mod span;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HIST_BUCKETS};
pub use registry::{counter, gauge, global, histogram, snapshot, Registry, Snapshot};
pub use span::{Site, Span};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Once;

/// Sink bit: the metrics registry.
const METRICS: u8 = 1;
/// Sink bit: the trace flight recorder.
const TRACE: u8 = 2;

static SINKS: AtomicU8 = AtomicU8::new(0);
static ENV_INIT: Once = Once::new();

/// Fold `SLIMCODEML_METRICS` and `SLIMCODEML_TRACE` into the sink bits,
/// exactly once per process; later `set_enabled` calls override them.
fn sync_env() {
    ENV_INIT.call_once(|| {
        for (var, bit) in [("SLIMCODEML_METRICS", METRICS), ("SLIMCODEML_TRACE", TRACE)] {
            if let Ok(v) = std::env::var(var) {
                let v = v.trim();
                if !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false") {
                    SINKS.fetch_or(bit, Ordering::Relaxed);
                }
            }
        }
    });
}

/// The sink bits that are on. One relaxed load — the gate every
/// instrumentation site takes first.
#[inline]
fn sinks() -> u8 {
    sync_env();
    SINKS.load(Ordering::Relaxed)
}

fn set_sink(bit: u8, on: bool) {
    sync_env();
    if on {
        SINKS.fetch_or(bit, Ordering::Relaxed);
    } else {
        SINKS.fetch_and(!bit, Ordering::Relaxed);
    }
}

/// Is metric collection on? One relaxed load.
#[inline]
pub fn enabled() -> bool {
    sinks() & METRICS != 0
}

/// Turn metric collection on or off for the whole process (the
/// library-API mirror of the CLI's `--metrics`/`--timing` flags and the
/// `SLIMCODEML_METRICS` environment variable). Tracing is unaffected.
pub fn set_enabled(on: bool) {
    set_sink(METRICS, on);
}

/// Escape a string for embedding in a JSON string literal (metric names
/// in snapshots, event names and attributes in trace exports).
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Unit tests across the crate toggle the process-global sink bits
    /// and drain the shared ring; they serialize on this lock.
    pub(crate) fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn sink_bits_toggle_independently() {
        let _g = test_lock();
        set_enabled(true);
        trace::set_enabled(false);
        assert!(enabled() && !trace::enabled());
        trace::set_enabled(true);
        assert!(enabled() && trace::enabled());
        set_enabled(false);
        assert!(!enabled() && trace::enabled());
        trace::set_enabled(false);
        assert_eq!(sinks(), 0);
    }

    #[test]
    fn escape_handles_controls() {
        assert_eq!(escape_json("a\nb\t\u{1}\"\\"), "a\\nb\\t\\u0001\\\"\\\\");
    }
}
