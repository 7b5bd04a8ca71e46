//! The trace sink: the *when/in-what-order* companion to the registry's
//! *how-much* aggregates. Spans ([`crate::Site::span`]) emit begin/end
//! pairs and [`instant_with`] emits instant events (reuse hits, retries,
//! quarantines). All
//! of them land in per-thread buffers that drain into one bounded global
//! ring — the **flight recorder**. The ring serves two consumers:
//!
//! * `--trace <path>` drains everything into a Chrome Trace Event
//!   Format JSON document that Perfetto / chrome://tracing load
//!   directly ([`chrome_trace_json`]), summarized offline by
//!   `slimcodeml trace-report` ([`report`]);
//! * on worker panic or job quarantine, the batch layer attaches the
//!   last N events ([`dump_lines`]) to the journal record, so failures
//!   arrive with their history.
//!
//! Wall-clock timestamps exist only in trace output; the `det-wallclock`
//! lint keeps clock reads out of the numeric crates.

mod chrome;
mod event;
mod recorder;
pub mod report;

pub use chrome::chrome_trace_json;
pub use event::{Event, Phase, Value};
pub(crate) use recorder::record;
pub use recorder::{clear, dump_lines, flush_thread, set_capacity, take_events, DEFAULT_CAPACITY};

use std::time::Instant;

/// Is tracing on? One relaxed load — the gate every instrumentation
/// site takes first.
#[inline]
pub fn enabled() -> bool {
    crate::sinks() & crate::TRACE != 0
}

/// Turn tracing on or off for the whole process (the library-API
/// mirror of the CLI's `--trace` flag and the `SLIMCODEML_TRACE`
/// environment variable). Metric collection is unaffected.
pub fn set_enabled(on: bool) {
    crate::set_sink(crate::TRACE, on);
}

/// Emit an instant event with attributes built lazily: the closure
/// runs only when tracing is enabled, so a disabled site pays exactly
/// the [`enabled`] load.
#[inline]
pub fn instant_with<F>(name: &'static str, cat: &'static str, args: F)
where
    F: FnOnce() -> Vec<(&'static str, Value)>,
{
    if enabled() {
        record(Instant::now(), Phase::Instant, name, cat, args());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Site;

    static WORK: Site = Site::new("work", "test");
    static WORKER: Site = Site::new("worker", "test");

    #[test]
    fn disabled_instants_record_nothing() {
        let _g = crate::tests::test_lock();
        set_enabled(false);
        clear();
        instant_with("tock", "test", || vec![("v", Value::F64(1.0))]);
        let (events, dropped) = take_events();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn instants_nest_inside_spans_in_sequence_order() {
        let _g = crate::tests::test_lock();
        set_enabled(true);
        clear();
        {
            let mut s = WORK.span();
            s.arg_f64("lnl", -1.5);
            instant_with("mid", "test", Vec::new);
        }
        set_enabled(false);
        let (events, _) = take_events();
        let phases: Vec<(Phase, &str)> = events.iter().map(|e| (e.phase, e.name)).collect();
        assert_eq!(
            phases,
            vec![
                (Phase::Begin, "work"),
                (Phase::Instant, "mid"),
                (Phase::End, "work")
            ]
        );
        assert_eq!(events[2].args, vec![("lnl", Value::F64(-1.5))]);
        assert!(events[0].seq < events[1].seq && events[1].seq < events[2].seq);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let _g = crate::tests::test_lock();
        set_enabled(true);
        clear();
        set_capacity(4);
        for _ in 0..6 {
            instant_with("tick", "test", Vec::new);
        }
        assert_eq!(dump_lines(2).len(), 2);
        let (events, dropped) = take_events();
        assert_eq!(events.len(), 4);
        assert_eq!(dropped, 2);
        set_enabled(false);
        set_capacity(DEFAULT_CAPACITY);
        clear();
    }

    #[test]
    fn dump_lines_render_latest_events() {
        let _g = crate::tests::test_lock();
        set_enabled(true);
        clear();
        instant_with("boom", "test", || vec![("attempt", Value::U64(2))]);
        set_enabled(false);
        let lines = dump_lines(8);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("i boom attempt=2"), "line: {}", lines[0]);
        clear();
    }

    #[test]
    fn spans_survive_cross_thread_flush() {
        let _g = crate::tests::test_lock();
        set_enabled(true);
        clear();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    drop(WORKER.span());
                    // Scoped threads flush explicitly: the scope
                    // unblocks before TLS destructors run.
                    flush_thread();
                });
            }
        });
        set_enabled(false);
        let (events, _) = take_events();
        // Each worker thread flushed on exit: two begin/end pairs.
        assert_eq!(events.len(), 4);
        let tids: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 2, "each thread gets its own tid");
    }
}
