//! The one timing primitive: a span opened from a `static` site. It
//! reads the clock at open and close only when a sink is on, and both
//! sinks use those same two readings, so a span's histogram observation
//! and its trace events describe the same interval.

use crate::metrics::Histogram;
use crate::trace::{self, Phase, Value};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A static instrumentation site: a span name, a trace category and the
/// lazily registered `<name>_seconds` histogram.
#[derive(Debug)]
pub struct Site {
    name: &'static str,
    cat: &'static str,
    hist: OnceLock<Arc<Histogram>>,
}

impl Site {
    /// A site named `name` (a dotted path) in trace category `cat`.
    pub const fn new(name: &'static str, cat: &'static str) -> Site {
        Site {
            name,
            cat,
            hist: OnceLock::new(),
        }
    }

    /// The site's `<name>_seconds` histogram in the global registry,
    /// registered on first call (each crate's `register_metrics()` calls
    /// this so snapshots list it before the first span closes).
    pub fn histogram(&self) -> &Histogram {
        self.hist
            .get_or_init(|| crate::histogram(&format!("{}_seconds", self.name)))
    }

    /// Open a span. It records when the returned guard drops, with any
    /// attributes attached through the `arg_*` methods; which sinks it
    /// feeds is decided here, at open.
    #[inline]
    pub fn span(&'static self) -> Span {
        let sinks = crate::sinks();
        let open = (sinks != 0).then(|| {
            let start = Instant::now();
            if sinks & crate::TRACE != 0 {
                trace::record(start, Phase::Begin, self.name, self.cat, Vec::new());
            }
            (sinks, start)
        });
        Span {
            site: self,
            open,
            args: Vec::new(),
        }
    }
}

/// An RAII span from [`Site::span`]: records into the sinks that were on
/// when it opened, when dropped.
#[derive(Debug)]
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    site: &'static Site,
    /// Sink bits on at open and the open instant; `None` when every sink
    /// was off.
    open: Option<(u8, Instant)>,
    /// End-event attributes (collected only while tracing).
    args: Vec<(&'static str, Value)>,
}

impl Span {
    #[inline]
    fn tracing(&self) -> bool {
        matches!(self.open, Some((sinks, _)) if sinks & crate::TRACE != 0)
    }

    /// Attach an unsigned-integer attribute to the end event.
    #[inline]
    pub fn arg_u64(&mut self, key: &'static str, value: u64) {
        if self.tracing() {
            self.args.push((key, Value::U64(value)));
        }
    }

    /// Attach a floating-point attribute to the end event.
    #[inline]
    pub fn arg_f64(&mut self, key: &'static str, value: f64) {
        if self.tracing() {
            self.args.push((key, Value::F64(value)));
        }
    }

    /// Attach a string attribute to the end event.
    #[inline]
    pub fn arg_str(&mut self, key: &'static str, value: &str) {
        if self.tracing() {
            self.args.push((key, Value::Str(value.to_string())));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((sinks, start)) = self.open else {
            return;
        };
        let end = Instant::now();
        if sinks & crate::METRICS != 0 {
            self.site
                .histogram()
                .observe(end.saturating_duration_since(start));
        }
        if sinks & crate::TRACE != 0 {
            trace::record(
                end,
                Phase::End,
                self.site.name,
                self.site.cat,
                std::mem::take(&mut self.args),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static SITE: Site = Site::new("test.span", "test");

    /// Open one span from `SITE` with the given sinks on; return the
    /// histogram count delta and the events recorded.
    fn run(metrics: bool, tracing: bool) -> (u64, Vec<trace::Event>) {
        crate::set_enabled(metrics);
        trace::set_enabled(tracing);
        trace::clear();
        let before = SITE.histogram().snapshot().count;
        {
            let mut span = SITE.span();
            span.arg_u64("n", 3);
            span.arg_str("why", "test");
        }
        let after = SITE.histogram().snapshot().count;
        crate::set_enabled(false);
        trace::set_enabled(false);
        let (events, _) = trace::take_events();
        (after - before, events)
    }

    #[test]
    fn one_site_feeds_each_sink_that_is_on() {
        let _g = crate::tests::test_lock();

        let (count, events) = run(true, false);
        assert_eq!(count, 1, "metrics only: one observation");
        assert!(events.is_empty(), "metrics only: no events");

        let (count, events) = run(false, true);
        assert_eq!(count, 0, "trace only: histogram unchanged");
        let shape: Vec<(Phase, &str)> = events.iter().map(|e| (e.phase, e.name)).collect();
        assert_eq!(
            shape,
            vec![(Phase::Begin, "test.span"), (Phase::End, "test.span")]
        );
        assert!(events[0].args.is_empty());
        assert_eq!(
            events[1].args,
            vec![("n", Value::U64(3)), ("why", Value::Str("test".into()))]
        );
        assert!(events[0].ts_us <= events[1].ts_us);

        let (count, events) = run(true, true);
        assert_eq!(count, 1, "both on: one observation");
        assert_eq!(events.len(), 2, "both on: one B/E pair");
        assert_eq!(events[1].args.len(), 2);

        let (count, events) = run(false, false);
        assert_eq!(count, 0, "both off: no observation");
        assert!(events.is_empty(), "both off: no events");
    }

    #[test]
    fn site_histogram_is_named_after_the_site() {
        let _g = crate::tests::test_lock();
        crate::set_enabled(true);
        drop(SITE.span());
        crate::set_enabled(false);
        let snap = crate::snapshot();
        assert!(snap.histogram("test.span_seconds").unwrap().count >= 1);
    }
}
