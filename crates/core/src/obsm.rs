//! slim-obs handles and span sites for the analysis layer.

use slim_obs::{Counter, Site, Span};
use std::sync::{Arc, OnceLock};

/// `core.test` — one positive-selection test (H0 + H1 fits and the
/// posterior evaluation); its end event carries `h1`.
pub(crate) static TEST: Site = Site::new("core.test", "core");

/// Which H1 estimate a test kept.
#[derive(Debug, Clone, Copy)]
pub(crate) enum H1Outcome {
    /// The jittered H1 fit reached H0's lnL; no re-polish was needed.
    Jitter,
    /// The warm re-polish from H0's point won.
    Polished,
    /// H1 stayed below H0, so H0's point is reported.
    H0,
}

/// Outcome names, in [`H1Outcome`] declaration order.
const H1_NAMES: [&str; 3] = ["jitter", "polished", "h0"];

/// `core.h1.<outcome>` — tests per kept H1 estimate.
fn h1_counters() -> &'static [Arc<Counter>; 3] {
    static H1: OnceLock<[Arc<Counter>; 3]> = OnceLock::new();
    H1.get_or_init(|| H1_NAMES.map(|o| slim_obs::counter(&format!("core.h1.{o}"))))
}

/// Count the outcome and put it on the `core.test` end event.
pub(crate) fn record_h1(test_span: &mut Span, outcome: H1Outcome) {
    h1_counters()[outcome as usize].inc();
    test_span.arg_str("h1", H1_NAMES[outcome as usize]);
}

/// Eagerly register every analysis-layer metric name so snapshots are
/// schema-stable even before the first test.
pub fn register_metrics() {
    let _ = h1_counters();
    TEST.histogram();
}
