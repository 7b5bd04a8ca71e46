//! `trace-report` summarization: turn an event stream back into the
//! things a human asks a trace first — how did each fit converge, why
//! did it stop, which H1 estimate each test kept, and where did the time
//! go.
//!
//! The functions here work on [`RecordedEvent`], a parser-neutral
//! mirror of [`super::Event`] that the CLI builds from a Chrome Trace
//! Event Format file.

use std::collections::BTreeMap;

/// One event as read back from a trace file. `ph` is the Chrome phase
/// letter; only numeric and string args survive the round trip (that
/// is all the instrumentation emits).
#[derive(Debug, Clone)]
pub struct RecordedEvent {
    /// Event name.
    pub name: String,
    /// Category.
    pub cat: String,
    /// Chrome phase letter (`B`, `E`, `i`, `M`, ...).
    pub ph: char,
    /// Timestamp in microseconds.
    pub ts_us: u64,
    /// Thread track id.
    pub tid: u64,
    /// Numeric attributes.
    pub num_args: Vec<(String, f64)>,
    /// String attributes.
    pub str_args: Vec<(String, String)>,
}

impl RecordedEvent {
    fn num(&self, key: &str) -> Option<f64> {
        self.num_args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
    }

    fn str_arg(&self, key: &str) -> Option<&str> {
        self.str_args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One optimizer iteration as recorded in the convergence trace.
#[derive(Debug, Clone)]
pub struct ConvergenceRow {
    /// 1-based fit ordinal (order of `opt.fit` spans in the trace).
    pub fit: usize,
    /// Optimizer label (`bfgs`) if recorded.
    pub algo: String,
    /// Iteration number within the fit.
    pub iter: u64,
    /// Log-likelihood after the iteration.
    pub lnl: f64,
    /// Infinity-norm of the gradient.
    pub grad_norm: f64,
    /// Accepted line-search step size.
    pub step: f64,
    /// Function evaluations the line search spent this iteration.
    pub ls_evals: u64,
}

/// Extract the per-fit convergence table from `opt.iteration` span
/// ends, attributing each to the enclosing `opt.fit` span on the same
/// thread (fits are numbered in begin order across the whole trace).
pub fn convergence_rows(events: &[RecordedEvent]) -> Vec<ConvergenceRow> {
    fits(events).0
}

/// Convergence rows plus, per completed `opt.fit` span in end order,
/// (fit ordinal, algo, termination) from its end event.
fn fits(events: &[RecordedEvent]) -> (Vec<ConvergenceRow>, Vec<(usize, &str, &str)>) {
    let mut order: Vec<&RecordedEvent> = events.iter().collect();
    order.sort_by_key(|e| e.ts_us);

    let mut next_fit = 0usize;
    // Per-tid stack of (fit ordinal, algo) for nested safety.
    let mut open: BTreeMap<u64, Vec<(usize, String)>> = BTreeMap::new();
    let mut rows = Vec::new();
    let mut ends = Vec::new();
    for e in order {
        if e.name == "opt.fit" {
            match e.ph {
                'B' => {
                    next_fit += 1;
                    open.entry(e.tid)
                        .or_default()
                        .push((next_fit, String::new()));
                }
                'E' => {
                    // The algo and termination args ride on the end
                    // event; patch rows already attributed to this fit.
                    if let Some((fit, _)) = open.entry(e.tid).or_default().pop() {
                        let algo = e.str_arg("algo").unwrap_or("?");
                        for r in rows
                            .iter_mut()
                            .filter(|r: &&mut ConvergenceRow| r.fit == fit)
                        {
                            r.algo = algo.to_string();
                        }
                        ends.push((fit, algo, e.str_arg("termination").unwrap_or("?")));
                    }
                }
                _ => {}
            }
        } else if e.name == "opt.iteration" && e.ph == 'E' {
            let (fit, algo) = open
                .get(&e.tid)
                .and_then(|s| s.last())
                .map(|(f, a)| (*f, a.clone()))
                .unwrap_or((0, String::new()));
            rows.push(ConvergenceRow {
                fit,
                algo,
                iter: e.num("iter").unwrap_or(0.0) as u64,
                lnl: e.num("lnl").unwrap_or(f64::NAN),
                grad_norm: e.num("grad_norm").unwrap_or(f64::NAN),
                step: e.num("step").unwrap_or(f64::NAN),
                ls_evals: e.num("ls_evals").unwrap_or(0.0) as u64,
            });
        }
    }
    (rows, ends)
}

/// Which H1 estimate each positive-selection test kept (`jitter`,
/// `polished` or `h0`), from the `h1` arg of its `core.test` end event,
/// in end order.
pub fn h1_outcomes(events: &[RecordedEvent]) -> Vec<String> {
    let mut ends: Vec<&RecordedEvent> = events
        .iter()
        .filter(|e| e.name == "core.test" && e.ph == 'E')
        .collect();
    ends.sort_by_key(|e| e.ts_us);
    ends.iter()
        .map(|e| e.str_arg("h1").unwrap_or("?").to_string())
        .collect()
}

/// Aggregate wall time per span name.
#[derive(Debug, Clone)]
pub struct SpanAggregate {
    /// Category of the span.
    pub cat: String,
    /// Span name.
    pub name: String,
    /// Completed spans seen.
    pub count: u64,
    /// Total wall time across spans, microseconds.
    pub total_us: u64,
    /// Total time minus time spent in child spans on the same thread —
    /// the span's own contribution to the critical path.
    pub self_us: u64,
}

/// Match begin/end pairs per thread and aggregate total and self time
/// by span name, longest self-time first. Unmatched begins (span still
/// open when the ring was drained) are skipped.
pub fn span_aggregates(events: &[RecordedEvent]) -> Vec<SpanAggregate> {
    let mut order: Vec<&RecordedEvent> = events.iter().collect();
    order.sort_by_key(|e| e.ts_us);

    struct Open {
        name: String,
        cat: String,
        start_us: u64,
        child_us: u64,
    }
    let mut stacks: BTreeMap<u64, Vec<Open>> = BTreeMap::new();
    let mut agg: BTreeMap<(String, String), SpanAggregate> = BTreeMap::new();
    for e in order {
        match e.ph {
            'B' => stacks.entry(e.tid).or_default().push(Open {
                name: e.name.clone(),
                cat: e.cat.clone(),
                start_us: e.ts_us,
                child_us: 0,
            }),
            'E' => {
                let stack = stacks.entry(e.tid).or_default();
                // Pop until the matching name in case an unmatched
                // begin slipped past a ring truncation boundary.
                while let Some(open) = stack.pop() {
                    let matches = open.name == e.name;
                    if matches {
                        let dur = e.ts_us.saturating_sub(open.start_us);
                        if let Some(parent) = stack.last_mut() {
                            parent.child_us += dur;
                        }
                        let entry = agg
                            .entry((open.cat.clone(), open.name.clone()))
                            .or_insert_with(|| SpanAggregate {
                                cat: open.cat,
                                name: open.name,
                                count: 0,
                                total_us: 0,
                                self_us: 0,
                            });
                        entry.count += 1;
                        entry.total_us += dur;
                        entry.self_us += dur.saturating_sub(open.child_us);
                        break;
                    }
                }
            }
            _ => {}
        }
    }
    let mut out: Vec<SpanAggregate> = agg.into_values().collect();
    out.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
    out
}

fn fmt_ms(us: u64) -> String {
    format!("{:.3}", us as f64 / 1e3)
}

/// Render the full `trace-report` text: the per-fit convergence table,
/// why each fit stopped and which H1 each test kept, then the
/// critical-path (self-time) breakdown.
pub fn render_report(events: &[RecordedEvent]) -> String {
    let mut out = String::new();
    let (rows, ends) = fits(events);
    out.push_str("Convergence trace\n");
    if rows.is_empty() {
        out.push_str("  (no opt.iteration spans in trace)\n");
    } else {
        out.push_str(&format!(
            "  {:>3} {:>6} {:>4}  {:>18} {:>12} {:>10} {:>8}\n",
            "fit", "algo", "iter", "lnL", "|grad|", "step", "ls_evals"
        ));
        for r in &rows {
            out.push_str(&format!(
                "  {:>3} {:>6} {:>4}  {:>18.8} {:>12.3e} {:>10.3e} {:>8}\n",
                r.fit,
                if r.algo.is_empty() { "?" } else { &r.algo },
                r.iter,
                r.lnl,
                r.grad_norm,
                r.step,
                r.ls_evals
            ));
        }
    }
    out.push('\n');
    out.push_str("Fit outcomes\n");
    if ends.is_empty() {
        out.push_str("  (no opt.fit spans in trace)\n");
    }
    for (fit, algo, termination) in &ends {
        out.push_str(&format!("  fit {fit} ({algo}): stopped on {termination}\n"));
    }
    for (i, h1) in h1_outcomes(events).iter().enumerate() {
        out.push_str(&format!("  test {}: H1 from {h1}\n", i + 1));
    }
    out.push('\n');
    out.push_str("Critical path (self time)\n");
    let aggs = span_aggregates(events);
    if aggs.is_empty() {
        out.push_str("  (no completed spans in trace)\n");
    } else {
        out.push_str(&format!(
            "  {:<28} {:>8} {:>14} {:>14}\n",
            "span", "count", "total_ms", "self_ms"
        ));
        for a in &aggs {
            out.push_str(&format!(
                "  {:<28} {:>8} {:>14} {:>14}\n",
                format!("{}/{}", a.cat, a.name),
                a.count,
                fmt_ms(a.total_us),
                fmt_ms(a.self_us)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, cat: &str, ph: char, ts_us: u64, tid: u64) -> RecordedEvent {
        RecordedEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph,
            ts_us,
            tid,
            num_args: vec![],
            str_args: vec![],
        }
    }

    #[test]
    fn aggregates_compute_self_time() {
        let events = vec![
            rec("outer", "t", 'B', 0, 0),
            rec("inner", "t", 'B', 10, 0),
            rec("inner", "t", 'E', 40, 0),
            rec("outer", "t", 'E', 100, 0),
        ];
        let aggs = span_aggregates(&events);
        let outer = aggs.iter().find(|a| a.name == "outer").unwrap();
        let inner = aggs.iter().find(|a| a.name == "inner").unwrap();
        assert_eq!(outer.total_us, 100);
        assert_eq!(outer.self_us, 70);
        assert_eq!(inner.total_us, 30);
        assert_eq!(inner.self_us, 30);
    }

    #[test]
    fn convergence_rows_attach_fit_and_algo() {
        let mut it = rec("opt.iteration", "opt", 'E', 20, 0);
        it.num_args = vec![
            ("iter".to_string(), 1.0),
            ("lnl".to_string(), -12.5),
            ("grad_norm".to_string(), 0.5),
            ("step".to_string(), 1.0),
            ("ls_evals".to_string(), 2.0),
        ];
        let mut fit_end = rec("opt.fit", "opt", 'E', 30, 0);
        fit_end.str_args = vec![("algo".to_string(), "bfgs".to_string())];
        let events = vec![
            rec("opt.fit", "opt", 'B', 0, 0),
            rec("opt.iteration", "opt", 'B', 10, 0),
            it,
            fit_end,
        ];
        let rows = convergence_rows(&events);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].fit, 1);
        assert_eq!(rows[0].algo, "bfgs");
        assert_eq!(rows[0].iter, 1);
        assert!((rows[0].lnl + 12.5).abs() < 1e-12);
    }

    #[test]
    fn report_prints_fit_termination_and_h1_outcome() {
        let mut fit_end = rec("opt.fit", "opt", 'E', 30, 0);
        fit_end.str_args = vec![
            ("algo".to_string(), "bfgs".to_string()),
            ("termination".to_string(), "max_iterations".to_string()),
        ];
        let mut test_end = rec("core.test", "core", 'E', 40, 0);
        test_end.str_args = vec![("h1".to_string(), "polished".to_string())];
        let events = vec![
            rec("core.test", "core", 'B', 0, 0),
            rec("opt.fit", "opt", 'B', 5, 0),
            fit_end,
            test_end,
        ];
        assert_eq!(h1_outcomes(&events), vec!["polished".to_string()]);
        let text = render_report(&events);
        assert!(
            text.contains("fit 1 (bfgs): stopped on max_iterations"),
            "{text}"
        );
        assert!(text.contains("test 1: H1 from polished"), "{text}");
    }

    #[test]
    fn report_renders_both_sections() {
        let events = vec![rec("x", "t", 'B', 0, 0), rec("x", "t", 'E', 5, 0)];
        let text = render_report(&events);
        assert!(text.contains("Convergence trace"));
        assert!(text.contains("Critical path"));
        assert!(text.contains("t/x"));
    }
}
