//! The metric registry and its snapshot/rendering layer.
//!
//! Registration (name → handle) is the cold path, behind a mutex over
//! sorted maps; recording touches only the returned `Arc` handles. A
//! poisoned map lock is recovered, as in the trace recorder: every update
//! is one insert, so the map is valid at every step.
//! Snapshots iterate the maps in name order, so two snapshots of the
//! same registry always list metrics identically — the schema-stability
//! contract the CLI's `--metrics` output relies on.

use crate::escape_json;
use crate::metrics::{bucket_upper_seconds, Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A set of named metrics. Most code uses the process-wide [`global`]
/// registry through the free functions; separate instances exist for
/// tests.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter named `name`. Registering is idempotent:
    /// every caller receives a handle to the same cell.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Counter::new()))
            .clone()
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap_or_else(PoisonError::into_inner);
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Gauge::new()))
            .clone()
    }

    /// Get or create the duration histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()))
            .clone()
    }

    /// Freeze every registered metric, sorted by name. Derived gauges
    /// (see [`add_derived_gauges`]) are computed here, so they appear in
    /// both the JSON and Prometheus renderings without a recording site.
    pub fn snapshot(&self) -> Snapshot {
        let counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let mut gauges: Vec<(String, f64)> = self
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        add_derived_gauges(&counters, &mut gauges);
        Snapshot {
            counters,
            gauges,
            histograms: self
                .histograms
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zero every metric, keeping all registrations (names stay in the
    /// snapshot schema).
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            c.reset();
        }
        for g in self
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            g.reset();
        }
        for h in self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            h.reset();
        }
    }
}

/// Compute gauges derived from raw counters at snapshot time, inserting
/// them at their name-sorted position so the schema-stability contract
/// holds. Currently: `lik.reuse.hit_rate` = units_reused /
/// (units_reused + units_recomputed), defined as 0 when the denominator
/// is 0 (no units yet) — never NaN — and present whenever its source
/// counters are registered.
fn add_derived_gauges(counters: &[(String, u64)], gauges: &mut Vec<(String, f64)>) {
    let get = |name: &str| counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    let mut set =
        |name: &str, rate: f64| match gauges.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => gauges[i].1 = rate,
            Err(i) => gauges.insert(i, (name.to_string(), rate)),
        };
    if let (Some(reused), Some(recomputed)) = (
        get("lik.reuse.units_reused"),
        get("lik.reuse.units_recomputed"),
    ) {
        set("lik.reuse.hit_rate", ratio(reused, reused + recomputed));
    }
}

/// `num / den` with the 0/0 case pinned to 0.0 (never NaN).
fn ratio(num: u64, den: u64) -> f64 {
    if den > 0 {
        num as f64 / den as f64
    } else {
        0.0
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Get or create a counter in the [`global`] registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global().counter(name)
}

/// Get or create a gauge in the [`global`] registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().gauge(name)
}

/// Get or create a histogram in the [`global`] registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// Snapshot the [`global`] registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// A frozen, name-sorted view of a registry.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// (name, value) for every counter.
    pub counters: Vec<(String, u64)>,
    /// (name, value) for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// (name, state) for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Look up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Render as a machine-readable JSON document (the `--metrics
    /// out.json` sink). Keys are sorted, floats render
    /// shortest-roundtrip, non-finite values render as `null` — two
    /// snapshots of identically-registered registries differ only in
    /// values, never in shape.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"slimcodeml.metrics.v1\"");
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", escape_json(name)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape_json(name), json_f64(*v)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum_seconds\":{},\"min_seconds\":{},\"max_seconds\":{},\"mean_seconds\":{}}}",
                escape_json(name),
                h.count,
                json_f64(h.sum_seconds),
                json_f64(h.min_seconds),
                json_f64(h.max_seconds),
                json_f64(h.mean_seconds()),
            ));
        }
        out.push_str("}}\n");
        out
    }

    /// Render as Prometheus text exposition (`--metrics-format prom`):
    /// counters and gauges verbatim, histograms with cumulative
    /// `_bucket{le=...}` series up to the highest occupied bucket plus
    /// `+Inf`, `_sum` and `_count`. Names are prefixed `slimcodeml_`
    /// with dots mapped to underscores.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", prom_f64(*v)));
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let top = h
                .buckets
                .iter()
                .rposition(|&c| c > 0)
                .map_or(0, |i| i + 1)
                .min(h.buckets.len() - 1);
            let mut cumulative = 0u64;
            for (i, &c) in h.buckets.iter().enumerate().take(top) {
                cumulative += c;
                out.push_str(&format!(
                    "{n}_bucket{{le=\"{}\"}} {cumulative}\n",
                    prom_f64(bucket_upper_seconds(i))
                ));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n", prom_f64(h.sum_seconds)));
            out.push_str(&format!("{n}_count {}\n", h.count));
        }
        out
    }
}

/// Shortest-roundtrip JSON number; non-finite becomes `null`.
fn json_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Prometheus sample value (scientific notation is accepted).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v != 0.0 && v.abs() < 1e-3 {
        format!("{v:e}")
    } else {
        format!("{v}")
    }
}

/// `lik.phase.eigen_seconds` → `slimcodeml_lik_phase_eigen_seconds`.
fn prom_name(name: &str) -> String {
    let mut out = String::from("slimcodeml_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn locked_enabled() -> std::sync::MutexGuard<'static, ()> {
        let guard = crate::tests::test_lock();
        crate::set_enabled(true);
        guard
    }

    #[test]
    fn disabled_recording_is_a_noop() {
        let _g = crate::tests::test_lock();
        crate::set_enabled(false);
        let r = Registry::new();
        let c = r.counter("x.count");
        let g = r.gauge("x.gauge");
        let h = r.histogram("x.hist");
        c.add(5);
        g.set(3.5);
        h.observe(Duration::from_millis(1));
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn counters_merge_across_threads() {
        let _g = locked_enabled();
        let r = Registry::new();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = r.counter("merge.count");
                s.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(r.counter("merge.count").get(), threads * per_thread);
        crate::set_enabled(false);
    }

    #[test]
    fn histograms_merge_across_threads() {
        let _g = locked_enabled();
        let r = Registry::new();
        let threads = 4;
        let per_thread = 1_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = r.histogram("merge.hist");
                s.spawn(move || {
                    for _ in 0..per_thread {
                        // Distinct per-thread durations so min/max and the
                        // sum all exercise the merge.
                        h.observe(Duration::from_micros(t + 1));
                    }
                });
            }
        });
        let h = r.histogram("merge.hist").snapshot();
        assert_eq!(h.count, threads * per_thread);
        let expect_sum = (1..=threads).map(|t| t * per_thread).sum::<u64>() as f64 * 1e-6;
        assert!(
            (h.sum_seconds - expect_sum).abs() < 1e-12,
            "{}",
            h.sum_seconds
        );
        assert!((h.min_seconds - 1e-6).abs() < 1e-15);
        assert!((h.max_seconds - 4e-6).abs() < 1e-15);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
        crate::set_enabled(false);
    }

    #[test]
    fn snapshot_is_sorted_and_reset_keeps_schema() {
        let _g = locked_enabled();
        let r = Registry::new();
        r.counter("z.last").inc();
        r.counter("a.first").add(2);
        r.gauge("m.middle").set(1.5);
        r.histogram("k.hist").observe(Duration::from_micros(10));
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "z.last"]);
        assert_eq!(snap.counter("a.first"), Some(2));
        assert_eq!(snap.gauge("m.middle"), Some(1.5));
        assert_eq!(snap.histogram("k.hist").unwrap().count, 1);

        r.reset();
        let after = r.snapshot();
        assert_eq!(after.counter("a.first"), Some(0), "value zeroed");
        assert_eq!(after.counter("z.last"), Some(0));
        assert_eq!(after.gauge("m.middle"), Some(0.0));
        assert_eq!(after.histogram("k.hist").unwrap().count, 0);
        assert_eq!(
            snap.counters.len(),
            after.counters.len(),
            "registrations survive reset"
        );
        crate::set_enabled(false);
    }

    #[test]
    fn registration_is_idempotent() {
        let _g = locked_enabled();
        let r = Registry::new();
        let a = r.counter("same.name");
        let b = r.counter("same.name");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "both handles hit the same cell");
        crate::set_enabled(false);
    }

    #[test]
    fn json_rendering_is_schema_stable() {
        let _g = locked_enabled();
        let r = Registry::new();
        r.counter("c.one").add(7);
        r.gauge("g.one").set(0.25);
        r.histogram("h.one").observe(Duration::from_millis(3));
        let json = r.snapshot().to_json();
        assert!(json.starts_with("{\"schema\":\"slimcodeml.metrics.v1\""));
        assert!(json.contains("\"c.one\":7"), "{json}");
        assert!(json.contains("\"g.one\":0.25"), "{json}");
        assert!(json.contains("\"h.one\":{\"count\":1"), "{json}");
        assert!(json.contains("\"sum_seconds\":"));
        // Zeroed registry: identical shape, zero values.
        r.reset();
        let zero = r.snapshot().to_json();
        assert!(zero.contains("\"c.one\":0"), "{zero}");
        assert!(zero.contains("\"h.one\":{\"count\":0"), "{zero}");
        crate::set_enabled(false);
    }

    #[test]
    fn prometheus_rendering() {
        let _g = locked_enabled();
        let r = Registry::new();
        r.counter("opt.iterations").add(42);
        r.gauge("batch.pool.workers").set(4.0);
        r.histogram("lik.phase.eigen_seconds")
            .observe(Duration::from_micros(100));
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE slimcodeml_opt_iterations counter"));
        assert!(text.contains("slimcodeml_opt_iterations 42"));
        assert!(text.contains("# TYPE slimcodeml_batch_pool_workers gauge"));
        assert!(text.contains("slimcodeml_batch_pool_workers 4"));
        assert!(text.contains("# TYPE slimcodeml_lik_phase_eigen_seconds histogram"));
        assert!(text.contains("slimcodeml_lik_phase_eigen_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("slimcodeml_lik_phase_eigen_seconds_count 1"));
        assert!(text.contains("slimcodeml_lik_phase_eigen_seconds_sum "));
        crate::set_enabled(false);
    }

    #[test]
    fn derived_reuse_hit_rate_guards_zero_over_zero() {
        let _g = locked_enabled();
        let r = Registry::new();
        // Registered but never bumped — a job that performed no lookups.
        // The derived gauge must be 0.0, never NaN, in both sinks.
        r.counter("lik.reuse.units_reused");
        r.counter("lik.reuse.units_recomputed");
        let snap = r.snapshot();
        assert_eq!(snap.gauge("lik.reuse.hit_rate"), Some(0.0));
        assert!(
            snap.to_json().contains("\"lik.reuse.hit_rate\":0.0"),
            "{}",
            snap.to_json()
        );
        assert!(
            snap.to_prometheus()
                .contains("# TYPE slimcodeml_lik_reuse_hit_rate gauge"),
            "{}",
            snap.to_prometheus()
        );
        assert!(
            snap.to_prometheus()
                .contains("slimcodeml_lik_reuse_hit_rate 0\n"),
            "{}",
            snap.to_prometheus()
        );
        // Registries without the source counters don't grow the gauge.
        assert_eq!(Registry::new().snapshot().gauge("lik.reuse.hit_rate"), None);
        // With traffic, the usual ratio, name-sorted into the gauge list.
        r.counter("lik.reuse.units_reused").add(6);
        r.counter("lik.reuse.units_recomputed").add(2);
        let snap = r.snapshot();
        assert_eq!(snap.gauge("lik.reuse.hit_rate"), Some(0.75));
        let names: Vec<&str> = snap.gauges.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "derived gauge keeps name order");
        crate::set_enabled(false);
    }

    #[test]
    fn json_f64_edge_cases() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(2.0), "2.0", "integral floats keep a decimal point");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1e-9), "0.000000001");
    }
}
