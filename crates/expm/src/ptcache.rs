//! Per-branch transition-operator reconstruction cache.
//!
//! During a derivative-based fit most likelihood evaluations change a
//! single branch length, leaving every other branch's `P(t)` — already an
//! O(n²)–O(n³) reconstruction — bit-identical to the previous evaluation.
//! [`PtCache`] is the slot-addressed store behind that reuse: one slot per
//! (tree node × ω class), validated by a [`PtKey`] capturing *which*
//! eigendecomposition ([`EigenSystem::id`]) and *which exact* branch
//! length bits produced the stored operator. A slot whose key matches is
//! guaranteed to hold the same bytes a fresh reconstruction would produce,
//! because reconstruction is a deterministic function of (decomposition,
//! t).
//!
//! It is not a shared map: each likelihood evaluator owns one, no
//! locking, and lookups are a slot index plus one key comparison — cheap
//! enough for the hot path.

use crate::EigenSystem;

/// Identity of a reconstruction input: which eigendecomposition and which
/// exact branch-length bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtKey {
    /// [`EigenSystem::id`] of the decomposition reconstructed from.
    pub eigensystem: u64,
    /// `t.to_bits()` of the branch length reconstructed at.
    pub t_bits: u64,
}

impl PtKey {
    /// Key for reconstructing from `es` at branch length `t`.
    pub fn new(es: &EigenSystem, t: f64) -> PtKey {
        PtKey {
            eigensystem: es.id(),
            t_bits: t.to_bits(),
        }
    }
}

/// A fixed-geometry, slot-addressed cache of per-branch reconstructions.
///
/// `V` is whatever the reconstruction produces (the likelihood engine
/// stores its `TransOp`); this crate only manages validity and stats.
#[derive(Debug, Default)]
pub struct PtCache<V> {
    slots: Vec<Option<(PtKey, V)>>,
    hits: u64,
    misses: u64,
}

impl<V> PtCache<V> {
    /// An empty cache with `n_slots` addressable slots.
    pub fn new(n_slots: usize) -> PtCache<V> {
        let mut slots = Vec::new();
        slots.resize_with(n_slots, || None);
        PtCache {
            slots,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of addressable slots.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Re-dimension to `n_slots`, dropping every cached value (the slot
    /// addressing scheme changed, so old entries are meaningless).
    pub fn resize(&mut self, n_slots: usize) {
        if self.slots.len() != n_slots {
            self.slots.clear();
            self.slots.resize_with(n_slots, || None);
        }
    }

    /// Check whether `slot` currently holds a value produced under `key`,
    /// recording a hit or miss. A `true` return guarantees
    /// [`PtCache::value`] for the same slot is the bit-identical result of
    /// recomputing under `key`. A miss drops the slot's stale value at
    /// once: the caller rebuilds every missed slot, so keeping it would
    /// only hold the old and the new operator in memory together.
    // check: hot reuse-engine per-operator validity probe
    pub fn probe(&mut self, slot: usize, key: PtKey) -> bool {
        let current = matches!(self.slots.get(slot), Some(Some((k, _))) if *k == key);
        if current {
            self.hits += 1;
        } else {
            self.misses += 1;
            if let Some(stale) = self.slots.get_mut(slot) {
                *stale = None;
            }
        }
        current
    }

    /// The value stored in `slot`, regardless of key (callers gate on
    /// [`PtCache::probe`] first).
    // check: hot reuse-engine operator fetch
    pub fn value(&self, slot: usize) -> Option<&V> {
        self.slots
            .get(slot)
            .and_then(|s| s.as_ref())
            .map(|(_, v)| v)
    }

    /// Store `value` in `slot` under `key`, replacing any previous entry.
    ///
    /// # Panics
    /// Panics if `slot` is out of range (caller sized the cache).
    pub fn insert(&mut self, slot: usize, key: PtKey, value: V) {
        self.slots[slot] = Some((key, value));
    }

    /// (hits, misses) probe counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hits / (hits + misses); defined as 0.0 before any probe so sinks
    /// never see NaN.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Drop every cached value (keys included), keeping the geometry and
    /// the counters.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(es: u64, t: f64) -> PtKey {
        PtKey {
            eigensystem: es,
            t_bits: t.to_bits(),
        }
    }

    #[test]
    fn probe_miss_then_hit() {
        let mut c: PtCache<u32> = PtCache::new(4);
        assert!(!c.probe(2, key(1, 0.5)));
        c.insert(2, key(1, 0.5), 42);
        assert!(c.probe(2, key(1, 0.5)));
        assert_eq!(c.value(2), Some(&42));
        assert_eq!(c.stats(), (1, 1));
    }

    #[test]
    fn key_changes_invalidate() {
        let mut c: PtCache<u32> = PtCache::new(1);
        c.insert(0, key(1, 0.5), 7);
        // Different branch length bits.
        assert!(!c.probe(0, key(1, 0.5 + 1e-16)));
        // Different decomposition identity.
        assert!(!c.probe(0, key(2, 0.5)));
        // A miss drops the stale value.
        assert_eq!(c.value(0), None);
    }

    #[test]
    fn out_of_range_probe_is_a_miss() {
        let mut c: PtCache<u32> = PtCache::new(1);
        assert!(!c.probe(5, key(1, 1.0)));
        assert_eq!(c.value(5), None);
    }

    #[test]
    fn resize_drops_values() {
        let mut c: PtCache<u32> = PtCache::new(2);
        c.insert(1, key(1, 1.0), 9);
        c.resize(3);
        assert!(!c.probe(1, key(1, 1.0)));
        // Same-size resize keeps entries.
        c.insert(1, key(1, 1.0), 9);
        c.resize(3);
        assert!(c.probe(1, key(1, 1.0)));
    }

    #[test]
    fn hit_rate_never_nan() {
        let c: PtCache<u32> = PtCache::new(1);
        assert_eq!(c.hit_rate(), 0.0);
        let mut c = c;
        c.insert(0, key(1, 1.0), 1);
        let _ = c.probe(0, key(1, 1.0));
        let _ = c.probe(0, key(1, 2.0));
        assert_eq!(c.hit_rate(), 0.5);
    }

    #[test]
    fn clear_keeps_geometry() {
        let mut c: PtCache<u32> = PtCache::new(2);
        c.insert(0, key(1, 1.0), 3);
        c.clear();
        assert_eq!(c.n_slots(), 2);
        assert!(!c.probe(0, key(1, 1.0)));
    }

    #[test]
    fn eigensystem_ids_are_distinct_and_shared_by_clones() {
        use slim_bio::GeneticCode;
        use slim_model::{build_rate_matrix, ScalePolicy};
        let code = GeneticCode::universal();
        let pi = vec![1.0 / 61.0; 61];
        let rm = build_rate_matrix(&code, 2.0, 0.5, &pi, ScalePolicy::PerClass);
        let a = EigenSystem::from_rate_matrix(&rm, slim_linalg::EigenMethod::HouseholderQl)
            .expect("eigen");
        let b = EigenSystem::from_rate_matrix(&rm, slim_linalg::EigenMethod::HouseholderQl)
            .expect("eigen");
        assert_ne!(a.id(), b.id(), "fresh decompositions get fresh ids");
        assert_eq!(a.clone().id(), a.id(), "clones keep the id");
    }
}
