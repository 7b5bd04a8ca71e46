//! Cross-evaluation eigendecomposition cache.
//!
//! During derivative-based optimization most likelihood evaluations perturb
//! a *branch length*, leaving (κ, ω, π) — and hence the eigendecomposition
//! — unchanged. Caching `EigenSystem`s keyed by the exact parameter bits
//! lets those evaluations skip §III-A steps 1–2 entirely. This goes one
//! step beyond the paper (which rebuilds per iteration) and is ablated in
//! the benches; the Slim engine uses it, the CodeML-style engine does not.

use crate::EigenSystem;
use parking_lot::Mutex;
use slim_linalg::EigenMethod;
use slim_model::RateMatrix;
use slim_obs::trace::{self, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Exact-bits cache key: (κ, ω, scale-policy-resolved Q) are captured by
/// hashing κ/ω bit patterns plus a fingerprint of π.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    kappa_bits: u64,
    omega_bits: u64,
    pi_fingerprint: u64,
    scale_bits: u64,
}

/// A bounded map from rate-matrix parameters to shared eigendecompositions.
#[derive(Debug)]
pub struct EigenCache {
    map: Mutex<HashMap<Key, Arc<EigenSystem>>>,
    capacity: usize,
    // Plain atomics: the parallel eigen phase probes the cache from
    // several threads at once, and the counters must not serialize it.
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl EigenCache {
    /// Fallback capacity when nothing is known about the problem shape.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// Smallest capacity [`EigenCache::adaptive_capacity`] will pick.
    pub const MIN_ADAPTIVE_CAPACITY: usize = 16;

    /// Largest capacity [`EigenCache::adaptive_capacity`] will pick.
    pub const MAX_ADAPTIVE_CAPACITY: usize = 1024;

    /// Capacity sized to the problem: `branches × ω-classes`, clamped to
    /// `[MIN_ADAPTIVE_CAPACITY, MAX_ADAPTIVE_CAPACITY]`.
    ///
    /// One optimizer iteration touches at most one eigensystem per
    /// (branch-site ω class) per distinct scale factor, and line searches
    /// along a single branch revisit the same keys; `branches ×
    /// ω-classes` therefore covers a full evaluation sweep without a
    /// wholesale clear, while the clamp keeps tiny trees from thrashing
    /// and huge trees from hoarding (an `EigenSystem` is ~60 KiB at
    /// codon order 61).
    pub fn adaptive_capacity(branches: usize, omega_classes: usize) -> usize {
        branches
            .saturating_mul(omega_classes)
            .clamp(Self::MIN_ADAPTIVE_CAPACITY, Self::MAX_ADAPTIVE_CAPACITY)
    }

    /// Create a cache holding at most `capacity` decompositions (it is
    /// cleared wholesale when full — parameter trajectories revisit few
    /// distinct values, so LRU machinery is not worth its overhead).
    pub fn new(capacity: usize) -> EigenCache {
        crate::obsm::metrics().capacity.set(capacity.max(1) as f64);
        EigenCache {
            map: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Fetch or compute the eigensystem for `(kappa, omega, rm)`.
    ///
    /// # Errors
    /// Propagates eigensolver failures (never cached).
    pub fn get_or_compute(
        &self,
        kappa: f64,
        omega: f64,
        rm: &RateMatrix,
        method: EigenMethod,
    ) -> Result<Arc<EigenSystem>, slim_linalg::LinalgError> {
        let key = Key {
            kappa_bits: kappa.to_bits(),
            omega_bits: omega.to_bits(),
            pi_fingerprint: fingerprint(&rm.pi),
            scale_bits: rm.applied_factor.to_bits(),
        };
        if let Some(found) = self.map.lock().get(&key).cloned() {
            // check: allow(atomic-ordering) monotonic hit counter, no synchronization role
            self.hits.fetch_add(1, Ordering::Relaxed);
            crate::obsm::metrics().hits.inc();
            trace::instant_with("expm.cache.hit", "expm", || {
                vec![("kappa", Value::F64(kappa)), ("omega", Value::F64(omega))]
            });
            return Ok(found);
        }
        // check: allow(atomic-ordering) monotonic miss counter, no synchronization role
        self.misses.fetch_add(1, Ordering::Relaxed);
        crate::obsm::metrics().misses.inc();
        trace::instant_with("expm.cache.miss", "expm", || {
            vec![("kappa", Value::F64(kappa)), ("omega", Value::F64(omega))]
        });
        let es = Arc::new(EigenSystem::from_rate_matrix(rm, method)?);
        let mut map = self.map.lock();
        if map.len() >= self.capacity {
            let evicted = map.len() as u64;
            // check: allow(atomic-ordering) monotonic eviction counter, no synchronization role
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            crate::obsm::metrics().evictions.add(map.len() as u64);
            trace::instant_with("expm.cache.evict", "expm", || {
                vec![("entries", Value::U64(map.len() as u64))]
            });
            map.clear();
        }
        map.insert(key, es.clone());
        crate::obsm::metrics().occupancy.set(map.len() as f64);
        Ok(es)
    }

    /// (hits, misses) counters — used by ablation benches to verify the
    /// cache is actually being exercised.
    pub fn stats(&self) -> (u64, u64) {
        (
            // check: allow(atomic-ordering) approximate stats read, counters are metrics-only
            self.hits.load(Ordering::Relaxed),
            // check: allow(atomic-ordering) approximate stats read, counters are metrics-only
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// The maximum number of resident decompositions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries evicted so far by wholesale capacity clears.
    pub fn evictions(&self) -> u64 {
        // check: allow(atomic-ordering) approximate stats read, counter is metrics-only
        self.evictions.load(Ordering::Relaxed)
    }

    /// Hits / (hits + misses), or `None` before any access.
    pub fn hit_rate(&self) -> Option<f64> {
        let (hits, misses) = self.stats();
        let total = hits + misses;
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// Drop all cached decompositions.
    pub fn clear(&self) {
        self.map.lock().clear();
    }
}

/// Order-sensitive 64-bit FNV-1a over the frequency bit patterns.
fn fingerprint(pi: &[f64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &p in pi {
        for b in p.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use slim_bio::GeneticCode;
    use slim_model::{build_rate_matrix, ScalePolicy};

    fn rm(omega: f64) -> RateMatrix {
        let code = GeneticCode::universal();
        let pi = vec![1.0 / 61.0; 61];
        build_rate_matrix(&code, 2.0, omega, &pi, ScalePolicy::PerClass)
    }

    #[test]
    fn cache_hits_on_repeat() {
        let cache = EigenCache::new(16);
        let m = rm(0.5);
        let a = cache
            .get_or_compute(2.0, 0.5, &m, EigenMethod::HouseholderQl)
            .unwrap();
        let b = cache
            .get_or_compute(2.0, 0.5, &m, EigenMethod::HouseholderQl)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn distinct_omegas_miss() {
        let cache = EigenCache::new(16);
        let _ = cache
            .get_or_compute(2.0, 0.5, &rm(0.5), EigenMethod::HouseholderQl)
            .unwrap();
        let _ = cache
            .get_or_compute(2.0, 1.0, &rm(1.0), EigenMethod::HouseholderQl)
            .unwrap();
        assert_eq!(cache.stats(), (0, 2));
    }

    #[test]
    fn capacity_bound_respected() {
        let cache = EigenCache::new(1);
        let _ = cache
            .get_or_compute(2.0, 0.5, &rm(0.5), EigenMethod::HouseholderQl)
            .unwrap();
        let _ = cache
            .get_or_compute(2.0, 1.0, &rm(1.0), EigenMethod::HouseholderQl)
            .unwrap();
        // First entry was evicted by the wholesale clear.
        let _ = cache
            .get_or_compute(2.0, 0.5, &rm(0.5), EigenMethod::HouseholderQl)
            .unwrap();
        let (hits, misses) = cache.stats();
        assert_eq!(hits, 0);
        assert_eq!(misses, 3);
        // Each of the two wholesale clears dropped one resident entry.
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn hit_rate_reflects_stats() {
        let cache = EigenCache::new(16);
        assert_eq!(cache.hit_rate(), None);
        let m = rm(0.5);
        for _ in 0..4 {
            let _ = cache
                .get_or_compute(2.0, 0.5, &m, EigenMethod::HouseholderQl)
                .unwrap();
        }
        assert_eq!(cache.hit_rate(), Some(0.75));
    }

    #[test]
    fn clear_empties() {
        let cache = EigenCache::new(8);
        let _ = cache
            .get_or_compute(2.0, 0.5, &rm(0.5), EigenMethod::HouseholderQl)
            .unwrap();
        cache.clear();
        let _ = cache
            .get_or_compute(2.0, 0.5, &rm(0.5), EigenMethod::HouseholderQl)
            .unwrap();
        assert_eq!(cache.stats().1, 2);
    }

    #[test]
    fn adaptive_capacity_clamps() {
        // Tiny problem: floor wins.
        assert_eq!(
            EigenCache::adaptive_capacity(3, 3),
            EigenCache::MIN_ADAPTIVE_CAPACITY
        );
        // Mid-size problem: exact product.
        assert_eq!(EigenCache::adaptive_capacity(18, 3), 54);
        // Huge problem: ceiling wins.
        assert_eq!(
            EigenCache::adaptive_capacity(5000, 3),
            EigenCache::MAX_ADAPTIVE_CAPACITY
        );
        let cache = EigenCache::new(EigenCache::adaptive_capacity(18, 3));
        assert_eq!(cache.capacity(), 54);
    }

    #[test]
    fn fingerprint_distinguishes_pi() {
        let mut pi1 = vec![1.0 / 61.0; 61];
        let pi2 = {
            let mut p = pi1.clone();
            p[0] += 1e-9;
            p[1] -= 1e-9;
            p
        };
        assert_ne!(fingerprint(&pi1), fingerprint(&pi2));
        pi1[0] += 0.0; // no-op keeps mutability warning away
    }
}
