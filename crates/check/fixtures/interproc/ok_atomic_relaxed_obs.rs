//@ path: crates/obs/src/counters_fixture.rs
// OK: Relaxed is the blessed ordering for the observability crate
// (obs) — monotonic counters carry no synchronization role.

use std::sync::atomic::{AtomicU64, Ordering};

pub fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}
