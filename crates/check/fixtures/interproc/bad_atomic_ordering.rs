//@ path: crates/batch/src/atomics.rs
// Bad: SeqCst without a waiver, Relaxed outside the obs counter
// crate, and a Release store with no Acquire load anywhere in the
// file (a hand-off that synchronizes nothing).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub fn publish(flag: &AtomicBool) {
    flag.store(true, Ordering::SeqCst); //~ atomic-ordering
}

pub fn count(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed); //~ atomic-ordering
}

pub fn handoff(flag: &AtomicBool) {
    flag.store(true, Ordering::Release); //~ atomic-ordering
}
