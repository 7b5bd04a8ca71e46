//! The flight recorder: per-thread event buffers draining into one
//! bounded global ring.
//!
//! Instrumented threads never contend on the hot path — each thread
//! appends to its own thread-local buffer (plain `Vec`, no locks, no
//! atomics beyond the sequence counter) and only takes the global
//! mutex when the buffer fills, when it is flushed explicitly, or when
//! the thread exits (the buffer's `Drop` flushes). The global ring
//! keeps the most recent `capacity` events and counts what it had to
//! drop, so exports can report truncation instead of hiding it.

use super::event::{Event, Phase, Value};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default global ring capacity (events). A full H0+H1 fit on the
/// Table II analogs emits on the order of 10⁵ events with worker spans
/// on; the default keeps the whole run for export while bounding
/// memory (~100 B/event).
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// Thread-local buffer length that triggers a drain into the ring.
const FLUSH_THRESHOLD: usize = 128;

/// Global sequence counter: total order across threads.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Stable small thread ids, assigned on first event per thread.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// The trace epoch: all timestamps are microseconds since this.
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// The global bounded ring.
struct Ring {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, e: Event) {
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(e);
    }
}

static RING: OnceLock<Mutex<Ring>> = OnceLock::new();

fn ring() -> &'static Mutex<Ring> {
    RING.get_or_init(|| {
        Mutex::new(Ring {
            events: VecDeque::new(),
            capacity: DEFAULT_CAPACITY,
            dropped: 0,
        })
    })
}

/// Per-thread state: assigned tid plus the pending event buffer.
struct TlBuf {
    tid: u64,
    events: Vec<Event>,
}

impl TlBuf {
    fn flush(&mut self) {
        if self.events.is_empty() {
            return;
        }
        let mut ring = ring().lock().unwrap_or_else(|e| e.into_inner());
        for e in self.events.drain(..) {
            ring.push(e);
        }
    }
}

impl Drop for TlBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static TLBUF: RefCell<TlBuf> = RefCell::new(TlBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        events: Vec::with_capacity(FLUSH_THRESHOLD),
    });
}

/// Record one event from the current thread, stamped at `at`. Callers
/// have already checked [`super::enabled`] and read the clock; this
/// stamps the sequence number and appends to the thread-local buffer.
pub(crate) fn record(
    at: Instant,
    phase: Phase,
    name: &'static str,
    cat: &'static str,
    args: Vec<(&'static str, Value)>,
) {
    let ts_us =
        u64::try_from(at.saturating_duration_since(epoch()).as_micros()).unwrap_or(u64::MAX);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    TLBUF.with(|b| {
        // `with` + `borrow_mut` cannot re-enter: record() is the only
        // borrower and never calls itself.
        let mut b = b.borrow_mut();
        let tid = b.tid;
        b.events.push(Event {
            seq,
            ts_us,
            tid,
            phase,
            name,
            cat,
            args,
        });
        if b.events.len() >= FLUSH_THRESHOLD {
            b.flush();
        }
    });
}

/// Flush the calling thread's pending events into the global ring.
/// Exporters call this on their own thread before draining; threads
/// also flush automatically when they terminate. **Scoped threads**
/// (`std::thread::scope`, crossbeam scopes) must call this at the end
/// of the spawned closure: the scope unblocks when the closure
/// returns, *before* thread-local destructors run, so an automatic
/// exit-flush can land after the parent has already drained the ring.
pub fn flush_thread() {
    TLBUF.with(|b| b.borrow_mut().flush());
}

/// Replace the ring capacity (most-recent `capacity` events are kept).
/// Also resets the drop counter.
pub fn set_capacity(capacity: usize) {
    let mut ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    ring.capacity = capacity.max(1);
    while ring.events.len() > ring.capacity {
        ring.events.pop_front();
    }
    ring.dropped = 0;
}

/// Discard all recorded events (the calling thread's buffer included)
/// and reset the drop counter.
pub fn clear() {
    TLBUF.with(|b| b.borrow_mut().events.clear());
    let mut ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    ring.events.clear();
    ring.dropped = 0;
}

/// Drain every recorded event, oldest first (flushes the calling
/// thread's buffer first). Returns the events and how many older
/// events the ring had to drop to stay within capacity.
pub fn take_events() -> (Vec<Event>, u64) {
    flush_thread();
    let mut ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    let events = ring.events.drain(..).collect();
    let dropped = ring.dropped;
    ring.dropped = 0;
    (events, dropped)
}

/// The most recent `n` events rendered as compact one-line strings,
/// without draining — the flight-recorder view a journal or quarantine
/// record embeds when a failure needs its history attached.
pub fn dump_lines(n: usize) -> Vec<String> {
    flush_thread();
    let ring = ring().lock().unwrap_or_else(|e| e.into_inner());
    let skip = ring.events.len().saturating_sub(n);
    ring.events.iter().skip(skip).map(Event::to_line).collect()
}
