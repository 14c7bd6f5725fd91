//! Minimal synchronization shim with the `parking_lot` surface this
//! workspace needs (`Mutex::new` / infallible `lock`), implemented over
//! `std::sync`, plus the [`EarlyExitToken`] the cancellable search runtime
//! polls. Keeping the API identical lets the overlay, the helper pool and
//! the "original parallel version" simulations stay byte-for-byte the same
//! if the real crate is ever dropped in.

use std::fmt;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::MutexGuard;

/// A mutex whose `lock` never returns a poison error: a panicked holder
/// simply passes the (still structurally valid) data on, matching
/// `parking_lot::Mutex` semantics closely enough for the runtime's
/// element-wise counters.
#[derive(Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Mutex<T> {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    /// Acquires the lock, ignoring poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_lock() {
            Ok(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            Err(_) => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// The cancellation token of the speculative search runtime: a shared
/// monotonically-decreasing "lowest chunk with a hit" register.
///
/// Chunks are numbered in iteration order. A worker that finds a hit in
/// chunk `c` calls [`EarlyExitToken::offer`]`(c)`; workers poll
/// [`EarlyExitToken::cancels`] before starting a chunk and stop once a
/// strictly earlier chunk is known to have hit — nothing a later chunk
/// finds can precede that hit in sequential order. The register only ever
/// decreases, so a cancelled chunk stays cancelled.
#[derive(Debug, Default)]
pub struct EarlyExitToken {
    /// Lowest chunk index with a hit; `i64::MAX` while none is known.
    best: AtomicI64,
}

impl EarlyExitToken {
    /// A token with no hit recorded.
    #[must_use]
    pub fn new() -> EarlyExitToken {
        EarlyExitToken { best: AtomicI64::new(i64::MAX) }
    }

    /// Records a hit in chunk `chunk`, keeping the lowest index offered.
    pub fn offer(&self, chunk: i64) {
        self.best.fetch_min(chunk, Ordering::SeqCst);
    }

    /// Whether work on `chunk` is moot: a strictly earlier chunk already
    /// hit. The chunk holding the current best is *not* cancelled (its own
    /// hit is the candidate result).
    #[must_use]
    pub fn cancels(&self, chunk: i64) -> bool {
        self.best.load(Ordering::SeqCst) < chunk
    }

    /// The lowest chunk index with a recorded hit, if any. An aborted
    /// token has no winner: the abort sentinel is not a hit.
    #[must_use]
    pub fn winner(&self) -> Option<i64> {
        match self.best.load(Ordering::SeqCst) {
            i64::MAX | i64::MIN => None,
            c => Some(c),
        }
    }

    /// Aborts the speculative schedule: every chunk — including chunk 0 —
    /// reads as cancelled from now on, and [`EarlyExitToken::winner`]
    /// reports no hit. Used when speculation must be torn down without a
    /// result (an injected cancellation race, or a supervisor deciding
    /// the schedule is beyond saving); the executor then degrades to the
    /// sequential fallback. Irreversible for this token's lifetime —
    /// `i64::MIN` is below every real offer, so no later `offer` can
    /// resurrect the schedule — but the token itself stays structurally
    /// valid and reusable for polling (no lock, no poison).
    pub fn abort(&self) {
        self.best.store(i64::MIN, Ordering::SeqCst);
    }

    /// Whether [`EarlyExitToken::abort`] was called.
    #[must_use]
    pub fn aborted(&self) -> bool {
        self.best.load(Ordering::SeqCst) == i64::MIN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn contended_increments() {
        let m = Arc::new(Mutex::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn token_keeps_lowest_offer() {
        let t = EarlyExitToken::new();
        assert_eq!(t.winner(), None);
        assert!(!t.cancels(0));
        t.offer(7);
        t.offer(12);
        t.offer(3);
        assert_eq!(t.winner(), Some(3));
        assert!(t.cancels(4), "later chunks are moot");
        assert!(!t.cancels(3), "the best chunk itself is not cancelled");
        assert!(!t.cancels(1), "earlier chunks must still run");
    }

    #[test]
    fn aborted_token_cancels_everything_and_has_no_winner() {
        let t = EarlyExitToken::new();
        t.offer(5);
        t.abort();
        assert!(t.aborted());
        assert!(t.cancels(0), "abort cancels even chunk 0");
        assert!(t.cancels(i64::MIN + 1));
        assert_eq!(t.winner(), None, "the abort sentinel is not a hit");
        t.offer(2);
        assert!(t.aborted(), "no offer resurrects an aborted schedule");
        assert_eq!(t.winner(), None);
    }

    #[test]
    fn fresh_token_is_not_aborted() {
        let t = EarlyExitToken::new();
        assert!(!t.aborted());
        t.offer(0);
        assert!(!t.aborted());
    }

    #[test]
    fn token_concurrent_offers_keep_minimum() {
        let t = EarlyExitToken::new();
        std::thread::scope(|s| {
            for k in 0..8i64 {
                let t = &t;
                s.spawn(move || {
                    for j in 0..100 {
                        t.offer(k * 100 + j + 1);
                    }
                });
            }
        });
        assert_eq!(t.winner(), Some(1));
    }
}
