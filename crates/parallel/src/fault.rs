//! Deterministic fault-injection seams for the speculative runtime.
//!
//! The fault-tolerance claims of this crate — a panicking worker is
//! contained, a cancelled schedule degrades to the sequential fallback —
//! are only worth anything if they are *exercised*. This module provides
//! the two seams the executor's worker loops consult so a test harness
//! (`gr_benchsuite::faultinject`) can force those failures at an exact,
//! reproducible site:
//!
//! * [`InjectGuard::panic_at_chunk`] — the worker that claims the chosen
//!   chunk panics (payload prefixed [`PANIC_PREFIX`]) instead of running
//!   it;
//! * [`InjectGuard::abort_at_chunk`] — the worker that claims the chosen
//!   chunk aborts the [`EarlyExitToken`](crate::sync::EarlyExitToken)
//!   instead of running it, simulating a cancellation race where the
//!   schedule is torn down under the workers.
//!
//! Determinism contract:
//!
//! * Injection is **one-shot**: the first worker to reach the armed site
//!   consumes it (atomic compare-exchange on the guard's own seam), so one
//!   guard means exactly one injected fault no matter how many passes or
//!   workers run.
//! * The seams are consulted **only in the worker claim loops**, never on
//!   the sequential fallback paths — an injected fault can therefore not
//!   re-fire while the executor is recovering from it.
//! * A guard arms **only the thread that creates it**. An executor run
//!   reads the calling thread's seams once and hands them to the workers
//!   it spawns, so runs on other threads never see them and concurrent
//!   tests need no lock. Guards nest: an inner guard shadows the outer
//!   one until it drops, and dropping a guard disarms whatever never
//!   fired (e.g. a chunk index past the schedule).
//!
//! The first guard also installs a panic hook that suppresses the default
//! "thread panicked" stderr report for payloads carrying [`PANIC_PREFIX`]
//! (anything else is delegated to the previously installed hook), keeping
//! fault-heavy test logs readable. The hook is the one process-wide piece:
//! a panic hook is process-wide by nature.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::panic;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, OnceLock};

/// Marker prefix of injected panic payloads; the suppression hook and the
/// containment tests key on it.
pub const PANIC_PREFIX: &str = "gr-fault:";

/// "Nothing armed" sentinel for the seam atomics.
const NONE: i64 = -1;

/// The two seams one guard owns, shared with the workers of the runs it
/// covers.
pub(crate) struct Seams {
    /// Chunk index at which the claiming worker panics (`NONE`: disarmed).
    panic_chunk: AtomicI64,
    /// Chunk index at which the claiming worker aborts the token.
    abort_chunk: AtomicI64,
}

thread_local! {
    /// The seams of the innermost live guard on this thread.
    static ARMED: RefCell<Option<Arc<Seams>>> = const { RefCell::new(None) };
}

/// The seams armed on the calling thread, if any: read once per executor
/// run and handed to its workers.
pub(crate) fn armed() -> Option<Arc<Seams>> {
    ARMED.with_borrow(Option::clone)
}

/// Consumes `seam` iff it is armed for exactly `chunk`.
fn consume(seam: &AtomicI64, chunk: usize) -> bool {
    let c = i64::try_from(chunk).unwrap_or(i64::MAX);
    seam.load(Ordering::SeqCst) == c
        && seam.compare_exchange(c, NONE, Ordering::SeqCst, Ordering::SeqCst).is_ok()
}

impl Seams {
    /// Worker-loop seam: panics (payload [`PANIC_PREFIX`]) iff a panic is
    /// armed for exactly `chunk`; one-shot.
    pub(crate) fn maybe_panic(&self, chunk: usize) {
        if consume(&self.panic_chunk, chunk) {
            panic!("{PANIC_PREFIX} injected worker panic at chunk {chunk}");
        }
    }

    /// Worker-loop seam: reports `true` (once) iff a token abort is armed
    /// for exactly `chunk`; the caller performs the abort.
    pub(crate) fn abort_requested(&self, chunk: usize) -> bool {
        consume(&self.abort_chunk, chunk)
    }
}

fn install_suppression_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            if msg.is_some_and(|m| m.starts_with(PANIC_PREFIX)) {
                return; // injected and about to be contained: stay quiet
            }
            prev(info);
        }));
    });
}

/// A fault armed on the thread that created it. Dropping it restores the
/// guard it shadowed, disarming whatever has not fired yet. `!Send`: it
/// must drop on the thread it armed.
#[must_use = "the fault stays armed only while the guard lives"]
pub struct InjectGuard {
    seams: Arc<Seams>,
    outer: Option<Arc<Seams>>,
    _not_send: PhantomData<*const ()>,
}

impl InjectGuard {
    fn arm(panic_chunk: i64, abort_chunk: i64) -> InjectGuard {
        install_suppression_hook();
        let seams = Arc::new(Seams {
            panic_chunk: AtomicI64::new(panic_chunk),
            abort_chunk: AtomicI64::new(abort_chunk),
        });
        let outer = ARMED.with(|a| a.replace(Some(Arc::clone(&seams))));
        InjectGuard { seams, outer, _not_send: PhantomData }
    }

    /// Arms a worker panic: the worker claiming chunk `chunk` (in any
    /// executor pass) panics before running it.
    pub fn panic_at_chunk(chunk: i64) -> InjectGuard {
        assert!(chunk >= 0, "chunk indices are non-negative");
        InjectGuard::arm(chunk, NONE)
    }

    /// Arms a token abort: the worker claiming chunk `chunk` on the
    /// speculative schedule aborts the cancellation token before running
    /// it. Non-search passes ignore this seam (they have no token).
    pub fn abort_at_chunk(chunk: i64) -> InjectGuard {
        assert!(chunk >= 0, "chunk indices are non-negative");
        InjectGuard::arm(NONE, chunk)
    }

    /// Whether the armed fault has fired (been consumed) already.
    #[must_use]
    pub fn fired(&self) -> bool {
        self.seams.panic_chunk.load(Ordering::SeqCst) == NONE
            && self.seams.abort_chunk.load(Ordering::SeqCst) == NONE
    }
}

impl Drop for InjectGuard {
    fn drop(&mut self) {
        ARMED.with(|a| *a.borrow_mut() = self.outer.take());
    }
}

/// Renders a caught panic payload for error reports: the `String`/`&str`
/// message when there is one, a placeholder otherwise.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seams_are_one_shot_and_disarmed_on_drop() {
        {
            let g = InjectGuard::panic_at_chunk(3);
            let seams = armed().expect("armed on this thread");
            assert!(!g.fired());
            seams.maybe_panic(2); // wrong site: nothing happens
            assert!(!g.fired());
            let err = std::panic::catch_unwind(|| seams.maybe_panic(3)).unwrap_err();
            assert!(panic_message(&*err).starts_with(PANIC_PREFIX));
            assert!(g.fired(), "the fault is consumed by firing");
            seams.maybe_panic(3); // already consumed: nothing happens
        }
        assert!(armed().is_none(), "guard dropped: disarmed");
    }

    #[test]
    fn abort_seam_fires_once_at_its_site() {
        let g = InjectGuard::abort_at_chunk(1);
        let seams = armed().expect("armed on this thread");
        assert!(!seams.abort_requested(0));
        assert!(seams.abort_requested(1));
        assert!(g.fired());
        assert!(!seams.abort_requested(1), "one-shot");
        drop(g);
        assert!(armed().is_none());
    }

    #[test]
    fn guards_arm_only_their_own_thread() {
        let outer = InjectGuard::abort_at_chunk(0);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(armed().is_none(), "another thread's guard is invisible");
                let _own = InjectGuard::panic_at_chunk(0);
                assert!(!armed().expect("own guard").abort_requested(0));
            });
        });
        // An inner guard shadows the outer one until it drops.
        let inner = InjectGuard::panic_at_chunk(5);
        assert!(!armed().expect("inner guard").abort_requested(0));
        drop(inner);
        assert!(armed().expect("outer guard again").abort_requested(0));
        assert!(outer.fired());
    }

    #[test]
    fn panic_message_renders_common_payloads() {
        let s: Box<dyn std::any::Any + Send> = Box::new("literal");
        assert_eq!(panic_message(&*s), "literal");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("owned"));
        assert_eq!(panic_message(&*s), "owned");
        let s: Box<dyn std::any::Any + Send> = Box::new(42usize);
        assert_eq!(panic_message(&*s), "non-string panic payload");
    }
}
