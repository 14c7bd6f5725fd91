//! The helper threads one runtime handler keeps between calls.
//!
//! A [`Pool`] runs job `0` of every [`Pool::run`] on the calling thread and
//! jobs `1..n` on helper threads it spawns the first time a run needs them
//! and parks on a channel between runs; dropping the pool closes the
//! channels and joins the helpers. Nothing here is process-wide: each
//! handler owns its pool, so a run wakes `n − 1` parked threads instead of
//! starting `n` fresh ones, and a one-job run starts none.
//!
//! Jobs borrow the caller's data exactly as `std::thread::scope` closures
//! do: `run` returns only after every job has reported, also when the
//! caller's own job unwinds. That guarantee is what makes the one `unsafe`
//! of this module sound.

use crate::sync::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::{self, JoinHandle};

/// A type-erased job a helper runs: it runs the borrowing closure, then
/// reports the outcome on the run's result channel.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// One parked helper: its task channel and its thread.
struct Helper {
    tasks: Sender<Task>,
    thread: JoinHandle<()>,
}

/// Helper threads parked between runs; see the module docs.
#[derive(Default)]
pub(crate) struct Pool {
    /// Locked for a whole run, so concurrent callers of one handler take
    /// turns instead of handing one helper two runs' jobs.
    helpers: Mutex<Vec<Helper>>,
}

#[cfg(test)]
thread_local! {
    /// Helpers spawned by runs on this thread: lets a test check that a
    /// reused pool spawns nothing, without seeing other tests' pools.
    static SPAWNED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Helpers spawned so far by runs on the calling thread.
#[cfg(test)]
pub(crate) fn spawned_here() -> usize {
    SPAWNED.get()
}

impl Pool {
    /// Runs `job(0)` on the calling thread and `job(1)`, …, `job(n - 1)`
    /// on helpers, spawning the missing ones, and returns the results in
    /// index order. Each helper job records into a trace worker slot taken
    /// here, in index order, and bound on the helper only while the job
    /// runs; job 0 records on the caller's own lane.
    ///
    /// Returns only once every job has finished. A job that panicked is
    /// re-raised here after that, the lowest index first.
    pub(crate) fn run<R, F>(&self, n: usize, job: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize) -> R + Sync,
    {
        if n <= 1 {
            return (0..n).map(&job).collect();
        }
        let mut helpers = self.helpers.lock();
        while helpers.len() < n - 1 {
            let (tasks, parked) = mpsc::channel();
            let thread = thread::Builder::new()
                .name("gr-helper".to_string())
                .spawn(move || park(&parked))
                .expect("spawn a runtime helper thread");
            #[cfg(test)]
            SPAWNED.set(SPAWNED.get() + 1);
            helpers.push(Helper { tasks, thread });
        }
        // Everything that may fail happens before the first task leaves.
        let slots: Vec<Option<gr_trace::Worker>> = (1..n).map(|_| gr_trace::worker()).collect();
        let mut outs: Vec<Option<thread::Result<R>>> = (1..n).map(|_| None).collect();
        let (report, reports) = mpsc::channel::<(usize, thread::Result<R>)>();
        let job = &job;
        for ((i, slot), helper) in (1..n).zip(slots).zip(helpers.iter()) {
            let report = report.clone();
            let run = move || {
                let _trace = slot.map(gr_trace::Worker::bind);
                job(i)
            };
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                // `run`, the only capture that borrows, is consumed (and
                // its trace binding dropped) before the job reports.
                let out = catch_unwind(AssertUnwindSafe(run));
                let _ = report.send((i, out));
            });
            // SAFETY: the task borrows `job`, which outlives this call, and
            // nothing else. This call does not return, normally or by
            // unwinding, before every task sent here has reported or been
            // dropped unrun: nothing from the first send through the
            // receive loop below can panic (the slots and `outs` are made
            // first, and job 0 runs under `catch_unwind`), and that loop
            // ends only after `n - 1` reports or once every `report`
            // sender, one per task, is gone. A task reports after its last
            // use of the borrow, and what it reports is `'static`
            // (`R: 'static`), so no borrow escapes. Erasing the lifetime
            // lets a `'static` helper thread run it.
            let task: Task = unsafe { std::mem::transmute(task) };
            if let Err(mpsc::SendError(task)) = helper.tasks.send(task) {
                task(); // a helper that is gone: run its job here instead
            }
        }
        drop(report);
        let first = catch_unwind(AssertUnwindSafe(|| job(0)));
        for _ in 1..n {
            let Ok((i, out)) = reports.recv() else { break };
            outs[i - 1] = Some(out);
        }
        drop(helpers);
        std::iter::once(first)
            .chain(outs.into_iter().map(|o| o.expect("every helper job reports")))
            .map(|out| out.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect()
    }
}

/// A helper's life: run each task it is handed until the pool drops its
/// sender. Tasks contain their own panics, so the loop never unwinds.
fn park(tasks: &Receiver<Task>) {
    while let Ok(task) = tasks.recv() {
        task();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for Helper { tasks, thread } in self.helpers.lock().drain(..) {
            drop(tasks);
            let _ = thread.join(); // `park` never panics; nothing to report
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = Pool::default();
        for n in [1usize, 2, 3, 8] {
            // Job `i` finishes only after job `i + 1`: results arrive in
            // reverse order.
            let (next, turn) = (Mutex::new(n - 1), crate::sync::Condvar::new());
            let got = pool.run(n, |i| {
                let mut next = next.lock();
                while *next != i {
                    next = turn.wait(next);
                }
                *next = i.wrapping_sub(1);
                turn.notify_all();
                i * 10
            });
            assert_eq!(got, (0..n).map(|i| i * 10).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn a_panicking_caller_job_unwinds_only_after_every_helper_finished() {
        let pool = Pool::default();
        let finished = AtomicBool::new(false);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, |i| {
                if i == 0 {
                    panic!("{} the caller's own job", crate::fault::PANIC_PREFIX);
                }
                thread::sleep(Duration::from_millis(50));
                finished.store(true, Ordering::SeqCst);
            })
        }));
        assert!(caught.is_err(), "the caller's panic re-raises");
        assert!(finished.load(Ordering::SeqCst), "run returned while a helper still ran");
    }

    #[test]
    fn a_helper_panic_re_raises_on_the_caller() {
        let pool = Pool::default();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(3, |i| {
                if i == 2 {
                    panic!("{} helper job {i}", crate::fault::PANIC_PREFIX);
                }
                i
            })
        }));
        let payload = caught.expect_err("the helper's panic re-raises");
        let msg = crate::fault::panic_message(&*payload);
        assert!(msg.ends_with("helper job 2"), "{msg}");
        // The helper contained its panic and serves the next run.
        assert_eq!(pool.run(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn a_second_run_reuses_the_helpers() {
        let pool = Pool::default();
        let before = spawned_here();
        let first = pool.run(4, |_| thread::current().id());
        assert_eq!(spawned_here() - before, 3, "job 0 runs on the caller");
        assert_eq!(first[0], thread::current().id());
        for _ in 0..3 {
            assert_eq!(pool.run(4, |_| thread::current().id()), first);
            assert_eq!(pool.run(2, |_| thread::current().id()), first[..2]);
        }
        assert_eq!(spawned_here() - before, 3, "no run after the first spawns");
        assert!(pool.run(1, |_| thread::current().id()) == first[..1]);
        assert_eq!(spawned_here() - before, 3);
    }
}
