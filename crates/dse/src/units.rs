//! The unit runner: the one place this crate hands work to threads.
//!
//! The sweep, every rung of the guided search, the gap study and the
//! plan walk's base runs and optimizer chains are the same loop — `n`
//! independent units, each a pure function of its index — so they share
//! one work-distribution policy: workers pull the next index from a shared
//! counter (no static split a few slow units could leave most threads
//! idling behind), and the answers come back in index order whatever the
//! interleaving was.
//!
//! The workers live for the run, not for the batch. A run (one sweep,
//! one search, one study) opens a [`Workers`] set once, with
//! `threads − 1` helper threads, and the calling thread works as the
//! last worker of every batch it hands out; a batch costs a channel send
//! per helper instead of a thread spawn and join. Each worker is one
//! thread for the whole run, so the units it runs, batch after batch,
//! reuse that thread's lowered-machine memo and scheduler arena. The
//! crate forbids `unsafe`, so helpers cannot borrow a batch's stack: a
//! batch hands over owned work — its closure, behind an `Arc`, over its
//! own data plus references that outlive the run.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// A unit that panicked: its index and the payload it left behind.
type Panic = (usize, Box<dyn Any + Send>);

/// The worker set of one run: senders to its helper threads. The
/// calling thread is the worker it does not hold.
pub(crate) struct Workers<'env> {
    helpers: Vec<Sender<Arc<dyn Work + 'env>>>,
}

impl<'env> Workers<'env> {
    /// Open a set of `threads` workers for the length of `run`: spawn
    /// `threads − 1` helpers, run `run` on the calling thread, then close
    /// the set and join every helper — also when `run` returns early or
    /// unwinds. With `threads <= 1` no thread starts.
    pub(crate) fn scope<R>(threads: usize, run: impl FnOnce(&Workers<'env>) -> R) -> R {
        if threads <= 1 {
            return run(&Workers {
                helpers: Vec::new(),
            });
        }
        std::thread::scope(|scope| {
            let helpers = (1..threads)
                .map(|_| {
                    let (send, jobs) = channel::<Arc<dyn Work + 'env>>();
                    #[cfg(test)]
                    HELPERS_STARTED.set(HELPERS_STARTED.get() + 1);
                    scope.spawn(move || jobs.iter().for_each(|job| job.work()));
                    send
                })
                .collect();
            // Dropping the set closes every channel, which ends every
            // helper's loop before the scope joins them.
            run(&Workers { helpers })
        })
    }

    /// Run `unit(i)` for every `i` in `0..n` on up to `min(n, threads)`
    /// of the set's workers, the caller among them, and return the
    /// answers in index order.
    ///
    /// With a single worker (no helpers, or `n <= 1`) the units run in
    /// order on the calling thread.
    ///
    /// A unit may answer `None` — nothing to do at that index, or the
    /// caller is winding down — and its slot stays empty; the runner
    /// itself never skips or stops, except after a panic.
    ///
    /// # Errors
    /// With more than one worker, the panic payload of the lowest-indexed
    /// unit that panicked, once every worker has left the batch; after a
    /// panic no further unit starts. On a single worker a panic is not
    /// caught.
    pub(crate) fn run<T: Send + 'env>(
        &self,
        n: usize,
        unit: impl Fn(usize) -> Option<T> + Send + Sync + 'env,
    ) -> std::thread::Result<Vec<Option<T>>> {
        let helpers = &self.helpers[..self.helpers.len().min(n.saturating_sub(1))];
        if helpers.is_empty() {
            return Ok((0..n).map(unit).collect());
        }
        let batch = Arc::new(Batch {
            n,
            next: AtomicUsize::new(0),
            unit,
            state: Mutex::new(Handed {
                answers: Vec::with_capacity(n),
                panicked: None,
                pending: helpers.len(),
            }),
            done: Condvar::new(),
        });
        for helper in helpers {
            if helper
                .send(Arc::clone(&batch) as Arc<dyn Work + 'env>)
                .is_err()
            {
                // A helper that is gone cannot hand in.
                batch.lock().pending -= 1;
            }
        }
        let (answers, panicked) = batch.drain();
        let mut state = batch.lock();
        state.hand_in(answers, panicked);
        while state.pending > 0 {
            state = batch
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let Some((_, payload)) = state.panicked.take() {
            return Err(payload);
        }
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, out) in state.answers.drain(..) {
            slots[i] = Some(out);
        }
        Ok(slots)
    }
}

/// A batch as a helper sees it: work on it until it is exhausted, then
/// hand in.
trait Work: Send + Sync {
    fn work(&self);
}

/// One batch: its units, the next index to pull, and what the workers
/// have handed in.
struct Batch<T, F> {
    n: usize,
    next: AtomicUsize,
    unit: F,
    state: Mutex<Handed<T>>,
    /// Signalled when the last helper hands in.
    done: Condvar,
}

/// The answers handed in so far, and how many helpers are still out.
struct Handed<T> {
    answers: Vec<(usize, T)>,
    /// The lowest-indexed unit that panicked, with its payload.
    panicked: Option<Panic>,
    pending: usize,
}

impl<T> Handed<T> {
    fn hand_in(&mut self, answers: Vec<(usize, T)>, panicked: Option<Panic>) {
        self.answers.extend(answers);
        if let Some((i, payload)) = panicked {
            if self.panicked.as_ref().is_none_or(|(j, _)| i < *j) {
                self.panicked = Some((i, payload));
            }
        }
    }
}

impl<T, F: Fn(usize) -> Option<T>> Batch<T, F> {
    fn lock(&self) -> std::sync::MutexGuard<'_, Handed<T>> {
        // Nothing panics while holding the lock, but a poisoned one
        // still holds coherent answers.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pull and run units until none is left, or until one panics (which
    /// also stops every other worker from starting another).
    fn drain(&self) -> (Vec<(usize, T)>, Option<Panic>) {
        let mut mine = Vec::new();
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return (mine, None);
            }
            match catch_unwind(AssertUnwindSafe(|| (self.unit)(i))) {
                Ok(Some(out)) => mine.push((i, out)),
                Ok(None) => {}
                Err(payload) => {
                    self.next.fetch_max(self.n, Ordering::Relaxed);
                    return (mine, Some((i, payload)));
                }
            }
        }
    }
}

impl<T: Send, F: Fn(usize) -> Option<T> + Send + Sync> Work for Batch<T, F> {
    fn work(&self) {
        let (answers, panicked) = self.drain();
        let mut state = self.lock();
        state.hand_in(answers, panicked);
        state.pending -= 1;
        if state.pending == 0 {
            self.done.notify_all();
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Helper threads the calling thread has started, for tests that
    /// count spawns (a per-thread count, so parallel tests do not mix).
    static HELPERS_STARTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Helper threads started so far by worker sets the calling thread
/// opened.
#[cfg(test)]
pub(crate) fn helpers_started() -> u64 {
    HELPERS_STARTED.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    /// `run_units` as it was: one worker set per batch.
    fn run_units<T: Send>(
        n: usize,
        threads: usize,
        unit: impl Fn(usize) -> Option<T> + Send + Sync,
    ) -> std::thread::Result<Vec<Option<T>>> {
        Workers::scope(threads, |workers| workers.run(n, unit))
    }

    #[test]
    fn answers_come_back_in_index_order_for_every_thread_count() {
        for n in [0_usize, 1, 3, 200] {
            let want: Vec<Option<usize>> = (0..n).map(|i| Some(i * i + 1)).collect();
            for threads in [0_usize, 1, 2, 4, 64] {
                let got = run_units(n, threads, |i| Some(i * i + 1)).expect("no unit panics");
                assert_eq!(got, want, "n {n}, threads {threads}");
            }
        }
    }

    #[test]
    fn batches_on_one_worker_set_answer_in_index_order() {
        for threads in [1_usize, 2, 3, 8] {
            Workers::scope(threads, |workers| {
                for (round, n) in [200_usize, 0, 1, 7, 3, 64].into_iter().enumerate() {
                    let got = workers
                        .run(n, move |i| Some(i * 31 + round))
                        .expect("no unit panics");
                    let want: Vec<Option<usize>> = (0..n).map(|i| Some(i * 31 + round)).collect();
                    assert_eq!(got, want, "threads {threads}, batch {round}");
                }
            });
        }
    }

    #[test]
    fn a_none_answer_leaves_exactly_that_slot_empty() {
        for threads in [1_usize, 2, 4, 64] {
            let got =
                run_units(200, threads, |i| (i % 3 != 1).then_some(i)).expect("no unit panics");
            for (i, slot) in got.iter().enumerate() {
                assert_eq!(*slot, (i % 3 != 1).then_some(i), "threads {threads}");
            }
        }
    }

    #[test]
    fn every_batch_runs_on_the_same_helpers_and_the_caller() {
        // Per-thread memory is per-worker memory only if every unit runs
        // on one of the set's threads: the helpers it started, the same
        // ones from batch to batch, and the caller. A batch of `threads`
        // units that all wait at one barrier must put one unit on each
        // worker, or it never finishes.
        let caller = std::thread::current().id();
        for threads in [2_usize, 3, 8] {
            let before = helpers_started();
            let barrier = std::sync::Barrier::new(threads);
            let batches: Vec<HashSet<ThreadId>> = Workers::scope(threads, |workers| {
                (0..5)
                    .map(|_| {
                        let ids = workers
                            .run(threads, |_| {
                                barrier.wait();
                                Some(std::thread::current().id())
                            })
                            .expect("no unit panics");
                        ids.into_iter().flatten().collect()
                    })
                    .collect()
            });
            assert_eq!(helpers_started() - before, threads as u64 - 1);
            for ids in &batches {
                assert_eq!(ids.len(), threads, "one unit per worker");
                assert!(ids.contains(&caller), "threads {threads}: the caller idled");
                assert_eq!(ids, &batches[0], "threads {threads}: the helpers changed");
            }
        }
    }

    #[test]
    fn a_single_worker_starts_no_thread() {
        let caller = std::thread::current().id();
        let before = helpers_started();
        for threads in [0_usize, 1] {
            Workers::scope(threads, |workers| {
                let ids = workers
                    .run(50, |_| Some(std::thread::current().id()))
                    .expect("no unit panics");
                assert!(ids.into_iter().flatten().all(|t| t == caller));
            });
        }
        // A one-unit batch on a larger set runs on the caller too.
        Workers::scope(4, |workers| {
            let ids = workers
                .run(1, |_| Some(std::thread::current().id()))
                .expect("no unit panics");
            assert_eq!(ids, vec![Some(caller)]);
        });
        assert_eq!(
            helpers_started() - before,
            3,
            "only the 4-thread set spawned"
        );
    }

    #[test]
    fn a_unit_panic_comes_back_as_its_payload_and_the_set_still_closes() {
        for threads in [2_usize, 4] {
            let before = helpers_started();
            let after_the_panic = Workers::scope(threads, |workers| {
                let err = workers
                    .run(200, |i| {
                        if i == 17 || i == 150 {
                            panic!("unit {i} is cursed");
                        }
                        Some(i)
                    })
                    .expect_err("units 17 and 150 panic");
                let message = err.downcast_ref::<String>().expect("a formatted panic");
                assert_eq!(message, "unit 17 is cursed", "threads {threads}");
                // The helpers survived the panic and take the next batch.
                workers.run(100, Some).expect("no unit panics")
            });
            assert_eq!(after_the_panic, (0..100).map(Some).collect::<Vec<_>>());
            // Returning at all means every helper was joined.
            assert_eq!(helpers_started() - before, threads as u64 - 1);
        }
    }
}
