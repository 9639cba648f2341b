//! The unit runner: the one place this crate hands work to threads.
//!
//! The sweep, every rung of the guided search and the gap study are the
//! same loop — `n` independent units, each a pure function of its index
//! — so they share one work-distribution policy: workers pull the next
//! index from a shared counter (no static split a few slow units could
//! leave most threads idling behind), and the answers come back in index
//! order whatever the interleaving was. A worker is one thread for its
//! whole life, so the units it runs reuse that thread's lowered-machine
//! memo and scheduler arena back to back; the runner carries no state of
//! its own.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `unit(i)` for every `i` in `0..n` on up to `threads` workers and
/// return the answers in index order.
///
/// With a single worker (`threads <= 1`, or `n <= 1`) nothing is
/// spawned: the units run in order on the calling thread.
///
/// A unit may answer `None` — nothing to do at that index, or the caller
/// is winding down — and its slot stays empty; the runner itself never
/// skips or stops.
///
/// # Errors
/// The panic payload of the first worker (in spawn order) that died,
/// after every worker has been joined. On the calling thread a panic is
/// not caught.
pub(crate) fn run_units<T: Send>(
    n: usize,
    threads: usize,
    unit: impl Fn(usize) -> Option<T> + Sync,
) -> std::thread::Result<Vec<Option<T>>> {
    let workers = threads.min(n);
    if workers <= 1 {
        return Ok((0..n).map(unit).collect());
    }
    let next = AtomicUsize::new(0);
    let joined: Vec<std::thread::Result<Vec<(usize, T)>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return mine;
                        }
                        if let Some(out) = unit(i) {
                            mine.push((i, out));
                        }
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for worker in joined {
        for (i, out) in worker? {
            slots[i] = Some(out);
        }
    }
    Ok(slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

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
    fn each_worker_is_one_thread_and_one_worker_is_the_caller() {
        // Per-thread memory is per-worker memory only if every unit runs
        // on its worker's thread: the caller's when one worker suffices,
        // never more threads than workers otherwise.
        let caller = std::thread::current().id();
        for (n, threads, spawned) in [
            (200, 1, false),
            (1, 8, false),
            (200, 4, true),
            (3, 64, true),
        ] {
            let ids: Vec<ThreadId> = run_units(n, threads, |_| Some(std::thread::current().id()))
                .expect("no unit panics")
                .into_iter()
                .flatten()
                .collect();
            let distinct: HashSet<ThreadId> = ids.iter().copied().collect();
            assert!(distinct.len() <= threads.min(n), "n {n}, threads {threads}");
            assert_eq!(!ids.contains(&caller), spawned, "n {n}, threads {threads}");
        }
    }

    #[test]
    fn a_worker_panic_comes_back_as_its_own_payload() {
        let err = run_units(200, 4, |i| {
            if i == 17 {
                panic!("unit {i} is cursed");
            }
            Some(i)
        })
        .expect_err("unit 17 panics");
        let message = err.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(message, "unit 17 is cursed");
    }
}
