//! The work-stealing worker pool.
//!
//! Runs independent, index-identified tasks on `threads` workers. Tasks
//! are dealt round-robin into per-worker deques; a worker drains its own
//! deque from the front and, when empty, steals from siblings' backs.
//! Results flow through an MPMC channel to the calling thread, which
//! observes them as they complete (the checkpoint layer streams them to
//! disk) and re-orders them by index ([`horse_stats::OrderedCollector`]),
//! so the returned vector is identical for every thread count — the
//! scheduling shows up only in the [`SweepStats`] counters.
//!
//! With `threads == 1` the pool spawns nothing and runs the tasks inline
//! in index order — byte-for-byte the serial loop the bench bins used to
//! write by hand.
//!
//! The pool is deliberately free of experiment-level knowledge: its one
//! user is the sweep layer (one task = one experiment), which re-exports
//! it from `horse_sweep::pool`. Workers are scoped threads spawned per
//! call, so nested calls compose without a shared global queue to
//! deadlock on.
//!
//! ## Panic containment
//!
//! Each task runs under `catch_unwind`: a panicking run becomes a
//! [`RunOutcome::Failed`] carrying the panic message, and the worker
//! moves on to its next task. One failing experiment can neither poison
//! the pool's queue mutexes (locks are never held across a task) nor
//! abort its siblings — the sweep always drains. [`run_selected`]
//! surfaces the outcomes; the legacy [`run_indexed`] re-raises the first
//! failure *after* the drain, preserving its infallible signature.

use crossbeam::channel;
use horse_stats::{OrderedCollector, SweepStats, WorkerStats};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// How one contained task ended: its value, or the panic that killed it.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome<T> {
    /// The task returned normally.
    Ok(T),
    /// The task panicked; the pool caught it and kept draining.
    Failed {
        /// The panic payload, stringified (`"non-string panic payload"`
        /// when it was neither `&str` nor `String`).
        message: String,
    },
}

impl<T> RunOutcome<T> {
    /// The value, if the task succeeded.
    pub fn ok(self) -> Option<T> {
        match self {
            RunOutcome::Ok(v) => Some(v),
            RunOutcome::Failed { .. } => None,
        }
    }

    /// True when the task panicked.
    pub fn is_failed(&self) -> bool {
        matches!(self, RunOutcome::Failed { .. })
    }

    /// Maps the success value, preserving failures.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> RunOutcome<U> {
        match self {
            RunOutcome::Ok(v) => RunOutcome::Ok(f(v)),
            RunOutcome::Failed { message } => RunOutcome::Failed { message },
        }
    }
}

/// One task's result, tagged with where and how long it ran.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult<T> {
    /// The task's index (plan order; also the result ordering key).
    pub index: usize,
    /// Worker that executed it (0 on the serial path).
    pub worker: usize,
    /// Wall time inside the task closure, in milliseconds.
    pub wall_ms: f64,
    /// The closure's return value.
    pub value: T,
}

/// Stringifies a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

/// Runs one task under `catch_unwind`, timing it and updating `stats`.
fn run_contained<T, F>(
    f: &F,
    index: usize,
    worker: usize,
    stats: &mut WorkerStats,
) -> RunResult<RunOutcome<T>>
where
    F: Fn(usize) -> T + Sync,
{
    let t0 = Instant::now();
    // AssertUnwindSafe: each task is an independent experiment; the only
    // state shared across tasks (topology templates, attr stores) is
    // read-only from the pool's perspective, so a panicking run leaves
    // nothing half-mutated that a sibling could observe.
    let outcome = match catch_unwind(AssertUnwindSafe(|| f(index))) {
        Ok(v) => RunOutcome::Ok(v),
        Err(payload) => {
            stats.failed += 1;
            RunOutcome::Failed {
                message: panic_message(payload),
            }
        }
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    stats.runs += 1;
    stats.busy_ms += wall_ms;
    RunResult {
        index,
        worker,
        wall_ms,
        value: outcome,
    }
}

/// Recovers a possibly-poisoned lock: a panic elsewhere must not cascade
/// into every worker that subsequently touches the queue. The protected
/// data (task deques, counter structs) is valid at every lock boundary —
/// tasks execute outside the lock — so the poison flag carries no
/// information here.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Executes `f` over an explicit set of task indices on `threads`
/// workers, calling `observe` on the collecting thread as each result
/// completes (completion order), and returning the results sorted by
/// index plus the pool's counters.
///
/// This is [`run_indexed`] generalized twice for the checkpoint layer:
/// the index set need not be `0..n` (a resumed sweep runs only the
/// remainder), and results stream through `observe` while the sweep is
/// still running (the checkpoint writer appends a record per completed
/// run, so a killed process keeps everything it finished).
///
/// `observe` returns whether the sweep should keep going: on `false`
/// workers stop pulling new tasks (tasks already in flight finish and
/// are still observed) and the call returns only the completed results.
/// The checkpoint layer aborts this way when a record fails to persist —
/// executing a thousand further runs whose results cannot be recorded
/// would only be discarded work.
///
/// Panics inside `f` are contained per-task ([`RunOutcome::Failed`]);
/// `observe` runs outside any pool lock but must not panic.
pub fn run_selected_with<T, F>(
    indices: &[usize],
    threads: usize,
    f: F,
    mut observe: impl FnMut(&RunResult<RunOutcome<T>>) -> bool,
) -> (Vec<RunResult<RunOutcome<T>>>, SweepStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let start = Instant::now();
    let m = indices.len();
    if threads <= 1 || m <= 1 {
        let mut worker = WorkerStats::default();
        let mut out = Vec::with_capacity(m);
        for &index in indices {
            let r = run_contained(&f, index, 0, &mut worker);
            let keep_going = observe(&r);
            out.push(r);
            if !keep_going {
                break;
            }
        }
        out.sort_by_key(|r| r.index);
        let stats = SweepStats {
            threads: 1,
            runs: out.len(),
            elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
            workers: vec![worker],
        };
        return (out, stats);
    }

    // No point spawning more workers than tasks.
    let nw = threads.min(m);
    // Deal tasks round-robin: worker w owns positions w, w+nw, w+2nw, …
    // ascending, so its own pop_front walks the plan in order while
    // thieves take pop_back (the victim's farthest-out work).
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..nw)
        .map(|w| Mutex::new(indices.iter().copied().skip(w).step_by(nw).collect()))
        .collect();
    let per_worker: Vec<Mutex<WorkerStats>> = (0..nw)
        .map(|_| Mutex::new(WorkerStats::default()))
        .collect();
    let (tx, rx) = channel::unbounded::<RunResult<RunOutcome<T>>>();
    let stop = AtomicBool::new(false);

    let mut results = Vec::with_capacity(m);
    std::thread::scope(|s| {
        for w in 0..nw {
            let tx = tx.clone();
            let queues = &queues;
            let per_worker = &per_worker;
            let f = &f;
            let stop = &stop;
            s.spawn(move || {
                let mut local = WorkerStats::default();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let mut stolen = false;
                    // Bind the own-queue pop to a `let` so its lock guard
                    // drops *here*: as a `match` scrutinee the temporary
                    // would live through the steal arm, and a worker that
                    // holds its own queue's lock while trying a sibling's
                    // deadlocks the moment two empty workers scan each
                    // other (hold-and-wait cycle; observed as a rare pool
                    // hang). Each worker must hold at most one queue lock
                    // at a time.
                    let own = lock_unpoisoned(&queues[w]).pop_front();
                    let index = match own {
                        Some(i) => Some(i),
                        None => {
                            // Scan siblings starting after ourselves so
                            // thieves spread instead of mobbing worker 0.
                            let mut found = None;
                            for off in 1..nw {
                                let victim = (w + off) % nw;
                                if let Some(i) = lock_unpoisoned(&queues[victim]).pop_back() {
                                    found = Some(i);
                                    break;
                                }
                            }
                            stolen = found.is_some();
                            found
                        }
                    };
                    // Every task was dealt up front, so empty queues all
                    // around mean the sweep is drained (tasks already
                    // popped are owned by the worker running them).
                    let Some(index) = index else { break };
                    if stolen {
                        local.steals += 1;
                    }
                    let _ = tx.send(run_contained(f, index, w, &mut local));
                }
                *lock_unpoisoned(&per_worker[w]) = local;
            });
        }
        // Collect on the calling thread while workers run. Every task
        // that executes sends exactly one result — panics are caught
        // inside run_contained — and the channel closes when the last
        // worker drops its sender, so this loop sees every completion
        // whether the sweep drains or the observer stops it early.
        drop(tx);
        while let Ok(r) = rx.recv() {
            if !observe(&r) {
                stop.store(true, Ordering::Relaxed);
            }
            results.push(r);
        }
    });

    results.sort_by_key(|r| r.index);
    let stats = SweepStats {
        threads: nw,
        runs: results.len(),
        elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
        workers: per_worker
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect(),
    };
    (results, stats)
}

/// [`run_selected_with`] without an observer.
pub fn run_selected<T, F>(
    indices: &[usize],
    threads: usize,
    f: F,
) -> (Vec<RunResult<RunOutcome<T>>>, SweepStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_selected_with(indices, threads, f, |_| true)
}

/// Executes `f(0..n)` on `threads` workers and returns the results in
/// index order plus the pool's counters.
///
/// `f` must be a pure function of its index (up to shared read-only
/// state): the determinism contract is that the returned vector does not
/// depend on `threads`. Wall times and worker ids in [`RunResult`] *do*
/// vary run to run; callers comparing results across thread counts must
/// compare only the values (for experiments, their semantic JSON).
///
/// A panic inside `f` is contained until the sweep drains — every other
/// run completes — and then re-raised here with its run index. Callers
/// that want failures as data instead use [`run_selected`].
pub fn run_indexed<T, F>(n: usize, threads: usize, f: F) -> (Vec<RunResult<T>>, SweepStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    let (results, stats) = run_selected(&indices, threads, f);
    let mut ordered = OrderedCollector::new(n);
    for r in results {
        let value = match r.value {
            RunOutcome::Ok(v) => v,
            RunOutcome::Failed { message } => {
                panic!("sweep run {} panicked: {message}", r.index)
            }
        };
        ordered.insert(
            r.index,
            RunResult {
                index: r.index,
                worker: r.worker,
                wall_ms: r.wall_ms,
                value,
            },
        );
    }
    let out = ordered
        .try_into_ordered()
        .unwrap_or_else(|m| panic!("pool lost results: {m}"));
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values<T: Clone>(rs: &[RunResult<T>]) -> Vec<T> {
        rs.iter().map(|r| r.value.clone()).collect()
    }

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| (i as u64) * (i as u64) + 7;
        let (serial, s1) = run_indexed(37, 1, f);
        assert_eq!(s1.threads, 1);
        for t in [2, 3, 8] {
            let (par, st) = run_indexed(37, t, f);
            assert_eq!(values(&serial), values(&par), "threads={t}");
            assert_eq!(st.runs, 37);
            assert_eq!(st.workers.iter().map(|w| w.runs).sum::<u64>(), 37);
        }
    }

    #[test]
    fn results_are_index_ordered() {
        let (rs, _) = run_indexed(16, 4, |i| i);
        for (pos, r) in rs.iter().enumerate() {
            assert_eq!(r.index, pos);
            assert_eq!(r.value, pos);
            assert!(r.worker < 4);
        }
    }

    #[test]
    fn workers_capped_at_task_count() {
        let (rs, st) = run_indexed(2, 8, |i| i);
        assert_eq!(st.threads, 2);
        assert_eq!(st.workers.len(), 2);
        assert_eq!(values(&rs), vec![0, 1]);
    }

    #[test]
    fn zero_tasks() {
        let (rs, st) = run_indexed(8, 4, |i| i);
        assert_eq!(rs.len(), 8);
        let (rs, st0) = {
            let (rs, st0) = run_indexed(0, 4, |i| i);
            (rs, st0)
        };
        assert!(rs.is_empty());
        assert_eq!(st0.runs, 0);
        assert_eq!(st.runs, 8);
    }

    #[test]
    fn uneven_work_gets_stolen() {
        // Worker 0's own tasks are heavy; with 4 workers the others go
        // idle and must steal to finish. We can't assert steals > 0 on a
        // single-core box (worker 0 may drain everything before others
        // are scheduled), but accounting must balance regardless.
        let f = |i: usize| {
            if i.is_multiple_of(4) {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        };
        let (rs, st) = run_indexed(24, 4, f);
        assert_eq!(values(&rs), (0..24).collect::<Vec<_>>());
        let total_runs: u64 = st.workers.iter().map(|w| w.runs).sum();
        let total_steals: u64 = st.workers.iter().map(|w| w.steals).sum();
        assert_eq!(total_runs, 24);
        assert!(total_steals <= 24);
        assert!(st.total_busy_ms() > 0.0);
    }

    #[test]
    fn subset_of_indices_runs_only_those() {
        let indices = [3, 5, 11, 2];
        for threads in [1, 3] {
            let (rs, st) = run_selected(&indices, threads, |i| i * 10);
            assert_eq!(st.runs, 4);
            let got: Vec<(usize, usize)> = rs
                .iter()
                .map(|r| (r.index, r.value.clone().ok().unwrap()))
                .collect();
            // Sorted by index, values from the original index.
            assert_eq!(got, vec![(2, 20), (3, 30), (5, 50), (11, 110)]);
        }
    }

    #[test]
    fn panicking_run_is_contained_and_siblings_finish() {
        let indices: Vec<usize> = (0..8).collect();
        for threads in [1, 4] {
            let (rs, st) = run_selected(&indices, threads, |i| {
                if i == 3 {
                    panic!("deliberate failure in run {i}");
                }
                i * 2
            });
            assert_eq!(rs.len(), 8, "threads={threads}: sweep must drain");
            assert_eq!(st.total_failed(), 1);
            for r in &rs {
                if r.index == 3 {
                    match &r.value {
                        RunOutcome::Failed { message } => {
                            assert!(message.contains("deliberate failure in run 3"), "{message}");
                        }
                        other => panic!("expected Failed, got {other:?}"),
                    }
                } else {
                    assert_eq!(r.value, RunOutcome::Ok(r.index * 2));
                }
            }
        }
    }

    #[test]
    fn observer_sees_every_completion() {
        let seen = Mutex::new(Vec::new());
        let indices: Vec<usize> = (0..12).collect();
        let (rs, _) = run_selected_with(
            &indices,
            4,
            |i| i,
            |r| {
                lock_unpoisoned(&seen).push(r.index);
                true
            },
        );
        assert_eq!(rs.len(), 12);
        let mut seen = lock_unpoisoned(&seen).clone();
        seen.sort_unstable();
        assert_eq!(seen, indices);
    }

    #[test]
    fn observer_false_aborts_remaining_queue() {
        // Serial path is deterministic: stop after the second completion.
        let indices: Vec<usize> = (0..10).collect();
        let mut seen = 0usize;
        let (rs, st) = run_selected_with(
            &indices,
            1,
            |i| i,
            |_| {
                seen += 1;
                seen < 2
            },
        );
        assert_eq!(rs.len(), 2);
        assert_eq!(st.runs, 2);

        // Parallel path: tasks already in flight may still land, but the
        // stop flag must keep the pool from draining the whole queue.
        let seen = std::sync::atomic::AtomicUsize::new(0);
        let indices: Vec<usize> = (0..64).collect();
        let (rs, st) = run_selected_with(
            &indices,
            4,
            |i| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                i
            },
            |_| seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1 < 2,
        );
        assert!(rs.len() >= 2);
        assert!(rs.len() < 64, "stop flag must cut the sweep short");
        assert_eq!(st.runs, rs.len());
    }

    #[test]
    fn empty_steal_scans_do_not_deadlock() {
        // Regression: the own-queue pop's lock guard must drop before the
        // steal scan — held across it (as a match-scrutinee temporary),
        // two simultaneously empty workers scanning each other's queues
        // deadlock in a hold-and-wait cycle. Many short-lived pools with
        // barely more tasks than workers maximize concurrent empty scans.
        for round in 0..200 {
            let (rs, _) = run_indexed(9, 8, move |i| i + round);
            assert_eq!(rs.len(), 9);
            assert!(rs.iter().enumerate().all(|(p, r)| r.value == p + round));
        }
    }

    #[test]
    fn nested_pools_do_not_deadlock_and_agree_serially() {
        // An outer pool whose tasks each run an inner pool. Scoped
        // per-call workers mean there is no shared global queue to starve:
        // the composition must drain and agree with the fully serial run.
        let run = |outer: usize, inner: usize| -> Vec<u64> {
            let (rs, _) = run_indexed(6, outer, |i| {
                let (inner_rs, _) = run_indexed(5, inner, move |j| (i as u64) * 100 + (j as u64));
                inner_rs.into_iter().map(|r| r.value).sum::<u64>()
            });
            rs.into_iter().map(|r| r.value).collect()
        };
        let serial = run(1, 1);
        for (outer, inner) in [(2, 2), (4, 2), (2, 4)] {
            assert_eq!(run(outer, inner), serial, "outer={outer} inner={inner}");
        }
    }

    #[test]
    #[should_panic(expected = "sweep run 1 panicked: boom")]
    fn run_indexed_reraises_after_drain() {
        let completed = std::sync::atomic::AtomicUsize::new(0);
        let _ = run_indexed(4, 2, |i| {
            if i == 1 {
                panic!("boom");
            }
            completed.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            i
        });
    }
}
