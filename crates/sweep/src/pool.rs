//! The work-stealing worker pool (re-exported from `horse-pool`).
//!
//! The implementation lives in its own crate, `horse-pool`. The sweep is
//! its only user; folding the crate back in here is an open cleanup.
//! Everything the sweep layer uses — [`run_indexed`], [`run_selected`],
//! [`run_selected_with`], [`RunOutcome`], [`RunResult`] — is re-exported
//! unchanged; see `horse-pool`'s docs for scheduling, determinism, and
//! panic-containment details. Only [`threads_from_env`] is native to this
//! module: it needs `horse_core::RunConfig`, which the pool crate (below
//! `horse-core` in the dependency graph) cannot see.

pub use horse_pool::{
    lock_unpoisoned, run_indexed, run_selected, run_selected_with, RunOutcome, RunResult,
};

/// Worker count from the `HORSE_THREADS` environment variable, falling
/// back to the machine's available parallelism. `HORSE_THREADS=1` forces
/// the serial path.
///
/// Panics on an unparsable or zero value — a typo'd override silently
/// changing the thread count is worse than a crash. This is a thin shim
/// over [`horse_core::RunConfig`], the single `HORSE_*` parse point;
/// callers holding a config should use [`horse_core::RunConfig::threads`]
/// directly, and tests should inject values via
/// [`horse_core::RunConfig::from_lookup`] rather than mutating the
/// process environment.
pub fn threads_from_env() -> usize {
    horse_core::RunConfig::from_env().threads()
}
