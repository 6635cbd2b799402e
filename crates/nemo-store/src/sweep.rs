//! Deferred pruning and compaction: the sweep plan and its outcome.
//!
//! [`Store::install_snapshot`] used to prune old snapshots and delete
//! covered WAL segments inline, which put filesystem removals on the
//! write path and — worse — mutated the in-memory manifest *before* the
//! corresponding removals succeeded, so an I/O error mid-loop desynced
//! memory from disk. This module carries the types of the replacement
//! discipline:
//!
//! * [`SweepPlan`] is what [`Store::sweep_plan`] computes: everything a
//!   sweep *would* delete, derived purely from the current manifest.
//!   Nothing about the plan is persisted — after a crash the next open
//!   recomputes an equivalent plan from whatever files remain, which is
//!   what makes a kill at any point during a sweep safe.
//! * [`SweepOutcome`] reports what one [`Store::sweep`] call actually
//!   deleted and how much deletable work remains.
//!
//! [`Store::sweep`] executes a plan incrementally (a removal budget per
//! call) and error-safely: each filesystem removal happens *first*, and
//! the matching manifest entry is dropped only after it succeeds, so an
//! error leaves memory and disk in agreement and the next sweep simply
//! resumes.
//!
//! [`Store::install_snapshot`]: crate::Store::install_snapshot
//! [`Store::sweep_plan`]: crate::Store::sweep_plan
//! [`Store::sweep`]: crate::Store::sweep

use std::path::PathBuf;

/// Everything a sweep would delete, computed from the current manifest:
/// snapshots older than the newest `keep_snapshots`, then WAL segments
/// wholly covered by the oldest *retained* snapshot, both oldest first.
///
/// The ordering is the crash-safety argument: snapshots are pruned
/// before segments and each kind goes oldest-first, so after any prefix
/// of the plan the surviving files still include every retained snapshot
/// and an unbroken WAL suffix from the oldest retained snapshot to the
/// tip.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SweepPlan {
    /// Epochs of snapshots to prune, oldest first.
    pub prune_snapshots: Vec<u64>,
    /// Paths of WAL segments wholly covered by `covered_epoch`, oldest
    /// first.
    pub remove_segments: Vec<PathBuf>,
    /// Epoch of the oldest retained snapshot — segments whose records
    /// all fall at or below it are deletable. `None` when the store has
    /// no snapshots.
    pub covered_epoch: Option<u64>,
}

impl SweepPlan {
    /// True when the plan deletes nothing.
    pub fn is_empty(&self) -> bool {
        self.prune_snapshots.is_empty() && self.remove_segments.is_empty()
    }

    /// Total removals the plan calls for.
    pub fn removals(&self) -> usize {
        self.prune_snapshots.len() + self.remove_segments.len()
    }
}

/// What one [`Store::sweep`](crate::Store::sweep) call deleted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepOutcome {
    /// Snapshot files pruned by this call.
    pub pruned_snapshots: usize,
    /// WAL segment files removed by this call.
    pub removed_segments: usize,
    /// Removals still pending after this call (0 when the store is fully
    /// swept; nonzero when the budget ran out first).
    pub remaining: usize,
}

impl SweepOutcome {
    /// Files deleted by this call.
    pub fn removed(&self) -> usize {
        self.pruned_snapshots + self.removed_segments
    }
}
