//! Typed deltas between query states — the incremental cache's brain.
//!
//! Every state-editing operator calls `Spreadsheet::invalidate`, which
//! diffs the cached content fingerprint (`ContentKey`, crate-private)
//! against the new one and records a
//! [`StateDelta`]. `view` then picks the cheapest sound path:
//!
//! * [`StateDelta::Reorganize`] — content identical; re-sort / re-hide
//!   only (the Sec. III-A "organization does not change content" rule).
//! * [`StateDelta::Narrow`] — selections were added or tightened; the
//!   cached canonical rows are re-filtered in place.
//! * [`StateDelta::AppendComputed`] / [`StateDelta::RemoveComputed`] —
//!   one computed column appended (rank-last) or removed; one column is
//!   materialized or dropped over the cached rows.
//! * [`StateDelta::Full`] — anything else (widening, rank-crossing,
//!   dedup toggles, mixed edits) falls back to the full pipeline.
//!
//! The classification is deliberately conservative: a delta is only
//! non-`Full` when re-using the cache provably reproduces what the full
//! `eval` pipeline would compute (DESIGN.md §10 states the invariants).

use crate::computed::{compute_ranks, ComputedColumn};
use crate::state::{volatile_columns, QueryState, SelectionEntry};
use ssa_relation::Expr;
use std::collections::BTreeSet;

/// Fingerprint of the state components that determine the *content* of
/// the evaluated multiset. Grouping, ordering and projection are pure
/// data-*organization* ("they do not change the actual content",
/// Sec. III-A) — when only those change, a cached evaluation can be
/// reorganized instead of recomputed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ContentKey {
    pub(crate) selections: Vec<SelectionEntry>,
    pub(crate) computed: Vec<ComputedColumn>,
    pub(crate) dedup: bool,
}

impl ContentKey {
    pub(crate) fn of(state: &QueryState) -> ContentKey {
        ContentKey {
            selections: state.selections.clone(),
            computed: state.computed.clone(),
            dedup: state.dedup,
        }
    }
}

/// How the current query state relates to the most recent cached
/// evaluation — computed by [`Spreadsheet::invalidate`] on every state
/// edit and readable through [`Spreadsheet::last_delta`].
///
/// [`Spreadsheet::invalidate`]: crate::sheet::Spreadsheet
/// [`Spreadsheet::last_delta`]: crate::sheet::Spreadsheet::last_delta
#[derive(Debug, Clone, PartialEq)]
pub enum StateDelta {
    /// Content is unchanged; at most grouping, ordering or projection
    /// moved. The cached rows are re-sorted (or merely re-hidden) —
    /// never recomputed.
    Reorganize,
    /// Selections were added, or replaced by provably tighter ones
    /// ([`Expr::implies`]): the surviving multiset is a subset of the
    /// cached one, so the cache is narrowed by re-filtering its rows
    /// with `predicates` and re-aggregating what the smaller multiset
    /// invalidates.
    Narrow {
        /// The predicates that separate the new live set from the cached
        /// one (added selections and tightened replacements).
        predicates: Vec<Expr>,
    },
    /// Exactly one computed column was appended, and it lands rank-last,
    /// so materializing it over the cached rows reproduces the full
    /// pipeline's layout.
    AppendComputed {
        /// Name of the appended column.
        name: String,
    },
    /// Exactly one computed column was removed (operators guarantee it
    /// had no dependents); the cache drops that column in place.
    RemoveComputed {
        /// Name of the removed column.
        name: String,
    },
    /// Base-data rows were appended. The new rows flowed through the
    /// cached compiled selections, merge-inserted into the presentation
    /// permutation and group tree, and bumped the per-group aggregate
    /// accumulators — the query state itself is unchanged.
    RowsAppended {
        /// How many base rows the edit appended.
        count: usize,
    },
    /// Base-data rows were deleted; the cache narrowed by the survivor
    /// mask (aggregates recompute per retracted group — the
    /// recompute-on-retract rule that keeps Min/Max exact).
    RowsDeleted {
        /// How many base rows the edit removed.
        count: usize,
    },
    /// Base-data cells were updated in place (the key-change analysis
    /// proved no group membership, selection verdict or presentation
    /// position could move; otherwise the edit is modeled as
    /// delete + append and reports those deltas instead).
    CellsUpdated {
        /// How many cells the edit overwrote.
        count: usize,
    },
    /// The sheet was re-pinned to a newer snapshot of its base by
    /// patching the cache with the base edits committed in between
    /// (their net effect: surviving appended rows, deleted rows of the
    /// old base, overwritten cells of its surviving rows).
    Rebased {
        /// Appended rows that survive in the new base.
        appended: usize,
        /// Rows of the old base the edits deleted.
        deleted: usize,
        /// Overwritten cells of surviving old-base rows.
        updated: usize,
    },
    /// No sound shortcut: re-run the full pipeline.
    Full {
        /// Why the classifier fell back (for tests and debugging).
        reason: &'static str,
    },
}

impl StateDelta {
    /// Shorthand used by tests: does this delta avoid the full pipeline?
    pub fn is_incremental(&self) -> bool {
        !matches!(self, StateDelta::Full { .. })
    }
}

impl std::fmt::Display for StateDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateDelta::Reorganize => write!(f, "reorganize"),
            StateDelta::Narrow { predicates } => {
                write!(f, "narrow ({} predicate(s))", predicates.len())
            }
            StateDelta::AppendComputed { name } => write!(f, "append computed `{name}`"),
            StateDelta::RemoveComputed { name } => write!(f, "remove computed `{name}`"),
            StateDelta::RowsAppended { count } => write!(f, "rows appended ({count})"),
            StateDelta::RowsDeleted { count } => write!(f, "rows deleted ({count})"),
            StateDelta::CellsUpdated { count } => write!(f, "cells updated ({count})"),
            StateDelta::Rebased {
                appended,
                deleted,
                updated,
            } => write!(
                f,
                "rebased ({appended} appended, {deleted} deleted, {updated} cells updated)"
            ),
            StateDelta::Full { reason } => write!(f, "full ({reason})"),
        }
    }
}

/// Diff a cached content key against the current one.
///
/// `base_columns` are the base relation's column names (rank 0 for the
/// precedence analysis of Sec. IV-B).
pub(crate) fn classify(
    old: &ContentKey,
    new: &ContentKey,
    base_columns: &BTreeSet<String>,
) -> StateDelta {
    // Failpoint: declare no sound delta, forcing callers onto the full
    // evaluation path (exercises the fallback under fault injection).
    #[cfg(feature = "fault-injection")]
    if ssa_relation::fault::should_fire("delta.classify") {
        return StateDelta::Full {
            reason: "fault injected",
        };
    }
    if old == new {
        return StateDelta::Reorganize;
    }
    if old.dedup != new.dedup {
        // Dedup works on *base* tuples, upstream of every selection: a
        // toggle re-decides which duplicates survive — not a subset of
        // the cached rows in general.
        return StateDelta::Full {
            reason: "duplicate elimination toggled",
        };
    }
    if old.computed != new.computed {
        if old.selections != new.selections {
            return StateDelta::Full {
                reason: "selections and computed columns both changed",
            };
        }
        return classify_computed(&old.computed, &new.computed, base_columns);
    }
    classify_selections(old, new)
}

fn classify_computed(
    old: &[ComputedColumn],
    new: &[ComputedColumn],
    base_columns: &BTreeSet<String>,
) -> StateDelta {
    if new.len() == old.len() + 1 && new[..old.len()] == *old {
        // The canonical layout orders computed columns by *rank* (stable
        // within a rank), not by definition order: the append shortcut is
        // only layout-preserving when the new column's rank is >= every
        // existing one, i.e. it lands in the last schema position exactly
        // as a plain append would.
        let Some(ranks) = compute_ranks(base_columns, new) else {
            return StateDelta::Full {
                reason: "computed dependencies do not resolve",
            };
        };
        let max_prior = ranks[..old.len()].iter().copied().max().unwrap_or(0);
        if ranks[old.len()] < max_prior {
            return StateDelta::Full {
                reason: "appended computed column is not rank-last",
            };
        }
        return StateDelta::AppendComputed {
            name: new[old.len()].name.clone(),
        };
    }
    if old.len() == new.len() + 1 {
        if let Some(name) = removed_one(old, new) {
            // Remaining columns keep their ranks (the removed column had
            // no dependents), so the cached layout minus one column is
            // exactly the fresh layout.
            return StateDelta::RemoveComputed { name };
        }
    }
    StateDelta::Full {
        reason: "computed columns changed",
    }
}

/// If `new` is `old` with exactly one element removed (order preserved),
/// return the removed column's name.
fn removed_one(old: &[ComputedColumn], new: &[ComputedColumn]) -> Option<String> {
    let mut skipped = None;
    let mut j = 0;
    for c in old {
        if j < new.len() && new[j] == *c {
            j += 1;
        } else if skipped.is_none() {
            skipped = Some(c.name.clone());
        } else {
            return None;
        }
    }
    if j == new.len() {
        skipped
    } else {
        None
    }
}

fn classify_selections(old: &ContentKey, new: &ContentKey) -> StateDelta {
    // Sound narrowing needs selections to commute with the cached
    // step-3/step-4 interleaving: a predicate over an aggregate (or
    // anything downstream of one) reads values that re-aggregation over
    // the narrowed multiset will change — the Sec. IV-B rank-crossing
    // case, which must replay the full pipeline.
    let volatile = volatile_columns(&new.computed);
    if new
        .selections
        .iter()
        .any(|s| s.predicate.columns().iter().any(|c| volatile.contains(c)))
    {
        return StateDelta::Full {
            reason: "a selection reads an aggregate-dependent column",
        };
    }
    let mut predicates = Vec::new();
    for o in &old.selections {
        match new.selections.iter().find(|n| n.id == o.id) {
            None => {
                return StateDelta::Full {
                    reason: "a selection was removed (widening)",
                }
            }
            Some(n) if n.predicate == o.predicate => {}
            Some(n) if n.predicate.implies(&o.predicate) => {
                predicates.push(n.predicate.clone());
            }
            Some(_) => {
                return StateDelta::Full {
                    reason: "a selection was widened or is incomparable",
                }
            }
        }
    }
    for n in &new.selections {
        if !old.selections.iter().any(|o| o.id == n.id) {
            predicates.push(n.predicate.clone());
        }
    }
    StateDelta::Narrow { predicates }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_relation::AggFunc;

    fn key(selections: Vec<(u64, Expr)>, computed: Vec<ComputedColumn>, dedup: bool) -> ContentKey {
        ContentKey {
            selections: selections
                .into_iter()
                .map(|(id, predicate)| SelectionEntry { id, predicate })
                .collect(),
            computed,
            dedup,
        }
    }

    fn base() -> BTreeSet<String> {
        ["Price", "Year", "Model"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    fn lt(col: &str, v: i64) -> Expr {
        Expr::col(col).lt(Expr::lit(v))
    }

    #[test]
    fn identical_content_is_reorganize() {
        let k = key(vec![(1, lt("Price", 100))], vec![], false);
        assert_eq!(classify(&k, &k.clone(), &base()), StateDelta::Reorganize);
    }

    #[test]
    fn added_and_tightened_selections_narrow() {
        let old = key(vec![(1, lt("Price", 100))], vec![], false);
        let added = key(
            vec![(1, lt("Price", 100)), (2, lt("Year", 2005))],
            vec![],
            false,
        );
        assert_eq!(
            classify(&old, &added, &base()),
            StateDelta::Narrow {
                predicates: vec![lt("Year", 2005)]
            }
        );
        let tightened = key(vec![(1, lt("Price", 50))], vec![], false);
        assert_eq!(
            classify(&old, &tightened, &base()),
            StateDelta::Narrow {
                predicates: vec![lt("Price", 50)]
            }
        );
    }

    #[test]
    fn widening_and_removal_fall_back() {
        let old = key(vec![(1, lt("Price", 100))], vec![], false);
        let widened = key(vec![(1, lt("Price", 200))], vec![], false);
        assert!(!classify(&old, &widened, &base()).is_incremental());
        let removed = key(vec![], vec![], false);
        assert!(!classify(&old, &removed, &base()).is_incremental());
    }

    #[test]
    fn dedup_toggle_falls_back() {
        let old = key(vec![], vec![], false);
        let new = key(vec![], vec![], true);
        assert!(!classify(&old, &new, &base()).is_incremental());
    }

    #[test]
    fn aggregate_reading_selection_falls_back() {
        let agg = ComputedColumn::aggregate("Avg_Price", AggFunc::Avg, "Price", 1, Vec::new());
        let old = key(vec![], vec![agg.clone()], false);
        let new = key(
            vec![(1, Expr::col("Price").le(Expr::col("Avg_Price")))],
            vec![agg],
            false,
        );
        assert_eq!(
            classify(&old, &new, &base()),
            StateDelta::Full {
                reason: "a selection reads an aggregate-dependent column"
            }
        );
    }

    #[test]
    fn append_and_remove_computed() {
        let f = ComputedColumn::formula("Double", Expr::col("Price").mul(Expr::lit(2)));
        let old = key(vec![], vec![], false);
        let new = key(vec![], vec![f.clone()], false);
        assert_eq!(
            classify(&old, &new, &base()),
            StateDelta::AppendComputed {
                name: "Double".to_string()
            }
        );
        assert_eq!(
            classify(&new, &old, &base()),
            StateDelta::RemoveComputed {
                name: "Double".to_string()
            }
        );
    }

    #[test]
    fn rank_crossing_append_falls_back() {
        // Existing rank-2 column (reads another computed column); a new
        // rank-1 formula would slot *before* it in the canonical layout.
        let f1 = ComputedColumn::formula("Double", Expr::col("Price").mul(Expr::lit(2)));
        let f2 = ComputedColumn::formula("Quad", Expr::col("Double").mul(Expr::lit(2)));
        let old = key(vec![], vec![f1.clone(), f2.clone()], false);
        let low = ComputedColumn::formula("Half", Expr::col("Price").div(Expr::lit(2)));
        let new = key(vec![], vec![f1, f2, low], false);
        assert_eq!(
            classify(&old, &new, &base()),
            StateDelta::Full {
                reason: "appended computed column is not rank-last"
            }
        );
    }
}
