//! The algebraic query planner: lowering into an explicit operator DAG
//! plus Theorem-2-sound rewrites (DESIGN.md §13).
//!
//! A [`Plan`] lowers one `(base, QueryState)` pair into the operator
//! pipeline both evaluation engines execute. On top of the paper's rank
//! assignment (Sec. IV-B precedence) it applies exactly the rewrites
//! Theorem 2 licenses:
//!
//! * **Filter fusion** — all selections of one rank see the same input
//!   multiset (unary operators of equal rank commute), so they run as a
//!   single fused pass instead of one pass each.
//! * **Cheap-first predicate ordering** — within a fused pass, predicates
//!   run cheapest and most selective first, using free statistics
//!   ([`Relation::row_count`], [`Relation::distinct_estimate`]). Sound
//!   for the same reason fusion is: same-rank selections commute.
//! * **Pre-dedup selection pushdown** — rank-0 selections reference base
//!   columns only, and duplicate `R`-tuples agree on every base column,
//!   so filtering *before* duplicate elimination keeps exactly the same
//!   surviving first occurrences while shrinking the dedup hash.
//! * **Deferred computed columns** — a computed column no selection
//!   (transitively) reads is not materialized during filtering at all;
//!   step 4 (automatic update) computes it once over the final, smaller
//!   multiset. Cheap predicates therefore run before expensive
//!   computed/formula columns.
//!
//! Rewrites never cross a *non-commutativity point*: a selection over a
//! computed column keeps that column's rank (precedence), and nothing is
//! ever pushed through union or difference — `σ(A − B) = σ(A) − B` holds
//! for left-side predicates but `A − σ(B)` does not (`{1} − σ_{x≠1}{1}`
//! is `∅`, not `{1}`), so the planner declines both directions.
//!
//! [`plan_tables`] extends the same machinery to multi-relation FROM
//! lists (the SQL side of Theorem 1): single-table conjuncts are pushed
//! below the joins into their operand, the join order is chosen greedily
//! by estimated output cardinality, and provenance columns restore the
//! unplanned left-deep nested-loop order bit for bit, so the rewritten
//! pipeline is observationally identical to the naive one.

use crate::computed::{column_rank, compute_ranks};
use crate::error::{Result, SheetError};
use crate::state::QueryState;
use ssa_relation::ops;
use ssa_relation::relation::Relation;
use ssa_relation::schema::{Column, Schema};
use ssa_relation::value::{Value, ValueType};
use ssa_relation::{CmpOp, Expr};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// The operator DAG
// ---------------------------------------------------------------------

/// One node of the lowered operator DAG. Rendered by [`PlanNode::render`]
/// as an indented `EXPLAIN`-style tree; executed by the evaluation
/// engines (unary pipeline) and [`TablePlan::execute`] (join trees).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Base-data scan.
    Scan { name: String, rows: usize },
    /// Fused selection pass; predicates listed in execution order.
    Filter {
        predicates: Vec<Expr>,
        input: Box<PlanNode>,
    },
    /// Projection onto the visible columns.
    Project {
        columns: Vec<String>,
        input: Box<PlanNode>,
    },
    /// Computed-column materialization (formulas and aggregates).
    Compute {
        columns: Vec<String>,
        input: Box<PlanNode>,
    },
    /// Hash join; `condition = None` degenerates to a product of
    /// pre-filtered operands (all conjuncts were pushed down).
    Join {
        condition: Option<Expr>,
        est_rows: usize,
        left: Box<PlanNode>,
        right: Box<PlanNode>,
    },
    /// Cartesian product.
    Product {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
    },
    /// Multiset union (non-commutativity point; never rewritten across).
    Union {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
    },
    /// Multiset difference (order-sensitive; never rewritten across).
    Difference {
        left: Box<PlanNode>,
        right: Box<PlanNode>,
    },
    /// Duplicate elimination over `R`-tuples.
    Distinct { input: Box<PlanNode> },
    /// Presentation sort (group bases outermost, then finest order).
    Sort {
        keys: Vec<(String, bool)>,
        input: Box<PlanNode>,
    },
    /// Group-tree construction over the sorted data.
    Group {
        levels: Vec<Vec<String>>,
        input: Box<PlanNode>,
    },
}

impl PlanNode {
    /// Render the subtree as an indented text tree, root first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = writeln!(out, "{}", self.describe());
        for child in self.children() {
            child.render_into(out, depth + 1);
        }
    }

    fn children(&self) -> Vec<&PlanNode> {
        match self {
            PlanNode::Scan { .. } => Vec::new(),
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Compute { input, .. }
            | PlanNode::Distinct { input }
            | PlanNode::Sort { input, .. }
            | PlanNode::Group { input, .. } => vec![input],
            PlanNode::Join { left, right, .. }
            | PlanNode::Product { left, right }
            | PlanNode::Union { left, right }
            | PlanNode::Difference { left, right } => vec![left, right],
        }
    }

    fn describe(&self) -> String {
        match self {
            PlanNode::Scan { name, rows } => format!("Scan {name} [{rows} rows]"),
            PlanNode::Filter { predicates, .. } => {
                let parts: Vec<String> = predicates.iter().map(|p| p.to_string()).collect();
                format!("Filter {}", parts.join(" AND "))
            }
            PlanNode::Project { columns, .. } => format!("Project [{}]", columns.join(", ")),
            PlanNode::Compute { columns, .. } => format!("Compute [{}]", columns.join(", ")),
            PlanNode::Join {
                condition,
                est_rows,
                ..
            } => match condition {
                Some(c) => format!("Join {c} (~{est_rows} rows)"),
                None => format!("Join <pushed-down> (~{est_rows} rows)"),
            },
            PlanNode::Product { .. } => "Product".to_string(),
            PlanNode::Union { .. } => "Union".to_string(),
            PlanNode::Difference { .. } => "Difference".to_string(),
            PlanNode::Distinct { .. } => "Distinct".to_string(),
            PlanNode::Sort { keys, .. } => {
                let parts: Vec<String> = keys
                    .iter()
                    .map(|(k, desc)| format!("{k} {}", if *desc { "desc" } else { "asc" }))
                    .collect();
                format!("Sort [{}]", parts.join(", "))
            }
            PlanNode::Group { levels, .. } => {
                let parts: Vec<String> = levels
                    .iter()
                    .map(|l| format!("[{}]", l.join(", ")))
                    .collect();
                format!("Group {}", parts.join(" "))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Predicate cost ordering (shared by eval stages and the delta path)
// ---------------------------------------------------------------------

/// Whether evaluating `e` walks anything beyond column/literal
/// comparisons and boolean connectives.
fn has_expensive_node(e: &Expr) -> bool {
    match e {
        Expr::Col(_) | Expr::Lit(_) => false,
        Expr::Arith(..) | Expr::Neg(_) | Expr::Like(..) | Expr::If(..) => true,
        Expr::Cmp(a, _, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            has_expensive_node(a) || has_expensive_node(b)
        }
        Expr::Not(a) | Expr::IsNull(a) => has_expensive_node(a),
    }
}

/// Evaluation cost class: 0 = pure `column OP literal` conjunction
/// (columnar-testable), 1 = comparisons/connectives only, 2 = involves
/// arithmetic, LIKE, or CASE.
fn cost_class(e: &Expr) -> u8 {
    if e.as_column_cmp_conjunction().is_some() {
        0
    } else if has_expensive_node(e) {
        2
    } else {
        1
    }
}

/// Estimated fraction of rows kept, in permille (lower = more selective).
/// Equality atoms use the distinct estimate of their column when `stats`
/// can provide one; everything non-atomic defaults to the middle.
fn selectivity_permille(e: &Expr, stats: Option<&Relation>) -> i64 {
    match e.as_column_cmp_conjunction() {
        Some(atoms) => atoms
            .iter()
            .map(|(col, op, _)| match op {
                CmpOp::Eq => {
                    let d = stats
                        .and_then(|r| r.distinct_estimate(col).ok())
                        .unwrap_or(10)
                        .max(1) as i64;
                    (1000 / d).clamp(1, 1000)
                }
                CmpOp::Ne => 990,
                _ => 333,
            })
            .min()
            .unwrap_or(500),
        None => 500,
    }
}

/// Order predicate indices cheapest-and-most-selective first. The sort is
/// stable with the original index as the final tie-break, so the result
/// is deterministic. Sound wherever the predicates commute (same-rank
/// selections, conjuncts of one condition): reordering changes evaluation
/// cost, never the surviving multiset.
fn order_predicate_refs(preds: &[&Expr], stats: Option<&Relation>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..preds.len()).collect();
    order.sort_by_key(|&i| (cost_class(preds[i]), selectivity_permille(preds[i], stats)));
    order
}

/// Reorder a predicate list for a fused narrowing pass (the delta path's
/// entry point — `Spreadsheet::narrow` conjoins in this order, so the
/// cache and the full evaluator apply the identical rewrite).
pub(crate) fn reorder_predicates(preds: &[Expr], stats: Option<&Relation>) -> Vec<Expr> {
    let refs: Vec<&Expr> = preds.iter().collect();
    order_predicate_refs(&refs, stats)
        .into_iter()
        .map(|i| preds[i].clone())
        .collect()
}

// ---------------------------------------------------------------------
// The unary-pipeline plan
// ---------------------------------------------------------------------

/// One rank's worth of step-3 work: computed columns to materialize
/// (creation order), then one fused filter pass (cost order).
#[derive(Debug, Clone, Default)]
pub(crate) struct Stage {
    /// Indices into `state.computed` materialized at this rank (only
    /// those a selection transitively reads — the rest are deferred).
    pub(crate) compute: Vec<usize>,
    /// Indices into `state.selections` fused into this rank's pass.
    pub(crate) filters: Vec<usize>,
}

/// The lowered plan for one `(base, QueryState)` pair: reference
/// validation, rank assignment, and the Theorem-2 rewrites both engines
/// share. The naive engine consumes only the rank assignment (it *is*
/// the unrewritten oracle); the index-vector engine executes the staged,
/// fused form.
pub struct Plan {
    /// Rank of each computed column, parallel to `state.computed`.
    pub(crate) ranks: Vec<usize>,
    /// Rank of each selection, parallel to `state.selections`.
    pub(crate) sel_ranks: Vec<usize>,
    pub(crate) max_rank: usize,
    /// Selections hoisted above duplicate elimination (rank 0 with dedup
    /// on), in fused execution order.
    pub(crate) pre_dedup: Vec<usize>,
    /// Step-3 work per rank, index = rank.
    pub(crate) stages: Vec<Stage>,
    root: PlanNode,
}

impl Plan {
    /// Validate, assign ranks, and apply the rewrites.
    pub fn prepare(base: &Relation, state: &QueryState) -> Result<Plan> {
        let base_cols: BTreeSet<String> = base
            .schema()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect();

        // Validate references before touching data.
        for col in state.referenced_columns() {
            if !base_cols.contains(&col) && !state.is_computed(&col) {
                return Err(SheetError::UnknownColumn { name: col });
            }
        }
        let ranks = compute_ranks(&base_cols, &state.computed).ok_or_else(|| {
            SheetError::Relation(ssa_relation::RelationError::TypeMismatch {
                context: "cyclic computed-column definitions".into(),
            })
        })?;

        let sel_ranks: Vec<usize> = state
            .selections
            .iter()
            .map(|s| {
                s.predicate
                    .columns()
                    .iter()
                    .map(|c| {
                        column_rank(c, &base_cols, &state.computed, &ranks)
                            .ok_or_else(|| SheetError::UnknownColumn { name: c.clone() })
                    })
                    .try_fold(0usize, |acc, r| r.map(|r| acc.max(r)))
            })
            .collect::<Result<_>>()?;

        let max_rank = ranks
            .iter()
            .chain(sel_ranks.iter())
            .copied()
            .max()
            .unwrap_or(0);

        // Computed columns a selection transitively reads must exist while
        // step 3 filters; everything else defers to step 4 (automatic
        // update), where it is computed once over the final multiset.
        let comp_idx: HashMap<&str, usize> = state
            .computed
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.as_str(), i))
            .collect();
        let mut early = vec![false; state.computed.len()];
        let mut pending: Vec<usize> = state
            .selections
            .iter()
            .flat_map(|s| s.predicate.columns())
            .filter_map(|n| comp_idx.get(n.as_str()).copied())
            .collect();
        while let Some(i) = pending.pop() {
            if !early[i] {
                early[i] = true;
                pending.extend(
                    state.computed[i]
                        .def
                        .dependencies()
                        .iter()
                        .filter_map(|n| comp_idx.get(n.as_str()).copied()),
                );
            }
        }

        // Bucket selections by rank, then order each bucket cheap-first.
        // Rank-0 selections reference base columns only; with dedup on
        // they hoist above duplicate elimination (duplicate R-tuples
        // agree on every base column, so the surviving first occurrences
        // are identical either way).
        let mut by_rank: Vec<Vec<usize>> = vec![Vec::new(); max_rank + 1];
        for (si, &r) in sel_ranks.iter().enumerate() {
            by_rank[r].push(si);
        }
        let order_bucket = |bucket: &[usize]| -> Vec<usize> {
            let preds: Vec<&Expr> = bucket
                .iter()
                .map(|&si| &state.selections[si].predicate)
                .collect();
            order_predicate_refs(&preds, Some(base))
                .into_iter()
                .map(|p| bucket[p])
                .collect()
        };
        let pre_dedup = if state.dedup {
            order_bucket(&std::mem::take(&mut by_rank[0]))
        } else {
            Vec::new()
        };
        let mut stages: Vec<Stage> = (0..=max_rank).map(|_| Stage::default()).collect();
        for (i, &r) in ranks.iter().enumerate() {
            if early[i] {
                stages[r].compute.push(i);
            }
        }
        for (r, bucket) in by_rank.iter().enumerate() {
            stages[r].filters = order_bucket(bucket);
        }

        let root = Plan::build_root(base, state, &ranks, &early, &pre_dedup, &stages);
        Ok(Plan {
            ranks,
            sel_ranks,
            max_rank,
            pre_dedup,
            stages,
            root,
        })
    }

    fn build_root(
        base: &Relation,
        state: &QueryState,
        ranks: &[usize],
        early: &[bool],
        pre_dedup: &[usize],
        stages: &[Stage],
    ) -> PlanNode {
        let sel_exprs = |idxs: &[usize]| -> Vec<Expr> {
            idxs.iter()
                .map(|&si| state.selections[si].predicate.clone())
                .collect()
        };
        let mut node = PlanNode::Scan {
            name: base.name().to_string(),
            rows: base.len(),
        };
        if !pre_dedup.is_empty() {
            node = PlanNode::Filter {
                predicates: sel_exprs(pre_dedup),
                input: Box::new(node),
            };
        }
        if state.dedup {
            node = PlanNode::Distinct {
                input: Box::new(node),
            };
        }
        for stage in stages {
            if !stage.compute.is_empty() {
                node = PlanNode::Compute {
                    columns: stage
                        .compute
                        .iter()
                        .map(|&i| state.computed[i].name.clone())
                        .collect(),
                    input: Box::new(node),
                };
            }
            if !stage.filters.is_empty() {
                node = PlanNode::Filter {
                    predicates: sel_exprs(&stage.filters),
                    input: Box::new(node),
                };
            }
        }
        // Step 4: deferred columns, computed once over the final multiset
        // (rank order).
        let mut deferred: Vec<usize> = (0..state.computed.len()).filter(|&i| !early[i]).collect();
        deferred.sort_by_key(|&i| ranks[i]);
        if !deferred.is_empty() {
            node = PlanNode::Compute {
                columns: deferred
                    .iter()
                    .map(|&i| state.computed[i].name.clone())
                    .collect(),
                input: Box::new(node),
            };
        }
        if !state.projected_out.is_empty() {
            node = PlanNode::Project {
                columns: crate::eval::visible_columns(base, state),
                input: Box::new(node),
            };
        }
        let sort_cols = state.spec.sort_columns();
        if !sort_cols.is_empty() {
            node = PlanNode::Sort {
                keys: sort_cols,
                input: Box::new(node),
            };
        }
        if !state.spec.levels.is_empty() {
            node = PlanNode::Group {
                levels: state.spec.levels.iter().map(|l| l.basis.clone()).collect(),
                input: Box::new(node),
            };
        }
        node
    }

    /// Computed-column indices, stably sorted by rank — the order in
    /// which both engines materialize (and the canonical relation lays
    /// out) the computed columns.
    pub(crate) fn rank_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.ranks.len()).collect();
        order.sort_by_key(|&i| self.ranks[i]);
        order
    }

    /// The lowered operator DAG (root node).
    pub fn root(&self) -> &PlanNode {
        &self.root
    }

    /// `EXPLAIN`-style text rendering of the plan.
    pub fn render(&self) -> String {
        self.root.render()
    }
}

// ---------------------------------------------------------------------
// Join-condition pushdown (sheet binary operators)
// ---------------------------------------------------------------------

/// Split a join condition over the combined schema into operand-local
/// conjuncts and the remaining cross-operand condition. A conjunct whose
/// columns all live in one operand filters that operand *before* the
/// join: the conjunction is TRUE exactly when every conjunct is TRUE
/// (three-valued AND), and the join emits left-major over subsequences of
/// each operand, so pre-filtering preserves both the surviving multiset
/// and the output order. Conjuncts spanning both sides — and anything
/// unresolvable — stay in the join condition.
///
/// Returned right-side predicates are rewritten into the right operand's
/// own column names (combined-schema names un-prefix back).
pub(crate) fn split_join_condition(
    combined: &Schema,
    left_width: usize,
    right: &Schema,
    condition: &Expr,
) -> (Vec<Expr>, Vec<Expr>, Option<Expr>) {
    let mut left_preds = Vec::new();
    let mut right_preds = Vec::new();
    let mut rest = Vec::new();
    for conjunct in condition.split_conjuncts() {
        let cols = conjunct.columns();
        let idxs: Option<Vec<usize>> = cols.iter().map(|c| combined.index_of(c).ok()).collect();
        match idxs {
            Some(idxs) if !idxs.is_empty() && idxs.iter().all(|&i| i < left_width) => {
                left_preds.push(conjunct.clone());
            }
            Some(idxs) if !idxs.is_empty() && idxs.iter().all(|&i| i >= left_width) => {
                // Un-prefix combined names back into the right operand's
                // own schema.
                let local = conjunct.map_columns(&|n| match combined.index_of(n) {
                    Ok(i) if i >= left_width => right.columns()[i - left_width].name.clone(),
                    _ => n.to_string(),
                });
                right_preds.push(local);
            }
            _ => rest.push(conjunct.clone()),
        }
    }
    (left_preds, right_preds, Expr::conjoin(rest))
}

/// Join two relations with single-side conjuncts pushed below the join,
/// cheap-first. Row-for-row identical (rows *and* order) to
/// `ops::join_opts(left, right, condition, …)`; when every conjunct
/// pushes down, the join degenerates to a product of the filtered
/// operands (same left-major order).
pub fn join_with_pushdown(
    left: &Relation,
    right: &Relation,
    condition: &Expr,
    parallel_threshold: usize,
) -> ssa_relation::Result<Relation> {
    let combined = left.schema().product(right.schema(), right.name());
    let (lp, rp, rest) =
        split_join_condition(&combined, left.schema().len(), right.schema(), condition);
    let apply = |rel: &Relation, preds: &[Expr]| -> ssa_relation::Result<Relation> {
        match Expr::conjoin(reorder_predicates(preds, Some(rel))) {
            Some(p) => ops::select(rel, &p),
            None => Ok(rel.clone()),
        }
    };
    let lf = apply(left, &lp)?;
    let rf = apply(right, &rp)?;
    match rest {
        Some(c) => ops::join_opts(&lf, &rf, &c, parallel_threshold),
        None => {
            let mut r = ops::product_opts(&lf, &rf, parallel_threshold)?;
            r.set_name(format!("{}_join_{}", left.name(), right.name()));
            Ok(r)
        }
    }
}

// ---------------------------------------------------------------------
// Multi-join table planning (FROM lists, TPC-H workloads)
// ---------------------------------------------------------------------

/// One join step: bring `input` into the running join tree, applying its
/// pushed-down filters first and `condition` at the join.
#[derive(Debug, Clone)]
struct JoinStep {
    input: usize,
    filters: Vec<Expr>,
    condition: Option<Expr>,
}

/// How the planned join tree restores the unplanned (left-deep,
/// FROM-order nested loop) row order. Cheapest applicable wins.
enum Strategy {
    /// The greedy join order came out equal to the FROM order: the hash
    /// join chain already emits nested-loop order. No provenance, no
    /// sort, no final projection.
    Chain { steps: Vec<JoinStep> },
    /// The cheapest start is not the FROM head, but `inputs[1..]` connect
    /// among themselves: chain them first, restore their FROM order, then
    /// join with `inputs[0]` as the LEFT operand — left-major join output
    /// restores nested-loop order without ever materializing a
    /// provenance column on the (typically largest) FROM head.
    Flip {
        head: JoinStep,
        rest: Vec<JoinStep>,
        /// Conjuncts connecting the head to the rest chain.
        condition: Option<Expr>,
    },
    /// General fallback (e.g. a star schema forced to start off-head):
    /// provenance column on every input, one final sort.
    Prov { steps: Vec<JoinStep> },
}

/// A planned multi-relation query block: selection pushdown below the
/// joins, greedy selectivity-ordered join tree, output order restored to
/// the unplanned nested-loop order. Built by [`plan_tables`]; borrows
/// its inputs, cloning rows only where filtering or renaming forces it.
pub struct TablePlan<'a> {
    root: PlanNode,
    inputs: Vec<&'a Relation>,
    /// Input schema in the combined (FROM-order product) name space,
    /// `Some` only when the fold actually renamed a clashing column.
    renamed: Vec<Option<Schema>>,
    /// Provenance column name per input (unique against the combined
    /// schema), materialized only where the strategy needs it.
    prov_names: Vec<String>,
    /// Combined-schema column names in FROM-order — the output schema.
    output_names: Vec<String>,
    strategy: Strategy,
    /// Conjuncts applied after the last join (no columns, or columns the
    /// combined schema does not know — the latter error exactly like the
    /// unplanned pipeline's WHERE).
    top: Vec<Expr>,
}

/// Plan `σ_condition(inputs[0] × inputs[1] × …)` — the FROM/WHERE core of
/// a query block. The returned plan executes the same multiset through
/// pushed-down filters and a selectivity-ordered hash-join tree, and
/// restores the exact left-deep nested-loop row order (prov-free when the
/// join order already yields it), so [`TablePlan::execute`] is
/// bitwise-identical to the unplanned pipeline.
pub fn plan_tables<'a>(
    inputs: &[&'a Relation],
    condition: Option<&Expr>,
) -> ssa_relation::Result<TablePlan<'a>> {
    assert!(!inputs.is_empty(), "plan_tables needs at least one input");

    // Final (combined) names: fold the FROM-order product over schemas.
    // Later products never rename earlier columns, so each input's slice
    // of the final combined schema is fixed once it is folded in.
    let mut combined = inputs[0].schema().clone();
    let mut offsets = vec![0usize];
    for r in &inputs[1..] {
        offsets.push(combined.len());
        combined = combined.product(r.schema(), r.name());
    }
    let output_names: Vec<String> = combined.names().iter().map(|s| s.to_string()).collect();

    // Each input's schema in the combined name space — `Some` only where
    // the fold renamed a clashing column, so unrenamed inputs execute
    // zero-copy off the borrow. Provenance names are reserved up front
    // but materialized only where the chosen strategy needs them.
    let mut renamed: Vec<Option<Schema>> = Vec::with_capacity(inputs.len());
    let mut prov_names: Vec<String> = Vec::with_capacity(inputs.len());
    for (j, r) in inputs.iter().enumerate() {
        let slice = &combined.columns()[offsets[j]..offsets[j] + r.schema().len()];
        let changed = slice
            .iter()
            .zip(r.schema().columns())
            .any(|(c, o)| c.name != o.name);
        renamed.push(if changed {
            Some(Schema::new(slice.to_vec())?)
        } else {
            None
        });
        let mut prov = format!("__prov{j}");
        while combined.contains(&prov) {
            prov.push('_');
        }
        prov_names.push(prov);
    }

    // Statistics live on the *borrowed* inputs, whose columns may carry
    // pre-rename names; translate combined names back before asking.
    let orig_col = |j: usize, name: &str| -> String {
        match combined.index_of(name) {
            Ok(i) if i >= offsets[j] && i < offsets[j] + inputs[j].schema().len() => {
                inputs[j].schema().columns()[i - offsets[j]].name.clone()
            }
            _ => name.to_string(),
        }
    };
    let orig_expr = |j: usize, e: &Expr| -> Expr {
        match &renamed[j] {
            None => e.clone(),
            Some(_) => e.map_columns(&|n| orig_col(j, n)),
        }
    };

    // Classify WHERE conjuncts by the set of inputs they touch.
    let owner: HashMap<&str, usize> = (0..inputs.len())
        .flat_map(|j| {
            let w = inputs[j].schema().len();
            combined.columns()[offsets[j]..offsets[j] + w]
                .iter()
                .map(move |c| (c.name.as_str(), j))
        })
        .collect();
    let mut filters: Vec<Vec<Expr>> = vec![Vec::new(); inputs.len()];
    let mut top: Vec<Expr> = Vec::new();
    // (conjunct, touched inputs) — multi-table conjuncts await a join.
    let mut join_conjs: Vec<(Expr, BTreeSet<usize>)> = Vec::new();
    if let Some(cond) = condition {
        for conjunct in cond.split_conjuncts() {
            let cols = conjunct.columns();
            let tables: Option<BTreeSet<usize>> = cols
                .iter()
                .map(|c| owner.get(c.as_str()).copied())
                .collect();
            match tables {
                Some(t) if t.len() == 1 => {
                    let j = *t.iter().next().unwrap_or(&0);
                    filters[j].push(conjunct.clone());
                }
                Some(t) if t.len() > 1 => join_conjs.push((conjunct.clone(), t)),
                // Zero columns, or a column the combined schema lacks:
                // evaluate at the top, exactly like the unplanned WHERE.
                _ => top.push(conjunct.clone()),
            }
        }
    }

    // Estimated post-filter cardinality per input.
    let est: Vec<f64> = (0..inputs.len())
        .map(|j| {
            let mut e = inputs[j].row_count() as f64;
            for p in &filters[j] {
                e *= selectivity_permille(&orig_expr(j, p), Some(inputs[j])) as f64 / 1000.0;
            }
            e.max(1.0)
        })
        .collect();

    // Estimated distinct count for an equi-join column on its input.
    let col_distinct = |j: usize, col: &str| -> f64 {
        inputs[j]
            .distinct_estimate(&orig_col(j, col))
            .unwrap_or(1)
            .max(1) as f64
    };
    // Selectivity of one join conjunct between the placed set and `j`:
    // equi column pairs use 1/max(d_a, d_b); anything else a flat third.
    let conj_selectivity = |conj: &Expr, j: usize| -> f64 {
        if let Expr::Cmp(a, CmpOp::Eq, b) = conj {
            if let (Expr::Col(x), Expr::Col(y)) = (a.as_ref(), b.as_ref()) {
                let (dx, dy) = match (owner.get(x.as_str()), owner.get(y.as_str())) {
                    (Some(&jx), Some(&jy)) if jx == j || jy == j => {
                        (col_distinct(jx, x), col_distinct(jy, y))
                    }
                    _ => return 1.0 / 3.0,
                };
                return 1.0 / dx.max(dy);
            }
        }
        1.0 / 3.0
    };

    // Greedy chain over `members`: start from the smallest estimated
    // input, then repeatedly bring in the connected member minimizing the
    // estimated output cardinality (cross products only when nothing
    // connects). Only conjuncts fully inside `members` are attached; each
    // fires at the step where the last input it touches is placed.
    let greedy = |members: &[usize]| -> Vec<JoinStep> {
        let mut start = members[0];
        for &j in &members[1..] {
            if est[j] < est[start] {
                start = j;
            }
        }
        let mut placed = vec![false; inputs.len()];
        placed[start] = true;
        let mut used = vec![false; join_conjs.len()];
        let mut cur_est = est[start];
        let mut steps = vec![JoinStep {
            input: start,
            filters: Vec::new(),
            condition: None,
        }];
        while steps.len() < members.len() {
            let mut best: Option<(bool, f64, usize, Vec<usize>)> = None;
            for &j in members {
                if placed[j] {
                    continue;
                }
                let edges: Vec<usize> = join_conjs
                    .iter()
                    .enumerate()
                    .filter(|(ci, (_, tables))| {
                        !used[*ci]
                            && tables.contains(&j)
                            && tables.iter().all(|&t| t == j || placed[t])
                    })
                    .map(|(ci, _)| ci)
                    .collect();
                let connected = !edges.is_empty();
                let mut out = cur_est * est[j];
                for &ci in &edges {
                    out *= conj_selectivity(&join_conjs[ci].0, j);
                }
                let out = out.max(1.0);
                let better = match &best {
                    None => true,
                    // Connected candidates always beat disconnected (avoid
                    // cross products); then lowest estimated output; then
                    // FROM order for determinism.
                    Some((bc, bo, bj, _)) => {
                        if connected != *bc {
                            connected
                        } else {
                            match out.total_cmp(bo) {
                                std::cmp::Ordering::Less => true,
                                std::cmp::Ordering::Equal => j < *bj,
                                std::cmp::Ordering::Greater => false,
                            }
                        }
                    }
                };
                if better {
                    best = Some((connected, out, j, edges));
                }
            }
            let Some((_, out, j, edges)) = best else {
                break;
            };
            placed[j] = true;
            cur_est = out;
            let cond = Expr::conjoin(edges.iter().map(|&ci| join_conjs[ci].0.clone()).collect());
            for ci in edges {
                used[ci] = true;
            }
            steps.push(JoinStep {
                input: j,
                filters: Vec::new(),
                condition: cond,
            });
        }
        steps
    };
    // Order each step's pushed filters cheap-first (statistics off the
    // borrowed input, names translated back) and attach them.
    let attach = |steps: &mut [JoinStep]| {
        for step in steps.iter_mut() {
            let j = step.input;
            let local: Vec<Expr> = filters[j].iter().map(|p| orig_expr(j, p)).collect();
            let refs: Vec<&Expr> = local.iter().collect();
            let order = order_predicate_refs(&refs, Some(inputs[j]));
            step.filters = order.iter().map(|&i| filters[j][i].clone()).collect();
        }
    };

    let n = inputs.len();
    let all: Vec<usize> = (0..n).collect();
    let mut steps = greedy(&all);
    attach(&mut steps);

    // Pick the cheapest order-restoration strategy (see [`Strategy`]).
    let from_order = steps.iter().enumerate().all(|(i, s)| s.input == i);
    let strategy = if from_order {
        Strategy::Chain { steps }
    } else {
        let rest_members: Vec<usize> = (1..n).collect();
        let mut rest = greedy(&rest_members);
        // The flip is worthwhile only when inputs[1..] connect among
        // themselves — a cross product inside the rest chain would blow
        // up what the full greedy order avoided.
        if rest[1..].iter().all(|s| s.condition.is_some()) {
            attach(&mut rest);
            let mut head = JoinStep {
                input: 0,
                filters: Vec::new(),
                condition: None,
            };
            attach(std::slice::from_mut(&mut head));
            let cond = Expr::conjoin(
                join_conjs
                    .iter()
                    .filter(|(_, t)| t.contains(&0))
                    .map(|(c, _)| c.clone())
                    .collect(),
            );
            Strategy::Flip {
                head,
                rest,
                condition: cond,
            }
        } else {
            Strategy::Prov { steps }
        }
    };

    // Mirror the strategy as a PlanNode tree for EXPLAIN.
    let leaf = |step: &JoinStep| -> PlanNode {
        let scan = PlanNode::Scan {
            name: inputs[step.input].name().to_string(),
            rows: inputs[step.input].row_count(),
        };
        if step.filters.is_empty() {
            scan
        } else {
            PlanNode::Filter {
                predicates: step.filters.clone(),
                input: Box::new(scan),
            }
        }
    };
    let fold_nodes = |steps: &[JoinStep]| -> (PlanNode, f64) {
        let mut root = leaf(&steps[0]);
        let mut run_est = est[steps[0].input];
        for step in &steps[1..] {
            run_est *= est[step.input];
            if let Some(c) = &step.condition {
                for conj in c.split_conjuncts() {
                    run_est *= conj_selectivity(conj, step.input);
                }
                run_est = run_est.max(1.0);
                root = PlanNode::Join {
                    condition: Some(c.clone()),
                    est_rows: run_est as usize,
                    left: Box::new(root),
                    right: Box::new(leaf(step)),
                };
            } else {
                root = PlanNode::Product {
                    left: Box::new(root),
                    right: Box::new(leaf(step)),
                };
            }
        }
        (root, run_est)
    };
    let mut root = match &strategy {
        Strategy::Chain { steps } | Strategy::Prov { steps } => fold_nodes(steps).0,
        Strategy::Flip {
            head,
            rest,
            condition,
        } => {
            let (right, rest_est) = fold_nodes(rest);
            match condition {
                Some(c) => {
                    let mut run_est = rest_est * est[0];
                    for conj in c.split_conjuncts() {
                        run_est *= conj_selectivity(conj, 0);
                    }
                    PlanNode::Join {
                        condition: Some(c.clone()),
                        est_rows: run_est.max(1.0) as usize,
                        left: Box::new(leaf(head)),
                        right: Box::new(right),
                    }
                }
                None => PlanNode::Product {
                    left: Box::new(leaf(head)),
                    right: Box::new(right),
                },
            }
        }
    };
    if !top.is_empty() {
        root = PlanNode::Filter {
            predicates: top.clone(),
            input: Box::new(root),
        };
    }

    Ok(TablePlan {
        root,
        inputs: inputs.to_vec(),
        renamed,
        prov_names,
        output_names,
        strategy,
        top,
    })
}

impl<'a> TablePlan<'a> {
    /// The lowered join tree (root node).
    pub fn root(&self) -> &PlanNode {
        &self.root
    }

    /// `EXPLAIN`-style text rendering.
    pub fn render(&self) -> String {
        self.root.render()
    }

    /// Input `j` in the combined name space — borrowed (zero-copy) when
    /// the FROM-order fold left its column names unchanged.
    fn source(&self, j: usize) -> ssa_relation::Result<Cow<'a, Relation>> {
        Ok(match &self.renamed[j] {
            Some(s) => {
                // Same rows under renamed columns: the clone shares every
                // row chunk with the input.
                let mut renamed = self.inputs[j].clone();
                *renamed.schema_mut() = s.clone();
                Cow::Owned(renamed)
            }
            None => Cow::Borrowed(self.inputs[j]),
        })
    }

    /// [`Self::source`] with the step's pushed-down filters applied.
    fn prepped(&self, step: &JoinStep) -> ssa_relation::Result<Cow<'a, Relation>> {
        let src = self.source(step.input)?;
        match Expr::conjoin(step.filters.clone()) {
            Some(p) => Ok(Cow::Owned(ops::select(&src, &p)?)),
            None => Ok(src),
        }
    }

    /// [`Self::prepped`] plus a provenance column numbering the surviving
    /// rows. Post-filter indices are dense but order-isomorphic to the
    /// original row positions (selection keeps a subsequence), so sorting
    /// by them is sorting by original position.
    fn prov_prepped(&self, step: &JoinStep) -> ssa_relation::Result<Relation> {
        let mut rel = self.prepped(step)?.into_owned();
        rel.add_column(
            Column::new(self.prov_names[step.input].clone(), ValueType::Int),
            |i, _| Value::Int(i as i64),
        )?;
        Ok(rel)
    }

    /// Left-deep fold of a step chain (first step's condition is `None`).
    fn fold_chain(
        &self,
        steps: &[JoinStep],
        parallel_threshold: usize,
    ) -> ssa_relation::Result<Cow<'a, Relation>> {
        let mut cur = self.prepped(&steps[0])?;
        for step in &steps[1..] {
            let rhs = self.prepped(step)?;
            cur = Cow::Owned(match &step.condition {
                Some(c) => ops::join_opts(&cur, &rhs, c, parallel_threshold)?,
                None => ops::product_opts(&cur, &rhs, parallel_threshold)?,
            });
        }
        Ok(cur)
    }

    /// Execute the plan. The result carries the combined (FROM-order
    /// product) schema and the exact row order of the unplanned
    /// `σ(scan₀ × scan₁ × …)` pipeline. A FROM-order hash-join chain
    /// already emits that order for free; otherwise provenance columns
    /// are materialized on exactly the out-of-order inputs, sorted back,
    /// and projected away.
    pub fn execute(&self, parallel_threshold: usize) -> ssa_relation::Result<Relation> {
        let sort_by_provs =
            |cur: &mut Relation, mut provs: Vec<usize>| -> ssa_relation::Result<()> {
                provs.sort_unstable();
                let prov_idx: Vec<usize> = provs
                    .iter()
                    .map(|&j| cur.schema().index_of(&self.prov_names[j]))
                    .collect::<ssa_relation::Result<_>>()?;
                cur.rows_mut().sort_by(|a, b| {
                    prov_idx
                        .iter()
                        .map(|&i| a.get(i))
                        .cmp(prov_idx.iter().map(|&i| b.get(i)))
                });
                Ok(())
            };
        let mut cur: Relation = match &self.strategy {
            // Greedy order == FROM order: the chain is already in
            // nested-loop order, untouched borrows flow straight through.
            Strategy::Chain { steps } => self.fold_chain(steps, parallel_threshold)?.into_owned(),
            Strategy::Flip {
                head,
                rest,
                condition,
            } => {
                // When the rest chain itself runs in FROM order its output
                // is already nested-loop ordered — skip provenance there
                // too. Otherwise number only the rest inputs and sort the
                // (small, post-join) chain back into their FROM order.
                let ordered = rest.windows(2).all(|w| w[0].input < w[1].input);
                let right: Relation = if ordered {
                    self.fold_chain(rest, parallel_threshold)?.into_owned()
                } else {
                    let mut cur = self.prov_prepped(&rest[0])?;
                    for step in &rest[1..] {
                        let rhs = self.prov_prepped(step)?;
                        cur = match &step.condition {
                            Some(c) => ops::join_opts(&cur, &rhs, c, parallel_threshold)?,
                            None => ops::product_opts(&cur, &rhs, parallel_threshold)?,
                        };
                    }
                    sort_by_provs(&mut cur, rest.iter().map(|s| s.input).collect())?;
                    cur
                };
                // Final join with the untouched FROM head as the LEFT
                // operand: hash-join output is left-major with right
                // matches in right-row order, which is exactly the
                // nested-loop order over (head, rest-in-FROM-order).
                let left = self.prepped(head)?;
                match condition {
                    Some(c) => ops::join_opts(&left, &right, c, parallel_threshold)?,
                    None => ops::product_opts(&left, &right, parallel_threshold)?,
                }
            }
            Strategy::Prov { steps } => {
                let mut cur = self.prov_prepped(&steps[0])?;
                for step in &steps[1..] {
                    let rhs = self.prov_prepped(step)?;
                    cur = match &step.condition {
                        Some(c) => ops::join_opts(&cur, &rhs, c, parallel_threshold)?,
                        None => ops::product_opts(&cur, &rhs, parallel_threshold)?,
                    };
                }
                cur
            }
        };
        if let Some(p) = Expr::conjoin(self.top.clone()) {
            cur = ops::select(&cur, &p)?;
        }
        if let Strategy::Prov { steps } = &self.strategy {
            sort_by_provs(&mut cur, steps.iter().map(|s| s.input).collect())?;
        }
        // Project away provenance / restore combined column order — a
        // no-op (skipped) when the chain already emitted the combined
        // schema verbatim.
        let names: Vec<&str> = self.output_names.iter().map(String::as_str).collect();
        if cur.schema().names() == names {
            Ok(cur)
        } else {
            ops::project(&cur, &names)
        }
    }
}
