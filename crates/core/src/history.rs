//! Operation history: the "History" menu of Sec. VI — a numbered list of
//! all manipulations with meaningful names, one-step and multi-step
//! undo/redo — wrapped around a [`Spreadsheet`] as the [`Engine`].
//!
//! Undo is snapshot-based: every operation records the sheet's defining
//! data (base + state) beforehand, making all user actions reversible
//! (direct-manipulation desideratum iii). Query *modification* (Sec. V)
//! lives on the engine too, so that state edits are themselves undoable
//! history entries.

use crate::error::{Result, SheetError};
use crate::eval::Derived;
use crate::replica::SheetOp;
use crate::sheet::{Spreadsheet, StoredSheet};
use crate::spec::Direction;
use crate::state::QueryState;
use ssa_relation::{AggFunc, Expr, Relation};
use std::fmt;
use std::sync::Arc;

/// A completed operation, named the way the History menu shows it.
#[derive(Debug, Clone, PartialEq)]
pub enum OpRecord {
    Group {
        basis: Vec<String>,
        order: Direction,
    },
    Regroup {
        basis: Vec<String>,
        order: Direction,
    },
    Ungroup,
    Order {
        attribute: String,
        order: Direction,
        level: usize,
    },
    Select {
        id: u64,
        predicate: String,
    },
    Project {
        column: String,
    },
    Reinstate {
        column: String,
    },
    Aggregate {
        column: String,
        func: AggFunc,
        input: String,
        level: usize,
    },
    Formula {
        column: String,
        expr: String,
    },
    Dedup,
    Rename {
        from: String,
        to: String,
    },
    Product {
        with: String,
    },
    Join {
        with: String,
        condition: String,
    },
    Union {
        with: String,
    },
    Difference {
        with: String,
    },
    ModifySelection {
        id: u64,
        predicate: String,
    },
    RemoveSelection {
        id: u64,
    },
    RemoveComputed {
        column: String,
    },
    AppendRows {
        count: usize,
    },
    DeleteRows {
        count: usize,
    },
    UpdateCell {
        column: String,
        row: u32,
    },
}

impl OpRecord {
    /// Whether this entry is a binary operator — a point of
    /// non-commutativity.
    pub fn is_binary(&self) -> bool {
        matches!(
            self,
            OpRecord::Product { .. }
                | OpRecord::Join { .. }
                | OpRecord::Union { .. }
                | OpRecord::Difference { .. }
        )
    }
}

impl fmt::Display for OpRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpRecord::Group { basis, order } => {
                write!(f, "Group by {{{}}} {order}", basis.join(", "))
            }
            OpRecord::Regroup { basis, order } => {
                write!(f, "Regroup by {{{}}} {order}", basis.join(", "))
            }
            OpRecord::Ungroup => write!(f, "Remove grouping"),
            OpRecord::Order {
                attribute,
                order,
                level,
            } => {
                write!(f, "Order level {level} by {attribute} {order}")
            }
            OpRecord::Select { id, predicate } => write!(f, "Select [{predicate}] (#{id})"),
            OpRecord::Project { column } => write!(f, "Project out {column}"),
            OpRecord::Reinstate { column } => write!(f, "Reinstate {column}"),
            OpRecord::Aggregate {
                column,
                func,
                input,
                level,
            } => {
                write!(f, "Aggregate {column} = {func}({input}) at level {level}")
            }
            OpRecord::Formula { column, expr } => write!(f, "Formula {column} = {expr}"),
            OpRecord::Dedup => write!(f, "Remove duplicates"),
            OpRecord::Rename { from, to } => write!(f, "Rename {from} to {to}"),
            OpRecord::Product { with } => write!(f, "Product with {with}"),
            OpRecord::Join { with, condition } => write!(f, "Join with {with} on {condition}"),
            OpRecord::Union { with } => write!(f, "Union with {with}"),
            OpRecord::Difference { with } => write!(f, "Difference with {with}"),
            OpRecord::ModifySelection { id, predicate } => {
                write!(f, "Modify selection #{id} to [{predicate}]")
            }
            OpRecord::RemoveSelection { id } => write!(f, "Remove selection #{id}"),
            OpRecord::RemoveComputed { column } => write!(f, "Remove column {column}"),
            OpRecord::AppendRows { count } => write!(f, "Append {count} row(s)"),
            OpRecord::DeleteRows { count } => write!(f, "Delete {count} row(s)"),
            OpRecord::UpdateCell { column, row } => {
                write!(f, "Update {column} of base row {row}")
            }
        }
    }
}

/// O(1): the base is held by `Arc`, so recording history never
/// copies data (base edits copy-on-write away from held snapshots).
type Snapshot = (Arc<Relation>, QueryState, u64, u64);

/// A spreadsheet with history: every operator of the algebra, recorded,
/// undoable and redoable.
#[derive(Debug, Clone)]
pub struct Engine {
    sheet: Spreadsheet,
    undo_stack: Vec<(OpRecord, Snapshot)>,
    redo_stack: Vec<(OpRecord, Snapshot)>,
}

impl Engine {
    pub fn over(relation: Relation) -> Engine {
        Engine {
            sheet: Spreadsheet::over(relation),
            undo_stack: Vec::new(),
            redo_stack: Vec::new(),
        }
    }

    /// An engine over an already-shared base relation: the session holds
    /// the `Arc` without copying data (see [`Spreadsheet::over_shared`]).
    pub fn over_shared(relation: Arc<Relation>) -> Engine {
        Engine {
            sheet: Spreadsheet::over_shared(relation),
            undo_stack: Vec::new(),
            redo_stack: Vec::new(),
        }
    }

    pub fn from_sheet(sheet: Spreadsheet) -> Engine {
        Engine {
            sheet,
            undo_stack: Vec::new(),
            redo_stack: Vec::new(),
        }
    }

    pub fn sheet(&self) -> &Spreadsheet {
        &self.sheet
    }

    pub fn sheet_mut(&mut self) -> &mut Spreadsheet {
        &mut self.sheet
    }

    /// Evaluated view of the current sheet.
    pub fn view(&mut self) -> Result<&Derived> {
        self.sheet.view()
    }

    /// Re-pin the sheet to a newer snapshot of its base (see
    /// [`Spreadsheet::rebase_with`]). Undo/redo snapshots that hold the
    /// base being replaced are re-pointed to the new one, so stepping
    /// through history moves query state only: it never brings back
    /// superseded data, and old history does not keep old rows alive.
    pub fn rebase_with(&mut self, base: Arc<Relation>, edits: Option<&[SheetOp]>) -> Result<()> {
        let old = self.sheet.base_arc();
        self.sheet.rebase_with(Arc::clone(&base), edits)?;
        for (_, snapshot) in self.undo_stack.iter_mut().chain(&mut self.redo_stack) {
            if Arc::ptr_eq(&snapshot.0, &old) {
                snapshot.0 = Arc::clone(&base);
            }
        }
        Ok(())
    }

    /// The numbered history listing (most recent last).
    pub fn history(&self) -> Vec<String> {
        self.undo_stack
            .iter()
            .enumerate()
            .map(|(i, (op, _))| format!("{}. {op}", i + 1))
            .collect()
    }

    /// Operations performed so far (for tests and the study driver).
    pub fn records(&self) -> Vec<&OpRecord> {
        self.undo_stack.iter().map(|(op, _)| op).collect()
    }

    fn apply<T>(
        &mut self,
        record: OpRecord,
        f: impl FnOnce(&mut Spreadsheet) -> Result<T>,
    ) -> Result<T> {
        let snapshot = self.sheet.snapshot();
        match f(&mut self.sheet) {
            Ok(v) => {
                self.undo_stack.push((record, snapshot));
                self.redo_stack.clear();
                Ok(v)
            }
            Err(e) => {
                // A failed operator must leave the sheet untouched; most
                // ops validate before mutating, but restore defensively.
                let (b, s, ep, ver) = snapshot;
                self.sheet.restore(b, s, ep, ver);
                Err(e)
            }
        }
    }

    /// Undo the most recent operation. Returns its record.
    pub fn undo(&mut self) -> Result<OpRecord> {
        let (op, before) = self
            .undo_stack
            .pop()
            .ok_or(SheetError::HistoryExhausted { redo: false })?;
        let now = self.sheet.snapshot();
        let (b, s, ep, ver) = before;
        self.sheet.restore(b, s, ep, ver);
        self.redo_stack.push((op.clone(), now));
        Ok(op)
    }

    /// Redo the most recently undone operation.
    pub fn redo(&mut self) -> Result<OpRecord> {
        let (op, after) = self
            .redo_stack
            .pop()
            .ok_or(SheetError::HistoryExhausted { redo: true })?;
        let before = self.sheet.snapshot();
        let (b, s, ep, ver) = after;
        self.sheet.restore(b, s, ep, ver);
        self.undo_stack.push((op.clone(), before));
        Ok(op)
    }

    /// Multi-step undo.
    pub fn undo_steps(&mut self, steps: usize) -> Result<Vec<OpRecord>> {
        (0..steps).map(|_| self.undo()).collect()
    }

    /// Multi-step redo.
    pub fn redo_steps(&mut self, steps: usize) -> Result<Vec<OpRecord>> {
        (0..steps).map(|_| self.redo()).collect()
    }

    // --- recorded operators -------------------------------------------

    pub fn group(&mut self, basis: &[&str], order: Direction) -> Result<()> {
        let record = OpRecord::Group {
            basis: basis.iter().map(|s| s.to_string()).collect(),
            order,
        };
        self.apply(record, |s| s.group(basis, order))
    }

    pub fn group_add(&mut self, attributes: &[&str], order: Direction) -> Result<()> {
        let record = OpRecord::Group {
            basis: attributes.iter().map(|s| s.to_string()).collect(),
            order,
        };
        self.apply(record, |s| s.group_add(attributes, order))
    }

    pub fn regroup(&mut self, attributes: &[&str], order: Direction) -> Result<()> {
        let record = OpRecord::Regroup {
            basis: attributes.iter().map(|s| s.to_string()).collect(),
            order,
        };
        self.apply(record, |s| s.regroup(attributes, order))
    }

    pub fn ungroup(&mut self) -> Result<()> {
        self.apply(OpRecord::Ungroup, |s| s.ungroup())
    }

    pub fn order(&mut self, attribute: &str, order: Direction, level: usize) -> Result<()> {
        let record = OpRecord::Order {
            attribute: attribute.to_string(),
            order,
            level,
        };
        self.apply(record, |s| s.order(attribute, order, level))
    }

    pub fn select(&mut self, predicate: Expr) -> Result<u64> {
        // The id is assigned inside; patch the record afterwards.
        let text = predicate.to_string();
        let snapshot = self.sheet.snapshot();
        match self.sheet.select(predicate) {
            Ok(id) => {
                self.undo_stack.push((
                    OpRecord::Select {
                        id,
                        predicate: text,
                    },
                    snapshot,
                ));
                self.redo_stack.clear();
                Ok(id)
            }
            Err(e) => Err(e),
        }
    }

    pub fn project_out(&mut self, column: &str) -> Result<()> {
        let record = OpRecord::Project {
            column: column.to_string(),
        };
        self.apply(record, |s| s.project_out(column))
    }

    pub fn reinstate(&mut self, column: &str) -> Result<()> {
        let record = OpRecord::Reinstate {
            column: column.to_string(),
        };
        self.apply(record, |s| s.reinstate(column))
    }

    pub fn aggregate(&mut self, func: AggFunc, column: &str, level: usize) -> Result<String> {
        let snapshot = self.sheet.snapshot();
        match self.sheet.aggregate(func, column, level) {
            Ok(name) => {
                self.undo_stack.push((
                    OpRecord::Aggregate {
                        column: name.clone(),
                        func,
                        input: column.to_string(),
                        level,
                    },
                    snapshot,
                ));
                self.redo_stack.clear();
                Ok(name)
            }
            Err(e) => Err(e),
        }
    }

    pub fn formula(&mut self, name: Option<&str>, expr: Expr) -> Result<String> {
        let text = expr.to_string();
        let snapshot = self.sheet.snapshot();
        match self.sheet.formula(name, expr) {
            Ok(col) => {
                self.undo_stack.push((
                    OpRecord::Formula {
                        column: col.clone(),
                        expr: text,
                    },
                    snapshot,
                ));
                self.redo_stack.clear();
                Ok(col)
            }
            Err(e) => Err(e),
        }
    }

    pub fn dedup(&mut self) -> Result<()> {
        self.apply(OpRecord::Dedup, |s| s.dedup())
    }

    pub fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        let record = OpRecord::Rename {
            from: from.to_string(),
            to: to.to_string(),
        };
        self.apply(record, |s| s.rename(from, to))
    }

    pub fn product(&mut self, stored: &StoredSheet) -> Result<()> {
        let record = OpRecord::Product {
            with: stored.name.clone(),
        };
        self.apply(record, |s| s.product(stored))
    }

    pub fn join(&mut self, stored: &StoredSheet, condition: Expr) -> Result<()> {
        let record = OpRecord::Join {
            with: stored.name.clone(),
            condition: condition.to_string(),
        };
        self.apply(record, |s| s.join(stored, condition))
    }

    pub fn union(&mut self, stored: &StoredSheet) -> Result<()> {
        let record = OpRecord::Union {
            with: stored.name.clone(),
        };
        self.apply(record, |s| s.union(stored))
    }

    pub fn difference(&mut self, stored: &StoredSheet) -> Result<()> {
        let record = OpRecord::Difference {
            with: stored.name.clone(),
        };
        self.apply(record, |s| s.difference(stored))
    }

    pub fn save(&self, name: impl Into<String>) -> Result<StoredSheet> {
        self.sheet.save(name)
    }

    // --- query modification (recorded) ---------------------------------

    /// If a selection id is gone because a binary operator consumed it,
    /// say so precisely: "where data from other sheets has been pulled in
    /// we cannot go back beyond" (Sec. V-A).
    fn diagnose_missing_selection(&self, id: u64, err: SheetError) -> SheetError {
        if !matches!(err, SheetError::UnknownSelection { .. }) {
            return err;
        }
        let mut described: Option<String> = None;
        for (op, _) in &self.undo_stack {
            match op {
                OpRecord::Select { id: sid, predicate } if *sid == id => {
                    described = Some(predicate.clone());
                }
                _ if op.is_binary() && described.is_some() => {
                    return SheetError::BehindNonCommutativityPoint {
                        description: described.expect("just checked"),
                    };
                }
                _ => {}
            }
        }
        err
    }

    pub fn replace_selection(&mut self, id: u64, predicate: Expr) -> Result<()> {
        let record = OpRecord::ModifySelection {
            id,
            predicate: predicate.to_string(),
        };
        self.apply(record, |s| s.replace_selection(id, predicate))
            .map_err(|e| self.diagnose_missing_selection(id, e))
    }

    pub fn remove_selection(&mut self, id: u64) -> Result<()> {
        self.apply(OpRecord::RemoveSelection { id }, |s| s.remove_selection(id))
            .map_err(|e| self.diagnose_missing_selection(id, e))
    }

    pub fn remove_computed(&mut self, column: &str) -> Result<()> {
        let record = OpRecord::RemoveComputed {
            column: column.to_string(),
        };
        self.apply(record, |s| s.remove_computed(column))
    }

    // --- base-data edits (recorded) ------------------------------------

    /// Feed rows into the base relation (DESIGN.md §14). Undo restores
    /// the pre-append base via the snapshot, like every other entry.
    pub fn append_rows(&mut self, rows: Vec<ssa_relation::Tuple>) -> Result<usize> {
        let record = OpRecord::AppendRows { count: rows.len() };
        self.apply(record, |s| s.append_rows(rows))
    }

    pub fn delete_rows(&mut self, ids: &[u32]) -> Result<usize> {
        let record = OpRecord::DeleteRows { count: ids.len() };
        self.apply(record, |s| s.delete_rows(ids))
    }

    /// Delete by predicate; the record carries the actual row count.
    pub fn delete_where(&mut self, predicate: &Expr) -> Result<usize> {
        let snapshot = self.sheet.snapshot();
        match self.sheet.delete_where(predicate) {
            Ok(count) => {
                self.undo_stack
                    .push((OpRecord::DeleteRows { count }, snapshot));
                self.redo_stack.clear();
                Ok(count)
            }
            Err(e) => Err(e),
        }
    }

    pub fn update_cell(
        &mut self,
        row: u32,
        column: &str,
        value: ssa_relation::Value,
    ) -> Result<ssa_relation::Value> {
        let record = OpRecord::UpdateCell {
            column: column.to_string(),
            row,
        };
        self.apply(record, |s| s.update_cell(row, column, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::used_cars;

    fn engine() -> Engine {
        Engine::over(used_cars())
    }

    #[test]
    fn history_is_a_numbered_list_with_meaningful_names() {
        let mut e = engine();
        e.select(Expr::col("Year").eq(Expr::lit(2005))).unwrap();
        e.group_add(&["Model"], Direction::Asc).unwrap();
        e.aggregate(AggFunc::Avg, "Price", 2).unwrap();
        let h = e.history();
        assert_eq!(h.len(), 3);
        assert!(h[0].starts_with("1. Select [Year = 2005]"));
        assert!(h[1].contains("Group by {Model} ASC"));
        assert!(h[2].contains("Avg_Price = Avg(Price) at level 2"));
    }

    #[test]
    fn undo_redo_single_step() {
        let mut e = engine();
        e.select(Expr::col("Model").eq(Expr::lit("Civic"))).unwrap();
        assert_eq!(e.view().unwrap().len(), 3);
        let op = e.undo().unwrap();
        assert!(matches!(op, OpRecord::Select { .. }));
        assert_eq!(e.view().unwrap().len(), 9);
        e.redo().unwrap();
        assert_eq!(e.view().unwrap().len(), 3);
    }

    #[test]
    fn undo_redo_multi_step() {
        let mut e = engine();
        e.select(Expr::col("Year").eq(Expr::lit(2005))).unwrap();
        e.select(Expr::col("Model").eq(Expr::lit("Jetta"))).unwrap();
        e.project_out("Mileage").unwrap();
        e.undo_steps(3).unwrap();
        assert_eq!(e.view().unwrap().len(), 9);
        assert_eq!(e.view().unwrap().visible.len(), 6);
        e.redo_steps(2).unwrap();
        assert_eq!(e.view().unwrap().len(), 3);
        assert!(matches!(
            e.redo_steps(2),
            Err(SheetError::HistoryExhausted { redo: true })
        ));
    }

    #[test]
    fn new_operation_clears_redo() {
        let mut e = engine();
        e.select(Expr::col("Year").eq(Expr::lit(2005))).unwrap();
        e.undo().unwrap();
        e.dedup().unwrap();
        assert!(matches!(
            e.redo(),
            Err(SheetError::HistoryExhausted { redo: true })
        ));
    }

    #[test]
    fn undo_on_empty_history_errors() {
        let mut e = engine();
        assert!(matches!(
            e.undo(),
            Err(SheetError::HistoryExhausted { redo: false })
        ));
    }

    #[test]
    fn failed_operation_records_nothing() {
        let mut e = engine();
        assert!(e.select(Expr::col("Ghost").eq(Expr::lit(1))).is_err());
        assert!(e.aggregate(AggFunc::Avg, "Model", 1).is_err());
        assert!(e.order("Price", Direction::Asc, 5).is_err());
        assert!(e.history().is_empty());
        assert_eq!(e.view().unwrap().len(), 9);
    }

    #[test]
    fn undo_restores_binary_operator_epoch() {
        let mut e = engine();
        let stored = e.save("all").unwrap();
        e.union(&stored).unwrap();
        assert_eq!(e.sheet().epoch(), 1);
        assert_eq!(e.view().unwrap().len(), 18);
        e.undo().unwrap();
        assert_eq!(e.sheet().epoch(), 0);
        assert_eq!(e.view().unwrap().len(), 9);
    }

    #[test]
    fn modification_ops_are_history_entries() {
        let mut e = engine();
        let id = e.select(Expr::col("Year").eq(Expr::lit(2005))).unwrap();
        e.replace_selection(id, Expr::col("Year").eq(Expr::lit(2006)))
            .unwrap();
        assert_eq!(e.view().unwrap().len(), 5);
        assert!(e.history()[1].contains("Modify selection"));
        e.undo().unwrap();
        assert_eq!(e.view().unwrap().len(), 4);
        e.remove_selection(id).unwrap();
        assert_eq!(e.view().unwrap().len(), 9);
    }

    #[test]
    fn modifying_behind_a_binary_operator_is_diagnosed() {
        let mut e = engine();
        let id = e.select(Expr::col("Model").eq(Expr::lit("Jetta"))).unwrap();
        let stored = e.save("all").unwrap();
        e.union(&stored).unwrap();
        let err = e
            .replace_selection(id, Expr::col("Model").eq(Expr::lit("Civic")))
            .unwrap_err();
        assert!(
            matches!(err, SheetError::BehindNonCommutativityPoint { .. }),
            "got {err:?}"
        );
        assert!(err.to_string().contains("point of non-commutativity"));
        let err = e.remove_selection(id).unwrap_err();
        assert!(matches!(
            err,
            SheetError::BehindNonCommutativityPoint { .. }
        ));
        // a genuinely unknown id stays UnknownSelection
        let err = e.remove_selection(999).unwrap_err();
        assert!(matches!(err, SheetError::UnknownSelection { .. }));
    }

    #[test]
    fn binary_records_flagged() {
        assert!(OpRecord::Union { with: "x".into() }.is_binary());
        assert!(!OpRecord::Dedup.is_binary());
    }

    #[test]
    fn base_edits_are_recorded_and_undoable() {
        use ssa_relation::{tuple, Value};
        let mut e = engine();
        e.group_add(&["Model"], Direction::Asc).unwrap();
        e.view().unwrap();
        e.append_rows(vec![tuple![999, "Jetta", 15500, 2005, 60000, "Good"]])
            .unwrap();
        assert_eq!(e.view().unwrap().len(), 10);
        e.update_cell(9, "Price", Value::Int(15750)).unwrap();
        e.delete_where(&Expr::col("Model").eq(Expr::lit("Civic")))
            .unwrap();
        assert_eq!(e.view().unwrap().len(), 7);
        let h = e.history();
        assert!(h[1].contains("Append 1 row(s)"));
        assert!(h[2].contains("Update Price of base row 9"));
        assert!(h[3].contains("Delete 3 row(s)"));
        e.undo_steps(3).unwrap();
        assert_eq!(e.view().unwrap().len(), 9);
        assert_eq!(e.sheet().base().len(), 9);
        e.redo_steps(3).unwrap();
        assert_eq!(e.view().unwrap().len(), 7);
    }

    #[test]
    fn failed_base_edit_records_nothing() {
        let mut e = engine();
        assert!(e.append_rows(vec![ssa_relation::tuple![1]]).is_err());
        assert!(e.history().is_empty());
        assert_eq!(e.view().unwrap().len(), 9);
    }
}
