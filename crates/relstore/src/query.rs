//! Single-table query execution with a small access-path planner.
//!
//! The planner inspects the conjunctive terms of a predicate and chooses, in
//! order of preference:
//!
//! 1. a **point probe** on an index whose key columns are all equality-bound,
//! 2. a **prefix-range probe** on a B-tree index whose leading key columns
//!    are equality-bound and whose next column carries range bounds,
//! 3. a full **table scan**.
//!
//! The full predicate is always re-applied as a residual filter, so plans are
//! interchangeable in results — only cost differs. This mirrors how the MDV
//! filter tables are "used as indexes to all triggering rules" (paper §3.3.4)
//! while correctness never depends on physical design.

use std::ops::Bound;

use crate::error::Result;
use crate::index::IndexKind;
use crate::predicate::{CmpOp, Expr, Predicate};
use crate::table::{Row, RowId, Table};
use crate::value::Value;

/// A chosen access path, exposed for tests and plan inspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    TableScan,
    /// Point probe on the named index.
    IndexProbe {
        index: String,
    },
    /// Prefix + range probe on the named B-tree index.
    IndexRange {
        index: String,
    },
}

/// One equality or range restriction `column op constant` usable by an index.
#[derive(Debug, Clone)]
struct SargableTerm {
    column: usize,
    op: CmpOp,
    value: Value,
}

/// Collects sargable conjuncts (`Col op Const`) from a predicate's
/// top-level conjunction.
fn sargable_terms(pred: &Predicate) -> Vec<SargableTerm> {
    fn from_cmp(lhs: &Expr, op: CmpOp, rhs: &Expr) -> Option<SargableTerm> {
        match (lhs, rhs) {
            (Expr::Col(c), Expr::Const(v)) => Some(SargableTerm {
                column: *c,
                op,
                value: v.clone(),
            }),
            (Expr::Const(v), Expr::Col(c)) => Some(SargableTerm {
                column: *c,
                op: op.mirrored(),
                value: v.clone(),
            }),
            _ => None,
        }
    }
    match pred {
        Predicate::Cmp { lhs, op, rhs } => from_cmp(lhs, *op, rhs).into_iter().collect(),
        Predicate::And(ps) => ps
            .iter()
            .filter_map(|p| match p {
                Predicate::Cmp { lhs, op, rhs } => from_cmp(lhs, *op, rhs),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// The plan for a single-table selection.
#[derive(Debug, Clone)]
pub struct Plan {
    pub path: AccessPath,
    /// Row ids to fetch when the path is an index probe; empty for scans.
    candidates: Option<Vec<RowId>>,
}

/// Plans a selection over `table` with `pred`, returning candidate row ids
/// (for index paths) or a scan marker.
pub fn plan(table: &Table, pred: &Predicate) -> Result<Plan> {
    let terms = sargable_terms(pred);
    let eq_terms: Vec<&SargableTerm> = terms.iter().filter(|t| t.op == CmpOp::Eq).collect();

    // 1. Point probe: an index whose key columns are all equality-bound.
    for idx in table.indexes() {
        let key: Option<Vec<Value>> = idx
            .key_columns()
            .iter()
            .map(|kc| {
                eq_terms
                    .iter()
                    .find(|t| t.column == *kc)
                    .map(|t| t.value.clone())
            })
            .collect();
        if let Some(key) = key {
            return Ok(Plan {
                path: AccessPath::IndexProbe {
                    index: idx.name().to_owned(),
                },
                candidates: Some(idx.probe(&key)),
            });
        }
    }

    // 2. Prefix range: B-tree index with eq-bound prefix and a ranged next column.
    for idx in table
        .indexes()
        .iter()
        .filter(|i| i.kind() == IndexKind::BTree)
    {
        let cols = idx.key_columns();
        // longest eq-bound prefix
        let mut prefix_vals = Vec::new();
        let mut pos = 0;
        while pos < cols.len() {
            match eq_terms.iter().find(|t| t.column == cols[pos]) {
                Some(t) => {
                    prefix_vals.push(t.value.clone());
                    pos += 1;
                }
                None => break,
            }
        }
        if pos >= cols.len() {
            continue; // fully bound handled above
        }
        let range_col = cols[pos];
        let mut lo: Bound<&Value> = Bound::Unbounded;
        let mut hi: Bound<&Value> = Bound::Unbounded;
        for t in terms.iter().filter(|t| t.column == range_col) {
            match t.op {
                CmpOp::Gt => lo = tighten_lo(lo, Bound::Excluded(&t.value)),
                CmpOp::Ge => lo = tighten_lo(lo, Bound::Included(&t.value)),
                CmpOp::Lt => hi = tighten_hi(hi, Bound::Excluded(&t.value)),
                CmpOp::Le => hi = tighten_hi(hi, Bound::Included(&t.value)),
                _ => {}
            }
        }
        let has_range = !matches!((&lo, &hi), (Bound::Unbounded, Bound::Unbounded));
        if !has_range && prefix_vals.is_empty() {
            continue;
        }
        let rids = idx.probe_prefix_range(&prefix_vals, lo, hi)?;
        return Ok(Plan {
            path: AccessPath::IndexRange {
                index: idx.name().to_owned(),
            },
            candidates: Some(rids),
        });
    }

    Ok(Plan {
        path: AccessPath::TableScan,
        candidates: None,
    })
}

fn tighten_lo<'a>(cur: Bound<&'a Value>, new: Bound<&'a Value>) -> Bound<&'a Value> {
    match (&cur, &new) {
        (Bound::Unbounded, _) => new,
        (_, Bound::Unbounded) => cur,
        (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => {
            if b > a {
                new
            } else if a > b {
                cur
            } else if matches!(new, Bound::Excluded(_)) {
                new
            } else {
                cur
            }
        }
    }
}

fn tighten_hi<'a>(cur: Bound<&'a Value>, new: Bound<&'a Value>) -> Bound<&'a Value> {
    match (&cur, &new) {
        (Bound::Unbounded, _) => new,
        (_, Bound::Unbounded) => cur,
        (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => {
            if b < a {
                new
            } else if a < b {
                cur
            } else if matches!(new, Bound::Excluded(_)) {
                new
            } else {
                cur
            }
        }
    }
}

/// Executes a selection, returning matching `(id, row)` pairs.
pub fn select(table: &Table, pred: &Predicate) -> Result<Vec<(RowId, Row)>> {
    let plan = plan(table, pred)?;
    select_with_plan(table, pred, &plan)
}

/// Executes a selection with a pre-computed plan.
pub fn select_with_plan(table: &Table, pred: &Predicate, plan: &Plan) -> Result<Vec<(RowId, Row)>> {
    let mut out = Vec::new();
    match &plan.candidates {
        Some(rids) => {
            for &rid in rids {
                let row = table.get(rid)?;
                if pred.matches(row) {
                    out.push((rid, row.clone()));
                }
            }
        }
        None => {
            for (rid, row) in table.iter() {
                if pred.matches(row) {
                    out.push((rid, row.clone()));
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::DataType;

    fn table_with_indexes() -> Table {
        let mut t = Table::new(
            TableSchema::new(
                "r",
                vec![
                    ColumnDef::new("class", DataType::Str),
                    ColumnDef::new("property", DataType::Str),
                    ColumnDef::new("value", DataType::Int),
                ],
            )
            .unwrap(),
        );
        t.create_index("by_cp", IndexKind::Hash, &["class", "property"], false)
            .unwrap();
        t.create_index(
            "by_cpv",
            IndexKind::BTree,
            &["class", "property", "value"],
            false,
        )
        .unwrap();
        for (c, p, v) in [
            ("A", "x", 1),
            ("A", "x", 5),
            ("A", "y", 9),
            ("B", "x", 5),
            ("B", "z", 7),
        ] {
            t.insert(vec![
                Value::Str(c.into()),
                Value::Str(p.into()),
                Value::Int(v),
            ])
            .unwrap();
        }
        t
    }

    fn eq(t: &Table, col: &str, v: Value) -> Predicate {
        Predicate::col_eq(t.schema(), col, v).unwrap()
    }

    fn cmp(t: &Table, col: &str, op: CmpOp, v: Value) -> Predicate {
        Predicate::col_cmp(t.schema(), col, op, v).unwrap()
    }

    #[test]
    fn plan_prefers_point_probe() {
        let t = table_with_indexes();
        let p = Predicate::and(vec![
            eq(&t, "class", Value::Str("A".into())),
            eq(&t, "property", Value::Str("x".into())),
        ]);
        let plan = plan(&t, &p).unwrap();
        assert_eq!(
            plan.path,
            AccessPath::IndexProbe {
                index: "by_cp".into()
            }
        );
        let rows = select(&t, &p).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn plan_uses_prefix_range() {
        let t = table_with_indexes();
        let p = Predicate::and(vec![
            eq(&t, "class", Value::Str("A".into())),
            eq(&t, "property", Value::Str("x".into())),
            cmp(&t, "value", CmpOp::Gt, Value::Int(2)),
        ]);
        // by_cp fully matches (class, property) so point probe wins; drop the
        // hash index to force the range path.
        let mut t2 = Table::new(t.schema().clone());
        t2.create_index(
            "by_cpv",
            IndexKind::BTree,
            &["class", "property", "value"],
            false,
        )
        .unwrap();
        for (_, row) in t.iter() {
            t2.insert(row.clone()).unwrap();
        }
        let plan2 = plan(&t2, &p).unwrap();
        assert_eq!(
            plan2.path,
            AccessPath::IndexRange {
                index: "by_cpv".into()
            }
        );
        let rows = select(&t2, &p).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[2], Value::Int(5));
    }

    #[test]
    fn plan_falls_back_to_scan() {
        let t = table_with_indexes();
        let p = cmp(&t, "value", CmpOp::Lt, Value::Int(6));
        // no index leads with `value`, so scan
        let plan = plan(&t, &p).unwrap();
        assert_eq!(plan.path, AccessPath::TableScan);
        assert_eq!(select(&t, &p).unwrap().len(), 3);
    }

    #[test]
    fn index_and_scan_agree() {
        let t = table_with_indexes();
        let p = Predicate::and(vec![
            eq(&t, "class", Value::Str("B".into())),
            eq(&t, "property", Value::Str("x".into())),
        ]);
        let via_index = select(&t, &p).unwrap();
        let via_scan = select_with_plan(
            &t,
            &p,
            &Plan {
                path: AccessPath::TableScan,
                candidates: None,
            },
        )
        .unwrap();
        assert_eq!(via_index, via_scan);
    }

    #[test]
    fn residual_filter_applies_on_index_path() {
        let t = table_with_indexes();
        // probe on (class, property) but extra restriction on value
        let p = Predicate::and(vec![
            eq(&t, "class", Value::Str("A".into())),
            eq(&t, "property", Value::Str("x".into())),
            eq(&t, "value", Value::Int(5)),
        ]);
        let rows = select(&t, &p).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[2], Value::Int(5));
    }

    #[test]
    fn bound_tightening() {
        let t = table_with_indexes();
        let mut t2 = Table::new(t.schema().clone());
        t2.create_index("by_v", IndexKind::BTree, &["value"], false)
            .unwrap();
        for v in 0..10 {
            t2.insert(vec![
                Value::Str("A".into()),
                Value::Str("x".into()),
                Value::Int(v),
            ])
            .unwrap();
        }
        let p = Predicate::and(vec![
            cmp(&t2, "value", CmpOp::Gt, Value::Int(2)),
            cmp(&t2, "value", CmpOp::Ge, Value::Int(4)),
            cmp(&t2, "value", CmpOp::Lt, Value::Int(8)),
            cmp(&t2, "value", CmpOp::Le, Value::Int(9)),
        ]);
        let rows = select(&t2, &p).unwrap();
        let vals: Vec<i64> = rows.iter().map(|(_, r)| r[2].as_int().unwrap()).collect();
        assert_eq!(vals, vec![4, 5, 6, 7]);
    }

    #[test]
    fn mirrored_sargable_terms() {
        let t = table_with_indexes();
        // Const = Col form should still be sargable
        let p = Predicate::Cmp {
            lhs: Expr::Const(Value::Str("A".into())),
            op: CmpOp::Eq,
            rhs: Expr::col(t.schema(), "class").unwrap(),
        };
        let rows = select(&t, &p).unwrap();
        assert_eq!(rows.len(), 3);
    }
}
