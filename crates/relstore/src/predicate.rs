//! Row predicates: comparison operators and conjunction, evaluated with SQL
//! three-valued logic (NULL comparisons are unknown, and unknown rows are
//! filtered out).

use std::fmt;

use crate::error::Result;
use crate::schema::TableSchema;
use crate::value::Value;

/// Comparison operators of single-table selections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Evaluates `lhs op rhs` under SQL semantics; `None` means unknown.
    pub fn eval(self, lhs: &Value, rhs: &Value) -> Option<bool> {
        match self {
            CmpOp::Eq => lhs.sql_eq(rhs),
            CmpOp::Ne => lhs.sql_eq(rhs).map(|b| !b),
            CmpOp::Lt => lhs.sql_cmp(rhs).map(|o| o.is_lt()),
            CmpOp::Le => lhs.sql_cmp(rhs).map(|o| o.is_le()),
            CmpOp::Gt => lhs.sql_cmp(rhs).map(|o| o.is_gt()),
            CmpOp::Ge => lhs.sql_cmp(rhs).map(|o| o.is_ge()),
        }
    }

    /// The operator with operand sides swapped (`a < b` ⇔ `b > a`).
    pub fn mirrored(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A scalar expression over a single row.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column by position.
    Col(usize),
    /// Constant value.
    Const(Value),
}

impl Expr {
    /// Convenience constructor resolving a column by name.
    pub fn col(schema: &TableSchema, name: &str) -> Result<Expr> {
        Ok(Expr::Col(schema.column_index(name)?))
    }

    pub fn eval<'a>(&'a self, row: &'a [Value]) -> &'a Value {
        match self {
            Expr::Col(i) => &row[*i],
            Expr::Const(v) => v,
        }
    }
}

/// A boolean predicate over a single row.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true (scan everything).
    True,
    Cmp {
        lhs: Expr,
        op: CmpOp,
        rhs: Expr,
    },
    And(Vec<Predicate>),
}

impl Predicate {
    /// Shorthand for `column op constant`.
    pub fn col_cmp(schema: &TableSchema, column: &str, op: CmpOp, value: Value) -> Result<Self> {
        Ok(Predicate::Cmp {
            lhs: Expr::col(schema, column)?,
            op,
            rhs: Expr::Const(value),
        })
    }

    /// Shorthand for `column = constant`.
    pub fn col_eq(schema: &TableSchema, column: &str, value: Value) -> Result<Self> {
        Self::col_cmp(schema, column, CmpOp::Eq, value)
    }

    /// Conjunction of predicates, flattening nested `And`s.
    pub fn and(preds: Vec<Predicate>) -> Self {
        let mut flat = Vec::with_capacity(preds.len());
        for p in preds {
            match p {
                Predicate::True => {}
                Predicate::And(ps) => flat.extend(ps),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Predicate::True,
            1 => flat.pop().expect("len checked"),
            _ => Predicate::And(flat),
        }
    }

    /// Three-valued evaluation; `None` is unknown.
    pub fn eval3(&self, row: &[Value]) -> Option<bool> {
        match self {
            Predicate::True => Some(true),
            Predicate::Cmp { lhs, op, rhs } => op.eval(lhs.eval(row), rhs.eval(row)),
            Predicate::And(ps) => {
                let mut unknown = false;
                for p in ps {
                    match p.eval3(row) {
                        Some(false) => return Some(false),
                        None => unknown = true,
                        Some(true) => {}
                    }
                }
                if unknown {
                    None
                } else {
                    Some(true)
                }
            }
        }
    }

    /// Filter semantics: a row passes only when the predicate is truly true.
    pub fn matches(&self, row: &[Value]) -> bool {
        self.eval3(row) == Some(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::DataType;

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("a", DataType::Int),
                ColumnDef::new("s", DataType::Str),
                ColumnDef::new("n", DataType::Int).nullable(),
            ],
        )
        .unwrap()
    }

    fn row(a: i64, s: &str, n: Option<i64>) -> Vec<Value> {
        vec![
            Value::Int(a),
            Value::Str(s.into()),
            n.map_or(Value::Null, Value::Int),
        ]
    }

    #[test]
    fn cmp_op_eval_matrix() {
        use CmpOp::*;
        let one = Value::Int(1);
        let two = Value::Int(2);
        assert_eq!(Eq.eval(&one, &one), Some(true));
        assert_eq!(Ne.eval(&one, &two), Some(true));
        assert_eq!(Lt.eval(&one, &two), Some(true));
        assert_eq!(Le.eval(&two, &two), Some(true));
        assert_eq!(Gt.eval(&one, &two), Some(false));
        assert_eq!(Ge.eval(&two, &one), Some(true));
        assert_eq!(Eq.eval(&Value::Null, &one), None);
    }

    #[test]
    fn mirrored() {
        assert_eq!(CmpOp::Lt.mirrored(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.mirrored(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.mirrored(), CmpOp::Eq);
    }

    #[test]
    fn predicate_eval_and() {
        let s = schema();
        let p = Predicate::and(vec![
            Predicate::col_cmp(&s, "a", CmpOp::Gt, Value::Int(0)).unwrap(),
            Predicate::col_eq(&s, "s", Value::Str("x".into())).unwrap(),
        ]);
        assert!(p.matches(&row(1, "x", None)));
        assert!(!p.matches(&row(1, "y", None)));
        assert!(!p.matches(&row(0, "x", None)));
    }

    #[test]
    fn null_filters_out() {
        let s = schema();
        let p = Predicate::col_cmp(&s, "n", CmpOp::Gt, Value::Int(10)).unwrap();
        assert!(
            !p.matches(&row(1, "x", None)),
            "NULL > 10 is unknown, filtered"
        );
        assert!(p.matches(&row(1, "x", Some(11))));
    }

    #[test]
    fn and_three_valued_short_circuit() {
        let s = schema();
        // false AND unknown = false (not unknown)
        let p = Predicate::And(vec![
            Predicate::col_eq(&s, "a", Value::Int(99)).unwrap(),
            Predicate::col_cmp(&s, "n", CmpOp::Gt, Value::Int(0)).unwrap(),
        ]);
        assert_eq!(p.eval3(&row(1, "x", None)), Some(false));
        // true AND unknown = unknown
        let p = Predicate::And(vec![
            Predicate::col_eq(&s, "a", Value::Int(1)).unwrap(),
            Predicate::col_cmp(&s, "n", CmpOp::Gt, Value::Int(0)).unwrap(),
        ]);
        assert_eq!(p.eval3(&row(1, "x", None)), None);
    }

    #[test]
    fn and_flattening() {
        let s = schema();
        let inner = Predicate::and(vec![
            Predicate::col_eq(&s, "a", Value::Int(1)).unwrap(),
            Predicate::True,
        ]);
        // single non-trivial predicate collapses
        assert!(matches!(inner, Predicate::Cmp { .. }));
        assert!(matches!(Predicate::and(vec![]), Predicate::True));
    }
}
