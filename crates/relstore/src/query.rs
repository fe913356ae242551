//! Single-table selection by one column equality.
//!
//! MDV's own readers probe indexes directly (`BaseStore`, the trigger
//! index, the LMR's query evaluator); [`select`] is the one generic
//! selection left: `column = constant`, answered by a point probe on an
//! index keyed exactly on that column, or by a scan when there is none.
//! Both paths return the same rows, in index or slot order.

use crate::error::Result;
use crate::schema::TableSchema;
use crate::table::{Row, RowId, Table};
use crate::value::Value;

/// `column = constant` over a single table's rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    column: usize,
    value: Value,
}

impl Predicate {
    /// `column = value`, the column resolved by name in `schema`.
    pub fn col_eq(schema: &TableSchema, column: &str, value: Value) -> Result<Self> {
        Ok(Predicate {
            column: schema.column_index(column)?,
            value,
        })
    }
}

/// Executes a selection, returning matching `(id, row)` pairs. As in SQL,
/// a `Null` constant equals nothing, so it matches no row.
pub fn select(table: &Table, pred: &Predicate) -> Result<Vec<(RowId, Row)>> {
    if pred.value.is_null() {
        return Ok(Vec::new());
    }
    let index = table
        .indexes()
        .iter()
        .find(|i| i.key_columns() == [pred.column]);
    let rows = match index {
        Some(idx) => table
            .index(idx.name())?
            .probe(std::slice::from_ref(&pred.value))
            .iter()
            .map(|&rid| Ok((rid, table.get(rid)?.clone())))
            .collect::<Result<_>>()?,
        None => table
            .iter()
            .filter(|(_, row)| row[pred.column] == pred.value)
            .map(|(rid, row)| (rid, row.clone()))
            .collect(),
    };
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexKind;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn table() -> Table {
        let mut t = Table::new(
            TableSchema::new(
                "r",
                vec![
                    ColumnDef::new("class", DataType::Str),
                    ColumnDef::new("value", DataType::Int).nullable(),
                ],
            )
            .unwrap(),
        );
        t.create_index("by_class", IndexKind::Hash, &["class"], false)
            .unwrap();
        for (c, v) in [("A", Some(1)), ("A", None), ("B", Some(1))] {
            t.insert(vec![Value::from(c), v.map_or(Value::Null, Value::Int)])
                .unwrap();
        }
        t
    }

    fn values(t: &Table, col: &str, v: Value) -> Vec<Row> {
        let pred = Predicate::col_eq(t.schema(), col, v).unwrap();
        select(t, &pred)
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect()
    }

    #[test]
    fn indexed_and_unindexed_columns_select_alike() {
        let t = table();
        assert_eq!(values(&t, "class", Value::from("A")).len(), 2);
        assert_eq!(values(&t, "value", Value::Int(1)).len(), 2);
        assert!(values(&t, "class", Value::from("C")).is_empty());
    }

    #[test]
    fn a_null_constant_matches_no_row() {
        let t = table();
        assert!(values(&t, "value", Value::Null).is_empty());
        assert!(values(&t, "class", Value::Null).is_empty());
    }

    #[test]
    fn an_unknown_column_is_an_error() {
        let t = table();
        assert!(Predicate::col_eq(t.schema(), "nope", Value::Int(1)).is_err());
    }
}
