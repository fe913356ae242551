//! Property-based tests for the storage engine's core invariants, on
//! `mdv-testkit` (deterministic seeds, ≥64 cases, see `MDV_PROP_CASES`).

use mdv_relstore::{
    select, ColumnDef, DataType, Database, IndexKind, Predicate, Row, RowId, Table, TableSchema,
    Value,
};
use mdv_testkit::{prop_assert, prop_assert_eq, property, Source};

fn arb_value(src: &mut Source) -> Value {
    match src.weighted(&[1, 1, 2, 2, 2, 3]) {
        0 => Value::Null,
        1 => Value::Bool(src.bool()),
        2 => Value::Int(src.i64_in(-1000..1000)),
        3 => Value::Float(src.i64_in(-1000..1000) as f64 / 4.0),
        4 => Value::Str(src.string_of("abcdefghijklmnopqrstuvwxyz", 0..9)),
        _ => arb_near_two_to_the_53(src),
    }
}

/// An integer or a float within a few units of ±2^53, where `i64 as f64`
/// starts to round: `2^53 + 1` has no float of its own.
fn arb_near_two_to_the_53(src: &mut Source) -> Value {
    let n = (1_i64 << 53) + src.i64_in(-3..4);
    let n = if src.bool() { n } else { -n };
    if src.bool() {
        Value::Int(n)
    } else {
        Value::Float(n as f64)
    }
}

/// `Int(2^53 + 1)`, `Float(2^53)`, `Int(2^53)`: the integers differ, but a
/// comparison through `as f64` finds each equal to the float.
fn rounding_triple() -> [Value; 3] {
    let two_53 = 1_i64 << 53;
    [
        Value::Int(two_53 + 1),
        Value::Float(two_53 as f64),
        Value::Int(two_53),
    ]
}

fn filterlike_schema() -> TableSchema {
    TableSchema::new(
        "t",
        vec![
            ColumnDef::new("class", DataType::Str),
            ColumnDef::new("property", DataType::Str),
            ColumnDef::new("value", DataType::Int).nullable(),
        ],
    )
    .unwrap()
}

fn arb_rows(src: &mut Source) -> Vec<(String, String, i64)> {
    src.vec(0..60, |src| {
        (
            src.string_of("abc", 1..2),
            src.string_of("xyz", 1..2),
            src.i64_in(-20..20),
        )
    })
}

/// A `value` column entry: an integer, or `Null` one time in five.
fn arb_opt_int(src: &mut Source) -> Value {
    if src.weighted(&[1, 4]) == 0 {
        Value::Null
    } else {
        Value::Int(src.i64_in(-20..20))
    }
}

property! {
    /// Value's Ord is a total order: antisymmetric, transitive on triples
    /// drawn from a random three and from the three around 2^53.
    fn value_order_is_total(src) {
        use std::cmp::Ordering;
        let drawn = [arb_value(src), arb_value(src), arb_value(src)];
        for t in [rounding_triple(), drawn] {
            for (a, b, c) in (0..27).map(|i| (&t[i % 3], &t[i / 3 % 3], &t[i / 9])) {
                // antisymmetry
                prop_assert_eq!(a.cmp(b), b.cmp(a).reverse());
                // transitivity
                if a.cmp(b) != Ordering::Greater && b.cmp(c) != Ordering::Greater {
                    prop_assert!(a.cmp(c) != Ordering::Greater, "{a:?} <= {b:?} <= {c:?}");
                }
            }
        }
    }

    /// Eq and Hash agree (required for hash-join correctness).
    fn value_eq_implies_same_hash(src) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        let (a, b) = (arb_value(src), arb_value(src));
        let t = rounding_triple();
        for (a, b) in [(&a, &b), (&t[0], &t[1]), (&t[1], &t[2]), (&t[0], &t[2])] {
            if a == b {
                prop_assert_eq!(h(a), h(b), "{a:?} == {b:?}");
            }
        }
    }

    /// `select(col_eq)` returns exactly the rows a filtered scan does: on
    /// an indexed column (hash or B-tree), on an unindexed one, and for a
    /// `Null` constant, which as in SQL equals nothing.
    fn select_equals_a_filtered_scan(src) {
        let mut t = Table::new(filterlike_schema());
        let kind = *src.choose(&[IndexKind::Hash, IndexKind::BTree]);
        t.create_index("by_class", kind, &["class"], false).unwrap();
        let rows = src.vec(0..60, |src| {
            vec![
                Value::Str(src.string_of("abc", 1..2)),
                Value::Str(src.string_of("xyz", 1..2)),
                arb_opt_int(src),
            ]
        });
        let mut ids = Vec::new();
        for row in rows {
            ids.push(t.insert(row).unwrap());
        }
        // deletions leave holes and emptied index buckets behind
        for id in ids {
            if src.weighted(&[1, 3]) == 0 {
                t.delete(id).unwrap();
            }
        }
        let (column, constant) = match src.usize_in(0..3) {
            0 => ("class", Value::Str(src.string_of("abcd", 1..2))),
            1 => ("value", arb_opt_int(src)),
            _ => (*src.choose(&["class", "value"]), Value::Null),
        };
        let pos = t.schema().column_index(column).unwrap();
        let pred = Predicate::col_eq(t.schema(), column, constant.clone()).unwrap();
        let mut got = select(&t, &pred).unwrap();
        got.sort();
        let mut want: Vec<(RowId, Row)> = t
            .iter()
            .filter(|(_, row)| !constant.is_null() && row[pos] == constant)
            .map(|(id, row)| (id, row.clone()))
            .collect();
        want.sort();
        prop_assert_eq!(got, want, "{} = {:?}", column, constant);
    }

    /// Snapshot write → read is the identity on databases.
    fn snapshot_roundtrip(src) {
        use mdv_relstore::{read_database, write_database};
        let rows = arb_rows(src);
        let mut db = Database::new();
        db.create_table(filterlike_schema()).unwrap();
        db.create_index("t", "h", IndexKind::Hash, &["class", "property"], false).unwrap();
        let mut ids = Vec::new();
        for (c, p, v) in &rows {
            ids.push(
                db.insert("t", vec![Value::Str(c.clone()), Value::Str(p.clone()), Value::Int(*v)])
                    .unwrap(),
            );
        }
        // delete every third row so holes and id gaps are exercised
        for id in ids.iter().step_by(3) {
            db.delete("t", *id).unwrap();
        }
        let restored = read_database(&write_database(&db)).unwrap();
        let dump = |d: &Database| {
            let mut rows: Vec<String> =
                d.table("t").unwrap().iter().map(|(id, r)| format!("{id:?}{r:?}")).collect();
            rows.sort();
            rows
        };
        prop_assert_eq!(dump(&db), dump(&restored));
        // restored index answers the same probes
        let t = restored.table("t").unwrap();
        for (c, p, _) in rows.iter().take(5) {
            let key = vec![Value::Str(c.clone()), Value::Str(p.clone())];
            let a = db.table("t").unwrap().index("h").unwrap().probe(&key).len();
            let b = t.index("h").unwrap().probe(&key).len();
            prop_assert_eq!(a, b);
        }
    }
}
