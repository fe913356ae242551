//! Property-based tests for the storage engine's core invariants, on
//! `mdv-testkit` (deterministic seeds, ≥64 cases, see `MDV_PROP_CASES`).

use mdv_relstore::{
    query, CmpOp, ColumnDef, DataType, Database, IndexKind, Predicate, Row, Table, TableSchema,
    Txn, Value,
};
use mdv_testkit::{prop_assert_eq, prop_assert_ne, property, Source};

fn arb_value(src: &mut Source) -> Value {
    match src.weighted(&[1, 1, 2, 2, 2]) {
        0 => Value::Null,
        1 => Value::Bool(src.bool()),
        2 => Value::Int(src.i64_in(-1000..1000)),
        3 => Value::Float(src.i64_in(-1000..1000) as f64 / 4.0),
        _ => Value::Str(src.string_of("abcdefghijklmnopqrstuvwxyz", 0..9)),
    }
}

fn filterlike_schema() -> TableSchema {
    TableSchema::new(
        "t",
        vec![
            ColumnDef::new("class", DataType::Str),
            ColumnDef::new("property", DataType::Str),
            ColumnDef::new("value", DataType::Int),
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

fn build_tables(rows: &[(String, String, i64)]) -> (Table, Table) {
    // plain: no indexes; indexed: hash on (class, property) + btree on all three
    let mut plain = Table::new(filterlike_schema());
    let mut indexed = Table::new(filterlike_schema());
    indexed
        .create_index("h", IndexKind::Hash, &["class", "property"], false)
        .unwrap();
    indexed
        .create_index(
            "b",
            IndexKind::BTree,
            &["class", "property", "value"],
            false,
        )
        .unwrap();
    for (c, p, v) in rows {
        let row = vec![Value::Str(c.clone()), Value::Str(p.clone()), Value::Int(*v)];
        plain.insert(row.clone()).unwrap();
        indexed.insert(row).unwrap();
    }
    (plain, indexed)
}

fn sorted_rows(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

property! {
    /// Value's Ord is a total order: antisymmetric, transitive on triples.
    fn value_order_is_total(src) {
        use std::cmp::Ordering;
        let (a, b, c) = (arb_value(src), arb_value(src), arb_value(src));
        // antisymmetry
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // transitivity
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            prop_assert_ne!(a.cmp(&c), Ordering::Greater);
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
        if a == b {
            prop_assert_eq!(h(&a), h(&b));
        }
    }

    /// sql_cmp agrees with the total order whenever it is defined.
    fn sql_cmp_consistent_with_ord(src) {
        let (a, b) = (arb_value(src), arb_value(src));
        if let Some(ord) = a.sql_cmp(&b) {
            prop_assert_eq!(ord, a.cmp(&b));
        }
    }

    /// Index-backed plans and table scans return the same result set.
    fn index_scan_equivalence(src) {
        let rows = arb_rows(src);
        let c = src.string_of("abc", 1..2);
        let p = src.string_of("xyz", 1..2);
        let lo = src.i64_in(-20..20);
        let (plain, indexed) = build_tables(&rows);
        let pred = Predicate::and(vec![
            Predicate::col_eq(plain.schema(), "class", Value::Str(c)).unwrap(),
            Predicate::col_eq(plain.schema(), "property", Value::Str(p)).unwrap(),
            Predicate::col_cmp(plain.schema(), "value", CmpOp::Gt, Value::Int(lo)).unwrap(),
        ]);
        let scan: Vec<Row> = query::select(&plain, &pred).unwrap()
            .into_iter().map(|(_, r)| r).collect();
        let idx: Vec<Row> = query::select(&indexed, &pred).unwrap()
            .into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(sorted_rows(scan), sorted_rows(idx));
    }

    /// A rolled-back transaction leaves no observable trace.
    fn txn_rollback_is_identity(src) {
        let initial = arb_rows(src);
        let ops = src.vec(0..20, |src| {
            (
                src.usize_in(0..3),
                src.string_of("abc", 1..2),
                src.string_of("xyz", 1..2),
                src.i64_in(-20..20),
            )
        });
        let mut db = Database::new();
        db.create_table(filterlike_schema()).unwrap();
        db.create_index("t", "h", IndexKind::Hash, &["class", "property"], false).unwrap();
        let mut ids = Vec::new();
        for (c, p, v) in &initial {
            ids.push(db.insert("t",
                vec![Value::Str(c.clone()), Value::Str(p.clone()), Value::Int(*v)]).unwrap());
        }
        let before: Vec<Row> = db.table("t").unwrap().iter().map(|(_, r)| r.clone()).collect();

        {
            let mut txn = Txn::begin(&mut db);
            for (kind, c, p, v) in &ops {
                let row = vec![Value::Str(c.clone()), Value::Str(p.clone()), Value::Int(*v)];
                match kind {
                    0 => { txn.insert("t", row).unwrap(); }
                    1 => {
                        if let Some(id) = ids.first().copied() {
                            // delete/update may fail if a prior op in this txn
                            // already deleted the row; that is fine.
                            let _ = txn.delete("t", id);
                        }
                    }
                    _ => {
                        if let Some(id) = ids.first().copied() {
                            let _ = txn.update("t", id, row);
                        }
                    }
                }
            }
            txn.rollback();
        }

        let after: Vec<Row> = db.table("t").unwrap().iter().map(|(_, r)| r.clone()).collect();
        prop_assert_eq!(sorted_rows(before), sorted_rows(after));
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
