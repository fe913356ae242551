//! Property tests for the storage-backend invariants added with the
//! `StorageEngine` abstraction (DESIGN.md §6):
//!
//! * B-tree point probes agree with a full-scan oracle, including NULL
//!   keys and emptied buckets,
//! * the durable WAL backend recovers exactly the committed prefix of a
//!   random workload after a crash, including a torn final record.

use mdv_relstore::{
    write_database, ColumnDef, DataType, Database, DurableEngine, IndexKind, Row, RowId,
    StorageEngine, TableSchema, Value,
};
use mdv_testkit::{prop_assert_eq, property, Source};

fn schema() -> TableSchema {
    TableSchema::new(
        "t",
        vec![
            ColumnDef::new("class", DataType::Str),
            ColumnDef::new("value", DataType::Int).nullable(),
            ColumnDef::new("note", DataType::Str),
        ],
    )
    .unwrap()
}

fn arb_opt_int(src: &mut Source) -> Value {
    if src.weighted(&[1, 4]) == 0 {
        Value::Null
    } else {
        Value::Int(src.i64_in(-8..8))
    }
}

fn arb_row(src: &mut Source) -> Row {
    vec![
        Value::Str(src.string_of("ab", 1..2)),
        arb_opt_int(src),
        Value::Str(src.string_of("xyz", 0..3)),
    ]
}

/// Builds a database with a hash index, a composite B-tree index, and a
/// random starting population; returns the live row ids.
fn seeded_db(src: &mut Source) -> (Database, Vec<RowId>) {
    let mut db = Database::new();
    db.create_table(schema()).unwrap();
    db.create_index("t", "h_class", IndexKind::Hash, &["class"], false)
        .unwrap();
    db.create_index("t", "b_cv", IndexKind::BTree, &["class", "value"], false)
        .unwrap();
    let rows = src.vec(0..40, arb_row);
    let mut ids = Vec::new();
    for row in rows {
        ids.push(db.insert("t", row).unwrap());
    }
    (db, ids)
}

property! {
    /// B-tree point probes on a composite key return exactly what a full
    /// scan of the table returns, across random insert/delete workloads
    /// with NULL keys.
    fn btree_point_probe_matches_full_scan(src) {
        let (mut db, ids) = seeded_db(src);
        // random deletions leave holes and empty buckets behind
        for id in &ids {
            if src.weighted(&[1, 2]) == 0 {
                db.delete("t", *id).unwrap();
            }
        }
        let t = db.table("t").unwrap();
        let idx = t.index("b_cv").unwrap();
        let live: Vec<(RowId, Row)> = t.iter().map(|(id, r)| (id, r.clone())).collect();

        // keys drawn from the live population half the time, so probes
        // land on real buckets
        let arb_key = |src: &mut Source, live: &[(RowId, Row)]| -> Vec<Value> {
            if !live.is_empty() && src.bool() {
                let r = &live[src.usize_in(0..live.len())].1;
                vec![r[0].clone(), r[1].clone()]
            } else {
                vec![Value::Str(src.string_of("ab", 1..2)), arb_opt_int(src)]
            }
        };

        for _ in 0..4 {
            let key = arb_key(src, &live);
            let mut got = idx.probe(&key);
            got.sort();
            let mut want: Vec<RowId> = live
                .iter()
                .filter(|(_, r)| r[0] == key[0] && r[1] == key[1])
                .map(|(id, _)| *id)
                .collect();
            want.sort();
            prop_assert_eq!(got, want, "point probe {:?}", key);
        }
    }

    /// The durable backend recovers a random committed workload exactly:
    /// after an abrupt drop (no clean shutdown) plus a random torn tail
    /// appended to the log, `open` reproduces the committed state byte for
    /// byte — and an uncommitted trailing group vanishes whole.
    fn wal_recovery_matches_committed_state(src) {
        let dir = std::env::temp_dir().join(format!(
            "mdv-walprop-{}-{:x}",
            std::process::id(),
            src.any_i64() as u64
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut eng = DurableEngine::create(&dir).unwrap();
        eng.set_checkpoint_every(if src.bool() { Some(7) } else { None });
        eng.create_table(schema()).unwrap();
        eng.create_index("t", "h_class", IndexKind::Hash, &["class"], false).unwrap();
        let mut ids: Vec<RowId> = Vec::new();
        let ops = src.vec(1..30, |src| (src.usize_in(0..4), arb_row(src), src.usize_in(0..64)));
        for (kind, row, pick) in ops {
            match kind {
                0 | 1 => {
                    ids.push(StorageEngine::insert(&mut eng, "t", row).unwrap());
                }
                2 => {
                    if !ids.is_empty() {
                        let id = ids.remove(pick % ids.len());
                        StorageEngine::delete(&mut eng, "t", id).unwrap();
                    }
                }
                _ => {
                    if !ids.is_empty() {
                        let id = ids[pick % ids.len()];
                        StorageEngine::update(&mut eng, "t", id, row).unwrap();
                    }
                }
            }
        }
        let committed = write_database(eng.database());
        let epoch = eng.epoch();
        // an uncommitted group on top must vanish whole on recovery
        if src.bool() {
            eng.begin();
            let _ = StorageEngine::insert(&mut eng, "t", arb_row(src));
            let _ = StorageEngine::insert(&mut eng, "t", arb_row(src));
        }
        drop(eng); // crash: no clean shutdown hook exists by design

        if src.bool() {
            // torn final record: partial garbage appended mid-write
            let tail = src.vec(1..12, |s| s.i64_in(0..256) as u8);
            let path = dir.join(format!("wal-{epoch}"));
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&tail).unwrap();
        }

        let recovered = DurableEngine::open(&dir).unwrap();
        let got = write_database(recovered.database());
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(got, committed);
    }
}
