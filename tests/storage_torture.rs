//! Disk-fault injection and exhaustive crash-point exploration for the
//! durable storage layer (DESIGN.md §12).
//!
//! The paper's filter runs "entirely on top of a commercial relational
//! DBMS" and inherits its recovery guarantees; this suite is where we earn
//! the equivalent guarantee for our own WAL+snapshot backend instead of
//! assuming it. Three layers of attack:
//!
//! 1. **Exhaustive crash points** (`exhaustive_crash_points_*`,
//!    `end_to_end_*`): a seeded schedule runs on a recording [`FaultVfs`];
//!    every durability boundary (append/sync/rename/remove/truncate) is
//!    replayed as a crash image under all [`CRASH_MODES`], and recovery
//!    must land on an acked-or-later committed state — zero committed-write
//!    loss, no invented state, at the relstore tier and through real MDP
//!    traffic.
//! 2. **Randomized fault plans** (`faulty_disk_is_detected_or_consistent`):
//!    write errors, short writes, failed syncs and silent bit rot are
//!    injected from one seeded stream; whatever happens, recovery yields a
//!    state the schedule actually passed through, or a typed
//!    [`Error::Corrupt`] when (and only when) bit rot was injected.
//! 3. **Golden bytes** (`stdfs_wal_layout_matches_pre_vfs_golden_bytes`):
//!    the `Vfs` port must not move the on-disk format — the WAL produced
//!    today is pinned byte-for-byte against a fixture captured from the
//!    pre-`Vfs` engine (snapshots additionally gained a `#checksum` footer,
//!    asserted as exactly one trailing line).
//!
//! CI replays this file under pinned seeds (`MDV_PROP_SEED=1`, `31337`,
//! `20020226`); see ci/check.sh.

mod common;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use common::{assert_committed_identical, assert_consistent, provider, schema};
use mdv::prelude::*;
use mdv::relstore::{
    write_database, ColumnDef, CrashMode, DataType, Database, DiskFaultPlan, DurableEngine,
    Error as StoreError, FaultVfs, IndexKind, RowId, StorageEngine, TableSchema, Value,
    CRASH_MODES,
};
use mdv::system::MdvSystem;
use mdv_testkit::{prop_assert, property};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory on the real filesystem (golden-bytes test).
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mdv-torture-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

const RULES: [&str; 3] = [
    "search CycleProvider c register c where c.serverInformation.memory > 64",
    "search CycleProvider c register c where c.serverHost contains 'hub'",
    "search ServerInformation s register s where s.cpu >= 600",
];

// ---- relstore tier: exhaustive crash-point sweep --------------------------

/// The committed-writes-survive oracle, run at *every* recorded durability
/// boundary of a seeded schedule, under every crash mode.
///
/// Each boundary is tagged (via [`FaultVfs::set_marker`]) with the number of
/// operations acked when it was recorded. Recovery from its crash image must
/// produce exactly one of the serialized states the schedule committed, and
/// never an earlier one than the marker: acked work survives any crash, and
/// unacked work either appears atomically (its group reached the disk cache)
/// or not at all.
#[test]
fn exhaustive_crash_points_never_lose_acked_commits() {
    let vfs = FaultVfs::new(0xC0FFEE);
    vfs.set_recording(true);

    // committed[k] = serialized state after k acked operations
    let mut committed: Vec<String> = vec![write_database(&Database::new())];
    let mut eng = DurableEngine::create_with(vfs.clone(), "/node").unwrap();
    // small checkpoint threshold: the sweep must cross epoch bumps too
    eng.set_checkpoint_every(Some(5));

    macro_rules! ack {
        ($eng:expr) => {{
            committed.push(write_database($eng.database()));
            vfs.set_marker((committed.len() - 1) as u64);
        }};
    }

    eng.create_table(
        TableSchema::new(
            "Docs",
            vec![
                ColumnDef::new("uri", DataType::Str),
                ColumnDef::new("n", DataType::Int),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    ack!(eng);
    eng.create_index("Docs", "by_uri", IndexKind::Hash, &["uri"], true)
        .unwrap();
    ack!(eng);

    let mut rids: Vec<RowId> = Vec::new();
    for i in 0..8i64 {
        eng.begin();
        let rid = eng
            .insert(
                "Docs",
                vec![Value::Str(format!("doc{i}.rdf")), Value::Int(i)],
            )
            .unwrap();
        rids.push(rid);
        if i % 3 == 0 && rids.len() > 1 {
            let prev = rids[rids.len() - 2];
            eng.update(
                "Docs",
                prev,
                vec![Value::Str(format!("doc{}.rdf", i - 1)), Value::Int(100 + i)],
            )
            .unwrap();
        }
        eng.commit().unwrap();
        ack!(eng);
    }
    eng.delete("Docs", rids[0]).unwrap();
    ack!(eng);
    eng.checkpoint().unwrap();
    ack!(eng);

    let n = vfs.boundary_count();
    assert!(n >= 30, "expected a rich boundary set, got only {n}");

    for i in 0..n {
        let (op, marker) = vfs.boundary_info(i);
        for mode in CRASH_MODES {
            let image = vfs.crash_image(i, mode);
            match DurableEngine::open_with(image, "/node") {
                Ok(rec) => {
                    let s = write_database(rec.database());
                    let j = committed.iter().rposition(|c| *c == s);
                    assert!(
                        j.is_some(),
                        "boundary {i} ({op}, {mode:?}): recovered state is not \
                         any state the schedule committed"
                    );
                    assert!(
                        (j.unwrap() as u64) >= marker,
                        "boundary {i} ({op}, {mode:?}): lost acked commits — \
                         recovered state {} but {marker} ops were acked",
                        j.unwrap()
                    );
                }
                Err(e) => {
                    // a store may be unopenable only while it was still
                    // being created — before anything was ever acked
                    assert_eq!(
                        marker, 0,
                        "boundary {i} ({op}, {mode:?}): store unopenable after \
                         acked commits: {e}"
                    );
                }
            }
        }
    }
}

// ---- relstore tier: randomized fault plans --------------------------------

property! {
    /// Detected-or-consistent under randomized disk faults: whatever mix of
    /// write errors, short writes, failed syncs and silent bit rot a seeded
    /// plan injects, (a) every surfaced error is a typed durability error,
    /// (b) recovery after a crash lands on a state the schedule actually
    /// passed through — never below the last acked state unless bit rot was
    /// injected — and (c) `Corrupt` is reported only when rot was injected.
    fn faulty_disk_is_detected_or_consistent(src) cases = 48; {
        let vfs = FaultVfs::new(src.bits());
        vfs.arm(false); // fault-free setup
        let mut eng = DurableEngine::create_with(vfs.clone(), "/prop").unwrap();
        if src.bool_with(0.5) {
            eng.set_checkpoint_every(Some(src.u64_in(2..6)));
        }
        eng.create_table(TableSchema::new("Docs", vec![
            ColumnDef::new("uri", DataType::Str),
            ColumnDef::new("n", DataType::Int),
        ]).unwrap()).unwrap();
        eng.create_index("Docs", "by_uri", IndexKind::Hash, &["uri"], true).unwrap();

        let plan = DiskFaultPlan {
            read_err: 0.0,
            write_err: src.f64_in(0.0..0.15),
            short_write: src.f64_in(0.0..0.15),
            sync_err: src.f64_in(0.0..0.15),
            corrupt: if src.bool_with(0.3) { src.f64_in(0.0..0.10) } else { 0.0 },
        };
        vfs.set_plan(plan);
        vfs.arm(true);

        // states[k] = serialization after attempt k; last_acked = newest
        // index known durably acked
        let mut states: Vec<String> = vec![write_database(eng.database())];
        let mut last_acked = 0usize;
        let mut live: Vec<RowId> = Vec::new();
        for k in 0..src.usize_in(4..20) {
            let r = match src.weighted(&[5, 2, 2, 1]) {
                0 => eng
                    .insert("Docs", vec![
                        Value::Str(format!("doc{k}.rdf")),
                        Value::Int(k as i64),
                    ])
                    .map(|rid| live.push(rid)),
                1 if !live.is_empty() => {
                    let rid = live[src.usize_in(0..live.len())];
                    eng.update("Docs", rid, vec![
                        Value::Str(format!("upd{k}.rdf")),
                        Value::Int(k as i64),
                    ])
                    .map(|_| ())
                }
                2 if !live.is_empty() => {
                    let rid = live.remove(src.usize_in(0..live.len()));
                    eng.delete("Docs", rid).map(|_| ())
                }
                _ => eng.checkpoint(),
            };
            states.push(write_database(eng.database()));
            match r {
                Ok(()) => last_acked = states.len() - 1,
                Err(e) => prop_assert!(
                    matches!(
                        e,
                        StoreError::Io(_)
                            | StoreError::TornWrite(_)
                            | StoreError::Wedged(_)
                            | StoreError::Corrupt(_)
                    ),
                    "non-durability error surfaced from an injected disk fault: {e}"
                ),
            }
            if eng.is_degraded() {
                // a wedged engine refuses mutations but still serves reads
                prop_assert!(eng.wedge_reason().is_some());
                break;
            }
        }

        // crash and recover on a now-healthy disk
        vfs.arm(false);
        let mode = *src.choose(&CRASH_MODES);
        vfs.crash(mode);
        drop(eng);
        match DurableEngine::open_with(vfs.clone(), "/prop") {
            Ok(rec) => {
                let s = write_database(rec.database());
                let j = states.iter().rposition(|c| *c == s);
                prop_assert!(
                    j.is_some(),
                    "recovered ({mode:?}) into a state the schedule never \
                     passed through (faults: {:?})",
                    vfs.stats()
                );
                if vfs.stats().corruptions == 0 {
                    prop_assert!(
                        j.unwrap() >= last_acked,
                        "lost acked state without injected bit rot \
                         ({mode:?}): recovered {} < acked {last_acked}",
                        j.unwrap()
                    );
                }
                let rep = rec.recovery_report().expect("opened stores carry a report");
                prop_assert!(rep.epoch_used <= rep.newest_epoch);
                prop_assert!(!rep.fell_back || vfs.stats().corruptions > 0,
                    "fell back an epoch without injected bit rot");
            }
            Err(e) => {
                prop_assert!(
                    matches!(e, StoreError::Corrupt(_)),
                    "recovery on a healthy disk may only fail on detected \
                     corruption, got: {e}"
                );
                prop_assert!(
                    vfs.stats().corruptions > 0,
                    "Corrupt surfaced but no corruption was injected: {e}"
                );
            }
        }
    }
}

#[test]
fn read_faults_surface_as_typed_io_errors_and_do_not_wedge_the_disk() {
    let vfs = FaultVfs::new(3);
    vfs.arm(false);
    let mut eng = DurableEngine::create_with(vfs.clone(), "/r").unwrap();
    eng.create_table(TableSchema::new("Docs", vec![ColumnDef::new("uri", DataType::Str)]).unwrap())
        .unwrap();
    eng.insert("Docs", vec![Value::Str("doc1.rdf".into())])
        .unwrap();
    drop(eng);

    vfs.set_plan(DiskFaultPlan {
        read_err: 1.0,
        ..DiskFaultPlan::default()
    });
    vfs.arm(true);
    let err = DurableEngine::open_with(vfs.clone(), "/r").unwrap_err();
    assert!(
        matches!(err, StoreError::Io(_) | StoreError::Corrupt(_)),
        "read fault must surface typed, got: {err}"
    );

    // the same bytes recover fine once the disk behaves again
    vfs.arm(false);
    let rec = DurableEngine::open_with(vfs, "/r").unwrap();
    assert_eq!(rec.database().table("Docs").unwrap().len(), 1);
}

// ---- golden bytes: the Vfs port did not move the on-disk format -----------

/// WAL bytes captured from the engine *before* the `Vfs` refactor, driving
/// the exact schedule in [`golden_schedule`]. The port must reproduce them
/// bit-for-bit through `StdFs` (and through a fault-free `FaultVfs`).
const GOLDEN_WAL_HEX: &str = "\
38000000073979350104000000446f6373040000000300000075726903000700000076657273696f6e01000500000073\
636f72650201040000006c69766500000100000066580c020720000000c9eb56cd0204000000446f6373060000006279\
5f757269000101000000030000007572690100000066580c020728000000f3dde5c20204000000446f63730a00000062\
795f76657273696f6e0100010000000700000076657273696f6e0100000066580c020736000000009c38740404000000\
446f63730000000000000000040000000408000000646f63312e72646602010000000000000003000000000000e03f01\
012e000000c05b001e0404000000446f63730100000000000000040000000408000000646f63322e7264660202000000\
000000000001000100000066580c02072e00000080176ed40604000000446f6373000000000000000004000000040800\
0000646f63312e7264660203000000000000000001010100000066580c02071300000014eacaf60103000000546d7001\
000000010000006b01000100000066580c020708000000823914380303000000546d700100000066580c020711000000\
cb06a8c10504000000446f637300000000000000000100000066580c0207";

/// The pre-`Vfs` snapshot-0 of a fresh store: the header line only. Today's
/// snapshots append a `#checksum` footer; the golden check pins the body as
/// an exact prefix and the footer as exactly one line.
const GOLDEN_SNAPSHOT_HEX: &str = "236d64762d72656c73746f72652d736e617073686f742076310a";

fn unhex(s: &str) -> Vec<u8> {
    s.as_bytes()
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
        .collect()
}

/// The schedule the golden fixture was captured from: DDL, secondary
/// indexes, a multi-op commit group, an update, table drop, and a delete —
/// every WAL op tag appears at least once.
fn golden_schedule<S: StorageEngine>(eng: &mut S) {
    eng.create_table(
        TableSchema::new(
            "Docs",
            vec![
                ColumnDef::new("uri", DataType::Str),
                ColumnDef::new("version", DataType::Int),
                ColumnDef::new("score", DataType::Float).nullable(),
                ColumnDef::new("live", DataType::Bool),
            ],
        )
        .unwrap(),
    )
    .unwrap();
    eng.create_index("Docs", "by_uri", IndexKind::Hash, &["uri"], true)
        .unwrap();
    eng.create_index("Docs", "by_version", IndexKind::BTree, &["version"], false)
        .unwrap();
    eng.begin();
    let a = eng
        .insert(
            "Docs",
            vec![
                Value::Str("doc1.rdf".into()),
                Value::Int(1),
                Value::Float(0.5),
                Value::Bool(true),
            ],
        )
        .unwrap();
    eng.insert(
        "Docs",
        vec![
            Value::Str("doc2.rdf".into()),
            Value::Int(2),
            Value::Null,
            Value::Bool(false),
        ],
    )
    .unwrap();
    eng.commit().unwrap();
    eng.update(
        "Docs",
        a,
        vec![
            Value::Str("doc1.rdf".into()),
            Value::Int(3),
            Value::Null,
            Value::Bool(true),
        ],
    )
    .unwrap();
    eng.create_table(TableSchema::new("Tmp", vec![ColumnDef::new("k", DataType::Int)]).unwrap())
        .unwrap();
    eng.drop_table("Tmp").unwrap();
    eng.delete("Docs", a).unwrap();
}

fn assert_matches_golden(wal: &[u8], snapshot: &[u8], backend: &str) {
    assert_eq!(
        wal,
        &unhex(GOLDEN_WAL_HEX)[..],
        "{backend}: WAL bytes diverged from the pre-Vfs golden layout"
    );
    let golden_snap = unhex(GOLDEN_SNAPSHOT_HEX);
    assert!(
        snapshot.starts_with(&golden_snap),
        "{backend}: snapshot body diverged from the pre-Vfs golden layout"
    );
    let footer = std::str::from_utf8(&snapshot[golden_snap.len()..]).unwrap();
    assert!(
        footer.starts_with("#checksum ") && footer.ends_with('\n') && footer.lines().count() == 1,
        "{backend}: snapshot must end in exactly one checksum footer line, got {footer:?}"
    );
}

#[test]
fn stdfs_wal_layout_matches_pre_vfs_golden_bytes() {
    // real filesystem through StdFs
    let dir = scratch("golden");
    let mut eng = DurableEngine::create(&dir).unwrap();
    golden_schedule(&mut eng);
    drop(eng);
    let wal = std::fs::read(dir.join("wal-0")).unwrap();
    let snap = std::fs::read(dir.join("snapshot-0")).unwrap();
    assert_matches_golden(&wal, &snap, "StdFs");
    let _ = std::fs::remove_dir_all(&dir);

    // the simulated disk produces the same bytes when no faults are armed
    let vfs = FaultVfs::new(9);
    let mut eng = DurableEngine::create_with(vfs.clone(), "/golden").unwrap();
    golden_schedule(&mut eng);
    drop(eng);
    let dump = vfs.dump();
    let wal = &dump[Path::new("/golden/wal-0")];
    let snap = &dump[Path::new("/golden/snapshot-0")];
    assert_matches_golden(wal, snap, "FaultVfs");
}

// ---- system tier: end-to-end schedules on the simulated disk --------------

fn faulty_two_tier(mdp_vfs: &FaultVfs, lmr_vfs: &FaultVfs) -> MdvSystem<DurableEngine<FaultVfs>> {
    let mut sys: MdvSystem<DurableEngine<FaultVfs>> =
        MdvSystem::durable_on(schema(), NetConfig::default());
    sys.add_mdp_durable_on("mdp", "/m", mdp_vfs.clone())
        .unwrap();
    sys.add_lmr_durable_on("lmr", "mdp", "/l", lmr_vfs.clone())
        .unwrap();
    sys
}

/// URIs of the live `doc` records in a recovered store's state table
/// (empty when the table was never created — i.e. a crash image from
/// before the store finished initializing).
fn doc_uris(db: &Database) -> BTreeSet<String> {
    match db.table("SysState") {
        Ok(t) => t
            .iter()
            .filter_map(|(_, r)| match (&r[0], &r[1]) {
                // `doc <uri>` with `<version>\t<deleted>…`: live when 0
                (Value::Str(key), Value::Str(fields)) if fields.split('\t').nth(1) == Some("0") => {
                    key.strip_prefix("doc ").map(str::to_owned)
                }
                _ => None,
            })
            .collect(),
        Err(_) => BTreeSet::new(),
    }
}

/// Exhaustive crash-point exploration of a real MDP schedule: every
/// durability boundary the node's store crosses — including the epoch
/// bumps of auto-checkpoints — is crashed under every mode, and the
/// recovered document set must be the acked set at that boundary or an
/// atomically newer one: zero committed-write loss across the whole sweep.
#[test]
fn end_to_end_schedule_survives_every_recorded_boundary() {
    let vfs = FaultVfs::new(0x5EED);
    vfs.set_recording(true); // record from store creation onwards
    let lvfs = FaultVfs::new(2); // the LMR persists off the recorded disk
    let mut sys = faulty_two_tier(&vfs, &lvfs);
    sys.set_checkpoint_every(Some(4));

    // expected[k] = acked document set after k acked system operations
    let mut expected: Vec<BTreeSet<String>> = vec![BTreeSet::new()];
    macro_rules! ack {
        ($set:expr) => {{
            expected.push($set);
            vfs.set_marker((expected.len() - 1) as u64);
        }};
    }

    sys.subscribe("lmr", RULES[0]).unwrap();
    ack!(expected.last().unwrap().clone());
    for i in 0..5 {
        sys.register_document("mdp", &provider(i, "a.hub.org", 128, 700))
            .unwrap();
        let mut set = expected.last().unwrap().clone();
        set.insert(format!("doc{i}.rdf"));
        ack!(set);
    }
    sys.update_document("mdp", &provider(1, "b.edge.org", 32, 500))
        .unwrap();
    ack!(expected.last().unwrap().clone());
    sys.delete_document("mdp", "doc0.rdf").unwrap();
    let mut set = expected.last().unwrap().clone();
    set.remove("doc0.rdf");
    ack!(set);
    sys.run_to_quiescence().unwrap();

    let n = vfs.boundary_count();
    assert!(n >= 30, "expected a rich boundary set, got only {n}");
    assert!(
        !vfs.dump().contains_key(Path::new("/m/wal-0")),
        "the schedule must cross an auto-checkpoint epoch bump"
    );

    for i in 0..n {
        let (op, marker) = vfs.boundary_info(i);
        let m = marker as usize;
        for mode in CRASH_MODES {
            let uris = match DurableEngine::open_with(vfs.crash_image(i, mode), "/m") {
                Ok(rec) => doc_uris(rec.database()),
                Err(e) => {
                    assert_eq!(
                        m, 0,
                        "boundary {i} ({op}, {mode:?}): store unopenable \
                         after acked traffic: {e}"
                    );
                    continue;
                }
            };
            assert!(
                expected[m..].contains(&uris),
                "boundary {i} ({op}, {mode:?}): recovered documents {uris:?} \
                 are not the acked set at marker {m} nor an atomically newer one"
            );
        }
    }
}

#[test]
fn two_tier_deployment_reconverges_after_every_crash_mode() {
    for mode in CRASH_MODES {
        let vfs = FaultVfs::new(7);
        let mut sys = faulty_two_tier(&vfs, &vfs);
        sys.subscribe("lmr", RULES[0]).unwrap();
        for i in 0..3 {
            sys.register_document("mdp", &provider(i, "a.hub.org", 128, 700))
                .unwrap();
        }

        vfs.crash(mode);
        sys.crash_and_restart_mdp("mdp").unwrap();
        sys.crash_and_restart_lmr("lmr").unwrap();
        sys.run_to_quiescence().unwrap();

        for i in 0..3 {
            assert!(
                sys.mdp("mdp")
                    .unwrap()
                    .engine()
                    .document(&format!("doc{i}.rdf"))
                    .is_some(),
                "doc{i} lost in {mode:?} crash"
            );
        }
        assert_consistent(&sys, "lmr", "mdp", &RULES[..1], &format!("after {mode:?}"));

        // the recovered deployment still routes fresh traffic
        sys.register_document("mdp", &provider(9, "c.hub.org", 256, 800))
            .unwrap();
        assert!(sys.lmr("lmr").unwrap().is_cached("doc9.rdf#host"));
        assert_consistent(
            &sys,
            "lmr",
            "mdp",
            &RULES[..1],
            &format!("after post-{mode:?} traffic"),
        );
    }
}

#[test]
fn a_wedged_mdp_recovers_its_acked_prefix_after_reopen() {
    let vfs = FaultVfs::new(23);
    vfs.arm(false);
    let lvfs = FaultVfs::new(24);
    let mut sys = faulty_two_tier(&vfs, &lvfs);
    sys.subscribe("lmr", RULES[0]).unwrap();
    for i in 0..2 {
        sys.register_document("mdp", &provider(i, "a.hub.org", 128, 700))
            .unwrap();
    }

    // every sync now fails: the registration is refused, typed, and the
    // engine wedges rather than acking maybe-lost bytes
    vfs.set_plan(DiskFaultPlan {
        sync_err: 1.0,
        ..DiskFaultPlan::default()
    });
    vfs.arm(true);
    let err = sys
        .register_document("mdp", &provider(2, "a.hub.org", 128, 700))
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("storage") || msg.contains("wedged") || msg.contains("i/o"),
        "fault must surface as a typed storage error, got: {msg}"
    );
    assert!(
        sys.mdp("mdp").unwrap().engine().storage().is_degraded(),
        "a failed sync must wedge the engine"
    );

    // reopening after a crash is the documented recovery path
    vfs.arm(false);
    vfs.crash(CrashMode::DurableOnly);
    sys.crash_and_restart_mdp("mdp").unwrap();
    sys.run_to_quiescence().unwrap();

    assert!(sys
        .mdp("mdp")
        .unwrap()
        .engine()
        .document("doc0.rdf")
        .is_some());
    assert!(sys
        .mdp("mdp")
        .unwrap()
        .engine()
        .document("doc1.rdf")
        .is_some());
    assert!(
        sys.mdp("mdp")
            .unwrap()
            .engine()
            .document("doc2.rdf")
            .is_none(),
        "an unacked registration must not survive a durable-only crash"
    );
    assert!(!sys.mdp("mdp").unwrap().engine().storage().is_degraded());

    // the refused registration can simply be retried on the healthy disk
    sys.register_document("mdp", &provider(2, "a.hub.org", 128, 700))
        .unwrap();
    assert_consistent(&sys, "lmr", "mdp", &RULES[..1], "after wedge + reopen");
}

#[test]
fn raft_hard_state_survives_disk_crash_modes() {
    for mode in CRASH_MODES {
        let voters = ["m1", "m2", "m3"];
        let mut sys: MdvSystem<DurableEngine<FaultVfs>> =
            MdvSystem::durable_on(schema(), NetConfig::default());
        sys.enable_raft(42).unwrap();
        let disks: Vec<FaultVfs> = (0..3).map(|i| FaultVfs::new(100 + i)).collect();
        for (i, m) in voters.iter().enumerate() {
            sys.add_mdp_durable_on(m, format!("/{m}"), disks[i].clone())
                .unwrap();
        }
        sys.run_to_quiescence().unwrap();
        let leader = sys.raft_leader().expect("a leader is elected");
        for i in 0..3 {
            sys.register_document(&leader, &provider(i, "a.hub.org", 128, 700))
                .unwrap();
        }
        sys.run_to_quiescence().unwrap();

        // crash a follower's disk: its durable Raft hard state (term, vote,
        // log, applied prefix) must come back exactly — a voter that forgets
        // its vote or its committed prefix breaks the safety properties
        let follower = *voters.iter().find(|v| **v != leader).unwrap();
        let fi = voters.iter().position(|v| *v == follower).unwrap();
        let before = sys.raft_probe(follower).unwrap().expect("raft voter");
        disks[fi].crash(mode);
        sys.crash_and_restart_mdp(follower).unwrap();
        let after = sys.raft_probe(follower).unwrap().expect("raft voter");
        assert_eq!(after.term, before.term, "term lost in {mode:?} crash");
        assert_eq!(after.voted_for, before.voted_for, "vote lost in {mode:?}");
        assert_eq!(after.log, before.log, "log rewritten by {mode:?} crash");
        assert_eq!(after.applied, before.applied, "applied prefix lost");

        sys.run_to_quiescence().unwrap();
        assert_committed_identical(&sys, &format!("raft after {mode:?} crash"));
    }
}
