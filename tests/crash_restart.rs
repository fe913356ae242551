//! Crash/restart recovery of durable nodes (DESIGN.md §6).
//!
//! Nodes built on the WAL+snapshot backend must survive losing *all* of
//! their volatile state: the randomized property below runs rule churn and
//! document traffic under injected network faults, crashes MDPs and LMRs at
//! arbitrary points of the schedule — sometimes tearing the final WAL
//! record first, as a real crash mid-append would — and requires the
//! recovered deployment to reconverge until the cache-consistency oracle
//! (`tests/common/mod.rs`) holds again. `crash_and_restart_*` additionally
//! verify internally that snapshot + WAL replay reproduces the pre-crash
//! database byte-for-byte.
//!
//! Deterministic companions pin the torn-tail case, GC no-resurrection
//! through recovery, snapshot-as-compaction, what an MDP journals (its
//! mirrors, not its filter tables), and early arrivals: the receiver keeps
//! none, and the sender's durable record carries each across a crash.

mod common;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use common::{assert_consistent, mild_fault_plan, provider, schema};
use mdv::prelude::*;
use mdv::relstore::{Database, DurableEngine, StdFs, StorageEngine};
use mdv::system::{FaultPlan, MdvSystem, Partition, PublishMsg, RuleDelta};
use mdv_testkit::{prop_assert, prop_assert_eq, property, Source};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory for one deployment's stores.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mdv-crash-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Removes a scratch tree.
fn cleanup(root: &Path) {
    let _ = std::fs::remove_dir_all(root);
}

/// Simulates a crash mid-append: bolts garbage onto the current WAL file.
/// Everything the node acted on is already synced, so recovery must simply
/// truncate this suffix.
fn tear_wal_tail(dir: &Path, epoch: u64, garbage: &[u8]) {
    use std::io::Write;
    let path = dir.join(format!("wal-{epoch}"));
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap();
    f.write_all(garbage).unwrap();
}

fn durable_two_tier(root: &Path, config: NetConfig) -> MdvSystem<DurableEngine> {
    let mut sys = MdvSystem::durable_with_net_config(schema(), config);
    sys.add_mdp_durable("mdp", root.join("mdp")).unwrap();
    sys.add_lmr_durable("lmr", "mdp", root.join("lmr")).unwrap();
    sys
}

const RULES: [&str; 3] = [
    "search CycleProvider c register c where c.serverInformation.memory > 64",
    "search CycleProvider c register c where c.serverHost contains 'hub'",
    "search ServerInformation s register s where s.cpu >= 600",
];

#[derive(Debug, Clone)]
struct Spec {
    host: String,
    memory: i64,
    cpu: i64,
}

fn arb_spec(src: &mut Source) -> Spec {
    Spec {
        host: format!(
            "{}.{}.org",
            src.choose(&["a", "b"]),
            src.choose(&["hub", "edge"])
        ),
        memory: src.i64_in(0..150),
        cpu: src.i64_in(300..900),
    }
}

#[derive(Debug, Clone)]
enum Op {
    Register(Spec),
    Update(usize, Spec),
    Delete(usize),
    /// Unsubscribe an active rule, or re-subscribe a retracted one.
    ToggleRule(usize),
    /// Crash + restart the MDP; `true` tears the final WAL record first.
    CrashMdp(bool),
    /// Crash + restart the LMR; `true` tears the final WAL record first.
    CrashLmr(bool),
}

fn arb_ops(src: &mut Source) -> Vec<Op> {
    src.vec(2..14, |src| match src.weighted(&[4, 2, 2, 2, 2, 2]) {
        0 => Op::Register(arb_spec(src)),
        1 => Op::Update(src.any_usize(), arb_spec(src)),
        2 => Op::Delete(src.any_usize()),
        3 => Op::ToggleRule(src.any_usize()),
        4 => Op::CrashMdp(src.bool_with(0.5)),
        _ => Op::CrashLmr(src.bool_with(0.5)),
    })
}

property! {
    /// After every step of a randomized workload with rule churn — and
    /// crash/restarts of either node at arbitrary points, with and without
    /// a torn final WAL record — the recovered deployment reconverges and
    /// the cache-consistency oracle holds, with nothing left buffered or
    /// unacked (the at-least-once `pubseq` state survived the crash).
    fn oracle_holds_across_crash_restarts(src) cases = 60; {
        let config = NetConfig {
            faults: mild_fault_plan(src.bits()),
            ..NetConfig::default()
        };
        let root = scratch("prop");
        let mut sys = durable_two_tier(&root, config);

        let mut active: Vec<(u64, usize)> = Vec::new();
        let mut retracted: Vec<usize> = Vec::new();
        for (idx, r) in RULES.iter().enumerate() {
            active.push((sys.subscribe("lmr", r).unwrap(), idx));
        }

        let mut live: Vec<usize> = Vec::new();
        let mut next_doc = 0usize;
        for (step, op) in arb_ops(src).into_iter().enumerate() {
            match op {
                Op::Register(spec) => {
                    let i = next_doc;
                    next_doc += 1;
                    sys.register_document("mdp", &provider(i, &spec.host, spec.memory, spec.cpu))
                        .unwrap();
                    live.push(i);
                }
                Op::Update(pick, spec) => {
                    if live.is_empty() {
                        continue;
                    }
                    let i = live[pick % live.len()];
                    sys.update_document("mdp", &provider(i, &spec.host, spec.memory, spec.cpu))
                        .unwrap();
                }
                Op::Delete(pick) => {
                    if live.is_empty() {
                        continue;
                    }
                    let i = live.remove(pick % live.len());
                    sys.delete_document("mdp", &format!("doc{i}.rdf")).unwrap();
                }
                Op::ToggleRule(pick) => {
                    if !retracted.is_empty() && (active.is_empty() || pick % 2 == 0) {
                        let idx = retracted.remove(pick % retracted.len());
                        active.push((sys.subscribe("lmr", RULES[idx]).unwrap(), idx));
                    } else if !active.is_empty() {
                        let (id, idx) = active.remove(pick % active.len());
                        sys.unsubscribe("lmr", id).unwrap();
                        retracted.push(idx);
                    }
                }
                Op::CrashMdp(torn) => {
                    if torn {
                        let store = sys.mdp("mdp").unwrap().engine().storage();
                        tear_wal_tail(store.dir(), store.epoch(), b"\xde\xad\xbe");
                    }
                    sys.crash_and_restart_mdp("mdp").unwrap();
                    sys.run_to_quiescence().unwrap();
                }
                Op::CrashLmr(torn) => {
                    if torn {
                        let store = sys.lmr("lmr").unwrap().storage();
                        tear_wal_tail(store.dir(), store.epoch(), &[0xff; 7]);
                    }
                    sys.crash_and_restart_lmr("lmr").unwrap();
                    sys.run_to_quiescence().unwrap();
                }
            }
            prop_assert_eq!(sys.mdp("mdp").unwrap().unacked_publications(), 0);
            let texts: Vec<&str> = active.iter().map(|(_, idx)| RULES[*idx]).collect();
            assert_consistent(&sys, "lmr", "mdp", &texts, &format!("after step {step}"));
        }
        drop(sys);
        cleanup(&root);
    }
}

#[test]
fn mdp_crash_restart_preserves_documents_and_subscriptions() {
    let root = scratch("mdp-det");
    let mut sys = durable_two_tier(&root, NetConfig::default());
    sys.subscribe("lmr", RULES[0]).unwrap();
    sys.register_document("mdp", &provider(1, "a.hub.org", 128, 700))
        .unwrap();
    sys.register_document("mdp", &provider(2, "b.edge.org", 32, 500))
        .unwrap();
    // a partial batch is volatile state: doc7 is queued, not yet filtered,
    // and must vanish in the crash
    sys.set_batch_size("mdp", Some(100)).unwrap();
    sys.register_document("mdp", &provider(7, "b.hub.org", 128, 700))
        .unwrap();
    assert_eq!(sys.mdp("mdp").unwrap().pending_documents(), 1);

    sys.crash_and_restart_mdp("mdp").unwrap();
    sys.run_to_quiescence().unwrap();

    let mdp = sys.mdp("mdp").unwrap();
    assert_eq!(mdp.pending_documents(), 0, "pending batch is volatile");
    assert!(
        mdp.engine().document("doc7.rdf").is_none(),
        "unflushed batch must not resurrect"
    );
    // documents survived into the rebuilt engine
    assert!(sys
        .mdp("mdp")
        .unwrap()
        .engine()
        .document("doc1.rdf")
        .is_some());
    assert!(sys
        .mdp("mdp")
        .unwrap()
        .engine()
        .document("doc2.rdf")
        .is_some());
    assert_consistent(&sys, "lmr", "mdp", &RULES[..1], "after MDP restart");

    // the restored subscription still routes new publications; the restored
    // pubseq state means the LMR accepts them rather than parking them
    sys.register_document("mdp", &provider(3, "c.hub.org", 256, 800))
        .unwrap();
    assert!(sys.lmr("lmr").unwrap().is_cached("doc3.rdf#host"));
    assert_consistent(
        &sys,
        "lmr",
        "mdp",
        &RULES[..1],
        "after post-restart traffic",
    );
    cleanup(&root);
}

#[test]
fn lmr_crash_restart_reconverges_with_torn_final_wal_record() {
    let root = scratch("lmr-torn");
    let mut sys = durable_two_tier(&root, NetConfig::default());
    sys.subscribe("lmr", RULES[0]).unwrap();
    sys.register_document("mdp", &provider(1, "a.hub.org", 128, 700))
        .unwrap();
    assert!(sys.lmr("lmr").unwrap().is_cached("doc1.rdf#host"));

    // a crash mid-append leaves a torn record; recovery truncates it
    let store = sys.lmr("lmr").unwrap().storage();
    tear_wal_tail(store.dir(), store.epoch(), b"torn-final-record");
    sys.crash_and_restart_lmr("lmr").unwrap();
    sys.run_to_quiescence().unwrap();

    assert!(sys.lmr("lmr").unwrap().is_cached("doc1.rdf#host"));
    assert!(sys.lmr("lmr").unwrap().is_cached("doc1.rdf#info"));
    assert_consistent(&sys, "lmr", "mdp", &RULES[..1], "after torn-tail restart");

    // sequence numbers continue where they left off
    sys.update_document("mdp", &provider(1, "a.hub.org", 16, 700))
        .unwrap();
    assert!(!sys.lmr("lmr").unwrap().is_cached("doc1.rdf#host"));
    cleanup(&root);
}

#[test]
fn local_metadata_survives_lmr_crash() {
    let root = scratch("lmr-local");
    let mut sys = durable_two_tier(&root, NetConfig::default());
    let local = Document::new("local.rdf").with_resource(
        Resource::new(UriRef::new("local.rdf", "s"), "ServerInformation")
            .with("memory", Term::literal("512"))
            .with("cpu", Term::literal("1000")),
    );
    sys.register_local_metadata("lmr", &local).unwrap();

    sys.crash_and_restart_lmr("lmr").unwrap();
    sys.run_to_quiescence().unwrap();

    assert!(sys.lmr("lmr").unwrap().is_cached("local.rdf#s"));
    // still marked local: the GC may not collect it
    sys.collect_garbage_at("lmr").unwrap();
    assert!(sys.lmr("lmr").unwrap().is_cached("local.rdf#s"));
    let hits = sys
        .query(
            "lmr",
            "search ServerInformation s register s where s.memory > 100",
        )
        .unwrap();
    assert_eq!(hits.len(), 1);
    cleanup(&root);
}

#[test]
fn gc_deletions_are_durable_and_nothing_resurrects_after_recovery() {
    let root = scratch("gc");
    let mut sys = durable_two_tier(&root, NetConfig::default());
    let rule = sys.subscribe("lmr", RULES[0]).unwrap();
    for i in 0..4 {
        sys.register_document("mdp", &provider(i, "a.hub.org", 128, 700))
            .unwrap();
    }
    assert_eq!(sys.lmr("lmr").unwrap().cached_uris().len(), 8);

    // unsubscribe runs the GC; its deletions are WAL-logged
    sys.unsubscribe("lmr", rule).unwrap();
    assert!(sys.lmr("lmr").unwrap().cached_uris().is_empty());

    sys.crash_and_restart_lmr("lmr").unwrap();
    sys.run_to_quiescence().unwrap();
    assert!(
        sys.lmr("lmr").unwrap().cached_uris().is_empty(),
        "collected resources resurrected by recovery"
    );
    assert_consistent(&sys, "lmr", "mdp", &[], "after GC + restart");
    cleanup(&root);
}

#[test]
fn compaction_truncates_the_wal_and_preserves_state() {
    let root = scratch("compact");
    let mut sys = durable_two_tier(&root, NetConfig::default());
    sys.subscribe("lmr", RULES[0]).unwrap();
    for i in 0..6 {
        sys.register_document("mdp", &provider(i, "a.hub.org", 128, 700))
            .unwrap();
    }
    let before = sys.lmr("lmr").unwrap().storage().wal_bytes();
    assert!(before > 0, "traffic must have produced WAL bytes");

    // snapshot-as-compaction: epoch bumps, WAL restarts empty
    let epoch_before = sys.lmr("lmr").unwrap().storage().epoch();
    sys.compact_lmr("lmr").unwrap();
    sys.compact_mdp("mdp").unwrap();
    let store = sys.lmr("lmr").unwrap().storage();
    assert_eq!(store.wal_bytes(), 0);
    assert!(store.epoch() > epoch_before);

    // a compacted store recovers exactly like a WAL-heavy one
    sys.crash_and_restart_lmr("lmr").unwrap();
    sys.crash_and_restart_mdp("mdp").unwrap();
    sys.run_to_quiescence().unwrap();
    assert_consistent(
        &sys,
        "lmr",
        "mdp",
        &RULES[..1],
        "after compaction + restart",
    );
    cleanup(&root);
}

/// A table's rows without their row ids, sorted.
fn rows_of(db: &Database, table: &str) -> Vec<String> {
    let mut rows: Vec<String> = db
        .table(table)
        .unwrap()
        .iter()
        .map(|(_, r)| format!("{r:?}"))
        .collect();
    rows.sort();
    rows
}

/// The keys of the records of a node's state table (`SysState`,
/// `LmrState`) whose tag is `tag`, sorted.
fn record_keys(db: &Database, table: &str, tag: &str) -> Vec<String> {
    let prefix = format!("{tag} ");
    let mut keys: Vec<String> = db
        .table(table)
        .unwrap()
        .iter()
        .filter_map(|(_, r)| r[0].as_str().filter(|k| k.starts_with(&prefix)))
        .map(str::to_owned)
        .collect();
    keys.sort();
    keys
}

/// A stream counter of a node's state table: the number in the fields of
/// the record `key` (`pubseq` of an LMR).
fn counter(db: &Database, table: &str, key: &str) -> Option<i64> {
    db.table(table)
        .unwrap()
        .iter()
        .find(|(_, r)| r[0].as_str() == Some(key))
        .and_then(|(_, r)| r[1].as_str()?.parse().ok())
}

#[test]
fn the_mdp_journals_no_filter_row_and_recovery_rebuilds_them() {
    let root = scratch("unlogged");
    let mut sys = durable_two_tier(&root, NetConfig::default());
    sys.set_checkpoint_every(Some(24));
    for rule in RULES {
        sys.subscribe("lmr", rule).unwrap();
    }
    for i in 0..8 {
        let host = if i % 2 == 0 {
            "a.hub.org"
        } else {
            "b.edge.org"
        };
        sys.register_document("mdp", &provider(i, host, 40 + 20 * i as i64, 700))
            .unwrap();
    }
    sys.update_document("mdp", &provider(3, "c.hub.org", 512, 900))
        .unwrap();
    sys.delete_document("mdp", "doc6.rdf").unwrap();
    let mdp = sys.mdp("mdp").unwrap();
    assert!(
        mdp.engine().storage().epoch() >= 1,
        "the schedule must cross an auto-checkpoint"
    );
    let dir = mdp.engine().storage().dir().to_path_buf();

    // what a recovery reads: the mirrors, and the filter tables empty
    let reopened = DurableEngine::open_with(StdFs, &dir).unwrap();
    let db = reopened.database();
    for table in ["Resources", "Statements", "RuleResults", "AtomicRules"] {
        assert!(db.table(table).unwrap().is_empty(), "{table} was journaled");
        assert!(!mdp.engine().db().table(table).unwrap().is_empty());
    }
    let docs = record_keys(db, "SysState", "doc");
    let mut known: Vec<String> = mdp
        .engine()
        .documents()
        .map(|d| d.uri())
        .chain(["doc6.rdf"])
        .map(|uri| format!("doc {uri}"))
        .collect();
    known.sort_unstable();
    assert_eq!(
        docs, known,
        "a doc record must hold every live document and the tombstone"
    );
    drop(reopened);

    // the rebuild refills them exactly
    let before: Vec<Vec<String>> = ["Resources", "Statements"]
        .iter()
        .map(|t| rows_of(mdp.engine().db(), t))
        .collect();
    sys.crash_and_restart_mdp("mdp").unwrap();
    sys.run_to_quiescence().unwrap();
    let rebuilt = sys.mdp("mdp").unwrap().engine().db();
    for (table, want) in ["Resources", "Statements"].iter().zip(&before) {
        assert_eq!(&rows_of(rebuilt, table), want, "rebuilt {table}");
    }
    assert_consistent(&sys, "lmr", "mdp", &RULES, "after the rebuild");
    cleanup(&root);
}

/// Document `i`: a provider whose `serverInformation` is the `info` of
/// document `info_doc`, and an `info` of its own.
fn provider_referencing(i: usize, info_doc: usize, host: &str, memory: i64) -> Document {
    let uri = format!("doc{i}.rdf");
    Document::new(uri.clone())
        .with_resource(
            Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
                .with("serverHost", Term::literal(host))
                .with("serverPort", Term::literal("4000"))
                .with(
                    "serverInformation",
                    Term::resource(UriRef::new(&format!("doc{info_doc}.rdf"), "info")),
                ),
        )
        .with_resource(
            Resource::new(UriRef::new(&uri, "info"), "ServerInformation")
                .with("memory", Term::literal(memory.to_string()))
                .with("cpu", Term::literal("600")),
        )
}

#[test]
fn a_replayed_rule_base_rebuilds_the_same_support_counts_and_caches() {
    // Recovery replays the documents, then the whole rule base as one
    // batch (`Mdp::reopen`). Half of the rules below were registered
    // before the data and filtered live, half were backfilled; the
    // providers reference each other's `info`, so the joins cross
    // documents. The rebuilt `RuleResults` must hold the support counts the
    // live engine held, and the LMR must cache the same resources.
    const BASE: [&str; 8] = [
        "search CycleProvider c register c where c.serverInformation.memory > 64",
        "search CycleProvider c register c where c.serverInformation.memory = 96",
        "search CycleProvider c register c \
         where c.serverHost contains 'hub' \
         and c.serverInformation.memory = 96 and c.serverInformation.cpu = 600",
        "search ServerInformation s register s where s.memory <= 80",
        "search CycleProvider c register c where c.serverHost contains 'edge'",
        "search CycleProvider c register c \
         where c.serverInformation.memory > 200 or c.serverInformation.memory < 50",
        "search CycleProvider c register c where c = 'doc6.rdf#host'",
        "search CycleProvider c register c where c.serverInformation.memory > 64",
    ];
    let root = scratch("replay");
    let mut sys = durable_two_tier(&root, NetConfig::default());
    for rule in &BASE[..4] {
        sys.subscribe("lmr", rule).unwrap();
    }
    for i in 0..10 {
        let host = if i % 3 == 0 {
            "a.hub.org"
        } else {
            "b.edge.org"
        };
        let doc = provider_referencing(i, (i + 3) % 11, host, 32 * (i as i64 % 9));
        sys.register_document("mdp", &doc).unwrap();
    }
    for rule in &BASE[4..] {
        sys.subscribe("lmr", rule).unwrap();
    }
    sys.update_document("mdp", &provider_referencing(4, 7, "c.hub.org", 96))
        .unwrap();
    // no provider references `doc2.rdf#info` (`doc10.rdf` is never registered)
    sys.delete_document("mdp", "doc2.rdf").unwrap();
    sys.run_to_quiescence().unwrap();
    let support = |sys: &MdvSystem<DurableEngine>| {
        rows_of(sys.mdp("mdp").unwrap().engine().db(), "RuleResults")
    };
    let (live, cached) = (support(&sys), sys.lmr("lmr").unwrap().cached_uris());
    assert!(live.len() > 20, "a rule base worth replaying: {live:?}");
    assert_consistent(&sys, "lmr", "mdp", &BASE, "before the crash");

    sys.crash_and_restart_mdp("mdp").unwrap();
    sys.run_to_quiescence().unwrap();
    assert_eq!(support(&sys), live, "rebuilt support counts");
    assert_eq!(sys.lmr("lmr").unwrap().cached_uris(), cached);
    assert_consistent(&sys, "lmr", "mdp", &BASE, "after the replay");
    cleanup(&root);
}

/// The WAL file a durable MDP is appending to.
fn mdp_wal(sys: &MdvSystem<DurableEngine>, name: &str) -> Vec<u8> {
    let store = sys.mdp(name).unwrap().engine().storage();
    std::fs::read(store.dir().join(format!("wal-{}", store.epoch()))).unwrap()
}

#[test]
fn a_crashed_mdp_reopens_its_own_store_and_writes_no_record_back() {
    for raft in [false, true] {
        let root = scratch("in-place");
        let dir = root.join("mdp");
        let mut sys = MdvSystem::new_durable(schema());
        if raft {
            sys.enable_raft(7).unwrap();
        }
        sys.add_mdp_durable("mdp", &dir).unwrap();
        sys.add_lmr_durable("lmr", "mdp", root.join("lmr")).unwrap();
        sys.run_to_quiescence().unwrap();
        sys.subscribe("lmr", RULES[0]).unwrap();
        for i in 0..3 {
            sys.register_document("mdp", &provider(i, "a.hub.org", 128, 700))
                .unwrap();
        }
        for restart in 1..=2 {
            sys.run_to_quiescence().unwrap();
            let before = mdp_wal(&sys, "mdp");
            sys.crash_and_restart_mdp("mdp").unwrap();
            let ctx = format!("raft {raft}, restart {restart}");
            assert_eq!(
                sys.mdp("mdp").unwrap().engine().storage().dir(),
                dir,
                "{ctx}"
            );
            let sibling = PathBuf::from(format!("{}-r{restart}", dir.display()));
            assert!(!sibling.exists(), "{ctx}: a sibling store {sibling:?}");
            // a logged op names its table as a length-prefixed string
            let after = mdp_wal(&sys, "mdp");
            assert!(after.starts_with(&before), "{ctx}: the WAL was rewritten");
            let frame = [&8u32.to_le_bytes()[..], b"SysState"].concat();
            assert!(
                !after[before.len()..]
                    .windows(frame.len())
                    .any(|w| w == frame),
                "{ctx}: recovery wrote a state record back"
            );
            // the reopened node works on in the same store
            sys.run_to_quiescence().unwrap();
            sys.register_document("mdp", &provider(10 + restart, "a.hub.org", 96, 700))
                .unwrap();
            assert!(mdp_wal(&sys, "mdp").len() > after.len(), "{ctx}");
            assert_consistent(&sys, "lmr", "mdp", &RULES[..1], &ctx);
        }
        cleanup(&root);
    }
}

/// Logical time from which the partitions below black-hole a link, well
/// after set-up and the first two document operations; and a first
/// retransmission timeout that only fires inside the partition. Neither
/// ends before the stall budget of `run_to_quiescence` gives up, so the
/// gap stays open until the test moves the clock to [`HEAL_MS`].
const CUT_MS: u64 = 10_000;
const HEAL_MS: u64 = 1_000_000_000;

/// A fixed schedule that reorders one link: sequence number `n` is lost
/// while its receiver is down, `n + 1` arrives, and every retransmission
/// of `n` falls into a partition — so the gap stays open across a crash.
fn reordering(from: &str, to: &str) -> NetConfig {
    NetConfig {
        retry_initial_ms: 2 * CUT_MS,
        faults: FaultPlan {
            partitions: vec![Partition {
                from: from.into(),
                to: to.into(),
                from_ms: CUT_MS,
                until_ms: HEAL_MS,
            }],
            ..FaultPlan::default()
        },
        ..NetConfig::default()
    }
}

#[test]
fn an_early_publication_waits_in_the_senders_outbox_across_a_crash() {
    let root = scratch("lmr-early");
    let mut sys = durable_two_tier(&root, reordering("mdp", "lmr"));
    sys.subscribe("lmr", RULES[1]).unwrap();
    let floor = |sys: &MdvSystem<DurableEngine>| {
        counter(
            sys.lmr("lmr").unwrap().storage().database(),
            "LmrState",
            "pubseq",
        )
    };
    let outbox = |sys: &MdvSystem<DurableEngine>| {
        let db = sys.mdp("mdp").unwrap().engine().storage().database();
        record_keys(db, "SysState", "outbox")
    };
    let n = floor(&sys).unwrap();

    // publication n is lost while the LMR is down; n + 1 arrives first,
    // and the LMR neither acks it nor writes a record for it
    sys.network().set_down("lmr", true);
    sys.register_document("mdp", &provider(1, "a.hub.org", 128, 700))
        .unwrap();
    sys.network().set_down("lmr", false);
    let lmr_wal = sys.lmr("lmr").unwrap().storage().wal_bytes();
    sys.register_document("mdp", &provider(2, "b.hub.org", 128, 700))
        .unwrap();
    let lmr = sys.lmr("lmr").unwrap();
    assert_eq!(
        lmr.storage().wal_bytes(),
        lmr_wal,
        "the LMR logged the early arrival"
    );
    assert!(!lmr.is_cached("doc2.rdf#host"));
    assert_eq!(sys.mdp("mdp").unwrap().unacked_publications(), 2);
    let held = vec![format!("outbox lmr\t{n}"), format!("outbox lmr\t{}", n + 1)];
    assert_eq!(outbox(&sys), held);

    // both nodes crash: the LMR keeps its floor, the MDP its outbox
    sys.crash_and_restart_lmr("lmr").unwrap();
    sys.crash_and_restart_mdp("mdp").unwrap();
    assert_eq!(floor(&sys), Some(n));
    assert_eq!(outbox(&sys), held, "the sender lost what was in flight");
    assert_eq!(sys.mdp("mdp").unwrap().unacked_publications(), 2);

    // the gap closes: n, then n + 1, each applied once — the floor moves
    // past each exactly once
    sys.network().advance_clock(HEAL_MS);
    sys.run_to_quiescence().unwrap();
    let lmr = sys.lmr("lmr").unwrap();
    assert_eq!(floor(&sys), Some(n + 2));
    assert!(outbox(&sys).is_empty());
    assert_eq!(sys.mdp("mdp").unwrap().unacked_publications(), 0);
    assert!(lmr.is_cached("doc1.rdf#host") && lmr.is_cached("doc2.rdf#host"));
    assert_consistent(&sys, "lmr", "mdp", &RULES[1..2], "after the gap closed");

    // an in-order publication costs the LMR's log less than its own wire
    // form: the initial fill of a second rule over a cached document with
    // a 4 KiB host name writes no cache row and no copy of the envelope
    let host = format!("c.hub.{}.org", "x".repeat(4096));
    sys.register_document("mdp", &provider(3, &host, 128, 700))
        .unwrap();
    let engine = sys.mdp("mdp").unwrap().engine();
    let wire = PublishMsg {
        resources: ["doc3.rdf#host", "doc3.rdf#info"]
            .map(|uri| engine.resource(uri).unwrap().unwrap())
            .into(),
        rules: vec![RuleDelta {
            matched: vec!["doc3.rdf#host".into()],
            companions: vec!["doc3.rdf#info".into()],
            ..RuleDelta::default()
        }],
        ..PublishMsg::default()
    }
    .to_wire()
    .len() as u64;
    let wal_before = sys.lmr("lmr").unwrap().storage().wal_bytes();
    let epoch = sys.lmr("lmr").unwrap().storage().epoch();
    sys.subscribe("lmr", RULES[0]).unwrap();
    let store = sys.lmr("lmr").unwrap().storage();
    assert_eq!(store.epoch(), epoch, "a checkpoint would reset the count");
    let grown = store.wal_bytes() - wal_before;
    assert!(
        grown < wire,
        "an in-order publication of {wire} wire bytes grew the WAL by {grown}"
    );
    assert_consistent(&sys, "lmr", "mdp", &RULES[..2], "after the fill");
    cleanup(&root);
}

#[test]
fn an_early_replication_waits_in_the_senders_replout_across_a_crash() {
    let root = scratch("mdp-early");
    let mut sys = MdvSystem::durable_with_net_config(schema(), reordering("m1", "m2"));
    sys.add_mdp_durable("m1", root.join("m1")).unwrap();
    sys.add_mdp_durable("m2", root.join("m2")).unwrap();
    sys.add_lmr_durable("lmr", "m2", root.join("lmr")).unwrap();
    sys.subscribe("lmr", RULES[1]).unwrap();
    let replout = |sys: &MdvSystem<DurableEngine>| {
        let db = sys.mdp("m1").unwrap().engine().storage().database();
        record_keys(db, "SysState", "replout")
    };
    // m2's state records that name its peer m1, beside the placement
    // table that lists every member: none, ever
    let about_m1 = |sys: &MdvSystem<DurableEngine>| -> Vec<String> {
        let db = sys.mdp("m2").unwrap().engine().storage().database();
        let rows = db
            .table("SysState")
            .unwrap()
            .iter()
            .map(|(_, r)| format!("{r:?}"));
        rows.filter(|r| r.contains("m1") && !r.contains("\"placement\""))
            .collect()
    };
    // what m2 applies it publishes to the LMR, once per first send
    let applied_at_m2 = |sys: &MdvSystem<DurableEngine>| {
        let log = sys.network().log();
        let first = log
            .iter()
            .filter(|r| r.from == "m2" && r.to == "lmr" && !r.retry);
        first.filter(|r| r.kind == "publish").count()
    };
    let before = applied_at_m2(&sys);

    // replicated op 0 is lost while m2 is down; op 1 arrives first and is
    // acked and applied on arrival
    sys.network().set_down("m2", true);
    sys.register_document("m1", &provider(1, "a.hub.org", 128, 700))
        .unwrap();
    sys.network().set_down("m2", false);
    sys.register_document("m1", &provider(2, "b.hub.org", 128, 700))
        .unwrap();
    let m2 = sys.mdp("m2").unwrap().engine();
    assert!(m2.document("doc1.rdf").is_none() && m2.document("doc2.rdf").is_some());
    assert_eq!(applied_at_m2(&sys), before + 1);
    assert!(about_m1(&sys).is_empty(), "{:?}", about_m1(&sys));
    assert_eq!(sys.mdp("m1").unwrap().unacked_replications(), 1);
    assert_eq!(replout(&sys), ["replout m2\t0"]);

    // the sender crashes and keeps op 0 in its `replout` record
    sys.crash_and_restart_mdp("m1").unwrap();
    assert_eq!(replout(&sys), ["replout m2\t0"], "the sender lost op 0");
    assert_eq!(sys.mdp("m1").unwrap().unacked_replications(), 1);

    // the gap closes: op 0 is applied, once; nothing is applied twice
    sys.network().advance_clock(HEAL_MS);
    sys.run_to_quiescence().unwrap();
    assert!(replout(&sys).is_empty());
    assert_eq!(sys.mdp("m1").unwrap().unacked_replications(), 0);
    assert_eq!(applied_at_m2(&sys), before + 2);
    assert!(about_m1(&sys).is_empty(), "{:?}", about_m1(&sys));
    let m2 = sys.mdp("m2").unwrap().engine();
    assert!(m2.document("doc1.rdf").is_some() && m2.document("doc2.rdf").is_some());
    assert!(sys.backbone_converged());
    assert_consistent(&sys, "lmr", "m2", &RULES[1..2], "after the gap closed");
    cleanup(&root);
}

property! {
    /// Pinned-seed smoke of the crash property: the three seeds CI runs
    /// explicitly (`MDV_PROP_SEED=1`, `31337`, `20020226`) must keep passing
    /// regardless of how the ambient seed rotates.
    fn crash_recovery_reference_check_never_trips(src) cases = 8; {
        let root = scratch("ref");
        let mut sys = durable_two_tier(&root, NetConfig::default());
        sys.subscribe("lmr", RULES[0]).unwrap();
        let n = src.i64_in(1..6) as usize;
        for i in 0..n {
            sys.register_document("mdp", &provider(i, "a.hub.org", 70 + i as i64, 700)).unwrap();
        }
        // both restart paths re-verify replay == pre-crash state internally
        sys.crash_and_restart_mdp("mdp").unwrap();
        sys.crash_and_restart_lmr("lmr").unwrap();
        sys.run_to_quiescence().unwrap();
        prop_assert!(sys.mdp("mdp").unwrap().engine().document("doc0.rdf").is_some());
        assert_consistent(&sys, "lmr", "mdp", &RULES[..1], "after double restart");
        drop(sys);
        cleanup(&root);
    }
}
