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
//! through recovery, and snapshot-as-compaction.

mod common;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use common::{assert_consistent, mild_fault_plan, provider, schema};
use mdv::prelude::*;
use mdv::relstore::DurableEngine;
use mdv::system::MdvSystem;
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

/// Removes a scratch tree, including the `-r<k>` sibling stores a rebuilt
/// MDP creates next to its original directory.
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
            prop_assert_eq!(sys.lmr("lmr").unwrap().buffered_publications(), 0);
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
