//! Backbone robustness: reliable MDP↔MDP replication, anti-entropy repair,
//! and LMR failover to a surviving MDP (DESIGN.md §7).
//!
//! The tentpole property drives a multi-MDP deployment through randomized
//! workloads under randomized fault schedules *plus* one full
//! `fail_mdp`/heal cycle, and demands byte-identical MDP document sets and
//! a passing cache-consistency oracle for every LMR — including LMRs that
//! failed over to their backup MDP mid-schedule. Fixed-seed tests pin each
//! mechanism in isolation: replication retransmission, digest-driven
//! repair after mailbox loss, the failover handshake, and publication
//! de-duplication when the healed old home comes back talking.

mod common;

use common::{assert_consistent, mild_fault_plan, provider, schema};
use mdv::prelude::*;
use mdv::system::transport::{FaultPlan, LinkFaults};
use mdv::system::MdvSystem;
use mdv_testkit::{prop_assert, prop_assert_eq, property, Source};

const RULES: [&str; 2] = [
    "search CycleProvider c register c where c.serverInformation.memory > 64",
    "search ServerInformation s register s where s.cpu >= 600",
];

/// A backbone-heavy fault plan: every link is lossy and duplicating, so
/// replication, repair, and failover traffic all run degraded.
fn arb_fault_plan(src: &mut Source) -> FaultPlan {
    FaultPlan {
        seed: src.bits(),
        default_link: LinkFaults {
            drop_prob: src.f64_in(0.0..0.25),
            dup_prob: src.f64_in(0.0..0.25),
            jitter_ms: src.u64_in(0..30),
            spike_prob: src.f64_in(0.0..0.10),
            spike_ms: src.u64_in(0..100),
        },
        ..FaultPlan::default()
    }
}

#[derive(Debug, Clone)]
enum Op {
    Register(i64, i64),
    Update(usize, i64, i64),
    Delete(usize),
}

fn arb_ops(src: &mut Source) -> Vec<Op> {
    src.vec(1..10, |src| match src.weighted(&[4, 3, 2]) {
        0 => Op::Register(src.i64_in(0..150), src.i64_in(300..900)),
        1 => Op::Update(src.any_usize(), src.i64_in(0..150), src.i64_in(300..900)),
        _ => Op::Delete(src.any_usize()),
    })
}

/// Applies an op at a named MDP, tracking which documents are live.
fn apply_op(sys: &mut MdvSystem, mdp: &str, op: Op, live: &mut Vec<usize>, next: &mut usize) {
    match op {
        Op::Register(memory, cpu) => {
            let i = *next;
            *next += 1;
            sys.register_document(mdp, &provider(i, "a.hub.org", memory, cpu))
                .unwrap();
            live.push(i);
        }
        Op::Update(pick, memory, cpu) => {
            if live.is_empty() {
                return;
            }
            let i = live[pick % live.len()];
            sys.update_document(mdp, &provider(i, "b.hub.org", memory, cpu))
                .unwrap();
        }
        Op::Delete(pick) => {
            if live.is_empty() {
                return;
            }
            let i = live.remove(pick % live.len());
            sys.delete_document(mdp, &format!("doc{i}.rdf")).unwrap();
        }
    }
}

/// All live MDPs hold byte-identical document sets.
fn assert_backbone_converged(sys: &MdvSystem, when: &str) {
    assert!(sys.backbone_converged(), "backbone divergent {when}");
}

property! {
    /// With any seeded fault plan plus one fail/heal cycle of an MDP, the
    /// system reconverges: anti-entropy makes all MDP document sets
    /// byte-identical, and the oracle passes for every LMR — including the
    /// one that failed over to its backup while its home was down.
    fn backbone_reconverges_under_faults_and_a_fail_heal_cycle(src) cases = 25; {
        let config = NetConfig {
            faults: arb_fault_plan(src),
            ..NetConfig::default()
        };
        let mut sys = MdvSystem::with_net_config(schema(), config);
        for m in ["m1", "m2", "m3"] {
            sys.add_mdp(m).unwrap();
        }
        sys.add_lmr("l1", "m1").unwrap();
        sys.add_lmr("l2", "m2").unwrap();
        sys.set_backup_mdp("l1", "m2").unwrap();
        sys.set_backup_mdp("l2", "m3").unwrap();
        let r1 = sys.subscribe("l1", RULES[0]).unwrap();
        sys.subscribe("l2", RULES[1]).unwrap();

        let mut live: Vec<usize> = Vec::new();
        let mut next = 0usize;
        let mdps = ["m1", "m2", "m3"];
        for (k, op) in arb_ops(src).into_iter().enumerate() {
            apply_op(&mut sys, mdps[k % 3], op, &mut live, &mut next);
        }
        assert_backbone_converged(&sys, "before the failure (reliable replication)");

        // one fail/heal cycle: m1 dies with its mailbox, l1 must fail over
        sys.fail_mdp("m1").unwrap();
        for (k, op) in arb_ops(src).into_iter().enumerate() {
            apply_op(&mut sys, mdps[1 + k % 2], op, &mut live, &mut next);
        }
        // control churn detects the silence: the retransmission budget runs
        // out and l1 re-registers everything at its backup
        sys.unsubscribe("l1", r1).unwrap();
        let r1b = sys.subscribe("l1", RULES[0]).unwrap();
        prop_assert_eq!(sys.lmr("l1").unwrap().mdp(), "m2");
        prop_assert!(!sys.lmr("l1").unwrap().failing_over());

        sys.heal_mdp("m1").unwrap();
        assert_backbone_converged(&sys, "after the heal");

        // a post-heal workload keeps flowing through the healed backbone
        for (k, op) in arb_ops(src).into_iter().enumerate() {
            apply_op(&mut sys, mdps[k % 3], op, &mut live, &mut next);
        }
        sys.repair_backbone(64).unwrap();
        assert_backbone_converged(&sys, "after the post-heal workload");

        // the oracle holds for every LMR against its *current* home
        let l1_home = sys.lmr("l1").unwrap().mdp().to_owned();
        let l2_home = sys.lmr("l2").unwrap().mdp().to_owned();
        assert_consistent(&sys, "l1", &l1_home, &RULES[..1], "at the end (failed-over LMR)");
        assert_consistent(&sys, "l2", &l2_home, &RULES[1..], "at the end");
        let _ = r1b;

        // fully quiescent: nothing unacked anywhere
        for m in mdps {
            prop_assert_eq!(sys.mdp(m).unwrap().unacked_publications(), 0);
            prop_assert_eq!(sys.mdp(m).unwrap().unacked_replications(), 0);
        }
    }
}

#[test]
fn replication_survives_a_lossy_backbone_without_repair() {
    // reliable replication alone (no anti-entropy, no failure) must converge
    // the backbone under loss: the repair machinery stays cold
    let cfg = NetConfig {
        faults: mild_fault_plan(0xbacb_0e5e),
        ..NetConfig::default()
    };
    let mut sys = MdvSystem::with_net_config(schema(), cfg);
    sys.add_mdp("m1").unwrap();
    sys.add_mdp("m2").unwrap();
    for i in 0..5 {
        sys.register_document("m1", &provider(i, "a.hub.org", 100 + i as i64, 700))
            .unwrap();
    }
    sys.update_document("m2", &provider(0, "b.hub.org", 10, 400))
        .unwrap();
    sys.delete_document("m1", "doc1.rdf").unwrap();
    assert!(sys.backbone_converged(), "replication did not converge");
    let stats = sys.network_stats();
    assert_eq!(stats.anti_entropy_rounds, 0);
    assert_eq!(stats.repairs_applied, 0);
    assert_eq!(sys.mdp("m1").unwrap().unacked_replications(), 0);
    assert_eq!(sys.mdp("m2").unwrap().unacked_replications(), 0);
}

#[test]
fn partitioned_peer_heals_via_parked_retransmission_not_repair() {
    // a replication dropped on a partitioned link survives in the sender's
    // outbox (parked), so the partition's end converges by ordinary
    // retransmission — the repair machinery stays cold
    let mut config = NetConfig::default();
    config.faults.partition_both("m1", "m2", 0, HEAL_MS);
    let mut sys = MdvSystem::with_net_config(schema(), config);
    sys.add_mdp("m1").unwrap();
    sys.add_mdp("m2").unwrap();
    sys.register_document("m1", &provider(0, "a.hub.org", 128, 700))
        .unwrap();
    assert_eq!(sys.mdp("m1").unwrap().unacked_replications(), 1);
    assert!(sys
        .mdp("m2")
        .unwrap()
        .engine()
        .document("doc0.rdf")
        .is_none());
    sys.network().advance_clock(HEAL_MS);
    sys.run_to_quiescence().unwrap();
    assert!(sys
        .mdp("m2")
        .unwrap()
        .engine()
        .document("doc0.rdf")
        .is_some());
    assert!(sys.backbone_converged());
    assert_eq!(sys.mdp("m1").unwrap().unacked_replications(), 0);
    let stats = sys.network_stats();
    assert_eq!((stats.anti_entropy_rounds, stats.repairs_applied), (0, 0));
}

/// The end of the link partitions above: later than the logical time the
/// stall budget of `run_to_quiescence` lets a retransmitting sender reach.
const HEAL_MS: u64 = 1_000_000_000;

#[test]
fn anti_entropy_repairs_what_a_down_origin_cannot_retransmit() {
    // m3 misses a document whose *origin* (m1) is down when m3 can be
    // reached again: the only live copy-holder, m2, never had an outbox
    // entry for m3 (replication is origin-to-peers, not gossip) — the
    // digest exchange is the only path that can restore it
    let mut config = NetConfig::default();
    config.faults.partition_both("m1", "m3", 0, HEAL_MS);
    let mut sys = MdvSystem::with_net_config(schema(), config);
    for m in ["m1", "m2", "m3"] {
        sys.add_mdp(m).unwrap();
    }
    sys.register_document("m1", &provider(0, "a.hub.org", 128, 700))
        .unwrap();
    assert_eq!(sys.mdp("m1").unwrap().unacked_replications(), 1);
    assert!(
        sys.network_stats().dropped > 0,
        "the partition never dropped the replication to m3"
    );
    // the origin dies, parked outbox and all; the survivors rebalance
    sys.fail_mdp("m1").unwrap();
    assert!(
        sys.mdp("m3")
            .unwrap()
            .engine()
            .document("doc0.rdf")
            .is_some(),
        "anti-entropy must pull the missed document from m2"
    );
    let stats = sys.network_stats();
    assert!(
        stats.anti_entropy_rounds > 0,
        "no digest round ran: {stats:?}"
    );
    assert!(stats.repairs_applied > 0, "no repair applied: {stats:?}");
    // the origin comes back after the partition; its parked retransmission
    // to m3 is now a version-gated no-op and the whole backbone converges
    sys.network().advance_clock(HEAL_MS);
    sys.heal_mdp("m1").unwrap();
    assert!(sys.backbone_converged());
    for m in ["m1", "m2", "m3"] {
        assert_eq!(sys.mdp(m).unwrap().unacked_replications(), 0, "{m}");
    }
}

#[test]
fn lmr_fails_over_to_backup_and_resyncs_its_cache() {
    let mut sys = MdvSystem::new(schema());
    sys.add_mdp("m1").unwrap();
    sys.add_mdp("m2").unwrap();
    sys.add_lmr("l1", "m1").unwrap();
    sys.set_backup_mdp("l1", "m2").unwrap();
    sys.subscribe("l1", RULES[0]).unwrap();
    sys.register_document("m1", &provider(0, "a.hub.org", 128, 700))
        .unwrap();

    sys.fail_mdp("m1").unwrap();
    // the world changes while l1's home is down: doc0 shrinks below the
    // rule threshold at the surviving MDP, doc1 appears
    sys.update_document("m2", &provider(0, "a.hub.org", 8, 700))
        .unwrap();
    sys.register_document("m2", &provider(1, "b.hub.org", 256, 800))
        .unwrap();
    // control churn exhausts the retransmission budget → failover
    let extra = sys.subscribe("l1", RULES[1]).unwrap();
    assert_eq!(sys.lmr("l1").unwrap().mdp(), "m2", "l1 did not fail over");
    assert!(!sys.lmr("l1").unwrap().failing_over());

    // the Resubscribe snapshot dropped the stale doc0 anchors and pulled
    // doc1: the oracle holds against the new home
    assert_consistent(&sys, "l1", "m2", &RULES, "after failover");
    assert!(!sys.lmr("l1").unwrap().is_cached("doc0.rdf#host"));
    assert!(sys.lmr("l1").unwrap().is_cached("doc1.rdf#host"));
    sys.unsubscribe("l1", extra).unwrap();
    assert_consistent(
        &sys,
        "l1",
        "m2",
        &RULES[..1],
        "after post-failover unsubscribe",
    );
}

#[test]
fn healed_old_home_publications_are_deduplicated_and_retired() {
    let mut sys = MdvSystem::new(schema());
    sys.add_mdp("m1").unwrap();
    sys.add_mdp("m2").unwrap();
    sys.add_lmr("l1", "m1").unwrap();
    sys.set_backup_mdp("l1", "m2").unwrap();
    sys.subscribe("l1", RULES[0]).unwrap();
    sys.register_document("m1", &provider(0, "a.hub.org", 128, 700))
        .unwrap();
    sys.fail_mdp("m1").unwrap();
    let probe = sys.subscribe("l1", RULES[1]).unwrap();
    assert_eq!(sys.lmr("l1").unwrap().mdp(), "m2");
    sys.heal_mdp("m1").unwrap();

    // the healed old home repairs its document set and — still holding its
    // stale subscriptions for l1 — publishes to it; l1 acks, discards, and
    // retires the old subscription with a cleanup unsubscribe. New work
    // arrives exactly once, via the new home.
    sys.register_document("m1", &provider(1, "b.hub.org", 256, 800))
        .unwrap();
    sys.repair_backbone(8).unwrap();
    assert_consistent(&sys, "l1", "m2", &RULES, "after the heal");
    assert_eq!(sys.mdp("m1").unwrap().unacked_publications(), 0);
    assert_eq!(sys.mdp("m2").unwrap().unacked_publications(), 0);
    let _ = probe;
}

#[test]
fn delete_recreate_race_with_duplicated_replication_converges() {
    // duplicate-delivery idempotence across the backbone: a document is
    // deleted and immediately recreated at a different MDP while the
    // transport duplicates aggressively — version-gated application must
    // keep the recreate, not resurrect the tombstone
    let mut cfg = NetConfig::default();
    cfg.faults.seed = 0xdead_bee5;
    cfg.faults.default_link = LinkFaults {
        drop_prob: 0.0,
        dup_prob: 0.7,
        jitter_ms: 25,
        spike_prob: 0.0,
        spike_ms: 0,
    };
    let mut sys = MdvSystem::with_net_config(schema(), cfg);
    sys.add_mdp("m1").unwrap();
    sys.add_mdp("m2").unwrap();
    sys.add_lmr("l1", "m2").unwrap();
    sys.subscribe("l1", RULES[0]).unwrap();
    sys.register_document("m1", &provider(0, "a.hub.org", 128, 700))
        .unwrap();
    sys.delete_document("m1", "doc0.rdf").unwrap();
    // recreate the same URI at the *other* MDP with fresh content
    sys.register_document("m2", &provider(0, "b.hub.org", 100, 750))
        .unwrap();
    assert!(sys.backbone_converged(), "delete/recreate diverged");
    let doc = sys.mdp("m1").unwrap().engine().document("doc0.rdf");
    assert!(doc.is_some(), "tombstone resurrected over the recreate");
    assert_consistent(&sys, "l1", "m2", &RULES[..1], "after delete/recreate");
    let stats = sys.network_stats();
    assert!(stats.duplicates_delivered > 0, "no duplicates injected");
}

/// The RDF/XML of `uri` as `mdp` holds it, `None` when it holds no such
/// document.
fn held(sys: &MdvSystem, mdp: &str, uri: &str) -> Option<String> {
    let engine = sys.mdp(mdp).unwrap().engine();
    engine.document(uri).map(write_document)
}

/// A document the entry check rejects never joins a batch, so it reaches
/// no peer: it fails its own `register_document`, and the valid documents
/// queued around it are versioned, replicated and published once their
/// batch flushes.
#[test]
fn a_rejected_batch_reaches_no_peer() {
    let mut sys = MdvSystem::new(schema());
    sys.add_mdp("m1").unwrap();
    sys.add_mdp("m2").unwrap();
    sys.add_lmr("l1", "m1").unwrap();
    sys.add_lmr("l2", "m2").unwrap();
    for lmr in ["l1", "l2"] {
        sys.subscribe(lmr, RULES[0]).unwrap();
    }
    sys.set_batch_size("m1", Some(100)).unwrap();
    for i in 0..100 {
        sys.register_document("m1", &provider(i, "a.hub.org", 128, 700))
            .unwrap();
    }
    let original = held(&sys, "m2", "doc0.rdf");

    // doc0 is registered already: its own register fails, the batch it
    // would have ridden in flushes without it
    sys.register_document("m1", &provider(101, "b.hub.org", 150, 850))
        .unwrap();
    let rejected = sys
        .register_document("m1", &provider(0, "b.hub.org", 150, 850))
        .unwrap_err();
    assert!(
        rejected
            .to_string()
            .contains("'doc0.rdf' is already registered"),
        "{rejected}"
    );
    sys.register_document("m1", &provider(102, "b.hub.org", 150, 850))
        .unwrap();
    assert_eq!(sys.mdp("m1").unwrap().pending_documents(), 2);
    assert_eq!(
        held(&sys, "m2", "doc101.rdf"),
        None,
        "m2 holds a queued document"
    );
    sys.flush("m1").unwrap();
    assert_eq!(held(&sys, "m2", "doc0.rdf"), original);
    for doc in ["doc101", "doc102"] {
        assert!(
            held(&sys, "m2", &format!("{doc}.rdf")).is_some(),
            "{doc} at m2"
        );
        assert!(sys.lmr("l2").unwrap().is_cached(&format!("{doc}.rdf#host")));
    }
    assert!(sys.backbone_converged());

    // a later batch replicates too
    sys.register_document("m1", &provider(103, "c.hub.org", 99, 777))
        .unwrap();
    sys.flush("m1").unwrap();
    assert!(sys.backbone_converged());
    for (lmr, mdp) in [("l1", "m1"), ("l2", "m2")] {
        assert!(sys.lmr(lmr).unwrap().is_cached("doc103.rdf#host"));
        assert_consistent(&sys, lmr, mdp, &RULES[..1], "after the batches");
    }
}

/// A batch that would name one URI twice: the second register fails at
/// entry, the first copy flushes, and the document is versioned,
/// replicated and published like any other.
#[test]
fn a_batch_naming_one_uri_twice_flushes_the_first_copy() {
    let mut sys = MdvSystem::new(schema());
    sys.add_mdp("m1").unwrap();
    sys.add_mdp("m2").unwrap();
    sys.add_lmr("l2", "m2").unwrap();
    sys.subscribe("l2", RULES[0]).unwrap();
    sys.set_batch_size("m1", Some(100)).unwrap();
    let doc7 = provider(7, "a.hub.org", 128, 700);
    sys.register_document("m1", &doc7).unwrap();
    let err = sys.register_document("m1", &doc7).unwrap_err();
    assert!(
        err.to_string().contains("'doc7.rdf' is already registered"),
        "{err}"
    );
    sys.flush("m1").unwrap();
    for m in ["m1", "m2"] {
        assert!(held(&sys, m, "doc7.rdf").is_some(), "doc7 at {m}");
        let state = sys.mdp(m).unwrap().export_state();
        assert!(state.contains("\ndoc doc7.rdf\t1\t0\t"), "{m}: {state}");
    }
    assert!(sys.lmr("l2").unwrap().is_cached("doc7.rdf#host"));
    assert!(sys.backbone_converged());
}

/// A register of a known document, an update of an unknown one and a
/// delete of an unknown one fail with the same typed errors under LWW and
/// under Raft, and change no MDP.
#[test]
fn document_preconditions_fail_alike_in_both_modes() {
    let mut by_mode = Vec::new();
    for raft in [false, true] {
        let mut sys = MdvSystem::new(schema());
        if raft {
            sys.enable_raft(0xace).unwrap();
        }
        for m in ["m1", "m2", "m3"] {
            sys.add_mdp(m).unwrap();
        }
        sys.add_lmr("l1", "m1").unwrap();
        sys.subscribe("l1", RULES[0]).unwrap();
        let doc0 = provider(0, "a.hub.org", 128, 700);
        sys.register_document("m1", &doc0).unwrap();

        let other = |i| provider(i, "x.hub.org", 512, 900);
        let errors = [
            sys.register_document("m2", &other(0)).unwrap_err(),
            sys.update_document("m2", &other(9)).unwrap_err(),
            sys.delete_document("m2", "doc9.rdf").unwrap_err(),
        ];
        for e in &errors {
            assert!(
                matches!(
                    e,
                    mdv::system::Error::Filter(mdv::filter::Error::Document(_))
                ),
                "raft {raft}: {e:?}"
            );
        }
        for m in ["m1", "m2", "m3"] {
            let count = sys.mdp(m).unwrap().engine().document_count();
            assert_eq!(count, 1, "raft {raft}: {m}");
            let doc0 = Some(write_document(&doc0));
            assert_eq!(
                held(&sys, m, "doc0.rdf"),
                doc0,
                "raft {raft}: {m} overwrote doc0"
            );
        }
        assert_consistent(&sys, "l1", "m1", &RULES[..1], "after the rejections");
        by_mode.push(errors.map(|e| e.to_string()));
    }
    assert_eq!(by_mode[0], by_mode[1], "LWW and Raft disagree");
}

/// The fixed 3-MDP/2-LMR fail-heal schedule, shared between replication
/// modes. In LWW mode the LMRs fail over to their configured backups and
/// anti-entropy repairs the healed node; in Raft mode re-homing is
/// automatic (LMRs follow the leader) and the healed voter catches up from
/// the replicated log — the end state must satisfy the same oracles either
/// way, plus the stricter identical-committed-state check for Raft.
fn run_fail_heal_schedule(raft: bool) {
    let config = NetConfig {
        faults: mild_fault_plan(0x5eed_fa11),
        ..NetConfig::default()
    };
    let mut sys = MdvSystem::with_net_config(schema(), config);
    if raft {
        sys.enable_raft(0xace).unwrap();
    }
    let mdps = ["m1", "m2", "m3"];
    for m in mdps {
        sys.add_mdp(m).unwrap();
    }
    sys.add_lmr("l1", "m1").unwrap();
    sys.add_lmr("l2", "m2").unwrap();
    if !raft {
        sys.set_backup_mdp("l1", "m2").unwrap();
        sys.set_backup_mdp("l2", "m3").unwrap();
    }
    let r1 = sys.subscribe("l1", RULES[0]).unwrap();
    sys.subscribe("l2", RULES[1]).unwrap();

    let mut live: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let phase1 = [
        Op::Register(128, 700),
        Op::Register(32, 400),
        Op::Update(0, 96, 650),
        Op::Register(200, 800),
        Op::Delete(1),
    ];
    for (k, op) in phase1.into_iter().enumerate() {
        apply_op(&mut sys, mdps[k % 3], op.clone(), &mut live, &mut next);
    }

    // the failure: in Raft mode kill the *leader* (the hardest victim — a
    // new election and LMR re-homing must both happen); in LWW kill l1's
    // home so the failover handshake fires
    let victim = if raft {
        sys.raft_leader().expect("leader before the failure")
    } else {
        "m1".to_owned()
    };
    sys.fail_mdp(&victim).unwrap();
    let survivors: Vec<&str> = mdps.iter().copied().filter(|m| *m != victim).collect();
    let phase2 = [
        Op::Register(150, 850),
        Op::Update(0, 80, 600),
        Op::Delete(0),
    ];
    for (k, op) in phase2.into_iter().enumerate() {
        apply_op(&mut sys, survivors[k % 2], op.clone(), &mut live, &mut next);
    }
    // control churn while the old home is down: detects the silence in LWW
    // (budget exhaustion → backup), rides automatic re-homing in Raft
    sys.unsubscribe("l1", r1).unwrap();
    let _r1b = sys.subscribe("l1", RULES[0]).unwrap();
    if raft {
        let leader = sys.raft_leader().expect("a surviving majority leads");
        assert_ne!(leader, victim);
        assert_eq!(
            sys.lmr("l1").unwrap().mdp(),
            leader,
            "l1 follows the leader"
        );
    } else {
        assert_eq!(sys.lmr("l1").unwrap().mdp(), "m2", "l1 failed over");
    }
    assert!(!sys.lmr("l1").unwrap().failing_over());

    sys.heal_mdp(&victim).unwrap();
    let phase3 = [Op::Register(99, 777), Op::Update(1, 70, 620)];
    for (k, op) in phase3.into_iter().enumerate() {
        apply_op(&mut sys, mdps[k % 3], op.clone(), &mut live, &mut next);
    }
    sys.repair_backbone(64).unwrap();

    if raft {
        common::assert_committed_identical(&sys, "at the end of the shared schedule");
        assert_eq!(
            sys.network_stats().anti_entropy_rounds,
            0,
            "Raft mode must never run LWW anti-entropy"
        );
    }
    assert!(sys.backbone_converged(), "backbone divergent at the end");
    let l1_home = sys.lmr("l1").unwrap().mdp().to_owned();
    let l2_home = sys.lmr("l2").unwrap().mdp().to_owned();
    assert_consistent(
        &sys,
        "l1",
        &l1_home,
        &RULES[..1],
        "shared schedule end (l1)",
    );
    assert_consistent(
        &sys,
        "l2",
        &l2_home,
        &RULES[1..],
        "shared schedule end (l2)",
    );
    for m in mdps {
        assert_eq!(sys.mdp(m).unwrap().unacked_publications(), 0, "{m}");
        assert_eq!(sys.mdp(m).unwrap().unacked_replications(), 0, "{m}");
    }
}

#[test]
fn shared_fail_heal_schedule_converges_in_lww_mode() {
    run_fail_heal_schedule(false);
}

#[test]
fn shared_fail_heal_schedule_converges_in_raft_mode() {
    run_fail_heal_schedule(true);
}

#[test]
fn stranded_lmr_without_backup_parks_and_resumes_on_heal() {
    // no backup configured: the LMR must not fail over, must not spin the
    // clock forever, and must complete its handshakes once the home heals
    let mut sys = MdvSystem::new(schema());
    sys.add_mdp("m1").unwrap();
    sys.add_lmr("l1", "m1").unwrap();
    sys.subscribe("l1", RULES[0]).unwrap();
    sys.fail_mdp("m1").unwrap();
    let err = sys.subscribe("l1", RULES[1]).unwrap_err();
    assert!(
        err.to_string().contains("pending"),
        "subscribe against a dead home must park as pending: {err}"
    );
    assert_eq!(sys.lmr("l1").unwrap().mdp(), "m1", "no backup: no failover");
    sys.heal_mdp("m1").unwrap();
    // the parked Subscribe resumes and completes
    sys.register_document("m1", &provider(0, "a.hub.org", 128, 700))
        .unwrap();
    assert_consistent(&sys, "l1", "m1", &RULES, "after the heal");
}
