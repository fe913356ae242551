//! Property tests for the Raft-replicated backbone mode (DESIGN.md §9):
//! the four safety properties from the Raft paper — Election Safety, Log
//! Matching, Leader Completeness, State Machine Safety — must hold under
//! randomized seeded fault schedules mixing message loss, duplication,
//! jitter, timed partitions, node fail/heal cycles, and (on the durable
//! backend) full crash-restarts of voters.
//!
//! The checks are observational, over [`RaftProbe`] snapshots of every
//! voter — including down ones, whose frozen state still participates in
//! the safety invariants (a crashed voter that led term 3 still forbids
//! anyone else from claiming term 3).

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use mdv::prelude::*;
use mdv::relstore::{DurableEngine, StorageEngine};
use mdv::system::transport::{FaultPlan, LinkFaults};
use mdv::system::RaftProbe;
use mdv_testkit::{prop_assert, property, Source};

use common::{assert_committed_identical, provider, schema};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch() -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "mdv-raft-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Probes every voter, up or down.
fn probes<S: mdv::relstore::StorageEngine + Send + Sync>(
    sys: &MdvSystem<S>,
) -> Vec<(String, RaftProbe)> {
    sys.mdp_names()
        .into_iter()
        .map(|n| {
            let p = sys.raft_probe(n).unwrap().expect("raft voter");
            (n.to_owned(), p)
        })
        .collect()
}

/// Entries a probe retains, as `index -> (term, wire)`.
fn log_map(p: &RaftProbe) -> BTreeMap<u64, (u64, &str)> {
    p.log
        .iter()
        .map(|(idx, term, wire)| (*idx, (*term, wire.as_str())))
        .collect()
}

/// All four Raft safety properties over the current probe snapshots.
fn assert_raft_safety(all: &[(String, RaftProbe)], ctx: &str) {
    for (name, p) in all {
        // a voter's committed prefix is always materialized: either folded
        // into its snapshot (<= offset) or retained in its log
        let last = p.log.last().map_or(p.offset, |(idx, _, _)| *idx);
        assert!(
            p.commit <= last || p.commit <= p.offset,
            "{name} claims commit {} beyond its log (last {last}, offset {}) {ctx}",
            p.commit,
            p.offset
        );
    }
    for (i, (a_name, a)) in all.iter().enumerate() {
        for (b_name, b) in &all[i + 1..] {
            let pair = format!("{a_name}/{b_name} {ctx}");

            // Election Safety: at most one leader per term, ever — the
            // persisted led-term sets are pairwise disjoint
            let a_led: BTreeSet<u64> = a.led_terms.iter().copied().collect();
            let b_led: BTreeSet<u64> = b.led_terms.iter().copied().collect();
            let both: Vec<u64> = a_led.intersection(&b_led).copied().collect();
            assert!(
                both.is_empty(),
                "election safety violated: {pair} both led terms {both:?}"
            );

            // Log Matching: if two logs hold an entry with the same index
            // and term, the logs are identical up to that index
            let a_log = log_map(a);
            let b_log = log_map(b);
            let anchor = a_log
                .iter()
                .rev()
                .find(|(idx, (term, _))| b_log.get(idx).is_some_and(|(bt, _)| bt == term))
                .map(|(idx, _)| *idx);
            if let Some(anchor) = anchor {
                for (idx, a_entry) in a_log.range(..=anchor) {
                    if let Some(b_entry) = b_log.get(idx) {
                        assert_eq!(
                            a_entry, b_entry,
                            "log matching violated at index {idx} (anchor {anchor}): {pair}"
                        );
                    }
                }
            }

            // Leader Completeness (observational): an entry committed by a
            // voter of term <= T is present — and identical where retained —
            // in the log of any current leader of term T
            for (leader, voter, tag) in [(a, b, &pair), (b, a, &pair)] {
                if leader.role != mdv::system::RaftRole::Leader || voter.term > leader.term {
                    continue;
                }
                let l_log = log_map(leader);
                let v_log = log_map(voter);
                for idx in 1..=voter.commit {
                    assert!(
                        idx <= leader.offset || l_log.contains_key(&idx),
                        "leader completeness violated: committed index {idx} \
                         missing from the leader's log: {tag}"
                    );
                    if let (Some(le), Some(ve)) = (l_log.get(&idx), v_log.get(&idx)) {
                        assert_eq!(
                            le, ve,
                            "leader completeness violated: committed index {idx} differs: {tag}"
                        );
                    }
                }
            }

            // State Machine Safety: two voters never apply different
            // commands at the same index — their apply hash chains agree on
            // every index both recorded since (re)start
            let b_chain: BTreeMap<u64, u64> = b.applied_chain.iter().copied().collect();
            for (idx, a_hash) in &a.applied_chain {
                if let Some(b_hash) = b_chain.get(idx) {
                    assert_eq!(
                        a_hash, b_hash,
                        "state machine safety violated at applied index {idx}: {pair}"
                    );
                }
            }
        }
    }
}

const RULE: &str = "search CycleProvider c register c where c.serverInformation.memory > 64";

fn arb_fault_plan(src: &mut Source, voters: &[&str]) -> FaultPlan {
    let mut plan = FaultPlan {
        seed: src.bits(),
        default_link: LinkFaults {
            drop_prob: src.f64_in(0.0..0.30),
            dup_prob: src.f64_in(0.0..0.25),
            jitter_ms: src.u64_in(0..40),
            spike_prob: src.f64_in(0.0..0.10),
            spike_ms: src.u64_in(0..150),
        },
        ..FaultPlan::default()
    };
    // up to two timed voter↔voter partitions; finite windows, so the final
    // heal-and-settle phase can always reconverge
    for _ in 0..src.u64_in(0..3) {
        let a = *src.choose(voters);
        let b = *src.choose(voters);
        if a != b {
            let from = src.u64_in(0..4_000);
            let until = from + src.u64_in(200..4_000);
            plan.partition_both(a, b, from, until);
        }
    }
    plan
}

/// Heals everything, drives the clock past every partition window, and
/// settles: after this the cluster must converge to identical committed
/// state.
fn heal_and_settle<S: mdv::relstore::StorageEngine + Send + Sync>(sys: &mut MdvSystem<S>) {
    for m in sys
        .mdp_names()
        .into_iter()
        .map(str::to_owned)
        .collect::<Vec<_>>()
    {
        if sys.is_down(&m) {
            let _ = sys.heal_mdp(&m);
        }
    }
    sys.network().advance_clock(10_000); // beyond every partition window
    sys.run_to_quiescence().unwrap();
}

property! {
    /// Randomized workloads on a 3- or 5-voter in-memory cluster under a
    /// seeded fault schedule with loss, duplication, timed partitions, and
    /// voter fail/heal cycles: the four safety properties hold at every
    /// step, and after a final heal the cluster converges to identical
    /// committed state.
    fn raft_safety_under_seeded_fault_schedules(src) cases = 50; {
        let voters: Vec<&str> = if src.bool() {
            vec!["m1", "m2", "m3"]
        } else {
            vec!["m1", "m2", "m3", "m4", "m5"]
        };
        let config = NetConfig {
            faults: arb_fault_plan(src, &voters),
            ..NetConfig::default()
        };
        let mut sys = MdvSystem::with_net_config(schema(), config);
        sys.enable_raft(src.bits()).unwrap();
        // a tiny threshold truncates the log every few entries, so lagging,
        // partitioned and healed voters meet snapshot installs
        if src.bool() {
            sys.set_raft_compact_threshold(src.u64_in(1..4));
        }
        for m in &voters {
            sys.add_mdp(m).unwrap();
        }
        sys.add_lmr("l1", "m1").unwrap();
        let _ = sys.subscribe("l1", RULE);

        let mut down = 0usize;
        for _ in 0..src.u64_in(4..16) {
            let entry = (*src.choose(&voters)).to_owned();
            match src.weighted(&[5, 2, 2, 2]) {
                0 => {
                    let i = src.u64_in(0..6) as usize;
                    let doc = provider(i, "n.hub.org", src.i64_in(0..200), 500);
                    // Unavailable (no quorum / partitioned entry) is a legal
                    // outcome; safety is what must never break
                    let _ = sys.register_document(&entry, &doc);
                }
                1 => {
                    let i = src.u64_in(0..6);
                    let _ = sys.delete_document(&entry, &format!("doc{i}.rdf"));
                }
                2 => {
                    // keep a quorum alive more often than not
                    if sys.is_down(&entry) {
                        let _ = sys.heal_mdp(&entry);
                        down -= 1;
                    } else if down + 1 < voters.len() {
                        let _ = sys.fail_mdp(&entry);
                        down += 1;
                    }
                }
                _ => {
                    let _ = sys.run_to_quiescence();
                }
            }
            assert_raft_safety(&probes(&sys), "mid-schedule");
        }

        heal_and_settle(&mut sys);
        let all = probes(&sys);
        assert_raft_safety(&all, "after the final heal");
        assert_committed_identical(&sys, "after the final heal");
        let stats = sys.network_stats();
        prop_assert!(stats.clock_ms < 500_000, "logical time ran away: {:?}", stats);
    }

    /// The same safety properties on the durable backend, with full voter
    /// crash-restarts interleaved into the schedule: a restarted voter
    /// recovers its term, vote, led-term set, and log from the WAL-mirrored
    /// tables — so it can never double-vote or forget a committed prefix.
    fn raft_safety_survives_crash_restarts(src) cases = 12; {
        let root = scratch();
        let voters = ["m1", "m2", "m3"];
        let config = NetConfig {
            faults: arb_fault_plan(src, &voters),
            ..NetConfig::default()
        };
        let mut sys: MdvSystem<DurableEngine> =
            MdvSystem::durable_with_net_config(schema(), config);
        sys.enable_raft(src.bits()).unwrap();
        if src.bool() {
            sys.set_raft_compact_threshold(src.u64_in(1..4));
        }
        for m in voters {
            sys.add_mdp_durable(m, root.join(m)).unwrap();
        }

        for _ in 0..src.u64_in(3..10) {
            let entry = (*src.choose(&voters)).to_owned();
            match src.weighted(&[4, 2, 3, 1]) {
                0 => {
                    let i = src.u64_in(0..5) as usize;
                    let doc = provider(i, "n.hub.org", src.i64_in(0..200), 500);
                    let _ = sys.register_document(&entry, &doc);
                }
                1 => {
                    if sys.is_down(&entry) {
                        let _ = sys.heal_mdp(&entry);
                    } else if sys.mdp_names().iter().filter(|m| sys.is_down(m)).count() == 0 {
                        let _ = sys.fail_mdp(&entry);
                    }
                }
                2 => {
                    // the crash: volatile state gone, durable state replayed
                    if !sys.is_down(&entry) {
                        let before = sys.raft_probe(&entry).unwrap().unwrap();
                        sys.crash_and_restart_mdp(&entry).unwrap();
                        let after = sys.raft_probe(&entry).unwrap().unwrap();
                        assert_eq!(after.term, before.term, "term lost in crash");
                        assert_eq!(after.voted_for, before.voted_for, "vote lost in crash");
                        assert_eq!(after.led_terms, before.led_terms, "led terms lost");
                        assert_eq!(after.log, before.log, "log rewritten by crash");
                        assert_eq!(after.applied, before.applied, "applied prefix lost");
                        assert_eq!(after.cum_hash, before.cum_hash, "apply chain diverged");
                    }
                }
                _ => {
                    let _ = sys.run_to_quiescence();
                }
            }
            assert_raft_safety(&probes(&sys), "mid-schedule (durable)");
        }

        heal_and_settle(&mut sys);
        let all = probes(&sys);
        assert_raft_safety(&all, "after the final heal (durable)");
        assert_committed_identical(&sys, "after the final heal (durable)");
        let stats = sys.network_stats();
        prop_assert!(stats.clock_ms < 500_000, "logical time ran away: {:?}", stats);
        drop(sys);
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Deterministic pin of the acceptance scenario: a committed write survives
/// the loss of *any* minority — here each single voter in turn, including
/// the leader — with the LMR automatically re-homed to every new leader.
#[test]
fn committed_write_survives_any_single_voter_failure() {
    let root = scratch();
    let mut sys: MdvSystem<DurableEngine> = MdvSystem::new_durable(schema());
    sys.enable_raft(42).unwrap();
    for m in ["m1", "m2", "m3"] {
        sys.add_mdp_durable(m, root.join(m)).unwrap();
    }
    sys.add_lmr_durable("l1", "m1", root.join("l1")).unwrap();
    sys.subscribe("l1", RULE).unwrap();
    sys.register_document("m1", &provider(0, "a.hub.org", 128, 700))
        .unwrap();

    for victim in ["m1", "m2", "m3"] {
        sys.fail_mdp(victim).unwrap();
        sys.run_to_quiescence().unwrap();
        let leader = sys.raft_leader().expect("surviving majority elects");
        assert_ne!(leader, victim);
        // the committed registration is still served by every live voter
        for m in ["m1", "m2", "m3"] {
            if m != victim {
                assert!(
                    sys.mdp(m).unwrap().engine().document("doc0.rdf").is_some(),
                    "doc0 lost on {m} after {victim} failed"
                );
            }
        }
        // and the LMR follows the leader, its cache intact
        assert_eq!(sys.lmr("l1").unwrap().mdp(), leader);
        assert!(sys.lmr("l1").unwrap().is_cached("doc0.rdf#host"));
        sys.heal_mdp(victim).unwrap();
        assert_committed_identical(&sys, &format!("after healing {victim}"));
    }
    assert_raft_safety(&probes(&sys), "after the minority sweep");
    drop(sys);
    let _ = std::fs::remove_dir_all(&root);
}

/// Deterministic pin of the crash-during-election-window scenario: the
/// leader dies, and before the survivors elect a replacement one of them
/// crash-restarts. Its persisted term and vote come back, the election
/// completes with the restarted voter participating, and no term is ever
/// led twice.
#[test]
fn voter_crash_restart_in_the_election_window_preserves_votes() {
    let root = scratch();
    let mut sys: MdvSystem<DurableEngine> = MdvSystem::new_durable(schema());
    sys.enable_raft(7).unwrap();
    for m in ["m1", "m2", "m3"] {
        sys.add_mdp_durable(m, root.join(m)).unwrap();
    }
    sys.register_document("m1", &provider(0, "a.hub.org", 128, 700))
        .unwrap();
    let leader = sys.raft_leader().expect("initial leader");
    let survivors: Vec<&str> = ["m1", "m2", "m3"]
        .into_iter()
        .filter(|m| *m != leader)
        .collect();

    // kill the leader; do NOT settle — the election is now pending
    sys.fail_mdp(&leader).unwrap();
    let before = sys.raft_probe(survivors[0]).unwrap().unwrap();
    sys.crash_and_restart_mdp(survivors[0]).unwrap();
    let after = sys.raft_probe(survivors[0]).unwrap().unwrap();
    assert_eq!(after.term, before.term, "term lost across the crash");
    assert_eq!(
        after.voted_for, before.voted_for,
        "vote lost across the crash"
    );
    assert_eq!(after.log, before.log, "log rewritten across the crash");

    // the next write settles the election and must commit on the majority
    sys.register_document(survivors[1], &provider(1, "b.hub.org", 96, 650))
        .unwrap();
    let new_leader = sys.raft_leader().expect("new leader");
    assert_ne!(new_leader, leader);
    for m in &survivors {
        assert!(sys.mdp(m).unwrap().engine().document("doc0.rdf").is_some());
        assert!(sys.mdp(m).unwrap().engine().document("doc1.rdf").is_some());
    }

    sys.heal_mdp(&leader).unwrap();
    assert_committed_identical(&sys, "after the old leader heals");
    assert_raft_safety(&probes(&sys), "after the old leader heals");
    drop(sys);
    let _ = std::fs::remove_dir_all(&root);
}

/// `install-snapshot` messages the transport carried so far.
fn installs<S: StorageEngine + Send + Sync>(sys: &MdvSystem<S>) -> u64 {
    let kinds = sys.network().traffic_by_kind();
    kinds.get("install-snapshot").copied().unwrap_or(0)
}

/// Compaction only truncates the log: a fault-free cluster compacts on
/// every voter, and no voter ever serializes its state machine, because no
/// peer falls behind the compacted tail.
#[test]
fn fault_free_compaction_builds_no_snapshot() {
    let mut sys = MdvSystem::new(schema());
    sys.enable_raft(3).unwrap();
    for m in ["m1", "m2", "m3"] {
        sys.add_mdp(m).unwrap();
    }
    sys.add_lmr("l1", "m1").unwrap();
    sys.subscribe("l1", RULE).unwrap();
    for i in 0..200 {
        sys.register_document("m1", &provider(i, "a.hub.org", 128, 700))
            .unwrap();
    }
    for (name, p) in probes(&sys) {
        assert!(p.offset > 0, "{name} never compacted");
        assert_eq!(p.snap_index, 0, "{name} built a snapshot nobody needed");
    }
    assert_eq!(installs(&sys), 0);
    assert_committed_identical(&sys, "after 200 fault-free registrations");
}

/// Two followers down while the leader compacts past their logs: on heal
/// both install the leader's one cached snapshot, built on demand, and
/// then catch up from the entries after it.
#[test]
fn lagging_followers_catch_up_from_one_on_demand_snapshot() {
    let voters = ["m1", "m2", "m3", "m4", "m5"];
    let mut sys = MdvSystem::new(schema());
    sys.enable_raft(5).unwrap();
    for m in voters {
        sys.add_mdp(m).unwrap();
    }
    sys.add_lmr("l1", "m1").unwrap();
    sys.subscribe("l1", RULE).unwrap();
    let leader = sys.raft_leader().expect("leader elected");
    let laggards: Vec<&str> = voters
        .into_iter()
        .filter(|m| *m != leader)
        .take(2)
        .collect();
    for m in &laggards {
        sys.fail_mdp(m).unwrap();
    }
    for i in 0..100 {
        sys.register_document(&leader, &provider(i, "a.hub.org", 128, 700))
            .unwrap();
    }
    let before = installs(&sys);
    for m in &laggards {
        sys.heal_mdp(m).unwrap();
    }
    sys.run_to_quiescence().unwrap();
    assert!(
        installs(&sys) - before >= 2,
        "both laggards need a snapshot"
    );

    let lead = sys.raft_probe(&leader).unwrap().unwrap();
    assert!(lead.snap_index >= lead.offset && lead.snap_index > 0);
    for m in &laggards {
        let p = sys.raft_probe(m).unwrap().unwrap();
        assert_eq!(p.applied, lead.applied, "{m} did not catch up");
        assert_eq!(p.cum_hash, lead.cum_hash, "{m} applied different commands");
        // the apply chain jumps from the last entry applied before the
        // failure straight to the leader's snapshot index: the one build
        // served both laggards
        assert!(
            p.applied_chain
                .windows(2)
                .any(|w| w[1].0 == lead.snap_index && w[0].0 + 1 < w[1].0),
            "{m} did not install the leader's snapshot at {}: {:?}",
            lead.snap_index,
            p.applied_chain
        );
    }
    assert_committed_identical(&sys, "after both laggards healed");
    assert_raft_safety(&probes(&sys), "after both laggards healed");
    assert!(sys.lmr("l1").unwrap().is_cached("doc99.rdf#host"));
}

/// A crash-restarted voter has no snapshot on disk: its state machine is
/// rebuilt at exactly `applied`, so whichever voter leads after the restart
/// builds the snapshot a laggard needs from its live state.
#[test]
fn a_restarted_voter_serves_a_snapshot_without_a_snapshot_table() {
    let root = scratch();
    let voters = ["m1", "m2", "m3"];
    let mut sys: MdvSystem<DurableEngine> = MdvSystem::new_durable(schema());
    sys.enable_raft(9).unwrap();
    for m in voters {
        sys.add_mdp_durable(m, root.join(m)).unwrap();
    }
    sys.add_lmr_durable("l1", "m1", root.join("l1")).unwrap();
    sys.subscribe("l1", RULE).unwrap();
    let leader = sys.raft_leader().expect("leader elected");
    let laggard = voters.into_iter().find(|m| *m != leader).unwrap();
    sys.fail_mdp(laggard).unwrap();
    for i in 0..100 {
        sys.register_document(&leader, &provider(i, "a.hub.org", 128, 700))
            .unwrap();
    }
    sys.crash_and_restart_mdp(&leader).unwrap();
    let before = installs(&sys);
    sys.heal_mdp(laggard).unwrap();
    sys.run_to_quiescence().unwrap();
    assert!(installs(&sys) > before, "the laggard needs a snapshot");

    assert_committed_identical(&sys, "after the laggard healed");
    assert_raft_safety(&probes(&sys), "after the laggard healed");
    assert!(sys.lmr("l1").unwrap().is_cached("doc99.rdf#host"));
    for m in voters {
        let mdp = sys.mdp(m).unwrap();
        let db = mdp.engine().storage().database();
        let records: BTreeMap<&str, &str> = db
            .table("SysState")
            .unwrap()
            .iter()
            .map(|(_, row)| (row[0].as_str().unwrap(), row[1].as_str().unwrap()))
            .collect();
        assert!(records.contains_key("raft"), "{m} is no raft voter");
        let mut log: Vec<(u64, u64)> = records
            .iter()
            .filter_map(|(key, fields)| {
                let index = key.strip_prefix("raftlog ")?.parse().ok()?;
                Some((index, fields.split('\t').next()?.parse().ok()?))
            })
            .collect();
        log.sort_unstable();
        let probe = mdp.raft_probe().unwrap();
        let want: Vec<(u64, u64)> = probe.log.iter().map(|(i, t, _)| (*i, *t)).collect();
        assert_eq!(log, want, "{m}'s raftlog records");
        assert!(db.table("SysRaftSnap").is_err(), "{m} stores a snapshot");
    }
    drop(sys);
    let _ = std::fs::remove_dir_all(&root);
}
