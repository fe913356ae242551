//! Placement-mode system tests (DESIGN.md §11): the shard space is
//! rendezvous-hashed onto the MDPs with a configurable replication factor,
//! replacing full backbone replication with partitioned-with-replicas.
//!
//! The tentpole properties drive placed deployments at R ∈ {1, 2, 3}
//! through randomized register/update/delete workloads interleaved with
//! fail/heal cycles (each a rebalance: epoch bump, shard handoff via
//! anti-entropy repair, post-heal pruning) and demand that every LMR cache
//! match the *shadow oracle* — a fault-free single-MDP deployment that
//! replayed the same successful operations — byte for byte. Fixed-seed
//! tests pin the mechanisms in isolation: typed configuration errors,
//! primary routing, R = all sending the bytes full replication sends,
//! exact R-copies-per-document storage, shard handoff while a
//! publication link is partitioned, crash-recovered shard ownership, and
//! the typed rejection of placement in Raft mode.

mod common;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

use common::{assert_consistent, assert_consistent_with_shadow, mild_fault_plan, provider, schema};
use mdv::prelude::*;
use mdv::relstore::{write_database, StorageEngine};
use mdv::system::transport::FaultTag;
use mdv::system::{Error, MdvSystem as Mdv, PlacementConfig, RuleStatus};
use mdv_testkit::{prop_assert, prop_assert_eq, property, Source};

const RULES: [&str; 2] = [
    "search CycleProvider c register c where c.serverInformation.memory > 64",
    "search ServerInformation s register s where s.cpu >= 600",
];

#[derive(Debug, Clone)]
enum Op {
    Register(i64, i64),
    Update(usize, i64, i64),
    Delete(usize),
}

fn arb_ops(src: &mut Source) -> Vec<Op> {
    src.vec(1..8, |src| match src.weighted(&[4, 3, 2]) {
        0 => Op::Register(src.i64_in(0..150), src.i64_in(300..900)),
        1 => Op::Update(src.any_usize(), src.i64_in(0..150), src.i64_in(300..900)),
        _ => Op::Delete(src.any_usize()),
    })
}

/// Applies one op to the placed system (entering at `entry`, which routes
/// to the shard primary) *and* to the fault-free shadow, keeping both on
/// the same logical history.
fn apply_both<S: StorageEngine + Send + Sync>(
    sys: &mut Mdv<S>,
    shadow: &mut Mdv,
    entry: &str,
    op: Op,
    live: &mut Vec<usize>,
    next: &mut usize,
) {
    match op {
        Op::Register(memory, cpu) => {
            let i = *next;
            *next += 1;
            let doc = provider(i, "a.hub.org", memory, cpu);
            sys.register_document(entry, &doc).unwrap();
            shadow.register_document("m0", &doc).unwrap();
            live.push(i);
        }
        Op::Update(pick, memory, cpu) => {
            if live.is_empty() {
                return;
            }
            let i = live[pick % live.len()];
            let doc = provider(i, "b.hub.org", memory, cpu);
            sys.update_document(entry, &doc).unwrap();
            shadow.update_document("m0", &doc).unwrap();
        }
        Op::Delete(pick) => {
            if live.is_empty() {
                return;
            }
            let i = live.remove(pick % live.len());
            let uri = format!("doc{i}.rdf");
            sys.delete_document(entry, &uri).unwrap();
            shadow.delete_document("m0", &uri).unwrap();
        }
    }
}

/// The fault-free single-MDP deployment the shadow oracle evaluates
/// against.
fn shadow_system() -> Mdv {
    let mut shadow = Mdv::new(schema());
    shadow.add_mdp("m0").unwrap();
    shadow
}

/// Every live document must exist on exactly `factor` MDPs once the
/// topology is quiet and pruned: registrations fan out to the replica set
/// only, and rebalances erase copies outside it.
fn assert_exact_copies<S: StorageEngine + Send + Sync>(
    sys: &Mdv<S>,
    factor: usize,
    corpus: usize,
    when: &str,
) {
    let total: usize = sys
        .mdp_names()
        .iter()
        .map(|m| sys.mdp(m).unwrap().engine().document_count())
        .sum();
    assert_eq!(
        total,
        factor * corpus,
        "expected exactly {factor} copies of each of {corpus} documents {when}"
    );
}

// ---------------------------------------------------------------------------
// configuration surface: typed errors for every rejected combination
// ---------------------------------------------------------------------------

#[test]
fn placement_configuration_errors_are_typed() {
    let numbered = |factor| PlacementConfig {
        factor,
        shards: 128,
    };
    let mut sys = Mdv::new(schema());
    // the shard space is free until the first MDP joins, fixed after
    sys.configure_placement(numbered(PlacementConfig::ALL))
        .unwrap();
    sys.add_mdp("m1").unwrap();
    sys.add_mdp("m2").unwrap();
    assert_eq!(sys.placement_table().unwrap().shard_count(), 128);
    for config in [PlacementConfig::default(), numbered(0)] {
        assert!(matches!(
            sys.configure_placement(config).unwrap_err(),
            Error::Config(_)
        ));
    }

    // batch filtering and a numbered factor exclude each other, in both
    // orders
    sys.set_batch_size("m1", Some(4)).unwrap();
    assert!(matches!(
        sys.configure_placement(numbered(2)).unwrap_err(),
        Error::Config(_)
    ));
    sys.set_batch_size("m1", None).unwrap();

    // backup failover and a numbered factor exclude each other, in both
    // orders
    sys.add_lmr("l1", "m1").unwrap();
    sys.set_backup_mdp("l1", "m2").unwrap();
    assert!(matches!(
        sys.configure_placement(numbered(2)).unwrap_err(),
        Error::Config(_)
    ));

    let mut sys = Mdv::new(schema());
    sys.add_mdp("m1").unwrap();
    sys.add_mdp("m2").unwrap();
    sys.add_lmr("l1", "m1").unwrap();
    sys.configure_placement(PlacementConfig::new(2)).unwrap();
    assert!(matches!(
        sys.set_backup_mdp("l1", "m2").unwrap_err(),
        Error::Config(_)
    ));
    assert!(matches!(
        sys.set_batch_size("m1", Some(4)).unwrap_err(),
        Error::Config(_)
    ));
    // the factor may change, back to R = all too
    sys.configure_placement(PlacementConfig::new(1)).unwrap();
    sys.configure_placement(PlacementConfig::default()).unwrap();
    sys.set_backup_mdp("l1", "m2").unwrap();
    sys.set_batch_size("m1", Some(4)).unwrap();
}

// ---------------------------------------------------------------------------
// routing
// ---------------------------------------------------------------------------

#[test]
fn mdp_for_uri_names_the_placement_primary() {
    let mut sys = Mdv::new(schema());
    for m in ["m1", "m2", "m3"] {
        sys.add_mdp(m).unwrap();
    }
    // R = all: the primary of the full table, one of the MDPs
    let before = sys.mdp_for_uri("doc0.rdf#host").unwrap().to_owned();
    assert_eq!(sys.mdp_for_uri("doc0.rdf").unwrap(), before);
    assert!(sys.mdp_names().contains(&before.as_str()));

    sys.configure_placement(PlacementConfig::new(1)).unwrap();
    let table = sys.placement_table().unwrap().clone();
    for i in 0..20 {
        let uri = format!("doc{i}.rdf");
        assert_eq!(sys.mdp_for_uri(&uri).unwrap(), table.primary_for(&uri));
    }
    // with R=1 the primary is the *only* copy-holder: registering through
    // any entry MDP must land the document exactly there
    sys.register_document("m1", &provider(7, "a.hub.org", 128, 700))
        .unwrap();
    let home = sys.mdp_for_uri("doc7.rdf").unwrap().to_owned();
    for m in sys.mdp_names() {
        let held = sys.mdp(m).unwrap().engine().document("doc7.rdf").is_some();
        assert_eq!(held, m == home, "{m}");
    }
}

// ---------------------------------------------------------------------------
// R = all is the full-replication protocol
// ---------------------------------------------------------------------------

/// Three MDPs under `config` (`None`: the default), one LMR with both
/// rules, and a script with a fail/heal cycle.
fn equivalence_run(config: Option<PlacementConfig>) -> Mdv {
    let mut sys = Mdv::new(schema());
    for m in ["m1", "m2", "m3"] {
        sys.add_mdp(m).unwrap();
    }
    if let Some(config) = config {
        sys.configure_placement(config).unwrap();
    }
    sys.add_lmr("l1", "m1").unwrap();
    sys.subscribe("l1", RULES[0]).unwrap();
    sys.subscribe("l1", RULES[1]).unwrap();
    for i in 0..8 {
        sys.register_document("m1", &provider(i, "a.hub.org", 60 + 10 * i as i64, 700))
            .unwrap();
    }
    sys.fail_mdp("m2").unwrap();
    sys.update_document("m3", &provider(0, "b.hub.org", 10, 400))
        .unwrap();
    sys.delete_document("m1", "doc3.rdf").unwrap();
    sys.heal_mdp("m2").unwrap();
    sys.register_document("m3", &provider(8, "c.hub.org", 256, 800))
        .unwrap();
    sys.repair_backbone(64).unwrap();
    sys
}

/// Every table of every node, serialized.
fn node_stores(sys: &Mdv) -> Vec<String> {
    let mdps = sys
        .mdp_names()
        .into_iter()
        .map(|m| write_database(sys.mdp(m).unwrap().engine().db()));
    let lmrs = sys
        .lmr_names()
        .into_iter()
        .map(|l| write_database(sys.lmr(l).unwrap().storage().database()));
    mdps.chain(lmrs).collect()
}

#[test]
fn full_factor_placement_matches_legacy_full_replication() {
    // a factor at least the MDP count is R = all: the run sends the same
    // messages, in the same order and with the same sizes, and leaves every
    // node's store byte-identical to the default's, fail and heal included
    let legacy = equivalence_run(None);
    let placed = equivalence_run(Some(PlacementConfig::new(3)));
    assert_eq!(legacy.network().log(), placed.network().log());
    assert_eq!(node_stores(&legacy), node_stores(&placed));
    assert_consistent(&placed, "l1", "m1", &RULES, "full-factor placement");
    assert_eq!(legacy.placement_config().factor, PlacementConfig::ALL);
    assert_eq!(placed.placement_config().factor, 3);
}

// ---------------------------------------------------------------------------
// storage partitioning
// ---------------------------------------------------------------------------

#[test]
fn each_document_lives_on_exactly_r_nodes() {
    let mut sys = Mdv::new(schema());
    for m in ["m1", "m2", "m3", "m4"] {
        sys.add_mdp(m).unwrap();
    }
    sys.configure_placement(PlacementConfig::new(2)).unwrap();
    let entries = ["m1", "m2", "m3", "m4"];
    for i in 0..40 {
        sys.register_document(entries[i % 4], &provider(i, "a.hub.org", 100, 700))
            .unwrap();
    }
    assert_exact_copies(&sys, 2, 40, "after the register sweep");
    // the table's analytic share matches the realized one: R/N = 1/2
    let share = sys.placement_table().unwrap().storage_share();
    assert!((share - 0.5).abs() < 0.15, "storage share {share}");
    // no node is a full replica and no node is empty at 40 docs / 64 shards
    for m in sys.mdp_names() {
        let n = sys.mdp(m).unwrap().engine().document_count();
        assert!(n > 0 && n < 40, "{m} holds {n} of 40 documents");
    }
    assert!(sys.backbone_converged());
}

// ---------------------------------------------------------------------------
// shard handoff while a publication link is partitioned
// ---------------------------------------------------------------------------

#[test]
fn handoff_during_partitioned_publication_link_reconverges() {
    // l1's home is m1, which publishes the documents it owns; the primary
    // of every other document publishes it to l1 over a per-sender
    // alternate stream. Black-hole the l1<->m2 link, drive documents of
    // which m2 publishes some, and
    // fail/heal m3 inside the window so a rebalance (epoch bump + shard
    // handoff + prune) happens *while* publications to l1 are parked. The
    // at-least-once alt streams must deliver in order once the partition
    // lifts, and the cache must match the shadow oracle exactly.
    let mut config = NetConfig::default();
    config.faults.seed = 0x91ace;
    config.faults.partition_both("l1", "m2", 0, 5000);
    let mut sys = Mdv::with_net_config(schema(), config);
    let mut shadow = shadow_system();
    for m in ["m1", "m2", "m3"] {
        sys.add_mdp(m).unwrap();
    }
    sys.add_lmr("l1", "m1").unwrap();
    sys.subscribe("l1", RULES[0]).unwrap();
    shadow.add_lmr("l0", "m0").unwrap();
    shadow.subscribe("l0", RULES[0]).unwrap();
    sys.configure_placement(PlacementConfig::new(2)).unwrap();

    let mut live = Vec::new();
    let mut next = 0usize;
    for _ in 0..6 {
        apply_both(
            &mut sys,
            &mut shadow,
            "m1",
            Op::Register(128, 700),
            &mut live,
            &mut next,
        );
    }

    // churn while m2 cannot talk to l1: its publications park and
    // retransmit; meanwhile m3 dies and heals, forcing two rebalances
    apply_both(
        &mut sys,
        &mut shadow,
        "m1",
        Op::Register(200, 800),
        &mut live,
        &mut next,
    );
    sys.fail_mdp("m3").unwrap();
    apply_both(
        &mut sys,
        &mut shadow,
        "m2",
        Op::Register(150, 850),
        &mut live,
        &mut next,
    );
    apply_both(
        &mut sys,
        &mut shadow,
        "m1",
        Op::Update(0, 90, 650),
        &mut live,
        &mut next,
    );
    sys.heal_mdp("m3").unwrap();
    apply_both(
        &mut sys,
        &mut shadow,
        "m3",
        Op::Delete(1),
        &mut live,
        &mut next,
    );

    let parked = sys.network().log().into_iter().any(|r| {
        (r.from.as_str(), r.to.as_str(), r.kind, r.fault)
            == ("m2", "l1", "publish", FaultTag::Partitioned)
    });
    assert!(parked, "m2 published nothing to l1 inside the partition");

    sys.repair_backbone(64).unwrap();
    assert!(sys.backbone_converged());
    assert_consistent_with_shadow(
        &sys,
        "l1",
        &shadow,
        "m0",
        &RULES[..1],
        "after the partition",
    );
    assert_exact_copies(&sys, 2, live.len(), "after the partition");
    for m in ["m1", "m2", "m3"] {
        assert_eq!(sys.mdp(m).unwrap().unacked_publications(), 0, "{m}");
        assert_eq!(sys.mdp(m).unwrap().unacked_replications(), 0, "{m}");
    }
    let stats = sys.network_stats();
    assert!(stats.placement_messages > 0, "no placement digest ran");
}

// ---------------------------------------------------------------------------
// rule mirroring: a rule accepted after its own subscribe returned
// ---------------------------------------------------------------------------

#[test]
fn rule_accepted_after_its_subscribe_returned_is_mirrored_by_the_next_subscribe() {
    // l1's Subscribe for RULES[0] cannot reach its home m1 while the link
    // is partitioned, so `subscribe` gives up with the rule still pending.
    // The rule activates at m1 during the registrations that follow, once
    // the partition lifts. `subscribe` mirrors only new rules onto the
    // other MDPs, so the next one must mirror RULES[0] too: otherwise the
    // shard primaries other than m1 never publish its matches to l1.
    let mut config = NetConfig::default();
    config.faults.seed = 0x1a7e;
    config.faults.partition_both("l1", "m1", 0, 600_000);
    let mut sys = Mdv::with_net_config(schema(), config);
    let mut shadow = shadow_system();
    for m in ["m1", "m2", "m3", "m4"] {
        sys.add_mdp(m).unwrap();
    }
    sys.add_lmr("l1", "m1").unwrap();
    sys.configure_placement(PlacementConfig::new(2)).unwrap();
    shadow.add_lmr("l0", "m0").unwrap();
    for rule in RULES {
        shadow.subscribe("l0", rule).unwrap();
    }

    let err = sys.subscribe("l1", RULES[0]).unwrap_err();
    assert!(matches!(err, Error::Subscription(_)), "{err}");
    let status = |sys: &Mdv| sys.lmr("l1").unwrap().rule(0).unwrap().status.clone();
    assert_eq!(status(&sys), RuleStatus::Pending);

    // documents matching RULES[0] only (cpu below RULES[1]'s bound),
    // registered until the partition lifts and the rule activates
    let mut live = Vec::new();
    let mut next = 0usize;
    while status(&sys) == RuleStatus::Pending {
        assert!(next < 16, "the partition never lifted");
        apply_both(
            &mut sys,
            &mut shadow,
            "m1",
            Op::Register(128, 500),
            &mut live,
            &mut next,
        );
    }
    assert_eq!(status(&sys), RuleStatus::Active);

    sys.subscribe("l1", RULES[1]).unwrap();
    assert_consistent_with_shadow(
        &sys,
        "l1",
        &shadow,
        "m0",
        &RULES,
        "after the next subscribe",
    );
    assert_rules_held(&sys, "l1", &[0, 1]);
}

#[test]
fn rules_restored_with_an_lmr_are_mirrored_by_the_next_subscribe() {
    // the restored LMR carries an active rule that no MDP of the placed
    // deployment holds yet; the next subscribe registers it everywhere
    let mut old = Mdv::new(schema());
    old.add_mdp("m1").unwrap();
    old.add_lmr("l1", "m1").unwrap();
    old.subscribe("l1", RULES[0]).unwrap();
    let state = old.lmr("l1").unwrap().export_state();

    let mut sys = Mdv::new(schema());
    for m in ["m1", "m2", "m3"] {
        sys.add_mdp(m).unwrap();
    }
    sys.configure_placement(PlacementConfig::new(2)).unwrap();
    sys.add_lmr("l1", "m1").unwrap();
    sys.restore_lmr_state("l1", &state).unwrap();
    sys.subscribe("l1", RULES[1]).unwrap();
    assert_rules_held(&sys, "l1", &[0, 1]);
}

#[test]
fn restored_placed_deployment_keeps_the_lmr_alternate_stream_floors() {
    // A placed LMR receives the documents its home does not own from their
    // primaries, on one sequence stream per sender. Its export carries those floors; without
    // them the restored LMR expects sequence 0 from every non-home primary
    // and withholds the ack of everything they send, forever. The work
    // runs on a worker thread so that a livelock fails the test instead of
    // hanging it.
    const RULE: &str = "search CycleProvider c register c";
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let mdps = ["m1", "m2", "m3"];
        let mut old = Mdv::new(schema());
        for m in mdps {
            old.add_mdp(m).unwrap();
        }
        old.configure_placement(PlacementConfig::new(2)).unwrap();
        old.add_lmr("l1", "m1").unwrap();
        old.subscribe("l1", RULE).unwrap();
        for i in 0..30 {
            old.register_document("m1", &provider(i, "a.hub.org", 100, 700))
                .unwrap();
        }
        let lmr_state = old.lmr("l1").unwrap().export_state();
        assert!(lmr_state.contains("\naltseq "), "alternate floors exported");

        let mut sys = Mdv::new(schema());
        for m in mdps {
            sys.add_mdp(m).unwrap();
        }
        // restored once all have joined: a join repairs the backbone, and
        // a restored node would publish the copies it pulls to l1, which
        // is not added yet
        for m in mdps {
            sys.restore_mdp_state(m, &old.mdp(m).unwrap().export_state())
                .unwrap();
        }
        sys.configure_placement(PlacementConfig::new(2)).unwrap();
        sys.add_lmr("l1", "m1").unwrap();
        sys.restore_lmr_state("l1", &lmr_state).unwrap();
        for i in 30..60 {
            sys.register_document("m1", &provider(i, "b.hub.org", 100, 700))
                .unwrap();
        }
        sys.run_to_quiescence().unwrap();
        let lmr = sys.lmr("l1").unwrap();
        for i in 0..60 {
            let uri = format!("doc{i}.rdf#host");
            assert!(lmr.is_cached(&uri), "{uri} reached the cache");
        }
        for m in mdps {
            assert_eq!(sys.mdp(m).unwrap().unacked_publications(), 0, "{m}");
        }
        done_tx.send(()).unwrap();
    });
    match done_rx.recv_timeout(std::time::Duration::from_secs(30)) {
        // finished, or panicked: joining returns its panic
        Ok(()) | Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        // a livelocked worker never returns, so it is left running
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("the restored deployment did not converge within 30 s")
        }
    }
}

#[test]
fn a_saved_and_loaded_placed_deployment_stays_placed() {
    // The MDPs' export carries their placement table and the LMR's its
    // alternate-stream mode. A reload that lost either would take every
    // envelope from a primary other than the LMR's home for a stray: the
    // LMR would answer with cleanup unsubscribes, those MDPs would drop
    // the rule, and the documents they own would never reach the cache.
    let root = scratch("save-load");
    let mdps = ["m1", "m2", "m3", "m4"];
    let mut twin = Mdv::new(schema());
    for m in mdps {
        twin.add_mdp(m).unwrap();
    }
    twin.configure_placement(PlacementConfig::new(2)).unwrap();
    twin.add_lmr("l1", "m1").unwrap();
    twin.subscribe("l1", RULES[0]).unwrap();
    let mut shadow = Mdv::new(schema());
    shadow.add_mdp("m0").unwrap();
    shadow.add_lmr("l1", "m0").unwrap();
    shadow.subscribe("l1", RULES[0]).unwrap();
    let doc = |i: usize| provider(i, "a.hub.org", 30 + (i as i64 * 37) % 120, 700);
    for i in 0..10 {
        twin.register_document(mdps[i % 4], &doc(i)).unwrap();
        shadow.register_document("m0", &doc(i)).unwrap();
    }
    twin.save_to_dir(&root).unwrap();

    let mut sys = Mdv::load_from_dir(&root).unwrap();
    for i in 10..30 {
        sys.register_document(mdps[i % 4], &doc(i)).unwrap();
        twin.register_document(mdps[i % 4], &doc(i)).unwrap();
        shadow.register_document("m0", &doc(i)).unwrap();
    }
    assert_eq!(
        sys.lmr("l1").unwrap().cached_uris(),
        twin.lmr("l1").unwrap().cached_uris(),
        "the reloaded cache and its twin's"
    );
    assert_consistent_with_shadow(&sys, "l1", &shadow, "m0", &RULES[..1], "after the reload");
    assert_eq!(sys.placement_config(), twin.placement_config());
    assert_eq!(sys.placement_epoch(), twin.placement_epoch());
    assert_rules_held(&sys, "l1", &[0]);
    cleanup(&root);
}

#[test]
fn a_healed_home_takes_back_the_rules_mirrored_for_its_outage() {
    // At R = all an LMR's rules live at its home alone. While the home is
    // failed the survivors publish to the LMR, so they hold its rules; once
    // the home is back it owns every document again, and the survivors
    // drop the mirrors instead of filtering every later document against
    // rules they never publish for. A second outage mirrors them again.
    let mut sys = Mdv::new(schema());
    let mut shadow = shadow_system();
    for m in ["m1", "m2", "m3"] {
        sys.add_mdp(m).unwrap();
    }
    sys.add_lmr("l1", "m1").unwrap();
    shadow.add_lmr("l0", "m0").unwrap();
    sys.subscribe("l1", RULES[0]).unwrap();
    shadow.subscribe("l0", RULES[0]).unwrap();
    let doc = |i: usize| provider(i, "a.hub.org", 30 + (i as i64 * 37) % 120, 700);
    for outage in 0..2 {
        sys.fail_mdp("m1").unwrap();
        for m in ["m2", "m3"] {
            assert_eq!(mirrored_rules(&sys, m, "l1"), [0], "outage {outage}: {m}");
        }
        for i in outage * 4..outage * 4 + 4 {
            sys.register_document(["m2", "m3"][i % 2], &doc(i)).unwrap();
            shadow.register_document("m0", &doc(i)).unwrap();
        }
        sys.heal_mdp("m1").unwrap();
        assert_rules_placed(&sys, "l1", &[0]);
        for m in ["m2", "m3"] {
            let state = sys.mdp(m).unwrap().export_state();
            assert!(
                !state.lines().any(|l| l.starts_with("subscription l1\t")),
                "outage {outage}: {m} still holds a rule of l1:\n{state}"
            );
        }
    }
    for i in 8..12 {
        sys.register_document(["m1", "m2", "m3"][i % 3], &doc(i))
            .unwrap();
        shadow.register_document("m0", &doc(i)).unwrap();
    }
    assert_consistent_with_shadow(&sys, "l1", &shadow, "m0", &RULES[..1], "after two outages");
}

#[test]
fn a_failed_over_lmr_keeps_no_mirror_of_its_former_home() {
    // At R = all the survivors mirror the rules of an LMR whose home fails.
    // Once the LMR fails over to its backup, which owns every document and
    // ships everything, the other survivor drops its mirror instead of
    // shipping duplicates on its alternate stream until the next rebalance.
    let mut sys = Mdv::new(schema());
    for m in ["m1", "m2", "m3"] {
        sys.add_mdp(m).unwrap();
    }
    sys.add_lmr("l1", "m1").unwrap();
    sys.set_backup_mdp("l1", "m2").unwrap();
    sys.subscribe("l1", RULES[0]).unwrap();
    sys.fail_mdp("m1").unwrap();
    assert_eq!(mirrored_rules(&sys, "m3", "l1"), [0]);
    // control churn while the home is down: the retransmission budget runs
    // out and l1 re-registers at its backup
    sys.subscribe("l1", RULES[1]).unwrap();
    assert_eq!(sys.lmr("l1").unwrap().mdp(), "m2", "l1 failed over");
    assert_eq!(mirrored_rules(&sys, "m3", "l1"), [] as [u64; 0]);
    assert_eq!(mirrored_rules(&sys, "m2", "l1"), [0, 1]);
    let sent = sys.network().log().len();
    for i in 0..6 {
        let doc = provider(i, "a.hub.org", 128, 700);
        sys.register_document(["m2", "m3"][i % 2], &doc).unwrap();
    }
    let log = sys.network().log();
    let from_m3 = log[sent..]
        .iter()
        .filter(|r| r.from == "m3" && r.to == "l1");
    assert_eq!(from_m3.count(), 0, "m3 still publishes to l1");
    assert_consistent(&sys, "l1", "m2", &RULES, "after the failover");
}

/// `lmr`'s rules `rules` are registered at its home and at every MDP the
/// placement table makes a publisher for it, and nowhere else; there is
/// at least one such MDP beside the home.
fn assert_rules_held(sys: &Mdv, lmr: &str, rules: &[u64]) {
    let home = sys.lmr(lmr).unwrap().mdp();
    let table = sys.placement_table().unwrap();
    assert!(
        !table.mirrors_for(home).is_empty(),
        "no MDP publishes for {lmr} beside its home"
    );
    assert_rules_placed(sys, lmr, rules);
}

/// `lmr`'s rules `rules` are registered at its home and at every MDP the
/// placement table makes a publisher for it, and nowhere else.
fn assert_rules_placed<S: StorageEngine + Send + Sync>(sys: &Mdv<S>, lmr: &str, rules: &[u64]) {
    let home = sys.lmr(lmr).unwrap().mdp();
    let table = sys.placement_table().unwrap();
    let mut holders: BTreeSet<String> = table.mirrors_for(home).into_iter().collect();
    holders.insert(home.to_owned());
    for m in sys.mdp_names() {
        let want = if holders.contains(m) { rules } else { &[] };
        assert_eq!(mirrored_rules(sys, m, lmr), want, "rules on {m}");
    }
}

/// The rule ids of `lmr` registered at `mdp`, sorted.
fn mirrored_rules<S: StorageEngine + Send + Sync>(sys: &Mdv<S>, mdp: &str, lmr: &str) -> Vec<u64> {
    let prefix = format!("subscription {lmr}\t");
    let mut rules: Vec<u64> = sys
        .mdp(mdp)
        .unwrap()
        .export_state()
        .lines()
        .filter_map(|l| l.strip_prefix(prefix.as_str()))
        .map(|l| l.split('\t').next().unwrap().parse().unwrap())
        .collect();
    rules.sort_unstable();
    rules
}

// ---------------------------------------------------------------------------
// subscribe scales with the rule, not the rule base (ci/check.sh, release)
// ---------------------------------------------------------------------------

/// The `k`-th of a run of distinct trigger rules (a comparison on the
/// subscribed class's own property).
fn trigger_rule(k: usize) -> String {
    format!("search CycleProvider c register c where c.serverPort = {k}")
}

/// Best of three: the wall-clock seconds `rules` `subscribe` calls take on
/// a fresh deployment from `build`, spread round-robin over its LMRs.
fn subscribe_seconds(rules: usize, build: &dyn Fn() -> Mdv) -> f64 {
    (0..3)
        .map(|_| {
            let mut sys = build();
            let lmrs: Vec<String> = sys.lmr_names().iter().map(|l| l.to_string()).collect();
            let start = Instant::now();
            for k in 0..rules {
                sys.subscribe(&lmrs[k % lmrs.len()], &trigger_rule(k))
                    .unwrap();
            }
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "timing gate: ci/check.sh runs it in release mode"]
fn subscribe_cost_is_flat_in_the_rule_base() {
    let lww = || {
        let mut sys = Mdv::new(schema());
        sys.add_mdp("m1").unwrap();
        sys.add_lmr("l1", "m1").unwrap();
        sys.add_lmr("l2", "m1").unwrap();
        sys
    };
    let placed = || {
        let mut sys = Mdv::new(schema());
        for m in ["m1", "m2", "m3", "m4"] {
            sys.add_mdp(m).unwrap();
        }
        sys.add_lmr("l1", "m1").unwrap();
        sys.add_lmr("l2", "m2").unwrap();
        sys.configure_placement(PlacementConfig::new(2)).unwrap();
        sys
    };
    let us_per_rule = |secs: f64, rules: usize| secs * 1e6 / rules as f64;

    let small = us_per_rule(subscribe_seconds(2_500, &lww), 2_500);
    let large = us_per_rule(subscribe_seconds(10_000, &lww), 10_000);
    eprintln!("LWW, 1 MDP: {small:.1} us/rule at 2.5k rules, {large:.1} at 10k");
    assert!(
        large <= 2.5 * small,
        "LWW subscribe grows with the rule base: {small:.1} -> {large:.1} us/rule"
    );

    let small = us_per_rule(subscribe_seconds(500, &placed), 500);
    let setup = subscribe_seconds(10_000, &placed);
    let large = us_per_rule(setup, 10_000);
    eprintln!(
        "placement R=2 over 4 MDPs: {small:.1} us/rule at 500 rules, {large:.1} at 10k \
         ({setup:.2} s)"
    );
    assert!(
        large <= 3.0 * small,
        "placed subscribe grows with the rule base: {small:.1} -> {large:.1} us/rule"
    );
    assert!(
        setup < 10.0,
        "10k placed rules took {setup:.2} s to subscribe"
    );
}

// ---------------------------------------------------------------------------
// crash recovery of shard ownership
// ---------------------------------------------------------------------------

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mdv-placement-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cleanup(root: &Path) {
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn crash_restart_recovers_shard_ownership() {
    let root = scratch("ownership");
    let mut sys = MdvSystem::durable_with_net_config(schema(), NetConfig::default());
    let mut shadow = shadow_system();
    for m in ["m1", "m2", "m3"] {
        sys.add_mdp_durable(m, root.join(m)).unwrap();
    }
    sys.add_lmr_durable("l1", "m1", root.join("l1")).unwrap();
    sys.subscribe("l1", RULES[0]).unwrap();
    shadow.add_lmr("l0", "m0").unwrap();
    shadow.subscribe("l0", RULES[0]).unwrap();
    sys.configure_placement(PlacementConfig::new(2)).unwrap();
    let epoch = sys.placement_epoch();

    let mut live = Vec::new();
    let mut next = 0usize;
    for k in 0..6 {
        apply_both(
            &mut sys,
            &mut shadow,
            ["m1", "m2", "m3"][k % 3],
            Op::Register(100 + 10 * k as i64, 700),
            &mut live,
            &mut next,
        );
    }

    // the crash wipes memory; the WAL-mirrored placement table (and the
    // LMR's per-sender alt-stream counters) must come back with it
    sys.crash_and_restart_mdp("m2").unwrap();
    sys.crash_and_restart_lmr("l1").unwrap();
    let table = sys.mdp("m2").unwrap().placement();
    assert_eq!(table.epoch(), epoch);
    assert_eq!(table.factor(), 2);

    // the recovered node still serves its shards: more traffic, a fail/heal
    // rebalance, and the shadow oracle at the end
    apply_both(
        &mut sys,
        &mut shadow,
        "m2",
        Op::Register(200, 800),
        &mut live,
        &mut next,
    );
    sys.fail_mdp("m1").unwrap();
    apply_both(
        &mut sys,
        &mut shadow,
        "m2",
        Op::Register(150, 850),
        &mut live,
        &mut next,
    );
    sys.heal_mdp("m1").unwrap();
    apply_both(
        &mut sys,
        &mut shadow,
        "m1",
        Op::Update(0, 96, 650),
        &mut live,
        &mut next,
    );

    sys.repair_backbone(64).unwrap();
    assert!(sys.backbone_converged());
    assert_consistent_with_shadow(
        &sys,
        "l1",
        &shadow,
        "m0",
        &RULES[..1],
        "after crash + rebalance",
    );
    assert_exact_copies(&sys, 2, live.len(), "after crash + rebalance");
    cleanup(&root);
}

// ---------------------------------------------------------------------------
// the tentpole properties
// ---------------------------------------------------------------------------

property! {
    /// At any replication factor in {1, 2, 3}, over 3..=5 MDPs, with lossy
    /// links and randomized fail/heal cycles (each one a rebalance: epoch
    /// bump, shard handoff, post-heal pruning), the placed backbone
    /// reconverges and every LMR cache matches the shadow oracle byte for
    /// byte. At R=1 a down node's shards have no live copy, so updates and
    /// deletes pause while a node is down (registrations land on the
    /// rebalanced survivors); at R>=2 the full mix runs throughout.
    fn placed_backbone_reconverges_under_fail_heal_schedules(src) cases = 20; {
        let factor = *src.choose(&[1usize, 2, 3]);
        let n = src.u64_in(3..6) as usize;
        let config = NetConfig {
            faults: mild_fault_plan(src.bits()),
            ..NetConfig::default()
        };
        let mut sys = MdvSystem::with_net_config(schema(), config);
        let mut shadow = shadow_system();
        let names: Vec<String> = (1..=n).map(|i| format!("m{i}")).collect();
        for m in &names {
            sys.add_mdp(m).unwrap();
        }
        sys.add_lmr("l1", "m1").unwrap();
        shadow.add_lmr("l0", "m0").unwrap();
        // one rule before the factor is set (the rebalance must mirror it),
        // one after (the subscribe path must mirror it)
        sys.subscribe("l1", RULES[0]).unwrap();
        shadow.subscribe("l0", RULES[0]).unwrap();
        sys.configure_placement(PlacementConfig::new(factor)).unwrap();
        sys.subscribe("l1", RULES[1]).unwrap();
        shadow.subscribe("l0", RULES[1]).unwrap();

        let mut live: Vec<usize> = Vec::new();
        let mut next = 0usize;
        let mut down: Option<String> = None;
        for _round in 0..src.u64_in(2..5) {
            for op in arb_ops(src) {
                if factor == 1
                    && down.is_some()
                    && !matches!(op, Op::Register(..))
                {
                    continue; // no live copy of a down node's shards at R=1
                }
                let up: Vec<&String> = names
                    .iter()
                    .filter(|m| down.as_deref() != Some(m.as_str()))
                    .collect();
                let entry = up[src.any_usize() % up.len()].clone();
                apply_both(&mut sys, &mut shadow, &entry, op, &mut live, &mut next);
            }
            match (src.weighted(&[2, 3, 3]), down.clone()) {
                (1, None) => {
                    let victim = names[src.any_usize() % n].clone();
                    sys.fail_mdp(&victim).unwrap();
                    down = Some(victim);
                }
                (2, Some(victim)) => {
                    sys.heal_mdp(&victim).unwrap();
                    down = None;
                }
                _ => {}
            }
        }
        if let Some(victim) = down.take() {
            sys.heal_mdp(&victim).unwrap();
        }
        sys.repair_backbone(64).unwrap();

        prop_assert!(sys.backbone_converged());
        assert_consistent_with_shadow(&sys, "l1", &shadow, "m0", &RULES, "at the end");
        assert_exact_copies(&sys, factor.min(n), live.len(), "at the end");
        assert_rules_placed(&sys, "l1", &[0, 1]);
        for m in &names {
            prop_assert_eq!(sys.mdp(m).unwrap().unacked_publications(), 0);
            prop_assert_eq!(sys.mdp(m).unwrap().unacked_replications(), 0);
        }
        let table = sys.placement_table().unwrap();
        prop_assert_eq!(table.mdps().len(), n);
        prop_assert_eq!(table.factor(), factor.min(n));
    }
}

/// Placement is an LWW backbone: under Raft every voter stores and the
/// leader publishes everything, so a placement table would change nothing
/// (DESIGN.md §11.5). Configuring one is a typed error that leaves the
/// deployment as it was and appends nothing to the log.
#[test]
fn placement_is_rejected_in_raft_mode() {
    let mut sys = MdvSystem::new(schema());
    sys.enable_raft(7).unwrap();
    let mdps = ["m1", "m2", "m3"];
    for m in mdps {
        sys.add_mdp(m).unwrap();
    }
    sys.add_lmr("l1", "m1").unwrap();
    sys.subscribe("l1", RULES[0]).unwrap();
    let logs = |sys: &Mdv| -> Vec<u64> {
        mdps.map(|m| sys.raft_probe(m).unwrap().unwrap().log.len() as u64)
            .into()
    };
    let before = logs(&sys);

    for err in [
        sys.configure_placement(PlacementConfig::new(2))
            .unwrap_err(),
        sys.configure_placement(PlacementConfig::new(3))
            .unwrap_err(),
    ] {
        assert!(matches!(err, Error::Config(_)), "{err}");
    }
    sys.run_to_quiescence().unwrap();
    assert_eq!(sys.placement_config(), PlacementConfig::default());
    assert_eq!(logs(&sys), before, "a rejected placement appends no entry");
    // the voters hold the R = all table over the group
    let table = sys.placement_table().unwrap();
    assert_eq!(table.mdps(), mdps);
    for m in mdps {
        assert_eq!(sys.mdp(m).unwrap().placement(), table);
    }
    assert_eq!(sys.network_stats().placement_messages, 0);
}
