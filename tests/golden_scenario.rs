//! Same bytes out: one scripted run per deployment mode, folded into one
//! pinned `u64` each.
//!
//! Every scenario below drives a fixed script through a whole deployment
//! and then hashes (64-bit FNV-1a) everything the deployment produced:
//!
//! * the traffic log, record by record (sender, receiver, kind, size,
//!   send and delivery times, fault verdict, retry flag),
//! * every row (with its row id) of every table of every LMR cache,
//! * every row of every table of every MDP, and each MDP's `FilterStats`,
//! * in the durable scenario, every file of every simulated disk.
//!
//! The five modes are LWW replication with a fail/heal cycle and backup
//! failover, Raft with a leader change, placement at R = 2 over four MDPs,
//! a durable MDP and LMR crash-restarted on an inert `FaultVfs`, and a
//! batch-100 MDP with a document rejected at entry. The LWW, placement and
//! durable scripts run a second time over a seeded lossy transport (drops,
//! duplicates, jitter and latency spikes), so the pins also cover the
//! at-least-once machinery the inert runs never reach: retransmission
//! backoff and duplicate suppression. A sixth lossy script catches a Raft
//! follower up by InstallSnapshot behind a log compacted every two
//! entries, and a seventh does the same to a follower that holds documents
//! when it fails.
//!
//! None of those ten scripts delivers a message ahead of its stream's
//! floor: every operation runs to quiescence, so a gap closes before the
//! next operation can open another. The eleventh makes one early arrival on
//! a publication link and one on a replication link, and pins the
//! retransmissions that close both gaps.
//!
//! A change meant to alter no behaviour (a refactor, a deletion, a
//! speed-up) must leave every pin untouched; that is its proof of "same
//! bytes out". A change that alters behaviour on purpose (a new message, a
//! different send order, another WAL layout) re-pins in the same change:
//! run `cargo test --test golden_scenario -- --nocapture`, copy the printed
//! values over the pins, and say in the commit message which behaviour
//! changed and why the new bytes are the intended ones.

mod common;

use common::{provider, schema};
use mdv::prelude::*;
use mdv::relstore::{Database, DurableEngine, FaultVfs, StorageEngine};
use mdv::system::transport::{FaultPlan, FaultTag, LinkFaults, NetConfig, NetStats, Partition};
use mdv::system::PlacementConfig;

const PIN_LWW_FAILOVER: u64 = 0x2957_6453_df63_62a5;
const PIN_RAFT_LEADER_CHANGE: u64 = 0xf329_8f06_52bf_4c61;
const PIN_PLACEMENT_R2: u64 = 0xc565_ab4f_1b7a_1885;
const PIN_DURABLE_CRASH_RESTART: u64 = 0xeb5e_a075_0c19_4270;
const PIN_BATCH_REJECTED: u64 = 0x2b36_9633_c707_017e;
const PIN_LWW_FAILOVER_LOSSY: u64 = 0x3e32_6c56_b67b_d2ea;
const PIN_PLACEMENT_R2_LOSSY: u64 = 0x6452_d5c3_d4b1_d894;
const PIN_DURABLE_CRASH_RESTART_LOSSY: u64 = 0x270c_706f_120b_9464;
const PIN_RAFT_INSTALL_LOSSY: u64 = 0xc246_bd47_73da_1ac5;
const PIN_RAFT_INSTALL_DOCS_LOSSY: u64 = 0x7be1_d4e9_3aaf_11a4;
const PIN_EARLY_ARRIVALS: u64 = 0x8e16_35a6_4f73_d2c0;

/// Two overlapping subscriptions: a document with memory > 64 and
/// cpu >= 600 is published to both LMRs in the same operation, so the
/// order an MDP ships its per-LMR envelopes in shows in the traffic log.
const RULES: [&str; 2] = [
    "search CycleProvider c register c where c.serverInformation.memory > 64",
    "search ServerInformation s register s where s.cpu >= 600 or s.memory > 200",
];

/// 64-bit FNV-1a over a stream of length-prefixed fields.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn text(&mut self, text: &str) {
        self.bytes(text.as_bytes());
    }

    fn database(&mut self, db: &Database) {
        for name in db.table_names() {
            self.text(name);
            let table = db.table(name).unwrap();
            for (id, row) in table.iter() {
                self.text(&format!("{id:?} {row:?}"));
            }
        }
    }
}

/// Hashes the traffic log, every LMR's and every MDP's tables and each
/// MDP's filter statistics.
fn digest<S: StorageEngine + Send + Sync>(sys: &MdvSystem<S>, h: &mut Fnv) {
    for record in sys.network().log() {
        h.text(&format!("{record:?}"));
    }
    for name in sys.lmr_names() {
        h.text(name);
        h.database(sys.lmr(name).unwrap().storage().database());
    }
    for name in sys.mdp_names() {
        h.text(name);
        let engine = sys.mdp(name).unwrap().engine();
        h.database(engine.db());
        h.text(&format!("{:?}", engine.stats()));
    }
}

/// A seeded lossy transport: a quarter of the messages dropped, a fifth
/// duplicated, up to 30 ms of jitter and a tenth delayed by 120 ms.
fn lossy(seed: u64) -> NetConfig {
    let mut cfg = NetConfig::default();
    cfg.faults.seed = seed;
    cfg.faults.default_link = LinkFaults {
        drop_prob: 0.25,
        dup_prob: 0.20,
        jitter_ms: 30,
        spike_prob: 0.10,
        spike_ms: 120,
    };
    cfg
}

/// The lossy runs must have exercised loss recovery and duplicate
/// suppression, or their pins would prove nothing about either.
fn assert_faults_fired(mode: &str, stats: &NetStats) {
    assert!(stats.retries > 0, "{mode}: no retransmission: {stats:?}");
    assert!(stats.dropped > 0, "{mode}: no drop: {stats:?}");
    assert!(
        stats.duplicates_delivered > 0,
        "{mode}: no duplicate: {stats:?}"
    );
}

fn check(mode: &str, got: u64, pin: u64) {
    println!("{mode}: {got:#018x}");
    assert_eq!(
        got, pin,
        "{mode}: the run's bytes changed ({got:#018x}, pinned {pin:#018x}); \
         re-pin only for an intended behaviour change"
    );
}

#[test]
fn lww_fail_heal_with_backup_failover() {
    let (got, _) = lww_run(NetConfig::default());
    check("lww", got, PIN_LWW_FAILOVER);
}

#[test]
fn lww_fail_heal_with_backup_failover_over_a_lossy_transport() {
    let (got, stats) = lww_run(lossy(0x10557));
    assert_faults_fired("lww-lossy", &stats);
    check("lww-lossy", got, PIN_LWW_FAILOVER_LOSSY);
}

fn lww_run(config: NetConfig) -> (u64, NetStats) {
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

    sys.register_document("m1", &provider(0, "a.hub.org", 128, 700))
        .unwrap();
    sys.register_document("m2", &provider(1, "b.hub.org", 32, 400))
        .unwrap();
    sys.register_document("m3", &provider(2, "c.hub.org", 256, 800))
        .unwrap();
    sys.update_document("m1", &provider(1, "b.hub.org", 96, 650))
        .unwrap();

    sys.fail_mdp("m1").unwrap();
    sys.register_document("m2", &provider(3, "d.hub.org", 150, 850))
        .unwrap();
    sys.delete_document("m3", "doc0.rdf").unwrap();
    // control churn while l1's home is down: the retransmission budget runs
    // out and l1 re-registers at its backup
    sys.unsubscribe("l1", r1).unwrap();
    sys.subscribe("l1", RULES[0]).unwrap();
    assert_eq!(sys.lmr("l1").unwrap().mdp(), "m2", "l1 failed over");

    sys.heal_mdp("m1").unwrap();
    sys.register_document("m1", &provider(4, "e.hub.org", 99, 777))
        .unwrap();
    sys.update_document("m2", &provider(2, "c.hub.org", 10, 300))
        .unwrap();
    sys.repair_backbone(64).unwrap();

    let mut h = Fnv::new();
    digest(&sys, &mut h);
    (h.0, sys.network_stats())
}

#[test]
fn raft_with_a_leader_change() {
    let mut sys = MdvSystem::new(schema());
    sys.enable_raft(0xace).unwrap();
    for m in ["m1", "m2", "m3"] {
        sys.add_mdp(m).unwrap();
    }
    sys.add_lmr("l1", "m1").unwrap();
    sys.add_lmr("l2", "m2").unwrap();
    sys.subscribe("l1", RULES[0]).unwrap();
    sys.subscribe("l2", RULES[1]).unwrap();

    sys.register_document("m1", &provider(0, "a.hub.org", 128, 700))
        .unwrap();
    sys.register_document("m2", &provider(1, "b.hub.org", 32, 400))
        .unwrap();
    sys.update_document("m3", &provider(0, "a.hub.org", 96, 650))
        .unwrap();

    let old = sys.raft_leader().expect("a leader before the failure");
    sys.fail_mdp(&old).unwrap();
    let survivor = ["m1", "m2", "m3"].into_iter().find(|m| *m != old).unwrap();
    sys.register_document(survivor, &provider(2, "c.hub.org", 256, 800))
        .unwrap();
    let new = sys.raft_leader().expect("the survivors elect a leader");
    assert_ne!(new, old, "the leader changed");
    sys.delete_document(survivor, "doc1.rdf").unwrap();

    sys.heal_mdp(&old).unwrap();
    sys.register_document(&old, &provider(3, "d.hub.org", 150, 850))
        .unwrap();
    sys.run_to_quiescence().unwrap();

    let mut h = Fnv::new();
    digest(&sys, &mut h);
    check("raft", h.0, PIN_RAFT_LEADER_CHANGE);
}

/// A follower misses four commits behind a log compacted every two
/// entries, so the leader must catch it up with an InstallSnapshot — over
/// a lossy transport, so installs can be dropped, duplicated and resent.
#[test]
fn raft_install_snapshot_over_a_lossy_transport() {
    let mut sys = MdvSystem::with_net_config(schema(), lossy(0x40557));
    sys.enable_raft(0xbee).unwrap();
    sys.set_raft_compact_threshold(2);
    let mdps = ["m1", "m2", "m3"];
    for m in mdps {
        sys.add_mdp(m).unwrap();
    }
    sys.add_lmr("l1", "m1").unwrap();
    sys.add_lmr("l2", "m2").unwrap();
    sys.subscribe("l1", RULES[0]).unwrap();
    sys.subscribe("l2", RULES[1]).unwrap();
    // a retracted rule, so the snapshot carries a tombstone
    let retracted = sys.subscribe("l2", RULES[0]).unwrap();
    sys.unsubscribe("l2", retracted).unwrap();
    let leader = sys.raft_leader().expect("a leader before the failure");
    let follower = mdps.into_iter().find(|m| *m != leader).unwrap();
    sys.fail_mdp(follower).unwrap();
    sys.register_document(&leader, &provider(0, "a.hub.org", 128, 700))
        .unwrap();
    sys.register_document(&leader, &provider(1, "b.hub.org", 32, 400))
        .unwrap();
    sys.register_document(&leader, &provider(2, "c.hub.org", 256, 800))
        .unwrap();
    sys.update_document(&leader, &provider(0, "a.hub.org", 96, 650))
        .unwrap();
    sys.delete_document(&leader, "doc1.rdf").unwrap();
    sys.heal_mdp(follower).unwrap();
    sys.register_document(follower, &provider(3, "d.hub.org", 150, 850))
        .unwrap();
    sys.run_to_quiescence().unwrap();

    let installs = sys.network().traffic_by_kind()["install-snapshot"];
    assert!(installs >= 1, "the healed follower was sent no snapshot");
    assert_faults_fired("raft-install-lossy", &sys.network_stats());
    let mut h = Fnv::new();
    digest(&sys, &mut h);
    check("raft-install-lossy", h.0, PIN_RAFT_INSTALL_LOSSY);
}

/// The install above lands on a follower that failed before any document
/// existed. Here the follower holds documents when it fails, so the
/// install tears down a populated filter and replays the leader's export
/// over it: the follower's copy of doc1 is deleted and doc0 updated while
/// it is away.
#[test]
fn raft_install_snapshot_over_a_follower_holding_documents() {
    let mut sys = MdvSystem::with_net_config(schema(), lossy(0x50557));
    sys.enable_raft(0xbad).unwrap();
    sys.set_raft_compact_threshold(2);
    let mdps = ["m1", "m2", "m3"];
    for m in mdps {
        sys.add_mdp(m).unwrap();
    }
    sys.add_lmr("l1", "m1").unwrap();
    sys.add_lmr("l2", "m2").unwrap();
    sys.subscribe("l1", RULES[0]).unwrap();
    sys.subscribe("l2", RULES[1]).unwrap();
    let leader = sys.raft_leader().expect("a leader before the failure");
    for i in 0..3 {
        let doc = provider(i, "a.hub.org", 40 + 50 * i as i64, 500 + 100 * i as i64);
        sys.register_document(&leader, &doc).unwrap();
    }
    sys.run_to_quiescence().unwrap();
    let follower = mdps.into_iter().find(|m| *m != leader).unwrap();
    let held = sys.mdp(follower).unwrap().engine().document_count();
    assert_eq!(held, 3, "the follower holds every document before failing");
    sys.fail_mdp(follower).unwrap();
    sys.update_document(&leader, &provider(0, "b.hub.org", 300, 900))
        .unwrap();
    sys.delete_document(&leader, "doc1.rdf").unwrap();
    sys.register_document(&leader, &provider(3, "c.hub.org", 256, 800))
        .unwrap();
    sys.update_document(&leader, &provider(2, "c.hub.org", 10, 300))
        .unwrap();
    sys.register_document(&leader, &provider(4, "d.hub.org", 99, 777))
        .unwrap();
    sys.heal_mdp(follower).unwrap();
    sys.register_document(follower, &provider(5, "e.hub.org", 150, 850))
        .unwrap();
    sys.run_to_quiescence().unwrap();

    let installs = sys.network().traffic_by_kind()["install-snapshot"];
    assert!(installs >= 1, "the healed follower was sent no snapshot");
    assert_faults_fired("raft-install-docs-lossy", &sys.network_stats());
    let mut h = Fnv::new();
    digest(&sys, &mut h);
    check("raft-install-docs-lossy", h.0, PIN_RAFT_INSTALL_DOCS_LOSSY);
}

#[test]
fn placement_two_replicas_over_four_mdps() {
    let (got, _) = placement_run(NetConfig::default());
    check("placement", got, PIN_PLACEMENT_R2);
}

#[test]
fn placement_two_replicas_over_a_lossy_transport() {
    let (got, stats) = placement_run(lossy(0x20557));
    assert_faults_fired("placement-lossy", &stats);
    check("placement-lossy", got, PIN_PLACEMENT_R2_LOSSY);
}

fn placement_run(config: NetConfig) -> (u64, NetStats) {
    let mdps = ["m1", "m2", "m3", "m4"];
    let mut sys = MdvSystem::with_net_config(schema(), config);
    for m in mdps {
        sys.add_mdp(m).unwrap();
    }
    sys.configure_placement(PlacementConfig::new(2)).unwrap();
    sys.add_lmr("l1", "m1").unwrap();
    sys.add_lmr("l2", "m3").unwrap();
    sys.subscribe("l1", RULES[0]).unwrap();
    sys.subscribe("l2", RULES[1]).unwrap();

    // the entry MDP rotates, so some operations take a routing hop
    for i in 0..8 {
        let doc = provider(i, "a.hub.org", 40 + 30 * i as i64, 500 + 50 * i as i64);
        sys.register_document(mdps[i % 4], &doc).unwrap();
    }
    sys.update_document("m2", &provider(1, "b.hub.org", 300, 900))
        .unwrap();
    sys.delete_document("m4", "doc5.rdf").unwrap();
    sys.update_document("m3", &provider(6, "c.hub.org", 10, 100))
        .unwrap();
    sys.run_to_quiescence().unwrap();

    let mut h = Fnv::new();
    digest(&sys, &mut h);
    (h.0, sys.network_stats())
}

#[test]
fn durable_crash_restart_on_an_inert_fault_disk() {
    let (got, _) = durable_run(NetConfig::default());
    check("durable", got, PIN_DURABLE_CRASH_RESTART);
}

#[test]
fn durable_crash_restart_over_a_lossy_transport() {
    let (got, stats) = durable_run(lossy(0x30557));
    assert_faults_fired("durable-lossy", &stats);
    check("durable-lossy", got, PIN_DURABLE_CRASH_RESTART_LOSSY);
}

fn durable_run(config: NetConfig) -> (u64, NetStats) {
    let disks = [FaultVfs::new(11), FaultVfs::new(12), FaultVfs::new(13)];
    let mut sys: MdvSystem<DurableEngine<FaultVfs>> = MdvSystem::durable_on(schema(), config);
    sys.add_mdp_durable_on("mdp", "/mdp", disks[0].clone())
        .unwrap();
    sys.add_lmr_durable_on("l1", "mdp", "/l1", disks[1].clone())
        .unwrap();
    sys.add_lmr_durable_on("l2", "mdp", "/l2", disks[2].clone())
        .unwrap();
    sys.subscribe("l1", RULES[0]).unwrap();
    sys.subscribe("l2", RULES[1]).unwrap();

    for i in 0..4 {
        let doc = provider(i, "a.hub.org", 50 + 40 * i as i64, 550 + 60 * i as i64);
        sys.register_document("mdp", &doc).unwrap();
    }
    sys.crash_and_restart_mdp("mdp").unwrap();
    sys.run_to_quiescence().unwrap();
    sys.update_document("mdp", &provider(0, "b.hub.org", 300, 900))
        .unwrap();
    sys.crash_and_restart_lmr("l2").unwrap();
    sys.run_to_quiescence().unwrap();
    sys.delete_document("mdp", "doc2.rdf").unwrap();
    sys.register_document("mdp", &provider(4, "c.hub.org", 99, 777))
        .unwrap();

    let mut h = Fnv::new();
    digest(&sys, &mut h);
    for disk in &disks {
        for (path, bytes) in disk.dump() {
            h.text(&path.to_string_lossy());
            h.bytes(&bytes);
        }
    }
    (h.0, sys.network_stats())
}

#[test]
fn batch_of_one_hundred_with_a_rejected_batch() {
    let mut sys = MdvSystem::new(schema());
    sys.add_mdp("mdp").unwrap();
    sys.add_lmr("l1", "mdp").unwrap();
    sys.add_lmr("l2", "mdp").unwrap();
    sys.subscribe("l1", RULES[0]).unwrap();
    sys.subscribe("l2", RULES[1]).unwrap();
    sys.register_document("mdp", &provider(0, "a.hub.org", 128, 700))
        .unwrap();

    sys.set_batch_size("mdp", Some(100)).unwrap();
    // the hundredth queued document runs the filter over the whole batch
    for i in 1..=100 {
        let doc = provider(i, "b.hub.org", 20 + 3 * i as i64, 400 + 5 * i as i64);
        sys.register_document("mdp", &doc).unwrap();
    }
    assert_eq!(sys.mdp("mdp").unwrap().pending_documents(), 0);

    // doc0 is registered already: its own register fails, and the batch
    // it would have ridden in flushes without it
    let mut h = Fnv::new();
    for i in [101, 0, 102] {
        let registered = sys.register_document("mdp", &provider(i, "c.hub.org", 150, 850));
        if let Err(rejected) = registered {
            assert_eq!(i, 0, "{rejected}");
            h.text(&rejected.to_string());
        }
    }
    sys.flush("mdp").unwrap();
    assert!(sys
        .mdp("mdp")
        .unwrap()
        .engine()
        .document("doc101.rdf")
        .is_some());

    sys.register_document("mdp", &provider(103, "d.hub.org", 300, 900))
        .unwrap();
    sys.flush("mdp").unwrap();

    digest(&sys, &mut h);
    check("batch", h.0, PIN_BATCH_REJECTED);
}

/// m1 sends publication `n` to l1 and replicated operation 0 to m2 while
/// both are down; both come back, and m1's next operation arrives first on
/// each link. l1 withholds its early envelope; m2 applies its early
/// operation, which the version gate allows. m1's first retransmission is
/// due inside a partition of both links that outlasts the stall budget of
/// `run_to_quiescence`, so each gap stays open until the script moves the
/// clock past `HEAL_MS`; the retransmissions then close both.
#[test]
fn early_arrivals_on_a_publication_and_a_replication_link() {
    const CUT_MS: u64 = 10_000;
    const HEAL_MS: u64 = 1_000_000_000;
    let partition = |to: &str| Partition {
        from: "m1".into(),
        to: to.into(),
        from_ms: CUT_MS,
        until_ms: HEAL_MS,
    };
    let config = NetConfig {
        retry_initial_ms: 2 * CUT_MS,
        faults: FaultPlan {
            partitions: vec![partition("l1"), partition("m2")],
            ..FaultPlan::default()
        },
        ..NetConfig::default()
    };
    let mut sys = MdvSystem::with_net_config(schema(), config);
    sys.add_mdp("m1").unwrap();
    sys.add_mdp("m2").unwrap();
    sys.add_lmr("l1", "m1").unwrap();
    sys.subscribe("l1", RULES[0]).unwrap();

    for (down, doc) in [(true, 0), (false, 1)] {
        for node in ["l1", "m2"] {
            sys.network().set_down(node, down);
        }
        sys.register_document("m1", &provider(doc, "a.hub.org", 128, 700))
            .unwrap();
    }
    let (l1, m2) = (sys.lmr("l1").unwrap(), sys.mdp("m2").unwrap().engine());
    assert!(
        !l1.is_cached("doc1.rdf#host"),
        "l1 applied its early arrival"
    );
    assert!(m2.document("doc0.rdf").is_none() && m2.document("doc1.rdf").is_some());

    sys.network().advance_clock(HEAL_MS);
    sys.run_to_quiescence().unwrap();
    let l1 = sys.lmr("l1").unwrap();
    assert!(l1.is_cached("doc0.rdf#host") && l1.is_cached("doc1.rdf#host"));
    assert!(sys.backbone_converged());
    for (to, kind) in [("l1", "publish"), ("m2", "replicate")] {
        let closed = sys.network().log().into_iter().any(|r| {
            (r.from.as_str(), r.to.as_str(), r.kind) == ("m1", to, kind)
                && r.retry
                && r.fault == FaultTag::None
                && r.sent_at_ms >= HEAL_MS
        });
        assert!(closed, "no retransmission closed the gap on m1 -> {to}");
    }

    let mut h = Fnv::new();
    digest(&sys, &mut h);
    check("early-arrivals", h.0, PIN_EARLY_ARRIVALS);
}
