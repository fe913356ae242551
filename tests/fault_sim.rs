//! Deterministic fault-injection simulation of the 3-tier system.
//!
//! The paper's cache-consistency guarantee (§2.2/§3.5) is only meaningful
//! if it survives a degraded network. These tests drive the shared
//! cache-consistency oracle (`tests/common/mod.rs`) through randomized
//! fault schedules — message loss up to 30%, duplication, reordering
//! jitter, latency spikes, and timed partitions — generated from the
//! `mdv-testkit` choice stream, so every failing schedule shrinks and
//! replays exactly via `MDV_PROP_SEED`.
//!
//! Alongside the property, fixed-seed tests pin down each fault class in
//! isolation and prove two framing guarantees: the whole schedule is a
//! pure function of `(NetConfig, seed)`, and an inert (zero) fault plan
//! leaves the transport byte-identical to the fault-free default.

mod common;

use std::collections::BTreeSet;

use common::{assert_consistent, expected_cache, provider, schema};
use mdv::prelude::*;
use mdv::system::transport::{FaultPlan, LinkFaults, LogRecord, NetStats};
use mdv::system::MdvSystem;
use mdv_testkit::{prop_assert, prop_assert_eq, property, Source};

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
}

fn arb_ops(src: &mut Source) -> Vec<Op> {
    src.vec(1..15, |src| match src.weighted(&[4, 3, 2, 2]) {
        0 => Op::Register(arb_spec(src)),
        1 => Op::Update(src.any_usize(), arb_spec(src)),
        2 => Op::Delete(src.any_usize()),
        _ => Op::ToggleRule(src.any_usize()),
    })
}

/// A randomized fault plan: loss up to 30%, duplication up to 30%,
/// reordering jitter, occasional latency spikes, and sometimes a timed
/// partition of the MDP↔LMR pair. A zeroed choice stream yields the inert
/// plan, so the shrunk minimum of any failure is the fault-free schedule.
fn arb_fault_plan(src: &mut Source) -> FaultPlan {
    let mut plan = FaultPlan {
        seed: src.bits(),
        default_link: LinkFaults {
            drop_prob: src.f64_in(0.0..0.30),
            dup_prob: src.f64_in(0.0..0.30),
            jitter_ms: src.u64_in(0..40),
            spike_prob: src.f64_in(0.0..0.15),
            spike_ms: src.u64_in(0..150),
        },
        ..FaultPlan::default()
    };
    // sometimes hit the publish path harder than the rest of the network
    if src.bool_with(0.3) {
        plan.links.insert(
            ("mdp".into(), "lmr".into()),
            LinkFaults {
                drop_prob: src.f64_in(0.0..0.30),
                dup_prob: src.f64_in(0.0..0.30),
                jitter_ms: src.u64_in(0..60),
                spike_prob: 0.0,
                spike_ms: 0,
            },
        );
    }
    // sometimes cut the pair off entirely for a bounded window
    if src.bool_with(0.3) {
        let from = src.u64_in(0..400);
        let len = src.u64_in(50..400);
        plan.partition_both("mdp", "lmr", from, from + len);
    }
    plan
}

property! {
    /// The cache-consistency oracle holds after every operation of a
    /// randomized workload, for every randomized fault schedule — and the
    /// at-least-once protocol fully quiesces (nothing buffered, nothing
    /// unacked) before each check.
    fn oracle_holds_under_randomized_fault_schedules(src) cases = 50; {
        let config = NetConfig {
            faults: arb_fault_plan(src),
            ..NetConfig::default()
        };
        let ops = arb_ops(src);

        let mut sys = MdvSystem::with_net_config(schema(), config);
        sys.add_mdp("mdp").unwrap();
        sys.add_lmr("lmr", "mdp").unwrap();
        // (rule id, index into RULES) for every currently active rule
        let mut active: Vec<(u64, usize)> = Vec::new();
        let mut retracted: Vec<usize> = Vec::new();
        for (idx, r) in RULES.iter().enumerate() {
            active.push((sys.subscribe("lmr", r).unwrap(), idx));
        }

        let mut live: Vec<usize> = Vec::new();
        let mut next_doc = 0usize;
        for (step, op) in ops.into_iter().enumerate() {
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
                        // re-subscribe a retracted rule (fresh id)
                        let idx = retracted.remove(pick % retracted.len());
                        active.push((sys.subscribe("lmr", RULES[idx]).unwrap(), idx));
                    } else if !active.is_empty() {
                        let (id, idx) = active.remove(pick % active.len());
                        sys.unsubscribe("lmr", id).unwrap();
                        retracted.push(idx);
                    }
                }
            }
            // every operation ran to quiescence: nothing may be unacked
            // or half-applied
            prop_assert_eq!(sys.mdp("mdp").unwrap().unacked_publications(), 0);
            // the oracle holds for exactly the currently active rules
            let texts: Vec<&str> = active.iter().map(|(_, idx)| RULES[*idx]).collect();
            assert_consistent(&sys, "lmr", "mdp", &texts, &format!("after step {step}"));
            // no retracted rule keeps cache entries anchored
            let active_ids: BTreeSet<u64> = active.iter().map(|(id, _)| *id).collect();
            let anchored = sys.lmr("lmr").unwrap().tracker().rules_referenced();
            prop_assert!(
                anchored.is_subset(&active_ids),
                "dead rule still anchors cache entries: {:?} ⊄ {:?}",
                anchored,
                active_ids
            );
        }
    }
}

/// A fixed workload used by the determinism and zero-fault tests.
fn run_fixed_scenario(config: NetConfig) -> (MdvSystem, Vec<LogRecord>, NetStats) {
    let mut sys = MdvSystem::with_net_config(schema(), config);
    sys.add_mdp("mdp").unwrap();
    sys.add_lmr("lmr", "mdp").unwrap();
    for r in &RULES[..2] {
        sys.subscribe("lmr", r).unwrap();
    }
    sys.register_document("mdp", &provider(1, "a.hub.org", 128, 700))
        .unwrap();
    sys.register_document("mdp", &provider(2, "b.edge.org", 32, 500))
        .unwrap();
    sys.update_document("mdp", &provider(2, "b.hub.org", 96, 500))
        .unwrap();
    sys.delete_document("mdp", "doc1.rdf").unwrap();
    let log = sys.network().log();
    let stats = sys.network_stats();
    (sys, log, stats)
}

#[test]
fn zero_fault_plan_is_byte_identical_to_default_transport() {
    let (_, base_log, base_stats) = run_fixed_scenario(NetConfig::default());
    // an explicitly-seeded but inert plan must not perturb anything: the
    // fault path draws no randomness when every fault knob is zero
    let mut cfg = NetConfig::default();
    cfg.faults.seed = 0x5eed_cafe;
    assert!(cfg.faults.is_inert());
    let (_, log, stats) = run_fixed_scenario(cfg);
    assert_eq!(base_log, log, "inert plan changed the traffic log");
    assert_eq!(base_stats, stats, "inert plan changed the stats");
    assert_eq!(base_stats.retries, 0);
    assert_eq!(base_stats.duplicates_delivered, 0);
    assert_eq!(base_stats.dropped, 0);
    // the repair machinery must stay completely cold on a healthy network
    assert_eq!(base_stats.anti_entropy_rounds, 0);
    assert_eq!(base_stats.repairs_applied, 0);
    assert_eq!(base_stats.down_dropped, 0);
    for kind in ["placement-digest", "repair-request", "repair-docs"] {
        assert!(
            base_log.iter().all(|r| r.kind != kind),
            "inert run carried a {kind} message"
        );
    }
}

fn faulty_config(seed: u64) -> NetConfig {
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

#[test]
fn fault_schedule_is_a_pure_function_of_config_and_seed() {
    let (_, log_a, stats_a) = run_fixed_scenario(faulty_config(7));
    let (_, log_b, stats_b) = run_fixed_scenario(faulty_config(7));
    assert_eq!(log_a, log_b, "same seed must replay the exact schedule");
    assert_eq!(stats_a, stats_b);
    let (_, log_c, _) = run_fixed_scenario(faulty_config(8));
    assert_ne!(
        log_a, log_c,
        "different seeds must explore different faults"
    );
}

#[test]
fn heavy_loss_on_the_publish_path_is_recovered_by_retries() {
    let mut cfg = NetConfig::default();
    cfg.faults.seed = 42;
    // only the MDP→LMR direction is lossy; acks and control flow are clean
    cfg.faults.links.insert(
        ("mdp".into(), "lmr".into()),
        LinkFaults {
            drop_prob: 0.5,
            dup_prob: 0.0,
            jitter_ms: 0,
            spike_prob: 0.0,
            spike_ms: 0,
        },
    );
    let (sys, _, stats) = run_fixed_scenario(cfg);
    assert_consistent(&sys, "lmr", "mdp", &RULES[..2], "after lossy run");
    assert!(stats.dropped > 0, "the loss process never fired: {stats:?}");
    assert!(stats.retries > 0, "drops must be recovered by retries");
    assert_eq!(sys.mdp("mdp").unwrap().unacked_publications(), 0);
}

#[test]
fn duplication_and_reordering_do_not_corrupt_the_cache() {
    let mut cfg = NetConfig::default();
    cfg.faults.seed = 99;
    cfg.faults.default_link = LinkFaults {
        drop_prob: 0.0,
        dup_prob: 0.6,
        jitter_ms: 25,
        spike_prob: 0.0,
        spike_ms: 0,
    };
    let (sys, _, stats) = run_fixed_scenario(cfg);
    assert_consistent(&sys, "lmr", "mdp", &RULES[..2], "after dup/jitter run");
    assert!(
        stats.duplicates_delivered > 0,
        "no duplicate injected: {stats:?}"
    );
    // nothing was lost, so the protocol never had to retransmit
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.dropped, 0);
}

#[test]
fn partition_heals_and_the_cache_catches_up() {
    let mut cfg = NetConfig::default();
    cfg.faults.partition_both("mdp", "lmr", 0, 2000);
    let (sys, _, stats) = run_fixed_scenario(cfg);
    assert_consistent(&sys, "lmr", "mdp", &RULES[..2], "after partition heals");
    assert!(stats.dropped > 0, "partition never black-holed a message");
    assert!(stats.retries > 0, "recovery requires retransmissions");
    assert!(
        stats.clock_ms >= 2000,
        "the retry clock must step past the partition window: {stats:?}"
    );
}

#[test]
fn expected_cache_oracle_matches_live_cache_helper() {
    // sanity-check the shared oracle helper itself: on a quiescent healthy
    // system, oracle and cache agree and are non-trivial
    let (sys, _, _) = run_fixed_scenario(NetConfig::default());
    let expected = expected_cache(&sys, "mdp", &RULES[..2]);
    let cached: BTreeSet<String> = sys.lmr("lmr").unwrap().cached_uris().into_iter().collect();
    assert_eq!(expected, cached);
    assert!(
        !expected.is_empty(),
        "fixed scenario should cache something"
    );
}
