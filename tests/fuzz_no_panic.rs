//! Panic-freedom fuzzing: every parser and entry point in the workspace
//! must return `Err` on malformed input — never panic — because MDPs accept
//! rule text and documents from remote, untrusted LMRs and clients.
//! Runs on `mdv-testkit` at 256 deterministic cases per property.

use std::sync::atomic::{AtomicU64, Ordering};

use mdv::filter::FilterEngine;
use mdv::prelude::*;
use mdv::rdf::{parse_schema, xml};
use mdv::relstore::{
    CrashMode, Database, DiskFaultPlan, DurableEngine, FaultVfs, Value, Vfs, VfsFile, CRASH_MODES,
};
use mdv::system::transport::{FaultPlan, LinkFaults};
use mdv::system::{MdvSystem, PlacementTable, PublishMsg, RuleDelta};
use mdv::workload::benchmark_schema;
use mdv_testkit::{prop_assert, property, Source};

mod common;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch directory for one fuzz case's durable stores.
fn scratch() -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "mdv-fuzz-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Arbitrary garbage plus near-miss inputs built from real token fragments.
fn arb_garbage(src: &mut Source) -> String {
    const FRAGMENTS: [&str; 18] = [
        "search",
        "register",
        "where",
        "CycleProvider",
        "c",
        "c.serverHost",
        "contains",
        "'uni-passau.de'",
        ">",
        "64",
        "and",
        "or",
        "(",
        ")",
        "?",
        ".",
        "''",
        "!",
    ];
    if src.bool() {
        // raw printable garbage
        src.printable(0..41)
    } else {
        // fragments of valid syntax, shuffled
        src.vec(0..12, |src| *src.choose(&FRAGMENTS)).join(" ")
    }
}

fn arb_xmlish(src: &mut Source) -> String {
    const FRAGMENTS: [&str; 16] = [
        "<rdf:RDF>",
        "</rdf:RDF>",
        "<CycleProvider rdf:ID=\"h\">",
        "</CycleProvider>",
        "<p>",
        "</p>",
        "<p/>",
        "text &amp; more",
        "&bogus;",
        "<!--",
        "-->",
        "<?pi",
        "rdf:resource=\"#x\"",
        "\"",
        "<",
        ">",
    ];
    if src.bool() {
        src.printable(0..61)
    } else {
        src.vec(0..10, |src| *src.choose(&FRAGMENTS)).concat()
    }
}

/// A valid envelope with arbitrary text in its literals and removals.
fn arb_envelope(src: &mut Source) -> PublishMsg {
    let resources: Vec<Resource> = (0..src.usize_in(1..4))
        .map(|k| {
            Resource::new(UriRef::new(&format!("d{k}.rdf"), "h"), "CycleProvider")
                .with("serverHost", Term::literal(src.printable(0..20)))
        })
        .collect();
    let uris: Vec<String> = resources.iter().map(|r| r.uri().to_string()).collect();
    let rules = (0..src.usize_in(1..4))
        .map(|rule| RuleDelta {
            lmr_rule: rule as u64,
            matched: vec![src.choose(&uris).clone()],
            removed: vec![src.printable(1..10)],
            snapshot: src.bool(),
            ..RuleDelta::default()
        })
        .collect();
    PublishMsg {
        seq: src.u64_in(0..1000),
        alt: src.bool(),
        resources,
        rules,
    }
}

/// `text` escaped as the escaped fields of a state record hold it.
fn escaped(text: &str) -> String {
    text.replace('\\', "\\\\")
        .replace('\t', "\\t")
        .replace('\n', "\\n")
}

/// Reopens an MDP over the store of a durable MDP that holds the records
/// `records` besides what its creation wrote.
fn reopen_mdp_with(records: &[(&str, &str)]) -> mdv::system::Result<()> {
    let schema = benchmark_schema();
    let mdp = Mdp::with_storage("m", Database::new(), schema.clone())?;
    let mut store = mdp.engine().storage().clone();
    for (key, fields) in records {
        let row = vec![Value::Str((*key).into()), Value::Str((*fields).into())];
        store.insert("SysState", row).unwrap();
    }
    Mdp::reopen("m", schema, store, 10).map(|_| ())
}

/// Reopens an LMR over the store of a durable LMR that holds the record
/// `(key, fields)` besides what its creation wrote.
fn reopen_lmr_with(key: &str, fields: &str) -> mdv::system::Result<()> {
    let schema = benchmark_schema();
    let lmr = Lmr::with_storage("l", "m", schema.clone(), Database::new())?;
    let mut store = lmr.storage().clone();
    let row = vec![Value::Str(key.into()), Value::Str(fields.into())];
    store.insert("LmrState", row).unwrap();
    Lmr::reopen("l", "m", schema, store).map(|_| ())
}

/// `wire` truncated, with one byte changed, or with one line dropped.
fn damage(src: &mut Source, wire: &str) -> String {
    match src.usize_in(0..3) {
        0 => {
            let cut = src.usize_in(0..wire.len());
            let cut = (0..=cut).rev().find(|c| wire.is_char_boundary(*c)).unwrap();
            wire[..cut].to_owned()
        }
        1 => {
            let mut bytes = wire.as_bytes().to_vec();
            let at = src.usize_in(0..bytes.len());
            bytes[at] = if bytes[at] == b'x' { b'y' } else { b'x' };
            String::from_utf8_lossy(&bytes).into_owned()
        }
        _ => {
            let lines: Vec<&str> = wire.lines().collect();
            let dropped = src.usize_in(0..lines.len());
            let kept = lines.iter().enumerate().filter(|(k, _)| *k != dropped);
            kept.map(|(_, line)| format!("{line}\n")).collect()
        }
    }
}

property! {
    /// The rule parser never panics.
    fn rule_parser_never_panics(src) cases = 256; {
        let input = arb_garbage(src);
        let _ = parse_rule(&input);
    }

    /// The full subscription pipeline (parse → split → normalize →
    /// typecheck → decompose → merge) never panics, whatever the input.
    fn subscription_pipeline_never_panics(src) cases = 256; {
        let input = arb_garbage(src);
        let mut engine = FilterEngine::new(benchmark_schema());
        let _ = engine.register_subscription(&input);
        // the engine stays usable afterwards
        let _ = engine.register_subscription(
            "search CycleProvider c register c where c.serverPort > 1",
        );
    }

    /// The XML parser never panics.
    fn xml_parser_never_panics(src) cases = 256; {
        let input = arb_xmlish(src);
        let _ = xml::parse(&input);
    }

    /// The RDF document parser never panics.
    fn rdf_parser_never_panics(src) cases = 256; {
        let input = arb_xmlish(src);
        let _ = parse_document("fuzz.rdf", &input);
    }

    /// The schema-text parser never panics.
    fn schema_parser_never_panics(src) cases = 256; {
        let input = src.printable(0..81);
        let _ = parse_schema(&input);
    }

    /// LMR queries over an empty cache never panic.
    fn lmr_query_never_panics(src) cases = 256; {
        let input = arb_garbage(src);
        let lmr = mdv::system::Lmr::new("l", "m", benchmark_schema());
        let _ = lmr.query(&input);
    }

    /// A truncated or garbled envelope wire form — what the `outbox` state
    /// records hold — is an error: decoded directly, or reopened into an
    /// MDP.
    fn damaged_envelope_rows_are_errors(src) cases = 256; {
        let msg = arb_envelope(src);
        let wire = msg.to_wire();
        prop_assert!(PublishMsg::from_wire(&wire).is_ok());
        let damaged = damage(src, &wire);
        prop_assert!(PublishMsg::from_wire(&damaged).is_err(), "decoded {damaged:?}");

        let outbox = format!("outbox l\t{}", msg.seq);
        let rebuilds = |wire: &str| reopen_mdp_with(&[(&outbox, &escaped(wire))]).is_ok();
        prop_assert!(rebuilds(&wire));
        prop_assert!(!rebuilds(&damaged), "an MDP reopened over {damaged:?}");
    }

    /// A placement table whose shard count is `u64::MAX` — what a damaged
    /// `placement` record or export line may hold — is an error: decoded
    /// directly, imported or reopened into an MDP.
    fn damaged_placement_wire_is_an_error(src) cases = 64; {
        let mdps: Vec<String> = (0..src.usize_in(1..5)).map(|i| format!("m{i}")).collect();
        let (shards, factor, epoch) = (src.usize_in(1..128), src.usize_in(1..4), src.u64_in(0..100));
        let wire = PlacementTable::compute(&mdps, shards, factor, epoch).to_wire();
        prop_assert!(PlacementTable::from_wire(&wire).is_ok());
        let (max, mut fields) = (u64::MAX.to_string(), wire.split('\t').collect::<Vec<_>>());
        fields[2] = &max; // epoch, factor, shards, mdps
        let damaged = fields.join("\t");
        prop_assert!(PlacementTable::from_wire(&damaged).is_err(), "decoded {damaged:?}");
        let export = format!("#mdv-mdp-state v3\nplacement {}\n", escaped(&damaged));
        prop_assert!(Mdp::new("m", benchmark_schema()).import_state(&export).is_err());
        prop_assert!(reopen_mdp_with(&[("placement", &escaped(&damaged))]).is_err());
    }

    /// State import decodes what a Raft InstallSnapshot carries off the
    /// wire: garbage, and MDP and LMR exports truncated, with a byte
    /// changed or with a line dropped, import or fail with a typed error —
    /// never a panic.
    fn state_import_never_panics(src) cases = 256; {
        let mut sys = MdvSystem::new(common::schema());
        sys.add_mdp("m").unwrap();
        sys.add_lmr("l", "m").unwrap();
        let rule = sys.subscribe("l", "search CycleProvider c register c").unwrap();
        sys.subscribe("l", "search ServerInformation s register s where s.memory > 64")
            .unwrap();
        sys.unsubscribe("l", rule).unwrap();
        let host = src.printable(0..20);
        sys.register_document("m", &common::provider(0, &host, 128, 700)).unwrap();
        sys.register_document("m", &common::provider(1, "a.org", 32, 400)).unwrap();
        sys.register_local_metadata("l", &common::provider(2, &host, 1, 1)).unwrap();
        let mdp_state = sys.mdp("m").unwrap().export_state();
        let lmr_state = sys.lmr("l").unwrap().export_state();

        let mdp_input = match src.usize_in(0..3) {
            0 => src.printable(0..80),
            1 => format!("#mdv-mdp-state v3\n{}", arb_garbage(src)),
            _ => damage(src, &mdp_state),
        };
        let _ = Mdp::new("m", common::schema()).import_state(&mdp_input);
        let lmr_input = match src.usize_in(0..3) {
            0 => src.printable(0..80),
            1 => format!("#mdv-lmr-state v3\n{}", arb_garbage(src)),
            _ => damage(src, &lmr_state),
        };
        let _ = Lmr::new("l", "m", common::schema()).import_state(&lmr_input);
    }

    /// The whole 3-tier system never panics or spins forever under a
    /// random fault plan: every operation — valid or garbage, on any node —
    /// still runs to quiescence, and logical time stays bounded.
    fn system_tier_never_panics_under_faults(src) cases = 64; {
        let mut config = NetConfig {
            faults: FaultPlan {
                seed: src.bits(),
                default_link: LinkFaults {
                    drop_prob: src.f64_in(0.0..0.30),
                    dup_prob: src.f64_in(0.0..0.30),
                    jitter_ms: src.u64_in(0..50),
                    spike_prob: src.f64_in(0.0..0.20),
                    spike_ms: src.u64_in(0..200),
                },
                ..FaultPlan::default()
            },
            ..NetConfig::default()
        };
        if src.bool() {
            let from = src.u64_in(0..500);
            let until = from + src.u64_in(1..500);
            config.faults.partition_both("m1", "l1", from, until);
        }

        let mut sys = MdvSystem::with_net_config(common::schema(), config);
        sys.add_mdp("m1").unwrap();
        sys.add_mdp("m2").unwrap(); // reliable MDP↔MDP replication
        sys.add_lmr("l1", "m1").unwrap();
        sys.add_lmr("l2", "m2").unwrap();
        if src.bool() {
            // arm failover so node failures also exercise LMR re-homing
            sys.set_backup_mdp("l1", "m2").unwrap();
            sys.set_backup_mdp("l2", "m1").unwrap();
        }

        let mut rule_ids: Vec<(String, u64)> = Vec::new();
        for _ in 0..src.u64_in(1..20) {
            let mdp = (*src.choose(&["m1", "m2"])).to_owned();
            let lmr = (*src.choose(&["l1", "l2"])).to_owned();
            match src.weighted(&[4, 2, 2, 2, 1, 1, 2]) {
                0 => {
                    let i = src.u64_in(0..6) as usize;
                    let doc = common::provider(i, "n.hub.org", src.i64_in(0..200), 500);
                    let _ = sys.register_document(&mdp, &doc);
                }
                1 => {
                    let i = src.u64_in(0..6) as usize;
                    let doc = common::provider(i, "n.edge.org", src.i64_in(0..200), 700);
                    let _ = sys.update_document(&mdp, &doc);
                }
                2 => {
                    let i = src.u64_in(0..6);
                    let _ = sys.delete_document(&mdp, &format!("doc{i}.rdf"));
                }
                3 => {
                    if let Ok(id) = sys.subscribe(
                        &lmr,
                        "search CycleProvider c register c \
                         where c.serverInformation.memory > 64",
                    ) {
                        rule_ids.push((lmr, id));
                    }
                }
                4 => {
                    // garbage rule: must fail cleanly, even mid-faults
                    let _ = sys.subscribe(&lmr, &arb_garbage(src));
                }
                5 => {
                    if let Some(pick) = rule_ids.pop() {
                        let _ = sys.unsubscribe(&pick.0, pick.1);
                    } else {
                        let _ = sys.unsubscribe(&lmr, src.bits());
                    }
                }
                _ => {
                    // flip the node's liveness: fail it if up, heal it if
                    // down — operations against a down MDP must fail
                    // cleanly, never wedge quiescence
                    if sys.is_down(&mdp) {
                        let _ = sys.heal_mdp(&mdp);
                    } else {
                        let _ = sys.fail_mdp(&mdp);
                    }
                }
            }
        }
        for m in ["m1", "m2"] {
            if sys.is_down(m) {
                let _ = sys.heal_mdp(m);
            }
        }
        let stats = sys.network_stats();
        prop_assert!(
            stats.clock_ms < 200_000,
            "logical time ran away: {:?}",
            stats
        );
    }

    /// The durable tier survives arbitrary interleavings of crash-restarts,
    /// fail/heal cycles, and rule churn under faults: no panic, no wedged
    /// quiescence, and logical time stays bounded.
    fn durable_tier_never_panics_under_crashes_and_failures(src) cases = 16; {
        let root = scratch();
        let config = NetConfig {
            faults: FaultPlan {
                seed: src.bits(),
                default_link: LinkFaults {
                    drop_prob: src.f64_in(0.0..0.25),
                    dup_prob: src.f64_in(0.0..0.25),
                    jitter_ms: src.u64_in(0..30),
                    spike_prob: 0.0,
                    spike_ms: 0,
                },
                ..FaultPlan::default()
            },
            ..NetConfig::default()
        };
        let mut sys: MdvSystem<DurableEngine> =
            MdvSystem::durable_with_net_config(common::schema(), config);
        sys.add_mdp_durable("m1", root.join("m1")).unwrap();
        sys.add_mdp_durable("m2", root.join("m2")).unwrap();
        sys.add_lmr_durable("l1", "m1", root.join("l1")).unwrap();
        sys.set_backup_mdp("l1", "m2").unwrap();

        let mut rule_ids: Vec<u64> = Vec::new();
        for _ in 0..src.u64_in(1..14) {
            let mdp = (*src.choose(&["m1", "m2"])).to_owned();
            match src.weighted(&[4, 2, 2, 2, 2, 2]) {
                0 => {
                    let i = src.u64_in(0..5) as usize;
                    let doc = common::provider(i, "n.hub.org", src.i64_in(0..200), 500);
                    let _ = sys.register_document(&mdp, &doc);
                }
                1 => {
                    let i = src.u64_in(0..5);
                    let _ = sys.delete_document(&mdp, &format!("doc{i}.rdf"));
                }
                2 => {
                    if let Ok(id) = sys.subscribe(
                        "l1",
                        "search CycleProvider c register c \
                         where c.serverInformation.memory > 64",
                    ) {
                        rule_ids.push(id);
                    }
                }
                3 => {
                    if let Some(id) = rule_ids.pop() {
                        let _ = sys.unsubscribe("l1", id);
                    }
                }
                4 => {
                    // a crash-restart loses volatile state but must
                    // recover everything mirrored in the WAL
                    if !sys.is_down(&mdp) {
                        sys.crash_and_restart_mdp(&mdp).unwrap();
                    }
                }
                _ => {
                    if sys.is_down(&mdp) {
                        let _ = sys.heal_mdp(&mdp);
                    } else {
                        let _ = sys.fail_mdp(&mdp);
                    }
                }
            }
        }
        for m in ["m1", "m2"] {
            if sys.is_down(m) {
                let _ = sys.heal_mdp(m);
            }
        }
        let stats = sys.network_stats();
        prop_assert!(
            stats.clock_ms < 500_000,
            "logical time ran away: {:?}",
            stats
        );
        drop(sys);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Combined transport-fault × disk-fault torture (DESIGN.md §12): link
    /// loss, duplication and jitter run *concurrently* with injected disk
    /// faults — write errors, short writes, failed syncs, silent bit rot —
    /// plus raw garbage appended straight into store files and whole-disk
    /// crashes under every crash mode. Operations may fail with typed
    /// errors, nodes may become unrecoverable (detected corruption), but
    /// nothing may panic and logical time stays bounded.
    fn combined_transport_and_disk_faults_never_panic(src) cases = 12; {
        let config = NetConfig {
            faults: FaultPlan {
                seed: src.bits(),
                default_link: LinkFaults {
                    drop_prob: src.f64_in(0.0..0.25),
                    dup_prob: src.f64_in(0.0..0.25),
                    jitter_ms: src.u64_in(0..30),
                    spike_prob: 0.0,
                    spike_ms: 0,
                },
                ..FaultPlan::default()
            },
            ..NetConfig::default()
        };
        let disk = FaultVfs::new(src.bits());
        disk.arm(false); // the stores must at least finish creating
        let mut sys: MdvSystem<DurableEngine<FaultVfs>> =
            MdvSystem::durable_on(common::schema(), config);
        sys.add_mdp_durable_on("m1", "/m1", disk.clone()).unwrap();
        sys.add_lmr_durable_on("l1", "m1", "/l1", disk.clone()).unwrap();
        disk.set_plan(DiskFaultPlan {
            read_err: src.f64_in(0.0..0.05),
            write_err: src.f64_in(0.0..0.10),
            short_write: src.f64_in(0.0..0.10),
            sync_err: src.f64_in(0.0..0.10),
            corrupt: src.f64_in(0.0..0.05),
        });
        disk.arm(true);

        let mut rule_ids: Vec<u64> = Vec::new();
        for _ in 0..src.u64_in(1..14) {
            match src.weighted(&[4, 2, 2, 2, 1, 1]) {
                0 => {
                    let i = src.u64_in(0..5) as usize;
                    let doc = common::provider(i, "n.hub.org", src.i64_in(0..200), 500);
                    let _ = sys.register_document("m1", &doc);
                }
                1 => {
                    let i = src.u64_in(0..5);
                    let _ = sys.delete_document("m1", &format!("doc{i}.rdf"));
                }
                2 => {
                    match sys.subscribe(
                        "l1",
                        "search CycleProvider c register c \
                         where c.serverInformation.memory > 64",
                    ) {
                        Ok(id) => rule_ids.push(id),
                        Err(_) => {
                            if let Some(id) = rule_ids.pop() {
                                let _ = sys.unsubscribe("l1", id);
                            }
                        }
                    }
                }
                3 => {
                    // a whole-disk crash under a random mode, then both
                    // nodes reopen from whatever survived; recovery may
                    // refuse (typed) when bit rot landed in the wrong place
                    disk.crash(*src.choose(&CRASH_MODES));
                    let _ = sys.crash_and_restart_mdp("m1");
                    let _ = sys.crash_and_restart_lmr("l1");
                    let _ = sys.run_to_quiescence();
                }
                4 => {
                    // raw garbage appended straight into a random store
                    // file, as an external writer (or firmware bug) would
                    let files: Vec<std::path::PathBuf> =
                        disk.dump().keys().cloned().collect();
                    if !files.is_empty() {
                        let path = files[src.usize_in(0..files.len())].clone();
                        let garbage = src.bytes(1..24);
                        if let Ok(mut f) = disk.open_append(&path, false) {
                            let _ = f.append(&garbage);
                            let _ = f.sync();
                        }
                    }
                }
                _ => {
                    let _ = sys.run_to_quiescence();
                }
            }
        }
        // the wedged-or-corrupt end state is acceptable; an unbounded clock
        // or a panic is not. When a restart refuses its recovery oracle the
        // node stays gone and every later quiescence call burns its full
        // stall budget against the ghost (256 rounds x 1600 ms retry cap
        // ~ 410 s of virtual time per call, up to 15 calls), so the bound
        // proves terminating pumps rather than a quiet network.
        let _ = sys.run_to_quiescence();
        let stats = sys.network_stats();
        prop_assert!(
            stats.clock_ms < 10_000_000,
            "logical time ran away: {:?}",
            stats
        );
        // restart on a healed disk: whatever state the fault schedule left
        // behind must either reopen or fail with a typed error
        disk.arm(false);
        disk.crash(CrashMode::DurableOnly);
        let _ = sys.crash_and_restart_mdp("m1");
        let _ = sys.crash_and_restart_lmr("l1");
        let _ = sys.run_to_quiescence();
    }

    /// The Raft-replicated backbone never panics and never wedges the
    /// logical clock, whatever the fault plan throws at it: random loss,
    /// duplication, jitter, timed partitions between voters, fail/heal
    /// cycles, full crash-restarts, and garbage rule text — all interleaved.
    /// Writes may fail `Unavailable` while no quorum is reachable; nothing
    /// may panic or spin.
    fn raft_tier_never_panics_under_faults_and_crashes(src) cases = 12; {
        let root = scratch();
        let voters = ["m1", "m2", "m3"];
        let mut config = NetConfig {
            faults: FaultPlan {
                seed: src.bits(),
                default_link: LinkFaults {
                    drop_prob: src.f64_in(0.0..0.25),
                    dup_prob: src.f64_in(0.0..0.25),
                    jitter_ms: src.u64_in(0..30),
                    spike_prob: 0.0,
                    spike_ms: 0,
                },
                ..FaultPlan::default()
            },
            ..NetConfig::default()
        };
        if src.bool() {
            let a = *src.choose(&voters);
            let b = *src.choose(&voters);
            if a != b {
                let from = src.u64_in(0..2_000);
                config.faults.partition_both(a, b, from, from + src.u64_in(1..3_000));
            }
        }
        let mut sys: MdvSystem<DurableEngine> =
            MdvSystem::durable_with_net_config(common::schema(), config);
        sys.enable_raft(src.bits()).unwrap();
        for m in voters {
            sys.add_mdp_durable(m, root.join(m)).unwrap();
        }
        sys.add_lmr_durable("l1", "m1", root.join("l1")).unwrap();

        let mut rule_ids: Vec<u64> = Vec::new();
        for _ in 0..src.u64_in(1..12) {
            let mdp = (*src.choose(&voters)).to_owned();
            match src.weighted(&[4, 2, 2, 1, 2, 2]) {
                0 => {
                    let i = src.u64_in(0..5) as usize;
                    let doc = common::provider(i, "n.hub.org", src.i64_in(0..200), 500);
                    let _ = sys.register_document(&mdp, &doc);
                }
                1 => {
                    let i = src.u64_in(0..5);
                    let _ = sys.delete_document(&mdp, &format!("doc{i}.rdf"));
                }
                2 => {
                    if let Ok(id) = sys.subscribe(
                        "l1",
                        "search CycleProvider c register c \
                         where c.serverInformation.memory > 64",
                    ) {
                        rule_ids.push(id);
                    }
                }
                3 => {
                    // garbage rule text must fail cleanly through the log too
                    let _ = sys.subscribe("l1", &arb_garbage(src));
                    if let Some(id) = rule_ids.pop() {
                        let _ = sys.unsubscribe("l1", id);
                    }
                }
                4 => {
                    if !sys.is_down(&mdp) {
                        sys.crash_and_restart_mdp(&mdp).unwrap();
                    }
                }
                _ => {
                    if sys.is_down(&mdp) {
                        let _ = sys.heal_mdp(&mdp);
                    } else {
                        let _ = sys.fail_mdp(&mdp);
                    }
                }
            }
        }
        for m in voters {
            if sys.is_down(m) {
                let _ = sys.heal_mdp(m);
            }
        }
        let stats = sys.network_stats();
        prop_assert!(
            stats.clock_ms < 500_000,
            "logical time ran away: {:?}",
            stats
        );
        drop(sys);
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Linearizability smoke for the Raft backbone: once a registration has
/// been acknowledged (committed through the log), it survives *any* single
/// voter crash-restarting — including the leader that acknowledged it —
/// and stays readable at every voter.
#[test]
fn raft_committed_registration_survives_any_single_node_crash() {
    for crashed in ["m1", "m2", "m3"] {
        let root = scratch();
        let mut sys: MdvSystem<DurableEngine> = MdvSystem::new_durable(common::schema());
        sys.enable_raft(99).unwrap();
        for m in ["m1", "m2", "m3"] {
            sys.add_mdp_durable(m, root.join(m)).unwrap();
        }
        let doc = common::provider(0, "a.hub.org", 128, 700);
        sys.register_document("m1", &doc).unwrap(); // acknowledged = committed
        sys.crash_and_restart_mdp(crashed).unwrap();
        sys.run_to_quiescence().unwrap();
        for m in ["m1", "m2", "m3"] {
            assert!(
                sys.mdp(m).unwrap().engine().document("doc0.rdf").is_some(),
                "committed doc0 lost on {m} after {crashed} crash-restarted"
            );
        }
        // the backbone still accepts and commits new writes
        sys.register_document(crashed, &common::provider(1, "b.hub.org", 96, 650))
            .unwrap();
        assert!(sys.backbone_converged());
        drop(sys);
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// One damaged record of every tag of both grammars, an unknown tag, and
/// well-formed records of the kinds no longer written (the replication
/// floor and the early arrivals receivers once kept) in a durable node's
/// state table: rebuilding the MDP or reopening the LMR is a typed error,
/// never a panic and never a partial guess.
#[test]
fn a_damaged_record_of_every_tag_fails_recovery() {
    let envelope = escaped(&PublishMsg::default().to_wire());
    let xml = escaped(&write_document(&Document::new("d.rdf")));
    let live = format!("1\t0\t{xml}");
    // a live document and a tombstone reopen
    for doc in [live.as_str(), "2\t1"] {
        reopen_mdp_with(&[("doc d.rdf", doc)]).unwrap();
    }
    let replout = format!("d.rdf\t{live}");
    reopen_mdp_with(&[("replout m2\t0", &replout)]).unwrap();
    let on_a_tombstone = format!("2\t1\t{xml}");
    let mdp = [
        ("pubseq l", "x"),
        ("replseq m2", ""),
        ("placement", "1\tx"),
        ("placement", "1\t2\t18446744073709551615\tm"),
        ("doc d.rdf", "<rdf"),
        ("doc d.rdf", "x\t0\t<rdf:RDF/>"),
        ("doc d.rdf", "1\t2\t<rdf:RDF/>"),
        ("doc d.rdf", "1\t0"),
        ("doc d.rdf", on_a_tombstone.as_str()),
        ("doc d.rdf", "1\t0\t<rdf"),
        ("subscription l\t0", "search Nope n register n"),
        ("retired l\tx", ""),
        ("outbox l\t0", "envelope 0"),
        ("replout m2\t0", "d.rdf\t1\tx"),
        ("replout m2\t0", "move\t1\td.rdf\t"),
        ("raft", "1\tm2\tx\t0\t0\t0\t0"),
        ("raftlog 1", "1\tnoop"),
        ("wat", ""),
        ("replfloor m2", "3"),
        ("replbuf m2\t0", "register\t1\td.rdf\t<rdf:RDF/>"),
        // the split document records of MDP state v3, well formed
        ("docver d.rdf", "1\t0"),
        ("document d.rdf", xml.as_str()),
    ];
    for (key, fields) in mdp {
        assert!(
            reopen_mdp_with(&[(key, fields)]).is_err(),
            "an MDP reopened over {key:?} {fields:?}"
        );
    }
    // the Raft records: a whole hard state and log reopen, a damaged entry
    // or a gap in the log does not
    let hard = ("raft", "2\tm2\t1,2\t1\t7\t0\t0");
    assert!(reopen_mdp_with(&[hard, ("raftlog 1", "1\tnoop"), ("raftlog 2", "2\tnoop")]).is_ok());
    for log in [
        [("raftlog 1", "1\tnoop"), ("raftlog 3", "2\tnoop")],
        [("raftlog 1", "x\tnoop"), ("raftlog 2", "2\tnoop")],
        [("raftlog 1", "1\tnoop"), ("raftlog 2", "2")],
    ] {
        assert!(
            reopen_mdp_with(&[hard, log[0], log[1]]).is_err(),
            "an MDP reopened over the log {log:?}"
        );
    }
    let lmr = [
        ("pubseq", "x"),
        ("nextrule", ""),
        ("home", "m"),
        ("placement", "x"),
        ("altseq m2", "x"),
        ("rule 0", "gone\tsearch CycleProvider c register c"),
        ("dead x", ""),
        ("local d.rdf", "<rdf"),
        ("match d.rdf#h\tx", ""),
        ("wat", ""),
        ("pubbuf 0", envelope.as_str()),
    ];
    for (key, fields) in lmr {
        assert!(
            reopen_lmr_with(key, fields).is_err(),
            "an LMR reopened over {key:?} {fields:?}"
        );
    }
}
