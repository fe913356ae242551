//! The LMR's incremental garbage collector against a full sweep and a
//! from-scratch model (DESIGN.md §7.4).
//!
//! `Lmr::apply_publish` hands the collector only the URIs whose anchoring a
//! publication touched. The property below drives one LMR with arbitrary
//! publication streams — far looser than what an MDP builds: companions
//! nobody references, removals of what was never matched, snapshots, stale
//! and reordered sequence numbers — and after **every** step requires that
//! a full sweep finds nothing left to evict, that the cache holds exactly
//! what a model recomputing every anchor from the cached rows keeps, and
//! that the tracker's incrementally kept counts equal the recomputed ones.

use std::collections::{BTreeMap, BTreeSet};

use mdv_rdf::{Document, RdfSchema, Resource, Term, UriRef};
use mdv_relstore::DurableEngine;
use mdv_runtime::channel::Receiver;
use mdv_system::{Envelope, Lmr, MdvSystem, Message, NetConfig, Network, PublishMsg};
use mdv_testkit::{prop_assert_eq, property, Source, TestResult};

const UNIVERSE: usize = 7;
const RULES: u64 = 4;
const STRONG: [&str; 2] = ["next", "also"];

fn schema() -> RdfSchema {
    RdfSchema::builder()
        .class("Node", |c| {
            c.str("tag")
                .strong_ref("next", "Node")
                .strong_ref("also", "Node")
                .weak_ref("peer", "Node")
        })
        .build()
        .unwrap()
}

fn uri(k: usize) -> UriRef {
    UriRef::new(&format!("d{k}.rdf"), "n")
}

fn node(k: usize, tag: &str, next: Option<usize>) -> Resource {
    let res = Resource::new(uri(k), "Node").with("tag", Term::literal(tag));
    match next {
        Some(t) => res.with("next", Term::resource(uri(t))),
        None => res,
    }
}

/// A random copy of node `k`. Few distinct contents per URI, so byte-equal
/// re-deliveries are common; `next` mostly points at the successor, so
/// strong chains run deep and close into cycles.
fn any_node(src: &mut Source, k: usize) -> Resource {
    let next = src.bool_with(0.6).then(|| {
        if src.bool_with(0.7) {
            (k + 1) % UNIVERSE
        } else {
            src.usize_in(0..UNIVERSE)
        }
    });
    let tag: &&str = src.choose(&["a", "b"]);
    let mut res = node(k, tag, next);
    if src.bool_with(0.25) {
        res.add("also", Term::resource(uri(src.usize_in(0..UNIVERSE))));
    }
    if src.bool_with(0.2) {
        res.add("peer", Term::resource(uri(src.usize_in(0..UNIVERSE))));
    }
    res
}

fn any_nodes(src: &mut Source, at_most: usize) -> Vec<Resource> {
    let n = src.usize_in(0..at_most + 1);
    (0..n)
        .map(|_| {
            let k = src.usize_in(0..UNIVERSE);
            any_node(src, k)
        })
        .collect()
}

fn any_publication(src: &mut Source) -> PublishMsg {
    let removed = src.usize_in(0..3);
    PublishMsg {
        seq: 0, // assigned on send
        lmr_rule: src.u64_in(0..RULES),
        matched: any_nodes(src, 3),
        companions: any_nodes(src, 3),
        updated: any_nodes(src, 2),
        removed: (0..removed)
            .map(|_| uri(src.usize_in(0..UNIVERSE)).to_string())
            .collect(),
        snapshot: src.bool_with(0.15),
    }
}

/// What the cache must hold, with no incremental state: every anchor is
/// recomputed from the cached rows each time.
#[derive(Default)]
struct Model {
    content: BTreeMap<String, Resource>,
    matches: BTreeSet<(String, u64)>,
    local: BTreeSet<String>,
    dead_rules: BTreeSet<u64>,
}

impl Model {
    fn strong_in_degree(&self) -> BTreeMap<String, usize> {
        let mut rc = BTreeMap::new();
        for res in self.content.values() {
            for (prop, term) in res.properties() {
                if STRONG.contains(&prop.as_str()) {
                    *rc.entry(term.lexical().to_owned()).or_insert(0) += 1;
                }
            }
        }
        rc
    }

    /// Reference counting from scratch (§2.4): drop what no rule matches,
    /// nothing cached strongly references and is not local, until nothing
    /// more goes. A strong cycle keeps itself alive, as counts do.
    fn collect(&mut self) {
        loop {
            let rc = self.strong_in_degree();
            let matched: BTreeSet<&String> = self.matches.iter().map(|(u, _)| u).collect();
            let garbage: Vec<String> = self
                .content
                .keys()
                .filter(|u| {
                    !self.local.contains(*u) && !matched.contains(u) && !rc.contains_key(*u)
                })
                .cloned()
                .collect();
            if garbage.is_empty() {
                return;
            }
            for u in garbage {
                self.content.remove(&u);
            }
        }
    }

    fn insert(&mut self, res: &Resource) {
        self.content.insert(res.uri().to_string(), res.clone());
    }

    fn apply(&mut self, msg: &PublishMsg) {
        let rule = msg.lmr_rule;
        if self.dead_rules.contains(&rule) {
            return;
        }
        if msg.snapshot {
            let listed: BTreeSet<String> =
                msg.matched.iter().map(|r| r.uri().to_string()).collect();
            self.matches
                .retain(|(u, r)| *r != rule || listed.contains(u));
        }
        for res in &msg.matched {
            self.insert(res);
            self.matches.insert((res.uri().to_string(), rule));
        }
        for res in msg.companions.iter().chain(&msg.updated) {
            self.insert(res);
        }
        for u in &msg.removed {
            self.matches.remove(&(u.clone(), rule));
        }
        self.collect();
    }

    fn unsubscribe(&mut self, rule: u64) {
        self.matches.retain(|(_, r)| *r != rule);
        self.dead_rules.insert(rule);
        self.collect();
    }
}

/// One LMR under test, the publications sent to it so far (index =
/// sequence number) and the model, which applies them in sequence order
/// as soon as the delivered prefix is contiguous — like the LMR's reorder
/// buffer.
struct Harness {
    net: Network,
    /// Where the LMR's acks land; nobody reads it.
    _mdp_mail: Receiver<Envelope>,
    lmr: Lmr,
    model: Model,
    sent: Vec<PublishMsg>,
    delivered: BTreeSet<u64>,
    applied: usize,
}

impl Harness {
    fn new() -> Self {
        let net = Network::new(NetConfig::default());
        let mdp_mail = net.register("mdp").unwrap();
        let mut lmr = Lmr::new("lmr", "mdp", schema());
        for _ in 0..RULES {
            lmr.subscribe("search Node n register n", &net).unwrap();
        }
        Harness {
            net,
            _mdp_mail: mdp_mail,
            lmr,
            model: Model::default(),
            sent: Vec::new(),
            delivered: BTreeSet::new(),
            applied: 0,
        }
    }

    /// Gives the publication the next sequence number without delivering it.
    fn number(&mut self, mut msg: PublishMsg) -> u64 {
        msg.seq = self.sent.len() as u64;
        self.sent.push(msg);
        self.sent.len() as u64 - 1
    }

    fn deliver(&mut self, seq: u64) {
        let env = Envelope {
            from: "mdp".into(),
            to: "lmr".into(),
            message: Message::Publish(self.sent[seq as usize].clone()),
            deliver_at_ms: 0,
        };
        self.lmr.handle(env, &self.net).unwrap();
        self.delivered.insert(seq);
        while self.delivered.contains(&(self.applied as u64)) {
            self.model.apply(&self.sent[self.applied]);
            self.applied += 1;
        }
    }

    fn publish(&mut self, msg: PublishMsg) {
        let seq = self.number(msg);
        self.deliver(seq);
    }

    /// The three per-step assertions.
    fn check(&mut self, step: &str) -> TestResult {
        let (lmr, model) = (&mut self.lmr, &self.model);
        let cached = lmr.cached_uris();
        prop_assert_eq!(
            lmr.collect_garbage().unwrap(),
            0,
            "after {step}: a full sweep found garbage the handler left behind"
        );
        let expected: Vec<String> = model.content.keys().cloned().collect();
        prop_assert_eq!(
            cached,
            expected,
            "after {step}: cache differs from the model"
        );
        let rc = model.strong_in_degree();
        let seen = cached.iter().chain(rc.keys());
        for u in seen {
            prop_assert_eq!(
                lmr.tracker().strong_count(u),
                rc.get(u).copied().unwrap_or(0),
                "after {step}: strong in-degree of {u}"
            );
            let rules: Vec<u64> = model
                .matches
                .iter()
                .filter(|(m, _)| m == u)
                .map(|(_, r)| *r)
                .collect();
            prop_assert_eq!(
                lmr.tracker().matching_rules(u),
                rules,
                "after {step}: match anchors of {u}"
            );
        }
        Ok(())
    }
}

property! {
    /// Arbitrary streams: the worklist collector leaves exactly what a full
    /// sweep and the from-scratch model leave, after every step.
    fn incremental_gc_matches_full_sweep_and_model(src) {
        let mut h = Harness::new();
        let mut locals = 0;
        let steps = src.usize_in(5..60);
        for step in 0..steps {
            match src.weighted(&[10, 3, 2, 2, 1, 1]) {
                0 => {
                    h.publish(any_publication(src));
                    h.check(&format!("step {step}: publication"))?;
                }
                1 if !h.sent.is_empty() => {
                    // the same content again under a fresh sequence number:
                    // every upsert meets a byte-equal copy unless something
                    // in between replaced or evicted it
                    let again = h.sent[src.usize_in(0..h.sent.len())].clone();
                    h.publish(again);
                    h.check(&format!("step {step}: identical re-publication"))?;
                }
                2 if !h.delivered.is_empty() => {
                    // a retransmitted copy: acked and discarded
                    let old = src.u64_in(0..h.applied as u64);
                    h.deliver(old);
                    h.check(&format!("step {step}: duplicate of seq {old}"))?;
                }
                3 => {
                    // two publications overtaking each other: the later one
                    // parks in the reorder buffer and changes nothing yet
                    let first = h.number(any_publication(src));
                    let second = h.number(any_publication(src));
                    h.deliver(second);
                    h.check(&format!("step {step}: parked seq {second}"))?;
                    h.deliver(first);
                    h.check(&format!("step {step}: gap closed by seq {first}"))?;
                }
                4 => {
                    let rule = src.u64_in(0..RULES);
                    if h.lmr.rule(rule).is_some() {
                        h.lmr.unsubscribe(rule, &h.net).unwrap();
                        h.model.unsubscribe(rule);
                        h.check(&format!("step {step}: unsubscribe of rule {rule}"))?;
                    }
                }
                5 => {
                    // local metadata anchors whatever it strongly references
                    let doc_uri = format!("local{locals}.rdf");
                    locals += 1;
                    let res = Resource::new(UriRef::new(&doc_uri, "n"), "Node")
                        .with("tag", Term::literal("local"))
                        .with("next", Term::resource(uri(src.usize_in(0..UNIVERSE))));
                    h.lmr
                        .register_local_metadata(&Document::new(doc_uri).with_resource(res.clone()))
                        .unwrap();
                    h.model.insert(&res);
                    h.model.local.insert(res.uri().to_string());
                    h.check(&format!("step {step}: local metadata"))?;
                }
                _ => {}
            }
        }
    }
}

fn matched(rule: u64, matched: Vec<Resource>, companions: Vec<Resource>) -> PublishMsg {
    PublishMsg {
        lmr_rule: rule,
        matched,
        companions,
        ..PublishMsg::default()
    }
}

fn removed(rule: u64, k: usize) -> PublishMsg {
    PublishMsg {
        lmr_rule: rule,
        removed: vec![uri(k).to_string()],
        ..PublishMsg::default()
    }
}

/// The shapes the random streams only usually reach, pinned: a strong chain
/// of depth 4 under a companion two heads share, and a strong cycle.
#[test]
fn chains_cascade_shared_companions_wait_and_cycles_stay() {
    let mut h = Harness::new();
    // 0 → 2 → 3 → 4 and 1 → 2: two matched heads share the tail
    let tail = vec![
        node(2, "a", Some(3)),
        node(3, "a", Some(4)),
        node(4, "a", None),
    ];
    h.publish(matched(0, vec![node(0, "a", Some(2))], tail.clone()));
    h.publish(matched(1, vec![node(1, "a", Some(2))], tail));
    h.check("two heads, one tail").unwrap();
    assert_eq!(h.lmr.cached_uris().len(), 5);

    h.publish(removed(0, 0));
    h.check("first head gone").unwrap();
    assert!(!h.lmr.is_cached(uri(0).as_str()));
    assert!(
        h.lmr.is_cached(uri(4).as_str()),
        "the other head still holds the tail"
    );

    h.publish(removed(1, 1));
    h.check("second head gone").unwrap();
    assert!(h.lmr.cached_uris().is_empty(), "the whole chain cascaded");

    // 5 → 6 → 5 under a matched 5: losing the match leaves the two holding
    // each other — reference counting does not collect cycles (§2.4), and
    // the worklist agrees with the sweep on that
    h.publish(matched(
        0,
        vec![node(5, "a", Some(6))],
        vec![node(6, "a", Some(5))],
    ));
    h.publish(removed(0, 5));
    h.check("unmatched cycle").unwrap();
    assert_eq!(
        h.lmr.cached_uris(),
        [uri(5).to_string(), uri(6).to_string()]
    );
    // breaking it frees both: 6's new copy drops its edge onto 5
    h.publish(PublishMsg {
        lmr_rule: 0,
        updated: vec![node(6, "a", None)],
        ..PublishMsg::default()
    });
    h.check("cycle broken").unwrap();
    assert!(h.lmr.cached_uris().is_empty());
}

/// On a durable LMR a publication that brings nothing new writes nothing
/// into the cache tables, and recovery rebuilds the same cache.
#[test]
fn identical_republication_appends_no_cache_rows_to_the_wal() {
    let root = std::env::temp_dir().join(format!("mdv-lmr-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let schema = RdfSchema::builder()
        .class("ServerInformation", |c| c.int("memory"))
        .class("CycleProvider", |c| {
            c.str("serverHost")
                .strong_ref("serverInformation", "ServerInformation")
        })
        .build()
        .unwrap();
    let mut sys: MdvSystem<DurableEngine> = MdvSystem::new_durable(schema);
    sys.add_mdp_durable("mdp", root.join("mdp")).unwrap();
    sys.add_lmr_durable("lmr", "mdp", root.join("lmr")).unwrap();
    let doc = Document::new("doc.rdf")
        .with_resource(
            Resource::new(UriRef::new("doc.rdf", "host"), "CycleProvider")
                .with("serverHost", Term::literal("a.org"))
                .with(
                    "serverInformation",
                    Term::resource(UriRef::new("doc.rdf", "info")),
                ),
        )
        .with_resource(
            Resource::new(UriRef::new("doc.rdf", "info"), "ServerInformation")
                .with("memory", Term::literal("92")),
        );
    sys.subscribe(
        "lmr",
        "search CycleProvider c register c where c.serverHost contains 'a'",
    )
    .unwrap();
    sys.register_document("mdp", &doc).unwrap();
    let cached = sys.lmr("lmr").unwrap().cached_uris();
    assert_eq!(cached, ["doc.rdf#host", "doc.rdf#info"]);

    // a second rule matching the same document: its initial fill ships host
    // and companion again, byte for byte
    let wal = |sys: &MdvSystem<DurableEngine>| {
        let store = sys.lmr("lmr").unwrap().storage();
        std::fs::read(store.dir().join(format!("wal-{}", store.epoch()))).unwrap()
    };
    let before = wal(&sys);
    sys.subscribe(
        "lmr",
        "search CycleProvider c register c where c.serverInformation.memory > 64",
    )
    .unwrap();
    let after = wal(&sys);
    let appended = &after[before.len()..];
    // a logged op names its table as a length-prefixed string
    let names = |table: &str| {
        let mut frame = (table.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(table.as_bytes());
        appended.windows(frame.len()).any(|w| w == frame)
    };
    assert!(names("LmrMatches"), "the new match anchor is logged");
    assert!(!names("Resources"), "no registry row rewritten");
    assert!(!names("Statements"), "no statement row rewritten");
    let lmr = sys.lmr("lmr").unwrap();
    assert_eq!(lmr.tracker().matching_rules("doc.rdf#host"), [0, 1]);
    assert_eq!(lmr.tracker().strong_count("doc.rdf#info"), 1);

    // recovery (which itself checks the replayed database byte for byte)
    sys.crash_and_restart_lmr("lmr").unwrap();
    sys.run_to_quiescence().unwrap();
    assert_eq!(sys.lmr("lmr").unwrap().cached_uris(), cached);
    assert_eq!(sys.collect_garbage_at("lmr").unwrap(), 0);
    sys.delete_document("mdp", "doc.rdf").unwrap();
    assert!(sys.lmr("lmr").unwrap().cached_uris().is_empty());
    let _ = std::fs::remove_dir_all(&root);
}
