//! The LMR's envelope apply and incremental garbage collector against a
//! full sweep, a from-scratch model, and the envelope's own deltas applied
//! one by one (DESIGN.md §7.4).
//!
//! `Lmr::apply_envelope` upserts what an envelope ships, moves the match
//! anchors of each delta, and hands the collector only the URIs it touched.
//! The first property drives one LMR with arbitrary envelope streams — far
//! looser than what an MDP builds: resources nobody references, removals of
//! what was never matched, snapshots, stale sequence numbers and early
//! arrivals the LMR must withhold — and after **every** step requires that
//! a full sweep finds nothing left to evict, that the cache holds exactly
//! what a model recomputing every anchor from the cached rows keeps, and
//! that the tracker's incrementally kept counts equal the recomputed ones.
//! The second sends every envelope whole to one LMR and one delta at a
//! time to a twin, and requires the two to agree after every step.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use mdv_rdf::{Document, RdfSchema, Resource, Term, UriRef};
use mdv_relstore::{Database, DurableEngine};
use mdv_runtime::channel::Receiver;
use mdv_system::{Envelope, Lmr, MdvSystem, Message, NetConfig, Network, PublishMsg, RuleDelta};
use mdv_testkit::{prop_assert_eq, property, run_property, Config, Source, TestResult};

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

fn any_uris(src: &mut Source, at_most: usize) -> Vec<String> {
    let n = src.usize_in(0..at_most + 1);
    (0..n)
        .map(|_| uri(src.usize_in(0..UNIVERSE)).to_string())
        .collect()
}

fn pick(src: &mut Source, from: &[String], at_most: usize) -> Vec<String> {
    if from.is_empty() {
        return Vec::new();
    }
    let n = src.usize_in(0..at_most + 1);
    (0..n).map(|_| src.choose(from).clone()).collect()
}

/// An arbitrary envelope: one content per carried URI, as on the wire, and
/// deltas that list any of them, in any role.
fn any_envelope(src: &mut Source) -> PublishMsg {
    let mut resources: Vec<Resource> = Vec::new();
    for _ in 0..src.usize_in(0..5) {
        let k = src.usize_in(0..UNIVERSE);
        if !resources.iter().any(|r| *r.uri() == uri(k)) {
            resources.push(any_node(src, k));
        }
    }
    let carried: Vec<String> = resources.iter().map(|r| r.uri().to_string()).collect();
    let rules = (0..src.usize_in(1..4))
        .map(|_| RuleDelta {
            lmr_rule: src.u64_in(0..RULES),
            matched: pick(src, &carried, 3),
            companions: pick(src, &carried, 3),
            updated: pick(src, &carried, 2),
            removed: any_uris(src, 2),
            snapshot: src.bool_with(0.15),
        })
        .collect();
    PublishMsg {
        alt: false,
        seq: 0, // assigned on send
        resources,
        rules,
    }
}

/// The nodes `res` strongly references.
fn strong_targets(res: &Resource) -> Vec<usize> {
    res.properties()
        .iter()
        .filter(|(prop, _)| STRONG.contains(&prop.as_str()))
        .filter_map(|(_, term)| (0..UNIVERSE).find(|k| uri(*k).as_str() == term.lexical()))
        .collect()
}

/// An envelope whose every delta ships the strong closure of what it
/// matches and updates, as an MDP builds them: the shape under which
/// applying it whole equals applying its deltas one by one.
fn any_closed_envelope(src: &mut Source) -> PublishMsg {
    let mut contents: BTreeMap<usize, Resource> = BTreeMap::new();
    let mut rules = Vec::new();
    for _ in 0..src.usize_in(1..5) {
        let pick_nodes = |src: &mut Source, at_most: usize| -> Vec<usize> {
            let n = src.usize_in(0..at_most + 1);
            (0..n).map(|_| src.usize_in(0..UNIVERSE)).collect()
        };
        let matched = pick_nodes(src, 2);
        let updated = pick_nodes(src, 2);
        let seeds = [matched.clone(), updated.clone(), pick_nodes(src, 1)].concat();
        let mut closure: Vec<usize> = Vec::new();
        let mut queue = VecDeque::from(seeds);
        while let Some(k) = queue.pop_front() {
            if closure.contains(&k) {
                continue;
            }
            closure.push(k);
            let content = contents.entry(k).or_insert_with(|| any_node(src, k));
            queue.extend(strong_targets(content));
        }
        let names =
            |ks: &[usize]| -> Vec<String> { ks.iter().map(|k| uri(*k).to_string()).collect() };
        let companions: Vec<usize> = closure
            .into_iter()
            .filter(|k| !matched.contains(k) && !updated.contains(k))
            .collect();
        rules.push(RuleDelta {
            lmr_rule: src.u64_in(0..RULES),
            matched: names(&matched),
            companions: names(&companions),
            updated: names(&updated),
            removed: any_uris(src, 2),
            snapshot: src.bool_with(0.15),
        });
    }
    PublishMsg {
        alt: false,
        seq: 0,
        resources: contents.into_values().collect(),
        rules,
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

    /// An envelope, as DESIGN.md §7.4 defines its effect: what live deltas
    /// ship goes in, then each live delta moves its rule's anchors in order,
    /// then one collection.
    fn apply(&mut self, msg: &PublishMsg) {
        let live: Vec<&RuleDelta> = msg
            .rules
            .iter()
            .filter(|d| !self.dead_rules.contains(&d.lmr_rule))
            .collect();
        let shipped: BTreeSet<&str> = live.iter().flat_map(|d| d.shipped()).collect();
        for res in &msg.resources {
            if shipped.contains(res.uri().as_str()) {
                self.insert(res);
            }
        }
        for d in live {
            let rule = d.lmr_rule;
            if d.snapshot {
                self.matches
                    .retain(|(u, r)| *r != rule || d.matched.contains(u));
            }
            for u in &d.matched {
                self.matches.insert((u.clone(), rule));
            }
            for u in &d.removed {
                self.matches.remove(&(u.clone(), rule));
            }
        }
        self.collect();
    }

    fn unsubscribe(&mut self, rule: u64) {
        self.matches.retain(|(_, r)| *r != rule);
        self.dead_rules.insert(rule);
        self.collect();
    }
}

/// One LMR under test, the envelopes sent to it so far (index = sequence
/// number) and the model, which applies an envelope when it arrives at the
/// floor, as the LMR does. An early arrival is neither acked nor applied;
/// the harness delivers it again once the gap closes, as the sender's
/// retransmission would. The LMR mirrors its state into its state table (in
/// memory), so the `match` records can be compared too.
struct Harness {
    net: Network,
    /// Where the LMR's acks land; nobody reads it.
    _mdp_mail: Receiver<Envelope>,
    lmr: Lmr,
    model: Model,
    sent: Vec<PublishMsg>,
    /// The floor: envelopes below it are applied.
    applied: usize,
    /// Early arrivals withheld so far.
    early: usize,
    locals: usize,
}

impl Harness {
    fn new() -> Self {
        let net = Network::new(NetConfig::default());
        let mdp_mail = net.register("mdp").unwrap();
        let mut lmr = Lmr::with_storage("lmr", "mdp", schema(), Database::new()).unwrap();
        for _ in 0..RULES {
            lmr.subscribe("search Node n register n", &net).unwrap();
        }
        Harness {
            net,
            _mdp_mail: mdp_mail,
            lmr,
            model: Model::default(),
            sent: Vec::new(),
            applied: 0,
            early: 0,
            locals: 0,
        }
    }

    /// Gives the envelope the next sequence number without delivering it.
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
        let floor = self.applied as u64;
        if seq == floor {
            self.model.apply(&self.sent[self.applied]);
            self.applied += 1;
        } else if seq > floor {
            self.early += 1;
        }
    }

    fn publish(&mut self, msg: PublishMsg) {
        let seq = self.number(msg);
        self.deliver(seq);
    }

    /// The envelope's deltas, each in an envelope of its own that carries
    /// exactly the resources the delta ships.
    fn publish_one_by_one(&mut self, msg: &PublishMsg) {
        for d in &msg.rules {
            let shipped: BTreeSet<&str> = d.shipped().collect();
            self.publish(PublishMsg {
                alt: false,
                seq: 0,
                resources: msg
                    .resources
                    .iter()
                    .filter(|r| shipped.contains(r.uri().as_str()))
                    .cloned()
                    .collect(),
                rules: vec![d.clone()],
            });
        }
    }

    fn unsubscribe(&mut self, rule: u64) {
        if self.lmr.rule(rule).is_some() {
            self.lmr.unsubscribe(rule, &self.net).unwrap();
            self.model.unsubscribe(rule);
        }
    }

    /// Local metadata, which anchors whatever it strongly references.
    fn register_local(&mut self, target: usize) {
        let doc_uri = format!("local{}.rdf", self.locals);
        self.locals += 1;
        let res = Resource::new(UriRef::new(&doc_uri, "n"), "Node")
            .with("tag", Term::literal("local"))
            .with("next", Term::resource(uri(target)));
        self.lmr
            .register_local_metadata(&Document::new(doc_uri).with_resource(res.clone()))
            .unwrap();
        self.model.insert(&res);
        self.model.local.insert(res.uri().to_string());
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

    /// Everything a cache comparison can see: cached rows, the tracker's
    /// counts and anchors over every URI in play, and the `match` records of
    /// the state table.
    fn observed(&self) -> Vec<String> {
        let lmr = &self.lmr;
        let mut out: Vec<String> = lmr
            .cached_uris()
            .iter()
            .map(|u| format!("row {:?}", lmr.cached_resource(u).unwrap()))
            .collect();
        let locals = (0..self.locals).map(|i| format!("local{i}.rdf#n"));
        for u in (0..UNIVERSE).map(|k| uri(k).to_string()).chain(locals) {
            out.push(format!(
                "{u}: strong {} rules {:?}",
                lmr.tracker().strong_count(&u),
                lmr.tracker().matching_rules(&u)
            ));
        }
        let mut anchors: Vec<String> = lmr
            .storage()
            .table("LmrState")
            .unwrap()
            .iter()
            .filter(|(_, row)| row[0].as_str().is_some_and(|k| k.starts_with("match ")))
            .map(|(_, row)| format!("LmrState {row:?}"))
            .collect();
        anchors.sort();
        out.extend(anchors);
        out
    }
}

/// The LMR that got each envelope whole and its twin that got the deltas
/// one by one agree, and each matches its model (which keeps deltas of
/// retracted rules out independently of the LMR's code) with nothing left
/// for a full sweep.
fn agree(whole: &mut Harness, split: &mut Harness, step: &str) -> TestResult {
    whole.check(step)?;
    split.check(step)?;
    prop_assert_eq!(
        whole.observed(),
        split.observed(),
        "after {step}: the envelope and its deltas one by one disagree"
    );
    Ok(())
}

/// Arbitrary streams: the worklist collector leaves exactly what a full
/// sweep and the from-scratch model leave, after every step. Returns the
/// early arrivals the LMR withheld.
fn gc_matches_full_sweep_and_model(src: &mut Source) -> Result<usize, String> {
    let mut h = Harness::new();
    let steps = src.usize_in(5..60);
    for step in 0..steps {
        match src.weighted(&[10, 3, 2, 2, 1, 1]) {
            0 => {
                h.publish(any_envelope(src));
                h.check(&format!("step {step}: envelope"))?;
            }
            1 if !h.sent.is_empty() => {
                // the same content again under a fresh sequence number:
                // every upsert meets a byte-equal copy unless something
                // in between replaced or evicted it
                let again = h.sent[src.usize_in(0..h.sent.len())].clone();
                h.publish(again);
                h.check(&format!("step {step}: identical re-publication"))?;
            }
            2 if h.applied > 0 => {
                // a retransmitted copy: acked and discarded
                let old = src.u64_in(0..h.applied as u64);
                h.deliver(old);
                h.check(&format!("step {step}: duplicate of seq {old}"))?;
            }
            3 => {
                // two envelopes overtaking each other: the later one is
                // withheld and changes nothing, and comes again once the
                // earlier one closed the gap
                let first = h.number(any_envelope(src));
                let second = h.number(any_envelope(src));
                h.deliver(second);
                h.check(&format!("step {step}: early seq {second}"))?;
                h.deliver(first);
                h.check(&format!("step {step}: gap closed by seq {first}"))?;
                h.deliver(second);
                h.check(&format!("step {step}: seq {second} again"))?;
            }
            4 => {
                let rule = src.u64_in(0..RULES);
                h.unsubscribe(rule);
                h.check(&format!("step {step}: unsubscribe of rule {rule}"))?;
            }
            5 => {
                h.register_local(src.usize_in(0..UNIVERSE));
                h.check(&format!("step {step}: local metadata"))?;
            }
            _ => {}
        }
    }
    Ok(h.early)
}

/// [`gc_matches_full_sweep_and_model`] over many cases, which between them
/// must still draw early arrivals.
#[test]
fn incremental_gc_matches_full_sweep_and_model() {
    let early = std::cell::Cell::new(0);
    let config = Config::from_env();
    run_property(
        "incremental_gc_matches_full_sweep_and_model",
        config,
        |src| {
            early.set(early.get() + gc_matches_full_sweep_and_model(src)?);
            Ok(())
        },
    );
    assert!(early.get() > 0, "no case drew an early arrival");
}

property! {
    /// Envelopes whose deltas each ship the strong closure of what they
    /// match and update — the ones an MDP builds — go whole to one LMR and
    /// one delta at a time to a twin: a URI matched in one delta and
    /// updated in another, removed by one rule and matched by the next,
    /// listed only by the delta of a retracted rule, or stripped by a
    /// snapshot delta. After every step the caches, the tracker's counts
    /// and `match` records are equal, and a full sweep evicts nothing.
    fn envelope_equals_its_rules_applied_one_by_one(src) {
        let (mut whole, mut split) = (Harness::new(), Harness::new());
        for step in 0..src.usize_in(3..40) {
            let what = match src.weighted(&[8, 1, 1]) {
                0 => {
                    let msg = any_closed_envelope(src);
                    split.publish_one_by_one(&msg);
                    whole.publish(msg);
                    "envelope"
                }
                1 => {
                    let rule = src.u64_in(0..RULES);
                    whole.unsubscribe(rule);
                    split.unsubscribe(rule);
                    "unsubscribe"
                }
                _ => {
                    let target = src.usize_in(0..UNIVERSE);
                    whole.register_local(target);
                    split.register_local(target);
                    "local metadata"
                }
            };
            agree(&mut whole, &mut split, &format!("step {step}: {what}"))?;
        }
    }
}

fn names(resources: &[Resource]) -> Vec<String> {
    resources.iter().map(|r| r.uri().to_string()).collect()
}

/// A one-delta envelope: `rule` matches `matched`, `companions` ship along.
fn matched(rule: u64, matched: Vec<Resource>, companions: Vec<Resource>) -> PublishMsg {
    let delta = RuleDelta {
        lmr_rule: rule,
        matched: names(&matched),
        companions: names(&companions),
        ..RuleDelta::default()
    };
    PublishMsg {
        alt: false,
        seq: 0,
        resources: [matched, companions].concat(),
        rules: vec![delta],
    }
}

fn removed(rule: u64, k: usize) -> PublishMsg {
    PublishMsg {
        rules: vec![RuleDelta {
            lmr_rule: rule,
            removed: vec![uri(k).to_string()],
            ..RuleDelta::default()
        }],
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
    let broken = node(6, "a", None);
    h.publish(PublishMsg {
        rules: vec![RuleDelta {
            lmr_rule: 0,
            updated: names(std::slice::from_ref(&broken)),
            ..RuleDelta::default()
        }],
        resources: vec![broken],
        ..PublishMsg::default()
    });
    h.check("cycle broken").unwrap();
    assert!(h.lmr.cached_uris().is_empty());
}

/// The envelope shapes the equivalence property names, pinned: each goes
/// whole to one LMR and delta by delta to a twin.
#[test]
fn envelope_shapes_agree_with_their_deltas_one_by_one() {
    let (mut whole, mut split) = (Harness::new(), Harness::new());
    let both = |whole: &mut Harness, split: &mut Harness, msg: PublishMsg, step: &str| {
        split.publish_one_by_one(&msg);
        whole.publish(msg);
        agree(whole, split, step).unwrap();
    };
    let delta = |lmr_rule: u64, matched: &[usize], companions: &[usize], updated: &[usize]| {
        let names = |ks: &[usize]| ks.iter().map(|k| uri(*k).to_string()).collect();
        RuleDelta {
            lmr_rule,
            matched: names(matched),
            companions: names(companions),
            updated: names(updated),
            ..RuleDelta::default()
        }
    };
    // 0 → 2 → 3 matched by rule 0; rule 1 updates 0 in the same envelope
    both(
        &mut whole,
        &mut split,
        PublishMsg {
            alt: false,
            seq: 0,
            resources: vec![
                node(0, "a", Some(2)),
                node(2, "a", Some(3)),
                node(3, "a", None),
            ],
            rules: vec![delta(0, &[0], &[2, 3], &[]), delta(1, &[], &[2, 3], &[0])],
        },
        "matched by one delta, updated by another",
    );
    // rule 0 lets go of 0, rule 1 takes it, now pointing at 4: whole, 0
    // never leaves the cache; one by one it goes (with 2 and 3) and comes
    // back with 4 — the same rows either way
    let mut handover = delta(1, &[0], &[4], &[]);
    handover.removed = Vec::new();
    let mut release = delta(0, &[], &[], &[]);
    release.removed = vec![uri(0).to_string()];
    both(
        &mut whole,
        &mut split,
        PublishMsg {
            alt: false,
            seq: 0,
            resources: vec![node(0, "b", Some(4)), node(4, "a", None)],
            rules: vec![release, handover],
        },
        "removed by one delta, matched by the next",
    );
    assert_eq!(
        whole.lmr.cached_uris(),
        [uri(0).to_string(), uri(4).to_string()]
    );
    // a retracted rule's delta alone ships 5 (and a new copy of 4): neither
    // lands
    whole.unsubscribe(3);
    split.unsubscribe(3);
    both(
        &mut whole,
        &mut split,
        PublishMsg {
            alt: false,
            seq: 0,
            resources: vec![node(4, "b", None), node(5, "a", None), node(6, "a", None)],
            rules: vec![delta(3, &[5], &[], &[4]), delta(2, &[6], &[], &[])],
        },
        "a retracted rule's delta alone ships a resource",
    );
    assert!(!whole.lmr.is_cached(uri(5).as_str()));
    let four = whole.lmr.cached_resource(uri(4).as_str()).unwrap().unwrap();
    assert_eq!(four.property("tag").unwrap().lexical(), "a");
    // rule 1's snapshot lists 6 only: its anchor on 0 goes, and 0 with 4
    // follows; rule 2 keeps 6
    let mut snapshot = delta(1, &[6], &[], &[]);
    snapshot.snapshot = true;
    both(
        &mut whole,
        &mut split,
        PublishMsg {
            alt: false,
            seq: 0,
            resources: vec![node(6, "a", None)],
            rules: vec![snapshot],
        },
        "a snapshot delta strips its rule's stale anchors",
    );
    assert_eq!(whole.lmr.cached_uris(), [uri(6).to_string()]);
    assert_eq!(whole.lmr.tracker().matching_rules(uri(6).as_str()), [1, 2]);
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
    let anchor = b"match doc.rdf#host\t1";
    assert!(
        appended.windows(anchor.len()).any(|w| w == anchor),
        "the new match anchor is logged"
    );
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
