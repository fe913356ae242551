//! Seeded input generator and by-construction oracle.
//!
//! Every document and rule of a run comes from here, drawn from one
//! [`Prng`] stream seeded by `--seed`. Documents have the Figure 1 shape
//! (a `CycleProvider` with a strong reference to its `ServerInformation`);
//! rules have the Figure 10 shapes (OID, COMP, PATH, JOIN) plus the two
//! `contains` shapes of the matching-scaling study. The generator keeps a
//! *model* of each document and rule — a handful of integers — and the
//! [`Oracle`] decides from the models alone which LMR must cache which
//! resource. The program under test only ever sees the generated text.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

use mdv_rdf::{Document, Resource, Term, UriRef};
use mdv_runtime::Prng;
use mdv_workload::documents::document_uri;
use mdv_workload::rules::{benchmark_rule, RuleType};

/// What the generator knows about one document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocModel {
    pub idx: u64,
    /// `ServerInformation.memory`: what PATH and JOIN rules select on.
    pub memory: i64,
    /// `CycleProvider.synthValue`: what COMP rules select on.
    pub synth: i64,
    /// `nodeN` in the host name; the region is `node % regions`.
    pub node: u64,
    pub region: u64,
    /// Bumped by every update, carried in `serverPort`, so an update always
    /// changes content even when it changes no match.
    pub rev: u64,
}

impl DocModel {
    pub fn uri(&self) -> String {
        document_uri(self.idx)
    }

    pub fn host_uri(&self) -> String {
        format!("{}#host", self.uri())
    }

    pub fn info_uri(&self) -> String {
        format!("{}#info", self.uri())
    }

    pub fn document(&self) -> Document {
        let uri = self.uri();
        Document::new(uri.clone())
            .with_resource(
                Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
                    .with(
                        "serverHost",
                        Term::literal(format!(
                            "node{}.region{}.grid.uni-passau.de",
                            self.node, self.region
                        )),
                    )
                    .with(
                        "serverPort",
                        Term::literal((5000 + self.rev % 1000).to_string()),
                    )
                    .with("synthValue", Term::literal(self.synth.to_string()))
                    .with(
                        "serverInformation",
                        Term::resource(UriRef::new(&uri, "info")),
                    ),
            )
            .with_resource(
                Resource::new(UriRef::new(&uri, "info"), "ServerInformation")
                    .with("memory", Term::literal(self.memory.to_string()))
                    .with("cpu", Term::literal("600")),
            )
    }
}

/// What the generator knows about one rule. Every rule registers the
/// `CycleProvider` of a document, so a match always caches `#host` and —
/// through the strong reference — `#info`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RuleModel {
    /// `c = 'benchN.rdf#host'`
    Oid(u64),
    /// `c.synthValue > t`
    Comp(i64),
    /// `c.serverInformation.memory = m`
    Path(i64),
    /// PATH plus `serverHost contains 'uni-passau.de'` and `cpu = 600`,
    /// which every generated document satisfies.
    Join(i64),
    /// `c.serverHost contains '.regionF.grid'`
    Region(u64),
    /// `c.serverHost contains 'nodeN.regionF.grid'`
    Node { node: u64, region: u64 },
}

impl RuleModel {
    pub fn text(&self) -> String {
        match self {
            RuleModel::Oid(i) => benchmark_rule(RuleType::Oid, *i),
            RuleModel::Comp(t) => benchmark_rule(RuleType::Comp, *t as u64),
            RuleModel::Path(m) => benchmark_rule(RuleType::Path, *m as u64),
            RuleModel::Join(m) => benchmark_rule(RuleType::Join, *m as u64),
            RuleModel::Region(f) => format!(
                "search CycleProvider c register c where c.serverHost contains '.region{f}.grid'"
            ),
            RuleModel::Node { node, region } => format!(
                "search CycleProvider c register c \
                 where c.serverHost contains 'node{node}.region{region}.grid'"
            ),
        }
    }

    pub fn matches(&self, d: &DocModel) -> bool {
        match self {
            RuleModel::Oid(i) => d.idx == *i,
            RuleModel::Comp(t) => d.synth > *t,
            RuleModel::Path(m) | RuleModel::Join(m) => d.memory == *m,
            RuleModel::Region(f) => d.region == *f,
            RuleModel::Node { node, .. } => d.node == *node,
        }
    }

    pub fn is_join_shaped(&self) -> bool {
        matches!(self, RuleModel::Path(_) | RuleModel::Join(_))
    }
}

/// Value spaces documents are drawn from.
#[derive(Debug, Clone)]
pub struct Shape {
    pub memory_space: i64,
    /// `synthValue` is drawn from this range with probability
    /// `synth_hit` and is 0 — below every COMP threshold — otherwise.
    pub synth: Range<i64>,
    pub synth_hit: f64,
    pub nodes: u64,
    pub regions: u64,
    /// Range of document indices OID rules point into.
    pub docs: u64,
}

/// How many rules of each shape a rule base holds.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleCounts {
    pub oid: usize,
    pub comp: usize,
    pub path: usize,
    pub join: usize,
    pub region: usize,
    pub node: usize,
}

impl RuleCounts {
    pub fn total(&self) -> usize {
        self.oid + self.comp + self.path + self.join + self.region + self.node
    }

    /// Every count divided by `by`, keeping at least one rule of each
    /// shape that was present (`--smoke`).
    pub fn scaled_down(&self, by: usize) -> RuleCounts {
        let s = |n: usize| if n == 0 { 0 } else { (n / by).max(1) };
        RuleCounts {
            oid: s(self.oid),
            comp: s(self.comp),
            path: s(self.path),
            join: s(self.join),
            region: s(self.region),
            node: s(self.node),
        }
    }
}

/// `count` distinct values below `space`, in seeded order (values repeat
/// only when `count` exceeds `space`).
fn distinct(rng: &mut Prng, count: usize, space: u64) -> Vec<u64> {
    let mut values: Vec<u64> = (0..space).collect();
    rng.shuffle(&mut values);
    values.into_iter().cycle().take(count).collect()
}

/// The rule base in subscription order. Constants of one shape are
/// distinct, as in the paper (where OID, PATH and JOIN rules match exactly
/// one document): COMP thresholds are `0..comp`, region families
/// `0..region`, and the other shapes draw without replacement from the
/// document value spaces — PATH and JOIN share one draw — so a document
/// matches a rule of that shape with probability `count / space` and never
/// two.
pub fn rule_base(rng: &mut Prng, counts: &RuleCounts, shape: &Shape) -> Vec<RuleModel> {
    let mut rules = Vec::with_capacity(counts.total());
    rules.extend(
        distinct(rng, counts.oid, shape.docs)
            .into_iter()
            .map(RuleModel::Oid),
    );
    rules.extend((0..counts.comp).map(|t| RuleModel::Comp(t as i64)));
    let memories = distinct(rng, counts.path + counts.join, shape.memory_space as u64);
    rules.extend(memories.iter().enumerate().map(|(i, m)| {
        if i < counts.path {
            RuleModel::Path(*m as i64)
        } else {
            RuleModel::Join(*m as i64)
        }
    }));
    rules.extend((0..counts.region).map(|f| RuleModel::Region(f as u64 % shape.regions)));
    rules.extend(
        distinct(rng, counts.node, shape.nodes)
            .into_iter()
            .map(|node| RuleModel::Node {
                node,
                region: node % shape.regions,
            }),
    );
    rng.shuffle(&mut rules);
    rules
}

/// One LMR's rules, indexed so that "does any rule match this document"
/// is a handful of map probes even for a 100k-rule base. Values are
/// reference counts: rule churn may subscribe a constant twice.
#[derive(Debug, Clone, Default)]
pub struct RuleSet {
    oid: BTreeMap<u64, u32>,
    memory: BTreeMap<i64, u32>,
    /// COMP thresholds; a document matches when its value exceeds the
    /// smallest one.
    comp: BTreeMap<i64, u32>,
    region: BTreeMap<u64, u32>,
    node: BTreeMap<u64, u32>,
}

fn retain<K: Ord>(map: &mut BTreeMap<K, u32>, key: K) {
    *map.entry(key).or_insert(0) += 1;
}

fn release<K: Ord>(map: &mut BTreeMap<K, u32>, key: &K) {
    match map.get_mut(key) {
        Some(n) if *n > 1 => *n -= 1,
        Some(_) => {
            map.remove(key);
        }
        None => panic!("oracle: released a rule that was never added"),
    }
}

impl RuleSet {
    pub fn add(&mut self, rule: &RuleModel) {
        match rule {
            RuleModel::Oid(i) => retain(&mut self.oid, *i),
            RuleModel::Comp(t) => retain(&mut self.comp, *t),
            RuleModel::Path(m) | RuleModel::Join(m) => retain(&mut self.memory, *m),
            RuleModel::Region(f) => retain(&mut self.region, *f),
            RuleModel::Node { node, .. } => retain(&mut self.node, *node),
        }
    }

    pub fn remove(&mut self, rule: &RuleModel) {
        match rule {
            RuleModel::Oid(i) => release(&mut self.oid, i),
            RuleModel::Comp(t) => release(&mut self.comp, t),
            RuleModel::Path(m) | RuleModel::Join(m) => release(&mut self.memory, m),
            RuleModel::Region(f) => release(&mut self.region, f),
            RuleModel::Node { node, .. } => release(&mut self.node, node),
        }
    }

    pub fn matches(&self, d: &DocModel) -> bool {
        self.oid.contains_key(&d.idx)
            || self.memory.contains_key(&d.memory)
            || self.comp.keys().next().is_some_and(|min| d.synth > *min)
            || self.region.contains_key(&d.region)
            || self.node.contains_key(&d.node)
    }
}

/// The expected state of a deployment: which documents are live and what
/// each LMR subscribed to. An LMR's cache must hold exactly `#host` and
/// `#info` of every live document one of its rules matches.
#[derive(Debug, Clone)]
pub struct Oracle {
    pub lmrs: Vec<RuleSet>,
    pub live: BTreeMap<u64, DocModel>,
}

impl Oracle {
    pub fn caches(&self, lmr: usize, d: &DocModel) -> bool {
        self.lmrs[lmr].matches(d)
    }

    /// The sorted URIs `Lmr::cached_uris` must return.
    pub fn expected_cache(&self, lmr: usize) -> Vec<String> {
        let mut uris: Vec<String> = self
            .live
            .values()
            .filter(|d| self.caches(lmr, d))
            .flat_map(|d| [d.host_uri(), d.info_uri()])
            .collect();
        uris.sort();
        uris
    }

    /// The sorted `#host` URIs one rule matches on the live documents.
    pub fn matches_of(&self, rule: &RuleModel) -> Vec<String> {
        let mut uris: Vec<String> = self
            .live
            .values()
            .filter(|d| rule.matches(d))
            .map(DocModel::host_uri)
            .collect();
        uris.sort();
        uris
    }
}

/// Operation shares of a workload, in percent.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub register: u32,
    pub update: u32,
    pub delete: u32,
    pub query: u32,
    pub churn: u32,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Register(DocModel),
    Update(DocModel),
    Delete(DocModel),
    /// A query at an LMR and how many resources it must return.
    Query {
        lmr: usize,
        text: String,
        expected: usize,
    },
    Subscribe {
        lmr: usize,
        rule: RuleModel,
    },
    /// Retracts the oldest rule `Subscribe` added.
    Unsubscribe {
        lmr: usize,
        rule: RuleModel,
    },
}

/// Churn rules kept subscribed at once; beyond it the oldest is retracted.
const CHURN_RULES_OUTSTANDING: usize = 4;
/// Deletes and updates need documents to pick from.
const MIN_LIVE_DOCS: usize = 16;

/// The seeded operation stream. The oracle is updated as each operation
/// is handed out, i.e. it describes the state *after* that operation.
#[derive(Debug, Clone)]
pub struct OpGen {
    rng: Prng,
    shape: Shape,
    mix: Mix,
    pub oracle: Oracle,
    /// Live document indices in a pickable order.
    order: Vec<u64>,
    next_idx: u64,
    churned: VecDeque<(usize, RuleModel)>,
    queries: u64,
}

impl OpGen {
    pub fn new(rng: Prng, shape: Shape, mix: Mix, lmr_rules: &[Vec<RuleModel>]) -> Self {
        let lmrs = lmr_rules
            .iter()
            .map(|rules| {
                let mut set = RuleSet::default();
                rules.iter().for_each(|r| set.add(r));
                set
            })
            .collect();
        OpGen {
            rng,
            shape,
            mix,
            oracle: Oracle {
                lmrs,
                live: BTreeMap::new(),
            },
            order: Vec::new(),
            next_idx: 0,
            churned: VecDeque::new(),
            queries: 0,
        }
    }

    fn synth(&mut self) -> i64 {
        if self.rng.gen_bool(self.shape.synth_hit) {
            self.rng.gen_range(self.shape.synth.clone())
        } else {
            0
        }
    }

    fn fresh_doc(&mut self) -> DocModel {
        let idx = self.next_idx;
        self.next_idx += 1;
        let node = self.rng.below(self.shape.nodes);
        DocModel {
            idx,
            memory: self.rng.below(self.shape.memory_space as u64) as i64,
            synth: self.synth(),
            node,
            region: node % self.shape.regions,
            rev: 0,
        }
    }

    fn pick_live(&mut self) -> DocModel {
        let at = self.rng.below(self.order.len() as u64) as usize;
        self.oracle.live[&self.order[at]].clone()
    }

    /// A registration; also what the pre-load is made of.
    pub fn register(&mut self) -> DocModel {
        let doc = self.fresh_doc();
        self.order.push(doc.idx);
        self.oracle.live.insert(doc.idx, doc.clone());
        doc
    }

    fn update(&mut self) -> DocModel {
        let mut doc = self.pick_live();
        doc.rev += 1;
        // half the updates move the document to another PATH/JOIN match,
        // a quarter to another COMP match set, the rest change content only
        match self.rng.below(4) {
            0 | 1 => doc.memory = self.rng.below(self.shape.memory_space as u64) as i64,
            2 => doc.synth = self.synth(),
            _ => {}
        }
        self.oracle.live.insert(doc.idx, doc.clone());
        doc
    }

    fn delete(&mut self) -> DocModel {
        let at = self.rng.below(self.order.len() as u64) as usize;
        let idx = self.order.swap_remove(at);
        self.oracle
            .live
            .remove(&idx)
            .expect("order lists live docs")
    }

    fn query(&mut self) -> Op {
        let lmr = self.rng.below(self.oracle.lmrs.len() as u64) as usize;
        self.queries += 1;
        // alternate a PATH-shaped point query and a class scan with a
        // selective comparison
        let probe = if self.queries.is_multiple_of(2) {
            RuleModel::Path(self.pick_live().memory)
        } else {
            RuleModel::Comp(self.shape.synth.end - 2)
        };
        let expected = self
            .oracle
            .live
            .values()
            .filter(|d| probe.matches(d) && self.oracle.caches(lmr, d))
            .count();
        Op::Query {
            lmr,
            text: probe.text(),
            expected,
        }
    }

    fn churn(&mut self) -> Op {
        if self.churned.len() >= CHURN_RULES_OUTSTANDING {
            let (lmr, rule) = self.churned.pop_front().expect("length checked");
            self.oracle.lmrs[lmr].remove(&rule);
            return Op::Unsubscribe { lmr, rule };
        }
        let lmr = self.rng.below(self.oracle.lmrs.len() as u64) as usize;
        // aimed at a live document, so the initial match set is not empty
        let target = self.pick_live();
        let rule = match self.rng.below(3) {
            0 => RuleModel::Oid(target.idx),
            1 => RuleModel::Path(target.memory),
            _ => RuleModel::Join(target.memory),
        };
        self.oracle.lmrs[lmr].add(&rule);
        self.churned.push_back((lmr, rule.clone()));
        Op::Subscribe { lmr, rule }
    }

    pub fn next_op(&mut self) -> Op {
        if self.order.len() < MIN_LIVE_DOCS {
            return Op::Register(self.register());
        }
        let m = self.mix;
        let total = m.register + m.update + m.delete + m.query + m.churn;
        let mut roll = self.rng.below(u64::from(total)) as u32;
        let mut under = |share: u32| {
            let hit = roll < share;
            roll = roll.wrapping_sub(share);
            hit
        };
        if under(m.register) {
            Op::Register(self.register())
        } else if under(m.update) {
            Op::Update(self.update())
        } else if under(m.delete) {
            Op::Delete(self.delete())
        } else if under(m.query) {
            self.query()
        } else {
            self.churn()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdv_system::MdvSystem;
    use mdv_workload::benchmark_schema;

    fn shape() -> Shape {
        Shape {
            memory_space: 40,
            synth: 0..12,
            synth_hit: 0.8,
            nodes: 30,
            regions: 10,
            docs: 50,
        }
    }

    fn counts() -> RuleCounts {
        RuleCounts {
            oid: 8,
            comp: 6,
            path: 8,
            join: 8,
            region: 4,
            node: 6,
        }
    }

    const MIX: Mix = Mix {
        register: 40,
        update: 25,
        delete: 15,
        query: 10,
        churn: 10,
    };

    fn stream(seed: u64, n: usize) -> (Vec<RuleModel>, Vec<Op>) {
        let mut rng = Prng::seed_from_u64(seed);
        let rules = rule_base(&mut rng, &counts(), &shape());
        let mut gen = OpGen::new(rng, shape(), MIX, std::slice::from_ref(&rules));
        let ops = (0..n).map(|_| gen.next_op()).collect();
        (rules, ops)
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        assert_eq!(stream(42, 300), stream(42, 300));
        assert_ne!(stream(42, 300).0, stream(43, 300).0);
        assert_ne!(stream(42, 300).1, stream(43, 300).1);
    }

    #[test]
    fn generated_documents_are_valid_and_rules_compile() {
        let schema = benchmark_schema();
        let (rules, ops) = stream(7, 100);
        for op in &ops {
            if let Op::Register(d) | Op::Update(d) = op {
                let doc = d.document();
                schema.validate(&doc).unwrap();
                doc.check_internal_references().unwrap();
            }
        }
        for r in &rules {
            let parsed = mdv_rulelang::parse_rule(&r.text()).unwrap();
            let normal = mdv_rulelang::normalize(&parsed, &schema).unwrap();
            mdv_rulelang::typecheck(&normal, &schema).unwrap();
        }
    }

    #[test]
    fn rule_set_agrees_with_rule_by_rule_matching() {
        let (rules, ops) = stream(11, 400);
        let mut set = RuleSet::default();
        rules.iter().for_each(|r| set.add(r));
        let mut seen = 0;
        for op in &ops {
            if let Op::Register(d) | Op::Update(d) = op {
                assert_eq!(set.matches(d), rules.iter().any(|r| r.matches(d)), "{d:?}");
                seen += 1;
            }
        }
        assert!(seen > 100);
        // reference counting: a constant subscribed twice survives one removal
        let dup = rules[0].clone();
        set.add(&dup);
        set.remove(&dup);
        let probe = ops.iter().find_map(|op| match op {
            Op::Register(d) if dup.matches(d) => Some(d.clone()),
            _ => None,
        });
        if let Some(d) = probe {
            assert!(set.matches(&d));
        }
    }

    /// The oracle never looks at the system; this pins that its idea of a
    /// cache is the system's, through every operation kind.
    #[test]
    fn oracle_predicts_the_lmr_cache() {
        let mut rng = Prng::seed_from_u64(5);
        let rules = rule_base(&mut rng, &counts(), &shape());
        let mut gen = OpGen::new(rng, shape(), MIX, std::slice::from_ref(&rules));
        let mut sys = MdvSystem::new(benchmark_schema());
        sys.add_mdp("m").unwrap();
        sys.add_lmr("l", "m").unwrap();
        for r in &rules {
            sys.subscribe("l", &r.text()).unwrap();
        }
        let mut ids = VecDeque::new();
        for _ in 0..250 {
            match gen.next_op() {
                Op::Register(d) => sys.register_document("m", &d.document()).unwrap(),
                Op::Update(d) => sys.update_document("m", &d.document()).unwrap(),
                Op::Delete(d) => sys.delete_document("m", &d.uri()).unwrap(),
                Op::Query { text, expected, .. } => {
                    assert_eq!(sys.query("l", &text).unwrap().len(), expected, "{text}")
                }
                Op::Subscribe { rule, .. } => {
                    ids.push_back(sys.subscribe("l", &rule.text()).unwrap())
                }
                Op::Unsubscribe { .. } => sys.unsubscribe("l", ids.pop_front().unwrap()).unwrap(),
            }
            assert_eq!(
                sys.lmr("l").unwrap().cached_uris(),
                gen.oracle.expected_cache(0)
            );
        }
        assert!(!gen.oracle.expected_cache(0).is_empty());
    }
}
