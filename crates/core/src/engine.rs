//! The filter engine (paper §3.4): matching documents against the rule base
//! and evaluating affected join rules incrementally along the global
//! dependency graph.
//!
//! One engine instance backs one Metadata Provider. It owns
//!
//! * the embedded relational database with all filter tables,
//! * the global dependency graph of atomic rules,
//! * the subscription registry,
//! * the registry of documents (for update/delete diffing, §3.5).

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use mdv_rdf::{Document, Range, RdfSchema, RefKind, Resource, RDF_SUBJECT};
use mdv_relstore::{Database, StorageEngine};
use mdv_rulelang::{normalize, parse_rule, split_or, typecheck, RuleOp};
use mdv_runtime::MixHashMap;

use crate::atoms::{
    AtomicRuleKind, GroupId, GroupKey, JoinPred, JoinSpec, RuleId, Side, TriggerOp, TriggerPred,
};
use crate::decompose::{decompose, ProtoRules};
use crate::depgraph::DepGraph;
use crate::error::{Error, Result};
use crate::registry::{assemble_publications, Publication, Subscription, SubscriptionId};
use crate::rule_tables::{
    class_triggers, create_rule_tables, insert_atomic, matching_triggers, remove_atomic,
    TRIGGER_OPS,
};
use crate::store::{create_base_tables, Atom, BaseStore, T_STATEMENTS};
use crate::trace::{FilterRun, FilterStats};
use crate::trigger_index::TriggerIndex;

/// A resource's number in a filter run's [`Names`].
pub(crate) type Res = usize;

/// A tuple of a filter run: a rule and the resource it holds, by number.
pub(crate) type Tuple = (RuleId, Res);

/// Signed derivation counts of end-rule tuples, summed over one filter run.
pub(crate) type Tally = MixHashMap<Tuple, i64>;

/// Resources matching a rule, each with its support count.
pub(crate) type Counts = BTreeMap<String, i64>;

/// Full results of rules evaluated ahead of their materialization.
type Filled = HashMap<RuleId, Counts>;

/// Support counts of one point query, by rule and then resource, so that
/// a hit is looked up by the borrowed URI.
type Memo = HashMap<RuleId, HashMap<String, i64>>;

/// The MDV filter engine, generic over its storage backend (DESIGN.md §6).
///
/// The default backend is the volatile in-memory [`Database`] — exactly the
/// pre-trait engine, bit for bit. A durable backend
/// ([`mdv_relstore::DurableEngine`]) records every mutation in a write-ahead
/// log and recovers committed state after a crash; the filter algorithm is
/// oblivious to the difference because all reads go through
/// [`FilterEngine::db`] and all writes through the [`StorageEngine`] trait.
#[derive(Debug, Clone)]
pub struct FilterEngine<S: StorageEngine = Database> {
    schema: RdfSchema,
    pub(crate) store: S,
    pub(crate) graph: DepGraph,
    /// Rules whose full results are currently materialized in `RuleResults`.
    pub(crate) materialized: HashSet<RuleId>,
    subs: BTreeMap<SubscriptionId, Subscription>,
    pub(crate) end_subs: HashMap<RuleId, Vec<SubscriptionId>>,
    pub(crate) documents: HashMap<String, Document>,
    /// class → that class plus all transitive subclasses.
    descendants: HashMap<String, Vec<String>>,
    /// class → that class plus all transitive superclasses.
    ancestors: HashMap<String, Vec<String>>,
    /// Every `(class, property)` whose values are strong references,
    /// subclasses included (they carry the property too).
    strong_props: Vec<(String, String)>,
    next_sub: u64,
    pub(crate) stats: FilterStats,
    /// Share counterpart probes across the join rules of a rule group
    /// (paper §3.3.3). Off only in [`FilterEngine::per_member_reference`].
    use_rule_groups: bool,
    /// Incremental matching index (inverted `contains` postings,
    /// ordered-op threshold chains), maintained on subscribe/unsubscribe.
    triggers: TriggerIndex,
}

impl FilterEngine<Database> {
    /// Builds an engine on a fresh in-memory database.
    pub fn new(schema: RdfSchema) -> Self {
        Self::with_storage(Database::new(), schema)
    }

    /// An engine that evaluates every join rule individually instead of
    /// sharing counterpart probes across a rule group — the paper's
    /// Ablation B and the per-member reference the grouped join body is
    /// tested against (`properties.rs`, the `ablation-groups` study).
    #[doc(hidden)]
    pub fn per_member_reference(schema: RdfSchema) -> Self {
        let mut engine = Self::new(schema);
        engine.use_rule_groups = false;
        engine
    }
}

impl<S: StorageEngine> FilterEngine<S> {
    /// Builds an engine on a storage backend. A fresh one gets the filter
    /// tables created through it (and thus logged by durable ones); one
    /// that holds them already — a durable MDP store reopened after a
    /// crash, whose unlogged filter tables recover empty — keeps them.
    ///
    /// Panics if the backend rejects the filter DDL — fine for the volatile
    /// [`Database`], which cannot fail it. Durable backends on real (or
    /// fault-injected) disks should use [`FilterEngine::try_with_storage`],
    /// which surfaces I/O faults as typed errors instead.
    pub fn with_storage(store: S, schema: RdfSchema) -> Self {
        Self::try_with_storage(store, schema).expect("storage backend accepts the filter DDL")
    }

    /// Fallible [`FilterEngine::with_storage`]: a backend that fails the
    /// initial DDL commit (a disk fault during WAL append or sync) returns
    /// `Error::Store` rather than panicking.
    pub fn try_with_storage(mut store: S, schema: RdfSchema) -> Result<Self> {
        if store.database().table(T_STATEMENTS).is_err() {
            store.begin();
            create_base_tables(&mut store)?;
            create_rule_tables(&mut store)?;
            store.commit()?;
        }
        // precompute the class hierarchy maps
        let mut ancestors: HashMap<String, Vec<String>> = HashMap::new();
        let mut descendants: HashMap<String, Vec<String>> = HashMap::new();
        for name in schema.class_names() {
            let mut chain = Vec::new();
            let mut cur = Some(name);
            while let Some(c) = cur {
                chain.push(c.to_owned());
                cur = schema.class(c).and_then(|d| d.parent.as_deref());
            }
            for anc in &chain {
                descendants
                    .entry(anc.clone())
                    .or_default()
                    .push(name.to_owned());
            }
            ancestors.insert(name.to_owned(), chain);
        }
        let mut strong_props: Vec<(String, String)> = Vec::new();
        for class in schema.class_names() {
            let Some(def) = schema.class(class) else {
                continue;
            };
            for p in &def.properties {
                if let Range::Class {
                    kind: RefKind::Strong,
                    ..
                } = p.range
                {
                    for sub in descendants.get(class).into_iter().flatten() {
                        strong_props.push((sub.clone(), p.name.clone()));
                    }
                }
            }
        }
        Ok(FilterEngine {
            schema,
            store,
            graph: DepGraph::new(),
            materialized: HashSet::new(),
            subs: BTreeMap::new(),
            end_subs: HashMap::new(),
            documents: HashMap::new(),
            descendants,
            ancestors,
            strong_props,
            next_sub: 0,
            stats: FilterStats::default(),
            use_rule_groups: true,
            triggers: TriggerIndex::default(),
        })
    }

    /// The RDF schema documents are validated against.
    pub fn schema(&self) -> &RdfSchema {
        &self.schema
    }

    /// Read access to the relational database holding the base and filter
    /// tables — every read of the filter algorithm goes through here.
    pub fn db(&self) -> &Database {
        self.store.database()
    }

    /// The storage backend itself (durability controls: checkpointing,
    /// WAL statistics).
    pub fn storage(&self) -> &S {
        &self.store
    }

    /// The storage backend as a one-element iterator. Kept only because the
    /// frozen `benchmark/src/run.rs` reads an MDP's WAL commit counts
    /// through this name (an MDP used to own one store per filter shard);
    /// the next `benchmark` PR switches it to [`FilterEngine::storage`] and
    /// removes this.
    pub fn shard_storages(&self) -> impl Iterator<Item = &S> {
        std::iter::once(&self.store)
    }

    /// Mutable access to the storage backend. The system tier uses this to
    /// keep its own durable table (its state records) in the same WAL as
    /// the filter tables; callers must not touch the filter's own tables.
    pub fn storage_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Consumes the engine, returning the backend.
    pub fn into_storage(self) -> S {
        self.store
    }

    /// The global dependency graph of deduplicated atomic rules (§3.3.2).
    pub fn graph(&self) -> &DepGraph {
        &self.graph
    }

    /// Cumulative filter statistics (documents registered, iterations run,
    /// trigger evaluations, …) since the engine was built.
    pub fn stats(&self) -> &FilterStats {
        &self.stats
    }

    /// Read access to the trigger-matching index (postings, threshold
    /// chains) — `tests/matching_equivalence.rs` compares it against
    /// [`matching_triggers`].
    pub fn trigger_index(&self) -> &TriggerIndex {
        &self.triggers
    }

    /// The registered subscription with this id, if any.
    pub fn subscription(&self, id: SubscriptionId) -> Option<&Subscription> {
        self.subs.get(&id)
    }

    /// All registered subscriptions, in ascending id order.
    pub fn subscriptions(&self) -> impl Iterator<Item = &Subscription> {
        self.subs.values()
    }

    /// The registered document with this URI, if any.
    pub fn document(&self, uri: &str) -> Option<&Document> {
        self.documents.get(uri)
    }

    /// All registered documents (arbitrary order).
    pub fn documents(&self) -> impl Iterator<Item = &Document> {
        self.documents.values()
    }

    /// Number of registered documents.
    pub fn document_count(&self) -> usize {
        self.documents.len()
    }

    /// Reconstructs a resource from the base tables.
    pub fn resource(&self, uri: &str) -> Result<Option<Resource>> {
        BaseStore::resource(self.db(), uri)
    }

    fn descendants_of(&self, class: &str) -> &[String] {
        self.descendants.get(class).map_or(&[], |v| v.as_slice())
    }

    fn ancestors_of(&self, class: &str) -> &[String] {
        self.ancestors.get(class).map_or(&[], |v| v.as_slice())
    }

    // ------------------------------------------------------------------
    // Subscription registration (paper §3.3)
    // ------------------------------------------------------------------

    /// Registers a subscription rule. The rule is parsed, split at `or`s,
    /// normalized, typechecked, decomposed, and merged into the global
    /// dependency graph. Returns the subscription id and the URIs of
    /// resources that *already* match (the initial cache fill of the LMR).
    /// The batch of one of [`FilterEngine::register_subscriptions`].
    pub fn register_subscription(
        &mut self,
        rule_text: &str,
    ) -> Result<(SubscriptionId, Vec<String>)> {
        let mut out = self.register_subscriptions(&[rule_text])?;
        Ok(out.pop().expect("one registration per rule"))
    }

    /// Registers many subscription rules at once, returning per rule, in
    /// order, its subscription id and the URIs already matching — the same
    /// ids and matches as registering them one by one. Every rule is
    /// compiled before any state changes, so one that fails rejects the
    /// batch and registers nothing. Then all of them are merged into the
    /// dependency graph, and the new rules are materialized over the
    /// existing data set-at-a-time: the triggering rules in one pass over
    /// each `(class, property)` partition they read, the join rules in
    /// dependency order, each from its input with fewer rows. Crash
    /// recovery and a Raft install replay a whole rule base through here.
    pub fn register_subscriptions<T: AsRef<str>>(
        &mut self,
        rule_texts: &[T],
    ) -> Result<Vec<(SubscriptionId, Vec<String>)>> {
        // one commit group per batch: a durable backend makes the
        // rule-table mirrors and backfilled materializations atomically
        // durable; committed even on error because the in-memory engine
        // keeps what a failing store write left behind
        self.store.begin();
        let out = self.register_subscriptions_inner(rule_texts);
        self.store.commit()?;
        out
    }

    fn register_subscriptions_inner<T: AsRef<str>>(
        &mut self,
        rule_texts: &[T],
    ) -> Result<Vec<(SubscriptionId, Vec<String>)>> {
        let compiled = rule_texts
            .iter()
            .map(|text| self.compile(text.as_ref()))
            .collect::<Result<Vec<_>>>()?;
        // merge every rule, mirroring new atomic rules into the rule tables;
        // the inputs of a new join rule must be materialized from now on
        let mut inputs: Vec<RuleId> = Vec::new();
        let mut ends: Vec<Vec<RuleId>> = Vec::with_capacity(compiled.len());
        for protos in &compiled {
            let mut end_rules = Vec::with_capacity(protos.len());
            for proto in protos {
                let outcome = self.graph.merge(proto);
                for id in &outcome.created {
                    let rule = self.graph.rule(*id).expect("created rule exists").clone();
                    let text = crate::atoms::AtomicRule::canonical_text(&rule.kind);
                    insert_atomic(&mut self.store, &rule, &text)?;
                    match &rule.kind {
                        AtomicRuleKind::Trigger {
                            class,
                            pred: Some(p),
                        } => self.triggers.insert(rule.id, class, p),
                        AtomicRuleKind::Join(spec) => {
                            inputs.extend([spec.left.rule, spec.right.rule])
                        }
                        AtomicRuleKind::Trigger { pred: None, .. } => {}
                    }
                }
                self.graph.retain(outcome.end);
                end_rules.push(outcome.end);
            }
            ends.push(end_rules);
        }
        // the triggering rules among the new inputs and the end rules the
        // initial fill reads, in one pass per partition; then the inputs,
        // the joins in creation order, which is dependency order
        let unmaterialized: Vec<RuleId> = inputs
            .iter()
            .chain(ends.iter().flatten())
            .filter(|rule| !self.materialized.contains(rule))
            .copied()
            .collect();
        let mut filled = self.eval_triggers(&unmaterialized)?;
        for rule in inputs {
            self.ensure_materialized(rule, &mut filled)?;
        }
        // subscriptions, with their initial matches against the base data
        let mut initial_of: HashMap<RuleId, Vec<String>> = HashMap::new();
        let mut out = Vec::with_capacity(ends.len());
        for (text, end_rules) in rule_texts.iter().zip(ends) {
            let mut initial: BTreeSet<String> = BTreeSet::new();
            for end in &end_rules {
                if !initial_of.contains_key(end) {
                    let uris = self.full_results(*end, &mut filled)?.into_keys().collect();
                    initial_of.insert(*end, uris);
                }
                initial.extend(initial_of[end].iter().cloned());
            }
            let id = SubscriptionId(self.next_sub);
            self.next_sub += 1;
            for end in &end_rules {
                self.end_subs.entry(*end).or_default().push(id);
            }
            self.subs.insert(
                id,
                Subscription {
                    id,
                    rule_text: text.as_ref().to_owned(),
                    end_rules,
                },
            );
            out.push((id, initial.into_iter().collect()));
        }
        Ok(out)
    }

    /// Compiles a rule into the decomposition of each satisfiable `or`
    /// disjunct, touching no state.
    fn compile(&self, rule_text: &str) -> Result<Vec<ProtoRules>> {
        let rule = parse_rule(rule_text)?;
        let mut protos = Vec::new();
        for conj in split_or(&rule) {
            let normalized = match normalize(&conj, &self.schema) {
                Ok(n) => n,
                Err(mdv_rulelang::Error::Unsatisfiable) => continue,
                Err(e) => return Err(e.into()),
            };
            typecheck(&normalized, &self.schema)?;
            protos.push(decompose(&normalized)?);
        }
        if protos.is_empty() {
            return Err(mdv_rulelang::Error::Unsatisfiable.into());
        }
        Ok(protos)
    }

    /// Unregisters a subscription, retracting atomic rules nothing else
    /// references (reference-counted, paper §3.3.2).
    pub fn unregister_subscription(&mut self, id: SubscriptionId) -> Result<()> {
        self.store.begin();
        let out = self.unregister_subscription_inner(id);
        self.store.commit()?;
        out
    }

    fn unregister_subscription_inner(&mut self, id: SubscriptionId) -> Result<()> {
        let sub = self
            .subs
            .remove(&id)
            .ok_or_else(|| Error::Subscription(format!("unknown subscription {id}")))?;
        for end in sub.end_rules {
            if let Some(list) = self.end_subs.get_mut(&end) {
                if let Some(pos) = list.iter().position(|s| *s == id) {
                    list.remove(pos);
                }
                if list.is_empty() {
                    self.end_subs.remove(&end);
                }
            }
            let removed = self.graph.release(end);
            // collect surviving inputs whose last dependent may be gone
            let mut orphan_check: BTreeSet<RuleId> = BTreeSet::new();
            for rule in &removed {
                if let AtomicRuleKind::Join(spec) = &rule.kind {
                    orphan_check.insert(spec.left.rule);
                    orphan_check.insert(spec.right.rule);
                }
            }
            for rule in &removed {
                let group_emptied = rule
                    .group
                    .map(|g| self.graph.group_members(g).is_empty())
                    .unwrap_or(false);
                remove_atomic(&mut self.store, rule, group_emptied)?;
                if let AtomicRuleKind::Trigger {
                    class,
                    pred: Some(p),
                } = &rule.kind
                {
                    self.triggers.remove(rule.id, class, p);
                }
                BaseStore::results_drop_rule(&mut self.store, rule.id)?;
                self.materialized.remove(&rule.id);
                orphan_check.remove(&rule.id);
            }
            // surviving rules with no dependents left need no materialization
            for rule_id in orphan_check {
                if self.graph.rule(rule_id).is_some()
                    && self.graph.dependents_of(rule_id).is_empty()
                    && self.materialized.remove(&rule_id)
                {
                    BaseStore::results_drop_rule(&mut self.store, rule_id)?;
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Document registration (paper §3.2 + §3.4)
    // ------------------------------------------------------------------

    /// Registers a single document. See [`FilterEngine::register_batch`].
    pub fn register_document(&mut self, doc: &Document) -> Result<Vec<Publication>> {
        self.register_batch(std::slice::from_ref(doc))
    }

    /// Registers a batch of new documents and runs the filter once over the
    /// whole batch (the paper's batch-registration experiments, §4).
    ///
    /// Publications come back sorted by subscription id with sorted,
    /// deduplicated URI lists — the canonical order every determinism
    /// property in this crate pins, with rule groups on or off.
    ///
    /// ```
    /// use mdv_filter::FilterEngine;
    /// use mdv_rdf::{RdfSchema, Document, Resource, Term, UriRef};
    ///
    /// let schema = RdfSchema::builder()
    ///     .class("CycleProvider", |c| c.str("serverHost"))
    ///     .build().unwrap();
    /// let mut engine = FilterEngine::new(schema);
    /// let (sub, _) = engine.register_subscription(
    ///     "search CycleProvider c register c \
    ///      where c.serverHost contains '.uni-passau.de'").unwrap();
    ///
    /// let docs: Vec<Document> = (0..2).map(|i| {
    ///     let uri = format!("doc{i}.rdf");
    ///     Document::new(&uri).with_resource(
    ///         Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
    ///             .with("serverHost", Term::literal(format!("n{i}.uni-passau.de"))))
    /// }).collect();
    ///
    /// let pubs = engine.register_batch(&docs).unwrap();
    /// assert_eq!(pubs.len(), 1); // one publication per matched subscription
    /// assert_eq!(pubs[0].subscription, sub);
    /// assert_eq!(pubs[0].added, vec!["doc0.rdf#host", "doc1.rdf#host"]);
    /// ```
    pub fn register_batch(&mut self, docs: &[Document]) -> Result<Vec<Publication>> {
        self.register_batch_into(docs, None)
    }

    /// Like [`FilterEngine::register_batch`], also returning the iteration
    /// trace (Figure 9).
    pub fn register_batch_traced(
        &mut self,
        docs: &[Document],
    ) -> Result<(Vec<Publication>, FilterRun)> {
        let mut run = FilterRun::default();
        let pubs = self.register_batch_into(docs, Some(&mut run))?;
        Ok((pubs, run))
    }

    /// Registers the batch, rendering the run's trace into `trace` when
    /// one is asked for.
    fn register_batch_into(
        &mut self,
        docs: &[Document],
        trace: Option<&mut FilterRun>,
    ) -> Result<Vec<Publication>> {
        // one commit group per batch (group commit): a durable backend
        // syncs its log once per batch, not once per row
        // (`properties.rs::durable_filter_publishes_like_memory_in_one_commit_group`
        // holds it to one group)
        self.store.begin();
        let out = self.register_batch_inner(docs, trace);
        self.store.commit()?;
        out
    }

    fn register_batch_inner(
        &mut self,
        docs: &[Document],
        trace: Option<&mut FilterRun>,
    ) -> Result<Vec<Publication>> {
        // validate everything before touching state, against the engine and
        // the rest of the batch: a rejected batch registers nothing and
        // reports its first failing document
        let (mut batch_docs, mut batch_resources) = (HashSet::new(), HashSet::new());
        for doc in docs {
            if self.documents.contains_key(doc.uri()) || !batch_docs.insert(doc.uri()) {
                return Err(Error::Document(format!(
                    "document '{}' is already registered; use update_document",
                    doc.uri()
                )));
            }
            doc.check_internal_references()?;
            self.schema.validate(doc)?;
            for res in doc.resources() {
                let uri = res.uri().as_str();
                if !batch_resources.insert(uri) || BaseStore::resource_exists(self.db(), uri)? {
                    return Err(Error::Document(format!(
                        "resource '{}' is already registered",
                        res.uri()
                    )));
                }
            }
        }
        let mut atoms = Vec::new();
        for doc in docs {
            for res in doc.resources() {
                BaseStore::insert_resource(&mut self.store, res, doc.uri())?;
            }
            atoms.extend(Atom::from_document(doc));
            self.documents.insert(doc.uri().to_owned(), doc.clone());
            self.stats.documents_registered += 1;
        }
        let mut names = Names::default();
        let (iterations, _) = self.run_filter(&atoms, 1, &mut names)?;
        let mut pubs: BTreeMap<SubscriptionId, Publication> = BTreeMap::new();
        for &(end, res) in iterations.iter().flatten() {
            for sub in self.end_subs.get(&end).into_iter().flatten() {
                pubs.entry(*sub)
                    .or_insert_with(|| Publication::new(*sub))
                    .added
                    .push(names.uri(res).to_owned());
            }
        }
        if let Some(run) = trace {
            *run = FilterRun::resolve(&iterations, &names, |rule| {
                self.end_subs.contains_key(&rule)
            });
        }
        Ok(assemble_publications(pubs))
    }

    // ------------------------------------------------------------------
    // The filter proper
    // ------------------------------------------------------------------

    /// Runs the filter over a set of document atoms (paper §3.4): first all
    /// affected triggering rules are determined, then dependent join rules
    /// are evaluated iteratively along the dependency graph. Each derivation
    /// counts `sign` (+1 for added atoms, −1 for retracted ones still in the
    /// base tables). Resources are numbered in `names`. Returns the tuples
    /// each iteration changed (the rows of Figure 9) and the signed count
    /// of every end-rule tuple.
    pub(crate) fn run_filter<'a>(
        &mut self,
        atoms: &'a [Atom],
        sign: i64,
        names: &mut Names<'a>,
    ) -> Result<(Vec<Vec<Tuple>>, Tally)> {
        let mut tally = Tally::default();
        self.stats.atoms_processed += atoms.len() as u64;

        // iteration 0: affected triggering rules
        let (matches, evals) = self.match_triggers(atoms, names)?;
        self.stats.trigger_matches += matches.len() as u64;
        self.stats.trigger_evals += evals;
        let mut current = Vec::with_capacity(matches.len());
        for tuple in matches {
            if self.offer(tuple, sign, &mut tally, names)? {
                current.push(tuple);
            }
        }

        // iterations 1..: dependent join rules
        let mut iterations = Vec::new();
        loop {
            self.stats.iterations += 1;
            let next = self.eval_join_iteration(&current, sign, &mut tally, names)?;
            iterations.push(current);
            if next.is_empty() {
                return Ok((iterations, tally));
            }
            current = next;
        }
    }

    /// Counts one derivation of a tuple with `sign` and says whether it
    /// propagates. A rule with dependents keeps its support in
    /// `RuleResults` and propagates when that count leaves or reaches zero;
    /// an end rule without dependents is materialized nowhere, so only this
    /// run's tally counts it, and it is reported on its first derivation.
    fn offer(&mut self, tuple: Tuple, sign: i64, tally: &mut Tally, names: &Names) -> Result<bool> {
        let (rule, res) = tuple;
        let mut first = false;
        if self.end_subs.contains_key(&rule) {
            let n = tally.entry(tuple).or_insert(0);
            first = *n == 0;
            *n += sign;
        }
        if self.graph.dependents_of(rule).is_empty() {
            Ok(first)
        } else {
            BaseStore::result_add(&mut self.store, rule, names.uri(res), sign)
        }
    }

    /// Joins the batch atoms against the `FilterRules*` tables, returning
    /// the matches plus the number of constant predicates evaluated.
    ///
    /// Per operator, the probe routes through the cheapest exact structure
    /// (DESIGN.md §10): string equality uses the hash index on
    /// `(class, property, value)`; `contains` verifies the candidates of
    /// the inverted token postings; numeric equality and the ordered
    /// numeric operators go through the sorted threshold chain; the two
    /// inequalities scan their `(class, property)` partition. All routes
    /// emit matches in ascending rule-id order, the order a scan of the
    /// partition would produce.
    fn match_triggers<'a>(
        &self,
        atoms: &'a [Atom],
        names: &mut Names<'a>,
    ) -> Result<(Vec<Tuple>, u64)> {
        // probe only operator tables that currently hold rules
        let active_ops: Vec<TriggerOp> = TRIGGER_OPS
            .into_iter()
            .filter(|op| {
                self.db()
                    .table(crate::rule_tables::trigger_table(*op).table)
                    .map(|t| !t.is_empty())
                    .unwrap_or(false)
            })
            .collect();
        let class_table_active = self
            .db()
            .table(crate::rule_tables::T_FILTER_RULES)
            .map(|t| !t.is_empty())
            .unwrap_or(false);

        let mut out = Vec::new();
        let mut evals = 0u64;
        for atom in atoms {
            let hits_from = out.len();
            for class in self.ancestors_of(&atom.class) {
                if atom.property == RDF_SUBJECT && class_table_active {
                    out.extend(
                        class_triggers(self.db(), class)?
                            .into_iter()
                            .map(|rule| (rule, 0)),
                    );
                }
                for op in &active_ops {
                    let (hits, n) = match *op {
                        TriggerOp::Contains => {
                            self.triggers
                                .match_contains(class, &atom.property, &atom.value)
                        }
                        TriggerOp::EqNum
                        | TriggerOp::Lt
                        | TriggerOp::Le
                        | TriggerOp::Gt
                        | TriggerOp::Ge => {
                            self.triggers
                                .match_ordered(*op, class, &atom.property, &atom.value)
                        }
                        _ => matching_triggers(self.db(), *op, class, &atom.property, &atom.value)?,
                    };
                    evals += n;
                    out.extend(hits.into_iter().map(|rule| (rule, 0)));
                }
            }
            // an atom's resource is numbered only when the atom matched
            if out.len() > hits_from {
                let res = names.number(atom.uri.as_str());
                out[hits_from..].iter_mut().for_each(|hit| hit.1 = res);
            }
        }
        Ok((out, evals))
    }

    /// One iteration of join-rule evaluation: every join rule an input of
    /// which is in the current results is evaluated; the candidates are
    /// then offered, which writes support counts — the only mutating step.
    /// A pair whose two inputs both changed counts once: the delta splits
    /// semi-naively, Δ(L⋈R) = ΔL⋈R_after + L_before⋈ΔR. A tuple of a rule
    /// without dependents feeds no join, so it stays out of the delta; with
    /// none left, the iteration is empty at once.
    fn eval_join_iteration(
        &mut self,
        current: &[Tuple],
        sign: i64,
        tally: &mut Tally,
        names: &mut Names,
    ) -> Result<Vec<Tuple>> {
        // delta keyed by producing rule, and by resource
        let mut delta: BTreeMap<RuleId, Vec<Res>> = BTreeMap::new();
        let mut flipped = Flipped::new();
        for &(rule, res) in current {
            if !self.graph.dependents_of(rule).is_empty() {
                delta.entry(rule).or_default().push(res);
                flipped.push((res, rule));
            }
        }
        if delta.is_empty() {
            return Ok(Vec::new());
        }
        flipped.sort_unstable();
        let candidates = if self.use_rule_groups {
            self.join_candidates_grouped(&delta, &flipped, names)?
        } else {
            self.join_candidates_per_member(&delta, &flipped, names)?
        };
        let mut next = Vec::new();
        for tuple in candidates {
            if self.offer(tuple, sign, tally, names)? {
                next.push(tuple);
            }
        }
        Ok(next)
    }

    /// Join candidates in time proportional to the matches, not to the
    /// rule base (paper §3.3.3; DESIGN.md §5): a delta resource is looked
    /// up once per rule group its rule feeds, each distinct
    /// `(group, side, resource)` probe runs once, and a
    /// counterpart names the members it completes through the rules whose
    /// results hold it — `(group, delta rule, holder)` is a member or it is
    /// not. Sorting the candidates by `(group, member, side, delta
    /// position, counterpart position)` yields exactly the order in which
    /// [`FilterEngine::join_candidates_per_member`] emits them.
    fn join_candidates_grouped(
        &mut self,
        delta: &BTreeMap<RuleId, Vec<Res>>,
        flipped: &Flipped,
        names: &mut Names,
    ) -> Result<Vec<Tuple>> {
        struct Feed<'a> {
            gid: GroupId,
            key: &'a GroupKey,
            side: Side,
            rule: RuleId,
            delta: &'a [Res],
            /// Index into `probes`, per delta resource.
            probe_of: Vec<usize>,
        }
        let mut feeds: Vec<Feed> = Vec::new();
        let mut probes: Vec<(&GroupKey, Side, Res)> = Vec::new();
        let mut probe_index: HashMap<(GroupId, Side, Res), usize> = HashMap::new();
        let mut lookups = 0u64;
        for (rule, resources) in delta {
            for side in [Side::Left, Side::Right] {
                for gid in self.graph.fed_groups(*rule, side) {
                    let Some(key) = self.graph.group_key(gid) else {
                        continue;
                    };
                    lookups += resources.len() as u64;
                    let probe_of = resources
                        .iter()
                        .map(|&res| {
                            *probe_index.entry((gid, side, res)).or_insert_with(|| {
                                probes.push((key, side, res));
                                probes.len() - 1
                            })
                        })
                        .collect();
                    feeds.push(Feed {
                        gid,
                        key,
                        side,
                        rule: *rule,
                        delta: resources,
                        probe_of,
                    });
                }
            }
        }

        let mut counterparts = Vec::with_capacity(probes.len());
        for (key, side, res) in &probes {
            let other_class = match side {
                Side::Left => &key.right_class,
                Side::Right => &key.left_class,
            };
            let found = self.probe_counterparts(&key.pred, *side, names.uri(*res), other_class)?;
            counterparts.push(
                found
                    .into_iter()
                    .map(|cu| names.number(cu))
                    .collect::<Vec<_>>(),
            );
        }

        // (sort key, resource to register); the key is (group, member,
        // right side?, delta position, counterpart position)
        let mut found = Vec::new();
        for feed in &feeds {
            for (pos, &res) in feed.delta.iter().enumerate() {
                for (cpos, &cu) in counterparts[feed.probe_of[pos]].iter().enumerate() {
                    let mut holders = BaseStore::rules_containing(self.db(), names.uri(cu))?;
                    if feed.side == Side::Right {
                        holders = holders_before(flipped, holders, cu);
                    }
                    for holder in holders {
                        let member = match feed.side {
                            Side::Left => self.graph.member(feed.gid, feed.rule, holder),
                            Side::Right => self.graph.member(feed.gid, holder, feed.rule),
                        };
                        if let Some(member) = member {
                            let reg = if feed.key.register == feed.side {
                                res
                            } else {
                                cu
                            };
                            let order = (feed.gid, member, feed.side == Side::Right, pos, cpos);
                            found.push((order, (member, reg)));
                        }
                    }
                }
            }
        }
        found.sort_unstable_by_key(|(order, _)| *order);
        let candidates = found.into_iter().map(|(_, tuple)| tuple).collect();

        let distinct = probes.len() as u64;
        self.stats.join_evaluations += lookups;
        self.stats.probes_executed += distinct;
        self.stats.probe_cache_hits += lookups - distinct;
        Ok(candidates)
    }

    /// Join candidates the way the paper's filter finds them without rule
    /// groups (Ablation B): every affected join rule probes for itself —
    /// the reference [`FilterEngine::join_candidates_grouped`] is tested
    /// against.
    fn join_candidates_per_member(
        &mut self,
        delta: &BTreeMap<RuleId, Vec<Res>>,
        flipped: &Flipped,
        names: &mut Names,
    ) -> Result<Vec<Tuple>> {
        // affected join rules, in canonical order: group id, member id
        let mut members: BTreeSet<(GroupId, RuleId)> = BTreeSet::new();
        for rule in delta.keys() {
            for dep in self.graph.dependents_of(*rule) {
                if let Some(gid) = self.graph.rule(*dep).and_then(|r| r.group) {
                    members.insert((gid, *dep));
                }
            }
        }
        let mut candidates = Vec::new();
        for (_, member) in members {
            let Some(AtomicRuleKind::Join(spec)) = self.graph.rule(member).map(|r| r.kind.clone())
            else {
                continue;
            };
            for side in [Side::Left, Side::Right] {
                let Some(resources) = delta.get(&spec.input(side).rule) else {
                    continue;
                };
                let other = spec.input(side.other());
                for &res in resources {
                    self.stats.join_evaluations += 1;
                    self.stats.probes_executed += 1;
                    let found =
                        self.probe_counterparts(&spec.pred, side, names.uri(res), &other.class)?;
                    for cu in found {
                        let cu = names.number(cu);
                        // a right-side delta sees the left input before it
                        let flips =
                            side == Side::Right && rules_of(flipped, cu).any(|r| r == other.rule);
                        if BaseStore::result_contains(self.db(), other.rule, names.uri(cu))?
                            != flips
                        {
                            let reg = if spec.register == side { res } else { cu };
                            candidates.push((member, reg));
                        }
                    }
                }
            }
        }
        Ok(candidates)
    }

    /// Finds, for one resource on one side of a join predicate, the
    /// candidate counterpart resources on the other side (membership in the
    /// other input's results is checked by the caller, and so is counting
    /// the probe in `probes_executed`).
    fn probe_counterparts(
        &self,
        pred: &JoinPred,
        side: Side,
        uri: &str,
        other_class: &str,
    ) -> Result<Vec<String>> {
        let (my_prop, other_prop) = match side {
            Side::Left => (&pred.left_prop, &pred.right_prop),
            Side::Right => (&pred.right_prop, &pred.left_prop),
        };
        let my_values = BaseStore::values_of(self.db(), uri, my_prop)?;
        let holds = |other_value: &str, my_value: &str| match side {
            Side::Left => pred.value_matches(my_value, other_value),
            Side::Right => pred.value_matches(other_value, my_value),
        };
        let mut out = Vec::new();
        let other_classes = self.descendants_of(other_class);
        if pred.op != RuleOp::Eq {
            // non-equality: scan the (class, property) partitions; a
            // counterpart is cloned once, where it is first found
            let mut seen = HashSet::new();
            for mv in &my_values {
                for oc in other_classes {
                    BaseStore::scan_partition(self.db(), oc, other_prop, |cu, value| {
                        if holds(value, mv) && seen.insert(cu) {
                            out.push(cu.to_owned());
                        }
                    })?;
                }
            }
            return Ok(out);
        }
        for mv in my_values {
            if other_prop == RDF_SUBJECT {
                // reference fast path: the counterpart's URI is the value
                out.push(mv);
            } else {
                for oc in other_classes {
                    out.extend(BaseStore::resources_with_value(
                        self.db(),
                        oc,
                        other_prop,
                        &mv,
                    )?);
                }
            }
        }
        // each counterpart once, where it was first found
        if out.len() > 1 {
            let mut seen = HashSet::with_capacity(out.len());
            let keep: Vec<bool> = out.iter().map(|u| seen.insert(u.as_str())).collect();
            let mut keep = keep.into_iter();
            out.retain(|_| keep.next() == Some(true));
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Full (non-incremental) evaluation: subscription backfill
    // ------------------------------------------------------------------

    /// Every resource matching an atomic rule in the current base data,
    /// with its support count, in URI order — what a new subscription must
    /// see of already-registered metadata. Taken from `filled` (triggering
    /// rules a batch evaluated already) or the materialization when there
    /// is one, else evaluated.
    fn full_results(&mut self, rule: RuleId, filled: &mut Filled) -> Result<Counts> {
        if let Some(counts) = filled.remove(&rule) {
            return Ok(counts);
        }
        if self.materialized.contains(&rule) {
            return BaseStore::results_of(self.db(), rule);
        }
        let kind = self
            .graph
            .rule(rule)
            .ok_or_else(|| Error::Subscription(format!("unknown rule {rule}")))?
            .kind
            .clone();
        match &kind {
            AtomicRuleKind::Trigger { .. } => Ok(self
                .eval_triggers(&[rule])?
                .remove(&rule)
                .unwrap_or_default()),
            AtomicRuleKind::Join(spec) => self.eval_join_full(spec),
        }
    }

    /// Evaluates the triggering rules among `rules` against the base data
    /// set-at-a-time: a class rule reads its class's resources, a
    /// string-equality rule probes the value index, and the other rules
    /// share one pass over each `(class, property)` partition they read,
    /// every row tested against each of them. A resource counts one
    /// derivation per satisfying value.
    fn eval_triggers(&self, rules: &[RuleId]) -> Result<Filled> {
        let db = self.db();
        let mut out = Filled::new();
        let mut partitions: BTreeMap<(&str, &str), Vec<(RuleId, &TriggerPred)>> = BTreeMap::new();
        for &rule in rules {
            let Some(AtomicRuleKind::Trigger { class, pred }) =
                self.graph.rule(rule).map(|r| &r.kind)
            else {
                continue;
            };
            if out.contains_key(&rule) {
                continue;
            }
            let counts = out.entry(rule).or_default();
            if let Some(p) = pred.as_ref().filter(|p| p.op != TriggerOp::EqStr) {
                partitions
                    .entry((class, &p.property))
                    .or_default()
                    .push((rule, p));
                continue;
            }
            for c in self.descendants_of(class) {
                let hits = match pred {
                    None => BaseStore::resources_of_class(db, c)?,
                    Some(p) => BaseStore::resources_with_value(db, c, &p.property, &p.value)?,
                };
                for uri in hits {
                    *counts.entry(uri).or_default() += 1;
                }
            }
        }
        for ((class, property), group) in partitions {
            for c in self.descendants_of(class) {
                BaseStore::scan_partition(db, c, property, |uri, value| {
                    for (rule, p) in &group {
                        if p.op.matches(value, &p.value) {
                            let counts = out.get_mut(rule).expect("entry made above");
                            *counts.entry(uri.to_owned()).or_default() += 1;
                        }
                    }
                })?;
            }
        }
        Ok(out)
    }

    /// A join rule's full result from its two materialized inputs, found
    /// from the input with fewer rows: each of its resources probes for
    /// counterparts once, and a counterpart counts when the other input
    /// holds it. That is one derivation per matching pair, whichever side
    /// finds it, so a join with a selective input costs that input's
    /// matches, not the store. Both inputs of every join in the graph are
    /// materialized: a new join's inputs are, in creation order, before
    /// anything reads it, and they stay so while it exists.
    fn eval_join_full(&mut self, spec: &JoinSpec) -> Result<Counts> {
        debug_assert!(
            self.materialized.contains(&spec.left.rule)
                && self.materialized.contains(&spec.right.rule),
            "a join's inputs are materialized"
        );
        let rows = |rule| BaseStore::result_count(self.db(), rule);
        let side = if rows(spec.right.rule)? < rows(spec.left.rule)? {
            Side::Right
        } else {
            Side::Left
        };
        let (from, other) = (spec.input(side), spec.input(side.other()));
        let mut out = Counts::new();
        for uri in BaseStore::results_of(self.db(), from.rule)?.into_keys() {
            self.stats.probes_executed += 1;
            for cu in self.probe_counterparts(&spec.pred, side, &uri, &other.class)? {
                if BaseStore::result_contains(self.db(), other.rule, &cu)? {
                    let reg = if spec.register == side {
                        uri.clone()
                    } else {
                        cu
                    };
                    *out.entry(reg).or_default() += 1;
                }
            }
        }
        Ok(out)
    }

    /// Guarantees that a rule's full results are materialized (it gained a
    /// dependent join rule).
    fn ensure_materialized(&mut self, rule: RuleId, filled: &mut Filled) -> Result<()> {
        if self.materialized.contains(&rule) {
            return Ok(());
        }
        for (uri, support) in self.full_results(rule, filled)? {
            BaseStore::result_add(&mut self.store, rule, &uri, support)?;
        }
        self.materialized.insert(rule);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Point queries: one rule × one resource, and the strong-reference walks
    // ------------------------------------------------------------------

    /// Checks whether one resource currently matches one atomic rule,
    /// without touching materializations — the reference the properties
    /// hold the update protocol's classification against.
    pub fn check_match(&mut self, rule: RuleId, uri: &str) -> Result<bool> {
        Ok(self.support(rule, uri)? > 0)
    }

    /// The support count of `(rule, uri)` in the current state: the
    /// satisfying values of a trigger rule, or the counterparts of a join
    /// rule that match its other input (none unless `uri` matches the
    /// register input), inputs evaluated the same way rather than read
    /// from the materializations.
    pub(crate) fn support(&mut self, rule: RuleId, uri: &str) -> Result<i64> {
        self.support_memo(rule, uri, &mut Memo::new())
    }

    fn support_memo(&mut self, rule: RuleId, uri: &str, memo: &mut Memo) -> Result<i64> {
        if let Some(&hit) = memo.get(&rule).and_then(|m| m.get(uri)) {
            return Ok(hit);
        }
        // seed to break cycles defensively (the graph is acyclic by
        // construction, but memoization makes this loop-proof)
        memo.entry(rule).or_default().insert(uri.to_owned(), 0);
        let kind = self
            .graph
            .rule(rule)
            .ok_or_else(|| Error::Subscription(format!("unknown rule {rule}")))?
            .kind
            .clone();
        let support = match &kind {
            AtomicRuleKind::Trigger { class, pred } => {
                let class_ok = match BaseStore::resource_class(self.db(), uri)? {
                    Some(actual) => self.schema.is_subclass_of(&actual, class),
                    None => false,
                };
                match (class_ok, pred) {
                    (false, _) => 0,
                    (true, None) => 1,
                    (true, Some(p)) => BaseStore::values_of(self.db(), uri, &p.property)?
                        .iter()
                        .filter(|v| p.op.matches(v, &p.value))
                        .count() as i64,
                }
            }
            AtomicRuleKind::Join(spec) => {
                let reg = spec.register_input().clone();
                let other = spec.input(spec.register.other()).clone();
                let mut n = 0;
                if self.support_memo(reg.rule, uri, memo)? > 0 {
                    self.stats.probes_executed += 1;
                    for cu in
                        self.probe_counterparts(&spec.pred, spec.register, uri, &other.class)?
                    {
                        if self.support_memo(other.rule, &cu, memo)? > 0 {
                            n += 1;
                        }
                    }
                }
                n
            }
        };
        if let Some(slot) = memo.get_mut(&rule).and_then(|m| m.get_mut(uri)) {
            *slot = support;
        }
        Ok(support)
    }

    /// Computes the strong-reference closure of a resource set (paper §2.4):
    /// the seeds plus every resource transitively reachable over properties
    /// the schema marks as strong references.
    pub fn strong_closure(&self, seeds: &[String]) -> Result<Vec<String>> {
        let mut visited: BTreeSet<String> = BTreeSet::new();
        let mut stack: Vec<String> = seeds.to_vec();
        while let Some(uri) = stack.pop() {
            if !visited.insert(uri.clone()) {
                continue;
            }
            let Some(class) = BaseStore::resource_class(self.db(), &uri)? else {
                continue;
            };
            for (prop, value) in BaseStore::statements_of(self.db(), &uri)? {
                if self.schema.ref_kind(&class, &prop) == Some(RefKind::Strong)
                    && BaseStore::resource_exists(self.db(), &value)?
                {
                    stack.push(value);
                }
            }
        }
        Ok(visited.into_iter().collect())
    }

    /// Resources that transitively *strong-reference* `uri` (the reverse
    /// walk used to find whose cached closure an update invalidates),
    /// including `uri` itself.
    pub fn strong_referrers(&self, uri: &str) -> Result<Vec<String>> {
        let mut visited: BTreeSet<String> = BTreeSet::new();
        let mut stack: Vec<String> = vec![uri.to_owned()];
        while let Some(cur) = stack.pop() {
            if !visited.insert(cur.clone()) {
                continue;
            }
            for (class, prop) in &self.strong_props {
                for referrer in BaseStore::resources_with_value(self.db(), class, prop, &cur)? {
                    stack.push(referrer);
                }
            }
        }
        Ok(visited.into_iter().collect())
    }
}

/// One join iteration's delta by resource, sorted: the tuples that
/// appeared (in a +1 run) or disappeared (in a −1 run) in the iteration
/// before, as `(resource, rule)`.
type Flipped = Vec<(Res, RuleId)>;

/// The rules paired with resource `res` in a list of `(resource, rule)`
/// pairs sorted by resource.
pub(crate) fn rules_of(pairs: &[(Res, RuleId)], res: Res) -> impl Iterator<Item = RuleId> + '_ {
    let from = pairs.partition_point(|&(r, _)| r < res);
    pairs[from..]
        .iter()
        .take_while(move |&&(r, _)| r == res)
        .map(|&(_, rule)| rule)
}

/// The rules whose materialized results held `res` before the delta, given
/// those that hold it now: a tuple in the delta flips back.
fn holders_before(flipped: &Flipped, mut holders: Vec<RuleId>, res: Res) -> Vec<RuleId> {
    for rule in rules_of(flipped, res) {
        match holders.iter().position(|h| *h == rule) {
            Some(i) => {
                holders.remove(i);
            }
            None => holders.push(rule),
        }
    }
    holders
}

/// The resources one filter run touches, numbered in first-seen order (an
/// update's −1 and +1 runs share one table). A tuple of the run holds its
/// resource by number; a URI is read back only to probe or write the store
/// and where a publication or the Figure-9 trace names it. A matched
/// atom's subject is borrowed from the atom, a counterpart a join probe
/// finds is moved in.
#[derive(Default)]
pub(crate) struct Names<'a> {
    uris: Vec<Cow<'a, str>>,
    number_of: MixHashMap<Cow<'a, str>, Res>,
}

impl<'a> Names<'a> {
    /// The number of `uri`, if the run has met it.
    pub(crate) fn find(&self, uri: &str) -> Option<Res> {
        self.number_of.get(uri).copied()
    }

    /// The number of `uri`, numbering it if the run has not met it.
    pub(crate) fn number(&mut self, uri: impl Into<Cow<'a, str>>) -> Res {
        let uri = uri.into();
        if let Some(n) = self.find(&uri) {
            return n;
        }
        let n = self.uris.len();
        self.number_of.insert(uri.clone(), n);
        self.uris.push(uri);
        n
    }

    /// The URI numbered `n`.
    pub(crate) fn uri(&self, n: Res) -> &str {
        &self.uris[n]
    }

    /// How many resources are numbered.
    pub(crate) fn len(&self) -> usize {
        self.uris.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdv_rdf::{Term, UriRef};

    pub(crate) fn paper_schema() -> RdfSchema {
        RdfSchema::builder()
            .class("ServerInformation", |c| c.int("memory").int("cpu"))
            .class("CycleProvider", |c| {
                c.str("serverHost")
                    .int("serverPort")
                    .int("synthValue")
                    .strong_ref("serverInformation", "ServerInformation")
            })
            .build()
            .unwrap()
    }

    pub(crate) fn figure1_document() -> Document {
        Document::new("doc.rdf")
            .with_resource(
                Resource::new(UriRef::new("doc.rdf", "host"), "CycleProvider")
                    .with("serverHost", Term::literal("pirates.uni-passau.de"))
                    .with("serverPort", Term::literal("5874"))
                    .with(
                        "serverInformation",
                        Term::resource(UriRef::new("doc.rdf", "info")),
                    ),
            )
            .with_resource(
                Resource::new(UriRef::new("doc.rdf", "info"), "ServerInformation")
                    .with("memory", Term::literal("92"))
                    .with("cpu", Term::literal("600")),
            )
    }

    fn provider_doc(i: usize, host: &str, memory: i64, cpu: i64) -> Document {
        let uri = format!("doc{i}.rdf");
        Document::new(uri.clone())
            .with_resource(
                Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
                    .with("serverHost", Term::literal(host))
                    .with("serverPort", Term::literal("4000"))
                    .with(
                        "serverInformation",
                        Term::resource(UriRef::new(&uri, "info")),
                    ),
            )
            .with_resource(
                Resource::new(UriRef::new(&uri, "info"), "ServerInformation")
                    .with("memory", Term::literal(memory.to_string()))
                    .with("cpu", Term::literal(cpu.to_string())),
            )
    }

    #[test]
    fn example1_rule_matches_figure1_document() {
        let mut e = FilterEngine::new(paper_schema());
        let (sub, initial) = e
            .register_subscription(
                "search CycleProvider c register c \
                 where c.serverHost contains 'uni-passau.de' \
                 and c.serverInformation.memory > 64",
            )
            .unwrap();
        assert!(initial.is_empty());
        let pubs = e.register_document(&figure1_document()).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].subscription, sub);
        assert_eq!(pubs[0].added, vec!["doc.rdf#host".to_owned()]);
    }

    #[test]
    fn figure9_trace_shape() {
        // §3.3.1 rule base: memory>64 AND cpu>500 AND contains — three
        // triggers, an identity join, a reference join. The Figure 1
        // document produces the Figure 9 iteration pattern.
        let mut e = FilterEngine::new(paper_schema());
        e.register_subscription(
            "search CycleProvider c, ServerInformation s register c \
             where c.serverHost contains 'uni-passau.de' \
             and c.serverInformation = s \
             and s.memory > 64 and s.cpu > 500",
        )
        .unwrap();
        let (pubs, run) = e.register_batch_traced(&[figure1_document()]).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].added, vec!["doc.rdf#host".to_owned()]);
        // initial iteration: 3 trigger matches (info×2, host×1);
        // iteration 1: the identity join on info; iteration 2: the end join
        assert_eq!(run.iterations.len(), 3);
        assert_eq!(run.iterations[0].len(), 3);
        assert_eq!(run.iterations[1].len(), 1);
        assert_eq!(run.iterations[1][0].0, "doc.rdf#info");
        assert_eq!(run.iterations[2].len(), 1);
        assert_eq!(run.iterations[2][0].0, "doc.rdf#host");
        assert_eq!(run.end_matches.len(), 1);
    }

    #[test]
    fn non_matching_document_produces_nothing() {
        let mut e = FilterEngine::new(paper_schema());
        e.register_subscription(
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        )
        .unwrap();
        // memory 32 < 64
        let pubs = e
            .register_document(&provider_doc(1, "x.example.org", 32, 600))
            .unwrap();
        assert!(pubs.is_empty());
    }

    #[test]
    fn oid_rule_matches_single_resource() {
        let mut e = FilterEngine::new(paper_schema());
        let (sub, _) = e
            .register_subscription("search CycleProvider c register c where c = 'doc1.rdf#host'")
            .unwrap();
        let pubs = e
            .register_batch(&[
                provider_doc(1, "a.org", 128, 600),
                provider_doc(2, "b.org", 128, 600),
            ])
            .unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].subscription, sub);
        assert_eq!(pubs[0].added, vec!["doc1.rdf#host".to_owned()]);
    }

    #[test]
    fn backfill_matches_existing_data() {
        let mut e = FilterEngine::new(paper_schema());
        e.register_document(&provider_doc(1, "a.uni-passau.de", 128, 600))
            .unwrap();
        e.register_document(&provider_doc(2, "b.org", 128, 600))
            .unwrap();
        let (_, initial) = e
            .register_subscription(
                "search CycleProvider c register c \
                 where c.serverHost contains 'uni-passau.de' \
                 and c.serverInformation.memory > 64",
            )
            .unwrap();
        assert_eq!(initial, vec!["doc1.rdf#host".to_owned()]);
    }

    #[test]
    fn a_rejected_rule_batch_registers_nothing() {
        let mut e = FilterEngine::new(paper_schema());
        assert!(e
            .register_subscriptions(&[
                "search CycleProvider c register c where c.serverInformation.memory > 64",
                "search CycleProvider c register c where c.noSuchProperty = 1",
            ])
            .is_err());
        // nor does an `or` rule whose second disjunct fails
        assert!(e
            .register_subscription(
                "search CycleProvider c register c where c.serverPort > 1 or c.nope = 2"
            )
            .is_err());
        assert!(e.graph().is_empty());
        assert_eq!(e.db().table("AtomicRules").unwrap().len(), 0);
        assert!(e.subscriptions().next().is_none());
        let (sub, _) = e
            .register_subscription("search CycleProvider c register c where c.serverPort > 1")
            .unwrap();
        assert_eq!(sub, SubscriptionId(0), "no id was spent on a rejection");
    }

    #[test]
    fn shared_rules_notify_both_subscriptions() {
        let mut e = FilterEngine::new(paper_schema());
        let (s1, _) = e
            .register_subscription(
                "search CycleProvider c register c where c.serverInformation.memory > 64",
            )
            .unwrap();
        let (s2, _) = e
            .register_subscription(
                "search CycleProvider c register c where c.serverInformation.memory > 64",
            )
            .unwrap();
        assert_ne!(s1, s2);
        let pubs = e
            .register_document(&provider_doc(1, "a.org", 128, 600))
            .unwrap();
        assert_eq!(pubs.len(), 2);
        assert!(pubs
            .iter()
            .all(|p| p.added == vec!["doc1.rdf#host".to_owned()]));
    }

    #[test]
    fn or_rule_matches_union() {
        let mut e = FilterEngine::new(paper_schema());
        let (sub, _) = e
            .register_subscription(
                "search CycleProvider c register c \
                 where c.serverHost contains 'alpha' or c.serverHost contains 'beta'",
            )
            .unwrap();
        let pubs = e
            .register_batch(&[
                provider_doc(1, "alpha.org", 1, 1),
                provider_doc(2, "beta.org", 1, 1),
                provider_doc(3, "gamma.org", 1, 1),
            ])
            .unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].subscription, sub);
        assert_eq!(
            pubs[0].added,
            vec!["doc1.rdf#host".to_owned(), "doc2.rdf#host".to_owned()]
        );
    }

    #[test]
    fn unregister_retracts_rules_and_stops_notifications() {
        let mut e = FilterEngine::new(paper_schema());
        let (s1, _) = e
            .register_subscription(
                "search CycleProvider c register c where c.serverInformation.memory > 64",
            )
            .unwrap();
        assert!(!e.graph().is_empty());
        e.unregister_subscription(s1).unwrap();
        assert!(e.graph().is_empty());
        assert_eq!(e.db().table("AtomicRules").unwrap().len(), 0);
        let pubs = e
            .register_document(&provider_doc(1, "a.org", 128, 600))
            .unwrap();
        assert!(pubs.is_empty());
        assert!(matches!(
            e.unregister_subscription(s1),
            Err(Error::Subscription(_))
        ));
    }

    #[test]
    fn unregister_keeps_shared_rules() {
        let mut e = FilterEngine::new(paper_schema());
        let (s1, _) = e
            .register_subscription(
                "search CycleProvider c register c where c.serverInformation.memory > 64",
            )
            .unwrap();
        let (s2, _) = e
            .register_subscription(
                "search CycleProvider c register c where c.serverInformation.cpu > 500",
            )
            .unwrap();
        e.unregister_subscription(s1).unwrap();
        // s2 still works
        let pubs = e
            .register_document(&provider_doc(1, "a.org", 32, 600))
            .unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].subscription, s2);
    }

    #[test]
    fn duplicate_document_registration_rejected() {
        let mut e = FilterEngine::new(paper_schema());
        let doc = provider_doc(1, "a.org", 128, 600);
        e.register_document(&doc).unwrap();
        assert!(matches!(e.register_document(&doc), Err(Error::Document(_))));
    }

    #[test]
    fn invalid_document_rejected_atomically() {
        let mut e = FilterEngine::new(paper_schema());
        let bad = Document::new("bad.rdf")
            .with_resource(Resource::new(UriRef::new("bad.rdf", "x"), "UnknownClass"));
        assert!(e.register_document(&bad).is_err());
        assert_eq!(e.db().table("Resources").unwrap().len(), 0);
    }

    #[test]
    fn strong_closure_follows_strong_refs() {
        let mut e = FilterEngine::new(paper_schema());
        e.register_document(&figure1_document()).unwrap();
        let closure = e.strong_closure(&["doc.rdf#host".to_owned()]).unwrap();
        assert_eq!(
            closure,
            vec!["doc.rdf#host".to_owned(), "doc.rdf#info".to_owned()]
        );
        // the reverse walk
        let referrers = e.strong_referrers("doc.rdf#info").unwrap();
        assert_eq!(
            referrers,
            vec!["doc.rdf#host".to_owned(), "doc.rdf#info".to_owned()]
        );
    }

    #[test]
    fn check_match_agrees_with_filter() {
        let mut e = FilterEngine::new(paper_schema());
        let (sub, _) = e
            .register_subscription(
                "search CycleProvider c register c \
                 where c.serverHost contains 'uni-passau.de' \
                 and c.serverInformation.memory > 64",
            )
            .unwrap();
        e.register_batch(&[
            provider_doc(1, "a.uni-passau.de", 128, 600),
            provider_doc(2, "b.org", 128, 600),
            provider_doc(3, "c.uni-passau.de", 32, 600),
        ])
        .unwrap();
        let end = e.subscription(sub).unwrap().end_rules[0];
        assert!(e.check_match(end, "doc1.rdf#host").unwrap());
        assert!(
            !e.check_match(end, "doc2.rdf#host").unwrap(),
            "host does not match"
        );
        assert!(
            !e.check_match(end, "doc3.rdf#host").unwrap(),
            "memory too small"
        );
        assert!(!e.check_match(end, "doc1.rdf#info").unwrap(), "wrong class");
    }

    #[test]
    fn check_match_rejects_an_unknown_rule() {
        let mut e = FilterEngine::new(paper_schema());
        assert!(matches!(
            e.check_match(RuleId(999), "x"),
            Err(Error::Subscription(_))
        ));
    }

    #[test]
    fn rule_groups_share_probes() {
        let docs: Vec<Document> = (0..20)
            .map(|i| provider_doc(i, "a.org", 100 + i as i64, 600))
            .collect();
        let rules = [
            "search CycleProvider c register c where c.serverInformation.memory > 64",
            "search CycleProvider c register c where c.serverInformation.cpu > 100",
        ];

        let mut grouped = FilterEngine::new(paper_schema());
        for r in rules {
            grouped.register_subscription(r).unwrap();
        }
        let mut ungrouped = FilterEngine::per_member_reference(paper_schema());
        for r in rules {
            ungrouped.register_subscription(r).unwrap();
        }

        let pubs_a = grouped.register_batch(&docs).unwrap();
        let pubs_b = ungrouped.register_batch(&docs).unwrap();
        // identical results ...
        assert_eq!(pubs_a, pubs_b);
        // ... but the grouped engine shared probes: the two joins are one
        // group, fed on the left by the shared CycleProvider trigger (20
        // look-ups) and on the right by the two ServerInformation triggers
        // (20 each, the second 20 sharing the first 20's probes)
        let g = grouped.stats();
        assert_eq!(
            (g.join_evaluations, g.probes_executed, g.probe_cache_hits),
            (60, 40, 20)
        );
        // ungrouped: each of the two joins looks up and probes for itself
        let u = ungrouped.stats();
        assert_eq!(
            (u.join_evaluations, u.probes_executed, u.probe_cache_hits),
            (80, 80, 0)
        );
    }

    #[test]
    fn subclass_instances_match_superclass_rules() {
        let schema = RdfSchema::builder()
            .class("Provider", |c| c.str("name"))
            .class("CycleProvider", |c| c.extends("Provider").int("port"))
            .build()
            .unwrap();
        let mut e = FilterEngine::new(schema);
        let (sub, _) = e
            .register_subscription("search Provider p register p where p.name contains 'x'")
            .unwrap();
        let doc = Document::new("d.rdf").with_resource(
            Resource::new(UriRef::new("d.rdf", "cp"), "CycleProvider")
                .with("name", Term::literal("ax"))
                .with("port", Term::literal("80")),
        );
        let pubs = e.register_document(&doc).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].subscription, sub);
        assert_eq!(pubs[0].added, vec!["d.rdf#cp".to_owned()]);
    }

    #[test]
    fn batch_equals_sequential_registration() {
        let docs: Vec<Document> = (0..10)
            .map(|i| provider_doc(i, if i % 2 == 0 { "even.org" } else { "odd.org" }, 100, 600))
            .collect();
        let rule = "search CycleProvider c register c where c.serverHost contains 'even' \
             and c.serverInformation.memory > 64";

        let mut batch = FilterEngine::new(paper_schema());
        batch.register_subscription(rule).unwrap();
        let mut batch_added: Vec<String> = batch
            .register_batch(&docs)
            .unwrap()
            .into_iter()
            .flat_map(|p| p.added)
            .collect();
        batch_added.sort();

        let mut seq = FilterEngine::new(paper_schema());
        seq.register_subscription(rule).unwrap();
        let mut seq_added = Vec::new();
        for d in &docs {
            seq_added.extend(
                seq.register_document(d)
                    .unwrap()
                    .into_iter()
                    .flat_map(|p| p.added),
            );
        }
        seq_added.sort();
        assert_eq!(batch_added, seq_added);
        assert_eq!(batch_added.len(), 5);
    }

    #[test]
    fn a_batch_naming_one_uri_twice_registers_nothing() {
        let mut e = FilterEngine::new(paper_schema());
        e.register_subscription("search CycleProvider c register c")
            .unwrap();
        let doc7 = provider_doc(7, "a.org", 100, 600);
        let batch = [provider_doc(6, "a.org", 100, 600), doc7.clone(), doc7];
        let err = e.register_batch(&batch).unwrap_err();
        assert!(
            err.to_string()
                .contains("document 'doc7.rdf' is already registered"),
            "{err}"
        );
        assert_eq!(e.document_count(), 0);
        assert_eq!(e.stats().documents_registered, 0);
        assert!(!BaseStore::resource_exists(e.db(), "doc6.rdf#host").unwrap());
        // the batch without the second copy registers whole
        let pubs = e.register_batch(&batch[..2]).unwrap();
        assert_eq!(pubs[0].added, ["doc6.rdf#host", "doc7.rdf#host"]);
    }

    #[test]
    fn unsatisfiable_rule_rejected_but_disjunct_skipped() {
        let mut e = FilterEngine::new(paper_schema());
        assert!(matches!(
            e.register_subscription("search CycleProvider c register c where 1 = 2"),
            Err(Error::Rule(mdv_rulelang::Error::Unsatisfiable))
        ));
        // one satisfiable disjunct is enough
        let (_, _) = e
            .register_subscription(
                "search CycleProvider c register c \
                 where c.serverPort > 0 or c.serverPort < 0 and 1 = 2",
            )
            .unwrap();
    }

    #[test]
    fn cross_document_references_join() {
        // the CycleProvider and its ServerInformation live in two documents
        let mut e = FilterEngine::new(paper_schema());
        e.register_subscription(
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        )
        .unwrap();
        let info = Document::new("info.rdf").with_resource(
            Resource::new(UriRef::new("info.rdf", "i"), "ServerInformation")
                .with("memory", Term::literal("128"))
                .with("cpu", Term::literal("600")),
        );
        let provider = Document::new("prov.rdf").with_resource(
            Resource::new(UriRef::new("prov.rdf", "p"), "CycleProvider")
                .with("serverHost", Term::literal("a.org"))
                .with("serverPort", Term::literal("1"))
                .with(
                    "serverInformation",
                    Term::resource(UriRef::new("info.rdf", "i")),
                ),
        );
        // register the referenced document first, then the referencing one
        assert!(e.register_document(&info).unwrap().is_empty());
        let pubs = e.register_document(&provider).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].added, vec!["prov.rdf#p".to_owned()]);

        // and in the opposite order in a fresh engine: the provider arrives
        // before its ServerInformation — the later registration of the
        // ServerInformation must trigger the join (paper §3.1)
        let mut e2 = FilterEngine::new(paper_schema());
        e2.register_subscription(
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        )
        .unwrap();
        assert!(e2.register_document(&provider).unwrap().is_empty());
        let pubs = e2.register_document(&info).unwrap();
        assert_eq!(pubs.len(), 1);
        assert_eq!(pubs[0].added, vec!["prov.rdf#p".to_owned()]);
    }
}
