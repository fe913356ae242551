//! Building a workload's deployment, driving it, and checking it.
//!
//! The load is a closed loop with one client on one thread: `MdvSystem`
//! is a `&mut self`, run-to-quiescence simulator, so a document call
//! returning *is* "visible in every subscribed LMR cache". Only the calls
//! into the system are timed; generating the next operation and checking
//! the last one happen between calls, outside the measured time.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mdv_filter::query_eval;
use mdv_rdf::{write_document, RdfSchema};
use mdv_relstore::{Database, DurableEngine, StorageEngine};
use mdv_rulelang::{normalize, parse_rule};
use mdv_runtime::Prng;
use mdv_system::{MdvSystem, NetConfig, NetStats, PlacementConfig};
use mdv_workload::benchmark_schema;

use crate::gen::{rule_base, DocModel, Op, OpGen, RuleModel};
use crate::span::Tracer;
use crate::span_vfs::{MemFs, SpanVfs, VfsCounts};
use crate::workloads::{Backbone, Spec};

type SysResult<T> = mdv_system::Result<T>;

/// The storage backend of a deployment's nodes: volatile `Database`, or
/// `DurableEngine` over the counting memory disk.
pub trait Backend: StorageEngine + Send + Sync + Sized {
    /// The disk shared by all nodes (nothing for the volatile backend).
    type Disk;

    fn disk(tracer: &Tracer) -> Self::Disk;
    fn system(schema: RdfSchema) -> MdvSystem<Self>;
    fn add_mdp(sys: &mut MdvSystem<Self>, disk: &Self::Disk, name: &str) -> SysResult<()>;
    fn add_lmr(
        sys: &mut MdvSystem<Self>,
        disk: &Self::Disk,
        name: &str,
        mdp: &str,
    ) -> SysResult<()>;

    /// Called when the measured window opens.
    fn window_starts(_disk: &Self::Disk) {}

    /// Exact device counts so far (all zero without a disk).
    fn vfs_counts(_disk: &Self::Disk) -> VfsCounts {
        VfsCounts::default()
    }

    /// WAL commits over every node's store.
    fn wal_commits(_sys: &MdvSystem<Self>) -> u64 {
        0
    }

    /// `crash_and_restart_mdp`, where the backend can recover.
    fn crash_restart(_sys: &mut MdvSystem<Self>, name: &str) -> SysResult<()> {
        Err(mdv_system::Error::Config(format!(
            "'{name}' runs on the volatile backend and cannot be restarted"
        )))
    }

    /// Wall time of `DurableEngine::open` on a copy of `name`'s store.
    fn reopen_copy(_sys: &MdvSystem<Self>, _disk: &Self::Disk, _name: &str) -> Option<Duration> {
        None
    }
}

impl Backend for Database {
    type Disk = ();

    fn disk(_tracer: &Tracer) {}

    fn system(schema: RdfSchema) -> MdvSystem<Self> {
        MdvSystem::new(schema)
    }

    fn add_mdp(sys: &mut MdvSystem<Self>, _disk: &(), name: &str) -> SysResult<()> {
        sys.add_mdp(name)
    }

    fn add_lmr(sys: &mut MdvSystem<Self>, _disk: &(), name: &str, mdp: &str) -> SysResult<()> {
        sys.add_lmr(name, mdp)
    }
}

pub type Durable = DurableEngine<SpanVfs<MemFs>>;

fn store_dir(name: &str) -> PathBuf {
    PathBuf::from(format!("/mdvbench/{name}"))
}

impl Backend for Durable {
    type Disk = SpanVfs<MemFs>;

    fn disk(tracer: &Tracer) -> Self::Disk {
        SpanVfs::new(MemFs::default(), tracer.clone())
    }

    fn system(schema: RdfSchema) -> MdvSystem<Self> {
        MdvSystem::durable_on(schema, NetConfig::default())
    }

    fn add_mdp(sys: &mut MdvSystem<Self>, disk: &Self::Disk, name: &str) -> SysResult<()> {
        sys.add_mdp_durable_on(name, store_dir(name), disk.clone())
    }

    fn add_lmr(
        sys: &mut MdvSystem<Self>,
        disk: &Self::Disk,
        name: &str,
        mdp: &str,
    ) -> SysResult<()> {
        sys.add_lmr_durable_on(name, mdp, store_dir(name), disk.clone())
    }

    fn window_starts(disk: &Self::Disk) {
        disk.reset_checkpoint_max();
    }

    fn vfs_counts(disk: &Self::Disk) -> VfsCounts {
        disk.counts()
    }

    fn wal_commits(sys: &MdvSystem<Self>) -> u64 {
        let mdps = sys.mdp_names().into_iter().flat_map(|n| {
            let engine = sys.mdp(n).expect("listed MDP").engine();
            engine.shard_storages().map(DurableEngine::commits)
        });
        let lmrs = sys
            .lmr_names()
            .into_iter()
            .map(|n| sys.lmr(n).expect("listed LMR").storage().commits());
        mdps.chain(lmrs).sum()
    }

    fn crash_restart(sys: &mut MdvSystem<Self>, name: &str) -> SysResult<()> {
        sys.crash_and_restart_mdp(name)
    }

    fn reopen_copy(sys: &MdvSystem<Self>, disk: &Self::Disk, name: &str) -> Option<Duration> {
        let dir = sys.mdp(name).ok()?.engine().storage().dir().to_path_buf();
        let copy = PathBuf::from(format!("{}-probe", dir.display()));
        disk.inner().copy_dir(&dir, &copy);
        let start = Instant::now();
        let reopened = DurableEngine::open_with(disk.clone(), &copy);
        let took = start.elapsed();
        reopened.ok().map(|_| took)
    }
}

/// A built deployment together with the generator that knows its state.
pub struct Deployment<B: Backend> {
    pub sys: MdvSystem<B>,
    pub disk: B::Disk,
    pub gen: OpGen,
    pub mdps: Vec<String>,
    pub lmrs: Vec<String>,
    /// The rule base as dealt: `(lmr, rule)` in subscription order.
    pub rules: Vec<(usize, RuleModel)>,
    /// Pre-loaded documents, in registration order.
    pub preloaded: Vec<DocModel>,
}

/// Set-up: build the deployment, subscribe the rule base, pre-load.
pub fn build<B: Backend>(spec: &Spec, seed: u64, tracer: &Tracer) -> SysResult<Deployment<B>> {
    let mut rng = Prng::seed_from_u64(seed);
    let rules = spec.assign(&rule_base(&mut rng, &spec.rules, &spec.shape));
    let mut per_lmr = vec![Vec::new(); spec.lmrs];
    for (lmr, rule) in &rules {
        per_lmr[*lmr].push(rule.clone());
    }
    let mut gen = OpGen::new(rng, spec.shape.clone(), spec.mix, &per_lmr);

    let disk = B::disk(tracer);
    let mut sys = B::system(benchmark_schema());
    if spec.backbone == Backbone::Raft {
        sys.enable_raft(seed)?;
    }
    let mdps = spec.mdp_names();
    let lmrs = spec.lmr_names();
    for name in &mdps {
        B::add_mdp(&mut sys, &disk, name)?;
    }
    if let Backbone::Placement(factor) = spec.backbone {
        sys.configure_placement(PlacementConfig::new(factor))?;
    }
    for (i, name) in lmrs.iter().enumerate() {
        B::add_lmr(&mut sys, &disk, name, &spec.home_of(i))?;
    }
    if spec.batch.is_some() {
        for name in &mdps {
            sys.set_batch_size(name, spec.batch)?;
        }
    }
    for (lmr, rule) in &rules {
        sys.subscribe(&lmrs[*lmr], &rule.text())?;
    }
    let mut preloaded = Vec::with_capacity(spec.preload);
    for i in 0..spec.preload {
        let doc = gen.register();
        sys.register_document(&mdps[i % mdps.len()], &doc.document())?;
        preloaded.push(doc);
    }
    Ok(Deployment {
        sys,
        disk,
        gen,
        mdps,
        lmrs,
        rules,
        preloaded,
    })
}

/// Everything measured over the driven window.
#[derive(Debug, Default)]
pub struct Window {
    /// Sum of the timed calls into the system.
    pub wall: Duration,
    /// Of which document operations.
    pub doc_wall: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub doc_ops: u64,
    /// Latency samples in milliseconds, by operation kind.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub net: NetStats,
    pub by_kind: BTreeMap<&'static str, u64>,
    pub vfs: VfsCounts,
    pub wal_commits: u64,
    /// Sum over all MDP engines of `FilterStats::documents_registered`.
    pub filter_docs: u64,
    pub gc_evicted: u64,
    /// Document operations whose entry MDP was not the shard's primary.
    pub routed_ops: u64,
    /// Bytes of document XML handed to register/update.
    pub xml_bytes: u64,
    /// Time spent generating operations (outside `wall`).
    pub gen_time: Duration,
}

impl Window {
    fn sample(&mut self, kind: &'static str, took: Duration) {
        self.samples
            .entry(kind)
            .or_default()
            .push(took.as_secs_f64() * 1e3);
    }
}

fn net_delta(after: NetStats, before: NetStats) -> NetStats {
    NetStats {
        messages: after.messages - before.messages,
        bytes: after.bytes - before.bytes,
        clock_ms: after.clock_ms - before.clock_ms,
        retries: after.retries - before.retries,
        duplicates_delivered: after.duplicates_delivered - before.duplicates_delivered,
        dropped: after.dropped - before.dropped,
        down_dropped: after.down_dropped - before.down_dropped,
        backbone_messages: after.backbone_messages - before.backbone_messages,
        backbone_bytes: after.backbone_bytes - before.backbone_bytes,
        edge_messages: after.edge_messages - before.edge_messages,
        edge_bytes: after.edge_bytes - before.edge_bytes,
        anti_entropy_rounds: after.anti_entropy_rounds - before.anti_entropy_rounds,
        repairs_applied: after.repairs_applied - before.repairs_applied,
        placement_messages: after.placement_messages - before.placement_messages,
        placement_bytes: after.placement_bytes - before.placement_bytes,
    }
}

fn filter_docs<B: Backend>(sys: &MdvSystem<B>) -> u64 {
    sys.mdp_names()
        .into_iter()
        .map(|n| {
            let engine = sys.mdp(n).expect("listed MDP").engine();
            engine.stats().documents_registered
        })
        .sum()
}

/// True when every LMR caches `#host` and `#info` of `doc` exactly when
/// the oracle says so.
fn doc_visible_as_expected<B: Backend>(dep: &Deployment<B>, doc: &DocModel) -> bool {
    let live = dep.gen.oracle.live.get(&doc.idx);
    let (host, info) = (doc.host_uri(), doc.info_uri());
    dep.lmrs.iter().enumerate().all(|(i, name)| {
        let expected = live.is_some_and(|d| dep.gen.oracle.caches(i, d));
        let lmr = dep.sys.lmr(name).expect("listed LMR");
        lmr.is_cached(&host) == expected && lmr.is_cached(&info) == expected
    })
}

/// After rule churn at `lmr`: every live document `rule` matches is cached
/// there exactly when the LMR's remaining rules say so.
fn rule_visible_as_expected<B: Backend>(dep: &Deployment<B>, lmr: usize, rule: &RuleModel) -> bool {
    let node = dep.sys.lmr(&dep.lmrs[lmr]).expect("listed LMR");
    dep.gen
        .oracle
        .live
        .values()
        .filter(|d| rule.matches(d))
        .all(|d| node.is_cached(&d.host_uri()) == dep.gen.oracle.caches(lmr, d))
}

/// Drives the deployment for `seconds` of measured time.
pub fn drive<B: Backend>(
    dep: &mut Deployment<B>,
    spec: &Spec,
    seconds: f64,
    tracer: &Tracer,
) -> Window {
    let budget = Duration::from_secs_f64(seconds);
    let net_before = dep.sys.network_stats();
    let kinds_before = dep.sys.network().traffic_by_kind();
    B::window_starts(&dep.disk);
    let vfs_before = B::vfs_counts(&dep.disk);
    let commits_before = B::wal_commits(&dep.sys);
    let filter_before = filter_docs(&dep.sys);

    let mut w = Window::default();
    let mut churn_ids: VecDeque<u64> = VecDeque::new();
    // batch mode: documents enqueued since the last flush, and the time
    // from the first enqueue to the return of the flushing call
    let mut batch: Vec<DocModel> = Vec::new();
    let mut batch_time = Duration::ZERO;

    while w.wall < budget || !batch.is_empty() {
        let started = Instant::now();
        let op = dep.gen.next_op();
        let document = match &op {
            Op::Register(d) | Op::Update(d) => Some(d.document()),
            _ => None,
        };
        w.gen_time += started.elapsed();
        w.attempted += 1;
        tracer.set_op(w.attempted);
        let entry = dep.mdps[w.attempted as usize % dep.mdps.len()].clone();

        let ok = match &op {
            Op::Register(d) | Op::Update(d) | Op::Delete(d) => {
                if matches!(spec.backbone, Backbone::Placement(_))
                    && dep.sys.mdp_for_uri(&d.uri()).ok() != Some(entry.as_str())
                {
                    w.routed_ops += 1;
                }
                if spec.durable {
                    w.xml_bytes += document.as_ref().map_or(0, |x| write_document(x).len()) as u64;
                }
                let sys = &mut dep.sys;
                let (kind, (result, took)) = match &op {
                    Op::Register(_) => (
                        "register",
                        tracer.timed("system.register_document", || {
                            sys.register_document(&entry, document.as_ref().expect("built above"))
                        }),
                    ),
                    Op::Update(_) => (
                        "update",
                        tracer.timed("system.update_document", || {
                            sys.update_document(&entry, document.as_ref().expect("built above"))
                        }),
                    ),
                    _ => (
                        "delete",
                        tracer.timed("system.delete_document", || {
                            sys.delete_document(&entry, &d.uri())
                        }),
                    ),
                };
                w.wall += took;
                w.doc_wall += took;
                w.doc_ops += 1;
                match spec.batch {
                    Some(size) if kind == "register" => {
                        batch.push(d.clone());
                        batch_time += took;
                        if batch.len() < size {
                            result.is_ok()
                        } else {
                            w.sample(kind, batch_time);
                            batch_time = Duration::ZERO;
                            let flushed = std::mem::take(&mut batch);
                            result.is_ok()
                                && flushed.iter().all(|d| doc_visible_as_expected(dep, d))
                        }
                    }
                    _ => {
                        w.sample(kind, took);
                        result.is_ok() && doc_visible_as_expected(dep, d)
                    }
                }
            }
            Op::Query {
                lmr,
                text,
                expected,
            } => {
                let sys = &dep.sys;
                let name = &dep.lmrs[*lmr];
                let (result, took) = tracer.timed("system.query", || sys.query(name, text));
                w.wall += took;
                w.sample("query", took);
                result.is_ok_and(|hits| hits.len() == *expected)
            }
            Op::Subscribe { lmr, rule } => {
                let sys = &mut dep.sys;
                let name = &dep.lmrs[*lmr];
                let text = rule.text();
                let (result, took) =
                    tracer.timed("system.subscribe", || sys.subscribe(name, &text));
                w.wall += took;
                w.sample("subscribe", took);
                match result {
                    Ok(id) => {
                        churn_ids.push_back(id);
                        rule_visible_as_expected(dep, *lmr, rule)
                    }
                    Err(_) => false,
                }
            }
            Op::Unsubscribe { lmr, rule } => {
                let id = churn_ids.pop_front().expect("generator pairs churn ops");
                let sys = &mut dep.sys;
                let name = &dep.lmrs[*lmr];
                let (result, took) =
                    tracer.timed("system.unsubscribe", || sys.unsubscribe(name, id));
                w.wall += took;
                w.sample("unsubscribe", took);
                result.is_ok() && rule_visible_as_expected(dep, *lmr, rule)
            }
        };
        if !ok {
            w.failed += 1;
        }
        if spec.gc_every.is_some_and(|every| w.attempted % every == 0) {
            for name in &dep.lmrs {
                let sys = &mut dep.sys;
                let (result, took) =
                    tracer.timed("system.collect_garbage_at", || sys.collect_garbage_at(name));
                w.wall += took;
                w.sample("gc", took);
                match result {
                    Ok(evicted) => w.gc_evicted += evicted as u64,
                    Err(_) => w.failed += 1,
                }
            }
        }
    }

    w.net = net_delta(dep.sys.network_stats(), net_before);
    for (kind, count) in dep.sys.network().traffic_by_kind() {
        let delta = count - kinds_before.get(kind).copied().unwrap_or(0);
        if delta > 0 {
            w.by_kind.insert(kind, delta);
        }
    }
    w.vfs = B::vfs_counts(&dep.disk).since(&vfs_before);
    w.wal_commits = B::wal_commits(&dep.sys) - commits_before;
    w.filter_docs = filter_docs(&dep.sys) - filter_before;
    w
}

/// Share of the rule base cross-checked against the direct evaluator, and
/// the cap that keeps the check to a second or two on the large bases.
const CROSS_CHECK_SHARE: usize = 100;
const CROSS_CHECK_MAX: usize = 12;

/// The end-of-workload gate; returns `(checks made, checks failed)`.
///
/// * every LMR's `cached_uris()` equals the oracle's expected cache;
/// * `backbone_converged()` holds;
/// * a 1 % sample of the rule base (at most 12 rules), evaluated with
///   `mdv_filter::query_eval::evaluate` over the MDPs' databases, matches
///   exactly the documents the generator's rule model says it matches.
pub fn final_checks<B: Backend>(dep: &Deployment<B>, seed: u64) -> (u64, u64) {
    let mut failures = Vec::new();
    let mut checks = 0u64;
    for (i, name) in dep.lmrs.iter().enumerate() {
        checks += 1;
        let cached = dep.sys.lmr(name).expect("listed LMR").cached_uris();
        let expected = dep.gen.oracle.expected_cache(i);
        if cached != expected {
            failures.push(format!(
                "cache of {name}: {} cached, {} expected",
                cached.len(),
                expected.len()
            ));
        }
    }
    checks += 1;
    if !dep.sys.backbone_converged() {
        failures.push("backbone not converged".to_owned());
    }

    let schema = dep.sys.schema();
    let mut rng = Prng::seed_from_u64(seed ^ 0x5eed_c4ec);
    let sample = (dep.rules.len() / CROSS_CHECK_SHARE).clamp(1, CROSS_CHECK_MAX);
    for _ in 0..sample {
        checks += 1;
        let (_, rule) = &dep.rules[rng.below(dep.rules.len() as u64) as usize];
        let evaluated = parse_rule(&rule.text())
            .and_then(|parsed| normalize(&parsed, schema))
            .map_err(|e| e.to_string())
            .and_then(|normal| {
                // under placement no MDP holds every document; a document
                // lives whole on each of its owners, so the union is exact
                let mut uris = Vec::new();
                for mdp in &dep.mdps {
                    let db = dep.sys.mdp(mdp).expect("listed MDP").engine().db();
                    uris.extend(
                        query_eval::evaluate(db, schema, &normal).map_err(|e| e.to_string())?,
                    );
                }
                uris.sort();
                uris.dedup();
                Ok(uris)
            });
        match evaluated {
            Ok(uris) if uris == dep.gen.oracle.matches_of(rule) => {}
            Ok(uris) => failures.push(format!(
                "rule '{}': evaluator finds {} matches, the model {}",
                rule.text(),
                uris.len(),
                dep.gen.oracle.matches_of(rule).len()
            )),
            Err(e) => failures.push(format!("rule '{}': {e}", rule.text())),
        }
    }
    for f in &failures {
        eprintln!("mdvbench: CHECK FAILED: {f}");
    }
    (checks, failures.len() as u64)
}
