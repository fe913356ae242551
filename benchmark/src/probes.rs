//! Per-layer probes of the traced pass.
//!
//! Each layer is measured from outside, through its public entry points:
//! the probes replay the first operations of the same seeded stream the
//! system run saw — once through `rdf` and `rulelang` call by call, once
//! through a stand-alone `FilterEngine` (`core`), once through bare
//! `relstore` tables, and once through a one-MDP pump (`system` without
//! backbone or simulator loop). Nothing inside `crates/` is instrumented;
//! what these probes cannot see ends up in `system.residual_ms_per_doc_op`.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;

use mdv_filter::store::{create_base_tables, T_STATEMENTS};
use mdv_filter::{Atom, FilterEngine, FilterStats};
use mdv_rdf::{parse_document, write_document, Document};
use mdv_relstore::{select, Database, Predicate, Value};
use mdv_rulelang::{normalize, parse_rule, typecheck};
use mdv_runtime::Receiver;
use mdv_system::{Envelope, Lmr, Mdp, Message, NetConfig, Network};
use mdv_workload::benchmark_schema;

use crate::gen::{DocModel, Op, RuleModel};
use crate::span::Tracer;
use crate::stats::per;
use crate::workloads::Spec;

pub type Metrics = BTreeMap<String, f64>;

/// What a traced run hands the probes: the inputs the system run was
/// built from and the operations it was about to see.
pub struct ProbeInputs<'a> {
    pub spec: &'a Spec,
    pub rules: &'a [(usize, RuleModel)],
    pub preloaded: &'a [DocModel],
    pub ops: &'a [Op],
}

/// Rules compiled by the `rulelang` probe and rows probed in `relstore`.
const RULE_SAMPLE: usize = 200;
const SELECT_PROBES: usize = 1_000;
/// Pre-load documents the bare-table probe inserts.
const TABLE_DOCS: usize = 2_000;

struct Acc {
    ns: u128,
    n: u64,
}

impl Acc {
    fn new() -> Self {
        Acc { ns: 0, n: 0 }
    }

    fn add(&mut self, took: std::time::Duration, n: u64) {
        self.ns += took.as_nanos();
        self.n += n;
    }

    fn ms_per(&self) -> f64 {
        per(self.ns as f64 / 1e6, self.n)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    per(num as f64, den)
}

fn probe_documents(inputs: &ProbeInputs) -> Vec<Document> {
    inputs
        .ops
        .iter()
        .filter_map(|op| match op {
            Op::Register(d) | Op::Update(d) => Some(d.document()),
            _ => None,
        })
        .collect()
}

/// `rdf`: XML write, parse and schema validation, per document.
fn probe_rdf(docs: &[Document], tracer: &Tracer, out: &mut Metrics) {
    let schema = benchmark_schema();
    let (mut write, mut parse, mut validate) = (Acc::new(), Acc::new(), Acc::new());
    for doc in docs {
        let (xml, took) = tracer.timed("rdf.write_document", || write_document(doc));
        write.add(took, 1);
        let (parsed, took) = tracer.timed("rdf.parse_document", || parse_document(doc.uri(), &xml));
        parse.add(took, 1);
        let parsed = parsed.expect("generated XML parses");
        let (valid, took) = tracer.timed("rdf.validate", || schema.validate(&parsed));
        validate.add(took, 1);
        valid.expect("generated document is valid");
    }
    out.insert("rdf.write_ms_per_doc".into(), write.ms_per());
    out.insert("rdf.parse_ms_per_doc".into(), parse.ms_per());
    out.insert("rdf.validate_ms_per_doc".into(), validate.ms_per());
}

/// `rulelang`: parse + normalize + typecheck, per rule.
fn probe_rulelang(inputs: &ProbeInputs, tracer: &Tracer, out: &mut Metrics) {
    let schema = benchmark_schema();
    let mut compile = Acc::new();
    for (_, rule) in inputs.rules.iter().take(RULE_SAMPLE) {
        let text = rule.text();
        let (result, took) = tracer.timed("rulelang.compile", || {
            let parsed = parse_rule(&text)?;
            let normal = normalize(&parsed, &schema)?;
            typecheck(&normal, &schema)
        });
        compile.add(took, 1);
        result.expect("generated rule compiles");
    }
    out.insert("rulelang.compile_ms_per_rule".into(), compile.ms_per());
}

/// `core`, atomization alone.
fn probe_atomize(docs: &[Document], tracer: &Tracer, out: &mut Metrics) {
    let mut atomize = Acc::new();
    let mut atoms = 0u64;
    for doc in docs {
        let (made, took) = tracer.timed("core.atomize", || Atom::from_document(doc));
        atomize.add(took, 1);
        atoms += black_box(made).len() as u64;
    }
    out.insert("core.atomize_ms_per_doc".into(), atomize.ms_per());
    out.insert("core.atoms_per_doc".into(), ratio(atoms, docs.len() as u64));
}

/// `relstore`: batch insert into, and indexed point probes of, a bare
/// `Statements` table filled with the pre-load's atoms.
fn probe_relstore(inputs: &ProbeInputs, tracer: &Tracer, out: &mut Metrics) {
    let mut db = Database::new();
    create_base_tables(&mut db).expect("fresh database accepts base tables");
    let row = |a: &Atom| {
        vec![
            Value::Str(a.uri.clone()),
            Value::Str(a.class.clone()),
            Value::Str(a.property.clone()),
            Value::Str(a.value.clone()),
        ]
    };
    let mut insert = Acc::new();
    let mut atoms = Vec::new();
    for d in inputs.preloaded.iter().take(TABLE_DOCS) {
        let doc_atoms = Atom::from_document(&d.document());
        let rows: Vec<_> = doc_atoms.iter().map(row).collect();
        let n = rows.len() as u64;
        let (result, took) = tracer.timed("relstore.insert_batch", || {
            db.insert_batch(T_STATEMENTS, rows)
        });
        insert.add(took, n);
        result.expect("statement rows insert");
        atoms.extend(doc_atoms);
    }
    let table = db.table(T_STATEMENTS).expect("created above");
    let mut probe = Acc::new();
    if !atoms.is_empty() {
        let stride = (atoms.len() / SELECT_PROBES).max(1);
        for a in atoms.iter().step_by(stride) {
            let eq = |col: &str, v: &str| {
                Predicate::col_eq(table.schema(), col, Value::Str(v.to_owned()))
                    .expect("column of the Statements table")
            };
            let pred = eq("uri_reference", &a.uri);
            let (hits, took) = tracer.timed("relstore.select", || select(table, &pred));
            probe.add(took, 1);
            assert!(!hits.expect("point probe runs").is_empty());
        }
    }
    out.insert("relstore.insert_us_per_row".into(), insert.ms_per() * 1e3);
    out.insert("relstore.select_us_per_probe".into(), probe.ms_per() * 1e3);
}

fn stats_delta(after: &FilterStats, before: &FilterStats) -> FilterStats {
    FilterStats {
        documents_registered: after.documents_registered - before.documents_registered,
        atoms_processed: after.atoms_processed - before.atoms_processed,
        trigger_matches: after.trigger_matches - before.trigger_matches,
        trigger_evals: after.trigger_evals - before.trigger_evals,
        join_evaluations: after.join_evaluations - before.join_evaluations,
        probe_cache_hits: after.probe_cache_hits - before.probe_cache_hits,
        probes_executed: after.probes_executed - before.probes_executed,
        iterations: after.iterations - before.iterations,
    }
}

/// What the `core` replay hands on to the attribution.
pub struct CoreReplay {
    /// Mean stand-alone filter time per document operation of the mix.
    pub ms_per_doc_op: f64,
    /// `FilterStats::documents_registered` per document operation.
    pub filter_docs_per_doc_op: f64,
}

/// `core`: the workload's rule base and pre-load in a stand-alone
/// `FilterEngine`, then the operation stream at the workload's batch size.
fn probe_core(inputs: &ProbeInputs, tracer: &Tracer, out: &mut Metrics) -> CoreReplay {
    let mut engine = FilterEngine::new(benchmark_schema());
    for (_, rule) in inputs.rules {
        engine
            .register_subscription(&rule.text())
            .expect("generated rule registers");
    }
    let preload: Vec<Document> = inputs.preloaded.iter().map(DocModel::document).collect();
    for chunk in preload.chunks(100) {
        engine.register_batch(chunk).expect("pre-load registers");
    }

    let batch_size = inputs.spec.batch.unwrap_or(1);
    let before = *engine.stats();
    let (mut register, mut update, mut delete, mut subscribe) =
        (Acc::new(), Acc::new(), Acc::new(), Acc::new());
    let (mut batches, mut publications) = (0u64, 0u64);
    let mut pending: Vec<Document> = Vec::new();
    let mut churn_ids = VecDeque::new();
    for op in inputs.ops {
        match op {
            Op::Register(d) => {
                pending.push(d.document());
                if pending.len() == batch_size {
                    let (pubs, took) =
                        tracer.timed("core.register_batch", || engine.register_batch(&pending));
                    register.add(took, pending.len() as u64);
                    publications += pubs.expect("probe batch registers").len() as u64;
                    batches += 1;
                    pending.clear();
                }
            }
            Op::Update(d) => {
                let doc = d.document();
                let (pubs, took) =
                    tracer.timed("core.update_document", || engine.update_document(&doc));
                update.add(took, 1);
                publications += pubs.expect("probe update applies").len() as u64;
            }
            Op::Delete(d) => {
                let uri = d.uri();
                let (pubs, took) =
                    tracer.timed("core.delete_document", || engine.delete_document(&uri));
                delete.add(took, 1);
                publications += pubs.expect("probe delete applies").len() as u64;
            }
            Op::Subscribe { rule, .. } => {
                let text = rule.text();
                let (result, took) = tracer.timed("core.register_subscription", || {
                    engine.register_subscription(&text)
                });
                subscribe.add(took, 1);
                churn_ids.push_back(result.expect("churn rule registers").0);
            }
            Op::Unsubscribe { .. } => {
                let id = churn_ids.pop_front().expect("generator pairs churn ops");
                engine
                    .unregister_subscription(id)
                    .expect("churn rule unregisters");
            }
            Op::Query { .. } => {}
        }
    }
    let s = stats_delta(engine.stats(), &before);
    let doc_ops = register.n + update.n + delete.n;
    let per_doc = |count: u64| ratio(count, doc_ops);
    out.insert("core.register_ms_per_doc".into(), register.ms_per());
    out.insert("core.update_ms_per_doc".into(), update.ms_per());
    out.insert("core.delete_ms_per_doc".into(), delete.ms_per());
    out.insert("core.subscribe_ms_per_rule".into(), subscribe.ms_per());
    out.insert(
        "core.trigger_evals_per_doc".into(),
        per_doc(s.trigger_evals),
    );
    out.insert(
        "core.trigger_matches_per_doc".into(),
        per_doc(s.trigger_matches),
    );
    out.insert(
        "core.join_evals_per_doc".into(),
        per_doc(s.join_evaluations),
    );
    out.insert(
        "core.probes_executed_per_doc".into(),
        per_doc(s.probes_executed),
    );
    out.insert(
        "core.probe_cache_hit_ratio".into(),
        ratio(s.probe_cache_hits, s.probe_cache_hits + s.probes_executed),
    );
    out.insert(
        "core.iterations_per_batch".into(),
        ratio(s.iterations, batches + update.n + delete.n),
    );
    out.insert("core.publications_per_doc".into(), per_doc(publications));
    CoreReplay {
        ms_per_doc_op: (register.ns + update.ns + delete.ns) as f64 / 1e6 / doc_ops.max(1) as f64,
        filter_docs_per_doc_op: per_doc(s.documents_registered),
    }
}

/// What the pump replay hands on to the attribution.
pub struct PumpReplay {
    pub mdp_ms_per_doc_op: f64,
    pub lmr_apply_ms_per_publication: f64,
    pub publications_per_doc_op: f64,
}

/// Delivers queued mail until every mailbox is empty, timing `Lmr::handle`
/// on `Publish` envelopes into `apply`.
fn pump(
    net: &Network,
    mdp: &mut Mdp,
    mdp_rx: &Receiver<Envelope>,
    lmrs: &mut [(Lmr, Receiver<Envelope>)],
    tracer: &Tracer,
    apply: &mut Acc,
) {
    loop {
        let mut progressed = false;
        while let Ok(env) = mdp_rx.try_recv() {
            progressed = true;
            mdp.handle(env, net).expect("pump: MDP handles its mail");
        }
        for (lmr, rx) in lmrs.iter_mut() {
            while let Ok(env) = rx.try_recv() {
                progressed = true;
                if matches!(env.message, Message::Publish(_)) {
                    let (result, took) =
                        tracer.timed("system.lmr.handle_publish", || lmr.handle(env, net));
                    apply.add(took, 1);
                    result.expect("pump: LMR applies a publication");
                } else {
                    lmr.handle(env, net).expect("pump: LMR handles its mail");
                }
            }
        }
        if !progressed {
            return;
        }
    }
}

/// `system` without backbone or simulator: one `Mdp`, the workload's
/// LMRs, an own `Network`, and a pump that hands mail over directly.
fn probe_pump(inputs: &ProbeInputs, tracer: &Tracer, out: &mut Metrics) -> PumpReplay {
    let schema = benchmark_schema();
    let net = Network::new(NetConfig::default());
    let mdp_rx = net.register("m1").expect("fresh network");
    net.mark_backbone("m1");
    let mut mdp = Mdp::new("m1", schema.clone());
    let mut lmrs: Vec<(Lmr, Receiver<Envelope>)> = inputs
        .spec
        .lmr_names()
        .iter()
        .map(|name| {
            let rx = net.register(name).expect("fresh network");
            (Lmr::new(name, "m1", schema.clone()), rx)
        })
        .collect();
    let mut setup_apply = Acc::new();
    for (lmr, rule) in inputs.rules {
        lmrs[*lmr]
            .0
            .subscribe(&rule.text(), &net)
            .expect("pump: rule subscribes");
        pump(
            &net,
            &mut mdp,
            &mdp_rx,
            &mut lmrs,
            &Tracer::off(),
            &mut setup_apply,
        );
    }
    mdp.set_batch_size(inputs.spec.batch);
    for d in inputs.preloaded {
        mdp.register_document(&d.document(), &net, true)
            .expect("pump: pre-load registers");
        pump(
            &net,
            &mut mdp,
            &mdp_rx,
            &mut lmrs,
            &Tracer::off(),
            &mut setup_apply,
        );
    }

    let (mut at_mdp, mut apply) = (Acc::new(), Acc::new());
    for op in inputs.ops {
        match op {
            Op::Register(d) => {
                let doc = d.document();
                let (result, took) = tracer.timed("system.mdp.register_document", || {
                    mdp.register_document(&doc, &net, true)
                });
                at_mdp.add(took, 1);
                result.expect("pump: document registers");
            }
            Op::Update(d) => {
                let doc = d.document();
                let (result, took) = tracer.timed("system.mdp.update_document", || {
                    mdp.update_document(&doc, &net, true)
                });
                at_mdp.add(took, 1);
                result.expect("pump: document updates");
            }
            Op::Delete(d) => {
                let uri = d.uri();
                let (result, took) = tracer.timed("system.mdp.delete_document", || {
                    mdp.delete_document(&uri, &net, true)
                });
                at_mdp.add(took, 1);
                result.expect("pump: document deletes");
            }
            // rule churn and queries are not part of the document path
            Op::Subscribe { .. } | Op::Unsubscribe { .. } | Op::Query { .. } => continue,
        }
        pump(&net, &mut mdp, &mdp_rx, &mut lmrs, tracer, &mut apply);
    }
    let replay = PumpReplay {
        mdp_ms_per_doc_op: at_mdp.ms_per(),
        lmr_apply_ms_per_publication: apply.ms_per(),
        publications_per_doc_op: ratio(apply.n, at_mdp.n),
    };
    out.insert(
        "system.mdp.register_ms_per_doc".into(),
        replay.mdp_ms_per_doc_op,
    );
    out.insert(
        "system.lmr.apply_ms_per_publication".into(),
        replay.lmr_apply_ms_per_publication,
    );
    out.insert(
        "system.lmr.publications_per_doc_op".into(),
        replay.publications_per_doc_op,
    );
    replay
}

pub struct Replays {
    pub core: CoreReplay,
    pub pump: PumpReplay,
}

pub fn run(inputs: &ProbeInputs, tracer: &Tracer, out: &mut Metrics) -> Replays {
    let docs = probe_documents(inputs);
    probe_rdf(&docs, tracer, out);
    probe_rulelang(inputs, tracer, out);
    probe_atomize(&docs, tracer, out);
    probe_relstore(inputs, tracer, out);
    let core = probe_core(inputs, tracer, out);
    let pump = probe_pump(inputs, tracer, out);
    out.insert(
        "system.mdp.publish_overhead_ms_per_doc".into(),
        pump.mdp_ms_per_doc_op - core.ms_per_doc_op,
    );
    Replays { core, pump }
}
