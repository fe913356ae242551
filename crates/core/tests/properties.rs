//! Property-based tests of the filter algorithm against random workloads,
//! on `mdv-testkit` (deterministic seeds, ≥64 cases, see `MDV_PROP_CASES`).
//!
//! The central oracle: the incremental, index-driven [`FilterEngine`] must
//! produce exactly the matches of the [`NaiveEngine`] baseline (which
//! evaluates every rule against every new resource), for any rule base and
//! any batch of documents.

use std::collections::BTreeSet;

use mdv_filter::store::{create_base_tables, T_RESOURCES, T_RULE_RESULTS, T_STATEMENTS};
use mdv_filter::{BaseStore, FilterEngine, NaiveEngine};
use mdv_rdf::{diff, Document, RdfSchema, Resource, Term, UriRef};
use mdv_relstore::{Database, DurableEngine, FaultVfs};
use mdv_testkit::{prop_assert, prop_assert_eq, property, Source};

fn schema() -> RdfSchema {
    RdfSchema::builder()
        .class("ServerInformation", |c| c.int("memory").int("cpu"))
        .class("CycleProvider", |c| {
            c.str("serverHost")
                .int("serverPort")
                .strong_ref("serverInformation", "ServerInformation")
        })
        .build()
        .unwrap()
}

#[derive(Debug, Clone)]
struct DocSpec {
    host: String,
    port: i64,
    memory: i64,
    cpu: i64,
}

fn arb_doc_spec(src: &mut Source) -> DocSpec {
    DocSpec {
        host: format!(
            "{}.{}",
            src.string_of("abc", 1..4),
            src.choose(&["org", "de"])
        ),
        port: src.i64_in(1..10),
        memory: src.i64_in(0..200),
        cpu: src.i64_in(0..1000),
    }
}

fn make_doc(i: usize, s: &DocSpec) -> Document {
    make_doc_referencing(i, s, i)
}

/// Like [`make_doc`], with the provider referencing the `info` of document
/// `info_doc` instead of its own.
fn make_doc_referencing(i: usize, s: &DocSpec, info_doc: usize) -> Document {
    let uri = format!("doc{i}.rdf");
    Document::new(uri.clone())
        .with_resource(
            Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
                .with("serverHost", Term::literal(&s.host))
                .with("serverPort", Term::literal(s.port.to_string()))
                .with(
                    "serverInformation",
                    Term::resource(UriRef::new(&format!("doc{info_doc}.rdf"), "info")),
                ),
        )
        .with_resource(
            Resource::new(UriRef::new(&uri, "info"), "ServerInformation")
                .with("memory", Term::literal(s.memory.to_string()))
                .with("cpu", Term::literal(s.cpu.to_string())),
        )
}

/// Rules drawn from the paper's benchmark shapes (Figure 10) with random
/// parameters, plus join and or-variants.
fn arb_rule(src: &mut Source) -> String {
    arb_rule_of(src, 8)
}

/// The first `shapes` shapes of [`arb_rule`]; 7 leaves out the or-rule.
fn arb_rule_of(src: &mut Source, shapes: usize) -> String {
    match src.usize_in(0..shapes) {
        // OID
        0 => format!(
            "search CycleProvider c register c where c = 'doc{}.rdf#host'",
            src.usize_in(0..20)
        ),
        // COMP
        1 => format!(
            "search CycleProvider c register c where c.serverPort > {}",
            src.i64_in(0..10)
        ),
        // PATH (equality and ordering)
        2 => format!(
            "search CycleProvider c register c where c.serverInformation.memory = {}",
            src.i64_in(0..200)
        ),
        3 => format!(
            "search CycleProvider c register c where c.serverInformation.memory > {}",
            src.i64_in(0..200)
        ),
        // JOIN
        4 => format!(
            "search CycleProvider c register c \
             where c.serverHost contains '.org' \
             and c.serverInformation.memory >= {} and c.serverInformation.cpu < {}",
            src.i64_in(0..200),
            src.i64_in(0..1000)
        ),
        // contains
        5 => format!(
            "search CycleProvider c register c where c.serverHost contains '{}'",
            src.string_of("abc.", 1..4)
        ),
        // register the referenced side
        6 => format!(
            "search ServerInformation s register s where s.memory <= {}",
            src.i64_in(0..200)
        ),
        // or-rule
        _ => format!(
            "search CycleProvider c register c \
             where c.serverInformation.memory > {} or c.serverInformation.cpu > {}",
            src.i64_in(0..200),
            src.i64_in(0..1000)
        ),
    }
}

fn arb_rules(src: &mut Source, max: usize) -> Vec<String> {
    src.vec(1..max, arb_rule)
}

fn arb_docs(src: &mut Source, max: usize) -> Vec<Document> {
    let specs = src.vec(1..max, arb_doc_spec);
    specs
        .iter()
        .enumerate()
        .map(|(i, s)| make_doc(i, s))
        .collect()
}

/// The schema of `seeded_query_evaluation_equals_the_scan`: [`schema`]
/// with a superclass, a set-valued numeric property and a second reference
/// step (`Provider → ServerInformation → Rack`).
fn query_schema() -> RdfSchema {
    RdfSchema::builder()
        .class("Rack", |c| c.int("floor"))
        .class("ServerInformation", |c| {
            c.int("memory").int("cpu").weak_ref("rack", "Rack")
        })
        .class("Provider", |c| {
            c.str("serverHost")
                .int("serverPort")
                .int_set("slots")
                .strong_ref("serverInformation", "ServerInformation")
        })
        .class("CycleProvider", |c| c.extends("Provider"))
        .build()
        .unwrap()
}

/// One number in the spellings the reconverting comparison must treat
/// alike, beside numbers it must not.
const NUMBER_POOL: [&str; 6] = ["64", "064", "64.0", "7", "65", "128"];

/// A cache-like database: providers of both classes with zero to three
/// `slots`, referencing the information of any document (present or not),
/// which in turn references one of three racks (the third is absent).
fn query_db(src: &mut Source) -> Database {
    let mut db = Database::new();
    create_base_tables(&mut db).unwrap();
    for rack in 0..2 {
        let res = Resource::new(UriRef::new("racks.rdf", &format!("r{rack}")), "Rack")
            .with("floor", Term::literal(rack.to_string()));
        BaseStore::insert_resource(&mut db, &res, "racks.rdf").unwrap();
    }
    let docs = src.usize_in(0..8);
    for i in 0..docs {
        let uri = format!("doc{i}.rdf");
        let host = format!(
            "{}.{}",
            src.string_of("abc", 1..4),
            src.choose(&["org", "de"])
        );
        let mut provider = Resource::new(
            UriRef::new(&uri, "host"),
            *src.choose(&["Provider", "CycleProvider"]),
        )
        .with("serverHost", Term::literal(host))
        .with("serverPort", Term::literal(src.i64_in(1..10).to_string()))
        .with(
            "serverInformation",
            Term::resource(UriRef::new(
                &format!("doc{}.rdf", src.usize_in(0..docs + 1)),
                "info",
            )),
        );
        for _ in 0..src.usize_in(0..4) {
            provider.add("slots", Term::literal(*src.choose(&NUMBER_POOL)));
        }
        let info = Resource::new(UriRef::new(&uri, "info"), "ServerInformation")
            .with("memory", Term::literal(*src.choose(&NUMBER_POOL)))
            .with("cpu", Term::literal(src.i64_in(0..1000).to_string()))
            .with(
                "rack",
                Term::resource(UriRef::new(
                    "racks.rdf",
                    &format!("r{}", src.usize_in(0..3)),
                )),
            );
        BaseStore::insert_resource(&mut db, &provider, &uri).unwrap();
        BaseStore::insert_resource(&mut db, &info, &uri).unwrap();
    }
    db
}

/// Queries whose register variable can be seeded from an index — by string
/// equality, OID (present or not), numeric comparison over a set-valued
/// property, `contains`, a reference hop in either direction, two hops —
/// or cannot, beside the shapes of [`arb_rule`].
fn arb_query(src: &mut Source) -> String {
    let n = *src.choose(&["64", "7", "100"]);
    match src.usize_in(0..12) {
        0 => format!("search Provider p register p where p.slots? = {n}"),
        1 => format!("search Provider p register p where p.slots? > {n}"),
        2 => format!("search Provider p register p where p.serverInformation.memory = {n}"),
        3 => format!(
            "search Provider p register p where p.serverHost contains '{}'",
            src.string_of("abc.", 1..3)
        ),
        4 => format!(
            "search Provider p register p where p = 'doc{}.rdf#host'",
            src.usize_in(0..12)
        ),
        5 => format!(
            "search Provider p register p where p.serverInformation.rack.floor = {}",
            src.usize_in(0..3)
        ),
        6 => format!(
            "search ServerInformation s, Provider p register s \
             where p.serverInformation = s and p.serverPort > {}",
            src.i64_in(0..10)
        ),
        7 => format!(
            "search Provider p register p where p.serverHost = '{}.org'",
            src.string_of("abc", 1..3)
        ),
        8 => format!("search ServerInformation s register s where s.memory != {n}"),
        9 => "search CycleProvider c register c".to_owned(),
        _ => arb_rule(src),
    }
}

/// The schema of `rule_groups_are_transparent`: [`schema`] with a
/// superclass, so rules on `Provider` are matched by instances of both
/// classes and rules on `CycleProvider` by one.
fn oracle_schema() -> RdfSchema {
    RdfSchema::builder()
        .class("ServerInformation", |c| c.int("memory").int("cpu"))
        .class("Provider", |c| {
            c.str("serverHost")
                .int("serverPort")
                .strong_ref("serverInformation", "ServerInformation")
        })
        .class("CycleProvider", |c| c.extends("Provider"))
        .build()
        .unwrap()
}

/// A provider of either class and its `ServerInformation`; a third of the
/// providers reference the information of *another* document, registered
/// or not, so joins complete across documents and batches. Values are
/// drawn narrowly: every `memory` hits one of the 55 shared-trigger rules,
/// and ports land on both sides of `cpu` and `memory`.
fn oracle_doc(src: &mut Source, i: usize) -> Document {
    let uri = format!("doc{i}.rdf");
    let info_doc = if src.usize_in(0..3) == 0 {
        format!("doc{}.rdf", src.usize_in(0..12))
    } else {
        uri.clone()
    };
    let host = format!(
        "{}.{}",
        src.string_of("ab", 1..3),
        src.choose(&["org", "de"])
    );
    Document::new(uri.clone())
        .with_resource(
            Resource::new(
                UriRef::new(&uri, "host"),
                *src.choose(&["Provider", "CycleProvider"]),
            )
            .with("serverHost", Term::literal(host))
            .with("serverPort", Term::literal(src.i64_in(1..10).to_string()))
            .with(
                "serverInformation",
                Term::resource(UriRef::new(&info_doc, "info")),
            ),
        )
        .with_resource(
            Resource::new(UriRef::new(&uri, "info"), "ServerInformation")
                .with("memory", Term::literal(src.i64_in(0..55).to_string()))
                .with("cpu", Term::literal(src.i64_in(0..12).to_string())),
        )
}

/// Join shapes beyond Figure 10: identity self-joins whose two inputs are
/// one rule, value joins by equality and by order, either register side,
/// rules on the subclass, and the PATH / JOIN / or shapes of [`arb_rule`].
fn oracle_rule(src: &mut Source) -> String {
    let k = src.i64_in(0..10);
    match src.usize_in(0..10) {
        0 => format!(
            "search Provider a, Provider b register a \
             where a.serverPort > {k} and b.serverPort > {k} and a = b"
        ),
        1 => "search CycleProvider a, CycleProvider b register a where a = b".to_owned(),
        2 => "search Provider c, ServerInformation s register c \
              where c.serverPort < s.memory"
            .to_owned(),
        3 => format!(
            "search Provider c, ServerInformation s register s \
             where c.serverPort >= s.cpu and s.memory > {}",
            5 * k
        ),
        4 => {
            "search Provider a, Provider b register a where a.serverHost = b.serverHost".to_owned()
        }
        5 => format!(
            "search Provider c register c where c.serverInformation.memory > {}",
            5 * k
        ),
        6 => format!("search CycleProvider c register c where c.serverInformation.cpu < {k}"),
        7 => format!(
            "search Provider c register c where c.serverHost contains '.org' \
             and c.serverInformation.memory >= {} and c.serverInformation.cpu < {k}",
            5 * k
        ),
        8 => format!(
            "search ServerInformation s register s where s.memory <= {}",
            5 * k
        ),
        _ => format!(
            "search Provider c register c \
             where c.serverInformation.memory > {} or c.serverInformation.cpu > {k}",
            5 * k
        ),
    }
}

/// Subscribes `rule` at both engines of `rule_groups_are_transparent`:
/// same id and initial matches, and the grouped engine's join index still
/// equal to a recomputation from its rules.
fn subscribe_both(
    grouped: &mut FilterEngine,
    reference: &mut FilterEngine,
    rule: &str,
) -> Result<mdv_filter::SubscriptionId, String> {
    let a = grouped.register_subscription(rule).unwrap();
    let b = reference.register_subscription(rule).unwrap();
    prop_assert_eq!(&a, &b, "subscribe {}", rule);
    grouped.graph().check_join_index()?;
    Ok(a.0)
}

fn added_matches(pubs: &[mdv_filter::Publication]) -> Vec<(u64, String)> {
    let mut out: Vec<(u64, String)> = pubs
        .iter()
        .flat_map(|p| p.added.iter().map(move |u| (p.subscription.0, u.clone())))
        .collect();
    out.sort();
    out
}

property! {
    /// Filter and naive baseline agree on arbitrary rule bases and batches.
    fn filter_equals_naive(src) {
        let rules = arb_rules(src, 8);
        let docs = arb_docs(src, 10);
        let mut filter = FilterEngine::new(schema());
        let mut naive = NaiveEngine::new(schema());
        for r in &rules {
            // subscription ids stay aligned because both engines assign
            // sequentially
            filter.register_subscription(r).unwrap();
            naive.register_subscription(r).unwrap();
        }
        let a = filter.register_batch(&docs).unwrap();
        let b = naive.register_batch(&docs).unwrap();
        prop_assert_eq!(added_matches(&a), added_matches(&b));
    }

    /// Rule groups are a pure optimization. The grouped engine finds join
    /// candidates through the input-pair index (DESIGN.md §5), the
    /// ungrouped one evaluates every affected join rule by itself — the
    /// reference. Fed the same stream of subscribe / unsubscribe / register
    /// / update / delete, both must return the same initial matches, the
    /// same publications and the same Figure-9 trace, row order included;
    /// and after every change to the rule base the grouped engine's join
    /// index must equal a recomputation from its rules.
    fn rule_groups_are_transparent(src) {
        let mut grouped = FilterEngine::new(oracle_schema());
        let mut reference = FilterEngine::per_member_reference(oracle_schema());
        let mut subs = Vec::new();
        // one trigger (`Provider`) shared by 55 members of one rule group
        for k in 0..55 {
            let rule =
                format!("search Provider c register c where c.serverInformation.memory = {k}");
            subs.push(subscribe_both(&mut grouped, &mut reference, &rule)?);
        }
        let mut live: Vec<usize> = Vec::new();
        let mut next_doc = 0usize;
        for step in 0..src.usize_in(6..16) {
            match src.usize_in(0..8) {
                0..=2 => {
                    let rule = oracle_rule(src);
                    subs.push(subscribe_both(&mut grouped, &mut reference, &rule)?);
                }
                3 if !subs.is_empty() => {
                    let id = subs.swap_remove(src.usize_in(0..subs.len()));
                    grouped.unregister_subscription(id).unwrap();
                    reference.unregister_subscription(id).unwrap();
                    grouped.graph().check_join_index()?;
                }
                4 if !live.is_empty() => {
                    let i = *src.choose(&live);
                    let doc = oracle_doc(src, i);
                    let a = grouped.update_document(&doc).unwrap();
                    let b = reference.update_document(&doc).unwrap();
                    prop_assert_eq!(a, b, "step {}: update {}", step, doc.uri());
                }
                5 if !live.is_empty() => {
                    let uri = format!("doc{}.rdf", live.swap_remove(src.usize_in(0..live.len())));
                    let a = grouped.delete_document(&uri).unwrap();
                    let b = reference.delete_document(&uri).unwrap();
                    prop_assert_eq!(a, b, "step {}: delete {}", step, uri);
                }
                _ => {
                    let docs: Vec<Document> = (0..src.usize_in(1..5))
                        .map(|k| oracle_doc(src, next_doc + k))
                        .collect();
                    live.extend(next_doc..next_doc + docs.len());
                    next_doc += docs.len();
                    let (pubs_a, run_a) = grouped.register_batch_traced(&docs).unwrap();
                    let (pubs_b, run_b) = reference.register_batch_traced(&docs).unwrap();
                    prop_assert_eq!(pubs_a, pubs_b, "step {}: publications", step);
                    prop_assert_eq!(run_a.render(), run_b.render(), "step {}: trace", step);
                    prop_assert_eq!(run_a, run_b, "step {}: row order of the trace", step);
                }
            }
        }
    }

    /// Batched registration equals one-document-at-a-time registration.
    fn batching_is_transparent(src) {
        let rules = arb_rules(src, 6);
        let docs = arb_docs(src, 8);
        let mut batch = FilterEngine::new(schema());
        let mut seq = FilterEngine::new(schema());
        for r in &rules {
            batch.register_subscription(r).unwrap();
            seq.register_subscription(r).unwrap();
        }
        let a = added_matches(&batch.register_batch(&docs).unwrap());
        let mut b = Vec::new();
        for d in &docs {
            b.extend(added_matches(&seq.register_document(d).unwrap()));
        }
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// A WAL-durable filter publishes exactly what the in-memory one
    /// publishes, and one `register_batch` is one commit group (DESIGN.md
    /// §6.2): over every rule type and batch sizes from 1 to 12, each batch
    /// appends to the log and flushes it exactly once.
    fn durable_filter_publishes_like_memory_in_one_commit_group(src) {
        let rules = arb_rules(src, 8);
        let store = DurableEngine::create_with(FaultVfs::new(src.bits()), "/prop").unwrap();
        let mut durable = FilterEngine::with_storage(store, schema());
        let mut memory = FilterEngine::new(schema());
        for r in &rules {
            prop_assert_eq!(
                durable.register_subscription(r).unwrap(),
                memory.register_subscription(r).unwrap()
            );
        }
        let mut next_doc = 0;
        for _ in 0..src.usize_in(1..4) {
            let batch: Vec<Document> = src
                .vec(1..13, arb_doc_spec)
                .iter()
                .enumerate()
                .map(|(k, s)| make_doc(next_doc + k, s))
                .collect();
            next_doc += batch.len();
            let commits = durable.storage().commits();
            let wal_bytes = durable.storage().wal_bytes();
            prop_assert_eq!(
                durable.register_batch(&batch).unwrap(),
                memory.register_batch(&batch).unwrap()
            );
            prop_assert_eq!(
                durable.storage().commits() - commits,
                1,
                "a batch of {} documents must be one commit group",
                batch.len()
            );
            prop_assert!(durable.storage().wal_bytes() > wal_bytes, "the batch logged nothing");
        }
    }

    /// A rejected batch registers nothing. Whatever makes a document
    /// unacceptable — an unknown class, a document URI that is already
    /// registered, a resource URI the base tables already hold for another
    /// document — the error names the first offender in batch order, the
    /// engine is left exactly as it was, and the good documents register
    /// afterwards as on an engine that never saw the bad batch.
    fn rejected_batch_registers_nothing(src) {
        let rules = arb_rules(src, 5);
        let good = arb_docs(src, 5);
        let registered = [100, 101].map(|i| make_doc(i, &arb_doc_spec(src)));
        // two offenders, the second behind the first; `needles[k]` is what
        // an error about offender k names, `foreign` the resources a
        // document other than their own already holds
        let mut batch = good.clone();
        let mut needles = Vec::new();
        let mut foreign = Vec::new();
        for (k, pos) in [src.usize_in(0..batch.len()), batch.len()].into_iter().enumerate() {
            let uri = format!("bad{k}.rdf");
            let own = UriRef::new(&uri, "x");
            let (doc, needle) = match src.usize_in(0..3) {
                0 => (
                    Document::new(&uri).with_resource(Resource::new(own.clone(), "UnknownClass")),
                    own.to_string(),
                ),
                1 => (make_doc(100 + k, &arb_doc_spec(src)), format!("doc10{k}.rdf")),
                _ => {
                    let res = Resource::new(own.clone(), "ServerInformation")
                        .with("memory", Term::literal("64"));
                    foreign.push(res.clone());
                    (Document::new(&uri).with_resource(res), own.to_string())
                }
            };
            batch.insert(pos, doc);
            needles.push(needle);
        }
        let mut engine = FilterEngine::new(schema());
        for r in &rules {
            engine.register_subscription(r).unwrap();
        }
        engine.register_batch(&registered).unwrap();
        for res in &foreign {
            BaseStore::insert_resource(engine.storage_mut(), res, "elsewhere.rdf").unwrap();
        }
        let mut untouched = engine.clone();
        let state = |e: &FilterEngine| {
            let rows = [T_RESOURCES, T_STATEMENTS, T_RULE_RESULTS]
                .map(|t| e.db().table(t).unwrap().len());
            (e.document_count(), *e.stats(), rows)
        };
        let err = engine.register_batch(&batch).unwrap_err().to_string();
        prop_assert!(
            err.contains(&needles[0]) && !err.contains(&needles[1]),
            "'{}' must name {} and not {}",
            err,
            needles[0],
            needles[1]
        );
        prop_assert_eq!(state(&engine), state(&untouched), "rejection must be atomic");
        prop_assert_eq!(
            engine.register_batch(&good).unwrap(),
            untouched.register_batch(&good).unwrap()
        );
    }

    /// Registering rules before or after the data yields the same matches
    /// (backfill equals live filtering).
    fn backfill_equals_live(src) {
        let rules = arb_rules(src, 6);
        let docs = arb_docs(src, 8);

        // live: rules first, then data
        let mut live = FilterEngine::new(schema());
        for r in &rules {
            live.register_subscription(r).unwrap();
        }
        let live_matches = added_matches(&live.register_batch(&docs).unwrap());

        // backfill: data first, then rules
        let mut back = FilterEngine::new(schema());
        back.register_batch(&docs).unwrap();
        let mut back_matches = Vec::new();
        for (i, r) in rules.iter().enumerate() {
            let (_, initial) = back.register_subscription(r).unwrap();
            back_matches.extend(initial.into_iter().map(|u| (i as u64, u)));
        }
        back_matches.sort();
        prop_assert_eq!(live_matches, back_matches);
    }

    /// An update cycle (register → update → update back) converges to the
    /// same engine-visible state as registering the final version directly.
    fn update_converges_to_fresh_state(src) {
        let rules = arb_rules(src, 5);
        let spec_a = arb_doc_spec(src);
        let spec_b = arb_doc_spec(src);
        let mut engine = FilterEngine::new(schema());
        for r in &rules {
            engine.register_subscription(r).unwrap();
        }
        engine.register_document(&make_doc(0, &spec_a)).unwrap();
        engine.update_document(&make_doc(0, &spec_b)).unwrap();

        let mut fresh = FilterEngine::new(schema());
        for r in &rules {
            fresh.register_subscription(r).unwrap();
        }
        fresh.register_document(&make_doc(0, &spec_b)).unwrap();

        // the materialized state agrees
        let dump = |e: &FilterEngine| {
            let mut rows: Vec<String> = e
                .db()
                .table("RuleResults")
                .unwrap()
                .iter()
                .map(|(_, r)| format!("{r:?}"))
                .collect();
            rows.sort();
            rows
        };
        prop_assert_eq!(dump(&engine), dump(&fresh));
        // and each end rule's current matches agree via check_match
        let subs: Vec<_> = engine.subscriptions().map(|s| s.end_rules.clone()).collect();
        for ends in subs {
            for end in ends {
                let a = engine.check_match(end, "doc0.rdf#host").unwrap();
                let b = fresh.check_match(end, "doc0.rdf#host").unwrap();
                prop_assert_eq!(a, b);
            }
        }
    }

    /// An update's publications, pinned to their definitions. `updated`
    /// lists an updated resource for a subscription exactly when some
    /// resource that strongly references it (itself included) matches one of
    /// the subscription's end rules — asked here one rule × one referrer at
    /// a time through `check_match`. `removed` is the difference of the
    /// naive matches before and after; `added` holds that difference the
    /// other way round and otherwise only current matches (a candidate pass
    /// 2 re-derives is announced again through its unaffected rules too).
    /// Or-rules are left out: their end rules are classified one by one.
    fn update_publications_match_their_definition(src) {
        let rules = src.vec(1..8, |src| {
            if src.usize_in(0..4) == 0 {
                format!(
                    "search CycleProvider c register c where c = 'doc{}.rdf#host'",
                    src.usize_in(0..2)
                )
            } else {
                arb_rule_of(src, 7)
            }
        });
        let spec_a = arb_doc_spec(src);
        let mut spec_b = arb_doc_spec(src);
        if src.bool() {
            // only the referenced resource changes
            spec_b.host = spec_a.host.clone();
            spec_b.port = spec_a.port;
        }
        let (old, new) = (make_doc(0, &spec_a), make_doc(0, &spec_b));
        // `doc1.rdf#host` references `doc0.rdf#info` across documents
        let other = make_doc_referencing(1, &arb_doc_spec(src), 0);

        let naive_matches = |docs: &[Document]| -> BTreeSet<(u64, String)> {
            let mut naive = NaiveEngine::new(schema());
            for r in &rules {
                naive.register_subscription(r).unwrap();
            }
            added_matches(&naive.register_batch(docs).unwrap()).into_iter().collect()
        };
        let before = naive_matches(&[old.clone(), other.clone()]);
        let after = naive_matches(&[new.clone(), other.clone()]);

        let mut engine = FilterEngine::new(schema());
        for r in &rules {
            engine.register_subscription(r).unwrap();
        }
        engine.register_batch(&[old.clone(), other]).unwrap();
        let pubs = engine.update_document(&new).unwrap();

        let subs: Vec<_> = engine.subscriptions().map(|s| (s.id.0, s.end_rules.clone())).collect();
        let mut expected_updated = BTreeSet::new();
        for (_, res) in &diff(&old, &new).updated {
            let referrers = engine.strong_referrers(res.uri().as_str()).unwrap();
            for (sub, ends) in &subs {
                for end in ends {
                    for r in &referrers {
                        if engine.check_match(*end, r).unwrap() {
                            expected_updated.insert((*sub, res.uri().to_string()));
                        }
                    }
                }
            }
        }
        let listed = |list: fn(&mdv_filter::Publication) -> &Vec<String>| -> BTreeSet<(u64, String)> {
            pubs.iter()
                .flat_map(|p| list(p).iter().map(move |u| (p.subscription.0, u.clone())))
                .collect()
        };
        prop_assert_eq!(listed(|p| &p.updated), expected_updated, "updated");
        prop_assert_eq!(
            listed(|p| &p.removed),
            before.difference(&after).cloned().collect::<BTreeSet<_>>(),
            "removed"
        );
        let added = listed(|p| &p.added);
        prop_assert!(
            after.difference(&before).all(|m| added.contains(m)) && added.is_subset(&after),
            "added {:?}, matches before {:?} and after {:?}",
            added,
            before,
            after
        );
    }

    /// Unregistering everything leaves an empty graph and empty rule tables.
    fn unregister_all_is_clean(src) {
        let rules = arb_rules(src, 6);
        let specs = src.vec(0..5, arb_doc_spec);
        let mut engine = FilterEngine::new(schema());
        let docs: Vec<Document> =
            specs.iter().enumerate().map(|(i, s)| make_doc(i, s)).collect();
        engine.register_batch(&docs).unwrap();
        let mut subs = Vec::new();
        for r in &rules {
            subs.push(engine.register_subscription(r).unwrap().0);
        }
        for s in subs {
            engine.unregister_subscription(s).unwrap();
        }
        prop_assert!(engine.graph().is_empty());
        prop_assert_eq!(engine.db().table("AtomicRules").unwrap().len(), 0);
        prop_assert_eq!(engine.db().table("RuleDependencies").unwrap().len(), 0);
        prop_assert_eq!(engine.db().table("RuleGroups").unwrap().len(), 0);
        prop_assert_eq!(engine.db().table("RuleResults").unwrap().len(), 0);
        for t in ["FilterRules", "FilterRulesEQ", "FilterRulesGT", "FilterRulesCON"] {
            prop_assert_eq!(engine.db().table(t).unwrap().len(), 0);
        }
    }

    /// Seeding the register variable's candidates from the base-table
    /// indexes is a pure optimization: `evaluate` returns what checking
    /// every resource of the register class and its subclasses returns.
    fn seeded_query_evaluation_equals_the_scan(src) {
        use mdv_filter::query_eval::{class_and_descendants, evaluate, rule_matches};
        use mdv_rulelang::{normalize, parse_rule, split_or};

        let s = query_schema();
        let db = query_db(src);
        for query in src.vec(1..6, arb_query) {
            for conj in split_or(&parse_rule(&query).unwrap()) {
                let n = normalize(&conj, &s).unwrap();
                let mut scanned = Vec::new();
                for class in class_and_descendants(&s, n.register_class()) {
                    for uri in BaseStore::resources_of_class(&db, &class).unwrap() {
                        if rule_matches(&db, &s, &n, &uri).unwrap() {
                            scanned.push(uri);
                        }
                    }
                }
                scanned.sort();
                scanned.dedup();
                prop_assert_eq!(evaluate(&db, &s, &n).unwrap(), scanned, "query: {}", conj);
            }
        }
    }
}
