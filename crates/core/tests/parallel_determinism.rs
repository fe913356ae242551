//! Determinism of the parallel filter (DESIGN.md §5): for the same rule
//! base and the same workload, every thread count must produce the same
//! publications, the same iteration trace, and the same stats — byte for
//! byte. `tests/fault_sim.rs` and the seeded fault plans in `mdv-system`
//! depend on this; a schedule-dependent filter would make every seeded
//! scenario irreproducible.
//!
//! The workload generators are hand-rolled here (mirroring the paper's
//! Figure 10 shapes) because `mdv-workload` dev-depends on this crate.

use mdv_filter::{FilterConfig, FilterEngine, Publication};
use mdv_rdf::{Document, RdfSchema, Resource, Term, UriRef};
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

fn make_doc(i: usize, host: &str, port: i64, memory: i64, cpu: i64) -> Document {
    let uri = format!("doc{i}.rdf");
    Document::new(uri.clone())
        .with_resource(
            Resource::new(UriRef::new(&uri, "host"), "CycleProvider")
                .with("serverHost", Term::literal(host))
                .with("serverPort", Term::literal(port.to_string()))
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

fn arb_docs(src: &mut Source, max: usize) -> Vec<Document> {
    let n = src.usize_in(1..max);
    (0..n)
        .map(|i| {
            let host = format!(
                "{}.{}",
                src.string_of("abc", 1..4),
                src.choose(&["org", "de"])
            );
            make_doc(
                i,
                &host,
                src.i64_in(1..10),
                src.i64_in(0..200),
                src.i64_in(0..1000),
            )
        })
        .collect()
}

/// The paper's Figure 10 rule shapes (OID/COMP/PATH/JOIN) with random
/// parameters — the same families the benchmarks sweep.
fn arb_rules(src: &mut Source, max: usize) -> Vec<String> {
    src.vec(1..max, |src| match src.usize_in(0..6) {
        0 => format!(
            "search CycleProvider c register c where c = 'doc{}.rdf#host'",
            src.usize_in(0..20)
        ),
        1 => format!(
            "search CycleProvider c register c where c.serverPort > {}",
            src.i64_in(0..10)
        ),
        2 => format!(
            "search CycleProvider c register c where c.serverInformation.memory = {}",
            src.i64_in(0..200)
        ),
        3 => format!(
            "search CycleProvider c register c where c.serverInformation.memory > {}",
            src.i64_in(0..200)
        ),
        4 => format!(
            "search CycleProvider c register c \
             where c.serverHost contains '.org' \
             and c.serverInformation.memory >= {} and c.serverInformation.cpu < {}",
            src.i64_in(0..200),
            src.i64_in(0..1000)
        ),
        _ => format!(
            "search ServerInformation s register s where s.memory <= {}",
            src.i64_in(0..200)
        ),
    })
}

fn engine_with(rules: &[String], threads: usize, use_rule_groups: bool) -> FilterEngine {
    let mut e = FilterEngine::with_config(
        schema(),
        FilterConfig {
            use_rule_groups,
            threads,
        },
    );
    for r in rules {
        e.register_subscription(r).unwrap();
    }
    e
}

property! {
    /// Registration: publications, the Figure-9 iteration trace, and the
    /// stats counters are identical for threads ∈ {1, 2, 8} — and the
    /// threads=1 engine is byte-identical to the default-config engine
    /// (the pre-parallel engine of record).
    fn registration_is_thread_count_invariant(src) {
        let rules = arb_rules(src, 6);
        let docs = arb_docs(src, 10);
        let use_groups = src.bool();

        let mut reference = FilterEngine::with_config(
            schema(),
            FilterConfig {
                use_rule_groups: use_groups,
                ..FilterConfig::default()
            },
        );
        for r in &rules {
            reference.register_subscription(r).unwrap();
        }
        prop_assert_eq!(reference.config().threads, 1, "default is sequential");
        let (ref_pubs, ref_run) = reference.register_batch_traced(&docs).unwrap();

        for threads in [1usize, 2, 8] {
            let mut e = engine_with(&rules, threads, use_groups);
            let (pubs, run) = e.register_batch_traced(&docs).unwrap();
            prop_assert_eq!(&pubs, &ref_pubs, "publications diverged at threads={}", threads);
            prop_assert_eq!(&run, &ref_run, "iteration trace diverged at threads={}", threads);
            prop_assert_eq!(
                e.stats(),
                reference.stats(),
                "stats diverged at threads={}",
                threads
            );
        }
    }

    /// The three-pass update/delete protocol is equally thread-count
    /// invariant: the same update and delete sequence publishes the same
    /// additions/removals/updates for every thread count.
    fn updates_are_thread_count_invariant(src) {
        let rules = arb_rules(src, 5);
        let docs = arb_docs(src, 6);
        // mutate about half the documents, delete one
        let bumps: Vec<i64> = docs.iter().map(|_| src.i64_in(0..200)).collect();
        let delete_idx = src.usize_in(0..docs.len());

        let run = |threads: usize| -> (Vec<Publication>, Vec<Vec<Publication>>, Vec<Publication>) {
            let mut e = engine_with(&rules, threads, true);
            let reg = e.register_batch(&docs).unwrap();
            let mut upds = Vec::new();
            for (i, bump) in bumps.iter().enumerate() {
                if i % 2 == 0 {
                    let host = format!("doc{i}-host");
                    let updated = make_doc(i, &host, 5, *bump, 500);
                    upds.push(e.update_document(&updated).unwrap());
                }
            }
            let del = e.delete_document(docs[delete_idx].uri()).unwrap();
            (reg, upds, del)
        };

        let baseline = run(1);
        for threads in [2usize, 8] {
            let got = run(threads);
            prop_assert_eq!(&got, &baseline, "update/delete diverged at threads={}", threads);
        }
    }

    /// Parallel XML decomposition: `register_batch_xml` parses across the
    /// pool and must agree with parsing sequentially and registering the
    /// documents directly.
    fn xml_registration_is_thread_count_invariant(src) {
        let rules = arb_rules(src, 5);
        let docs = arb_docs(src, 8);
        let sources: Vec<(String, String)> = docs
            .iter()
            .map(|d| (d.uri().to_owned(), mdv_rdf::write_document(d)))
            .collect();

        let mut direct = engine_with(&rules, 1, true);
        let direct_pubs = direct.register_batch(&docs).unwrap();

        for threads in [1usize, 2, 8] {
            let mut e = engine_with(&rules, threads, true);
            let pubs = e.register_batch_xml(&sources).unwrap();
            prop_assert_eq!(&pubs, &direct_pubs, "xml path diverged at threads={}", threads);
        }
    }

    /// Validation errors are reported deterministically: the parallel
    /// validator returns the first failing document in batch order, exactly
    /// like the sequential loop, and rejects atomically (no partial state).
    fn validation_errors_are_deterministic(src) {
        let good = arb_docs(src, 5);
        let mut docs = good.clone();
        // two bad documents (unknown class); the first in batch order wins
        for (k, pos) in [src.usize_in(0..docs.len()), docs.len()].into_iter().enumerate() {
            let uri = format!("bad{k}.rdf");
            docs.insert(
                pos,
                Document::new(uri.clone())
                    .with_resource(Resource::new(UriRef::new(&uri, "x"), "UnknownClass")),
            );
        }
        let mut messages = Vec::new();
        for threads in [1usize, 2, 8] {
            let mut e = engine_with(&[], threads, true);
            let err = e.register_batch(&docs).unwrap_err();
            messages.push(err.to_string());
            prop_assert_eq!(e.document_count(), 0, "rejection must be atomic");
        }
        prop_assert!(
            messages.windows(2).all(|w| w[0] == w[1]),
            "error choice diverged across thread counts: {:?}",
            messages
        );
    }
}
