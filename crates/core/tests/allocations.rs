//! Heap allocations of a filter run, counted by an in-tree global
//! allocator: a run must not allocate per matched tuple.
//!
//! One document fires N trigger-only end rules (one subscription each),
//! for N = 10 and N = 100, on the same document shape. Registering it, and
//! then updating it so that every rule still matches, must cost at most
//! [`PER_RULE_BOUND`] more allocations per extra matching rule. What a
//! matching rule inherently costs is its publication: one `Publication`
//! with one URI list holding one URI string. Allocation counts repeat
//! exactly from run to run, so this gate does not depend on the host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mdv_filter::FilterEngine;
use mdv_rdf::{Document, RdfSchema, Resource, Term, UriRef};

/// Counts the allocations of the current thread; the test harness runs
/// other tests on other threads.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The allocations `f` makes on this thread, and what it returns.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// The two sizes every shape below is measured at.
const SMALL: usize = 10;
const LARGE: usize = 100;

/// Asserts that `cost(n)`, the allocations of a shape of size `n`, grows
/// by at most `bound` per unit from [`SMALL`] to [`LARGE`].
fn assert_growth(what: &str, bound: f64, cost: impl Fn(usize) -> u64) {
    let (small, large) = (cost(SMALL), cost(LARGE));
    let per_unit = large.saturating_sub(small) as f64 / (LARGE - SMALL) as f64;
    println!("{what}: {small} → {large} allocations, {per_unit:.2} each");
    assert!(
        per_unit <= bound,
        "{what}: {per_unit:.2} allocations each > {bound}"
    );
}

/// Extra allocations allowed per extra matching rule, in a registration
/// and in an update alike. A publication costs two (its URI list and its
/// URI string), and the growth of the run's vectors and maps a fraction
/// more; a `String` cloned per tuple at any step of the run breaks it.
const PER_RULE_BOUND: f64 = 3.0;

fn schema() -> RdfSchema {
    RdfSchema::builder()
        .class("ServerInformation", |c| c.int("memory").int("cpu"))
        .class("CycleProvider", |c| {
            c.str("serverHost")
                .int("serverPort")
                .strong_ref("serverInformation", "ServerInformation")
        })
        .class("Server", |c| c.int_set("ports"))
        .build()
        .unwrap()
}

/// Provider `uri` at `host` with its `info`; every port rule and the PATH
/// rule below match it.
fn provider(uri: &str, host: &str) -> Document {
    Document::new(uri)
        .with_resource(
            Resource::new(UriRef::new(uri, "host"), "CycleProvider")
                .with("serverHost", Term::literal(host))
                .with("serverPort", Term::literal("5000"))
                .with(
                    "serverInformation",
                    Term::resource(UriRef::new(uri, "info")),
                ),
        )
        .with_resource(
            Resource::new(UriRef::new(uri, "info"), "ServerInformation")
                .with("memory", Term::literal("92"))
                .with("cpu", Term::literal("600")),
        )
}

/// Providers `doc0.rdf` to `doc{n - 1}.rdf`.
fn providers(n: usize) -> Vec<Document> {
    let uri = |i| format!("doc{i}.rdf");
    (0..n)
        .map(|i| provider(&uri(i), "a.uni-passau.de"))
        .collect()
}

/// The allocations of registering the document, and of updating it, on an
/// engine holding `n` matching trigger-only rules.
fn register_and_update(n: usize) -> (u64, u64) {
    let mut engine = FilterEngine::new(schema());
    for k in 0..n {
        engine
            .register_subscription(&format!(
                "search CycleProvider c register c where c.serverPort > {k}"
            ))
            .unwrap();
    }
    let first = provider("doc.rdf", "a.uni-passau.de");
    let second = provider("doc.rdf", "b.uni-passau.de");
    let (register, pubs) = allocations(|| engine.register_document(&first).unwrap());
    assert_eq!(pubs.len(), n, "every rule matches the registration");
    let (update, pubs) = allocations(|| engine.update_document(&second).unwrap());
    assert_eq!(pubs.len(), n, "every rule ships the update");
    assert!(pubs.iter().all(|p| p.updated == ["doc.rdf#host"]));
    (register, update)
}

#[test]
fn a_filter_run_allocates_per_publication_not_per_tuple() {
    let (register, update) = (|n| register_and_update(n).0, |n| register_and_update(n).1);
    assert_growth("registration, per extra rule", PER_RULE_BOUND, register);
    assert_growth("update, per extra rule", PER_RULE_BOUND, update);
}

/// Allocations allowed per document of a batch registration under one
/// PATH rule: atomization, the stored copy of the document, the base-table
/// rows, and the probes of the rule's join. When every probe copied the
/// class list and cloned each counterpart twice, this shape cost 149.4
/// per document; counterparts moved into the probe's answer cost 140.4.
const PER_PATH_DOCUMENT_BOUND: f64 = 145.0;

/// The allocations of registering `n` providers as one batch under one
/// PATH rule that matches every one.
fn path_batch(n: usize) -> u64 {
    let mut engine = FilterEngine::new(schema());
    engine
        .register_subscription(
            "search CycleProvider c register c where c.serverInformation.memory > 64",
        )
        .unwrap();
    let docs = providers(n);
    let (count, pubs) = allocations(|| engine.register_batch(&docs).unwrap());
    assert_eq!(pubs[0].added.len(), n, "the rule matches every provider");
    count
}

#[test]
fn a_path_registration_stays_under_its_per_document_bound() {
    assert_growth(
        "PATH registration, per document",
        PER_PATH_DOCUMENT_BOUND,
        path_batch,
    );
}

/// Allocations allowed per counterpart of a non-equality join probe made
/// by a resource with [`PORTS`] values of the probed property: the
/// counterpart's URI is cloned once however many of the values it
/// satisfies, and the caller numbers it and checks its membership. When
/// a probe cloned each counterpart into a seen-set and into its answer,
/// this shape cost 5.2 per counterpart, and 11.1 when it cloned it once
/// per satisfied value; checked by reference before its one clone, 4.2.
const PER_COUNTERPART_BOUND: f64 = 4.5;

/// The values of the probing server's set-valued `ports`.
const PORTS: usize = 8;

/// The allocations of registering one server whose every port is above
/// the port of each of `n` registered providers, under one non-equality
/// join rule registering the server.
fn multi_valued_join(n: usize) -> u64 {
    let mut engine = FilterEngine::new(schema());
    engine
        .register_subscription(
            "search CycleProvider c, Server s register s where c.serverPort < s.ports?",
        )
        .unwrap();
    engine.register_batch(&providers(n)).unwrap();
    let server = (0..PORTS).fold(
        Resource::new(UriRef::new("server.rdf", "s"), "Server"),
        |s, p| s.with("ports", Term::literal((6000 + p).to_string())),
    );
    let server = Document::new("server.rdf").with_resource(server);
    let (count, pubs) = allocations(|| engine.register_document(&server).unwrap());
    assert_eq!(pubs[0].added, ["server.rdf#s"], "the server matches");
    count
}

#[test]
fn a_multi_valued_join_probe_clones_each_counterpart_once() {
    assert_growth(
        "multi-valued join, per counterpart",
        PER_COUNTERPART_BOUND,
        multi_valued_join,
    );
}
