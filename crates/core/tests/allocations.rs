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

/// Extra allocations allowed per extra matching rule, in a registration
/// and in an update alike. A publication costs two (its URI list and its
/// URI string), and the growth of the run's vectors and maps a fraction
/// more; a `String` cloned per tuple at any step of the run breaks it.
const PER_RULE_BOUND: u64 = 3;

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

/// One provider with its `info`; every port rule below matches it.
fn document(host: &str) -> Document {
    Document::new("doc.rdf")
        .with_resource(
            Resource::new(UriRef::new("doc.rdf", "host"), "CycleProvider")
                .with("serverHost", Term::literal(host))
                .with("serverPort", Term::literal("5000"))
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
    let (first, second) = (document("a.uni-passau.de"), document("b.uni-passau.de"));
    let (register, pubs) = allocations(|| engine.register_document(&first).unwrap());
    assert_eq!(pubs.len(), n, "every rule matches the registration");
    let (update, pubs) = allocations(|| engine.update_document(&second).unwrap());
    assert_eq!(pubs.len(), n, "every rule ships the update");
    assert!(pubs.iter().all(|p| p.updated == ["doc.rdf#host"]));
    (register, update)
}

#[test]
fn a_filter_run_allocates_per_publication_not_per_tuple() {
    const SMALL: usize = 10;
    const LARGE: usize = 100;
    let (register_small, update_small) = register_and_update(SMALL);
    let (register_large, update_large) = register_and_update(LARGE);
    let extra = (LARGE - SMALL) as u64;
    for (what, small, large) in [
        ("registration", register_small, register_large),
        ("update", update_small, update_large),
    ] {
        let per_rule = large.saturating_sub(small) as f64 / extra as f64;
        println!("{what}: {small} → {large} allocations, {per_rule:.2} per extra rule");
        assert!(
            large <= small + PER_RULE_BOUND * extra,
            "{what}: {per_rule:.2} allocations per extra matching rule > {PER_RULE_BOUND}"
        );
    }
}
