//! Micro-benchmarks on the in-tree `mdv-testkit` bench runner, one group
//! per paper figure plus the ablations. These use reduced parameter grids
//! so `cargo bench` completes quickly; the `figures` binary runs the full
//! sweeps and prints the series the paper plots.
//!
//! Iteration counts come from `MDV_BENCH_ITERS` (default 10 timed + 2
//! warmup per benchmark); each group prints an aligned table plus one JSON
//! line per benchmark for machine consumption.

use mdv_bench::{build_engine, build_naive, build_per_member_engine};
use mdv_filter::{FilterEngine, Publication};
use mdv_rdf::Document;
use mdv_testkit::bench::BenchGroup;
use mdv_workload::{benchmark_documents, BenchParams, RuleType};

const RULE_COUNT: u64 = 1_000;
const BATCHES: [u64; 3] = [1, 10, 100];

/// The timed routine of most groups. It hands the engine back beside the
/// publications because the runner drops a routine's result only after
/// the clock has stopped, and dropping an engine is not registration.
fn register(mut engine: FilterEngine, docs: &[Document]) -> (FilterEngine, Vec<Publication>) {
    let pubs = engine.register_batch(docs).expect("registers");
    (engine, pubs)
}

fn bench_rule_type(name: &str, rule_type: RuleType, fraction: f64) {
    let mut group = BenchGroup::new(name);
    let base = build_engine(rule_type, RULE_COUNT);
    let params = BenchParams {
        rule_count: RULE_COUNT,
        comp_match_fraction: fraction,
    };
    for batch in BATCHES {
        let docs = benchmark_documents(0..batch, &params);
        group.bench_with_setup(
            &batch.to_string(),
            || base.clone(),
            |engine| register(engine, &docs),
        );
    }
    group.finish();
}

/// Figure 11: OID rules over batch sizes.
fn fig11() {
    bench_rule_type("fig11_oid", RuleType::Oid, 0.0);
}

/// Figure 12: PATH rules over batch sizes.
fn fig12() {
    bench_rule_type("fig12_path", RuleType::Path, 0.0);
}

/// Figure 13: COMP rules (10% matching) over batch sizes.
fn fig13() {
    bench_rule_type("fig13_comp", RuleType::Comp, 0.1);
}

/// Figure 14: JOIN rules over batch sizes.
fn fig14() {
    bench_rule_type("fig14_join", RuleType::Join, 0.0);
}

/// Figure 15: COMP rules over matched fractions (fixed batch of 10).
fn fig15() {
    let mut group = BenchGroup::new("fig15_comp_fraction");
    let base = build_engine(RuleType::Comp, RULE_COUNT);
    for fraction in [0.01, 0.1, 0.5] {
        let params = BenchParams {
            rule_count: RULE_COUNT,
            comp_match_fraction: fraction,
        };
        let docs = benchmark_documents(0..10, &params);
        group.bench_with_setup(
            &format!("{:.0}pct", fraction * 100.0),
            || base.clone(),
            |engine| register(engine, &docs),
        );
    }
    group.finish();
}

/// Ablation A: the filter against the naive evaluate-every-rule baseline.
fn ablation_naive() {
    let mut group = BenchGroup::new("ablation_naive_path");
    let params = BenchParams {
        rule_count: RULE_COUNT,
        comp_match_fraction: 0.1,
    };
    let docs = benchmark_documents(0..10, &params);

    let filter_base = build_engine(RuleType::Path, RULE_COUNT);
    group.bench_with_setup(
        "filter",
        || filter_base.clone(),
        |engine| register(engine, &docs),
    );
    let naive_base = build_naive(RuleType::Path, RULE_COUNT);
    group.bench_with_setup(
        "naive",
        || naive_base.clone(),
        |mut engine| {
            let pubs = engine.register_batch(&docs).expect("registers");
            (engine, pubs)
        },
    );
    group.finish();
}

/// Ablation B: rule groups (shared probes) on vs off.
fn ablation_groups() {
    let mut group = BenchGroup::new("ablation_rule_groups_join");
    let params = BenchParams {
        rule_count: RULE_COUNT,
        comp_match_fraction: 0.1,
    };
    let docs = benchmark_documents(0..10, &params);
    let engines = [
        ("grouped", build_engine(RuleType::Join, RULE_COUNT)),
        (
            "ungrouped",
            build_per_member_engine(RuleType::Join, RULE_COUNT),
        ),
    ];
    for (label, base) in engines {
        group.bench_with_setup(label, || base.clone(), |engine| register(engine, &docs));
    }
    group.finish();
}

/// Ablation C: update and delete against plain registration.
fn ablation_updates() {
    let mut group = BenchGroup::new("ablation_update_protocol");
    let params = BenchParams {
        rule_count: RULE_COUNT,
        comp_match_fraction: 0.1,
    };
    let docs = benchmark_documents(0..10, &params);
    let base = build_engine(RuleType::Path, RULE_COUNT);

    group.bench_with_setup(
        "register",
        || base.clone(),
        |engine| register(engine, &docs),
    );

    // an engine with the documents already present, for update/delete
    let mut loaded = base.clone();
    loaded.register_batch(&docs).expect("registers");
    let updates: Vec<_> = {
        let params2 = BenchParams {
            rule_count: RULE_COUNT,
            comp_match_fraction: 0.1,
        };
        // same URIs, shifted memory → one removal plus one addition each
        (0..10u64)
            .map(|i| {
                let d = mdv_workload::documents::benchmark_document(i, &params2);
                rebuild_with_memory(&d, i + 100)
            })
            .collect()
    };
    group.bench_with_setup(
        "update",
        || loaded.clone(),
        |mut engine| {
            for u in &updates {
                engine.update_document(u).expect("updates");
            }
            engine
        },
    );
    group.bench_with_setup(
        "delete",
        || loaded.clone(),
        |mut engine| {
            for d in &docs {
                engine.delete_document(d.uri()).expect("deletes");
            }
            engine
        },
    );
    group.finish();
}

fn rebuild_with_memory(doc: &mdv_rdf::Document, memory: u64) -> mdv_rdf::Document {
    use mdv_rdf::{Document, Resource, Term};
    let mut out = Document::new(doc.uri());
    for res in doc.resources() {
        let mut copy = Resource::new(res.uri().clone(), res.class());
        for (prop, term) in res.properties() {
            if prop == "memory" {
                copy.add(prop.clone(), Term::literal(memory.to_string()));
            } else {
                copy.add(prop.clone(), term.clone());
            }
        }
        out.add_resource(copy).expect("copy preserves validity");
    }
    out
}

fn main() {
    fig11();
    fig12();
    fig13();
    fig14();
    fig15();
    ablation_naive();
    ablation_groups();
    ablation_updates();
}
