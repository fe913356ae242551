//! # mdv-bench
//!
//! The measurement harness regenerating every figure of the MDV paper's
//! evaluation (§4, Figures 11–15) plus the ablations DESIGN.md calls out.
//!
//! Methodology (following the paper): for one measurement we build a rule
//! base of a single type, then register a batch of documents and measure
//! the overall runtime of the filter algorithm; the average registration
//! time of a single document is overall runtime divided by batch size.
//! Every measurement point starts from a fresh clone of the prepared
//! engine, so batch points are independent.
//!
//! `DESIGN.md` §4 holds the workspace-wide module map locating this
//! crate's files.

use std::time::Instant;

use mdv_filter::{FilterEngine, NaiveEngine};
use mdv_workload::{benchmark_documents, benchmark_rules, benchmark_schema, BenchParams, RuleType};

/// One measured point of a figure.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub rule_type: RuleType,
    pub rule_count: u64,
    pub batch_size: u64,
    /// COMP matching fraction (0 for the other rule types).
    pub fraction: f64,
    /// Total filter runtime for the batch, in milliseconds.
    pub total_ms: f64,
    /// Average registration time per document, in milliseconds.
    pub avg_ms_per_doc: f64,
    /// Matches produced (sanity check of the matching discipline).
    pub matches: u64,
}

/// The batch-size sweep used by Figures 11–14.
pub const BATCH_SIZES: [u64; 10] = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000];

/// A quicker sweep for CI-sized runs.
pub const BATCH_SIZES_QUICK: [u64; 6] = [1, 5, 20, 100, 500, 1000];

/// Builds an engine pre-loaded with `rule_count` rules of one type.
pub fn build_engine(rule_type: RuleType, rule_count: u64) -> FilterEngine {
    load_rules(FilterEngine::new(benchmark_schema()), rule_type, rule_count)
}

/// Like [`build_engine`], on the per-member reference engine that evaluates
/// every join rule by itself instead of per rule group (Ablation B).
pub fn build_per_member_engine(rule_type: RuleType, rule_count: u64) -> FilterEngine {
    let engine = FilterEngine::per_member_reference(benchmark_schema());
    load_rules(engine, rule_type, rule_count)
}

fn load_rules(mut engine: FilterEngine, rule_type: RuleType, rule_count: u64) -> FilterEngine {
    for rule in benchmark_rules(rule_type, rule_count) {
        engine
            .register_subscription(&rule)
            .expect("benchmark rules are valid");
    }
    engine
}

/// Builds the naive baseline with the same rule base.
pub fn build_naive(rule_type: RuleType, rule_count: u64) -> NaiveEngine {
    let mut engine = NaiveEngine::new(benchmark_schema());
    for rule in benchmark_rules(rule_type, rule_count) {
        engine
            .register_subscription(&rule)
            .expect("benchmark rules are valid");
    }
    engine
}

/// Measures one batch point on a fresh clone of `base`. The batch is
/// re-registered on new clones until `min_elapsed_ms` of filter time
/// accumulates (at least once), so small batches get stable averages.
pub fn run_point(
    base: &FilterEngine,
    rule_type: RuleType,
    params: &BenchParams,
    batch_size: u64,
    min_elapsed_ms: f64,
) -> Measurement {
    let docs = benchmark_documents(0..batch_size, params);
    let mut total_ms = 0.0;
    let mut reps = 0u32;
    let mut matches = 0u64;
    while reps == 0 || (total_ms < min_elapsed_ms && reps < 50) {
        let mut engine = base.clone();
        let start = Instant::now();
        let pubs = engine
            .register_batch(&docs)
            .expect("benchmark batch registers");
        total_ms += start.elapsed().as_secs_f64() * 1e3;
        matches = pubs.iter().map(|p| p.added.len() as u64).sum();
        reps += 1;
    }
    let per_batch = total_ms / reps as f64;
    Measurement {
        rule_type,
        rule_count: params.rule_count,
        batch_size,
        fraction: if rule_type == RuleType::Comp {
            params.comp_match_fraction
        } else {
            0.0
        },
        total_ms: per_batch,
        avg_ms_per_doc: per_batch / batch_size as f64,
        matches,
    }
}

/// A full batch-size sweep for one (rule type, rule base size) series —
/// the generic shape behind Figures 11–14.
pub fn sweep(
    rule_type: RuleType,
    rule_count: u64,
    fraction: f64,
    batch_sizes: &[u64],
    min_elapsed_ms: f64,
) -> Vec<Measurement> {
    let base = build_engine(rule_type, rule_count);
    let params = BenchParams {
        rule_count,
        comp_match_fraction: fraction,
    };
    batch_sizes
        .iter()
        .map(|&b| run_point(&base, rule_type, &params, b, min_elapsed_ms))
        .collect()
}

/// Figure 15: fixed COMP rule base, sweeping the matched percentage for
/// several batch sizes.
pub fn sweep_fractions(
    rule_count: u64,
    fractions: &[f64],
    batch_sizes: &[u64],
    min_elapsed_ms: f64,
) -> Vec<Measurement> {
    let base = build_engine(RuleType::Comp, rule_count);
    let mut out = Vec::new();
    for &fraction in fractions {
        let params = BenchParams {
            rule_count,
            comp_match_fraction: fraction,
        };
        for &b in batch_sizes {
            out.push(run_point(&base, RuleType::Comp, &params, b, min_elapsed_ms));
        }
    }
    out
}

/// Ablation A: the filter engine versus the naive evaluate-every-rule
/// baseline. Returns `(filter, naive)` measurements per rule-base size.
pub fn ablation_naive(
    rule_type: RuleType,
    rule_counts: &[u64],
    batch_size: u64,
    min_elapsed_ms: f64,
) -> Vec<(Measurement, Measurement)> {
    let mut out = Vec::new();
    for &rc in rule_counts {
        let params = BenchParams {
            rule_count: rc,
            comp_match_fraction: 0.1,
        };
        let filter_base = build_engine(rule_type, rc);
        let filter = run_point(&filter_base, rule_type, &params, batch_size, min_elapsed_ms);

        let naive_base = build_naive(rule_type, rc);
        let docs = benchmark_documents(0..batch_size, &params);
        let mut total_ms = 0.0;
        let mut reps = 0u32;
        let mut matches = 0u64;
        while reps == 0 || (total_ms < min_elapsed_ms && reps < 50) {
            let mut engine = naive_base.clone();
            let start = Instant::now();
            let pubs = engine
                .register_batch(&docs)
                .expect("benchmark batch registers");
            total_ms += start.elapsed().as_secs_f64() * 1e3;
            matches = pubs.iter().map(|p| p.added.len() as u64).sum();
            reps += 1;
        }
        let per_batch = total_ms / reps as f64;
        let naive = Measurement {
            rule_type,
            rule_count: rc,
            batch_size,
            fraction: 0.0,
            total_ms: per_batch,
            avg_ms_per_doc: per_batch / batch_size as f64,
            matches,
        };
        assert_eq!(filter.matches, naive.matches, "engines must agree");
        out.push((filter, naive));
    }
    out
}

/// Ablation B: rule groups on versus off (probe sharing), JOIN rules.
pub fn ablation_groups(
    rule_count: u64,
    batch_size: u64,
    min_elapsed_ms: f64,
) -> (Measurement, Measurement) {
    let params = BenchParams {
        rule_count,
        comp_match_fraction: 0.1,
    };
    let grouped = build_engine(RuleType::Join, rule_count);
    let ungrouped = build_per_member_engine(RuleType::Join, rule_count);
    let a = run_point(
        &grouped,
        RuleType::Join,
        &params,
        batch_size,
        min_elapsed_ms,
    );
    let b = run_point(
        &ungrouped,
        RuleType::Join,
        &params,
        batch_size,
        min_elapsed_ms,
    );
    assert_eq!(a.matches, b.matches, "groups are a pure optimization");
    (a, b)
}

/// Ablation C: cost of the three-pass update protocol relative to plain
/// registration. Returns `(register_ms, update_ms, delete_ms)` per document
/// for a PATH rule base.
pub fn ablation_updates(rule_count: u64, doc_count: u64) -> (f64, f64, f64) {
    let params = BenchParams {
        rule_count,
        comp_match_fraction: 0.1,
    };
    let base = build_engine(RuleType::Path, rule_count);
    let docs = benchmark_documents(0..doc_count, &params);

    let mut engine = base.clone();
    let start = Instant::now();
    engine.register_batch(&docs).expect("register");
    let register_ms = start.elapsed().as_secs_f64() * 1e3 / doc_count as f64;

    // update every document: memory shifts so the old rule stops matching
    // and another starts (worst case: one removal plus one addition)
    let updates: Vec<_> = docs
        .iter()
        .enumerate()
        .map(|(i, d)| rebuild_with_memory(d, (i as u64) + doc_count))
        .collect();

    let start = Instant::now();
    for u in &updates {
        engine.update_document(u).expect("update");
    }
    let update_ms = start.elapsed().as_secs_f64() * 1e3 / doc_count as f64;

    let start = Instant::now();
    for d in &docs {
        engine.delete_document(d.uri()).expect("delete");
    }
    let delete_ms = start.elapsed().as_secs_f64() * 1e3 / doc_count as f64;

    (register_ms, update_ms, delete_ms)
}

/// Rebuilds a benchmark document with a different memory value (same URIs).
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

/// Renders measurements as a CSV table.
pub fn render_csv(rows: &[Measurement]) -> String {
    let mut out =
        String::from("rule_type,rule_count,batch_size,fraction,total_ms,avg_ms_per_doc,matches\n");
    for m in rows {
        out.push_str(&format!(
            "{},{},{},{:.3},{:.3},{:.5},{}\n",
            m.rule_type,
            m.rule_count,
            m.batch_size,
            m.fraction,
            m.total_ms,
            m.avg_ms_per_doc,
            m.matches
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oid_sweep_small() {
        let rows = sweep(RuleType::Oid, 100, 0.0, &[1, 10], 1.0);
        assert_eq!(rows.len(), 2);
        // 1:1 matching: every registered doc matched exactly once
        assert_eq!(rows[0].matches, 1);
        assert_eq!(rows[1].matches, 10);
        assert!(rows.iter().all(|m| m.avg_ms_per_doc > 0.0));
    }

    #[test]
    fn comp_fraction_controls_matches() {
        let rows = sweep_fractions(100, &[0.1, 0.5], &[10], 1.0);
        assert_eq!(rows.len(), 2);
        // 10 docs × 10% of 100 rules = 100 matches; ×50% = 500
        assert_eq!(rows[0].matches, 100);
        assert_eq!(rows[1].matches, 500);
    }

    #[test]
    fn join_sweep_produces_one_match_per_doc() {
        let rows = sweep(RuleType::Join, 50, 0.0, &[5], 1.0);
        assert_eq!(rows[0].matches, 5);
    }

    #[test]
    fn naive_ablation_agrees_and_reports() {
        let rows = ablation_naive(RuleType::Path, &[50], 10, 1.0);
        assert_eq!(rows.len(), 1);
        let (f, n) = &rows[0];
        assert_eq!(f.matches, n.matches);
    }

    #[test]
    fn groups_ablation_agrees() {
        let (a, b) = ablation_groups(50, 10, 1.0);
        assert_eq!(a.matches, b.matches);
    }

    #[test]
    fn updates_ablation_runs() {
        let (r, u, d) = ablation_updates(50, 10);
        assert!(r > 0.0 && u > 0.0 && d > 0.0);
    }

    #[test]
    fn csv_renders() {
        let rows = sweep(RuleType::Oid, 10, 0.0, &[1], 1.0);
        let csv = render_csv(&rows);
        assert!(csv.starts_with("rule_type,"));
        assert!(csv.contains("OID,10,1,"));
    }
}
