//! The metric tables — the single source of `BENCHMARK.json` — and the
//! JSON the benchmark prints.
//!
//! End-to-end metrics are what a user of the deployment sees; each has
//! the bound by which it may worsen before a change counts as a
//! regression. The driver's contract wants every one of them reported,
//! non-zero, on every workload, so only metrics all five workloads share
//! are listed here. The user-visible numbers that belong to some
//! workloads only (update, query, subscribe, recovery, fsyncs, WAL bytes)
//! are printed by the traced pass under `user.*`, unbounded, zero where
//! they do not apply.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::workloads::Spec;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the regression bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u32 = 10;

pub const END_TO_END: &[Metric] = &[
    // build deployment + subscribe rule base + pre-load; median of the
    // run's set-up repeats
    e2e("setup_s", "s", Better::Lower, 0.25),
    // register/update/delete operations completed and verified visible,
    // per second of time spent inside calls into the system
    e2e("doc_ops_per_s", "1/s", Better::Higher, 0.25),
    // NetStats::messages delta / document operations
    e2e("msgs_per_doc_op", "count", Better::Lower, 0.10),
    // VmHWM of the process after its first set-up
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
];

/// Message kinds reported one by one (of `Message::kind`).
pub const MESSAGE_KINDS: &[&str] = &[
    "publish",
    "publish-ack",
    "replicate-register",
    "replicate-update",
    "replicate-delete",
    "replicate-ack",
    "append-entries",
    "append-entries-reply",
    "subscribe",
    "placement-digest",
];

pub const PER_LAYER: &[Metric] = &[
    // user-visible, but not shared by all workloads (or tail percentiles
    // the smaller samples do not support): measured in the traced pass
    higher("user.doc_ops_per_s", "1/s"),
    // register_document call -> return at quiescence; in join-batch the
    // first enqueue of a batch -> return of the call that flushes it
    lower("user.register_visible_ms_p50", "ms"),
    lower("user.register_visible_ms_p95", "ms"),
    lower("user.register_visible_ms_p99", "ms"),
    lower("user.register_samples", "count"),
    lower("user.update_visible_ms_p50", "ms"),
    lower("user.update_visible_ms_p95", "ms"),
    lower("user.delete_visible_ms_p50", "ms"),
    lower("user.query_ms_p50", "ms"),
    lower("user.query_ms_p95", "ms"),
    lower("user.subscribe_ms_p50", "ms"),
    lower("user.recover_s", "s"),
    lower("user.fsyncs_per_doc_op", "count"),
    lower("user.wal_bytes_per_doc_op", "bytes"),
    lower("user.rss_kb_per_doc_op", "KiB"),
    // rdf
    lower("rdf.parse_ms_per_doc", "ms"),
    lower("rdf.write_ms_per_doc", "ms"),
    lower("rdf.validate_ms_per_doc", "ms"),
    // rulelang
    lower("rulelang.compile_ms_per_rule", "ms"),
    // core
    lower("core.atomize_ms_per_doc", "ms"),
    lower("core.atoms_per_doc", "count"),
    lower("core.register_ms_per_doc", "ms"),
    lower("core.update_ms_per_doc", "ms"),
    lower("core.delete_ms_per_doc", "ms"),
    lower("core.subscribe_ms_per_rule", "ms"),
    lower("core.trigger_evals_per_doc", "count"),
    lower("core.trigger_matches_per_doc", "count"),
    lower("core.join_evals_per_doc", "count"),
    lower("core.probes_executed_per_doc", "count"),
    higher("core.probe_cache_hit_ratio", "ratio"),
    lower("core.iterations_per_batch", "count"),
    lower("core.publications_per_doc", "count"),
    lower("core.filter_runs_per_doc_op", "count"),
    // relstore
    lower("relstore.select_us_per_probe", "us"),
    lower("relstore.insert_us_per_row", "us"),
    lower("relstore.wal.commits_per_doc_op", "count"),
    lower("relstore.wal.bytes_per_commit", "bytes"),
    lower("relstore.wal.write_amp", "ratio"),
    lower("relstore.wal.open_ms", "ms"),
    lower("relstore.vfs.sync_count", "count"),
    lower("relstore.vfs.sync_ms_total", "ms"),
    lower("relstore.vfs.append_ms_total", "ms"),
    lower("relstore.vfs.bytes_written", "bytes"),
    lower("relstore.snapshot.checkpoints", "count"),
    lower("relstore.snapshot.checkpoint_ms_max", "ms"),
    lower("relstore.snapshot.bytes", "bytes"),
    // system
    lower("system.mdp.register_ms_per_doc", "ms"),
    lower("system.mdp.publish_overhead_ms_per_doc", "ms"),
    lower("system.mdp.rule_share", "ratio"),
    lower("system.lmr.apply_ms_per_publication", "ms"),
    lower("system.lmr.publications_per_doc_op", "count"),
    lower("system.lmr.gc_ms", "ms"),
    lower("system.lmr.gc_evicted", "count"),
    lower("system.transport.backbone_msgs_per_doc_op", "count"),
    lower("system.transport.edge_msgs_per_doc_op", "count"),
    lower("system.transport.placement_msgs_per_doc_op", "count"),
    lower("system.transport.bytes_per_doc_op", "bytes"),
    lower("system.transport.retries", "count"),
    lower("system.transport.by_kind.publish", "1/op"),
    lower("system.transport.by_kind.publish-ack", "1/op"),
    lower("system.transport.by_kind.replicate-register", "1/op"),
    lower("system.transport.by_kind.replicate-update", "1/op"),
    lower("system.transport.by_kind.replicate-delete", "1/op"),
    lower("system.transport.by_kind.replicate-ack", "1/op"),
    lower("system.transport.by_kind.append-entries", "1/op"),
    lower("system.transport.by_kind.append-entries-reply", "1/op"),
    lower("system.transport.by_kind.subscribe", "1/op"),
    lower("system.transport.by_kind.placement-digest", "1/op"),
    lower("system.raft.msgs_per_commit", "count"),
    lower("system.logical_ms_per_doc_op", "ms"),
    lower("system.placement.routed_op_ratio", "ratio"),
    lower("system.placement.replicas_per_doc", "count"),
    lower("system.residual_ms_per_doc_op", "ms"),
    // the harness's own cost
    lower("workload.gen_ms_per_doc", "ms"),
    lower("harness.trace_overhead_ratio", "ratio"),
    lower("harness.spans", "count"),
];

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit measured; non-finite values (a ratio
/// over nothing) are reported as 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// with one entry per metric of `table`, in table order.
pub fn result_line(
    table: &[Metric],
    values: &BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(v),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// Reads one metric's value back out of a result line this module wrote.
pub fn read_metric(line: &str, name: &str) -> Option<f64> {
    let key = format!("{}: {{\"value\": ", json_str(name));
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// `BENCHMARK.json`, generated so that the file and the program cannot
/// drift apart (`tests::benchmark_json_is_current` compares them).
pub fn benchmark_json(specs: &[Spec]) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = specs
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(s.name),
                json_str(s.why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                json_num(m.bound.expect("end-to-end metrics carry a bound"))
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::specs;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(ok)
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_fit_the_benchmark_contract() {
        let mut names = BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        for s in specs() {
            assert!(valid_name(s.name) && names.insert(s.name));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest));
        for kind in MESSAGE_KINDS {
            assert!(names.contains(format!("system.transport.by_kind.{kind}").as_str()));
        }
        assert!(benchmark_json(&specs()).len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_is_current() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(&specs()),
            "regenerate with: cargo run --release --offline -- --print-benchmark-json > ../BENCHMARK.json"
        );
    }

    #[test]
    fn result_line_round_trips() {
        let mut values = BTreeMap::new();
        values.insert("setup_s".to_owned(), 0.8127);
        values.insert("doc_ops_per_s".to_owned(), 1234.5678);
        let line = result_line(END_TO_END, &values, 1000, 0);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert_eq!(read_metric(&line, "setup_s"), Some(0.8127));
        assert_eq!(read_metric(&line, "doc_ops_per_s"), Some(1234.5678));
        assert_eq!(read_metric(&line, "peak_rss_mb"), Some(0.0));
        assert_eq!(read_metric(&line, "nope"), None);
        assert!(result_line(END_TO_END, &values, 10, 1).contains("\"correct\": false"));
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
