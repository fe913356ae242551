//! `mdvbench` — the end-to-end wall-clock benchmark of the MDV
//! reproduction. See `README.md` in this directory.
//!
//! ```text
//! mdvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mdvbench [--seed <n>] [--seconds <s>] [--smoke]            all workloads, both passes
//! mdvbench --repeat <n> [--workload <name>] [--seed <n>]     spread of the end-to-end metrics
//! mdvbench --print-benchmark-json
//! ```

mod gen;
mod metrics;
mod probes;
mod run;
mod span;
mod span_vfs;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use mdv_relstore::Database;

use metrics::{Metric, END_TO_END, MESSAGE_KINDS, PER_LAYER, RUN_SECONDS};
use probes::{Metrics, ProbeInputs, Replays};
use run::{Backend, Deployment, Durable, Window};
use span::Tracer;
use stats::{median, per};
use workloads::{Backbone, Spec};

/// Rounds of an untraced run; `setup_s` and `doc_ops_per_s` are medians
/// over them.
const ROUNDS: usize = 3;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
    print_benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        smoke: false,
        repeat: None,
        print_benchmark_json: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.to_owned()),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--repeat" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs".into());
                }
                args.repeat = Some(n);
            }
            "--smoke" => args.smoke = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

/// The checked-out commit, read from `.git` without running git; a driver
/// checkout is not a repository and reports "unknown".
fn commit() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_owned())
            .unwrap_or_else(|_| reference.to_owned()),
        None => head.to_owned(),
    };
    hash.chars().take(12).collect()
}

/// One `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in KiB.
fn proc_status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .unwrap_or(0.0)
}

fn stamp(spec: &Spec, args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let (backend, data_dir) = if spec.durable {
        (
            "durable: DurableEngine over SpanVfs<MemFs>",
            "memfs:/mdvbench",
        )
    } else {
        ("memory: Database", "none")
    };
    format!(
        "{{\"benchmark\": \"mdvbench\", \"workload\": {}, \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"smoke\": {}, \"nproc\": {nproc}, \"commit\": {}, \"backend\": {}, \
         \"data_dir\": {}, \"load\": \"closed loop, 1 client, 1 thread\", \
         \"network\": \"default NetConfig (10 ms logical latency), inert fault plan\", \
         \"filter\": \"default FilterConfig\"}}",
        metrics::json_str(spec.name),
        args.seed,
        metrics::json_num(args.seconds),
        args.trace,
        args.smoke,
        metrics::json_str(&commit()),
        metrics::json_str(backend),
        metrics::json_str(data_dir),
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The end-to-end metrics of an untraced run: medians over its rounds,
/// counts over their sum.
fn end_to_end_metrics(rounds: &[Round], rss_after_setup_kb: f64) -> Metrics {
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.window.doc_ops as f64 / r.window.wall.as_secs_f64())
        .collect();
    let messages: u64 = rounds.iter().map(|r| r.window.net.messages).sum();
    let doc_ops: u64 = rounds.iter().map(|r| r.window.doc_ops).sum();
    let mut out = Metrics::new();
    out.insert("setup_s".into(), median(&setups));
    out.insert("doc_ops_per_s".into(), median(&rates));
    out.insert("msgs_per_doc_op".into(), per(messages as f64, doc_ops));
    out.insert("peak_rss_mb".into(), rss_after_setup_kb / 1024.0);
    out
}

/// What the traced pass learns from the deployment before it is dropped.
struct DeploymentFacts {
    replicas_per_doc: f64,
    /// Mean share of the rule base one MDP's engine holds: 1 where rules
    /// are mirrored to every MDP, 1/MDPs where each LMR's rules live only
    /// at its home.
    rule_share: f64,
    recover: Option<Duration>,
    wal_open: Option<Duration>,
}

/// The per-layer metrics the driven window itself yields.
fn window_metrics(spec: &Spec, w: &Window, facts: &DeploymentFacts, out: &mut Metrics) {
    let summary = |kind: &str| stats::summarize(w.samples.get(kind).map_or(&[][..], Vec::as_slice));
    let ops = w.doc_ops;
    out.insert(
        "user.doc_ops_per_s".into(),
        ops as f64 / w.wall.as_secs_f64(),
    );
    if let Some(s) = summary("register") {
        out.insert("user.register_samples".into(), s.n as f64);
        out.insert("user.register_visible_ms_p50".into(), s.p50);
        out.insert("user.register_visible_ms_p95".into(), s.p95.unwrap_or(0.0));
        out.insert("user.register_visible_ms_p99".into(), s.p99.unwrap_or(0.0));
    }
    if let Some(s) = summary("update") {
        out.insert("user.update_visible_ms_p50".into(), s.p50);
        out.insert("user.update_visible_ms_p95".into(), s.p95.unwrap_or(0.0));
    }
    if let Some(s) = summary("delete") {
        out.insert("user.delete_visible_ms_p50".into(), s.p50);
    }
    if let Some(s) = summary("query") {
        out.insert("user.query_ms_p50".into(), s.p50);
        out.insert("user.query_ms_p95".into(), s.p95.unwrap_or(0.0));
    }
    if let Some(s) = summary("subscribe") {
        out.insert("user.subscribe_ms_p50".into(), s.p50);
    }
    if let Some(s) = summary("gc") {
        out.insert("system.lmr.gc_ms".into(), s.p50);
    }
    out.insert("system.lmr.gc_evicted".into(), w.gc_evicted as f64);
    out.insert(
        "user.recover_s".into(),
        facts.recover.map_or(0.0, |d| d.as_secs_f64()),
    );
    out.insert(
        "relstore.wal.open_ms".into(),
        facts.wal_open.map_or(0.0, ms),
    );

    // storage: exact counts from SpanVfs, all zero on the memory backend
    let v = &w.vfs;
    out.insert("user.fsyncs_per_doc_op".into(), per(v.syncs as f64, ops));
    out.insert(
        "user.wal_bytes_per_doc_op".into(),
        per(v.bytes_written() as f64, ops),
    );
    out.insert(
        "relstore.wal.commits_per_doc_op".into(),
        per(w.wal_commits as f64, ops),
    );
    out.insert(
        "relstore.wal.bytes_per_commit".into(),
        per(v.append_bytes as f64, w.wal_commits),
    );
    out.insert(
        "relstore.wal.write_amp".into(),
        per(v.bytes_written() as f64, w.xml_bytes),
    );
    out.insert("relstore.vfs.sync_count".into(), v.syncs as f64);
    out.insert("relstore.vfs.sync_ms_total".into(), v.sync_ns as f64 / 1e6);
    out.insert(
        "relstore.vfs.append_ms_total".into(),
        v.append_ns as f64 / 1e6,
    );
    out.insert(
        "relstore.vfs.bytes_written".into(),
        v.bytes_written() as f64,
    );
    out.insert("relstore.snapshot.checkpoints".into(), v.renames as f64);
    out.insert(
        "relstore.snapshot.checkpoint_ms_max".into(),
        v.checkpoint_ns_max as f64 / 1e6,
    );
    out.insert("relstore.snapshot.bytes".into(), v.write_bytes as f64);

    // transport: exact under the simulator
    let n = &w.net;
    out.insert(
        "system.transport.backbone_msgs_per_doc_op".into(),
        per(n.backbone_messages as f64, ops),
    );
    out.insert(
        "system.transport.edge_msgs_per_doc_op".into(),
        per(n.edge_messages as f64, ops),
    );
    out.insert(
        "system.transport.placement_msgs_per_doc_op".into(),
        per(n.placement_messages as f64, ops),
    );
    out.insert(
        "system.transport.bytes_per_doc_op".into(),
        per(n.bytes as f64, ops),
    );
    out.insert("system.transport.retries".into(), n.retries as f64);
    for kind in MESSAGE_KINDS {
        let count = w.by_kind.get(kind).copied().unwrap_or(0);
        out.insert(
            format!("system.transport.by_kind.{kind}"),
            per(count as f64, ops),
        );
    }
    if spec.backbone == Backbone::Raft {
        out.insert(
            "system.raft.msgs_per_commit".into(),
            per(n.backbone_messages as f64, ops),
        );
    }
    out.insert(
        "system.logical_ms_per_doc_op".into(),
        per(n.clock_ms as f64, ops),
    );
    out.insert(
        "system.placement.routed_op_ratio".into(),
        per(w.routed_ops as f64, ops),
    );
    out.insert(
        "system.placement.replicas_per_doc".into(),
        facts.replicas_per_doc,
    );
    out.insert("system.mdp.rule_share".into(), facts.rule_share);
    out.insert("workload.gen_ms_per_doc".into(), per(ms(w.gen_time), ops));
}

/// Attribution: the share of a document operation's time the outside
/// probes account for, and the residual they cannot see.
fn attribution(w: &Window, facts: &DeploymentFacts, replays: &Replays, out: &mut Metrics) {
    let ops = w.doc_ops;
    let filter_runs = if replays.core.filter_docs_per_doc_op > 0.0 {
        per(w.filter_docs as f64, ops) / replays.core.filter_docs_per_doc_op
    } else {
        0.0
    };
    out.insert("core.filter_runs_per_doc_op".into(), filter_runs);
    let publish_overhead = replays.pump.mdp_ms_per_doc_op - replays.core.ms_per_doc_op;
    let vfs_ms = per((w.vfs.sync_ns + w.vfs.append_ns) as f64 / 1e6, ops);
    // the stand-alone engine holds the whole rule base; an MDP's engine
    // holds `rule_share` of it, and filter cost is about linear in rules
    let attributed = replays.core.ms_per_doc_op * filter_runs * facts.rule_share
        + publish_overhead
        + replays.pump.lmr_apply_ms_per_publication * replays.pump.publications_per_doc_op
        + vfs_ms;
    out.insert(
        "system.residual_ms_per_doc_op".into(),
        per(ms(w.doc_wall), ops) - attributed,
    );
}

/// Cost of recording one span, measured on this machine right now.
fn span_cost_ns() -> f64 {
    const N: u32 = 50_000;
    let tracer = Tracer::on();
    let start = Instant::now();
    for _ in 0..N {
        tracer.timed("harness.calibration", || ());
    }
    start.elapsed().as_nanos() as f64 / f64::from(N)
}

fn write_trace(spec: &Spec, header: &str, spans: &[span::Span]) -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}.jsonl", spec.name));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    span::write_jsonl(&mut file, header, spans)?;
    Ok(path)
}

fn print_table(title: &str, table: &[Metric], values: &Metrics) {
    eprintln!("-- {title}");
    for m in table {
        let v = values.get(m.name).copied().unwrap_or(0.0);
        eprintln!("   {:<48} {:>16.4} {}", m.name, v, m.unit);
    }
}

/// One set-up, one measured window, and the end-of-workload checks.
struct Round {
    setup_s: f64,
    window: Window,
    facts: DeploymentFacts,
    attempted: u64,
    failed: u64,
    /// `VmHWM` after the set-up and `VmRSS` growth over the window, KiB.
    hwm_after_setup_kb: f64,
    rss_growth_kb: f64,
    /// Spans recorded by the time the window closed.
    driven_spans: usize,
    /// The inputs the layer probes replay (traced pass only).
    rules: Vec<(usize, gen::RuleModel)>,
    preloaded: Vec<gen::DocModel>,
    upcoming: Vec<gen::Op>,
}

fn round<B: Backend>(
    spec: &Spec,
    args: &Args,
    seconds: f64,
    tracer: &Tracer,
) -> Result<Round, String> {
    let start = Instant::now();
    let mut dep: Deployment<B> =
        run::build(spec, args.seed, tracer).map_err(|e| format!("set-up: {e}"))?;
    let setup_s = start.elapsed().as_secs_f64();
    let upcoming: Vec<gen::Op> = if args.trace {
        let mut preview = dep.gen.clone();
        (0..spec.probe_ops).map(|_| preview.next_op()).collect()
    } else {
        Vec::new()
    };

    let (hwm_after_setup_kb, rss_before_kb) = (proc_status_kb("VmHWM:"), proc_status_kb("VmRSS:"));
    let drive_started = Instant::now();
    let window = run::drive(&mut dep, spec, seconds, tracer);
    let drive_took = drive_started.elapsed();
    let rss_growth_kb = proc_status_kb("VmRSS:") - rss_before_kb;
    let driven_spans = tracer.len();

    let live = dep.gen.oracle.live.len() as u64;
    let copies: usize = dep
        .mdps
        .iter()
        .map(|m| dep.sys.mdp(m).map_or(0, |m| m.engine().document_count()))
        .sum();
    let subscriptions: usize = dep
        .mdps
        .iter()
        .map(|m| {
            dep.sys
                .mdp(m)
                .map_or(0, |m| m.engine().subscriptions().count())
        })
        .sum();
    let mut facts = DeploymentFacts {
        replicas_per_doc: per(copies as f64, live),
        rule_share: per(
            subscriptions as f64,
            (dep.mdps.len() * dep.rules.len()) as u64,
        ),
        recover: None,
        wal_open: None,
    };
    let (mut attempted, mut failed) = (window.attempted, window.failed);
    if spec.crash_restart {
        if args.trace {
            facts.wal_open = B::reopen_copy(&dep.sys, &dep.disk, "m1");
        }
        attempted += 1;
        let sys = &mut dep.sys;
        let (result, took) = tracer.timed("system.crash_and_restart_mdp", || {
            B::crash_restart(sys, "m1")
        });
        match result {
            Ok(()) => facts.recover = Some(took),
            Err(e) => {
                eprintln!("mdvbench: CHECK FAILED: crash_and_restart_mdp: {e}");
                failed += 1;
            }
        }
    }
    let checks_started = Instant::now();
    let (checks, check_failures) = run::final_checks(&dep, args.seed);
    eprintln!(
        "mdvbench: set-up {setup_s:.1} s, window {:.1} s ({:.1} s measured, {} doc ops), end checks {:.1} s",
        drive_took.as_secs_f64(),
        window.wall.as_secs_f64(),
        window.doc_ops,
        checks_started.elapsed().as_secs_f64()
    );
    // the probes build their own engines: the deployment is freed here
    let Deployment {
        rules, preloaded, ..
    } = dep;
    Ok(Round {
        setup_s,
        window,
        facts,
        attempted: attempted + checks,
        failed: failed + check_failures,
        hwm_after_setup_kb,
        rss_growth_kb,
        driven_spans,
        rules,
        preloaded,
        upcoming,
    })
}

/// One workload, one pass, in this process. Returns the result line and
/// whether the run was correct.
///
/// The untraced pass runs `ROUNDS` rounds from the same seed — identical
/// inputs, each on a freshly built deployment for a share of `--seconds` —
/// and reports the median set-up time and the median throughput: the rounds
/// differ only by what the host did to them, and the median drops the round
/// it disturbed most. The traced pass runs one round for all of
/// `--seconds`, then the layer probes.
fn run_workload<B: Backend>(spec: &Spec, args: &Args) -> Result<(String, bool), String> {
    let header = stamp(spec, args);
    println!("{header}");
    let (table, values, attempted, failed) = if args.trace {
        let tracer = Tracer::on();
        let r = round::<B>(spec, args, args.seconds, &tracer)?;
        let mut values = Metrics::new();
        window_metrics(spec, &r.window, &r.facts, &mut values);
        values.insert(
            "user.rss_kb_per_doc_op".into(),
            per(r.rss_growth_kb, r.window.doc_ops),
        );
        let inputs = ProbeInputs {
            spec,
            rules: &r.rules,
            preloaded: &r.preloaded,
            ops: &r.upcoming,
        };
        let replays = probes::run(&inputs, &tracer, &mut values);
        attribution(&r.window, &r.facts, &replays, &mut values);
        let spans = tracer.spans();
        values.insert("harness.spans".into(), spans.len() as f64);
        values.insert(
            "harness.trace_overhead_ratio".into(),
            1.0 + r.driven_spans as f64 * span_cost_ns() / r.window.wall.as_nanos() as f64,
        );
        match write_trace(spec, &header, &spans) {
            Ok(path) => eprintln!("mdvbench: spans written to {}", path.display()),
            Err(e) => return Err(format!("writing the trace: {e}")),
        }
        eprintln!("-- self time by span name (count, total ms, self ms)");
        for (name, t) in span::self_times(&spans) {
            eprintln!(
                "   {:<48} {:>9} {:>12.3} {:>12.3}",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        (PER_LAYER, values, r.attempted, r.failed)
    } else {
        let tracer = Tracer::off();
        let mut rounds = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            rounds.push(round::<B>(
                spec,
                args,
                args.seconds / ROUNDS as f64,
                &tracer,
            )?);
        }
        // memory is read at a stated input size — rule base and pre-load,
        // after the first set-up, on a heap nothing has been freed into yet
        // — and not after a window, where it would grow with every
        // operation a faster program completes
        let values = end_to_end_metrics(&rounds, rounds[0].hwm_after_setup_kb);
        (
            END_TO_END,
            values,
            rounds.iter().map(|r| r.attempted).sum(),
            rounds.iter().map(|r| r.failed).sum(),
        )
    };
    assert!(
        values.keys().all(|k| table.iter().any(|m| m.name == k)),
        "a metric is missing from the table"
    );
    print_table(
        &format!(
            "{} (seed {}, {attempted} attempted, {failed} failed)",
            spec.name, args.seed
        ),
        table,
        &values,
    );
    Ok((
        metrics::result_line(table, &values, attempted, failed),
        failed == 0,
    ))
}

/// Runs this program again as a child — one process per workload, so that
/// `peak_rss_mb` belongs to one workload — and returns its result line.
fn run_child(spec: &Spec, args: &Args, seed: u64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end
    let output = cmd.output().map_err(|e| format!("starting a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("").to_owned();
    if !output.status.success() {
        return Err(format!(
            "{} (seed {seed}, trace {}) failed: {}",
            spec.name,
            u8::from(trace),
            line
        ));
    }
    Ok(line)
}

/// All selected workloads, untraced then traced, one child each.
fn run_all(selected: &[Spec], args: &Args) -> Result<(), String> {
    for spec in selected {
        let untraced = run_child(spec, args, args.seed, false)?;
        println!("{untraced}");
        let traced = run_child(spec, args, args.seed, true)?;
        println!("{traced}");
        let plain = metrics::read_metric(&untraced, "doc_ops_per_s").unwrap_or(0.0);
        let with_spans = metrics::read_metric(&traced, "user.doc_ops_per_s").unwrap_or(0.0);
        if with_spans > 0.0 {
            eprintln!(
                "mdvbench: {}: traced / untraced wall time per doc op = {:.4}",
                spec.name,
                plain / with_spans
            );
        }
    }
    Ok(())
}

/// `--repeat n`: every end-to-end metric's median, quartiles and relative
/// spread over `n` runs with seeds `seed..seed+n`; an error when a spread
/// exceeds the metric's bound (`setup_s` is exempt, as in acceptance).
fn run_repeat(selected: &[Spec], args: &Args, n: usize) -> Result<(), String> {
    let mut over = Vec::new();
    for spec in selected {
        let mut series: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for i in 0..n as u64 {
            let line = run_child(spec, args, args.seed + i, false)?;
            for m in END_TO_END {
                let v = metrics::read_metric(&line, m.name)
                    .ok_or_else(|| format!("{}: no {} in '{line}'", spec.name, m.name))?;
                series.entry(m.name).or_default().push(v);
            }
        }
        for m in END_TO_END {
            let values = &series[m.name];
            let [q1, med, q3] = stats::quartiles(values);
            let spread = stats::relative_spread(values);
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            println!(
                "{{\"workload\": {}, \"metric\": {}, \"unit\": {}, \"runs\": {n}, \"q1\": {}, \
                 \"median\": {}, \"q3\": {}, \"spread\": {}, \"bound\": {}}}",
                metrics::json_str(spec.name),
                metrics::json_str(m.name),
                metrics::json_str(m.unit),
                metrics::json_num(q1),
                metrics::json_num(med),
                metrics::json_num(q3),
                metrics::json_num(spread),
                metrics::json_num(bound),
            );
            if spread > bound && m.name != "setup_s" {
                over.push(format!(
                    "{} {}: spread {spread:.4} > bound {bound}",
                    spec.name, m.name
                ));
            }
        }
    }
    if over.is_empty() {
        Ok(())
    } else {
        Err(over.join("; "))
    }
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let all = workloads::specs();
    if args.print_benchmark_json {
        print!("{}", metrics::benchmark_json(&all));
        return Ok(true);
    }
    let selected: Vec<Spec> = match &args.workload {
        Some(name) => vec![all
            .iter()
            .find(|s| s.name == name)
            .cloned()
            .ok_or_else(|| format!("unknown workload '{name}'"))?],
        None => all,
    };
    if let Some(n) = args.repeat {
        return run_repeat(&selected, &args, n).map(|()| true);
    }
    if args.workload.is_none() {
        return run_all(&selected, &args).map(|()| true);
    }
    let spec = selected.into_iter().next().expect("one workload selected");
    let spec = if args.smoke { spec.smoke() } else { spec };
    let (line, correct) = if spec.durable {
        run_workload::<Durable>(&spec, &args)?
    } else {
        run_workload::<Database>(&spec, &args)?
    };
    println!("{line}");
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mdvbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload raft-fanout --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("raft-fanout"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&argv("--trace yes")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--repeat 1")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }
}
