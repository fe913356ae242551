//! Regenerates the paper's evaluation figures.
//!
//! ```text
//! cargo run -p mdv-bench --bin figures --release -- all
//! cargo run -p mdv-bench --bin figures --release -- fig12 --full
//! ```
//!
//! Subcommands: `fig11` `fig12` `fig13` `fig14` `fig15`
//! `ablation-naive` `ablation-groups` `ablation-updates` `all`.
//! `--full` runs the paper-sized rule bases (up to 100,000 rules); the
//! default sizes finish in a few minutes on a laptop. Any other `--flag`,
//! any other command and any second command print the usage line and
//! exit 2.

use std::env;

use mdv_bench::{
    ablation_groups, ablation_naive, ablation_updates, render_csv, sweep, sweep_fractions,
    Measurement, BATCH_SIZES, BATCH_SIZES_QUICK,
};
use mdv_workload::RuleType;

struct Config {
    full: bool,
    min_elapsed_ms: f64,
}

impl Config {
    fn batches(&self) -> &'static [u64] {
        if self.full {
            &BATCH_SIZES
        } else {
            &BATCH_SIZES_QUICK
        }
    }

    /// One batch-size sweep of one (rule type, rule-base size) series.
    fn sweep(&self, rule_type: RuleType, rule_count: u64, fraction: f64) -> Vec<Measurement> {
        sweep(
            rule_type,
            rule_count,
            fraction,
            self.batches(),
            self.min_elapsed_ms,
        )
    }
}

const COMMANDS: [&str; 9] = [
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "ablation-naive",
    "ablation-groups",
    "ablation-updates",
    "all",
];

const USAGE: &str = "usage: figures [fig11|fig12|fig13|fig14|fig15|ablation-naive|\
     ablation-groups|ablation-updates|all] [--full]";

/// Splits the command line into `(command, full)`. At most one command
/// (default `all`), which must be one of [`COMMANDS`]; anything this binary
/// does not know is an error, never a silently different run.
fn parse_args(args: &[String]) -> Result<(&str, bool), String> {
    let mut command = None;
    let mut full = false;
    for arg in args.iter().map(String::as_str) {
        match arg {
            "--full" => full = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            second if command.is_some() => {
                return Err(format!("more than one command: '{second}'"))
            }
            name if COMMANDS.contains(&name) => command = Some(name),
            other => return Err(format!("unknown command '{other}'")),
        }
    }
    Ok((command.unwrap_or("all"), full))
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let (command, full) = parse_args(&args).unwrap_or_else(|e| usage_error(&e));
    let config = Config {
        full,
        min_elapsed_ms: if full { 200.0 } else { 50.0 },
    };

    match command {
        "fig11" => fig11(&config),
        "fig12" => fig12(&config),
        "fig13" => fig13(&config),
        "fig14" => fig14(&config),
        "fig15" => fig15(&config),
        "ablation-naive" => run_ablation_naive(&config),
        "ablation-groups" => run_ablation_groups(&config),
        "ablation-updates" => run_ablation_updates(&config),
        // `all`: `parse_args` admits no other command
        _ => {
            fig11(&config);
            fig12(&config);
            fig13(&config);
            fig14(&config);
            fig15(&config);
            run_ablation_naive(&config);
            run_ablation_groups(&config);
            run_ablation_updates(&config);
        }
    }
}

fn banner(title: &str, detail: &str) {
    println!("\n=== {title} ===");
    println!("{detail}");
}

fn print_rows(rows: &[Measurement]) {
    print!("{}", render_csv(rows));
}

/// Figure 11: OID rules — average registration cost vs batch size; the
/// curves for different rule-base sizes coincide (string-equality rules are
/// probed through a full-key hash index).
fn fig11(config: &Config) {
    let rule_counts: &[u64] = if config.full {
        &[10_000, 100_000]
    } else {
        &[1_000, 10_000]
    };
    banner(
        "Figure 11: OID rules",
        "expected shape: cost falls with batch size then flattens; curves for \
         all rule-base sizes nearly identical",
    );
    let mut rows = Vec::new();
    for &rc in rule_counts {
        rows.extend(config.sweep(RuleType::Oid, rc, 0.0));
    }
    print_rows(&rows);
}

/// Figure 12: PATH rules — cost amortizes with batches. The paper's
/// dependence on the rule-base size came from its reconversion scan over
/// the numeric-equality trigger table and per-rule join evaluation; both
/// are indexed here (DESIGN.md §5, §10.2), so the curves nearly coincide.
fn fig12(config: &Config) {
    let rule_counts: &[u64] = if config.full {
        &[1_000, 10_000, 100_000]
    } else {
        &[1_000, 10_000]
    };
    banner(
        "Figure 12: PATH rules",
        "expected shape: cost falls with batch size then flattens; the paper's \
         rule-base dependence is removed on purpose (numeric = through the \
         sorted chain, join members found by input pair)",
    );
    let mut rows = Vec::new();
    for &rc in rule_counts {
        rows.extend(config.sweep(RuleType::Path, rc, 0.0));
    }
    print_rows(&rows);
}

/// Figure 13: COMP rules matching 10% of the rule base — small batches are
/// preferable; cost depends on the rule-base size.
fn fig13(config: &Config) {
    // the paper plots 1k and 10k rule bases for COMP; both fit the quick run
    let rule_counts: &[u64] = &[1_000, 10_000];
    banner(
        "Figure 13: COMP rules (10% of rule base)",
        "expected shape: per-document cost roughly flat-to-rising with batch \
         size; larger rule bases are more expensive",
    );
    let mut rows = Vec::new();
    for &rc in rule_counts {
        rows.extend(config.sweep(RuleType::Comp, rc, 0.1));
    }
    print_rows(&rows);
}

/// Figure 14: JOIN rules — like PATH but with the full filter pipeline
/// (three triggers, an identity join, a reference join per rule).
fn fig14(config: &Config) {
    let rule_counts: &[u64] = if config.full {
        &[1_000, 10_000]
    } else {
        &[1_000, 5_000]
    };
    banner(
        "Figure 14: JOIN rules",
        "expected shape: like PATH with higher absolute cost; the paper's \
         rule-base dependence is removed on purpose, as for PATH",
    );
    let mut rows = Vec::new();
    for &rc in rule_counts {
        rows.extend(config.sweep(RuleType::Join, rc, 0.0));
    }
    print_rows(&rows);
}

/// Figure 15: 10,000 COMP rules — varying matched percentage for several
/// batch sizes.
fn fig15(config: &Config) {
    let rule_count = if config.full { 10_000 } else { 2_000 };
    let fractions = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5];
    let batches: &[u64] = &[1, 10, 100, 1000];
    banner(
        "Figure 15: COMP rules, varying matched percentage",
        "expected shape: higher matched percentage costs more at every batch size",
    );
    let rows = sweep_fractions(rule_count, &fractions, batches, config.min_elapsed_ms);
    print_rows(&rows);
}

/// Ablation A: filter vs naive evaluate-every-rule baseline.
fn run_ablation_naive(config: &Config) {
    let rule_counts: &[u64] = if config.full {
        &[100, 1_000, 10_000]
    } else {
        &[100, 1_000]
    };
    banner(
        "Ablation A: filter vs naive baseline (PATH rules, batch 100)",
        "expected shape: naive cost grows linearly with the rule base; the \
         filter's trigger index keeps growth far below linear",
    );
    println!("rule_count,filter_ms_per_doc,naive_ms_per_doc,speedup");
    for (f, n) in ablation_naive(RuleType::Path, rule_counts, 100, config.min_elapsed_ms) {
        println!(
            "{},{:.5},{:.5},{:.1}x",
            f.rule_count,
            f.avg_ms_per_doc,
            n.avg_ms_per_doc,
            n.avg_ms_per_doc / f.avg_ms_per_doc
        );
    }
}

/// Ablation B: rule groups (shared probes) on vs off.
fn run_ablation_groups(config: &Config) {
    let rule_count = if config.full { 10_000 } else { 2_000 };
    banner(
        "Ablation B: rule groups on vs off (JOIN rules, batch 100)",
        "expected shape: identical matches; grouped evaluation is at most as \
         expensive (probe sharing)",
    );
    let (grouped, ungrouped) = ablation_groups(rule_count, 100, config.min_elapsed_ms);
    println!("variant,rule_count,ms_per_doc,matches");
    println!(
        "grouped,{},{:.5},{}",
        grouped.rule_count, grouped.avg_ms_per_doc, grouped.matches
    );
    println!(
        "ungrouped,{},{:.5},{}",
        ungrouped.rule_count, ungrouped.avg_ms_per_doc, ungrouped.matches
    );
}

/// Ablation C: the signed update pass.
fn run_ablation_updates(config: &Config) {
    let rule_count = if config.full { 10_000 } else { 1_000 };
    let docs = if config.full { 500 } else { 200 };
    banner(
        "Ablation C: update/delete protocol (PATH rules)",
        "expected shape: updates cost a small multiple of registration (a \
         retracting and a re-adding filter run, §3.5); deletes similar",
    );
    let (register, update, delete) = ablation_updates(rule_count, docs);
    println!("operation,ms_per_doc");
    println!("register,{register:.5}");
    println!("update,{update:.5}");
    println!("delete,{delete:.5}");
    println!("update/register ratio: {:.2}", update / register);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(String, bool), String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse_args(&args).map(|(command, full)| (command.to_owned(), full))
    }

    #[test]
    fn parser_accepts_one_command_and_the_known_flags() {
        assert_eq!(parse(""), Ok(("all".to_owned(), false)));
        assert_eq!(parse("fig12"), Ok(("fig12".to_owned(), false)));
        assert_eq!(
            parse("--full ablation-groups"),
            Ok(("ablation-groups".to_owned(), true))
        );
        for command in COMMANDS {
            assert_eq!(parse(command), Ok((command.to_owned(), false)));
        }
    }

    #[test]
    fn parser_rejects_what_it_does_not_know() {
        for line in [
            "fig12 --threads 2",
            "fig12 --backend durable",
            "fig12 --ful",
            "fig12 fig13",
            "placement-scaling",
            "fig16",
        ] {
            assert!(parse(line).is_err(), "'{line}' must be rejected");
        }
    }
}
