#!/usr/bin/env bash
# Offline CI gate for the mdv workspace.
#
# The build is hermetic by policy: every dependency is an in-tree path
# crate (`mdv-runtime` supplies the PRNG / channels / locks, `mdv-testkit`
# the property-test harness), so everything here runs with
# `--offline` and must succeed on a machine with no network access and a
# cold crates.io cache.
#
# Usage: ci/check.sh [--quick]
#   --quick  skip the release build and example smoke runs (debug gate only)
#
# Environment:
#   MDV_CI_SEEDS  space-separated harness seeds for the replay steps
#                 (default "1 31337 20020226"); e.g.
#                 MDV_CI_SEEDS="7" ci/check.sh --quick for a fast one-seed run

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

# Pinned harness seeds for the property replays below, overridable for
# local bisection without editing this script.
read -r -a CI_SEEDS <<< "${MDV_CI_SEEDS:-1 31337 20020226}"

# Per-step wall-clock accounting: step() closes the previous step's timer,
# and the summary at the bottom prints one line per step so slow steps are
# visible in CI logs without log-timestamp archaeology.
STEP_NAMES=()
STEP_SECS=()
CURRENT_STEP=""
STEP_START=0

finish_step() {
  if [[ -n "$CURRENT_STEP" ]]; then
    STEP_NAMES+=("$CURRENT_STEP")
    STEP_SECS+=("$(( $(date +%s) - STEP_START ))")
  fi
}

step() {
  finish_step
  CURRENT_STEP="$*"
  STEP_START="$(date +%s)"
  printf '\n==> %s\n' "$*"
}

# One traced smoke pass of an mdvbench workload: fails unless the run is
# correct and each named per-layer count is at most the bound.
# usage: count_gate <workload> <bound> <what a larger count means> <metric>...
count_gate() {
  cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- \
    --workload "$1" --smoke --trace 1 --seconds 1 2>/dev/null \
    | python3 -c '
import json, sys
workload, bound, meaning, *names = sys.argv[1:]
result = json.loads(sys.stdin.read().splitlines()[-1])
if not result["correct"]:
    sys.exit(f"ERROR: {workload} smoke run is not correct")
for name in names:
    value = result["metrics"][name]["value"]
    if value > float(bound):
        sys.exit(f"ERROR: {name} = {value} > {bound}: {meaning}")
    print(f"ok: {name} = {value:.1f} (<= {bound})")
' "$@"
}

print_timing_summary() {
  finish_step
  CURRENT_STEP=""
  printf '\n==> per-step wall clock\n'
  local i
  for i in "${!STEP_NAMES[@]}"; do
    printf '%6ss  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
  done
}

# ---------------------------------------------------------------------------
step "shellcheck ci/check.sh"
# The gate lints itself when shellcheck is installed; the hermetic builder
# image may not carry it, in which case the step skips rather than fails.
if command -v shellcheck >/dev/null 2>&1; then
  shellcheck ci/check.sh
  echo "ok: shellcheck clean"
else
  echo "skip: shellcheck not installed"
fi

# ---------------------------------------------------------------------------
step "dependency policy: deny external crates"
# The deny-list guards against crates.io dependencies reappearing in any
# manifest. Matches dependency lines like `rand = "0.8"` or
# `criterion = { version = ... }` at the start of a line. `target/` is
# excluded: build output may embed manifest copies we do not police.
DENYLIST='rand|proptest|criterion|crossbeam|parking_lot|serde|tokio|rayon|libc'
if grep -RInE "^[[:space:]]*(${DENYLIST})[-_a-zA-Z0-9]*[[:space:]]*=" \
    --include=Cargo.toml --exclude-dir=target . ; then
  echo "ERROR: external crate dependency found in a Cargo.toml (see above)." >&2
  exit 1
fi
if [[ -f Cargo.lock ]] && grep -nE "^name = \"(${DENYLIST})" Cargo.lock; then
  echo "ERROR: external crate present in Cargo.lock (see above)." >&2
  exit 1
fi
if grep -n 'source = "registry' Cargo.lock; then
  echo "ERROR: Cargo.lock references a registry source; build is not hermetic." >&2
  exit 1
fi
echo "ok: no denied crates in manifests or lockfile"

# ---------------------------------------------------------------------------
step "dependency policy: cargo metadata lists only workspace path crates"
# Every package in the resolved graph must live under this repository; any
# registry/git package means the hermetic guarantee broke.
META="$(mktemp)"
trap 'rm -f "$META"' EXIT
cargo metadata --offline --format-version 1 > "$META"
python3 - "$PWD" "$META" <<'PY'
import json, sys
root, meta_path = sys.argv[1], sys.argv[2]
with open(meta_path) as fh:
    meta = json.load(fh)
bad = [p["id"] for p in meta["packages"]
       if p.get("source") is not None or not p["manifest_path"].startswith(root)]
if bad:
    sys.exit("ERROR: non-path dependencies in cargo metadata:\n  " + "\n  ".join(bad))
print(f"ok: {len(meta['packages'])} packages, all path crates in the workspace")
PY

# ---------------------------------------------------------------------------
step "docs policy: no BENCH_*.json result files, removed names stay in their tombstones"
# System-tier numbers come from one tool, mdvbench (benchmark/, BENCHMARK.json),
# and the paper's figures from `figures`, which prints them; neither checks
# result files into the repo root.
if compgen -G 'BENCH_*.json' >/dev/null; then
  echo "ERROR: BENCH_*.json result files are checked in at the repo root:" >&2
  ls BENCH_*.json >&2
  exit 1
fi
echo "ok: no BENCH_*.json in the repo root"
# Removed mechanisms stay removed from the docs: the filter-shard tier and
# the matching knobs, the second grouped join body, the filter's thread
# pool, the stored Raft snapshot table, the SQL text query path with its
# join executors, the filter's config struct, and the hand-written
# per-node retry and outbox state that `channel.rs` replaced, and the
# receivers' reorder buffers with their records, the replication floors
# and the second publication receive path, and the five logical-time studies with the `--backend` knob, the
# second bench runner and their result files, and the Raft snapshot codec
# and Raft placement entry, and the per-kind mirror tables with their
# key-index upgrade, and the relstore planner, range probes, predicate
# trees, undo-log transactions and file snapshot helpers, and the typed
# Raft tables with the rebuilt `-r<k>` MDP stores, and the three-pass
# update protocol's pass modes, candidate passes and referrer run, and the
# always-left backfill evaluation with its partition copy, and the keyed
# index stores with their key type and formatted trigger-table names, and
# the filter run's `String` tuples with their tally and trace copy, and
# the second backbone topology (the full-replication digest, the second
# convergence check, the peers list and the factor shorthand), may
# be named only where their removal is recorded —
# DESIGN.md §8 and EXPERIMENTS.md "Removed studies".
REMOVED='ShardedFilterEngine|set_filter_shards|use_subsumption|use_trigger_index|shard-scaling|matching-scaling|join_candidates_parallel|Two join bodies|set_filter_threads|set_threads|par_map|parallel_map|thread-scaling|parallel_determinism|with_filter_config|SysRaftSnap|query_sql|sql_translate|evaluate_via_sql|execute_sql|hash_join|nested_loop_join|FilterConfig|ReplOutgoing|hello_retry|unsub_retry|sub_retry|repl_outbox|repl_buffer|alt_next_seq|wal-overhead|recovery-torture|backbone-repair|backbone-consensus|placement-scaling|--backend|BenchGroup|MDV_BENCH_ITERS|BENCH_[a-z_]+\.json|raft_build_snapshot|RaftCmd::Placement|SysDocuments|SysSubscriptions|LmrPubBuffer|LmrDeadRules|ensure_key_index|KEYED_TABLES|PerRuleFormat|select_with_plan|AccessPath|probe_prefix_range|probe_range|sql_cmp|with_commit_group|save_to_path|load_from_path|\bTxn\b|CmpOp|SysRaftHard|SysRaftLog|sibling_dir_on|upsert_where|delete_where|delete_rows|rebuild_from_tables|Mode::(Insert|Refresh|Collect)|pass[123]_atoms|referrer_run|result_insert|result_remove|atoms_from_store|check_match_memo|eval_rule_full|BaseStore::partition\b|IndexStore|BTreeMap<IndexKey|\bIndexKey\b|filter_table_name|table_suffix|pubbuf|replbuf|replfloor|buffered_publications|receive_alt_publication|parked_keys|Inbox::deliver|HashMap<\(RuleId, String\)|HashSet<\(RuleId, String\)|Vec<\(String, RuleId\)>|record_iteration|ReplicateRegister|ReplicateUpdate|ReplicateDelete|ReplKind|\bReplOp\b|\bRepairDoc\b|RaftCmd::(Register|Update|Delete)|docver|ReplicaDigest|replica-digest|backbone_converged_placement|set_peers|rewire_peers|set_replication_factor'
if grep -nE "$REMOVED" README.md \
    || sed '/^## 8\. /,/^## 9\. /d' DESIGN.md | grep -nE "$REMOVED" \
    || sed '/^## Removed studies/,/^## /d' EXPERIMENTS.md | grep -nE "$REMOVED"; then
  echo "ERROR: the docs name a removed mechanism outside its tombstone (see above)." >&2
  exit 1
fi
echo "ok: no removed mechanism named outside DESIGN.md §8 / EXPERIMENTS.md \"Removed studies\""

# ---------------------------------------------------------------------------
step "filter-run tuples: no String per tuple in crates/core/src"
# A filter run holds its resources by number (DESIGN.md §10.1): a tuple is
# `(RuleId, Res)`, and a URI string is built only for a publication and for
# the rendered Figure-9 trace (`FilterRun`, `trace.rs`). Outside the test
# modules, no other source file of the filter may key a tally by
# `(RuleId, String)` or carry tuples as `Vec<(String, RuleId)>`.
STRING_TUPLES='\(RuleId, String\)|\(String, RuleId\)'
for f in crates/core/src/*.rs; do
  [[ "$f" == crates/core/src/trace.rs ]] && continue
  if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE "$STRING_TUPLES"; then
    echo "ERROR: $f carries filter-run tuples as strings (see above)." >&2
    exit 1
  fi
done
echo "ok: filter-run tuples are numbered outside trace.rs"

# ---------------------------------------------------------------------------
step "cargo fmt --check"
cargo fmt --all --check

# ---------------------------------------------------------------------------
step "cargo build (debug, offline)"
cargo build --offline --workspace --all-targets

# ---------------------------------------------------------------------------
step "cargo clippy (offline, all targets, -D warnings)"
# Lint-clean by policy, tests and examples included; runs offline against
# the same hermetic graph as the build.
cargo clippy --offline --workspace --all-targets -- -D warnings
echo "ok: clippy clean"

# ---------------------------------------------------------------------------
step "cargo test (offline, whole workspace)"
cargo test -q --offline --workspace

# ---------------------------------------------------------------------------
step "allocation gate: a filter run allocates per publication, not per tuple"
# `crates/core/tests/allocations.rs` counts heap allocations with an in-tree
# counting global allocator: a document firing 100 trigger-only end rules
# may cost at most 3 allocations per rule more than one firing 10, in a
# registration and in an update; a batch registration under one PATH rule
# at most 145 per document; a non-equality join probe by a resource with
# eight values at most 4.5 per counterpart. Counts repeat exactly, whatever
# the host.
cargo test -q --offline -p mdv-filter --test allocations \
  a_filter_run_allocates_per_publication_not_per_tuple -- --exact --nocapture
cargo test -q --offline -p mdv-filter --test allocations \
  a_path_registration_stays_under_its_per_document_bound -- --exact --nocapture
cargo test -q --offline -p mdv-filter --test allocations \
  a_multi_valued_join_probe_clones_each_counterpart_once -- --exact --nocapture
echo "ok: allocation gate"

# ---------------------------------------------------------------------------
step "fault-matrix smoke: fault_sim across fixed seeds"
# Replays the fault-injection property under pinned harness seeds so
# regressions in the at-least-once protocol show up with a reproducible
# seed in the failure message (rerun locally with the printed MDV_PROP_SEED).
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=25 \
    cargo test -q --offline --test fault_sim >/dev/null
  echo "ok: fault_sim @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "channel replay: the at-least-once channel alone across fixed seeds"
# Replays the properties of `crates/system/src/channel.rs` (DESIGN.md §3b)
# under the pinned seeds: seeded drop / duplicate / reorder / ack-loss
# schedules over 1-3 senders and a receiver that withholds early arrivals
# deliver every sequence number once and in order and drain every outbox
# (and the cases still draw early arrivals), backoff doubles to its cap,
# held-back destinations are skipped and restored entries are due at once.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=200 \
    cargo test -q --offline -p mdv-system --lib channel:: >/dev/null
  echo "ok: channel @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "crash-restart replay: durable recovery across fixed seeds"
# Replays the crash/restart property (WAL + snapshot recovery with rule
# churn, torn-tail injection, and the cache-consistency oracle) under the
# same pinned seeds as the fault matrix; failures print the seed to rerun.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=15 \
    cargo test -q --offline --test crash_restart >/dev/null
  echo "ok: crash_restart @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "state-record replay: the state tables hold the exports' records across fixed seeds"
# Replays the anti-drift properties of `crates/system/src/state.rs`
# (DESIGN.md §6.4, §9.3): a durable MDP and two durable LMRs under seeded
# churn and crash-restarts over a lossy transport, and three durable Raft
# voters with failed, healed and crash-restarted voters; at every quiescent
# point each node's state table holds exactly its export's records, the
# export imported into a fresh node exports the same text, and each
# voter's `raft` / `raftlog` records equal its `RaftProbe`.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=24 \
    cargo test -q --offline -p mdv-system --lib state:: >/dev/null
  echo "ok: state records @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "storage-torture replay: disk faults and crash-point sweeps across fixed seeds"
# Replays the storage fault-injection suite (DESIGN.md §12) under the pinned
# seeds: the exhaustive crash-point sweeps and the golden byte-identity
# fixture are deterministic and run every time; the randomized
# detected-or-consistent property replays per seed; failures print the seed
# to rerun.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=12 \
    cargo test -q --offline --test storage_torture >/dev/null
  echo "ok: storage_torture @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "backbone-repair replay: replication, anti-entropy, failover across fixed seeds"
# Replays the backbone reconvergence property (reliable MDP↔MDP replication,
# anti-entropy repair, and LMR failover through a fail/heal cycle, checked
# by the cache-consistency oracle) under the same pinned seeds.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=15 \
    cargo test -q --offline --test backbone_repair >/dev/null
  echo "ok: backbone_repair @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "placement replay: partitioned replication across fixed seeds"
# Replays the placement properties (randomized fail/heal schedules at
# R ∈ {1,2,3} over 3–5 MDPs checked by the shadow-deployment oracle;
# DESIGN.md §11) under the same pinned seeds; failures print the seed to
# rerun.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=15 \
    cargo test -q --offline --test placement >/dev/null
  echo "ok: placement @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "raft-safety replay: consensus invariants under seeded fault schedules"
# Replays the Raft safety properties (Election Safety, Log Matching, Leader
# Completeness, State Machine Safety under randomized drop/dup/partition
# schedules, plus voter crash-restarts mid-election) under the same pinned
# seeds; failures print the seed to rerun (DESIGN.md §9).
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=50 \
    cargo test -q --offline --test raft_safety >/dev/null
  echo "ok: raft_safety @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "lmr-gc replay: incremental collector vs full sweep across fixed seeds"
# Replays the LMR garbage-collection property (worklist collector against a
# full sweep and a from-scratch anchor model after every step of arbitrary
# publication streams; DESIGN.md §7.4) under the same pinned seeds.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=200 \
    cargo test -q --offline -p mdv-system --test lmr_gc >/dev/null
  echo "ok: lmr_gc @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "matching-equivalence replay: indexed trigger routes vs table scan across fixed seeds"
# Replays the matching-equivalence property (the postings and
# threshold-chain routes return exactly what the relational scan
# `matching_triggers` returns, for every atom, under subscription churn
# and the update/delete protocol; DESIGN.md §10) under the pinned seed
# matrix.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=25 \
    cargo test -q --offline -p mdv-filter --test matching_equivalence >/dev/null
  echo "ok: matching_equivalence @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "grouped-join replay: input-pair index vs per-member reference across fixed seeds"
# Replays the rule-group transparency property (the grouped join body
# against the per-member evaluation of `use_rule_groups = false`, same
# publications and Figure-9 trace rows in the same order under subscribe /
# unsubscribe / register / update / delete, and the DepGraph join index
# equal to a recomputation from the rules; DESIGN.md §5) under the pinned
# seed matrix.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=25 \
    cargo test -q --offline -p mdv-filter --test properties \
    rule_groups_are_transparent >/dev/null
  echo "ok: rule_groups_are_transparent @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "update replay: the signed update pass against its definitions across fixed seeds"
# Replays the two update properties (DESIGN.md §5 item 4): every update's
# added / removed / updated lists equal their definitions over the naive
# engine and `check_match`, and a register → update → delete → re-register
# sequence over two cross-referencing documents leaves the same support
# counts as registering the final versions directly.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=200 \
    cargo test -q --offline -p mdv-filter --test properties -- \
    update_publications_match_their_definition update_converges_to_fresh_state >/dev/null
  echo "ok: update properties @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "trace replay: traced and untraced registration agree across fixed seeds"
# Replays `traced_and_untraced_registration_agree` (DESIGN.md §10.1): over
# batches of cross-referencing documents, `register_batch` and
# `register_batch_traced` return the same publications, statistics and
# support counts, and the trace's end matches are the publications' adds.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=200 \
    cargo test -q --offline -p mdv-filter --test properties -- \
    traced_and_untraced_registration_agree >/dev/null
  echo "ok: traced_and_untraced_registration_agree @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "backfill replay: new rules materialized over existing data across fixed seeds"
# Replays the backfill property (DESIGN.md §10.4): registering the rules
# after the data, one at a time or as one batch, yields the initial
# matches and the support counts of registering them before it, over
# documents that reference each other's resources, for every rule shape.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=200 \
    cargo test -q --offline -p mdv-filter --test properties -- \
    backfill_equals_live >/dev/null
  echo "ok: backfill_equals_live @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "index replay: key-less index probes equal filtered scans across fixed seeds"
# Replays the index property of `crates/relstore/tests/storage_properties.rs`
# (DESIGN.md §6.1): every probe returns what a filtered scan finds, in
# filing order, through insert, delete, key-changing and key-keeping
# updates, truncate, an index built over existing rows and a snapshot
# replay, over NULL keys, Int/Float-equal keys and distinct keys built to
# share their full 64-bit hash; unique clashes leave the table unchanged.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=300 \
    cargo test -q --offline -p mdv-relstore --test storage_properties \
    index_probes_equal_filtered_scans >/dev/null
  echo "ok: index_probes_equal_filtered_scans @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "cargo doc: public filter API (mdv-filter, -D warnings)"
# The filter crate is the paper's contribution and its public API is the
# documented surface (rustdoc'd module docs + runnable examples); gate it
# separately so a missing doc or broken intra-doc link names the crate.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -p mdv-filter -q
echo "ok: mdv-filter rustdoc clean"

# ---------------------------------------------------------------------------
step "cargo doc (offline, no deps)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace -q

if [[ "$QUICK" == "0" ]]; then
  # -------------------------------------------------------------------------
  step "cargo build --release (offline)"
  cargo build --offline --release

  # -------------------------------------------------------------------------
  step "example smoke pass"
  cargo run --offline --release --example quickstart >/dev/null
  echo "ok: quickstart"
  cargo run --offline --release --example paper_walkthrough >/dev/null
  echo "ok: paper_walkthrough"
  cargo run --offline --release --example placement_routing >/dev/null
  echo "ok: placement_routing"
  cargo run --offline --release --example operator_toolkit >/dev/null
  echo "ok: operator_toolkit"

  # -------------------------------------------------------------------------
  step "mdvbench smoke pass (all five workloads, a tenth of the sizes)"
  # The end-to-end benchmark doubles as a correctness gate: every operation
  # of every workload is checked against the generator's oracle, and the
  # exit code is non-zero when one fails. Timings of a smoke run mean
  # nothing; BENCHMARK.json names the real command.
  cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- \
    --smoke >/dev/null
  echo "ok: mdvbench --smoke"

  # -------------------------------------------------------------------------
  step "mdvbench exact counts: join-batch filters in O(matches)"
  # The filter's work per document must not depend on the rule base
  # (DESIGN.md §5 item 3, §10.2): on join-batch every document matches
  # exactly one of the PATH+JOIN rules, so a handful of join look-ups and
  # trigger evaluations find it. Counts, not timings — they repeat exactly
  # for a seed. (Per-member evaluation and the numeric-= scan measured
  # 900.3 and 602 here at smoke size; the indexed routes 3.3 and 2.2.)
  count_gate join-batch 10 "filtering is not O(matches)" \
    core.join_evals_per_doc core.trigger_evals_per_doc

  # -------------------------------------------------------------------------
  step "mdvbench exact counts: replicated-churn updates in O(diff)"
  # Telling which subscriptions an updated resource is re-shipped to must
  # not walk the rule base (DESIGN.md §5 item 4): the end rules a strong
  # referrer matches come out of the update's +1 filter run, which re-adds
  # the referrer's atoms. A count, so it repeats for a seed. (Asking
  # `check_match` for every end rule x every referrer measured 100.3
  # counterpart probes per document here at smoke size; the referrer run
  # 4.0, the signed pass 4.0.)
  count_gate replicated-churn 20 "update is not O(diff)" \
    core.probes_executed_per_doc

  # -------------------------------------------------------------------------
  step "mdvbench exact counts: replicated-churn logs only what recovery reads"
  # A durable MDP journals its state table, not its filter tables: those
  # are derived state, rebuilt from its document and subscription records
  # at recovery (DESIGN.md §6.4); and no receiver writes a copy of what
  # is in flight to it. (Journaling every filter row and a buffer row per
  # arrival measured 16 978 - 18 000 WAL bytes per document operation
  # here at smoke size; unlogged filter tables and the elision 7 549 -
  # 8 198.)
  count_gate replicated-churn 12000 "the WAL records derived rows again" \
    user.wal_bytes_per_doc_op

  # -------------------------------------------------------------------------
  step "mdvbench exact counts: raft-fanout sends one envelope per LMR per operation"
  # An MDP ships what one filter run publishes to an LMR as one envelope
  # under one sequence number, one delta per matched rule inside
  # (DESIGN.md §3b): at most one `publish` per LMR per document operation,
  # and raft-fanout has 8 LMRs. (One `publish` per matched rule measured
  # 20.0 per operation here at smoke size; envelopes 8.0.)
  count_gate raft-fanout 8 "publications are not coalesced per LMR" \
    system.transport.by_kind.publish

  # -------------------------------------------------------------------------
  step "subscribe scaling: one rule costs one rule, not the rule base"
  # Registering a rule must not scan the rules already registered
  # (DESIGN.md §3b, §11.4): the MDP's duplicate check is a look-up in its
  # subscriber table, and at a numbered R `subscribe` mirrors only the new
  # rule. Best of 3, microseconds per `subscribe`; fails when LWW at 10k
  # rules costs over 2.5x a rule at 2.5k, or placement R=2 over 4 MDPs at
  # 10k over 3x a rule at 500 or over 10 s in all. (A linear scan per
  # Subscribe plus a full re-mirror per placed subscribe measured 13.8 ->
  # 67.0 us/rule for LWW, 4.9x, and 648 -> 8 903 us/rule for placement
  # between 500 and 2k rules, 17.8 s for 2k; the table 8.3 -> 9.0 and
  # 27.3 -> 34.8 us/rule, 0.35 s for 10k, 2-core x86-64.) Timings, so
  # release mode and off tier-1.
  cargo test -q --release --offline --test placement -- --ignored
  echo "ok: subscribe cost is flat in the rule base"

  # -------------------------------------------------------------------------
  step "figures smoke pass: fig12 (quick mode)"
  # The only `figures` sweep CI runs end to end. A flag or a command the
  # binary does not know (here the removed `--threads` and `--backend`
  # flags and a removed study) must print the usage line and exit 2, never
  # run a different sweep silently.
  cargo run --offline --release -p mdv-bench --bin figures -- fig12 >/dev/null
  echo "ok: figures fig12"
  for args in "fig12 --threads 2" "fig12 --backend durable" "placement-scaling"; do
    RC=0
    # shellcheck disable=SC2086 # split the arguments on purpose
    cargo run --offline --release -p mdv-bench --bin figures -- \
      $args >/dev/null 2>&1 || RC=$?
    [[ "$RC" -eq 2 ]] \
      || { echo "ERROR: figures $args exited $RC, expected 2" >&2; exit 1; }
    echo "ok: figures $args exits 2"
  done
fi

print_timing_summary
printf '\n==> all checks passed\n'
