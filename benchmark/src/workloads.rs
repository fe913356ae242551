//! The five workloads. Names are final: later issues cite them.
//!
//! Sizes were calibrated on the seed commit (2-core sandbox, seed 1) so
//! that one run — three set-ups, 10 s of measured windows, the checks and,
//! in the traced pass, the layer probes — stays under 25 s; see README,
//! "Calibration". They are frozen here; `BENCHMARK.json` carries only the
//! names and reasons.

use crate::gen::{Mix, RuleCounts, RuleModel, Shape};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backbone {
    /// Last-writer-wins full replication, the paper's default.
    Lww,
    /// Single-group Raft (`enable_raft`).
    Raft,
    /// LWW with `configure_placement(PlacementConfig::new(factor))`.
    Placement(usize),
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// One line, at most 200 characters: goes into `BENCHMARK.json`.
    pub why: &'static str,
    pub mdps: usize,
    pub lmrs: usize,
    pub backbone: Backbone,
    /// Nodes run on `DurableEngine` over the counting memory disk.
    pub durable: bool,
    /// `set_batch_size(Some(n))` on the MDP; one latency sample per batch.
    pub batch: Option<usize>,
    pub rules: RuleCounts,
    pub shape: Shape,
    /// Documents registered during set-up, before timing.
    pub preload: usize,
    pub mix: Mix,
    /// `collect_garbage_at` on every LMR each this many operations.
    pub gc_every: Option<u64>,
    /// The last LMR subscribes only PATH/JOIN rules, i.e. only through the
    /// strong reference `serverInformation`.
    pub join_only_lmr: bool,
    /// End with `crash_and_restart_mdp("m1")`.
    pub crash_restart: bool,
    /// Operations of the stream the layer probes replay.
    pub probe_ops: usize,
}

const REGISTER_ONLY: Mix = Mix {
    register: 100,
    update: 0,
    delete: 0,
    query: 0,
    churn: 0,
};

pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "join-batch",
            why: "PATH and JOIN rules only, registered in batches of 100 on one MDP: \
                  core's join path does almost all the work, system and the WAL almost none.",
            mdps: 1,
            lmrs: 1,
            backbone: Backbone::Lww,
            durable: false,
            batch: Some(100),
            rules: RuleCounts {
                path: 3_000,
                join: 3_000,
                ..RuleCounts::default()
            },
            shape: Shape {
                memory_space: 6_000,
                synth: 0..2,
                synth_hit: 1.0,
                nodes: 10_000,
                regions: 100,
                docs: 10_000,
            },
            preload: 300,
            mix: REGISTER_ONLY,
            gc_every: None,
            join_only_lmr: false,
            crash_restart: false,
            probe_ops: 300,
        },
        Spec {
            name: "trigger-stream",
            why: "Trigger-only rules (OID, contains, COMP) with immediate filtering: trigger index, \
                  atomization and publication build dominate; no join rule exists, so join-path work must not show.",
            mdps: 1,
            lmrs: 2,
            backbone: Backbone::Lww,
            durable: false,
            batch: None,
            rules: RuleCounts {
                oid: 4_800,
                region: 2_400,
                node: 2_400,
                comp: 2_400,
                ..RuleCounts::default()
            },
            shape: Shape {
                memory_space: 10_000,
                synth: 6..11,
                synth_hit: 0.02,
                nodes: 120_000,
                regions: 120_000,
                docs: 240_000,
            },
            preload: 1_000,
            mix: REGISTER_ONLY,
            gc_every: None,
            join_only_lmr: false,
            crash_restart: false,
            probe_ops: 400,
        },
        Spec {
            name: "replicated-churn",
            why: "Durable 3-MDP LWW backbone under a mixed load: three-pass update, delete, LMR query, \
                  rule churn, WAL group commit, checkpoint, replication, GC and crash recovery all run.",
            mdps: 3,
            lmrs: 4,
            backbone: Backbone::Lww,
            durable: true,
            batch: None,
            rules: RuleCounts {
                oid: 500,
                comp: 500,
                path: 500,
                join: 500,
                ..RuleCounts::default()
            },
            shape: Shape {
                memory_space: 2_000,
                synth: 0..8,
                synth_hit: 1.0,
                nodes: 4_000,
                regions: 100,
                docs: 4_000,
            },
            preload: 400,
            mix: Mix {
                register: 45,
                update: 25,
                delete: 10,
                query: 15,
                churn: 5,
            },
            gc_every: Some(200),
            join_only_lmr: true,
            crash_restart: true,
            probe_ops: 400,
        },
        Spec {
            name: "raft-fanout",
            why: "Raft backbone, 8 LMRs, about 100 COMP matches per document: propose/commit rounds, XML per \
                  replica, publication build, transport and LMR apply do the work; core does little.",
            mdps: 3,
            lmrs: 8,
            backbone: Backbone::Raft,
            durable: false,
            batch: None,
            rules: RuleCounts {
                oid: 200,
                comp: 200,
                ..RuleCounts::default()
            },
            shape: Shape {
                memory_space: 1_000,
                synth: 90..111,
                synth_hit: 1.0,
                nodes: 1_000,
                regions: 100,
                docs: 2_000,
            },
            preload: 100,
            mix: Mix {
                register: 80,
                update: 20,
                delete: 0,
                query: 0,
                churn: 0,
            },
            gc_every: None,
            join_only_lmr: false,
            crash_restart: false,
            probe_ops: 200,
        },
        Spec {
            name: "placement-r2",
            why: "4 MDPs partitioned with 2 replicas per shard, entry MDP rotating so ops take a routing hop: \
                  routing, R-of-N replication and rule mirroring to every MDP.",
            mdps: 4,
            lmrs: 4,
            backbone: Backbone::Placement(2),
            durable: false,
            batch: None,
            rules: RuleCounts {
                oid: 125,
                comp: 125,
                path: 125,
                join: 125,
                ..RuleCounts::default()
            },
            shape: Shape {
                memory_space: 500,
                synth: 0..8,
                synth_hit: 1.0,
                nodes: 2_000,
                regions: 100,
                docs: 2_000,
            },
            preload: 300,
            mix: Mix {
                register: 60,
                update: 25,
                delete: 15,
                query: 0,
                churn: 0,
            },
            gc_every: None,
            join_only_lmr: false,
            crash_restart: false,
            probe_ops: 400,
        },
    ]
}

impl Spec {
    /// `--smoke`: a tenth of the rule base and pre-load, same shapes.
    pub fn smoke(mut self) -> Spec {
        self.rules = self.rules.scaled_down(10);
        self.preload = (self.preload / 10).max(self.batch.unwrap_or(1));
        self.probe_ops = (self.probe_ops / 4).max(self.batch.unwrap_or(1));
        self
    }

    pub fn mdp_names(&self) -> Vec<String> {
        (1..=self.mdps).map(|i| format!("m{i}")).collect()
    }

    pub fn lmr_names(&self) -> Vec<String> {
        (1..=self.lmrs).map(|i| format!("l{i}")).collect()
    }

    /// LMR `i` connects to MDP `i mod mdps`.
    pub fn home_of(&self, lmr: usize) -> String {
        format!("m{}", lmr % self.mdps + 1)
    }

    /// Deals the rule base out to the LMRs round-robin, in subscription
    /// order. With `join_only_lmr` the last LMR takes part only in the
    /// deal of PATH/JOIN rules.
    pub fn assign(&self, rules: &[RuleModel]) -> Vec<(usize, RuleModel)> {
        let open_to_all = if self.join_only_lmr {
            self.lmrs - 1
        } else {
            self.lmrs
        };
        let (mut joins, mut others) = (0, 0);
        rules
            .iter()
            .map(|rule| {
                let lmr = if rule.is_join_shaped() {
                    joins += 1;
                    (joins - 1) % self.lmrs
                } else {
                    others += 1;
                    (others - 1) % open_to_all.max(1)
                };
                (lmr, rule.clone())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_reasons_fit_the_benchmark_contract() {
        let all = specs();
        assert_eq!(
            all.iter().map(|s| s.name).collect::<Vec<_>>(),
            [
                "join-batch",
                "trigger-stream",
                "replicated-churn",
                "raft-fanout",
                "placement-r2"
            ]
        );
        for s in &all {
            assert!(s.why.len() <= 200 && !s.why.contains('\n'), "{}", s.name);
            assert!(
                s.preload % s.batch.unwrap_or(1) == 0,
                "pre-load must end on a batch"
            );
            assert!(s.shape.synth.end >= 2);
        }
    }

    #[test]
    fn trigger_stream_has_no_join_rule_and_join_batch_nothing_else() {
        let all = specs();
        let trig = &all[1].rules;
        assert_eq!(trig.path + trig.join, 0);
        let join = &all[0].rules;
        assert_eq!(join.total(), join.path + join.join);
    }

    #[test]
    fn the_join_only_lmr_gets_only_join_shaped_rules() {
        let spec = specs().remove(2);
        let mut rng = mdv_runtime::Prng::seed_from_u64(3);
        let rules = crate::gen::rule_base(&mut rng, &spec.rules, &spec.shape);
        let dealt = spec.assign(&rules);
        assert_eq!(dealt.len(), rules.len());
        let last = spec.lmrs - 1;
        assert!(dealt.iter().any(|(l, _)| *l == last));
        assert!(dealt
            .iter()
            .filter(|(l, _)| *l == last)
            .all(|(_, r)| r.is_join_shaped()));
    }
}
