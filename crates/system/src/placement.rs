//! The placement layer: mapping the document shard space onto MDPs
//! (DESIGN.md §11).
//!
//! The backbone's default replication is *full*: every document reaches
//! every MDP. That caps aggregate capacity at one node's capacity. The
//! placement table turns the backbone into partitioned-with-replicas: the
//! document URI space is hashed into a fixed shard space (FNV-1a), and
//! each shard is assigned to `R` MDPs by rendezvous
//! (highest-random-weight) hashing over the *live* MDP set. The first
//! assignee is the shard's **primary** — it takes the writes and publishes
//! the matches; the rest are replicas.
//!
//! The table is a pure function of `(mdp set, shard count, R, epoch)`:
//! every node that knows those four values computes byte-identical
//! assignments, so the table itself needs no coordination protocol — the
//! orchestrator bumps the epoch on `add_mdp`/`fail_mdp`/`heal_mdp` and
//! installs the recomputed table on every live node. Rendezvous hashing
//! keeps movement minimal: removing a node never reassigns a shard between
//! two surviving owners, and adding one only moves shards onto the new
//! node.

use std::collections::BTreeSet;

use crate::error::{Error, Result};
use crate::mdp::fnv1a64;
use crate::message::{escape, unescape};

/// Default size of the system-tier document shard space. Distinct from the
/// per-node *filter* shard count (DESIGN.md §8): this space is fixed for
/// the deployment's lifetime and only its *assignment* to nodes changes.
pub const DEFAULT_PLACEMENT_SHARDS: usize = 64;

/// The largest shard space a table may have. A table holds one assignment
/// per shard, so a count read off the wire or a disk is refused above this
/// bound instead of being allocated.
pub const MAX_PLACEMENT_SHARDS: usize = 1 << 16;

/// System-tier placement settings (see [`crate::system::MdvSystem`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacementConfig {
    /// Replicas per document shard. Clamped to the live MDP count when the
    /// table is computed, so `factor >= mdp count` behaves like full
    /// replication.
    pub factor: usize,
    /// Size of the document shard space.
    pub shards: usize,
}

impl PlacementConfig {
    pub fn new(factor: usize) -> Self {
        PlacementConfig {
            factor,
            shards: DEFAULT_PLACEMENT_SHARDS,
        }
    }
}

/// A deterministic assignment of every document shard to an ordered replica
/// set of MDPs (primary first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementTable {
    epoch: u64,
    factor: usize,
    shards: usize,
    /// The (sorted) live MDP set the table was computed over.
    mdps: Vec<String>,
    /// Per shard: indices into `mdps`, primary first.
    assignments: Vec<Vec<usize>>,
}

impl PlacementTable {
    /// Computes the table for a given live MDP set. Pure and deterministic:
    /// the same `(mdps, shards, factor, epoch)` always yields the same
    /// assignments, independent of the order `mdps` is supplied in.
    pub fn compute<S: AsRef<str>>(mdps: &[S], shards: usize, factor: usize, epoch: u64) -> Self {
        let mut names: Vec<String> = mdps.iter().map(|m| m.as_ref().to_owned()).collect();
        names.sort();
        names.dedup();
        let shards = shards.max(1);
        let take = factor.clamp(1, names.len().max(1));
        let mut assignments = Vec::with_capacity(shards);
        for shard in 0..shards {
            // rendezvous hashing: rank every node by a per-(shard, node)
            // weight; the top `factor` nodes own the shard, the very top is
            // its primary. The epoch is deliberately *not* mixed into the
            // weight — re-ranking on every bump would shuffle the whole
            // table instead of moving only the failed node's shards.
            let mut ranked: Vec<(u64, usize)> = names
                .iter()
                .enumerate()
                .map(|(i, name)| (fnv1a64(format!("{shard}/{name}").as_bytes()), i))
                .collect();
            ranked.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| names[a.1].cmp(&names[b.1])));
            assignments.push(ranked.into_iter().take(take).map(|(_, i)| i).collect());
        }
        PlacementTable {
            epoch,
            factor,
            shards,
            mdps: names,
            assignments,
        }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn factor(&self) -> usize {
        self.factor
    }

    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The (sorted) MDP set the table was computed over.
    pub fn mdps(&self) -> &[String] {
        &self.mdps
    }

    /// The shard a document URI hashes to.
    pub fn shard_of(&self, doc_uri: &str) -> usize {
        (fnv1a64(doc_uri.as_bytes()) % self.shards as u64) as usize
    }

    /// The ordered replica set of a shard (primary first).
    pub fn owners(&self, shard: usize) -> impl Iterator<Item = &str> {
        self.assignments[shard % self.shards]
            .iter()
            .map(|&i| self.mdps[i].as_str())
    }

    /// The primary of a shard.
    pub fn primary(&self, shard: usize) -> &str {
        &self.mdps[self.assignments[shard % self.shards][0]]
    }

    /// The primary of the shard a document URI hashes to.
    pub fn primary_for(&self, doc_uri: &str) -> &str {
        self.primary(self.shard_of(doc_uri))
    }

    pub fn owns(&self, mdp: &str, shard: usize) -> bool {
        self.owners(shard).any(|o| o == mdp)
    }

    /// Whether `mdp` is in the replica set of `doc_uri`'s shard.
    pub fn owns_doc(&self, mdp: &str, doc_uri: &str) -> bool {
        self.owns(mdp, self.shard_of(doc_uri))
    }

    /// Whether `mdp` is the publishing primary for `doc_uri`.
    pub fn is_primary(&self, mdp: &str, doc_uri: &str) -> bool {
        self.primary_for(doc_uri) == mdp
    }

    /// The replica set of `doc_uri`'s shard minus `mdp` itself — the fan-out
    /// targets of a write applied at `mdp`.
    pub fn replica_peers(&self, mdp: &str, doc_uri: &str) -> Vec<String> {
        self.owners(self.shard_of(doc_uri))
            .filter(|o| *o != mdp)
            .map(str::to_owned)
            .collect()
    }

    /// The shards `mdp` owns (as primary or replica).
    pub fn shards_of(&self, mdp: &str) -> BTreeSet<usize> {
        (0..self.shards).filter(|&s| self.owns(mdp, s)).collect()
    }

    /// Documents per node under this table, as a fraction of the corpus
    /// (the ≈ R/N storage share of partitioned-with-replicas).
    pub fn storage_share(&self) -> f64 {
        if self.mdps.is_empty() {
            return 1.0;
        }
        let copies: usize = self.assignments.iter().map(Vec::len).sum();
        copies as f64 / (self.shards as f64 * self.mdps.len() as f64)
    }

    /// Serializes the table's *inputs* (the assignments are recomputed on
    /// parse — they are a pure function of the inputs, and shipping only
    /// the inputs keeps the wire form small and canonical).
    pub fn to_wire(&self) -> String {
        let mut out = format!("{}\t{}\t{}", self.epoch, self.factor, self.shards);
        for m in &self.mdps {
            out.push('\t');
            out.push_str(&escape(m));
        }
        out
    }

    /// Parses [`to_wire`](Self::to_wire) output and recomputes the table.
    pub fn from_wire(wire: &str) -> Result<Self> {
        let bad = |what: &str| Error::Topology(format!("malformed placement table: {what}"));
        let mut fields = wire.split('\t');
        let epoch: u64 = fields
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad("epoch"))?;
        let factor: usize = fields
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad("factor"))?;
        let shards: usize = fields
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad("shards"))?;
        if shards == 0 {
            return Err(bad("zero shards"));
        }
        if shards > MAX_PLACEMENT_SHARDS {
            return Err(bad("shard count above MAX_PLACEMENT_SHARDS"));
        }
        let mdps: Vec<String> = fields.map(unescape).collect();
        if mdps.is_empty() {
            return Err(bad("empty mdp set"));
        }
        Ok(PlacementTable::compute(&mdps, shards, factor, epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (1..=n).map(|i| format!("m{i}")).collect()
    }

    #[test]
    fn table_is_deterministic_and_order_independent() {
        let a = PlacementTable::compute(&names(5), 64, 2, 7);
        let mut shuffled = names(5);
        shuffled.reverse();
        let b = PlacementTable::compute(&shuffled, 64, 2, 7);
        assert_eq!(a, b);
        for s in 0..64 {
            assert_eq!(a.owners(s).count(), 2);
            assert_eq!(a.primary(s), a.owners(s).next().unwrap());
        }
    }

    #[test]
    fn factor_clamps_to_the_node_count() {
        let t = PlacementTable::compute(&names(3), 16, 8, 0);
        for s in 0..16 {
            assert_eq!(t.owners(s).count(), 3, "R >= N behaves as full");
        }
        let t1 = PlacementTable::compute(&names(3), 16, 0, 0);
        for s in 0..16 {
            assert_eq!(t1.owners(s).count(), 1, "R floors at one copy");
        }
    }

    #[test]
    fn removing_a_node_moves_only_its_shards() {
        let full = PlacementTable::compute(&names(5), 128, 2, 0);
        let survivors: Vec<String> = names(5).into_iter().filter(|m| m != "m3").collect();
        let after = PlacementTable::compute(&survivors, 128, 2, 1);
        for s in 0..128 {
            let before: Vec<&str> = full.owners(s).collect();
            let now: Vec<&str> = after.owners(s).collect();
            // every surviving owner keeps the shard, in the same relative
            // order; only m3's slots are re-filled
            let kept: Vec<&&str> = before.iter().filter(|o| **o != "m3").collect();
            for (i, o) in kept.iter().enumerate() {
                assert_eq!(now[i], **o, "shard {s} shuffled surviving owners");
            }
            if !before.contains(&"m3") {
                assert_eq!(before, now, "shard {s} moved without losing an owner");
            }
        }
    }

    #[test]
    fn adding_a_node_only_moves_shards_onto_it() {
        let small = PlacementTable::compute(&names(4), 128, 2, 0);
        let grown = PlacementTable::compute(&names(5), 128, 2, 1);
        for s in 0..128 {
            let before: Vec<&str> = small.owners(s).collect();
            let now: Vec<&str> = grown.owners(s).collect();
            for o in &now {
                assert!(
                    *o == "m5" || before.contains(o),
                    "shard {s} moved between old nodes"
                );
            }
        }
    }

    #[test]
    fn shards_spread_over_all_nodes() {
        let t = PlacementTable::compute(&names(4), 64, 2, 0);
        for m in names(4) {
            let owned = t.shards_of(&m).len();
            assert!(
                owned >= 64 / 4 / 2,
                "{m} owns only {owned} of 64 shards — HRW badly skewed"
            );
        }
        let share = t.storage_share();
        assert!(
            (share - 0.5).abs() < 1e-9,
            "2 of 4 copies = 0.5, got {share}"
        );
    }

    #[test]
    fn wire_roundtrip() {
        let t = PlacementTable::compute(&["a b", "c\td", "m1"], 32, 2, 9);
        let back = PlacementTable::from_wire(&t.to_wire()).unwrap();
        assert_eq!(t, back);
        assert!(PlacementTable::from_wire("x").is_err());
        assert!(PlacementTable::from_wire("1\t2").is_err());
        assert!(PlacementTable::from_wire("1\t2\t0\tm1").is_err());
        assert!(PlacementTable::from_wire("1\t2\t8").is_err());
        let huge = format!("1\t2\t{}\tm1", u64::MAX);
        assert!(PlacementTable::from_wire(&huge).is_err());
    }
}
