//! The placement layer: mapping the document shard space onto MDPs
//! (DESIGN.md §11).
//!
//! The document URI space is hashed into a fixed shard space (FNV-1a), and
//! each shard is assigned to `R` MDPs by rendezvous (highest-random-weight)
//! hashing over the *live* MDP set. The first assignee is the shard's
//! **primary**; the rest are replicas. Every MDP holds a table from its
//! first `add_mdp`, and the default factor is R = all: every live MDP owns
//! every shard, which is full replication, the backbone of the paper.
//!
//! The table is a pure function of `(mdp set, shard count, R, epoch)`:
//! every node that knows those four values computes byte-identical
//! assignments, so the table itself needs no coordination protocol — the
//! orchestrator bumps the epoch on `add_mdp`/`fail_mdp`/`heal_mdp` and
//! installs the recomputed table on every live node. Rendezvous hashing
//! keeps movement minimal: removing a node never reassigns a shard between
//! two surviving owners, and adding one only moves shards onto the new
//! node.
//!
//! One function, [`PlacementTable::publishes`], decides who publishes what
//! to whom: an LMR's home MDP publishes the documents it owns, and a
//! document's primary publishes it to every LMR whose home does not own it.
//! At R = all the home owns everything, so the home publishes everything and
//! no rule needs to be registered anywhere else.

use crate::error::{Error, Result};
use crate::mdp::{doc_uri_of, fnv1a64};
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
    /// Replicas per document shard: [`PlacementConfig::ALL`] (the default)
    /// or a number. Clamped to the live MDP count when the table is
    /// computed.
    pub factor: usize,
    /// Size of the document shard space.
    pub shards: usize,
}

impl PlacementConfig {
    /// The factor R = all: every live MDP owns every shard.
    pub const ALL: usize = usize::MAX;

    pub fn new(factor: usize) -> Self {
        PlacementConfig {
            factor,
            shards: DEFAULT_PLACEMENT_SHARDS,
        }
    }
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig::new(PlacementConfig::ALL)
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

    /// The table members other than `mdp`, in name order.
    pub fn others<'a>(&'a self, mdp: &'a str) -> impl Iterator<Item = &'a str> {
        self.mdps
            .iter()
            .map(String::as_str)
            .filter(move |m| *m != mdp)
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

    /// The replica set of `doc_uri`'s shard minus `mdp` itself, in name
    /// order — the fan-out targets of a write applied at `mdp`.
    pub fn replica_peers(&self, mdp: &str, doc_uri: &str) -> Vec<String> {
        let shard = self.shard_of(doc_uri);
        let owners = self.others(mdp).filter(|m| self.owns(m, shard));
        owners.map(str::to_owned).collect()
    }

    /// The publication rule (DESIGN.md §11): keeps the resource URIs of
    /// `uris` whose document `mdp` ships to an LMR whose home MDP is
    /// `home`. The home ships the documents it owns; a document's primary
    /// ships it when the home does not own it (a home outside the table,
    /// one that is down, owns nothing). At R = all this is "the home ships
    /// everything".
    pub fn publishes(&self, mdp: &str, home: &str, uris: &mut Vec<String>) {
        uris.retain(|u| self.publishes_shard(mdp, home, self.shard_of(doc_uri_of(u))));
    }

    fn publishes_shard(&self, mdp: &str, home: &str, shard: usize) -> bool {
        if mdp == home {
            self.owns(mdp, shard)
        } else {
            self.primary(shard) == mdp && !self.owns(home, shard)
        }
    }

    /// The MDPs other than `home` that [`PlacementTable::publishes`] makes
    /// publishers for some shard: where the rules of `home`'s LMRs must be
    /// registered too. Empty at R = all while `home` is in the table.
    pub fn mirrors_for(&self, home: &str) -> Vec<String> {
        self.others(home)
            .filter(|m| (0..self.shards).any(|s| self.publishes_shard(m, home, s)))
            .map(str::to_owned)
            .collect()
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
        let factor = match self.factor {
            PlacementConfig::ALL => "all".to_owned(),
            n => n.to_string(),
        };
        let mut out = format!("{}\t{factor}\t{}", self.epoch, self.shards);
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
        let factor: usize = match fields.next() {
            Some("all") => PlacementConfig::ALL,
            f => f
                .and_then(|f| f.parse().ok())
                .ok_or_else(|| bad("factor"))?,
        };
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
    use std::collections::BTreeSet;

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
            let owned = (0..64).filter(|&s| t.owns(&m, s)).count();
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

    /// The MDPs of `t` that ship `doc`'s put to an LMR homed at `home`.
    fn publishers(t: &PlacementTable, home: &str, doc: &str) -> Vec<String> {
        let uri = format!("{doc}#x");
        let ships = |m: &str| {
            let mut uris = vec![uri.clone()];
            t.publishes(m, home, &mut uris);
            !uris.is_empty()
        };
        t.mdps().iter().filter(|m| ships(m)).cloned().collect()
    }

    #[test]
    fn exactly_one_mdp_publishes_each_document_to_an_lmr() {
        let docs: Vec<String> = (0..200).map(|i| format!("doc{i}.rdf")).collect();
        // R = all: the home publishes everything and nothing is mirrored
        let full = PlacementTable::compute(&names(4), 64, PlacementConfig::ALL, 1);
        assert!(full.mirrors_for("m2").is_empty());
        for doc in &docs {
            assert_eq!(publishers(&full, "m2", doc), ["m2"], "{doc}");
        }
        // a numbered R: the home's own documents, the primary the rest, and
        // a home outside the table (down) owns nothing
        let placed = PlacementTable::compute(&names(4), 64, 2, 1);
        for home in ["m1", "m9"] {
            let mut seen = BTreeSet::new();
            for doc in &docs {
                let shard = placed.shard_of(doc);
                let want = match placed.owns(home, shard) {
                    true => home,
                    false => placed.primary(shard),
                };
                assert_eq!(publishers(&placed, home, doc), [want], "{doc}");
                seen.insert(want.to_owned());
            }
            seen.remove(home);
            let mirrors: BTreeSet<String> = placed.mirrors_for(home).into_iter().collect();
            assert_eq!(mirrors, seen, "mirrors of {home}");
        }
    }

    #[test]
    fn wire_roundtrip() {
        let t = PlacementTable::compute(&["a b", "c\td", "m1"], 32, 2, 9);
        let back = PlacementTable::from_wire(&t.to_wire()).unwrap();
        assert_eq!(t, back);
        let all = PlacementTable::compute(&["m1", "m2"], 32, PlacementConfig::ALL, 3);
        assert_eq!(all.to_wire(), "3\tall\t32\tm1\tm2");
        assert_eq!(PlacementTable::from_wire(&all.to_wire()).unwrap(), all);
        assert!(PlacementTable::from_wire("x").is_err());
        assert!(PlacementTable::from_wire("1\t2").is_err());
        assert!(PlacementTable::from_wire("1\t2\t0\tm1").is_err());
        assert!(PlacementTable::from_wire("1\t2\t8").is_err());
        let huge = format!("1\t2\t{}\tm1", u64::MAX);
        assert!(PlacementTable::from_wire(&huge).is_err());
    }
}
