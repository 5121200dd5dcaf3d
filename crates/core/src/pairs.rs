//! Mutual near-field leaf pairs: the plan and the stash that let an
//! engine evaluate each such pair once.
//!
//! When the targets are the sources and `N_B = N_L`, the batches are the
//! source-tree leaves, and two leaves `B ≠ C` that fail the MAC against
//! each other sit on both direct lists: `C` on `B`'s and `B` on `C`'s.
//! [`MutualPairs`] finds these entries. An engine evaluates such a pair
//! with one [`crate::kernel::Kernel::p2p_potential_pair`] call at the
//! first of the two entries it reaches, adds its own block sums in list
//! order and parks the partner's in a [`PairStash`] until the partner's
//! fold reaches its own entry. Every batch still adds one block sum per
//! list entry, approximations first and then the direct entries in list
//! order, so the outputs keep every bit (see [`crate::p2p`]).
//!
//! The stash holds the halves whose partner has not been folded yet.
//! Stepping batches in traversal order ([`MutualPairs::order`]) keeps it
//! at the pairs that cross the current cut, because near-field partners
//! are close in that order. Batch index order is not traversal order:
//! the tree builder numbers nodes off a LIFO stack.

use crate::traversal::InteractionLists;
use crate::tree::{batch::TargetBatches, SourceTree};

/// The mutual direct entries of one preparation's interaction lists.
///
/// Entries are numbered batch by batch, in list order: entry
/// [`Self::entry`]`(b, k)` is `lists.per_batch[b].direct[k]`.
#[derive(Debug, Clone, Default)]
pub struct MutualPairs {
    /// First entry id of each batch's direct list, plus the total.
    offsets: Vec<usize>,
    /// Per entry: the partner batch and the partner's entry, if mutual.
    partners: Vec<Option<(u32, u32)>>,
    /// Batch indices in traversal order.
    order: Vec<u32>,
    /// Number of mutual entries (twice the number of pairs).
    mutual: usize,
}

impl MutualPairs {
    /// Find the mutual direct leaf pairs of `lists`. The plan is empty
    /// (no entry has a partner) unless the batches are the tree's leaves
    /// ([`TargetBatches::for_tree`] with the targets as the sources and
    /// `N_B = N_L`). One binary search per direct leaf entry.
    pub fn build(batches: &TargetBatches, tree: &SourceTree, lists: &InteractionLists) -> Self {
        let mut offsets = Vec::with_capacity(lists.per_batch.len() + 1);
        offsets.push(0);
        for bl in &lists.per_batch {
            offsets.push(offsets[offsets.len() - 1] + bl.direct.len());
        }
        let mut partners = vec![None; offsets[offsets.len() - 1]];
        let mut order: Vec<u32> = (0..batches.len() as u32).collect();
        order.sort_unstable_by_key(|&b| batches.batches()[b as usize].start);
        let mut mutual = 0;

        if batches.are_leaves_of(tree) {
            let leaf_of = tree.leaf_indices();
            let mut batch_of = vec![None; tree.num_nodes()];
            for (b, &leaf) in leaf_of.iter().enumerate() {
                batch_of[leaf] = Some(b);
            }
            let starts: Vec<usize> = tree.nodes().iter().map(|n| n.start).collect();
            let start_of = |n: u32| starts[n as usize];
            for (b, bl) in lists.per_batch.iter().enumerate() {
                let own = leaf_of[b] as u32;
                for (k, &ci) in bl.direct.iter().enumerate() {
                    let Some(c) = batch_of[ci as usize].filter(|&c| c != b) else {
                        continue;
                    };
                    // Lists hold disjoint nodes in traversal order, so
                    // they ascend in first particle.
                    let theirs = &lists.per_batch[c].direct;
                    if let Ok(j) = theirs.binary_search_by_key(&start_of(own), |&n| start_of(n)) {
                        if theirs[j] == own {
                            partners[offsets[b] + k] = Some((c as u32, (offsets[c] + j) as u32));
                            mutual += 1;
                        }
                    }
                }
            }
        }
        Self {
            offsets,
            partners,
            order,
            mutual,
        }
    }

    /// Whether no direct entry has a partner.
    pub fn is_empty(&self) -> bool {
        self.mutual == 0
    }

    /// Number of mutual pairs (each one two list entries).
    pub fn num_pairs(&self) -> usize {
        self.mutual / 2
    }

    /// Total number of direct entries.
    pub fn num_entries(&self) -> usize {
        self.partners.len()
    }

    /// The id of batch `batch`'s `k`-th direct entry.
    #[inline]
    pub fn entry(&self, batch: usize, k: usize) -> usize {
        debug_assert!(k < self.offsets[batch + 1] - self.offsets[batch]);
        self.offsets[batch] + k
    }

    /// The partner of batch `batch`'s `k`-th direct entry, as (partner
    /// batch, partner's entry id), if the entry is mutual.
    #[inline]
    pub fn partner(&self, batch: usize, k: usize) -> Option<(usize, usize)> {
        self.partners[self.entry(batch, k)].map(|(c, e)| (c as usize, e as usize))
    }

    /// Batch indices in traversal order (ascending first target).
    pub fn order(&self) -> &[u32] {
        &self.order
    }
}

/// Partner halves of evaluated mutual pairs — output columns of block
/// sums, one slot per partner target — parked under the partner's entry
/// id until the partner's fold takes them.
#[derive(Debug)]
pub struct PairStash {
    halves: Vec<Option<Vec<Vec<f64>>>>,
    held_bytes: usize,
    peak_bytes: usize,
}

impl PairStash {
    /// An empty stash for the entries of `pairs`.
    pub fn new(pairs: &MutualPairs) -> Self {
        Self {
            halves: vec![None; pairs.num_entries()],
            held_bytes: 0,
            peak_bytes: 0,
        }
    }

    /// Park `half` for the entry `entry`; panics if one is already there.
    pub fn put(&mut self, entry: usize, half: Vec<Vec<f64>>) {
        assert!(self.halves[entry].is_none(), "entry {entry} parked twice");
        self.held_bytes += bytes(&half);
        self.peak_bytes = self.peak_bytes.max(self.held_bytes);
        self.halves[entry] = Some(half);
    }

    /// Take the half parked for `entry`, if any.
    pub fn take(&mut self, entry: usize) -> Option<Vec<Vec<f64>>> {
        let half = self.halves[entry].take()?;
        self.held_bytes -= bytes(&half);
        Some(half)
    }

    /// Whether no half is parked.
    pub fn is_empty(&self) -> bool {
        self.halves.iter().all(Option::is_none)
    }

    /// Largest number of bytes parked at once.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// End a walk. Panics if a half was never delivered — a partner
    /// entry the walk skipped would otherwise lose its block sums.
    /// Returns the peak parked bytes.
    pub fn finish(self) -> usize {
        assert!(self.is_empty(), "mutual-pair halves left undelivered");
        self.peak_bytes
    }
}

fn bytes(half: &[Vec<f64>]) -> usize {
    half.iter()
        .map(|c| c.len() * std::mem::size_of::<f64>())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BltcParams;
    use crate::particles::ParticleSet;

    fn plan(targets: &ParticleSet, sources: &ParticleSet, params: &BltcParams) -> MutualPairs {
        let tree = SourceTree::build(sources, params);
        let batches = TargetBatches::for_tree(targets, sources, &tree, params);
        let lists = InteractionLists::build(&batches, &tree, params);
        MutualPairs::build(&batches, &tree, &lists)
    }

    #[test]
    fn partners_are_symmetric_leaf_entries() {
        let ps = ParticleSet::random_cube(3000, 1401);
        let params = BltcParams::new(0.7, 3, 100, 100);
        let tree = SourceTree::build(&ps, &params);
        let batches = TargetBatches::for_tree(&ps, &ps, &tree, &params);
        let lists = InteractionLists::build(&batches, &tree, &params);
        let pairs = MutualPairs::build(&batches, &tree, &lists);
        assert!(pairs.num_pairs() > 0);
        let separate = TargetBatches::build(&ps, &params);
        assert!(MutualPairs::build(&separate, &tree, &lists).is_empty());
        let leaves = tree.leaf_indices();
        for (b, bl) in lists.per_batch.iter().enumerate() {
            for (k, &ci) in bl.direct.iter().enumerate() {
                let Some((c, mate)) = pairs.partner(b, k) else {
                    continue;
                };
                assert_ne!(b, c, "a self block is never mutual");
                assert_eq!(ci as usize, leaves[c], "partner is the entry's leaf");
                assert_eq!(
                    pairs.partner(c, mate - pairs.entry(c, 0)),
                    Some((b, pairs.entry(b, k)))
                );
                assert_eq!(
                    lists.per_batch[c].direct[mate - pairs.entry(c, 0)] as usize,
                    leaves[b]
                );
            }
        }
    }

    #[test]
    fn order_is_traversal_order() {
        let ps = ParticleSet::random_cube(3000, 1402);
        let params = BltcParams::new(0.7, 3, 100, 100);
        let batches = TargetBatches::build(&ps, &params);
        let pairs = plan(&ps, &ps, &params);
        let starts: Vec<usize> = pairs
            .order()
            .iter()
            .map(|&b| batches.batches()[b as usize].start)
            .collect();
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(starts.len(), batches.len());
        // Index order differs: the builder numbers nodes off a stack.
        assert!(pairs.order().windows(2).any(|w| w[0] > w[1]));
    }

    #[test]
    fn distinct_sets_or_caps_have_no_pairs() {
        let ps = ParticleSet::random_cube(3000, 1403);
        let other = ParticleSet::random_cube(3000, 1404);
        let params = BltcParams::new(0.7, 3, 100, 100);
        assert!(plan(&other, &ps, &params).is_empty());
        assert!(plan(&ps, &ps, &BltcParams::new(0.7, 3, 100, 30)).is_empty());
        assert!(!plan(&ps, &ps, &params).is_empty());
    }

    #[test]
    fn stash_tracks_held_and_peak_bytes() {
        let ps = ParticleSet::random_cube(3000, 1405);
        let pairs = plan(&ps, &ps, &BltcParams::new(0.7, 3, 100, 100));
        let mut stash = PairStash::new(&pairs);
        stash.put(0, vec![vec![0.0; 10]]);
        stash.put(1, vec![vec![0.0; 5]; 4]);
        assert_eq!(stash.peak_bytes(), (10 + 20) * 8);
        assert!(!stash.is_empty());
        assert_eq!(stash.take(0).expect("parked")[0].len(), 10);
        assert!(stash.take(0).is_none());
        stash.put(0, vec![vec![0.0; 3]]);
        assert_eq!(stash.peak_bytes(), (10 + 20) * 8, "peak, not current");
        assert!(stash.take(1).is_some() && stash.take(0).is_some());
        assert_eq!(stash.finish(), 30 * 8);
    }

    #[test]
    #[should_panic(expected = "undelivered")]
    fn unfinished_stash_panics() {
        let ps = ParticleSet::random_cube(3000, 1406);
        let pairs = plan(&ps, &ps, &BltcParams::new(0.7, 3, 100, 100));
        let mut stash = PairStash::new(&pairs);
        stash.put(2, vec![vec![0.0; 3]]);
        stash.finish();
    }
}
