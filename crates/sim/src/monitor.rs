//! Safety monitoring: detect conflicting finalized checkpoints.
//!
//! The monitor is an omniscient observer keeping the union block tree. A
//! **Safety violation** (paper Property 4) is two finalized checkpoints,
//! on any two views, such that neither chain is a prefix of the other.
//!
//! Views can be added while the system runs ([`SafetyMonitor::add_view`])
//! — the partition-timeline engine registers a view per branch a `Split`
//! creates — and a retired view's last finalized checkpoint keeps
//! participating in the pairwise check, so a branch that finalized
//! before being healed away still convicts a later incompatible
//! finalization (post-heal ancestry).
//!
//! Compatibility rules, in order:
//!
//! 1. equal roots never conflict;
//! 2. a genesis-epoch checkpoint is a prefix of every chain and never
//!    conflicts (the anchor needs no block evidence);
//! 3. otherwise the checkpoints must be ancestry-related in the observed
//!    block tree — two roots the tree cannot relate (including roots the
//!    monitor never saw a block for) are conflicting.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};

use ethpos_state::StateBackend;
use ethpos_types::{Checkpoint, Epoch, Root};

/// A root as a table key: hashed by its leading 8 bytes, compared on all
/// 32.
///
/// Block roots are hash output already (four SipHash lanes, see
/// `ethpos_crypto::hashing`), so their first word is as good a table
/// hash as a second pass over the 32 bytes would be — and these keys are
/// the simulator's own synthetic roots, never outside input, so the
/// collision hardening of the default hasher buys nothing here. A prefix
/// collision only lengthens a probe: equality is the full root, so two
/// roots sharing their first 8 bytes stay two blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RootKey(Root);

impl Hash for RootKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let prefix: [u8; 8] = self.0.as_bytes()[..8].try_into().expect("8 of 32 bytes");
        state.write_u64(u64::from_le_bytes(prefix));
    }
}

/// The hasher for [`RootKey`]: the prefix times one odd constant. The
/// multiply spreads the prefix into the top bits the table tags buckets
/// with, which also serves the small `Root::from_u64` labels of tests
/// and fixtures, whose entropy sits in the low bits alone.
#[derive(Debug, Clone, Copy, Default)]
struct PrefixHasher(u64);

impl Hasher for PrefixHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("RootKey hashes through write_u64 only");
    }

    fn write_u64(&mut self, prefix: u64) {
        self.0 = prefix.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A minimal append-only ancestry index: parent links plus depths, no
/// weights or best-child bookkeeping. The monitor only ever asks "is
/// this root on that root's chain?", and a full fork-choice proto-array
/// pays O(depth) *per insert* to maintain head links the monitor never
/// reads — on the partition engine's unpruned multi-thousand-epoch
/// chains that turned block observation quadratic. Here an insert is
/// one parent lookup and one table entry, each a single multiply to hash
/// (see [`RootKey`]), and an ancestry query walks exactly the depth
/// difference.
#[derive(Debug, Clone, Default)]
struct AncestryIndex {
    indices: HashMap<RootKey, u32, BuildHasherDefault<PrefixHasher>>,
    parents: Vec<u32>,
    depths: Vec<u32>,
}

impl AncestryIndex {
    /// Inserts a block; the anchor passes `parent: None`. Duplicates and
    /// blocks with unknown parents are ignored (the monitor is an
    /// observer, not a validator).
    fn insert(&mut self, root: Root, parent: Option<Root>) {
        let index = self.parents.len() as u32;
        let (parent_index, depth) = match parent {
            None => (index, 0),
            Some(p) => match self.indices.get(&RootKey(p)) {
                Some(&pi) => (pi, self.depths[pi as usize] + 1),
                None => return,
            },
        };
        if let Entry::Vacant(slot) = self.indices.entry(RootKey(root)) {
            slot.insert(index);
            self.parents.push(parent_index);
            self.depths.push(depth);
        }
    }

    /// True if `descendant` has `ancestor` on its root-ward path
    /// (inclusive). Unknown roots are related to nothing.
    fn is_descendant(&self, ancestor: &Root, descendant: &Root) -> bool {
        let (Some(&a), Some(&start)) = (
            self.indices.get(&RootKey(*ancestor)),
            self.indices.get(&RootKey(*descendant)),
        ) else {
            return false;
        };
        let target = self.depths[a as usize];
        let mut d = start;
        while self.depths[d as usize] > target {
            d = self.parents[d as usize];
        }
        d == a
    }
}

/// Records every block and each view's finalized checkpoint; reports the
/// first conflicting finalization.
///
/// `Clone` so a whole simulation can be checkpointed mid-run: the clone
/// carries the full ancestry tree and every view's finalized checkpoint,
/// and the two copies diverge independently afterwards.
#[derive(Debug, Clone)]
pub struct SafetyMonitor {
    tree: AncestryIndex,
    finalized: Vec<Checkpoint>,
    violation: Option<(usize, usize, Checkpoint, Checkpoint)>,
}

impl SafetyMonitor {
    /// Creates a monitor over `views` views anchored at `genesis_root`.
    pub fn new(genesis_root: Root, views: usize) -> Self {
        let mut tree = AncestryIndex::default();
        tree.insert(genesis_root, None);
        SafetyMonitor {
            tree,
            finalized: vec![Checkpoint::genesis(genesis_root); views],
            violation: None,
        }
    }

    /// Registers a new view starting from `checkpoint` (a forked branch
    /// inherits its parent's finalized checkpoint) and returns its view
    /// index.
    pub fn add_view(&mut self, checkpoint: Checkpoint) -> usize {
        self.finalized.push(checkpoint);
        self.finalized.len() - 1
    }

    /// Registers a block observed anywhere in the system by its parent
    /// link, all that ancestry needs.
    pub fn observe_block(&mut self, root: Root, parent: Root) {
        self.tree.insert(root, Some(parent));
    }

    /// Updates view `view`'s finalized checkpoint and re-checks Safety
    /// against every other view's best-known finalized checkpoint —
    /// including views whose branch has since been healed away.
    pub fn observe_finalized(&mut self, view: usize, checkpoint: Checkpoint) {
        if checkpoint.epoch <= self.finalized[view].epoch {
            // Nothing new: no fresh conflict can appear.
            return;
        }
        self.finalized[view] = checkpoint;
        if self.violation.is_some() {
            return;
        }
        // A genesis-epoch checkpoint is a prefix of everything.
        if checkpoint.epoch == Epoch::GENESIS {
            return;
        }
        for other in 0..self.finalized.len() {
            if other == view {
                continue;
            }
            let co = self.finalized[other];
            if co.epoch == Epoch::GENESIS || co.root == checkpoint.root {
                continue;
            }
            let compatible = self.tree.is_descendant(&co.root, &checkpoint.root)
                || self.tree.is_descendant(&checkpoint.root, &co.root);
            if !compatible {
                let (a, b) = (view.min(other), view.max(other));
                self.violation = Some((a, b, self.finalized[a], self.finalized[b]));
                return;
            }
        }
    }

    /// Reads view `view`'s finalized checkpoint straight off a state
    /// backend and re-checks Safety — works for any [`StateBackend`], so
    /// the monitor watches dense and cohort branches alike.
    pub fn observe_backend<B: StateBackend>(&mut self, view: usize, state: &B) {
        self.observe_finalized(view, state.finalized_checkpoint());
    }

    /// The first Safety violation observed: `(view_a, view_b, checkpoint_a,
    /// checkpoint_b)` with `view_a < view_b`.
    pub fn violation(&self) -> Option<(usize, usize, Checkpoint, Checkpoint)> {
        self.violation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ethpos_types::Epoch;

    fn r(v: u64) -> Root {
        Root::from_u64(v)
    }

    /// A root with the given leading word and a distinguishing tail byte.
    fn prefixed(prefix: u64, tail: u8) -> Root {
        let mut bytes = [tail; 32];
        bytes[..8].copy_from_slice(&prefix.to_le_bytes());
        Root::new(bytes)
    }

    #[test]
    fn duplicates_and_unknown_parents_are_ignored() {
        let mut tree = AncestryIndex::default();
        tree.insert(r(0), None);
        tree.insert(r(1), Some(r(0)));
        tree.insert(r(2), Some(r(1)));
        // A duplicate root keeps its first parent, even re-announced
        // under another known one…
        tree.insert(r(2), Some(r(0)));
        assert_eq!(tree.parents.len(), 3);
        assert!(tree.is_descendant(&r(1), &r(2)));
        // …and a block whose parent was never seen is not recorded, so
        // nothing can descend from it later.
        tree.insert(r(8), Some(r(7)));
        tree.insert(r(9), Some(r(8)));
        assert_eq!(tree.parents.len(), 3);
        assert!(!tree.is_descendant(&r(0), &r(8)));
        assert!(!tree.is_descendant(&r(0), &r(9)));
    }

    #[test]
    fn roots_sharing_their_first_eight_bytes_stay_distinct_blocks() {
        // The table hashes the prefix only; equality is the whole root.
        let (a, b) = (prefixed(7, 1), prefixed(7, 2));
        let mut m = SafetyMonitor::new(r(0), 2);
        m.observe_block(a, r(0));
        m.observe_block(b, r(0)); // a fork, not a duplicate
        m.observe_block(prefixed(9, 1), b);
        assert_eq!(m.tree.parents.len(), 4);
        assert!(m.tree.is_descendant(&b, &prefixed(9, 1)));
        assert!(!m.tree.is_descendant(&a, &prefixed(9, 1)));
        assert!(!m.tree.is_descendant(&a, &b));
        m.observe_finalized(0, Checkpoint::new(Epoch::new(1), a));
        m.observe_finalized(1, Checkpoint::new(Epoch::new(1), b));
        assert!(m.violation().is_some(), "same-prefix siblings conflict");
    }

    #[test]
    fn small_labels_relate_on_long_chains_and_clones_agree() {
        // Two 8 k-block chains forking at genesis, keyed by the small
        // `Root::from_u64` labels the fixtures use (entropy in the low
        // bits only): chain A is the odd labels, chain B the even ones.
        const BLOCKS: u64 = 8192;
        let mut tree = AncestryIndex::default();
        tree.insert(r(0), None);
        for i in 1..=BLOCKS {
            for label in [2 * i - 1, 2 * i] {
                let parent = if i == 1 { 0 } else { label - 2 };
                tree.insert(r(label), Some(r(parent)));
            }
        }
        assert_eq!(tree.parents.len() as u64, 2 * BLOCKS + 1);
        let clone = tree.clone();
        // Pseudo-random pairs plus the chain ends: related iff same
        // parity (or genesis) and in order — and the clone says the same.
        let mut x = 1u64;
        let mut pairs = vec![(0, 2 * BLOCKS), (1, 2 * BLOCKS - 1), (2, 2 * BLOCKS - 1)];
        for _ in 0..4096 {
            x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            pairs.push(((x >> 20) % (2 * BLOCKS + 1), (x >> 40) % (2 * BLOCKS + 1)));
        }
        for (a, d) in pairs {
            let related = a <= d && (a == 0 || a % 2 == d % 2);
            assert_eq!(tree.is_descendant(&r(a), &r(d)), related, "{a} → {d}");
            assert_eq!(
                clone.is_descendant(&r(a), &r(d)),
                related,
                "clone {a} → {d}"
            );
        }
        assert!(
            !clone.is_descendant(&r(1), &r(2 * BLOCKS + 5)),
            "unknown root"
        );
    }

    #[test]
    fn same_chain_finalizations_are_compatible() {
        let mut m = SafetyMonitor::new(r(0), 2);
        m.observe_block(r(1), r(0));
        m.observe_block(r(2), r(1));
        m.observe_finalized(0, Checkpoint::new(Epoch::new(1), r(1)));
        m.observe_finalized(1, Checkpoint::new(Epoch::new(2), r(2)));
        assert!(m.violation().is_none());
    }

    #[test]
    fn forked_finalizations_violate_safety() {
        let mut m = SafetyMonitor::new(r(0), 2);
        m.observe_block(r(1), r(0));
        m.observe_block(r(2), r(0)); // fork
        m.observe_finalized(0, Checkpoint::new(Epoch::new(1), r(1)));
        assert!(m.violation().is_none());
        m.observe_finalized(1, Checkpoint::new(Epoch::new(1), r(2)));
        assert!(m.violation().is_some());
        let (a, b, ca, cb) = m.violation().unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(ca.root, r(1));
        assert_eq!(cb.root, r(2));
    }

    #[test]
    fn violation_between_later_views_of_a_three_way_split_is_found() {
        // Regression for the two-branch era: a conflict between views 1
        // and 2 must be detected even while view 0 sits at genesis.
        let mut m = SafetyMonitor::new(r(0), 3);
        m.observe_block(r(1), r(0));
        m.observe_block(r(2), r(0)); // fork
        m.observe_finalized(1, Checkpoint::new(Epoch::new(1), r(1)));
        assert!(
            m.violation().is_none(),
            "one finalization is not a conflict"
        );
        m.observe_finalized(2, Checkpoint::new(Epoch::new(1), r(2)));
        assert!(m.violation().is_some());
        let (a, b, _, _) = m.violation().unwrap();
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn a_lone_finalization_never_conflicts_with_genesis() {
        // Regression: a finalized checkpoint whose root the monitor has
        // no block for must not conflict with another view still at the
        // genesis checkpoint — genesis is a prefix of every chain.
        let mut m = SafetyMonitor::new(r(0), 2);
        m.observe_finalized(0, Checkpoint::new(Epoch::new(3), r(77)));
        assert!(m.violation().is_none());
        // ...but a second unknown-root finalization does conflict.
        m.observe_finalized(1, Checkpoint::new(Epoch::new(3), r(88)));
        assert!(m.violation().is_some());
    }

    #[test]
    fn retired_views_keep_convicting_after_a_heal() {
        // View 1 finalizes on its own chain, then its branch heals away
        // (no further observations). A later incompatible finalization
        // on view 0 must still be a violation.
        let mut m = SafetyMonitor::new(r(0), 2);
        m.observe_block(r(1), r(0));
        m.observe_block(r(2), r(0));
        m.observe_block(r(3), r(1));
        m.observe_finalized(1, Checkpoint::new(Epoch::new(1), r(2)));
        assert!(m.violation().is_none());
        m.observe_finalized(0, Checkpoint::new(Epoch::new(2), r(3)));
        assert!(m.violation().is_some());
        let (a, b, _, _) = m.violation().unwrap();
        assert_eq!((a, b), (0, 1));
    }

    #[test]
    fn added_views_inherit_their_fork_checkpoint() {
        let mut m = SafetyMonitor::new(r(0), 1);
        m.observe_block(r(1), r(0));
        m.observe_finalized(0, Checkpoint::new(Epoch::new(1), r(1)));
        let v = m.add_view(Checkpoint::new(Epoch::new(1), r(1)));
        assert_eq!(v, 1);
        // the new view finalizing further down the same chain is fine
        m.observe_block(r(2), r(1));
        m.observe_finalized(1, Checkpoint::new(Epoch::new(2), r(2)));
        assert!(m.violation().is_none());
        // a fork from the shared prefix is not
        m.observe_block(r(9), r(1));
        m.observe_finalized(0, Checkpoint::new(Epoch::new(2), r(9)));
        assert!(m.violation().is_some());
    }

    #[test]
    fn violation_is_sticky() {
        let mut m = SafetyMonitor::new(r(0), 2);
        m.observe_block(r(1), r(0));
        m.observe_block(r(2), r(0));
        m.observe_finalized(0, Checkpoint::new(Epoch::new(1), r(1)));
        m.observe_finalized(1, Checkpoint::new(Epoch::new(1), r(2)));
        let first = m.violation();
        // further (compatible) updates do not clear it
        m.observe_block(r(3), r(1));
        m.observe_finalized(0, Checkpoint::new(Epoch::new(2), r(3)));
        assert_eq!(m.violation(), first);
    }

    #[test]
    fn genesis_checkpoints_never_conflict() {
        let mut m = SafetyMonitor::new(r(0), 3);
        m.observe_finalized(0, Checkpoint::genesis(r(0)));
        m.observe_finalized(2, Checkpoint::genesis(r(0)));
        assert!(m.violation().is_none());
    }
}
