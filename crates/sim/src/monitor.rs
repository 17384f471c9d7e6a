//! Safety monitoring: detect conflicting finalized checkpoints.
//!
//! The monitor is an omniscient observer of the union block tree. A
//! **Safety violation** (paper Property 4) is two finalized checkpoints,
//! on any two views, such that neither chain is a prefix of the other.
//!
//! The tree is structural, because the epoch-level engines build no
//! blocks: view `v`'s block at epoch `e` is `(v, e)`, whose root is
//! [`synthetic_branch_root`]`(v, e)`. A view knows the view it forked
//! from and its fork epoch. It owns its blocks after the fork, and up to
//! the fork its chain is its parent's. So the block at epoch `e` on a
//! view's chain belongs to the first view on the walk up that lineage
//! that forked before `e`; at epoch 0 it is the genesis block.
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
//! 3. otherwise the earlier checkpoint's block must be on the later
//!    one's chain: both lineages put the same block at the earlier epoch;
//! 4. and both roots must be the roots of those blocks. A root that is
//!    not names a block the monitor never saw: an unknown root, related
//!    to nothing, so it conflicts. A root is hashed to check it at most
//!    once per finalized checkpoint, and only when rules 1–3 leave the
//!    verdict to it.

use ethpos_state::{synthetic_branch_root, StateBackend};
use ethpos_types::{Checkpoint, Epoch, Root};

/// One view: where it forked, and its finalized checkpoint.
#[derive(Debug, Clone, Copy)]
struct View {
    /// The view this one forked from; `None` for the views the monitor
    /// starts with, which fork from genesis.
    parent: Option<usize>,
    /// The fork epoch: the view owns its blocks from the next epoch on.
    fork_epoch: Epoch,
    /// The view's finalized checkpoint.
    finalized: Checkpoint,
    /// Whether `finalized` names the block the view's lineage puts at
    /// its epoch (rule 4), once a comparison has needed to know.
    known: Option<bool>,
}

/// Records each view's lineage and finalized checkpoint; reports the
/// first conflicting finalization.
///
/// `Clone` so a whole simulation can be checkpointed mid-run: the clone
/// carries every view's lineage and finalized checkpoint, and the two
/// copies diverge independently afterwards.
#[derive(Debug, Clone)]
pub struct SafetyMonitor {
    views: Vec<View>,
    violation: Option<(usize, usize, Checkpoint, Checkpoint)>,
}

impl SafetyMonitor {
    /// Creates a monitor over `views` views, each forked from the
    /// genesis block `genesis_root` and owning its blocks from epoch 1.
    pub fn new(genesis_root: Root, views: usize) -> Self {
        let view = View {
            parent: None,
            fork_epoch: Epoch::GENESIS,
            finalized: Checkpoint::genesis(genesis_root),
            known: None,
        };
        SafetyMonitor {
            views: vec![view; views],
            violation: None,
        }
    }

    /// Registers a view forked from view `parent` at `fork_epoch`: its
    /// chain is `parent`'s up to that epoch and its own after it. It
    /// starts from `checkpoint` (a forked branch inherits its parent's
    /// finalized checkpoint). Returns the new view's index, which is
    /// also the branch id its blocks are named by.
    pub fn add_view(&mut self, parent: usize, fork_epoch: u64, checkpoint: Checkpoint) -> usize {
        self.views.push(View {
            parent: Some(parent),
            fork_epoch: Epoch::new(fork_epoch),
            finalized: checkpoint,
            known: None,
        });
        self.views.len() - 1
    }

    /// The view owning the block at `epoch` on `view`'s chain, or `None`
    /// for the genesis block.
    fn owner(&self, mut view: usize, epoch: Epoch) -> Option<usize> {
        loop {
            let v = &self.views[view];
            if epoch > v.fork_epoch {
                return Some(view);
            }
            view = v.parent?;
        }
    }

    /// Whether view `view`'s finalized root is the root of the block
    /// its lineage puts at that epoch: one hash, the first time it is
    /// asked for this checkpoint.
    fn known(&mut self, view: usize) -> bool {
        if let Some(known) = self.views[view].known {
            return known;
        }
        let Checkpoint { epoch, root } = self.views[view].finalized;
        let known = self
            .owner(view, epoch)
            .is_none_or(|owner| root == synthetic_branch_root(owner as u64, epoch.as_u64()));
        self.views[view].known = Some(known);
        known
    }

    /// Whether the finalized checkpoints of views `a` and `b` lie on one
    /// chain (the module's rules 1–4).
    fn compatible(&mut self, a: usize, b: usize) -> bool {
        let (ca, cb) = (self.views[a].finalized, self.views[b].finalized);
        if ca.root == cb.root || ca.epoch == Epoch::GENESIS || cb.epoch == Epoch::GENESIS {
            return true;
        }
        let earlier = ca.epoch.min(cb.epoch);
        self.owner(a, earlier) == self.owner(b, earlier) && self.known(a) && self.known(b)
    }

    /// Updates view `view`'s finalized checkpoint and re-checks Safety
    /// against every other view's best-known finalized checkpoint —
    /// including views whose branch has since been healed away.
    pub fn observe_finalized(&mut self, view: usize, checkpoint: Checkpoint) {
        if checkpoint.epoch <= self.views[view].finalized.epoch {
            // Nothing new: no fresh conflict can appear.
            return;
        }
        self.views[view].finalized = checkpoint;
        self.views[view].known = None;
        if self.violation.is_some() {
            return;
        }
        if let Some(other) = (0..self.views.len()).find(|&o| o != view && !self.compatible(view, o))
        {
            let (a, b) = (view.min(other), view.max(other));
            self.violation = Some((a, b, self.views[a].finalized, self.views[b].finalized));
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
pub(crate) mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The hash-tree ancestry index the monitor kept before blocks were
    /// structural: parent links and depths keyed by block root. Inserts
    /// of duplicates and of blocks with unknown parents are ignored.
    #[derive(Debug, Clone, Default)]
    struct HashTree {
        indices: HashMap<Root, usize>,
        parents: Vec<usize>,
        depths: Vec<u32>,
    }

    impl HashTree {
        fn insert(&mut self, root: Root, parent: Option<Root>) {
            let index = self.parents.len();
            let (parent_index, depth) = match parent {
                None => (index, 0),
                Some(p) => match self.indices.get(&p) {
                    Some(&pi) => (pi, self.depths[pi] + 1),
                    None => return,
                },
            };
            if let std::collections::hash_map::Entry::Vacant(slot) = self.indices.entry(root) {
                slot.insert(index);
                self.parents.push(parent_index);
                self.depths.push(depth);
            }
        }

        /// True if `descendant` has `ancestor` on its root-ward path
        /// (inclusive). Unknown roots are related to nothing.
        fn is_descendant(&self, ancestor: &Root, descendant: &Root) -> bool {
            let (Some(&a), Some(&start)) =
                (self.indices.get(ancestor), self.indices.get(descendant))
            else {
                return false;
            };
            let mut d = start;
            while self.depths[d] > self.depths[a] {
                d = self.parents[d];
            }
            d == a
        }
    }

    /// The safety monitor as it was before lineages: every block goes
    /// into a [`HashTree`] by its parent link, and two finalized
    /// checkpoints are compatible when the tree relates their roots.
    /// The oracle the lineage monitor is held against.
    #[derive(Debug, Clone)]
    pub(crate) struct HashTreeMonitor {
        tree: HashTree,
        finalized: Vec<Checkpoint>,
        violation: Option<(usize, usize, Checkpoint, Checkpoint)>,
    }

    impl HashTreeMonitor {
        pub(crate) fn new(genesis_root: Root, views: usize) -> Self {
            let mut tree = HashTree::default();
            tree.insert(genesis_root, None);
            HashTreeMonitor {
                tree,
                finalized: vec![Checkpoint::genesis(genesis_root); views],
                violation: None,
            }
        }

        pub(crate) fn add_view(&mut self, checkpoint: Checkpoint) -> usize {
            self.finalized.push(checkpoint);
            self.finalized.len() - 1
        }

        pub(crate) fn observe_block(&mut self, root: Root, parent: Root) {
            self.tree.insert(root, Some(parent));
        }

        /// Whether the block `root` is on the chain ending at `tip`.
        pub(crate) fn is_on_chain(&self, root: &Root, tip: &Root) -> bool {
            self.tree.is_descendant(root, tip)
        }

        pub(crate) fn observe_finalized(&mut self, view: usize, checkpoint: Checkpoint) {
            if checkpoint.epoch <= self.finalized[view].epoch {
                return;
            }
            self.finalized[view] = checkpoint;
            if self.violation.is_some() || checkpoint.epoch == Epoch::GENESIS {
                return;
            }
            for other in 0..self.finalized.len() {
                let co = self.finalized[other];
                if other == view || co.epoch == Epoch::GENESIS || co.root == checkpoint.root {
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

        pub(crate) fn violation(&self) -> Option<(usize, usize, Checkpoint, Checkpoint)> {
            self.violation
        }
    }

    fn r(v: u64) -> Root {
        Root::from_u64(v)
    }

    /// The genesis root the tests anchor at.
    const GENESIS: u64 = 0;

    /// View `view`'s own block at `epoch`, as a finalized checkpoint.
    fn block(view: usize, epoch: u64) -> Checkpoint {
        Checkpoint::new(Epoch::new(epoch), synthetic_branch_root(view as u64, epoch))
    }

    #[test]
    fn duplicates_and_unknown_parents_are_ignored() {
        let mut tree = HashTree::default();
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
    fn small_labels_relate_on_long_chains_and_clones_agree() {
        // Two 8 k-block chains forking at genesis, keyed by the small
        // `Root::from_u64` labels the fixtures use (entropy in the low
        // bits only): chain A is the odd labels, chain B the even ones.
        const BLOCKS: u64 = 8192;
        let mut tree = HashTree::default();
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

    /// Random view trees — forks at random epochs, several from one
    /// parent, chains of forks within one epoch — with every block fed
    /// to the hash tree by its parent link: the lineage relates two
    /// views' blocks exactly when the tree does, and a clone agrees.
    #[test]
    fn lineages_relate_blocks_as_the_hash_tree_does() {
        const EPOCHS: u64 = 48;
        let mut x = 7u64;
        let mut next = |bound: u64| {
            x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
            (x >> 33) % bound
        };
        for _ in 0..64 {
            let mut monitor = SafetyMonitor::new(r(GENESIS), 1);
            let mut tree = HashTree::default();
            tree.insert(r(GENESIS), None);
            // The tip of every view, grown one epoch at a time.
            let mut tips = vec![r(GENESIS)];
            for epoch in 0..EPOCHS {
                for _ in 0..next(3) {
                    let parent = next(tips.len() as u64) as usize;
                    let view = monitor.add_view(parent, epoch, Checkpoint::genesis(r(GENESIS)));
                    assert_eq!(view, tips.len());
                    tips.push(tips[parent]);
                }
                for (view, tip) in tips.iter_mut().enumerate() {
                    let root = synthetic_branch_root(view as u64, epoch + 1);
                    tree.insert(root, Some(*tip));
                    *tip = root;
                }
            }
            let monitor = monitor.clone();
            let views = tips.len();
            for _ in 0..256 {
                let (a, b) = (next(views as u64) as usize, next(views as u64) as usize);
                let (ea, eb) = (Epoch::new(next(EPOCHS + 1)), Epoch::new(next(EPOCHS + 1)));
                let earlier = ea.min(eb);
                let lineage = monitor.owner(a, earlier) == monitor.owner(b, earlier);
                let root = |view: usize, epoch: Epoch| match monitor.owner(view, epoch) {
                    Some(owner) => synthetic_branch_root(owner as u64, epoch.as_u64()),
                    None => r(GENESIS),
                };
                let (ra, rb) = (root(a, ea), root(b, eb));
                let related = tree.is_descendant(&ra, &rb) || tree.is_descendant(&rb, &ra);
                assert_eq!(lineage, related, "views {a}@{ea:?}, {b}@{eb:?}");
            }
        }
    }

    #[test]
    fn same_chain_finalizations_are_compatible() {
        // View 1 forks from view 0 at epoch 2, so view 0's epoch-1 and
        // epoch-2 blocks are on view 1's chain.
        let mut m = SafetyMonitor::new(r(GENESIS), 1);
        m.add_view(0, 2, Checkpoint::genesis(r(GENESIS)));
        m.observe_finalized(0, block(0, 2));
        m.observe_finalized(1, block(1, 3));
        m.observe_finalized(1, block(1, 4));
        assert!(m.violation().is_none());
    }

    #[test]
    fn forked_finalizations_violate_safety() {
        let mut m = SafetyMonitor::new(r(GENESIS), 2);
        m.observe_finalized(0, block(0, 1));
        assert!(m.violation().is_none());
        m.observe_finalized(1, block(1, 1));
        let (a, b, ca, cb) = m.violation().expect("sibling blocks conflict");
        assert_eq!((a, b), (0, 1));
        assert_eq!((ca, cb), (block(0, 1), block(1, 1)));
    }

    #[test]
    fn the_fork_epoch_block_is_the_parents() {
        // View 1 forks from view 0 at epoch 5: the block at epoch 5 on
        // its chain is view 0's, the one at epoch 6 its own.
        let mut m = SafetyMonitor::new(r(GENESIS), 1);
        m.add_view(0, 5, Checkpoint::genesis(r(GENESIS)));
        m.observe_finalized(1, block(0, 5));
        m.observe_finalized(0, block(0, 6));
        assert!(m.violation().is_none(), "view 0's epoch-5 block is shared");
        m.observe_finalized(1, block(1, 6));
        assert!(m.violation().is_some(), "the epoch-6 blocks are siblings");
    }

    #[test]
    fn violation_between_later_views_of_a_three_way_split_is_found() {
        // Regression for the two-branch era: a conflict between views 1
        // and 2 must be detected even while view 0 sits at genesis.
        let mut m = SafetyMonitor::new(r(GENESIS), 1);
        m.add_view(0, 0, Checkpoint::genesis(r(GENESIS)));
        m.add_view(0, 0, Checkpoint::genesis(r(GENESIS)));
        m.observe_finalized(1, block(1, 1));
        assert!(
            m.violation().is_none(),
            "one finalization is not a conflict"
        );
        m.observe_finalized(2, block(2, 1));
        let (a, b, _, _) = m.violation().expect("views 1 and 2 conflict");
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn a_lone_finalization_never_conflicts_with_genesis() {
        // Regression: a finalized checkpoint whose root the monitor has
        // no block for must not conflict with another view still at the
        // genesis checkpoint — genesis is a prefix of every chain.
        let mut m = SafetyMonitor::new(r(GENESIS), 2);
        m.observe_finalized(0, Checkpoint::new(Epoch::new(3), r(77)));
        assert!(m.violation().is_none());
        // ...but a second unknown-root finalization does conflict.
        m.observe_finalized(1, Checkpoint::new(Epoch::new(3), r(88)));
        assert!(m.violation().is_some());
    }

    #[test]
    fn a_root_off_its_lineage_is_unknown_and_conflicts() {
        // View 1 forks from view 0 at epoch 5. At epoch 3 both lineages
        // put view 0's block, so view 0's checkpoint there and view 1's
        // would agree — but view 1 names another root at that epoch: no
        // block the monitor knows, so it conflicts.
        let mut m = SafetyMonitor::new(r(GENESIS), 1);
        m.add_view(0, 5, Checkpoint::genesis(r(GENESIS)));
        m.observe_finalized(0, block(0, 3));
        m.observe_finalized(1, block(1, 3));
        assert!(m.violation().is_some(), "view 1 owns no epoch-3 block");
        // The same holds for an inherited checkpoint checked at the fork.
        let mut m = SafetyMonitor::new(r(GENESIS), 1);
        m.observe_finalized(0, block(0, 4));
        m.add_view(0, 5, Checkpoint::new(Epoch::new(3), r(33)));
        assert!(m.violation().is_none(), "a new view is not checked yet");
        m.observe_finalized(0, block(0, 6));
        assert!(m.violation().is_some(), "the inherited root is unknown");
    }

    #[test]
    fn retired_views_keep_convicting_after_a_heal() {
        // View 1 finalizes on its own chain, then its branch heals away
        // (no further observations). A later incompatible finalization
        // on view 0 must still be a violation.
        let mut m = SafetyMonitor::new(r(GENESIS), 2);
        m.observe_finalized(1, block(1, 1));
        assert!(m.violation().is_none());
        m.observe_finalized(0, block(0, 2));
        let (a, b, _, _) = m.violation().expect("the healed view convicts");
        assert_eq!((a, b), (0, 1));
    }

    #[test]
    fn added_views_inherit_their_fork_checkpoint() {
        let mut m = SafetyMonitor::new(r(GENESIS), 1);
        m.observe_finalized(0, block(0, 1));
        let v = m.add_view(0, 1, block(0, 1));
        assert_eq!(v, 1);
        // the new view finalizing further down its own chain is fine
        m.observe_finalized(1, block(1, 2));
        assert!(m.violation().is_none());
        // a sibling from the shared prefix is not
        m.observe_finalized(0, block(0, 2));
        assert!(m.violation().is_some());
    }

    #[test]
    fn violation_is_sticky() {
        let mut m = SafetyMonitor::new(r(GENESIS), 2);
        m.observe_finalized(0, block(0, 1));
        m.observe_finalized(1, block(1, 1));
        let first = m.violation();
        assert!(first.is_some());
        // further (compatible) updates do not clear it
        m.observe_finalized(0, block(0, 2));
        assert_eq!(m.violation(), first);
    }

    #[test]
    fn genesis_checkpoints_never_conflict() {
        let mut m = SafetyMonitor::new(r(GENESIS), 3);
        m.observe_finalized(0, Checkpoint::genesis(r(GENESIS)));
        m.observe_finalized(2, Checkpoint::genesis(r(GENESIS)));
        assert!(m.violation().is_none());
    }
}
