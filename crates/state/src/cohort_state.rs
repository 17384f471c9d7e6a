//! The cohort-compressed state backend, on a persistent copy-on-write
//! representation.
//!
//! Within a branch, every validator of a behaviour class receives the
//! same participation flags each epoch, and the spec's epoch processing
//! is a per-validator function of `(own state, global aggregates)` — so
//! all members of a class follow **bit-identical integer trajectories**.
//! [`CohortState`] exploits this: instead of one record per validator it
//! stores, per class, a sorted run-length-encoded chunk of
//! `(per-validator state, count)` cohorts and processes an epoch in
//! O(#cohorts) with the *same* integer arithmetic as
//! [`BeaconState`](crate::BeaconState). The compression is exact, not an
//! approximation: driven through the same schedule, the two backends
//! produce equal [`StateSnapshot`]s after every epoch (property-tested in
//! `tests/backend_equivalence.rs`, where the dense backend is also the
//! byte oracle for count-level churn marking).
//!
//! Cohorts **split** when a subgroup diverges — the only divergence
//! source is participation sampling ([`StateBackend::mark_class_counted`]
//! marks a drawn count of a cohort's members, leaving the rest
//! untouched) — and **merge** automatically whenever two groups arrive at
//! the same state, because each chunk is kept sorted and run-length-merged.
//! Deterministic schedules (the paper's §5.1/§5.2 scenarios, Fig. 2
//! cohorts) therefore keep `#cohorts == #classes` forever, making
//! million-validator × 5000-epoch runs interactive.
//!
//! # What one epoch costs
//!
//! A compact state (every class one inline cohort, the slashings ring
//! empty: every churn-free run) crosses a quiet interval on the fast path
//! of [`StateBackend::advance_steady`]: the interval's constants are
//! built once, and an epoch is a sum over the classes, the justification
//! rules and the shared member step per class, with no chunk rebuild.
//!
//! Under §5.3 churn in a leak every hit/miss history leaks to its own
//! balance and a class fragments toward one cohort per member; the epoch
//! is then linear in the cohort count `k` and rewrites the 64-byte runs
//! of a fragmented chunk three times around one aggregate walk
//! (`epoch_aggregates`) and the radix passes over 8-byte keys:
//!
//! * **mark** (`mark_class_counted`): one pass, no comparison. A marked
//!   state differs from its unmarked twin only in `current_flags`, the
//!   last field of the ordering, so emitting `(unmarked, marked)` per
//!   cohort of a chunk with empty current flags (all the partition engine
//!   ever marks) keeps it sorted; a chunk is rewritten only if a drawn
//!   member changed, and re-canonicalized if a run already carried flags;
//! * **map**: the member step, in place when no fork shares the chunk; a
//!   chunk the step fixes is not written and stays shared. The map is not
//!   monotone, so it hands the balances it produces to the keyed sort,
//!   which orders `(balance offset, index)` keys by LSD radix; strictly
//!   increasing balances are done there, and a chunk under 256 runs, or
//!   spread over more than 2⁴⁰ Gwei, is sorted by comparison instead;
//! * **gather**: the runs are written in key order into one buffer, the
//!   comparison and the merge confined to groups of equal balance (the
//!   only place two runs can tie), and the buffer replaces the chunk.
//!
//! # Copy-on-write forking
//!
//! Every bulky component sits behind shared storage, so `clone()` — the
//! operation behind a partition `Split`, the search driver's epoch
//! checkpoints and every gene-stream extension — is O(#classes), whatever
//! the population and however long the run:
//!
//! * a class of several cohorts keeps its chunk in an
//!   `Arc<Vec<(MemberState, u64)>>`; a mutation unshares only the touched
//!   class's chunk (`Arc::make_mut`: a copy if a fork still holds it, in
//!   place otherwise), and an epoch step that leaves a chunk
//!   bit-identical (e.g. a fully-exited class) writes nothing, so sibling
//!   branches go on sharing it;
//! * a class of exactly one cohort — every class of a compact run —
//!   holds that `(MemberState, u64)` inline: a fork copies it, and the
//!   epoch's marks and member updates are plain writes with no allocation
//!   and no reference count to touch. Counted marking that splits it
//!   moves it behind an `Arc`; a merge back to one cohort moves it
//!   inline again;
//! * there is no per-epoch log: justification names only the previous
//!   and the current epoch's checkpoint roots, so the state carries that
//!   two-root window inline and nothing grows with the epoch count. The
//!   window holds [`RootLabel`]s, so a branch's synthetic root is hashed
//!   only if justification names it;
//! * the slashings ring buffer is an `Arc<Vec<Gwei>>` mutated through
//!   `Arc::make_mut` only when a value actually changes (the all-zero
//!   ring that every run in this repo carries is never copied).
//!
//! [`CohortState::shared_chunks`] makes the sharing observable (an inline
//! cohort counts as shared while both forks hold the same one), and the
//! aliasing unit tests below pin that post-fork mutations never leak into
//! a sibling.

use std::sync::Arc;

use ethpos_crypto::hash_u64;
use ethpos_types::{ChainConfig, Checkpoint, Epoch, Gwei};

use crate::backend::{
    advance_until_event, BranchObservation, ClassSpec, ClassStats, Fragmentation, MemberState,
    RootLabel, StateBackend, StateSnapshot,
};
use crate::epoch_metrics::stage_timer;
use crate::participation::{
    ParticipationFlags, TIMELY_HEAD_FLAG_INDEX, TIMELY_SOURCE_FLAG_INDEX, TIMELY_TARGET_FLAG_INDEX,
};
use crate::rewards::integer_sqrt;
use crate::validator::FAR_FUTURE_EPOCH;

/// One cohort: a member state and how many members share it.
type Run = (MemberState, u64);

/// One class's cohorts: sorted, run-length-merged `(state, count)` runs.
///
/// A class of exactly one cohort — every class of a compact run — holds
/// its run inline: no allocation, no reference count, and an epoch's
/// writes to it are plain stores. Every other class keeps its runs
/// behind shared storage, copied on write. A chunk holds one run exactly
/// when it is [`One`](Chunk::One): every write keeps that so, and two
/// chunks compare by their runs whichever variant holds them.
#[derive(Debug, Clone)]
enum Chunk {
    One(Run),
    Many(Arc<Vec<Run>>),
}

impl Chunk {
    /// The chunk holding `runs`, already canonical.
    fn from_vec(runs: Vec<Run>) -> Chunk {
        match runs[..] {
            [run] => Chunk::One(run),
            _ => Chunk::Many(Arc::new(runs)),
        }
    }

    /// True if a fork of one state still shares this chunk with `other`:
    /// the same allocation for [`Many`](Chunk::Many), the same run for
    /// [`One`](Chunk::One) (an inline run is copied at the fork and
    /// unshared by the first write that changes it).
    fn is_shared_with(&self, other: &Chunk) -> bool {
        match (self, other) {
            (Chunk::One(a), Chunk::One(b)) => a == b,
            (Chunk::Many(a), Chunk::Many(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl std::ops::Deref for Chunk {
    type Target = [Run];

    fn deref(&self) -> &[Run] {
        match self {
            Chunk::One(run) => std::slice::from_ref(run),
            Chunk::Many(runs) => runs,
        }
    }
}

impl PartialEq for Chunk {
    fn eq(&self, other: &Chunk) -> bool {
        **self == **other
    }
}

/// Chunks shorter than this are sorted by comparison: the radix passes'
/// fixed histogram cost only pays off on longer ones.
const KEY_SORT_MIN_RUNS: usize = 256;
/// Low bits of a sort key: the run's index in the unsorted chunk. The
/// high `64 − KEY_INDEX_BITS` bits hold its balance offset.
const KEY_INDEX_BITS: u32 = 24;
const KEY_INDEX_MASK: u64 = (1 << KEY_INDEX_BITS) - 1;
/// Digit width of one radix pass.
const RADIX_BITS: u32 = 12;

/// The keyed sort's buffers, reused across the classes of one epoch.
#[derive(Default)]
struct SortScratch {
    /// One entry per run of the chunk being sorted: its balance as
    /// [`load`](SortScratch::load)ed, its `(balance − lo) <<
    /// KEY_INDEX_BITS | index` key once [`sort`](SortScratch::sort) ran.
    keys: Vec<u64>,
    spare: Vec<u64>,
    /// The gather's output buffer; swapped with the chunk's own.
    gathered: Vec<Run>,
    /// Smallest and largest balance loaded.
    lo: u64,
    hi: u64,
    /// Every balance loaded exceeded all before it.
    ascending: bool,
}

impl SortScratch {
    /// True if a chunk of `len` runs takes the keyed sort: the radix
    /// passes' fixed histogram cost only pays off on longer chunks, and
    /// the run index has to fit the key.
    fn takes(len: usize) -> bool {
        (KEY_SORT_MIN_RUNS..=KEY_INDEX_MASK as usize).contains(&len)
    }

    /// Records the balances of a chunk's runs, in run order.
    #[inline]
    fn load(&mut self, balances: impl Iterator<Item = Gwei>) {
        let (mut lo, mut hi, mut ascending) = (u64::MAX, 0, true);
        self.keys.clear();
        self.keys.extend(balances.enumerate().map(|(i, balance)| {
            let balance = balance.as_u64();
            ascending &= (i == 0) | (hi < balance);
            lo = lo.min(balance);
            hi = hi.max(balance);
            balance
        }));
        (self.lo, self.hi, self.ascending) = (lo, hi, ascending);
    }

    /// Turns the loaded balances into keys ordered by balance, ties in
    /// run order: an LSD radix sort on the balance offset (the first
    /// field of the [`MemberState`] ordering, and nearly always the
    /// deciding one) that moves 8-byte keys instead of 64-byte runs.
    ///
    /// Returns `false`, keys unspecified, when the balance range
    /// overflows the key layout.
    fn sort(&mut self) -> bool {
        let offset_bits = u64::BITS - (self.hi - self.lo).leading_zeros();
        if offset_bits > u64::BITS - KEY_INDEX_BITS {
            return false;
        }
        let SortScratch {
            keys, spare, lo, ..
        } = self;
        for (i, key) in keys.iter_mut().enumerate() {
            *key = (*key - *lo) << KEY_INDEX_BITS | i as u64;
        }
        spare.resize(keys.len(), 0);
        let mut shift = KEY_INDEX_BITS;
        while shift < KEY_INDEX_BITS + offset_bits {
            let digit = |key: u64| (key >> shift) as usize & ((1 << RADIX_BITS) - 1);
            let mut starts = [0u32; 1 << RADIX_BITS];
            for &key in keys.iter() {
                starts[digit(key)] += 1;
            }
            let mut seen = 0;
            for start in starts.iter_mut() {
                let count = *start;
                *start = seen;
                seen += count;
            }
            for &key in keys.iter() {
                let slot = &mut starts[digit(key)];
                spare[*slot as usize] = key;
                *slot += 1;
            }
            std::mem::swap(keys, spare);
            shift += RADIX_BITS;
        }
        true
    }
}

/// Sorts `runs` by the [`MemberState`] ordering and merges equal
/// neighbours (summing counts) towards the front; returns the merged
/// length. Strictly increasing input — every compact chunk, nearly every
/// equal-balance group — costs the one checking pass.
fn sort_and_merge(runs: &mut [Run]) -> usize {
    if runs.is_sorted_by(|a, b| a.0 < b.0) {
        return runs.len();
    }
    runs.sort_unstable_by_key(|run| run.0);
    let mut kept = 0;
    for i in 1..runs.len() {
        if runs[i].0 == runs[kept].0 {
            runs[kept].1 += runs[i].1;
        } else {
            kept += 1;
            runs[kept] = runs[i];
        }
    }
    kept + 1
}

/// Writes `runs` into `out` in canonical form, given their `keys` in
/// balance order: two runs can tie or merge only inside a group of equal
/// balance, so each group is gathered, then ordered and merged on its
/// own. Groups are short (balances collide across hit/miss histories, a
/// handful of runs at a time) and the radix passes' stability leaves
/// four in five already ordered.
fn gather(runs: &[Run], keys: &[u64], out: &mut Vec<Run>) {
    out.clear();
    out.reserve(runs.len());
    for group in keys.chunk_by(|a, b| a >> KEY_INDEX_BITS == b >> KEY_INDEX_BITS) {
        let start = out.len();
        out.extend(
            group
                .iter()
                .map(|key| runs[(key & KEY_INDEX_MASK) as usize]),
        );
        if group.len() > 1 {
            let merged = sort_and_merge(&mut out[start..]);
            out.truncate(start + merged);
        }
    }
}

/// Restores the canonical form of a chunk whose balances `scratch` has
/// [`load`](SortScratch::load)ed.
fn canonicalize_loaded(runs: &mut Vec<Run>, scratch: &mut SortScratch) {
    // Strictly increasing balances: sorted, nothing to merge.
    if scratch.ascending {
        return;
    }
    if scratch.sort() {
        gather(runs, &scratch.keys, &mut scratch.gathered);
        std::mem::swap(runs, &mut scratch.gathered);
    } else {
        canonicalize_by_comparison(runs);
    }
}

/// [`sort_and_merge`] over a whole chunk: the canonical form of chunks
/// too short for the keyed sort or with balances too spread for its keys.
fn canonicalize_by_comparison(runs: &mut Vec<Run>) {
    let merged = sort_and_merge(runs);
    runs.truncate(merged);
}

/// Restores a chunk's canonical form: sorted by the [`MemberState`]
/// ordering with equal adjacent states merged (summing counts) — the
/// same normal form a `BTreeMap<(class, state), count>` would produce.
fn canonicalize(runs: &mut Vec<Run>, scratch: &mut SortScratch) {
    if !SortScratch::takes(runs.len()) {
        return canonicalize_by_comparison(runs);
    }
    scratch.load(runs.iter().map(|(m, _)| m.balance));
    canonicalize_loaded(runs, scratch);
}

/// Maps every run of `chunk` through `f` and re-canonicalizes it. An
/// inline run is overwritten in place. Runs behind an `Arc` are written
/// only if `f` changes one of them, in place when no fork shares them
/// and into a copy otherwise; if `f` fixes every state the `Arc`, and
/// any sharing with sibling branches, is kept.
fn transform_chunk(
    chunk: &mut Chunk,
    scratch: &mut SortScratch,
    mut f: impl FnMut(&MemberState) -> MemberState,
) {
    let shared = match chunk {
        Chunk::One((m, _)) => {
            *m = f(m);
            return;
        }
        Chunk::Many(shared) => shared,
    };
    // `f` runs once per run: the search hands over the state it stepped.
    let Some((first, stepped)) = shared.iter().enumerate().find_map(|(i, (m, _))| {
        let stepped = f(m);
        (stepped != *m).then_some((i, stepped))
    }) else {
        return;
    };
    let runs = Arc::make_mut(shared);
    runs[first].0 = stepped;
    if SortScratch::takes(runs.len()) {
        // The map pass hands the keyed sort the balances it holds anyway.
        scratch.load(runs.iter_mut().enumerate().map(|(i, run)| {
            if i > first {
                run.0 = f(&run.0);
            }
            run.0.balance
        }));
        canonicalize_loaded(runs, scratch);
    } else {
        for run in &mut runs[first + 1..] {
            run.0 = f(&run.0);
        }
        canonicalize_by_comparison(runs);
    }
    // Canonicalizing merged the class down to one cohort.
    if let [run] = runs[..] {
        *chunk = Chunk::One(run);
    }
}

/// The participation flags in reward-weight order.
const FLAG_INDICES: [u8; 3] = [
    TIMELY_SOURCE_FLAG_INDEX,
    TIMELY_TARGET_FLAG_INDEX,
    TIMELY_HEAD_FLAG_INDEX,
];

/// The global sums of one epoch transition (see
/// [`CohortState::epoch_aggregates`]).
#[derive(Debug, PartialEq)]
struct EpochAggregates {
    /// Spec `get_total_active_balance` (increment-floored).
    total_active: Gwei,
    /// Spec `unslashed_participating_target_balance`, previous epoch.
    previous_target: Gwei,
    /// The same for the current epoch.
    current_target: Gwei,
    /// Participating increments per flag (unslashed, previous epoch).
    participating_increments: [u64; 3],
}

/// Cohort-compressed beacon state: per-class `(state, count)` chunks plus
/// the global finality bookkeeping, processed with exact spec integer
/// arithmetic. Cloning is copy-on-write (see the module docs), so forking
/// a partition branch or checkpointing a run is cheap.
///
/// # Example
///
/// A million validators cost the same as ten when they share behaviour:
///
/// ```
/// use ethpos_state::{ClassSpec, StateBackend};
/// use ethpos_state::{CohortState, ParticipationFlags};
/// use ethpos_types::ChainConfig;
///
/// let config = ChainConfig::paper();
/// let classes = [
///     ClassSpec::full_stake(600_000, &config),
///     ClassSpec::full_stake(400_000, &config),
/// ];
/// let mut state = CohortState::from_classes(config, &classes);
/// for _ in 0..100 {
///     state.mark_class(0, ParticipationFlags::all());
///     state.advance_epoch(None);
/// }
/// assert_eq!(state.num_cohorts(), 2); // deterministic schedule: no splits
/// assert!(state.is_in_inactivity_leak()); // 60% < 2/3 never justifies
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CohortState {
    config: ChainConfig,
    /// The current epoch; the state always sits at its first slot.
    epoch: Epoch,
    num_classes: usize,
    /// One chunk per class (index = class), each sorted and run-length
    /// merged under the canonical [`MemberState`] ordering.
    chunks: Vec<Chunk>,
    justification_bits: [bool; 4],
    previous_justified: Checkpoint,
    current_justified: Checkpoint,
    finalized: Checkpoint,
    /// Ring buffer of slashed effective balance per epoch (shared until
    /// a nonzero write forces a copy).
    slashings: Arc<Vec<Gwei>>,
    /// Cached sum of the `slashings` ring, maintained at every ring
    /// write — the slashings pass needs the sum each epoch, and scanning
    /// the 8192-entry ring dominated the epoch cost for small cohort
    /// counts.
    slashings_sum: Gwei,
    /// Checkpoint roots at the start of the previous and the current
    /// epoch — all of the root history justification reads. A label is
    /// resolved in place when justification names it.
    epoch_roots: [RootLabel; 2],
}

impl CohortState {
    /// Number of distinct cohorts currently tracked.
    pub fn num_cohorts(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    /// Previous epoch (genesis-floored).
    pub fn previous_epoch(&self) -> Epoch {
        self.current_epoch().prev()
    }

    /// Epochs since finalization, measured at the previous epoch (spec
    /// `get_finality_delay`).
    pub fn finality_delay(&self) -> u64 {
        self.previous_epoch() - self.finalized.epoch
    }

    /// True if the chain is in an inactivity leak.
    pub fn is_in_inactivity_leak(&self) -> bool {
        self.finality_delay() > self.config.min_epochs_to_inactivity_penalty
    }

    /// Number of class chunks shared with `other` — nonzero exactly when
    /// copy-on-write sharing is engaged between two forks of the same
    /// state. A class of several cohorts counts when both sides hold the
    /// same allocation; a one-cohort class is held inline, copied at the
    /// fork, and counts while both sides hold the same cohort. Right at a
    /// fork every chunk counts either way, which is when the partition
    /// engine reads this into its fork statistics.
    pub fn shared_chunks(&self, other: &CohortState) -> usize {
        self.chunks
            .iter()
            .zip(&other.chunks)
            .filter(|(a, b)| a.is_shared_with(b))
            .count()
    }

    /// Sum of `count × effective balance` over the cohorts `select`
    /// admits (u64, spec-width). The selection is a 0/1 factor, not a
    /// branch: under churn the flags it reads are coin flips.
    fn stake_where(&self, mut select: impl FnMut(&MemberState) -> bool) -> Gwei {
        Gwei::new(
            self.chunks
                .iter()
                .flat_map(|chunk| chunk.iter())
                .map(|(m, count)| count * m.effective_balance.as_u64() * u64::from(select(m)))
                .sum(),
        )
    }

    /// Every global sum one epoch transition reads, from a single walk
    /// over the cohorts. Justification leaves the chunks alone and every
    /// member-local step preserves these sums (see below), so one walk
    /// serves the whole epoch.
    fn epoch_aggregates(&self) -> EpochAggregates {
        let increment = self.config.effective_balance_increment.as_u64();
        // Effective balances sit on a staircase a sorted chunk climbs
        // slowly, so one remembered quotient replaces nearly every
        // `effective / increment` division.
        let mut last_effective = (u64::MAX, 0);
        let runs = self.chunks.iter().flat_map(|chunk| chunk.iter());
        self.sum_aggregates(runs.map(|(m, count)| {
            let effective = m.effective_balance.as_u64();
            if effective != last_effective.0 {
                last_effective = (effective, effective / increment);
            }
            (m, count * effective, count * last_effective.1)
        }))
    }

    /// The epoch's sums over `runs`: each cohort's member state with its
    /// stake and its effective-balance increments (both times its count).
    fn sum_aggregates<'a>(
        &self,
        runs: impl Iterator<Item = (&'a MemberState, u64, u64)>,
    ) -> EpochAggregates {
        let current_epoch = self.current_epoch();
        let previous_epoch = self.previous_epoch();
        let mut total_active = 0u64;
        let mut previous_target = 0u64;
        let mut current_target = 0u64;
        let mut participating_increments = [0u64; 3];
        // Under churn the flags are coin flips, so the sums select with
        // 0/1 factors instead of branches.
        for (m, stake, increments) in runs {
            let active = m.is_active_at(current_epoch);
            let voted = !m.slashed & m.is_active_at(previous_epoch);
            total_active += stake * u64::from(active);
            current_target +=
                stake * u64::from(active & !m.slashed & m.current_flags.has_timely_target());
            previous_target += stake * u64::from(voted & m.previous_flags.has_timely_target());
            for (sum, flag) in participating_increments.iter_mut().zip(FLAG_INDICES) {
                *sum += increments * u64::from(voted & m.previous_flags.has(flag));
            }
        }
        EpochAggregates {
            total_active: Gwei::new(total_active).max(self.config.effective_balance_increment),
            previous_target: Gwei::new(previous_target),
            current_target: Gwei::new(current_target),
            participating_increments,
        }
    }

    // ── epoch processing ────────────────────────────────────────────────
    //
    // The spec's epoch steps run in order: justification & finalization,
    // inactivity updates, rewards & penalties, registry updates,
    // slashings, effective-balance updates, slashings reset,
    // participation-flag rotation. Here the six member-local steps are
    // fused into a single chunk rebuild: every global aggregate a later
    // step reads is invariant under the earlier steps' member writes
    // (inactivity touches only scores, rewards only balances, registry
    // sets `exit_epoch` to `current + 1` which keeps the member active
    // *at* `current`), so all aggregates can be computed up front and
    // the per-member updates composed in spec order.

    /// One epoch transition, with `member_updates` as its fused
    /// member-local steps, entering the next epoch under `root`.
    fn process_epoch(
        &mut self,
        root: Option<RootLabel>,
        aggregates: impl FnOnce(&Self) -> EpochAggregates,
        member_updates: impl FnOnce(&mut Self, &EpochAggregates),
    ) {
        // Per-stage wall-clock timing, **sampled every 64th epoch**:
        // this is the workspace's hottest loop (~0.5 µs per epoch on
        // compressed states, so one timed epoch costs nearly as much as
        // an untimed one); the 1-in-64 sample keeps the overhead within
        // noise (the ledger's `obs.traced_overhead_share`) while the stage
        // histograms stay representative (epoch 0 is always sampled).
        // Timing is observation-only — the transition is the same on both
        // paths.
        let mut timer = stage_timer("cohort", self.current_epoch().as_u64() & 63 == 0);
        let mut stage = |name| timer.as_mut().map(|t| t.stage(name));
        let aggregates = aggregates(self);
        self.process_justification_and_finalization(&aggregates);
        stage("justification");
        member_updates(self, &aggregates);
        stage("member_updates");
        self.process_slashings_reset();
        stage("slashings_reset");
        self.epoch = self.epoch + 1;
        let carried = self.epoch_roots[1];
        self.epoch_roots = [carried, root.unwrap_or(carried)];
    }

    fn process_justification_and_finalization(&mut self, aggregates: &EpochAggregates) {
        let current_epoch = self.current_epoch();
        // Spec: skip the first two epochs.
        if current_epoch.as_u64() <= 1 {
            return;
        }
        let previous_epoch = self.previous_epoch();
        let total = aggregates.total_active;
        let previous_target = aggregates.previous_target;
        let current_target = aggregates.current_target;

        let old_previous_justified = self.previous_justified;
        let old_current_justified = self.current_justified;

        // Rotate: previous ← current; shift bits.
        self.previous_justified = self.current_justified;
        self.justification_bits.copy_within(0..3, 1);
        self.justification_bits[0] = false;

        if previous_target.as_u64() * 3 >= total.as_u64() * 2 {
            self.current_justified = Checkpoint::new(previous_epoch, self.epoch_roots[0].resolve());
            self.justification_bits[1] = true;
        }
        if current_target.as_u64() * 3 >= total.as_u64() * 2 {
            self.current_justified = Checkpoint::new(current_epoch, self.epoch_roots[1].resolve());
            self.justification_bits[0] = true;
        }

        // The four finalization rules.
        let bits = self.justification_bits;
        if bits[1] && bits[2] && bits[3] && old_previous_justified.epoch + 3 == current_epoch {
            self.finalized = old_previous_justified;
        }
        if bits[1] && bits[2] && old_previous_justified.epoch + 2 == current_epoch {
            self.finalized = old_previous_justified;
        }
        if bits[0] && bits[1] && bits[2] && old_current_justified.epoch + 2 == current_epoch {
            self.finalized = old_current_justified;
        }
        if bits[0] && bits[1] && old_current_justified.epoch + 1 == current_epoch {
            self.finalized = old_current_justified;
        }
    }

    /// The six member-local epoch steps (inactivity, rewards & penalties,
    /// registry, slashings, effective balance, flag rotation), fused into
    /// one chunk rebuild per class.
    fn process_member_updates(&mut self, aggregates: &EpochAggregates) {
        let mut step = MemberStep::new(self, aggregates.total_active);
        step.enter(self, aggregates);
        let mut memo = NO_MEMO;
        let mut scratch = SortScratch::default();
        for chunk in &mut self.chunks {
            transform_chunk(chunk, &mut scratch, |m| step.apply(m, &mut memo));
        }
    }

    fn process_slashings_reset(&mut self) {
        // An empty ring has nothing to reset.
        if self.slashings_sum == Gwei::ZERO {
            return;
        }
        let next = self.current_epoch() + 1;
        let len = self.config.epochs_per_slashings_vector;
        let idx = (next.as_u64() % len) as usize;
        // Writing a zero over a zero is the common case (nothing in the
        // paper's scenarios slashes); skip it to keep the ring shared
        // between forks instead of forcing a copy-on-write clone.
        if self.slashings[idx] != Gwei::ZERO {
            self.slashings_sum -= self.slashings[idx];
            Arc::make_mut(&mut self.slashings)[idx] = Gwei::ZERO;
        }
    }

    /// [`StateBackend::advance_steady`] on compact lanes: every class one
    /// inline cohort, the slashings ring empty. Between events the cohorts'
    /// stakes and increments (where the sums read them) and the total
    /// active balance are fixed, so they and the member step's constants,
    /// its `integer_sqrt` among them, are built once per lane and interval;
    /// each class keeps its own base-reward memo. A class's [`ClassStats`]
    /// move exactly when its step sets an exit or moves an active member's
    /// effective balance, so the step's own writes tell the event.
    fn advance_compact(
        lanes: &mut [&mut Self],
        marks: impl Fn(usize, u64, usize) -> bool,
        mut labels: impl FnMut(usize, &Self) -> Option<RootLabel>,
        max_epochs: u64,
    ) -> u64 {
        let interval = |state: &Self| {
            let increment = state.config.effective_balance_increment.as_u64();
            let weights: Vec<(u64, u64)> = (state.chunks.iter())
                .map(|chunk| {
                    chunk.first().map_or((0, 0), |(m, count)| {
                        let effective = m.effective_balance.as_u64();
                        (count * effective, count * (effective / increment))
                    })
                })
                .collect();
            let step = MemberStep::new(state, state.total_active_balance());
            let quiet = (state.current_justified, state.finalized);
            (weights, vec![NO_MEMO; state.chunks.len()], step, quiet)
        };
        let mut intervals: Vec<_> = lanes.iter().map(|state| interval(state)).collect();
        for taken in 1..=max_epochs {
            let mut event = false;
            for (lane, (state, (weights, memos, step, quiet))) in
                lanes.iter_mut().zip(&mut intervals).enumerate()
            {
                let epoch = state.epoch;
                let root = labels(lane, state);
                for (class, chunk) in state.chunks.iter_mut().enumerate() {
                    if let Chunk::One((m, _)) = chunk {
                        if marks(lane, epoch.as_u64(), class) && m.is_active_at(epoch) {
                            m.current_flags = m.current_flags.union(ParticipationFlags::all());
                        }
                    }
                }
                let mut moved = false;
                let aggregates = |state: &Self| {
                    let runs = state.chunks.iter().zip(weights.iter());
                    let aggregates =
                        state.sum_aggregates(runs.filter_map(|(chunk, &(stake, incs))| {
                            chunk.first().map(|(m, _)| (m, stake, incs))
                        }));
                    debug_assert_eq!(aggregates, state.epoch_aggregates());
                    aggregates
                };
                state.process_epoch(root, aggregates, |state, aggregates| {
                    step.enter(state, aggregates);
                    for (chunk, memo) in state.chunks.iter_mut().zip(memos.iter_mut()) {
                        if let Chunk::One((m, _)) = chunk {
                            let next = step.apply(m, memo);
                            moved |= next.exit_epoch != m.exit_epoch
                                || (next.effective_balance != m.effective_balance
                                    && next.is_active_at(epoch + 1));
                            *m = next;
                        }
                    }
                });
                event |= moved || (state.current_justified, state.finalized) != *quiet;
            }
            if event {
                return taken;
            }
        }
        max_epochs
    }
}

/// The base reward and the two flag penalties of the effective balance
/// they were computed for.
type Memo = (u64, u64, [u64; 2]);

/// A memo no effective balance matches.
const NO_MEMO: Memo = (u64::MAX, 0, [0; 2]);

/// The six member-local epoch steps on one member state, shared by both
/// paths, with the constants they read: [`new`](MemberStep::new) sets
/// those of the configuration, the total active balance and the
/// slashings ring, [`enter`](MemberStep::enter) the epoch's own. Each
/// global aggregate a step reads is invariant under the member writes of
/// the steps before it (see above), so they compose in spec order.
struct MemberStep {
    config: ChainConfig,
    // ── the epoch's own inputs ──
    current_epoch: Epoch,
    in_leak: bool,
    participating_increments: [u64; 3],
    // ── derived from the configuration ──
    weights: [u64; 3],
    leak_denominator: u64,
    downward: Gwei,
    upward: Gwei,
    // ── fixed by the total active balance and the slashings ring ──
    total_active: u64,
    total_increments: u64,
    base_per_increment: u64,
    adjusted: u64,
}

impl MemberStep {
    /// The step's constants at total active balance `total_active`.
    fn new(state: &CohortState, total_active: Gwei) -> Self {
        let config = &state.config;
        let total_active = total_active.as_u64();
        let increment = config.effective_balance_increment.as_u64();
        let hysteresis_increment = increment / config.hysteresis_quotient;
        MemberStep {
            current_epoch: Epoch::GENESIS,
            in_leak: false,
            participating_increments: [0; 3],
            weights: [
                config.timely_source_weight,
                config.timely_target_weight,
                config.timely_head_weight,
            ],
            leak_denominator: config.inactivity_penalty_denominator(),
            downward: Gwei::new(hysteresis_increment * config.hysteresis_downward_multiplier),
            upward: Gwei::new(hysteresis_increment * config.hysteresis_upward_multiplier),
            total_active,
            total_increments: (total_active / increment).max(1),
            base_per_increment: increment * config.base_reward_factor
                / integer_sqrt(total_active).max(1),
            // The ring is untouched by member steps, and the total active
            // balance is invariant as argued above.
            adjusted: state
                .slashings_sum
                .as_u64()
                .saturating_mul(config.proportional_slashing_multiplier)
                .min(total_active),
            config: config.clone(),
        }
    }

    /// Sets the inputs of `state`'s current epoch.
    fn enter(&mut self, state: &CohortState, aggregates: &EpochAggregates) {
        self.current_epoch = state.current_epoch();
        self.in_leak = state.is_in_inactivity_leak();
        self.participating_increments = aggregates.participating_increments;
    }

    /// One member's epoch. Effective balances sit on a staircase a sorted
    /// chunk climbs slowly, so the base reward and the two flag penalties
    /// it fixes are remembered in `memo` from one member to the next (as
    /// the aggregate walk remembers its quotient).
    #[inline]
    fn apply(&self, m: &MemberState, memo: &mut Memo) -> MemberState {
        let mut m = *m;
        let increment = self.config.effective_balance_increment.as_u64();
        let previous_epoch = self.current_epoch.prev();
        let eligible = m.is_active_at(previous_epoch)
            || (m.slashed && previous_epoch + 1 < m.withdrawable_epoch);
        // Genesis gating, per the spec: no inactivity or reward settling
        // for the epoch before genesis.
        if self.current_epoch != Epoch::GENESIS && eligible {
            // Inactivity-score update (paper Eq. 1).
            let timely = !m.slashed && m.previous_flags.has_timely_target();
            let mut score = m.inactivity_score;
            if timely {
                score -= score.min(1);
            } else {
                score += self.config.inactivity_score_bias;
            }
            if !self.in_leak {
                score -= score.min(self.config.inactivity_score_recovery_rate);
            }
            m.inactivity_score = score;

            // Rewards & penalties, reading the just-updated score.
            let effective = m.effective_balance.as_u64();
            if effective != memo.0 {
                let base_reward = effective / increment * self.base_per_increment;
                let denominator = self.config.weight_denominator;
                let penalties = [0, 1].map(|k| base_reward * self.weights[k] / denominator);
                *memo = (effective, base_reward, penalties);
            }
            let (_, base_reward, flag_penalties) = *memo;
            let mut reward = 0u64;
            let mut penalty = 0u64;
            for (k, flag) in FLAG_INDICES.into_iter().enumerate() {
                let participated = !m.slashed && m.previous_flags.has(flag);
                if participated {
                    if !self.in_leak {
                        let numerator =
                            base_reward * self.weights[k] * self.participating_increments[k];
                        reward +=
                            numerator / (self.total_increments * self.config.weight_denominator);
                    }
                    // In a leak: no reward (paper §4).
                } else if flag != TIMELY_HEAD_FLAG_INDEX {
                    penalty += flag_penalties[k];
                }
            }
            let pays_inactivity = if self.config.paper_inactivity_penalties {
                m.slashed || m.inactivity_score > 0
            } else {
                m.slashed || !m.previous_flags.has(TIMELY_TARGET_FLAG_INDEX)
            };
            if pays_inactivity {
                penalty += inactivity_penalty(effective, m.inactivity_score, self.leak_denominator);
            }
            // Mirror dense order: increase_balance then saturating
            // decrease_balance.
            m.balance = (m.balance + Gwei::new(reward)).saturating_sub(Gwei::new(penalty));
        }

        // Registry: ejection at the 16-ETH effective-balance floor.
        let exit_epoch = self.current_epoch + 1;
        if m.is_active_at(self.current_epoch)
            && m.effective_balance <= self.config.ejection_balance
            && m.exit_epoch == FAR_FUTURE_EPOCH
        {
            m.exit_epoch = exit_epoch;
            if m.withdrawable_epoch == FAR_FUTURE_EPOCH {
                m.withdrawable_epoch = exit_epoch + 256;
            }
        }

        // Correlation slashing penalty (spec `process_slashings`), reading
        // the post-registry withdrawable epoch.
        if self.adjusted != 0
            && m.slashed
            && self.current_epoch + self.config.epochs_per_slashings_vector / 2
                == m.withdrawable_epoch
        {
            let penalty_numerator =
                (m.effective_balance.as_u64() / increment) as u128 * self.adjusted as u128;
            let penalty = (penalty_numerator / self.total_active as u128) as u64 * increment;
            m.balance = m.balance.saturating_sub(Gwei::new(penalty));
        }

        // Effective-balance hysteresis, reading the settled balance.
        if m.balance + self.downward < m.effective_balance
            || m.effective_balance + self.upward < m.balance
        {
            // `ChainConfig::snapped_effective_balance`, on the constants.
            let bal = m.balance.as_u64();
            m.effective_balance =
                Gwei::new(bal - bal % increment).min(self.config.max_effective_balance);
        }

        // Participation-flag rotation.
        m.previous_flags = m.current_flags;
        m.current_flags = ParticipationFlags::EMPTY;
        m
    }
}

/// The inactivity penalty `effective · score / denominator` (paper
/// Eq. 2), with the spec's exact quotient. At paper scale the product
/// fits in a `u64` (32 ETH in Gwei times any score below ≈ 5.7·10⁸), so
/// it divides there; a wider product takes the `u128` division.
fn inactivity_penalty(effective: u64, score: u64, denominator: u64) -> u64 {
    match effective.checked_mul(score) {
        Some(product) => product / denominator,
        None => (u128::from(effective) * u128::from(score) / u128::from(denominator)) as u64,
    }
}

impl StateBackend for CohortState {
    fn from_classes(config: ChainConfig, classes: &[ClassSpec]) -> Self {
        let total: u64 = classes.iter().map(|c| c.count).sum();
        let genesis_root = hash_u64(&[0x67_656e_6573_6973, total]); // "genesis"
        let chunks = classes
            .iter()
            .map(|spec| {
                if spec.count == 0 {
                    return Chunk::Many(Arc::new(Vec::new()));
                }
                let member = MemberState {
                    balance: spec.balance,
                    effective_balance: config.snapped_effective_balance(spec.balance),
                    inactivity_score: 0,
                    slashed: false,
                    activation_epoch: Epoch::GENESIS,
                    exit_epoch: FAR_FUTURE_EPOCH,
                    withdrawable_epoch: FAR_FUTURE_EPOCH,
                    previous_flags: ParticipationFlags::EMPTY,
                    current_flags: ParticipationFlags::EMPTY,
                };
                Chunk::One((member, spec.count))
            })
            .collect();
        let genesis_checkpoint = Checkpoint::genesis(genesis_root);
        CohortState {
            slashings: Arc::new(vec![
                Gwei::ZERO;
                config.epochs_per_slashings_vector as usize
            ]),
            slashings_sum: Gwei::ZERO,
            config,
            epoch: Epoch::GENESIS,
            num_classes: classes.len(),
            chunks,
            justification_bits: [false; 4],
            previous_justified: genesis_checkpoint,
            current_justified: genesis_checkpoint,
            finalized: genesis_checkpoint,
            epoch_roots: [RootLabel::Root(genesis_root); 2],
        }
    }

    fn config(&self) -> &ChainConfig {
        &self.config
    }

    fn current_epoch(&self) -> Epoch {
        self.epoch
    }

    fn current_justified_checkpoint(&self) -> Checkpoint {
        self.current_justified
    }

    fn finalized_checkpoint(&self) -> Checkpoint {
        self.finalized
    }

    fn total_active_balance(&self) -> Gwei {
        let epoch = self.current_epoch();
        self.stake_where(|m| m.is_active_at(epoch))
            .max(self.config.effective_balance_increment)
    }

    fn current_target_balance(&self) -> Gwei {
        let epoch = self.current_epoch();
        self.stake_where(|m| {
            !m.slashed & m.is_active_at(epoch) & m.current_flags.has_timely_target()
        })
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn class_stats(&self, class: usize) -> ClassStats {
        let epoch = self.current_epoch();
        let mut stats = ClassStats::default();
        for (m, count) in self.chunks[class].iter() {
            stats.total += count;
            if m.is_active_at(epoch) {
                stats.active += count;
                stats.active_stake += Gwei::new(count * m.effective_balance.as_u64());
            } else {
                stats.exited += count;
            }
        }
        stats
    }

    fn observe(&self, class: usize) -> BranchObservation {
        // One walk instead of the four the separate reads make; the
        // selections are 0/1 factors as in `stake_where`.
        let epoch = self.current_epoch();
        let mut observed = ClassStats::default();
        let (mut exited_elsewhere, mut total_active, mut current_target) = (0, 0, 0);
        for (c, chunk) in self.chunks.iter().enumerate() {
            let mut stats = ClassStats::default();
            let mut target = 0;
            for (m, count) in chunk.iter() {
                let active = u64::from(m.is_active_at(epoch));
                let stake = count * m.effective_balance.as_u64() * active;
                stats.total += count;
                stats.active += count * active;
                stats.active_stake += Gwei::new(stake);
                target += stake * u64::from(!m.slashed & m.current_flags.has_timely_target());
            }
            stats.exited = stats.total - stats.active;
            total_active += stats.active_stake.as_u64();
            current_target += target;
            if c == class {
                observed = stats;
            } else {
                exited_elsewhere += stats.exited;
            }
        }
        BranchObservation {
            class: observed,
            exited_elsewhere,
            total_active: Gwei::new(total_active).max(self.config.effective_balance_increment),
            current_target: Gwei::new(current_target),
        }
    }

    fn class_floor(&self, class: usize) -> Option<MemberState> {
        // Chunks are sorted: the first run is the floor.
        self.chunks
            .get(class)
            .and_then(|chunk| chunk.first())
            .map(|&(m, _)| m)
    }

    fn mark_class(&mut self, class: usize, flags: ParticipationFlags) {
        let epoch = self.current_epoch();
        transform_chunk(&mut self.chunks[class], &mut SortScratch::default(), |m| {
            if m.is_active_at(epoch) {
                MemberState {
                    current_flags: m.current_flags.union(flags),
                    ..*m
                }
            } else {
                *m
            }
        });
    }

    /// One linear pass, no comparison and no sort: a marked state
    /// differs from its unmarked twin only in `current_flags`, the *last*
    /// field of the canonical ordering, and only upwards. In a sorted,
    /// merged chunk whose runs all carry empty current flags — all the
    /// partition engine ever marks — the runs differ pairwise in an
    /// earlier field, so pushing `(unmarked, marked)` per cohort keeps the
    /// chunk sorted with nothing to merge. A class already carrying flags
    /// this epoch can tie or swap order under the union (two cohorts equal
    /// up to non-nested `current_flags`); the pass notices the flags and
    /// the chunk is re-canonicalized.
    fn mark_class_counted(
        &mut self,
        class: usize,
        flags: ParticipationFlags,
        sample: &mut impl FnMut(u64) -> u64,
    ) {
        let epoch = self.current_epoch();
        let chunk = &mut self.chunks[class];
        // A fragmented chunk is mostly singleton cohorts, which cannot
        // split, so a quarter over its length holds the result; amortized
        // growth covers the short compact phase, where every cohort
        // splits in two. (Reserving a half, or one slot per cohort of two
        // or more, measured 4–8 % more peak RSS on `churn_leak`.)
        let mut next: Vec<Run> = Vec::with_capacity(chunk.len() + chunk.len() / 4 + 1);
        let mut changed = false;
        let mut unflagged = true;
        for &(m, count) in chunk.iter() {
            unflagged &= m.current_flags == ParticipationFlags::EMPTY;
            let marked_flags = m.current_flags.union(flags);
            // Exited cohorts consume no draw (trait contract): the stream
            // is one count draw per *active* cohort.
            let drawn = if m.is_active_at(epoch) {
                sample(count).min(count)
            } else {
                0
            };
            if drawn == 0 || marked_flags == m.current_flags {
                next.push((m, count));
                continue;
            }
            changed = true;
            if drawn < count {
                next.push((m, count - drawn));
            }
            let marked = MemberState {
                current_flags: marked_flags,
                ..m
            };
            next.push((marked, drawn));
        }
        // A chunk is rewritten only if some drawn member actually changed.
        if !changed {
            return;
        }
        if !unflagged {
            canonicalize(&mut next, &mut SortScratch::default());
        }
        *chunk = Chunk::from_vec(next);
    }

    fn advance_epoch(&mut self, next_checkpoint_root: Option<RootLabel>) {
        self.process_epoch(
            next_checkpoint_root,
            Self::epoch_aggregates,
            Self::process_member_updates,
        );
    }

    fn advance_steady(
        lanes: &mut [&mut Self],
        marks: impl Fn(usize, u64, usize) -> bool,
        labels: impl FnMut(usize, &Self) -> Option<RootLabel>,
        max_epochs: u64,
    ) -> u64 {
        let compact = |state: &Self| {
            state.slashings_sum == Gwei::ZERO
                && (state.chunks.iter()).all(|c| matches!(c, Chunk::One(_)) || c.is_empty())
        };
        if lanes.iter().all(|state| compact(state)) {
            Self::advance_compact(lanes, marks, labels, max_epochs)
        } else {
            advance_until_event(lanes, marks, labels, max_epochs)
        }
    }

    fn snapshot(&self) -> StateSnapshot {
        StateSnapshot {
            slot: self.epoch.start_slot(self.config.slots_per_epoch),
            justification_bits: self.justification_bits,
            previous_justified: self.previous_justified,
            current_justified: self.current_justified,
            finalized: self.finalized,
            slashings: (*self.slashings).clone(),
            classes: self.chunks.iter().map(|c| c.to_vec()).collect(),
        }
    }

    fn class_balance(&self, class: usize) -> Gwei {
        Gwei::new(
            self.chunks[class]
                .iter()
                .map(|(m, count)| m.balance.as_u64() * count)
                .sum(),
        )
    }

    fn shared_chunks_with(&self, other: &Self) -> usize {
        self.shared_chunks(other)
    }

    fn fragmentation(&self) -> Option<Fragmentation> {
        Some(Fragmentation {
            cohorts: self.num_cohorts() as u64,
            max_cohorts_per_class: self.chunks.iter().map(|c| c.len()).max().unwrap_or(0) as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DenseState;
    use ethpos_types::ValidatorIndex;

    fn full(count: u64) -> ClassSpec {
        ClassSpec::full_stake(count, &ChainConfig::minimal())
    }

    /// The compact path's effective-balance hysteresis one Gwei either
    /// side of both bounds, against the spec's per-validator epoch: a
    /// 30-ETH effective balance under a balance set at each edge.
    #[test]
    fn compact_hysteresis_matches_the_spec_at_its_edges() {
        let config = ChainConfig::paper();
        let increment = config.effective_balance_increment.as_u64();
        let quarter = increment / config.hysteresis_quotient;
        let down = quarter * config.hysteresis_downward_multiplier;
        let up = quarter * config.hysteresis_upward_multiplier;
        let effective = 30 * increment;
        let edges = [down + 1, down, down - 1].map(|d| effective - d);
        for balance in edges
            .into_iter()
            .chain([up - 1, up, up + 1].map(|u| effective + u))
        {
            let mut cohort = CohortState::from_classes(config.clone(), &[full(3)]);
            let Chunk::One((m, _)) = &mut cohort.chunks[0] else {
                panic!("one inline cohort");
            };
            (m.balance, m.effective_balance) = (Gwei::new(balance), Gwei::new(effective));
            let mut spec = crate::BeaconState::genesis(config.clone(), 3);
            for i in 0..3usize {
                spec.validators_mut()[i].effective_balance = Gwei::new(effective);
                let excess = spec.balances()[i] - Gwei::new(balance);
                spec.decrease_balance(ValidatorIndex::from(i), excess);
            }
            for epoch in 0..3 {
                CohortState::advance_steady(&mut [&mut cohort], |_, _, _| true, |_, _| None, 1);
                for i in 0..3usize {
                    let flags = ParticipationFlags::all();
                    spec.merge_current_participation(ValidatorIndex::from(i), flags);
                }
                spec.advance_epoch(None);
                let m = cohort.class_floor(0).expect("non-empty");
                let v = &spec.validators()[0];
                let context = format!("balance {balance} at epoch {epoch}");
                assert_eq!(m.effective_balance, v.effective_balance, "{context}");
                assert_eq!(m.balance, spec.balances()[0], "{context}");
            }
        }
    }

    /// Drives a dense and a cohort backend through the same schedule and
    /// asserts equal snapshots after every epoch.
    fn assert_equivalent(
        config: ChainConfig,
        classes: &[ClassSpec],
        epochs: u64,
        schedule: impl Fn(u64, usize) -> bool,
    ) {
        let mut dense = DenseState::from_classes(config.clone(), classes);
        let mut cohort = CohortState::from_classes(config, classes);
        assert_eq!(dense.snapshot(), cohort.snapshot(), "genesis");
        for epoch in 0..epochs {
            for class in 0..classes.len() {
                if schedule(epoch, class) {
                    dense.mark_class(class, ParticipationFlags::all());
                    cohort.mark_class(class, ParticipationFlags::all());
                }
            }
            dense.advance_epoch(None);
            cohort.advance_epoch(None);
            assert_eq!(dense.snapshot(), cohort.snapshot(), "epoch {epoch}");
        }
    }

    #[test]
    fn healthy_chain_matches_dense_and_finalizes() {
        let classes = [full(16)];
        let mut cohort = CohortState::from_classes(ChainConfig::minimal(), &classes);
        for _ in 0..6 {
            cohort.mark_class(0, ParticipationFlags::all());
            cohort.advance_epoch(None);
        }
        assert_eq!(cohort.finalized_checkpoint().epoch, Epoch::new(4));
        assert!(!cohort.is_in_inactivity_leak());
        assert_equivalent(ChainConfig::minimal(), &classes, 8, |_, _| true);
    }

    #[test]
    fn idle_chain_leaks_identically() {
        assert_equivalent(ChainConfig::minimal(), &[full(8), full(8)], 12, |_, _| {
            false
        });
    }

    #[test]
    fn mixed_schedule_matches_dense() {
        // Class 0 always attests, class 1 every other epoch, class 2 never
        // — the Fig. 2 cohort mix, under both penalty semantics.
        for config in [ChainConfig::minimal(), ChainConfig::paper()] {
            assert_equivalent(
                config,
                &[full(1), full(1), full(8)],
                24,
                |epoch, class| match class {
                    0 => true,
                    1 => epoch % 2 == 0,
                    _ => false,
                },
            );
        }
    }

    #[test]
    fn single_flag_marking_matches_dense() {
        // A member that misses exactly one of source / target pays that
        // flag's penalty alone, so the two remembered penalties must be
        // the right way round.
        let classes = [full(8), full(8), full(4)];
        let target = flag_set(&[TIMELY_TARGET_FLAG_INDEX]);
        let source_head = flag_set(&[TIMELY_SOURCE_FLAG_INDEX, TIMELY_HEAD_FLAG_INDEX]);
        for config in [ChainConfig::minimal(), ChainConfig::paper()] {
            let mut dense = DenseState::from_classes(config.clone(), &classes);
            let mut cohort = CohortState::from_classes(config, &classes);
            for epoch in 0..12 {
                for (class, flags) in [(0, target), (1, source_head)] {
                    dense.mark_class(class, flags);
                    cohort.mark_class(class, flags);
                }
                dense.advance_epoch(None);
                cohort.advance_epoch(None);
                assert_eq!(dense.snapshot(), cohort.snapshot(), "epoch {epoch}");
            }
        }
    }

    #[test]
    fn genesis_ejection_boundary_matches_dense() {
        // 16.5 ETH snaps to a 16-ETH effective balance at genesis, which
        // is at the ejection threshold: the class exits at epoch 1.
        let low = ClassSpec {
            count: 4,
            balance: Gwei::from_eth_f64(16.5),
        };
        assert_equivalent(ChainConfig::minimal(), &[full(8), low], 6, |_, c| c == 0);
        let mut cohort = CohortState::from_classes(ChainConfig::minimal(), &[full(8), low]);
        for _ in 0..3 {
            cohort.mark_class(0, ParticipationFlags::all());
            cohort.advance_epoch(None);
        }
        let stats = cohort.class_stats(1);
        assert_eq!(stats.exited, 4);
        assert_eq!(cohort.class_stats(0).exited, 0);
    }

    #[test]
    fn sampled_marking_splits_and_merges_cohorts() {
        let mut cohort = CohortState::from_classes(ChainConfig::minimal(), &[full(10)]);
        cohort.mark_class_counted(0, ParticipationFlags::all(), &mut |_| 5);
        assert_eq!(cohort.num_cohorts(), 2); // split: 5 marked, 5 not
        let marked_stake = cohort.current_target_balance();
        assert_eq!(marked_stake, Gwei::from_eth_u64(5 * 32));
        // One epoch later the flags rotate; scores of the two halves
        // diverge, so the split persists…
        cohort.advance_epoch(None);
        assert_eq!(cohort.num_cohorts(), 2);
        // …until their states coincide again (everyone idle long enough
        // outside a leak recovers to score 0 — here both halves are again
        // distinct only through scores, so marking everyone keeps 2).
        let snap = cohort.snapshot();
        let total: u64 = snap.classes[0].iter().map(|(_, c)| c).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn counted_marking_splits_by_count_and_skips_exited_cohorts() {
        let mut cohort = CohortState::from_classes(ChainConfig::minimal(), &[full(10)]);
        let mut calls = Vec::new();
        cohort.mark_class_counted(0, ParticipationFlags::all(), &mut |count| {
            calls.push(count);
            3
        });
        // One count draw for the single genesis cohort, split 3 / 7.
        assert_eq!(calls, vec![10]);
        assert_eq!(cohort.num_cohorts(), 2);
        assert_eq!(cohort.current_target_balance(), Gwei::from_eth_u64(3 * 32));

        // An exited cohort consumes no draw: eject a sub-16-ETH class
        // and verify only the live cohorts are offered.
        let low = ClassSpec {
            count: 4,
            balance: Gwei::from_eth_f64(16.5),
        };
        let mut cohort = CohortState::from_classes(ChainConfig::minimal(), &[full(8), low]);
        for _ in 0..3 {
            cohort.mark_class(0, ParticipationFlags::all());
            cohort.advance_epoch(None);
        }
        assert_eq!(cohort.class_stats(1).exited, 4);
        let mut calls = 0u64;
        cohort.mark_class_counted(1, ParticipationFlags::all(), &mut |_| {
            calls += 1;
            0
        });
        assert_eq!(calls, 0, "exited cohorts must not consume count draws");
    }

    #[test]
    fn counted_marking_overdraw_is_clamped_to_cohort_size() {
        let mut cohort = CohortState::from_classes(ChainConfig::minimal(), &[full(5)]);
        cohort.mark_class_counted(0, ParticipationFlags::all(), &mut |_| u64::MAX);
        assert_eq!(cohort.num_cohorts(), 1);
        assert_eq!(cohort.current_target_balance(), Gwei::from_eth_u64(5 * 32));
    }

    fn flag_set(indices: &[u8]) -> ParticipationFlags {
        let mut flags = ParticipationFlags::EMPTY;
        for &index in indices {
            flags.set(index);
        }
        flags
    }

    #[test]
    fn counted_marking_that_draws_nobody_keeps_the_chunk_shared() {
        let mut parent = CohortState::from_classes(ChainConfig::minimal(), &[full(10), full(6)]);
        parent.mark_class_counted(0, ParticipationFlags::all(), &mut |_| 4);
        let mut fork = parent.clone();
        let mut calls = 0;
        fork.mark_class_counted(0, ParticipationFlags::all(), &mut |_| {
            calls += 1;
            0
        });
        // The unmarked cohort was offered a draw, yet nothing was
        // written: both chunks are still the parent's allocations.
        assert_eq!(calls, 2);
        assert_eq!(parent.shared_chunks(&fork), 2);
        // Drawing members that already carry the flags writes nothing
        // either.
        fork.mark_class_counted(0, ParticipationFlags::all(), &mut |count| count);
        assert_eq!(parent.shared_chunks(&fork), 1);
        let marked = fork.clone();
        fork.mark_class_counted(0, ParticipationFlags::all(), &mut |count| count);
        assert_eq!(marked.shared_chunks(&fork), 2);
    }

    /// The four separate reads [`StateBackend::observe`] fuses.
    fn four_reads(state: &CohortState, class: usize) -> BranchObservation {
        BranchObservation {
            class: state.class_stats(class),
            exited_elsewhere: (0..state.num_classes())
                .filter(|&c| c != class)
                .map(|c| state.class_stats(c).exited)
                .sum(),
            total_active: state.total_active_balance(),
            current_target: state.current_target_balance(),
        }
    }

    #[test]
    fn fused_observation_equals_the_four_separate_reads() {
        // Class 2 starts at the ejection threshold and exits at epoch 1,
        // so "exited elsewhere" is nonzero from every other class's seat.
        let low = ClassSpec {
            count: 4,
            balance: Gwei::from_eth_f64(16.5),
        };
        let classes = [full(40), full(300), low];
        let target_only = flag_set(&[TIMELY_TARGET_FLAG_INDEX]);
        // Compact: whole-class marking keeps one cohort per class.
        let mut compact = CohortState::from_classes(ChainConfig::minimal(), &classes);
        // Fragmented: class 1 is count-marked by a fixed pseudo-random
        // sequence in a leak, so its hit/miss histories leak apart.
        let mut fragmented = compact.clone();
        let mut x = 9u64;
        for epoch in 0..40 {
            compact.mark_class(0, ParticipationFlags::all());
            fragmented.mark_class(0, target_only);
            fragmented.mark_class_counted(1, ParticipationFlags::all(), &mut |count| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) % (count + 1)
            });
            for state in [&compact, &fragmented] {
                for class in 0..classes.len() {
                    assert_eq!(
                        state.observe(class),
                        four_reads(state, class),
                        "epoch {epoch} class {class}"
                    );
                }
            }
            compact.advance_epoch(None);
            fragmented.advance_epoch(None);
        }
        assert_eq!(compact.num_cohorts(), 3);
        assert!(
            fragmented.num_cohorts() > 100,
            "{}",
            fragmented.num_cohorts()
        );
        // And the read is of the state, not of zeros.
        fragmented.mark_class(0, target_only);
        fragmented.mark_class_counted(1, target_only, &mut |count| count / 2);
        let seen = fragmented.observe(0);
        assert_eq!(seen.exited_elsewhere, 4);
        assert!(seen.current_target > seen.class.active_stake);
        assert!(seen.total_active > seen.current_target);
    }

    #[test]
    fn class_floor_reads_smallest_member() {
        let classes = [full(4), full(2)];
        let mut cohort = CohortState::from_classes(ChainConfig::minimal(), &classes);
        cohort.mark_class(0, ParticipationFlags::all());
        for _ in 0..6 {
            cohort.advance_epoch(None);
            cohort.mark_class(0, ParticipationFlags::all());
        }
        let active = cohort.class_floor(0).unwrap();
        let idle = cohort.class_floor(1).unwrap();
        assert!(active.balance >= idle.balance);
        assert_eq!(cohort.class_floor(2), None);
    }

    // ── copy-on-write aliasing ──────────────────────────────────────────

    #[test]
    fn fork_shares_every_chunk_until_a_mutation() {
        let classes = [full(330_000), full(335_000), full(335_000)];
        let parent = CohortState::from_classes(ChainConfig::paper(), &classes);
        let fork = parent.clone();
        // A forked million-validator state shares all of its storage.
        assert_eq!(parent.shared_chunks(&fork), 3);
        // Mutating one class in the fork unshares exactly that chunk.
        let mut fork = fork;
        fork.mark_class(1, ParticipationFlags::all());
        assert_eq!(parent.shared_chunks(&fork), 2);
    }

    #[test]
    fn mutation_after_fork_never_leaks_into_the_sibling() {
        let classes = [full(4), full(4)];
        let mut parent = CohortState::from_classes(ChainConfig::minimal(), &classes);
        for _ in 0..3 {
            parent.mark_class(0, ParticipationFlags::all());
            parent.mark_class(1, ParticipationFlags::all());
            parent.advance_epoch(None);
        }
        let before = parent.snapshot();
        let mut sibling = parent.clone();
        // Diverge the sibling hard: different marking, several epochs.
        for _ in 0..5 {
            sibling.mark_class(0, ParticipationFlags::all());
            sibling.advance_epoch(None);
        }
        assert_eq!(parent.snapshot(), before, "sibling mutations leaked");
        assert_ne!(sibling.snapshot(), before);
        // And the parent advancing afterwards does not disturb the sibling.
        let sibling_snap = sibling.snapshot();
        parent.mark_class(1, ParticipationFlags::all());
        parent.advance_epoch(None);
        assert_eq!(sibling.snapshot(), sibling_snap);
    }

    #[test]
    fn stable_chunks_stay_shared_across_epochs() {
        // Class 1 is ejected early (16-ETH effective balance at genesis);
        // once exited and idle its chunk is a fixed point of epoch
        // processing, so two forks keep sharing it while their active
        // classes diverge.
        let low = ClassSpec {
            count: 4,
            balance: Gwei::from_eth_f64(16.5),
        };
        let mut parent = CohortState::from_classes(ChainConfig::minimal(), &[full(8), low]);
        for _ in 0..4 {
            parent.mark_class(0, ParticipationFlags::all());
            parent.advance_epoch(None);
        }
        assert_eq!(parent.class_stats(1).exited, 4);
        let mut fork = parent.clone();
        for _ in 0..3 {
            fork.mark_class(0, ParticipationFlags::all());
            fork.advance_epoch(None);
        }
        // The exited class's chunk is still the parent's allocation.
        assert!(parent.shared_chunks(&fork) >= 1);
        assert_eq!(parent.snapshot().classes[1], fork.snapshot().classes[1]);
    }

    #[test]
    fn transform_chunk_steps_each_run_exactly_once() {
        let base = CohortState::from_classes(ChainConfig::minimal(), &[full(1)])
            .class_floor(0)
            .unwrap();
        let with_score = |score| MemberState {
            inactivity_score: score,
            ..base
        };
        let runs: Vec<Run> = (0..6).map(|score| (with_score(score), 1)).collect();
        // A step that fixes scores below `first_changed` and bumps the
        // rest by 10 (order-preserving, so the outcome is easy to state).
        for first_changed in 0..=6u64 {
            let mut chunk = Chunk::from_vec(runs.clone());
            let shared = chunk.clone();
            let mut seen = Vec::new();
            transform_chunk(&mut chunk, &mut SortScratch::default(), |m| {
                seen.push(m.inactivity_score);
                let bump = if m.inactivity_score >= first_changed {
                    10
                } else {
                    0
                };
                with_score(m.inactivity_score + bump)
            });
            // Every run is offered to the step once, in order, as it was
            // before the step — the first changed run is not re-stepped.
            assert_eq!(seen, [0, 1, 2, 3, 4, 5], "first changed {first_changed}");
            let scores: Vec<u64> = chunk.iter().map(|(m, _)| m.inactivity_score).collect();
            let expected: Vec<u64> = (0..6)
                .map(|s| if s >= first_changed { s + 10 } else { s })
                .collect();
            assert_eq!(scores, expected);
            // Nothing changed ⇒ nothing written: still the shared allocation.
            assert_eq!(chunk.is_shared_with(&shared), first_changed == 6);
        }
    }

    // ── chunk representation ────────────────────────────────────────────

    /// Every chunk holds one run exactly when it is inline.
    fn assert_one_iff_single_run(state: &CohortState) {
        for (class, chunk) in state.chunks.iter().enumerate() {
            assert_eq!(
                matches!(chunk, Chunk::One(_)),
                chunk.len() == 1,
                "class {class}: {chunk:?}"
            );
        }
    }

    #[test]
    fn paper_schedule_keeps_every_class_inline() {
        // Fig. 2's mix at n = 10⁶: active, semi-active and inactive
        // classes, deep into the leak.
        let config = ChainConfig::paper();
        let classes = [
            ClassSpec::full_stake(600_000, &config),
            ClassSpec::full_stake(200_000, &config),
            ClassSpec::full_stake(200_000, &config),
        ];
        let mut state = CohortState::from_classes(config, &classes);
        for epoch in 0..100 {
            state.mark_class(0, ParticipationFlags::all());
            if epoch % 2 == 0 {
                state.mark_class(1, ParticipationFlags::all());
            }
            state.advance_epoch(None);
            assert!(
                state.chunks.iter().all(|c| matches!(c, Chunk::One(_))),
                "epoch {epoch}"
            );
        }
        assert!(state.is_in_inactivity_leak());
        assert_eq!(state.num_cohorts(), 3);
    }

    #[test]
    fn split_class_goes_inline_again_when_it_merges() {
        let classes = [full(10), full(6)];
        let never_split = {
            let mut state = CohortState::from_classes(ChainConfig::minimal(), &classes);
            state.mark_class(0, ParticipationFlags::all());
            state
        };
        // Merged by the member map: a whole-class mark after a split.
        let mut by_map = CohortState::from_classes(ChainConfig::minimal(), &classes);
        by_map.mark_class_counted(0, ParticipationFlags::all(), &mut |_| 4);
        assert!(matches!(&by_map.chunks[0], Chunk::Many(runs) if runs.len() == 2));
        assert_one_iff_single_run(&by_map);
        let mut by_count = by_map.clone();
        by_map.mark_class(0, ParticipationFlags::all());
        assert!(matches!(by_map.chunks[0], Chunk::One(_)));
        assert_eq!(by_map, never_split);
        // Merged by counted marking: the rest of the class drawn.
        by_count.mark_class_counted(0, ParticipationFlags::all(), &mut |count| count);
        assert!(matches!(by_count.chunks[0], Chunk::One(_)));
        assert_eq!(by_count, never_split);
        // And the merged states step on as the never-split one does.
        let mut never_split = never_split;
        for state in [&mut by_map, &mut by_count, &mut never_split] {
            state.advance_epoch(None);
            assert_one_iff_single_run(state);
        }
        assert_eq!(by_map, never_split);
        assert_eq!(by_count, never_split);
    }

    #[test]
    fn fork_shares_both_variants_until_one_inline_class_changes() {
        let classes = [full(10), full(6), full(4)];
        let mut parent = CohortState::from_classes(ChainConfig::minimal(), &classes);
        parent.mark_class_counted(0, ParticipationFlags::all(), &mut |_| 4);
        assert!(matches!(parent.chunks[0], Chunk::Many(_)));
        assert!(matches!(parent.chunks[1], Chunk::One(_)));
        let mut fork = parent.clone();
        assert_eq!(parent.shared_chunks(&fork), 3);
        fork.mark_class(1, ParticipationFlags::all());
        assert_eq!(parent.shared_chunks(&fork), 2);
        // Rewriting an inline run with its own value leaves it shared.
        fork.mark_class(2, ParticipationFlags::EMPTY);
        assert_eq!(parent.shared_chunks(&fork), 2);
    }

    #[test]
    fn cow_state_equals_its_fork_logically() {
        let mut a = CohortState::from_classes(ChainConfig::minimal(), &[full(6)]);
        a.mark_class(0, ParticipationFlags::all());
        a.advance_epoch(None);
        let b = a.clone();
        assert_eq!(a, b);
        let mut c = b.clone();
        c.advance_epoch(None);
        assert_ne!(a, c);
    }

    // ── canonical form ──────────────────────────────────────────────────

    /// The definition `canonicalize` must match: comparison-sort the
    /// runs, then merge equal neighbours.
    fn sort_then_merge(mut runs: Vec<Run>) -> Vec<Run> {
        runs.sort_unstable();
        let mut merged: Vec<Run> = Vec::new();
        for (m, count) in runs {
            match merged.last_mut() {
                Some(last) if last.0 == m => last.1 += count,
                _ => merged.push((m, count)),
            }
        }
        merged
    }

    /// A leaking branch justifies nothing, so the branch labels it is
    /// fed stay unhashed in both backends' windows. A run fed labels
    /// equals one fed the roots hashed up front, snapshot for snapshot
    /// and state for state, at every epoch: through the leak and
    /// through the justifications that end it.
    #[test]
    fn labels_stay_unresolved_in_a_leak_and_match_eager_roots() {
        use crate::backend::synthetic_branch_root;
        let config = ChainConfig::paper();
        let classes = [
            ClassSpec::full_stake(60, &config),
            ClassSpec::full_stake(40, &config),
        ];
        let label = |epoch| RootLabel::Branch { id: 3, epoch };
        let eager = |epoch| Some(RootLabel::Root(synthetic_branch_root(3, epoch)));
        let mut lazy_dense = DenseState::from_classes(config.clone(), &classes);
        let mut lazy_cohort = CohortState::from_classes(config, &classes);
        let (mut eager_dense, mut eager_cohort) = (lazy_dense.clone(), lazy_cohort.clone());
        let unresolved = |roots: [RootLabel; 2]| {
            roots
                .iter()
                .all(|root| matches!(root, RootLabel::Branch { .. }))
        };
        for epoch in 0..130u64 {
            // Class 0 alone holds 60 % of the stake; from epoch 110 on
            // both classes attest and the chain justifies again.
            let attesting = if epoch < 110 { 1 } else { 2 };
            for class in 0..attesting {
                lazy_dense.mark_class(class, ParticipationFlags::all());
                eager_dense.mark_class(class, ParticipationFlags::all());
                lazy_cohort.mark_class(class, ParticipationFlags::all());
                eager_cohort.mark_class(class, ParticipationFlags::all());
            }
            lazy_dense.advance_epoch(Some(label(epoch + 1)));
            eager_dense.advance_epoch(eager(epoch + 1));
            lazy_cohort.advance_epoch(Some(label(epoch + 1)));
            eager_cohort.advance_epoch(eager(epoch + 1));
            let snapshot = eager_cohort.snapshot();
            assert_eq!(lazy_cohort.snapshot(), snapshot, "epoch {epoch}");
            assert_eq!(lazy_dense.snapshot(), snapshot, "epoch {epoch}");
            assert_eq!(eager_dense.snapshot(), snapshot, "epoch {epoch}");
            assert_eq!(lazy_cohort, eager_cohort, "epoch {epoch}");
            assert_eq!(
                lazy_dense.beacon_state(),
                eager_dense.beacon_state(),
                "epoch {epoch}"
            );
            if lazy_cohort.finality_delay() == 100 {
                assert!(lazy_cohort.is_in_inactivity_leak());
                assert!(unresolved(lazy_cohort.epoch_roots), "epoch {epoch}");
                assert!(
                    unresolved(lazy_dense.beacon_state().epoch_roots()),
                    "epoch {epoch}"
                );
            }
        }
        assert!(!lazy_cohort.is_in_inactivity_leak());
        let finalized = lazy_cohort.finalized_checkpoint();
        assert!(finalized.epoch > Epoch::new(110));
        let root = synthetic_branch_root(3, finalized.epoch.as_u64());
        assert_eq!(finalized.root, root);
        // Justification resolved the label it named last, in place: the
        // previous epoch's, which the window still holds.
        let justified = lazy_cohort.current_justified;
        assert_eq!(justified.epoch, lazy_cohort.previous_epoch());
        assert!(matches!(
            lazy_cohort.epoch_roots,
            [RootLabel::Root(root), RootLabel::Branch { .. }] if root == justified.root
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Random runs with heavy balance ties, below and above the
        /// key-sort length threshold, at three balance spacings: 1 Gwei
        /// (one radix pass), ~1 ETH (every pass) and ~2³⁹ Gwei (a range
        /// whose top bits the key layout would drop — the comparison
        /// branch).
        #[test]
        fn canonicalize_is_sort_then_merge_adjacent(
            raw in proptest::collection::vec((0u64..40, 0u64..5, 0u8..8, 1u64..4), 0..700),
            spacing in 0usize..3,
            presorted in 0u8..4,
        ) {
            let spacing = [1u64, 1_000_000_007, (1 << 39) + 12_345][spacing];
            let base = CohortState::from_classes(ChainConfig::minimal(), &[full(1)])
                .class_floor(0)
                .unwrap();
            let mut runs: Vec<Run> = raw
                .iter()
                .map(|&(step, score, flags, count)| {
                    let member = MemberState {
                        balance: Gwei::new(16_000_000_000 + step * spacing),
                        inactivity_score: score,
                        previous_flags: flag_set(
                            &FLAG_INDICES.into_iter().filter(|i| flags >> i & 1 == 1).collect::<Vec<_>>(),
                        ),
                        ..base
                    };
                    (member, count)
                })
                .collect();
            // One equal-balance group above the random ones, in every
            // case: six runs arriving out of order, two pairs of which
            // merge inside the group.
            let tied = |score, count| {
                let member = MemberState {
                    balance: Gwei::new(16_000_000_000 + 40 * spacing),
                    inactivity_score: score,
                    ..base
                };
                (member, count)
            };
            let at = runs.len() / 2;
            runs.splice(at..at, [tied(3, 1), tied(1, 2), tied(2, 4)]);
            runs.extend([tied(1, 8), tied(0, 16), tied(3, 32)]);
            if presorted == 0 {
                // The early exit: sorted input, neighbours still unmerged.
                runs.sort_unstable();
            }
            let expected = sort_then_merge(runs.clone());
            canonicalize(&mut runs, &mut SortScratch::default());
            proptest::prop_assert_eq!(
                &runs[runs.len() - 4..],
                [tied(0, 16), tied(1, 10), tied(2, 4), tied(3, 33)]
            );
            proptest::prop_assert_eq!(runs, expected);
        }

        /// Either side of the point where `effective · score` outgrows a
        /// `u64`, the penalty is the quotient of the `u128` product, at
        /// the paper's leak denominator and at arbitrary ones.
        #[test]
        fn inactivity_penalty_is_the_wide_quotient(
            effective in 1u64..u64::MAX,
            nudge in 0u64..7,
            denominator in 1u64..u64::MAX,
            paper in proptest::any::<bool>(),
        ) {
            let denominator = if paper {
                ChainConfig::paper().inactivity_penalty_denominator()
            } else {
                denominator
            };
            let score = (u64::MAX / effective).saturating_add(nudge).saturating_sub(3);
            let wide = u128::from(effective) * u128::from(score) / u128::from(denominator);
            proptest::prop_assert_eq!(
                inactivity_penalty(effective, score, denominator),
                wide as u64
            );
        }
    }
}
