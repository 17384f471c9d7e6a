//! The searchable strategy space: compact genomes over per-branch duty
//! cycles, executed as [`ByzantineSchedule`]s.
//!
//! A [`Genome`] is two [`DutyGene`]s (one per branch: period, on-count,
//! phase) plus an optional feedback rule (dwell on a branch once both
//! branches can reach ⅔ with Byzantine help). The paper's hand-picked
//! strategies are **corners** of this space:
//!
//! | Paper strategy | Genome |
//! |---|---|
//! | `DualActive` (§5.2.1) | both branches `1/1@0`, no feedback |
//! | `ThresholdSeeker` (§5.2.3) | `1/2@0` vs `1/2@1`, no feedback |
//! | `SemiActive` (§5.2.2) | `1/2@0` vs `1/2@1`, dwell 2 |
//!
//! (`on/period@phase` notation.) [`ParamSchedule`] executes a genome as a
//! [`ByzantineSchedule`] and is **step-for-step identical** to the paper
//! implementations at those corners — a property the search leans on when
//! it claims to have *rediscovered* a paper strategy, and that the crate's
//! replay property tests pin.

use serde::Serialize;

use ethpos_sim::{BranchChoice, BranchStatus, ByzantineSchedule};

/// Largest duty period a mutation may reach (the exhaustive grid usually
/// stays coarser; see [`Genome::grid`]).
pub(crate) const MAX_MUTATION_PERIOD: u8 = 6;

/// Largest dwell length a mutation may reach.
pub(crate) const MAX_DWELL: u8 = 4;

/// One branch's duty cycle: active at epoch `e` iff
/// `(e + phase) % period < on`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct DutyGene {
    /// Cycle length in epochs (≥ 1).
    pub period: u8,
    /// Active epochs per cycle (`0..=period`).
    pub on: u8,
    /// Cycle offset (`0..period`).
    pub phase: u8,
}

impl DutyGene {
    /// The always-off gene.
    pub const OFF: DutyGene = DutyGene {
        period: 1,
        on: 0,
        phase: 0,
    };

    /// The always-on gene.
    pub const ON: DutyGene = DutyGene {
        period: 1,
        on: 1,
        phase: 0,
    };

    /// Alternation gene: active on even epochs (`phase` 0) or odd epochs
    /// (`phase` 1).
    pub const fn alternating(phase: u8) -> DutyGene {
        DutyGene {
            period: 2,
            on: 1,
            phase,
        }
    }

    /// Whether the duty cycle is active at `epoch`.
    pub fn active(&self, epoch: u64) -> bool {
        u64::from(self.on) > (epoch + u64::from(self.phase)) % u64::from(self.period)
    }

    /// Canonical form: constant genes (`on == 0` or `on == period`)
    /// collapse to [`DutyGene::OFF`] / [`DutyGene::ON`], and the phase is
    /// reduced modulo the period.
    pub fn canonical(mut self) -> DutyGene {
        self.period = self.period.max(1);
        self.on = self.on.min(self.period);
        if self.on == 0 {
            return DutyGene::OFF;
        }
        if self.on == self.period {
            return DutyGene::ON;
        }
        self.phase %= self.period;
        self
    }

    /// All canonical genes with `period ≤ max_period`, coarse periods
    /// first.
    fn all(max_period: u8) -> Vec<DutyGene> {
        let mut genes = vec![DutyGene::OFF, DutyGene::ON];
        for period in 2..=max_period.max(1) {
            for on in 1..period {
                for phase in 0..period {
                    genes.push(DutyGene { period, on, phase });
                }
            }
        }
        genes
    }

    /// Compact display: `on/period@phase` (or `off` / `on`).
    fn label(&self) -> String {
        match (*self, self.on) {
            (DutyGene::OFF, _) => "off".into(),
            (DutyGene::ON, _) => "on".into(),
            (g, _) => format!("{}/{}@{}", g.on, g.period, g.phase),
        }
    }
}

/// A point of the strategy space: one duty gene per branch plus the
/// feedback rule (`dwell == 0` disables it; `dwell ≥ 1` switches to a
/// [`SemiActive`](ethpos_sim::SemiActive)-style dwell of that many
/// epochs per branch once both branches can reach ⅔ with Byzantine help).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Genome {
    /// Duty cycle per branch.
    pub duty: [DutyGene; 2],
    /// Dwell length of the feedback rule (0 = pure duty cycle).
    pub dwell: u8,
}

impl Genome {
    /// The §5.2.1 corner: active on both branches every epoch.
    pub const DUAL_ACTIVE: Genome = Genome {
        duty: [DutyGene::ON, DutyGene::ON],
        dwell: 0,
    };

    /// The §5.2.3 corner: alternate forever, never finalize.
    pub const THRESHOLD_SEEKER: Genome = Genome {
        duty: [DutyGene::alternating(0), DutyGene::alternating(1)],
        dwell: 0,
    };

    /// The §5.2.2 corner: alternate, then dwell two epochs per branch
    /// once ⅔ is reachable on both.
    pub const SEMI_ACTIVE: Genome = Genome {
        duty: [DutyGene::alternating(0), DutyGene::alternating(1)],
        dwell: 2,
    };

    /// Canonical form (see [`DutyGene::canonical`]; the dwell is clamped
    /// to 4).
    pub fn canonical(self) -> Genome {
        Genome {
            duty: self.duty.map(DutyGene::canonical),
            dwell: self.dwell.min(MAX_DWELL),
        }
    }

    /// The exhaustive canonical grid with `period ≤ max_period`, each
    /// duty pair with and without the dwell-2 feedback rule.
    ///
    /// The three paper corners are seeded at the very front (the
    /// non-slashable alternation first, so even a budget-1 prefix holds
    /// a candidate every objective accepts), and the rest of the
    /// enumeration is **coarse-first** (pairs sorted by their larger
    /// period): a budget-truncated prefix is still a meaningful coarse
    /// grid, and contains all paper corners whenever at least three
    /// candidates are evaluated.
    ///
    /// ```
    /// use ethpos_search::Genome;
    ///
    /// let grid = Genome::grid(2);
    /// assert_eq!(grid.len(), 32); // 4 genes² × {no feedback, dwell 2}
    /// assert_eq!(
    ///     &grid[..3],
    ///     &[Genome::THRESHOLD_SEEKER, Genome::DUAL_ACTIVE, Genome::SEMI_ACTIVE],
    /// );
    /// ```
    pub fn grid(max_period: u8) -> Vec<Genome> {
        let genes = DutyGene::all(max_period);
        let mut pairs: Vec<[DutyGene; 2]> = genes
            .iter()
            .flat_map(|&a| genes.iter().map(move |&b| [a, b]))
            .collect();
        pairs.sort_by_key(|pair| (pair[0].period.max(pair[1].period), *pair));
        // Non-slashable first: a budget-truncated prefix then contains a
        // candidate every objective accepts, for any budget ≥ 1.
        let corners = [
            Genome::THRESHOLD_SEEKER,
            Genome::DUAL_ACTIVE,
            Genome::SEMI_ACTIVE,
        ];
        let mut grid = corners.to_vec();
        grid.extend(
            pairs
                .into_iter()
                .flat_map(|duty| [Genome { duty, dwell: 0 }, Genome { duty, dwell: 2 }])
                .filter(|g| !corners.contains(g)),
        );
        grid
    }

    /// A single deterministic mutation: tweaks one field of one gene (or
    /// the dwell), then canonicalizes.
    pub fn mutate<R: rand::Rng>(&self, rng: &mut R) -> Genome {
        let mut next = *self;
        match rng.random_range(0..7u32) {
            0 | 1 => {
                // re-draw one whole gene
                let b = rng.random_range(0..2usize);
                let period = rng.random_range(1..u32::from(MAX_MUTATION_PERIOD) + 1) as u8;
                next.duty[b] = DutyGene {
                    period,
                    on: rng.random_range(0..u32::from(period) + 1) as u8,
                    phase: rng.random_range(0..u32::from(period)) as u8,
                };
            }
            2 => {
                let b = rng.random_range(0..2usize);
                let g = &mut next.duty[b];
                g.period = (g.period + 1).min(MAX_MUTATION_PERIOD);
            }
            3 => {
                let b = rng.random_range(0..2usize);
                let g = &mut next.duty[b];
                g.period = g.period.saturating_sub(1).max(1);
            }
            4 => {
                let b = rng.random_range(0..2usize);
                let g = &mut next.duty[b];
                g.on = if rng.random_bool(0.5) {
                    (g.on + 1).min(g.period)
                } else {
                    g.on.saturating_sub(1)
                };
            }
            5 => {
                let b = rng.random_range(0..2usize);
                let g = &mut next.duty[b];
                g.phase = (g.phase + 1) % g.period.max(1);
            }
            _ => {
                next.dwell = if next.dwell == 0 {
                    2
                } else if rng.random_bool(0.5) {
                    (next.dwell + 1).min(MAX_DWELL)
                } else {
                    next.dwell - 1
                };
            }
        }
        next.canonical()
    }

    /// True if the duty cycles ever attest both branches in the same
    /// epoch — a statically detectable slashable double vote. (The dwell
    /// feedback only ever votes one branch, so it cannot add overlap.)
    /// No run mode calls it: it is the oracle of the replay property
    /// test in `tests/properties.rs`.
    pub fn statically_slashable(&self) -> bool {
        let lcm = {
            let (a, b) = (
                u64::from(self.duty[0].period),
                u64::from(self.duty[1].period),
            );
            let gcd = |mut a: u64, mut b: u64| {
                while b != 0 {
                    (a, b) = (b, a % b);
                }
                a
            };
            a / gcd(a, b) * b
        };
        (0..lcm).any(|e| self.duty[0].active(e) && self.duty[1].active(e))
    }

    /// The paper strategy this genome coincides with, if any (mirror
    /// alternation — phases swapped — also counts: it is the same
    /// strategy with the branch labels exchanged).
    pub fn paper_corner(&self) -> Option<&'static str> {
        let mirror = |g: &Genome| Genome {
            duty: [g.duty[1], g.duty[0]],
            dwell: g.dwell,
        };
        if *self == Genome::DUAL_ACTIVE {
            Some("dual-active (§5.2.1)")
        } else if *self == Genome::SEMI_ACTIVE || *self == mirror(&Genome::SEMI_ACTIVE) {
            Some("semi-active alternation + dwell (§5.2.2)")
        } else if *self == Genome::THRESHOLD_SEEKER || *self == mirror(&Genome::THRESHOLD_SEEKER) {
            Some("semi-active alternation (§5.2.2/§5.2.3)")
        } else {
            None
        }
    }

    /// Human-readable label, e.g. `b0 1/2@0 · b1 1/2@1 · dwell 2`.
    pub fn label(&self) -> String {
        let mut s = format!("b0 {} · b1 {}", self.duty[0].label(), self.duty[1].label());
        if self.dwell > 0 {
            s.push_str(&format!(" · dwell {}", self.dwell));
        }
        s
    }
}

/// Where the feedback state machine stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DwellState {
    /// Following the duty cycles, watching for ⅔ reachability.
    Free,
    /// Dwelling on `branch` since epoch `since`.
    Dwell {
        /// Branch being dwelled on.
        branch: usize,
        /// Epoch the dwell started.
        since: u64,
    },
    /// Both branches finalized; back to the duty cycles for good.
    Done,
}

/// A [`Genome`] executed as a participation schedule.
///
/// With `dwell == 0` the schedule is the pure (stateless) duty cycle.
/// With `dwell ≥ 1` it runs the duty cycles until both branches can reach
/// ⅔ with Byzantine help, then dwells `dwell` consecutive epochs on
/// branch 0 (waiting for it to finalize), then on branch 1, then resumes
/// the duty cycles — for the [`Genome::SEMI_ACTIVE`] corner this is
/// step-for-step the paper's [`SemiActive`](ethpos_sim::SemiActive)
/// state machine.
#[derive(Debug, Clone)]
pub struct ParamSchedule {
    genome: Genome,
    state: DwellState,
}

impl ParamSchedule {
    /// Creates the schedule for `genome`.
    pub fn new(genome: Genome) -> Self {
        ParamSchedule {
            genome,
            state: DwellState::Free,
        }
    }

    fn duty(&self, epoch: u64) -> BranchChoice {
        BranchChoice::from([
            self.genome.duty[0].active(epoch),
            self.genome.duty[1].active(epoch),
        ])
    }
}

impl ByzantineSchedule for ParamSchedule {
    fn participate(&mut self, status: &[BranchStatus]) -> BranchChoice {
        assert_eq!(
            status.len(),
            2,
            "ParamSchedule genomes carry one duty gene per branch of the \
             two-branch search space"
        );
        let e = status[0].epoch;
        if self.genome.dwell == 0 {
            return self.duty(e);
        }
        let dwell = u64::from(self.genome.dwell);
        match self.state {
            DwellState::Free => {
                if status[0].two_thirds_reachable() && status[1].two_thirds_reachable() {
                    self.state = DwellState::Dwell {
                        branch: 0,
                        since: e,
                    };
                    BranchChoice::only(0)
                } else {
                    self.duty(e)
                }
            }
            DwellState::Dwell { branch, since } => {
                if e < since + dwell {
                    BranchChoice::only(branch)
                } else if status[branch].finalized_epoch + dwell >= since {
                    // this branch finalized (or will momentarily): move on
                    if branch == 0 {
                        self.state = DwellState::Dwell {
                            branch: 1,
                            since: e,
                        };
                        BranchChoice::only(1)
                    } else {
                        self.state = DwellState::Done;
                        BranchChoice::only(0)
                    }
                } else {
                    // keep dwelling until finalization shows up
                    BranchChoice::only(branch)
                }
            }
            DwellState::Done => self.duty(e),
        }
    }

    fn name(&self) -> &'static str {
        "param-schedule"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(branch: u32, epoch: u64, honest: u64, byz: u64, total: u64) -> BranchStatus {
        BranchStatus {
            branch: ethpos_types::BranchId::new(branch),
            epoch,
            total_active_stake: total,
            honest_active_stake: honest,
            byzantine_stake: byz,
            justified_epoch: 0,
            finalized_epoch: 0,
        }
    }

    #[test]
    fn duty_gene_corners_behave() {
        for e in 0..10 {
            assert!(!DutyGene::OFF.active(e));
            assert!(DutyGene::ON.active(e));
            assert_eq!(DutyGene::alternating(0).active(e), e % 2 == 0);
            assert_eq!(DutyGene::alternating(1).active(e), e % 2 == 1);
        }
    }

    #[test]
    fn canonicalization_collapses_constants() {
        let off = DutyGene {
            period: 4,
            on: 0,
            phase: 3,
        };
        assert_eq!(off.canonical(), DutyGene::OFF);
        let on = DutyGene {
            period: 3,
            on: 3,
            phase: 2,
        };
        assert_eq!(on.canonical(), DutyGene::ON);
        let mixed = DutyGene {
            period: 3,
            on: 2,
            phase: 5,
        };
        assert_eq!(mixed.canonical().phase, 2);
    }

    #[test]
    fn grid_is_canonical_and_unique() {
        for max_period in [2u8, 3, 4] {
            let grid = Genome::grid(max_period);
            let mut keys: Vec<Genome> = grid.clone();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), grid.len(), "duplicates at {max_period}");
            assert!(grid.iter().all(|g| g.canonical() == *g));
        }
    }

    #[test]
    fn grid_is_corners_then_coarse_first() {
        let grid = Genome::grid(4);
        assert_eq!(
            &grid[..3],
            &[
                Genome::THRESHOLD_SEEKER,
                Genome::DUAL_ACTIVE,
                Genome::SEMI_ACTIVE
            ]
        );
        let max_period = |g: &Genome| g.duty[0].period.max(g.duty[1].period);
        for w in grid[3..].windows(2) {
            assert!(max_period(&w[0]) <= max_period(&w[1]));
        }
        // the paper corners sit in the period ≤ 2 prefix
        let coarse: Vec<&Genome> = grid.iter().filter(|g| max_period(g) <= 2).collect();
        assert_eq!(coarse.len(), 32);
    }

    #[test]
    fn static_slashability_detects_overlap() {
        assert!(Genome::DUAL_ACTIVE.statically_slashable());
        assert!(!Genome::THRESHOLD_SEEKER.statically_slashable());
        assert!(!Genome::SEMI_ACTIVE.statically_slashable());
        // same-phase alternation double-votes every even epoch
        let same_phase = Genome {
            duty: [DutyGene::alternating(0), DutyGene::alternating(0)],
            dwell: 0,
        };
        assert!(same_phase.statically_slashable());
        // 1-of-3 against 1-of-2 overlaps somewhere in the lcm window
        let mixed = Genome {
            duty: [
                DutyGene {
                    period: 3,
                    on: 1,
                    phase: 0,
                },
                DutyGene::alternating(0),
            ],
            dwell: 0,
        };
        assert!(mixed.statically_slashable());
    }

    #[test]
    fn corners_are_recognized() {
        assert_eq!(
            Genome::DUAL_ACTIVE.paper_corner(),
            Some("dual-active (§5.2.1)")
        );
        assert!(Genome::SEMI_ACTIVE
            .paper_corner()
            .unwrap()
            .contains("§5.2.2"));
        assert!(Genome::THRESHOLD_SEEKER.paper_corner().is_some());
        // mirror alternation is the same strategy
        let mirror = Genome {
            duty: [DutyGene::alternating(1), DutyGene::alternating(0)],
            dwell: 0,
        };
        assert_eq!(
            mirror.paper_corner(),
            Genome::THRESHOLD_SEEKER.paper_corner()
        );
        assert_eq!(
            Genome {
                duty: [DutyGene::ON, DutyGene::OFF],
                dwell: 0
            }
            .paper_corner(),
            None
        );
    }

    #[test]
    fn dual_active_corner_matches_paper_impl() {
        use ethpos_sim::DualActive;
        let mut ours = ParamSchedule::new(Genome::DUAL_ACTIVE);
        let mut paper = DualActive;
        for e in 0..50 {
            let st = [status(0, e, 10, 5, 30), status(1, e, 12, 5, 30)];
            assert_eq!(ours.participate(&st), paper.participate(&st));
        }
    }

    #[test]
    fn threshold_seeker_corner_matches_paper_impl() {
        use ethpos_sim::ThresholdSeeker;
        let mut ours = ParamSchedule::new(Genome::THRESHOLD_SEEKER);
        let mut paper = ThresholdSeeker::new();
        for e in 0..50 {
            let st = [status(0, e, 50, 40, 100), status(1, e, 45, 40, 100)];
            assert_eq!(ours.participate(&st), paper.participate(&st));
        }
    }

    #[test]
    fn semi_active_corner_matches_paper_impl_through_the_dwell() {
        use ethpos_sim::SemiActive;
        let mut ours = ParamSchedule::new(Genome::SEMI_ACTIVE);
        let mut paper = SemiActive::new();
        // far from threshold: alternate
        for e in 0..9u64 {
            let st = [status(0, e, 10, 2, 100), status(1, e, 11, 2, 100)];
            assert_eq!(ours.participate(&st), paper.participate(&st), "epoch {e}");
        }
        // both reachable from epoch 9: dwell on 0, see it finalize at 11,
        // dwell on 1, see it finalize, done — then alternate forever
        let mut choices = Vec::new();
        for e in 9..30u64 {
            let mut st = [status(0, e, 50, 20, 100), status(1, e, 48, 20, 100)];
            st[0].finalized_epoch = if e >= 12 { 10 } else { 0 };
            st[1].finalized_epoch = if e >= 16 { 14 } else { 0 };
            let theirs = paper.participate(&st);
            assert_eq!(ours.participate(&st), theirs, "epoch {e}");
            choices.push(theirs);
        }
        // The paper's machine dwelt (a choice repeats), then finished and
        // went back to alternating.
        assert!(choices.windows(2).any(|w| w[0] == w[1]));
        assert!(choices[choices.len() - 8..]
            .windows(2)
            .all(|w| w[0] != w[1]));
    }

    #[test]
    fn mutation_stays_canonical_and_moves() {
        use ethpos_stats::SeedSequence;
        let seq = SeedSequence::new(3);
        let mut rng = seq.child_rng(0);
        let mut moved = 0;
        for _ in 0..200 {
            let m = Genome::SEMI_ACTIVE.mutate(&mut rng);
            assert_eq!(m, m.canonical());
            assert!(m.duty.iter().all(|g| g.period <= MAX_MUTATION_PERIOD));
            assert!(m.dwell <= MAX_DWELL);
            if m != Genome::SEMI_ACTIVE {
                moved += 1;
            }
        }
        assert!(moved > 150, "mutations too often identity: {moved}/200");
    }
}
