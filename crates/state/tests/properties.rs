//! Property-based invariants of the beacon-state transition under random
//! participation patterns.

use proptest::prelude::*;

use ethpos_state::participation::TIMELY_TARGET_FLAG_INDEX;
use ethpos_state::{BeaconState, ParticipationFlags};
use ethpos_types::{ChainConfig, Gwei, ValidatorIndex};

const N: usize = 12;

/// Drives `state` for `patterns.len()` epochs; bit `v` of `patterns[e]`
/// says whether validator `v` attests (timely target) at epoch `e`.
fn drive(state: &mut BeaconState, patterns: &[u16]) {
    let mut flags = ParticipationFlags::EMPTY;
    flags.set(TIMELY_TARGET_FLAG_INDEX);
    for &pat in patterns {
        for v in 0..N {
            if pat & (1 << v) != 0 {
                state.merge_current_participation(ValidatorIndex::from(v), flags);
            }
        }
        state.advance_epoch(None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Finalized epoch never exceeds the justified epoch, and both are
    /// monotone non-decreasing across arbitrary participation histories.
    #[test]
    fn finality_is_monotone_and_ordered(patterns in proptest::collection::vec(any::<u16>(), 1..24)) {
        let mut state = BeaconState::genesis(ChainConfig::paper(), N);
        let mut last_justified = 0u64;
        let mut last_finalized = 0u64;
        let mut flags = ParticipationFlags::EMPTY;
        flags.set(TIMELY_TARGET_FLAG_INDEX);
        for &pat in &patterns {
            for v in 0..N {
                if pat & (1 << v) != 0 {
                    state.merge_current_participation(ValidatorIndex::from(v), flags);
                }
            }
            state.advance_epoch(None);
            let j = state.current_justified_checkpoint().epoch.as_u64();
            let f = state.finalized_checkpoint().epoch.as_u64();
            prop_assert!(f <= j, "finalized {f} > justified {j}");
            prop_assert!(j >= last_justified, "justified regressed");
            prop_assert!(f >= last_finalized, "finalized regressed");
            last_justified = j;
            last_finalized = f;
        }
    }

    /// With attestation rewards off (paper config), no balance ever
    /// increases, and fully-active validators never lose anything.
    #[test]
    fn balances_never_increase_under_paper_config(patterns in proptest::collection::vec(any::<u16>(), 1..24)) {
        let mut state = BeaconState::genesis(ChainConfig::paper(), N);
        let mut prev: Vec<Gwei> = state.balances().to_vec();
        let mut flags = ParticipationFlags::EMPTY;
        flags.set(TIMELY_TARGET_FLAG_INDEX);
        for &pat in &patterns {
            for v in 0..N {
                if pat & (1 << v) != 0 {
                    state.merge_current_participation(ValidatorIndex::from(v), flags);
                }
            }
            state.advance_epoch(None);
            for (v, (&now, &before)) in state.balances().iter().zip(&prev).enumerate() {
                prop_assert!(now <= before, "validator {v} balance grew: {before} → {now}");
            }
            prev = state.balances().to_vec();
        }
    }

    /// Inactivity scores stay within the physical envelope `[0, 4·epochs]`
    /// and always-active validators keep score 0.
    #[test]
    fn inactivity_scores_bounded(patterns in proptest::collection::vec(any::<u16>(), 1..24)) {
        let mut state = BeaconState::genesis(ChainConfig::paper(), N);
        // validator 0 is always active regardless of the pattern
        let patched: Vec<u16> = patterns.iter().map(|p| p | 1).collect();
        drive(&mut state, &patched);
        let epochs = patched.len() as u64;
        prop_assert_eq!(state.inactivity_score(ValidatorIndex::new(0)), 0);
        for v in 0..N {
            let s = state.inactivity_score(ValidatorIndex::from(v));
            prop_assert!(s <= 4 * epochs, "score {s} exceeds 4·{epochs}");
        }
    }

    /// Effective balance tracks the actual balance within the hysteresis
    /// envelope: never more than 0.25 ETH above, never more than
    /// 1.25 ETH + 1 increment below.
    #[test]
    fn effective_balance_tracks_actual(patterns in proptest::collection::vec(any::<u16>(), 1..32)) {
        let mut state = BeaconState::genesis(ChainConfig::paper(), N);
        drive(&mut state, &patterns);
        for (v, bal) in state.validators().iter().zip(state.balances()) {
            let eff = v.effective_balance.as_u64() as i128;
            let actual = bal.as_u64() as i128;
            prop_assert!(eff <= actual + 250_000_000, "eff {eff} vs actual {actual}");
            prop_assert!(eff >= actual - 2_250_000_000, "eff {eff} vs actual {actual}");
        }
    }

    /// Supermajority participation each epoch ⇒ the chain keeps
    /// finalizing and never enters a leak, regardless of which minority
    /// abstains.
    #[test]
    fn supermajority_always_finalizes(abstainers in proptest::collection::vec(0usize..N, 1..24)) {
        let mut state = BeaconState::genesis(ChainConfig::paper(), N);
        let mut flags = ParticipationFlags::EMPTY;
        flags.set(TIMELY_TARGET_FLAG_INDEX);
        for &out in &abstainers {
            for v in 0..N {
                if v != out {
                    state.merge_current_participation(ValidatorIndex::from(v), flags);
                }
            }
            state.advance_epoch(None);
        }
        prop_assert!(!state.is_in_inactivity_leak());
        if abstainers.len() >= 4 {
            prop_assert!(state.finalized_checkpoint().epoch.as_u64() > 0);
        }
    }

    /// Slashing is idempotent and the slashed balance never resurrects.
    #[test]
    fn slashing_is_terminal(victims in proptest::collection::vec(0u64..N as u64, 1..8),
                            epochs in 1usize..12) {
        let mut state = BeaconState::genesis(ChainConfig::paper(), N);
        for &v in &victims {
            state.slash_validator(ValidatorIndex::new(v));
        }
        let balances_after_slash: Vec<Gwei> = state.balances().to_vec();
        drive(&mut state, &vec![0u16; epochs]);
        for &v in &victims {
            let i = v as usize;
            prop_assert!(state.validators()[i].slashed);
            prop_assert!(state.balance(ValidatorIndex::new(v)) <= balances_after_slash[i]);
            prop_assert!(state.validators()[i].exit_epoch.as_u64() <= 1);
        }
    }
}
