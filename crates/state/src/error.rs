//! State-transition errors.

use core::fmt;

use ethpos_types::Slot;

/// Errors returned by state processing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// Tried to rewind the state (`process_slots` target below state slot).
    SlotRegression {
        /// Slot of the state.
        state_slot: Slot,
        /// Requested target slot.
        target: Slot,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::SlotRegression { state_slot, target } => {
                write!(f, "cannot advance state at {state_slot} back to {target}")
            }
        }
    }
}

impl std::error::Error for StateError {}
