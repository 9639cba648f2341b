//! Typed failures and step budgets for the back end.
//!
//! The design-space exploration runs this compiler thousands of times on
//! machine descriptions nobody has eyeballed; a pathological candidate
//! must surface as a *value*, not as an abort or a hung worker. Two
//! pieces provide that:
//!
//! * [`SchedError`] — everything the scheduling pipeline can refuse to
//!   do, so callers can quarantine one `(architecture, benchmark)` unit
//!   and keep sweeping;
//! * [`Fuel`] — a step budget threaded through the schedulers. Every
//!   inner-loop step spends fuel; when it runs out the compilation stops
//!   with [`SchedError::FuelExhausted`] instead of monopolizing a worker
//!   thread — in the exploration too, whose every compilation runs under
//!   its unit's budget. [`Fuel::unlimited`] preserves the exact legacy
//!   behaviour.

use std::error::Error;
use std::fmt;

/// Why a compilation could not be completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The step budget ran out before a schedule was found.
    FuelExhausted {
        /// The budget the caller granted.
        budget: u64,
    },
    /// The list scheduler exceeded its hard cycle cap — a resource the
    /// code needs is effectively absent from the machine.
    CycleCapExceeded {
        /// The cap that was hit.
        cap: u32,
    },
}

impl SchedError {
    /// Stable one-word token for trace fields and summaries.
    #[must_use]
    pub fn token(&self) -> &'static str {
        match self {
            SchedError::FuelExhausted { .. } => "fuel",
            SchedError::CycleCapExceeded { .. } => "cycle_cap",
        }
    }
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::FuelExhausted { budget } => {
                write!(f, "compilation exhausted its fuel budget of {budget} steps")
            }
            SchedError::CycleCapExceeded { cap } => {
                write!(f, "schedule exceeded the {cap}-cycle cap")
            }
        }
    }
}

impl Error for SchedError {}

/// A step budget for one compilation.
///
/// Fuel is deterministic: the schedulers spend it on loop trips, never
/// on wall-clock time, so two runs with the same inputs and budget make
/// identical progress on every platform. A budget of [`Fuel::unlimited`]
/// never exhausts and adds no observable behaviour change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fuel {
    /// Steps left; `None` means unlimited.
    remaining: Option<u64>,
    /// The budget this fuel started from (for error reports).
    budget: u64,
    /// Steps spent so far (counted even when unlimited, so a caller can
    /// price a completed compilation and re-charge it elsewhere — the
    /// exploration's compile cache charges a stored core's price to
    /// every later unit that asks for it, which keeps budgets
    /// deterministic under memoization).
    spent: u64,
}

impl Fuel {
    /// A budget that never exhausts.
    #[must_use]
    pub fn unlimited() -> Self {
        Fuel {
            remaining: None,
            budget: u64::MAX,
            spent: 0,
        }
    }

    /// A budget of exactly `steps` scheduler steps.
    #[must_use]
    pub fn limited(steps: u64) -> Self {
        Fuel {
            remaining: Some(steps),
            budget: steps,
            spent: 0,
        }
    }

    /// `limited` when `steps` is `Some`, `unlimited` otherwise.
    #[must_use]
    pub fn from_budget(steps: Option<u64>) -> Self {
        steps.map_or_else(Fuel::unlimited, Fuel::limited)
    }

    /// Spend `steps` units of fuel.
    ///
    /// # Errors
    /// Returns [`SchedError::FuelExhausted`] once the budget is gone;
    /// every later call keeps failing, so a scheduler loop cannot limp
    /// past its own abort.
    #[inline]
    pub fn spend(&mut self, steps: u64) -> Result<(), SchedError> {
        match &mut self.remaining {
            None => {
                self.spent = self.spent.saturating_add(steps);
                Ok(())
            }
            Some(left) => {
                if *left < steps {
                    *left = 0;
                    Err(SchedError::FuelExhausted {
                        budget: self.budget,
                    })
                } else {
                    *left -= steps;
                    self.spent = self.spent.saturating_add(steps);
                    Ok(())
                }
            }
        }
    }

    /// Steps left, if this budget is limited.
    #[inline]
    #[must_use]
    pub fn remaining(&self) -> Option<u64> {
        self.remaining
    }

    /// Steps successfully spent so far (exhausted attempts not counted).
    #[inline]
    #[must_use]
    pub fn spent(&self) -> u64 {
        self.spent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_fuel_never_exhausts() {
        let mut f = Fuel::unlimited();
        for _ in 0..1000 {
            f.spend(u64::MAX / 2).expect("unlimited");
        }
        assert_eq!(f.remaining(), None);
        assert_eq!(f.spent(), u64::MAX, "spent saturates, never wraps");
    }

    #[test]
    fn limited_fuel_exhausts_exactly_once_spent() {
        let mut f = Fuel::limited(10);
        f.spend(4).expect("within budget");
        f.spend(6).expect("exactly the budget");
        let err = f.spend(1).expect_err("over budget");
        assert_eq!(err, SchedError::FuelExhausted { budget: 10 });
        assert_eq!(f.spent(), 10, "the failed spend is not counted");
        // Exhaustion is sticky.
        assert!(f.spend(0).is_err() || f.remaining() == Some(0));
        assert!(f.spend(1).is_err());
    }

    #[test]
    fn from_budget_maps_none_to_unlimited() {
        assert_eq!(Fuel::from_budget(None), Fuel::unlimited());
        assert_eq!(Fuel::from_budget(Some(7)), Fuel::limited(7));
    }

    #[test]
    fn errors_render_their_numbers() {
        assert!(SchedError::FuelExhausted { budget: 42 }
            .to_string()
            .contains("42"));
        assert!(SchedError::CycleCapExceeded { cap: 9 }
            .to_string()
            .contains("9"));
    }
}
