//! Self-confidence estimation for margin-producing predictors.

use core::fmt;

use tage_predictors::PredictionOutcome;

use crate::class::ConfidenceLevel;
use crate::scheme::{Assessment, ConfidenceScheme};

/// Storage-free self-confidence estimation: a prediction is high confidence
/// when its margin (absolute prediction sum for neural predictors, counter
/// magnitude for counter-based predictors) is at or above a threshold.
///
/// This is the scheme used with the perceptron predictor (Jiménez & Lin) and
/// the O-GEHL predictor; the paper notes it achieves a good PVN (about one
/// third of low-confidence predictions are mispredicted) but a limited SPEC
/// (only about half of the mispredictions are flagged low confidence).
///
/// An optional second threshold splits the high side further into medium and
/// high, mirroring the "strongly / weakly low confident" refinement of
/// Akkary et al.
///
/// # Example
///
/// ```
/// use tage_confidence::estimators::SelfConfidenceEstimator;
/// use tage_confidence::{ConfidenceLevel, ConfidenceScheme};
/// use tage_predictors::Prediction;
///
/// let mut estimator = SelfConfidenceEstimator::new(20);
/// assert_eq!(
///     estimator.assess(0x10, &Prediction::new(true, 35)).level,
///     ConfidenceLevel::High
/// );
/// assert_eq!(
///     estimator.assess(0x10, &Prediction::new(true, 5)).level,
///     ConfidenceLevel::Low
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelfConfidenceEstimator {
    high_threshold: i64,
    medium_threshold: Option<i64>,
}

impl SelfConfidenceEstimator {
    /// Creates a binary (high/low) self-confidence estimator.
    pub fn new(high_threshold: i64) -> Self {
        SelfConfidenceEstimator {
            high_threshold,
            medium_threshold: None,
        }
    }

    /// Creates a three-level estimator: margins at or above
    /// `high_threshold` are high confidence, margins at or above
    /// `medium_threshold` are medium, the rest are low.
    ///
    /// # Panics
    ///
    /// Panics if `medium_threshold > high_threshold`.
    pub fn with_medium(high_threshold: i64, medium_threshold: i64) -> Self {
        assert!(
            medium_threshold <= high_threshold,
            "medium threshold must not exceed the high threshold"
        );
        SelfConfidenceEstimator {
            high_threshold,
            medium_threshold: Some(medium_threshold),
        }
    }

    /// The high-confidence threshold.
    pub fn high_threshold(&self) -> i64 {
        self.high_threshold
    }
}

impl<L: PredictionOutcome> ConfidenceScheme<L> for SelfConfidenceEstimator {
    fn assess(&mut self, _pc: u64, lookup: &L) -> Assessment {
        let margin = lookup.margin();
        Assessment::level_only(if margin >= self.high_threshold {
            ConfidenceLevel::High
        } else if self.medium_threshold.is_some_and(|medium| margin >= medium) {
            ConfidenceLevel::Medium
        } else {
            ConfidenceLevel::Low
        })
    }

    fn observe(&mut self, _pc: u64, _lookup: &L, _taken: bool) {
        // Self-confidence keeps no state.
    }

    fn reset(&mut self) {
        // Self-confidence keeps no state.
    }

    fn name(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for SelfConfidenceEstimator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.medium_threshold {
            Some(m) => write!(
                f,
                "self-confidence (≥{} high, ≥{m} medium)",
                self.high_threshold
            ),
            None => write!(f, "self-confidence (≥{})", self.high_threshold),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage_predictors::Prediction;

    fn level(e: &mut SelfConfidenceEstimator, taken: bool, margin: i64) -> ConfidenceLevel {
        e.assess(0, &Prediction::new(taken, margin)).level
    }

    #[test]
    fn binary_estimator_thresholds_margin() {
        let mut e = SelfConfidenceEstimator::new(10);
        assert_eq!(level(&mut e, true, 10), ConfidenceLevel::High);
        assert_eq!(level(&mut e, true, 9), ConfidenceLevel::Low);
        assert_eq!(level(&mut e, false, 0), ConfidenceLevel::Low);
    }

    #[test]
    fn three_level_estimator_adds_medium_band() {
        let mut e = SelfConfidenceEstimator::with_medium(20, 8);
        assert_eq!(level(&mut e, true, 25), ConfidenceLevel::High);
        assert_eq!(level(&mut e, true, 12), ConfidenceLevel::Medium);
        assert_eq!(level(&mut e, true, 3), ConfidenceLevel::Low);
    }

    #[test]
    #[should_panic(expected = "medium threshold must not exceed the high threshold")]
    fn inverted_thresholds_rejected() {
        SelfConfidenceEstimator::with_medium(5, 10);
    }

    #[test]
    fn estimator_is_storage_free_and_stateless() {
        let mut e = SelfConfidenceEstimator::new(10);
        assert_eq!(ConfidenceScheme::<Prediction>::storage_bits(&e), 0);
        let before = e;
        e.observe(0x10, &Prediction::new(true, 50), false);
        assert_eq!(e, before);
    }

    #[test]
    fn name_and_display_mention_thresholds() {
        let e = SelfConfidenceEstimator::with_medium(20, 5);
        assert!(ConfidenceScheme::<Prediction>::name(&e).contains("20"));
        assert!(format!("{e}").contains("medium"));
        assert_eq!(e.high_threshold(), 20);
    }
}
