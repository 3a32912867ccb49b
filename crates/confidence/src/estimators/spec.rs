//! Enumerable baseline-estimator configurations for sweep grids.
//!
//! The confidence-scheme axis of a campaign grid mixes the paper's
//! storage-free TAGE classification with the storage-based baselines of this
//! module. [`EstimatorSpec`] names the baseline configurations: each variant
//! parses from a stable CLI token, enumerates for `--list`, and builds a
//! cold estimator instance per sweep point.

use tage_predictors::PredictionOutcome;

use super::{JrsEstimator, SelfConfidenceEstimator};
use crate::scheme::ConfidenceScheme;

/// A named, buildable baseline-estimator configuration — one value of the
/// confidence-scheme axis of a sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorSpec {
    /// The JRS resetting-counter estimator, `2^12` counters.
    JrsClassic,
    /// The Grunwald-enhanced JRS estimator (predicted direction in the
    /// index), `2^12` counters.
    JrsEnhanced,
    /// Self-confidence thresholding on the predictor's margin. The variant
    /// carries no threshold: margins scale with the predictor family, so
    /// [`EstimatorSpec::build`] takes it per predictor.
    SelfConfidence,
}

impl EstimatorSpec {
    /// Every baseline-estimator configuration, in grid-axis order.
    pub const ALL: [EstimatorSpec; 3] = [
        EstimatorSpec::JrsClassic,
        EstimatorSpec::JrsEnhanced,
        EstimatorSpec::SelfConfidence,
    ];

    /// The stable grid token naming this configuration.
    pub fn token(&self) -> &'static str {
        match self {
            EstimatorSpec::JrsClassic => "jrs-classic",
            EstimatorSpec::JrsEnhanced => "jrs-enhanced",
            EstimatorSpec::SelfConfidence => "self-confidence",
        }
    }

    /// Parses a grid token back into a configuration.
    pub fn parse(token: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|spec| spec.token() == token)
    }

    /// Builds a cold estimator instance grading lookups of type `L`.
    ///
    /// `margin_threshold` parameterises the self-confidence variant (the
    /// margin scale differs per predictor family) and is clamped to at
    /// least 1; the JRS variants ignore it.
    pub fn build<L: PredictionOutcome>(
        &self,
        margin_threshold: i64,
    ) -> Box<dyn ConfidenceScheme<L> + Send> {
        match self {
            EstimatorSpec::JrsClassic => Box::new(JrsEstimator::classic(12)),
            EstimatorSpec::JrsEnhanced => Box::new(JrsEstimator::enhanced(12)),
            EstimatorSpec::SelfConfidence => {
                Box::new(SelfConfidenceEstimator::new(margin_threshold.max(1)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage_predictors::Prediction;

    #[test]
    fn tokens_round_trip_and_are_unique() {
        for spec in EstimatorSpec::ALL {
            assert_eq!(EstimatorSpec::parse(spec.token()), Some(spec));
        }
        let mut tokens: Vec<&str> = EstimatorSpec::ALL.map(|s| s.token()).to_vec();
        tokens.sort_unstable();
        tokens.dedup();
        assert_eq!(tokens.len(), EstimatorSpec::ALL.len());
        assert_eq!(EstimatorSpec::parse("storage-free"), None);
    }

    #[test]
    fn every_spec_builds_a_working_estimator() {
        for spec in EstimatorSpec::ALL {
            let mut estimator = spec.build(20);
            let prediction = Prediction::new(true, 50);
            let _ = estimator.assess(0x4000, &prediction);
            estimator.observe(0x4000, &prediction, true);
            estimator.reset();
            assert!(!estimator.name().is_empty(), "{}", spec.token());
        }
    }

    #[test]
    fn self_confidence_threshold_is_clamped_positive() {
        let mut estimator = EstimatorSpec::SelfConfidence.build(0);
        // With the clamped threshold of 1 any nonzero margin is high.
        let level = estimator.assess(0, &Prediction::new(true, 5)).level;
        assert_eq!(level, crate::ConfidenceLevel::High);
    }
}
