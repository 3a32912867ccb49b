//! Storage-based baseline confidence estimators from the prior art.
//!
//! The paper's point is that TAGE needs *none* of these — confidence falls
//! out of observing the predictor. To quantify that claim the workspace also
//! implements the storage-based estimators the related-work section
//! discusses, so campaign grids can compare them head-to-head:
//!
//! * [`JrsEstimator`] — the resetting-counter estimator of Jacobsen,
//!   Rotenberg and Smith (MICRO 1996), a gshare-indexed table of saturating
//!   counters reset on each misprediction, optionally enhanced with the
//!   predicted direction in the index as proposed by Grunwald et al.
//!   (ISCA 1998);
//! * [`SelfConfidenceEstimator`] — the storage-free self-confidence scheme
//!   used with neural predictors (perceptron / O-GEHL): a prediction is high
//!   confidence when its margin (absolute prediction sum) clears a
//!   threshold.
//!
//! Each estimator is a [`ConfidenceScheme`](crate::ConfidenceScheme) over
//! every lookup type that exposes a direction and a margin
//! ([`PredictionOutcome`](tage_predictors::PredictionOutcome)), so the
//! simulation engine drives it beside any predictor, TAGE included, exactly
//! as it drives the storage-free classifier beside TAGE.

mod jrs;
mod self_confidence;
mod spec;

pub use jrs::{JrsEstimator, JrsIndexing};
pub use self_confidence::SelfConfidenceEstimator;
pub use spec::EstimatorSpec;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ConfidenceScheme;
    use tage::TagePrediction;
    use tage_predictors::Prediction;

    #[test]
    fn trait_is_object_safe() {
        // Every estimator boxes as a scheme over flat and TAGE lookups alike,
        // which is what `EstimatorSpec::build` hands the engine.
        fn _over_flat(_e: Box<dyn ConfidenceScheme<Prediction>>) {}
        fn _over_tage(_e: Box<dyn ConfidenceScheme<TagePrediction>>) {}
        _over_flat(Box::new(JrsEstimator::classic(4)));
        _over_tage(Box::new(SelfConfidenceEstimator::new(1)));
    }
}
