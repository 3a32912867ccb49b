//! Running the storage-based baseline confidence estimators for comparison.
//!
//! The paper's related-work section describes confidence estimators designed
//! for pre-TAGE predictors: the JRS resetting-counter table, its Grunwald
//! enhancement, and the self-confidence of neural predictors. This module
//! runs any [`BranchPredictor`] together with any [`ConfidenceEstimator`]
//! over a trace and reports the binary confidence metrics (SENS, SPEC, PVP,
//! PVN) so the storage-free TAGE scheme can be compared against them.
//!
//! There is no bespoke loop here: the estimator is adapted through
//! [`tage_confidence::EstimatorScheme`], and the pair runs through the exact
//! same [`SimEngine`] path as the TAGE experiments.

use core::fmt;

use tage_confidence::{BinaryConfusion, ConfidenceEstimator, ConfidenceLevel, EstimatorScheme};
use tage_predictors::BranchPredictor;
use tage_traces::Trace;

use crate::engine::{ReportObserver, SimEngine};

/// The outcome of running a predictor plus a confidence estimator over a
/// trace.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRunResult {
    /// Name of the trace.
    pub trace_name: String,
    /// Name of the predictor.
    pub predictor_name: String,
    /// Name of the confidence estimator.
    pub estimator_name: String,
    /// Extra storage the estimator uses, in bits.
    pub estimator_storage_bits: u64,
    /// Confusion matrix treating `High` as high confidence and everything
    /// else as low confidence.
    pub confusion: BinaryConfusion,
    /// Number of conditional branches simulated.
    pub conditional_branches: u64,
    /// Number of mispredictions.
    pub mispredictions: u64,
    /// Per-level prediction counts (low, medium, high).
    pub level_predictions: [u64; 3],
    /// Per-level misprediction counts (low, medium, high).
    pub level_mispredictions: [u64; 3],
}

impl BaselineRunResult {
    /// Misprediction rate in mispredictions per kilo-prediction.
    pub fn mkp(&self) -> f64 {
        if self.conditional_branches == 0 {
            0.0
        } else {
            self.mispredictions as f64 * 1000.0 / self.conditional_branches as f64
        }
    }

    /// Misprediction rate of one confidence level, in MKP.
    pub fn level_mkp(&self, level: ConfidenceLevel) -> f64 {
        let i = level_index(level);
        if self.level_predictions[i] == 0 {
            0.0
        } else {
            self.level_mispredictions[i] as f64 * 1000.0 / self.level_predictions[i] as f64
        }
    }

    /// Prediction coverage of one confidence level.
    pub fn level_pcov(&self, level: ConfidenceLevel) -> f64 {
        if self.conditional_branches == 0 {
            0.0
        } else {
            self.level_predictions[level_index(level)] as f64 / self.conditional_branches as f64
        }
    }
}

fn level_index(level: ConfidenceLevel) -> usize {
    match level {
        ConfidenceLevel::Low => 0,
        ConfidenceLevel::Medium => 1,
        ConfidenceLevel::High => 2,
    }
}

impl fmt::Display for BaselineRunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} + {} on {}: {:.1} MKP, {}",
            self.predictor_name,
            self.estimator_name,
            self.trace_name,
            self.mkp(),
            self.confusion
        )
    }
}

/// Runs `predictor` with `estimator` over the conditional branches of
/// `trace` through the generic simulation engine.
pub fn run_baseline(
    predictor: &mut dyn BranchPredictor,
    estimator: &mut dyn ConfidenceEstimator,
    trace: &Trace,
) -> BaselineRunResult {
    let predictor_name = predictor.name();
    let estimator_name = estimator.name();
    let estimator_storage_bits = estimator.storage_bits();

    let mut report = ReportObserver::default();
    let mut engine = SimEngine::new(predictor, EstimatorScheme(estimator));
    engine.run(trace, &mut report);
    let report = report.report;

    let level_stats = |level| report.level(level);
    BaselineRunResult {
        trace_name: trace.name().to_string(),
        predictor_name,
        estimator_name,
        estimator_storage_bits,
        confusion: report.binary_confusion(&[ConfidenceLevel::High]),
        conditional_branches: report.total().predictions,
        mispredictions: report.total().mispredictions,
        level_predictions: [
            level_stats(ConfidenceLevel::Low).predictions,
            level_stats(ConfidenceLevel::Medium).predictions,
            level_stats(ConfidenceLevel::High).predictions,
        ],
        level_mispredictions: [
            level_stats(ConfidenceLevel::Low).mispredictions,
            level_stats(ConfidenceLevel::Medium).mispredictions,
            level_stats(ConfidenceLevel::High).mispredictions,
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage_confidence::estimators::{JrsEstimator, SelfConfidenceEstimator};
    use tage_predictors::{GsharePredictor, PerceptronPredictor};
    use tage_traces::suites;

    fn trace() -> Trace {
        suites::cbp1_like().trace("INT-1").unwrap().generate(20_000)
    }

    #[test]
    fn jrs_on_gshare_flags_most_correct_predictions_as_high_confidence() {
        let trace = trace();
        let mut predictor = GsharePredictor::new(12, 12);
        let mut estimator = JrsEstimator::classic(12);
        let result = run_baseline(&mut predictor, &mut estimator, &trace);
        assert_eq!(result.conditional_branches, 20_000);
        assert!(result.confusion.total() == 20_000);
        // High-confidence predictions must be more reliable than the average.
        assert!(result.confusion.pvp() > 1.0 - result.mkp() / 1000.0);
        // And low-confidence ones less reliable (positive PVN).
        assert!(result.confusion.pvn() > result.mkp() / 1000.0);
        assert!(result.estimator_storage_bits > 0);
    }

    #[test]
    fn self_confidence_on_perceptron_has_positive_pvn() {
        let trace = trace();
        let mut predictor = PerceptronPredictor::new(512, 24);
        let mut estimator = SelfConfidenceEstimator::new(40);
        let result = run_baseline(&mut predictor, &mut estimator, &trace);
        assert!(result.confusion.pvn() > result.mkp() / 1000.0);
        assert_eq!(result.estimator_storage_bits, 0);
        // Per-level accounting is consistent.
        let total: u64 = result.level_predictions.iter().sum();
        assert_eq!(total, result.conditional_branches);
        assert!(result.level_mkp(ConfidenceLevel::Low) >= result.level_mkp(ConfidenceLevel::High));
        assert!(result.level_pcov(ConfidenceLevel::High) > 0.0);
    }

    #[test]
    fn display_mentions_all_names() {
        let trace = suites::cbp1_like().trace("FP-1").unwrap().generate(1_000);
        let mut predictor = GsharePredictor::new(10, 10);
        let mut estimator = JrsEstimator::classic(10);
        let result = run_baseline(&mut predictor, &mut estimator, &trace);
        let s = format!("{result}");
        assert!(s.contains("gshare"));
        assert!(s.contains("jrs"));
        assert!(s.contains("FP-1"));
    }
}
