//! The unified confidence-scheme interface consumed by the simulation
//! engine.
//!
//! The workspace has two families of confidence estimation:
//!
//! * the paper's **storage-free TAGE classification**
//!   ([`TageConfidenceClassifier`]), which grades a prediction by observing
//!   the rich [`TagePrediction`] output (provider component, counter value)
//!   and yields one of the 7 [`PredictionClass`]es;
//! * the **storage-based baselines** ([`crate::estimators`]), which grade
//!   the direction and margin of any predictor's lookup
//!   ([`PredictionOutcome`]) and yield only a [`ConfidenceLevel`].
//!
//! [`ConfidenceScheme`] puts both behind one interface, generic over the
//! predictor's lookup type, so the generic `tage_sim::engine::SimEngine`
//! drives either through the identical code path. The scheme's verdict is an
//! [`Assessment`]: always a level, plus the fine-grained class when the
//! scheme can provide one.

use tage::TagePrediction;
use tage_predictors::{Prediction, PredictionOutcome};

use crate::class::{ConfidenceLevel, PredictionClass};
use crate::classifier::TageConfidenceClassifier;
use crate::estimators::ConfidenceEstimator;

/// The verdict a confidence scheme renders on one prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assessment {
    /// The three-way confidence level (always available).
    pub level: ConfidenceLevel,
    /// The fine-grained prediction class, when the scheme distinguishes one
    /// (the storage-free TAGE classification does; binary/ternary baseline
    /// estimators do not).
    pub class: Option<PredictionClass>,
}

impl Assessment {
    /// An assessment carrying a full prediction class; the level is the
    /// class's paper grouping.
    pub fn from_class(class: PredictionClass) -> Self {
        Assessment {
            level: class.level(),
            class: Some(class),
        }
    }

    /// An assessment carrying only a confidence level.
    pub fn level_only(level: ConfidenceLevel) -> Self {
        Assessment { level, class: None }
    }

    /// Returns `true` for a high-confidence assessment.
    pub fn is_high(&self) -> bool {
        self.level == ConfidenceLevel::High
    }
}

/// A confidence scheme attached to a predictor whose lookups have type `L`.
///
/// The protocol mirrors the predictor protocol and is what the simulation
/// engine drives for every conditional branch:
///
/// 1. [`ConfidenceScheme::assess`] with the lookup, *before* resolution
///    (this is what a real front-end would consume);
/// 2. [`ConfidenceScheme::observe`] with the resolved outcome, so stateful
///    schemes (the `medium-conf-bim` recency window, the JRS counters) can
///    learn.
pub trait ConfidenceScheme<L> {
    /// Grades one prediction before the branch resolves. Must not depend on
    /// the outcome.
    fn assess(&mut self, pc: u64, lookup: &L) -> Assessment;

    /// Feeds the resolved outcome back to the scheme.
    fn observe(&mut self, pc: u64, lookup: &L, taken: bool);

    /// Clears all dynamic state (e.g. between traces).
    fn reset(&mut self);

    /// Extra storage the scheme requires, in bits (zero for storage-free
    /// schemes).
    fn storage_bits(&self) -> u64 {
        0
    }

    /// A short human-readable name for reports.
    fn name(&self) -> String;
}

impl<L, S: ConfidenceScheme<L> + ?Sized> ConfidenceScheme<L> for &mut S {
    fn assess(&mut self, pc: u64, lookup: &L) -> Assessment {
        (**self).assess(pc, lookup)
    }

    fn observe(&mut self, pc: u64, lookup: &L, taken: bool) {
        (**self).observe(pc, lookup, taken)
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn storage_bits(&self) -> u64 {
        (**self).storage_bits()
    }

    fn name(&self) -> String {
        (**self).name()
    }
}

/// The storage-free TAGE classification as a [`ConfidenceScheme`]: grades
/// the rich [`TagePrediction`] lookup into one of the paper's 7 classes.
impl ConfidenceScheme<TagePrediction> for TageConfidenceClassifier {
    fn assess(&mut self, _pc: u64, lookup: &TagePrediction) -> Assessment {
        Assessment::from_class(self.classify(lookup))
    }

    fn observe(&mut self, _pc: u64, lookup: &TagePrediction, taken: bool) {
        TageConfidenceClassifier::observe(self, lookup, taken)
    }

    fn reset(&mut self) {
        TageConfidenceClassifier::reset(self)
    }

    fn name(&self) -> String {
        "storage-free-tage".to_string()
    }
}

/// Adapts any [`ConfidenceEstimator`] — concrete, `&mut` reference or trait
/// object — to the [`ConfidenceScheme`] interface over any lookup type: the
/// estimator grades the lookup's direction and margin as a flat
/// [`Prediction`] (for a TAGE lookup the margin is the provider counter's
/// distance from its weak state).
///
/// # Example
///
/// ```
/// use tage_confidence::estimators::JrsEstimator;
/// use tage_confidence::scheme::{ConfidenceScheme, EstimatorScheme};
/// use tage_predictors::Prediction;
///
/// let mut scheme = EstimatorScheme(JrsEstimator::classic(10));
/// let assessment = scheme.assess(0x44, &Prediction::new(true, 0));
/// assert!(assessment.class.is_none(), "baselines carry no class");
/// ```
#[derive(Debug)]
pub struct EstimatorScheme<E>(pub E);

/// The direction and margin of `lookup`, as the estimators consume them.
fn margin_view<L: PredictionOutcome>(lookup: &L) -> Prediction {
    Prediction::new(lookup.predicted_taken(), lookup.margin())
}

impl<L: PredictionOutcome, E: ConfidenceEstimator> ConfidenceScheme<L> for EstimatorScheme<E> {
    fn assess(&mut self, pc: u64, lookup: &L) -> Assessment {
        Assessment::level_only(self.0.estimate(pc, &margin_view(lookup)))
    }

    fn observe(&mut self, pc: u64, lookup: &L, taken: bool) {
        self.0.update(pc, &margin_view(lookup), taken)
    }

    fn reset(&mut self) {
        self.0.reset()
    }

    fn storage_bits(&self) -> u64 {
        self.0.storage_bits()
    }

    fn name(&self) -> String {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::{JrsEstimator, SelfConfidenceEstimator};
    use tage::{TageGeometry, TagePredictor};

    #[test]
    fn assessment_constructors() {
        let classed = Assessment::from_class(PredictionClass::Stag);
        assert_eq!(classed.level, ConfidenceLevel::High);
        assert_eq!(classed.class, Some(PredictionClass::Stag));
        assert!(classed.is_high());

        let bare = Assessment::level_only(ConfidenceLevel::Low);
        assert_eq!(bare.class, None);
        assert!(!bare.is_high());
    }

    #[test]
    fn classifier_scheme_matches_direct_classification() {
        let config = TageGeometry::small();
        let mut predictor = TagePredictor::new(config.clone());
        let mut direct = TageConfidenceClassifier::new(&config);
        let mut scheme = TageConfidenceClassifier::new(&config);
        for i in 0..500u64 {
            let pc = 0x4000 + (i % 13) * 8;
            let taken = i % 3 != 0;
            let lookup = predictor.predict(pc);
            let class = direct.classify_and_observe(&lookup, taken);
            let assessment = scheme.assess(pc, &lookup);
            ConfidenceScheme::observe(&mut scheme, pc, &lookup, taken);
            assert_eq!(assessment, Assessment::from_class(class));
            predictor.update(pc, taken, &lookup);
        }
        assert_eq!(ConfidenceScheme::storage_bits(&scheme), 0);
        assert!(ConfidenceScheme::name(&scheme).contains("storage-free"));
    }

    #[test]
    fn estimator_scheme_forwards_and_resets() {
        let mut scheme = EstimatorScheme(SelfConfidenceEstimator::new(10));
        let strong = Prediction::new(true, 50);
        let weak = Prediction::new(true, 1);
        assert!(scheme.assess(0x10, &strong).is_high());
        assert_eq!(scheme.assess(0x10, &weak).level, ConfidenceLevel::Low);
        scheme.observe(0x10, &strong, true);
        ConfidenceScheme::<Prediction>::reset(&mut scheme);
        assert_eq!(ConfidenceScheme::<Prediction>::storage_bits(&scheme), 0);
        assert!(ConfidenceScheme::<Prediction>::name(&scheme).contains("self-confidence"));
    }

    #[test]
    fn estimator_scheme_grades_tage_lookups_by_their_provider_margin() {
        let mut predictor = TagePredictor::new(TageGeometry::small());
        let mut on_tage = EstimatorScheme(JrsEstimator::enhanced(8));
        let mut on_flat = EstimatorScheme(JrsEstimator::enhanced(8));
        for i in 0..2_000u64 {
            let pc = 0x4000 + (i % 13) * 8;
            let taken = i % 3 != 0;
            let lookup = predictor.predict(pc);
            let flat = Prediction::new(lookup.taken, i64::from(lookup.provider_magnitude));
            assert_eq!(on_tage.assess(pc, &lookup), on_flat.assess(pc, &flat));
            on_tage.observe(pc, &lookup, taken);
            on_flat.observe(pc, &flat, taken);
            predictor.update(pc, taken, &lookup);
        }
    }

    #[test]
    fn schemes_work_through_mutable_references_and_trait_objects() {
        let config = TageGeometry::small();
        let mut classifier = TageConfidenceClassifier::new(&config);
        // &mut forwarding.
        let via_ref: &mut TageConfidenceClassifier = &mut classifier;
        let _ = ConfidenceScheme::name(&via_ref);
        via_ref.reset();

        // Estimator trait objects adapt through the same wrapper.
        let mut concrete = SelfConfidenceEstimator::new(10);
        let dyn_estimator: &mut dyn ConfidenceEstimator = &mut concrete;
        let mut scheme = EstimatorScheme(dyn_estimator);
        assert!(scheme.assess(0, &Prediction::new(true, 99)).is_high());
    }
}
