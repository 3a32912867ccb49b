//! The one confidence interface consumed by the simulation engine.
//!
//! Every confidence estimator in the workspace is a [`ConfidenceScheme`],
//! generic over the lookup type of the predictor it is attached to. The two
//! families differ only in what they read from that lookup:
//!
//! * the paper's **storage-free TAGE classification**
//!   ([`TageConfidenceClassifier`]) reads the provider component and
//!   counter value of a [`TagePrediction`] and yields one of the 7
//!   [`PredictionClass`]es;
//! * the **storage-based baselines** ([`crate::estimators`]) read only the
//!   direction and margin
//!   ([`PredictionOutcome`](tage_predictors::PredictionOutcome)) of any
//!   lookup, TAGE's included, and yield only a [`ConfidenceLevel`].
//!
//! The generic `tage_sim::engine::SimEngine` drives either through the
//! identical code path. The scheme's verdict is an [`Assessment`]: always a
//! level, plus the fine-grained class when the scheme can provide one.

use tage::TagePrediction;

use crate::class::{ConfidenceLevel, PredictionClass};
use crate::classifier::TageConfidenceClassifier;

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

macro_rules! forward_confidence_scheme {
    ($($pointer:ty),*) => {$(
        impl<L, S: ConfidenceScheme<L> + ?Sized> ConfidenceScheme<L> for $pointer {
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
    )*};
}

forward_confidence_scheme!(&mut S, Box<S>);

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

/// A transparent wrapper that forwards every [`ConfidenceScheme`] call to
/// the scheme it holds. It adds nothing: every estimator already drives the
/// engine directly.
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
pub struct EstimatorScheme<S>(pub S);

impl<L, S: ConfidenceScheme<L>> ConfidenceScheme<L> for EstimatorScheme<S> {
    fn assess(&mut self, pc: u64, lookup: &L) -> Assessment {
        self.0.assess(pc, lookup)
    }

    fn observe(&mut self, pc: u64, lookup: &L, taken: bool) {
        self.0.observe(pc, lookup, taken)
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
    use tage_predictors::Prediction;

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
        let mut jrs_on_tage = JrsEstimator::enhanced(8);
        let mut jrs_on_flat = JrsEstimator::enhanced(8);
        let mut margin = SelfConfidenceEstimator::with_medium(3, 1);
        for i in 0..2_000u64 {
            let pc = 0x4000 + (i % 13) * 8;
            let taken = i % 3 != 0;
            let lookup = predictor.predict(pc);
            let flat = Prediction::new(lookup.taken, i64::from(lookup.provider_magnitude));
            assert_eq!(
                jrs_on_tage.assess(pc, &lookup),
                jrs_on_flat.assess(pc, &flat)
            );
            assert_eq!(margin.assess(pc, &lookup), margin.assess(pc, &flat));
            jrs_on_tage.observe(pc, &lookup, taken);
            jrs_on_flat.observe(pc, &flat, taken);
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

        // Boxed and borrowed trait objects forward, with or without the
        // wrapper.
        let mut boxed: Box<dyn ConfidenceScheme<Prediction>> =
            Box::new(SelfConfidenceEstimator::new(10));
        assert!(boxed.assess(0, &Prediction::new(true, 99)).is_high());
        let mut scheme = EstimatorScheme(&mut *boxed);
        assert!(scheme.assess(0, &Prediction::new(true, 99)).is_high());
    }
}
