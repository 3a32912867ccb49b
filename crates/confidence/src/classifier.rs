//! The storage-free TAGE confidence classifier.

use core::fmt;

use tage::{TageBlueprint, TagePrediction};

use crate::class::PredictionClass;

/// Default length of the `medium-conf-bim` recency window: the number of
/// subsequent bimodal-provided predictions that are demoted to medium
/// confidence after a bimodal-provided misprediction ("up to 8 branches" in
/// the paper).
pub const DEFAULT_BIM_MISS_WINDOW: u32 = 8;

/// Classifies TAGE predictions into the paper's 7 classes by observing the
/// predictor's outputs only.
///
/// The classifier is *storage free* with respect to predictor state: its
/// only memory is a single small down-counter tracking how many
/// bimodal-provided predictions ago the last bimodal-provided misprediction
/// occurred, which is what distinguishes `medium-conf-bim` from
/// `high-conf-bim`.
///
/// Call [`TageConfidenceClassifier::classify`] with the prediction *before*
/// the branch resolves (that is what a real front-end would do), then
/// [`TageConfidenceClassifier::observe`] once the outcome is known so the
/// recency window can be maintained.
///
/// # Example
///
/// ```
/// use tage::{TageGeometry, TagePredictor};
/// use tage_confidence::{PredictionClass, TageConfidenceClassifier};
///
/// let config = TageGeometry::small();
/// let mut predictor = TagePredictor::new(config.clone());
/// let mut classifier = TageConfidenceClassifier::new(&config);
///
/// let prediction = predictor.predict(0x8004);
/// // Cold bimodal counters are weak, so the first look-up is low-conf-bim.
/// assert_eq!(classifier.classify(&prediction), PredictionClass::LowConfBim);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageConfidenceClassifier {
    counter_bits: u8,
    window_length: u32,
    window_remaining: u32,
}

impl TageConfidenceClassifier {
    /// Creates a classifier for predictors built from `blueprint` — a
    /// [`tage::TageGeometry`] or a reference to one —
    /// using the paper's 8-prediction `medium-conf-bim` window.
    pub fn new(blueprint: &dyn TageBlueprint) -> Self {
        Self::with_window(blueprint, DEFAULT_BIM_MISS_WINDOW)
    }

    /// Creates a classifier with a custom `medium-conf-bim` window length
    /// (0 disables the medium class entirely — used by the ablation bench).
    pub fn with_window(blueprint: &dyn TageBlueprint, window_length: u32) -> Self {
        TageConfidenceClassifier {
            counter_bits: blueprint.tage_geometry().counter_bits,
            window_length,
            window_remaining: 0,
        }
    }

    /// The configured window length.
    pub fn window_length(&self) -> u32 {
        self.window_length
    }

    /// How many upcoming bimodal-provided predictions will still be demoted
    /// to `medium-conf-bim`.
    pub fn window_remaining(&self) -> u32 {
        self.window_remaining
    }

    /// Restores the recency window to a previously observed value (clamped
    /// to the configured window length) — used when resuming a simulation
    /// from a predictor-state snapshot so the classifier picks up exactly
    /// where it left off.
    pub fn set_window_remaining(&mut self, remaining: u32) {
        self.window_remaining = remaining.min(self.window_length);
    }

    /// Classifies a prediction into one of the 7 classes.
    ///
    /// This is a pure observation of the predictor outputs (plus the
    /// classifier's recency window); it does not modify any state.
    pub fn classify(&self, prediction: &TagePrediction) -> PredictionClass {
        if prediction.is_bimodal_provided() {
            if prediction.provider_weak {
                PredictionClass::LowConfBim
            } else if self.window_remaining > 0 {
                PredictionClass::MediumConfBim
            } else {
                PredictionClass::HighConfBim
            }
        } else {
            let saturated_magnitude = (1u32 << self.counter_bits) - 1;
            let magnitude = u32::from(prediction.provider_magnitude);
            if magnitude >= saturated_magnitude {
                // Checked first so that narrow (2-bit) counters, whose
                // saturated magnitude is 3, still get a Stag class.
                PredictionClass::Stag
            } else if magnitude == 1 {
                PredictionClass::Wtag
            } else if magnitude == 3 {
                PredictionClass::NWtag
            } else {
                // Everything between "nearly weak" and "saturated": for the
                // paper's 3-bit counters this is exactly |2c+1| == 5.
                PredictionClass::NStag
            }
        }
    }

    /// Feeds the resolved outcome back so the `medium-conf-bim` recency
    /// window tracks bimodal-provided mispredictions.
    pub fn observe(&mut self, prediction: &TagePrediction, taken: bool) {
        if !prediction.is_bimodal_provided() {
            return;
        }
        if prediction.taken != taken {
            self.window_remaining = self.window_length;
        } else if self.window_remaining > 0 {
            self.window_remaining -= 1;
        }
    }

    /// Convenience: classify, then observe, in one call (the order the
    /// simulation loop needs).
    pub fn classify_and_observe(
        &mut self,
        prediction: &TagePrediction,
        taken: bool,
    ) -> PredictionClass {
        let class = self.classify(prediction);
        self.observe(prediction, taken);
        class
    }

    /// Resets the recency window (e.g. between traces).
    pub fn reset(&mut self) {
        self.window_remaining = 0;
    }
}

impl fmt::Display for TageConfidenceClassifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TAGE confidence classifier (window {}, {} remaining)",
            self.window_length, self.window_remaining
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage::{Provider, TageGeometry, TagePredictor};

    fn bim_prediction(counter: i8, taken: bool) -> TagePrediction {
        TagePrediction {
            taken,
            provider: Provider::Bimodal,
            provider_counter: counter,
            provider_magnitude: (2 * i16::from(counter) + 1).unsigned_abs() as u8,
            provider_weak: counter == 0 || counter == -1,
            alternate_taken: taken,
            alternate_provider: Provider::Bimodal,
            used_alternate: false,
            tables: tage::TableLookups::cold(4),
            bimodal_index: 0,
            bimodal_counter: counter,
        }
    }

    fn tagged_prediction(counter: i8, taken: bool) -> TagePrediction {
        TagePrediction {
            taken,
            provider: Provider::Tagged { table: 2 },
            provider_counter: counter,
            provider_magnitude: (2 * i16::from(counter) + 1).unsigned_abs() as u8,
            provider_weak: counter == 0 || counter == -1,
            alternate_taken: taken,
            alternate_provider: Provider::Bimodal,
            used_alternate: false,
            tables: tage::TableLookups::cold(4),
            bimodal_index: 0,
            bimodal_counter: 1,
        }
    }

    fn classifier() -> TageConfidenceClassifier {
        TageConfidenceClassifier::new(&TageGeometry::small())
    }

    #[test]
    fn weak_bimodal_counter_is_low_conf_bim() {
        let c = classifier();
        assert_eq!(
            c.classify(&bim_prediction(0, true)),
            PredictionClass::LowConfBim
        );
        assert_eq!(
            c.classify(&bim_prediction(-1, false)),
            PredictionClass::LowConfBim
        );
    }

    #[test]
    fn strong_bimodal_counter_far_from_miss_is_high_conf_bim() {
        let c = classifier();
        assert_eq!(
            c.classify(&bim_prediction(1, true)),
            PredictionClass::HighConfBim
        );
        assert_eq!(
            c.classify(&bim_prediction(-2, false)),
            PredictionClass::HighConfBim
        );
    }

    #[test]
    fn tagged_counter_magnitudes_map_to_wtag_nwtag_nstag_stag() {
        let c = classifier();
        assert_eq!(
            c.classify(&tagged_prediction(0, true)),
            PredictionClass::Wtag
        );
        assert_eq!(
            c.classify(&tagged_prediction(-1, false)),
            PredictionClass::Wtag
        );
        assert_eq!(
            c.classify(&tagged_prediction(1, true)),
            PredictionClass::NWtag
        );
        assert_eq!(
            c.classify(&tagged_prediction(-2, false)),
            PredictionClass::NWtag
        );
        assert_eq!(
            c.classify(&tagged_prediction(2, true)),
            PredictionClass::NStag
        );
        assert_eq!(
            c.classify(&tagged_prediction(-3, false)),
            PredictionClass::NStag
        );
        assert_eq!(
            c.classify(&tagged_prediction(3, true)),
            PredictionClass::Stag
        );
        assert_eq!(
            c.classify(&tagged_prediction(-4, false)),
            PredictionClass::Stag
        );
    }

    #[test]
    fn bimodal_misprediction_opens_the_medium_window() {
        let mut c = classifier();
        // A strong-counter bimodal prediction that turns out wrong.
        let wrong = bim_prediction(2, true);
        c.observe(&wrong, false);
        assert_eq!(c.window_remaining(), DEFAULT_BIM_MISS_WINDOW);
        // The next strong bimodal prediction is medium confidence.
        assert_eq!(
            c.classify(&bim_prediction(2, true)),
            PredictionClass::MediumConfBim
        );
        // Weak counters stay low confidence even inside the window.
        assert_eq!(
            c.classify(&bim_prediction(0, true)),
            PredictionClass::LowConfBim
        );
    }

    #[test]
    fn medium_window_closes_after_eight_correct_bimodal_predictions() {
        let mut c = classifier();
        c.observe(&bim_prediction(2, true), false); // miss opens the window
        for _ in 0..DEFAULT_BIM_MISS_WINDOW {
            assert_eq!(
                c.classify(&bim_prediction(2, true)),
                PredictionClass::MediumConfBim
            );
            c.observe(&bim_prediction(2, true), true);
        }
        assert_eq!(
            c.classify(&bim_prediction(2, true)),
            PredictionClass::HighConfBim
        );
    }

    #[test]
    fn tagged_predictions_do_not_consume_or_open_the_window() {
        let mut c = classifier();
        c.observe(&bim_prediction(2, true), false);
        let before = c.window_remaining();
        // A tagged misprediction neither extends nor shrinks the window.
        c.observe(&tagged_prediction(3, true), false);
        c.observe(&tagged_prediction(3, true), true);
        assert_eq!(c.window_remaining(), before);
    }

    #[test]
    fn repeated_bimodal_misses_keep_the_window_open() {
        let mut c = classifier();
        c.observe(&bim_prediction(2, true), false);
        for _ in 0..5 {
            c.observe(&bim_prediction(2, true), true);
        }
        c.observe(&bim_prediction(2, true), false);
        assert_eq!(c.window_remaining(), DEFAULT_BIM_MISS_WINDOW);
    }

    #[test]
    fn zero_window_disables_medium_conf_bim() {
        let mut c = TageConfidenceClassifier::with_window(&TageGeometry::small(), 0);
        c.observe(&bim_prediction(2, true), false);
        assert_eq!(
            c.classify(&bim_prediction(2, true)),
            PredictionClass::HighConfBim
        );
    }

    #[test]
    fn classify_and_observe_is_equivalent_to_the_two_calls() {
        let mut a = classifier();
        let mut b = classifier();
        let preds = [
            (bim_prediction(2, true), false),
            (bim_prediction(2, true), true),
            (tagged_prediction(0, true), false),
            (bim_prediction(-2, false), false),
            (bim_prediction(-2, false), true),
        ];
        for (pred, taken) in preds {
            let ca = a.classify_and_observe(&pred, taken);
            let cb = b.classify(&pred);
            b.observe(&pred, taken);
            assert_eq!(ca, cb);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn reset_clears_the_window() {
        let mut c = classifier();
        c.observe(&bim_prediction(2, true), false);
        assert!(c.window_remaining() > 0);
        c.reset();
        assert_eq!(c.window_remaining(), 0);
    }

    #[test]
    fn wider_counters_shift_the_saturated_threshold() {
        let config = TageGeometry {
            counter_bits: 4,
            ..TageGeometry::small()
        };
        let c = TageConfidenceClassifier::new(&config);
        // |2c+1| = 7 is *not* saturated for 4-bit counters.
        assert_eq!(
            c.classify(&tagged_prediction(3, true)),
            PredictionClass::NStag
        );
        // |2c+1| = 15 is.
        assert_eq!(
            c.classify(&tagged_prediction(7, true)),
            PredictionClass::Stag
        );
    }

    #[test]
    fn works_against_a_real_predictor_without_panicking() {
        let config = TageGeometry::small();
        let mut predictor = TagePredictor::new(config.clone());
        let mut c = TageConfidenceClassifier::new(&config);
        for i in 0..2000u64 {
            let pc = 0x1000 + (i % 16) * 4;
            let taken = i % 3 != 0;
            let pred = predictor.predict(pc);
            let class = c.classify_and_observe(&pred, taken);
            assert!(PredictionClass::ALL.contains(&class));
            predictor.update(pc, taken, &pred);
        }
    }

    #[test]
    fn display_mentions_window() {
        let c = classifier();
        assert!(format!("{c}").contains("window"));
    }
}
