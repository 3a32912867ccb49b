//! The one interface every conditional branch predictor implements.
//!
//! [`PredictorCore`] is the trait the simulation engine (`tage_sim::engine`)
//! drives. Its associated `Lookup` type lets a predictor expose its *full*
//! observable output: the TAGE predictor exposes its provider/counter
//! observables, which is what the storage-free confidence classification is
//! built on, while baseline predictors use the flat [`Prediction`]. Every
//! lookup type carries a direction and a self-confidence margin
//! ([`PredictionOutcome`]), which is all the storage-based confidence
//! estimators need.
//!
//! [`BranchPredictor`] is the object-safe margin view: every
//! `PredictorCore` whose lookup is a [`Prediction`] is one, so
//! heterogeneous baseline fleets can be held as
//! `Box<dyn BranchPredictor + Send>`.

use core::fmt;

use tage_traces::snapshot::SnapshotError;

/// The outcome of a prediction lookup, carrying the self-confidence margin.
///
/// For counter-based predictors the margin is the distance of the counter
/// from its weak state; for neural predictors (perceptron, GEHL) it is the
/// absolute value of the prediction sum. The margin is what *self-confidence*
/// estimation (Jiménez & Lin; Seznec's O-GEHL usage) thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// The predicted direction (`true` = taken).
    pub taken: bool,
    /// The predictor-specific confidence margin (larger = more confident).
    pub margin: i64,
}

impl Prediction {
    /// Creates a prediction with the given direction and margin.
    pub fn new(taken: bool, margin: i64) -> Self {
        Prediction { taken, margin }
    }

    /// A prediction with no margin information.
    pub fn direction(taken: bool) -> Self {
        Prediction { taken, margin: 0 }
    }
}

impl fmt::Display for Prediction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (margin {})",
            if self.taken { "taken" } else { "not-taken" },
            self.margin
        )
    }
}

/// A predictor lookup result: its predicted direction and its
/// self-confidence margin.
///
/// Implemented by the flat [`Prediction`] and by richer observable outputs
/// such as `tage::TagePrediction` (whose margin is the provider counter's
/// distance from its weak state). The simulation engine only needs the
/// direction to score a lookup; the margin is what the storage-based
/// confidence estimators grade.
pub trait PredictionOutcome {
    /// The predicted direction (`true` = taken).
    fn predicted_taken(&self) -> bool;

    /// The predictor-specific confidence margin (larger = more confident).
    fn margin(&self) -> i64;
}

impl PredictionOutcome for Prediction {
    fn predicted_taken(&self) -> bool {
        self.taken
    }

    fn margin(&self) -> i64 {
        self.margin
    }
}

/// A trace-driven conditional branch predictor.
///
/// The simulation protocol is: call [`PredictorCore::predict`] for a branch
/// PC, resolve the branch, then call [`PredictorCore::update`] with the
/// actual outcome and the lookup that was made. Predictors keep their
/// speculative state (global history, folded histories) internally and
/// update it with the *resolved* outcome, which is exact for in-order
/// trace-driven simulation.
pub trait PredictorCore {
    /// The full observable output of one lookup.
    type Lookup: PredictionOutcome;

    /// Looks the predictor up for the conditional branch at `pc`.
    fn predict(&mut self, pc: u64) -> Self::Lookup;

    /// Updates the predictor with the resolved outcome of the branch at
    /// `pc`. `lookup` must be the value returned by the matching
    /// [`PredictorCore::predict`] call.
    fn update(&mut self, pc: u64, taken: bool, lookup: &Self::Lookup);

    /// Clears all dynamic state (tables, histories, statistics) while
    /// keeping the configuration, so the predictor starts a new trace cold.
    fn reset(&mut self);

    /// Total storage the predictor uses, in bits.
    fn storage_bits(&self) -> u64;

    /// A short human-readable name for reports.
    fn name(&self) -> String;

    /// Serializes the predictor's **full** dynamic state — tables,
    /// histories, RNG, statistics — into the versioned framed format of
    /// [`tage_traces::snapshot`]. Restoring the bytes into a predictor of
    /// the same specification (see [`PredictorCore::spec_digest`])
    /// continues the run bit-identically to never having stopped.
    fn snapshot(&self) -> Vec<u8>;

    /// Restores state previously captured by [`PredictorCore::snapshot`].
    ///
    /// The restore is all-or-nothing: on any error the predictor's state is
    /// exactly what it was before the call.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] carrying the byte offset of the problem
    /// when the bytes are truncated, corrupt, from a different format
    /// version, or from a different predictor specification.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError>;

    /// A digest of the predictor's *specification* — implementation name
    /// plus every structural configuration parameter, but no dynamic state.
    /// Two predictors accept each other's snapshots exactly when their
    /// digests match.
    fn spec_digest(&self) -> u64;
}

macro_rules! forward_predictor_core {
    ($($pointer:ty),*) => {$(
        impl<P: PredictorCore + ?Sized> PredictorCore for $pointer {
            type Lookup = P::Lookup;

            fn predict(&mut self, pc: u64) -> Self::Lookup {
                (**self).predict(pc)
            }

            fn update(&mut self, pc: u64, taken: bool, lookup: &Self::Lookup) {
                (**self).update(pc, taken, lookup)
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

            fn snapshot(&self) -> Vec<u8> {
                (**self).snapshot()
            }

            fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
                (**self).restore(bytes)
            }

            fn spec_digest(&self) -> u64 {
                (**self).spec_digest()
            }
        }
    )*};
}

forward_predictor_core!(&mut P, Box<P>);

/// The object-safe margin view of a predictor: any [`PredictorCore`] whose
/// lookup is the flat [`Prediction`]. It declares nothing of its own; the
/// blanket impl makes every baseline predictor one, so heterogeneous
/// fleets can be held as `Box<dyn BranchPredictor + Send>`.
pub trait BranchPredictor: PredictorCore<Lookup = Prediction> {}

impl<P: PredictorCore<Lookup = Prediction> + ?Sized> BranchPredictor for P {}

/// A transparent wrapper that forwards every [`PredictorCore`] call to the
/// predictor it holds. It adds nothing: any predictor already drives the
/// engine directly.
///
/// # Example
///
/// ```
/// use tage_predictors::{GsharePredictor, MarginPredictor, PredictorCore};
///
/// let mut core = MarginPredictor(GsharePredictor::new(10, 10));
/// let lookup = core.predict(0x4000);
/// core.update(0x4000, true, &lookup);
/// assert_eq!(core.name(), GsharePredictor::new(10, 10).name());
/// ```
#[derive(Debug)]
pub struct MarginPredictor<P>(pub P);

impl<P: PredictorCore> PredictorCore for MarginPredictor<P> {
    type Lookup = P::Lookup;

    fn predict(&mut self, pc: u64) -> Self::Lookup {
        self.0.predict(pc)
    }

    fn update(&mut self, pc: u64, taken: bool, lookup: &Self::Lookup) {
        self.0.update(pc, taken, lookup)
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

    fn snapshot(&self) -> Vec<u8> {
        self.0.snapshot()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.0.restore(bytes)
    }

    fn spec_digest(&self) -> u64 {
        self.0.spec_digest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BimodalPredictor;

    #[test]
    fn prediction_constructors() {
        let p = Prediction::new(true, 12);
        assert!(p.taken);
        assert_eq!(p.margin, 12);
        let d = Prediction::direction(false);
        assert!(!d.taken);
        assert_eq!(d.margin, 0);
        assert!(p.predicted_taken());
        assert!(!d.predicted_taken());
        assert_eq!(p.margin(), 12);
    }

    #[test]
    fn prediction_display() {
        assert!(format!("{}", Prediction::new(true, 3)).contains("taken"));
        assert!(format!("{}", Prediction::new(false, 3)).contains("not-taken"));
    }

    #[test]
    fn trait_is_object_safe() {
        // Compile-time check: the trait must be usable as a trait object so
        // that the simulation harness can store heterogeneous predictors.
        fn _takes_dyn(_p: &dyn BranchPredictor) {}
    }

    #[test]
    fn margin_predictor_adapts_a_trait_object() {
        let mut bimodal = BimodalPredictor::new(8);
        let mut core = MarginPredictor(&mut bimodal as &mut dyn BranchPredictor);
        for _ in 0..4 {
            let lookup = core.predict(0x2000);
            core.update(0x2000, true, &lookup);
        }
        assert!(core.predict(0x2000).predicted_taken());
        assert!(core.name().contains("bimodal"));
        assert!(core.storage_bits() > 0);
        core.reset();
        assert_eq!(
            core.predict(0x2000).margin(),
            1,
            "reset returns to the weak state"
        );
    }
}
