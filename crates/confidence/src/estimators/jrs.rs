//! The JRS resetting-counter confidence estimator and its Grunwald
//! enhancement.

use core::fmt;

use tage_predictors::counter::UnsignedCounter;
use tage_predictors::history::HistoryRegister;
use tage_predictors::PredictionOutcome;

use crate::class::ConfidenceLevel;
use crate::scheme::{Assessment, ConfidenceScheme};

/// How the JRS table is indexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JrsIndexing {
    /// The original JRS scheme: hash of the branch PC and the global
    /// history.
    PcHistory,
    /// The Grunwald et al. enhancement: the predicted direction is also
    /// hashed into the index, so taken and not-taken predictions of the same
    /// (PC, history) pair get separate confidence counters.
    PcHistoryPrediction,
}

impl fmt::Display for JrsIndexing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JrsIndexing::PcHistory => write!(f, "pc+history"),
            JrsIndexing::PcHistoryPrediction => write!(f, "pc+history+prediction"),
        }
    }
}

/// The JRS confidence estimator: a gshare-like indexed table of resetting
/// counters.
///
/// On a correct prediction the indexed counter is incremented (saturating);
/// on a misprediction it is reset to zero. A prediction is classified high
/// confidence when its counter is at or above the threshold — with 4-bit
/// counters and a threshold of 15 (the paper's cited trade-off), a branch is
/// high confidence only after 15 consecutive correct predictions for that
/// (PC, history) pair.
///
/// It grades any lookup by its predicted direction alone, so it attaches to
/// TAGE as readily as to the flat-margin baselines.
///
/// # Example
///
/// ```
/// use tage_confidence::estimators::{JrsEstimator, JrsIndexing};
/// use tage_confidence::{ConfidenceLevel, ConfidenceScheme};
/// use tage_predictors::Prediction;
///
/// let mut jrs = JrsEstimator::new(10, 4, 15, JrsIndexing::PcHistory);
/// let prediction = Prediction::new(true, 0);
/// assert_eq!(jrs.assess(0x44, &prediction).level, ConfidenceLevel::Low);
/// ```
#[derive(Debug, Clone)]
pub struct JrsEstimator {
    table: Vec<UnsignedCounter>,
    index_bits: u32,
    counter_bits: u8,
    threshold: u8,
    indexing: JrsIndexing,
    history: HistoryRegister,
}

impl JrsEstimator {
    /// Creates a JRS estimator with `2^index_bits` counters of
    /// `counter_bits` bits, classifying as high confidence at or above
    /// `threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is not in `1..=28`, `counter_bits` is not in
    /// `1..=8`, or the threshold is not representable.
    pub fn new(index_bits: u32, counter_bits: u8, threshold: u8, indexing: JrsIndexing) -> Self {
        assert!(
            (1..=28).contains(&index_bits),
            "index_bits must be in 1..=28"
        );
        assert!(
            (1..=8).contains(&counter_bits),
            "counter_bits must be in 1..=8"
        );
        let max = if counter_bits == 8 {
            u8::MAX
        } else {
            (1u8 << counter_bits) - 1
        };
        assert!(threshold <= max, "threshold must fit in the counter");
        JrsEstimator {
            table: vec![UnsignedCounter::new(counter_bits); 1 << index_bits],
            index_bits,
            counter_bits,
            threshold,
            indexing,
            history: HistoryRegister::new(32),
        }
    }

    /// The paper-cited configuration: 4-bit counters, threshold 15.
    pub fn classic(index_bits: u32) -> Self {
        JrsEstimator::new(index_bits, 4, 15, JrsIndexing::PcHistory)
    }

    /// The Grunwald-enhanced configuration (prediction folded into the
    /// index).
    pub fn enhanced(index_bits: u32) -> Self {
        JrsEstimator::new(index_bits, 4, 15, JrsIndexing::PcHistoryPrediction)
    }

    fn index(&self, pc: u64, predicted_taken: bool) -> usize {
        let mask = (1u64 << self.index_bits) - 1;
        let hist = self.history.low_bits((self.index_bits as usize).min(32));
        let mut hash = (pc >> 2) ^ hist ^ ((pc >> 2) >> self.index_bits);
        if self.indexing == JrsIndexing::PcHistoryPrediction {
            hash = hash.rotate_left(1) ^ u64::from(predicted_taken);
        }
        (hash & mask) as usize
    }

    /// The value of the confidence counter the estimator would consult for
    /// this lookup (useful for multi-level grading experiments).
    pub fn counter_value<L: PredictionOutcome>(&self, pc: u64, lookup: &L) -> u8 {
        self.table[self.index(pc, lookup.predicted_taken())].value()
    }
}

impl<L: PredictionOutcome> ConfidenceScheme<L> for JrsEstimator {
    fn assess(&mut self, pc: u64, lookup: &L) -> Assessment {
        Assessment::level_only(if self.counter_value(pc, lookup) >= self.threshold {
            ConfidenceLevel::High
        } else {
            ConfidenceLevel::Low
        })
    }

    fn observe(&mut self, pc: u64, lookup: &L, taken: bool) {
        let predicted_taken = lookup.predicted_taken();
        let idx = self.index(pc, predicted_taken);
        if predicted_taken == taken {
            self.table[idx].increment();
        } else {
            self.table[idx].reset();
        }
        self.history.push(taken);
    }

    fn storage_bits(&self) -> u64 {
        self.table.len() as u64 * u64::from(self.counter_bits) + self.history.capacity() as u64
    }

    fn name(&self) -> String {
        format!(
            "jrs-{}k-{} (t={})",
            self.table.len() / 1024,
            self.indexing,
            self.threshold
        )
    }

    fn reset(&mut self) {
        *self = JrsEstimator::new(
            self.index_bits,
            self.counter_bits,
            self.threshold,
            self.indexing,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage_predictors::Prediction;

    fn level(estimator: &mut JrsEstimator, pc: u64, prediction: &Prediction) -> ConfidenceLevel {
        estimator.assess(pc, prediction).level
    }

    fn run(estimator: &mut JrsEstimator, pc: u64, correct_streak: usize) -> ConfidenceLevel {
        let prediction = Prediction::new(true, 0);
        for _ in 0..correct_streak {
            estimator.observe(pc, &prediction, true);
        }
        level(estimator, pc, &prediction)
    }

    #[test]
    fn cold_estimator_reports_low_confidence() {
        let mut jrs = JrsEstimator::classic(10);
        assert_eq!(
            level(&mut jrs, 0x100, &Prediction::new(true, 0)),
            ConfidenceLevel::Low
        );
    }

    #[test]
    fn fifteen_consecutive_correct_predictions_reach_high_confidence() {
        // The history register changes the index on every update, so pin the
        // history by always predicting/resolving taken: the index follows a
        // fixed trajectory and the final lookup shares the last index only
        // if history bits match. To keep the test deterministic, use a
        // single-entry table.
        let mut jrs = JrsEstimator::new(1, 4, 15, JrsIndexing::PcHistory);
        // Both table entries must be saturated; run enough updates.
        assert_eq!(run(&mut jrs, 0x100, 40), ConfidenceLevel::High);
    }

    #[test]
    fn a_single_misprediction_resets_confidence() {
        let mut jrs = JrsEstimator::new(1, 4, 15, JrsIndexing::PcHistory);
        let prediction = Prediction::new(true, 0);
        for _ in 0..40 {
            jrs.observe(0x100, &prediction, true);
        }
        assert_eq!(level(&mut jrs, 0x100, &prediction), ConfidenceLevel::High);
        // One misprediction on the consulted entry resets it.
        jrs.observe(0x100, &prediction, false);
        // Drain the other entry too (index alternates with history).
        jrs.observe(0x100, &prediction, false);
        assert_eq!(level(&mut jrs, 0x100, &prediction), ConfidenceLevel::Low);
    }

    #[test]
    fn enhanced_indexing_separates_taken_and_not_taken_predictions() {
        let jrs = JrsEstimator::enhanced(10);
        assert_ne!(jrs.index(0x500, true), jrs.index(0x500, false));
        // The classic indexing does not separate them.
        let classic = JrsEstimator::classic(10);
        assert_eq!(classic.index(0x500, true), classic.index(0x500, false));
    }

    #[test]
    fn counter_value_is_observable() {
        let mut jrs = JrsEstimator::new(1, 4, 15, JrsIndexing::PcHistory);
        let prediction = Prediction::new(true, 0);
        assert_eq!(jrs.counter_value(0x10, &prediction), 0);
        for _ in 0..40 {
            jrs.observe(0x10, &prediction, true);
        }
        assert_eq!(jrs.counter_value(0x10, &prediction), 15);
    }

    #[test]
    fn storage_accounts_for_table_and_history() {
        let jrs = JrsEstimator::classic(10);
        assert_eq!(
            ConfidenceScheme::<Prediction>::storage_bits(&jrs),
            1024 * 4 + 32
        );
        assert!(ConfidenceScheme::<Prediction>::name(&jrs).contains("jrs"));
    }

    #[test]
    #[should_panic(expected = "threshold must fit in the counter")]
    fn oversized_threshold_rejected() {
        JrsEstimator::new(8, 3, 9, JrsIndexing::PcHistory);
    }

    #[test]
    fn indexing_display() {
        assert_eq!(JrsIndexing::PcHistory.to_string(), "pc+history");
        assert_eq!(
            JrsIndexing::PcHistoryPrediction.to_string(),
            "pc+history+prediction"
        );
    }
}
