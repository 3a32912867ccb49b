//! Storage-free confidence estimation for the TAGE branch predictor.
//!
//! This crate implements the paper's contribution:
//!
//! * [`PredictionClass`] — the **7 prediction classes** obtained by simply
//!   observing which TAGE component provides a prediction and the value of
//!   its counter: `high-conf-bim`, `medium-conf-bim`, `low-conf-bim` for the
//!   bimodal base predictor and `Wtag`, `NWtag`, `NStag`, `Stag` for the
//!   tagged components (Section 5);
//! * [`ConfidenceLevel`] — the **three confidence levels** the classes are
//!   grouped into once the tagged counters use the modified
//!   probabilistic-saturation automaton (Section 6.1): low (≈ 30 %+
//!   misprediction rate), medium (≈ 8–12 %) and high (< 1 %);
//! * [`TageConfidenceClassifier`] — the storage-free classifier itself. Its
//!   only state is a tiny recency window used to detect the
//!   `medium-conf-bim` situation (a bimodal-provided prediction shortly
//!   after a bimodal-provided misprediction), which the paper attributes to
//!   predictor warming and capacity bursts;
//! * [`metrics`] — the per-class metrics the paper reports: prediction
//!   coverage `Pcov`, misprediction coverage `MPcov`, misprediction rate
//!   `MPrate` in mispredictions per kilo-prediction (MKP), plus the
//!   classical binary metrics (SENS, SPEC, PVP, PVN) of Grunwald et al.;
//! * [`AdaptiveSaturationController`] — the run-time adaptation of the
//!   saturation probability (Section 6.2) that maximises high-confidence
//!   coverage under a misprediction-rate target;
//! * [`estimators`] — the storage-based baseline confidence estimators the
//!   paper discusses (JRS, enhanced JRS, self-confidence), for comparison.
//!
//! # Example
//!
//! ```
//! use tage::{TageGeometry, TagePredictor};
//! use tage_confidence::{ConfidenceLevel, TageConfidenceClassifier};
//!
//! let mut predictor = TagePredictor::new(TageGeometry::small());
//! let mut classifier = TageConfidenceClassifier::new(predictor.geometry());
//!
//! let pc = 0x40_2000;
//! let prediction = predictor.predict(pc);
//! let class = classifier.classify(&prediction);
//! let level: ConfidenceLevel = class.level();
//! // A cold predictor answers from the bimodal table with a weak counter:
//! assert_eq!(level, ConfidenceLevel::Low);
//! predictor.update(pc, true, &prediction);
//! classifier.observe(&prediction, true);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adaptive;
pub mod class;
pub mod classifier;
pub mod estimators;
pub mod metrics;
pub mod scheme;

pub use adaptive::AdaptiveSaturationController;
pub use class::{ConfidenceLevel, PredictionClass};
pub use classifier::TageConfidenceClassifier;
pub use metrics::{BinaryConfusion, ClassStats, ConfidenceReport};
pub use scheme::{Assessment, ConfidenceScheme, EstimatorScheme};
