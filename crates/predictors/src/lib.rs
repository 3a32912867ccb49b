//! Baseline conditional branch predictors and shared predictor building
//! blocks.
//!
//! The paper positions the TAGE confidence estimator against the prior art,
//! which was built around pre-2000 predictors (2-bit bimodal, gshare) and
//! neural predictors (perceptron, O-GEHL) whose *self-confidence* — the
//! magnitude of the prediction sum — was used as a storage-free confidence
//! signal. This crate provides those predictors:
//!
//! * [`BimodalPredictor`] — Smith's PC-indexed 2-bit counter table,
//! * [`GsharePredictor`] — McFarling's global-history XOR predictor,
//! * [`PerceptronPredictor`] — the hashed perceptron predictor,
//! * [`GehlPredictor`] — a GEHL-style predictor (multiple tables indexed with
//!   geometric history lengths, adder tree), used by the paper's discussion
//!   of O-GEHL self-confidence,
//!
//! plus the building blocks shared with the `tage` crate:
//!
//! * [`counter::SignedCounter`] / [`counter::UnsignedCounter`] — saturating
//!   counters of configurable width,
//! * [`history::HistoryRegister`] — an arbitrary-length global branch
//!   history shift register,
//! * the [`PredictorCore`] trait every predictor (TAGE included)
//!   implements, and the [`Prediction`] value the baselines return, which
//!   carries the *margin* used for self-confidence estimation;
//!   [`BranchPredictor`] names the baselines' object-safe view.
//!
//! # Example
//!
//! ```
//! use tage_predictors::{BimodalPredictor, PredictorCore};
//!
//! let mut predictor = BimodalPredictor::new(10); // 2^10 counters
//! let prediction = predictor.predict(0x400_100);
//! predictor.update(0x400_100, true, &prediction);
//! assert!(predictor.storage_bits() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bimodal;
pub mod counter;
pub mod gehl;
pub mod gshare;
pub mod history;
pub mod perceptron;
pub mod predictor;
pub(crate) mod snapshot_util;
pub mod spec;

pub use bimodal::BimodalPredictor;
pub use gehl::GehlPredictor;
pub use gshare::GsharePredictor;
pub use perceptron::PerceptronPredictor;
pub use predictor::{
    BranchPredictor, MarginPredictor, Prediction, PredictionOutcome, PredictorCore,
};
pub use spec::{BaselinePredictorSpec, BimodalSpec, GehlSpec, GshareSpec, PerceptronSpec};
