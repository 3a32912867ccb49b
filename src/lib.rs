//! Umbrella crate for the *Storage Free Confidence Estimation for the TAGE
//! branch predictor* (Seznec, HPCA 2011) reproduction suite.
//!
//! This crate simply re-exports the workspace members under stable module
//! names so that the examples and the cross-crate integration tests in
//! `tests/` can address the whole system through a single dependency:
//!
//! - [`traces`] — branch trace model, IO and synthetic workload suites,
//! - [`predictors`] — baseline predictors (bimodal, gshare, perceptron, GEHL),
//! - [`tage`] — the TAGE predictor and its counter-update automatons,
//! - [`confidence`] — the storage-free confidence classifier, metrics,
//!   adaptive control and storage-based baseline estimators,
//! - [`sim`] — the simulation harness, sweep points and the confidence
//!   application scenarios.
//!
//! # Example
//!
//! ```
//! use tage_confidence_suite::{tage::TagePredictor, tage::TageGeometry};
//!
//! let mut predictor = TagePredictor::new(TageGeometry::small());
//! let prediction = predictor.predict(0x4000_1234);
//! predictor.update(0x4000_1234, true, &prediction);
//! ```

pub use tage;
pub use tage_confidence as confidence;
pub use tage_predictors as predictors;
pub use tage_sim as sim;
pub use tage_traces as traces;

/// The README's Rust examples, compiled (and, unless marked `no_run`, run)
/// as doctests so they cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
