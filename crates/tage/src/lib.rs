//! A faithful TAGE conditional branch predictor.
//!
//! TAGE (TAgged GEometric history length) is the state-of-the-art branch
//! predictor introduced by Seznec and Michaud (2006). It couples a simple
//! PC-indexed bimodal *base predictor* with a set of *tagged components*
//! indexed with hashes of the PC and geometrically increasing global-history
//! lengths. The hitting tagged component using the longest history provides
//! the prediction; the base predictor provides the default.
//!
//! The paper reproduced by this workspace — *Storage Free Confidence
//! Estimation for the TAGE branch predictor* (Seznec, HPCA 2011) — observes
//! the outputs of this predictor to grade the confidence of each prediction,
//! and slightly modifies the 3-bit counter update automaton of the tagged
//! components (probabilistic transition to the saturated states) so that
//! saturated counters become a genuine high-confidence class.
//!
//! This crate provides:
//!
//! * [`TageGeometry`] — the predictor's shape (per-table entries, tags,
//!   history lengths and hash folds) with exact storage accounting and a
//!   JSON file form, and the paper's three presets: [`TageGeometry::small`]
//!   (16 Kbit), [`TageGeometry::medium`] (64 Kbit) and
//!   [`TageGeometry::large`] (256 Kbit);
//! * [`CounterAutomaton`] — the standard 3-bit automaton and the modified
//!   probabilistic-saturation automaton (Section 6 of the paper);
//! * [`TagePredictor`] — prediction, update, entry allocation, useful-counter
//!   aging and the `USE_ALT_ON_NA` heuristic;
//! * [`TagePrediction`] — the full observable output of a prediction
//!   (provider component, counter values, alternate prediction), which is all
//!   the confidence classifier in `tage-confidence` needs.
//!
//! # Hot-path storage layout
//!
//! The predictor is built for simulation throughput as well as fidelity:
//!
//! * the tagged components live in [`tables::TageTables`], a flat
//!   structure-of-arrays layout (contiguous tag / prediction-counter /
//!   useful-counter arrays addressed with power-of-two shift-and-mask
//!   indices), so the lookup's tag probes touch only the tag array;
//! * each prediction's per-table observables land in the fixed-size
//!   [`TableLookups`] scratch (`[TableLookup; MAX_TAGGED_TABLES]` on the
//!   stack), so [`TagePredictor::predict`] and [`TagePredictor::update`]
//!   perform **zero heap allocations**;
//! * the pre-optimisation nested-`Vec` implementation is kept as
//!   [`reference::ReferenceTagePredictor`], the executable specification the
//!   fast path is pinned against (`tests/soa_parity.rs`).
//!
//! # Example
//!
//! ```
//! use tage::{TageGeometry, TagePredictor};
//!
//! let mut predictor = TagePredictor::new(TageGeometry::medium());
//! // Train a loop branch: taken 7 times, then not taken.
//! for _round in 0..100 {
//!     for i in 0..8 {
//!         let taken = i != 7;
//!         let pred = predictor.predict(0x4000_0000);
//!         predictor.update(0x4000_0000, taken, &pred);
//!     }
//! }
//! let prediction = predictor.predict(0x4000_0000);
//! assert!(prediction.taken);
//! ```

// `deny` rather than `forbid`: the software-prefetch hint in `tables`
// carries the crate's only `#[allow(unsafe_code)]` (a prefetch cannot fault
// and has no architectural effect).
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod automaton;
pub mod config;
pub mod entry;
pub mod folded;
pub mod geometry;
pub mod lanes;
pub mod prediction;
pub mod predictor;
pub mod reference;
pub(crate) mod snapshot;
pub mod tables;

pub use automaton::CounterAutomaton;
pub use geometry::{TableGeometry, TageBlueprint, TageGeometry};
pub use lanes::LaneGroup;
pub use prediction::{Provider, TableLookup, TableLookups, TagePrediction, MAX_TAGGED_TABLES};
pub use predictor::TagePredictor;
pub use reference::ReferenceTagePredictor;
pub use tables::TageTables;
