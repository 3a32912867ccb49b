//! Trace-driven simulation harness for the TAGE confidence-estimation
//! reproduction.
//!
//! The crate ties the other workspace members together:
//!
//! * [`engine`] — the generic, predictor-agnostic simulation engine: one
//!   execution path driving any predictor × confidence-scheme pair with
//!   pluggable per-branch observers, plus [`steal_map`], the one
//!   work-stealing parallel map behind every campaign and paper run. Consumes either a materialized
//!   trace ([`SimEngine::run`]) or a streaming
//!   [`tage_traces::source::BranchSource`] ([`engine::SimEngine::run_source`])
//!   with bounded record memory. Everything below is a thin assembly of it;
//! * [`runner`] — runs a TAGE predictor plus the storage-free confidence
//!   classifier over one trace or source and produces a per-class
//!   [`tage_confidence::ConfidenceReport`];
//! * [`multilane`] — the lane-batched lockstep engine: K independent
//!   streams advanced one branch per cycle with the per-branch loop
//!   restructured into per-component passes (index/tag hashing, prefetch,
//!   probe, train), bit-identical to the scalar path;
//! * [`suite`] — [`SuiteScratch`], an allocation-free rerunnable whole-suite
//!   run through one persistent lane-batched engine;
//! * [`phase`] — SimPoint-style phase sampling: a few representative
//!   slices of a long stream simulated from their exact sequential state
//!   and folded into whole-trace estimates;
//! * [`warmcache`] — a content-addressed on-disk cache of warm states (full
//!   predictor snapshot + classifier + adaptive controller + branch
//!   counter) and the one restore-or-replay step of sampled runs, so
//!   repeated runs restore instead of replaying slice gaps — byte-identical
//!   either way;
//! * [`point`] — sweep points, the one unit of work behind campaign grids
//!   (`tage-bench`, `tage-serve`) and the paper's tables and figures
//!   (`tage-bench --paper`): one predictor × confidence-scheme × suite cell,
//!   planned by [`point::plan`] and executed by [`run_point`] or a
//!   campaign's workers with deterministic, thread-placement-independent
//!   results;
//! * [`baseline`] — runs the storage-based baseline confidence estimators
//!   (JRS, enhanced JRS, self-confidence on perceptron/GEHL) for comparison;
//! * [`scenarios`] — the campaign-runnable confidence scenarios, with the
//!   [`scenarios::ScenarioSpec`] grid axis: misprediction-recovery energy
//!   and confidence-driven prefetch throttling, derived from a cell's
//!   report, and N-core shared-predictor interference, one interleaved
//!   pass over the suite;
//! * [`report`] — plain-text table rendering for the paper-style tables
//!   of `tage-bench --paper` and the `estimators` binary.
//!
//! # Example
//!
//! ```
//! use tage::TageGeometry;
//! use tage_sim::runner::{RunOptions, run_trace};
//! use tage_traces::suites;
//!
//! let trace = suites::cbp1_like().traces()[0].generate(5_000);
//! let result = run_trace(&TageGeometry::small(), &trace, &RunOptions::default());
//! assert!(result.conditional_branches > 0);
//! assert!(result.report.total().predictions > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod engine;
pub mod multilane;
pub mod phase;
pub mod point;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod suite;
pub mod warmcache;

pub use engine::{
    steal_map, BranchEvent, EngineObserver, EngineSummary, ReportObserver, SimEngine, StealStats,
};
pub use multilane::{run_specs_multilane, EngineKind, MultilaneEngine, DEFAULT_LANES};
pub use phase::{
    build_plan, compare_sampled_vs_exact, run_sampled_source, PhasePlan, Representative,
    SampledRunResult, SamplingErrorReport,
};
pub use point::{
    run_point, PointError, PointResult, PointSamplingMetrics, PointTraceMetrics, PredictorSpec,
    SchemeSpec, SweepPoint,
};
pub use runner::{run_source, run_trace, RunOptions, TraceRunResult};
pub use scenarios::ScenarioSpec;
pub use suite::{SuiteRunResult, SuiteScratch};
pub use warmcache::WarmCache;

/// `amount` per kilo-instruction, 0 on an empty run — the shared
/// zero-guarded denominator behind every per-KI rate the crate reports.
pub(crate) fn per_kilo_instruction(amount: f64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        amount * 1000.0 / instructions as f64
    }
}
