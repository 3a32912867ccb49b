//! Trace-driven simulation harness for the TAGE confidence-estimation
//! reproduction.
//!
//! The crate ties the other workspace members together:
//!
//! * [`engine`] — the generic, predictor-agnostic simulation engine: one
//!   execution path driving any predictor × confidence-scheme pair with
//!   pluggable per-branch observers, plus [`steal_map`], the one
//!   work-stealing parallel map behind every suite and campaign run. Consumes either a materialized
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
//! * [`suite`] — runs whole workload suites (the CBP-1-like and CBP-2-like
//!   20-trace sets, or file-backed
//!   [`tage_traces::source::SourceSuite`]s) in parallel — sources sharded
//!   across workers, lane-batched within each worker — and aggregates the
//!   results deterministically;
//! * [`phase`] — SimPoint-style phase sampling: a few representative
//!   slices of a long stream simulated from their exact sequential state
//!   and folded into whole-trace estimates;
//! * [`warmcache`] — a content-addressed on-disk cache of warm states (full
//!   predictor snapshot + classifier + adaptive controller + branch
//!   counter) and the one restore-or-replay step of sampled runs, so
//!   repeated runs restore instead of replaying slice gaps — byte-identical
//!   either way;
//! * [`point`] — sweep points, the reusable unit of work behind campaign
//!   grids (`tage-bench`, `tage-serve`) and the experiment sweeps: one
//!   predictor × confidence-scheme × suite cell executed by [`run_point`]
//!   with deterministic, thread-placement-independent results;
//! * [`experiment`] — the building blocks behind each table and figure of
//!   the paper (class distributions, three-level summaries, probability
//!   sweeps, automaton accuracy cost, ablations), expressed as grids of
//!   sweep points;
//! * [`baseline`] — runs the storage-based baseline confidence estimators
//!   (JRS, enhanced JRS, self-confidence on perceptron/GEHL) for comparison;
//! * [`gating`] — a fetch-gating / throttling model, the motivating
//!   application for confidence estimation (energy saved on wrong-path
//!   fetch vs. slots lost on gated correct predictions);
//! * [`interleave`] — the generic N-stream cycle-interleaving core (staged
//!   stream lanes + arbitration loop) shared by the SMT model and the
//!   shared-predictor interference scenario;
//! * [`smt`] — an N-thread SMT fetch-policy model where confidence steers
//!   fetch priority;
//! * [`scenarios`] — the campaign-runnable confidence scenarios
//!   (misprediction-recovery energy, N-core shared-predictor interference,
//!   confidence-driven prefetch throttling) as composable engine
//!   observers, with the [`scenarios::ScenarioSpec`] grid axis;
//! * [`report`] — plain-text table rendering used by the `tage-bench`
//!   binaries to print paper-style tables.
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
pub mod experiment;
pub mod gating;
pub mod interleave;
pub mod multilane;
pub mod phase;
pub mod point;
pub mod report;
pub mod runner;
pub mod scenarios;
pub mod smt;
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
    run_point, run_tage_sweep, PointError, PointResult, PointSamplingMetrics, PointTraceMetrics,
    PredictorSpec, SchemeSpec, SweepPoint, TageSweepPoint,
};
pub use runner::{run_source, run_trace, RunOptions, TraceRunResult};
pub use scenarios::ScenarioSpec;
pub use suite::{
    run_suite, run_suite_sources, run_suite_with_parallelism, SuiteRunResult, SuiteScratch,
};
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
