//! Sweep points: the one unit of work behind campaign grids, `tage-serve`
//! and the paper's tables and figures.
//!
//! A [`SweepPoint`] is one cell of a predictor × confidence-scheme × suite
//! × scenario cross product. [`run_point`] executes it — every trace of the
//! point's suite through the scalar [`SimEngine`], the lane-batched engine
//! or the phase-sampled runner, with a cold predictor per trace — and
//! returns exact integer counters, each trace's [`ConfidenceReport`] and
//! the aggregate one, so a point's result is deterministic and
//! independent of where (which thread, which order) it ran. The campaign
//! runner (`tage-bench`) work-steals points across workers, and so does
//! `tage-bench --paper`, whose artefacts are named lists of storage-free
//! TAGE points.
//!
//! # Plan, then execute
//!
//! Every run takes one path: [`plan`] decides, [`GroupPlan::run_task`]
//! runs and [`GroupPlan::assemble`] collects. [`plan`] is the one place
//! that decides, for a list of cells, which cells share a pass over each
//! trace, which [`CellPath`] each group takes, why a cell that asked for
//! lanes runs scalar ([`Fallback`]), and how a group splits into tasks.
//! [`run_point`] is the one-cell case and runs its tasks in order; a
//! campaign deals every group's tasks to its workers.
//!
//! Unsampled cells share a group when they have the same predictor (label,
//! and spec digest and automaton for TAGE), the same suite (name and
//! digest) and the same branches per trace, on either engine. A
//! storage-free cell whose [`RunOptions`] set a warm-up or an adaptive
//! target runs alone. Such a group is one task. Cells that differ only in
//! scenario read the same per-trace results, so the task runs one scheme
//! per distinct scheme among its cells. Under [`EngineKind::Multilane`], a
//! group whose every cell is storage-free TAGE outside the shared-predictor
//! scenario, over a geometry that fits the lane layout, runs one lane pass
//! over the suite. Any other group runs on the scalar engine, where, per
//! trace, one predictor predicts and trains once and each scheme grades
//! that same lookup with its own [`ReportObserver`]. The group's
//! shared-predictor cells share one interleaved pass.
//!
//! Phase-sampled cells are TAGE × storage-free × baseline, so sampled
//! cells over one suite differ only in predictor. Those with the same suite
//! (name and digest), sampling plan and branches per trace share a group,
//! which is one task per trace: the task opens, and so decodes, the trace
//! once, builds its phase plan once, and runs each cell's predictor from
//! that plan over the rewound stream. The plan depends on the stream and
//! the sampling spec alone.
//!
//! No byte moves. The engine runs predict → assess → observe → observers →
//! update, and only `update` writes the predictor. The schemes and the
//! report read the pc, the outcome and the lookup. The recovery-energy and
//! prefetch-throttle metrics are exact functions of a cell's per-level
//! counts ([`PointResult::assemble`] derives them from the aggregate
//! report), so no per-branch accumulator, and no order of floating-point
//! sums, ties a cell to the pass that ran it. The shared-predictor pass
//! counts mispredictions alone, so its result does not depend on the
//! scheme. The adaptive controller is the one observer that steers the
//! predictor, and a cell that runs it has the predictor to itself.
//!
//! The grid axes are enumerable:
//!
//! * predictors — the six TAGE variants (three sizes × standard/modified
//!   automaton) plus every [`BaselinePredictorSpec`];
//! * schemes — the paper's storage-free TAGE classification plus every
//!   [`EstimatorSpec`] baseline;
//! * scenarios — the confidence applications of [`crate::scenarios`]
//!   (recovery energy, shared-predictor interference, prefetch throttling)
//!   or the plain [`ScenarioSpec::Baseline`] measurement. Recovery energy
//!   and prefetch throttling are derived from the point's report, so they
//!   cost no simulation; the shared-predictor scenario adds one interleaved
//!   pass over the suite's sources and compares it against the private
//!   per-source counters the point measured anyway. Scenario metrics land
//!   in [`PointResult::scenario_metrics`] as deterministically ordered
//!   name/value pairs.
//!
//! Not every combination is meaningful: the storage-free classification
//! observes TAGE internals, so it only pairs with TAGE predictors.
//! [`SweepPoint::validate`] reports such holes and the campaign runner skips
//! them (counting the skips) instead of failing the grid.

use core::fmt;
use std::collections::HashMap;

use tage::{
    CounterAutomaton, LaneGroup, TageBlueprint, TageGeometry, TagePrediction, TagePredictor,
};
use tage_confidence::estimators::EstimatorSpec;
use tage_confidence::scheme::{Assessment, ConfidenceScheme};
use tage_confidence::{ConfidenceLevel, ConfidenceReport, TageConfidenceClassifier};
use tage_predictors::{BaselinePredictorSpec, PredictorCore};
use tage_traces::format::FormatError;
use tage_traces::source::{AnySource, BranchSource, SamplingSpec, SourceSpec, SourceSuite};
use tage_traces::Suite;

use crate::engine::{BranchEvent, EngineObserver, ReportObserver, SimEngine};
use crate::multilane::{run_specs_located, EngineKind, DEFAULT_LANES};
use crate::phase::{build_plan, run_from_plan, SampledRunResult};
use crate::runner::{AdaptiveObserver, RunOptions, TraceRunResult};
use crate::scenarios::energy::{self, RecoveryEnergyModel};
use crate::scenarios::interference::{run_shared_predictor, SharedRunResult};
use crate::scenarios::prefetch::{self, PrefetchModel, PrefetchPolicy};
use crate::scenarios::ScenarioSpec;
use crate::warmcache::WarmCache;

/// One value of the predictor axis of a sweep grid.
///
/// Both TAGE variants hold a [`TageGeometry`] and run identically; they
/// differ only in how reports name them ([`PredictorSpec::label`]) and which
/// grid token parses back into them ([`PredictorSpec::token`]).
#[derive(Debug, Clone)]
pub enum PredictorSpec {
    /// A TAGE preset (the paper's predictor, storage-free capable), named
    /// after its size and automaton.
    Tage(TageGeometry),
    /// An explicit TAGE geometry — loaded from a `geometry:FILE.json` grid
    /// token or built programmatically (the `--explore` design-space search
    /// enumerates these), named after its spec digest.
    Geometry {
        /// The full per-table geometry.
        geometry: TageGeometry,
        /// Where the geometry came from: the `geometry:` token's file path,
        /// or a synthesized label for programmatic geometries. Echoed back
        /// by [`PredictorSpec::token`].
        source: String,
    },
    /// A baseline predictor from the prior art.
    Baseline(BaselinePredictorSpec),
}

/// The grid-token prefix selecting a geometry file on the predictor axis:
/// `geometry:docs/examples/tage16k.json` loads a [`TageGeometry`] from that
/// path.
pub const GEOMETRY_TOKEN_PREFIX: &str = "geometry:";

/// The TAGE grid variants: the three paper sizes, each with the modified
/// (probabilistic 1/128) automaton under the plain token and the standard
/// automaton under the `-std` suffix.
pub fn tage_variants() -> Vec<(String, TageGeometry)> {
    let mut variants = Vec::with_capacity(6);
    for geometry in [
        TageGeometry::small(),
        TageGeometry::medium(),
        TageGeometry::large(),
    ] {
        let base = geometry.name().to_ascii_lowercase();
        variants.push((
            base.clone(),
            geometry
                .clone()
                .with_automaton(CounterAutomaton::paper_default()),
        ));
        variants.push((format!("{base}-std"), geometry));
    }
    variants
}

impl PredictorSpec {
    /// Every grid token the predictor axis accepts, in listing order.
    pub fn known_tokens() -> Vec<String> {
        let mut tokens: Vec<String> = tage_variants().into_iter().map(|(t, _)| t).collect();
        tokens.extend(
            BaselinePredictorSpec::ALL
                .iter()
                .map(|s| s.token().to_string()),
        );
        tokens
    }

    /// Parses a grid token into a predictor spec.
    ///
    /// `geometry:<path>` loads a [`TageGeometry`] JSON file from `<path>`.
    ///
    /// # Errors
    ///
    /// For a `geometry:` token, the token and the [`TageGeometry::load`]
    /// message, which names the path and the offending field; otherwise an
    /// unknown-token message listing [`PredictorSpec::known_tokens`].
    pub fn parse(token: &str) -> Result<Self, String> {
        if let Some(path) = token.strip_prefix(GEOMETRY_TOKEN_PREFIX) {
            return Ok(PredictorSpec::Geometry {
                geometry: TageGeometry::load(path)
                    .map_err(|e| format!("predictor token \"{token}\": {e}"))?,
                source: path.to_string(),
            });
        }
        if let Some((_, geometry)) = tage_variants().into_iter().find(|(t, _)| t == token) {
            return Ok(PredictorSpec::Tage(geometry));
        }
        BaselinePredictorSpec::parse(token)
            .map(PredictorSpec::Baseline)
            .ok_or_else(|| {
                format!(
                    "unknown predictor token \"{token}\" (known: {})",
                    Self::known_tokens().join(", ")
                )
            })
    }

    /// The grid token that parses back into this spec: the plain token for
    /// grid-enumerable presets, `geometry:<path>` for geometry specs.
    /// Programmatic presets with a non-grid automaton have no parseable
    /// token; they return their [`PredictorSpec::label`].
    pub fn token(&self) -> String {
        match self {
            PredictorSpec::Geometry { source, .. } => format!("{GEOMETRY_TOKEN_PREFIX}{source}"),
            _ => self.label(),
        }
    }

    /// The stable label naming this spec in reports: the parse token for
    /// every grid-enumerable preset, an honest
    /// `<name>-p<log2(1/p)>` description for programmatically built TAGE
    /// presets with any other probabilistic automaton, and
    /// `<name>-g<digest>` for explicit geometries (the 32-bit spec-digest
    /// suffix keeps same-budget explore candidates distinct in reports and
    /// checkpoint keys).
    pub fn label(&self) -> String {
        match self {
            PredictorSpec::Tage(geometry) => {
                let base = geometry.name().to_ascii_lowercase();
                match geometry.automaton {
                    paper if paper == CounterAutomaton::paper_default() => base,
                    CounterAutomaton::Standard => format!("{base}-std"),
                    CounterAutomaton::ProbabilisticSaturation {
                        log2_inverse_probability,
                    } => format!("{base}-p{log2_inverse_probability}"),
                }
            }
            PredictorSpec::Geometry { geometry, .. } => {
                format!(
                    "{}-g{:08x}",
                    geometry.name().to_ascii_lowercase(),
                    geometry.spec_digest() as u32
                )
            }
            PredictorSpec::Baseline(spec) => spec.token().to_string(),
        }
    }

    /// The TAGE geometry behind this spec, as a blueprint — `Some` for
    /// both TAGE variants, `None` for baselines. It plugs straight into
    /// every geometry-driven engine entry point
    /// ([`crate::runner::run_source`],
    /// [`crate::multilane::run_specs_multilane`], ...).
    pub fn tage_blueprint(&self) -> Option<&dyn TageBlueprint> {
        match self {
            PredictorSpec::Tage(geometry) | PredictorSpec::Geometry { geometry, .. } => {
                Some(geometry)
            }
            PredictorSpec::Baseline(_) => None,
        }
    }

    /// Exact storage budget of this predictor in bits, computed
    /// declaratively — no predictor is built. Every axis value knows it:
    /// TAGE geometries from their table accounting, baselines from their
    /// spec structs.
    pub fn storage_bits(&self) -> u64 {
        match self {
            PredictorSpec::Tage(geometry) | PredictorSpec::Geometry { geometry, .. } => {
                geometry.storage_bits()
            }
            PredictorSpec::Baseline(spec) => spec.storage_bits(),
        }
    }

    /// Whether this predictor exposes the TAGE observables the storage-free
    /// classification needs.
    pub fn supports_storage_free(&self) -> bool {
        self.tage_blueprint().is_some()
    }

    /// The self-confidence margin threshold suited to this predictor's
    /// margin scale.
    pub fn self_confidence_threshold(&self) -> i64 {
        match self {
            // TAGE margins are counter distances from the weak state: a
            // 3-bit counter saturates at margin 4, so 2 splits weak/strong.
            PredictorSpec::Tage(_) | PredictorSpec::Geometry { .. } => 2,
            PredictorSpec::Baseline(spec) => spec.self_confidence_threshold(),
        }
    }
}

/// One value of the confidence-scheme axis of a sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeSpec {
    /// The paper's storage-free TAGE classification.
    StorageFree,
    /// A storage-based baseline estimator.
    Estimator(EstimatorSpec),
}

/// The grid token of the storage-free scheme.
pub const STORAGE_FREE_TOKEN: &str = "storage-free";

impl SchemeSpec {
    /// Every grid token the scheme axis accepts, in listing order.
    pub fn known_tokens() -> Vec<String> {
        let mut tokens = vec![STORAGE_FREE_TOKEN.to_string()];
        tokens.extend(EstimatorSpec::ALL.iter().map(|s| s.token().to_string()));
        tokens
    }

    /// Parses a grid token into a scheme spec.
    pub fn parse(token: &str) -> Option<Self> {
        if token == STORAGE_FREE_TOKEN {
            return Some(SchemeSpec::StorageFree);
        }
        EstimatorSpec::parse(token).map(SchemeSpec::Estimator)
    }

    /// The stable label naming this spec in reports.
    pub fn label(&self) -> String {
        match self {
            SchemeSpec::StorageFree => STORAGE_FREE_TOKEN.to_string(),
            SchemeSpec::Estimator(spec) => spec.token().to_string(),
        }
    }
}

/// One cell of a predictor × scheme × suite × scenario cross product.
///
/// The suite axis is a streaming [`SourceSuite`]: synthetic workloads are
/// generated on the fly and file-backed suites are read chunk by chunk, so
/// running a point never materializes a trace. A synthetic [`Suite`]
/// converts with [`SweepPoint::over_suite`] or `suite.into()`.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The predictor configuration.
    pub predictor: PredictorSpec,
    /// The confidence scheme grading its predictions.
    pub scheme: SchemeSpec,
    /// The workload sources the pair runs over.
    pub suite: SourceSuite,
    /// The scenario measured on top of the run
    /// ([`ScenarioSpec::Baseline`] for plain measurement).
    pub scenario: ScenarioSpec,
}

/// Why a sweep point cannot run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidPoint {
    /// The storage-free classification was paired with a non-TAGE predictor.
    StorageFreeNeedsTage {
        /// Label of the offending predictor.
        predictor: String,
    },
    /// A phase-sampled suite was paired with a cell the sampled runner
    /// cannot execute: sampling reconstructs through the storage-free TAGE
    /// path ([`crate::phase::run_sampled_source`]), so baseline predictors
    /// and estimator schemes have no sampled variant.
    SamplingNeedsStorageFreeTage {
        /// Label of the offending predictor.
        predictor: String,
        /// Label of the offending scheme.
        scheme: String,
    },
    /// A phase-sampled suite was paired with a non-baseline scenario.
    /// Scenario metrics are defined over the full prediction stream; a
    /// weighted slice reconstruction of them would be silently wrong, so
    /// the combination is rejected instead.
    SamplingNeedsBaselineScenario {
        /// Label of the offending scenario.
        scenario: String,
    },
}

impl fmt::Display for InvalidPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidPoint::StorageFreeNeedsTage { predictor } => write!(
                f,
                "storage-free classification requires a TAGE predictor (got {predictor})"
            ),
            InvalidPoint::SamplingNeedsStorageFreeTage { predictor, scheme } => write!(
                f,
                "phase sampling requires the TAGE × storage-free cell (got {predictor} × {scheme})"
            ),
            InvalidPoint::SamplingNeedsBaselineScenario { scenario } => write!(
                f,
                "phase sampling requires the baseline scenario (got {scenario})"
            ),
        }
    }
}

impl SweepPoint {
    /// A point over a synthetic suite (streamed trace by trace), measuring
    /// the plain baseline scenario.
    pub fn over_suite(predictor: PredictorSpec, scheme: SchemeSpec, suite: &Suite) -> Self {
        SweepPoint {
            predictor,
            scheme,
            suite: SourceSuite::from_suite(suite),
            scenario: ScenarioSpec::Baseline,
        }
    }

    /// Replaces the scenario axis value (builder style).
    pub fn with_scenario(mut self, scenario: ScenarioSpec) -> Self {
        self.scenario = scenario;
        self
    }

    /// Checks that the predictor/scheme pairing is executable.
    pub fn validate(&self) -> Result<(), InvalidPoint> {
        if matches!(self.scheme, SchemeSpec::StorageFree) && !self.predictor.supports_storage_free()
        {
            return Err(InvalidPoint::StorageFreeNeedsTage {
                predictor: self.predictor.label(),
            });
        }
        if self.suite.sampling().is_some() {
            if !matches!(self.scheme, SchemeSpec::StorageFree)
                || self.predictor.tage_blueprint().is_none()
            {
                return Err(InvalidPoint::SamplingNeedsStorageFreeTage {
                    predictor: self.predictor.label(),
                    scheme: self.scheme.label(),
                });
            }
            if self.scenario != ScenarioSpec::Baseline {
                return Err(InvalidPoint::SamplingNeedsBaselineScenario {
                    scenario: self.scenario.label().to_string(),
                });
            }
        }
        Ok(())
    }
}

/// One trace's result inside a point run: exact counters (everything
/// needed for MPKI / MKP without any floating-point state) plus the trace's
/// own confidence report.
#[derive(Debug, Clone, PartialEq)]
pub struct PointTraceMetrics {
    /// Trace name.
    pub trace_name: String,
    /// Conditional branches measured.
    pub predictions: u64,
    /// Mispredictions among them.
    pub mispredictions: u64,
    /// Instructions attributed to the measured region.
    pub instructions: u64,
    /// The trace's per-class confidence report (the point's aggregate is
    /// the merge of these, in suite order).
    pub report: ConfidenceReport,
    /// Saturation probability in effect at the end of the trace: the
    /// configured automaton's, unless the adaptive controller moved it.
    /// 1 for baseline predictors.
    pub final_saturation_probability: f64,
}

impl PointTraceMetrics {
    /// Misprediction rate in mispredictions per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        crate::per_kilo_instruction(self.mispredictions as f64, self.instructions)
    }
}

/// Arithmetic mean of the per-trace MPKI values, 0 over an empty slice.
fn mean_trace_mpki(traces: &[PointTraceMetrics]) -> f64 {
    if traces.is_empty() {
        return 0.0;
    }
    traces.iter().map(PointTraceMetrics::mpki).sum::<f64>() / traces.len() as f64
}

/// Per-cell phase-sampling accounting, aggregated over every trace of a
/// sampled point. Every field is a pure function of the suite content and
/// the [`SamplingSpec`] — cache-dependent counters (how much gap replay
/// this particular run performed) deliberately stay out, so sampled cell
/// reports are byte-identical whatever the warm-cache state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointSamplingMetrics {
    /// Records per slice.
    pub interval: u64,
    /// Cluster-count bound of the plan.
    pub k: usize,
    /// Clustering seed.
    pub seed: u64,
    /// Representative slices over the whole suite.
    pub representatives: u64,
    /// Conditional branches measured inside representative slices
    /// (unweighted), over the whole suite.
    pub measured_branches: u64,
    /// Total records of the suite's streams (what a full run would have
    /// simulated).
    pub total_records: u64,
}

/// The outcome of running one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// Label of the predictor axis value.
    pub predictor: String,
    /// Label of the scheme axis value.
    pub scheme: String,
    /// Suite name.
    pub suite: String,
    /// Label of the scenario axis value.
    pub scenario: String,
    /// Exact storage budget of the predictor, in bits (the schema-3 report
    /// field design-space exploration ranks by).
    pub storage_bits: u64,
    /// Per-trace exact counters, in suite order.
    pub traces: Vec<PointTraceMetrics>,
    /// Aggregate confidence report over the whole suite.
    pub aggregate: ConfidenceReport,
    /// Scenario metrics as deterministically ordered name/value pairs
    /// (empty for the baseline scenario). The names are stable report keys;
    /// see `docs/SCENARIOS.md` for each scenario's metric set.
    pub scenario_metrics: Vec<(String, f64)>,
    /// Phase-sampling accounting when the point's suite carries a
    /// [`SamplingSpec`]; `None` for full (unsampled) runs. When set, the
    /// per-trace counters and the aggregate report are weighted
    /// reconstructions, not raw measurements.
    pub sampling: Option<PointSamplingMetrics>,
}

impl PointResult {
    /// Arithmetic mean of the per-trace MPKI values.
    pub fn mean_mpki(&self) -> f64 {
        mean_trace_mpki(&self.traces)
    }

    /// Total measured conditional branches over the suite.
    pub fn total_predictions(&self) -> u64 {
        self.traces.iter().map(|t| t.predictions).sum()
    }
}

/// Why a sweep point run failed. A clone renders the same message, which is
/// how one source error fails every cell of a shared pass.
#[derive(Debug, Clone)]
pub enum PointError {
    /// The predictor/scheme pairing cannot execute.
    Invalid(InvalidPoint),
    /// A source of the point's suite could not be opened or read.
    Source {
        /// The source: the path of a file-backed source, the trace name of
        /// a synthetic one. A failure inside the shared-predictor pass,
        /// which reads every source at once, names the suite.
        label: String,
        /// What went wrong.
        error: FormatError,
    },
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointError::Invalid(invalid) => invalid.fmt(f),
            PointError::Source { label, error } => write!(f, "source error: {label}: {error}"),
        }
    }
}

impl std::error::Error for PointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PointError::Invalid(_) => None,
            PointError::Source { error, .. } => Some(error),
        }
    }
}

impl From<InvalidPoint> for PointError {
    fn from(invalid: InvalidPoint) -> Self {
        PointError::Invalid(invalid)
    }
}

/// Turns a [`FormatError`] of `spec` into the [`PointError::Source`] that
/// names it.
fn source_error(spec: &SourceSpec) -> impl Fn(FormatError) -> PointError + '_ {
    move |error| PointError::Source {
        label: match spec {
            SourceSpec::BinaryFile(path) | SourceSpec::DecodedFile(path) => {
                path.display().to_string()
            }
            SourceSpec::Synthetic(_) => spec.label(),
        },
        error,
    }
}

/// The engine that runs a cell, as a campaign's timing report names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellPath {
    /// The lane-batched engine ([`crate::multilane`]): one lane pass over
    /// the suite serves every cell of the group.
    Multilane,
    /// The scalar [`SimEngine`]: one predictor pass per trace serves every
    /// cell of the group.
    Scalar,
    /// The phase-sampled runner: one decode and one phase plan per trace
    /// serve every cell of the group.
    Sampled,
}

impl CellPath {
    /// The path's name in a timing report: `multilane`, `scalar` or
    /// `sampled`.
    pub fn label(self) -> &'static str {
        match self {
            CellPath::Multilane => "multilane",
            CellPath::Scalar => "scalar",
            CellPath::Sampled => "sampled",
        }
    }
}

/// Why a cell that asked for [`EngineKind::Multilane`] runs on the scalar
/// engine: the first of these that applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// A baseline predictor: lanes run TAGE only.
    Predictor,
    /// A TAGE geometry outside the lane group's packed layout (explored
    /// geometries may exceed it).
    Geometry,
    /// An estimator scheme, which hooks the scalar per-branch loop.
    Scheme,
    /// The shared-predictor scenario, whose interleaved pass is scalar.
    Scenario,
    /// A cell that could run on lanes, riding a group-mate's scalar pass,
    /// which is paid anyway.
    Group,
}

impl Fallback {
    /// The reason's name in a timing report: `predictor`, `geometry`,
    /// `scheme`, `scenario` or `group`.
    pub fn label(self) -> &'static str {
        match self {
            Fallback::Predictor => "predictor",
            Fallback::Geometry => "geometry",
            Fallback::Scheme => "scheme",
            Fallback::Scenario => "scenario",
            Fallback::Group => "group",
        }
    }

    /// Why `point` on its own cannot run on lanes, or `None` when it can:
    /// the storage-free TAGE pairing under any scenario but
    /// `shared-predictor`, over a geometry that fits the lane layout. The
    /// lane engine runs a cell under an adaptive target one stream at a
    /// time ([`crate::multilane::run_specs_multilane`]).
    fn of(point: &SweepPoint) -> Option<Self> {
        match &point.predictor {
            PredictorSpec::Baseline(_) => Some(Fallback::Predictor),
            PredictorSpec::Tage(geometry) | PredictorSpec::Geometry { geometry, .. }
                if !LaneGroup::supports(geometry) =>
            {
                Some(Fallback::Geometry)
            }
            _ if point.scheme != SchemeSpec::StorageFree => Some(Fallback::Scheme),
            _ if point.scenario == ScenarioSpec::SharedPredictor => Some(Fallback::Scenario),
            _ => None,
        }
    }
}

/// What the cells of a group share per trace (see [`plan`]).
#[derive(PartialEq, Eq, Hash)]
enum Share {
    /// One predictor pass: the cells' predictor label, and the spec digest
    /// and automaton of a TAGE predictor. The label names a programmatic
    /// [`PredictorSpec::Tage`] by size and automaton only, and a
    /// [`PredictorSpec::Geometry`] by a 32-bit digest.
    Predictor(String, Option<(u64, CounterAutomaton)>),
    /// One decoded stream and its phase plan.
    Plan(SamplingSpec),
}

/// Plans `cells`, each a point and its branches per trace, run under
/// `options` on `engine`: the groups of cells that share a pass over each
/// trace, in the order of each group's first cell, each listing its cells
/// in input order.
///
/// Unsampled cells share a group when they have the same predictor, the
/// same suite (name and digest) and the same branches per trace, and
/// `options` steer (the adaptive controller) or window (a warm-up) none of
/// them: those options leave each storage-free cell alone, and estimator
/// cells ignore them. Sampled cells share a group when they have the same
/// suite, sampling plan and branches per trace, whatever their predictor
/// and options. An invalid cell, and a sampled cell over a suite with no
/// trace, is a group of its own, so cells that share with nothing come
/// back one per group, in input order. The engine plays no part in the
/// grouping, only in each group's [`CellPath`].
pub fn plan<'a>(
    cells: impl IntoIterator<Item = (&'a SweepPoint, usize)>,
    options: &RunOptions,
    engine: EngineKind,
) -> Vec<GroupPlan<'a>> {
    let mut groups: Vec<(Vec<usize>, Vec<&'a SweepPoint>, usize)> = Vec::new();
    let mut by_key = HashMap::new();
    for (index, (point, branches_per_trace)) in cells.into_iter().enumerate() {
        let share = match point.suite.sampling() {
            _ if point.validate().is_err() => None,
            Some(_) if point.suite.sources().is_empty() => None,
            Some(sampling) => Some(Share::Plan(sampling)),
            None if point.scheme == SchemeSpec::StorageFree
                && (options.warmup_branches > 0 || options.adaptive_target_mkp.is_some()) =>
            {
                None
            }
            None => Some(Share::Predictor(
                point.predictor.label(),
                match &point.predictor {
                    PredictorSpec::Tage(geometry) | PredictorSpec::Geometry { geometry, .. } => {
                        Some((geometry.spec_digest(), geometry.automaton))
                    }
                    PredictorSpec::Baseline(_) => None,
                },
            )),
        };
        let group = match share {
            Some(share) => {
                let key = (
                    share,
                    point.suite.name().to_string(),
                    point.suite.digest(branches_per_trace),
                    branches_per_trace,
                );
                *by_key.entry(key).or_insert(groups.len())
            }
            None => groups.len(),
        };
        if group == groups.len() {
            groups.push((Vec::new(), Vec::new(), branches_per_trace));
        }
        groups[group].0.push(index);
        groups[group].1.push(point);
    }
    groups
        .into_iter()
        .map(|(cells, points, branches_per_trace)| {
            GroupPlan::new(cells, points, branches_per_trace, options, engine)
        })
        .collect()
}

/// One group of [`plan`]: cells that share a pass over each trace, the
/// path they take, why a cell that asked for lanes runs scalar, and the
/// tasks that run them. Only [`plan`] builds one.
#[derive(Debug)]
pub struct GroupPlan<'a> {
    /// The cells' indexes into the planned list, ascending.
    cells: Vec<usize>,
    points: Vec<&'a SweepPoint>,
    /// Per cell, why a multilane request runs scalar.
    fallbacks: Vec<Option<Fallback>>,
    /// The distinct schemes of the cells, and each cell's among them.
    schemes: Vec<SchemeSpec>,
    scheme_of: Vec<usize>,
    path: CellPath,
    tasks: usize,
    branches_per_trace: usize,
    options: RunOptions,
}

/// The outcome of one task of a [`GroupPlan`], for
/// [`GroupPlan::assemble`].
#[derive(Debug)]
pub struct TaskRun(Run);

#[derive(Debug)]
enum Run {
    /// An unsampled group's pass: each distinct scheme's per-trace results,
    /// and the shared-predictor pass when a cell measures it.
    Pass {
        traces: Vec<Vec<PointTraceMetrics>>,
        shared: Option<SharedRunResult>,
    },
    /// One trace of a sampled group: each cell's sampled run, in cell
    /// order. Empty for the one task of a suite with no trace.
    Trace(Vec<SampledRunResult>),
}

impl<'a> GroupPlan<'a> {
    fn new(
        cells: Vec<usize>,
        points: Vec<&'a SweepPoint>,
        branches_per_trace: usize,
        options: &RunOptions,
        engine: EngineKind,
    ) -> Self {
        let multilane = engine == EngineKind::Multilane;
        let sampled = points[0].suite.sampling().is_some();
        let blockers: Vec<Option<Fallback>> =
            points.iter().map(|point| Fallback::of(point)).collect();
        let path = if sampled {
            CellPath::Sampled
        } else if multilane && blockers.iter().all(Option::is_none) {
            CellPath::Multilane
        } else {
            CellPath::Scalar
        };
        let fallbacks = blockers
            .into_iter()
            .map(|blocker| {
                (multilane && path == CellPath::Scalar).then(|| blocker.unwrap_or(Fallback::Group))
            })
            .collect();
        let mut schemes: Vec<SchemeSpec> = Vec::new();
        let scheme_of = points
            .iter()
            .map(|point| {
                schemes
                    .iter()
                    .position(|&scheme| scheme == point.scheme)
                    .unwrap_or_else(|| {
                        schemes.push(point.scheme);
                        schemes.len() - 1
                    })
            })
            .collect();
        GroupPlan {
            tasks: if sampled {
                points[0].suite.sources().len().max(1)
            } else {
                1
            },
            cells,
            points,
            fallbacks,
            schemes,
            scheme_of,
            path,
            branches_per_trace,
            options: options.clone(),
        }
    }

    /// The group's cells, as indexes into the list [`plan`] was given, in
    /// ascending order.
    pub fn cells(&self) -> &[usize] {
        &self.cells
    }

    /// The engine that runs every cell of the group.
    pub fn path(&self) -> CellPath {
        self.path
    }

    /// Per cell of [`GroupPlan::cells`], why it runs scalar although it
    /// asked for [`EngineKind::Multilane`]; `None` on lanes, on sampled
    /// cells and under [`EngineKind::Scalar`].
    pub fn fallbacks(&self) -> &[Option<Fallback>] {
        &self.fallbacks
    }

    /// How many tasks run the group: one per trace of a sampled group (one
    /// for a suite with no trace), one for an unsampled group.
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Runs task `task` of the group. An unsampled group's one task is its
    /// pass: the lane pass, or the scalar pass (one predictor per trace
    /// graded by each distinct scheme) plus the shared-predictor pass when
    /// a cell measures it. A sampled group's task `t` runs trace `t` for
    /// every cell: it opens, and so decodes, the trace once, builds its
    /// phase plan once ([`crate::phase::build_plan`]), and runs each cell's
    /// predictor from that plan over the rewound stream, restoring and
    /// storing its checkpoints in `warm`.
    ///
    /// # Errors
    ///
    /// An invalid cell fails the task with [`PointError::Invalid`]. A source
    /// that cannot be opened or read fails it with [`PointError::Source`].
    ///
    /// # Panics
    ///
    /// When `task` is not below [`GroupPlan::tasks`].
    pub fn run_task(&self, task: usize, warm: Option<&WarmCache>) -> Result<TaskRun, PointError> {
        assert!(task < self.tasks, "task {task} of {}", self.tasks);
        for point in &self.points {
            point.validate()?;
        }
        let first = self.points[0];
        let branches_per_trace = self.branches_per_trace;
        if self.path == CellPath::Sampled {
            let Some(spec) = first.suite.sources().get(task) else {
                return Ok(TaskRun(Run::Trace(Vec::new())));
            };
            let sampling = first.suite.sampling().expect("a sampled group samples");
            let located = source_error(spec);
            let mut source = spec.open(branches_per_trace).map_err(&located)?;
            let phases = build_plan(&mut source, sampling).map_err(&located)?;
            let warm = warm.map(|cache| (cache, spec.digest(branches_per_trace)));
            let runs = self
                .points
                .iter()
                .map(|point| {
                    let Some(blueprint) = point.predictor.tage_blueprint() else {
                        unreachable!("validate() restricts sampled points to TAGE predictors")
                    };
                    run_from_plan(blueprint, &self.options, &phases, warm, &mut source)
                        .map_err(&located)
                })
                .collect::<Result<_, _>>()?;
            return Ok(TaskRun(Run::Trace(runs)));
        }
        let traces = if self.path == CellPath::Multilane {
            // Cells on lanes are storage-free, so `schemes` holds that one.
            vec![run_lanes(first, branches_per_trace, &self.options)?]
        } else {
            run_schemes(first, &self.schemes, branches_per_trace, &self.options)?
        };
        let shared = self
            .points
            .iter()
            .any(|point| point.scenario == ScenarioSpec::SharedPredictor)
            .then(|| run_shared_pass(&first.predictor, &first.suite, branches_per_trace))
            .transpose()?;
        Ok(TaskRun(Run::Pass { traces, shared }))
    }

    /// The results of the group's cells, in the order of
    /// [`GroupPlan::cells`], from the runs of its tasks in task order. Each
    /// equals the result of running the cell alone: a cell assembles its
    /// scheme's traces ([`PointResult::assemble`]), or its sampled runs in
    /// suite order ([`PointResult::assemble_sampled`]), and a
    /// shared-predictor cell reads the group's interleaved pass.
    ///
    /// # Panics
    ///
    /// When `runs` are not the runs of this group's tasks.
    pub fn assemble(&self, runs: Vec<TaskRun>) -> Vec<PointResult> {
        assert_eq!(runs.len(), self.tasks, "one run per task");
        if self.path == CellPath::Sampled {
            let mut cells: Vec<Vec<SampledRunResult>> = self
                .points
                .iter()
                .map(|_| Vec::with_capacity(runs.len()))
                .collect();
            for TaskRun(run) in runs {
                let Run::Trace(trace) = run else {
                    unreachable!("a sampled group's tasks run traces")
                };
                for (cell, run) in cells.iter_mut().zip(trace) {
                    cell.push(run);
                }
            }
            return self
                .points
                .iter()
                .zip(cells)
                .map(|(point, runs)| PointResult::assemble_sampled(point, runs))
                .collect();
        }
        let Some(TaskRun(Run::Pass { traces, shared })) = runs.into_iter().next() else {
            unreachable!("an unsampled group's one task runs its pass")
        };
        self.points
            .iter()
            .zip(&self.scheme_of)
            .map(|(point, &scheme)| {
                let mut result = PointResult::assemble(point, traces[scheme].clone());
                if point.scenario == ScenarioSpec::SharedPredictor {
                    result.scenario_metrics = shared_predictor_metrics(
                        shared
                            .as_ref()
                            .expect("a shared-predictor cell runs the pass"),
                        &result.traces,
                    );
                }
                result
            })
            .collect()
    }
}

/// Executes one sweep point: every source of the suite streamed through the
/// engine, cold predictor and scheme per source, serial within the point
/// (cross-point parallelism is the campaign scheduler's job, which keeps
/// each point's result independent of thread count). The recovery-energy
/// and prefetch-throttle metrics are derived from the point's aggregate
/// report ([`PointResult::assemble`]); the shared-predictor scenario adds
/// one interleaved pass over the suite after the per-source runs.
///
/// `branches_per_trace` sizes synthetic sources; file-backed sources yield
/// whatever their file holds.
///
/// `options` configure the storage-free TAGE runs — full, lane-batched and
/// phase-sampled alike: the `medium-conf-bim` window, a measurement warmup
/// and the adaptive saturation controller. Campaign cells pass
/// [`RunOptions::default`]. The estimator-scheme path and the
/// shared-predictor pass ignore them.
///
/// `engine` picks the execution path, as [`plan`] decides it for this one
/// cell. [`EngineKind::Multilane`] routes the point through the
/// lane-batched lockstep engine when the cell is the storage-free TAGE
/// pairing under any scenario but `shared-predictor`, over a geometry that
/// fits the lane layout. Other cells run on the scalar engine
/// ([`Fallback`] names why).
///
/// `warm` only matters for phase-sampled suites: the sampled runner
/// checkpoints the sequential predictor state at each representative
/// slice's start through [`crate::warmcache`], so the first run of a
/// (predictor, trace) pair pays one sequential pass and every later run
/// simulates only the slices. Full (unsampled) points ignore it.
///
/// Either way the result is bit-identical: the engine and the cache are
/// purely throughput decisions.
pub fn run_point(
    point: &SweepPoint,
    branches_per_trace: usize,
    options: &RunOptions,
    engine: EngineKind,
    warm: Option<&WarmCache>,
) -> Result<PointResult, PointError> {
    let group = plan([(point, branches_per_trace)], options, engine)
        .pop()
        .expect("one cell plans one group");
    let runs = (0..group.tasks())
        .map(|task| group.run_task(task, warm))
        .collect::<Result<_, _>>()?;
    Ok(group.assemble(runs).pop().expect("one result per cell"))
}

impl From<TraceRunResult> for PointTraceMetrics {
    fn from(result: TraceRunResult) -> Self {
        PointTraceMetrics {
            trace_name: result.trace_name,
            predictions: result.conditional_branches,
            mispredictions: result.report.total().mispredictions,
            instructions: result.instructions,
            report: result.report,
            final_saturation_probability: result.final_saturation_probability,
        }
    }
}

impl PointResult {
    /// The result of `point` over its traces, in suite order: the traces,
    /// the aggregate of their reports, and the scenario metrics that are
    /// functions of that aggregate — the recovery-energy
    /// ([`energy::metrics`]) and prefetch-throttle ([`prefetch::metrics`])
    /// scenarios at their default models. Shared-predictor metrics, which
    /// need a pass of their own ([`GroupPlan::assemble`] adds them), and
    /// sampling accounting start empty. Traces run apart (each from a cold
    /// predictor) assemble into the result of running them together.
    pub fn assemble(point: &SweepPoint, traces: Vec<PointTraceMetrics>) -> Self {
        let mut aggregate = ConfidenceReport::new();
        for trace in &traces {
            aggregate.merge(&trace.report);
        }
        let scenario_metrics = match point.scenario {
            ScenarioSpec::RecoveryEnergy => {
                energy::metrics(&aggregate, &RecoveryEnergyModel::default())
            }
            ScenarioSpec::PrefetchThrottle => prefetch::metrics(
                &aggregate,
                &PrefetchPolicy::throttle_low(),
                &PrefetchModel::default(),
            ),
            ScenarioSpec::Baseline | ScenarioSpec::SharedPredictor => Vec::new(),
        };
        PointResult {
            predictor: point.predictor.label(),
            scheme: point.scheme.label(),
            suite: point.suite.name().to_string(),
            scenario: point.scenario.label().to_string(),
            storage_bits: point.predictor.storage_bits(),
            traces,
            aggregate,
            scenario_metrics,
            sampling: None,
        }
    }

    /// The result of sampled `point` from the sampled runs of its traces,
    /// in suite order: [`PointResult::assemble`] of the reconstructed
    /// traces, plus the sampling accounting summed over them.
    ///
    /// # Panics
    ///
    /// When `point`'s suite carries no sampling plan.
    pub fn assemble_sampled(point: &SweepPoint, traces: Vec<SampledRunResult>) -> Self {
        let sampling = point
            .suite
            .sampling()
            .expect("sampled results come from a sampled suite");
        let mut metrics = PointSamplingMetrics {
            interval: sampling.interval,
            k: sampling.k,
            seed: sampling.seed,
            representatives: 0,
            measured_branches: 0,
            total_records: 0,
        };
        let traces = traces
            .into_iter()
            .map(|sampled| {
                metrics.representatives += sampled.plan.representatives.len() as u64;
                metrics.measured_branches += sampled.measured_branches;
                metrics.total_records += sampled.plan.total_records;
                sampled.result.into()
            })
            .collect();
        PointResult {
            sampling: Some(metrics),
            ..PointResult::assemble(point, traces)
        }
    }
}

/// The lane-batched pass of a group: all suite sources through one
/// [`crate::multilane::MultilaneEngine`], [`DEFAULT_LANES`] streams in
/// lockstep, one result per trace in suite order.
fn run_lanes(
    point: &SweepPoint,
    branches_per_trace: usize,
    options: &RunOptions,
) -> Result<Vec<PointTraceMetrics>, PointError> {
    let Some(blueprint) = point.predictor.tage_blueprint() else {
        unreachable!("a lane group runs TAGE predictors")
    };
    let specs = point.suite.sources();
    let results = run_specs_located(blueprint, specs, branches_per_trace, options, DEFAULT_LANES)
        .map_err(|(index, error)| source_error(&specs[index])(error))?;
    Ok(results.into_iter().map(PointTraceMetrics::from).collect())
}

/// The scalar pass of a group: every source of `first`'s suite through one
/// predictor, graded by each of `schemes`. Returns each scheme's per-trace
/// results, in suite order, indexed like `schemes`.
fn run_schemes(
    first: &SweepPoint,
    schemes: &[SchemeSpec],
    branches_per_trace: usize,
    options: &RunOptions,
) -> Result<Vec<Vec<PointTraceMetrics>>, PointError> {
    let suite = &first.suite;
    let mut traces: Vec<Vec<PointTraceMetrics>> = schemes
        .iter()
        .map(|_| Vec::with_capacity(suite.sources().len()))
        .collect();
    // Estimator cells ignore the options, and a storage-free cell under a
    // warm-up runs alone.
    let warmup = if schemes.contains(&SchemeSpec::StorageFree) {
        options.warmup_branches
    } else {
        0
    };
    let threshold = first.predictor.self_confidence_threshold();
    match &first.predictor {
        PredictorSpec::Tage(geometry) | PredictorSpec::Geometry { geometry, .. } => {
            for spec in suite.sources() {
                let located = source_error(spec);
                let mut source = spec.open(branches_per_trace).map_err(&located)?;
                let mut predictor = TagePredictor::new(geometry);
                let mut passes = Vec::with_capacity(schemes.len());
                for scheme in schemes {
                    let (scheme, steer): (Box<dyn ConfidenceScheme<TagePrediction> + Send>, _) =
                        match scheme {
                            SchemeSpec::StorageFree => {
                                let steer = AdaptiveObserver::for_options(options);
                                if let Some(observer) = &steer {
                                    predictor.set_automaton(observer.controller.automaton());
                                }
                                let classifier = TageConfidenceClassifier::with_window(
                                    geometry,
                                    options.bim_miss_window,
                                );
                                (Box::new(classifier), steer)
                            }
                            SchemeSpec::Estimator(estimator) => (estimator.build(threshold), None),
                        };
                    passes.push(SchemePass {
                        scheme,
                        report: ReportObserver::default(),
                        steer,
                    });
                }
                let mut engine = SimEngine::new(&mut predictor, NoScheme).with_warmup(warmup);
                run_group_trace(&mut engine, &mut source, passes, &mut traces, |predictor| {
                    predictor.geometry().automaton.saturation_probability()
                })
                .map_err(located)?;
            }
        }
        PredictorSpec::Baseline(baseline) => {
            for spec in suite.sources() {
                let located = source_error(spec);
                let mut source = spec.open(branches_per_trace).map_err(&located)?;
                let passes = schemes
                    .iter()
                    .map(|scheme| {
                        let SchemeSpec::Estimator(estimator) = scheme else {
                            unreachable!("validate() rejects storage-free on baseline predictors")
                        };
                        SchemePass {
                            scheme: estimator.build(threshold),
                            report: ReportObserver::default(),
                            steer: (),
                        }
                    })
                    .collect();
                let mut engine = SimEngine::new(baseline.build(), NoScheme);
                // Only TAGE has an automaton to report.
                run_group_trace(&mut engine, &mut source, passes, &mut traces, |_| 1.0)
                    .map_err(located)?;
            }
        }
    }
    Ok(traces)
}

/// The engine's own scheme in a group pass. Each scheme of the group grades
/// the lookup inside [`FanOut`], and the shared-predictor pass counts
/// mispredictions alone, so this grade is never read.
#[derive(Debug)]
struct NoScheme;

impl<L> ConfidenceScheme<L> for NoScheme {
    fn assess(&mut self, _pc: u64, _lookup: &L) -> Assessment {
        Assessment::level_only(ConfidenceLevel::Low)
    }

    fn observe(&mut self, _pc: u64, _lookup: &L, _taken: bool) {}

    fn reset(&mut self) {}

    fn name(&self) -> String {
        "none".to_string()
    }
}

/// One scheme of a group over the trace in flight: a cold scheme and
/// report, and the adaptive controller where the scheme runs one (`()`
/// where none can).
struct SchemePass<L, A> {
    scheme: Box<dyn ConfidenceScheme<L> + Send>,
    report: ReportObserver,
    steer: A,
}

/// Hands each branch of a group's one predictor pass to every scheme in
/// turn, between the predictor's lookup and its training. A scheme grades
/// the lookup and learns the outcome, as an engine's own scheme would. Then
/// its report and controller see the branch under its grade, in the order a
/// one-cell engine runs them.
struct FanOut<L, A>(Vec<SchemePass<L, A>>);

impl<P, A> EngineObserver<P> for FanOut<P::Lookup, A>
where
    P: PredictorCore,
    A: EngineObserver<P>,
{
    fn on_branch(&mut self, predictor: &mut P, event: &BranchEvent<'_, P::Lookup>) {
        for pass in &mut self.0 {
            let assessment = pass.scheme.assess(event.pc, event.lookup);
            pass.scheme.observe(event.pc, event.lookup, event.taken);
            let event = BranchEvent {
                assessment,
                ..*event
            };
            pass.report.on_branch(predictor, &event);
            pass.steer.on_branch(predictor, &event);
        }
    }

    fn on_instructions(&mut self, instructions: u64, in_measurement: bool) {
        for pass in &mut self.0 {
            EngineObserver::<P>::on_instructions(&mut pass.report, instructions, in_measurement);
            pass.steer.on_instructions(instructions, in_measurement);
        }
    }
}

/// Streams one source through `engine` for every scheme of a group, and
/// appends each scheme's trace metrics to its list in `traces`.
/// `final_probability` reads the saturation probability off the predictor
/// once the trace has run.
fn run_group_trace<P, A>(
    engine: &mut SimEngine<P, NoScheme>,
    source: &mut AnySource,
    passes: Vec<SchemePass<P::Lookup, A>>,
    traces: &mut [Vec<PointTraceMetrics>],
    final_probability: impl Fn(&P) -> f64,
) -> Result<(), FormatError>
where
    P: PredictorCore,
    A: EngineObserver<P>,
{
    let trace_name = source.name().to_string();
    let mut fan_out = FanOut(passes);
    let summary = engine.run_source(source, &mut fan_out)?;
    let final_saturation_probability = final_probability(engine.predictor());
    for (pass, traces) in fan_out.0.into_iter().zip(traces) {
        traces.push(PointTraceMetrics {
            trace_name: trace_name.clone(),
            predictions: summary.measured_branches,
            mispredictions: pass.report.report.total().mispredictions,
            instructions: summary.measured_instructions,
            report: pass.report.report,
            final_saturation_probability,
        });
    }
    Ok(())
}

/// The shared-predictor interference pass: every suite source opened as
/// one core's stream, interleaved round-robin into one cold `predictor`.
fn run_shared_pass(
    predictor: &PredictorSpec,
    suite: &SourceSuite,
    branches_per_trace: usize,
) -> Result<SharedRunResult, PointError> {
    let sources = suite
        .sources()
        .iter()
        .map(|spec| spec.open(branches_per_trace).map_err(source_error(spec)))
        .collect::<Result<Vec<_>, _>>()?;
    let shared = match predictor {
        PredictorSpec::Tage(geometry) | PredictorSpec::Geometry { geometry, .. } => {
            run_shared_predictor(
                &mut SimEngine::new(TagePredictor::new(geometry), NoScheme),
                sources,
            )
        }
        PredictorSpec::Baseline(baseline) => {
            run_shared_predictor(&mut SimEngine::new(baseline.build(), NoScheme), sources)
        }
    };
    shared.map_err(|error| PointError::Source {
        label: suite.name().to_string(),
        error,
    })
}

/// Compares the shared-predictor pass against the private per-source
/// counters the point already measured (same sources, same order).
fn shared_predictor_metrics(
    shared: &SharedRunResult,
    private: &[PointTraceMetrics],
) -> Vec<(String, f64)> {
    let private_mpki = mean_trace_mpki(private);
    let private_mispredictions: u64 = private.iter().map(|t| t.mispredictions).sum();
    vec![
        ("cores".to_string(), shared.cores.len() as f64),
        ("shared_mean_mpki".to_string(), shared.mean_mpki()),
        ("private_mean_mpki".to_string(), private_mpki),
        (
            "mpki_degradation".to_string(),
            shared.mean_mpki() - private_mpki,
        ),
        (
            "shared_mispredictions".to_string(),
            shared.total_mispredictions() as f64,
        ),
        (
            "private_mispredictions".to_string(),
            private_mispredictions as f64,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage_traces::suites;

    fn mini() -> Suite {
        suites::cbp1_mini()
    }

    #[test]
    fn predictor_tokens_parse_and_label_round_trip() {
        let tokens = PredictorSpec::known_tokens();
        assert_eq!(tokens.len(), 10, "6 TAGE variants + 4 baselines");
        for token in &tokens {
            let spec = PredictorSpec::parse(token).expect("known token parses");
            assert_eq!(&spec.label(), token);
        }
        let err = PredictorSpec::parse("nonsense").unwrap_err();
        assert!(
            err.contains("unknown predictor token \"nonsense\""),
            "{err}"
        );
        assert!(err.contains("tage-16k"), "{err}");
        assert!(PredictorSpec::parse("tage-16k")
            .unwrap()
            .supports_storage_free());
        assert!(!PredictorSpec::parse("gshare")
            .unwrap()
            .supports_storage_free());
    }

    #[test]
    fn geometry_tokens_round_trip_through_files() {
        let path =
            std::env::temp_dir().join(format!("tage-geometry-token-{}.json", std::process::id()));
        let geometry = TageGeometry::small();
        geometry.save(&path).expect("write geometry file");

        let token = format!("{GEOMETRY_TOKEN_PREFIX}{}", path.display());
        let spec = PredictorSpec::parse(&token).expect("geometry token parses");
        // The token survives a round trip and keeps pointing at the file.
        assert_eq!(spec.token(), token);
        assert_eq!(
            PredictorSpec::parse(&spec.token()).unwrap().label(),
            spec.label()
        );
        // The parsed spec carries the exact geometry: same digest, same
        // storage, and a label that embeds the digest (so two same-size
        // geometries stay distinct in reports and checkpoint keys).
        let blueprint = spec.tage_blueprint().expect("geometry specs are TAGE");
        assert_eq!(blueprint.tage_geometry(), geometry);
        assert_eq!(spec.storage_bits(), geometry.storage_bits());
        assert_eq!(
            spec.label(),
            format!(
                "{}-g{:08x}",
                geometry.name().to_ascii_lowercase(),
                geometry.spec_digest() as u32
            )
        );
        assert!(spec.supports_storage_free());

        std::fs::remove_file(&path).expect("cleanup");
        // A dangling path no longer parses, and the error says why.
        let err = PredictorSpec::parse(&token).unwrap_err();
        assert!(err.contains(&path.display().to_string()), "{err}");
    }

    #[test]
    fn bad_geometry_files_fail_with_the_path_and_the_field() {
        let path =
            std::env::temp_dir().join(format!("tage-geometry-bad-{}.json", std::process::id()));
        let json = TageGeometry::small()
            .to_json()
            .replace("\"counter_bits\": 3", "\"counter_bits\": 9");
        std::fs::write(&path, json).expect("write geometry file");
        let err = PredictorSpec::parse(&format!("{GEOMETRY_TOKEN_PREFIX}{}", path.display()))
            .unwrap_err();
        std::fs::remove_file(&path).expect("cleanup");
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(err.contains("counter_bits"), "{err}");

        let missing = std::env::temp_dir().join("tage-geometry-missing.json");
        let err = PredictorSpec::parse(&format!("{GEOMETRY_TOKEN_PREFIX}{}", missing.display()))
            .unwrap_err();
        assert!(err.contains(&missing.display().to_string()), "{err}");
    }

    #[test]
    fn programmatic_tage_configs_get_honest_labels() {
        for exponent in [0, 5, 10] {
            let spec = PredictorSpec::Tage(
                TageGeometry::small().with_automaton(CounterAutomaton::probabilistic(exponent)),
            );
            assert_eq!(spec.label(), format!("tage-16k-p{exponent}"));
        }
        let std = PredictorSpec::Tage(TageGeometry::small());
        assert_eq!(std.label(), "tage-16k-std");
        // paper_default is probabilistic(7): the plain token, not "-p7".
        let paper = PredictorSpec::Tage(
            TageGeometry::small().with_automaton(CounterAutomaton::paper_default()),
        );
        assert_eq!(paper.label(), "tage-16k");
    }

    #[test]
    fn scheme_tokens_parse_and_label_round_trip() {
        let tokens = SchemeSpec::known_tokens();
        assert_eq!(tokens.len(), 4, "storage-free + 3 estimators");
        for token in &tokens {
            let spec = SchemeSpec::parse(token).expect("known token parses");
            assert_eq!(&spec.label(), token);
        }
        assert!(SchemeSpec::parse("nonsense").is_none());
    }

    #[test]
    fn storage_free_on_baseline_is_rejected() {
        let point = SweepPoint::over_suite(
            PredictorSpec::parse("gshare").unwrap(),
            SchemeSpec::StorageFree,
            &mini(),
        );
        let error = point.validate().unwrap_err();
        assert!(error.to_string().contains("gshare"));
        let run_error = run_point(
            &point,
            500,
            &RunOptions::default(),
            EngineKind::Scalar,
            None,
        )
        .unwrap_err();
        assert!(matches!(run_error, PointError::Invalid(_)));
        assert!(run_error.to_string().contains("gshare"));
    }

    #[test]
    fn storage_free_point_matches_the_suite_runner() {
        let suite = mini();
        let config = TageGeometry::small().with_automaton(CounterAutomaton::paper_default());
        let point = SweepPoint::over_suite(
            PredictorSpec::Tage(config.clone()),
            SchemeSpec::StorageFree,
            &suite,
        );
        let result = run_point(
            &point,
            3_000,
            &RunOptions::default(),
            EngineKind::Scalar,
            None,
        )
        .unwrap();
        assert_eq!(result.traces.len(), 4);
        let mut aggregate = ConfidenceReport::new();
        for (ours, spec) in result.traces.iter().zip(suite.traces()) {
            let mut source = tage_traces::source::SyntheticSource::from_spec(spec, 3_000);
            let theirs =
                crate::runner::run_source(&config, &mut source, &RunOptions::default()).unwrap();
            assert_eq!(*ours, PointTraceMetrics::from(theirs.clone()));
            assert!((ours.mpki() - theirs.mpki()).abs() < 1e-12);
            aggregate.merge(&theirs.report);
        }
        assert_eq!(result.aggregate, aggregate);
    }

    /// The 2,000-branch paper pins cannot see an options bug: the adaptive
    /// window never closes that early. At 40,000 branches it does.
    #[test]
    fn run_options_reach_every_storage_free_path() {
        let suite = mini();
        let config = TageGeometry::small().with_automaton(CounterAutomaton::paper_default());
        let point = SweepPoint::over_suite(
            PredictorSpec::Tage(config.clone()),
            SchemeSpec::StorageFree,
            &suite,
        );
        let no_window = RunOptions {
            bim_miss_window: 0,
            ..RunOptions::default()
        };
        let mut results = Vec::new();
        for options in [no_window, RunOptions::adaptive()] {
            let scalar = run_point(&point, 40_000, &options, EngineKind::Scalar, None).unwrap();
            let multilane =
                run_point(&point, 40_000, &options, EngineKind::Multilane, None).unwrap();
            assert_eq!(scalar, multilane, "{options:?}");
            for (ours, spec) in scalar.traces.iter().zip(suite.traces()) {
                let mut source = tage_traces::source::SyntheticSource::from_spec(spec, 40_000);
                let theirs = crate::runner::run_source(&config, &mut source, &options).unwrap();
                assert_eq!(*ours, PointTraceMetrics::from(theirs), "{options:?}");
            }
            results.push(scalar);
        }
        let medium_bim = |result: &PointResult| {
            result
                .aggregate
                .class(tage_confidence::PredictionClass::MediumConfBim)
                .predictions
        };
        assert_eq!(
            medium_bim(&results[0]),
            0,
            "window 0 has no medium-conf-bim"
        );
        assert!(medium_bim(&results[1]) > 0, "the default window has one");
        let finals: Vec<f64> = results[1]
            .traces
            .iter()
            .map(|trace| trace.final_saturation_probability)
            .collect();
        assert_eq!(
            finals,
            [1.0 / 256.0, 1.0 / 128.0, 1.0 / 128.0, 1.0 / 128.0],
            "the adaptive controller moves the first trace's probability"
        );
    }

    #[test]
    fn every_valid_axis_combination_runs() {
        let suite = Suite::new("one", vec![mini().trace("INT-2").unwrap().clone()]);
        for predictor_token in PredictorSpec::known_tokens() {
            // One TAGE size is enough here; skip the larger tables.
            if predictor_token.contains("64k") || predictor_token.contains("256k") {
                continue;
            }
            for scheme_token in SchemeSpec::known_tokens() {
                let point = SweepPoint::over_suite(
                    PredictorSpec::parse(&predictor_token).unwrap(),
                    SchemeSpec::parse(&scheme_token).unwrap(),
                    &suite,
                );
                if point.validate().is_err() {
                    continue;
                }
                let result = run_point(
                    &point,
                    1_000,
                    &RunOptions::default(),
                    EngineKind::Scalar,
                    None,
                )
                .unwrap();
                assert_eq!(
                    result.total_predictions(),
                    1_000,
                    "{predictor_token} × {scheme_token}"
                );
                assert_eq!(result.predictor, predictor_token);
                assert_eq!(result.scheme, scheme_token);
            }
        }
    }

    #[test]
    fn multilane_point_is_bit_identical_to_the_scalar_point() {
        // The batchable cell: TAGE × storage-free × baseline scenario.
        let point = SweepPoint::over_suite(
            PredictorSpec::parse("tage-16k").unwrap(),
            SchemeSpec::StorageFree,
            &mini(),
        );
        let scalar = run_point(
            &point,
            2_000,
            &RunOptions::default(),
            EngineKind::Scalar,
            None,
        )
        .unwrap();
        let multilane = run_point(
            &point,
            2_000,
            &RunOptions::default(),
            EngineKind::Multilane,
            None,
        )
        .unwrap();
        assert_eq!(scalar, multilane);
    }

    /// Runs every task of `group` in order and assembles its cells.
    fn run_group(group: &GroupPlan<'_>) -> Vec<PointResult> {
        let runs = (0..group.tasks())
            .map(|task| group.run_task(task, None))
            .collect::<Result<_, _>>()
            .unwrap();
        group.assemble(runs)
    }

    /// Storage-free TAGE cells of the baseline, recovery-energy and
    /// prefetch-throttle scenarios form one group that runs one lane pass;
    /// each cell equals its scalar run alone. One estimator or
    /// shared-predictor cell in the group sends the whole group scalar.
    #[test]
    fn a_lane_group_equals_its_cells_run_alone_on_the_scalar_engine() {
        let points: Vec<SweepPoint> = [
            ScenarioSpec::Baseline,
            ScenarioSpec::RecoveryEnergy,
            ScenarioSpec::PrefetchThrottle,
        ]
        .into_iter()
        .map(|scenario| {
            SweepPoint::over_suite(
                PredictorSpec::parse("tage-16k").unwrap(),
                SchemeSpec::StorageFree,
                &mini(),
            )
            .with_scenario(scenario)
        })
        .collect();
        let options = RunOptions::default();
        let cells = || points.iter().map(|point| (point, 2_000));
        let groups = plan(cells(), &options, EngineKind::Multilane);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].cells(), [0, 1, 2]);
        assert_eq!(groups[0].path(), CellPath::Multilane);
        assert_eq!(groups[0].fallbacks(), [None; 3]);
        assert_eq!(groups[0].tasks(), 1);
        let scalar = plan(cells(), &options, EngineKind::Scalar);
        assert_eq!(scalar[0].path(), CellPath::Scalar);
        assert_eq!(scalar[0].fallbacks(), [None; 3]);
        let grouped = run_group(&groups[0]);
        for (point, together) in points.iter().zip(&grouped) {
            let alone = run_point(point, 2_000, &options, EngineKind::Scalar, None).unwrap();
            assert_eq!(*together, alone, "{}", point.scenario);
        }
        for (other, reason) in [
            (
                SweepPoint {
                    scheme: SchemeSpec::parse("jrs-enhanced").unwrap(),
                    ..points[0].clone()
                },
                Fallback::Scheme,
            ),
            (
                points[0]
                    .clone()
                    .with_scenario(ScenarioSpec::SharedPredictor),
                Fallback::Scenario,
            ),
        ] {
            let mixed = plan(
                points.iter().chain([&other]).map(|point| (point, 2_000)),
                &options,
                EngineKind::Multilane,
            );
            assert_eq!(mixed.len(), 1);
            assert_eq!(mixed[0].path(), CellPath::Scalar);
            let group = Some(Fallback::Group);
            assert_eq!(mixed[0].fallbacks(), [group, group, group, Some(reason)]);
        }
    }

    #[test]
    fn unbatchable_cells_fall_back_to_the_scalar_path() {
        // An estimator scheme hooks the scalar per-branch loop, and the
        // shared-predictor pass is scalar; Multilane must quietly produce
        // the same result.
        let estimator = SweepPoint::over_suite(
            PredictorSpec::parse("tage-16k").unwrap(),
            SchemeSpec::parse("self-confidence").unwrap(),
            &mini(),
        );
        let scenario = SweepPoint::over_suite(
            PredictorSpec::parse("tage-16k").unwrap(),
            SchemeSpec::StorageFree,
            &mini(),
        )
        .with_scenario(ScenarioSpec::SharedPredictor);
        for (point, reason) in [
            (estimator, Fallback::Scheme),
            (scenario, Fallback::Scenario),
        ] {
            let groups = plan(
                [(&point, 1_000)],
                &RunOptions::default(),
                EngineKind::Multilane,
            );
            assert_eq!(groups[0].path(), CellPath::Scalar);
            assert_eq!(groups[0].fallbacks(), [Some(reason)]);
            let scalar = run_point(
                &point,
                1_000,
                &RunOptions::default(),
                EngineKind::Scalar,
                None,
            )
            .unwrap();
            let multilane = run_point(
                &point,
                1_000,
                &RunOptions::default(),
                EngineKind::Multilane,
                None,
            )
            .unwrap();
            assert_eq!(scalar, multilane);
        }
    }

    #[test]
    fn point_runs_are_deterministic() {
        let point = SweepPoint::over_suite(
            PredictorSpec::parse("perceptron").unwrap(),
            SchemeSpec::parse("self-confidence").unwrap(),
            &mini(),
        );
        let a = run_point(
            &point,
            2_000,
            &RunOptions::default(),
            EngineKind::Scalar,
            None,
        )
        .unwrap();
        let b = run_point(
            &point,
            2_000,
            &RunOptions::default(),
            EngineKind::Scalar,
            None,
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn baseline_scenario_reports_no_metrics() {
        let point = SweepPoint::over_suite(
            PredictorSpec::parse("tage-16k").unwrap(),
            SchemeSpec::StorageFree,
            &mini(),
        );
        let result = run_point(
            &point,
            1_000,
            &RunOptions::default(),
            EngineKind::Scalar,
            None,
        )
        .unwrap();
        assert_eq!(result.scenario, "baseline");
        assert!(result.scenario_metrics.is_empty());
    }

    /// The derived scenarios must not perturb the prediction stream: the
    /// point's counters and aggregate report are bit-identical to the
    /// baseline run, with the metrics added on top.
    #[test]
    fn observer_scenarios_leave_the_measurement_bit_identical() {
        let base = SweepPoint::over_suite(
            PredictorSpec::parse("tage-16k").unwrap(),
            SchemeSpec::StorageFree,
            &mini(),
        );
        let reference = run_point(
            &base,
            2_000,
            &RunOptions::default(),
            EngineKind::Scalar,
            None,
        )
        .unwrap();
        for scenario in [ScenarioSpec::RecoveryEnergy, ScenarioSpec::PrefetchThrottle] {
            let result = run_point(
                &base.clone().with_scenario(scenario),
                2_000,
                &RunOptions::default(),
                EngineKind::Scalar,
                None,
            )
            .unwrap();
            assert_eq!(result.traces, reference.traces, "{scenario}");
            assert_eq!(result.aggregate, reference.aggregate, "{scenario}");
            assert_eq!(result.scenario, scenario.label());
            assert!(!result.scenario_metrics.is_empty(), "{scenario}");
            for (name, value) in &result.scenario_metrics {
                assert!(value.is_finite(), "{scenario}: {name} = {value}");
            }
        }
    }

    #[test]
    fn recovery_energy_scenario_aggregates_over_the_whole_suite() {
        let point = SweepPoint::over_suite(
            PredictorSpec::parse("tage-16k").unwrap(),
            SchemeSpec::StorageFree,
            &mini(),
        )
        .with_scenario(ScenarioSpec::RecoveryEnergy);
        let result = run_point(
            &point,
            3_000,
            &RunOptions::default(),
            EngineKind::Scalar,
            None,
        )
        .unwrap();
        let metric = |name: &str| {
            result
                .scenario_metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        assert!(metric("baseline_epki_nj") > 0.0);
        assert!(metric("confidence_epki_nj") > 0.0);
        assert!(
            metric("checkpoints") > 0.0
                && metric("checkpoints") <= result.total_predictions() as f64
        );
    }

    #[test]
    fn shared_predictor_scenario_measures_interference_against_the_private_run() {
        let point = SweepPoint::over_suite(
            PredictorSpec::parse("tage-16k").unwrap(),
            SchemeSpec::StorageFree,
            &mini(),
        )
        .with_scenario(ScenarioSpec::SharedPredictor);
        let result = run_point(
            &point,
            4_000,
            &RunOptions::default(),
            EngineKind::Scalar,
            None,
        )
        .unwrap();
        let metric = |name: &str| {
            result
                .scenario_metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        assert_eq!(metric("cores"), result.traces.len() as f64);
        // The private side of the comparison is exactly this point's own
        // measurement.
        assert!((metric("private_mean_mpki") - result.mean_mpki()).abs() < 1e-12);
        let private: u64 = result.traces.iter().map(|t| t.mispredictions).sum();
        assert_eq!(metric("private_mispredictions"), private as f64);
        assert!(
            metric("shared_mispredictions") > metric("private_mispredictions"),
            "sharing one predictor across {} cores must cost accuracy (shared {} vs private {})",
            result.traces.len(),
            metric("shared_mispredictions"),
            metric("private_mispredictions")
        );
        assert!(metric("mpki_degradation") > 0.0);
    }

    #[test]
    fn scenarios_run_on_every_valid_predictor_scheme_cell() {
        let suite = Suite::new(
            "two",
            vec![
                mini().trace("FP-1").unwrap().clone(),
                mini().trace("INT-2").unwrap().clone(),
            ],
        );
        for predictor_token in ["tage-16k", "gshare"] {
            for scheme_token in ["storage-free", "self-confidence"] {
                for scenario in ScenarioSpec::ALL {
                    let point = SweepPoint::over_suite(
                        PredictorSpec::parse(predictor_token).unwrap(),
                        SchemeSpec::parse(scheme_token).unwrap(),
                        &suite,
                    )
                    .with_scenario(scenario);
                    if point.validate().is_err() {
                        continue;
                    }
                    let result = run_point(
                        &point,
                        800,
                        &RunOptions::default(),
                        EngineKind::Scalar,
                        None,
                    )
                    .unwrap();
                    assert_eq!(
                        result.total_predictions(),
                        1_600,
                        "{predictor_token} × {scheme_token} × {scenario}"
                    );
                    assert_eq!(result.scenario, scenario.label());
                    if scenario != ScenarioSpec::Baseline {
                        assert!(
                            !result.scenario_metrics.is_empty(),
                            "{predictor_token} × {scheme_token} × {scenario}"
                        );
                    }
                }
            }
        }
    }

    /// Every valid scheme × scenario cell of `predictor` over `suite`, in
    /// grid order.
    fn every_cell_of(predictor: &str, suite: &SourceSuite) -> Vec<SweepPoint> {
        let mut points = Vec::new();
        for scheme in SchemeSpec::known_tokens() {
            for scenario in ScenarioSpec::ALL {
                let point = SweepPoint {
                    predictor: PredictorSpec::parse(predictor).unwrap(),
                    scheme: SchemeSpec::parse(&scheme).unwrap(),
                    suite: suite.clone(),
                    scenario,
                };
                if point.validate().is_ok() {
                    points.push(point);
                }
            }
        }
        points
    }

    /// Runs every cell of `predictor` over `suite` as one group, and each
    /// cell alone, and compares the results cell by cell.
    fn assert_group_equals_cells_alone(predictor: &str, suite: &SourceSuite, branches: usize) {
        let points = every_cell_of(predictor, suite);
        let options = RunOptions::default();
        let groups = plan(
            points.iter().map(|point| (point, branches)),
            &options,
            EngineKind::Scalar,
        );
        assert_eq!(groups.len(), 1, "{predictor}");
        assert_eq!(
            groups[0].cells(),
            (0..points.len()).collect::<Vec<_>>(),
            "{predictor}"
        );
        let grouped = run_group(&groups[0]);
        assert_eq!(grouped.len(), points.len());
        for (point, together) in points.iter().zip(&grouped) {
            let alone = run_point(point, branches, &options, EngineKind::Scalar, None).unwrap();
            assert_eq!(
                *together,
                alone,
                "{predictor} × {} × {}",
                point.scheme.label(),
                point.scenario
            );
        }
    }

    #[test]
    fn cells_run_in_a_group_equal_the_cells_run_alone() {
        let suite = SourceSuite::from_suite(&mini());
        for predictor in ["tage-16k", "tage-16k-std", "gshare"] {
            assert_group_equals_cells_alone(predictor, &suite, 3_000);
        }
        assert_eq!(every_cell_of("tage-16k", &suite).len(), 16);
        assert_eq!(every_cell_of("gshare", &suite).len(), 12);
    }

    #[test]
    fn a_group_over_trace_files_equals_its_cells_alone() {
        use tage_traces::writer::TraceWriter;
        let dir =
            std::env::temp_dir().join(format!("tage-point-group-files-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for spec in mini().traces() {
            std::fs::write(
                dir.join(format!("{}.trace", spec.name())),
                TraceWriter::to_binary_bytes(&spec.generate(3_000)),
            )
            .unwrap();
        }
        let files = SourceSuite::from_dir(&dir).unwrap();
        assert_group_equals_cells_alone("tage-16k", &files, 3_000);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The cells of each group [`plan`] makes of `cells`, which is the
    /// same on either engine.
    fn groups_of<'a>(
        cells: impl IntoIterator<Item = (&'a SweepPoint, usize)> + Clone,
        options: &RunOptions,
    ) -> Vec<Vec<usize>> {
        let groups = |engine| -> Vec<Vec<usize>> {
            plan(cells.clone(), options, engine)
                .iter()
                .map(|group| group.cells().to_vec())
                .collect()
        };
        let scalar = groups(EngineKind::Scalar);
        assert_eq!(groups(EngineKind::Multilane), scalar);
        scalar
    }

    #[test]
    fn pass_groups_share_only_what_one_predictor_pass_serves() {
        let suite = SourceSuite::from_suite(&mini());
        let cell = |predictor: &str, scheme: &str, scenario| SweepPoint {
            predictor: PredictorSpec::parse(predictor).unwrap(),
            scheme: SchemeSpec::parse(scheme).unwrap(),
            suite: suite.clone(),
            scenario,
        };
        let points = [
            cell("tage-16k", "storage-free", ScenarioSpec::Baseline),
            cell("gshare", "jrs-classic", ScenarioSpec::Baseline),
            cell("tage-16k", "jrs-classic", ScenarioSpec::RecoveryEnergy),
            cell("tage-16k-std", "jrs-classic", ScenarioSpec::Baseline),
            cell("gshare", "self-confidence", ScenarioSpec::SharedPredictor),
            cell("tage-16k", "storage-free", ScenarioSpec::PrefetchThrottle),
        ];
        let cells = || points.iter().map(|point| (point, 1_000));
        let default = RunOptions::default();
        // Lane-batchable cells group like any other, on either engine.
        assert_eq!(
            groups_of(cells(), &default),
            [vec![0, 2, 5], vec![1, 4], vec![3]]
        );
        // A warm-up or an adaptive target leaves each storage-free cell
        // alone; the estimator cells ignore both.
        let warmup = RunOptions {
            warmup_branches: 100,
            ..RunOptions::default()
        };
        for options in [warmup, RunOptions::adaptive()] {
            assert_eq!(
                groups_of(cells(), &options),
                [vec![0], vec![1, 4], vec![2], vec![3], vec![5]],
                "{options:?}"
            );
        }

        // Other branch counts and other suites never share.
        let other_suite = SweepPoint {
            suite: SourceSuite::from_suite(&suites::cbp1_like()),
            ..points[1].clone()
        };
        let mixed = [
            (&points[1], 1_000),
            (&points[4], 2_000),
            (&other_suite, 1_000),
        ];
        assert_eq!(groups_of(mixed, &default), [vec![0], vec![1], vec![2]]);

        // Sampled cells share one decode and plan per trace whatever their
        // predictor and options, but only over the same suite name and
        // digest, sampling plan and branches per trace.
        let sampled = |predictor: &str, suite: SourceSuite| SweepPoint {
            predictor: PredictorSpec::parse(predictor).unwrap(),
            suite,
            ..points[0].clone()
        };
        let fewer_traces = SourceSuite::new(
            mini().name(),
            SourceSuite::from_suite(&mini()).sources()[1..].to_vec(),
        )
        .with_sampling(small_sampling());
        let other_plan = SamplingSpec {
            seed: 2,
            ..small_sampling()
        };
        let cells = [
            sampled("tage-16k", sampled_mini(small_sampling())),
            sampled("tage-64k-std", sampled_mini(small_sampling())),
            sampled("tage-16k", sampled_mini(other_plan)),
            sampled("tage-16k", fewer_traces),
        ];
        assert_eq!(cells[0].suite.name(), cells[3].suite.name());
        let branches = [1_000, 1_000, 1_000, 1_000, 2_000, 1_000];
        let sampled_cells = || {
            [0, 1, 2, 3, 0, 1]
                .iter()
                .zip(branches)
                .map(|(&cell, branches)| (&cells[cell], branches))
        };
        let warmup = RunOptions {
            warmup_branches: 100,
            ..RunOptions::default()
        };
        for options in [RunOptions::default(), warmup, RunOptions::adaptive()] {
            assert_eq!(
                groups_of(sampled_cells(), &options),
                [vec![0, 1, 5], vec![2], vec![3], vec![4]],
                "{options:?}"
            );
        }

        // Geometry specs that differ only in their automaton share a label,
        // not a pass.
        let geometry = |automaton| PredictorSpec::Geometry {
            geometry: TageGeometry::small().with_automaton(automaton),
            source: "tage-16k.json".to_string(),
        };
        let standard = SweepPoint {
            predictor: geometry(CounterAutomaton::Standard),
            ..points[2].clone()
        };
        let modified = SweepPoint {
            predictor: geometry(CounterAutomaton::paper_default()),
            ..points[2].clone()
        };
        assert_eq!(standard.predictor.label(), modified.predictor.label());
        assert_eq!(
            groups_of(
                [(&standard, 1_000), (&modified, 1_000), (&standard, 1_000)],
                &default
            ),
            [vec![0, 2], vec![1]]
        );
    }

    /// Under multilane, each cell that runs scalar names the first reason
    /// that applies: a baseline predictor, a geometry outside the lane
    /// layout, an estimator scheme, the shared-predictor scenario, or a
    /// group-mate's scalar pass. Lane, sampled and scalar-engine cells name
    /// none. A group is one task, or one per trace when sampled.
    #[test]
    fn plans_name_why_each_multilane_cell_runs_scalar() {
        let suite = SourceSuite::from_suite(&mini());
        let mut wide = TageGeometry::small();
        wide.tables[0].index_bits = 22;
        wide.validate().expect("a 22-bit index is a valid geometry");
        assert!(!LaneGroup::supports(&wide));
        let cell =
            |predictor: PredictorSpec, scheme: &str, scenario, suite: &SourceSuite| SweepPoint {
                predictor,
                scheme: SchemeSpec::parse(scheme).unwrap(),
                suite: suite.clone(),
                scenario,
            };
        let tage = || PredictorSpec::parse("tage-16k").unwrap();
        let empty = SourceSuite::new("none", Vec::new()).with_sampling(small_sampling());
        let points = [
            cell(
                PredictorSpec::parse("gshare").unwrap(),
                "jrs-classic",
                ScenarioSpec::SharedPredictor,
                &suite,
            ),
            cell(
                PredictorSpec::Geometry {
                    geometry: wide,
                    source: "wide.json".to_string(),
                },
                "jrs-classic",
                ScenarioSpec::Baseline,
                &suite,
            ),
            cell(tage(), "jrs-classic", ScenarioSpec::SharedPredictor, &suite),
            cell(
                tage(),
                "storage-free",
                ScenarioSpec::SharedPredictor,
                &suite,
            ),
            cell(tage(), "storage-free", ScenarioSpec::Baseline, &suite),
            cell(
                PredictorSpec::parse("tage-64k").unwrap(),
                "storage-free",
                ScenarioSpec::RecoveryEnergy,
                &suite,
            ),
            cell(
                tage(),
                "storage-free",
                ScenarioSpec::Baseline,
                &sampled_mini(small_sampling()),
            ),
            cell(tage(), "storage-free", ScenarioSpec::Baseline, &empty),
        ];
        let cells = || points.iter().map(|point| (point, 1_000));
        let options = RunOptions::default();
        let summary = |engine| -> Vec<_> {
            plan(cells(), &options, engine)
                .iter()
                .map(|group| {
                    (
                        group.cells().to_vec(),
                        group.path(),
                        group.fallbacks().to_vec(),
                        group.tasks(),
                    )
                })
                .collect()
        };
        let reason = Some;
        assert_eq!(
            summary(EngineKind::Multilane),
            [
                (
                    vec![0],
                    CellPath::Scalar,
                    vec![reason(Fallback::Predictor)],
                    1
                ),
                (
                    vec![1],
                    CellPath::Scalar,
                    vec![reason(Fallback::Geometry)],
                    1
                ),
                (
                    vec![2, 3, 4],
                    CellPath::Scalar,
                    vec![
                        reason(Fallback::Scheme),
                        reason(Fallback::Scenario),
                        reason(Fallback::Group)
                    ],
                    1
                ),
                (vec![5], CellPath::Multilane, vec![None], 1),
                (vec![6], CellPath::Sampled, vec![None], 4),
                (vec![7], CellPath::Sampled, vec![None], 1),
            ]
        );
        let scalar = summary(EngineKind::Scalar);
        assert_eq!(scalar[3].1, CellPath::Scalar);
        for (_, _, fallbacks, _) in &scalar {
            assert!(fallbacks.iter().all(Option::is_none), "{scalar:?}");
        }

        // The one task of a sampled suite with no trace yields its empty
        // cell.
        let nothing = run_point(&points[7], 1_000, &options, EngineKind::Multilane, None).unwrap();
        assert!(nothing.traces.is_empty());
        assert_eq!(nothing.sampling.map(|s| s.total_records), Some(0));
    }

    fn sampled_mini(spec: SamplingSpec) -> SourceSuite {
        SourceSuite::from_suite(&mini()).with_sampling(spec)
    }

    fn small_sampling() -> SamplingSpec {
        SamplingSpec {
            interval: 250,
            k: 4,
            seed: 1,
        }
    }

    #[test]
    fn sampled_points_reject_unsupported_cells() {
        let sampled = sampled_mini(small_sampling());
        let estimator = SweepPoint {
            predictor: PredictorSpec::parse("tage-16k").unwrap(),
            scheme: SchemeSpec::parse("self-confidence").unwrap(),
            suite: sampled.clone(),
            scenario: ScenarioSpec::Baseline,
        };
        assert!(matches!(
            estimator.validate(),
            Err(InvalidPoint::SamplingNeedsStorageFreeTage { .. })
        ));
        let baseline_predictor = SweepPoint {
            predictor: PredictorSpec::parse("gshare").unwrap(),
            scheme: SchemeSpec::parse("self-confidence").unwrap(),
            suite: sampled.clone(),
            scenario: ScenarioSpec::Baseline,
        };
        assert!(matches!(
            baseline_predictor.validate(),
            Err(InvalidPoint::SamplingNeedsStorageFreeTage { .. })
        ));
        let scenario = SweepPoint {
            predictor: PredictorSpec::parse("tage-16k").unwrap(),
            scheme: SchemeSpec::StorageFree,
            suite: sampled,
            scenario: ScenarioSpec::RecoveryEnergy,
        };
        let error = scenario.validate().unwrap_err();
        assert!(matches!(
            error,
            InvalidPoint::SamplingNeedsBaselineScenario { .. }
        ));
        assert!(error.to_string().contains("baseline scenario"));
    }

    #[test]
    fn sampled_points_reconstruct_totals_and_carry_metadata() {
        let point = SweepPoint {
            predictor: PredictorSpec::parse("tage-16k").unwrap(),
            scheme: SchemeSpec::StorageFree,
            suite: sampled_mini(small_sampling()),
            scenario: ScenarioSpec::Baseline,
        };
        let result = run_point(
            &point,
            2_000,
            &RunOptions::default(),
            EngineKind::Scalar,
            None,
        )
        .unwrap();
        // Weights partition the intervals, so the weighted conditional
        // count reconstructs each trace's total exactly.
        let full = run_point(
            &SweepPoint::over_suite(
                PredictorSpec::parse("tage-16k").unwrap(),
                SchemeSpec::StorageFree,
                &mini(),
            ),
            2_000,
            &RunOptions::default(),
            EngineKind::Scalar,
            None,
        )
        .unwrap();
        assert_eq!(result.traces.len(), full.traces.len());
        for (sampled, exact) in result.traces.iter().zip(&full.traces) {
            assert_eq!(sampled.trace_name, exact.trace_name);
            assert_eq!(sampled.predictions, exact.predictions);
        }
        let metrics = result.sampling.expect("sampled points carry metadata");
        assert_eq!(metrics.interval, 250);
        assert_eq!(metrics.k, 4);
        assert_eq!(metrics.seed, 1);
        assert!(metrics.representatives > 0);
        assert!(metrics.measured_branches > 0);
        assert!(metrics.measured_branches < metrics.total_records);
        assert!(result.suite.starts_with("sample:"));
        assert!(full.sampling.is_none(), "full runs carry no metadata");
    }

    #[test]
    fn sampled_points_are_deterministic_across_engines_and_caches() {
        let dir =
            std::env::temp_dir().join(format!("tage-point-sampled-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // k=1 keeps the pick count well under the interval count, so the
        // plan is guaranteed to leave gaps (and therefore checkpoints).
        let point = SweepPoint {
            predictor: PredictorSpec::parse("tage-16k").unwrap(),
            scheme: SchemeSpec::StorageFree,
            suite: sampled_mini(SamplingSpec {
                interval: 100,
                k: 1,
                seed: 1,
            }),
            scenario: ScenarioSpec::Baseline,
        };
        let scalar = run_point(
            &point,
            1_500,
            &RunOptions::default(),
            EngineKind::Scalar,
            None,
        )
        .unwrap();
        let multilane = run_point(
            &point,
            1_500,
            &RunOptions::default(),
            EngineKind::Multilane,
            None,
        )
        .unwrap();
        assert_eq!(scalar, multilane, "engine choice cannot leak into cells");
        let cache = WarmCache::new(&dir).unwrap();
        let cold = run_point(
            &point,
            1_500,
            &RunOptions::default(),
            EngineKind::Scalar,
            Some(&cache),
        )
        .unwrap();
        let warm = run_point(
            &point,
            1_500,
            &RunOptions::default(),
            EngineKind::Scalar,
            Some(&cache),
        )
        .unwrap();
        assert_eq!(cold, scalar, "cache state cannot leak into cells");
        assert_eq!(warm, scalar);
        assert!(cache.hits() > 0, "second run restores checkpoints");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
