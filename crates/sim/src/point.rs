//! Sweep points: the reusable unit of work behind campaign grids and the
//! experiment sweeps.
//!
//! A [`SweepPoint`] is one cell of a predictor × confidence-scheme × suite
//! × scenario cross product. [`run_point`] executes it — every trace of the
//! point's suite through the scalar [`SimEngine`], the lane-batched engine
//! or the phase-sampled runner, with a cold predictor per trace — and
//! returns exact integer counters plus the
//! aggregate [`ConfidenceReport`], so a point's result is deterministic and
//! independent of where (which thread, which order) it ran. The campaign
//! runner (`tage-bench`) work-steals whole points across workers; the
//! experiment sweeps of [`crate::experiment`] are thin grids of
//! [`TageSweepPoint`]s over the same machinery.
//!
//! The grid axes are enumerable:
//!
//! * predictors — the six TAGE variants (three sizes × standard/modified
//!   automaton) plus every [`BaselinePredictorSpec`];
//! * schemes — the paper's storage-free TAGE classification plus every
//!   [`EstimatorSpec`] baseline;
//! * scenarios — the confidence applications of [`crate::scenarios`]
//!   (recovery energy, shared-predictor interference, prefetch throttling)
//!   or the plain [`ScenarioSpec::Baseline`] measurement. Observer-style
//!   scenarios ride along the normal per-source runs without altering the
//!   prediction stream; the shared-predictor scenario adds one interleaved
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

use tage::{CounterAutomaton, LaneGroup, TageBlueprint, TageGeometry, TagePredictor};
use tage_confidence::estimators::EstimatorSpec;
use tage_confidence::{ConfidenceReport, TageConfidenceClassifier};
use tage_predictors::{BaselinePredictorSpec, PredictorCore};
use tage_traces::format::FormatError;
use tage_traces::source::{AnySource, BranchSource, SamplingSpec, SourceSuite};
use tage_traces::Suite;

use crate::engine::{BranchEvent, EngineObserver, ReportObserver, SimEngine};
use crate::multilane::{run_specs_multilane, EngineKind, DEFAULT_LANES};
use crate::runner::TraceRunResult;
use crate::scenarios::energy::RecoveryEnergyObserver;
use crate::scenarios::interference::{run_shared_predictor, SharedRunResult};
use crate::scenarios::prefetch::PrefetchObserver;
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
    /// presets with a non-standard, non-paper automaton, and
    /// `<name>-g<digest>` for explicit geometries (the 32-bit spec-digest
    /// suffix keeps same-budget explore candidates distinct in reports and
    /// checkpoint keys).
    pub fn label(&self) -> String {
        match self {
            PredictorSpec::Tage(geometry) => {
                let base = geometry.name().to_ascii_lowercase();
                if geometry.automaton == CounterAutomaton::paper_default() {
                    base
                } else if geometry.automaton == CounterAutomaton::Standard {
                    format!("{base}-std")
                } else {
                    let exponent = -geometry.automaton.saturation_probability().log2();
                    format!("{base}-p{exponent:.0}")
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

/// Exact per-trace counters of one point run (everything needed for MPKI /
/// MKP without any floating-point state).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointTraceMetrics {
    /// Trace name.
    pub trace_name: String,
    /// Conditional branches measured.
    pub predictions: u64,
    /// Mispredictions among them.
    pub mispredictions: u64,
    /// Instructions attributed to the measured region.
    pub instructions: u64,
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

/// Why a sweep point run failed.
#[derive(Debug)]
pub enum PointError {
    /// The predictor/scheme pairing cannot execute.
    Invalid(InvalidPoint),
    /// A source of the point's suite could not be opened or read.
    Source(FormatError),
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointError::Invalid(invalid) => invalid.fmt(f),
            PointError::Source(error) => write!(f, "source error: {error}"),
        }
    }
}

impl std::error::Error for PointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PointError::Invalid(_) => None,
            PointError::Source(error) => Some(error),
        }
    }
}

impl From<InvalidPoint> for PointError {
    fn from(invalid: InvalidPoint) -> Self {
        PointError::Invalid(invalid)
    }
}

impl From<FormatError> for PointError {
    fn from(error: FormatError) -> Self {
        PointError::Source(error)
    }
}

/// The observer-style scenarios, riding along a point's normal per-source
/// runs (the shared-predictor scenario runs its own pass instead). One
/// accumulator persists across every source of the suite, so the metrics
/// aggregate the whole point.
enum ScenarioObserver {
    None,
    Energy(Box<RecoveryEnergyObserver>),
    Prefetch(Box<PrefetchObserver>),
}

impl ScenarioObserver {
    fn for_spec(scenario: ScenarioSpec) -> Self {
        match scenario {
            ScenarioSpec::RecoveryEnergy => ScenarioObserver::Energy(Box::default()),
            ScenarioSpec::PrefetchThrottle => ScenarioObserver::Prefetch(Box::default()),
            ScenarioSpec::Baseline | ScenarioSpec::SharedPredictor => ScenarioObserver::None,
        }
    }
}

impl<P: PredictorCore> EngineObserver<P> for ScenarioObserver {
    fn on_branch(&mut self, predictor: &mut P, event: &BranchEvent<'_, P::Lookup>) {
        match self {
            ScenarioObserver::None => {}
            ScenarioObserver::Energy(observer) => observer.on_branch(predictor, event),
            ScenarioObserver::Prefetch(observer) => observer.on_branch(predictor, event),
        }
    }

    fn on_instructions(&mut self, instructions: u64, in_measurement: bool) {
        match self {
            ScenarioObserver::None => {}
            ScenarioObserver::Energy(observer) => {
                EngineObserver::<P>::on_instructions(&mut **observer, instructions, in_measurement)
            }
            ScenarioObserver::Prefetch(observer) => {
                EngineObserver::<P>::on_instructions(&mut **observer, instructions, in_measurement)
            }
        }
    }
}

/// Executes one sweep point: every source of the suite streamed through the
/// engine, cold predictor and scheme per source, serial within the point
/// (cross-point parallelism is the campaign scheduler's job, which keeps
/// each point's result independent of thread count). Scenario observers
/// ride along; the shared-predictor scenario adds one interleaved pass over
/// the suite after the per-source runs.
///
/// `branches_per_trace` sizes synthetic sources; file-backed sources yield
/// whatever their file holds.
///
/// `engine` picks the execution path. [`EngineKind::Multilane`] routes the
/// point through the lane-batched lockstep engine when the cell is
/// lane-batchable — the paper's TAGE × storage-free pairing under the plain
/// baseline scenario, which is every cell of the default campaign grid.
/// Scenario observers and the storage-based estimator schemes hook the
/// scalar per-branch loop, so those cells fall back to the scalar path.
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
    engine: EngineKind,
    warm: Option<&WarmCache>,
) -> Result<PointResult, PointError> {
    point.validate()?;
    if let Some(sampling) = point.suite.sampling() {
        return run_point_sampled(point, branches_per_trace, sampling, warm);
    }
    if engine == EngineKind::Multilane && point_is_lane_batchable(point) {
        return run_point_multilane(point, branches_per_trace);
    }
    run_point_scalar(point, branches_per_trace)
}

/// One trace's run inside a point: name, report, measured conditional
/// branches and measured instructions.
type TraceRun = (String, ConfidenceReport, u64, u64);

fn trace_run(result: TraceRunResult) -> TraceRun {
    (
        result.trace_name,
        result.report,
        result.conditional_branches,
        result.instructions,
    )
}

impl PointResult {
    /// The result of `point` over its traces' runs, in suite order: each
    /// trace's counters plus the aggregate of every report. Scenario metrics
    /// and sampling accounting start empty.
    fn assemble(point: &SweepPoint, runs: Vec<TraceRun>) -> Self {
        let mut aggregate = ConfidenceReport::new();
        let traces = runs
            .into_iter()
            .map(|(trace_name, report, predictions, instructions)| {
                aggregate.merge(&report);
                PointTraceMetrics {
                    trace_name,
                    predictions,
                    mispredictions: report.total().mispredictions,
                    instructions,
                }
            })
            .collect();
        PointResult {
            predictor: point.predictor.label(),
            scheme: point.scheme.label(),
            suite: point.suite.name().to_string(),
            scenario: point.scenario.label().to_string(),
            storage_bits: point.predictor.storage_bits(),
            traces,
            aggregate,
            scenario_metrics: Vec::new(),
            sampling: None,
        }
    }
}

/// The phase-sampled point path: every suite source through
/// [`crate::phase::run_sampled_source`] (validated to the TAGE ×
/// storage-free × baseline cell), weighted per-trace counters and a
/// weighted aggregate report, plus the suite-level sampling accounting.
fn run_point_sampled(
    point: &SweepPoint,
    branches_per_trace: usize,
    sampling: SamplingSpec,
    warm: Option<&WarmCache>,
) -> Result<PointResult, PointError> {
    let Some(blueprint) = point.predictor.tage_blueprint() else {
        unreachable!("validate() restricts sampled points to TAGE predictors")
    };
    let options = crate::runner::RunOptions::default();
    let mut runs = Vec::with_capacity(point.suite.sources().len());
    let mut metrics = PointSamplingMetrics {
        interval: sampling.interval,
        k: sampling.k,
        seed: sampling.seed,
        representatives: 0,
        measured_branches: 0,
        total_records: 0,
    };
    for spec in point.suite.sources() {
        let warm_pair = warm.map(|cache| (cache, spec.digest(branches_per_trace)));
        let sampled =
            crate::phase::run_sampled_source(blueprint, &options, sampling, warm_pair, || {
                spec.open(branches_per_trace)
            })?;
        metrics.representatives += sampled.plan.representatives.len() as u64;
        metrics.measured_branches += sampled.measured_branches;
        metrics.total_records += sampled.plan.total_records;
        runs.push(trace_run(sampled.result));
    }
    Ok(PointResult {
        sampling: Some(metrics),
        ..PointResult::assemble(point, runs)
    })
}

/// Whether [`EngineKind::Multilane`] can actually batch this cell: the
/// storage-free TAGE pairing with nothing observing individual branches,
/// and a geometry that fits the lane group's packed layout (explored
/// geometries may exceed it; those run scalar).
fn point_is_lane_batchable(point: &SweepPoint) -> bool {
    point.scheme == SchemeSpec::StorageFree
        && point.scenario == ScenarioSpec::Baseline
        && match &point.predictor {
            PredictorSpec::Tage(geometry) | PredictorSpec::Geometry { geometry, .. } => {
                LaneGroup::supports(geometry)
            }
            PredictorSpec::Baseline(_) => false,
        }
}

/// The lane-batched point path: all suite sources through one
/// [`crate::multilane::MultilaneEngine`], [`DEFAULT_LANES`] streams in
/// lockstep, then the same per-trace/aggregate assembly as the scalar path.
fn run_point_multilane(
    point: &SweepPoint,
    branches_per_trace: usize,
) -> Result<PointResult, PointError> {
    let Some(blueprint) = point.predictor.tage_blueprint() else {
        unreachable!("point_is_lane_batchable() requires a TAGE predictor")
    };
    let results = run_specs_multilane(
        blueprint,
        point.suite.sources(),
        branches_per_trace,
        &crate::runner::RunOptions::default(),
        DEFAULT_LANES,
    )?;
    let runs = results.into_iter().map(trace_run).collect();
    Ok(PointResult::assemble(point, runs))
}

fn run_point_scalar(
    point: &SweepPoint,
    branches_per_trace: usize,
) -> Result<PointResult, PointError> {
    let mut scenario_observer = ScenarioObserver::for_spec(point.scenario);
    let mut runs = Vec::with_capacity(point.suite.sources().len());
    for spec in point.suite.sources() {
        let mut source = spec.open(branches_per_trace)?;
        runs.push(run_point_source(
            point,
            &mut source,
            &mut scenario_observer,
        )?);
    }
    let mut result = PointResult::assemble(point, runs);
    result.scenario_metrics = match (&scenario_observer, point.scenario) {
        (ScenarioObserver::Energy(observer), _) => vec![
            ("baseline_epki_nj".to_string(), observer.baseline_epki()),
            ("confidence_epki_nj".to_string(), observer.confidence_epki()),
            ("savings_pct".to_string(), observer.savings_pct()),
            ("checkpoints".to_string(), observer.checkpoints as f64),
        ],
        (ScenarioObserver::Prefetch(observer), _) => vec![
            (
                "useless_avoided_pki".to_string(),
                observer.useless_avoided_pki(),
            ),
            (
                "coverage_lost_pki".to_string(),
                observer.coverage_lost_pki(),
            ),
            (
                "useless_issued_pki".to_string(),
                observer.useless_issued_pki(),
            ),
            (
                "useful_issued_pki".to_string(),
                observer.useful_issued_pki(),
            ),
        ],
        (ScenarioObserver::None, ScenarioSpec::SharedPredictor) => {
            let shared = run_point_shared(point, branches_per_trace)?;
            shared_predictor_metrics(&shared, &result.traces)
        }
        (ScenarioObserver::None, _) => Vec::new(),
    };
    Ok(result)
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

/// The shared-predictor interference pass: every suite source opened as one
/// core's stream, interleaved round-robin into a single engine built for
/// the point's predictor × scheme cell.
fn run_point_shared(
    point: &SweepPoint,
    branches_per_trace: usize,
) -> Result<SharedRunResult, PointError> {
    let mut sources = Vec::with_capacity(point.suite.sources().len());
    for spec in point.suite.sources() {
        sources.push(spec.open(branches_per_trace)?);
    }
    let shared = match (point.predictor.tage_blueprint(), &point.scheme) {
        (Some(blueprint), SchemeSpec::StorageFree) => {
            let mut engine = SimEngine::new(
                TagePredictor::new(blueprint),
                TageConfidenceClassifier::new(blueprint),
            );
            run_shared_predictor(&mut engine, sources)?
        }
        (Some(blueprint), SchemeSpec::Estimator(estimator)) => {
            let scheme = estimator.build(point.predictor.self_confidence_threshold());
            let mut engine = SimEngine::new(TagePredictor::new(blueprint), scheme);
            run_shared_predictor(&mut engine, sources)?
        }
        (None, SchemeSpec::Estimator(estimator)) => {
            let PredictorSpec::Baseline(baseline) = &point.predictor else {
                unreachable!("non-TAGE specs are baselines")
            };
            let scheme = estimator.build(point.predictor.self_confidence_threshold());
            let mut engine = SimEngine::new(baseline.build(), scheme);
            run_shared_predictor(&mut engine, sources)?
        }
        (None, SchemeSpec::StorageFree) => {
            unreachable!("validate() rejects storage-free on baseline predictors")
        }
    };
    Ok(shared)
}

fn run_point_source(
    point: &SweepPoint,
    source: &mut AnySource,
    scenario_observer: &mut ScenarioObserver,
) -> Result<TraceRun, FormatError> {
    // The paper's own path has a canonical runner; don't duplicate its loop.
    if let (Some(blueprint), SchemeSpec::StorageFree) =
        (point.predictor.tage_blueprint(), &point.scheme)
    {
        let result = crate::runner::run_source_observed(
            blueprint,
            source,
            &crate::runner::RunOptions::default(),
            scenario_observer,
        )?;
        return Ok(trace_run(result));
    }
    let trace_name = source.name().to_string();
    let mut observer = ReportObserver::default();
    let summary = match (point.predictor.tage_blueprint(), &point.scheme) {
        (Some(_), SchemeSpec::StorageFree) => {
            unreachable!("handled by the early return above")
        }
        (Some(blueprint), SchemeSpec::Estimator(estimator)) => {
            let predictor = TagePredictor::new(blueprint);
            let scheme = estimator.build(point.predictor.self_confidence_threshold());
            let mut engine = SimEngine::new(predictor, scheme);
            engine.run_source(source, &mut (&mut observer, &mut *scenario_observer))?
        }
        (None, SchemeSpec::Estimator(estimator)) => {
            let PredictorSpec::Baseline(baseline) = &point.predictor else {
                unreachable!("non-TAGE specs are baselines")
            };
            let predictor = baseline.build();
            let scheme = estimator.build(point.predictor.self_confidence_threshold());
            let mut engine = SimEngine::new(predictor, scheme);
            engine.run_source(source, &mut (&mut observer, &mut *scenario_observer))?
        }
        (None, SchemeSpec::StorageFree) => {
            unreachable!("validate() rejects storage-free on baseline predictors")
        }
    };
    Ok((
        trace_name,
        observer.report,
        summary.measured_branches,
        summary.measured_instructions,
    ))
}

/// One point of a TAGE-only experiment sweep: a geometry plus run options,
/// executed over a whole suite. The experiment functions of
/// [`crate::experiment`] express their axes (probability exponents, window
/// lengths, counter widths, automaton on/off) as grids of these.
#[derive(Debug, Clone)]
pub struct TageSweepPoint {
    /// The predictor geometry of this point.
    pub geometry: TageGeometry,
    /// The run options of this point.
    pub options: crate::runner::RunOptions,
}

impl TageSweepPoint {
    /// A point with default run options.
    pub fn new(geometry: TageGeometry) -> Self {
        TageSweepPoint {
            geometry,
            options: crate::runner::RunOptions::default(),
        }
    }
}

/// Runs every TAGE sweep point over `suite` and returns the results in
/// point order. Each point's suite run is itself sharded per trace (see
/// [`crate::suite::run_suite`]), so sweeps inherit the engine's
/// deterministic parallel aggregation.
pub fn run_tage_sweep(
    points: &[TageSweepPoint],
    suite: &Suite,
    branches_per_trace: usize,
) -> Vec<crate::suite::SuiteRunResult> {
    points
        .iter()
        .map(|point| {
            crate::suite::run_suite(&point.geometry, suite, branches_per_trace, &point.options)
        })
        .collect()
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
        let spec = PredictorSpec::Tage(
            TageGeometry::small().with_automaton(CounterAutomaton::probabilistic(5)),
        );
        assert_eq!(spec.label(), "tage-16k-p5");
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
        let run_error = run_point(&point, 500, EngineKind::Scalar, None).unwrap_err();
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
        let result = run_point(&point, 3_000, EngineKind::Scalar, None).unwrap();
        let reference = crate::suite::run_suite(
            &config,
            &suite,
            3_000,
            &crate::runner::RunOptions::default(),
        );
        assert_eq!(result.aggregate, reference.aggregate);
        assert_eq!(result.traces.len(), 4);
        for (ours, theirs) in result.traces.iter().zip(&reference.traces) {
            assert_eq!(ours.trace_name, theirs.trace_name);
            assert_eq!(ours.predictions, theirs.report.total().predictions);
            assert_eq!(ours.mispredictions, theirs.report.total().mispredictions);
            assert!((ours.mpki() - theirs.mpki()).abs() < 1e-12);
        }
        assert!((result.mean_mpki() - reference.mean_mpki()).abs() < 1e-12);
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
                let result = run_point(&point, 1_000, EngineKind::Scalar, None).unwrap();
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
        let scalar = run_point(&point, 2_000, EngineKind::Scalar, None).unwrap();
        let multilane = run_point(&point, 2_000, EngineKind::Multilane, None).unwrap();
        assert_eq!(scalar, multilane);
    }

    #[test]
    fn unbatchable_cells_fall_back_to_the_scalar_path() {
        // An estimator scheme and a scenario observer both hook the scalar
        // per-branch loop; Multilane must quietly produce the same result.
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
        .with_scenario(ScenarioSpec::RecoveryEnergy);
        for point in [estimator, scenario] {
            let scalar = run_point(&point, 1_000, EngineKind::Scalar, None).unwrap();
            let multilane = run_point(&point, 1_000, EngineKind::Multilane, None).unwrap();
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
        let a = run_point(&point, 2_000, EngineKind::Scalar, None).unwrap();
        let b = run_point(&point, 2_000, EngineKind::Scalar, None).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn baseline_scenario_reports_no_metrics() {
        let point = SweepPoint::over_suite(
            PredictorSpec::parse("tage-16k").unwrap(),
            SchemeSpec::StorageFree,
            &mini(),
        );
        let result = run_point(&point, 1_000, EngineKind::Scalar, None).unwrap();
        assert_eq!(result.scenario, "baseline");
        assert!(result.scenario_metrics.is_empty());
    }

    /// Observer-style scenarios must not perturb the prediction stream: the
    /// point's counters and aggregate report are bit-identical to the
    /// baseline run, with the metrics added on top.
    #[test]
    fn observer_scenarios_leave_the_measurement_bit_identical() {
        let base = SweepPoint::over_suite(
            PredictorSpec::parse("tage-16k").unwrap(),
            SchemeSpec::StorageFree,
            &mini(),
        );
        let reference = run_point(&base, 2_000, EngineKind::Scalar, None).unwrap();
        for scenario in [ScenarioSpec::RecoveryEnergy, ScenarioSpec::PrefetchThrottle] {
            let result = run_point(
                &base.clone().with_scenario(scenario),
                2_000,
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
        let result = run_point(&point, 3_000, EngineKind::Scalar, None).unwrap();
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
        let result = run_point(&point, 4_000, EngineKind::Scalar, None).unwrap();
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
                    let result = run_point(&point, 800, EngineKind::Scalar, None).unwrap();
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
        let result = run_point(&point, 2_000, EngineKind::Scalar, None).unwrap();
        // Weights partition the intervals, so the weighted conditional
        // count reconstructs each trace's total exactly.
        let full = run_point(
            &SweepPoint::over_suite(
                PredictorSpec::parse("tage-16k").unwrap(),
                SchemeSpec::StorageFree,
                &mini(),
            ),
            2_000,
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
        let scalar = run_point(&point, 1_500, EngineKind::Scalar, None).unwrap();
        let multilane = run_point(&point, 1_500, EngineKind::Multilane, None).unwrap();
        assert_eq!(scalar, multilane, "engine choice cannot leak into cells");
        let cache = WarmCache::new(&dir).unwrap();
        let cold = run_point(&point, 1_500, EngineKind::Scalar, Some(&cache)).unwrap();
        let warm = run_point(&point, 1_500, EngineKind::Scalar, Some(&cache)).unwrap();
        assert_eq!(cold, scalar, "cache state cannot leak into cells");
        assert_eq!(warm, scalar);
        assert!(cache.hits() > 0, "second run restores checkpoints");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tage_sweep_matches_individual_suite_runs() {
        let suite = mini();
        let points = vec![
            TageSweepPoint::new(TageGeometry::small()),
            TageSweepPoint {
                geometry: TageGeometry::small(),
                options: crate::runner::RunOptions {
                    bim_miss_window: 0,
                    ..crate::runner::RunOptions::default()
                },
            },
        ];
        let results = run_tage_sweep(&points, &suite, 2_000);
        assert_eq!(results.len(), 2);
        let direct =
            crate::suite::run_suite(&points[0].geometry, &suite, 2_000, &points[0].options);
        assert_eq!(results[0], direct);
        assert_ne!(results[0].aggregate, results[1].aggregate);
    }
}
