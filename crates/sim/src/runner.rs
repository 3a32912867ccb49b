//! Running one TAGE predictor over one trace — a thin assembly of the
//! generic [`SimEngine`]: the TAGE predictor as the [`PredictorCore`], the
//! storage-free classifier as the [`ConfidenceScheme`], a [`ReportObserver`]
//! for the statistics and (optionally) the adaptive saturation controller as
//! a second observer steering the predictor mid-run.
//!
//! [`PredictorCore`]: tage_predictors::PredictorCore
//! [`ConfidenceScheme`]: tage_confidence::ConfidenceScheme

use core::fmt;

use tage::{TageBlueprint, TagePrediction, TagePredictor};
use tage_confidence::{AdaptiveSaturationController, ConfidenceReport, TageConfidenceClassifier};
use tage_traces::format::FormatError;
use tage_traces::source::{BranchSource, SliceSource};
use tage_traces::Trace;

use crate::engine::{BranchEvent, EngineObserver, EngineSummary, ReportObserver, SimEngine};

/// Options controlling a trace run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Number of leading conditional branches excluded from the statistics
    /// (the predictor still trains on them). The paper's traces are long
    /// enough that warm-up is part of the measurement; the default is
    /// therefore zero, but experiments studying steady-state behaviour can
    /// skip a prefix.
    pub warmup_branches: u64,
    /// Length of the `medium-conf-bim` recency window (8 in the paper).
    pub bim_miss_window: u32,
    /// When set, the adaptive saturation-probability controller of
    /// Section 6.2 runs alongside the predictor with this target (MKP on the
    /// high-confidence class).
    pub adaptive_target_mkp: Option<f64>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            warmup_branches: 0,
            bim_miss_window: tage_confidence::classifier::DEFAULT_BIM_MISS_WINDOW,
            adaptive_target_mkp: None,
        }
    }
}

impl RunOptions {
    /// Options with the adaptive controller enabled at the paper's 10 MKP
    /// target.
    pub fn adaptive() -> Self {
        RunOptions {
            adaptive_target_mkp: Some(tage_confidence::adaptive::DEFAULT_TARGET_MKP),
            ..RunOptions::default()
        }
    }
}

/// The outcome of running one predictor configuration over one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRunResult {
    /// Name of the trace.
    pub trace_name: String,
    /// Name of the predictor configuration.
    pub config_name: String,
    /// Per-class confidence statistics (including instruction counts for
    /// MPKI reporting).
    pub report: ConfidenceReport,
    /// Number of conditional branches simulated (after warm-up exclusion).
    pub conditional_branches: u64,
    /// Total instructions attributed to the measured region.
    pub instructions: u64,
    /// Saturation probability in effect at the end of the run (only differs
    /// from the configured automaton when the adaptive controller runs).
    pub final_saturation_probability: f64,
}

impl TraceRunResult {
    /// Overall misprediction rate in mispredictions per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        self.report.mpki()
    }

    /// Overall misprediction rate in mispredictions per kilo-prediction.
    pub fn mkp(&self) -> f64 {
        self.report.mkp()
    }
}

impl fmt::Display for TraceRunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {:.2} MPKI ({:.1} MKP over {} branches)",
            self.config_name,
            self.trace_name,
            self.mpki(),
            self.mkp(),
            self.conditional_branches
        )
    }
}

/// The adaptive saturation controller of Section 6.2 as an engine observer:
/// it watches high-confidence outcomes and re-installs the automaton on the
/// predictor whenever an adaptation window closes. It runs after the report
/// observer and before the predictor trains, exactly as the bespoke loop
/// did.
pub(crate) struct AdaptiveObserver {
    pub(crate) controller: AdaptiveSaturationController,
}

impl<'p> EngineObserver<&'p mut TagePredictor> for AdaptiveObserver {
    fn on_branch(
        &mut self,
        predictor: &mut &'p mut TagePredictor,
        event: &BranchEvent<'_, TagePrediction>,
    ) {
        if let Some(automaton) = self
            .controller
            .observe(event.assessment.level, event.mispredicted)
        {
            predictor.set_automaton(automaton);
        }
    }
}

/// A storage-free TAGE run in progress: the engine — predictor, classifier
/// and executed-branch counter — plus the adaptive controller when the
/// options ask for one. This is everything a warm-state checkpoint captures
/// ([`crate::warmcache::advance`]), and the one assembly behind
/// [`run_source`] and sampled runs.
pub(crate) struct TageRun<'p> {
    pub(crate) engine: SimEngine<&'p mut TagePredictor, TageConfidenceClassifier>,
    pub(crate) adaptive: Option<AdaptiveObserver>,
}

impl<'p> TageRun<'p> {
    /// A cold run on `predictor` under `options`, leaving the first
    /// `options.warmup_branches` conditional branches out of the statistics.
    pub(crate) fn new(predictor: &'p mut TagePredictor, options: &RunOptions) -> Self {
        let classifier =
            TageConfidenceClassifier::with_window(predictor.geometry(), options.bim_miss_window);
        let adaptive = options.adaptive_target_mkp.map(|target| AdaptiveObserver {
            controller: AdaptiveSaturationController::with_parameters(target, 16 * 1024),
        });
        if let Some(observer) = adaptive.as_ref() {
            predictor.set_automaton(observer.controller.automaton());
        }
        TageRun {
            engine: SimEngine::new(predictor, classifier).with_warmup(options.warmup_branches),
            adaptive,
        }
    }

    /// Runs the rest of `source` into a fresh report, with `extra` riding
    /// along after the report observer and the adaptive controller.
    pub(crate) fn measure<S, O>(
        &mut self,
        source: &mut S,
        extra: &mut O,
    ) -> Result<(ConfidenceReport, EngineSummary), FormatError>
    where
        S: BranchSource + ?Sized,
        O: EngineObserver<&'p mut TagePredictor>,
    {
        let mut report = ReportObserver::default();
        let summary = self
            .engine
            .run_source(source, &mut (&mut report, self.adaptive.as_mut(), extra))?;
        Ok((report.report, summary))
    }

    /// A [`TraceRunResult`] over `report`, naming the predictor and its
    /// saturation probability as they stand now.
    pub(crate) fn result(
        &self,
        trace_name: String,
        report: ConfidenceReport,
        conditional_branches: u64,
        instructions: u64,
    ) -> TraceRunResult {
        let geometry = self.engine.predictor().geometry();
        TraceRunResult {
            trace_name,
            config_name: geometry.name(),
            report,
            conditional_branches,
            instructions,
            final_saturation_probability: geometry.automaton.saturation_probability(),
        }
    }
}

/// Runs a TAGE predictor built from `blueprint` — a [`tage::TageGeometry`]
/// or a reference to one — over `trace`, classifying
/// every conditional-branch prediction with the storage-free confidence
/// classifier.
///
/// Non-conditional records (calls, returns, jumps) contribute to the
/// instruction count but are not predicted, as in the paper's methodology.
///
/// This is the materialized-trace adapter over [`run_source`]; results are
/// bit-identical across the two entry points.
pub fn run_trace(
    blueprint: &dyn TageBlueprint,
    trace: &Trace,
    options: &RunOptions,
) -> TraceRunResult {
    let mut source = SliceSource::from_trace(trace);
    run_source(blueprint, &mut source, options).expect("in-memory slice sources are infallible")
}

/// Runs a TAGE predictor built from `config` over a streaming
/// [`BranchSource`] — the out-of-core counterpart of [`run_trace`]: the only
/// record memory in flight is the engine's fixed batch buffer (plus whatever
/// fixed chunk the source itself holds).
///
/// # Errors
///
/// Propagates the first [`FormatError`] the source reports.
///
/// # Example
///
/// ```
/// use tage::TageGeometry;
/// use tage_sim::runner::{run_source, RunOptions};
/// use tage_traces::source::SyntheticSource;
/// use tage_traces::suites;
///
/// let spec = suites::cbp1_like().trace("INT-1").unwrap().clone();
/// let mut source = SyntheticSource::from_spec(&spec, 5_000);
/// let result = run_source(&TageGeometry::small(), &mut source, &RunOptions::default()).unwrap();
/// assert_eq!(result.trace_name, "INT-1");
/// assert_eq!(result.conditional_branches, 5_000);
/// ```
pub fn run_source<S: BranchSource + ?Sized>(
    blueprint: &dyn TageBlueprint,
    source: &mut S,
    options: &RunOptions,
) -> Result<TraceRunResult, FormatError> {
    run_source_observed(blueprint, source, options, &mut ())
}

/// [`run_source`] with an extra [`EngineObserver`] riding along — the hook
/// the scenario observers (`crate::scenarios`) use to watch the *exact*
/// canonical TAGE + storage-free run without duplicating its assembly.
///
/// The extra observer runs after the report observer (and the adaptive
/// controller, when enabled) for every branch and instruction notification;
/// it does not alter the prediction stream, so the returned
/// [`TraceRunResult`] is bit-identical to the plain [`run_source`] run.
///
/// # Errors
///
/// Propagates the first [`FormatError`] the source reports.
pub fn run_source_observed<S, O>(
    blueprint: &dyn TageBlueprint,
    source: &mut S,
    options: &RunOptions,
    extra: &mut O,
) -> Result<TraceRunResult, FormatError>
where
    S: BranchSource + ?Sized,
    O: for<'p> EngineObserver<&'p mut TagePredictor>,
{
    let mut predictor = TagePredictor::new(blueprint);
    let mut run = TageRun::new(&mut predictor, options);
    let trace_name = source.name().to_string();
    let (report, summary) = run.measure(source, extra)?;
    Ok(run.result(
        trace_name,
        report,
        summary.measured_branches,
        summary.measured_instructions,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage::{CounterAutomaton, TageGeometry};
    use tage_confidence::{ConfidenceLevel, PredictionClass};
    use tage_traces::suites;

    fn small_trace(n: usize) -> Trace {
        suites::cbp1_like().trace("INT-1").unwrap().generate(n)
    }

    #[test]
    fn run_counts_every_measured_conditional_branch() {
        let trace = small_trace(4_000);
        let result = run_trace(&TageGeometry::small(), &trace, &RunOptions::default());
        assert_eq!(result.conditional_branches, 4_000);
        assert_eq!(result.report.total().predictions, 4_000);
        assert_eq!(result.instructions, trace.instruction_count());
        assert!(result.mpki() > 0.0);
        assert!(result.mkp() > result.mpki());
    }

    #[test]
    fn warmup_excludes_a_prefix_from_statistics() {
        let trace = small_trace(4_000);
        let options = RunOptions {
            warmup_branches: 1_000,
            ..RunOptions::default()
        };
        let result = run_trace(&TageGeometry::small(), &trace, &options);
        assert_eq!(result.report.total().predictions, 3_000);
        assert!(result.instructions < trace.instruction_count());
    }

    #[test]
    fn every_prediction_lands_in_some_class() {
        let trace = small_trace(3_000);
        let result = run_trace(&TageGeometry::small(), &trace, &RunOptions::default());
        let sum: u64 = PredictionClass::ALL
            .iter()
            .map(|&c| result.report.class(c).predictions)
            .sum();
        assert_eq!(sum, 3_000);
    }

    #[test]
    fn runs_are_deterministic() {
        let trace = small_trace(3_000);
        let a = run_trace(&TageGeometry::medium(), &trace, &RunOptions::default());
        let b = run_trace(&TageGeometry::medium(), &trace, &RunOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn larger_predictors_do_not_mispredict_more() {
        let trace = small_trace(30_000);
        let small = run_trace(&TageGeometry::small(), &trace, &RunOptions::default());
        let large = run_trace(&TageGeometry::large(), &trace, &RunOptions::default());
        assert!(
            large.report.total().mispredictions
                <= small.report.total().mispredictions + small.report.total().predictions / 100,
            "large {} vs small {}",
            large.report.total().mispredictions,
            small.report.total().mispredictions
        );
    }

    #[test]
    fn adaptive_run_tracks_probability() {
        let trace = small_trace(30_000);
        let config = TageGeometry::small().with_automaton(CounterAutomaton::paper_default());
        let result = run_trace(&config, &trace, &RunOptions::adaptive());
        assert!(result.final_saturation_probability >= 1.0 / 1024.0 - 1e-12);
        assert!(result.final_saturation_probability <= 1.0 + 1e-12);
    }

    #[test]
    fn low_confidence_class_has_higher_miss_rate_than_high() {
        let trace = small_trace(60_000);
        let config = TageGeometry::small().with_automaton(CounterAutomaton::paper_default());
        let result = run_trace(&config, &trace, &RunOptions::default());
        let low = result.report.level_mprate_mkp(ConfidenceLevel::Low);
        let high = result.report.level_mprate_mkp(ConfidenceLevel::High);
        assert!(
            low > high * 3.0,
            "low {low} MKP should be far above high {high} MKP"
        );
    }

    #[test]
    fn reusing_a_predictor_keeps_training_it() {
        let trace = small_trace(5_000);
        let mut predictor = TagePredictor::new(TageGeometry::small());
        let mut mispredictions = || {
            let mut run = TageRun::new(&mut predictor, &RunOptions::default());
            let (report, _) = run
                .measure(&mut SliceSource::from_trace(&trace), &mut ())
                .unwrap();
            report.total().mispredictions
        };
        let first = mispredictions();
        let second = mispredictions();
        assert!(
            second <= first,
            "a warmed predictor should not get worse on the same trace"
        );
    }

    #[test]
    fn display_mentions_names() {
        let trace = small_trace(1_000);
        let result = run_trace(&TageGeometry::small(), &trace, &RunOptions::default());
        let s = format!("{result}");
        assert!(s.contains("INT-1"));
        assert!(s.contains("TAGE-16K"));
    }
}
