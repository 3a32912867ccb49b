//! Parity tests for the generic simulation engine.
//!
//! The engine refactor replaced three bespoke trace loops (TAGE runner,
//! baseline-estimator runner, gating/SMT models) with one generic execution
//! path. These tests pin the refactor down:
//!
//! * a hand-rolled reference loop — written exactly like the pre-engine
//!   runner — must produce the *identical* `ConfidenceReport` as
//!   `run_trace`;
//! * the baseline path through the engine must agree with a hand-rolled
//!   predictor + estimator loop on every count;
//! * TAGE driven as a trait object through a margin estimator must
//!   mispredict exactly like the rich native path.

use tage_confidence_suite::confidence::estimators::JrsEstimator;
use tage_confidence_suite::confidence::{
    BinaryConfusion, ConfidenceLevel, ConfidenceReport, ConfidenceScheme, TageConfidenceClassifier,
};
use tage_confidence_suite::predictors::{GsharePredictor, PredictorCore};
use tage_confidence_suite::sim::baseline::run_baseline;
use tage_confidence_suite::sim::engine::{ReportObserver, SimEngine};
use tage_confidence_suite::sim::runner::{run_trace, RunOptions};
use tage_confidence_suite::tage::{CounterAutomaton, TageGeometry, TagePredictor};
use tage_confidence_suite::traces::{suites, Trace};

const N: usize = 20_000;

fn trace(name: &str, n: usize) -> Trace {
    suites::cbp1_like().trace(name).unwrap().generate(n)
}

/// The pre-engine TAGE trace loop, reproduced verbatim as a reference
/// implementation.
fn reference_tage_run(config: &TageGeometry, trace: &Trace, warmup: u64) -> ConfidenceReport {
    let mut predictor = TagePredictor::new(config.clone());
    let mut classifier = TageConfidenceClassifier::new(config);
    let mut report = ConfidenceReport::new();
    let mut conditional_seen: u64 = 0;
    for record in trace.iter() {
        let in_measurement = conditional_seen >= warmup;
        if !record.kind.is_conditional() {
            if in_measurement {
                report.add_instructions(record.instructions());
            }
            continue;
        }
        conditional_seen += 1;
        let prediction = predictor.predict(record.pc);
        let class = classifier.classify_and_observe(&prediction, record.taken);
        let mispredicted = prediction.taken != record.taken;
        if in_measurement {
            report.record(class, mispredicted);
            report.add_instructions(record.instructions());
        }
        predictor.update(record.pc, record.taken, &prediction);
    }
    report
}

#[test]
fn engine_reproduces_the_reference_tage_loop_exactly() {
    for config in [
        TageGeometry::small(),
        TageGeometry::medium().with_automaton(CounterAutomaton::paper_default()),
    ] {
        let trace = trace("MM-3", N);
        let reference = reference_tage_run(&config, &trace, 0);
        let engine = run_trace(&config, &trace, &RunOptions::default());
        assert_eq!(
            engine.report,
            reference,
            "{}: the generic engine must be bit-identical to the bespoke loop",
            config.name()
        );
    }
}

#[test]
fn engine_reproduces_the_reference_loop_with_warmup() {
    let config = TageGeometry::small();
    let trace = trace("SERV-2", N);
    let reference = reference_tage_run(&config, &trace, 5_000);
    let options = RunOptions {
        warmup_branches: 5_000,
        ..RunOptions::default()
    };
    let engine = run_trace(&config, &trace, &options);
    assert_eq!(engine.report, reference);
    assert_eq!(engine.conditional_branches, N as u64 - 5_000);
}

#[test]
fn baseline_path_matches_a_hand_rolled_predictor_estimator_loop() {
    let trace = trace("INT-1", N);

    // Hand-rolled reference: the pre-engine baseline loop.
    let mut predictor = GsharePredictor::new(12, 12);
    let mut estimator = JrsEstimator::classic(12);
    let mut confusion = BinaryConfusion::default();
    let mut mispredictions = 0u64;
    let mut level_predictions = [0u64; 3];
    for record in trace.iter().filter(|r| r.kind.is_conditional()) {
        let prediction = predictor.predict(record.pc);
        let level = estimator.assess(record.pc, &prediction).level;
        let mispredicted = prediction.taken != record.taken;
        mispredictions += u64::from(mispredicted);
        confusion.record(level == ConfidenceLevel::High, mispredicted);
        let slot = match level {
            ConfidenceLevel::Low => 0,
            ConfidenceLevel::Medium => 1,
            ConfidenceLevel::High => 2,
        };
        level_predictions[slot] += 1;
        estimator.observe(record.pc, &prediction, record.taken);
        predictor.update(record.pc, record.taken, &prediction);
    }

    // The same pair through the generic engine.
    let mut engine_predictor = GsharePredictor::new(12, 12);
    let mut engine_estimator = JrsEstimator::classic(12);
    let result = run_baseline(&mut engine_predictor, &mut engine_estimator, &trace);

    assert_eq!(result.conditional_branches, N as u64);
    assert_eq!(result.mispredictions, mispredictions);
    assert_eq!(result.confusion, confusion);
    assert_eq!(result.level_predictions, level_predictions);
}

#[test]
fn adaptive_runs_are_deterministic_through_the_engine() {
    let config = TageGeometry::small().with_automaton(CounterAutomaton::paper_default());
    let trace = trace("SERV-1", 40_000);
    let a = run_trace(&config, &trace, &RunOptions::adaptive());
    let b = run_trace(&config, &trace, &RunOptions::adaptive());
    assert_eq!(a, b);
}

#[test]
fn tage_as_trait_object_through_the_margin_path_mispredicts_identically() {
    // TAGE flows through the engine natively (rich TagePrediction lookups
    // graded by the storage-free classifier); it can also be driven as a
    // trait object graded by a margin estimator. The confidence grading
    // differs but the predictions themselves must be identical.
    use tage_confidence_suite::confidence::estimators::SelfConfidenceEstimator;
    use tage_confidence_suite::tage::TagePrediction;

    let trace = trace("INT-3", N);
    let config = TageGeometry::small();

    let native = run_trace(&config, &trace, &RunOptions::default());

    let boxed: Box<dyn PredictorCore<Lookup = TagePrediction> + Send> =
        Box::new(TagePredictor::new(config.clone()));
    let mut engine = SimEngine::new(boxed, SelfConfidenceEstimator::new(5));
    let mut margin = ReportObserver::default();
    let summary = engine.run(&trace, &mut margin);

    assert_eq!(summary.measured_branches, native.conditional_branches);
    assert_eq!(
        margin.report.total().mispredictions,
        native.report.total().mispredictions,
        "the margin path must make exactly the native predictions"
    );
}

#[test]
fn engine_composition_matches_run_trace_assembly() {
    // Assembling the engine by hand gives the same report as the runner's
    // canonical assembly.
    let config = TageGeometry::small();
    let trace = trace("FP-2", N);

    let canonical = run_trace(&config, &trace, &RunOptions::default());

    let mut engine = SimEngine::new(
        TagePredictor::new(config.clone()),
        TageConfidenceClassifier::new(&config),
    );
    let mut observer = ReportObserver::default();
    let summary = engine.run(&trace, &mut observer);

    assert_eq!(observer.report, canonical.report);
    assert_eq!(summary.measured_branches, canonical.conditional_branches);
    assert_eq!(summary.measured_instructions, canonical.instructions);
}
