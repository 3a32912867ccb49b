//! The generic simulation engine: one execution path for every predictor ×
//! confidence-scheme pair.
//!
//! The paper compares the storage-free TAGE classification against
//! storage-based estimators bolted onto older predictors. With the engine,
//! that whole cross-product is one loop: TAGE runs with its rich observable
//! lookups, every baseline grades its flat margin-carrying lookups, and the identical
//! code collects the identical report.
//!
//! Run with: `cargo run --release --example generic_engine`

use tage_confidence_suite::confidence::estimators::{JrsEstimator, SelfConfidenceEstimator};
use tage_confidence_suite::confidence::{
    ConfidenceLevel, ConfidenceScheme, TageConfidenceClassifier,
};
use tage_confidence_suite::predictors::{
    BranchPredictor, GehlPredictor, GsharePredictor, PerceptronPredictor, Prediction,
};
use tage_confidence_suite::sim::engine::{ReportObserver, SimEngine};
use tage_confidence_suite::tage::{CounterAutomaton, TageGeometry, TagePredictor};
use tage_confidence_suite::traces::suites;

/// A baseline predictor and the estimator grading its lookups.
type BaselinePair = (
    Box<dyn BranchPredictor + Send>,
    Box<dyn ConfidenceScheme<Prediction>>,
);

fn main() {
    let trace = suites::cbp1_like()
        .trace("INT-2")
        .expect("trace exists")
        .generate(100_000);
    println!("trace: {trace}");
    println!();
    println!(
        "{:<26} {:<30} {:>9} {:>11} {:>11}",
        "predictor", "confidence scheme", "MKP", "high Pcov", "high MKP"
    );

    // The storage-free TAGE path: rich lookups, 7-class grading.
    let config = TageGeometry::medium().with_automaton(CounterAutomaton::paper_default());
    let mut engine = SimEngine::new(
        TagePredictor::new(config.clone()),
        TageConfidenceClassifier::new(&config),
    );
    let mut observer = ReportObserver::default();
    engine.run(&trace, &mut observer);
    print_row(&config.name(), "storage-free-tage", &observer);

    // Every baseline predictor × estimator pair runs through the *same*
    // engine; trait objects keep the fleet heterogeneous.
    let pairs: Vec<BaselinePair> = vec![
        (
            Box::new(GsharePredictor::new(14, 14)),
            Box::new(JrsEstimator::classic(12)),
        ),
        (
            Box::new(GsharePredictor::new(14, 14)),
            Box::new(JrsEstimator::enhanced(12)),
        ),
        (
            Box::new(PerceptronPredictor::new(512, 32)),
            Box::new(SelfConfidenceEstimator::new(60)),
        ),
        (
            Box::new(GehlPredictor::new(6, 11, 3, 120)),
            Box::new(SelfConfidenceEstimator::new(24)),
        ),
    ];
    for (predictor, estimator) in pairs {
        let predictor_name = predictor.name();
        let estimator_name = estimator.name();
        let mut engine = SimEngine::new(predictor, estimator);
        let mut observer = ReportObserver::default();
        engine.run(&trace, &mut observer);
        print_row(&predictor_name, &estimator_name, &observer);
    }

    println!();
    println!("One engine, one loop: the TAGE path and every baseline share the execution path,");
    println!("so new predictor x estimator x scenario combinations need no new driver code.");
}

fn print_row(predictor: &str, scheme: &str, observer: &ReportObserver) {
    let report = &observer.report;
    println!(
        "{:<26} {:<30} {:>9.1} {:>11.3} {:>11.1}",
        predictor,
        scheme,
        report.mkp(),
        report.level_pcov(ConfidenceLevel::High),
        report.level_mprate_mkp(ConfidenceLevel::High)
    );
}
