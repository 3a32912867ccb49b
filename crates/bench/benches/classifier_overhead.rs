//! Micro-benchmark: cost of the storage-free confidence classification on
//! top of a plain TAGE simulation loop.
//!
//! The paper's argument is that the estimation is free in hardware; this
//! bench shows it is also nearly free in simulation (a few percent on top of
//! predict + update).
//!
//! Run with: `cargo bench --bench classifier_overhead`

use tage::{CounterAutomaton, TageGeometry, TagePredictor};
use tage_bench::harness::bench;
use tage_confidence::TageConfidenceClassifier;
use tage_traces::{suites, Trace};

fn workload() -> Trace {
    suites::cbp1_like().trace("MM-3").unwrap().generate(20_000)
}

fn config() -> TageGeometry {
    TageGeometry::medium().with_automaton(CounterAutomaton::paper_default())
}

fn main() {
    let trace = workload();
    let branches = trace.iter().filter(|r| r.kind.is_conditional()).count() as u64;

    bench(
        "classifier_overhead",
        "predict_update_only",
        branches,
        || {
            let mut predictor = TagePredictor::new(config());
            let mut misses = 0u64;
            for record in trace.iter().filter(|r| r.kind.is_conditional()) {
                let pred = predictor.predict(record.pc);
                if pred.taken != record.taken {
                    misses += 1;
                }
                predictor.update(record.pc, record.taken, &pred);
            }
            misses
        },
    );

    bench(
        "classifier_overhead",
        "predict_classify_update",
        branches,
        || {
            let mut predictor = TagePredictor::new(config());
            let mut classifier = TageConfidenceClassifier::new(&config());
            let mut high = 0u64;
            for record in trace.iter().filter(|r| r.kind.is_conditional()) {
                let pred = predictor.predict(record.pc);
                let class = classifier.classify_and_observe(&pred, record.taken);
                if class.level() == tage_confidence::ConfidenceLevel::High {
                    high += 1;
                }
                predictor.update(record.pc, record.taken, &pred);
            }
            high
        },
    );
}
