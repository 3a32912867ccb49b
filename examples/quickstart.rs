//! Quickstart: build a TAGE predictor, run it over a synthetic workload and
//! read out the storage-free confidence of each prediction.
//!
//! Run with: `cargo run --release --example quickstart`

use tage_confidence_suite::confidence::{ConfidenceLevel, TageConfidenceClassifier};
use tage_confidence_suite::tage::{CounterAutomaton, TageGeometry, TagePredictor};
use tage_confidence_suite::traces::suites;

fn main() {
    // 1. A 64 Kbit TAGE predictor with the paper's modified counter
    //    automaton (probabilistic saturation, p = 1/128).
    let config = TageGeometry::medium().with_automaton(CounterAutomaton::paper_default());
    let mut predictor = TagePredictor::new(config.clone());

    // 2. The storage-free confidence classifier: its only state is the tiny
    //    medium-conf-bim recency window.
    let mut classifier = TageConfidenceClassifier::new(&config);

    // 3. A workload: one trace of the CBP-1-like suite.
    let trace = suites::cbp1_like()
        .trace("INT-1")
        .expect("suite trace exists")
        .generate(200_000);

    let mut per_level = [[0u64; 2]; 3]; // [level][correct, mispredicted]
    for record in trace.iter().filter(|r| r.kind.is_conditional()) {
        let prediction = predictor.predict(record.pc);
        let class = classifier.classify_and_observe(&prediction, record.taken);
        let level = class.level();
        let mispredicted = prediction.taken != record.taken;
        let slot = match level {
            ConfidenceLevel::Low => 0,
            ConfidenceLevel::Medium => 1,
            ConfidenceLevel::High => 2,
        };
        per_level[slot][usize::from(mispredicted)] += 1;
        predictor.update(record.pc, record.taken, &prediction);
    }

    println!("predictor: {}", config);
    println!("trace:     {}", trace);
    println!();
    println!("confidence level | predictions | mispredicted | misprediction rate");
    for (name, counts) in ["low", "medium", "high"].iter().zip(per_level.iter()) {
        let total = counts[0] + counts[1];
        let rate = if total == 0 {
            0.0
        } else {
            counts[1] as f64 * 100.0 / total as f64
        };
        println!(
            "{name:>16} | {total:>11} | {:>12} | {rate:>6.2} %",
            counts[1]
        );
    }
    println!();
    println!(
        "high-confidence predictions should be an order of magnitude more reliable than low-confidence ones."
    );
}
