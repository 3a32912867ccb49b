//! Compare the storage-free TAGE confidence estimation against the
//! storage-based estimators from the prior art (JRS on gshare, self-confidence
//! on a perceptron) using the binary metrics of Grunwald et al.
//!
//! Run with: `cargo run --release --example estimator_comparison`

use tage_confidence_suite::confidence::estimators::{JrsEstimator, SelfConfidenceEstimator};
use tage_confidence_suite::confidence::ConfidenceLevel;
use tage_confidence_suite::predictors::{GsharePredictor, PerceptronPredictor};
use tage_confidence_suite::sim::baseline::run_baseline;
use tage_confidence_suite::sim::runner::{run_trace, RunOptions};
use tage_confidence_suite::tage::{CounterAutomaton, TageGeometry};
use tage_confidence_suite::traces::suites;

fn main() {
    let trace = suites::cbp2_like()
        .trace("186.crafty")
        .expect("trace exists")
        .generate(200_000);
    println!("trace: {trace}");
    println!();
    println!(
        "{:<42} {:>10} {:>7} {:>7} {:>7} {:>7}",
        "scheme", "storage", "SENS", "SPEC", "PVP", "PVN"
    );

    let mut gshare = GsharePredictor::new(14, 14);
    let mut jrs = JrsEstimator::classic(12);
    let r = run_baseline(&mut gshare, &mut jrs, &trace);
    println!(
        "{:<42} {:>10} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
        "gshare + JRS (4-bit counters, threshold 15)",
        format!("{} b", r.estimator_storage_bits),
        r.confusion.sensitivity(),
        r.confusion.specificity(),
        r.confusion.pvp(),
        r.confusion.pvn()
    );

    let mut perceptron = PerceptronPredictor::new(512, 32);
    let mut self_conf = SelfConfidenceEstimator::new(60);
    let r = run_baseline(&mut perceptron, &mut self_conf, &trace);
    println!(
        "{:<42} {:>10} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
        "perceptron + self-confidence (threshold 60)",
        "0 b",
        r.confusion.sensitivity(),
        r.confusion.specificity(),
        r.confusion.pvp(),
        r.confusion.pvn()
    );

    let config = TageGeometry::medium().with_automaton(CounterAutomaton::paper_default());
    let result = run_trace(&config, &trace, &RunOptions::default());
    let confusion = result.report.binary_confusion(&[ConfidenceLevel::High]);
    println!(
        "{:<42} {:>10} {:>7.3} {:>7.3} {:>7.3} {:>7.3}",
        "TAGE-64K storage-free (high vs the rest)",
        "0 b",
        confusion.sensitivity(),
        confusion.specificity(),
        confusion.pvp(),
        confusion.pvn()
    );
    println!();
    println!("The TAGE observation-based estimate needs no confidence table at all.");
}
