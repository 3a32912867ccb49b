//! The adaptive saturation probability of Section 6.2: the controller keeps
//! the high-confidence misprediction rate under a target while maximising
//! the class's coverage, adjusting the probability between 1/1024 and 1.
//!
//! Run with: `cargo run --release --example adaptive_threshold`

use tage_confidence_suite::confidence::ConfidenceLevel;
use tage_confidence_suite::sim::runner::{run_trace, RunOptions};
use tage_confidence_suite::tage::{CounterAutomaton, TageGeometry};
use tage_confidence_suite::traces::suites;

fn main() {
    let suite = suites::cbp1_like();
    let config = TageGeometry::small().with_automaton(CounterAutomaton::paper_default());

    println!(
        "{:<10} {:<10} {:>11} {:>14} {:>12}",
        "trace", "mode", "high Pcov", "high MKP", "final p"
    );
    for name in ["FP-1", "INT-1", "MM-5", "SERV-2"] {
        let trace = suite.trace(name).expect("trace exists").generate(300_000);
        for (mode, options) in [
            ("fixed", RunOptions::default()),
            ("adaptive", RunOptions::adaptive()),
        ] {
            let result = run_trace(&config, &trace, &options);
            println!(
                "{:<10} {:<10} {:>11.3} {:>14.1} {:>12.5}",
                name,
                mode,
                result.report.level_pcov(ConfidenceLevel::High),
                result.report.level_mprate_mkp(ConfidenceLevel::High),
                result.final_saturation_probability,
            );
        }
    }
    println!();
    println!(
        "On predictable traces the controller relaxes the probability (growing the high class);"
    );
    println!("on hard traces it tightens it to keep the high-confidence misprediction rate near the 10 MKP target.");
}
