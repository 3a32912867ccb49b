//! The 7 prediction classes of the paper's Section 5, measured on one trace
//! for the standard and the modified counter automaton side by side.
//!
//! Run with: `cargo run --release --example confidence_classes [trace-name]`

use tage_confidence_suite::confidence::PredictionClass;
use tage_confidence_suite::sim::runner::{run_trace, RunOptions};
use tage_confidence_suite::tage::{CounterAutomaton, TageGeometry};
use tage_confidence_suite::traces::suites;

fn main() {
    let trace_name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "MM-3".to_string());
    let cbp1 = suites::cbp1_like();
    let cbp2 = suites::cbp2_like();
    let spec = cbp1
        .trace(&trace_name)
        .or_else(|| cbp2.trace(&trace_name))
        .unwrap_or_else(|| {
            eprintln!("unknown trace {trace_name}, falling back to MM-3");
            cbp1.trace("MM-3")
                .expect("MM-3 exists in the CBP-1-like suite")
        });
    let trace = spec.generate(300_000);

    println!("trace: {trace}");
    println!();
    for automaton in [
        CounterAutomaton::Standard,
        CounterAutomaton::paper_default(),
    ] {
        let config = TageGeometry::medium().with_automaton(automaton);
        let result = run_trace(&config, &trace, &RunOptions::default());
        println!("--- {} automaton ({automaton}) ---", config.name());
        println!(
            "overall: {:.2} MPKI, {:.1} MKP",
            result.mpki(),
            result.mkp()
        );
        println!(
            "{:<16} {:>8} {:>8} {:>12}",
            "class", "Pcov", "MPcov", "MPrate (MKP)"
        );
        for class in PredictionClass::ALL {
            println!(
                "{:<16} {:>8.3} {:>8.3} {:>12.1}",
                class.label(),
                result.report.pcov(class),
                result.report.mpcov(class),
                result.report.mprate_mkp(class)
            );
        }
        println!();
    }
    println!("With the modified automaton the saturated-counter class (Stag) becomes a genuine high-confidence class.");
}
