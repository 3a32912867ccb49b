//! Fetch gating / throttling driven by the storage-free confidence estimate —
//! the motivating application from the paper's introduction (energy saved on
//! wrong-path fetch versus fetch slots lost on gated correct predictions).
//!
//! Run with: `cargo run --release --example fetch_gating`

use tage_confidence_suite::sim::gating::{simulate_gating, GatingModel, GatingPolicy};
use tage_confidence_suite::tage::{CounterAutomaton, TageGeometry};
use tage_confidence_suite::traces::suites;

fn main() {
    let config = TageGeometry::medium().with_automaton(CounterAutomaton::paper_default());
    let model = GatingModel::default();
    let suite = suites::cbp1_like();

    println!(
        "{:<10} {:<28} {:>14} {:>14} {:>14}",
        "trace", "policy", "waste/branch", "loss/branch", "avoided/branch"
    );
    for name in ["FP-2", "INT-1", "MM-5", "SERV-2"] {
        let trace = suite.trace(name).expect("trace exists").generate(200_000);
        for (label, policy) in [
            ("never gate", GatingPolicy::never()),
            ("gate low", GatingPolicy::gate_low()),
            (
                "gate low + throttle medium",
                GatingPolicy::gate_low_throttle_medium(),
            ),
        ] {
            let result = simulate_gating(&config, &trace, policy, &model);
            println!(
                "{:<10} {:<28} {:>14.2} {:>14.2} {:>14.2}",
                name,
                label,
                result.waste_per_branch(),
                result.loss_per_branch(),
                result.wrong_path_avoided / result.branches as f64,
            );
        }
        println!();
    }
    println!("waste = wrong-path instructions fetched per branch (front-end energy proxy)");
    println!("loss  = fetch slots lost on gated/throttled correct predictions (performance proxy)");
}
