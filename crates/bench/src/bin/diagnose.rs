//! Quick diagnostic: per-trace MPKI and per-class rates for tuning the
//! synthetic workloads against the paper's reported ranges.

use tage::{CounterAutomaton, TageGeometry};
use tage_bench::branches_from_args;
use tage_confidence::{ConfidenceLevel, PredictionClass};
use tage_sim::runner::{run_trace, RunOptions};
use tage_traces::suites;

fn main() {
    let n = branches_from_args(100_000);
    for suite in [suites::cbp1_like(), suites::cbp2_like()] {
        println!("=== {} ({} branches/trace) ===", suite.name(), n);
        for config in [
            TageGeometry::small().with_automaton(CounterAutomaton::paper_default()),
            TageGeometry::large().with_automaton(CounterAutomaton::paper_default()),
        ] {
            let mut sum_mpki = 0.0;
            println!("--- {} ---", config.name());
            for spec in suite.traces() {
                let trace = spec.generate(n);
                let r = run_trace(&config, &trace, &RunOptions::default());
                sum_mpki += r.mpki();
                let rep = &r.report;
                println!(
                    "{:<14} MPKI {:6.2}  MKP {:6.1} | bim pcov {:.2} | hi {:6.1}({:.2}) med {:6.1}({:.2}) low {:6.1}({:.2}) | Stag {:6.1}({:.2}) Wtag {:6.1}",
                    r.trace_name,
                    r.mpki(),
                    r.mkp(),
                    rep.pcov(PredictionClass::HighConfBim)
                        + rep.pcov(PredictionClass::MediumConfBim)
                        + rep.pcov(PredictionClass::LowConfBim),
                    rep.level_mprate_mkp(ConfidenceLevel::High),
                    rep.level_pcov(ConfidenceLevel::High),
                    rep.level_mprate_mkp(ConfidenceLevel::Medium),
                    rep.level_pcov(ConfidenceLevel::Medium),
                    rep.level_mprate_mkp(ConfidenceLevel::Low),
                    rep.level_pcov(ConfidenceLevel::Low),
                    rep.mprate_mkp(PredictionClass::Stag),
                    rep.pcov(PredictionClass::Stag),
                    rep.mprate_mkp(PredictionClass::Wtag),
                );
            }
            println!("mean MPKI {:.2}", sum_mpki / suite.traces().len() as f64);
        }
    }
}
