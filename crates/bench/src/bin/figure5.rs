//! Figure 5: class distributions with the modified 3-bit counter automaton
//! (probabilistic saturation, p = 1/128) for the three panels the paper
//! shows: 16 Kbit on CBP-1, 64 Kbit on CBP-2 and 256 Kbit on CBP-1.

use tage::{CounterAutomaton, TageGeometry};
use tage_bench::{branches_from_args, print_header};
use tage_confidence::PredictionClass;
use tage_sim::experiment::class_distribution;
use tage_sim::report::TextTable;
use tage_traces::{suites, Suite};

fn panel(config: TageGeometry, suite: &Suite, branches: usize) {
    let config = config.with_automaton(CounterAutomaton::paper_default());
    println!("--- {} on {} ---", config.name(), suite.name());
    let rows = class_distribution(&config, suite, branches);
    let mut headers = vec!["trace"];
    headers.extend(PredictionClass::ALL.iter().map(|c| c.label()));
    headers.push("MPKI");
    let mut pcov_table = TextTable::new(headers.clone());
    let mut mpki_table = TextTable::new(headers);
    for row in &rows {
        let mut cells = vec![row.trace_name.clone()];
        cells.extend(row.pcov.iter().map(|p| format!("{:.3}", p)));
        cells.push(format!("{:.2}", row.total_mpki));
        pcov_table.row(cells);
        let mut cells = vec![row.trace_name.clone()];
        cells.extend(row.mpki_contribution.iter().map(|p| format!("{:.3}", p)));
        cells.push(format!("{:.2}", row.total_mpki));
        mpki_table.row(cells);
    }
    println!("prediction coverage (left plot):");
    print!("{}", pcov_table.render());
    println!("misprediction contribution in MPKI (right plot):");
    print!("{}", mpki_table.render());
    println!();
}

fn main() {
    let branches = branches_from_args();
    print_header(
        "Figure 5 — class distributions, modified 3-bit counter automaton (p = 1/128)",
        branches,
    );
    panel(TageGeometry::small(), &suites::cbp1_like(), branches);
    panel(TageGeometry::medium(), &suites::cbp2_like(), branches);
    panel(TageGeometry::large(), &suites::cbp1_like(), branches);
}
