//! Figure 4: misprediction rate (MKP) per prediction class for 7 CBP-2
//! traces, 64 Kbit predictor, standard automaton.

use tage::TageGeometry;
use tage_bench::{branches_from_args, print_header};
use tage_confidence::PredictionClass;
use tage_sim::experiment::per_class_rates;
use tage_sim::report::{mkp, TextTable};
use tage_traces::suites;

/// The seven CBP-2 traces shown in the paper's Figures 4 and 6.
pub const FIGURE4_TRACES: [&str; 7] = [
    "164.gzip",
    "175.vpr",
    "176.gcc",
    "181.mcf",
    "186.crafty",
    "197.parser",
    "201.compress",
];

fn main() {
    let branches = branches_from_args();
    print_header(
        "Figure 4 — per-class misprediction rates, 64 Kbit, standard automaton",
        branches,
    );
    let rows = per_class_rates(
        &TageGeometry::medium(),
        &suites::cbp2_like(),
        &FIGURE4_TRACES,
        branches,
    );
    let mut headers = vec!["trace"];
    headers.extend(PredictionClass::ALL.iter().map(|c| c.label()));
    headers.push("Average");
    let mut table = TextTable::new(headers);
    for row in &rows {
        let mut cells = vec![row.trace_name.clone()];
        cells.extend(row.mprate_mkp.iter().map(|&r| mkp(r)));
        cells.push(mkp(row.average_mkp));
        table.row(cells);
    }
    println!("misprediction rate per class, in MKP:");
    print!("{}", table.render());
}
