//! Section 6.2 sweep: how the saturation probability trades high-confidence
//! coverage against high-confidence purity (the paper compares 1/16 and
//! 1/128 on the 16 Kbit predictor, CBP-1).

use tage::TageGeometry;
use tage_bench::{branches_from_args, print_header};
use tage_sim::experiment::probability_sweep;
use tage_sim::report::{fraction, mkp, mpki, probability, TextTable};
use tage_traces::suites;

fn main() {
    let branches = branches_from_args();
    print_header(
        "Section 6.2 — saturation-probability sweep, 16 Kbit predictor, CBP-1-like",
        branches,
    );
    let rows = probability_sweep(
        &TageGeometry::small(),
        &suites::cbp1_like(),
        branches,
        &[0, 2, 4, 7, 10],
    );
    let mut table = TextTable::new(vec![
        "probability",
        "high Pcov",
        "high MPcov",
        "high MPrate (MKP)",
        "overall MPKI",
    ]);
    for row in &rows {
        table.row(vec![
            probability(row.probability),
            fraction(row.high_pcov),
            fraction(row.high_mpcov),
            mkp(row.high_mprate_mkp),
            mpki(row.mpki),
        ]);
    }
    print!("{}", table.render());
    println!();
    println!("Expected shape: larger probabilities grow the high-confidence class but raise its misprediction rate.");
}
