//! Ablations of the design choices called out in DESIGN.md:
//!
//! * the `medium-conf-bim` recency window length (paper: "up to 8 branches"),
//! * the tagged prediction-counter width (the paper argues 4-bit counters do
//!   not fix the saturated class and slightly hurt accuracy).

use tage::TageGeometry;
use tage_bench::{branches_from_args, print_header};
use tage_sim::experiment::{counter_width_ablation, window_ablation};
use tage_sim::report::{fraction, mkp, mpki, TextTable};
use tage_traces::suites;

fn main() {
    let branches = branches_from_args();
    print_header(
        "Ablations — medium-conf-bim window and counter width",
        branches,
    );
    let suite = suites::cbp1_like();

    println!("--- medium-conf-bim window length (16 Kbit predictor) ---");
    let rows = window_ablation(
        &TageGeometry::small(),
        &suite,
        branches,
        &[0, 2, 4, 8, 16, 32],
    );
    let mut table = TextTable::new(vec![
        "window",
        "medium-conf-bim Pcov",
        "medium-conf-bim MKP",
        "high-conf-bim MKP",
    ]);
    for row in &rows {
        table.row(vec![
            row.window.to_string(),
            fraction(row.medium_bim_pcov),
            mkp(row.medium_bim_mprate_mkp),
            mkp(row.high_bim_mprate_mkp),
        ]);
    }
    print!("{}", table.render());
    println!();

    println!("--- tagged counter width (16 Kbit predictor, standard automaton) ---");
    let rows = counter_width_ablation(&TageGeometry::small(), &suite, branches, &[2, 3, 4, 5]);
    let mut table = TextTable::new(vec![
        "counter bits",
        "MPKI",
        "saturated-class Pcov",
        "saturated-class MKP",
    ]);
    for row in &rows {
        table.row(vec![
            row.counter_bits.to_string(),
            mpki(row.mpki),
            fraction(row.saturated_pcov),
            mkp(row.saturated_mprate_mkp),
        ]);
    }
    print!("{}", table.render());
}
