//! Section 5.1: breakdown of the predictions provided by the bimodal base
//! component into high / medium / low confidence sub-classes, for the small
//! and the large predictors on the CBP-1-like suite.

use tage::TageGeometry;
use tage_bench::{branches_from_args, print_header};
use tage_sim::experiment::bim_breakdown;
use tage_sim::report::{fraction, mkp, TextTable};
use tage_traces::suites;

fn main() {
    let branches = branches_from_args();
    print_header(
        "Section 5.1 — bimodal-provider (BIM) breakdown, CBP-1-like",
        branches,
    );
    for config in [TageGeometry::small(), TageGeometry::large()] {
        println!("--- {} ---", config.name());
        let rows = bim_breakdown(&config, &suites::cbp1_like(), branches);
        let mut table = TextTable::new(vec![
            "trace",
            "BIM Pcov",
            "BIM MPcov",
            "BIM MKP",
            "high-conf-bim MKP",
            "medium-conf-bim MKP",
            "low-conf-bim MKP",
            "overall MKP",
        ]);
        for row in &rows {
            table.row(vec![
                row.trace_name.clone(),
                fraction(row.bim_pcov),
                fraction(row.bim_mpcov),
                mkp(row.bim_mprate_mkp),
                mkp(row.high_conf_bim_mkp),
                mkp(row.medium_conf_bim_mkp),
                mkp(row.low_conf_bim_mkp),
                mkp(row.overall_mkp),
            ]);
        }
        print!("{}", table.render());
        println!();
    }
}
