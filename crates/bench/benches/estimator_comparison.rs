//! Micro-benchmark: throughput of the storage-based baseline confidence
//! estimators (JRS, enhanced JRS, self-confidence) attached to their host
//! predictors.
//!
//! Run with: `cargo bench --bench estimator_comparison`

use tage_bench::harness::bench;
use tage_confidence::estimators::{JrsEstimator, SelfConfidenceEstimator};
use tage_confidence::ConfidenceScheme;
use tage_predictors::{BranchPredictor, GsharePredictor, PerceptronPredictor, Prediction};
use tage_traces::{suites, Trace};

fn workload() -> Trace {
    suites::cbp2_like()
        .trace("175.vpr")
        .unwrap()
        .generate(20_000)
}

fn run(
    predictor: &mut dyn BranchPredictor,
    estimator: &mut dyn ConfidenceScheme<Prediction>,
    trace: &Trace,
) -> u64 {
    let mut high = 0u64;
    for record in trace.iter().filter(|r| r.kind.is_conditional()) {
        let pred = predictor.predict(record.pc);
        if estimator.assess(record.pc, &pred).is_high() {
            high += 1;
        }
        estimator.observe(record.pc, &pred, record.taken);
        predictor.update(record.pc, record.taken, &pred);
    }
    high
}

fn main() {
    let trace = workload();
    let branches = trace.iter().filter(|r| r.kind.is_conditional()).count() as u64;

    bench("estimator_throughput", "gshare_jrs", branches, || {
        let mut predictor = GsharePredictor::new(14, 14);
        let mut estimator = JrsEstimator::classic(12);
        run(&mut predictor, &mut estimator, &trace)
    });
    bench(
        "estimator_throughput",
        "gshare_enhanced_jrs",
        branches,
        || {
            let mut predictor = GsharePredictor::new(14, 14);
            let mut estimator = JrsEstimator::enhanced(12);
            run(&mut predictor, &mut estimator, &trace)
        },
    );
    bench(
        "estimator_throughput",
        "perceptron_self_confidence",
        branches,
        || {
            let mut predictor = PerceptronPredictor::new(512, 32);
            let mut estimator = SelfConfidenceEstimator::new(60);
            run(&mut predictor, &mut estimator, &trace)
        },
    );
}
