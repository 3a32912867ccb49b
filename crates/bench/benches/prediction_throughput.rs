//! Micro-benchmark: TAGE prediction + update throughput for the three
//! predictor sizes, plus the baseline predictors for context.
//!
//! Run with: `cargo bench --bench prediction_throughput`

use tage::{TageGeometry, TagePredictor};
use tage_bench::harness::bench;
use tage_predictors::{
    BimodalPredictor, BranchPredictor, GehlPredictor, GsharePredictor, PerceptronPredictor,
};
use tage_traces::{suites, Trace};

fn workload() -> Trace {
    suites::cbp1_like().trace("INT-1").unwrap().generate(20_000)
}

fn run_loop(p: &mut dyn BranchPredictor, trace: &Trace) -> u64 {
    let mut misses = 0u64;
    for record in trace.iter().filter(|r| r.kind.is_conditional()) {
        let pred = p.predict(record.pc);
        if pred.taken != record.taken {
            misses += 1;
        }
        p.update(record.pc, record.taken, &pred);
    }
    misses
}

fn main() {
    let trace = workload();
    let branches = trace.iter().filter(|r| r.kind.is_conditional()).count() as u64;

    for config in [
        TageGeometry::small(),
        TageGeometry::medium(),
        TageGeometry::large(),
    ] {
        bench("tage_predict_update", &config.name(), branches, || {
            let mut predictor = TagePredictor::new(config.clone());
            let mut misses = 0u64;
            for record in trace.iter().filter(|r| r.kind.is_conditional()) {
                let pred = predictor.predict(record.pc);
                if pred.taken != record.taken {
                    misses += 1;
                }
                predictor.update(record.pc, record.taken, &pred);
            }
            misses
        });
    }

    bench("baseline_predict_update", "bimodal-8k", branches, || {
        run_loop(&mut BimodalPredictor::new(13), &trace)
    });
    bench("baseline_predict_update", "gshare-16k", branches, || {
        run_loop(&mut GsharePredictor::new(14, 14), &trace)
    });
    bench(
        "baseline_predict_update",
        "perceptron-512x32",
        branches,
        || run_loop(&mut PerceptronPredictor::new(512, 32), &trace),
    );
    bench("baseline_predict_update", "gehl-6x2k", branches, || {
        run_loop(&mut GehlPredictor::new(6, 11, 3, 120), &trace)
    });
}
