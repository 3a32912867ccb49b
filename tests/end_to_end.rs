//! Cross-crate integration tests: the full pipeline from synthetic workload
//! generation through the TAGE predictor, the storage-free confidence
//! classifier and the simulation harness.

use tage_confidence_suite::confidence::{ConfidenceLevel, PredictionClass};
use tage_confidence_suite::sim::point::{run_point, PredictorSpec, SchemeSpec, SweepPoint};
use tage_confidence_suite::sim::runner::{run_trace, RunOptions};
use tage_confidence_suite::sim::EngineKind;
use tage_confidence_suite::tage::{CounterAutomaton, TageGeometry, TagePredictor};
use tage_confidence_suite::traces::reader::TraceReader;
use tage_confidence_suite::traces::writer::TraceWriter;
use tage_confidence_suite::traces::{suites, Suite};

const N: usize = 40_000;

fn modified(config: TageGeometry) -> TageGeometry {
    config.with_automaton(CounterAutomaton::paper_default())
}

#[test]
fn every_class_count_adds_up_across_the_pipeline() {
    let trace = suites::cbp1_like().trace("INT-2").unwrap().generate(N);
    let result = run_trace(
        &modified(TageGeometry::small()),
        &trace,
        &RunOptions::default(),
    );
    let by_class: u64 = PredictionClass::ALL
        .iter()
        .map(|&c| result.report.class(c).predictions)
        .sum();
    let by_level: u64 = ConfidenceLevel::ALL
        .iter()
        .map(|&l| result.report.level(l).predictions)
        .sum();
    assert_eq!(by_class, N as u64);
    assert_eq!(by_level, N as u64);
    assert_eq!(result.report.total().predictions, N as u64);
}

#[test]
fn trace_serialisation_does_not_change_simulation_results() {
    let trace = suites::cbp2_like()
        .trace("181.mcf")
        .unwrap()
        .generate(20_000);
    let bytes = TraceWriter::to_binary_bytes(&trace);
    let reloaded = TraceReader::read_binary(&bytes[..]).expect("valid trace bytes");
    let config = modified(TageGeometry::medium());
    let direct = run_trace(&config, &trace, &RunOptions::default());
    let via_disk = run_trace(&config, &reloaded, &RunOptions::default());
    assert_eq!(direct.report, via_disk.report);
}

#[test]
fn predictor_state_is_shareable_across_crates() {
    // The same TagePredictor instance serves the trait-based baseline path
    // and the inherent TAGE path without drift.
    let config = TageGeometry::small();
    let mut a = TagePredictor::new(config.clone());
    let mut b = TagePredictor::new(config);
    let trace = suites::cbp1_like().trace("FP-3").unwrap().generate(10_000);
    for record in trace.iter().filter(|r| r.kind.is_conditional()) {
        let pa = a.predict(record.pc);
        a.update(record.pc, record.taken, &pa);
        let pb = b.predict(record.pc);
        b.update(record.pc, record.taken, &pb);
        assert_eq!(pa, pb);
    }
    assert_eq!(a.stats(), b.stats());
}

#[test]
fn suite_aggregation_matches_sum_of_trace_runs() {
    let full = suites::cbp1_like();
    let mini = Suite::new(
        "mini",
        vec![
            full.trace("FP-1").unwrap().clone(),
            full.trace("MM-3").unwrap().clone(),
        ],
    );
    let config = modified(TageGeometry::small());
    let point = SweepPoint::over_suite(
        PredictorSpec::Tage(config.clone()),
        SchemeSpec::StorageFree,
        &mini,
    );
    let suite_result = run_point(
        &point,
        10_000,
        &RunOptions::default(),
        EngineKind::Multilane,
        None,
    )
    .unwrap();
    let separate: u64 = mini
        .traces()
        .iter()
        .map(|spec| {
            let trace = spec.generate(10_000);
            run_trace(&config, &trace, &RunOptions::default())
                .report
                .total()
                .mispredictions
        })
        .sum();
    assert_eq!(suite_result.aggregate.total().mispredictions, separate);
}

#[test]
fn three_levels_are_ordered_on_every_cbp1_trace() {
    let config = modified(TageGeometry::medium());
    let suite = suites::cbp1_like();
    for spec in suite.traces().iter().step_by(4) {
        let trace = spec.generate(N);
        let result = run_trace(&config, &trace, &RunOptions::default());
        let high = result.report.level_mprate_mkp(ConfidenceLevel::High);
        let low = result.report.level_mprate_mkp(ConfidenceLevel::Low);
        assert!(
            low > high,
            "{}: low-confidence rate {low} must exceed high-confidence rate {high}",
            spec.name()
        );
    }
}

#[test]
fn modified_automaton_purifies_the_saturated_class() {
    let trace = suites::cbp1_like().trace("MM-1").unwrap().generate(60_000);
    let standard = run_trace(&TageGeometry::small(), &trace, &RunOptions::default());
    let probabilistic = run_trace(
        &modified(TageGeometry::small()),
        &trace,
        &RunOptions::default(),
    );
    let std_stag = standard.report.mprate_mkp(PredictionClass::Stag);
    let mod_stag = probabilistic.report.mprate_mkp(PredictionClass::Stag);
    assert!(
        mod_stag < std_stag,
        "modified automaton should reduce the Stag misprediction rate ({mod_stag} vs {std_stag})"
    );
    // ... at a small accuracy cost.
    assert!((probabilistic.mpki() - standard.mpki()).abs() < 1.0);
}

#[test]
fn adaptive_controller_keeps_high_confidence_near_its_target_on_a_hard_trace() {
    let trace = suites::cbp1_like()
        .trace("SERV-1")
        .unwrap()
        .generate(120_000);
    let config = modified(TageGeometry::small());
    let fixed = run_trace(&config, &trace, &RunOptions::default());
    let adaptive = run_trace(&config, &trace, &RunOptions::adaptive());
    let fixed_high = fixed.report.level_mprate_mkp(ConfidenceLevel::High);
    let adaptive_high = adaptive.report.level_mprate_mkp(ConfidenceLevel::High);
    // On a hard trace the controller should tighten the probability and
    // reduce the high-confidence misprediction rate relative to fixed 1/128.
    assert!(
        adaptive_high <= fixed_high,
        "adaptive {adaptive_high} MKP should not exceed fixed {fixed_high} MKP"
    );
    assert!(adaptive.final_saturation_probability <= 1.0 / 128.0 + 1e-12);
}

#[test]
fn warmup_option_only_removes_the_prefix() {
    let trace = suites::cbp2_like()
        .trace("254.gap")
        .unwrap()
        .generate(30_000);
    let config = modified(TageGeometry::medium());
    let full = run_trace(&config, &trace, &RunOptions::default());
    let skipped = run_trace(
        &config,
        &trace,
        &RunOptions {
            warmup_branches: 10_000,
            ..RunOptions::default()
        },
    );
    assert_eq!(skipped.report.total().predictions, 20_000);
    // The steady-state region must not be less accurate than the full run
    // (warming mispredictions are concentrated in the prefix).
    assert!(skipped.mkp() <= full.mkp() + 5.0);
}
