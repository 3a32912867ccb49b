//! Scenario-observer parity contract.
//!
//! The scenario suite (recovery energy, shared-predictor interference,
//! prefetch throttling) rides the same streaming stack as every other
//! experiment, so it inherits the same pins:
//!
//! * every scenario observer accumulates **bit-identical** state whether
//!   the run is materialized (`run(&Trace)`), slice-streamed, file-streamed
//!   (through the binary writer round-trip) or generator-streamed;
//! * the recovery-energy and prefetch-throttle metrics that cells derive
//!   from their report equal those per-branch observers bit for bit on
//!   each of those paths;
//! * the shared-predictor interleaved pass is source-kind independent, and
//!   at N = 1 it degenerates to the private sequential run exactly;
//! * `run_point` scenario cells are deterministic and identical across
//!   synthetic and file-backed suites.

use std::path::PathBuf;

use tage_confidence_suite::confidence::estimators::EstimatorSpec;
use tage_confidence_suite::confidence::scheme::ConfidenceScheme;
use tage_confidence_suite::confidence::TageConfidenceClassifier;
use tage_confidence_suite::sim::engine::{ReportObserver, SimEngine};
use tage_confidence_suite::sim::point::{run_point, PredictorSpec, SchemeSpec, SweepPoint};
use tage_confidence_suite::sim::scenarios::energy::{
    self, RecoveryEnergyModel, RecoveryEnergyObserver,
};
use tage_confidence_suite::sim::scenarios::interference::run_shared_predictor;
use tage_confidence_suite::sim::scenarios::prefetch::{
    self, PrefetchModel, PrefetchObserver, PrefetchPolicy,
};
use tage_confidence_suite::sim::scenarios::ScenarioSpec;
use tage_confidence_suite::sim::{EngineKind, RunOptions};
use tage_confidence_suite::tage::{CounterAutomaton, TageGeometry, TagePrediction, TagePredictor};
use tage_confidence_suite::traces::source::{
    BinaryFileSource, SliceSource, SourceSuite, SyntheticSource,
};
use tage_confidence_suite::traces::writer::TraceWriter;
use tage_confidence_suite::traces::{suites, TraceSpec};

fn spec(name: &str) -> TraceSpec {
    suites::cbp1_like()
        .trace(name)
        .expect("trace exists")
        .clone()
}

fn config() -> TageGeometry {
    TageGeometry::small().with_automaton(CounterAutomaton::paper_default())
}

fn engine() -> SimEngine<TagePredictor, TageConfidenceClassifier> {
    let config = config();
    SimEngine::new(
        TagePredictor::new(config.clone()),
        TageConfidenceClassifier::new(&config),
    )
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tage-scenario-parity-{}-{tag}.trace",
        std::process::id()
    ))
}

/// Runs `observer` over the four ingestion paths and asserts its
/// accumulated state is identical on each. `tag` names the file-streamed
/// path's temp file, so concurrently running callers never share one.
fn assert_observer_parity<O>(tag: &str, make: impl Fn() -> O)
where
    O: PartialEq + std::fmt::Debug,
    O: for<'p> tage_confidence_suite::sim::EngineObserver<TagePredictor>,
{
    let spec = spec("MM-5");
    let branches = 6_000;
    let trace = spec.generate(branches);

    let mut reference = make();
    engine().run(&trace, &mut reference);

    let mut slice = make();
    engine()
        .run_source(&mut SliceSource::from_trace(&trace), &mut slice)
        .unwrap();
    assert_eq!(slice, reference, "slice-streamed");

    let mut synthetic = make();
    engine()
        .run_source(
            &mut SyntheticSource::from_spec(&spec, branches),
            &mut synthetic,
        )
        .unwrap();
    assert_eq!(synthetic, reference, "generator-streamed");

    let path = temp_path(tag);
    std::fs::write(&path, TraceWriter::to_binary_bytes(&trace)).unwrap();
    let mut file = make();
    engine()
        .run_source(&mut BinaryFileSource::open(&path).unwrap(), &mut file)
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(file, reference, "file-streamed");
}

#[test]
fn recovery_energy_observer_is_bit_identical_across_ingestion_paths() {
    assert_observer_parity("observer-energy", RecoveryEnergyObserver::default);
}

#[test]
fn prefetch_observer_is_bit_identical_across_ingestion_paths() {
    assert_observer_parity("observer-prefetch", || {
        PrefetchObserver::new(
            PrefetchPolicy::throttle_low_medium(),
            PrefetchModel::default(),
        )
    });
}

/// Asserts that `derived` names the same metrics as `oracle`, in the same
/// order, with the same bits.
fn assert_same_bits(derived: &[(String, f64)], oracle: &[(&str, f64)], context: &str) {
    let names: Vec<&str> = derived.iter().map(|(name, _)| name.as_str()).collect();
    let oracle_names: Vec<&str> = oracle.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, oracle_names, "{context}");
    for ((name, value), (_, expected)) in derived.iter().zip(oracle) {
        assert_eq!(
            value.to_bits(),
            expected.to_bits(),
            "{context}: {name} derived {value} vs observed {expected}"
        );
    }
}

/// The recovery-energy and prefetch-throttle metrics a cell derives from
/// its report equal the per-branch observers' accumulators bit for bit:
/// on each ingestion path, for the storage-free classifier and a
/// storage-based estimator, measured from the first branch and after a
/// 1,000-branch warm-up, and for two prefetch policies.
#[test]
fn derived_scenario_metrics_equal_the_per_branch_observers_bit_for_bit() {
    let spec = spec("MM-5");
    let branches = 6_000;
    let trace = spec.generate(branches);
    let path = temp_path("derived");
    std::fs::write(&path, TraceWriter::to_binary_bytes(&trace)).unwrap();
    let config = config();
    let policies = [
        PrefetchPolicy::throttle_low(),
        PrefetchPolicy::throttle_low_medium(),
    ];
    for scheme in ["storage-free", "jrs-enhanced"] {
        for warmup in [0, 1_000] {
            for ingestion in ["materialized", "slice", "generator", "file"] {
                let context = format!("{scheme}, warm-up {warmup}, {ingestion}");
                let grader: Box<dyn ConfidenceScheme<TagePrediction> + Send> = match scheme {
                    "storage-free" => Box::new(TageConfidenceClassifier::new(&config)),
                    token => EstimatorSpec::parse(token).unwrap().build(2),
                };
                let mut engine =
                    SimEngine::new(TagePredictor::new(config.clone()), grader).with_warmup(warmup);
                let mut observers = (
                    ReportObserver::default(),
                    RecoveryEnergyObserver::default(),
                    PrefetchObserver::new(policies[0], PrefetchModel::default()),
                    PrefetchObserver::new(policies[1], PrefetchModel::default()),
                );
                let summary = match ingestion {
                    "materialized" => engine.run(&trace, &mut observers),
                    "slice" => engine
                        .run_source(&mut SliceSource::from_trace(&trace), &mut observers)
                        .unwrap(),
                    "generator" => engine
                        .run_source(
                            &mut SyntheticSource::from_spec(&spec, branches),
                            &mut observers,
                        )
                        .unwrap(),
                    _ => engine
                        .run_source(&mut BinaryFileSource::open(&path).unwrap(), &mut observers)
                        .unwrap(),
                };
                let (report, energy_observer, low, low_medium) = observers;
                let report = report.report;
                assert_eq!(
                    report.total().predictions,
                    branches as u64 - warmup,
                    "{context}"
                );
                assert_eq!(summary.measured_branches, report.total().predictions);
                assert!(energy_observer.checkpoints > 0, "{context}");

                assert_same_bits(
                    &energy::metrics(&report, &RecoveryEnergyModel::default()),
                    &[
                        ("baseline_epki_nj", energy_observer.baseline_epki()),
                        ("confidence_epki_nj", energy_observer.confidence_epki()),
                        ("savings_pct", energy_observer.savings_pct()),
                        ("checkpoints", energy_observer.checkpoints as f64),
                    ],
                    &context,
                );
                for (policy, observer) in policies.iter().zip([low, low_medium]) {
                    assert!(observer.coverage_lost > 0.0, "{context}, {policy:?}");
                    assert_same_bits(
                        &prefetch::metrics(&report, policy, &PrefetchModel::default()),
                        &[
                            ("useless_avoided_pki", observer.useless_avoided_pki()),
                            ("coverage_lost_pki", observer.coverage_lost_pki()),
                            ("useless_issued_pki", observer.useless_issued_pki()),
                            ("useful_issued_pki", observer.useful_issued_pki()),
                        ],
                        &format!("{context}, {policy:?}"),
                    );
                }
            }
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// The shared-predictor interleaved pass produces identical per-core
/// counters over generator streams, in-memory slices and binary files.
#[test]
fn shared_predictor_pass_is_source_kind_independent() {
    let names = ["FP-1", "SERV-2", "MM-5"];
    let branches = 4_000;

    let mut synthetic_engine = engine();
    let synthetic = run_shared_predictor(
        &mut synthetic_engine,
        names
            .iter()
            .map(|n| SyntheticSource::from_spec(&spec(n), branches))
            .collect(),
    )
    .unwrap();

    let traces: Vec<_> = names.iter().map(|n| spec(n).generate(branches)).collect();
    let mut slice_engine = engine();
    let sliced = run_shared_predictor(
        &mut slice_engine,
        traces.iter().map(SliceSource::from_trace).collect(),
    )
    .unwrap();
    assert_eq!(sliced, synthetic);

    let paths: Vec<PathBuf> = traces
        .iter()
        .enumerate()
        .map(|(i, trace)| {
            let path = temp_path(&format!("shared-{i}"));
            std::fs::write(&path, TraceWriter::to_binary_bytes(trace)).unwrap();
            path
        })
        .collect();
    let mut file_engine = engine();
    let filed = run_shared_predictor(
        &mut file_engine,
        paths
            .iter()
            .map(|p| BinaryFileSource::open(p).unwrap())
            .collect(),
    )
    .unwrap();
    for path in &paths {
        std::fs::remove_file(path).unwrap();
    }
    assert_eq!(filed, synthetic);
}

/// One lane through the shared engine is exactly the private sequential
/// run: same branches, mispredictions and instruction totals.
#[test]
fn single_lane_shared_pass_degenerates_to_the_sequential_run() {
    let branches = 5_000;
    let mut shared_engine = engine();
    let shared = run_shared_predictor(
        &mut shared_engine,
        vec![SyntheticSource::from_spec(&spec("INT-1"), branches)],
    )
    .unwrap();

    let mut private_engine = engine();
    let summary = private_engine
        .run_source(
            &mut SyntheticSource::from_spec(&spec("INT-1"), branches),
            &mut (),
        )
        .unwrap();
    assert_eq!(shared.cores[0].branches, summary.measured_branches);
    assert_eq!(
        shared.cores[0].mispredictions,
        summary.measured_mispredictions
    );
    assert_eq!(shared.cores[0].instructions, summary.measured_instructions);
}

/// Scenario sweep-point cells are deterministic, and file-backed suites
/// reproduce the synthetic counters and metrics (modulo the suite label).
#[test]
fn scenario_points_are_deterministic_and_file_backed_equivalent() {
    let mini = suites::cbp1_mini();
    let branches = 2_000;

    let dir = std::env::temp_dir().join(format!("tage-scenario-files-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for spec in mini.traces() {
        std::fs::write(
            dir.join(format!("{}.trace", spec.name())),
            TraceWriter::to_binary_bytes(&spec.generate(branches)),
        )
        .unwrap();
    }
    let file_suite = SourceSuite::from_dir(&dir).unwrap();

    for scenario in [
        ScenarioSpec::RecoveryEnergy,
        ScenarioSpec::SharedPredictor,
        ScenarioSpec::PrefetchThrottle,
    ] {
        let synthetic_point = SweepPoint::over_suite(
            PredictorSpec::parse("tage-16k").unwrap(),
            SchemeSpec::parse("storage-free").unwrap(),
            &mini,
        )
        .with_scenario(scenario);
        let first = run_point(
            &synthetic_point,
            branches,
            &RunOptions::default(),
            EngineKind::Scalar,
            None,
        )
        .unwrap();
        let second = run_point(
            &synthetic_point,
            branches,
            &RunOptions::default(),
            EngineKind::Scalar,
            None,
        )
        .unwrap();
        assert_eq!(first, second, "{scenario}: deterministic");
        assert!(!first.scenario_metrics.is_empty(), "{scenario}");

        let file_point = SweepPoint {
            predictor: PredictorSpec::parse("tage-16k").unwrap(),
            scheme: SchemeSpec::parse("storage-free").unwrap(),
            suite: file_suite.clone(),
            scenario,
        };
        let filed = run_point(
            &file_point,
            branches,
            &RunOptions::default(),
            EngineKind::Scalar,
            None,
        )
        .unwrap();
        let mut synthetic_traces = first.traces.clone();
        synthetic_traces.sort_by(|a, b| a.trace_name.cmp(&b.trace_name));
        let mut file_traces = filed.traces.clone();
        file_traces.sort_by(|a, b| a.trace_name.cmp(&b.trace_name));
        assert_eq!(file_traces, synthetic_traces, "{scenario}: counters");
        assert_eq!(filed.aggregate, first.aggregate, "{scenario}: aggregate");
        // Observer-scenario metrics are insensitive to suite order; the
        // shared-predictor interleaving depends on core order, which the
        // directory scan happens to preserve for the mini suite only if the
        // file names sort like the registry — compare only when they do.
        let same_order = filed
            .traces
            .iter()
            .map(|t| &t.trace_name)
            .eq(first.traces.iter().map(|t| &t.trace_name));
        if scenario != ScenarioSpec::SharedPredictor || same_order {
            assert_eq!(
                filed.scenario_metrics, first.scenario_metrics,
                "{scenario}: metrics"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
