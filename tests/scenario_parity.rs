//! Scenario-observer parity contract.
//!
//! The scenario suite (recovery energy, shared-predictor interference,
//! prefetch throttling) rides the same streaming stack as every other
//! experiment, so it inherits the same pins:
//!
//! * every scenario observer accumulates **bit-identical** state whether
//!   the run is materialized (`run(&Trace)`), slice-streamed, file-streamed
//!   (through the binary writer round-trip) or generator-streamed;
//! * the shared-predictor interleaved pass is source-kind independent, and
//!   at N = 1 it degenerates to the private sequential run exactly;
//! * `run_point` scenario cells are deterministic and identical across
//!   synthetic and file-backed suites.

use std::path::PathBuf;

use tage_confidence_suite::confidence::TageConfidenceClassifier;
use tage_confidence_suite::sim::engine::SimEngine;
use tage_confidence_suite::sim::point::{run_point, PredictorSpec, SchemeSpec, SweepPoint};
use tage_confidence_suite::sim::scenarios::energy::RecoveryEnergyObserver;
use tage_confidence_suite::sim::scenarios::interference::run_shared_predictor;
use tage_confidence_suite::sim::scenarios::prefetch::{
    PrefetchModel, PrefetchObserver, PrefetchPolicy,
};
use tage_confidence_suite::sim::scenarios::ScenarioSpec;
use tage_confidence_suite::sim::{EngineKind, RunOptions};
use tage_confidence_suite::tage::{CounterAutomaton, TageGeometry, TagePredictor};
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
