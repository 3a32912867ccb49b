//! Streaming-ingestion parity contract.
//!
//! The `BranchSource` redesign re-plumbed the whole consumption stack —
//! engine, runner, suites, sweep points — over chunked streams. These tests
//! pin the contract the redesign must honour:
//!
//! * `run(&Trace)`, `run_source(SliceSource)`, `run_source(BinaryFileSource)`
//!   (via a temp-file round-trip through the writer) and
//!   `run_source(SyntheticSource)` produce **bit-identical**
//!   `EngineSummary`s and `ConfidenceReport`s;
//! * the binary file path holds at any chunk size, including chunks far
//!   smaller than the trace;
//! * history-warmed segment sharding merges deterministically: the same
//!   segment plan produces identical results at every worker count, and a
//!   single segment without warmup degenerates to the sequential run;
//! * streamed suite runs are byte-identical to the materialized path at
//!   every tested worker count.

use std::path::PathBuf;

use tage_confidence_suite::confidence::TageConfidenceClassifier;
use tage_confidence_suite::sim::engine::{ReportObserver, SimEngine};
use tage_confidence_suite::sim::runner::{run_source, run_trace, RunOptions};
use tage_confidence_suite::sim::segment::{run_segmented_source, SegmentOptions};
use tage_confidence_suite::sim::suite::{run_suite_sources, run_suite_with_parallelism};
use tage_confidence_suite::tage::{TageGeometry, TagePredictor};
use tage_confidence_suite::traces::source::{
    BinaryFileSource, BranchSource, SliceSource, SourceSuite, SyntheticSource,
};
use tage_confidence_suite::traces::writer::{StreamingTraceWriter, TraceWriter};
use tage_confidence_suite::traces::{format, suites, TraceSpec};

fn spec(name: &str) -> TraceSpec {
    suites::cbp1_like()
        .trace(name)
        .expect("trace exists")
        .clone()
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tage-parity-{}-{tag}.trace", std::process::id()))
}

/// The core four-way parity pin: materialized, slice-streamed,
/// file-streamed and generator-streamed runs agree bit for bit on both the
/// `EngineSummary` and the `ConfidenceReport`.
#[test]
fn four_ingestion_paths_are_bit_identical() {
    let spec = spec("SERV-2");
    let branches = 8_000;
    let trace = spec.generate(branches);
    let config = TageGeometry::small();

    let engine = || {
        SimEngine::new(
            TagePredictor::new(config.clone()),
            TageConfidenceClassifier::new(&config),
        )
    };

    // 1. Materialized.
    let mut reference_report = ReportObserver::default();
    let reference_summary = engine().run(&trace, &mut reference_report);

    // 2. Zero-copy slice stream.
    let mut slice_report = ReportObserver::default();
    let slice_summary = engine()
        .run_source(&mut SliceSource::from_trace(&trace), &mut slice_report)
        .unwrap();
    assert_eq!(slice_summary, reference_summary);
    assert_eq!(slice_report.report, reference_report.report);

    // 3. Binary file stream, round-tripped through the writer.
    let path = temp_path("fourway");
    std::fs::write(&path, TraceWriter::to_binary_bytes(&trace)).unwrap();
    let mut file_report = ReportObserver::default();
    let file_summary = engine()
        .run_source(
            &mut BinaryFileSource::open(&path).unwrap(),
            &mut file_report,
        )
        .unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(file_summary, reference_summary);
    assert_eq!(file_report.report, reference_report.report);

    // 4. Generator stream (no materialized trace anywhere).
    let mut synthetic_report = ReportObserver::default();
    let synthetic_summary = engine()
        .run_source(
            &mut SyntheticSource::from_spec(&spec, branches),
            &mut synthetic_report,
        )
        .unwrap();
    assert_eq!(synthetic_summary, reference_summary);
    assert_eq!(synthetic_report.report, reference_report.report);
}

/// The same four-way pin at the runner level (`TraceRunResult` carries the
/// report plus exact counters), including through the streaming writer.
#[test]
fn runner_results_agree_across_sources_and_chunk_sizes() {
    let spec = spec("INT-2");
    let branches = 6_000;
    let trace = spec.generate(branches);
    let config = TageGeometry::small();
    let options = RunOptions::default();

    let reference = run_trace(&config, &trace, &options);
    assert_eq!(reference.conditional_branches, branches as u64);

    let streamed = run_source(
        &config,
        &mut SyntheticSource::from_spec(&spec, branches),
        &options,
    )
    .unwrap();
    assert_eq!(streamed, reference);

    // Streaming writer (unknown record count) → file source, at chunk sizes
    // straddling the trace length.
    let path = temp_path("runner");
    let mut writer =
        StreamingTraceWriter::new(std::fs::File::create(&path).unwrap(), spec.name()).unwrap();
    for record in trace.iter() {
        writer.push(record).unwrap();
    }
    writer.finish().unwrap();
    for chunk_records in [3, 1024, 1 << 20] {
        let mut source = BinaryFileSource::open_with_chunk_records(&path, chunk_records).unwrap();
        let from_file = run_source(&config, &mut source, &options).unwrap();
        assert_eq!(from_file, reference, "chunk_records = {chunk_records}");
    }
    std::fs::remove_file(&path).unwrap();
}

/// Corrupt bytes in a streamed file surface as offset-carrying errors, not
/// as silently wrong results.
#[test]
fn streamed_corruption_is_reported_with_byte_offsets() {
    let trace = spec("FP-1").generate(100);
    let path = temp_path("corrupt");
    let mut bytes = TraceWriter::to_binary_bytes(&trace);
    bytes.truncate(bytes.len() - 7);
    std::fs::write(&path, &bytes).unwrap();
    let error = run_source(
        &TageGeometry::small(),
        &mut BinaryFileSource::open(&path).unwrap(),
        &RunOptions::default(),
    )
    .unwrap_err();
    assert!(
        matches!(error, format::FormatError::TruncatedRecord { offset } if offset > 0),
        "unexpected error {error:?}"
    );
    std::fs::remove_file(&path).unwrap();
}

/// Segment-sharded execution merges deterministically: the same plan yields
/// identical merged results at ≥3 worker counts, both over generator
/// streams and over a seekable binary file, and the 1-segment plan without
/// warmup is exactly the sequential run.
#[test]
fn history_warmed_segments_merge_identically_at_every_worker_count() {
    let spec = spec("MM-5");
    let branches = 9_000;
    let config = TageGeometry::small();
    let options = RunOptions::default();
    let total = SyntheticSource::from_spec(&spec, branches)
        .skip_records(u64::MAX)
        .unwrap();

    // Degenerate plan == sequential run.
    let sequential = run_source(
        &config,
        &mut SyntheticSource::from_spec(&spec, branches),
        &options,
    )
    .unwrap();
    let degenerate = run_segmented_source(
        &config,
        &options,
        &SegmentOptions::new(1, 0),
        total,
        3,
        None,
        || Ok(SyntheticSource::from_spec(&spec, branches)),
    )
    .unwrap();
    assert_eq!(degenerate.result, sequential);

    // Real plan: identical across worker counts, over both source kinds.
    let segment_options = SegmentOptions::new(6, 768);
    let synthetic_reference =
        run_segmented_source(&config, &options, &segment_options, total, 1, None, || {
            Ok(SyntheticSource::from_spec(&spec, branches))
        })
        .unwrap();
    assert_eq!(
        synthetic_reference.segment_branches.iter().sum::<u64>(),
        branches as u64,
        "segments cover every conditional branch exactly once"
    );
    for workers in [2, 3, 4, 8] {
        let sharded = run_segmented_source(
            &config,
            &options,
            &segment_options,
            total,
            workers,
            None,
            || Ok(SyntheticSource::from_spec(&spec, branches)),
        )
        .unwrap();
        assert_eq!(sharded, synthetic_reference, "workers = {workers}");
    }

    let path = temp_path("segments");
    std::fs::write(
        &path,
        TraceWriter::to_binary_bytes(&spec.generate(branches)),
    )
    .unwrap();
    for workers in [1, 3, 5] {
        let from_file = run_segmented_source(
            &config,
            &options,
            &segment_options,
            total,
            workers,
            None,
            || BinaryFileSource::open_with_chunk_records(&path, 512),
        )
        .unwrap();
        assert_eq!(from_file, synthetic_reference, "file workers = {workers}");
    }
    std::fs::remove_file(&path).unwrap();
}

/// Suite runs over streaming sources are byte-identical to the materialized
/// suite path at every tested worker count.
#[test]
fn streamed_suite_runs_match_the_materialized_path_at_every_worker_count() {
    let full = suites::cbp1_like();
    let suite = tage_confidence_suite::traces::Suite::new(
        "parity",
        vec![
            full.trace("FP-1").unwrap().clone(),
            full.trace("SERV-2").unwrap().clone(),
            full.trace("MM-5").unwrap().clone(),
        ],
    );
    let config = TageGeometry::small();
    let options = RunOptions::default();
    let reference = run_suite_with_parallelism(&config, &suite, 2_000, &options, 1);
    for workers in [1, 2, 3, 8] {
        let streamed = run_suite_sources(
            &config,
            &SourceSuite::from_suite(&suite),
            2_000,
            &options,
            workers,
        )
        .unwrap();
        assert_eq!(streamed, reference, "workers = {workers}");
        let materialized = run_suite_with_parallelism(&config, &suite, 2_000, &options, workers);
        assert_eq!(materialized, reference, "materialized workers = {workers}");
    }
}
