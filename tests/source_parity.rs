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
//! * phase-sampled runs skip mid-stream through a chunked file exactly as
//!   through the generator, with or without warm-cache restores.

use std::path::PathBuf;

use tage_confidence_suite::confidence::TageConfidenceClassifier;
use tage_confidence_suite::sim::engine::{ReportObserver, SimEngine};
use tage_confidence_suite::sim::phase::run_sampled_source;
use tage_confidence_suite::sim::runner::{run_source, run_trace, RunOptions};
use tage_confidence_suite::sim::warmcache::WarmCache;
use tage_confidence_suite::tage::{TageGeometry, TagePredictor};
use tage_confidence_suite::traces::source::{
    BinaryFileSource, SamplingSpec, SliceSource, SourceSpec, SyntheticSource,
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

/// Sampled runs skip mid-stream through a chunked file exactly as through
/// the generator: the same plan measures the same slices whether its gaps
/// are replayed uncached, replayed into a cold cache, or restored from a
/// warm one and skipped, with chunks smaller than the sampling interval.
#[test]
fn sampled_runs_over_chunked_files_match_the_synthetic_source() {
    let spec = spec("MM-5");
    let branches = 9_000;
    let config = TageGeometry::small();
    let options = RunOptions::default();
    let sampling = SamplingSpec {
        interval: 500,
        k: 4,
        seed: 1,
    };
    let reference = run_sampled_source(&config, &options, sampling, None, || {
        Ok(SyntheticSource::from_spec(&spec, branches))
    })
    .unwrap();

    let path = temp_path("sampled");
    std::fs::write(
        &path,
        TraceWriter::to_binary_bytes(&spec.generate(branches)),
    )
    .unwrap();
    let dir = std::env::temp_dir().join(format!("tage-parity-{}-warm", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = WarmCache::new(&dir).unwrap();
    let warm = Some((
        &cache,
        SourceSpec::BinaryFile(path.clone()).digest(branches),
    ));
    let open = || BinaryFileSource::open_with_chunk_records(&path, 512);
    let uncached = run_sampled_source(&config, &options, sampling, None, open).unwrap();
    let cold = run_sampled_source(&config, &options, sampling, warm, open).unwrap();
    let restored = run_sampled_source(&config, &options, sampling, warm, open).unwrap();
    assert_eq!(restored.replayed_records, 0, "every gap is skipped");
    for (run, label) in [(uncached, "uncached"), (cold, "cold"), (restored, "warm")] {
        assert_eq!(run.result, reference.result, "{label}");
        assert_eq!(run.plan, reference.plan, "{label}");
        assert_eq!(
            run.measured_branches, reference.measured_branches,
            "{label}"
        );
    }
    std::fs::remove_file(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
