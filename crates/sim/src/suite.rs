//! Running whole workload suites and aggregating the results.
//!
//! Suite runs are sharded per source across scoped threads
//! ([`crate::engine::steal_map`]): every worker opens its own stream from the
//! suite's [`SourceSpec`](tage_traces::source::SourceSpec)s — an on-the-fly
//! synthetic generator, or a bounded-memory binary file reader — and drives
//! it through the engine with a cold predictor. No trace is ever
//! materialized: the classic [`run_suite`] over a synthetic [`Suite`] is
//! itself a thin adapter that streams each trace instead of calling
//! `generate`. Per-source reports are
//! merged into the aggregate in suite order as they stream back, so the
//! parallel result is **bit-identical** to a serial run — wall-clock drops
//! from `sum(traces)` to roughly `max(trace)`. For parallelism *within* one
//! very long source, see [`crate::segment`].

use core::fmt;
use std::ops::Range;

use tage::TageBlueprint;
use tage_confidence::ConfidenceReport;
use tage_traces::format::FormatError;
use tage_traces::source::{AnySource, BranchSource, SourceSuite};
use tage_traces::Suite;

use crate::engine::{default_parallelism, steal_map};
use crate::multilane::{run_specs_multilane, MultilaneEngine, DEFAULT_LANES};
use crate::runner::{RunOptions, TraceRunResult};

/// The outcome of running one predictor configuration over every trace of a
/// suite.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteRunResult {
    /// Name of the suite (`"CBP-1-like"`, `"CBP-2-like"`).
    pub suite_name: String,
    /// Name of the predictor configuration.
    pub config_name: String,
    /// Per-trace results, in suite order.
    pub traces: Vec<TraceRunResult>,
    /// Aggregate report over all traces of the suite.
    pub aggregate: ConfidenceReport,
}

impl SuiteRunResult {
    /// Arithmetic mean of the per-trace MPKI values (the paper reports
    /// per-trace bars and per-suite averages).
    pub fn mean_mpki(&self) -> f64 {
        if self.traces.is_empty() {
            return 0.0;
        }
        self.traces.iter().map(TraceRunResult::mpki).sum::<f64>() / self.traces.len() as f64
    }

    /// Aggregate misprediction rate in MKP over all predictions of the
    /// suite.
    pub fn aggregate_mkp(&self) -> f64 {
        self.aggregate.mkp()
    }

    /// Looks up the result of one trace by name.
    pub fn trace(&self, name: &str) -> Option<&TraceRunResult> {
        self.traces.iter().find(|t| t.trace_name == name)
    }
}

impl fmt::Display for SuiteRunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: mean {:.2} MPKI, aggregate {:.1} MKP over {} traces",
            self.config_name,
            self.suite_name,
            self.mean_mpki(),
            self.aggregate_mkp(),
            self.traces.len()
        )
    }
}

/// Runs the predictor described by `blueprint` — a [`tage::TageGeometry`]
/// or a reference to one — over every trace of
/// `suite`, generating `branches_per_trace` conditional branches per trace,
/// sharded across one worker per available hardware thread.
pub fn run_suite(
    blueprint: &dyn TageBlueprint,
    suite: &Suite,
    branches_per_trace: usize,
    options: &RunOptions,
) -> SuiteRunResult {
    run_suite_with_parallelism(
        blueprint,
        suite,
        branches_per_trace,
        options,
        default_parallelism(),
    )
}

/// [`run_suite`] with an explicit worker count.
///
/// `workers == 1` runs the traces serially on the calling thread; any worker
/// count produces the same, bit-identical result (per-trace runs are
/// independent and deterministic, and aggregation happens in suite order).
///
/// Each worker streams its trace through a
/// [`tage_traces::source::SyntheticSource`] instead of materializing it, so
/// suite memory is bounded by `workers ×` the engine batch size.
pub fn run_suite_with_parallelism(
    blueprint: &dyn TageBlueprint,
    suite: &Suite,
    branches_per_trace: usize,
    options: &RunOptions,
    workers: usize,
) -> SuiteRunResult {
    run_suite_sources(
        blueprint,
        &SourceSuite::from_suite(suite),
        branches_per_trace,
        options,
        workers,
    )
    .expect("synthetic sources are infallible")
}

/// Runs `config` over every source of a streaming [`SourceSuite`] — the
/// out-of-core generalization of [`run_suite`]: sources may be synthetic
/// generators or on-disk binary traces, and every worker opens its own
/// independent stream.
///
/// `conditional_branches` sizes synthetic sources; file-backed sources yield
/// whatever their file holds.
///
/// # Errors
///
/// Returns the first [`FormatError`] in suite order when a source cannot be
/// opened or read (the remaining sources still execute, their results are
/// discarded).
pub fn run_suite_sources(
    blueprint: &dyn TageBlueprint,
    suite: &SourceSuite,
    conditional_branches: usize,
    options: &RunOptions,
    workers: usize,
) -> Result<SuiteRunResult, FormatError> {
    let geometry = blueprint.tage_geometry();
    let specs = suite.sources();
    // Sources shard across workers in contiguous chunks; each worker
    // lane-batches its chunk through one multilane engine (adaptive runs,
    // which steer one predictor mid-run, go scalar source by source inside
    // the chunk). Both levels are bit-identical to a serial scalar run, so
    // any worker count (and any lane count) produces the same result.
    let chunks = chunk_ranges(specs.len(), workers);
    let (outcomes, _) = steal_map(&chunks, workers, |range: &Range<usize>| {
        run_specs_multilane(
            &geometry,
            &specs[range.clone()],
            conditional_branches,
            options,
            DEFAULT_LANES,
        )
    });
    let mut traces = Vec::with_capacity(specs.len());
    for outcome in outcomes {
        traces.extend(outcome?);
    }
    let mut aggregate = ConfidenceReport::new();
    for result in &traces {
        aggregate.merge(&result.report);
    }
    Ok(SuiteRunResult {
        suite_name: suite.name().to_string(),
        config_name: geometry.name(),
        traces,
        aggregate,
    })
}

/// Splits `len` items into at most `workers` contiguous, balanced ranges —
/// the per-worker shards of a multilane suite run. Chunk order equals suite
/// order, so flattening per-chunk results preserves per-source order.
fn chunk_ranges(len: usize, workers: usize) -> Vec<Range<usize>> {
    let chunks = workers.max(1).min(len);
    if chunks == 0 {
        return Vec::new();
    }
    let mut ranges = Vec::with_capacity(chunks);
    let base = len / chunks;
    let extra = len % chunks;
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// A reusable, allocation-free suite runner: sources opened once, one
/// persistent [`MultilaneEngine`], and a [`SuiteRunResult`] whose buffers
/// are refilled in place on every [`SuiteScratch::run`].
///
/// After the first run, a rerun performs **zero heap allocations**: sources
/// rewind in place, lane predictors reset in place, and the per-trace
/// results reuse their string capacity. The throughput bin's
/// `suite_parallel` measurement gates on exactly this.
#[derive(Debug)]
pub struct SuiteScratch {
    engine: MultilaneEngine,
    sources: Vec<AnySource>,
    result: SuiteRunResult,
}

impl SuiteScratch {
    /// Opens every source of `suite` and prepares the persistent engine and
    /// result buffers, running `lanes` streams in lockstep.
    ///
    /// # Errors
    ///
    /// Returns the first [`FormatError`] opening any source.
    pub fn new(
        blueprint: &dyn TageBlueprint,
        suite: &SourceSuite,
        conditional_branches: usize,
        options: &RunOptions,
        lanes: usize,
    ) -> Result<Self, FormatError> {
        let geometry = blueprint.tage_geometry();
        let mut sources = Vec::with_capacity(suite.sources().len());
        for spec in suite.sources() {
            sources.push(spec.open(conditional_branches)?);
        }
        let traces = (0..sources.len())
            .map(|_| MultilaneEngine::placeholder_result())
            .collect();
        Ok(SuiteScratch {
            result: SuiteRunResult {
                suite_name: suite.name().to_string(),
                config_name: geometry.name(),
                traces,
                aggregate: ConfidenceReport::new(),
            },
            engine: MultilaneEngine::new(geometry, options, lanes),
            sources,
        })
    }

    /// Rewinds every source and reruns the whole suite, refilling the
    /// retained result in place — bit-identical to [`run_suite_sources`]
    /// with any worker count, and allocation-free after the first run.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed [`FormatError`] any source reported while
    /// rewinding or streaming.
    pub fn run(&mut self) -> Result<&SuiteRunResult, FormatError> {
        for source in &mut self.sources {
            source.reset()?;
        }
        self.engine
            .run_into(&mut self.sources, &mut self.result.traces)?;
        self.result.aggregate = ConfidenceReport::new();
        for trace in &self.result.traces {
            self.result.aggregate.merge(&trace.report);
        }
        Ok(&self.result)
    }

    /// The result of the most recent [`SuiteScratch::run`].
    pub fn result(&self) -> &SuiteRunResult {
        &self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage::TageGeometry;
    use tage_traces::suites;

    fn tiny_suite() -> Suite {
        let full = suites::cbp1_like();
        Suite::new(
            "tiny",
            vec![
                full.trace("FP-1").unwrap().clone(),
                full.trace("SERV-2").unwrap().clone(),
            ],
        )
    }

    #[test]
    fn suite_run_covers_every_trace_and_aggregates() {
        let result = run_suite(
            &TageGeometry::small(),
            &tiny_suite(),
            2_000,
            &RunOptions::default(),
        );
        assert_eq!(result.traces.len(), 2);
        assert_eq!(result.aggregate.total().predictions, 4_000);
        assert!(result.mean_mpki() > 0.0);
        assert!(result.aggregate_mkp() > 0.0);
        assert!(result.trace("FP-1").is_some());
        assert!(result.trace("does-not-exist").is_none());
    }

    #[test]
    fn parallel_suite_runs_are_bit_identical_to_serial() {
        let suite = tiny_suite();
        let config = TageGeometry::small();
        let serial = run_suite_with_parallelism(&config, &suite, 3_000, &RunOptions::default(), 1);
        for workers in [2, 4, 16] {
            let parallel =
                run_suite_with_parallelism(&config, &suite, 3_000, &RunOptions::default(), workers);
            assert_eq!(serial, parallel, "workers = {workers}");
        }
        let default = run_suite(&config, &suite, 3_000, &RunOptions::default());
        assert_eq!(serial, default);
    }

    #[test]
    fn file_backed_suite_matches_the_synthetic_path_bit_for_bit() {
        use tage_traces::writer::TraceWriter;
        let suite = tiny_suite();
        let config = TageGeometry::small();
        let reference = run_suite(&config, &suite, 2_000, &RunOptions::default());

        let dir = std::env::temp_dir().join(format!("tage-suite-files-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        for spec in suite.traces() {
            let path = dir.join(format!("{}.trace", spec.name()));
            std::fs::write(&path, TraceWriter::to_binary_bytes(&spec.generate(2_000))).unwrap();
            paths.push(path);
        }
        let files = SourceSuite::from_files("tiny", paths);
        for workers in [1, 4] {
            let streamed =
                run_suite_sources(&config, &files, 2_000, &RunOptions::default(), workers).unwrap();
            assert_eq!(streamed.traces.len(), reference.traces.len());
            for (ours, theirs) in streamed.traces.iter().zip(&reference.traces) {
                assert_eq!(ours, theirs, "workers = {workers}");
            }
            assert_eq!(streamed.aggregate, reference.aggregate);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fp_trace_is_more_predictable_than_server_trace() {
        let result = run_suite(
            &TageGeometry::small(),
            &tiny_suite(),
            20_000,
            &RunOptions::default(),
        );
        let fp = result.trace("FP-1").unwrap().mpki();
        let serv = result.trace("SERV-2").unwrap().mpki();
        assert!(serv > fp, "server {serv} MPKI should exceed FP {fp} MPKI");
    }

    #[test]
    fn chunk_ranges_cover_everything_in_order() {
        for (len, workers) in [(0, 4), (1, 4), (5, 2), (8, 3), (20, 16), (3, 1), (7, 100)] {
            let ranges = chunk_ranges(len, workers);
            assert!(
                ranges.len() <= workers.max(1),
                "len {len} workers {workers}"
            );
            let flat: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
            assert_eq!(
                flat,
                (0..len).collect::<Vec<_>>(),
                "len {len} workers {workers}"
            );
            if len > 0 {
                let sizes: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "balanced: {sizes:?}");
            }
        }
    }

    #[test]
    fn suite_scratch_reruns_are_bit_identical_and_match_the_suite_runner() {
        let suite = tiny_suite();
        let config = TageGeometry::small();
        let options = RunOptions::default();
        let reference = run_suite(&config, &suite, 2_000, &options);
        let sources = SourceSuite::from_suite(&suite);
        let mut scratch = SuiteScratch::new(&config, &sources, 2_000, &options, 2).unwrap();
        let first = scratch.run().unwrap().clone();
        assert_eq!(first, reference);
        let second = scratch.run().unwrap();
        assert_eq!(*second, reference, "reruns must be bit-identical");
        assert_eq!(*scratch.result(), reference);
    }

    #[test]
    fn adaptive_suite_runs_still_shard_and_aggregate() {
        let suite = tiny_suite();
        let config = TageGeometry::small();
        let options = RunOptions::adaptive();
        let serial = run_suite_with_parallelism(&config, &suite, 2_000, &options, 1);
        let parallel = run_suite_with_parallelism(&config, &suite, 2_000, &options, 4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.traces.len(), 2);
    }

    #[test]
    fn display_mentions_suite_and_config() {
        let result = run_suite(
            &TageGeometry::small(),
            &tiny_suite(),
            500,
            &RunOptions::default(),
        );
        let s = format!("{result}");
        assert!(s.contains("tiny"));
        assert!(s.contains("TAGE-16K"));
    }
}
