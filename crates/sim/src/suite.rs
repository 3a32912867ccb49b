//! Whole-suite runs through one persistent lane-batched engine.
//!
//! [`SuiteScratch`] opens every source of a [`SourceSuite`] once and reruns
//! the whole suite through one [`MultilaneEngine`], refilling its result in
//! place: after the first run a rerun allocates nothing, which the
//! `suite_parallel` allocation gate checks. Suites that feed reports run as
//! [`crate::point::run_point`] cells instead.

use tage::TageBlueprint;
use tage_confidence::ConfidenceReport;
use tage_traces::format::FormatError;
use tage_traces::source::{AnySource, BranchSource, SourceSuite};

use crate::multilane::MultilaneEngine;
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
    /// retained result in place — bit-identical to
    /// [`crate::multilane::run_specs_multilane`] over the same sources, and
    /// allocation-free after the first run.
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
    use tage_traces::{suites, Suite};

    use crate::multilane::run_specs_multilane;

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

    fn scratch_run(suite: &SourceSuite, branches: usize) -> SuiteRunResult {
        let options = RunOptions::default();
        let mut scratch =
            SuiteScratch::new(&TageGeometry::small(), suite, branches, &options, 2).unwrap();
        scratch.run().unwrap().clone()
    }

    #[test]
    fn suite_run_covers_every_trace_and_aggregates() {
        let result = scratch_run(&SourceSuite::from_suite(&tiny_suite()), 2_000);
        assert_eq!(result.suite_name, "tiny");
        assert_eq!(result.config_name, "TAGE-16K");
        let names: Vec<&str> = result
            .traces
            .iter()
            .map(|t| t.trace_name.as_str())
            .collect();
        assert_eq!(names, ["FP-1", "SERV-2"]);
        assert_eq!(result.aggregate.total().predictions, 4_000);
        assert!(result.aggregate.mkp() > 0.0);
    }

    #[test]
    fn file_backed_suite_matches_the_synthetic_path_bit_for_bit() {
        use tage_traces::writer::TraceWriter;
        let suite = tiny_suite();
        let reference = scratch_run(&SourceSuite::from_suite(&suite), 2_000);

        let dir = std::env::temp_dir().join(format!("tage-suite-files-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        for spec in suite.traces() {
            let path = dir.join(format!("{}.trace", spec.name()));
            std::fs::write(&path, TraceWriter::to_binary_bytes(&spec.generate(2_000))).unwrap();
            paths.push(path);
        }
        let streamed = scratch_run(&SourceSuite::from_files("tiny", paths), 2_000);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(streamed.traces, reference.traces);
        assert_eq!(streamed.aggregate, reference.aggregate);
    }

    #[test]
    fn fp_trace_is_more_predictable_than_server_trace() {
        let result = scratch_run(&SourceSuite::from_suite(&tiny_suite()), 20_000);
        let (fp, serv) = (result.traces[0].mpki(), result.traces[1].mpki());
        assert!(serv > fp, "server {serv} MPKI should exceed FP {fp} MPKI");
    }

    #[test]
    fn suite_scratch_reruns_are_bit_identical_and_match_the_suite_runner() {
        let config = TageGeometry::small();
        let options = RunOptions::default();
        let sources = SourceSuite::from_suite(&tiny_suite());
        let reference =
            run_specs_multilane(&config, sources.sources(), 2_000, &options, 16).unwrap();
        let mut scratch = SuiteScratch::new(&config, &sources, 2_000, &options, 2).unwrap();
        let first = scratch.run().unwrap().clone();
        assert_eq!(first.traces, reference);
        let mut aggregate = ConfidenceReport::new();
        for trace in &reference {
            aggregate.merge(&trace.report);
        }
        assert_eq!(first.aggregate, aggregate);
        let second = scratch.run().unwrap();
        assert_eq!(*second, first, "reruns must be bit-identical");
        assert_eq!(*scratch.result(), first);
    }
}
