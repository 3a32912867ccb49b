//! History-warmed segment sharding: parallelism *within* one long source.
//!
//! Per-source sharding ([`crate::suite`]) caps a suite's wall-clock at the
//! longest single trace; a multi-gigabyte streamed trace still runs on one
//! worker. This module splits one [`BranchSource`] into `N` contiguous
//! segments and runs them concurrently: every segment opens its own fresh
//! stream, seeks to `start − warmup`, silently **replays a warmup prefix**
//! (the predictor and the confidence scheme train on it, statistics stay
//! suppressed) so the tagged tables and the global history resemble the
//! state a sequential run would have reached, then measures its own record
//! range. Per-segment reports merge **deterministically in segment order**,
//! so the merged result is byte-identical at every worker count — the
//! segment plan depends only on the source length and the requested segment
//! count, never on scheduling.
//!
//! Segmented execution is an *approximation* of the sequential run (each
//! segment starts from a cold predictor plus a bounded warm-up rather than
//! the full prefix); the warmup length trades accuracy against redundant
//! replay work. With one segment and no warmup it degenerates to exactly
//! [`crate::runner::run_source`].

use tage::{TageBlueprint, TageGeometry, TagePredictor};
use tage_confidence::ConfidenceReport;
use tage_traces::format::FormatError;
use tage_traces::source::{BranchSource, SourceSuite, Take};

use crate::engine::steal_map;
use crate::runner::{RunOptions, TageRun, TraceRunResult};
use crate::suite::SuiteRunResult;
use crate::warmcache::{self, Checkpoints, WarmCache};

/// How a long source is sharded: segment count plus the per-segment warmup
/// prefix length, both in *records*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentOptions {
    /// Number of contiguous segments the source is split into (clamped to
    /// at least 1 and at most one per record).
    pub segments: usize,
    /// Records replayed (trained on, statistics suppressed) before each
    /// segment's measured range. Segment 0 has no prefix; later segments
    /// clamp the warmup at their start offset.
    pub warmup_records: u64,
}

impl SegmentOptions {
    /// `segments` shards with the given warmup prefix.
    pub fn new(segments: usize, warmup_records: u64) -> Self {
        SegmentOptions {
            segments,
            warmup_records,
        }
    }
}

/// One measured record range of a segment plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First measured record (inclusive).
    pub start: u64,
    /// One past the last measured record.
    pub end: u64,
}

impl Segment {
    /// Number of measured records in the segment.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the segment measures no records.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A deterministic split of `total_records` into near-equal contiguous
/// segments. The plan is a pure function of `(total_records,
/// options)` — worker counts never influence it, which is what makes
/// segmented runs bit-identical across thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentPlan {
    segments: Vec<Segment>,
    warmup_records: u64,
}

impl SegmentPlan {
    /// Splits `total_records` into `options.segments` near-equal contiguous
    /// ranges (earlier segments take the remainder, one extra record each).
    pub fn split(total_records: u64, options: &SegmentOptions) -> SegmentPlan {
        let count = options
            .segments
            .max(1)
            .min(total_records.max(1).min(usize::MAX as u64) as usize);
        let base = total_records / count as u64;
        let remainder = total_records % count as u64;
        let mut segments = Vec::with_capacity(count);
        let mut start = 0u64;
        for i in 0..count as u64 {
            let len = base + u64::from(i < remainder);
            segments.push(Segment {
                start,
                end: start + len,
            });
            start += len;
        }
        SegmentPlan {
            segments,
            warmup_records: options.warmup_records,
        }
    }

    /// The measured ranges, in stream order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The requested warmup prefix length in records.
    pub fn warmup_records(&self) -> u64 {
        self.warmup_records
    }

    /// The warmup prefix actually replayed before `segment` (clamped at the
    /// start of the stream).
    pub fn warmup_for(&self, segment: &Segment) -> u64 {
        self.warmup_records.min(segment.start)
    }
}

/// A segmented run's merged result plus its per-segment measured branch
/// counts (useful for asserting the split actually covered the stream).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentedRunResult {
    /// The merged result, shaped exactly like a sequential
    /// [`crate::runner::run_source`] result: reports merge in segment order,
    /// branch/instruction counters sum, and `final_saturation_probability`
    /// is the last segment's.
    pub result: TraceRunResult,
    /// Measured conditional branches per segment, in segment order.
    pub segment_branches: Vec<u64>,
}

/// Runs one segment: brings a cold run to the segment start through
/// [`warmcache::advance`] — restoring the boundary state when `checkpoints`
/// hold it, replaying the warmup prefix otherwise — then measures the
/// segment's records.
fn run_segment<S: BranchSource>(
    geometry: &TageGeometry,
    options: &RunOptions,
    source: &mut S,
    plan: &SegmentPlan,
    segment: &Segment,
    checkpoints: Option<Checkpoints<'_>>,
) -> Result<TraceRunResult, FormatError> {
    let trace_name = source.name().to_string();
    let mut predictor = TagePredictor::new(geometry);
    // `RunOptions::warmup_branches` is a *statistical* exclusion of the
    // stream's leading conditional branches; it belongs to the segment that
    // owns the head of the stream (which has no replay prefix), matching
    // the sequential run whenever the exclusion fits inside segment 0.
    let statistical_warmup = if segment.start == 0 {
        options.warmup_branches
    } else {
        0
    };
    let mut run = TageRun::new(&mut predictor, options, statistical_warmup);
    let origin = segment.start - plan.warmup_for(segment);
    // On a stream shorter than the plan the source is left exhausted, and
    // the segment measures nothing.
    warmcache::advance(&mut run, source, 0, origin, segment.start, checkpoints)?;
    let (report, summary) = run.measure(&mut Take::new(&mut *source, segment.len()), &mut ())?;
    Ok(run.result(
        trace_name,
        report,
        summary.measured_branches,
        summary.measured_instructions,
    ))
}

fn merge_segments(geometry: &TageGeometry, outcomes: Vec<TraceRunResult>) -> SegmentedRunResult {
    let mut merged = ConfidenceReport::new();
    let mut conditional_branches = 0u64;
    let mut instructions = 0u64;
    let mut segment_branches = Vec::with_capacity(outcomes.len());
    let mut trace_name = String::new();
    let mut final_probability = geometry.automaton.saturation_probability();
    for result in outcomes {
        if trace_name.is_empty() {
            trace_name = result.trace_name;
        }
        merged.merge(&result.report);
        conditional_branches += result.conditional_branches;
        instructions += result.instructions;
        final_probability = result.final_saturation_probability;
        segment_branches.push(result.conditional_branches);
    }
    SegmentedRunResult {
        result: TraceRunResult {
            trace_name,
            config_name: geometry.name(),
            report: merged,
            conditional_branches,
            instructions,
            final_saturation_probability: final_probability,
        },
        segment_branches,
    }
}

/// Runs one long source split into history-warmed segments across `workers`
/// scoped threads.
///
/// `open` must produce a *fresh, independent* stream of the same records on
/// every call (each segment worker opens its own); `total_records` is the
/// stream length the plan is computed from — pass the source's
/// [`BranchSource::len_hint`] or a counted length.
///
/// `warm` pairs an optional [`WarmCache`] with the source's content digest
/// (see [`tage_traces::source::SourceSpec::digest`]). The first run replays
/// each segment's warmup prefix and stores the boundary state; later runs
/// with the same configuration, source and warmup restore it and skip the
/// replay — with **byte-identical results** either way.
///
/// [`RunOptions::warmup_branches`] (the statistical exclusion of the
/// stream's leading conditional branches) is applied to the segment that
/// starts at record 0, so it matches the sequential run whenever the
/// excluded prefix fits inside the first segment.
///
/// The merged result is bit-identical for any `workers` value: the plan and
/// the merge order depend only on `(total_records, segment_options)`.
///
/// # Errors
///
/// Returns the first [`FormatError`] in segment order. Cache I/O never
/// fails a run: unreadable or torn entries fall back to the replay path,
/// and failed stores are dropped.
pub fn run_segmented_source<S, F>(
    blueprint: &dyn TageBlueprint,
    options: &RunOptions,
    segment_options: &SegmentOptions,
    total_records: u64,
    workers: usize,
    warm: Option<(&WarmCache, u64)>,
    open: F,
) -> Result<SegmentedRunResult, FormatError>
where
    S: BranchSource,
    F: Fn() -> Result<S, FormatError> + Sync,
{
    let geometry = blueprint.tage_geometry();
    let plan = SegmentPlan::split(total_records, segment_options);
    let checkpoints =
        warm.map(|(cache, digest)| Checkpoints::new(cache, digest, &geometry, options));
    let (outcomes, _) = steal_map(plan.segments(), workers, |segment| {
        let mut source = open()?;
        run_segment(&geometry, options, &mut source, &plan, segment, checkpoints)
    });
    let mut collected = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        collected.push(outcome?);
    }
    Ok(merge_segments(&geometry, collected))
}

/// Runs a whole [`SourceSuite`] with segment sharding: the `sources ×
/// segments` work items are flattened into one list and sharded across
/// `workers`, so the scheduler can parallelize *within* each trace, not just
/// across traces. Results merge per source in `(source, segment)` order and
/// are bit-identical at every worker count. With a `cache`, warm segments
/// restore their boundary states as in [`run_segmented_source`]; per-source
/// entry keys use each source's
/// [`tage_traces::source::SourceSpec::digest`].
///
/// Sources whose length is not cheaply known (synthetic profiles that emit
/// call/return records) are counted by draining one throwaway stream first —
/// generation is cheap relative to simulation.
///
/// # Errors
///
/// Returns the first [`FormatError`] in suite order.
pub fn run_suite_segmented(
    blueprint: &dyn TageBlueprint,
    suite: &SourceSuite,
    conditional_branches: usize,
    options: &RunOptions,
    segment_options: &SegmentOptions,
    workers: usize,
    cache: Option<&WarmCache>,
) -> Result<SuiteRunResult, FormatError> {
    let geometry = blueprint.tage_geometry();
    // Plan every source up front (pure function of the lengths).
    let mut plans = Vec::with_capacity(suite.sources().len());
    for spec in suite.sources() {
        let mut probe = spec.open(conditional_branches)?;
        let total = match probe.len_hint() {
            Some(total) => total,
            None => probe.skip_records(u64::MAX)?,
        };
        plans.push(SegmentPlan::split(total, segment_options));
    }
    let checkpoints: Vec<Option<Checkpoints<'_>>> = suite
        .sources()
        .iter()
        .map(|spec| {
            cache.map(|cache| {
                Checkpoints::new(cache, spec.digest(conditional_branches), &geometry, options)
            })
        })
        .collect();
    let items: Vec<(usize, Segment)> = plans
        .iter()
        .enumerate()
        .flat_map(|(source_index, plan)| {
            plan.segments()
                .iter()
                .map(move |segment| (source_index, *segment))
        })
        .collect();

    let (outcomes, _) = steal_map(&items, workers, |&(source_index, segment)| {
        let mut source = suite.sources()[source_index].open(conditional_branches)?;
        run_segment(
            &geometry,
            options,
            &mut source,
            &plans[source_index],
            &segment,
            checkpoints[source_index],
        )
    });

    // Group back per source, in order.
    let mut per_source: Vec<Vec<TraceRunResult>> =
        (0..suite.sources().len()).map(|_| Vec::new()).collect();
    for (&(source_index, _), outcome) in items.iter().zip(outcomes) {
        per_source[source_index].push(outcome?);
    }
    let mut traces = Vec::with_capacity(per_source.len());
    let mut aggregate = ConfidenceReport::new();
    for outcomes in per_source {
        let merged = merge_segments(&geometry, outcomes);
        aggregate.merge(&merged.result.report);
        traces.push(merged.result);
    }
    Ok(SuiteRunResult {
        suite_name: suite.name().to_string(),
        config_name: geometry.name(),
        traces,
        aggregate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage::TageGeometry;
    use tage_traces::source::{SourceSpec, SyntheticSource};
    use tage_traces::suites;

    fn spec() -> tage_traces::TraceSpec {
        suites::cbp1_like().trace("INT-2").unwrap().clone()
    }

    #[test]
    fn plans_are_contiguous_exhaustive_and_worker_independent() {
        for (total, segments) in [(10u64, 3usize), (1, 4), (0, 2), (1000, 7), (5, 5)] {
            let plan = SegmentPlan::split(total, &SegmentOptions::new(segments, 100));
            let ranges = plan.segments();
            assert!(!ranges.is_empty());
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, total);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            let covered: u64 = ranges.iter().map(Segment::len).sum();
            assert_eq!(covered, total, "total {total} segments {segments}");
        }
        let plan = SegmentPlan::split(10, &SegmentOptions::new(3, 4));
        assert_eq!(plan.warmup_for(&plan.segments()[0]), 0, "no prefix at 0");
        assert_eq!(plan.warmup_for(&plan.segments()[1]), 4);
    }

    #[test]
    fn one_segment_without_warmup_is_exactly_the_sequential_run() {
        let spec = spec();
        let config = TageGeometry::small();
        let total = SyntheticSource::from_spec(&spec, 4_000)
            .skip_records(u64::MAX)
            .unwrap();
        // Non-default options too: the statistical warmup exclusion and the
        // recency window must flow through the segmented path unchanged.
        for options in [
            RunOptions::default(),
            RunOptions {
                warmup_branches: 700,
                bim_miss_window: 4,
                ..RunOptions::default()
            },
        ] {
            let mut source = SyntheticSource::from_spec(&spec, 4_000);
            let sequential = crate::runner::run_source(&config, &mut source, &options).unwrap();
            let segmented = run_segmented_source(
                &config,
                &options,
                &SegmentOptions::new(1, 0),
                total,
                2,
                None,
                || Ok(SyntheticSource::from_spec(&spec, 4_000)),
            )
            .unwrap();
            assert_eq!(segmented.result, sequential, "{options:?}");
            assert_eq!(
                segmented.segment_branches,
                vec![4_000 - options.warmup_branches]
            );
        }
    }

    #[test]
    fn segmented_runs_are_bit_identical_across_worker_counts() {
        let spec = spec();
        let config = TageGeometry::small();
        let options = RunOptions::default();
        let segment_options = SegmentOptions::new(5, 512);
        let total = SyntheticSource::from_spec(&spec, 6_000)
            .skip_records(u64::MAX)
            .unwrap();
        let run = |workers| {
            run_segmented_source(
                &config,
                &options,
                &segment_options,
                total,
                workers,
                None,
                || Ok(SyntheticSource::from_spec(&spec, 6_000)),
            )
            .unwrap()
        };
        let reference = run(1);
        assert_eq!(
            reference.segment_branches.iter().sum::<u64>(),
            6_000,
            "segments cover the whole stream"
        );
        for workers in [2, 3, 8] {
            assert_eq!(run(workers), reference, "workers = {workers}");
        }
    }

    #[test]
    fn warmup_improves_segment_accuracy_over_cold_starts() {
        // Splitting a very predictable trace into cold segments inflates
        // mispredictions (every segment re-learns its loops and patterns); a
        // history-warmup prefix wins most of that accuracy back without
        // affecting what is measured, pulling the segmented result towards
        // the sequential one.
        let spec = suites::cbp1_like().trace("FP-2").unwrap().clone();
        let config = TageGeometry::small();
        let branches = 32_000;
        let total = SyntheticSource::from_spec(&spec, branches)
            .skip_records(u64::MAX)
            .unwrap();
        let mut sequential_source = SyntheticSource::from_spec(&spec, branches);
        let sequential =
            crate::runner::run_source(&config, &mut sequential_source, &RunOptions::default())
                .unwrap();
        let run = |warmup| {
            run_segmented_source(
                &config,
                &RunOptions::default(),
                &SegmentOptions::new(16, warmup),
                total,
                4,
                None,
                || Ok(SyntheticSource::from_spec(&spec, branches)),
            )
            .unwrap()
        };
        let cold = run(0);
        let warmed = run(2_000);
        assert_eq!(cold.result.conditional_branches, branches as u64);
        assert_eq!(warmed.result.conditional_branches, branches as u64);
        let sequential_misses = sequential.report.total().mispredictions;
        let cold_gap = cold.result.report.total().mispredictions - sequential_misses;
        let warmed_gap = warmed
            .result
            .report
            .total()
            .mispredictions
            .saturating_sub(sequential_misses);
        assert!(
            warmed_gap * 2 < cold_gap,
            "warmup should reclaim most of the cold-start penalty: \
             sequential {sequential_misses}, cold +{cold_gap}, warmed +{warmed_gap}"
        );
    }

    #[test]
    fn warm_cache_runs_are_byte_identical_to_replay_runs() {
        let dir = std::env::temp_dir().join(format!(
            "tage-segment-warmcache-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let suite = SourceSuite::new(
            "cached",
            vec![SourceSpec::Synthetic(
                suites::cbp1_like().trace("INT-2").unwrap().clone(),
            )],
        );
        let config = TageGeometry::small();
        let segment_options = SegmentOptions::new(4, 512);
        // The adaptive controller exercises the automaton + controller parts
        // of the warm state; the custom window exercises the classifier part.
        for options in [
            RunOptions::default(),
            RunOptions {
                bim_miss_window: 4,
                adaptive_target_mkp: Some(10.0),
                ..RunOptions::default()
            },
        ] {
            let reference =
                run_suite_segmented(&config, &suite, 5_000, &options, &segment_options, 2, None)
                    .unwrap();
            let cache = WarmCache::new(&dir).unwrap();
            let cold = run_suite_segmented(
                &config,
                &suite,
                5_000,
                &options,
                &segment_options,
                2,
                Some(&cache),
            )
            .unwrap();
            assert_eq!(cold, reference, "first cached run (all misses)");
            assert_eq!(cache.hits(), 0);
            assert!(cache.misses() > 0, "warmed segments should miss once");
            let warm = run_suite_segmented(
                &config,
                &suite,
                5_000,
                &options,
                &segment_options,
                4,
                Some(&cache),
            )
            .unwrap();
            assert_eq!(warm, reference, "second cached run (restores)");
            assert_eq!(
                cache.hits(),
                3,
                "every warmed segment (all but segment 0) should restore"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_warm_entries_fall_back_to_replay() {
        let dir =
            std::env::temp_dir().join(format!("tage-segment-torn-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let suite = SourceSuite::new(
            "torn",
            vec![SourceSpec::Synthetic(
                suites::cbp1_like().trace("INT-2").unwrap().clone(),
            )],
        );
        let config = TageGeometry::small();
        let options = RunOptions::default();
        let segment_options = SegmentOptions::new(4, 512);
        let run = |cache| {
            run_suite_segmented(&config, &suite, 5_000, &options, &segment_options, 2, cache)
                .unwrap()
        };
        let reference = run(None);
        let cache = WarmCache::new(&dir).unwrap();
        assert_eq!(run(Some(&cache)), reference, "cold run stores 3 entries");
        let mut entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "warmstate"))
            .collect();
        entries.sort();
        assert_eq!(entries.len(), 3);
        // One torn entry, one bit-flipped entry: both read as misses.
        let bytes = std::fs::read(&entries[0]).unwrap();
        std::fs::write(&entries[0], &bytes[..bytes.len() / 2]).unwrap();
        let mut bytes = std::fs::read(&entries[1]).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x10;
        std::fs::write(&entries[1], &bytes).unwrap();
        let misses = cache.misses();
        assert_eq!(run(Some(&cache)), reference, "corrupt entries replay");
        assert_eq!(cache.misses(), misses + 2);
        assert_eq!(cache.hits(), 1);
        // The replays rewrote both entries: the next run restores all three.
        assert_eq!(run(Some(&cache)), reference);
        assert_eq!(cache.hits(), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn suite_level_segmentation_is_deterministic_and_covers_every_source() {
        let suite = SourceSuite::new(
            "two",
            vec![
                SourceSpec::Synthetic(suites::cbp1_like().trace("FP-1").unwrap().clone()),
                SourceSpec::Synthetic(suites::cbp1_like().trace("SERV-2").unwrap().clone()),
            ],
        );
        let config = TageGeometry::small();
        let run = |workers| {
            run_suite_segmented(
                &config,
                &suite,
                3_000,
                &RunOptions::default(),
                &SegmentOptions::new(3, 256),
                workers,
                None,
            )
            .unwrap()
        };
        let reference = run(1);
        assert_eq!(reference.traces.len(), 2);
        for trace in &reference.traces {
            assert_eq!(trace.conditional_branches, 3_000);
        }
        assert_eq!(reference.aggregate.total().predictions, 6_000);
        for workers in [2, 3, 6] {
            assert_eq!(run(workers), reference, "workers = {workers}");
        }
    }
}
