//! Bit-parity pin for the lane-batched lockstep engine: every result a
//! [`MultilaneEngine`] produces must be identical — report, counters and
//! metadata — to running the same stream alone through the scalar
//! [`run_source`] path, for every lane count, ragged stream lengths and
//! every source kind.

use std::path::PathBuf;

use tage::{CounterAutomaton, TageGeometry};
use tage_sim::runner::{run_source, RunOptions, TraceRunResult};
use tage_sim::MultilaneEngine;
use tage_traces::source::{BinaryFileSource, BranchSource, SliceSource, SyntheticSource};
use tage_traces::suites;
use tage_traces::writer::TraceWriter;
use tage_traces::Trace;

/// Lane counts the tentpole pins: degenerate (1), below / at / above the
/// default (16), and the powers of two between.
const LANE_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];

/// Ragged per-stream conditional-branch budgets: more streams than any
/// tested lane count (so lanes re-arm), spread over two orders of magnitude
/// (so lanes retire at very different cycles), including a one-branch stream.
const RAGGED_LENGTHS: [usize; 18] = [
    500, 3_000, 1, 1_200, 77, 2_048, 9, 650, 4_096, 300, 1_500, 33, 700, 2_500, 128, 900, 5, 1_800,
];

/// The paper's probabilistic-saturation automaton exercises the per-lane
/// RNG draws (allocation skip-forward), which a parity bug would desync.
fn config() -> TageGeometry {
    TageGeometry::small().with_automaton(CounterAutomaton::paper_default())
}

/// Generates the ragged workload: suite traces cycled round-robin, each
/// materialized at its slot's length.
fn ragged_traces() -> Vec<Trace> {
    let suite = suites::cbp1_like();
    let specs = suite.traces();
    RAGGED_LENGTHS
        .iter()
        .enumerate()
        .map(|(i, &len)| specs[i % specs.len()].generate(len))
        .collect()
}

/// Runs every source through one [`MultilaneEngine`] with `lanes` lanes.
fn run_multilane<S: BranchSource>(
    sources: &mut [S],
    options: &RunOptions,
    lanes: usize,
) -> Vec<TraceRunResult> {
    let mut engine = MultilaneEngine::new(config(), options, lanes);
    let mut results: Vec<TraceRunResult> = sources
        .iter()
        .map(|_| MultilaneEngine::placeholder_result())
        .collect();
    engine.run_into(sources, &mut results).unwrap();
    results
}

fn assert_results_match(batched: &TraceRunResult, scalar: &TraceRunResult, context: &str) {
    assert_eq!(batched.report, scalar.report, "report diverged: {context}");
    assert_eq!(batched.trace_name, scalar.trace_name, "{context}");
    assert_eq!(batched.config_name, scalar.config_name, "{context}");
    assert_eq!(
        batched.conditional_branches, scalar.conditional_branches,
        "branch count diverged: {context}"
    );
    assert_eq!(
        batched.instructions, scalar.instructions,
        "instruction count diverged: {context}"
    );
    assert_eq!(
        batched.final_saturation_probability, scalar.final_saturation_probability,
        "{context}"
    );
}

/// Runs `make_sources()` through every pinned lane count and checks each
/// stream against a fresh scalar run of the same source.
fn check_parity_across_lane_counts<S, F>(mut make_sources: F, kind: &str)
where
    S: BranchSource,
    F: FnMut() -> Vec<S>,
{
    let config = config();
    let options = RunOptions::default();
    let scalar: Vec<TraceRunResult> = make_sources()
        .iter_mut()
        .map(|source| run_source(&config, source, &options).unwrap())
        .collect();
    for lanes in LANE_COUNTS {
        let mut sources = make_sources();
        let batched = run_multilane(&mut sources, &options, lanes);
        assert_eq!(batched.len(), scalar.len());
        for (b, s) in batched.iter().zip(&scalar) {
            assert_results_match(b, s, &format!("{kind}, K={lanes}, trace {}", s.trace_name));
        }
    }
}

#[test]
fn slice_sources_match_scalar_for_every_lane_count() {
    let traces = ragged_traces();
    check_parity_across_lane_counts(
        || traces.iter().map(SliceSource::from_trace).collect(),
        "slice",
    );
}

#[test]
fn synthetic_sources_match_scalar_for_every_lane_count() {
    let suite = suites::cbp1_like();
    let specs = suite.traces();
    check_parity_across_lane_counts(
        || {
            RAGGED_LENGTHS
                .iter()
                .enumerate()
                .map(|(i, &len)| SyntheticSource::from_spec(&specs[i % specs.len()], len))
                .collect()
        },
        "synthetic",
    );
}

#[test]
fn file_sources_match_scalar_for_every_lane_count() {
    // Fewer, shorter streams than the in-memory tests: the point here is
    // the chunked-reader refill path, not the ragged scheduling (already
    // covered above).
    let paths: Vec<PathBuf> = ragged_traces()
        .iter()
        .take(6)
        .enumerate()
        .map(|(i, trace)| {
            let path = std::env::temp_dir().join(format!(
                "tage-multilane-parity-{}-{i}.trace",
                std::process::id()
            ));
            std::fs::write(&path, TraceWriter::to_binary_bytes(trace)).unwrap();
            path
        })
        .collect();
    check_parity_across_lane_counts(
        || {
            paths
                .iter()
                .map(|p| BinaryFileSource::open(p).unwrap())
                .collect()
        },
        "file",
    );
    for path in paths {
        std::fs::remove_file(path).unwrap();
    }
}

#[test]
fn single_lane_is_the_scalar_engine() {
    // K = 1 leaves no room for scheduling differences at all: the one lane
    // must walk the pending sources in order and reproduce a sequential
    // scalar sweep exactly, including the re-arm (predictor reset) between
    // streams.
    let config = config();
    let options = RunOptions::default();
    let traces = ragged_traces();
    let mut sources: Vec<SliceSource<'_>> = traces.iter().map(SliceSource::from_trace).collect();
    let batched = run_multilane(&mut sources, &options, 1);
    for (trace, batched) in traces.iter().zip(&batched) {
        let mut source = SliceSource::from_trace(trace);
        let scalar = run_source(&config, &mut source, &options).unwrap();
        assert_results_match(
            batched,
            &scalar,
            &format!("K=1, trace {}", scalar.trace_name),
        );
    }
}

#[test]
fn more_lanes_than_sources_is_fine() {
    let config = config();
    let options = RunOptions::default();
    let trace = suites::cbp1_like().trace("INT-1").unwrap().generate(2_000);
    let mut engine = MultilaneEngine::new(config.clone(), &options, 16);
    let mut sources = vec![SliceSource::from_trace(&trace)];
    let mut results = vec![MultilaneEngine::placeholder_result()];
    engine.run_into(&mut sources, &mut results).unwrap();
    let mut source = SliceSource::from_trace(&trace);
    let scalar = run_source(&config, &mut source, &options).unwrap();
    assert_results_match(&results[0], &scalar, "16 lanes, 1 source");
}
