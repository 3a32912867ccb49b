//! N-core **shared-predictor interference**.
//!
//! When N cores (or N hardware contexts of a cluster) share one branch
//! predictor and its confidence estimator, the streams alias in the shared
//! tables and interleave in the shared history registers. This scenario
//! measures what that sharing costs: every source of a suite becomes one
//! core's instruction stream, the streams are interleaved round-robin (one
//! conditional branch per cycle, the fair schedule) into a **single shared
//! [`SimEngine`]**, and the per-core misprediction counters are compared
//! against N private predictors running the same streams in isolation (the
//! ordinary per-trace run every other experiment performs).
//!
//! Each core reads its source through a bounded cursor that stages the next
//! conditional branch; the round-robin loop steps every core that has one
//! staged, in core order, until none has. A single-core "shared" run
//! degenerates to the private run bit for bit — pinned by this module's
//! tests — so every measured difference at N ≥ 2 is interference, not
//! harness noise.

use tage_confidence::scheme::ConfidenceScheme;
use tage_predictors::PredictorCore;
use tage_traces::format::FormatError;
use tage_traces::source::BranchSource;
use tage_traces::BranchRecord;

use crate::engine::SimEngine;

/// Per-core counters of a shared-predictor run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreCounters {
    /// The core's stream name.
    pub name: String,
    /// Conditional branches the core executed.
    pub branches: u64,
    /// Mispredictions among them under the shared predictor.
    pub mispredictions: u64,
    /// Instructions the core's stream carried (every record counted once).
    pub instructions: u64,
}

impl CoreCounters {
    /// The core's misprediction rate in mispredictions per
    /// kilo-instruction.
    pub fn mpki(&self) -> f64 {
        crate::per_kilo_instruction(self.mispredictions as f64, self.instructions)
    }
}

/// Outcome of interleaving N core streams through one shared engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedRunResult {
    /// Per-core counters, in input order.
    pub cores: Vec<CoreCounters>,
    /// Fetch cycles simulated (= total conditional branches executed).
    pub cycles: u64,
}

impl SharedRunResult {
    /// Total mispredictions over all cores.
    pub fn total_mispredictions(&self) -> u64 {
        self.cores.iter().map(|c| c.mispredictions).sum()
    }

    /// Arithmetic mean of the per-core MPKI values (matching the per-trace
    /// mean the private baseline reports).
    pub fn mean_mpki(&self) -> f64 {
        if self.cores.is_empty() {
            return 0.0;
        }
        self.cores.iter().map(CoreCounters::mpki).sum::<f64>() / self.cores.len() as f64
    }
}

/// Records a core's stream cursor holds in memory at a time.
const LANE_BATCH_RECORDS: usize = 1024;

/// One core's stream: a source pulled through a bounded batch buffer, with
/// the next conditional branch staged for fetch.
struct StreamLane<S> {
    source: S,
    batch: Vec<BranchRecord>,
    filled: usize,
    cursor: usize,
    /// The next conditional branch; `None` once the stream is consumed.
    staged: Option<BranchRecord>,
    /// Instructions of the non-conditional records (calls, returns, jumps)
    /// read since the core's previous branch, not yet charged to the core.
    gap: u64,
}

impl<S: BranchSource> StreamLane<S> {
    fn new(source: S) -> Self {
        StreamLane {
            source,
            batch: vec![BranchRecord::default(); LANE_BATCH_RECORDS],
            filled: 0,
            cursor: 0,
            staged: None,
            gap: 0,
        }
    }

    /// Reads records until a conditional branch is staged or the stream
    /// ends. Only called with nothing staged, so an ended stream is never
    /// read again.
    fn stage(&mut self) -> Result<(), FormatError> {
        loop {
            if self.cursor == self.filled {
                self.filled = self.source.next_batch(&mut self.batch)?;
                self.cursor = 0;
                if self.filled == 0 {
                    return Ok(());
                }
            }
            let record = self.batch[self.cursor];
            self.cursor += 1;
            if record.kind.is_conditional() {
                self.staged = Some(record);
                return Ok(());
            }
            self.gap += record.instructions();
        }
    }

    /// Takes the staged branch with the instructions of the records read
    /// before it.
    fn take(&mut self) -> Option<(BranchRecord, u64)> {
        let record = self.staged.take()?;
        Some((record, std::mem::take(&mut self.gap)))
    }
}

/// Interleaves every source round-robin (one conditional branch per cycle)
/// through the single shared `engine`, running each stream to completion,
/// and returns the per-core counters.
///
/// With one source this is exactly the sequential [`SimEngine::run_source`]
/// execution — same prediction stream, same counters — so private-baseline
/// comparisons are apples to apples.
///
/// # Errors
///
/// Propagates the first [`FormatError`] any source reports.
pub fn run_shared_predictor<P, S, Src>(
    engine: &mut SimEngine<P, S>,
    sources: Vec<Src>,
) -> Result<SharedRunResult, FormatError>
where
    P: PredictorCore,
    S: ConfidenceScheme<P::Lookup>,
    Src: BranchSource,
{
    let mut cores = Vec::with_capacity(sources.len());
    let mut lanes = Vec::with_capacity(sources.len());
    for source in sources {
        cores.push(CoreCounters {
            name: source.name().to_string(),
            branches: 0,
            mispredictions: 0,
            instructions: 0,
        });
        let mut lane = StreamLane::new(source);
        lane.stage()?;
        lanes.push(lane);
    }
    let mut cycles = 0u64;
    let mut stepped = true;
    while stepped {
        stepped = false;
        for (lane, core) in lanes.iter_mut().zip(&mut cores) {
            let Some((record, gap)) = lane.take() else {
                continue;
            };
            stepped = true;
            cycles += 1;
            core.branches += 1;
            core.instructions += gap + record.instructions();
            let step = engine.step_branch(record.pc, record.taken, record.instructions(), &mut ());
            if step.mispredicted {
                core.mispredictions += 1;
            }
            lane.stage()?;
        }
    }
    // Trailing non-conditional records after each core's last branch.
    for (lane, core) in lanes.iter().zip(&mut cores) {
        core.instructions += lane.gap;
    }
    Ok(SharedRunResult { cores, cycles })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage::{CounterAutomaton, TageGeometry, TagePredictor};
    use tage_confidence::TageConfidenceClassifier;
    use tage_traces::source::SyntheticSource;
    use tage_traces::suites;

    fn engine() -> SimEngine<TagePredictor, TageConfidenceClassifier> {
        let config = TageGeometry::small().with_automaton(CounterAutomaton::paper_default());
        SimEngine::new(
            TagePredictor::new(config.clone()),
            TageConfidenceClassifier::new(&config),
        )
    }

    fn source(name: &str, branches: usize) -> SyntheticSource {
        SyntheticSource::from_spec(suites::cbp1_like().trace(name).unwrap(), branches)
    }

    #[test]
    fn single_core_shared_run_is_exactly_the_private_run() {
        let mut shared_engine = engine();
        let shared =
            run_shared_predictor(&mut shared_engine, vec![source("SERV-2", 5_000)]).unwrap();

        let mut private_engine = engine();
        let summary = private_engine
            .run_source(&mut source("SERV-2", 5_000), &mut ())
            .unwrap();

        assert_eq!(shared.cores.len(), 1);
        assert_eq!(shared.cores[0].branches, summary.measured_branches);
        assert_eq!(
            shared.cores[0].mispredictions,
            summary.measured_mispredictions
        );
        assert_eq!(
            shared.cores[0].instructions, summary.measured_instructions,
            "per-core instruction accounting covers every record exactly once"
        );
        assert_eq!(shared.cycles, summary.measured_branches);
    }

    #[test]
    fn sharing_a_predictor_across_cores_degrades_accuracy() {
        let names = ["FP-1", "MM-5", "SERV-2", "INT-1"];
        let branches = 12_000;
        let mut shared_engine = engine();
        let shared = run_shared_predictor(
            &mut shared_engine,
            names.iter().map(|n| source(n, branches)).collect(),
        )
        .unwrap();
        assert_eq!(shared.cores.len(), 4);

        let mut private_mispredictions = 0u64;
        for name in names {
            let mut private_engine = engine();
            let summary = private_engine
                .run_source(&mut source(name, branches), &mut ())
                .unwrap();
            private_mispredictions += summary.measured_mispredictions;
        }
        assert!(
            shared.total_mispredictions() > private_mispredictions,
            "shared {} vs private {} mispredictions: cross-core aliasing must cost accuracy",
            shared.total_mispredictions(),
            private_mispredictions
        );
        // Every core ran to completion.
        for core in &shared.cores {
            assert_eq!(core.branches, branches as u64, "{}", core.name);
            assert!(core.mpki() > 0.0);
        }
        assert_eq!(shared.cycles, 4 * branches as u64);
    }

    #[test]
    fn shared_runs_are_deterministic_and_source_kind_independent() {
        let names = ["FP-1", "MM-5"];
        let run_streamed = || {
            let mut e = engine();
            run_shared_predictor(&mut e, names.iter().map(|n| source(n, 3_000)).collect()).unwrap()
        };
        let streamed = run_streamed();
        assert_eq!(streamed, run_streamed());

        // Materialized slices produce the identical interleaving.
        use tage_traces::source::SliceSource;
        let traces: Vec<_> = names
            .iter()
            .map(|n| suites::cbp1_like().trace(n).unwrap().generate(3_000))
            .collect();
        let mut e = engine();
        let sliced =
            run_shared_predictor(&mut e, traces.iter().map(SliceSource::from_trace).collect())
                .unwrap();
        assert_eq!(sliced, streamed);
    }

    /// Three cores of different lengths: the shortest runs dry first and
    /// the rest keep sharing the engine until each is fully consumed.
    fn ragged_traces() -> Vec<tage_traces::Trace> {
        let suite = suites::cbp1_like();
        [("FP-1", 500), ("MM-5", 300), ("INT-1", 400)]
            .iter()
            .map(|&(name, branches)| suite.trace(name).unwrap().generate(branches))
            .collect()
    }

    fn ragged_run(traces: &[tage_traces::Trace]) -> SharedRunResult {
        use tage_traces::source::SliceSource;
        run_shared_predictor(
            &mut engine(),
            traces.iter().map(SliceSource::from_trace).collect(),
        )
        .unwrap()
    }

    #[test]
    fn ragged_streams_count_each_record_once() {
        let traces = ragged_traces();
        let shared = ragged_run(&traces);
        assert_eq!(shared.cores.len(), traces.len());
        for (core, trace) in shared.cores.iter().zip(&traces) {
            let conditional = trace.iter().filter(|r| r.kind.is_conditional()).count();
            let last = trace.iter().last().unwrap();
            assert!(!last.kind.is_conditional(), "a trailing record to drain");
            assert_eq!(core.name, trace.name());
            assert_eq!(core.branches, conditional as u64, "{}", core.name);
            assert_eq!(
                core.instructions,
                trace.instruction_count(),
                "{}: trailing non-conditional records included",
                core.name
            );
        }
        let branches: u64 = shared.cores.iter().map(|c| c.branches).sum();
        assert_eq!(shared.cycles, branches);
    }

    /// Once a core runs dry the fetch order over the remaining cores is
    /// visible only in the shared engine's state, so pin the counters.
    #[test]
    fn ragged_run_mispredictions_are_pinned() {
        let shared = ragged_run(&ragged_traces());
        let mispredictions: Vec<u64> = shared.cores.iter().map(|c| c.mispredictions).collect();
        assert_eq!(mispredictions, [109, 64, 78]);
    }

    /// Drains a cursor into its `(pc, taken, gap)` sequence, closing with
    /// the trailing gap after the last branch.
    fn staged_sequence<Src: BranchSource>(source: Src) -> Vec<(u64, bool, u64)> {
        let mut lane = StreamLane::new(source);
        lane.stage().unwrap();
        let mut sequence = Vec::new();
        while let Some((record, gap)) = lane.take() {
            sequence.push((record.pc, record.taken, gap));
            lane.stage().unwrap();
        }
        sequence.push((0, false, lane.gap));
        sequence
    }

    #[test]
    fn lanes_stage_alike_over_synthetic_and_slice_sources() {
        use tage_traces::source::SliceSource;
        let branches = 1_500;
        for name in ["FP-2", "INT-2"] {
            let spec = suites::cbp1_like().trace(name).unwrap().clone();
            let trace = spec.generate(branches);
            let mut scanned = Vec::new();
            let mut gap = 0;
            for record in trace.iter() {
                if record.kind.is_conditional() {
                    scanned.push((record.pc, record.taken, std::mem::take(&mut gap)));
                } else {
                    gap += record.instructions();
                }
            }
            scanned.push((0, false, gap));
            assert_eq!(scanned.len(), branches + 1, "{name}");

            let sliced = staged_sequence(SliceSource::from_trace(&trace));
            assert_eq!(sliced, scanned, "{name}: slice source");
            let synthetic = staged_sequence(SyntheticSource::from_spec(&spec, branches));
            assert_eq!(synthetic, scanned, "{name}: synthetic source");
        }
    }

    #[test]
    fn no_sources_run_no_cycles() {
        let shared = run_shared_predictor(
            &mut engine(),
            Vec::<tage_traces::source::SliceSource<'_>>::new(),
        )
        .unwrap();
        assert_eq!(shared.cycles, 0);
        assert!(shared.cores.is_empty());
    }
}
