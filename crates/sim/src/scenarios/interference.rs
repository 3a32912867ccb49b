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
//! The staging cursors and the cycle loop are the shared
//! [`crate::interleave`] core (the same machinery behind the SMT fetch
//! model); this module adds only the shared-engine driver and the per-core
//! accounting. A single-core "shared" run degenerates to the private run
//! bit for bit — pinned by this module's tests — so every measured
//! difference at N ≥ 2 is interference, not harness noise.

use tage_confidence::scheme::ConfidenceScheme;
use tage_predictors::PredictorCore;
use tage_traces::format::FormatError;
use tage_traces::source::BranchSource;
use tage_traces::BranchRecord;

use crate::engine::SimEngine;
use crate::interleave::{
    interleave, next_round_robin, InterleaveDriver, StopCondition, StreamLane,
};

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

/// Round-robin interleaving of N lanes into one shared engine.
struct SharedDriver<'e, P, S>
where
    P: PredictorCore,
    S: ConfidenceScheme<P::Lookup>,
{
    engine: &'e mut SimEngine<P, S>,
    cores: Vec<CoreCounters>,
    last: usize,
}

impl<P, S> InterleaveDriver for SharedDriver<'_, P, S>
where
    P: PredictorCore,
    S: ConfidenceScheme<P::Lookup>,
{
    fn arbitrate(&mut self, _cycle: u64, alive: &[bool]) -> usize {
        self.last = next_round_robin(self.last, alive);
        self.last
    }

    fn execute(&mut self, lane: usize, record: &BranchRecord, gap_instructions: u64, _cycle: u64) {
        let core = &mut self.cores[lane];
        core.instructions += gap_instructions + record.instructions();
        core.branches += 1;
        let step = self
            .engine
            .step_branch(record.pc, record.taken, record.instructions(), &mut ());
        if step.mispredicted {
            core.mispredictions += 1;
        }
    }

    fn finish_lane(&mut self, lane: usize, gap_instructions: u64) {
        // Trailing non-conditional records after the core's last branch.
        self.cores[lane].instructions += gap_instructions;
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
    let mut lanes: Vec<StreamLane<Src>> = sources.into_iter().map(StreamLane::new).collect();
    let mut driver = SharedDriver {
        engine,
        cores: lanes
            .iter()
            .map(|lane| CoreCounters {
                name: lane.name().to_string(),
                branches: 0,
                mispredictions: 0,
                instructions: 0,
            })
            .collect(),
        last: lanes.len().saturating_sub(1),
    };
    let cycles = interleave(&mut lanes, &mut driver, StopCondition::AllExhausted)?;
    Ok(SharedRunResult {
        cores: driver.cores,
        cycles,
    })
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
        // Every core ran to completion under AllExhausted interleaving.
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
}
