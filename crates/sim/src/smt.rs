//! An N-thread SMT fetch-policy model driven by branch confidence.
//!
//! Controlling SMT resource allocation through the fetch policy is one of
//! the confidence applications the paper cites (Luo et al.). The model here
//! interleaves N traces as N hardware threads sharing one fetch port:
//! every cycle the port is granted to one thread. The confidence-driven
//! policy deprioritises threads with more unresolved low-confidence
//! branches in flight, so a thread that is likely on the wrong path does not
//! hog the shared front-end; the baseline policy is round-robin (ICOUNT-like
//! fairness without confidence information).
//!
//! Each hardware thread owns a [`SimEngine`] and fetches through
//! [`SimEngine::step_branch`], so the per-branch predict → classify → train
//! sequence is byte-for-byte the one every other experiment runs. The
//! staging cursors and the cycle loop are the shared
//! [`crate::interleave`] core (also behind the N-core shared-predictor
//! interference scenario); only the fetch-policy arbitration and the
//! in-flight bookkeeping live here. At N = 2 the generic loop is
//! bit-identical to the historical two-thread implementation — pinned by
//! this module's tests.

use core::fmt;

use tage::{TageGeometry, TagePredictor};
use tage_confidence::{ConfidenceLevel, TageConfidenceClassifier};
use tage_traces::format::FormatError;
use tage_traces::source::{BranchSource, SliceSource};
use tage_traces::{BranchRecord, Trace};

use crate::engine::SimEngine;
use crate::interleave::{
    interleave, next_round_robin, InterleaveDriver, StopCondition, StreamLane,
};

/// Fetch arbitration policies for the SMT model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SmtFetchPolicy {
    /// Alternate between the threads irrespective of confidence.
    RoundRobin,
    /// Grant fetch to the thread with fewest unresolved low- or
    /// medium-confidence branches (ties broken round-robin).
    ConfidenceCount,
}

impl fmt::Display for SmtFetchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmtFetchPolicy::RoundRobin => write!(f, "round-robin"),
            SmtFetchPolicy::ConfidenceCount => write!(f, "confidence-count"),
        }
    }
}

/// Per-thread outcome of the SMT model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SmtThreadResult {
    /// Branches fetched (and predicted) for this thread.
    pub branches: u64,
    /// Mispredictions for this thread.
    pub mispredictions: u64,
    /// Wrong-path fetch slots charged to this thread: branches fetched while
    /// the thread had an unresolved misprediction outstanding.
    pub wrong_path_slots: u64,
}

/// Outcome of the N-thread SMT fetch simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SmtNRunResult {
    /// Policy simulated.
    pub policy: SmtFetchPolicy,
    /// Per-thread results, in input order.
    pub threads: Vec<SmtThreadResult>,
    /// Total fetch cycles simulated.
    pub cycles: u64,
}

impl SmtNRunResult {
    /// Total wrong-path fetch slots over all threads — the quantity a
    /// confidence-aware policy is meant to reduce.
    pub fn total_wrong_path_slots(&self) -> u64 {
        self.threads.iter().map(|t| t.wrong_path_slots).sum()
    }

    /// Total branches fetched over all threads.
    pub fn total_branches(&self) -> u64 {
        self.threads.iter().map(|t| t.branches).sum()
    }
}

/// Outcome of the two-thread SMT fetch simulation (the classic pairing; a
/// fixed-arity view of [`SmtNRunResult`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SmtRunResult {
    /// Policy simulated.
    pub policy: SmtFetchPolicy,
    /// Per-thread results.
    pub threads: [SmtThreadResult; 2],
    /// Total fetch cycles simulated.
    pub cycles: u64,
}

impl SmtRunResult {
    /// Total wrong-path fetch slots over both threads.
    pub fn total_wrong_path_slots(&self) -> u64 {
        self.threads.iter().map(|t| t.wrong_path_slots).sum()
    }

    /// Total branches fetched over both threads.
    pub fn total_branches(&self) -> u64 {
        self.threads.iter().map(|t| t.branches).sum()
    }
}

impl fmt::Display for SmtRunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} branches, {} wrong-path slots",
            self.policy,
            self.total_branches(),
            self.total_wrong_path_slots()
        )
    }
}

/// Number of fetch cycles a branch stays "in flight" before it resolves in
/// the model.
const RESOLVE_DELAY: u64 = 8;

/// One hardware thread's model state: its private engine, the in-flight
/// branch window, and the accumulated counters.
struct SmtCore {
    engine: SimEngine<TagePredictor, TageConfidenceClassifier>,
    /// (resolve_cycle, was_not_high_confidence, was_mispredicted)
    in_flight: Vec<(u64, bool, bool)>,
    result: SmtThreadResult,
}

impl SmtCore {
    fn new(config: &TageGeometry) -> Self {
        SmtCore {
            engine: SimEngine::new(
                TagePredictor::new(config.clone()),
                TageConfidenceClassifier::new(config),
            ),
            in_flight: Vec::new(),
            result: SmtThreadResult::default(),
        }
    }

    fn unresolved_low_confidence(&self) -> usize {
        self.in_flight.iter().filter(|(_, risky, _)| *risky).count()
    }

    fn has_unresolved_misprediction(&self) -> bool {
        self.in_flight.iter().any(|(_, _, miss)| *miss)
    }

    fn resolve(&mut self, cycle: u64) {
        self.in_flight
            .retain(|(resolve_at, _, _)| *resolve_at > cycle);
    }
}

/// The fetch-policy arbitration over N private cores, as an
/// [`InterleaveDriver`].
struct SmtDriver {
    cores: Vec<SmtCore>,
    policy: SmtFetchPolicy,
    last: usize,
}

impl InterleaveDriver for SmtDriver {
    fn begin_cycle(&mut self, cycle: u64) {
        for core in self.cores.iter_mut() {
            core.resolve(cycle);
        }
    }

    fn arbitrate(&mut self, _cycle: u64, alive: &[bool]) -> usize {
        let pick = match self.policy {
            SmtFetchPolicy::RoundRobin => next_round_robin(self.last, alive),
            SmtFetchPolicy::ConfidenceCount => {
                // Scan live lanes in rotation order starting after the last
                // grant; a strictly lower unresolved count wins, so ties
                // fall to the round-robin successor.
                let n = alive.len();
                let mut best: Option<(usize, usize)> = None;
                for step in 1..=n {
                    let lane = (self.last + step) % n;
                    if !alive[lane] {
                        continue;
                    }
                    let low = self.cores[lane].unresolved_low_confidence();
                    if best.is_none_or(|(_, count)| low < count) {
                        best = Some((lane, low));
                    }
                }
                best.expect("at least one lane is alive").0
            }
        };
        self.last = pick;
        pick
    }

    fn execute(&mut self, lane: usize, record: &BranchRecord, _gap: u64, cycle: u64) {
        let core = &mut self.cores[lane];
        // Fetching while an older branch of this thread is actually
        // mispredicted means this slot is wrong-path work.
        if core.has_unresolved_misprediction() {
            core.result.wrong_path_slots += 1;
        }
        let step = core
            .engine
            .step_branch(record.pc, record.taken, record.instructions(), &mut ());
        core.result.branches += 1;
        if step.mispredicted {
            core.result.mispredictions += 1;
        }
        core.in_flight.push((
            cycle + RESOLVE_DELAY,
            step.assessment.level != ConfidenceLevel::High,
            step.mispredicted,
        ));
    }
}

/// Runs the two-thread SMT fetch model: one conditional branch is fetched
/// per cycle, granted to one of the two threads according to `policy`.
///
/// As is customary for multiprogrammed studies, the simulation stops as soon
/// as either thread runs out of trace, so both threads are always present
/// and the policies are compared over the same co-run region.
pub fn simulate_smt(
    config: &TageGeometry,
    thread0: &Trace,
    thread1: &Trace,
    policy: SmtFetchPolicy,
) -> SmtRunResult {
    simulate_smt_sources(
        config,
        [
            SliceSource::from_trace(thread0),
            SliceSource::from_trace(thread1),
        ],
        policy,
    )
    .expect("in-memory slice sources are infallible")
}

/// [`simulate_smt`] over two streaming [`BranchSource`]s: each hardware
/// thread pulls its records through a bounded cursor, so multi-gigabyte
/// co-run traces never materialize.
///
/// # Errors
///
/// Propagates the first [`FormatError`] either source reports.
pub fn simulate_smt_sources<S: BranchSource>(
    config: &TageGeometry,
    sources: [S; 2],
    policy: SmtFetchPolicy,
) -> Result<SmtRunResult, FormatError> {
    let result = simulate_smt_n_sources(config, Vec::from(sources), policy)?;
    Ok(SmtRunResult {
        policy: result.policy,
        threads: [result.threads[0], result.threads[1]],
        cycles: result.cycles,
    })
}

/// The N-thread generalization: every source is one hardware thread; each
/// thread owns a private predictor + classifier, and one branch is fetched
/// per cycle under `policy`. The run stops when any thread exhausts its
/// stream (the multiprogrammed co-run convention).
///
/// At `sources.len() == 2` this is bit-identical to the historical
/// two-thread model.
///
/// # Errors
///
/// Propagates the first [`FormatError`] any source reports.
///
/// # Panics
///
/// Panics if `sources` is empty.
pub fn simulate_smt_n_sources<S: BranchSource>(
    config: &TageGeometry,
    sources: Vec<S>,
    policy: SmtFetchPolicy,
) -> Result<SmtNRunResult, FormatError> {
    assert!(
        !sources.is_empty(),
        "the SMT model needs at least one thread"
    );
    let mut lanes: Vec<StreamLane<S>> = sources.into_iter().map(StreamLane::new).collect();
    let mut driver = SmtDriver {
        cores: lanes.iter().map(|_| SmtCore::new(config)).collect(),
        policy,
        last: lanes.len() - 1,
    };
    let cycles = interleave(&mut lanes, &mut driver, StopCondition::AnyExhausted)?;
    Ok(SmtNRunResult {
        policy,
        threads: driver.cores.into_iter().map(|c| c.result).collect(),
        cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage::CounterAutomaton;
    use tage_traces::source::SyntheticSource;
    use tage_traces::suites;

    fn config() -> TageGeometry {
        TageGeometry::small().with_automaton(CounterAutomaton::paper_default())
    }

    /// The interleave refactor must not move a single counter: these exact
    /// values were produced by the pre-refactor hardcoded two-thread loop
    /// (FP-1 × MM-5 at 8 000 branches, TAGE-16K with the paper automaton).
    #[test]
    fn generic_interleaver_at_n2_matches_the_pre_refactor_model_bit_for_bit() {
        let suite = suites::cbp1_like();
        let a = suite.trace("FP-1").unwrap().generate(8_000);
        let b = suite.trace("MM-5").unwrap().generate(8_000);

        let rr = simulate_smt(&config(), &a, &b, SmtFetchPolicy::RoundRobin);
        assert_eq!(rr.cycles, 15_999);
        assert_eq!(
            rr.threads[0],
            SmtThreadResult {
                branches: 8_000,
                mispredictions: 472,
                wrong_path_slots: 1_274,
            }
        );
        assert_eq!(
            rr.threads[1],
            SmtThreadResult {
                branches: 7_999,
                mispredictions: 1_056,
                wrong_path_slots: 2_524,
            }
        );

        let cc = simulate_smt(&config(), &a, &b, SmtFetchPolicy::ConfidenceCount);
        assert_eq!(cc.cycles, 14_548);
        assert_eq!(
            cc.threads[0],
            SmtThreadResult {
                branches: 8_000,
                mispredictions: 472,
                wrong_path_slots: 1_399,
            }
        );
        assert_eq!(
            cc.threads[1],
            SmtThreadResult {
                branches: 6_548,
                mispredictions: 890,
                wrong_path_slots: 1_916,
            }
        );
    }

    #[test]
    fn both_policies_fetch_from_both_threads_until_one_finishes() {
        let suite = suites::cbp1_like();
        let a = suite.trace("FP-1").unwrap().generate(4_000);
        let b = suite.trace("MM-5").unwrap().generate(4_000);
        for policy in [SmtFetchPolicy::RoundRobin, SmtFetchPolicy::ConfidenceCount] {
            let result = simulate_smt(&config(), &a, &b, policy);
            // One fetch per cycle, and the run stops once either thread is
            // out of trace.
            assert_eq!(result.total_branches(), result.cycles, "{policy}");
            assert!(result.threads.iter().all(|t| t.branches > 0), "{policy}");
            assert!(
                result.threads.iter().any(|t| t.branches == 4_000),
                "{policy}"
            );
            assert!(result.total_branches() <= 8_000);
        }
    }

    #[test]
    fn confidence_policy_reduces_wrong_path_slots() {
        // Pair a very predictable thread with a poorly predictable one: the
        // confidence-aware policy should steer fetch away from the
        // mispredicting thread and reduce total wrong-path work.
        let suite = suites::cbp1_like();
        let a = suite.trace("FP-1").unwrap().generate(12_000);
        let b = suite.trace("MM-5").unwrap().generate(12_000);
        let rr = simulate_smt(&config(), &a, &b, SmtFetchPolicy::RoundRobin);
        let cc = simulate_smt(&config(), &a, &b, SmtFetchPolicy::ConfidenceCount);
        assert!(
            cc.total_wrong_path_slots() <= rr.total_wrong_path_slots(),
            "confidence {} vs round-robin {}",
            cc.total_wrong_path_slots(),
            rr.total_wrong_path_slots()
        );
    }

    #[test]
    fn source_driven_smt_matches_the_materialized_path() {
        let suite = suites::cbp1_like();
        let spec_a = suite.trace("FP-1").unwrap().clone();
        let spec_b = suite.trace("MM-5").unwrap().clone();
        let a = spec_a.generate(6_000);
        let b = spec_b.generate(6_000);
        for policy in [SmtFetchPolicy::RoundRobin, SmtFetchPolicy::ConfidenceCount] {
            let reference = simulate_smt(&config(), &a, &b, policy);
            let streamed = simulate_smt_sources(
                &config(),
                [
                    SyntheticSource::from_spec(&spec_a, 6_000),
                    SyntheticSource::from_spec(&spec_b, 6_000),
                ],
                policy,
            )
            .unwrap();
            assert_eq!(streamed, reference, "{policy}");
        }
    }

    #[test]
    fn four_way_smt_runs_every_thread_and_stops_at_the_first_exhausted() {
        let suite = suites::cbp1_like();
        let specs = ["FP-1", "MM-5", "INT-1", "SERV-2"];
        for policy in [SmtFetchPolicy::RoundRobin, SmtFetchPolicy::ConfidenceCount] {
            let sources: Vec<SyntheticSource> = specs
                .iter()
                .map(|name| SyntheticSource::from_spec(suite.trace(name).unwrap(), 3_000))
                .collect();
            let result = simulate_smt_n_sources(&config(), sources, policy).unwrap();
            assert_eq!(result.threads.len(), 4, "{policy}");
            assert_eq!(result.total_branches(), result.cycles, "{policy}");
            assert!(result.threads.iter().all(|t| t.branches > 0), "{policy}");
            assert!(
                result.threads.iter().any(|t| t.branches == 3_000),
                "{policy}: some thread must run to completion"
            );
        }
    }

    #[test]
    fn n_way_results_are_deterministic() {
        let suite = suites::cbp1_like();
        let run = || {
            let sources: Vec<SyntheticSource> = ["FP-1", "MM-5", "INT-1"]
                .iter()
                .map(|name| SyntheticSource::from_spec(suite.trace(name).unwrap(), 2_000))
                .collect();
            simulate_smt_n_sources(&config(), sources, SmtFetchPolicy::ConfidenceCount).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn display_mentions_policy() {
        let suite = suites::cbp1_like();
        let a = suite.trace("FP-1").unwrap().generate(500);
        let b = suite.trace("FP-2").unwrap().generate(500);
        let result = simulate_smt(&config(), &a, &b, SmtFetchPolicy::RoundRobin);
        assert!(format!("{result}").contains("round-robin"));
    }
}
