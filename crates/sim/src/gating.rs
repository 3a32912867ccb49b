//! A fetch-gating / throttling model driven by confidence estimation.
//!
//! Fetch gating is the canonical application of branch confidence (Manne et
//! al.; Aragón et al.): when the probability that fetch is on the wrong path
//! becomes high, stop (gate) or slow down (throttle) instruction fetch to
//! save the energy of fetching, decoding and eventually squashing wrong-path
//! instructions.
//!
//! The model here is deliberately simple and analytical — it charges, per
//! low/medium-confidence prediction, either the wrong-path instructions that
//! would have been fetched (if no gating) or the fetch slots lost (if the
//! prediction was actually correct and fetch was gated). That is enough to
//! reproduce the qualitative trade-off the paper's Section 2 describes and
//! to compare gating policies built on the three confidence levels.
//!
//! The front-end accounting is an [`EngineObserver`] plugged into the
//! generic [`SimEngine`], so the gating model shares the exact simulation
//! path (and can be attached to any predictor × confidence-scheme pair) of
//! every other experiment.

use core::fmt;

use tage::{TageGeometry, TagePredictor};
use tage_confidence::{ConfidenceLevel, TageConfidenceClassifier};
use tage_predictors::PredictorCore;
use tage_traces::format::FormatError;
use tage_traces::source::{BranchSource, SliceSource};
use tage_traces::Trace;

use crate::engine::{BranchEvent, EngineObserver, SimEngine};

/// What the front-end does when a branch of a given confidence level is
/// in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GatingAction {
    /// Keep fetching at full rate.
    Fetch,
    /// Halve the fetch rate (throttling).
    Throttle,
    /// Stop fetching until the branch resolves (gating).
    Gate,
}

/// A gating policy: one action per confidence level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatingPolicy {
    /// Action for low-confidence predictions.
    pub on_low: GatingAction,
    /// Action for medium-confidence predictions.
    pub on_medium: GatingAction,
    /// Action for high-confidence predictions.
    pub on_high: GatingAction,
}

impl GatingPolicy {
    /// Never gate (the baseline processor).
    pub fn never() -> Self {
        GatingPolicy {
            on_low: GatingAction::Fetch,
            on_medium: GatingAction::Fetch,
            on_high: GatingAction::Fetch,
        }
    }

    /// Gate on low confidence only (the classical binary policy).
    pub fn gate_low() -> Self {
        GatingPolicy {
            on_low: GatingAction::Gate,
            on_medium: GatingAction::Fetch,
            on_high: GatingAction::Fetch,
        }
    }

    /// Gate on low confidence and throttle on medium confidence — the
    /// three-level policy the paper's classification enables (as suggested
    /// by Akkary et al. and Malik et al.).
    pub fn gate_low_throttle_medium() -> Self {
        GatingPolicy {
            on_low: GatingAction::Gate,
            on_medium: GatingAction::Throttle,
            on_high: GatingAction::Fetch,
        }
    }

    /// The action for a given confidence level.
    pub fn action(&self, level: ConfidenceLevel) -> GatingAction {
        match level {
            ConfidenceLevel::Low => self.on_low,
            ConfidenceLevel::Medium => self.on_medium,
            ConfidenceLevel::High => self.on_high,
        }
    }
}

/// Cost parameters of the front-end model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatingModel {
    /// Average number of wrong-path instructions fetched per unresolved
    /// misprediction when fetch keeps running (branch-resolution latency ×
    /// fetch width).
    pub wrong_path_instructions: f64,
    /// Fraction of the wrong-path fetch still performed when throttling
    /// (0.5 = half rate).
    pub throttle_factor: f64,
}

impl Default for GatingModel {
    fn default() -> Self {
        GatingModel {
            // 16-cycle resolution × 4-wide fetch.
            wrong_path_instructions: 64.0,
            throttle_factor: 0.5,
        }
    }
}

/// Outcome of simulating a gating policy over a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct GatingResult {
    /// Trace name.
    pub trace_name: String,
    /// Policy simulated.
    pub policy: GatingPolicy,
    /// Conditional branches simulated.
    pub branches: u64,
    /// Mispredictions.
    pub mispredictions: u64,
    /// Instructions attributed to the measured region — the denominator of
    /// every per-kilo-instruction rate this result reports.
    pub measured_instructions: u64,
    /// Wrong-path instructions fetched (energy waste).
    pub wrong_path_fetched: f64,
    /// Fetch slots lost by gating/throttling branches that were actually
    /// predicted correctly (performance cost).
    pub slots_lost_on_correct: f64,
    /// Wrong-path instructions avoided relative to never gating.
    pub wrong_path_avoided: f64,
}

impl GatingResult {
    /// Wrong-path instructions fetched per *branch* (a proxy for front-end
    /// energy waste normalized to prediction count; see
    /// [`GatingResult::waste_mpki`] for the per-kilo-instruction rate).
    pub fn waste_per_branch(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.wrong_path_fetched / self.branches as f64
        }
    }

    /// Wrong-path instructions fetched per kilo-instruction of useful work
    /// — the energy-waste rate on the same denominator as MPKI, using the
    /// measured instruction count the run actually observed.
    pub fn waste_mpki(&self) -> f64 {
        crate::per_kilo_instruction(self.wrong_path_fetched, self.measured_instructions)
    }

    /// Fetch slots lost per kilo-instruction of useful work (the
    /// performance cost on the MPKI denominator).
    pub fn loss_mpki(&self) -> f64 {
        crate::per_kilo_instruction(self.slots_lost_on_correct, self.measured_instructions)
    }

    /// Fetch slots lost per branch (a proxy for the performance cost of the
    /// policy).
    pub fn loss_per_branch(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.slots_lost_on_correct / self.branches as f64
        }
    }
}

impl fmt::Display for GatingResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: waste {:.2} instr/branch, loss {:.2} slots/branch",
            self.trace_name,
            self.waste_per_branch(),
            self.loss_per_branch()
        )
    }
}

/// The gating front-end accounting as a generic engine observer: charges
/// each confidence-graded prediction with the policy's energy/performance
/// cost. Works with any predictor driven through the engine.
#[derive(Debug)]
pub struct GatingObserver {
    policy: GatingPolicy,
    model: GatingModel,
    /// Wrong-path instructions fetched (energy waste).
    pub wrong_path_fetched: f64,
    /// Fetch slots lost on gated/throttled correct predictions.
    pub slots_lost_on_correct: f64,
    /// Wrong-path instructions avoided relative to never gating.
    pub wrong_path_avoided: f64,
}

impl GatingObserver {
    /// Creates an observer for the given policy and cost model.
    pub fn new(policy: GatingPolicy, model: GatingModel) -> Self {
        GatingObserver {
            policy,
            model,
            wrong_path_fetched: 0.0,
            slots_lost_on_correct: 0.0,
            wrong_path_avoided: 0.0,
        }
    }
}

impl<P: PredictorCore> EngineObserver<P> for GatingObserver {
    fn on_branch(&mut self, _predictor: &mut P, event: &BranchEvent<'_, P::Lookup>) {
        // Keep the cost accounting on the same region as the engine's
        // measured branch counts, so per-branch ratios stay consistent when
        // the engine runs with a warm-up prefix.
        if !event.in_measurement {
            return;
        }
        let action = self.policy.action(event.assessment.level);
        match (action, event.mispredicted) {
            (GatingAction::Fetch, true) => {
                self.wrong_path_fetched += self.model.wrong_path_instructions;
            }
            (GatingAction::Fetch, false) => {}
            (GatingAction::Throttle, true) => {
                let fetched = self.model.wrong_path_instructions * self.model.throttle_factor;
                self.wrong_path_fetched += fetched;
                self.wrong_path_avoided += self.model.wrong_path_instructions - fetched;
            }
            (GatingAction::Throttle, false) => {
                self.slots_lost_on_correct +=
                    self.model.wrong_path_instructions * (1.0 - self.model.throttle_factor);
            }
            (GatingAction::Gate, true) => {
                self.wrong_path_avoided += self.model.wrong_path_instructions;
            }
            (GatingAction::Gate, false) => {
                self.slots_lost_on_correct += self.model.wrong_path_instructions;
            }
        }
    }
}

/// Simulates a gating policy on top of a TAGE predictor and its storage-free
/// confidence classifier.
pub fn simulate_gating(
    config: &TageGeometry,
    trace: &Trace,
    policy: GatingPolicy,
    model: &GatingModel,
) -> GatingResult {
    let mut source = SliceSource::from_trace(trace);
    simulate_gating_source(config, &mut source, policy, model)
        .expect("in-memory slice sources are infallible")
}

/// [`simulate_gating`] over a streaming [`BranchSource`], so front-end
/// energy studies run on out-of-core traces too.
///
/// # Errors
///
/// Propagates the first [`FormatError`] the source reports.
pub fn simulate_gating_source<S: BranchSource + ?Sized>(
    config: &TageGeometry,
    source: &mut S,
    policy: GatingPolicy,
    model: &GatingModel,
) -> Result<GatingResult, FormatError> {
    let mut engine = SimEngine::new(
        TagePredictor::new(config.clone()),
        TageConfidenceClassifier::new(config),
    );
    let trace_name = source.name().to_string();
    let mut observer = GatingObserver::new(policy, *model);
    let summary = engine.run_source(source, &mut observer)?;
    Ok(GatingResult {
        trace_name,
        policy,
        branches: summary.measured_branches,
        mispredictions: summary.measured_mispredictions,
        measured_instructions: summary.measured_instructions,
        wrong_path_fetched: observer.wrong_path_fetched,
        slots_lost_on_correct: observer.slots_lost_on_correct,
        wrong_path_avoided: observer.wrong_path_avoided,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage::CounterAutomaton;
    use tage_traces::suites;

    fn trace() -> Trace {
        suites::cbp1_like().trace("MM-5").unwrap().generate(30_000)
    }

    fn config() -> TageGeometry {
        TageGeometry::small().with_automaton(CounterAutomaton::paper_default())
    }

    #[test]
    fn never_gating_wastes_the_most_and_loses_nothing() {
        let trace = trace();
        let never = simulate_gating(
            &config(),
            &trace,
            GatingPolicy::never(),
            &GatingModel::default(),
        );
        let gate = simulate_gating(
            &config(),
            &trace,
            GatingPolicy::gate_low(),
            &GatingModel::default(),
        );
        assert!(never.wrong_path_fetched > gate.wrong_path_fetched);
        assert_eq!(never.slots_lost_on_correct, 0.0);
        assert_eq!(never.wrong_path_avoided, 0.0);
        assert!(gate.slots_lost_on_correct > 0.0);
        assert!(gate.wrong_path_avoided > 0.0);
    }

    #[test]
    fn confidence_gating_avoids_more_waste_than_it_costs() {
        // Because low-confidence predictions mispredict ≳ 30 % of the time,
        // gating them should avoid more wrong-path fetch than the slots it
        // loses by a healthy factor ≥ the low-confidence accuracy trade-off.
        let trace = trace();
        let gate = simulate_gating(
            &config(),
            &trace,
            GatingPolicy::gate_low(),
            &GatingModel::default(),
        );
        assert!(
            gate.wrong_path_avoided > gate.slots_lost_on_correct * 0.25,
            "avoided {} vs lost {}",
            gate.wrong_path_avoided,
            gate.slots_lost_on_correct
        );
    }

    #[test]
    fn three_level_policy_sits_between_never_and_gate_low() {
        let trace = trace();
        let never = simulate_gating(
            &config(),
            &trace,
            GatingPolicy::never(),
            &GatingModel::default(),
        );
        let three = simulate_gating(
            &config(),
            &trace,
            GatingPolicy::gate_low_throttle_medium(),
            &GatingModel::default(),
        );
        assert!(three.wrong_path_fetched < never.wrong_path_fetched);
        assert!(three.waste_per_branch() < never.waste_per_branch());
        assert!(three.waste_mpki() < never.waste_mpki());
        assert!(three.loss_per_branch() > 0.0);
        assert!(three.loss_mpki() > 0.0);
    }

    /// The per-kilo-instruction rates divide by the measured instruction
    /// count, not the branch count — the regression the `waste_per_branch`
    /// doc mix-up hid.
    #[test]
    fn waste_mpki_normalizes_by_instructions_not_branches() {
        let trace = trace();
        let result = simulate_gating(
            &config(),
            &trace,
            GatingPolicy::never(),
            &GatingModel::default(),
        );
        assert_eq!(result.measured_instructions, trace.instruction_count());
        assert!(
            result.measured_instructions > result.branches,
            "traces carry non-branch instructions, so the two denominators differ"
        );
        let expected_mpki =
            result.wrong_path_fetched * 1000.0 / result.measured_instructions as f64;
        assert!((result.waste_mpki() - expected_mpki).abs() < 1e-12);
        let expected_per_branch = result.wrong_path_fetched / result.branches as f64;
        assert!((result.waste_per_branch() - expected_per_branch).abs() < 1e-12);
        assert!(
            result.waste_mpki() < result.waste_per_branch() * 1000.0,
            "per-KI waste must be measured against the larger instruction denominator"
        );
    }

    #[test]
    fn source_driven_gating_matches_the_materialized_path() {
        use tage_traces::source::SyntheticSource;
        let spec = suites::cbp1_like().trace("MM-5").unwrap().clone();
        let trace = spec.generate(30_000);
        let reference = simulate_gating(
            &config(),
            &trace,
            GatingPolicy::gate_low(),
            &GatingModel::default(),
        );
        let mut source = SyntheticSource::from_spec(&spec, 30_000);
        let streamed = simulate_gating_source(
            &config(),
            &mut source,
            GatingPolicy::gate_low(),
            &GatingModel::default(),
        )
        .unwrap();
        assert_eq!(streamed, reference);
    }

    #[test]
    fn policy_accessors_and_display() {
        let policy = GatingPolicy::gate_low_throttle_medium();
        assert_eq!(policy.action(ConfidenceLevel::Low), GatingAction::Gate);
        assert_eq!(
            policy.action(ConfidenceLevel::Medium),
            GatingAction::Throttle
        );
        assert_eq!(policy.action(ConfidenceLevel::High), GatingAction::Fetch);
        let trace = suites::cbp1_like().trace("FP-1").unwrap().generate(1_000);
        let result = simulate_gating(&config(), &trace, policy, &GatingModel::default());
        assert!(format!("{result}").contains("FP-1"));
        assert_eq!(result.branches, 1_000);
    }
}
