//! Confidence-driven **prefetch throttling**.
//!
//! A hardware prefetcher keeps issuing requests into the shadow of every
//! unresolved branch. When that branch was mispredicted, the shadow is
//! wrong-path work: the prefetches drag useless lines across the memory
//! hierarchy (bandwidth, cache pollution, DRAM energy). Branch confidence
//! is the natural throttle — suppress prefetch issue behind predictions the
//! scheme grades shaky, keep it running behind confident ones.
//!
//! [`PrefetchObserver`] charges an analytical per-branch model of that
//! trade-off, the same shadow model as classic fetch gating (Manne et al.):
//! every measured branch carries a shadow of
//! [`PrefetchModel::shadow_prefetches`] would-be prefetch issues, of which
//! a [`PrefetchModel::useful_fraction`] would have been useful had the
//! prediction been correct (wrong-path prefetches are useless by
//! definition). A [`PrefetchPolicy`] maps each confidence level to
//! issue/suppress; the observer accumulates
//!
//! * **useless traffic avoided** — suppressed prefetches that would have
//!   been useless (the win), and
//! * **coverage lost** — suppressed prefetches that would have been useful
//!   (the cost),
//!
//! reported per kilo-instruction off the measured instruction stream.
//!
//! Fetch gating reads off the same accumulators. Gating fetch behind
//! low-confidence predictions, with 64 wrong-path instructions per shadow,
//! is this observer at the default model and
//! [`PrefetchPolicy::throttle_low`] in other units: it fetches
//! 16 × (`useless_issued` − `useful_issued`) wrong-path instructions,
//! avoids 16 × (`useless_avoided` − `coverage_lost`), and loses
//! 32 × `coverage_lost` fetch slots on correct predictions.

use core::fmt;

use tage_confidence::ConfidenceLevel;
use tage_predictors::PredictorCore;

use crate::engine::{BranchEvent, EngineObserver};
use crate::per_kilo_instruction;

/// What the prefetcher does in the shadow of a branch at a given
/// confidence level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchAction {
    /// Keep issuing prefetches at the full rate.
    Issue,
    /// Suppress prefetch issue until the branch resolves.
    Suppress,
}

/// A throttling policy: one action per confidence level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchPolicy {
    /// Action behind low-confidence predictions.
    pub on_low: PrefetchAction,
    /// Action behind medium-confidence predictions.
    pub on_medium: PrefetchAction,
    /// Action behind high-confidence predictions.
    pub on_high: PrefetchAction,
}

impl PrefetchPolicy {
    /// Never throttle (the baseline prefetcher).
    pub fn never() -> Self {
        PrefetchPolicy {
            on_low: PrefetchAction::Issue,
            on_medium: PrefetchAction::Issue,
            on_high: PrefetchAction::Issue,
        }
    }

    /// Suppress behind low-confidence predictions only.
    pub fn throttle_low() -> Self {
        PrefetchPolicy {
            on_low: PrefetchAction::Suppress,
            on_medium: PrefetchAction::Issue,
            on_high: PrefetchAction::Issue,
        }
    }

    /// Suppress behind low- and medium-confidence predictions — the
    /// aggressive end of the trade-off.
    pub fn throttle_low_medium() -> Self {
        PrefetchPolicy {
            on_low: PrefetchAction::Suppress,
            on_medium: PrefetchAction::Suppress,
            on_high: PrefetchAction::Issue,
        }
    }

    /// The action for a given confidence level.
    pub fn action(&self, level: ConfidenceLevel) -> PrefetchAction {
        match level {
            ConfidenceLevel::Low => self.on_low,
            ConfidenceLevel::Medium => self.on_medium,
            ConfidenceLevel::High => self.on_high,
        }
    }
}

/// Cost parameters of the prefetch shadow model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchModel {
    /// Prefetch requests the prefetcher would issue in the shadow of one
    /// unresolved branch (resolution latency × issue rate).
    pub shadow_prefetches: f64,
    /// Fraction of correct-path shadow prefetches that turn out useful
    /// (prefetcher accuracy); wrong-path shadows are useless regardless.
    pub useful_fraction: f64,
}

impl Default for PrefetchModel {
    fn default() -> Self {
        PrefetchModel {
            // 16-cycle resolution, one prefetch per 4 cycles.
            shadow_prefetches: 4.0,
            useful_fraction: 0.5,
        }
    }
}

/// The prefetch-throttling accounting as a generic engine observer.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchObserver {
    policy: PrefetchPolicy,
    model: PrefetchModel,
    /// Measured conditional branches.
    pub branches: u64,
    /// Measured instructions (both delivery paths, each counted once).
    pub instructions: u64,
    /// Prefetches issued that were useful (correct-path, hit by demand).
    pub useful_issued: f64,
    /// Prefetches issued that were useless traffic (wrong-path shadows plus
    /// the inaccurate tail of correct-path shadows).
    pub useless_issued: f64,
    /// Useless prefetch traffic avoided by suppression (the throttling win).
    pub useless_avoided: f64,
    /// Useful prefetches lost to suppression (coverage cost).
    pub coverage_lost: f64,
}

impl PrefetchObserver {
    /// An observer charging the given policy and cost model.
    pub fn new(policy: PrefetchPolicy, model: PrefetchModel) -> Self {
        PrefetchObserver {
            policy,
            model,
            branches: 0,
            instructions: 0,
            useful_issued: 0.0,
            useless_issued: 0.0,
            useless_avoided: 0.0,
            coverage_lost: 0.0,
        }
    }

    /// The policy in effect.
    pub fn policy(&self) -> &PrefetchPolicy {
        &self.policy
    }

    /// The cost model in effect.
    pub fn model(&self) -> &PrefetchModel {
        &self.model
    }

    /// Useless prefetch traffic issued, per kilo-instruction.
    pub fn useless_issued_pki(&self) -> f64 {
        per_kilo_instruction(self.useless_issued, self.instructions)
    }

    /// Useless prefetch traffic avoided, per kilo-instruction.
    pub fn useless_avoided_pki(&self) -> f64 {
        per_kilo_instruction(self.useless_avoided, self.instructions)
    }

    /// Useful prefetch coverage lost, per kilo-instruction.
    pub fn coverage_lost_pki(&self) -> f64 {
        per_kilo_instruction(self.coverage_lost, self.instructions)
    }

    /// Useful prefetches preserved, per kilo-instruction.
    pub fn useful_issued_pki(&self) -> f64 {
        per_kilo_instruction(self.useful_issued, self.instructions)
    }
}

impl Default for PrefetchObserver {
    fn default() -> Self {
        PrefetchObserver::new(PrefetchPolicy::throttle_low(), PrefetchModel::default())
    }
}

impl fmt::Display for PrefetchObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "avoided {:.2} useless/KI at {:.2} coverage-lost/KI",
            self.useless_avoided_pki(),
            self.coverage_lost_pki()
        )
    }
}

impl<P: PredictorCore> EngineObserver<P> for PrefetchObserver {
    fn on_branch(&mut self, _predictor: &mut P, event: &BranchEvent<'_, P::Lookup>) {
        if !event.in_measurement {
            return;
        }
        self.branches += 1;
        self.instructions += event.instructions;
        let shadow = self.model.shadow_prefetches;
        let useful = shadow * self.model.useful_fraction;
        match (
            self.policy.action(event.assessment.level),
            event.mispredicted,
        ) {
            (PrefetchAction::Issue, true) => {
                // The whole shadow was wrong-path traffic.
                self.useless_issued += shadow;
            }
            (PrefetchAction::Issue, false) => {
                self.useful_issued += useful;
                self.useless_issued += shadow - useful;
            }
            (PrefetchAction::Suppress, true) => {
                self.useless_avoided += shadow;
            }
            (PrefetchAction::Suppress, false) => {
                self.coverage_lost += useful;
                self.useless_avoided += shadow - useful;
            }
        }
    }

    fn on_instructions(&mut self, instructions: u64, in_measurement: bool) {
        if in_measurement {
            self.instructions += instructions;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage::{CounterAutomaton, TageGeometry, TagePredictor};
    use tage_confidence::TageConfidenceClassifier;

    use crate::engine::SimEngine;

    fn run(policy: PrefetchPolicy) -> (PrefetchObserver, crate::engine::EngineSummary) {
        let config = TageGeometry::small().with_automaton(CounterAutomaton::paper_default());
        let trace = tage_traces::suites::cbp1_like()
            .trace("MM-5")
            .unwrap()
            .generate(25_000);
        let mut engine = SimEngine::new(
            TagePredictor::new(config.clone()),
            TageConfidenceClassifier::new(&config),
        );
        let mut observer = PrefetchObserver::new(policy, PrefetchModel::default());
        let summary = engine.run(&trace, &mut observer);
        (observer, summary)
    }

    #[test]
    fn never_throttling_issues_every_shadow() {
        let (observer, summary) = run(PrefetchPolicy::never());
        assert_eq!(observer.branches, summary.measured_branches);
        assert_eq!(observer.instructions, summary.measured_instructions);
        assert_eq!(observer.useless_avoided, 0.0);
        assert_eq!(observer.coverage_lost, 0.0);
        let total_shadow = observer.branches as f64 * PrefetchModel::default().shadow_prefetches;
        assert!(
            (observer.useful_issued + observer.useless_issued - total_shadow).abs() < 1e-6,
            "every shadow prefetch is either useful or useless"
        );
    }

    #[test]
    fn throttling_low_avoids_more_useless_traffic_than_coverage_it_costs() {
        // Low-confidence predictions mispredict ≳ 30 % of the time, so their
        // shadows are disproportionately wrong-path: suppressing them should
        // avoid more useless traffic than the useful coverage it loses.
        let (observer, _) = run(PrefetchPolicy::throttle_low());
        assert!(observer.useless_avoided > 0.0);
        assert!(observer.coverage_lost > 0.0);
        assert!(
            observer.useless_avoided > observer.coverage_lost,
            "avoided {} vs coverage lost {}",
            observer.useless_avoided,
            observer.coverage_lost
        );
        assert!(observer.useless_avoided_pki() > observer.coverage_lost_pki());
    }

    #[test]
    fn more_aggressive_throttling_trades_coverage_for_traffic() {
        let (low, _) = run(PrefetchPolicy::throttle_low());
        let (low_medium, _) = run(PrefetchPolicy::throttle_low_medium());
        assert!(low_medium.useless_avoided > low.useless_avoided);
        assert!(low_medium.coverage_lost > low.coverage_lost);
        assert!(low_medium.useless_issued < low.useless_issued);
    }

    #[test]
    fn policy_accessors_and_display() {
        let policy = PrefetchPolicy::throttle_low_medium();
        assert_eq!(
            policy.action(ConfidenceLevel::Low),
            PrefetchAction::Suppress
        );
        assert_eq!(
            policy.action(ConfidenceLevel::Medium),
            PrefetchAction::Suppress
        );
        assert_eq!(policy.action(ConfidenceLevel::High), PrefetchAction::Issue);
        let (observer, _) = run(policy);
        assert!(format!("{observer}").contains("useless/KI"));
        assert!(observer.useful_issued_pki() >= 0.0);
        assert!(observer.useless_issued_pki() > 0.0);
    }
}
