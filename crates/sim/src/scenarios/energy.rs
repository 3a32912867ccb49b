//! Misprediction-recovery **energy model**, driven by confidence classes.
//!
//! Pipeline flush-and-refill is one of the dominant dynamic-energy costs a
//! branch misprediction incurs, and confidence estimation is the classic
//! lever on it (Manne et al.): a core that knows which predictions are
//! shaky can spend a small amount of energy up front (taking a rename/RAT
//! checkpoint at the shaky branch) to make the eventual recovery far
//! cheaper than a full front-end refill.
//!
//! The model charges two machines over the *same* prediction stream:
//!
//! * the **baseline** machine has no confidence information: every
//!   misprediction pays the full refill energy;
//! * the **confidence-driven** machine checkpoints every branch the scheme
//!   grades below high confidence (paying the checkpoint energy whether or
//!   not the branch mispredicts) and recovers through the checkpoint when
//!   such a branch mispredicts; high-confidence mispredictions — rare by
//!   construction — still pay the full refill.
//!
//! Every charge depends on a branch's confidence level and outcome alone,
//! so [`metrics`] derives the scenario from a run's per-level counts in its
//! [`ConfidenceReport`]. [`RecoveryEnergyObserver`] charges the same model
//! branch by branch; the tests hold the derivation to it bit for bit.
//!
//! Energy is reported per kilo-instruction (EPKI) off the measured
//! instruction stream. The report, like the observer, counts it from both
//! delivery paths ([`BranchEvent::instructions`] for conditional records,
//! [`EngineObserver::on_instructions`] for the rest) — each instruction
//! exactly once, the contract `crate::engine`'s accounting tests pin.

use tage_confidence::{ConfidenceLevel, ConfidenceReport};
use tage_predictors::PredictorCore;

use crate::engine::{BranchEvent, EngineObserver};
use crate::per_kilo_instruction;

/// Energy cost parameters, in nanojoules. The defaults are illustrative
/// magnitudes for a 4-wide core (a full refill re-fetches ≈ 64 slots; a
/// checkpoint is a few register-file writes), not silicon measurements —
/// what the scenario studies is the *ratio* structure, which is robust to
/// the absolute scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEnergyModel {
    /// Energy of a full pipeline flush + front-end refill on a
    /// misprediction without a checkpoint.
    pub refill_nj: f64,
    /// Energy of taking a checkpoint at a non-high-confidence branch
    /// (charged per such branch, mispredicted or not).
    pub checkpoint_nj: f64,
    /// Energy of recovering through a checkpoint when a checkpointed branch
    /// mispredicts.
    pub checkpoint_recovery_nj: f64,
}

impl Default for RecoveryEnergyModel {
    fn default() -> Self {
        RecoveryEnergyModel {
            refill_nj: 8.0,
            checkpoint_nj: 0.25,
            checkpoint_recovery_nj: 2.0,
        }
    }
}

/// Per-confidence-level branch and misprediction counters (indexed in
/// [`ConfidenceLevel::ALL`] order: low, medium, high).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelCounts {
    /// Predictions graded at each level.
    pub predictions: [u64; 3],
    /// Mispredictions among them.
    pub mispredictions: [u64; 3],
}

fn level_index(level: ConfidenceLevel) -> usize {
    match level {
        ConfidenceLevel::Low => 0,
        ConfidenceLevel::Medium => 1,
        ConfidenceLevel::High => 2,
    }
}

/// The recovery-energy accounting as a generic engine observer: attach it to
/// any predictor × confidence-scheme run and read the per-kilo-instruction
/// energy of the baseline vs the confidence-driven recovery machine.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEnergyObserver {
    model: RecoveryEnergyModel,
    /// Measured conditional branches.
    pub branches: u64,
    /// Measured instructions (both delivery paths, each counted once).
    pub instructions: u64,
    /// Checkpoints the confidence-driven machine took.
    pub checkpoints: u64,
    /// Recovery + checkpoint energy of the baseline machine.
    pub baseline_nj: f64,
    /// Recovery + checkpoint energy of the confidence-driven machine.
    pub confidence_nj: f64,
    /// Per-level prediction/misprediction counters.
    pub levels: LevelCounts,
}

impl RecoveryEnergyObserver {
    /// An observer charging the given cost model.
    pub fn new(model: RecoveryEnergyModel) -> Self {
        RecoveryEnergyObserver {
            model,
            branches: 0,
            instructions: 0,
            checkpoints: 0,
            baseline_nj: 0.0,
            confidence_nj: 0.0,
            levels: LevelCounts::default(),
        }
    }

    /// The cost model in effect.
    pub fn model(&self) -> &RecoveryEnergyModel {
        &self.model
    }

    /// Baseline recovery energy per kilo-instruction.
    pub fn baseline_epki(&self) -> f64 {
        per_kilo_instruction(self.baseline_nj, self.instructions)
    }

    /// Confidence-driven recovery energy per kilo-instruction.
    pub fn confidence_epki(&self) -> f64 {
        per_kilo_instruction(self.confidence_nj, self.instructions)
    }

    /// Fraction of the baseline recovery energy the confidence-driven
    /// machine saves, in percent — negative when the checkpoint overhead
    /// loses. A savings *fraction* is undefined against a zero baseline
    /// (nothing mispredicted, so nothing to save); by convention this
    /// returns 0 then, even when the confidence machine spent checkpoint
    /// energy — compare the raw [`RecoveryEnergyObserver::baseline_nj`] /
    /// [`RecoveryEnergyObserver::confidence_nj`] fields for that case.
    pub fn savings_pct(&self) -> f64 {
        savings_pct(self.baseline_nj, self.confidence_nj)
    }
}

/// The share of `baseline_nj` that `confidence_nj` saves, in percent; 0
/// against a zero baseline.
fn savings_pct(baseline_nj: f64, confidence_nj: f64) -> f64 {
    if baseline_nj == 0.0 {
        0.0
    } else {
        (baseline_nj - confidence_nj) * 100.0 / baseline_nj
    }
}

/// The recovery-energy scenario metrics of a run, derived from its report:
/// `baseline_epki_nj`, `confidence_epki_nj`, `savings_pct` and
/// `checkpoints`, in that order. With M mispredictions and P predictions
/// per confidence level, and I measured instructions,
///
/// * baseline energy = `refill_nj` · M(all levels),
/// * confidence energy = `refill_nj` · M(high) + `checkpoint_nj` ·
///   P(low, medium) + `checkpoint_recovery_nj` · M(low, medium),
/// * checkpoints = P(low, medium),
///
/// and each energy is reported per 1,000 of the I instructions. These are
/// the sums [`RecoveryEnergyObserver`] accumulates branch by branch. When
/// every cost is a small multiple of a power of two, as the default ones
/// are, each partial sum is exact in `f64`, so the derived values equal the
/// observer's bit for bit.
pub fn metrics(report: &ConfidenceReport, model: &RecoveryEnergyModel) -> Vec<(String, f64)> {
    let [low, medium, high] = ConfidenceLevel::ALL.map(|level| report.level(level));
    let checkpoints = low.predictions + medium.predictions;
    let baseline_nj = model.refill_nj * report.total().mispredictions as f64;
    let confidence_nj = model.refill_nj * high.mispredictions as f64
        + model.checkpoint_nj * checkpoints as f64
        + model.checkpoint_recovery_nj * (low.mispredictions + medium.mispredictions) as f64;
    let per_ki = |nj| per_kilo_instruction(nj, report.instructions());
    [
        ("baseline_epki_nj", per_ki(baseline_nj)),
        ("confidence_epki_nj", per_ki(confidence_nj)),
        ("savings_pct", savings_pct(baseline_nj, confidence_nj)),
        ("checkpoints", checkpoints as f64),
    ]
    .map(|(name, value)| (name.to_string(), value))
    .into()
}

impl Default for RecoveryEnergyObserver {
    fn default() -> Self {
        RecoveryEnergyObserver::new(RecoveryEnergyModel::default())
    }
}

impl<P: PredictorCore> EngineObserver<P> for RecoveryEnergyObserver {
    fn on_branch(&mut self, _predictor: &mut P, event: &BranchEvent<'_, P::Lookup>) {
        if !event.in_measurement {
            return;
        }
        self.branches += 1;
        self.instructions += event.instructions;
        let index = level_index(event.assessment.level);
        self.levels.predictions[index] += 1;
        if event.mispredicted {
            self.levels.mispredictions[index] += 1;
            self.baseline_nj += self.model.refill_nj;
        }
        if event.assessment.is_high() {
            if event.mispredicted {
                self.confidence_nj += self.model.refill_nj;
            }
        } else {
            self.checkpoints += 1;
            self.confidence_nj += self.model.checkpoint_nj;
            if event.mispredicted {
                self.confidence_nj += self.model.checkpoint_recovery_nj;
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

    fn run(branches: usize) -> (RecoveryEnergyObserver, crate::engine::EngineSummary) {
        let config = TageGeometry::small().with_automaton(CounterAutomaton::paper_default());
        let trace = tage_traces::suites::cbp1_like()
            .trace("MM-5")
            .unwrap()
            .generate(branches);
        let mut engine = SimEngine::new(
            TagePredictor::new(config.clone()),
            TageConfidenceClassifier::new(&config),
        );
        let mut observer = RecoveryEnergyObserver::default();
        let summary = engine.run(&trace, &mut observer);
        (observer, summary)
    }

    #[test]
    fn energy_accounting_matches_the_engine_summary() {
        let (observer, summary) = run(20_000);
        assert_eq!(observer.branches, summary.measured_branches);
        assert_eq!(observer.instructions, summary.measured_instructions);
        let mispredictions: u64 = observer.levels.mispredictions.iter().sum();
        assert_eq!(mispredictions, summary.measured_mispredictions);
        let predictions: u64 = observer.levels.predictions.iter().sum();
        assert_eq!(predictions, summary.measured_branches);
        // Baseline energy is exactly refills × mispredictions.
        let expected = mispredictions as f64 * RecoveryEnergyModel::default().refill_nj;
        assert!((observer.baseline_nj - expected).abs() < 1e-9);
    }

    #[test]
    fn confidence_driven_recovery_saves_energy_on_a_mispredicting_trace() {
        // Low-confidence classes concentrate the mispredictions (the paper's
        // core claim), so cheap checkpointed recovery on them beats paying
        // the full refill every time.
        let (observer, _) = run(30_000);
        assert!(observer.checkpoints > 0);
        assert!(
            observer.confidence_nj < observer.baseline_nj,
            "confidence {} nJ vs baseline {} nJ",
            observer.confidence_nj,
            observer.baseline_nj
        );
        assert!(observer.savings_pct() > 0.0);
        assert!(observer.baseline_epki() > observer.confidence_epki());
    }

    #[test]
    fn epki_is_per_kilo_instruction() {
        let (observer, summary) = run(5_000);
        let expected = observer.baseline_nj * 1000.0 / summary.measured_instructions as f64;
        assert!((observer.baseline_epki() - expected).abs() < 1e-12);
        let empty = RecoveryEnergyObserver::default();
        assert_eq!(empty.baseline_epki(), 0.0);
        assert_eq!(empty.savings_pct(), 0.0);
    }
}
