//! Confidence-driven application scenarios.
//!
//! The paper's storage-free confidence estimator matters through its
//! *applications*. This module houses the three the grid runs:
//!
//! * [`energy`] — misprediction-recovery energy: confidence-driven
//!   checkpointing vs full pipeline refill, reported as energy per
//!   kilo-instruction;
//! * [`interference`] — N-core shared-predictor interference: N per-core
//!   streams interleaved into one shared predictor + classifier, measuring
//!   the MPKI cost of cross-core aliasing vs private predictors;
//! * [`prefetch`] — confidence-driven prefetch throttling: useless
//!   wrong-path prefetch traffic avoided vs useful coverage lost.
//!
//! The energy and prefetch models charge each branch by its confidence
//! level and outcome alone, so [`energy::metrics`] and
//! [`prefetch::metrics`] derive them from a run's
//! [`ConfidenceReport`](tage_confidence::ConfidenceReport), and a cell of
//! either scenario needs no simulation beyond its baseline cell's. Each
//! module also keeps its model as a per-branch
//! [`EngineObserver`](crate::engine::EngineObserver), which the tests hold
//! the derivation to. The interference scenario runs an interleaved pass
//! of its own.
//!
//! Each scenario is campaign-runnable: [`ScenarioSpec`] is the grid token
//! the sweep-point layer ([`crate::point`]) and the `tage-bench` campaign
//! runner cross with the predictor × scheme × suite axes (`tage-bench
//! --scenario`), with deterministic, thread-placement-independent metrics.

pub mod energy;
pub mod interference;
pub mod prefetch;

use core::fmt;

/// One value of the scenario axis of a sweep grid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ScenarioSpec {
    /// Plain measurement — no scenario metrics.
    #[default]
    Baseline,
    /// The misprediction-recovery energy model ([`energy`]), with the
    /// default cost model.
    RecoveryEnergy,
    /// N-core shared-predictor interference ([`interference`]): every suite
    /// source becomes one core.
    SharedPredictor,
    /// Confidence-driven prefetch throttling ([`prefetch`]), suppressing
    /// behind low-confidence predictions with the default cost model.
    PrefetchThrottle,
}

/// The grid token of the plain (no-scenario) cell.
pub const BASELINE_TOKEN: &str = "baseline";

impl ScenarioSpec {
    /// Every scenario, in listing order.
    pub const ALL: [ScenarioSpec; 4] = [
        ScenarioSpec::Baseline,
        ScenarioSpec::RecoveryEnergy,
        ScenarioSpec::SharedPredictor,
        ScenarioSpec::PrefetchThrottle,
    ];

    /// Every grid token the scenario axis accepts, in listing order.
    pub fn known_tokens() -> Vec<String> {
        ScenarioSpec::ALL
            .iter()
            .map(|s| s.label().to_string())
            .collect()
    }

    /// Parses a grid token into a scenario spec.
    pub fn parse(token: &str) -> Option<Self> {
        ScenarioSpec::ALL
            .iter()
            .copied()
            .find(|s| s.label() == token)
    }

    /// The stable label naming this scenario in reports.
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioSpec::Baseline => BASELINE_TOKEN,
            ScenarioSpec::RecoveryEnergy => "recovery-energy",
            ScenarioSpec::SharedPredictor => "shared-predictor",
            ScenarioSpec::PrefetchThrottle => "prefetch-throttle",
        }
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_tokens_parse_and_label_round_trip() {
        let tokens = ScenarioSpec::known_tokens();
        assert_eq!(tokens.len(), 4);
        assert_eq!(tokens[0], BASELINE_TOKEN);
        for token in &tokens {
            let spec = ScenarioSpec::parse(token).expect("known token parses");
            assert_eq!(spec.label(), token);
            assert_eq!(format!("{spec}"), *token);
        }
        assert!(ScenarioSpec::parse("nonsense").is_none());
        assert_eq!(ScenarioSpec::default(), ScenarioSpec::Baseline);
    }
}
