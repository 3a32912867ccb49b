//! Seeded workload inputs, report accounting and the cell classification
//! every workload shares.

use std::time::Instant;

use tage::LaneGroup;
use tage_bench::jsonish;
use tage_sim::point::{PredictorSpec, SchemeSpec, SweepPoint};
use tage_sim::scenarios::ScenarioSpec;
use tage_sim::DEFAULT_LANES;
use tage_traces::format::FormatError;
use tage_traces::source::BranchSource;
use tage_traces::{fnv1a64, BranchRecord, SplitMix64, Suite, TraceSpec};

/// A per-trace seed drawn from the workload seed, the suite and the
/// trace's position, so every trace of every suite gets its own stream.
pub fn derive_seed(seed: u64, salt: &str, index: usize) -> u64 {
    let mut rng = SplitMix64::new(
        seed ^ fnv1a64(salt.as_bytes()) ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    rng.next_u64()
}

/// A registry suite with every trace re-seeded from `seed`: the same trace
/// names and workload profiles, new record streams.
pub fn seeded_suite(base: &Suite, seed: u64) -> Suite {
    let traces = base
        .traces()
        .iter()
        .enumerate()
        .map(|(index, spec)| {
            TraceSpec::new(
                spec.name(),
                spec.profile().clone(),
                derive_seed(seed, base.name(), index),
            )
        })
        .collect();
    Suite::new(format!("{}-seed{seed}", base.name()), traces)
}

/// Pulls every record out of a source.
pub fn drain(source: &mut impl BranchSource) -> Result<Vec<BranchRecord>, FormatError> {
    let mut records = Vec::new();
    let mut batch = vec![BranchRecord::default(); 4096];
    loop {
        let filled = source.next_batch(&mut batch)?;
        if filled == 0 {
            return Ok(records);
        }
        records.extend_from_slice(&batch[..filled]);
    }
}

/// Conditional branches a set of rendered cells accounts for: the
/// represented `total_records` of a sampled cell, `predictions` otherwise.
pub fn accounted_branches(cells: &[String]) -> u64 {
    cells
        .iter()
        .map(|cell| {
            jsonish::number_field(cell, "total_records")
                .or_else(|| jsonish::number_field(cell, "predictions"))
                .unwrap_or(0.0) as u64
        })
        .sum()
}

/// Which execution path a cell takes under the multilane engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// Lane-batched through `run_specs_multilane`.
    Multilane,
    /// The scalar `SimEngine` path, with estimators or scenario observers.
    Scalar,
    /// The scalar path plus the interleaved shared-predictor pass.
    SharedPredictor,
    /// The phase-sampled path.
    Sampled,
}

impl CellKind {
    /// Label used in span and metric names.
    pub fn label(self) -> &'static str {
        match self {
            CellKind::Multilane => "multilane",
            CellKind::Scalar => "scalar",
            CellKind::SharedPredictor => "shared_predictor",
            CellKind::Sampled => "sampled",
        }
    }

    /// Every kind, in metric order.
    pub const ALL: [CellKind; 4] = [
        CellKind::Multilane,
        CellKind::Scalar,
        CellKind::SharedPredictor,
        CellKind::Sampled,
    ];
}

/// The documented batchability rule of `run_point_with_engine`: sampled
/// suites take the sampled path; the storage-free TAGE cell under the
/// baseline scenario, with a geometry `LaneGroup` supports, is
/// lane-batched; everything else falls back to the scalar engine.
pub fn cell_kind(point: &SweepPoint) -> CellKind {
    if point.suite.sampling().is_some() {
        return CellKind::Sampled;
    }
    let batchable = point.scheme == SchemeSpec::StorageFree
        && point.scenario == ScenarioSpec::Baseline
        && match &point.predictor {
            PredictorSpec::Tage(_) => true,
            PredictorSpec::Geometry { geometry, .. } => LaneGroup::supports(geometry),
            PredictorSpec::Baseline(_) => false,
        };
    if batchable {
        CellKind::Multilane
    } else if point.scenario == ScenarioSpec::SharedPredictor {
        CellKind::SharedPredictor
    } else {
        CellKind::Scalar
    }
}

/// Lanes a batched cell keeps busy when its streams start.
pub fn lanes_occupied(point: &SweepPoint) -> usize {
    point.suite.sources().len().min(DEFAULT_LANES)
}

/// One timed pass: its wall seconds, the branches its report accounts for,
/// and whether it ran under tracing.
pub struct Pass {
    /// Wall seconds.
    pub seconds: f64,
    /// Conditional branches the pass's report accounts for.
    pub branches: u64,
    /// Whether spans were recorded around the pass.
    pub traced: bool,
}

/// Branches per wall second over every pass with the given tracing: total
/// accounted branches over total wall time. Aggregating over the run,
/// rather than taking the median pass, keeps the figure steady when single
/// passes fall into a few schedule-dependent durations (six cells on two
/// workers finish in one of a handful of orders).
pub fn throughput(passes: &[Pass], traced: bool) -> f64 {
    let (branches, seconds) = passes
        .iter()
        .filter(|pass| pass.traced == traced)
        .fold((0u64, 0.0f64), |(b, s), pass| {
            (b + pass.branches, s + pass.seconds)
        });
    if seconds > 0.0 {
        branches as f64 / seconds
    } else {
        0.0
    }
}

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage_traces::source::{SamplingSpec, SourceSuite};
    use tage_traces::suites;

    #[test]
    fn seeded_suites_keep_names_and_profiles_but_change_streams() {
        let base = suites::cbp1_mini();
        let a = seeded_suite(&base, 1);
        let b = seeded_suite(&base, 2);
        assert_eq!(a.traces().len(), base.traces().len());
        for ((x, y), original) in a.traces().iter().zip(b.traces()).zip(base.traces()) {
            assert_eq!(x.name(), original.name());
            assert_ne!(x.seed(), y.seed());
        }
        assert_eq!(
            seeded_suite(&base, 1).traces()[2].seed(),
            a.traces()[2].seed()
        );
        assert_ne!(
            a.traces()[0].generate(500).records(),
            b.traces()[0].generate(500).records()
        );
    }

    #[test]
    fn throughput_aggregates_passes_of_one_kind() {
        let pass = |seconds, branches, traced| Pass {
            seconds,
            branches,
            traced,
        };
        let passes = [
            pass(1.0, 100, false),
            pass(3.0, 100, false),
            pass(1.0, 999, true),
        ];
        assert_eq!(throughput(&passes, false), 50.0);
        assert_eq!(throughput(&passes, true), 999.0);
        assert_eq!(throughput(&[], false), 0.0);
    }

    #[test]
    fn accounting_prefers_represented_records() {
        let cells = vec![
            "  {\"predictions\": 10, \"sampling\": {\"total_records\": 400}}".to_string(),
            "  {\"predictions\": 25}".to_string(),
        ];
        assert_eq!(accounted_branches(&cells), 425);
    }

    #[test]
    fn cells_classify_by_the_batchability_rule() {
        let suite: SourceSuite = suites::cbp1_mini().into();
        let point = |predictor: &str, scheme: &str, scenario: ScenarioSpec| SweepPoint {
            predictor: PredictorSpec::parse(predictor).unwrap(),
            scheme: SchemeSpec::parse(scheme).unwrap(),
            suite: suite.clone(),
            scenario,
        };
        let base = ScenarioSpec::Baseline;
        assert_eq!(
            cell_kind(&point("tage-16k", "storage-free", base)),
            CellKind::Multilane
        );
        assert_eq!(
            cell_kind(&point("tage-16k", "jrs-enhanced", base)),
            CellKind::Scalar
        );
        assert_eq!(
            cell_kind(&point("gshare", "self-confidence", base)),
            CellKind::Scalar
        );
        assert_eq!(
            cell_kind(&point(
                "tage-16k",
                "storage-free",
                ScenarioSpec::SharedPredictor
            )),
            CellKind::SharedPredictor
        );
        let mut sampled = point("tage-16k", "storage-free", base);
        sampled.suite = sampled.suite.with_sampling(SamplingSpec::default_plan());
        assert_eq!(cell_kind(&sampled), CellKind::Sampled);
        assert_eq!(lanes_occupied(&sampled), 4);
    }
}
