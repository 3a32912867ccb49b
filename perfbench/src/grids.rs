//! The two campaign-grid workloads: `grid_lanes` (the paper's grid, every
//! cell lane-batched) and `grid_scalar_skewed` (the comparison and scenario
//! grid, nearly every cell on the scalar engine, cell costs about 10x
//! apart).
//!
//! Each run builds the seeded grid, primes a cell store with one
//! checkpointed run, then loops for `--seconds`, alternating two passes:
//!
//! - a full campaign through `run_campaign_with_engine`, the primary pass
//!   behind `branches_per_s`;
//! - a resumed campaign through `run_campaign_checkpointed` whose store
//!   holds about the first half of the grid, as after a campaign killed
//!   half way: it restores those cells and computes and stores the rest
//!   (`warm_branches_per_s`).
//!
//! A resume that finds every cell takes about a millisecond of file and
//! syscall work, which swings far more with the host than the campaigns
//! do, so the warm pass keeps half of the grid to compute.

use std::time::Instant;

use tage::TagePredictor;
use tage_bench::campaign::{
    run_campaign_checkpointed, run_campaign_with_engine, validate_report, CampaignReport,
    CampaignSpec,
};
use tage_bench::cellstore::{cell_key, CellStore};
use tage_confidence::{EstimatorScheme, TageConfidenceClassifier};
use tage_predictors::{MarginPredictor, PredictorCore};
use tage_sim::engine::{BranchEvent, EngineObserver, ReportObserver, SimEngine};
use tage_sim::point::{PredictorSpec, SchemeSpec, SweepPoint};
use tage_sim::runner::run_source_observed;
use tage_sim::scenarios::energy::RecoveryEnergyObserver;
use tage_sim::scenarios::interference::run_shared_predictor;
use tage_sim::scenarios::prefetch::PrefetchObserver;
use tage_sim::scenarios::ScenarioSpec;
use tage_sim::{run_specs_multilane, EngineKind, RunOptions, DEFAULT_LANES};
use tage_traces::format::FormatError;
use tage_traces::source::{AnySource, SourceSuite, SyntheticSource};
use tage_traces::{suites, BranchRecord, Suite};

use crate::inputs::{
    accounted_branches, cell_kind, drain, lanes_occupied, seeded_suite, throughput, timed,
    CellKind, Pass,
};
use crate::layers::{self, LayerInputs};
use crate::spans::Tracer;
use crate::stats::{describe, median};
use crate::{Run, WORKERS};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Conditional branches of the trace the layer loops run over.
const LOOP_BRANCHES: usize = 200_000;

/// One grid workload: axis tokens, registry suites and trace length.
pub struct GridShape {
    /// Workload name.
    pub name: &'static str,
    /// Predictor axis.
    pub predictors: &'static [&'static str],
    /// Confidence-scheme axis.
    pub schemes: &'static [&'static str],
    /// Registry suites, each re-seeded per run.
    pub suites: fn() -> Vec<Suite>,
    /// Scenario axis.
    pub scenarios: &'static [&'static str],
    /// Conditional branches per trace.
    pub branches: usize,
}

/// TAGE 16K/64K/256K x storage-free x seeded CBP-1-like and CBP-2-like
/// 20-trace suites x baseline: six cells, each with all 16 lanes busy.
pub const LANES: GridShape = GridShape {
    name: "grid_lanes",
    predictors: &["tage-16k", "tage-64k", "tage-256k"],
    schemes: &["storage-free"],
    suites: || vec![suites::cbp1_like(), suites::cbp2_like()],
    scenarios: &["baseline"],
    branches: 50_000,
};

/// Five predictors x three schemes x a seeded CBP-1-mini x four scenarios:
/// 48 valid cells (46 on the scalar engine) and 12 skipped.
pub const SCALAR_SKEWED: GridShape = GridShape {
    name: "grid_scalar_skewed",
    predictors: &["tage-256k", "tage-16k", "bimodal", "gshare", "perceptron"],
    schemes: &["storage-free", "jrs-enhanced", "self-confidence"],
    suites: || vec![suites::cbp1_mini()],
    scenarios: &[
        "baseline",
        "recovery-energy",
        "prefetch-throttle",
        "shared-predictor",
    ],
    branches: 50_000,
};

fn build_spec(shape: &GridShape, seed: u64) -> CampaignSpec {
    CampaignSpec {
        label: shape.name.to_string(),
        predictors: shape
            .predictors
            .iter()
            .map(|t| PredictorSpec::parse(t).expect("registry predictor token"))
            .collect(),
        schemes: shape
            .schemes
            .iter()
            .map(|t| SchemeSpec::parse(t).expect("registry scheme token"))
            .collect(),
        suites: (shape.suites)()
            .iter()
            .map(|suite| SourceSuite::from_suite(&seeded_suite(suite, seed)))
            .collect(),
        scenarios: shape
            .scenarios
            .iter()
            .map(|t| ScenarioSpec::parse(t).expect("registry scenario token"))
            .collect(),
        branches_per_trace: shape.branches,
    }
}

/// A one-cell campaign over `point`.
fn single_cell(point: &SweepPoint, branches: usize) -> CampaignSpec {
    CampaignSpec {
        label: "engine-parity".to_string(),
        predictors: vec![point.predictor.clone()],
        schemes: vec![point.scheme],
        suites: vec![point.suite.clone()],
        scenarios: vec![point.scenario],
        branches_per_trace: branches,
    }
}

/// Cells a resumed campaign finds in the store: the first half of the grid,
/// rounded down to a multiple of the worker count. `steal_map` deals the
/// pending cells to the workers round-robin, so such a prefix leaves every
/// computed cell on the worker it runs on in a full campaign; shifting that
/// assignment made the allocator's per-thread arenas grow on some runs and
/// the peak RSS jump by several MB.
fn restored_prefix(cells: usize) -> usize {
    cells / 2 / WORKERS * WORKERS
}

/// Removes the stored cells after the restored prefix, as if the campaign
/// had been killed half way. Cell files are named
/// `<key as 16 hex digits>.cell` (see `tage_bench::cellstore`).
fn drop_second_half(store: &CellStore, keys: &[u64]) {
    for key in &keys[restored_prefix(keys.len())..] {
        let _ = std::fs::remove_file(store.dir().join(format!("{key:016x}.cell")));
    }
}

/// Checks a campaign report's timing-free bytes against the reference.
fn check_report(run: &mut Run, report: &CampaignReport, reference: &str, what: &str) {
    let bytes = report.render_json(false);
    run.check(bytes == reference, || {
        format!("{what}: timing-free report differs from the reference")
    });
    run.check(validate_report(&bytes).is_ok(), || {
        format!("{what}: report fails validate_report")
    });
}

pub fn run(run: &mut Run, shape: &GridShape) -> Result<(), String> {
    let seed = run.seed;
    run.param("predictors", shape.predictors.join(","));
    run.param("schemes", shape.schemes.join(","));
    run.param("scenarios", shape.scenarios.join(","));
    run.param("branches_per_trace", shape.branches);
    run.param("workers", WORKERS);
    run.param("engine", "multilane");

    // Set-up: the seeded grid, its cells and keys, and a cell store filled
    // by one checkpointed campaign (what the resumed passes read back).
    let store_dir = run.work.join("store");
    let mut setup_times = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let _ = std::fs::remove_dir_all(&store_dir);
        let (result, seconds) = timed(|| {
            run.tracer.span("setup", |t| -> Result<_, String> {
                let spec = build_spec(shape, seed);
                let (points, skipped) = spec.expand();
                let keys: Vec<u64> = points
                    .iter()
                    .map(|point| cell_key(spec.branches_per_trace, point))
                    .collect();
                let store = CellStore::new(&store_dir)
                    .map_err(|e| format!("cell store {}: {e}", store_dir.display()))?;
                let prime = t
                    .span(
                        "tage_bench::campaign::run_campaign_checkpointed[cold]",
                        |_| {
                            run_campaign_checkpointed(
                                &spec,
                                WORKERS,
                                EngineKind::Multilane,
                                &store,
                                None,
                            )
                        },
                    )
                    .map_err(|e| format!("priming campaign failed: {e}"))?;
                Ok((spec, points, skipped, keys, store, prime))
            })
        });
        setup_times.push(seconds);
        built = Some(result?);
    }
    let (spec, points, skipped, keys, store, prime) = built.expect("at least one set-up");
    run.set("setup_s", median(&setup_times));
    run.line(format!(
        "grid: {} cells ({} skipped), {} branches per trace",
        points.len(),
        skipped.len(),
        shape.branches
    ));
    run.ops(points.len() as u64, 0);
    let reference = prime.report.render_json(false);
    run.check(prime.executed == points.len(), || {
        format!(
            "prime executed {} of {} cells",
            prime.executed,
            points.len()
        )
    });
    run.check(validate_report(&reference).is_ok(), || {
        "prime report fails validate_report".to_string()
    });
    engine_parity(run, &points, shape.branches);

    // Measured loop.
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(run.seconds);
    let mut primary = Vec::new();
    let mut warm = Vec::new();
    let mut last_report = None;
    let mut store_counts = None;
    let mut index = 0usize;
    while primary.is_empty() || Instant::now() < deadline {
        let traced = run.traced() && index % 2 == 1;
        index += 1;
        let (result, seconds) = timed(|| {
            if traced {
                run.tracer
                    .span("tage_bench::campaign::run_campaign_with_engine", |_| {
                        run_campaign_with_engine(&spec, WORKERS, EngineKind::Multilane)
                    })
            } else {
                run_campaign_with_engine(&spec, WORKERS, EngineKind::Multilane)
            }
        });
        match result {
            Ok(report) => {
                run.ops(points.len() as u64, 0);
                check_report(run, &report, &reference, "campaign");
                primary.push(Pass {
                    seconds,
                    branches: accounted_branches(&report.cell_bytes()),
                    traced,
                });
                last_report = Some(report);
            }
            Err(error) => run.op_failed("campaign", error),
        }
        drop_second_half(&store, &keys);
        let (result, seconds) = timed(|| {
            run.tracer.span(
                "tage_bench::campaign::run_campaign_checkpointed[resume]",
                |_| run_campaign_checkpointed(&spec, WORKERS, EngineKind::Multilane, &store, None),
            )
        });
        match result {
            Ok(resumed) => {
                run.ops(resumed.executed as u64, 0);
                let computed = points.len() - restored_prefix(points.len());
                run.check(
                    resumed.executed == computed && resumed.restored == points.len() - computed,
                    || {
                        format!(
                            "resumed campaign restored {} and executed {} of {} cells",
                            resumed.restored,
                            resumed.executed,
                            points.len()
                        )
                    },
                );
                check_report(run, &resumed.report, &reference, "resumed campaign");
                warm.push(Pass {
                    seconds,
                    branches: accounted_branches(&resumed.report.cell_bytes()),
                    traced,
                });
                store_counts.get_or_insert((store.hits(), store.misses()));
            }
            Err(error) => run.op_failed("resumed campaign", error),
        }
    }

    let campaign_s: Vec<f64> = primary.iter().map(|p| p.seconds).collect();
    run.line(format!("campaign wall: {}", describe(&campaign_s, "s")));
    let warm_s: Vec<f64> = warm.iter().map(|p| p.seconds).collect();
    run.line(format!("resumed campaign wall: {}", describe(&warm_s, "s")));
    let untraced = throughput(&primary, false);
    run.set("branches_per_s", untraced);
    run.set("warm_branches_per_s", throughput(&warm, false));

    if run.traced() {
        let traced = throughput(&primary, true);
        run.set(
            "bench.trace_overhead_pct",
            (untraced - traced) / untraced * 100.0,
        );
        if let Some((hits, misses)) = store_counts {
            run.set("bench.cellstore.hits", hits as f64);
            run.set("bench.cellstore.misses", misses as f64);
        }
        if let Some(report) = &last_report {
            campaign_layers(run, report, &points);
        }
        breakdown(&mut run.tracer, &points, shape.branches)
            .map_err(|e| format!("per-cell breakdown failed: {e}"))?;
        let cells: Vec<(SweepPoint, u64, String)> = points
            .iter()
            .cloned()
            .zip(keys.iter().copied())
            .zip(prime.report.cell_bytes())
            .map(|((point, key), bytes)| (point, key, bytes))
            .collect();
        layer_loops(run, &spec, &cells);
    }
    Ok(())
}

/// For the first lane-batchable cell, the multilane and scalar engines
/// must render the same timing-free bytes.
fn engine_parity(run: &mut Run, points: &[SweepPoint], branches: usize) {
    let Some(point) = points
        .iter()
        .find(|point| cell_kind(point) == CellKind::Multilane)
    else {
        return;
    };
    let spec = single_cell(point, branches);
    let render = |engine| run_campaign_with_engine(&spec, 1, engine).map(|r| r.render_json(false));
    match (render(EngineKind::Multilane), render(EngineKind::Scalar)) {
        (Ok(multilane), Ok(scalar)) => {
            run.ops(2, 0);
            run.check(multilane == scalar, || {
                format!(
                    "multilane and scalar reports differ for {} x {}",
                    point.predictor.label(),
                    point.suite.name()
                )
            });
        }
        (Err(error), _) | (_, Err(error)) => run.op_failed("engine parity campaign", error),
    }
}

/// Scheduling and per-cell metrics read from a timing-carrying report.
fn campaign_layers(run: &mut Run, report: &CampaignReport, points: &[SweepPoint]) {
    let mut busy = 0.0;
    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); CellKind::ALL.len()];
    for (cell, point) in report.points.iter().zip(points) {
        if let Some(computed) = cell.computed() {
            busy += computed.wall_seconds;
            let kind = CellKind::ALL
                .iter()
                .position(|&k| k == cell_kind(point))
                .expect("every kind is listed");
            by_kind[kind].push(computed.wall_seconds);
        }
    }
    let capacity = report.workers as f64 * report.wall_seconds;
    run.set("bench.campaign.busy_ratio", busy / capacity);
    // steal_map workers go idle only once every queue is empty, so all idle
    // worker time sits in the campaign's tail.
    run.set("bench.campaign.tail_idle_s", capacity - busy);
    run.set("bench.campaign.steals", report.steals as f64);
    for (kind, seconds) in CellKind::ALL.iter().zip(&by_kind) {
        if !seconds.is_empty() {
            run.set(
                &format!("sim.point.{}_cell_s", kind.label()),
                median(seconds),
            );
        }
    }
    let batched: Vec<f64> = points
        .iter()
        .filter(|p| cell_kind(p) == CellKind::Multilane)
        .map(|p| lanes_occupied(p) as f64)
        .collect();
    if !batched.is_empty() {
        run.set(
            "sim.multilane.lanes_occupied",
            batched.iter().sum::<f64>() / batched.len() as f64,
        );
    }
    let fallback = points
        .iter()
        .filter(|p| matches!(cell_kind(p), CellKind::Scalar | CellKind::SharedPredictor))
        .count();
    run.set("sim.multilane.scalar_fallback_cells", fallback as f64);
}

/// The scenario observers a scalar cell rides along its runs, as
/// `run_point_with_engine` builds them.
enum ScenarioObserver {
    None,
    Energy(Box<RecoveryEnergyObserver>),
    Prefetch(Box<PrefetchObserver>),
}

impl ScenarioObserver {
    fn for_spec(scenario: ScenarioSpec) -> Self {
        match scenario {
            ScenarioSpec::RecoveryEnergy => ScenarioObserver::Energy(Box::default()),
            ScenarioSpec::PrefetchThrottle => ScenarioObserver::Prefetch(Box::default()),
            ScenarioSpec::Baseline | ScenarioSpec::SharedPredictor => ScenarioObserver::None,
        }
    }
}

impl<P: PredictorCore> EngineObserver<P> for ScenarioObserver {
    fn on_branch(&mut self, predictor: &mut P, event: &BranchEvent<'_, P::Lookup>) {
        match self {
            ScenarioObserver::None => {}
            ScenarioObserver::Energy(observer) => observer.on_branch(predictor, event),
            ScenarioObserver::Prefetch(observer) => observer.on_branch(predictor, event),
        }
    }

    fn on_instructions(&mut self, instructions: u64, in_measurement: bool) {
        match self {
            ScenarioObserver::None => {}
            ScenarioObserver::Energy(observer) => {
                EngineObserver::<P>::on_instructions(&mut **observer, instructions, in_measurement)
            }
            ScenarioObserver::Prefetch(observer) => {
                EngineObserver::<P>::on_instructions(&mut **observer, instructions, in_measurement)
            }
        }
    }
}

/// Runs every cell once more through the public functions `point.rs`
/// calls, each inside its own span, so the traced run attributes cell time
/// to source opening, the lane engine, the scalar runner, the estimator
/// engine and the shared-predictor pass.
fn breakdown(
    tracer: &mut Tracer,
    points: &[SweepPoint],
    branches: usize,
) -> Result<(), FormatError> {
    let options = RunOptions::default();
    for point in points {
        let kind = cell_kind(point);
        tracer.span(&format!("cell.{}", kind.label()), |t| match kind {
            CellKind::Multilane => {
                let blueprint = point
                    .predictor
                    .tage_blueprint()
                    .expect("batched cells are TAGE");
                t.span("tage_sim::multilane::run_specs_multilane", |_| {
                    run_specs_multilane(
                        blueprint,
                        point.suite.sources(),
                        branches,
                        &options,
                        DEFAULT_LANES,
                    )
                })
                .map(drop)
            }
            CellKind::Scalar | CellKind::SharedPredictor => {
                let mut scenario = ScenarioObserver::for_spec(point.scenario);
                for spec in point.suite.sources() {
                    let mut source = t.span("tage_traces::source::SourceSpec::open", |_| {
                        spec.open(branches)
                    })?;
                    scalar_source(t, point, &mut source, &mut scenario, &options)?;
                }
                if kind == CellKind::SharedPredictor {
                    t.span(
                        "tage_sim::scenarios::interference::run_shared_predictor",
                        |_| shared_pass(point, branches),
                    )?;
                }
                Ok(())
            }
            CellKind::Sampled => unreachable!("grid workloads carry no sampled suites"),
        })?;
    }
    Ok(())
}

fn scalar_source(
    tracer: &mut Tracer,
    point: &SweepPoint,
    source: &mut AnySource,
    scenario: &mut ScenarioObserver,
    options: &RunOptions,
) -> Result<(), FormatError> {
    let threshold = point.predictor.self_confidence_threshold();
    match (&point.predictor, point.scheme) {
        (predictor, SchemeSpec::StorageFree) => {
            let blueprint = predictor
                .tage_blueprint()
                .expect("validated storage-free cell");
            tracer
                .span("tage_sim::runner::run_source_observed", |_| {
                    run_source_observed(blueprint, source, options, scenario)
                })
                .map(drop)
        }
        (PredictorSpec::Baseline(baseline), SchemeSpec::Estimator(estimator)) => tracer
            .span("tage_sim::engine::SimEngine::run_source", |_| {
                let mut engine = SimEngine::new(
                    MarginPredictor(baseline.build()),
                    EstimatorScheme(estimator.build(threshold)),
                );
                let mut report = ReportObserver::default();
                engine.run_source(source, &mut (&mut report, &mut *scenario))
            })
            .map(drop),
        (predictor, SchemeSpec::Estimator(estimator)) => {
            let blueprint = predictor
                .tage_blueprint()
                .expect("non-baseline specs are TAGE");
            tracer
                .span("tage_sim::engine::SimEngine::run_source", |_| {
                    let mut engine = SimEngine::new(
                        MarginPredictor(TagePredictor::new(blueprint)),
                        EstimatorScheme(estimator.build(threshold)),
                    );
                    let mut report = ReportObserver::default();
                    engine.run_source(source, &mut (&mut report, &mut *scenario))
                })
                .map(drop)
        }
    }
}

/// The shared-predictor pass: every source as one core's stream into a
/// single engine for the cell's predictor and scheme.
fn shared_pass(point: &SweepPoint, branches: usize) -> Result<(), FormatError> {
    let sources = point
        .suite
        .sources()
        .iter()
        .map(|spec| spec.open(branches))
        .collect::<Result<Vec<_>, _>>()?;
    let threshold = point.predictor.self_confidence_threshold();
    match (&point.predictor, point.scheme) {
        (predictor, SchemeSpec::StorageFree) => {
            let blueprint = predictor
                .tage_blueprint()
                .expect("validated storage-free cell");
            let mut engine = SimEngine::new(
                TagePredictor::new(blueprint),
                TageConfidenceClassifier::new(blueprint),
            );
            run_shared_predictor(&mut engine, sources).map(drop)
        }
        (PredictorSpec::Baseline(baseline), SchemeSpec::Estimator(estimator)) => {
            let mut engine = SimEngine::new(
                MarginPredictor(baseline.build()),
                EstimatorScheme(estimator.build(threshold)),
            );
            run_shared_predictor(&mut engine, sources).map(drop)
        }
        (predictor, SchemeSpec::Estimator(estimator)) => {
            let blueprint = predictor
                .tage_blueprint()
                .expect("non-baseline specs are TAGE");
            let mut engine = SimEngine::new(
                MarginPredictor(TagePredictor::new(blueprint)),
                EstimatorScheme(estimator.build(threshold)),
            );
            run_shared_predictor(&mut engine, sources).map(drop)
        }
    }
}

/// The isolated layer loops over this grid's own traces.
fn layer_loops(run: &mut Run, spec: &CampaignSpec, cells: &[(SweepPoint, u64, String)]) {
    let suite = &spec.suites[0];
    let specs: Vec<_> = suite
        .sources()
        .iter()
        .filter_map(|source| match source {
            tage_traces::source::SourceSpec::Synthetic(spec) => Some(spec.clone()),
            _ => None,
        })
        .collect();
    let generate = |spec: &tage_traces::TraceSpec, branches: usize| -> Vec<BranchRecord> {
        drain(&mut SyntheticSource::from_spec(spec, branches)).expect("synthetic sources")
    };
    let records = generate(&specs[0], LOOP_BRANCHES);
    let streams: Vec<Vec<BranchRecord>> = specs
        .iter()
        .take(DEFAULT_LANES)
        .map(|s| generate(s, LOOP_BRANCHES / 4))
        .collect();
    let inputs = LayerInputs {
        records: &records,
        streams: &streams,
        synthetic: &specs[..specs.len().min(4)],
        synthetic_branches: spec.branches_per_trace,
        files: None,
        cells,
    };
    let scratch = run.work.clone();
    layers::measure(run, &inputs, &scratch);
}
