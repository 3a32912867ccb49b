//! Cross-product campaign runner behind the `tage-bench` binary.
//!
//! A campaign is a declarative grid — predictor × confidence-scheme × suite
//! × scenario — expanded into [`SweepPoint`]s and executed through the
//! generic engine with a **work-stealing queue over the tasks of planned
//! groups** ([`tage_sim::engine::steal_map`]). [`plan`] groups the cells
//! that can share a pass over each trace: cells that differ only in scheme
//! or scenario run one predictor per trace between them (or one lane pass,
//! when every cell of the group can run on lanes), sampled cells that
//! differ only in predictor decode and phase-plan each trace once between
//! them, and a cell that shares with nothing is a group of one. An
//! unsampled group is one task; a sampled group is one task per trace.
//! Whichever task of a group finishes last assembles and persists the
//! group's cells. Each worker owns a deque of tasks, drains its own front,
//! and steals from the back of the most-loaded sibling when it runs dry. A
//! grid mixes 256 Kbit TAGE groups with tiny bimodal ones, so static
//! round-robin placement alone would leave workers idle behind the heavy
//! tail.
//!
//! Results land in per-point slots and are reported in grid-expansion order,
//! so the campaign report is **deterministic**: the same grid produces a
//! byte-identical report at any worker count, except for the explicitly
//! timing-carrying fields (per-point `wall_seconds` / `branches_per_sec` /
//! `shared_pass_cells` / `path` / `fallback` and the trailing `timing`
//! object), which [`CampaignReport::render_json`] can omit. A grouped
//! cell's `wall_seconds` is its equal share of the group's summed task
//! time. Its `path` names the engine that ran the group ([`CellPath`]),
//! and a cell that ran scalar under `--engine multilane` names why
//! ([`Fallback`]). The JSON schema is versioned ([`SCHEMA_VERSION`]) and
//! [`validate_report`] structurally checks a rendered report, which is what
//! `tage-bench --check` and the CI campaign-smoke job run.
//!
//! Campaigns can also run **checkpointed**
//! ([`run_campaign_checkpointed`], `tage-bench --checkpoint/--resume`):
//! every finished cell's rendered timing-free bytes are persisted to a
//! shared content-addressed [`CellStore`] as it completes, and a later run
//! over the same grid restores finished cells verbatim instead of
//! re-executing them — so a killed mid-grid campaign resumes from where it
//! died and the resumed timing-free report byte-matches an uninterrupted
//! one. The same store backs the `tage-serve` campaign daemon
//! ([`crate::service`]), so CLI runs and daemon campaigns memoize into one
//! cache, and both run their cells through one executor (`execute_cells`):
//! same plan, same persistence, same predictor warm cache for
//! phase-sampled cells. Only the scheduling differs: the CLI deals a grid's
//! tasks to its workers, and each daemon worker runs one queued cell as a
//! one-job campaign on one worker, so a sampled cell alone still decodes
//! each trace once. A failed campaign names its first failed cell in grid
//! order ([`CampaignError`]), and the source error inside it names the
//! file.

use core::fmt;
use std::sync::Mutex;
use std::time::Instant;

use tage_confidence::ConfidenceLevel;
use tage_sim::engine::{steal_map, StealStats};
use tage_sim::point::{
    plan, CellPath, Fallback, GroupPlan, PointError, PointResult, PredictorSpec, SchemeSpec,
    SweepPoint, TaskRun,
};
use tage_sim::scenarios::{ScenarioSpec, BASELINE_TOKEN};
use tage_sim::{EngineKind, RunOptions};
use tage_traces::source::SourceSuite;

use crate::cellstore::{cell_key, CellStore};
use crate::jsonish;

/// Current schema version of the campaign report. Schema 2 added the
/// scenario axis: every point carries a `"scenario"` label, non-baseline
/// points carry a `"scenario_metrics"` object, and the grid lists its
/// `"scenarios"` tokens. Schema 3 adds exact storage accounting: every
/// point carries its predictor's `"storage_bits"`, and `--explore` runs
/// append a top-level `"explore"` section with the budget and the Pareto
/// front (see [`ExploreSection`]). Schema 4 adds phase sampling: cells
/// over a `sample:<suite>:<interval>:<k>:<seed>` suite carry a
/// `"sampling"` object with the plan and its deterministic accounting
/// (representative count, measured branches, total records), and their
/// counters are weighted reconstructions rather than raw measurements.
pub const SCHEMA_VERSION: u32 = 4;

/// The `campaign` discriminator field every report carries.
pub const CAMPAIGN_NAME: &str = "tage-bench";

/// A declarative campaign grid: the axis values plus the per-trace length.
///
/// The suite axis holds streaming [`SourceSuite`]s — synthetic registry
/// suites (convert a [`tage_traces::Suite`] with `.into()`) or file-backed
/// suites over on-disk binary traces (`SourceSuite::from_dir`) — so a
/// campaign never materializes its workloads.
#[derive(Debug)]
pub struct CampaignSpec {
    /// Label recorded in the report (e.g. a PR or experiment name).
    pub label: String,
    /// Predictor axis.
    pub predictors: Vec<PredictorSpec>,
    /// Confidence-scheme axis.
    pub schemes: Vec<SchemeSpec>,
    /// Suite axis.
    pub suites: Vec<SourceSuite>,
    /// Scenario axis ([`ScenarioSpec::Baseline`] is the plain measurement).
    pub scenarios: Vec<ScenarioSpec>,
    /// Conditional branches generated per trace of every synthetic suite
    /// (file-backed sources yield whatever their files hold).
    pub branches_per_trace: usize,
}

/// A grid cell that cannot execute (e.g. storage-free × gshare), recorded in
/// the report instead of silently dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedPoint {
    /// Predictor label.
    pub predictor: String,
    /// Scheme label.
    pub scheme: String,
    /// Suite name.
    pub suite: String,
    /// Scenario label.
    pub scenario: String,
    /// Why the cell cannot run.
    pub reason: String,
}

/// Why a campaign failed: the first cell in grid order that failed, and
/// its error.
#[derive(Debug, Clone)]
pub struct CampaignError {
    /// The failed cell, as `predictor × scheme × suite × scenario` labels.
    pub cell: String,
    /// Why it failed.
    pub error: PointError,
}

impl CampaignError {
    /// The failure of `point` with `error`.
    pub(crate) fn new(point: &SweepPoint, error: PointError) -> Self {
        CampaignError {
            cell: format!(
                "{} × {} × {} × {}",
                point.predictor.label(),
                point.scheme.label(),
                point.suite.name(),
                point.scenario.label()
            ),
            error,
        }
    }
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell {}: {}", self.cell, self.error)
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl CampaignSpec {
    /// Expands the cross product into executable sweep points (in
    /// deterministic predictor-major order, scenario innermost) plus the
    /// skipped cells.
    pub fn expand(&self) -> (Vec<SweepPoint>, Vec<SkippedPoint>) {
        let mut points = Vec::new();
        let mut skipped = Vec::new();
        for predictor in &self.predictors {
            for scheme in &self.schemes {
                for suite in &self.suites {
                    for scenario in &self.scenarios {
                        let point = SweepPoint {
                            predictor: predictor.clone(),
                            scheme: *scheme,
                            suite: suite.clone(),
                            scenario: *scenario,
                        };
                        match point.validate() {
                            Ok(()) => points.push(point),
                            Err(reason) => skipped.push(SkippedPoint {
                                predictor: predictor.label(),
                                scheme: scheme.label(),
                                suite: suite.name().to_string(),
                                scenario: scenario.label().to_string(),
                                reason: reason.to_string(),
                            }),
                        }
                    }
                }
            }
        }
        (points, skipped)
    }
}

/// One executed point plus its (non-deterministic) wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignPointReport {
    /// The point's deterministic result.
    pub result: PointResult,
    /// Wall-clock seconds the point took on its worker: for a cell that
    /// shared a predictor pass, its equal share of the pass's time, so the
    /// cells' seconds still sum to the workers' busy time.
    pub wall_seconds: f64,
    /// Cells that ran in the cell's predictor pass, itself included (1 for
    /// a cell that ran alone).
    pub shared_pass_cells: usize,
    /// The engine that ran the cell's group.
    pub path: CellPath,
    /// Why the cell ran scalar although the campaign asked for
    /// [`EngineKind::Multilane`]; `None` otherwise.
    pub fallback: Option<Fallback>,
}

/// One grid cell of a campaign report: either executed in this run, or
/// restored from a [`CellStore`] as the exact rendered timing-free bytes a
/// previous run stored. Restored cells are pasted verbatim by
/// [`CampaignReport::render_json`], which is what makes a resumed report
/// byte-identical to an uninterrupted one.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignCell {
    /// The cell was executed in this run (boxed: a point report is an order
    /// of magnitude larger than a restored cell's string header).
    Computed(Box<CampaignPointReport>),
    /// The cell was restored from the cell store; the string is the rendered
    /// timing-free report element (restored cells carry no wall time, so
    /// they render timing-free even in a timing report).
    Restored(String),
}

impl CampaignCell {
    /// The executed point behind this cell, when it ran in this run.
    pub fn computed(&self) -> Option<&CampaignPointReport> {
        match self {
            CampaignCell::Computed(point) => Some(point),
            CampaignCell::Restored(_) => None,
        }
    }
}

/// The full outcome of a campaign run.
#[derive(Debug)]
pub struct CampaignReport {
    /// Campaign label.
    pub label: String,
    /// Branches per trace every point used.
    pub branches_per_trace: usize,
    /// Predictor axis, as grid tokens.
    pub grid_predictors: Vec<String>,
    /// Scheme axis, as grid tokens.
    pub grid_schemes: Vec<String>,
    /// Suite axis, as suite names.
    pub grid_suites: Vec<String>,
    /// Scenario axis, as grid tokens.
    pub grid_scenarios: Vec<String>,
    /// The grid's cells — executed points and checkpoint-restored cells —
    /// in grid-expansion order.
    pub points: Vec<CampaignCell>,
    /// Grid cells that could not execute.
    pub skipped: Vec<SkippedPoint>,
    /// Worker threads used.
    pub workers: usize,
    /// Cross-worker steals the scheduler performed.
    pub steals: u64,
    /// Wall-clock seconds of the whole campaign.
    pub wall_seconds: f64,
    /// The design-space-exploration summary of a `--explore` run
    /// (`None` for ordinary campaigns).
    pub explore: Option<ExploreSection>,
}

/// The `"explore"` section of a schema-3 report: what budget the
/// design-space search ran under and which cells survived Pareto pruning.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreSection {
    /// The `--budget-bits` storage ceiling every candidate fits.
    pub budget_bits: u64,
    /// Number of candidate geometries the enumeration produced.
    pub candidates: usize,
    /// The Pareto-optimal cells (storage × accuracy × confidence quality),
    /// sorted by ascending storage.
    pub pareto: Vec<ParetoEntry>,
}

/// One Pareto-front member of an explore run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoEntry {
    /// Predictor label of the cell.
    pub predictor: String,
    /// Exact storage of the candidate, in bits.
    pub storage_bits: u64,
    /// Mean per-trace MPKI of the cell (lower is better).
    pub mean_mpki: f64,
    /// Misprediction rate of high-confidence predictions, in mispredictions
    /// per kilo-prediction (lower is better — the paper's confidence-quality
    /// axis).
    pub high_mprate_mkp: f64,
}

impl ExploreSection {
    /// Renders the section as the top-level report member (no leading
    /// comma, no trailing newline).
    fn render_json(&self) -> String {
        let entries: Vec<String> = self
            .pareto
            .iter()
            .map(|e| {
                format!(
                    "   {{\"predictor\": \"{}\", \"storage_bits\": {}, \"mean_mpki\": {:.6}, \"high_mprate_mkp\": {:.6}}}",
                    jsonish::escape(&e.predictor),
                    e.storage_bits,
                    e.mean_mpki,
                    e.high_mprate_mkp
                )
            })
            .collect();
        let pareto = if entries.is_empty() {
            "[]".to_string()
        } else {
            format!("[\n{}\n  ]", entries.join(",\n"))
        };
        format!(
            " \"explore\": {{\n  \"budget_bits\": {},\n  \"candidates\": {},\n  \"pareto\": {}\n }}",
            self.budget_bits, self.candidates, pareto
        )
    }
}

/// Expands and executes a campaign across `workers` threads, stealing work
/// across sweep points.
///
/// # Errors
///
/// Returns the first failed cell in grid-expansion order, as a
/// [`CampaignError`], when a point's sources fail to open or read (e.g. a
/// trace file of a file-backed suite vanished); invalid predictor/scheme
/// pairings are not errors — they are recorded as skipped cells.
pub fn run_campaign(spec: &CampaignSpec, workers: usize) -> Result<CampaignReport, CampaignError> {
    run_campaign_with_engine(spec, workers, EngineKind::Scalar)
}

/// [`run_campaign`] with an explicit engine choice for every point.
///
/// [`EngineKind::Multilane`] lane-batches the suite of each group whose
/// every cell can run on lanes (storage-free TAGE cells outside the
/// shared-predictor scenario); any other group, estimator cells and all,
/// runs its one scalar pass, and a timing report's `path` says which ran
/// and its `fallback` why. This composes with the cross-point work
/// stealing: the scheduler still steals tasks (a sampled group trace by
/// trace); the engine choice only changes how a task burns its worker.
/// Reports are bit-identical across engines — the campaign determinism
/// contract extends over this axis, and `campaign_determinism.rs`
/// byte-compares the two on the CI-size engine-parity grids.
pub fn run_campaign_with_engine(
    spec: &CampaignSpec,
    workers: usize,
    engine: EngineKind,
) -> Result<CampaignReport, CampaignError> {
    run_grid(spec, workers, engine, None, None).map(|run| run.report)
}

/// A report over `spec`'s grid with the given cells, in grid-expansion
/// order, and scheduling figures.
pub(crate) fn assemble_report(
    spec: &CampaignSpec,
    cells: Vec<CampaignCell>,
    skipped: Vec<SkippedPoint>,
    stats: StealStats,
    wall_seconds: f64,
) -> CampaignReport {
    CampaignReport {
        label: spec.label.clone(),
        branches_per_trace: spec.branches_per_trace,
        grid_predictors: spec.predictors.iter().map(PredictorSpec::label).collect(),
        grid_schemes: spec.schemes.iter().map(SchemeSpec::label).collect(),
        grid_suites: spec.suites.iter().map(|s| s.name().to_string()).collect(),
        grid_scenarios: spec
            .scenarios
            .iter()
            .map(|s| s.label().to_string())
            .collect(),
        points: cells,
        skipped,
        workers: stats.workers,
        steals: stats.steals,
        wall_seconds,
        explore: None,
    }
}

/// The outcome of one checkpointed campaign run: the (possibly partial)
/// report plus how the grid's executable cells were covered.
#[derive(Debug)]
pub struct CheckpointedRun {
    /// The campaign report. When `remaining > 0` it covers only the
    /// restored and executed cells (in grid-expansion order) and must not
    /// be published as a finished report.
    pub report: CampaignReport,
    /// Cells restored from the cell store instead of executed.
    pub restored: usize,
    /// Cells executed by this run.
    pub executed: usize,
    /// Executed cells the store failed to persist (a full disk, a vanished
    /// or read-only store directory). Their bytes are still correct and in
    /// the report; a resumed run recomputes them.
    pub store_errors: usize,
    /// Cells still unexecuted because `max_cells` capped this run; resume
    /// with the same store directory to continue.
    pub remaining: usize,
}

/// [`run_campaign_with_engine`] through a shared [`CellStore`]: cells
/// already finished in `store` are restored verbatim, the rest execute
/// and are persisted **as they complete** — a killed run keeps everything
/// it finished. `max_cells` caps how many cells this run executes (the CI
/// campaign-smoke job uses it to simulate a mid-grid kill deterministically).
///
/// Because restored cells are the exact rendered bytes an earlier run
/// stored, the timing-free report of a fully resumed campaign is
/// byte-identical to an uninterrupted run's. Cell keys are
/// content-addressed ([`cell_key`]) — they ignore the campaign label — so
/// two campaigns over overlapping grids share finished cells through one
/// store directory.
///
/// # Errors
///
/// Returns the first failed cell in grid-expansion order among the cells
/// this run executed, as a [`CampaignError`]. Cell *store* failures never
/// fail the run — a read-only store directory degrades to an ordinary run —
/// and are counted in [`CheckpointedRun::store_errors`].
pub fn run_campaign_checkpointed(
    spec: &CampaignSpec,
    workers: usize,
    engine: EngineKind,
    store: &CellStore,
    max_cells: Option<usize>,
) -> Result<CheckpointedRun, CampaignError> {
    run_grid(spec, workers, engine, Some(store), max_cells)
}

/// The campaign runner behind both public entry points: expands the grid,
/// restores what `store` holds, and runs up to `max_cells` of the rest, in
/// grid order, through [`execute_cells`].
fn run_grid(
    spec: &CampaignSpec,
    workers: usize,
    engine: EngineKind,
    store: Option<&CellStore>,
    max_cells: Option<usize>,
) -> Result<CheckpointedRun, CampaignError> {
    let (points, skipped) = spec.expand();
    let start = Instant::now();
    let mut cells: Vec<Option<CampaignCell>> = Vec::with_capacity(points.len());
    let mut pending = Vec::new();
    for point in points {
        let key = cell_key(spec.branches_per_trace, &point);
        let restored = store.and_then(|store| store.load_cell(key, &point));
        if restored.is_none() {
            pending.push(CellJob {
                key,
                point,
                branches_per_trace: spec.branches_per_trace,
            });
        }
        cells.push(restored.map(CampaignCell::Restored));
    }
    let restored = cells.len() - pending.len();
    let cap = max_cells.unwrap_or(pending.len()).min(pending.len());
    let run = execute_cells(&pending[..cap], workers, engine, store);
    // Executed cells fill the unrestored slots in grid order; slots past the
    // cap stay empty and drop out of the report.
    let mut executed = pending.iter().zip(run.cells);
    for slot in cells.iter_mut().filter(|slot| slot.is_none()).take(cap) {
        let (job, cell) = executed.next().expect("one executed cell per job");
        let cell = cell.map_err(|error| CampaignError::new(&job.point, error))?;
        *slot = Some(CampaignCell::Computed(Box::new(cell.report)));
    }
    Ok(CheckpointedRun {
        report: assemble_report(
            spec,
            cells.into_iter().flatten().collect(),
            skipped,
            run.stats,
            start.elapsed().as_secs_f64(),
        ),
        restored,
        executed: cap,
        store_errors: run.store_errors,
        remaining: pending.len() - cap,
    })
}

/// One grid cell handed to [`execute_cells`].
#[derive(Clone)]
pub(crate) struct CellJob {
    /// The cell's [`cell_key`]: where a store persists it.
    pub(crate) key: u64,
    /// The cell itself.
    pub(crate) point: SweepPoint,
    /// Conditional branches per synthetic trace.
    pub(crate) branches_per_trace: usize,
}

/// One cell [`execute_cells`] ran: its report and its rendered
/// timing-free bytes (what a store persists and a report pastes).
pub(crate) struct ExecutedCell {
    pub(crate) report: CampaignPointReport,
    pub(crate) rendered: String,
    /// Whether the store failed to persist the cell (a full disk, a vanished
    /// or read-only store directory); its bytes are still correct.
    pub(crate) store_failed: bool,
}

/// What [`execute_cells`] did with a list of cells.
pub(crate) struct Execution {
    /// One entry per job, in job order.
    pub(crate) cells: Vec<Result<ExecutedCell, PointError>>,
    /// The scheduler's statistics.
    pub(crate) stats: StealStats,
    /// Executed cells whose store write failed.
    pub(crate) store_errors: usize,
}

/// Runs `jobs` as [`plan`] groups them on `engine`, and returns the cells
/// in job order. [`steal_map`] deals every group's tasks to `workers`, in
/// the order of each group's first cell, as `--paper` shards a cell's
/// traces. Whichever of a group's tasks finishes last assembles, renders
/// and persists the group's cells ([`Completion`]).
pub(crate) fn execute_cells(
    jobs: &[CellJob],
    workers: usize,
    engine: EngineKind,
    store: Option<&CellStore>,
) -> Execution {
    let plans = plan(
        jobs.iter().map(|job| (&job.point, job.branches_per_trace)),
        &RunOptions::default(),
        engine,
    );
    let groups: Vec<Completion> = plans.iter().map(Completion::new).collect();
    let tasks: Vec<(usize, usize)> = plans
        .iter()
        .enumerate()
        .flat_map(|(group, plan)| (0..plan.tasks()).map(move |task| (group, task)))
        .collect();
    let (ran, stats) = steal_map(&tasks, workers, |&(group, task)| {
        groups[group].run_task(&plans[group], task, jobs, store)
    });
    let mut slots: Vec<Option<Result<ExecutedCell, PointError>>> =
        jobs.iter().map(|_| None).collect();
    for (&(group, _), cells) in tasks.iter().zip(ran) {
        for (&index, cell) in plans[group].cells().iter().zip(cells) {
            slots[index] = Some(cell);
        }
    }
    let cells: Vec<_> = slots
        .into_iter()
        .map(|cell| cell.expect("every job runs in one group"))
        .collect();
    let store_errors = cells
        .iter()
        .filter(|cell| cell.as_ref().is_ok_and(|cell| cell.store_failed))
        .count();
    Execution {
        cells,
        stats,
        store_errors,
    }
}

/// One task's run, or why it failed.
type TaskOutcome = Result<TaskRun, PointError>;

/// A planned group's task runs as its tasks finish: one slot per task, in
/// task order, and their summed time.
struct Completion {
    ran: Mutex<(Vec<Option<TaskOutcome>>, f64)>,
}

impl Completion {
    fn new(plan: &GroupPlan<'_>) -> Self {
        Completion {
            ran: Mutex::new(((0..plan.tasks()).map(|_| None).collect(), 0.0)),
        }
    }

    /// Runs task `task` of `plan`, whose cells are the `jobs` at its
    /// indexes; a phase-sampled task restores and stores checkpoints in the
    /// store's warm cache ([`CellStore::warm`]), which only such tasks
    /// open. When it is the group's last task to finish, assembles,
    /// renders and persists the group's cells and returns them; otherwise
    /// returns none. Each cell's wall time is its equal share of the group's
    /// summed task time. The first failed task in task order, which is
    /// suite order, fails every cell of the group.
    fn run_task(
        &self,
        plan: &GroupPlan<'_>,
        task: usize,
        jobs: &[CellJob],
        store: Option<&CellStore>,
    ) -> Vec<Result<ExecutedCell, PointError>> {
        let start = Instant::now();
        let warm = store.filter(|_| plan.path() == CellPath::Sampled);
        let run = plan.run_task(task, warm.and_then(CellStore::warm));
        let (runs, seconds) = {
            let mut ran = self.ran.lock().expect("a task of the group panicked");
            ran.0[task] = Some(run);
            ran.1 += start.elapsed().as_secs_f64();
            if ran.0.iter().any(Option::is_none) {
                return Vec::new();
            }
            let runs: Result<Vec<TaskRun>, PointError> = ran.0.drain(..).flatten().collect();
            (runs, ran.1)
        };
        let cells = plan.cells();
        let results = match runs {
            Ok(runs) => plan.assemble(runs),
            Err(error) => return cells.iter().map(|_| Err(error.clone())).collect(),
        };
        let wall_seconds = seconds / cells.len() as f64;
        cells
            .iter()
            .zip(results)
            .zip(plan.fallbacks())
            .map(|((&index, result), &fallback)| {
                let report = CampaignPointReport {
                    result,
                    wall_seconds,
                    shared_pass_cells: cells.len(),
                    path: plan.path(),
                    fallback,
                };
                let job = &jobs[index];
                let rendered = render_point_json(&report, false);
                let store_failed =
                    store.is_some_and(|store| store.store_cell(job.key, &rendered).is_err());
                Ok(ExecutedCell {
                    report,
                    rendered,
                    store_failed,
                })
            })
            .collect()
    }
}

fn render_token_array(tokens: &[String]) -> String {
    let quoted: Vec<String> = tokens
        .iter()
        .map(|t| format!("\"{}\"", jsonish::escape(t)))
        .collect();
    format!("[{}]", quoted.join(", "))
}

impl CampaignReport {
    /// The timing-free rendered bytes of every grid cell, in grid-expansion
    /// order: computed cells render fresh, restored cells return the exact
    /// bytes the checkpoint stored. Because both forms are byte-identical
    /// for the same cell, anything derived from these strings (the explore
    /// Pareto front) is independent of worker count, engine choice, and
    /// kill/resume history.
    pub fn cell_bytes(&self) -> Vec<String> {
        self.points
            .iter()
            .map(|cell| match cell {
                CampaignCell::Computed(point) => render_point_json(point, false),
                CampaignCell::Restored(rendered) => rendered.clone(),
            })
            .collect()
    }

    /// Renders the versioned JSON report.
    ///
    /// With `include_timing == false` every field that depends on how the
    /// run went (per-point `wall_seconds` / `branches_per_sec` /
    /// `shared_pass_cells` / `path`, the `fallback` of a cell that ran
    /// scalar under `--engine multilane`, the trailing `timing` object) is
    /// omitted, and the rendered bytes are identical for any worker count
    /// and engine — the determinism contract the campaign tests pin.
    pub fn render_json(&self, include_timing: bool) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(" \"campaign\": \"{CAMPAIGN_NAME}\",\n"));
        out.push_str(&format!(" \"schema\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!(
            " \"label\": \"{}\",\n",
            jsonish::escape(&self.label)
        ));
        out.push_str(&format!(
            " \"branches_per_trace\": {},\n",
            self.branches_per_trace
        ));
        out.push_str(" \"grid\": {\n");
        out.push_str(&format!(
            "  \"predictors\": {},\n",
            render_token_array(&self.grid_predictors)
        ));
        out.push_str(&format!(
            "  \"schemes\": {},\n",
            render_token_array(&self.grid_schemes)
        ));
        out.push_str(&format!(
            "  \"suites\": {},\n",
            render_token_array(&self.grid_suites)
        ));
        out.push_str(&format!(
            "  \"scenarios\": {}\n",
            render_token_array(&self.grid_scenarios)
        ));
        out.push_str(" },\n");
        let points: Vec<String> = self
            .points
            .iter()
            .map(|cell| match cell {
                CampaignCell::Computed(point) => render_point_json(point, include_timing),
                // Checkpoint-restored cells are already the rendered
                // timing-free bytes; paste them verbatim.
                CampaignCell::Restored(rendered) => rendered.clone(),
            })
            .collect();
        if points.is_empty() {
            out.push_str(" \"points\": [],\n");
        } else {
            out.push_str(&format!(" \"points\": [\n{}\n ],\n", points.join(",\n")));
        }
        let skipped: Vec<String> = self
            .skipped
            .iter()
            .map(|s| {
                format!(
                    "  {{\"predictor\": \"{}\", \"scheme\": \"{}\", \"suite\": \"{}\", \"scenario\": \"{}\", \"reason\": \"{}\"}}",
                    jsonish::escape(&s.predictor),
                    jsonish::escape(&s.scheme),
                    jsonish::escape(&s.suite),
                    jsonish::escape(&s.scenario),
                    jsonish::escape(&s.reason)
                )
            })
            .collect();
        if skipped.is_empty() {
            out.push_str(" \"skipped\": []");
        } else {
            out.push_str(&format!(" \"skipped\": [\n{}\n ]", skipped.join(",\n")));
        }
        if let Some(explore) = &self.explore {
            out.push_str(",\n");
            out.push_str(&explore.render_json());
        }
        if include_timing {
            out.push_str(",\n \"timing\": {\n");
            out.push_str(&format!("  \"workers\": {},\n", self.workers));
            out.push_str(&format!("  \"steals\": {},\n", self.steals));
            out.push_str(&format!("  \"wall_seconds\": {:.6}\n", self.wall_seconds));
            out.push_str(" }\n}\n");
        } else {
            out.push_str("\n}\n");
        }
        out
    }
}

/// Renders one executed point as a report-array element (the two-space
/// indented `{...}` line [`CampaignReport::render_json`] joins). The
/// timing-free rendering of this function is also exactly what a
/// [`CellStore`] cell stores.
pub(crate) fn render_point_json(point: &CampaignPointReport, include_timing: bool) -> String {
    let result = &point.result;
    let predictions = result.total_predictions();
    let mispredictions: u64 = result.traces.iter().map(|t| t.mispredictions).sum();
    let instructions: u64 = result.traces.iter().map(|t| t.instructions).sum();
    let mut fields = vec![
        format!("\"predictor\": \"{}\"", jsonish::escape(&result.predictor)),
        format!("\"scheme\": \"{}\"", jsonish::escape(&result.scheme)),
        format!("\"suite\": \"{}\"", jsonish::escape(&result.suite)),
        format!("\"scenario\": \"{}\"", jsonish::escape(&result.scenario)),
        format!("\"storage_bits\": {}", result.storage_bits),
        format!("\"traces\": {}", result.traces.len()),
        format!("\"predictions\": {predictions}"),
        format!("\"mispredictions\": {mispredictions}"),
        format!("\"instructions\": {instructions}"),
        format!("\"mean_mpki\": {:.6}", result.mean_mpki()),
        format!("\"aggregate_mkp\": {:.6}", result.aggregate.mkp()),
        format!(
            "\"high_pcov\": {:.6}",
            result.aggregate.level_pcov(ConfidenceLevel::High)
        ),
        format!(
            "\"high_mprate_mkp\": {:.6}",
            result.aggregate.level_mprate_mkp(ConfidenceLevel::High)
        ),
    ];
    if !result.scenario_metrics.is_empty() {
        let metrics: Vec<String> = result
            .scenario_metrics
            .iter()
            .map(|(name, value)| format!("\"{}\": {value:.6}", jsonish::escape(name)))
            .collect();
        fields.push(format!("\"scenario_metrics\": {{{}}}", metrics.join(", ")));
    }
    // Sampling accounting is deterministic by construction (see
    // `PointSamplingMetrics`), so it belongs in the timing-free cell bytes.
    if let Some(sampling) = &result.sampling {
        fields.push(format!(
            "\"sampling\": {{\"interval\": {}, \"k\": {}, \"seed\": {}, \"representatives\": {}, \"measured_branches\": {}, \"total_records\": {}}}",
            sampling.interval,
            sampling.k,
            sampling.seed,
            sampling.representatives,
            sampling.measured_branches,
            sampling.total_records
        ));
    }
    if include_timing {
        fields.push(format!("\"wall_seconds\": {:.6}", point.wall_seconds));
        let rate = if point.wall_seconds > 0.0 {
            predictions as f64 / point.wall_seconds
        } else {
            0.0
        };
        fields.push(format!("\"branches_per_sec\": {rate:.0}"));
        fields.push(format!(
            "\"shared_pass_cells\": {}",
            point.shared_pass_cells
        ));
        fields.push(format!("\"path\": \"{}\"", point.path.label()));
        if let Some(fallback) = point.fallback {
            fields.push(format!("\"fallback\": \"{}\"", fallback.label()));
        }
    }
    format!("  {{{}}}", fields.join(", "))
}

/// Summary of a structurally valid campaign report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidatedReport {
    /// Schema version the report carries.
    pub schema: u32,
    /// Number of executed points.
    pub points: usize,
    /// Number of skipped grid cells.
    pub skipped: usize,
}

/// Structurally validates a rendered campaign report: discriminator, schema
/// version, and the required fields of every point. This is the check the
/// CI campaign-smoke job runs on the uploaded artifact.
pub fn validate_report(json: &str) -> Result<ValidatedReport, String> {
    if jsonish::string_field(json, "campaign").as_deref() != Some(CAMPAIGN_NAME) {
        return Err(format!(
            "missing or wrong \"campaign\" discriminator (expected \"{CAMPAIGN_NAME}\")"
        ));
    }
    let schema = jsonish::number_field(json, "schema")
        .ok_or_else(|| "missing \"schema\" version".to_string())?;
    if schema != f64::from(SCHEMA_VERSION) {
        return Err(format!(
            "unsupported schema version {schema} (this build reads {SCHEMA_VERSION})"
        ));
    }
    let points = jsonish::extract_array_objects(json, "points");
    if points.is_empty() {
        return Err("report contains no executed points".to_string());
    }
    for (i, point) in points.iter().enumerate() {
        for key in ["predictor", "scheme", "suite", "scenario"] {
            if jsonish::string_field(point, key).is_none() {
                return Err(format!("point {i} is missing string field \"{key}\""));
            }
        }
        for key in [
            "storage_bits",
            "traces",
            "predictions",
            "mispredictions",
            "instructions",
            "mean_mpki",
            "aggregate_mkp",
            "high_pcov",
            "high_mprate_mkp",
        ] {
            if jsonish::number_field(point, key).is_none() {
                return Err(format!("point {i} is missing numeric field \"{key}\""));
            }
        }
        // Non-baseline scenario cells must carry their metrics object.
        let scenario = jsonish::string_field(point, "scenario").expect("checked above");
        if scenario != BASELINE_TOKEN && !point.contains("\"scenario_metrics\":") {
            return Err(format!(
                "point {i} runs scenario \"{scenario}\" but carries no \"scenario_metrics\""
            ));
        }
        // Sampled-suite cells must carry a complete sampling object (and
        // only sampled cells may carry one).
        let suite = jsonish::string_field(point, "suite").expect("checked above");
        let sampled_suite = suite.starts_with("sample:");
        let has_sampling = point.contains("\"sampling\":");
        if sampled_suite != has_sampling {
            return Err(format!(
                "point {i} over suite \"{suite}\" {} a \"sampling\" object",
                if sampled_suite {
                    "is sampled but carries no"
                } else {
                    "is not sampled but carries"
                }
            ));
        }
        if has_sampling {
            for key in [
                "interval",
                "k",
                "seed",
                "representatives",
                "measured_branches",
                "total_records",
            ] {
                if jsonish::number_field(point, key).is_none() {
                    return Err(format!(
                        "point {i} sampling object is missing numeric field \"{key}\""
                    ));
                }
            }
        }
    }
    // An `--explore` report must carry a structurally complete section:
    // the budget, the candidate count, and fully-typed Pareto entries.
    if json.contains("\"explore\":") {
        for key in ["budget_bits", "candidates"] {
            if jsonish::number_field(json, key).is_none() {
                return Err(format!(
                    "explore section is missing numeric field \"{key}\""
                ));
            }
        }
        for (i, entry) in jsonish::extract_array_objects(json, "pareto")
            .iter()
            .enumerate()
        {
            if jsonish::string_field(entry, "predictor").is_none() {
                return Err(format!("pareto entry {i} is missing \"predictor\""));
            }
            for key in ["storage_bits", "mean_mpki", "high_mprate_mkp"] {
                if jsonish::number_field(entry, key).is_none() {
                    return Err(format!(
                        "pareto entry {i} is missing numeric field \"{key}\""
                    ));
                }
            }
        }
    }
    let skipped = jsonish::extract_array_objects(json, "skipped");
    Ok(ValidatedReport {
        schema: SCHEMA_VERSION,
        points: points.len(),
        skipped: skipped.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage_traces::suites;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            label: "test".to_string(),
            predictors: vec![
                PredictorSpec::parse("tage-16k").unwrap(),
                PredictorSpec::parse("gshare").unwrap(),
            ],
            schemes: vec![
                SchemeSpec::parse("storage-free").unwrap(),
                SchemeSpec::parse("jrs-classic").unwrap(),
            ],
            suites: vec![suites::cbp1_mini().into()],
            scenarios: vec![ScenarioSpec::Baseline],
            branches_per_trace: 1_000,
        }
    }

    fn scenario_spec() -> CampaignSpec {
        CampaignSpec {
            label: "scenario-grid".to_string(),
            predictors: vec![PredictorSpec::parse("tage-16k").unwrap()],
            schemes: vec![SchemeSpec::parse("storage-free").unwrap()],
            suites: vec![suites::cbp1_mini().into()],
            scenarios: ScenarioSpec::ALL.to_vec(),
            branches_per_trace: 1_000,
        }
    }

    #[test]
    fn expansion_crosses_axes_and_skips_invalid_cells() {
        let (points, skipped) = tiny_spec().expand();
        // 2 predictors × 2 schemes × 1 suite × 1 scenario = 4 cells, one of
        // which (gshare × storage-free) cannot run.
        assert_eq!(points.len(), 3);
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].predictor, "gshare");
        assert_eq!(skipped[0].scheme, "storage-free");
        assert_eq!(skipped[0].scenario, "baseline");
        assert!(skipped[0].reason.contains("TAGE"));
    }

    #[test]
    fn scenario_axis_expands_innermost_and_runs_every_kind() {
        let (points, skipped) = scenario_spec().expand();
        assert_eq!(points.len(), ScenarioSpec::ALL.len());
        assert!(skipped.is_empty());
        let labels: Vec<&str> = points.iter().map(|p| p.scenario.label()).collect();
        assert_eq!(
            labels,
            vec![
                "baseline",
                "recovery-energy",
                "shared-predictor",
                "prefetch-throttle"
            ]
        );

        let report = run_campaign(&scenario_spec(), 2).expect("scenario grid runs");
        assert_eq!(report.grid_scenarios.len(), 4);
        let json = report.render_json(false);
        let validated = validate_report(&json).expect("scenario report validates");
        assert_eq!(validated.points, 4);
        for point in jsonish::extract_array_objects(&json, "points") {
            let scenario = jsonish::string_field(&point, "scenario").unwrap();
            if scenario == "baseline" {
                assert!(!point.contains("scenario_metrics"));
            } else {
                assert!(
                    point.contains("\"scenario_metrics\": {"),
                    "{scenario} cell must carry metrics: {point}"
                );
            }
        }
        // Spot-check one metric key per scenario kind.
        assert!(json.contains("\"baseline_epki_nj\":"));
        assert!(json.contains("\"shared_mean_mpki\":"));
        assert!(json.contains("\"useless_avoided_pki\":"));
    }

    #[test]
    fn steal_map_is_order_preserving_and_worker_count_independent() {
        // Cells run through `steal_map`; grid order in the report rests on it.
        let items: Vec<u64> = (0..53).collect();
        let (serial, stats) = steal_map(&items, 1, |&x| x * 3);
        assert_eq!(stats.steals, 0);
        for workers in [2, 3, 8, 64] {
            let (parallel, stats) = steal_map(&items, workers, |&x| x * 3);
            assert_eq!(parallel, serial, "workers = {workers}");
            assert!(stats.workers <= items.len());
        }
        let empty: Vec<u64> = Vec::new();
        let (results, _) = steal_map(&empty, 4, |&x: &u64| x);
        assert!(results.is_empty());
    }

    #[test]
    fn multilane_campaign_renders_byte_identical_reports() {
        // The engine axis must not show up anywhere in a timing-free
        // report: scalar and multilane runs of a mixed grid (batchable
        // storage-free cells + unbatchable estimator and scenario cells)
        // render the same bytes.
        for spec in [tiny_spec(), scenario_spec()] {
            let scalar = run_campaign_with_engine(&spec, 2, EngineKind::Scalar).unwrap();
            let multilane = run_campaign_with_engine(&spec, 2, EngineKind::Multilane).unwrap();
            assert_eq!(
                scalar.render_json(false),
                multilane.render_json(false),
                "{}",
                spec.label
            );
        }
    }

    #[test]
    fn campaign_report_renders_and_validates() {
        let report = run_campaign(&tiny_spec(), 2).expect("synthetic grids run");
        assert_eq!(report.points.len(), 3);
        assert_eq!(report.skipped.len(), 1);
        let json = report.render_json(true);
        let validated = validate_report(&json).expect("rendered report validates");
        assert_eq!(validated.schema, SCHEMA_VERSION);
        assert_eq!(validated.points, 3);
        assert_eq!(validated.skipped, 1);
        assert!(json.contains("\"wall_seconds\""));
        // The scalar engine runs both tage-16k cells in one predictor pass
        // and gshare alone; each timed cell says how many shared its pass.
        let shared: Vec<usize> = report
            .points
            .iter()
            .map(|cell| cell.computed().expect("executed cell").shared_pass_cells)
            .collect();
        assert_eq!(shared, [2, 2, 1]);
        let timed = jsonish::extract_array_objects(&json, "points");
        let fields: Vec<Option<f64>> = timed
            .iter()
            .map(|point| jsonish::number_field(point, "shared_pass_cells"))
            .collect();
        assert_eq!(fields, [Some(2.0), Some(2.0), Some(1.0)]);
        // Grouped cells split the pass's time equally.
        let seconds = |i: usize| report.points[i].computed().unwrap().wall_seconds;
        assert_eq!(seconds(0), seconds(1));
        // The deterministic rendering drops every timing field.
        let bare = report.render_json(false);
        assert!(!bare.contains("wall_seconds"));
        assert!(!bare.contains("branches_per_sec"));
        assert!(!bare.contains("shared_pass_cells"));
        assert!(!bare.contains("\"timing\""));
        validate_report(&bare).expect("timing-free report still validates");
    }

    #[test]
    fn file_backed_campaign_matches_the_synthetic_grid() {
        use tage_traces::writer::TraceWriter;
        let suite = suites::cbp1_mini();
        let dir = std::env::temp_dir().join(format!("tage-campaign-files-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for spec in suite.traces() {
            std::fs::write(
                dir.join(format!("{}.trace", spec.name())),
                TraceWriter::to_binary_bytes(&spec.generate(1_000)),
            )
            .unwrap();
        }
        let files = SourceSuite::from_dir(&dir).unwrap();
        // Two scenarios, so the scalar campaign runs the cells as one group
        // over one predictor pass.
        let scenarios = vec![ScenarioSpec::Baseline, ScenarioSpec::RecoveryEnergy];
        let file_spec = CampaignSpec {
            label: "file".to_string(),
            predictors: vec![PredictorSpec::parse("tage-16k").unwrap()],
            schemes: vec![SchemeSpec::parse("storage-free").unwrap()],
            suites: vec![files],
            scenarios: scenarios.clone(),
            branches_per_trace: 1_000,
        };
        let file_report = run_campaign(&file_spec, 2).expect("file grid runs");
        let synthetic_spec = CampaignSpec {
            suites: vec![suites::cbp1_mini().into()],
            label: "file".to_string(),
            predictors: vec![PredictorSpec::parse("tage-16k").unwrap()],
            schemes: vec![SchemeSpec::parse("storage-free").unwrap()],
            scenarios,
            branches_per_trace: 1_000,
        };
        let synthetic_report = run_campaign(&synthetic_spec, 2).unwrap();
        // Same predictions/mispredictions point for point — only the suite
        // labels (directory vs registry name) differ.
        assert_eq!(file_report.points.len(), synthetic_report.points.len());
        for (file, synthetic) in file_report.points.iter().zip(&synthetic_report.points) {
            let file = file.computed().expect("executed cell");
            let synthetic = synthetic.computed().expect("executed cell");
            let mut file_traces = file.result.traces.clone();
            file_traces.sort_by(|a, b| a.trace_name.cmp(&b.trace_name));
            let mut synthetic_traces = synthetic.result.traces.clone();
            synthetic_traces.sort_by(|a, b| a.trace_name.cmp(&b.trace_name));
            assert_eq!(file_traces, synthetic_traces);
            assert_eq!(file.result.aggregate, synthetic.result.aggregate);
            assert_eq!(file.shared_pass_cells, 2);
        }
        // A vanished trace file surfaces as a campaign error, not a panic,
        // and fails every cell of the group that read it.
        for spec in suite.traces() {
            std::fs::remove_file(dir.join(format!("{}.trace", spec.name()))).unwrap();
        }
        let error = run_campaign(&file_spec, 2).unwrap_err();
        assert!(matches!(error.error, PointError::Source { .. }), "{error}");
        let (points, _) = file_spec.expand();
        let jobs: Vec<CellJob> = points
            .into_iter()
            .map(|point| CellJob {
                key: cell_key(file_spec.branches_per_trace, &point),
                point,
                branches_per_trace: file_spec.branches_per_trace,
            })
            .collect();
        let run = execute_cells(&jobs, 2, EngineKind::Scalar, None);
        assert_eq!(run.cells.len(), 2);
        for cell in &run.cells {
            let Err(failure) = cell else {
                panic!("a cell over a vanished trace ran")
            };
            assert!(matches!(failure, PointError::Source { .. }), "{failure}");
            assert_eq!(failure.to_string(), error.error.to_string());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn source_errors_name_the_file_and_the_cell() {
        use tage_traces::source::SamplingSpec;
        use tage_traces::writer::TraceWriter;
        let dir = std::env::temp_dir().join(format!("tage-campaign-errors-{}", std::process::id()));
        let traces: Vec<_> = suites::cbp1_mini()
            .traces()
            .iter()
            .map(|spec| spec.generate(2_000))
            .collect();
        let truncated = TraceWriter::to_binary_bytes(&traces[3]);
        // A file of garbage fails at open, a vanished file too, and a file
        // cut short fails mid-stream.
        let cases: [(&str, Option<&[u8]>, &str); 3] = [
            ("garbage", Some(b"garbage, not a trace"), "bad magic"),
            ("missing", None, "No such file"),
            (
                "truncated",
                Some(&truncated[..truncated.len() - 30]),
                "truncated",
            ),
        ];
        for (case, bytes, message) in cases {
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            for trace in &traces[..3] {
                std::fs::write(
                    dir.join(format!("{}.trace", trace.name())),
                    TraceWriter::to_binary_bytes(trace),
                )
                .unwrap();
            }
            let bad = dir.join(format!("{case}.trace"));
            std::fs::write(&bad, bytes.unwrap_or(b"")).unwrap();
            let files = SourceSuite::from_dir(&dir).unwrap();
            if bytes.is_none() {
                std::fs::remove_file(&bad).unwrap();
            }
            let sampling = SamplingSpec {
                interval: 250,
                k: 2,
                seed: 1,
            };
            for suite in [files.clone(), files.with_sampling(sampling)] {
                let spec = CampaignSpec {
                    label: "errors".to_string(),
                    predictors: vec![
                        PredictorSpec::parse("tage-16k").unwrap(),
                        PredictorSpec::parse("tage-64k").unwrap(),
                    ],
                    schemes: vec![SchemeSpec::StorageFree],
                    suites: vec![suite.clone()],
                    scenarios: vec![ScenarioSpec::Baseline],
                    branches_per_trace: 2_000,
                };
                let cell = format!("tage-16k × storage-free × {} × baseline", suite.name());
                for engine in [EngineKind::Scalar, EngineKind::Multilane] {
                    let error = run_campaign_with_engine(&spec, 2, engine)
                        .unwrap_err()
                        .to_string();
                    for part in [cell.as_str(), &bad.display().to_string(), message] {
                        assert!(error.contains(part), "{case} {engine:?}: {error}");
                    }
                }
                // The failed source fails both cells with the same error:
                // as one group when sampled, one by one otherwise.
                let jobs: Vec<CellJob> = spec
                    .expand()
                    .0
                    .into_iter()
                    .map(|point| CellJob {
                        key: cell_key(2_000, &point),
                        point,
                        branches_per_trace: 2_000,
                    })
                    .collect();
                let failures: Vec<String> = execute_cells(&jobs, 2, EngineKind::Scalar, None)
                    .cells
                    .iter()
                    .map(|cell| cell.as_ref().err().expect("the group failed").to_string())
                    .collect();
                assert_eq!(failures.len(), 2, "{case}");
                assert_eq!(failures[0], failures[1], "{case}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_decoded_files_run_or_fail_naming_the_file() {
        use tage_traces::source::SamplingSpec;
        use tage_traces::writer::TraceWriter;
        use tage_traces::SplitMix64;
        let traces: Vec<_> = suites::cbp1_mini()
            .traces()
            .iter()
            .map(|spec| spec.generate(1_000))
            .collect();
        let conditional = |index: usize| {
            traces[index]
                .records()
                .iter()
                .filter(|record| record.kind.is_conditional())
        };
        let text: String = conditional(2)
            .map(|record| format!("{:x} {}\n", record.pc, u8::from(record.taken)))
            .collect();
        let binary: Vec<u8> = conditional(3)
            .flat_map(|record| {
                record
                    .pc
                    .to_le_bytes()
                    .into_iter()
                    .chain([record.taken as u8])
            })
            .collect();
        // A real `gzip -9` stream (dynamic, fixed and stored blocks), CBP
        // text and CBP binary, each mangled six seeded ways.
        let valid: [(&str, &[u8]); 3] = [
            (
                "trace.gz",
                include_bytes!("../../traces/testdata/cbp1-mini-0.trace.gz"),
            ),
            ("cbp", text.as_bytes()),
            ("cbpb", &binary),
        ];
        let dir =
            std::env::temp_dir().join(format!("tage-campaign-hostile-{}", std::process::id()));
        let mut rng = SplitMix64::new(0x0BAD_F11E);
        let (mut ran, mut failed) = (0, 0);
        for (extension, bytes) in valid {
            for case in 0..6 {
                let mut hostile = bytes.to_vec();
                let what = match case {
                    0..=2 => {
                        for _ in 0..=case {
                            let bit = rng.next_u64() as usize % (hostile.len() * 8);
                            hostile[bit / 8] ^= 1 << (bit % 8);
                        }
                        "bit flips"
                    }
                    3 | 4 => {
                        hostile.truncate(rng.next_u64() as usize % hostile.len());
                        "truncation"
                    }
                    _ => {
                        let len = rng.next_u64() % 256;
                        hostile = (0..len).map(|_| rng.next_u64() as u8).collect();
                        "garbage"
                    }
                };
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).unwrap();
                std::fs::write(
                    dir.join(format!("{}.trace", traces[1].name())),
                    TraceWriter::to_binary_bytes(&traces[1]),
                )
                .unwrap();
                let bad = dir.join(format!("hostile.{extension}"));
                std::fs::write(&bad, &hostile).unwrap();
                let files = SourceSuite::from_dir(&dir).unwrap();
                let sampling = SamplingSpec {
                    interval: 250,
                    k: 2,
                    seed: 1,
                };
                for suite in [files.clone(), files.with_sampling(sampling)] {
                    let spec = CampaignSpec {
                        label: "hostile".to_string(),
                        predictors: vec![PredictorSpec::parse("tage-16k").unwrap()],
                        schemes: vec![SchemeSpec::StorageFree],
                        suites: vec![suite],
                        scenarios: vec![ScenarioSpec::Baseline],
                        branches_per_trace: 1_000,
                    };
                    for engine in [EngineKind::Scalar, EngineKind::Multilane] {
                        match run_campaign_with_engine(&spec, 2, engine) {
                            Ok(_) => ran += 1,
                            Err(error) => {
                                let error = error.to_string();
                                assert!(
                                    error.contains(&bad.display().to_string()),
                                    "{extension} {what} {engine:?}: {error}"
                                );
                                failed += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(ran > 0 && failed > 0, "{ran} ran, {failed} failed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn geometry_cells_that_differ_only_in_automaton_keep_their_own_cells() {
        let dir =
            std::env::temp_dir().join(format!("tage-campaign-automaton-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let standard = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../geometries/tage-16k.json"
        );
        let json = std::fs::read_to_string(standard).unwrap();
        let modified = dir.join("tage-16k-modified.json");
        std::fs::write(
            &modified,
            json.replace(
                "\"automaton\": \"standard\"",
                "\"automaton\": \"probabilistic:7\"",
            ),
        )
        .unwrap();
        let spec = |path: &str| CampaignSpec {
            label: "automaton".to_string(),
            predictors: vec![PredictorSpec::parse(&format!("geometry:{path}")).unwrap()],
            schemes: vec![SchemeSpec::StorageFree],
            suites: vec![suites::cbp1_mini().into()],
            scenarios: vec![ScenarioSpec::Baseline],
            branches_per_trace: 2_000,
        };
        let (standard_spec, modified_spec) =
            (spec(standard), spec(&modified.display().to_string()));
        let (points, _) = standard_spec.expand();
        let (modified_points, _) = modified_spec.expand();
        assert_eq!(
            points[0].predictor.label(),
            modified_points[0].predictor.label()
        );
        assert_ne!(
            cell_key(2_000, &points[0]),
            cell_key(2_000, &modified_points[0])
        );

        let store = CellStore::new(dir.join("store")).unwrap();
        let first =
            run_campaign_checkpointed(&standard_spec, 2, EngineKind::Multilane, &store, None)
                .unwrap();
        assert_eq!(first.executed, 1);
        let resumed =
            run_campaign_checkpointed(&modified_spec, 2, EngineKind::Multilane, &store, None)
                .unwrap();
        assert_eq!((resumed.restored, resumed.executed), (0, 1));
        let fresh = run_campaign(&modified_spec, 2).unwrap();
        assert_eq!(resumed.report.cell_bytes(), fresh.cell_bytes());
        assert_ne!(resumed.report.cell_bytes(), first.report.cell_bytes());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpointed_campaign_resumes_to_a_byte_identical_report() {
        let dir =
            std::env::temp_dir().join(format!("tage-campaign-checkpoint-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let checkpoint = CellStore::new(&dir).unwrap();
        let clean = run_campaign_with_engine(&tiny_spec(), 2, EngineKind::Multilane)
            .unwrap()
            .render_json(false);

        // Simulate a kill after every cell: each run executes one cell,
        // checkpoints it, and leaves the rest for the next run.
        let first =
            run_campaign_checkpointed(&tiny_spec(), 2, EngineKind::Multilane, &checkpoint, Some(1))
                .unwrap();
        assert_eq!((first.restored, first.executed, first.remaining), (0, 1, 2));
        let second =
            run_campaign_checkpointed(&tiny_spec(), 2, EngineKind::Multilane, &checkpoint, Some(1))
                .unwrap();
        assert_eq!(
            (second.restored, second.executed, second.remaining),
            (1, 1, 1)
        );
        let last =
            run_campaign_checkpointed(&tiny_spec(), 2, EngineKind::Multilane, &checkpoint, None)
                .unwrap();
        assert_eq!((last.restored, last.executed, last.remaining), (2, 1, 0));
        assert_eq!(last.report.render_json(false), clean);
        validate_report(&last.report.render_json(false)).expect("resumed report validates");

        // A fully-restored re-run executes nothing and still byte-matches,
        // even on the scalar engine — cells carry engine-independent bytes.
        let again =
            run_campaign_checkpointed(&tiny_spec(), 2, EngineKind::Scalar, &checkpoint, None)
                .unwrap();
        assert_eq!((again.restored, again.executed, again.remaining), (3, 0, 0));
        assert_eq!(again.report.render_json(false), clean);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn differently_labelled_campaigns_share_stored_cells() {
        let dir =
            std::env::temp_dir().join(format!("tage-campaign-cell-share-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CellStore::new(&dir).unwrap();
        let first = run_campaign_checkpointed(&tiny_spec(), 2, EngineKind::Multilane, &store, None)
            .unwrap();
        assert_eq!((first.restored, first.executed), (0, 3));
        // A different campaign label over the same grid content restores
        // every cell — keys are content-addressed, not label-scoped.
        let mut relabelled = tiny_spec();
        relabelled.label = "other-campaign".to_string();
        let second =
            run_campaign_checkpointed(&relabelled, 2, EngineKind::Scalar, &store, None).unwrap();
        assert_eq!((second.restored, second.executed), (3, 0));
        // Only the report header differs; the cell bytes are shared.
        assert_eq!(
            first.report.cell_bytes(),
            second.report.cell_bytes(),
            "shared cells must render identical bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_and_stale_checkpoint_cells_are_recomputed() {
        let dir = std::env::temp_dir().join(format!(
            "tage-campaign-checkpoint-corrupt-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let checkpoint = CellStore::new(&dir).unwrap();
        let spec = tiny_spec();
        let clean = run_campaign_with_engine(&spec, 2, EngineKind::Multilane)
            .unwrap()
            .render_json(false);
        let full =
            run_campaign_checkpointed(&spec, 2, EngineKind::Multilane, &checkpoint, None).unwrap();
        assert_eq!(full.executed, 3);

        // Vandalize two of the three cells: one with garbage, one with a
        // well-formed cell whose identity fields disagree.
        let (points, _) = spec.expand();
        let key = |i: usize| cell_key(spec.branches_per_trace, &points[i]);
        checkpoint
            .store_cell(key(0), "garbage, not a cell")
            .unwrap();
        checkpoint
            .store_cell(
                key(1),
                "  {\"predictor\": \"someone-else\", \"scheme\": \"x\", \"suite\": \"y\", \"scenario\": \"z\"}",
            )
            .unwrap();

        let repaired =
            run_campaign_checkpointed(&spec, 2, EngineKind::Multilane, &checkpoint, None).unwrap();
        assert_eq!(
            (repaired.restored, repaired.executed, repaired.remaining),
            (1, 2, 0)
        );
        assert_eq!(repaired.report.render_json(false), clean);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_write_failures_are_counted_not_fatal() {
        let dir =
            std::env::temp_dir().join(format!("tage-campaign-store-errors-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CellStore::new(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let clean = run_campaign_with_engine(&tiny_spec(), 2, EngineKind::Multilane)
            .unwrap()
            .render_json(false);
        let run = run_campaign_checkpointed(&tiny_spec(), 2, EngineKind::Multilane, &store, None)
            .unwrap();
        assert_eq!(run.report.render_json(false), clean);
        assert_eq!((run.executed, run.store_errors), (3, 3));
        assert!(!dir.exists(), "nothing recreated the vanished store");
    }

    #[test]
    fn a_flipped_digit_in_a_stored_cell_is_recomputed() {
        let dir =
            std::env::temp_dir().join(format!("tage-campaign-flipped-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CellStore::new(&dir).unwrap();
        let spec = tiny_spec();
        let clean = run_campaign_with_engine(&spec, 2, EngineKind::Multilane)
            .unwrap()
            .render_json(false);
        let first =
            run_campaign_checkpointed(&spec, 2, EngineKind::Multilane, &store, None).unwrap();
        assert_eq!((first.executed, first.store_errors), (3, 0));

        let (points, _) = spec.expand();
        let path = dir.join(format!(
            "{:016x}.cell",
            cell_key(spec.branches_per_trace, &points[0])
        ));
        let mut bytes = std::fs::read(&path).unwrap();
        let field = b"\"mean_mpki\": ";
        let at = bytes
            .windows(field.len())
            .position(|window| window == field)
            .expect("the cell carries mean_mpki")
            + field.len();
        bytes[at] = if bytes[at] == b'9' { b'8' } else { b'9' };
        std::fs::write(&path, &bytes).unwrap();

        let repaired =
            run_campaign_checkpointed(&spec, 2, EngineKind::Multilane, &store, None).unwrap();
        assert_eq!((repaired.restored, repaired.executed), (2, 1));
        assert_eq!(repaired.report.render_json(false), clean);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn sampled_spec() -> CampaignSpec {
        use tage_traces::source::SamplingSpec;
        let sampled = SourceSuite::from(suites::cbp1_mini()).with_sampling(SamplingSpec {
            interval: 250,
            k: 2,
            seed: 1,
        });
        CampaignSpec {
            label: "sampled".to_string(),
            predictors: vec![
                PredictorSpec::parse("tage-16k").unwrap(),
                PredictorSpec::parse("gshare").unwrap(),
            ],
            schemes: vec![
                SchemeSpec::parse("storage-free").unwrap(),
                SchemeSpec::parse("jrs-classic").unwrap(),
            ],
            suites: vec![sampled],
            scenarios: vec![ScenarioSpec::Baseline],
            branches_per_trace: 2_000,
        }
    }

    #[test]
    fn sampled_campaigns_render_validate_and_skip_unsupported_cells() {
        let (points, skipped) = sampled_spec().expand();
        // Only tage-16k × storage-free survives: estimator schemes and
        // baseline predictors have no sampled path.
        assert_eq!(points.len(), 1);
        assert_eq!(skipped.len(), 3);
        assert!(skipped
            .iter()
            .all(|s| s.reason.contains("sampling") || s.reason.contains("TAGE predictor")));

        let report = run_campaign(&sampled_spec(), 2).expect("sampled grid runs");
        let json = report.render_json(false);
        let validated = validate_report(&json).expect("sampled report validates");
        assert_eq!(validated.points, 1);
        assert_eq!(validated.skipped, 3);
        assert!(json.contains("\"suite\": \"sample:CBP-1-mini:250:2:1\""));
        assert!(json.contains("\"sampling\": {\"interval\": 250, \"k\": 2, \"seed\": 1"));
        // A sampled point claiming no sampling object (or vice versa) fails
        // validation: strip the object and re-check.
        let stripped = {
            let start = json.find(", \"sampling\": {").unwrap();
            let end = start + json[start..].find('}').unwrap() + 1;
            format!("{}{}", &json[..start], &json[end..])
        };
        assert!(validate_report(&stripped).unwrap_err().contains("sampling"));
    }

    #[test]
    fn sampled_campaign_reports_are_deterministic_across_workers_engines_and_resume() {
        let reference = run_campaign_with_engine(&sampled_spec(), 1, EngineKind::Scalar)
            .unwrap()
            .render_json(false);
        for workers in [2, 4] {
            for engine in [EngineKind::Scalar, EngineKind::Multilane] {
                let report = run_campaign_with_engine(&sampled_spec(), workers, engine)
                    .unwrap()
                    .render_json(false);
                assert_eq!(report, reference, "workers={workers} engine={engine:?}");
            }
        }
        // Kill/resume through a checkpoint store — including the predictor
        // warm cache the sampled path populates under the store directory —
        // still byte-matches a clean run.
        let dir = std::env::temp_dir().join(format!(
            "tage-campaign-sampled-checkpoint-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CellStore::new(&dir).unwrap();
        let first =
            run_campaign_checkpointed(&sampled_spec(), 2, EngineKind::Scalar, &store, Some(1))
                .unwrap();
        assert_eq!((first.restored, first.executed, first.remaining), (0, 1, 0));
        let resumed =
            run_campaign_checkpointed(&sampled_spec(), 4, EngineKind::Multilane, &store, None)
                .unwrap();
        assert_eq!((resumed.restored, resumed.executed), (1, 0));
        assert_eq!(resumed.report.render_json(false), reference);
        // Drop the finished cells but keep the predictor warm cache
        // (store/warm): the re-executed cell restores checkpoints instead
        // of replaying gaps, and its bytes still match — cache state cannot
        // leak into cell bytes.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "cell") {
                std::fs::remove_file(path).unwrap();
            }
        }
        let warm_run =
            run_campaign_checkpointed(&sampled_spec(), 2, EngineKind::Scalar, &store, None)
                .unwrap();
        assert_eq!(warm_run.executed, 1);
        assert_eq!(warm_run.report.render_json(false), reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validation_rejects_broken_reports() {
        assert!(validate_report("{}").is_err());
        assert!(validate_report("{\"campaign\": \"other\"}").is_err());
        let wrong_schema =
            "{\"campaign\": \"tage-bench\", \"schema\": 99, \"points\": [{\"predictor\": \"x\"}]}";
        let error = validate_report(wrong_schema).unwrap_err();
        assert!(error.contains("schema"));
        // Schema-1/2/3 reports (pre-scenario / pre-storage / pre-sampling)
        // are explicitly unsupported now.
        for old in [1, 2, 3] {
            let stale = format!(
                "{{\"campaign\": \"tage-bench\", \"schema\": {old}, \"points\": [{{\"predictor\": \"x\"}}]}}"
            );
            assert!(validate_report(&stale).unwrap_err().contains("schema"));
        }
        let no_points = "{\"campaign\": \"tage-bench\", \"schema\": 4, \"points\": []}";
        assert!(validate_report(no_points).unwrap_err().contains("points"));
        let missing_field = "{\"campaign\": \"tage-bench\", \"schema\": 4, \"points\": [{\"predictor\": \"x\", \"scheme\": \"y\", \"suite\": \"z\", \"scenario\": \"baseline\", \"storage_bits\": 1, \"traces\": 1}]}";
        assert!(validate_report(missing_field)
            .unwrap_err()
            .contains("predictions"));
        // A schema-2-shaped point (no storage accounting) is rejected.
        let no_storage = "{\"campaign\": \"tage-bench\", \"schema\": 4, \"points\": [{\"predictor\": \"x\", \"scheme\": \"y\", \"suite\": \"z\", \"scenario\": \"baseline\", \"traces\": 1}]}";
        assert!(validate_report(no_storage)
            .unwrap_err()
            .contains("storage_bits"));
        // A schema-1-shaped point (no scenario label) is rejected.
        let no_scenario = "{\"campaign\": \"tage-bench\", \"schema\": 4, \"points\": [{\"predictor\": \"x\", \"scheme\": \"y\", \"suite\": \"z\", \"traces\": 1}]}";
        assert!(validate_report(no_scenario)
            .unwrap_err()
            .contains("scenario"));
        // A non-baseline scenario cell without its metrics object is
        // rejected.
        let no_metrics = "{\"campaign\": \"tage-bench\", \"schema\": 4, \"points\": [{\"predictor\": \"x\", \"scheme\": \"y\", \"suite\": \"z\", \"scenario\": \"recovery-energy\", \"storage_bits\": 1, \"traces\": 1, \"predictions\": 1, \"mispredictions\": 0, \"instructions\": 1, \"mean_mpki\": 0, \"aggregate_mkp\": 0, \"high_pcov\": 0, \"high_mprate_mkp\": 0}]}";
        assert!(validate_report(no_metrics)
            .unwrap_err()
            .contains("scenario_metrics"));
        // An explore section missing its budget or carrying untyped Pareto
        // entries is rejected.
        let good_point = "{\"predictor\": \"x\", \"scheme\": \"y\", \"suite\": \"z\", \"scenario\": \"baseline\", \"storage_bits\": 1, \"traces\": 1, \"predictions\": 1, \"mispredictions\": 0, \"instructions\": 1, \"mean_mpki\": 0, \"aggregate_mkp\": 0, \"high_pcov\": 0, \"high_mprate_mkp\": 0}";
        let no_budget = format!(
            "{{\"campaign\": \"tage-bench\", \"schema\": 4, \"points\": [{good_point}], \"explore\": {{\"candidates\": 1, \"pareto\": []}}}}"
        );
        assert!(validate_report(&no_budget)
            .unwrap_err()
            .contains("budget_bits"));
        let bad_pareto = format!(
            "{{\"campaign\": \"tage-bench\", \"schema\": 4, \"points\": [{good_point}], \"explore\": {{\"budget_bits\": 32768, \"candidates\": 1, \"pareto\": [{{\"predictor\": \"p\", \"storage_bits\": 1}}]}}}}"
        );
        assert!(validate_report(&bad_pareto)
            .unwrap_err()
            .contains("mean_mpki"));
    }
}
