//! The paper's tables and figures as named lists of campaign cells.
//!
//! An [`Artefact`] is data: the storage-free TAGE cells it reads — a
//! geometry over a registry suite under some [`RunOptions`] — plus a
//! renderer over their results. [`render`] runs every (cell, trace) pair
//! the requested artefacts read once, through [`steal_map`] and
//! [`run_point`], the same cell path every campaign takes, and renders the
//! artefacts in the order asked. `tage-bench --paper` prints that text, and
//! `docs/RESULTS.md` is `--paper all` at
//! [`DEFAULT_BRANCHES_PER_TRACE`](crate::DEFAULT_BRANCHES_PER_TRACE).
//!
//! | artefact | paper | cells (S, M, L = 16K, 64K, 256K) |
//! |---|---|---|
//! | `table1` | Table 1: configurations, misp/KI | S, M, L standard × CBP-1, CBP-2 |
//! | `table2` | Table 2: three levels, p = 1/128 | S, M, L modified × CBP-1, CBP-2 |
//! | `table3` | Table 3: adaptive probability | the same, with [`RunOptions::adaptive`] |
//! | `figure2`, `figure3` | class distributions, standard automaton | S, M, L standard × CBP-1 / CBP-2 |
//! | `figure4`, `figure6` | per-class rates of seven CBP-2 traces | M standard / modified × CBP-2 |
//! | `figure5` | class distributions, modified automaton | S × CBP-1, M × CBP-2, L × CBP-1 |
//! | `prob_sweep` | §6.2 saturation-probability sweep | S × CBP-1 at p = 1, 1/4, 1/16, 1/128, 1/1024 |
//! | `bim_breakdown` | §5.1 bimodal-provider breakdown | S, L standard × CBP-1 |
//! | `automaton_cost` | §6 accuracy cost of the modified automaton | standard and modified × both suites |
//! | `ablations` | `medium-conf-bim` window, counter width | S standard × CBP-1 |
//!
//! The artefacts overlap: all twelve read 30 distinct cells. Figures 4
//! and 6 read seven traces of the CBP-2 suite. Every trace starts from a
//! cold predictor, so its result does not depend on which other traces
//! run beside it; that is what lets [`render`] share traces between
//! artefacts and split a cell's traces across workers.

use core::fmt::{self, Write as _};

use tage::{CounterAutomaton, TageGeometry};
use tage_confidence::{ConfidenceLevel, ConfidenceReport, PredictionClass};
use tage_sim::engine::steal_map;
use tage_sim::point::{
    run_point, PointResult, PointTraceMetrics, PredictorSpec, SchemeSpec, SweepPoint,
};
use tage_sim::report::{fraction, mkp, mpki, probability, TextTable};
use tage_sim::{EngineKind, RunOptions};
use tage_traces::suites::{self, Suite, TraceSpec};

use crate::header;

/// One storage-free TAGE cell an artefact reads.
#[derive(Debug, Clone, PartialEq)]
struct Cell {
    geometry: TageGeometry,
    /// A registry token ([`suites::REGISTRY`]).
    suite: &'static str,
    options: RunOptions,
    /// The suite traces it reads, by name; `None` reads every trace.
    traces: Option<&'static [&'static str]>,
}

impl Cell {
    fn new(geometry: TageGeometry, suite: &'static str) -> Self {
        Cell {
            geometry,
            suite,
            options: RunOptions::default(),
            traces: None,
        }
    }

    /// The same cell over every trace of its suite.
    fn whole(&self) -> Cell {
        Cell {
            traces: None,
            ..self.clone()
        }
    }

    /// The traces it reads: the suite's, or the named ones in that order.
    fn trace_specs(&self) -> Vec<TraceSpec> {
        let suite = suites::by_name(self.suite).expect("cells name registry suites");
        match self.traces {
            None => suite.traces().to_vec(),
            Some(names) => names
                .iter()
                .map(|name| suite.trace(name).expect("cells name suite traces").clone())
                .collect(),
        }
    }

    /// The cell as a campaign point over `traces` of its suite.
    fn point(&self, traces: &[TraceSpec]) -> SweepPoint {
        let suite = suites::by_name(self.suite).expect("cells name registry suites");
        let predictor = PredictorSpec::Tage(self.geometry.clone());
        let suite = Suite::new(suite.name(), traces.to_vec());
        SweepPoint::over_suite(predictor, SchemeSpec::StorageFree, &suite)
    }

    /// Runs `traces` of the cell through [`run_point`].
    fn run(&self, traces: &[TraceSpec], branches_per_trace: usize) -> PointResult {
        run_point(
            &self.point(traces),
            branches_per_trace,
            &self.options,
            EngineKind::Multilane,
            None,
        )
        .expect("synthetic storage-free TAGE cells cannot fail")
    }

    /// The cell's result, assembled from the traces [`render`] ran, each
    /// paired with its whole-suite cell.
    fn result(&self, ran: &[(&Cell, &PointTraceMetrics)]) -> PointResult {
        let whole = self.whole();
        let specs = self.trace_specs();
        let traces = specs
            .iter()
            .map(|spec| {
                let (_, trace) = ran
                    .iter()
                    .find(|(cell, trace)| **cell == whole && trace.trace_name == spec.name())
                    .expect("render runs every trace a cell reads");
                (*trace).clone()
            })
            .collect();
        PointResult::assemble(&self.point(&specs), traces)
    }
}

/// A cell and its result, as a renderer reads them.
type Ran<'a> = (&'a Cell, &'a PointResult);

/// One table or figure of the paper.
#[derive(Debug)]
pub struct Artefact {
    /// The `--paper` token.
    pub name: &'static str,
    /// The header line.
    title: &'static str,
    /// The cells it reads, in the order its renderer expects them.
    cells: fn() -> Vec<Cell>,
    /// Renders the artefact below its header from its cells' results.
    render: fn(&[Ran<'_>], &mut String) -> fmt::Result,
    /// A closing remark, printed after a blank line.
    note: Option<&'static str>,
}

/// Every artefact, in the order `--paper all` renders them.
pub static ARTEFACTS: [Artefact; 12] = [
    Artefact {
        name: "table1",
        title: "Table 1 — simulated configurations",
        cells: table1_cells,
        render: render_table1,
        note: Some("Paper (real CBP traces): 4.21 / 2.54 / 2.18 misp/KI on CBP-1 and 4.61 / 3.87 / 3.47 on CBP-2."),
    },
    Artefact {
        name: "table2",
        title: "Table 2 — three confidence levels, modified automaton (p = 1/128)",
        cells: table2_cells,
        render: render_levels,
        note: Some("cell format: Pcov-MPcov (MPrate in MKP), as in the paper's Table 2."),
    },
    Artefact {
        name: "table3",
        title: "Table 3 — three confidence levels with the adaptive saturation probability",
        cells: table3_cells,
        render: render_levels,
        note: Some("cell format: Pcov-MPcov (MPrate in MKP); adaptive target: 10 MKP on the high class."),
    },
    Artefact {
        name: "figure2",
        title: "Figure 2 — class distributions, CBP-1-like, standard automaton",
        cells: || over(standard(), "cbp1"),
        render: render_sized_distributions,
        note: None,
    },
    Artefact {
        name: "figure3",
        title: "Figure 3 — class distributions, CBP-2-like, standard automaton",
        cells: || over(standard(), "cbp2"),
        render: render_sized_distributions,
        note: None,
    },
    Artefact {
        name: "figure4",
        title: "Figure 4 — per-class misprediction rates, 64 Kbit, standard automaton",
        cells: || medium_cbp2(CounterAutomaton::Standard),
        render: render_class_rates,
        note: None,
    },
    Artefact {
        name: "figure5",
        title: "Figure 5 — class distributions, modified 3-bit counter automaton (p = 1/128)",
        cells: figure5_cells,
        render: render_figure5,
        note: None,
    },
    Artefact {
        name: "figure6",
        title: "Figure 6 — per-class misprediction rates, 64 Kbit, modified automaton (p = 1/128)",
        cells: || medium_cbp2(CounterAutomaton::paper_default()),
        render: render_class_rates,
        note: Some("Compare with figure4: the Stag class should now be in the few-MKP range."),
    },
    Artefact {
        name: "prob_sweep",
        title: "Section 6.2 — saturation-probability sweep, 16 Kbit predictor, CBP-1-like",
        cells: prob_sweep_cells,
        render: render_prob_sweep,
        note: Some("Expected shape: larger probabilities grow the high-confidence class but raise its misprediction rate."),
    },
    Artefact {
        name: "bim_breakdown",
        title: "Section 5.1 — bimodal-provider (BIM) breakdown, CBP-1-like",
        cells: || over([TageGeometry::small(), TageGeometry::large()], "cbp1"),
        render: render_bim_breakdown,
        note: None,
    },
    Artefact {
        name: "automaton_cost",
        title: "Section 6 — accuracy cost of the modified automaton",
        cells: automaton_cost_cells,
        render: render_automaton_cost,
        note: Some("Paper: the cost is below 0.02 misp/KI on the real CBP traces."),
    },
    Artefact {
        name: "ablations",
        title: "Ablations — medium-conf-bim window and counter width",
        cells: ablation_cells,
        render: render_ablations,
        note: None,
    },
];

/// Parses a comma-separated artefact list, or `all` for every artefact.
///
/// # Errors
///
/// Names the unknown artefact and lists the known ones.
pub fn parse_list(list: &str) -> Result<Vec<&'static Artefact>, String> {
    if list == "all" {
        return Ok(ARTEFACTS.iter().collect());
    }
    let artefacts = list
        .split(',')
        .map(str::trim)
        .filter(|name| !name.is_empty())
        .map(|name| {
            ARTEFACTS
                .iter()
                .find(|artefact| artefact.name == name)
                .ok_or_else(|| {
                    let known: Vec<&str> = ARTEFACTS.iter().map(|a| a.name).collect();
                    format!(
                        "unknown artefact \"{name}\" (known: all, {})",
                        known.join(", ")
                    )
                })
        })
        .collect::<Result<Vec<_>, String>>()?;
    if artefacts.is_empty() {
        return Err("the artefact list is empty".to_string());
    }
    Ok(artefacts)
}

/// Runs every (cell, trace) pair `artefacts` read once, on `workers`
/// threads, and renders every artefact in order under its header. The
/// text depends on `branches_per_trace` only: any worker count gives the
/// same bytes.
pub fn render(artefacts: &[&Artefact], branches_per_trace: usize, workers: usize) -> String {
    let wanted: Vec<Vec<Cell>> = artefacts.iter().map(|a| (a.cells)()).collect();
    let runs = runs(wanted.iter().flatten());
    // Whole cells keep every worker busy once there are enough of them;
    // with fewer cells than workers, each cell's traces split into shards.
    let pieces = workers.div_ceil(runs.len()).max(1);
    let shards: Vec<(&Cell, &[TraceSpec])> = runs
        .iter()
        .flat_map(|(cell, traces)| {
            let size = traces.len().div_ceil(pieces);
            traces.chunks(size).map(move |chunk| (cell, chunk))
        })
        .collect();
    let (results, _) = steal_map(&shards, workers, |&(cell, traces)| {
        cell.run(traces, branches_per_trace)
    });
    let ran: Vec<(&Cell, &PointTraceMetrics)> = shards
        .iter()
        .zip(&results)
        .flat_map(|(&(cell, _), result)| result.traces.iter().map(move |trace| (cell, trace)))
        .collect();
    let mut out = String::new();
    for (artefact, cells) in artefacts.iter().zip(&wanted) {
        let results: Vec<PointResult> = cells.iter().map(|cell| cell.result(&ran)).collect();
        let ran: Vec<Ran<'_>> = cells.iter().zip(&results).collect();
        out.push_str(&header(artefact.title, branches_per_trace));
        (artefact.render)(&ran, &mut out).expect("writing to a String cannot fail");
        if let Some(note) = artefact.note {
            out.push_str(&format!("\n{note}\n"));
        }
    }
    out
}

/// Each cell over its whole suite once, in first-seen order, with every
/// trace `cells` read from it.
fn runs<'a>(cells: impl Iterator<Item = &'a Cell>) -> Vec<(Cell, Vec<TraceSpec>)> {
    let mut runs: Vec<(Cell, Vec<TraceSpec>)> = Vec::new();
    for cell in cells {
        let whole = cell.whole();
        let slot = match runs.iter().position(|(run, _)| *run == whole) {
            Some(slot) => slot,
            None => {
                runs.push((whole, Vec::new()));
                runs.len() - 1
            }
        };
        let traces = &mut runs[slot].1;
        for spec in cell.trace_specs() {
            if !traces.iter().any(|trace| trace.name() == spec.name()) {
                traces.push(spec);
            }
        }
    }
    runs
}

fn standard() -> [TageGeometry; 3] {
    [
        TageGeometry::small(),
        TageGeometry::medium(),
        TageGeometry::large(),
    ]
}

fn modified() -> [TageGeometry; 3] {
    standard().map(|g| g.with_automaton(CounterAutomaton::paper_default()))
}

/// `geometries` over one suite.
fn over(geometries: impl IntoIterator<Item = TageGeometry>, suite: &'static str) -> Vec<Cell> {
    geometries
        .into_iter()
        .map(|geometry| Cell::new(geometry, suite))
        .collect()
}

/// The seven CBP-2 traces of Figures 4 and 6.
const FIGURE_TRACES: [&str; 7] = [
    "164.gzip",
    "175.vpr",
    "176.gcc",
    "181.mcf",
    "186.crafty",
    "197.parser",
    "201.compress",
];

/// The one cell of Figures 4 and 6: their seven traces of the medium
/// predictor over CBP-2.
fn medium_cbp2(automaton: CounterAutomaton) -> Vec<Cell> {
    let geometry = TageGeometry::medium().with_automaton(automaton);
    vec![Cell {
        traces: Some(&FIGURE_TRACES),
        ..Cell::new(geometry, "cbp2")
    }]
}

fn table1_cells() -> Vec<Cell> {
    let mut cells = over(standard(), "cbp1");
    cells.extend(over(standard(), "cbp2"));
    cells
}

/// Every modified geometry over both suites, suite-minor.
fn table2_cells() -> Vec<Cell> {
    modified()
        .into_iter()
        .flat_map(|geometry| {
            [
                Cell::new(geometry.clone(), "cbp1"),
                Cell::new(geometry, "cbp2"),
            ]
        })
        .collect()
}

fn table3_cells() -> Vec<Cell> {
    table2_cells()
        .into_iter()
        .map(|cell| Cell {
            options: RunOptions::adaptive(),
            ..cell
        })
        .collect()
}

fn figure5_cells() -> Vec<Cell> {
    let [small, medium, large] = modified();
    vec![
        Cell::new(small, "cbp1"),
        Cell::new(medium, "cbp2"),
        Cell::new(large, "cbp1"),
    ]
}

fn prob_sweep_cells() -> Vec<Cell> {
    over(
        [0, 2, 4, 7, 10].map(|exponent| {
            TageGeometry::small().with_automaton(CounterAutomaton::probabilistic(exponent))
        }),
        "cbp1",
    )
}

/// For every size and suite, the standard cell followed by its
/// modified twin.
fn automaton_cost_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for (standard, modified) in standard().into_iter().zip(modified()) {
        for suite in ["cbp1", "cbp2"] {
            cells.push(Cell::new(standard.clone(), suite));
            cells.push(Cell::new(modified.clone(), suite));
        }
    }
    cells
}

/// The six window lengths, then the four counter widths.
fn ablation_cells() -> Vec<Cell> {
    let mut cells: Vec<Cell> = [0, 2, 4, 8, 16, 32]
        .into_iter()
        .map(|window| Cell {
            options: RunOptions {
                bim_miss_window: window,
                ..RunOptions::default()
            },
            ..Cell::new(TageGeometry::small(), "cbp1")
        })
        .collect();
    cells.extend(over(
        [2, 3, 4, 5].map(|counter_bits| TageGeometry {
            counter_bits,
            ..TageGeometry::small()
        }),
        "cbp1",
    ));
    cells
}

/// `label` followed by `values`: one table row.
fn labelled(label: &str, values: impl Iterator<Item = String>) -> Vec<String> {
    let mut row = vec![label.to_string()];
    row.extend(values);
    row
}

fn render_table1(ran: &[Ran<'_>], out: &mut String) -> fmt::Result {
    let (cbp1, cbp2) = ran.split_at(ran.len() / 2);
    let geometries = || cbp1.iter().map(|(cell, _)| &cell.geometry);
    let mut table = TextTable::new(vec!["", "Small", "Medium", "Large"]);
    table.row(labelled(
        "Storage budget",
        geometries().map(|g| format!("{} Kbits", g.storage_bits() / 1024)),
    ));
    table.row(labelled(
        "Number of tables",
        geometries().map(|g| format!("1 + {}", g.num_tagged_tables())),
    ));
    table.row(labelled(
        "Min Hist length",
        geometries().map(|g| g.min_history().to_string()),
    ));
    table.row(labelled(
        "Max Hist Length",
        geometries().map(|g| g.max_history().to_string()),
    ));
    for (label, cells) in [("CBP-1-like misp/KI", cbp1), ("CBP-2-like misp/KI", cbp2)] {
        table.row(labelled(
            label,
            cells.iter().map(|(_, result)| mpki(result.mean_mpki())),
        ));
    }
    write!(out, "{}", table.render())
}

/// One confidence level of a suite aggregate: `Pcov-MPcov (MPrate)`.
fn level_cell(report: &ConfidenceReport, level: ConfidenceLevel) -> String {
    format!(
        "{}-{} ({})",
        fraction(report.level_pcov(level)),
        fraction(report.level_mpcov(level)),
        mkp(report.level_mprate_mkp(level))
    )
}

/// Tables 2 and 3: the three levels per (configuration, suite), plus the
/// mean final saturation probability when the cells run the adaptive
/// controller.
fn render_levels(ran: &[Ran<'_>], out: &mut String) -> fmt::Result {
    let adaptive = ran[0].0.options.adaptive_target_mkp.is_some();
    let mut headers = vec!["config / suite", "high conf", "medium conf", "low conf"];
    if adaptive {
        headers.push("mean final p");
    }
    let mut table = TextTable::new(headers);
    for (cell, result) in ran {
        let mut row = vec![format!("{} {}", cell.geometry.name(), result.suite)];
        row.extend(
            [
                ConfidenceLevel::High,
                ConfidenceLevel::Medium,
                ConfidenceLevel::Low,
            ]
            .map(|level| level_cell(&result.aggregate, level)),
        );
        if adaptive {
            let finals = result.traces.iter().map(|t| t.final_saturation_probability);
            row.push(probability(
                finals.sum::<f64>() / result.traces.len() as f64,
            ));
        }
        table.row(row);
    }
    write!(out, "{}", table.render())
}

/// A table with one row per trace: the trace name, one cell per class and
/// a last `total` column.
fn class_table<'a>(
    traces: impl Iterator<Item = &'a PointTraceMetrics>,
    total: &str,
    row: impl Fn(&ConfidenceReport) -> ([String; 7], String),
) -> TextTable {
    let mut headers = vec!["trace"];
    headers.extend(PredictionClass::ALL.iter().map(|c| c.label()));
    headers.push(total);
    let mut table = TextTable::new(headers);
    for trace in traces {
        let (name, report) = (&trace.trace_name, &trace.report);
        let (classes, total) = row(report);
        let mut cells = labelled(name, classes.into_iter());
        cells.push(total);
        table.row(cells);
    }
    table
}

/// One bar group of Figures 2, 3 and 5: per-trace prediction coverage and
/// MPKI contribution of each class.
fn render_distribution(result: &PointResult, out: &mut String) -> fmt::Result {
    let pcov = class_table(result.traces.iter(), "MPKI", |report| {
        (
            PredictionClass::ALL.map(|class| format!("{:.3}", report.pcov(class))),
            format!("{:.2}", report.mpki()),
        )
    });
    let contribution = class_table(result.traces.iter(), "MPKI", |report| {
        (
            PredictionClass::ALL.map(|class| format!("{:.3}", report.class_mpki(class))),
            format!("{:.2}", report.mpki()),
        )
    });
    writeln!(out, "prediction coverage (left plot):")?;
    write!(out, "{}", pcov.render())?;
    writeln!(out, "misprediction contribution in MPKI (right plot):")?;
    write!(out, "{}", contribution.render())?;
    writeln!(out)
}

fn render_sized_distributions(ran: &[Ran<'_>], out: &mut String) -> fmt::Result {
    for (cell, result) in ran {
        writeln!(out, "--- {} ---", cell.geometry.name())?;
        render_distribution(result, out)?;
    }
    Ok(())
}

fn render_figure5(ran: &[Ran<'_>], out: &mut String) -> fmt::Result {
    for (cell, result) in ran {
        writeln!(out, "--- {} on {} ---", cell.geometry.name(), result.suite)?;
        render_distribution(result, out)?;
    }
    Ok(())
}

/// Figures 4 and 6: the misprediction rate of each class, per trace of the
/// one cell.
fn render_class_rates(ran: &[Ran<'_>], out: &mut String) -> fmt::Result {
    let (_, result) = ran[0];
    let table = class_table(result.traces.iter(), "Average", |report| {
        (
            PredictionClass::ALL.map(|class| mkp(report.mprate_mkp(class))),
            mkp(report.mkp()),
        )
    });
    writeln!(out, "misprediction rate per class, in MKP:")?;
    write!(out, "{}", table.render())
}

fn render_prob_sweep(ran: &[Ran<'_>], out: &mut String) -> fmt::Result {
    let mut table = TextTable::new(vec![
        "probability",
        "high Pcov",
        "high MPcov",
        "high MPrate (MKP)",
        "overall MPKI",
    ]);
    for (cell, result) in ran {
        let high = ConfidenceLevel::High;
        table.row(vec![
            probability(cell.geometry.automaton.saturation_probability()),
            fraction(result.aggregate.level_pcov(high)),
            fraction(result.aggregate.level_mpcov(high)),
            mkp(result.aggregate.level_mprate_mkp(high)),
            mpki(result.mean_mpki()),
        ]);
    }
    write!(out, "{}", table.render())
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

fn render_bim_breakdown(ran: &[Ran<'_>], out: &mut String) -> fmt::Result {
    const BIM: [PredictionClass; 3] = [
        PredictionClass::HighConfBim,
        PredictionClass::MediumConfBim,
        PredictionClass::LowConfBim,
    ];
    for (cell, result) in ran {
        writeln!(out, "--- {} ---", cell.geometry.name())?;
        let mut table = TextTable::new(vec![
            "trace",
            "BIM Pcov",
            "BIM MPcov",
            "BIM MKP",
            "high-conf-bim MKP",
            "medium-conf-bim MKP",
            "low-conf-bim MKP",
            "overall MKP",
        ]);
        for trace in &result.traces {
            let (name, report) = (&trace.trace_name, &trace.report);
            let predictions: u64 = BIM.iter().map(|&c| report.class(c).predictions).sum();
            let misses: u64 = BIM.iter().map(|&c| report.class(c).mispredictions).sum();
            let total = report.total();
            let mut row = labelled(
                name,
                [
                    fraction(ratio(predictions, total.predictions)),
                    fraction(ratio(misses, total.mispredictions)),
                    mkp(1000.0 * ratio(misses, predictions)),
                ]
                .into_iter(),
            );
            row.extend(BIM.iter().map(|&class| mkp(report.mprate_mkp(class))));
            row.push(mkp(report.mkp()));
            table.row(row);
        }
        write!(out, "{}", table.render())?;
        writeln!(out)?;
    }
    Ok(())
}

fn render_automaton_cost(ran: &[Ran<'_>], out: &mut String) -> fmt::Result {
    let mut table = TextTable::new(vec![
        "config",
        "suite",
        "standard MPKI",
        "modified MPKI",
        "cost (MPKI)",
    ]);
    for pair in ran.chunks(2) {
        let [(cell, standard), (_, modified)] = pair else {
            unreachable!("automaton_cost cells come in pairs")
        };
        let cost = modified.mean_mpki() - standard.mean_mpki();
        table.row(vec![
            cell.geometry.name(),
            standard.suite.clone(),
            mpki(standard.mean_mpki()),
            mpki(modified.mean_mpki()),
            format!("{cost:+.3}"),
        ]);
    }
    write!(out, "{}", table.render())
}

fn render_ablations(ran: &[Ran<'_>], out: &mut String) -> fmt::Result {
    let (windows, widths) = ran.split_at(6);
    writeln!(
        out,
        "--- medium-conf-bim window length (16 Kbit predictor) ---"
    )?;
    let mut table = TextTable::new(vec![
        "window",
        "medium-conf-bim Pcov",
        "medium-conf-bim MKP",
        "high-conf-bim MKP",
    ]);
    for (cell, result) in windows {
        let report = &result.aggregate;
        table.row(vec![
            cell.options.bim_miss_window.to_string(),
            fraction(report.pcov(PredictionClass::MediumConfBim)),
            mkp(report.mprate_mkp(PredictionClass::MediumConfBim)),
            mkp(report.mprate_mkp(PredictionClass::HighConfBim)),
        ]);
    }
    write!(out, "{}", table.render())?;
    writeln!(out)?;
    writeln!(
        out,
        "--- tagged counter width (16 Kbit predictor, standard automaton) ---"
    )?;
    let mut table = TextTable::new(vec![
        "counter bits",
        "MPKI",
        "saturated-class Pcov",
        "saturated-class MKP",
    ]);
    for (cell, result) in widths {
        table.row(vec![
            cell.geometry.counter_bits.to_string(),
            mpki(result.mean_mpki()),
            fraction(result.aggregate.pcov(PredictionClass::Stag)),
            mkp(result.aggregate.mprate_mkp(PredictionClass::Stag)),
        ]);
    }
    write!(out, "{}", table.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use PredictionClass::{HighConfBim, LowConfBim, MediumConfBim, Stag, Wtag};

    const N: usize = 8_000;

    fn cells(artefact: &str) -> Vec<Cell> {
        (parse_list(artefact).unwrap()[0].cells)()
    }

    /// `cell` over the 4-trace mini suite, so the tests stay fast.
    fn mini(cell: &Cell, branches: usize) -> PointResult {
        let cell = Cell {
            suite: "cbp1-mini",
            traces: None,
            ..cell.clone()
        };
        cell.run(&cell.trace_specs(), branches)
    }

    #[test]
    fn configs_lists_cover_the_three_sizes() {
        let bits: Vec<u64> = cells("table1")
            .iter()
            .map(|cell| cell.geometry.storage_bits())
            .collect();
        assert_eq!(bits, [16, 64, 256, 16, 64, 256].map(|k| k * 1024));
        assert!(cells("table2")
            .iter()
            .all(|cell| cell.geometry.automaton == CounterAutomaton::paper_default()));
        assert!(cells("table3")
            .iter()
            .all(|cell| cell.options == RunOptions::adaptive()));
        let every: Vec<Cell> = ARTEFACTS.iter().flat_map(|a| (a.cells)()).collect();
        assert_eq!(runs(every.iter()).len(), 30);
    }

    #[test]
    fn figures_4_and_6_read_seven_traces_of_a_shared_cell() {
        let figure4 = &cells("figure4")[0];
        let names: Vec<String> = figure4
            .trace_specs()
            .iter()
            .map(|spec| spec.name().to_string())
            .collect();
        assert_eq!(names, FIGURE_TRACES);
        let runs = runs([figure4.clone(), cells("figure3")[1].clone()].iter());
        assert_eq!(runs.len(), 1, "figure4 shares figure3's medium cell");
        assert_eq!((runs[0].0.traces, runs[0].1.len()), (None, 20));
    }

    #[test]
    fn splitting_cells_across_workers_keeps_the_bytes() {
        // One worker runs whole cells. Five split figure4's seven traces
        // 4 + 3 and bim_breakdown's 20 traces per cell 10 + 10; apart,
        // figure4 splits 2 + 2 + 2 + 1 and bim_breakdown 7 + 7 + 6.
        let artefacts = parse_list("figure4,bim_breakdown").unwrap();
        let serial = render(&artefacts, 1_000, 1);
        assert_eq!(render(&artefacts, 1_000, 5), serial);
        let apart = render(&artefacts[..1], 1_000, 5) + &render(&artefacts[1..], 1_000, 5);
        assert_eq!(apart, serial);
    }

    #[test]
    fn artefact_lists_parse_in_order_and_name_unknown_artefacts() {
        let names = |list: &str| -> Vec<&str> {
            parse_list(list).unwrap().iter().map(|a| a.name).collect()
        };
        let all = names("all");
        assert_eq!(all.len(), 12);
        assert_eq!((all[0], all[11]), ("table1", "ablations"));
        assert_eq!(names("figure4, table2"), ["figure4", "table2"]);
        let error = parse_list("table9").unwrap_err();
        assert!(error.contains("\"table9\"") && error.contains("prob_sweep"));
        assert!(parse_list(",").is_err());
    }

    #[test]
    fn table1_reports_the_three_sizes_with_sane_mpki() {
        let table1 = cells("table1");
        let results: Vec<PointResult> = table1.iter().map(|cell| mini(cell, 4_000)).collect();
        let ran: Vec<Ran<'_>> = table1.iter().zip(&results).collect();
        let mut out = String::new();
        render_table1(&ran, &mut out).unwrap();
        assert!(
            out.contains("16 Kbits") && out.contains("256 Kbits"),
            "{out}"
        );
        let (cbp1, cbp2) = results.split_at(3);
        for (row, twin) in cbp1.iter().zip(cbp2) {
            let mpki = row.mean_mpki();
            assert!(mpki > 0.0 && mpki < 60.0, "{mpki}");
            assert!(
                (mpki - twin.mean_mpki()).abs() < 1e-12,
                "both halves ran the mini suite"
            );
        }
        // Bigger predictors should not be (meaningfully) worse.
        assert!(cbp1[2].mean_mpki() <= cbp1[0].mean_mpki() + 0.3);
    }

    #[test]
    fn class_distribution_rows_cover_every_trace_and_sum_to_one() {
        let result = mini(&cells("figure2")[0], N);
        assert_eq!(result.traces.len(), 4);
        for trace in &result.traces {
            let report = &trace.report;
            let pcov: f64 = PredictionClass::ALL.map(|c| report.pcov(c)).iter().sum();
            assert!((pcov - 1.0).abs() < 1e-9, "{}", trace.trace_name);
            let mpki: f64 = PredictionClass::ALL
                .map(|c| report.class_mpki(c))
                .iter()
                .sum();
            assert!((mpki - report.mpki()).abs() < 1e-6, "{}", trace.trace_name);
        }
    }

    #[test]
    fn per_class_rates_orders_weak_above_saturated() {
        // Figure 6's modified automaton, on the small predictor.
        let small = Cell {
            geometry: cells("table2")[0].geometry.clone(),
            ..cells("figure6")[0].clone()
        };
        let result = mini(&small, 20_000);
        for name in ["MM-5", "SERV-2"] {
            let trace = result.traces.iter().find(|t| t.trace_name == name).unwrap();
            let (wtag, stag) = (trace.report.mprate_mkp(Wtag), trace.report.mprate_mkp(Stag));
            assert!(
                wtag > stag,
                "{name}: Wtag ({wtag}) should mispredict more than Stag ({stag})"
            );
        }
    }

    #[test]
    fn three_level_summary_reproduces_the_ordering_of_table_2() {
        let result = mini(&cells("table2")[0], 40_000);
        let report = &result.aggregate;
        let levels = [
            ConfidenceLevel::High,
            ConfidenceLevel::Medium,
            ConfidenceLevel::Low,
        ];
        let pcov: f64 = levels.map(|l| report.level_pcov(l)).iter().sum();
        let mpcov: f64 = levels.map(|l| report.level_mpcov(l)).iter().sum();
        assert!((pcov - 1.0).abs() < 1e-9 && (mpcov - 1.0).abs() < 1e-9);
        // High confidence is a sizeable class with the lowest rate. (The
        // paper's coverage is larger because its traces are tens of millions
        // of branches long, which gives the 1/128 saturation many more
        // opportunities.)
        let high_pcov = report.level_pcov(ConfidenceLevel::High);
        assert!(high_pcov > 0.25, "high pcov {high_pcov}");
        let [high, medium, low] = levels.map(|l| report.level_mprate_mkp(l));
        assert!(high < medium && medium < low, "{high} {medium} {low}");
        // Low confidence has a very high misprediction rate.
        assert!(low > 150.0, "low rate {low}");
        assert!(result
            .traces
            .iter()
            .all(|t| t.final_saturation_probability == 1.0 / 128.0));
    }

    #[test]
    fn probability_sweep_trades_coverage_for_purity() {
        // The sweep cells are p = 1, 1/4, 1/16, 1/128 and 1/1024.
        let sweep = cells("prob_sweep");
        assert_eq!(sweep.len(), 5);
        let results: Vec<PointResult> = sweep.iter().map(|cell| mini(cell, 20_000)).collect();
        for (cell, result) in sweep.iter().zip(&results) {
            let p = cell.geometry.automaton.saturation_probability();
            assert!(p > 0.0 && p <= 1.0, "{p}");
            assert!(result.mean_mpki() > 0.0, "p = {p}");
        }
        // Larger probability => larger high-confidence coverage and a higher
        // (or equal) high-confidence miss rate.
        let high = ConfidenceLevel::High;
        let (first, last) = (&results[0].aggregate, &results[4].aggregate);
        assert!(first.level_pcov(high) >= last.level_pcov(high));
        assert!(first.level_mprate_mkp(high) >= last.level_mprate_mkp(high) - 1e-9);
    }

    #[test]
    fn automaton_cost_is_small() {
        let pairs = cells("automaton_cost");
        assert_eq!(pairs.len(), 12);
        // Each size's CBP-1 pair: on the mini suite its CBP-2 pair is the same.
        for pair in pairs.chunks(2).step_by(2) {
            let [standard, modified] = pair else {
                unreachable!("automaton_cost cells come in pairs")
            };
            let cost = mini(modified, 10_000).mean_mpki() - mini(standard, 10_000).mean_mpki();
            // The paper reports < 0.02 MPKI on real traces; allow a slightly
            // looser bound on the short synthetic runs.
            assert!(
                cost.abs() < 0.25,
                "{}: cost {cost} MPKI too large",
                standard.geometry.name()
            );
        }
    }

    #[test]
    fn bim_breakdown_orders_the_three_bim_classes() {
        let result = mini(&cells("bim_breakdown")[0], 20_000);
        assert_eq!(result.traces.len(), 4);
        for trace in &result.traces {
            let report = &trace.report;
            let bim: u64 = [HighConfBim, MediumConfBim, LowConfBim]
                .map(|c| report.class(c).predictions)
                .iter()
                .sum();
            let bim_pcov = ratio(bim, report.total().predictions);
            assert!(bim_pcov > 0.0 && bim_pcov <= 1.0);
            let (low, high) = (
                report.mprate_mkp(LowConfBim),
                report.mprate_mkp(HighConfBim),
            );
            if low > 0.0 && high > 0.0 {
                assert!(
                    low > high,
                    "{}: weak bimodal ({low}) should mispredict more than strong ({high})",
                    trace.trace_name
                );
            }
        }
    }

    #[test]
    fn window_ablation_zero_window_removes_the_medium_class() {
        // The window cells are 0, 2, 4, 8, 16 and 32.
        let windows = cells("ablations");
        let medium = |i: usize| mini(&windows[i], N).aggregate.pcov(MediumConfBim);
        assert_eq!(medium(0), 0.0);
        assert!(medium(5) >= medium(3));
    }

    #[test]
    fn counter_width_ablation_produces_rows_for_each_width() {
        for cell in &cells("ablations")[6..] {
            let result = mini(cell, N);
            assert!(
                result.mean_mpki() > 0.0,
                "{} bits",
                cell.geometry.counter_bits
            );
            assert!(result.aggregate.pcov(Stag) > 0.0);
        }
    }
}
