//! Building blocks for the paper's tables and figures.
//!
//! Each function here computes the data behind one (or several) of the
//! paper's evaluation artefacts; the `tage-bench` binaries only format the
//! returned rows. Every sweep is a grid of [`TageSweepPoint`]s handed to the
//! shared point-runner [`run_tage_sweep`] — the functions only *expand the
//! axis* (probability exponents, window lengths, counter widths, automaton
//! on/off) and *format the rows*. Each point's suite evaluation is sharded
//! per trace across the available hardware threads with deterministic,
//! bit-identical aggregation; larger cross products run through the
//! `tage-bench` campaign runner, which steals work across whole points.
//! The mapping to the paper is:
//!
//! | paper artefact | function |
//! |---|---|
//! | Table 1 (configurations & misp/KI) | [`table1`] |
//! | Figures 2, 3 (class distributions, standard automaton) | [`class_distribution`] |
//! | Figure 4 (per-class MKP, 64 Kbit) | [`per_class_rates`] |
//! | Figures 5, 6 (modified automaton) | same functions with a modified-automaton config |
//! | Table 2 (three-level summary, p = 1/128) | [`three_level_summary`] |
//! | Table 3 (adaptive probability) | [`three_level_summary`] with [`RunOptions::adaptive`] |
//! | §6.2 probability sweep | [`probability_sweep`] |
//! | §5.1 BIM breakdown | [`bim_breakdown`] |
//! | §6 automaton accuracy cost | [`automaton_cost`] |
//! | ablations (window length, counter width) | [`window_ablation`], [`counter_width_ablation`] |

use tage::{CounterAutomaton, TageGeometry};
use tage_confidence::{ConfidenceLevel, PredictionClass};
use tage_traces::Suite;

use crate::point::{run_tage_sweep, TageSweepPoint};
use crate::runner::RunOptions;
use crate::suite::{run_suite, SuiteRunResult};

/// The three predictor sizes of Table 1, with the standard automaton.
pub fn standard_configs() -> Vec<TageGeometry> {
    vec![
        TageGeometry::small(),
        TageGeometry::medium(),
        TageGeometry::large(),
    ]
}

/// The three predictor sizes with the paper's modified automaton (1/128).
pub fn modified_configs() -> Vec<TageGeometry> {
    standard_configs()
        .into_iter()
        .map(|c| c.with_automaton(CounterAutomaton::paper_default()))
        .collect()
}

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Configuration name.
    pub config_name: String,
    /// Storage budget in bits.
    pub storage_bits: u64,
    /// Number of tables (including the bimodal base predictor).
    pub num_tables: usize,
    /// Minimum history length.
    pub min_history: usize,
    /// Maximum history length.
    pub max_history: usize,
    /// Mean MPKI over the CBP-1-like suite.
    pub cbp1_mpki: f64,
    /// Mean MPKI over the CBP-2-like suite.
    pub cbp2_mpki: f64,
}

/// Reproduces Table 1: the three simulated configurations and their mean
/// misprediction rates on both suites.
pub fn table1(cbp1: &Suite, cbp2: &Suite, branches_per_trace: usize) -> Vec<Table1Row> {
    let points: Vec<TageSweepPoint> = standard_configs()
        .into_iter()
        .map(TageSweepPoint::new)
        .collect();
    let r1 = run_tage_sweep(&points, cbp1, branches_per_trace);
    let r2 = run_tage_sweep(&points, cbp2, branches_per_trace);
    points
        .iter()
        .zip(r1.iter().zip(&r2))
        .map(|(point, (r1, r2))| Table1Row {
            config_name: point.geometry.name(),
            storage_bits: point.geometry.storage_bits(),
            num_tables: point.geometry.num_tagged_tables() + 1,
            min_history: point.geometry.min_history(),
            max_history: point.geometry.max_history(),
            cbp1_mpki: r1.mean_mpki(),
            cbp2_mpki: r2.mean_mpki(),
        })
        .collect()
}

/// Per-trace class distribution: prediction coverage and MPKI contribution
/// of each of the 7 classes (one bar of Figures 2/3/5).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDistributionRow {
    /// Trace name.
    pub trace_name: String,
    /// Prediction coverage per class, in paper order.
    pub pcov: [f64; 7],
    /// MPKI contribution per class, in paper order.
    pub mpki_contribution: [f64; 7],
    /// Total MPKI of the trace.
    pub total_mpki: f64,
}

/// Computes the per-trace class distributions of Figures 2/3 (standard
/// automaton) or Figure 5 (pass a modified-automaton config).
pub fn class_distribution(
    config: &TageGeometry,
    suite: &Suite,
    branches_per_trace: usize,
) -> Vec<ClassDistributionRow> {
    let result = run_suite(config, suite, branches_per_trace, &RunOptions::default());
    distribution_rows(&result)
}

/// Extracts class-distribution rows from an existing suite run.
pub fn distribution_rows(result: &SuiteRunResult) -> Vec<ClassDistributionRow> {
    result
        .traces
        .iter()
        .map(|trace| {
            let mut pcov = [0.0; 7];
            let mut mpki = [0.0; 7];
            for (i, class) in PredictionClass::ALL.into_iter().enumerate() {
                pcov[i] = trace.report.pcov(class);
                mpki[i] = trace.report.class_mpki(class);
            }
            ClassDistributionRow {
                trace_name: trace.trace_name.clone(),
                pcov,
                mpki_contribution: mpki,
                total_mpki: trace.mpki(),
            }
        })
        .collect()
}

/// Per-trace misprediction rate of each class, in MKP (one group of bars of
/// Figures 4/6).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassRatesRow {
    /// Trace name.
    pub trace_name: String,
    /// Misprediction rate per class in MKP, in paper order.
    pub mprate_mkp: [f64; 7],
    /// Average misprediction rate of the trace in MKP.
    pub average_mkp: f64,
}

/// Computes the per-class misprediction rates of Figure 4 (standard
/// automaton) or Figure 6 (modified automaton) for the named traces.
pub fn per_class_rates(
    config: &TageGeometry,
    suite: &Suite,
    trace_names: &[&str],
    branches_per_trace: usize,
) -> Vec<ClassRatesRow> {
    let selected = Suite::new(
        suite.name(),
        trace_names
            .iter()
            .filter_map(|name| suite.trace(name).cloned())
            .collect(),
    );
    let result = run_suite(
        config,
        &selected,
        branches_per_trace,
        &RunOptions::default(),
    );
    result
        .traces
        .iter()
        .map(|trace| {
            let mut rates = [0.0; 7];
            for (i, class) in PredictionClass::ALL.into_iter().enumerate() {
                rates[i] = trace.report.mprate_mkp(class);
            }
            ClassRatesRow {
                trace_name: trace.trace_name.clone(),
                mprate_mkp: rates,
                average_mkp: trace.mkp(),
            }
        })
        .collect()
}

/// One cell of Tables 2/3: coverage and rate of one confidence level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelCell {
    /// Prediction coverage of the level.
    pub pcov: f64,
    /// Misprediction coverage of the level.
    pub mpcov: f64,
    /// Misprediction rate of the level in MKP.
    pub mprate_mkp: f64,
}

/// One row of Tables 2/3: the three confidence levels for one
/// (configuration, suite) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSummaryRow {
    /// Configuration name.
    pub config_name: String,
    /// Suite name.
    pub suite_name: String,
    /// High-confidence cell.
    pub high: LevelCell,
    /// Medium-confidence cell.
    pub medium: LevelCell,
    /// Low-confidence cell.
    pub low: LevelCell,
    /// Mean saturation probability in effect at the end of the runs (1/128
    /// for Table 2; varies for Table 3's adaptive controller).
    pub mean_final_probability: f64,
}

/// Computes one row of Table 2 (default options) or Table 3
/// ([`RunOptions::adaptive`]) for a configuration and a suite. The
/// configuration is expected to carry the modified automaton.
pub fn three_level_summary(
    config: &TageGeometry,
    suite: &Suite,
    branches_per_trace: usize,
    options: &RunOptions,
) -> LevelSummaryRow {
    let result = run_suite(config, suite, branches_per_trace, options);
    let cell = |level: ConfidenceLevel| LevelCell {
        pcov: result.aggregate.level_pcov(level),
        mpcov: result.aggregate.level_mpcov(level),
        mprate_mkp: result.aggregate.level_mprate_mkp(level),
    };
    let mean_final_probability = if result.traces.is_empty() {
        config.automaton.saturation_probability()
    } else {
        result
            .traces
            .iter()
            .map(|t| t.final_saturation_probability)
            .sum::<f64>()
            / result.traces.len() as f64
    };
    LevelSummaryRow {
        config_name: config.name(),
        suite_name: suite.name().to_string(),
        high: cell(ConfidenceLevel::High),
        medium: cell(ConfidenceLevel::Medium),
        low: cell(ConfidenceLevel::Low),
        mean_final_probability,
    }
}

/// One row of the Section 6.2 probability sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbabilitySweepRow {
    /// log2 of the inverse saturation probability.
    pub log2_inverse_probability: u32,
    /// The saturation probability itself.
    pub probability: f64,
    /// High-confidence prediction coverage.
    pub high_pcov: f64,
    /// High-confidence misprediction coverage.
    pub high_mpcov: f64,
    /// High-confidence misprediction rate in MKP.
    pub high_mprate_mkp: f64,
    /// Overall MPKI (to show the accuracy cost stays negligible).
    pub mpki: f64,
}

/// Sweeps the saturation probability (Section 6.2: 1/16 vs 1/128, extended
/// to a full range) for one configuration and suite.
pub fn probability_sweep(
    base_config: &TageGeometry,
    suite: &Suite,
    branches_per_trace: usize,
    exponents: &[u32],
) -> Vec<ProbabilitySweepRow> {
    let points: Vec<TageSweepPoint> = exponents
        .iter()
        .map(|&exp| {
            TageSweepPoint::new(
                base_config
                    .clone()
                    .with_automaton(CounterAutomaton::probabilistic(exp)),
            )
        })
        .collect();
    let results = run_tage_sweep(&points, suite, branches_per_trace);
    exponents
        .iter()
        .zip(&results)
        .map(|(&exp, result)| ProbabilitySweepRow {
            log2_inverse_probability: exp,
            probability: 1.0 / f64::from(1u32 << exp),
            high_pcov: result.aggregate.level_pcov(ConfidenceLevel::High),
            high_mpcov: result.aggregate.level_mpcov(ConfidenceLevel::High),
            high_mprate_mkp: result.aggregate.level_mprate_mkp(ConfidenceLevel::High),
            mpki: result.mean_mpki(),
        })
        .collect()
}

/// One row of the Section 5.1 BIM-class breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct BimBreakdownRow {
    /// Trace name.
    pub trace_name: String,
    /// Fraction of all predictions provided by the bimodal component.
    pub bim_pcov: f64,
    /// Fraction of all mispredictions provided by the bimodal component.
    pub bim_mpcov: f64,
    /// Misprediction rate of the whole BIM class in MKP.
    pub bim_mprate_mkp: f64,
    /// Misprediction rate of `high-conf-bim` in MKP.
    pub high_conf_bim_mkp: f64,
    /// Misprediction rate of `medium-conf-bim` in MKP.
    pub medium_conf_bim_mkp: f64,
    /// Misprediction rate of `low-conf-bim` in MKP.
    pub low_conf_bim_mkp: f64,
    /// Overall misprediction rate of the trace in MKP.
    pub overall_mkp: f64,
}

/// Computes the Section 5.1 breakdown of the bimodal-provided predictions.
pub fn bim_breakdown(
    config: &TageGeometry,
    suite: &Suite,
    branches_per_trace: usize,
) -> Vec<BimBreakdownRow> {
    let result = run_suite(config, suite, branches_per_trace, &RunOptions::default());
    result
        .traces
        .iter()
        .map(|trace| {
            let bim_classes = [
                PredictionClass::HighConfBim,
                PredictionClass::MediumConfBim,
                PredictionClass::LowConfBim,
            ];
            let bim_predictions: u64 = bim_classes
                .iter()
                .map(|&c| trace.report.class(c).predictions)
                .sum();
            let bim_misses: u64 = bim_classes
                .iter()
                .map(|&c| trace.report.class(c).mispredictions)
                .sum();
            let total = trace.report.total();
            BimBreakdownRow {
                trace_name: trace.trace_name.clone(),
                bim_pcov: ratio(bim_predictions, total.predictions),
                bim_mpcov: ratio(bim_misses, total.mispredictions),
                bim_mprate_mkp: 1000.0 * ratio(bim_misses, bim_predictions),
                high_conf_bim_mkp: trace.report.mprate_mkp(PredictionClass::HighConfBim),
                medium_conf_bim_mkp: trace.report.mprate_mkp(PredictionClass::MediumConfBim),
                low_conf_bim_mkp: trace.report.mprate_mkp(PredictionClass::LowConfBim),
                overall_mkp: trace.mkp(),
            }
        })
        .collect()
}

/// One row of the automaton accuracy-cost comparison (Section 6: the
/// modified automaton costs less than 0.02 misp/KI).
#[derive(Debug, Clone, PartialEq)]
pub struct AutomatonCostRow {
    /// Configuration name.
    pub config_name: String,
    /// Suite name.
    pub suite_name: String,
    /// Mean MPKI with the standard automaton.
    pub standard_mpki: f64,
    /// Mean MPKI with the modified (1/128) automaton.
    pub modified_mpki: f64,
}

impl AutomatonCostRow {
    /// MPKI increase caused by the modified automaton.
    pub fn cost(&self) -> f64 {
        self.modified_mpki - self.standard_mpki
    }
}

/// Measures the accuracy cost of the modified automaton for every
/// configuration over the given suites.
pub fn automaton_cost(suites: &[&Suite], branches_per_trace: usize) -> Vec<AutomatonCostRow> {
    // The grid: for every configuration, a standard-automaton point followed
    // by its modified-automaton twin; run once per suite.
    let points: Vec<TageSweepPoint> = standard_configs()
        .into_iter()
        .flat_map(|config| {
            let modified = config
                .clone()
                .with_automaton(CounterAutomaton::paper_default());
            [TageSweepPoint::new(config), TageSweepPoint::new(modified)]
        })
        .collect();
    let per_suite: Vec<Vec<SuiteRunResult>> = suites
        .iter()
        .map(|suite| run_tage_sweep(&points, suite, branches_per_trace))
        .collect();
    let mut rows = Vec::new();
    for pair_index in 0..points.len() / 2 {
        for (suite, results) in suites.iter().zip(&per_suite) {
            let standard = &results[2 * pair_index];
            let modified = &results[2 * pair_index + 1];
            rows.push(AutomatonCostRow {
                config_name: standard.config_name.clone(),
                suite_name: suite.name().to_string(),
                standard_mpki: standard.mean_mpki(),
                modified_mpki: modified.mean_mpki(),
            });
        }
    }
    rows
}

/// One row of the `medium-conf-bim` window-length ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowAblationRow {
    /// Window length in bimodal-provided predictions.
    pub window: u32,
    /// Prediction coverage of `medium-conf-bim`.
    pub medium_bim_pcov: f64,
    /// Misprediction rate of `medium-conf-bim` in MKP.
    pub medium_bim_mprate_mkp: f64,
    /// Misprediction rate of `high-conf-bim` in MKP (what the window is
    /// protecting).
    pub high_bim_mprate_mkp: f64,
}

/// Ablates the `medium-conf-bim` recency window length.
pub fn window_ablation(
    config: &TageGeometry,
    suite: &Suite,
    branches_per_trace: usize,
    windows: &[u32],
) -> Vec<WindowAblationRow> {
    let points: Vec<TageSweepPoint> = windows
        .iter()
        .map(|&window| TageSweepPoint {
            geometry: config.clone(),
            options: RunOptions {
                bim_miss_window: window,
                ..RunOptions::default()
            },
        })
        .collect();
    let results = run_tage_sweep(&points, suite, branches_per_trace);
    windows
        .iter()
        .zip(&results)
        .map(|(&window, result)| WindowAblationRow {
            window,
            medium_bim_pcov: result.aggregate.pcov(PredictionClass::MediumConfBim),
            medium_bim_mprate_mkp: result.aggregate.mprate_mkp(PredictionClass::MediumConfBim),
            high_bim_mprate_mkp: result.aggregate.mprate_mkp(PredictionClass::HighConfBim),
        })
        .collect()
}

/// One row of the tagged-counter-width ablation (the paper notes that a
/// 4-bit counter does not fix the `Stag` class and slightly hurts accuracy).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterWidthAblationRow {
    /// Tagged prediction-counter width in bits.
    pub counter_bits: u8,
    /// Mean MPKI.
    pub mpki: f64,
    /// Misprediction rate of the saturated-counter class in MKP.
    pub saturated_mprate_mkp: f64,
    /// Prediction coverage of the saturated-counter class.
    pub saturated_pcov: f64,
}

/// Ablates the tagged prediction-counter width with the standard automaton.
pub fn counter_width_ablation(
    base_config: &TageGeometry,
    suite: &Suite,
    branches_per_trace: usize,
    widths: &[u8],
) -> Vec<CounterWidthAblationRow> {
    let points: Vec<TageSweepPoint> = widths
        .iter()
        .map(|&bits| {
            TageSweepPoint::new(TageGeometry {
                counter_bits: bits,
                ..base_config.clone()
            })
        })
        .collect();
    let results = run_tage_sweep(&points, suite, branches_per_trace);
    widths
        .iter()
        .zip(&results)
        .map(|(&bits, result)| CounterWidthAblationRow {
            counter_bits: bits,
            mpki: result.mean_mpki(),
            saturated_mprate_mkp: result.aggregate.mprate_mkp(PredictionClass::Stag),
            saturated_pcov: result.aggregate.pcov(PredictionClass::Stag),
        })
        .collect()
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage_traces::{suites, Suite};

    /// The registry's 4-trace subset so the experiment tests stay fast.
    fn mini_suite() -> Suite {
        suites::cbp1_mini()
    }

    const N: usize = 8_000;

    #[test]
    fn configs_lists_cover_the_three_sizes() {
        assert_eq!(standard_configs().len(), 3);
        assert!(modified_configs()
            .iter()
            .all(|c| c.automaton == CounterAutomaton::paper_default()));
    }

    #[test]
    fn table1_reports_the_three_sizes_with_sane_mpki() {
        let suite = mini_suite();
        let rows = table1(&suite, &suite, 4_000);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].storage_bits, 16 * 1024);
        assert_eq!(rows[2].storage_bits, 256 * 1024);
        for row in &rows {
            assert!(row.cbp1_mpki > 0.0 && row.cbp1_mpki < 60.0, "{row:?}");
            assert!(
                (row.cbp1_mpki - row.cbp2_mpki).abs() < 1e-12,
                "same suite passed twice"
            );
        }
        // Bigger predictors should not be (meaningfully) worse.
        assert!(rows[2].cbp1_mpki <= rows[0].cbp1_mpki + 0.3);
    }

    #[test]
    fn class_distribution_rows_cover_every_trace_and_sum_to_one() {
        let rows = class_distribution(&TageGeometry::small(), &mini_suite(), N);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            let pcov_sum: f64 = row.pcov.iter().sum();
            assert!((pcov_sum - 1.0).abs() < 1e-9, "{row:?}");
            let mpki_sum: f64 = row.mpki_contribution.iter().sum();
            assert!((mpki_sum - row.total_mpki).abs() < 1e-6);
        }
    }

    #[test]
    fn per_class_rates_orders_weak_above_saturated() {
        let config = TageGeometry::small().with_automaton(CounterAutomaton::paper_default());
        let rows = per_class_rates(&config, &mini_suite(), &["MM-5", "SERV-2"], 20_000);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            let wtag = row.mprate_mkp[3];
            let stag = row.mprate_mkp[6];
            assert!(
                wtag > stag,
                "{}: Wtag ({wtag}) should mispredict more than Stag ({stag})",
                row.trace_name
            );
        }
    }

    #[test]
    fn three_level_summary_reproduces_the_ordering_of_table_2() {
        let config = TageGeometry::small().with_automaton(CounterAutomaton::paper_default());
        let row = three_level_summary(&config, &mini_suite(), 40_000, &RunOptions::default());
        // Coverages sum to one.
        assert!((row.high.pcov + row.medium.pcov + row.low.pcov - 1.0).abs() < 1e-9);
        assert!((row.high.mpcov + row.medium.mpcov + row.low.mpcov - 1.0).abs() < 1e-9);
        // High confidence is a sizeable class with the lowest rate. (The
        // paper's coverage is larger because its traces are tens of millions
        // of branches long, which gives the 1/128 saturation many more
        // opportunities; see EXPERIMENTS.md.)
        assert!(row.high.pcov > 0.25, "high pcov {}", row.high.pcov);
        assert!(row.high.mprate_mkp < row.medium.mprate_mkp);
        assert!(row.medium.mprate_mkp < row.low.mprate_mkp);
        // Low confidence has a very high misprediction rate.
        assert!(
            row.low.mprate_mkp > 150.0,
            "low rate {}",
            row.low.mprate_mkp
        );
        assert!((row.mean_final_probability - 1.0 / 128.0).abs() < 1e-9);
    }

    #[test]
    fn adaptive_summary_tracks_probability() {
        let config = TageGeometry::small().with_automaton(CounterAutomaton::paper_default());
        let row = three_level_summary(&config, &mini_suite(), 20_000, &RunOptions::adaptive());
        assert!(row.mean_final_probability >= 1.0 / 1024.0 - 1e-12);
        assert!(row.mean_final_probability <= 1.0 + 1e-12);
    }

    #[test]
    fn probability_sweep_trades_coverage_for_purity() {
        let rows = probability_sweep(
            &TageGeometry::small(),
            &mini_suite(),
            20_000,
            &[0, 4, 7, 10],
        );
        assert_eq!(rows.len(), 4);
        // Larger probability (smaller exponent) => larger high-confidence
        // coverage and a higher (or equal) high-confidence miss rate.
        assert!(rows[0].high_pcov >= rows[3].high_pcov);
        assert!(rows[0].high_mprate_mkp >= rows[3].high_mprate_mkp - 1e-9);
        for row in &rows {
            assert!(row.probability > 0.0 && row.probability <= 1.0);
            assert!(row.mpki > 0.0);
        }
    }

    #[test]
    fn bim_breakdown_orders_the_three_bim_classes() {
        let rows = bim_breakdown(&TageGeometry::small(), &mini_suite(), 20_000);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.bim_pcov > 0.0 && row.bim_pcov <= 1.0);
            if row.low_conf_bim_mkp > 0.0 && row.high_conf_bim_mkp > 0.0 {
                assert!(
                    row.low_conf_bim_mkp > row.high_conf_bim_mkp,
                    "{}: weak bimodal ({}) should mispredict more than strong ({})",
                    row.trace_name,
                    row.low_conf_bim_mkp,
                    row.high_conf_bim_mkp
                );
            }
        }
    }

    #[test]
    fn automaton_cost_is_small() {
        let suite = mini_suite();
        let rows = automaton_cost(&[&suite], 10_000);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            // The paper reports < 0.02 MPKI on real traces; allow a slightly
            // looser bound on the short synthetic runs.
            assert!(
                row.cost().abs() < 0.25,
                "{}: cost {} MPKI too large",
                row.config_name,
                row.cost()
            );
        }
    }

    #[test]
    fn window_ablation_zero_window_removes_the_medium_class() {
        let rows = window_ablation(&TageGeometry::small(), &mini_suite(), N, &[0, 8, 32]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].medium_bim_pcov, 0.0);
        assert!(rows[2].medium_bim_pcov >= rows[1].medium_bim_pcov);
    }

    #[test]
    fn counter_width_ablation_produces_rows_for_each_width() {
        let rows = counter_width_ablation(&TageGeometry::small(), &mini_suite(), N, &[2, 3, 4]);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.mpki > 0.0);
            assert!(row.saturated_pcov > 0.0);
        }
    }
}
