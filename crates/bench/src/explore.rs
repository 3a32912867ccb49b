//! Storage-budget design-space exploration (`tage-bench --explore`).
//!
//! The paper's central trade-off is prediction accuracy versus predictor
//! storage: every TAGE sizing decision (tables, entries, tags, history
//! reach) buys MPKI with bits. This module turns that trade-off into a
//! first-class campaign axis: [`enumerate_geometries`] walks a deterministic
//! grid of [`TageGeometry`] candidates and keeps the ones that fit a storage
//! budget, and [`attach_explore_section`] ranks the finished campaign cells
//! into a Pareto front over (storage, MPKI, residual-misprediction rate).
//!
//! # Determinism contract
//!
//! The Pareto front is derived from the *rendered timing-free cell bytes*
//! ([`CampaignReport::cell_bytes`]), never from in-memory `f64` results.
//! Freshly computed cells carry full-precision floats while checkpoint-
//! restored cells carry the 6-decimal rendered strings; re-parsing the
//! rendered form for every cell makes the explore section byte-identical
//! across worker counts, engines, and kill/`--resume` splits — the same
//! contract the point cells themselves honour.

use tage::{CounterAutomaton, TageGeometry};
use tage_sim::point::PredictorSpec;
use tage_traces::jsonish;

use crate::campaign::{CampaignReport, ExploreSection, ParetoEntry};

/// Number-of-tagged-tables values the enumeration sweeps.
const TABLE_COUNTS: [usize; 3] = [4, 6, 8];
/// Tag widths the enumeration sweeps.
const TAG_BITS: [u32; 3] = [8, 10, 12];
/// Per-table log2-entry counts the enumeration sweeps.
const TAGGED_INDEX_BITS: std::ops::RangeInclusive<u32> = 6..=11;

/// History reach paired with each table count: shallow geometric series for
/// few tables, the paper's deep series for eight.
fn history_range(tables: usize) -> (usize, usize) {
    match tables {
        4 => (3, 80),
        6 => (5, 130),
        _ => (5, 300),
    }
}

/// Enumerates candidate geometries under `budget_bits`, largest first.
///
/// The grid is fixed: table counts × per-table index bits × tag widths,
/// with the bimodal table 4× the tagged-table size and the history series
/// keyed to the table count. Candidates that fail [`TageGeometry`]
/// validation or exceed the budget are dropped; survivors are sorted by
/// descending storage (best use of the budget first) with the spec digest
/// as an order tie-break, then truncated to `max_geometries`. The result is
/// a pure function of `(budget_bits, max_geometries)` — the determinism
/// anchor for `--explore` reports.
pub fn enumerate_geometries(budget_bits: u64, max_geometries: usize) -> Vec<TageGeometry> {
    let mut geometries = Vec::new();
    for tables in TABLE_COUNTS {
        let (min_history, max_history) = history_range(tables);
        for index_bits in TAGGED_INDEX_BITS {
            for tag_bits in TAG_BITS {
                let geometry = TageGeometry::uniform(
                    tables,
                    index_bits,
                    tag_bits,
                    index_bits + 2,
                    min_history,
                    max_history,
                )
                .with_automaton(CounterAutomaton::paper_default());
                if geometry.validate().is_err() || geometry.storage_bits() > budget_bits {
                    continue;
                }
                geometries.push(geometry);
            }
        }
    }
    geometries.sort_by_key(|g| (std::cmp::Reverse(g.storage_bits()), g.spec_digest()));
    geometries.truncate(max_geometries);
    geometries
}

/// Wraps enumerated geometries as campaign predictor-axis values.
///
/// Each candidate is tagged with a synthetic `explore-<digest>` source so
/// its grid token (and therefore its checkpoint cell key) stays unique and
/// stable across runs.
pub fn explore_predictors(geometries: Vec<TageGeometry>) -> Vec<PredictorSpec> {
    geometries
        .into_iter()
        .map(|geometry| {
            let source = format!("explore-{:016x}", geometry.spec_digest());
            PredictorSpec::Geometry { geometry, source }
        })
        .collect()
}

/// One campaign cell re-parsed from its rendered bytes.
struct CellMetrics {
    predictor: String,
    storage_bits: u64,
    mean_mpki: f64,
    high_mprate_mkp: f64,
}

fn parse_cell(cell: &str) -> Result<CellMetrics, String> {
    let field = |key: &str| {
        jsonish::number_field(cell, key)
            .ok_or_else(|| format!("explore: cell is missing numeric \"{key}\""))
    };
    Ok(CellMetrics {
        predictor: jsonish::string_field(cell, "predictor")
            .ok_or("explore: cell is missing \"predictor\"")?,
        storage_bits: field("storage_bits")? as u64,
        mean_mpki: field("mean_mpki")?,
        high_mprate_mkp: field("high_mprate_mkp")?,
    })
}

/// `a` dominates `b` when it is no worse on every objective and strictly
/// better on at least one. All three objectives are minimized:
/// `storage_bits` (cost), `mean_mpki` (accuracy), and `high_mprate_mkp`
/// (confidence quality — mispredictions surviving inside the high bucket).
fn dominates(a: &CellMetrics, b: &CellMetrics) -> bool {
    let no_worse = a.storage_bits <= b.storage_bits
        && a.mean_mpki <= b.mean_mpki
        && a.high_mprate_mkp <= b.high_mprate_mkp;
    let strictly_better = a.storage_bits < b.storage_bits
        || a.mean_mpki < b.mean_mpki
        || a.high_mprate_mkp < b.high_mprate_mkp;
    no_worse && strictly_better
}

/// Computes the Pareto front over rendered cell bytes.
///
/// Input cells come from [`CampaignReport::cell_bytes`]; each must carry
/// `predictor`, `storage_bits`, `mean_mpki`, and `high_mprate_mkp`.
/// Non-dominated cells are returned sorted by ascending storage, then MPKI,
/// then predictor label — a total order, so the front is unique.
///
/// # Errors
///
/// Returns an error when a cell lacks one of the ranked fields.
pub fn pareto_front(cells: &[String]) -> Result<Vec<ParetoEntry>, String> {
    let metrics: Vec<CellMetrics> = cells
        .iter()
        .map(|cell| parse_cell(cell))
        .collect::<Result<_, _>>()?;
    let mut front: Vec<&CellMetrics> = metrics
        .iter()
        .filter(|candidate| !metrics.iter().any(|other| dominates(other, candidate)))
        .collect();
    front.sort_by(|a, b| {
        a.storage_bits
            .cmp(&b.storage_bits)
            .then(a.mean_mpki.total_cmp(&b.mean_mpki))
            .then(a.predictor.cmp(&b.predictor))
    });
    Ok(front
        .into_iter()
        .map(|m| ParetoEntry {
            predictor: m.predictor.clone(),
            storage_bits: m.storage_bits,
            mean_mpki: m.mean_mpki,
            high_mprate_mkp: m.high_mprate_mkp,
        })
        .collect())
}

/// Ranks the report's cells and attaches the `explore` section.
///
/// `candidates` is the number of geometries the enumeration produced (the
/// report may hold more cells than that when the suite axis has several
/// entries; every cell still competes on the same three objectives).
///
/// # Errors
///
/// Returns an error when a cell cannot be ranked (missing fields).
pub fn attach_explore_section(
    report: &mut CampaignReport,
    budget_bits: u64,
    candidates: usize,
) -> Result<(), String> {
    let pareto = pareto_front(&report.cell_bytes())?;
    report.explore = Some(ExploreSection {
        budget_bits,
        candidates,
        pareto,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_deterministic_and_respects_the_budget() {
        let a = enumerate_geometries(32 * 1024, 8);
        let b = enumerate_geometries(32 * 1024, 8);
        assert!(!a.is_empty());
        assert!(a.len() <= 8);
        assert!(a.iter().all(|g| g.storage_bits() <= 32 * 1024));
        assert!(a.iter().all(|g| g.validate().is_ok()));
        let digests = |v: &[TageGeometry]| v.iter().map(|g| g.spec_digest()).collect::<Vec<_>>();
        assert_eq!(digests(&a), digests(&b));
        // Largest-first: best use of the budget heads the list.
        assert!(a
            .windows(2)
            .all(|w| w[0].storage_bits() >= w[1].storage_bits()));
    }

    #[test]
    fn tighter_budgets_shrink_the_candidate_set() {
        let wide = enumerate_geometries(256 * 1024, usize::MAX);
        let narrow = enumerate_geometries(16 * 1024, usize::MAX);
        assert!(narrow.len() < wide.len());
        // Every narrow candidate also fits the wide budget.
        let wide_digests: Vec<u64> = wide.iter().map(|g| g.spec_digest()).collect();
        assert!(narrow
            .iter()
            .all(|g| wide_digests.contains(&g.spec_digest())));
    }

    #[test]
    fn explore_predictors_have_unique_stable_tokens() {
        let predictors = explore_predictors(enumerate_geometries(64 * 1024, 6));
        let tokens: Vec<String> = predictors.iter().map(|p| p.token()).collect();
        let mut deduped = tokens.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(deduped.len(), tokens.len(), "{tokens:?}");
        assert!(tokens.iter().all(|t| t.starts_with("geometry:explore-")));
    }

    fn cell(predictor: &str, storage: u64, mpki: f64, mkp: f64) -> String {
        format!(
            "{{\"predictor\": \"{predictor}\", \"scheme\": \"s\", \"suite\": \"z\", \
             \"scenario\": \"baseline\", \"storage_bits\": {storage}, \
             \"mean_mpki\": {mpki:.6}, \"high_mprate_mkp\": {mkp:.6}}}"
        )
    }

    #[test]
    fn pareto_front_drops_dominated_cells() {
        let cells = vec![
            cell("big-accurate", 4096, 1.0, 0.1),
            cell("small-sloppy", 1024, 3.0, 0.3),
            // Dominated: more storage than small-sloppy, worse everywhere
            // than big-accurate.
            cell("dominated", 2048, 3.5, 0.4),
            // Trades storage for accuracy against both survivors.
            cell("middle", 2048, 2.0, 0.2),
        ];
        let front = pareto_front(&cells).expect("rankable");
        let names: Vec<&str> = front.iter().map(|e| e.predictor.as_str()).collect();
        assert_eq!(names, ["small-sloppy", "middle", "big-accurate"]);
        assert!(front
            .windows(2)
            .all(|w| w[0].storage_bits <= w[1].storage_bits));
    }

    #[test]
    fn identical_cells_both_survive() {
        let cells = vec![cell("a", 1024, 1.0, 0.1), cell("b", 1024, 1.0, 0.1)];
        let front = pareto_front(&cells).expect("rankable");
        assert_eq!(front.len(), 2);
        assert_eq!(front[0].predictor, "a");
    }

    #[test]
    fn unrankable_cells_are_an_error() {
        let cells = vec!["{\"predictor\": \"x\"}".to_string()];
        let error = pareto_front(&cells).unwrap_err();
        assert!(error.contains("storage_bits"), "{error}");
    }
}
