//! Sampled-campaign contract: a `sample:` suite reconstructs the full
//! run's MPKI within the documented error bound at a fraction of the
//! simulated branches, and its timing-free report stays byte-identical
//! across worker counts, engines, and a kill/resume split — the same
//! determinism bar the full-trace campaigns hold.

use std::path::Path;

use tage_bench::campaign::{
    run_campaign_checkpointed, run_campaign_with_engine, validate_report, CampaignSpec,
};
use tage_bench::cellstore::CellStore;
use tage_sim::point::{plan, run_point, CellPath, PointResult, PredictorSpec, SchemeSpec};
use tage_sim::scenarios::ScenarioSpec;
use tage_sim::{EngineKind, RunOptions};
use tage_traces::inflate::gzip_compress;
use tage_traces::source::{SamplingSpec, SourceSuite};
use tage_traces::writer::TraceWriter;
use tage_traces::{suites, Trace};

const BRANCHES: usize = 100_000;

/// The pinned plan: 250-record slices, 8 phases, seed 1 — the
/// configuration the phase-module accuracy test pins at the sim layer.
const PLAN: SamplingSpec = SamplingSpec {
    interval: 250,
    k: 8,
    seed: 1,
};

fn grid(predictors: &[&str], sampled: bool) -> CampaignSpec {
    let mut suite = SourceSuite::from(suites::cbp1_mini());
    if sampled {
        suite = suite.with_sampling(PLAN);
    }
    CampaignSpec {
        label: "sampling".to_string(),
        predictors: predictors
            .iter()
            .map(|token| PredictorSpec::parse(token).unwrap())
            .collect(),
        schemes: vec![SchemeSpec::parse("storage-free").unwrap()],
        suites: vec![suite],
        scenarios: vec![ScenarioSpec::Baseline],
        branches_per_trace: BRANCHES,
    }
}

fn only_result(report: &tage_bench::campaign::CampaignReport) -> &PointResult {
    let mut computed = report.points.iter().filter_map(|cell| cell.computed());
    let result = &computed.next().expect("one executed point").result;
    assert!(computed.next().is_none(), "expected exactly one point");
    result
}

#[test]
fn sampled_campaigns_reconstruct_full_mpki_at_a_fraction_of_the_branches() {
    let full =
        run_campaign_with_engine(&grid(&["tage-16k"], false), 4, EngineKind::Multilane).unwrap();
    let sampled =
        run_campaign_with_engine(&grid(&["tage-16k"], true), 4, EngineKind::Multilane).unwrap();
    let full_mpki = only_result(&full).mean_mpki();
    let sampled_point = only_result(&sampled);
    let sampled_mpki = sampled_point.mean_mpki();
    assert!(full_mpki > 0.0);
    let relative_error = (sampled_mpki - full_mpki).abs() / full_mpki;
    assert!(
        relative_error < 0.05,
        "sampled suite MPKI {sampled_mpki:.4} strays {:.2}% from the full run's {full_mpki:.4}",
        relative_error * 100.0
    );
    // The plan measures at least 5x fewer branches than the full run.
    let sampling = sampled_point.sampling.as_ref().expect("sampling metadata");
    assert_eq!(
        (sampling.interval, sampling.k, sampling.seed),
        (PLAN.interval, PLAN.k, PLAN.seed)
    );
    // Records include non-conditional branches, so the stream total is at
    // least the conditional-branch budget.
    assert!(sampling.total_records >= 4 * BRANCHES as u64);
    assert!(
        sampling.measured_branches * 5 <= sampling.total_records,
        "measured {} of {} branches is less than a 5x reduction",
        sampling.measured_branches,
        sampling.total_records
    );
    // The sampled report round-trips through schema validation.
    validate_report(&sampled.render_json(false)).expect("sampled report validates");
}

#[test]
fn sampled_reports_are_byte_identical_across_workers_engines_and_resume() {
    let spec = grid(&["tage-16k", "tage-64k"], true);
    let reference = run_campaign_with_engine(&spec, 1, EngineKind::Multilane)
        .unwrap()
        .render_json(false);
    for workers in [2, 4] {
        for engine in [EngineKind::Multilane, EngineKind::Scalar] {
            let report = run_campaign_with_engine(&spec, workers, engine)
                .unwrap()
                .render_json(false);
            assert_eq!(
                reference, report,
                "sampled report diverged at workers = {workers}, engine = {engine:?}"
            );
        }
    }

    // Kill/resume: one cell executed, then a resumed run (different worker
    // count and engine) finishes the grid — bytes still match.
    let dir =
        std::env::temp_dir().join(format!("tage-sampling-resume-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CellStore::new(&dir).unwrap();
    let partial = run_campaign_checkpointed(&spec, 1, EngineKind::Scalar, &store, Some(1)).unwrap();
    assert_eq!((partial.executed, partial.remaining), (1, 1));
    let resumed = run_campaign_checkpointed(&spec, 4, EngineKind::Multilane, &store, None).unwrap();
    assert_eq!(resumed.remaining, 0);
    assert_eq!(resumed.restored, 1);
    assert_eq!(reference, resumed.report.render_json(false));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes the four CBP-1-mini traces at `branches` into `dir`, one per
/// format: gzip-compressed native, CBP text, CBP binary and native.
fn write_four_formats(dir: &Path, branches: usize) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    let traces: Vec<Trace> = suites::cbp1_mini()
        .traces()
        .iter()
        .map(|spec| spec.generate(branches))
        .collect();
    let [gz, cbp, cbpb, native] = traces.as_slice() else {
        panic!("CBP-1-mini holds four traces");
    };
    let path = |trace: &Trace, suffix: &str| dir.join(format!("{}.{suffix}", trace.name()));
    let conditional = |trace: &Trace| {
        trace
            .records()
            .iter()
            .filter(|record| record.kind.is_conditional())
            .map(|record| (record.pc, record.taken))
            .collect::<Vec<_>>()
    };
    std::fs::write(
        path(gz, "trace.gz"),
        gzip_compress(&TraceWriter::to_binary_bytes(gz)),
    )
    .unwrap();
    let text: String = conditional(cbp)
        .into_iter()
        .map(|(pc, taken)| format!("{pc:x} {}\n", u8::from(taken)))
        .collect();
    std::fs::write(path(cbp, "cbp"), text).unwrap();
    let binary: Vec<u8> = conditional(cbpb)
        .into_iter()
        .flat_map(|(pc, taken)| pc.to_le_bytes().into_iter().chain([u8::from(taken)]))
        .collect();
    std::fs::write(path(cbpb, "cbpb"), binary).unwrap();
    std::fs::write(path(native, "trace"), TraceWriter::to_binary_bytes(native)).unwrap();
}

/// Sampled cells over one suite run as one group: each trace is decoded and
/// planned once for all of them. Each cell's bytes equal the cell run
/// alone, at any worker count and across a kill and resume.
#[test]
fn a_sampled_group_over_four_trace_formats_renders_each_cell_alone() {
    let dir = std::env::temp_dir().join(format!("tage-sampled-formats-{}", std::process::id()));
    let traces = dir.join("traces");
    write_four_formats(&traces, 20_000);
    let suite = SourceSuite::from_dir(&traces)
        .unwrap()
        .with_sampling(SamplingSpec {
            interval: 500,
            k: 4,
            seed: 1,
        });
    assert_eq!(suite.sources().len(), 4);
    let spec = |predictors: &[&str]| CampaignSpec {
        label: "four-formats".to_string(),
        predictors: predictors
            .iter()
            .map(|token| PredictorSpec::parse(token).unwrap())
            .collect(),
        schemes: vec![SchemeSpec::StorageFree],
        suites: vec![suite.clone()],
        scenarios: vec![ScenarioSpec::Baseline],
        branches_per_trace: 20_000,
    };
    let predictors = ["tage-16k", "tage-16k-std", "tage-64k"];
    let grid = spec(&predictors);

    // The plan makes the three cells one sampled group, one task per
    // trace. Its tasks run in any order; assembled in task order, they
    // give the cells the campaign reports.
    let (points, _) = grid.expand();
    let options = RunOptions::default();
    let cells = points.iter().map(|point| (point, 20_000));
    let [group] = &plan(cells, &options, EngineKind::Multilane)[..] else {
        panic!("the three cells form one group");
    };
    assert_eq!(group.cells(), [0, 1, 2]);
    assert_eq!(group.path(), CellPath::Sampled);
    assert_eq!(group.tasks(), 4);
    let mut runs: Vec<_> = (0..group.tasks())
        .rev()
        .map(|task| group.run_task(task, None).unwrap())
        .collect();
    runs.reverse();
    let together = group.assemble(runs);

    let reference = run_campaign_with_engine(&grid, 1, EngineKind::Multilane).unwrap();
    let timed: Vec<_> = reference
        .points
        .iter()
        .map(|point| point.computed().expect("executed cell"))
        .collect();
    for cell in &timed {
        assert_eq!(
            cell.shared_pass_cells, 3,
            "the three cells ran as one group"
        );
        assert_eq!(cell.wall_seconds, timed[0].wall_seconds, "equal shares");
    }
    let bytes = reference.render_json(false);
    for workers in [2, 4] {
        let report = run_campaign_with_engine(&grid, workers, EngineKind::Scalar).unwrap();
        assert_eq!(report.render_json(false), bytes, "workers = {workers}");
    }

    // Each cell alone: a one-cell campaign, and `run_point`, the path
    // `tage-serve` takes.
    let grouped = reference.cell_bytes();
    for (index, predictor) in predictors.iter().enumerate() {
        let alone = run_campaign_with_engine(&spec(&[predictor]), 2, EngineKind::Multilane)
            .unwrap()
            .cell_bytes();
        assert_eq!(alone, [grouped[index].clone()], "{predictor}");
        let (points, _) = spec(&[predictor]).expand();
        let result = run_point(&points[0], 20_000, &options, EngineKind::Multilane, None).unwrap();
        let grouped = &reference.points[index].computed().unwrap().result;
        assert_eq!(&result, grouped, "{predictor}");
        assert_eq!(result, together[index], "{predictor}");
    }

    // A kill after one cell, then a resume that runs the other two as a
    // group: the bytes still match.
    let store = CellStore::new(dir.join("store")).unwrap();
    let first =
        run_campaign_checkpointed(&grid, 2, EngineKind::Multilane, &store, Some(1)).unwrap();
    assert_eq!((first.executed, first.remaining), (1, 2));
    let resumed = run_campaign_checkpointed(&grid, 4, EngineKind::Scalar, &store, None).unwrap();
    assert_eq!((resumed.restored, resumed.executed), (1, 2));
    assert_eq!(resumed.report.render_json(false), bytes);
    let _ = std::fs::remove_dir_all(&dir);
}
