//! Campaign determinism contract: the same grid renders a byte-identical
//! JSON report at any worker count (modulo the explicitly timing-carrying
//! fields), and the report round-trips through the schema validation.

use tage_bench::campaign::{
    run_campaign, run_campaign_with_engine, validate_report, CampaignSpec, SCHEMA_VERSION,
};
use tage_bench::jsonish;
use tage_sim::engine::steal_map;
use tage_sim::point::{plan, PredictorSpec, SchemeSpec};
use tage_sim::scenarios::ScenarioSpec;
use tage_sim::{EngineKind, RunOptions};
use tage_traces::source::{SamplingSpec, SourceSuite};
use tage_traces::suites;

fn grid() -> CampaignSpec {
    CampaignSpec {
        label: "determinism".to_string(),
        predictors: vec![
            PredictorSpec::parse("tage-16k").unwrap(),
            PredictorSpec::parse("gshare").unwrap(),
            PredictorSpec::parse("perceptron").unwrap(),
        ],
        schemes: vec![
            SchemeSpec::parse("storage-free").unwrap(),
            SchemeSpec::parse("self-confidence").unwrap(),
        ],
        suites: vec![suites::cbp1_mini().into()],
        // The scenario axis rides the same determinism contract: every
        // scenario kind is part of the pinned grid.
        scenarios: ScenarioSpec::ALL.to_vec(),
        branches_per_trace: 2_000,
    }
}

#[test]
fn reports_are_byte_identical_across_thread_counts() {
    let serial = run_campaign(&grid(), 1).unwrap().render_json(false);
    for workers in [2, 4, 8] {
        let parallel = run_campaign(&grid(), workers).unwrap().render_json(false);
        assert_eq!(
            serial, parallel,
            "timing-free report must not depend on worker count (workers = {workers})"
        );
    }
}

#[test]
fn timing_fields_are_the_only_difference_between_renders() {
    let report = run_campaign(&grid(), 4).unwrap();
    let with_timing = report.render_json(true);
    let without = report.render_json(false);
    assert!(with_timing.contains("\"wall_seconds\""));
    assert!(with_timing.contains("\"timing\""));
    assert!(!without.contains("\"wall_seconds\""));
    assert!(!without.contains("\"timing\""));

    // Point for point, every deterministic field is identical across the
    // two renders; the timing render only adds wall-clock fields.
    let timed_points = jsonish::extract_array_objects(&with_timing, "points");
    let bare_points = jsonish::extract_array_objects(&without, "points");
    assert_eq!(timed_points.len(), bare_points.len());
    assert!(!bare_points.is_empty());
    for (timed, bare) in timed_points.iter().zip(&bare_points) {
        for key in ["predictor", "scheme", "suite", "scenario"] {
            assert_eq!(
                jsonish::string_field(timed, key),
                jsonish::string_field(bare, key)
            );
        }
        for key in [
            "traces",
            "predictions",
            "mispredictions",
            "instructions",
            "mean_mpki",
            "aggregate_mkp",
            "high_pcov",
            "high_mprate_mkp",
        ] {
            assert_eq!(
                jsonish::number_field(timed, key),
                jsonish::number_field(bare, key),
                "{key}"
            );
        }
        assert!(jsonish::number_field(timed, "wall_seconds").is_some());
        assert!(jsonish::number_field(bare, "wall_seconds").is_none());
        assert!(jsonish::number_field(bare, "shared_pass_cells").is_none());
        assert_eq!(
            jsonish::string_field(timed, "path").as_deref(),
            Some("scalar")
        );
        assert!(jsonish::string_field(bare, "path").is_none());
        assert!(!bare.contains("\"path\""));
    }
    // The scalar campaign runs each predictor's cells in one predictor
    // pass: 8 TAGE cells, then 4 gshare and 4 perceptron cells.
    let shared: Vec<Option<f64>> = timed_points
        .iter()
        .map(|point| jsonish::number_field(point, "shared_pass_cells"))
        .collect();
    let mut expected = vec![Some(8.0); 8];
    expected.extend([Some(4.0); 8]);
    assert_eq!(shared, expected);
}

#[test]
fn report_round_trips_through_schema_validation() {
    let report = run_campaign(&grid(), 2).unwrap();
    for include_timing in [true, false] {
        let json = report.render_json(include_timing);
        let validated = validate_report(&json).expect("rendered report validates");
        assert_eq!(validated.schema, SCHEMA_VERSION);
        assert_eq!(validated.points, report.points.len());
        assert_eq!(validated.skipped, report.skipped.len());
    }
    // Tampering with the schema version must be rejected.
    let json = report.render_json(false);
    let tampered = json.replace(&format!("\"schema\": {SCHEMA_VERSION}"), "\"schema\": 9999");
    assert!(validate_report(&tampered).is_err());
}

#[test]
fn steal_map_with_heterogeneous_point_costs_stays_deterministic() {
    // Simulated mixed-size workload: the value is a function of the index
    // only, but the runtime varies wildly — results must not.
    let items: Vec<u64> = (0..40).collect();
    let slow = |&i: &u64| {
        if i % 5 == 0 {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        i.wrapping_mul(2654435761)
    };
    let (reference, _) = steal_map(&items, 1, slow);
    for workers in [3, 7] {
        let (results, _) = steal_map(&items, workers, slow);
        assert_eq!(results, reference);
    }
}

/// A grid over CBP-1-mini at 20,000 branches per trace.
fn mini_grid(predictors: &[&str], schemes: &[&str], scenarios: &[&str]) -> CampaignSpec {
    CampaignSpec {
        label: "paths".to_string(),
        predictors: predictors
            .iter()
            .map(|token| PredictorSpec::parse(token).unwrap())
            .collect(),
        schemes: schemes
            .iter()
            .map(|token| SchemeSpec::parse(token).unwrap())
            .collect(),
        suites: vec![suites::cbp1_mini().into()],
        scenarios: scenarios
            .iter()
            .map(|token| ScenarioSpec::parse(token).unwrap())
            .collect(),
        branches_per_trace: 20_000,
    }
}

/// `spec` run on `engine` on 2 workers: each cell's `path` and `fallback`
/// in the timing render, and the timing-free render.
fn paths_and_bytes(
    spec: &CampaignSpec,
    engine: EngineKind,
) -> (Vec<(String, Option<String>)>, String) {
    let report = run_campaign_with_engine(spec, 2, engine).unwrap();
    let paths = jsonish::extract_array_objects(&report.render_json(true), "points")
        .iter()
        .map(|point| {
            let path = jsonish::string_field(point, "path").expect("a timed cell names its path");
            (path, jsonish::string_field(point, "fallback"))
        })
        .collect();
    let bytes = report.render_json(false);
    assert!(!bytes.contains("\"fallback\""));
    (paths, bytes)
}

/// The two engine-parity grids, at CI size (CBP-1-mini, 20,000 branches
/// per trace, 2 workers): each renders the same timing-free bytes on both
/// engines, and the timing render names the engine that ran each
/// cell's group and, under multilane, why a cell ran scalar. The
/// storage-free cells of the first grid ride their group's scalar pass,
/// while the second grid's cells run one lane pass per predictor.
#[test]
fn the_timing_render_names_the_engine_that_ran_each_cell() {
    let parity = mini_grid(
        &["tage-16k"],
        &["storage-free", "jrs-enhanced"],
        &["baseline", "recovery-energy", "shared-predictor"],
    );
    let (points, _) = parity.expand();
    assert_eq!(points[0].scheme, SchemeSpec::StorageFree);
    assert_eq!(points[0].scenario, ScenarioSpec::Baseline);
    let lanes = mini_grid(
        &["tage-16k", "tage-64k"],
        &["storage-free"],
        &["baseline", "recovery-energy", "prefetch-throttle"],
    );
    let scalar = |fallback: &str| ("scalar".to_string(), Some(fallback.to_string()));
    for (name, grid, multilane_paths) in [
        (
            "parity",
            parity,
            ["group", "group", "scenario", "scheme", "scheme", "scheme"].map(scalar),
        ),
        (
            "lanes",
            lanes,
            [(); 6].map(|()| ("multilane".to_string(), None)),
        ),
    ] {
        let (multilane, multilane_bytes) = paths_and_bytes(&grid, EngineKind::Multilane);
        let (scalar_paths, scalar_bytes) = paths_and_bytes(&grid, EngineKind::Scalar);
        assert_eq!(multilane, multilane_paths, "{name}");
        assert_eq!(
            scalar_paths,
            vec![("scalar".to_string(), None); 6],
            "{name}"
        );
        assert_eq!(multilane_bytes, scalar_bytes, "{name}");
    }
}

/// The groups and tasks the four perfbench workloads plan to under the
/// multilane engine: the benchmark's schedule. A plan reads axes, suite
/// names and digests, never the seeds the benchmark varies.
#[test]
fn the_benchmark_workloads_plan_to_pinned_groups_and_tasks() {
    let tokens = |list: &str| list.split(',').map(str::to_string).collect::<Vec<_>>();
    let spec =
        |predictors: &str, schemes: &str, suites: Vec<SourceSuite>, scenarios: &str| CampaignSpec {
            label: "benchmark".to_string(),
            predictors: tokens(predictors)
                .iter()
                .map(|token| PredictorSpec::parse(token).unwrap())
                .collect(),
            schemes: tokens(schemes)
                .iter()
                .map(|token| SchemeSpec::parse(token).unwrap())
                .collect(),
            suites,
            scenarios: tokens(scenarios)
                .iter()
                .map(|token| ScenarioSpec::parse(token).unwrap())
                .collect(),
            branches_per_trace: 50_000,
        };
    let plan_of = |spec: &CampaignSpec| -> Vec<(usize, &'static str, usize)> {
        let (points, _) = spec.expand();
        let cells = points.iter().map(|point| (point, spec.branches_per_trace));
        plan(cells, &RunOptions::default(), EngineKind::Multilane)
            .iter()
            .map(|group| (group.cells().len(), group.path().label(), group.tasks()))
            .collect()
    };
    let skewed = spec(
        "tage-256k,tage-16k,bimodal,gshare,perceptron",
        "storage-free,jrs-enhanced,self-confidence",
        vec![suites::cbp1_mini().into()],
        "baseline,recovery-energy,prefetch-throttle,shared-predictor",
    );
    assert_eq!(skewed.expand().0.len(), 48);
    assert_eq!(
        plan_of(&skewed),
        [12, 12, 8, 8, 8].map(|cells| (cells, "scalar", 1))
    );
    let lanes = spec(
        "tage-16k,tage-64k,tage-256k",
        "storage-free",
        vec![suites::cbp1_like().into(), suites::cbp2_like().into()],
        "baseline",
    );
    assert_eq!(plan_of(&lanes), [(1, "multilane", 1); 6]);
    let sampled = SourceSuite::from(suites::cbp1_mini()).with_sampling(SamplingSpec {
        interval: 1_000,
        k: 4,
        seed: 1,
    });
    assert_eq!(sampled.sources().len(), 4);
    let sampled = CampaignSpec {
        branches_per_trace: 800_100,
        ..spec(
            "tage-64k,tage-256k",
            "storage-free",
            vec![sampled],
            "baseline",
        )
    };
    assert_eq!(plan_of(&sampled), [(2, "sampled", 4)]);
    let serve = spec(
        "tage-16k",
        "storage-free",
        vec![suites::cbp1_mini().into()],
        "baseline",
    );
    assert_eq!(plan_of(&serve), [(1, "multilane", 1)]);
}
