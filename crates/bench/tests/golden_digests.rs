//! Byte and key pins that hold across commits.
//!
//! The determinism suites compare runs inside one build: worker counts,
//! engines, resume splits. A change that shifts every cell the same way
//! passes all of them. These constants were recorded once and must never
//! move: a changed digest means stored cells, checkpoints and reports
//! written by an earlier build no longer match what this build produces.
//!
//! A digest that moves on purpose (a new report schema, a new predictor
//! behaviour) must be re-recorded in the same change that moves it, and
//! that change then invalidates every existing cell store.

use std::fs;

use tage::TageGeometry;
use tage_bench::campaign::{run_campaign_checkpointed, run_campaign_with_engine, CampaignSpec};
use tage_bench::cellstore::{cell_key, CellStore};
use tage_bench::explore::{attach_explore_section, enumerate_geometries, explore_predictors};
use tage_sim::point::{PredictorSpec, SchemeSpec, SweepPoint};
use tage_sim::scenarios::ScenarioSpec;
use tage_sim::EngineKind;
use tage_traces::snapshot::fnv1a64;
use tage_traces::source::{SamplingSpec, SourceSuite};
use tage_traces::suites;

/// The repository root as this crate sees it. Paths under it are
/// replaced by `<repo>` before hashing, so the pins do not depend on
/// where the checkout lives.
const REPO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

const COMPARISON_REPORT: u64 = 0x1403_75ca_ebed_98df;
const SAMPLED_REPORT: u64 = 0x34c0_29b6_64f8_cff3;
const EXPLORE_REPORT: u64 = 0x61b7_11eb_b59b_38c0;
const PLAIN_CELL_KEY: u64 = 0x4471_2d18_534f_a9c3;
const SAMPLED_CELL_KEY: u64 = 0x161c_3562_042b_cfc0;
const WARM_ENTRY_NAMES: u64 = 0x3b65_0023_d608_2284;
const WARM_ENTRY_BYTES: u64 = 0x8119_3c3e_bf61_c621;
const PRESET_DIGESTS: [(&str, &str, u64); 3] = [
    ("tage-16k", "tage-16k.json", 0x9f89_572f_1567_65a5),
    ("tage-64k", "tage-64k.json", 0xaee5_643c_1c40_28c6),
    ("tage-256k", "tage-256k.json", 0xecea_2830_3884_542f),
];

const BRANCHES: usize = 2_000;
const SAMPLED_BRANCHES: usize = 20_000;
const SAMPLING: SamplingSpec = SamplingSpec {
    interval: 500,
    k: 4,
    seed: 1,
};

fn predictor(token: &str) -> PredictorSpec {
    PredictorSpec::parse(token).unwrap()
}

fn scheme(token: &str) -> SchemeSpec {
    SchemeSpec::parse(token).unwrap()
}

fn report_digest(spec: &CampaignSpec) -> u64 {
    let report = run_campaign_with_engine(spec, 2, EngineKind::Multilane).unwrap();
    fnv1a64(report.render_json(false).replace(REPO, "<repo>").as_bytes())
}

fn sampled_suite() -> SourceSuite {
    SourceSuite::from_suite(&suites::cbp1_mini()).with_sampling(SAMPLING)
}

/// One TAGE x storage-free cell over the sampled suite.
fn sampled_spec() -> CampaignSpec {
    CampaignSpec {
        label: "golden-sampled".to_string(),
        predictors: vec![predictor("tage-16k")],
        schemes: vec![scheme("storage-free")],
        suites: vec![sampled_suite()],
        scenarios: vec![ScenarioSpec::Baseline],
        branches_per_trace: SAMPLED_BRANCHES,
    }
}

fn pinned(what: &str, actual: u64, expected: u64) {
    assert_eq!(
        actual, expected,
        "{what}: digest {actual:#018x} != pinned {expected:#018x}"
    );
}

#[test]
fn comparison_grid_report_bytes_are_pinned() {
    let spec = CampaignSpec {
        label: "golden".to_string(),
        predictors: [
            "tage-16k".to_string(),
            "tage-16k-std".to_string(),
            format!("geometry:{REPO}/geometries/tage-64k.json"),
            "gshare".to_string(),
            "perceptron".to_string(),
        ]
        .iter()
        .map(|token| predictor(token))
        .collect(),
        schemes: ["storage-free", "self-confidence", "jrs-enhanced"]
            .into_iter()
            .map(scheme)
            .collect(),
        suites: vec![suites::cbp1_mini().into()],
        scenarios: ScenarioSpec::ALL.to_vec(),
        branches_per_trace: BRANCHES,
    };
    pinned(
        "comparison grid report",
        report_digest(&spec),
        COMPARISON_REPORT,
    );
}

#[test]
fn sampled_cell_report_bytes_are_pinned() {
    pinned(
        "sampled cell report",
        report_digest(&sampled_spec()),
        SAMPLED_REPORT,
    );
}

/// The warm-cache entries a sampled cell leaves under `<store>/warm`: their
/// file names are the entry keys, their bytes the checkpointed states. A
/// store written by an earlier build keeps hitting only while both hold.
#[test]
fn warm_cache_keys_and_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("tage-golden-warm-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = CellStore::new(&dir).unwrap();
    let run =
        run_campaign_checkpointed(&sampled_spec(), 2, EngineKind::Multilane, &store, None).unwrap();
    assert_eq!(run.executed, 1);
    let mut names: Vec<String> = fs::read_dir(dir.join("warm"))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".warmstate"))
        .collect();
    names.sort();
    assert!(!names.is_empty(), "the sampled cell writes checkpoints");
    let mut bytes = Vec::new();
    for name in &names {
        bytes.extend(fs::read(dir.join("warm").join(name)).unwrap());
    }
    let _ = fs::remove_dir_all(&dir);
    pinned(
        "warm-cache entry names",
        fnv1a64(names.join("\n").as_bytes()),
        WARM_ENTRY_NAMES,
    );
    pinned("warm-cache entry bytes", fnv1a64(&bytes), WARM_ENTRY_BYTES);
}

#[test]
fn explore_report_bytes_are_pinned() {
    // The grid `explore_determinism` builds.
    const BUDGET_BITS: u64 = 32 * 1024;
    const MAX_GEOMETRIES: usize = 3;
    let spec = CampaignSpec {
        label: "explore-determinism".to_string(),
        predictors: explore_predictors(enumerate_geometries(BUDGET_BITS, MAX_GEOMETRIES)),
        schemes: vec![scheme("storage-free")],
        suites: vec![suites::cbp1_mini().into()],
        scenarios: vec![ScenarioSpec::Baseline],
        branches_per_trace: BRANCHES,
    };
    let mut report = run_campaign_with_engine(&spec, 2, EngineKind::Multilane).unwrap();
    attach_explore_section(&mut report, BUDGET_BITS, MAX_GEOMETRIES).unwrap();
    pinned(
        "explore report",
        fnv1a64(report.render_json(false).as_bytes()),
        EXPLORE_REPORT,
    );
}

#[test]
fn cell_keys_are_pinned() {
    let point = SweepPoint::over_suite(
        predictor("tage-16k"),
        scheme("storage-free"),
        &suites::cbp1_mini(),
    );
    pinned("plain cell key", cell_key(BRANCHES, &point), PLAIN_CELL_KEY);
    let sampled = SweepPoint {
        suite: sampled_suite(),
        ..point
    };
    pinned(
        "sampled cell key",
        cell_key(SAMPLED_BRANCHES, &sampled),
        SAMPLED_CELL_KEY,
    );
}

#[test]
fn preset_spec_digests_are_pinned() {
    for (token, file, digest) in PRESET_DIGESTS {
        let registry = predictor(token).tage_blueprint().unwrap().tage_geometry();
        pinned(token, registry.spec_digest(), digest);
        let committed = TageGeometry::load(format!("{REPO}/geometries/{file}")).unwrap();
        pinned(file, committed.spec_digest(), digest);
    }
}
