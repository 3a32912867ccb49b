//! A trace file rewritten in place at the same length keys new cells and
//! new warm states, so a resumed campaign recomputes what the rewrite
//! changed and restores what it did not.
//!
//! The one test here reads the process-wide warm-cache counters, which is
//! why it has this test binary to itself.

use std::fs;
use std::io::Write as _;
use std::time::Duration;

use tage_bench::campaign::{run_campaign_checkpointed, CampaignSpec, CheckpointedRun};
use tage_bench::cellstore::CellStore;
use tage_sim::point::{PredictorSpec, SchemeSpec};
use tage_sim::scenarios::ScenarioSpec;
use tage_sim::{warmcache, EngineKind};
use tage_traces::source::{SamplingSpec, SourceSuite};
use tage_traces::suites;
use tage_traces::writer::TraceWriter;

const BRANCHES: usize = 20_000;

/// Runs `spec` through `store`: the run, its timing-free report bytes and
/// the warm-cache (hits, misses) it added.
fn run(spec: &CampaignSpec, store: &CellStore) -> (CheckpointedRun, String, (u64, u64)) {
    let before = warmcache::global_counters();
    let run = run_campaign_checkpointed(spec, 2, EngineKind::Multilane, store, None).unwrap();
    let after = warmcache::global_counters();
    let bytes = run.report.render_json(false);
    (run, bytes, (after.0 - before.0, after.1 - before.1))
}

#[test]
fn a_same_length_rewrite_in_place_recomputes_its_cells_and_misses_its_warm_states() {
    let base = std::env::temp_dir().join(format!("tage-rewritten-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let traces = base.join("traces");
    fs::create_dir_all(&traces).unwrap();
    for trace in suites::cbp1_mini().traces() {
        let bytes = TraceWriter::to_binary_bytes(&trace.generate(BRANCHES));
        fs::write(traces.join(format!("{}.trace", trace.name())), bytes).unwrap();
    }
    let suite = SourceSuite::from_dir(&traces).unwrap();
    let sampling = SamplingSpec {
        interval: 500,
        k: 4,
        seed: 1,
    };
    // One full and one sampled tage-16k x storage-free cell over the files.
    let spec = CampaignSpec {
        label: "rewritten".to_string(),
        predictors: vec![PredictorSpec::parse("tage-16k").unwrap()],
        schemes: vec![SchemeSpec::parse("storage-free").unwrap()],
        suites: vec![suite.clone(), suite.with_sampling(sampling)],
        scenarios: vec![ScenarioSpec::Baseline],
        branches_per_trace: BRANCHES,
    };
    let store = CellStore::new(base.join("store")).unwrap();
    let (first, first_bytes, _) = run(&spec, &store);
    assert_eq!((first.restored, first.executed), (0, 2));

    // Flip the low bit of every byte past the header, in place: the same
    // length, a modification time one second later.
    let victim = traces.join("FP-1.trace");
    let mut bytes = fs::read(&victim).unwrap();
    for byte in &mut bytes[64..] {
        *byte ^= 1;
    }
    let modified = fs::metadata(&victim).unwrap().modified().unwrap();
    let mut file = fs::OpenOptions::new().write(true).open(&victim).unwrap();
    file.write_all(&bytes).unwrap();
    file.set_modified(modified + Duration::from_secs(1))
        .unwrap();
    drop(file);
    assert_eq!(fs::metadata(&victim).unwrap().len(), bytes.len() as u64);

    let (resumed, resumed_bytes, (hits, misses)) = run(&spec, &store);
    assert_eq!(
        (resumed.restored, resumed.executed),
        (0, 2),
        "both cells read the rewritten file"
    );
    assert!(misses > 0, "the rewritten file's warm states miss");
    assert!(hits > 0, "the unchanged files' warm states still hit");
    let (_, fresh_bytes, _) = run(&spec, &CellStore::new(base.join("fresh")).unwrap());
    assert_eq!(resumed_bytes, fresh_bytes, "recomputed as a fresh store");
    assert_ne!(resumed_bytes, first_bytes, "the rewrite changes the report");

    // A second pass over the unchanged files misses no warm state.
    for entry in fs::read_dir(store.dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|ext| ext == "cell") {
            fs::remove_file(path).unwrap();
        }
    }
    let (again, again_bytes, (again_hits, again_misses)) = run(&spec, &store);
    assert_eq!(again.executed, 2);
    assert_eq!((again_hits, again_misses), (hits + misses, 0));
    assert_eq!(again_bytes, resumed_bytes);
    let _ = fs::remove_dir_all(&base);
}
