//! Isolated per-layer loops over a workload's own records.
//!
//! Per-branch layers are too short to span one call at a time, so the
//! traced run times tight loops instead: predict, predict+update, the full
//! engine, the engine with observers, the baseline predictors and the lane
//! engine, plus the trace decoders, snapshot codec and cell store. Each
//! loop runs a few times and reports its median; differences between loops
//! (train = predict+update - predict, classify = engine - predict+update)
//! attribute the engine's time to its layers.

use std::hint::black_box;
use std::path::{Path, PathBuf};

use tage::{TageBlueprint, TagePredictor};
use tage_bench::cellstore::CellStore;
use tage_confidence::estimators::EstimatorSpec;
use tage_confidence::{EstimatorScheme, TageConfidenceClassifier};
use tage_predictors::{BaselinePredictorSpec, BranchPredictor, MarginPredictor};
use tage_sim::engine::{EngineObserver, ReportObserver, SimEngine};
use tage_sim::point::{PredictorSpec, SweepPoint};
use tage_sim::scenarios::energy::RecoveryEnergyObserver;
use tage_sim::scenarios::prefetch::PrefetchObserver;
use tage_sim::{MultilaneEngine, RunOptions};
use tage_traces::decoder::decode_file;
use tage_traces::inflate::gunzip;
use tage_traces::source::{BinaryFileSource, SliceSource, SyntheticSource};
use tage_traces::{BranchRecord, TraceSpec};

use crate::inputs::{drain, timed};
use crate::stats::median;
use crate::Run;

/// Repetitions of every loop; the median is reported.
const REPS: usize = 7;

/// The four trace files of a file-backed workload, one per format.
#[derive(Debug, Clone)]
pub struct TraceFiles {
    /// gzip-compressed native trace.
    pub gz: PathBuf,
    /// CBP-style text trace.
    pub cbp: PathBuf,
    /// CBP-style binary trace.
    pub cbpb: PathBuf,
    /// Native binary trace.
    pub native: PathBuf,
}

/// What the loops run over.
pub struct LayerInputs<'a> {
    /// One of the workload's traces.
    pub records: &'a [BranchRecord],
    /// Distinct traces of the workload, cycled to fill the lanes.
    pub streams: &'a [Vec<BranchRecord>],
    /// Synthetic trace specifications the workload generates.
    pub synthetic: &'a [TraceSpec],
    /// Conditional branches each synthetic trace is generated with.
    pub synthetic_branches: usize,
    /// The workload's trace files, when it reads any.
    pub files: Option<&'a TraceFiles>,
    /// Real cells of the workload: point, cell key, rendered bytes.
    pub cells: &'a [(SweepPoint, u64, String)],
}

/// Seconds `work` takes on a fresh value from `prepare` (not timed).
fn time_once<T>(prepare: impl FnOnce() -> T, work: impl FnOnce(T)) -> f64 {
    let input = prepare();
    timed(|| work(input)).1
}

/// Median seconds of `work` over [`REPS`] runs, each on a fresh value
/// from `prepare` (which is not timed).
fn time_reps<T>(mut prepare: impl FnMut() -> T, mut work: impl FnMut(T)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| time_once(&mut prepare, &mut work))
        .collect();
    median(&samples)
}

fn blueprint(token: &str) -> PredictorSpec {
    PredictorSpec::parse(token).expect("registry predictor token")
}

fn conditional_count(records: &[BranchRecord]) -> usize {
    records.iter().filter(|r| r.kind.is_conditional()).count()
}

/// A TAGE predictor trained once over `records`, as snapshot bytes.
fn trained_state(blueprint: &dyn TageBlueprint, records: &[BranchRecord]) -> Vec<u8> {
    let mut predictor = TagePredictor::new(blueprint);
    for record in records.iter().filter(|r| r.kind.is_conditional()) {
        let prediction = predictor.predict(record.pc);
        predictor.update(record.pc, record.taken, &prediction);
    }
    predictor.snapshot()
}

fn restored(blueprint: &dyn TageBlueprint, state: &[u8]) -> TagePredictor {
    let mut predictor = TagePredictor::new(blueprint);
    predictor
        .restore(state)
        .expect("a snapshot restores into its own geometry");
    predictor
}

/// Seconds of one run of the TAGE-64K storage-free engine, from the
/// trained state, with `extra` observing every branch.
fn engine_once<O: EngineObserver<TagePredictor>>(
    blueprint: &dyn TageBlueprint,
    state: &[u8],
    records: &[BranchRecord],
    extra: O,
) -> f64 {
    time_once(
        || {
            let engine = SimEngine::new(
                restored(blueprint, state),
                TageConfidenceClassifier::new(blueprint),
            );
            (engine, extra)
        },
        |(mut engine, mut observer)| {
            let mut report = ReportObserver::default();
            engine
                .run_source(
                    &mut SliceSource::new("loop", records),
                    &mut (&mut report, &mut observer),
                )
                .expect("slice sources are infallible");
            black_box(report);
        },
    )
}

/// Runs every loop that applies and records its metric.
pub fn measure(run: &mut Run, inputs: &LayerInputs<'_>, scratch: &Path) {
    let records = inputs.records;
    let branches = conditional_count(records).max(1) as f64;
    let ns = |seconds: f64| seconds * 1e9 / branches;
    let tage64 = blueprint("tage-64k");
    let bp = tage64.tage_blueprint().expect("TAGE token");

    // The loops run round-robin, so drift in host speed hits each of them
    // alike before their medians are differenced.
    let [predict, update, engine, estimator, energy, prefetch] =
        run.tracer.span("layers.tage_and_engine", |_| {
            let state = trained_state(bp, records);
            let trained = restored(bp, &state);
            let conditional = || records.iter().filter(|r| r.kind.is_conditional());
            let mut samples: [Vec<f64>; 6] = Default::default();
            for _ in 0..REPS {
                samples[0].push(time_once(
                    || (),
                    |()| {
                        for record in conditional() {
                            black_box(trained.predict(black_box(record.pc)));
                        }
                    },
                ));
                samples[1].push(time_once(
                    || restored(bp, &state),
                    |mut predictor| {
                        for record in conditional() {
                            let prediction = predictor.predict(record.pc);
                            predictor.update(record.pc, record.taken, &prediction);
                        }
                        black_box(predictor);
                    },
                ));
                samples[2].push(engine_once(bp, &state, records, ()));
                samples[3].push(time_once(
                    || {
                        SimEngine::new(
                            MarginPredictor(restored(bp, &state)),
                            EstimatorScheme(EstimatorSpec::JrsEnhanced.build(2)),
                        )
                    },
                    |mut engine| {
                        let mut report = ReportObserver::default();
                        engine
                            .run_source(&mut SliceSource::new("loop", records), &mut report)
                            .expect("slice sources are infallible");
                        black_box(report);
                    },
                ));
                samples[4].push(engine_once(
                    bp,
                    &state,
                    records,
                    RecoveryEnergyObserver::default(),
                ));
                samples[5].push(engine_once(
                    bp,
                    &state,
                    records,
                    PrefetchObserver::default(),
                ));
            }
            samples.map(|s| median(&s))
        });
    run.set("tage.predict.ns_per_branch", ns(predict));
    run.set("tage.train.ns_per_branch", ns(update - predict));
    run.set("sim.engine.ns_per_branch", ns(engine));
    run.set("confidence.classify.ns_per_branch", ns(engine - update));
    run.set("confidence.estimator.ns_per_branch", ns(estimator - update));
    run.set("sim.scenarios.energy.ns_per_branch", ns(energy - engine));
    run.set(
        "sim.scenarios.prefetch.ns_per_branch",
        ns(prefetch - engine),
    );

    for token in ["bimodal", "gshare", "perceptron"] {
        let spec = BaselinePredictorSpec::parse(token).expect("baseline token");
        let seconds = run.tracer.span(&format!("layers.predictors.{token}"), |_| {
            let mut predictor = spec.build();
            let step = |predictor: &mut Box<dyn BranchPredictor + Send>| {
                for record in records.iter().filter(|r| r.kind.is_conditional()) {
                    let prediction = predictor.predict(record.pc);
                    predictor.update(record.pc, record.taken, &prediction);
                }
            };
            step(&mut predictor);
            time_reps(|| (), |()| step(&mut predictor))
        });
        run.set(
            &format!("predictors.baseline.{token}.ns_per_branch"),
            ns(seconds),
        );
    }

    for lanes in [16usize, 4] {
        let streams: Vec<&Vec<BranchRecord>> = inputs.streams.iter().cycle().take(lanes).collect();
        let lane_branches: usize = streams.iter().map(|s| conditional_count(s)).sum();
        let seconds = run.tracer.span(&format!("layers.tage.lanes.{lanes}"), |_| {
            let mut engine = MultilaneEngine::new(bp, &RunOptions::default(), lanes);
            time_reps(
                || {
                    let sources: Vec<SliceSource<'_>> = streams
                        .iter()
                        .map(|records| SliceSource::new("lane", records))
                        .collect();
                    let results: Vec<_> = (0..lanes)
                        .map(|_| MultilaneEngine::placeholder_result())
                        .collect();
                    (sources, results)
                },
                |(mut sources, mut results)| {
                    engine
                        .run_into(&mut sources, &mut results)
                        .expect("slice sources are infallible");
                    black_box(results);
                },
            )
        });
        run.set(
            &format!("tage.lanes.{lanes}.ns_per_branch"),
            seconds * 1e9 / lane_branches.max(1) as f64,
        );
    }

    let tage256 = blueprint("tage-256k");
    let large = tage256.tage_blueprint().expect("TAGE token");
    let (encode, restore) = run.tracer.span("layers.tage.snapshot", |_| {
        let state = trained_state(large, records);
        let predictor = restored(large, &state);
        let encode = time_reps(|| (), |()| drop(black_box(predictor.snapshot())));
        let restore = time_reps(
            || TagePredictor::new(large),
            |mut fresh| fresh.restore(&state).expect("own snapshot"),
        );
        (encode, restore)
    });
    run.set("tage.snapshot.encode_us", encode * 1e6);
    run.set("tage.snapshot.restore_us", restore * 1e6);

    let synthetic = inputs.synthetic;
    let count = inputs.synthetic_branches;
    let (generated, seconds) = run.tracer.span("layers.traces.synthetic", |_| {
        let mut generated = 0usize;
        let seconds = time_reps(
            || (),
            |()| {
                generated = synthetic
                    .iter()
                    .map(|spec| {
                        drain(&mut SyntheticSource::from_spec(spec, count))
                            .expect("synthetic sources are infallible")
                            .len()
                    })
                    .sum();
            },
        );
        (generated, seconds)
    });
    run.set(
        "traces.synthetic.mrec_per_s",
        generated as f64 / seconds / 1e6,
    );

    if let Some(files) = inputs.files {
        measure_files(run, files);
    }
    measure_cell_store(run, inputs.cells, scratch);
}

fn file_mb(path: &Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / 1e6)
}

fn measure_files(run: &mut Run, files: &TraceFiles) {
    for (label, path) in [
        ("gz", &files.gz),
        ("cbp", &files.cbp),
        ("cbpb", &files.cbpb),
    ] {
        let mut ok = true;
        let seconds = run
            .tracer
            .span(&format!("layers.traces.decode.{label}"), |_| {
                time_reps(|| (), |()| ok &= decode_file(path).is_ok())
            });
        run.check(ok, || format!("decode_file({}) failed", path.display()));
        run.set(
            &format!("traces.decode.{label}.mb_per_s"),
            file_mb(path) / seconds,
        );
    }
    match std::fs::read(&files.gz) {
        Ok(compressed) => {
            let mut inflated = 0usize;
            let seconds = run.tracer.span("layers.traces.inflate", |_| {
                time_reps(
                    || (),
                    |()| inflated = gunzip(&compressed).map_or(0, |raw| raw.len()),
                )
            });
            run.check(inflated > 0, || "gunzip produced nothing".to_string());
            run.set("traces.inflate.mb_per_s", inflated as f64 / 1e6 / seconds);
        }
        Err(error) => run.op_failed("read gz trace", error),
    }
    let mut read = 0usize;
    let seconds = run.tracer.span("layers.traces.file", |_| {
        time_reps(
            || BinaryFileSource::open(&files.native),
            |source| {
                read = source
                    .and_then(|mut s| drain(&mut s))
                    .map_or(0, |r| r.len());
            },
        )
    });
    run.check(read > 0, || "BinaryFileSource read nothing".to_string());
    run.set("traces.file.mrec_per_s", read as f64 / seconds / 1e6);
}

/// `store_cell` and `load_cell` on the workload's real rendered cells in a
/// scratch store, fsync included.
fn measure_cell_store(run: &mut Run, cells: &[(SweepPoint, u64, String)], scratch: &Path) {
    if cells.is_empty() {
        return;
    }
    let dir = scratch.join("cellstore-probe");
    let _ = std::fs::remove_dir_all(&dir);
    let store = match CellStore::new(&dir) {
        Ok(store) => store,
        Err(error) => return run.op_failed("create probe cell store", error),
    };
    let ops: Vec<&(SweepPoint, u64, String)> = cells.iter().cycle().take(16).collect();
    let (stores, loads, mismatches) = run.tracer.span("layers.bench.cellstore", |_| {
        let mut stores = Vec::new();
        let mut loads = Vec::new();
        let mut mismatches = 0;
        for (index, (_, key, rendered)) in ops.iter().enumerate() {
            let key = key.wrapping_add(index as u64);
            let (result, seconds) = timed(|| store.store_cell(key, rendered));
            mismatches += usize::from(result.is_err());
            stores.push(seconds);
        }
        for (index, (point, key, rendered)) in ops.iter().enumerate() {
            let key = key.wrapping_add(index as u64);
            let (loaded, seconds) = timed(|| store.load_cell(key, point));
            mismatches += usize::from(loaded.as_deref() != Some(rendered.as_str()));
            loads.push(seconds);
        }
        (stores, loads, mismatches)
    });
    run.check(mismatches == 0, || {
        format!("{mismatches} probe cells did not round-trip through the cell store")
    });
    run.set("bench.cellstore.store_ms", median(&stores) * 1e3);
    run.set("bench.cellstore.load_ms", median(&loads) * 1e3);
    let _ = std::fs::remove_dir_all(&dir);
}
