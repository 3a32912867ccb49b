//! `sampled_real_traces`: one seeded 4-trace suite written to disk in the
//! four trace formats and run as phase-sampled (`sample:`) cells for
//! TAGE-64K and TAGE-256K through `run_campaign_checkpointed`, twice per
//! cycle: a cold pass on empty stores (replays gaps, writes checkpoints
//! and cells) and a warm pass that finds no cells but every checkpoint
//! (decodes, plans and restores).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use tage_bench::campaign::{run_campaign_checkpointed, validate_report, CampaignSpec};
use tage_bench::cellstore::{cell_key, CellStore};
use tage_sim::phase::{build_plan, compare_sampled_vs_exact, run_sampled_source};
use tage_sim::point::{PredictorSpec, SchemeSpec, SweepPoint};
use tage_sim::scenarios::ScenarioSpec;
use tage_sim::{warmcache, EngineKind, RunOptions, WarmCache};
use tage_traces::decoder::decode_file;
use tage_traces::source::{BinaryFileSource, SamplingSpec, SourceSpec, SourceSuite};
use tage_traces::writer::TraceWriter;
use tage_traces::{suites, BranchRecord, Suite, Trace};

use crate::inputs::{accounted_branches, drain, seeded_suite, throughput, timed, Pass};
use crate::layers::{self, LayerInputs, TraceFiles};
use crate::spans::Tracer;
use crate::stats::{describe, median};
use crate::{Run, WORKERS};

/// Conditional branches per trace. Not a multiple of the plan's interval,
/// so every stream ends in a ragged tail slice the plan always measures:
/// the cold pass then replays each stream to its end whatever slices the
/// seed's clustering picks, and its cost does not swing with the seed.
const BRANCHES: usize = 800_100;
/// The phase-sampling plan: at most 4 clusters x 8 slices x 1000 records
/// (4%) of each trace are measured. The cold pass fsyncs one checkpoint per
/// slice, and disk latency on a shared host swings far more than CPU
/// speed, so few long slices over long traces keep that pass dominated by
/// simulation. Sampled-vs-exact error: worst 5.0% over seeds 1-16.
const PLAN: SamplingSpec = SamplingSpec {
    interval: 1_000,
    k: 4,
    seed: 1,
};
/// Predictor axis.
const PREDICTORS: [&str; 2] = ["tage-64k", "tage-256k"];
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// The CI gate on the sampled-vs-exact MPKI error.
const ERROR_GATE_PCT: f64 = 5.0;

/// Generates the suite's 4 traces and writes each in its own format:
/// gzip-compressed native (compressed by the system `gzip`, so the Huffman
/// decoder runs), CBP text, CBP binary and native.
///
/// All four traces are generated before any is written. The set-up's peak
/// memory, with all four held at once, then bounds the process peak from
/// below, so `peak_rss_mb` does not swing with how the two workers' decode
/// buffers happen to overlap in the timed passes (that overlap alone moved
/// the peak between 124 and 178 MB from run to run).
fn write_suite(dir: &Path, suite: &Suite) -> Result<TraceFiles, String> {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let traces: Vec<Trace> = suite
        .traces()
        .iter()
        .map(|t| t.generate(BRANCHES))
        .collect();
    let [gz, cbp, cbpb, native] = traces.as_slice() else {
        return Err(format!("the suite needs 4 traces, got {}", traces.len()));
    };
    let path = |trace: &Trace, suffix: &str| dir.join(format!("{}.{suffix}", trace.name()));
    let write = |path: &Path, bytes: &[u8]| {
        fs::write(path, bytes).map_err(|e| format!("write {}: {e}", path.display()))
    };
    let conditional = |trace: &Trace| -> Vec<(u64, bool)> {
        trace
            .records()
            .iter()
            .filter(|r| r.kind.is_conditional())
            .map(|r| (r.pc, r.taken))
            .collect()
    };
    let uncompressed = path(gz, "trace");
    write(&uncompressed, &TraceWriter::to_binary_bytes(gz))?;
    let status = Command::new("gzip")
        .arg("-n")
        .arg("-f")
        .arg(&uncompressed)
        .status()
        .map_err(|e| format!("cannot run gzip: {e}"))?;
    if !status.success() {
        return Err(format!(
            "gzip failed on {}: {status}",
            uncompressed.display()
        ));
    }
    let mut text = String::new();
    for (pc, taken) in conditional(cbp) {
        text.push_str(&format!("{pc:x} {}\n", u8::from(taken)));
    }
    write(&path(cbp, "cbp"), text.as_bytes())?;
    let mut binary = Vec::new();
    for (pc, taken) in conditional(cbpb) {
        binary.extend_from_slice(&pc.to_le_bytes());
        binary.push(u8::from(taken));
    }
    write(&path(cbpb, "cbpb"), &binary)?;
    write(
        &path(native, "trace"),
        &TraceWriter::to_binary_bytes(native),
    )?;
    Ok(TraceFiles {
        gz: path(gz, "trace.gz"),
        cbp: path(cbp, "cbp"),
        cbpb: path(cbpb, "cbpb"),
        native: path(native, "trace"),
    })
}

/// Removes every finished cell from a store, keeping its warm checkpoints.
fn drop_cells(store_dir: &Path) -> usize {
    let Ok(entries) = fs::read_dir(store_dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "cell"))
        .filter(|path| fs::remove_file(path).is_ok())
        .count()
}

pub fn run(run: &mut Run) -> Result<(), String> {
    let seed = run.seed;
    run.param("predictors", PREDICTORS.join(","));
    run.param("branches_per_trace", BRANCHES);
    run.param("sampling", PLAN.identity());
    run.param("formats", "trace.gz,cbp,cbpb,trace");
    run.param("workers", WORKERS);

    let suite_dir = run.work.join("sampled-suite");
    let store_dir = run.work.join("sampled-store");
    let mut setup_times = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let (result, seconds) = timed(|| {
            run.tracer.span("setup", |_| -> Result<_, String> {
                let suite = seeded_suite(&suites::cbp1_mini(), seed);
                let files = write_suite(&suite_dir, &suite)?;
                let sources = SourceSuite::from_dir(&suite_dir)
                    .map_err(|e| format!("trace dir {}: {e}", suite_dir.display()))?;
                let _ = fs::remove_dir_all(&store_dir);
                let store = CellStore::new(&store_dir)
                    .map_err(|e| format!("cell store {}: {e}", store_dir.display()))?;
                Ok((files, sources.with_sampling(PLAN), suite, store))
            })
        });
        setup_times.push(seconds);
        built = Some(result?);
    }
    let (files, sources, suite, mut store) = built.expect("at least one set-up");
    run.set("setup_s", median(&setup_times));
    run.line(format!(
        "peak RSS after set-up: {:.1} MB",
        crate::host::peak_rss_mb()
    ));
    let spec = CampaignSpec {
        label: "sampled_real_traces".to_string(),
        predictors: PREDICTORS
            .iter()
            .map(|t| PredictorSpec::parse(t).expect("registry predictor token"))
            .collect(),
        schemes: vec![SchemeSpec::StorageFree],
        suites: vec![sources],
        scenarios: vec![ScenarioSpec::Baseline],
        branches_per_trace: BRANCHES,
    };
    let (points, _) = spec.expand();
    run.check(
        points.len() == PREDICTORS.len() && spec.suites[0].sources().len() == 4,
        || {
            format!(
                "expected {} sampled cells over 4 sources, got {} over {}",
                PREDICTORS.len(),
                points.len(),
                spec.suites[0].sources().len()
            )
        },
    );

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(run.seconds);
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut reference: Option<String> = None;
    let mut cold_cells = Vec::new();
    let mut cold_walls = Vec::new();
    // Warm-cache (hits, misses) deltas of the last cold and warm pass.
    let mut warm_deltas = [(0u64, 0u64); 2];
    let mut cycle = 0usize;
    while cold.is_empty() || Instant::now() < deadline {
        let traced = run.traced() && cycle % 2 == 1;
        cycle += 1;
        let _ = fs::remove_dir_all(&store_dir);
        store = CellStore::new(&store_dir).map_err(|e| format!("reset cell store: {e}"))?;
        let mut passes = Vec::with_capacity(2);
        for (index, pass) in ["cold", "warm"].into_iter().enumerate() {
            if pass == "warm" {
                run.check(drop_cells(&store_dir) == points.len(), || {
                    "the cold pass did not store every cell".to_string()
                });
            }
            let before = warmcache::global_counters();
            let name = format!("tage_bench::campaign::run_campaign_checkpointed[{pass}]");
            let (result, seconds) = timed(|| {
                let call = || {
                    run_campaign_checkpointed(&spec, WORKERS, EngineKind::Multilane, &store, None)
                };
                if traced {
                    run.tracer.span(&name, |_| call())
                } else {
                    call()
                }
            });
            let after = warmcache::global_counters();
            match result {
                Ok(done) => {
                    run.ops(points.len() as u64, 0);
                    run.check(done.executed == points.len() && done.restored == 0, || {
                        format!(
                            "{pass} pass executed {} and restored {} of {} cells",
                            done.executed,
                            done.restored,
                            points.len()
                        )
                    });
                    let cells = done.report.cell_bytes();
                    let bytes = done.report.render_json(false);
                    run.check(validate_report(&bytes).is_ok(), || {
                        format!("{pass} pass report fails validate_report")
                    });
                    match &reference {
                        Some(reference) => run.check(&bytes == reference, || {
                            format!("{pass} pass report differs from the first cold pass")
                        }),
                        None => reference = Some(bytes),
                    }
                    if pass == "cold" {
                        cold_walls = done
                            .report
                            .points
                            .iter()
                            .filter_map(|cell| cell.computed().map(|c| c.wall_seconds))
                            .collect();
                        cold_cells = cells.clone();
                    }
                    warm_deltas[index] = (after.0 - before.0, after.1 - before.1);
                    passes.push(Pass {
                        seconds,
                        branches: accounted_branches(&cells),
                        traced,
                    });
                }
                Err(error) => run.op_failed(&format!("{pass} pass"), error),
            }
        }
        let mut passes = passes.into_iter();
        if let (Some(c), Some(w)) = (passes.next(), passes.next()) {
            cold.push(c);
            warm.push(w);
        }
    }

    let walls = |passes: &[Pass]| -> Vec<f64> { passes.iter().map(|p| p.seconds).collect() };
    run.line(format!("cold pass wall: {}", describe(&walls(&cold), "s")));
    run.line(format!("warm pass wall: {}", describe(&walls(&warm), "s")));
    let untraced = throughput(&cold, false);
    run.set("branches_per_s", untraced);
    run.set("warm_branches_per_s", throughput(&warm, false));

    let error = sampling_error(run, &spec, &points, &cold_cells);
    run.line(format!(
        "sampling_error_pct = {error:.4} % (sampled vs exact mean MPKI, worst cell)"
    ));
    run.set("sim.phase.sampling_error_pct", error);

    if run.traced() {
        run.set(
            "bench.trace_overhead_pct",
            (untraced - throughput(&cold, true)) / untraced * 100.0,
        );
        let [(cold_hits, cold_misses), (warm_hits, warm_misses)] = warm_deltas;
        run.set("sim.warmcache.hits.cold", cold_hits as f64);
        run.set("sim.warmcache.misses.cold", cold_misses as f64);
        run.set("sim.warmcache.hits.warm", warm_hits as f64);
        run.set("sim.warmcache.misses.warm", warm_misses as f64);
        // One cycle's store traffic: the cold pass misses every cell and
        // the warm pass (cells dropped) misses them again.
        run.set("bench.cellstore.hits", store.hits() as f64);
        run.set("bench.cellstore.misses", store.misses() as f64);
        run.set("sim.point.sampled_cell_s", median(&cold_walls));
        let measured: f64 = cold_cells
            .iter()
            .filter_map(|c| tage_bench::jsonish::number_field(c, "measured_branches"))
            .sum();
        let total: f64 = cold_cells
            .iter()
            .filter_map(|c| tage_bench::jsonish::number_field(c, "total_records"))
            .sum();
        run.set("sim.phase.measured_fraction", measured / total);
        let scratch = run.work.join("breakdown");
        breakdown(run, &points, &scratch)?;
        let cells: Vec<(SweepPoint, u64, String)> = points
            .iter()
            .cloned()
            .zip(cold_cells.iter().cloned())
            .map(|(point, bytes)| {
                let key = cell_key(BRANCHES, &point);
                (point, key, bytes)
            })
            .collect();
        let streams: Vec<Vec<BranchRecord>> = [&files.gz, &files.cbp, &files.cbpb]
            .iter()
            .map(|path| decode_file(path).map(|d| d.records().to_vec()))
            .chain(std::iter::once(
                BinaryFileSource::open(&files.native).and_then(|mut s| drain(&mut s)),
            ))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("reading the suite back: {e}"))?;
        let inputs = LayerInputs {
            records: &streams[3],
            streams: &streams,
            synthetic: suite.traces(),
            synthetic_branches: BRANCHES,
            files: Some(&files),
            cells: &cells,
        };
        layers::measure(run, &inputs, &scratch);
    }
    Ok(())
}

/// Worst relative error, in percent, between each sampled cell's mean MPKI
/// and the exact (unsampled) mean MPKI over the same sources, computed
/// outside the timed region with `compare_sampled_vs_exact`. The sampled
/// side must match what the campaign reported. The error itself is an
/// accuracy figure, not an output check: it is reported against the 5%
/// CI gate but never fails the run.
fn sampling_error(
    run: &mut Run,
    spec: &CampaignSpec,
    points: &[SweepPoint],
    cells: &[String],
) -> f64 {
    let options = RunOptions::default();
    let mut worst = 0.0f64;
    for (point, cell) in points.iter().zip(cells) {
        let blueprint = point
            .predictor
            .tage_blueprint()
            .expect("sampled cells are TAGE");
        let mut exact = Vec::new();
        let mut sampled = Vec::new();
        for source in spec.suites[0].sources() {
            match compare_sampled_vs_exact(blueprint, &options, PLAN, None, || {
                source.open(BRANCHES)
            }) {
                Ok(report) => {
                    exact.push(report.exact_mpki);
                    sampled.push(report.sampled_mpki);
                }
                Err(error) => run.op_failed("compare_sampled_vs_exact", error),
            }
        }
        run.ops(exact.len() as u64, 0);
        let mean = |values: &[f64]| values.iter().sum::<f64>() / values.len().max(1) as f64;
        let (exact, sampled) = (mean(&exact), mean(&sampled));
        let reported = tage_bench::jsonish::number_field(cell, "mean_mpki").unwrap_or(f64::NAN);
        run.check((reported - sampled).abs() < 1e-5, || {
            format!(
                "{}: campaign mean MPKI {reported} but the sampled runner gives {sampled}",
                point.predictor.label()
            )
        });
        let error = (sampled - exact).abs() / exact * 100.0;
        run.line(format!(
            "{}: sampled mean MPKI {sampled:.4} vs exact {exact:.4}: error {error:.3}% ({} the {ERROR_GATE_PCT}% CI gate)",
            point.predictor.label(),
            if error < ERROR_GATE_PCT { "under" } else { "OVER" }
        ));
        worst = worst.max(error);
    }
    worst
}

/// Every sampled cell again through the functions `point.rs` calls —
/// opening (and decoding) each source, planning, then the sampled runner
/// cold and warm against a fresh warm cache — each inside its own span.
fn breakdown(run: &mut Run, points: &[SweepPoint], scratch: &Path) -> Result<(), String> {
    let options = RunOptions::default();
    let mut plan_seconds = Vec::new();
    let mut replayed = [0u64; 2];
    for point in points {
        let blueprint = point
            .predictor
            .tage_blueprint()
            .expect("sampled cells are TAGE");
        let cache_dir: PathBuf = scratch.join(format!("warm-{}", point.predictor.label()));
        let _ = fs::remove_dir_all(&cache_dir);
        let cache = WarmCache::new(&cache_dir).map_err(|e| format!("warm cache: {e}"))?;
        let tracer: &mut Tracer = &mut run.tracer;
        let mut cell_plan = 0.0;
        tracer.span("cell.sampled", |t| -> Result<(), String> {
            for source in point.suite.sources() {
                let opened = match source {
                    SourceSpec::DecodedFile(path) => t
                        .span("tage_traces::decoder::decode_file", |_| decode_file(path))
                        .map(|decoded| tage_traces::source::AnySource::Decoded(Box::new(decoded))),
                    _ => t.span("tage_traces::source::SourceSpec::open", |_| {
                        source.open(BRANCHES)
                    }),
                };
                let mut opened = opened.map_err(|e| format!("open {}: {e}", source.label()))?;
                let (plan, seconds) = timed(|| {
                    t.span("tage_sim::phase::build_plan", |_| {
                        build_plan(&mut opened, PLAN)
                    })
                });
                plan.map_err(|e| format!("plan {}: {e}", source.label()))?;
                cell_plan += seconds;
                for (index, pass) in ["cold", "warm"].iter().enumerate() {
                    let result = t.span(
                        &format!("tage_sim::phase::run_sampled_source[{pass}]"),
                        |_| {
                            run_sampled_source(
                                blueprint,
                                &options,
                                PLAN,
                                Some((&cache, source.digest(BRANCHES))),
                                || source.open(BRANCHES),
                            )
                        },
                    );
                    replayed[index] += result
                        .map_err(|e| format!("sampled run {}: {e}", source.label()))?
                        .replayed_records;
                }
            }
            Ok(())
        })?;
        plan_seconds.push(cell_plan);
    }
    run.set("sim.phase.build_plan_s", median(&plan_seconds));
    run.set("sim.phase.replayed_records.cold", replayed[0] as f64);
    run.set("sim.phase.replayed_records.warm", replayed[1] as f64);
    Ok(())
}
