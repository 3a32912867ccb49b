//! Throughput smoke test: end-to-end simulated branches per second through
//! the generic engine, plus heap-allocation accounting for the hot path —
//! the perf trajectory tracked across PRs.
//!
//! The binary installs a counting global allocator, so every measurement
//! reports `allocs_per_branch` alongside throughput. The TAGE lookup/update
//! path is required to be allocation-free: `predict_hot_path` and
//! `engine_single_trace` assert zero heap allocations per branch and the
//! process exits non-zero if the hot path regresses.
//!
//! Prints a human-readable summary and appends a labelled entry to the
//! `BENCH_throughput.json` trajectory (see `docs/BENCHMARKS.md` for the
//! schema; re-running with the same label replaces the last entry).
//!
//! Run with:
//! `cargo run --release --bin throughput -- [branches] [--out PATH]
//! [--baseline PATH] [--label STR] [--source KIND]
//! [--check-regression[=TOLERANCE]]`
//!
//! `--source {slice,file,synthetic,all}` (default `all`) selects which
//! streamed `BranchSource` measurements run alongside the materialized
//! ones: `engine_streamed_slice` (zero-copy in-memory stream, gated at
//! exactly zero steady-state heap allocations), `engine_streamed_file`
//! (chunked binary-file stream round-tripped through a temp file — allowed
//! its fixed chunk buffer and open-time metadata only, the gate fails if
//! allocations scale with branches) and `engine_streamed_synthetic`
//! (generate-on-the-fly, no materialized trace).
//!
//! `--baseline` seeds the written trajectory from a different file than
//! `--out`: `scripts/verify/bench.sh` points `--baseline` at the committed
//! milestone file and `--out` at an untracked path, so routine runs never
//! dirty the working tree (this replaces the old copy-the-file-first dance).
//! `--check-regression` compares this run against the latest baseline
//! milestone and exits non-zero below `TOLERANCE × milestone` (default
//! 0.5). The compared metric is the same-host `engine_single_trace /
//! engine_reference_nested_vec` speedup ratio whenever both sides carry it
//! (host-speed-immune; raw branches/sec only as a fallback for old
//! milestones), so the gate catches hot-path collapses without going red on
//! slower CI hosts. The three engine loops the gates read run
//! `GATED_TRIALS` interleaved trials each, and the gates and the written
//! entry use each loop's median trial.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tage::{CounterAutomaton, ReferenceTagePredictor, TageGeometry, TagePredictor};
use tage_bench::{cli, header, trajectory, DEFAULT_BRANCHES_PER_TRACE};
use tage_confidence::TageConfidenceClassifier;
use tage_sim::engine::{default_parallelism, ReportObserver, SimEngine};
use tage_sim::multilane::{MultilaneEngine, DEFAULT_LANES};
use tage_sim::runner::RunOptions;
use tage_sim::suite::SuiteScratch;
use tage_traces::source::{
    BinaryFileSource, BranchSource, SliceSource, SourceSuite, SyntheticSource,
};
use tage_traces::suites;
use tage_traces::writer::TraceWriter;

/// A [`System`]-backed allocator that counts every allocation, so the
/// measurements below can report heap allocations per simulated branch.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Runs `f`, returning its result, the wall-clock seconds it took and the
/// number of heap allocations it performed (process-wide).
fn timed_counting<R>(f: impl FnOnce() -> R) -> (R, f64, u64) {
    let allocations_before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    let result = f();
    let seconds = start.elapsed().as_secs_f64();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations_before;
    (result, seconds, allocations)
}

/// Timed trials of each engine loop whose rates the regression gates divide.
/// The gates and the written entry read each loop's median trial, so one
/// stall of a shared host cannot fail a gate on its own.
const GATED_TRIALS: usize = 5;

struct Measurement {
    name: &'static str,
    branches: u64,
    seconds: f64,
    allocations: u64,
}

/// The median-time trial of one loop's `trials` (every trial does the same
/// work), carrying the most heap allocations any trial performed, so the
/// allocation gate still judges every trial.
fn median_trial(mut trials: Vec<Measurement>) -> Measurement {
    let allocations = trials.iter().map(|m| m.allocations).max().unwrap_or(0);
    trials.sort_by(|a, b| a.seconds.total_cmp(&b.seconds));
    let mut median = trials.swap_remove(trials.len() / 2);
    median.allocations = allocations;
    median
}

impl Measurement {
    fn branches_per_second(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.branches as f64 / self.seconds
        }
    }

    fn allocations_per_branch(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.allocations as f64 / self.branches as f64
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"name\": \"{}\", \"branches\": {}, \"seconds\": {:.6}, \"branches_per_sec\": {:.0}, \"allocs_per_branch\": {:.6}}}",
            self.name,
            self.branches,
            self.seconds,
            self.branches_per_second(),
            self.allocations_per_branch()
        )
    }
}

/// Which streamed-source measurements to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SourceSelection {
    All,
    Slice,
    File,
    Synthetic,
}

impl SourceSelection {
    fn parse(value: &str) -> Result<Self, String> {
        match value {
            "all" => Ok(SourceSelection::All),
            "slice" => Ok(SourceSelection::Slice),
            "file" => Ok(SourceSelection::File),
            "synthetic" => Ok(SourceSelection::Synthetic),
            other => Err(format!(
                "--source: unknown kind \"{other}\" (known: slice, file, synthetic, all)"
            )),
        }
    }

    fn includes(self, kind: SourceSelection) -> bool {
        self == SourceSelection::All || self == kind
    }
}

/// CLI options of the throughput bin.
struct Options {
    branches: usize,
    /// Path the trajectory is written to.
    out: String,
    /// Path existing trajectory entries are seeded from (defaults to `out`,
    /// preserving the original read-append-rewrite behaviour).
    baseline: Option<String>,
    label: String,
    /// Streamed-source measurements to run.
    source: SourceSelection,
    /// `Some(tolerance)` when `--check-regression` is requested.
    regression_tolerance: Option<f64>,
}

fn parse_options() -> Result<Options, String> {
    let mut options = Options {
        branches: DEFAULT_BRANCHES_PER_TRACE,
        out: "BENCH_throughput.json".to_string(),
        baseline: None,
        label: "current".to_string(),
        source: SourceSelection::All,
        regression_tolerance: None,
    };
    let mut args = std::env::args().skip(1);
    let mut saw_positional = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => options.out = cli::require_value(&mut args, "--out")?,
            "--baseline" => options.baseline = Some(cli::require_value(&mut args, "--baseline")?),
            "--label" => options.label = cli::require_value(&mut args, "--label")?,
            "--source" => {
                options.source =
                    SourceSelection::parse(&cli::require_value(&mut args, "--source")?)?
            }
            "--check-regression" => options.regression_tolerance = Some(0.5),
            _ if arg.starts_with("--check-regression=") => {
                let value = &arg["--check-regression=".len()..];
                let tolerance: f64 = value
                    .parse()
                    .map_err(|_| format!("--check-regression: not a number: {value}"))?;
                if !(tolerance > 0.0 && tolerance.is_finite()) {
                    return Err(format!(
                        "--check-regression: tolerance must be positive and finite (got {value})"
                    ));
                }
                options.regression_tolerance = Some(tolerance);
            }
            _ if !saw_positional && !arg.starts_with("--") => {
                saw_positional = true;
                options.branches = cli::parse_count("branches", &arg)?;
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(options)
}

fn main() {
    let options = match parse_options() {
        Ok(options) => options,
        Err(error) => {
            eprintln!("throughput: {error}");
            std::process::exit(1);
        }
    };
    let branches = options.branches;
    print!(
        "{}",
        header(
            "Throughput smoke — simulated branches per second, heap allocations per branch",
            branches,
        )
    );

    let config = TageGeometry::medium().with_automaton(CounterAutomaton::paper_default());
    let mut measurements = Vec::new();

    // 1. The raw lookup hot path: `predict` on a trained predictor. This is
    //    the path the SoA tables + fixed scratch refactor made
    //    allocation-free; it must stay at exactly zero allocs per branch.
    let trace = suites::cbp1_like()
        .trace("INT-1")
        .expect("trace exists")
        .generate(branches);
    let mut predictor = TagePredictor::new(config.clone());
    for record in trace.iter().filter(|r| r.kind.is_conditional()) {
        let prediction = predictor.predict(record.pc);
        predictor.update(record.pc, record.taken, &prediction);
    }
    let lookups = branches as u64;
    let (sink, seconds, allocations) = timed_counting(|| {
        let mut agree = 0u64;
        for record in trace.iter().filter(|r| r.kind.is_conditional()) {
            let prediction = predictor.predict(record.pc);
            agree += u64::from(prediction.taken == record.taken);
        }
        agree
    });
    assert!(sink <= lookups);
    measurements.push(Measurement {
        name: "predict_hot_path",
        branches: lookups,
        seconds,
        allocations,
    });

    // 2–4. The three engine loops the regression gates divide, timed
    //    GATED_TRIALS times each and interleaved, so a slow stretch of the
    //    host slows every loop alike, and each loop records its median trial
    //    (`median_trial`). A trial builds its scalar engines outside the
    //    timed region.
    //    2. engine_single_trace: the single-trace engine (predict +
    //       classify + train), from a fresh predictor.
    //    3. engine_reference_nested_vec: the same loop with the nested-Vec
    //       reference predictor, a same-host, same-run baseline, so every
    //       trajectory entry carries the honest before/after ratio of the
    //       SoA + scratch refactor (entries recorded on different hosts are
    //       not directly comparable).
    //    4. engine_multilane: the lane-batched lockstep engine,
    //       DEFAULT_LANES copies of the same stream advanced one branch per
    //       cycle through per-component passes. The engine, sources and
    //       result slots are built (and warmed by one full run) before the
    //       trials, so each timed rerun measures the steady state and must
    //       be exactly allocation-free. Reported throughput is the
    //       *aggregate* over all lanes.
    let mut lanes = MultilaneEngine::new(config.clone(), &RunOptions::default(), DEFAULT_LANES);
    let mut sources: Vec<SliceSource<'_>> = (0..DEFAULT_LANES)
        .map(|_| SliceSource::from_trace(&trace))
        .collect();
    let mut results: Vec<_> = (0..DEFAULT_LANES)
        .map(|_| MultilaneEngine::placeholder_result())
        .collect();
    lanes
        .run_into(&mut sources, &mut results)
        .expect("slice sources are infallible");
    let (mut single, mut reference, mut multilane) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..GATED_TRIALS {
        let mut engine = SimEngine::new(
            TagePredictor::new(config.clone()),
            TageConfidenceClassifier::new(&config),
        );
        let mut report = ReportObserver::default();
        let (summary, seconds, allocations) = timed_counting(|| engine.run(&trace, &mut report));
        single.push(Measurement {
            name: "engine_single_trace",
            branches: summary.measured_branches,
            seconds,
            allocations,
        });

        let mut engine = SimEngine::new(
            ReferenceTagePredictor::new(config.clone()),
            TageConfidenceClassifier::new(&config),
        );
        let mut report = ReportObserver::default();
        let (summary, seconds, allocations) = timed_counting(|| engine.run(&trace, &mut report));
        reference.push(Measurement {
            name: "engine_reference_nested_vec",
            branches: summary.measured_branches,
            seconds,
            allocations,
        });

        for source in &mut sources {
            source.reset().expect("slice sources rewind");
        }
        let (aggregate_branches, seconds, allocations) = timed_counting(|| {
            lanes
                .run_into(&mut sources, &mut results)
                .expect("slice sources are infallible");
            results.iter().map(|r| r.conditional_branches).sum::<u64>()
        });
        multilane.push(Measurement {
            name: "engine_multilane",
            branches: aggregate_branches,
            seconds,
            allocations,
        });
    }
    measurements.extend([single, reference, multilane].map(median_trial));

    // 5. Streamed ingestion through the BranchSource API. Engines are
    //    constructed outside the timed regions (their fixed batch buffer is
    //    a construction-time allocation), so the timed loops measure the
    //    steady-state streaming hot path.
    let spec = suites::cbp1_like()
        .trace("INT-1")
        .expect("trace exists")
        .clone();
    if options.source.includes(SourceSelection::Slice) {
        // 4a. Zero-copy stream over the in-memory trace: must be exactly
        //     allocation-free, like the materialized engine run.
        let mut engine = SimEngine::new(
            TagePredictor::new(config.clone()),
            TageConfidenceClassifier::new(&config),
        );
        let mut report = ReportObserver::default();
        let mut source = SliceSource::from_trace(&trace);
        let (summary, seconds, allocations) = timed_counting(|| {
            engine
                .run_source(&mut source, &mut report)
                .expect("slice sources are infallible")
        });
        measurements.push(Measurement {
            name: "engine_streamed_slice",
            branches: summary.measured_branches,
            seconds,
            allocations,
        });
    }
    if options.source.includes(SourceSelection::File) {
        // 4b. Chunked binary-file stream: the trace is round-tripped through
        //     a temp file and read back through BinaryFileSource. The open
        //     (file handle, name, fixed chunk buffer) happens inside the
        //     timed region; those few allocations are the allowed fixed
        //     cost, and the gate below fails if allocations scale with the
        //     branch count instead.
        let path = std::env::temp_dir().join(format!(
            "tage-throughput-{}-{branches}.trace",
            std::process::id()
        ));
        match std::fs::write(&path, TraceWriter::to_binary_bytes(&trace)) {
            Ok(()) => {
                let mut engine = SimEngine::new(
                    TagePredictor::new(config.clone()),
                    TageConfidenceClassifier::new(&config),
                );
                let mut report = ReportObserver::default();
                let (summary, seconds, allocations) = timed_counting(|| {
                    let mut source = BinaryFileSource::open(&path).expect("temp trace file opens");
                    engine
                        .run_source(&mut source, &mut report)
                        .expect("temp trace file reads")
                });
                measurements.push(Measurement {
                    name: "engine_streamed_file",
                    branches: summary.measured_branches,
                    seconds,
                    allocations,
                });
                let _ = std::fs::remove_file(&path);
            }
            Err(error) => {
                eprintln!("skipping engine_streamed_file: cannot write {path:?}: {error}");
            }
        }
    }
    if options.source.includes(SourceSelection::Synthetic) {
        // 4c. Generate-on-the-fly stream: trace generation fused into the
        //     simulation loop, no materialized Vec of records anywhere.
        let mut engine = SimEngine::new(
            TagePredictor::new(config.clone()),
            TageConfidenceClassifier::new(&config),
        );
        let mut report = ReportObserver::default();
        let mut source = SyntheticSource::from_spec(&spec, branches);
        let (summary, seconds, allocations) = timed_counting(|| {
            engine
                .run_source(&mut source, &mut report)
                .expect("synthetic sources are infallible")
        });
        measurements.push(Measurement {
            name: "engine_streamed_synthetic",
            branches: summary.measured_branches,
            seconds,
            allocations,
        });
    }

    // 6. Whole-suite throughput through the persistent SuiteScratch: all
    //    sources opened once, one lane-batched engine, result buffers
    //    refilled in place. The scratch is built and warmed by one full run
    //    outside the timed region, so the timed rerun is required to perform
    //    exactly zero heap allocations.
    let suite = suites::cbp1_like();
    let per_trace = (branches / 10).max(1_000);
    let mut scratch = SuiteScratch::new(
        &config,
        &SourceSuite::from_suite(&suite),
        per_trace,
        &RunOptions::default(),
        DEFAULT_LANES,
    )
    .expect("synthetic sources are infallible");
    scratch.run().expect("synthetic sources are infallible");
    let (suite_branches, seconds, allocations) = timed_counting(|| {
        let result = scratch.run().expect("synthetic sources are infallible");
        result.aggregate.total().predictions
    });
    measurements.push(Measurement {
        name: "suite_parallel",
        branches: suite_branches,
        seconds,
        allocations,
    });

    println!(
        "{:<22} {:>14} {:>10} {:>16} {:>18}",
        "measurement", "branches", "seconds", "branches/sec", "allocs/branch"
    );
    for m in &measurements {
        println!(
            "{:<22} {:>14} {:>10.3} {:>16.0} {:>18.6}",
            m.name,
            m.branches,
            m.seconds,
            m.branches_per_second(),
            m.allocations_per_branch()
        );
    }
    println!(
        "engine_single_trace, engine_reference_nested_vec, engine_multilane: median of \
         {GATED_TRIALS} interleaved trials"
    );
    println!();
    println!("workers available: {}", default_parallelism());

    // The hot path must be allocation-free: fail loudly if it regresses.
    // Streaming over an in-memory slice shares the materialized path's
    // zero-alloc contract; the file stream is allowed its fixed open-time
    // cost (file handle, header name, one chunk buffer) but nothing that
    // scales with the branch count.
    const FILE_SOURCE_FIXED_ALLOWANCE: u64 = 64;
    let mut hot_path_clean = true;
    for m in &measurements {
        let budget = match m.name {
            "predict_hot_path"
            | "engine_single_trace"
            | "engine_streamed_slice"
            | "engine_multilane"
            | "suite_parallel" => Some(0),
            "engine_streamed_file" => Some(FILE_SOURCE_FIXED_ALLOWANCE),
            _ => None,
        };
        if let Some(budget) = budget {
            if m.allocations > budget {
                eprintln!(
                    "REGRESSION: {} performed {} heap allocations ({:.6} per branch, budget {}); \
                     the streaming hot path must stay allocation-free in steady state",
                    m.name,
                    m.allocations,
                    m.allocations_per_branch(),
                    budget
                );
                hot_path_clean = false;
            }
        }
    }

    // Append to the machine-readable trajectory (hand-rolled JSON: no deps).
    // Entries are seeded from --baseline when given (the committed milestone
    // file), otherwise from the output file itself; scripts/verify/bench.sh
    // uses a committed baseline with an untracked --out so routine runs never
    // dirty the working tree.
    let seed_path = options.baseline.as_deref().unwrap_or(&options.out);
    // Never clobber history: the trajectory file is an append-only record
    // across PRs, so an existing file that cannot be read or yields no
    // entries (truncated, hand-mangled) blocks the write instead of being
    // silently replaced by this run's single entry.
    let mut entries = Vec::new();
    let mut trajectory_writable = true;
    match std::fs::read_to_string(seed_path) {
        Ok(existing) => {
            entries = trajectory::existing_entries(&existing);
            if entries.is_empty() && !existing.trim().is_empty() {
                eprintln!(
                    "refusing to build on {seed_path}: existing content has no extractable \
                     trajectory entries (corrupt file?) — fix or remove it first"
                );
                trajectory_writable = false;
            }
        }
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => {}
        Err(error) => {
            eprintln!("refusing to build on {seed_path}: cannot read existing file: {error}");
            trajectory_writable = false;
        }
    }

    // Regression gate (--check-regression): compare this run against the
    // newest seeded milestone carrying an `engine_single_trace` rate, before
    // this run's own entry lands in the list. When both the milestone and
    // this run also carry `engine_reference_nested_vec`, the comparison uses
    // the SoA/reference *speedup ratio* instead of the raw rate: the ratio
    // is measured same-host, same-process on both sides, so the gate does
    // not go red just because CI runs on a slower machine than the one that
    // recorded the milestone. Raw rates are the fallback for milestones
    // predating the reference measurement.
    let mut regression_ok = true;
    if let Some(tolerance) = options.regression_tolerance {
        let rate_of = |name: &str| {
            measurements
                .iter()
                .find(|m| m.name == name)
                .map(Measurement::branches_per_second)
                .filter(|rate| *rate > 0.0)
        };
        let milestone = entries.iter().rev().find_map(|entry| {
            trajectory::entry_measurement(entry, "engine_single_trace", "branches_per_sec")
                .filter(|rate| *rate > 0.0)
                .map(|rate| {
                    let reference = trajectory::entry_measurement(
                        entry,
                        "engine_reference_nested_vec",
                        "branches_per_sec",
                    )
                    .filter(|r| *r > 0.0);
                    (
                        trajectory::entry_label(entry).unwrap_or_default(),
                        rate,
                        reference,
                    )
                })
        });
        match (rate_of("engine_single_trace"), milestone) {
            (Some(current_rate), Some((milestone_label, milestone_rate, milestone_reference))) => {
                let (metric, current, baseline) =
                    match (rate_of("engine_reference_nested_vec"), milestone_reference) {
                        (Some(current_ref), Some(milestone_ref)) => (
                            "engine_single_trace/reference speedup",
                            current_rate / current_ref,
                            milestone_rate / milestone_ref,
                        ),
                        _ => (
                            "engine_single_trace branches/sec",
                            current_rate,
                            milestone_rate,
                        ),
                    };
                let floor = tolerance * baseline;
                if current < floor {
                    eprintln!(
                        "REGRESSION: {metric} at {current:.3} is below {tolerance} x the \
                         \"{milestone_label}\" milestone ({baseline:.3}, floor {floor:.3})"
                    );
                    regression_ok = false;
                } else {
                    println!(
                        "regression check OK: {metric} {current:.3} >= {tolerance} x {baseline:.3} \
                         (milestone \"{milestone_label}\")"
                    );
                }
            }
            _ => println!(
                "regression check skipped: no engine_single_trace milestone found in {seed_path}"
            ),
        }

        // Second gate: the multilane/scalar aggregate speedup ratio. Like
        // the SoA/reference ratio above it is measured same-host,
        // same-process on both sides, so it survives host-speed changes;
        // it catches the lockstep engine collapsing back to scalar speed.
        let multilane_milestone = entries.iter().rev().find_map(|entry| {
            let multilane =
                trajectory::entry_measurement(entry, "engine_multilane", "branches_per_sec")
                    .filter(|rate| *rate > 0.0)?;
            let single =
                trajectory::entry_measurement(entry, "engine_single_trace", "branches_per_sec")
                    .filter(|rate| *rate > 0.0)?;
            Some((
                trajectory::entry_label(entry).unwrap_or_default(),
                multilane / single,
            ))
        });
        match (
            rate_of("engine_multilane"),
            rate_of("engine_single_trace"),
            multilane_milestone,
        ) {
            (Some(multilane), Some(single), Some((milestone_label, baseline_ratio))) => {
                let current = multilane / single;
                let floor = tolerance * baseline_ratio;
                if current < floor {
                    eprintln!(
                        "REGRESSION: engine_multilane/engine_single_trace speedup at \
                         {current:.3} is below {tolerance} x the \"{milestone_label}\" \
                         milestone ({baseline_ratio:.3}, floor {floor:.3})"
                    );
                    regression_ok = false;
                } else {
                    println!(
                        "regression check OK: engine_multilane/engine_single_trace speedup \
                         {current:.3} >= {tolerance} x {baseline_ratio:.3} (milestone \
                         \"{milestone_label}\")"
                    );
                }
            }
            _ => println!(
                "multilane regression check skipped: no engine_multilane milestone found in \
                 {seed_path}"
            ),
        }
    }

    if trajectory_writable {
        let rendered: Vec<String> = measurements.iter().map(Measurement::to_json).collect();
        trajectory::push_entry(
            &mut entries,
            trajectory::render_entry(&options.label, &rendered),
        );
        let json = trajectory::render_file(default_parallelism(), &entries);
        match std::fs::write(&options.out, json) {
            Ok(()) => println!("wrote {} (entry \"{}\")", options.out, options.label),
            Err(error) => eprintln!("could not write {}: {error}", options.out),
        }
    }

    if !hot_path_clean || !trajectory_writable || !regression_ok {
        std::process::exit(1);
    }
}
