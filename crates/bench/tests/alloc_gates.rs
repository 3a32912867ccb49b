//! Zero-allocation gates for the simulation hot paths.
//!
//! A counting global allocator wraps the system allocator, and each gate
//! counts the heap allocations of one steady-state loop. The TAGE lookup,
//! the engine over a materialized trace, the lane-batched engine, the
//! zero-copy slice stream and the persistent suite scratch must make none.
//! The chunked file stream may make a fixed few for its open (file handle,
//! header name, one chunk buffer), never a number that grows with the
//! branch count. Measurements, setup and budgets are those of the
//! `throughput` bin, at the 50,000 branches its CI smoke run uses.
//!
//! The file is a `harness = false` test: libtest would run it on a worker
//! thread beside its own bookkeeping, whose allocations would land in the
//! count. The output follows libtest's shape, one line per gate, and the
//! process exits non-zero naming every gate that fails and its count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tage::{CounterAutomaton, TageGeometry, TagePredictor};
use tage_confidence::TageConfidenceClassifier;
use tage_sim::engine::{ReportObserver, SimEngine};
use tage_sim::multilane::{MultilaneEngine, DEFAULT_LANES};
use tage_sim::runner::RunOptions;
use tage_sim::suite::SuiteScratch;
use tage_traces::source::{BinaryFileSource, BranchSource, SliceSource, SourceSuite};
use tage_traces::writer::TraceWriter;
use tage_traces::{suites, Trace};

/// A [`System`]-backed allocator that counts every allocation.
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

/// Conditional branches per trace, as in the CI throughput smoke run.
const BRANCHES: usize = 50_000;

/// What the chunked file stream may allocate for its open.
const FILE_SOURCE_FIXED_ALLOWANCE: u64 = 64;

/// The heap allocations `f` performs.
fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// The trace and predictor geometry every gate runs on.
struct Setup {
    geometry: TageGeometry,
    trace: Trace,
}

impl Setup {
    fn tage_engine(&self) -> SimEngine<TagePredictor, TageConfidenceClassifier> {
        SimEngine::new(
            TagePredictor::new(&self.geometry),
            TageConfidenceClassifier::new(&self.geometry),
        )
    }
}

/// `predict` on a trained predictor.
fn predict_hot_path(setup: &Setup) -> u64 {
    let conditional = || setup.trace.iter().filter(|r| r.kind.is_conditional());
    let mut predictor = TagePredictor::new(&setup.geometry);
    for record in conditional() {
        let prediction = predictor.predict(record.pc);
        predictor.update(record.pc, record.taken, &prediction);
    }
    allocations_of(|| {
        let mut agree = 0u64;
        for record in conditional() {
            agree += u64::from(predictor.predict(record.pc).taken == record.taken);
        }
        black_box(agree);
    })
}

/// Predict, classify and train over a materialized trace.
fn engine_single_trace(setup: &Setup) -> u64 {
    let mut engine = setup.tage_engine();
    let mut report = ReportObserver::default();
    allocations_of(|| {
        engine.run(&setup.trace, &mut report);
    })
}

/// The lane-batched engine, rerun after one warming run.
fn engine_multilane(setup: &Setup) -> u64 {
    let mut engine = MultilaneEngine::new(&setup.geometry, &RunOptions::default(), DEFAULT_LANES);
    let mut sources: Vec<SliceSource<'_>> = (0..DEFAULT_LANES)
        .map(|_| SliceSource::from_trace(&setup.trace))
        .collect();
    let mut results: Vec<_> = (0..DEFAULT_LANES)
        .map(|_| MultilaneEngine::placeholder_result())
        .collect();
    engine
        .run_into(&mut sources, &mut results)
        .expect("slice sources are infallible");
    for source in &mut sources {
        source.reset().expect("slice sources rewind");
    }
    allocations_of(|| {
        engine
            .run_into(&mut sources, &mut results)
            .expect("slice sources are infallible");
    })
}

/// The engine over a zero-copy stream of the in-memory trace.
fn engine_streamed_slice(setup: &Setup) -> u64 {
    let mut engine = setup.tage_engine();
    let mut report = ReportObserver::default();
    let mut source = SliceSource::from_trace(&setup.trace);
    allocations_of(|| {
        engine
            .run_source(&mut source, &mut report)
            .expect("slice sources are infallible");
    })
}

/// The engine over a chunked binary-file stream, counting its open.
fn engine_streamed_file(setup: &Setup) -> u64 {
    let path = std::env::temp_dir().join(format!("tage-alloc-gates-{}.trace", std::process::id()));
    std::fs::write(&path, TraceWriter::to_binary_bytes(&setup.trace))
        .expect("temp trace file writes");
    let mut engine = setup.tage_engine();
    let mut report = ReportObserver::default();
    let allocations = allocations_of(|| {
        let mut source = BinaryFileSource::open(&path).expect("temp trace file opens");
        engine
            .run_source(&mut source, &mut report)
            .expect("temp trace file reads");
    });
    let _ = std::fs::remove_file(&path);
    allocations
}

/// A whole suite through the persistent scratch, rerun after one warming
/// run.
fn suite_parallel(setup: &Setup) -> u64 {
    let mut scratch = SuiteScratch::new(
        &setup.geometry,
        &SourceSuite::from_suite(&suites::cbp1_like()),
        (BRANCHES / 10).max(1_000),
        &RunOptions::default(),
        DEFAULT_LANES,
    )
    .expect("synthetic sources are infallible");
    scratch.run().expect("synthetic sources are infallible");
    allocations_of(|| {
        scratch.run().expect("synthetic sources are infallible");
    })
}

/// A gate's measurement: the allocations of its counted region.
type Measure = fn(&Setup) -> u64;

/// Every gate: its name, its allocation budget and its measurement.
const GATES: [(&str, u64, Measure); 6] = [
    ("predict_hot_path", 0, predict_hot_path),
    ("engine_single_trace", 0, engine_single_trace),
    ("engine_multilane", 0, engine_multilane),
    ("engine_streamed_slice", 0, engine_streamed_slice),
    (
        "engine_streamed_file",
        FILE_SOURCE_FIXED_ALLOWANCE,
        engine_streamed_file,
    ),
    ("suite_parallel", 0, suite_parallel),
];

fn main() {
    let start = Instant::now();
    let setup = Setup {
        geometry: TageGeometry::medium().with_automaton(CounterAutomaton::paper_default()),
        trace: suites::cbp1_like()
            .trace("INT-1")
            .expect("trace exists")
            .generate(BRANCHES),
    };
    println!("\nrunning {} tests", GATES.len());
    let mut failures = Vec::new();
    for (name, budget, measure) in GATES {
        let allocations = measure(&setup);
        let verdict = if allocations > budget {
            failures.push(format!(
                "{name} performed {allocations} heap allocations (budget {budget})"
            ));
            "FAILED"
        } else {
            "ok"
        };
        println!("test {name} ... {verdict}");
    }
    for failure in &failures {
        eprintln!("REGRESSION: {failure}");
    }
    println!(
        "\ntest result: {}. {} passed; {} failed; 0 ignored; 0 measured; 0 filtered out; \
         finished in {:.2}s\n",
        if failures.is_empty() { "ok" } else { "FAILED" },
        GATES.len() - failures.len(),
        failures.len(),
        start.elapsed().as_secs_f64()
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
