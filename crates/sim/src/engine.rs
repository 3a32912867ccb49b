//! The generic, predictor-agnostic simulation engine.
//!
//! Every experiment in the workspace used to carry its own copy of the trace
//! loop: the TAGE runner, the baseline-estimator runner, the fetch-gating
//! model and the SMT model all re-implemented "predict, grade confidence,
//! record, train". [`SimEngine`] replaces those copies with one execution
//! path generic over
//!
//! * the predictor, via [`PredictorCore`] — the TAGE predictor with its rich
//!   observable lookup, or any baseline predictor (even a
//!   `dyn tage_predictors::BranchPredictor` trait object) with its flat
//!   margin-carrying one;
//! * the confidence scheme, via [`ConfidenceScheme`] — the storage-free TAGE
//!   classifier or any storage-based baseline estimator through
//!   [`tage_confidence::EstimatorScheme`];
//! * per-branch instrumentation, via [`EngineObserver`] — report
//!   accumulation, adaptive automaton control, gating policies, SMT fetch
//!   arbitration. Observers compose as tuples and receive mutable access to
//!   the predictor so controllers can steer it mid-run.
//!
//! The engine exposes two granularities: [`SimEngine::run`] drives a whole
//! trace (warm-up exclusion, instruction accounting), while
//! [`SimEngine::step_branch`] executes a single conditional branch so
//! cycle-interleaved models (SMT) can share the exact same predict → assess
//! → observe → train sequence.
//!
//! [`steal_map`] is the one parallel map behind every sharded run — suite
//! sources, segments and campaign cells: a work-stealing scheduler whose
//! results land in preallocated slots and come back in input order, so a
//! parallel run is bit-identical to a serial one.
//!
//! # Example: an arbitrary predictor × estimator cross-product
//!
//! ```
//! use tage_confidence::estimators::JrsEstimator;
//! use tage_confidence::EstimatorScheme;
//! use tage_predictors::GsharePredictor;
//! use tage_sim::engine::{ReportObserver, SimEngine};
//! use tage_traces::suites;
//!
//! let trace = suites::cbp1_like().traces()[0].generate(2_000);
//! let mut engine = SimEngine::new(
//!     GsharePredictor::new(12, 12),
//!     EstimatorScheme(JrsEstimator::classic(10)),
//! );
//! let mut report = ReportObserver::default();
//! let summary = engine.run(&trace, &mut report);
//! assert_eq!(summary.measured_branches, 2_000);
//! assert_eq!(report.report.total().predictions, 2_000);
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tage_confidence::scheme::{Assessment, ConfidenceScheme};
use tage_confidence::ConfidenceReport;
use tage_predictors::{PredictionOutcome, PredictorCore};
use tage_traces::format::FormatError;
use tage_traces::source::{BranchSource, SliceSource};
use tage_traces::{BranchRecord, Trace};

/// Everything the engine knows about one executed conditional branch,
/// handed to every [`EngineObserver`].
#[derive(Debug)]
pub struct BranchEvent<'a, L> {
    /// The branch PC.
    pub pc: u64,
    /// The resolved direction.
    pub taken: bool,
    /// Whether the final prediction was wrong.
    pub mispredicted: bool,
    /// The confidence scheme's verdict for this prediction.
    pub assessment: Assessment,
    /// The predictor's full lookup output.
    pub lookup: &'a L,
    /// Whether the branch falls inside the measured region (past warm-up).
    pub in_measurement: bool,
    /// Instructions attributed to **this record alone**: the branch
    /// instruction itself plus the record's own non-branch gap
    /// ([`tage_traces::BranchRecord::instructions`]).
    ///
    /// Instructions carried by intervening non-conditional records (calls,
    /// returns, jumps — each with its own gap) are *not* folded in here;
    /// they are delivered separately through
    /// [`EngineObserver::on_instructions`]. An observer that sums both
    /// streams therefore counts every trace instruction exactly once —
    /// adding any part of one stream to the other double-counts.
    pub instructions: u64,
}

/// Per-branch instrumentation plugged into a [`SimEngine`] run.
///
/// `on_branch` fires after the scheme has observed the outcome and *before*
/// the predictor trains, which is the window a run-time controller (the
/// adaptive saturation controller of the paper's Section 6.2) needs to steer
/// the predictor; pure collectors simply ignore the predictor argument.
///
/// Observers compose structurally: tuples of arity 2 through 6 run their
/// elements left to right (`(&mut a, &mut b)` runs `a` then `b`), and
/// `Option<O>` is a no-op when `None`.
pub trait EngineObserver<P: PredictorCore> {
    /// Called once per conditional branch.
    fn on_branch(&mut self, predictor: &mut P, event: &BranchEvent<'_, P::Lookup>);

    /// Called for every non-branch record (calls, returns, jumps) with its
    /// instruction count.
    fn on_instructions(&mut self, instructions: u64, in_measurement: bool) {
        let _ = (instructions, in_measurement);
    }
}

/// The no-op observer.
impl<P: PredictorCore> EngineObserver<P> for () {
    fn on_branch(&mut self, _predictor: &mut P, _event: &BranchEvent<'_, P::Lookup>) {}
}

impl<P: PredictorCore, O: EngineObserver<P> + ?Sized> EngineObserver<P> for &mut O {
    fn on_branch(&mut self, predictor: &mut P, event: &BranchEvent<'_, P::Lookup>) {
        (**self).on_branch(predictor, event)
    }

    fn on_instructions(&mut self, instructions: u64, in_measurement: bool) {
        (**self).on_instructions(instructions, in_measurement)
    }
}

impl<P: PredictorCore, O: EngineObserver<P>> EngineObserver<P> for Option<O> {
    fn on_branch(&mut self, predictor: &mut P, event: &BranchEvent<'_, P::Lookup>) {
        if let Some(observer) = self {
            observer.on_branch(predictor, event)
        }
    }

    fn on_instructions(&mut self, instructions: u64, in_measurement: bool) {
        if let Some(observer) = self {
            observer.on_instructions(instructions, in_measurement)
        }
    }
}

/// Observers compose structurally as tuples: `(a, b)` runs `a` then `b` for
/// every event. Implemented for arities 2 through 6, so a scenario stack
/// (report + energy + prefetch + controller, say) is one flat tuple instead
/// of awkward nesting.
macro_rules! impl_observer_tuple {
    ($($observer:ident . $index:tt),+) => {
        impl<P: PredictorCore, $($observer: EngineObserver<P>),+> EngineObserver<P>
            for ($($observer,)+)
        {
            fn on_branch(&mut self, predictor: &mut P, event: &BranchEvent<'_, P::Lookup>) {
                $(self.$index.on_branch(predictor, event);)+
            }

            fn on_instructions(&mut self, instructions: u64, in_measurement: bool) {
                $(self.$index.on_instructions(instructions, in_measurement);)+
            }
        }
    };
}

impl_observer_tuple!(A.0, B.1);
impl_observer_tuple!(A.0, B.1, C.2);
impl_observer_tuple!(A.0, B.1, C.2, D.3);
impl_observer_tuple!(A.0, B.1, C.2, D.3, E.4);
impl_observer_tuple!(A.0, B.1, C.2, D.3, E.4, F.5);

/// Accumulates a per-class [`ConfidenceReport`] (with instruction counts for
/// MPKI) over the measured region of a run — the observer behind every
/// table and figure of the paper.
///
/// Classed assessments land in their prediction-class bucket; level-only
/// assessments (baseline estimators) land in the report's level buckets.
#[derive(Debug, Default)]
pub struct ReportObserver {
    /// The accumulated report.
    pub report: ConfidenceReport,
}

impl<P: PredictorCore> EngineObserver<P> for ReportObserver {
    fn on_branch(&mut self, _predictor: &mut P, event: &BranchEvent<'_, P::Lookup>) {
        if !event.in_measurement {
            return;
        }
        match event.assessment.class {
            Some(class) => self.report.record(class, event.mispredicted),
            None => self
                .report
                .record_level(event.assessment.level, event.mispredicted),
        }
        self.report.add_instructions(event.instructions);
    }

    fn on_instructions(&mut self, instructions: u64, in_measurement: bool) {
        if in_measurement {
            self.report.add_instructions(instructions);
        }
    }
}

/// The outcome of a single [`SimEngine::step_branch`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// The confidence scheme's verdict.
    pub assessment: Assessment,
    /// Whether the prediction was wrong.
    pub mispredicted: bool,
    /// Whether the branch fell inside the measured region.
    pub in_measurement: bool,
}

/// Aggregate counters of one [`SimEngine::run`] call (measured region only,
/// except `total_branches`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineSummary {
    /// Conditional branches inside the measured region.
    pub measured_branches: u64,
    /// Mispredictions inside the measured region.
    pub measured_mispredictions: u64,
    /// Instructions attributed to the measured region.
    pub measured_instructions: u64,
    /// All conditional branches executed, including warm-up.
    pub total_branches: u64,
}

/// Number of records [`SimEngine::run_source`] pulls from a
/// [`BranchSource`] per batch — the engine's only per-run record footprint
/// when streaming.
pub const SOURCE_BATCH_RECORDS: usize = 4096;

/// The generic simulation engine: one predictor, one confidence scheme, one
/// execution path for every experiment.
///
/// See the [module documentation](self) for the design; `runner`, `baseline`,
/// `gating` and `smt` are all thin assemblies of this type.
#[derive(Debug)]
pub struct SimEngine<P, S>
where
    P: PredictorCore,
    S: ConfidenceScheme<P::Lookup>,
{
    predictor: P,
    scheme: S,
    warmup_branches: u64,
    conditional_seen: u64,
    /// Reusable batch buffer for [`SimEngine::run_source`]; allocated once
    /// at construction so streaming runs stay allocation-free in steady
    /// state.
    batch: Vec<BranchRecord>,
}

impl<P, S> SimEngine<P, S>
where
    P: PredictorCore,
    S: ConfidenceScheme<P::Lookup>,
{
    /// Couples a predictor with a confidence scheme.
    pub fn new(predictor: P, scheme: S) -> Self {
        SimEngine {
            predictor,
            scheme,
            warmup_branches: 0,
            conditional_seen: 0,
            batch: vec![BranchRecord::default(); SOURCE_BATCH_RECORDS],
        }
    }

    /// Excludes the first `warmup_branches` conditional branches from the
    /// measured statistics (the predictor still trains on them).
    pub fn with_warmup(mut self, warmup_branches: u64) -> Self {
        self.warmup_branches = warmup_branches;
        self
    }

    /// The wrapped predictor.
    pub fn predictor(&self) -> &P {
        &self.predictor
    }

    /// Mutable access to the wrapped predictor.
    pub fn predictor_mut(&mut self) -> &mut P {
        &mut self.predictor
    }

    /// The wrapped confidence scheme.
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// Mutable access to the wrapped confidence scheme.
    pub(crate) fn scheme_mut(&mut self) -> &mut S {
        &mut self.scheme
    }

    /// Conditional branches executed so far (across `run` and `step_branch`
    /// calls).
    pub fn branches_executed(&self) -> u64 {
        self.conditional_seen
    }

    /// Sets the executed-branch counter the statistical warm-up compares
    /// against — how a restored checkpoint resumes mid-stream.
    pub(crate) fn set_branches_executed(&mut self, branches: u64) {
        self.conditional_seen = branches;
    }

    /// Resets predictor, scheme and warm-up progress, so the engine starts
    /// the next trace cold.
    pub fn reset(&mut self) {
        self.predictor.reset();
        self.scheme.reset();
        self.conditional_seen = 0;
    }

    /// Executes one conditional branch through the full predict → assess →
    /// observe → notify → train sequence.
    ///
    /// `instructions` is the instruction count attributed to the branch
    /// record (forwarded to observers for MPKI accounting; pass the record's
    /// [`tage_traces::BranchRecord::instructions`] or 0 when irrelevant).
    ///
    /// # Example
    ///
    /// Cycle-interleaved models (the SMT fetch policy) drive branches one at
    /// a time; a trained TAGE engine answers each step with the scheme's
    /// confidence verdict:
    ///
    /// ```
    /// use tage::{TageGeometry, TagePredictor};
    /// use tage_confidence::TageConfidenceClassifier;
    /// use tage_sim::engine::SimEngine;
    ///
    /// let config = TageGeometry::small();
    /// let mut engine = SimEngine::new(
    ///     TagePredictor::new(config.clone()),
    ///     TageConfidenceClassifier::new(&config),
    /// );
    /// // A loop branch: taken three times, then falls through.
    /// let mut mispredictions = 0;
    /// for round in 0..200 {
    ///     for i in 0..4 {
    ///         let outcome = engine.step_branch(0x4000_1000, i != 3, 1, &mut ());
    ///         if round > 50 && outcome.mispredicted {
    ///             mispredictions += 1;
    ///         }
    ///     }
    /// }
    /// assert_eq!(engine.branches_executed(), 800);
    /// assert!(mispredictions < 20, "TAGE captures a period-4 loop");
    /// ```
    pub fn step_branch<O: EngineObserver<P>>(
        &mut self,
        pc: u64,
        taken: bool,
        instructions: u64,
        observer: &mut O,
    ) -> StepOutcome {
        let in_measurement = self.conditional_seen >= self.warmup_branches;
        self.conditional_seen += 1;

        let lookup = self.predictor.predict(pc);
        let assessment = self.scheme.assess(pc, &lookup);
        let mispredicted = lookup.predicted_taken() != taken;
        self.scheme.observe(pc, &lookup, taken);

        let event = BranchEvent {
            pc,
            taken,
            mispredicted,
            assessment,
            lookup: &lookup,
            in_measurement,
            instructions,
        };
        observer.on_branch(&mut self.predictor, &event);

        self.predictor.update(pc, taken, &lookup);

        StepOutcome {
            assessment,
            mispredicted,
            in_measurement,
        }
    }

    /// Drives the engine over every record of `trace`.
    ///
    /// Non-conditional records (calls, returns, jumps) contribute to the
    /// instruction accounting but are not predicted, as in the paper's
    /// methodology.
    ///
    /// The per-branch loop is allocation-free end to end for the TAGE path:
    /// `TagePredictor::predict` collects its per-table observables in a
    /// fixed-size stack scratch (see `tage::TableLookups`), so a run's heap
    /// traffic is limited to whatever the observers themselves do.
    ///
    /// # Example
    ///
    /// ```
    /// use tage::{TageGeometry, TagePredictor};
    /// use tage_confidence::TageConfidenceClassifier;
    /// use tage_sim::engine::{ReportObserver, SimEngine};
    /// use tage_traces::suites;
    ///
    /// let trace = suites::cbp1_like().trace("INT-1").unwrap().generate(5_000);
    /// let config = TageGeometry::small();
    /// let mut engine = SimEngine::new(
    ///     TagePredictor::new(config.clone()),
    ///     TageConfidenceClassifier::new(&config),
    /// ).with_warmup(1_000);
    /// let mut report = ReportObserver::default();
    /// let summary = engine.run(&trace, &mut report);
    /// assert_eq!(summary.total_branches, 5_000);
    /// assert_eq!(summary.measured_branches, 4_000);
    /// assert_eq!(report.report.total().predictions, 4_000);
    /// ```
    pub fn run<O: EngineObserver<P>>(&mut self, trace: &Trace, observer: &mut O) -> EngineSummary {
        let mut source = SliceSource::from_trace(trace);
        self.run_source(&mut source, observer)
            .expect("in-memory slice sources are infallible")
    }

    /// Drives the engine over every record of a streaming [`BranchSource`]
    /// — the out-of-core counterpart of [`SimEngine::run`], and the path
    /// `run` itself is an adapter over (a [`SliceSource`] wrapping the
    /// trace).
    ///
    /// Records are pulled in batches of [`SOURCE_BATCH_RECORDS`] into a
    /// buffer the engine allocated at construction, so the engine's resident
    /// record memory is bounded by the batch size no matter how long the
    /// stream is, and steady-state streaming performs no heap allocation.
    /// Results are bit-identical to running the materialized trace.
    ///
    /// # Errors
    ///
    /// Propagates the first [`FormatError`] the source reports (IO failure,
    /// corrupt or truncated record). In-memory and synthetic sources never
    /// fail.
    ///
    /// # Example
    ///
    /// ```
    /// use tage::{TageGeometry, TagePredictor};
    /// use tage_confidence::TageConfidenceClassifier;
    /// use tage_sim::engine::{ReportObserver, SimEngine};
    /// use tage_traces::source::SyntheticSource;
    /// use tage_traces::suites;
    ///
    /// let spec = suites::cbp1_like().trace("INT-1").unwrap().clone();
    /// // Stream 5 000 branches straight out of the generator — no Vec of
    /// // records is ever materialized.
    /// let mut source = SyntheticSource::from_spec(&spec, 5_000);
    /// let config = TageGeometry::small();
    /// let mut engine = SimEngine::new(
    ///     TagePredictor::new(config.clone()),
    ///     TageConfidenceClassifier::new(&config),
    /// );
    /// let mut report = ReportObserver::default();
    /// let summary = engine.run_source(&mut source, &mut report).unwrap();
    /// assert_eq!(summary.total_branches, 5_000);
    /// // Identical to running the materialized trace:
    /// let trace = spec.generate(5_000);
    /// let mut engine2 = SimEngine::new(
    ///     TagePredictor::new(config.clone()),
    ///     TageConfidenceClassifier::new(&config),
    /// );
    /// let mut report2 = ReportObserver::default();
    /// assert_eq!(engine2.run(&trace, &mut report2), summary);
    /// assert_eq!(report.report, report2.report);
    /// ```
    pub fn run_source<Src, O>(
        &mut self,
        source: &mut Src,
        observer: &mut O,
    ) -> Result<EngineSummary, FormatError>
    where
        Src: BranchSource + ?Sized,
        O: EngineObserver<P>,
    {
        // The batch buffer and the predictor both live in `self`; take the
        // buffer out for the duration of the run (alloc-free) so the borrow
        // checker sees disjoint ownership.
        let mut batch = std::mem::take(&mut self.batch);
        let result = self.drive_source(source, observer, &mut batch);
        self.batch = batch;
        result
    }

    fn drive_source<Src, O>(
        &mut self,
        source: &mut Src,
        observer: &mut O,
        batch: &mut [BranchRecord],
    ) -> Result<EngineSummary, FormatError>
    where
        Src: BranchSource + ?Sized,
        O: EngineObserver<P>,
    {
        let mut summary = EngineSummary::default();
        loop {
            let filled = source.next_batch(batch)?;
            if filled == 0 {
                return Ok(summary);
            }
            for record in &batch[..filled] {
                if !record.kind.is_conditional() {
                    let in_measurement = self.conditional_seen >= self.warmup_branches;
                    observer.on_instructions(record.instructions(), in_measurement);
                    if in_measurement {
                        summary.measured_instructions += record.instructions();
                    }
                    continue;
                }
                let outcome =
                    self.step_branch(record.pc, record.taken, record.instructions(), observer);
                summary.total_branches += 1;
                if outcome.in_measurement {
                    summary.measured_branches += 1;
                    summary.measured_instructions += record.instructions();
                    if outcome.mispredicted {
                        summary.measured_mispredictions += 1;
                    }
                }
            }
        }
    }
}

/// The default worker count of the suite runners: one per available
/// hardware thread.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Scheduling statistics of one [`steal_map`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealStats {
    /// Worker threads used.
    pub workers: usize,
    /// Tasks executed by a worker other than the one they were placed on.
    pub steals: u64,
}

/// Applies `f` to every item across up to `workers` scoped threads with
/// **work stealing**, returning the results **in input order**.
///
/// Items are dealt round-robin onto per-worker deques; a worker pops its own
/// queue from the front and, when empty, steals from the *back* of the
/// most-loaded sibling. Because every result is written to its own slot, the
/// output is identical for any worker count — `steal_map(items, n, f).0`
/// equals `items.iter().map(f)` for any `n`; only the schedule (reported in
/// [`StealStats`]) varies. With `workers <= 1` the closure runs inline on the
/// caller's thread.
///
/// # Panics
///
/// Propagates the first panic raised by `f` on a worker thread.
pub fn steal_map<T, R, F>(items: &[T], workers: usize, f: F) -> (Vec<R>, StealStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 {
        let results = items.iter().map(&f).collect();
        return (
            results,
            StealStats {
                workers: 1,
                steals: 0,
            },
        );
    }
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..items.len()).step_by(workers).collect()))
        .collect();
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let steals = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for me in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let steals = &steals;
            let f = &f;
            scope.spawn(move || {
                while let Some(index) = next_task(queues, me, steals) {
                    let result = f(&items[index]);
                    *slots[index].lock().expect("result slot poisoned") = Some(result);
                }
            });
        }
    });
    let results = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every task executed")
        })
        .collect();
    (
        results,
        StealStats {
            workers,
            steals: steals.load(Ordering::Relaxed),
        },
    )
}

/// Pops the worker's own queue, or steals from the back of the most-loaded
/// sibling. Returns `None` only when every queue is empty (tasks never
/// re-enter a queue, so that means the tail of the work is already running
/// elsewhere).
fn next_task(queues: &[Mutex<VecDeque<usize>>], me: usize, steals: &AtomicU64) -> Option<usize> {
    if let Some(index) = queues[me].lock().expect("queue poisoned").pop_front() {
        return Some(index);
    }
    loop {
        let mut victim: Option<(usize, usize)> = None;
        for (q, queue) in queues.iter().enumerate() {
            if q == me {
                continue;
            }
            let len = queue.lock().expect("queue poisoned").len();
            if len > 0 && victim.is_none_or(|(_, best)| len > best) {
                victim = Some((q, len));
            }
        }
        let (q, _) = victim?;
        // The victim may have been drained between the scan and this lock;
        // rescan in that case.
        if let Some(index) = queues[q].lock().expect("queue poisoned").pop_back() {
            steals.fetch_add(1, Ordering::Relaxed);
            return Some(index);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage::{TageGeometry, TagePredictor};
    use tage_confidence::estimators::{JrsEstimator, SelfConfidenceEstimator};
    use tage_confidence::{EstimatorScheme, TageConfidenceClassifier};
    use tage_predictors::{BranchPredictor, GsharePredictor, PerceptronPredictor};
    use tage_traces::suites;

    fn small_trace(n: usize) -> tage_traces::Trace {
        suites::cbp1_like().trace("INT-1").unwrap().generate(n)
    }

    fn tage_engine() -> SimEngine<TagePredictor, TageConfidenceClassifier> {
        let config = TageGeometry::small();
        SimEngine::new(
            TagePredictor::new(config.clone()),
            TageConfidenceClassifier::new(&config),
        )
    }

    #[test]
    fn engine_counts_every_branch_and_instruction() {
        let trace = small_trace(3_000);
        let mut engine = tage_engine();
        let mut report = ReportObserver::default();
        let summary = engine.run(&trace, &mut report);
        assert_eq!(summary.measured_branches, 3_000);
        assert_eq!(summary.total_branches, 3_000);
        assert_eq!(summary.measured_instructions, trace.instruction_count());
        assert_eq!(report.report.total().predictions, 3_000);
        assert_eq!(report.report.instructions(), trace.instruction_count());
        assert_eq!(
            report.report.total().mispredictions,
            summary.measured_mispredictions
        );
    }

    #[test]
    fn warmup_excludes_a_prefix_but_still_trains() {
        let trace = small_trace(3_000);
        let mut engine = tage_engine().with_warmup(1_000);
        let mut report = ReportObserver::default();
        let summary = engine.run(&trace, &mut report);
        assert_eq!(summary.measured_branches, 2_000);
        assert_eq!(summary.total_branches, 3_000);
        assert_eq!(report.report.total().predictions, 2_000);
        assert!(summary.measured_instructions < trace.instruction_count());
    }

    #[test]
    fn engine_is_deterministic() {
        let trace = small_trace(2_000);
        let run = || {
            let mut engine = tage_engine();
            let mut report = ReportObserver::default();
            engine.run(&trace, &mut report);
            report.report
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reset_restores_a_cold_engine() {
        let trace = small_trace(2_000);
        let mut engine = tage_engine();
        let mut first = ReportObserver::default();
        engine.run(&trace, &mut first);
        engine.reset();
        assert_eq!(engine.branches_executed(), 0);
        let mut second = ReportObserver::default();
        engine.run(&trace, &mut second);
        assert_eq!(first.report, second.report, "reset must erase all state");
    }

    #[test]
    fn any_predictor_estimator_cross_product_runs() {
        // Arbitrary predictor × estimator pairs flow through the same
        // engine, including via trait objects.
        let trace = small_trace(2_000);

        let mut gshare = GsharePredictor::new(12, 12);
        let dyn_predictor: &mut dyn BranchPredictor = &mut gshare;
        let mut engine = SimEngine::new(dyn_predictor, EstimatorScheme(JrsEstimator::classic(10)));
        let mut report = ReportObserver::default();
        engine.run(&trace, &mut report);
        assert_eq!(report.report.total().predictions, 2_000);
        // Baseline verdicts are level-only: class queries stay empty while
        // level accounting is complete.
        let by_level: u64 = tage_confidence::ConfidenceLevel::ALL
            .iter()
            .map(|&l| report.report.level(l).predictions)
            .sum();
        assert_eq!(by_level, 2_000);

        let mut engine = SimEngine::new(
            PerceptronPredictor::new(128, 16),
            EstimatorScheme(SelfConfidenceEstimator::new(30)),
        );
        let mut report = ReportObserver::default();
        engine.run(&trace, &mut report);
        assert_eq!(report.report.total().predictions, 2_000);
    }

    /// Regression pin for the `BranchEvent::instructions` contract: the
    /// event carries the record's own count only, non-conditional records
    /// arrive via `on_instructions`, and summing both streams counts every
    /// trace instruction exactly once (no double-count).
    #[test]
    fn instruction_accounting_sums_each_record_exactly_once() {
        let trace = small_trace(4_000);
        assert!(
            trace.iter().any(|r| !r.kind.is_conditional()),
            "the pin needs a trace with non-branch records"
        );
        let branch_own: u64 = trace
            .iter()
            .filter(|r| r.kind.is_conditional())
            .map(|r| r.instructions())
            .sum();
        let non_branch: u64 = trace
            .iter()
            .filter(|r| !r.kind.is_conditional())
            .map(|r| r.instructions())
            .sum();
        assert_eq!(branch_own + non_branch, trace.instruction_count());

        /// Splits the two delivery paths so the test can see each stream.
        #[derive(Default)]
        struct SplitCounter {
            via_events: u64,
            via_notifications: u64,
        }
        impl<P: PredictorCore> EngineObserver<P> for SplitCounter {
            fn on_branch(&mut self, _p: &mut P, event: &BranchEvent<'_, P::Lookup>) {
                self.via_events += event.instructions;
            }
            fn on_instructions(&mut self, instructions: u64, _in_measurement: bool) {
                self.via_notifications += instructions;
            }
        }

        let mut engine = tage_engine();
        let mut report = ReportObserver::default();
        let mut split = SplitCounter::default();
        let summary = engine.run(&trace, &mut (&mut report, &mut split));
        assert_eq!(
            split.via_events, branch_own,
            "events carry record-own counts"
        );
        assert_eq!(
            split.via_notifications, non_branch,
            "notifications carry exactly the non-branch records"
        );
        // The ReportObserver (which sums both streams) and the engine
        // summary both land on the trace total exactly once.
        assert_eq!(report.report.instructions(), trace.instruction_count());
        assert_eq!(summary.measured_instructions, trace.instruction_count());
    }

    #[test]
    fn observers_compose_and_see_the_predictor() {
        struct CountHigh(u64);
        impl<P: PredictorCore> EngineObserver<P> for CountHigh {
            fn on_branch(&mut self, _p: &mut P, event: &BranchEvent<'_, P::Lookup>) {
                self.0 += u64::from(event.assessment.is_high());
            }
        }
        let trace = small_trace(2_000);
        let mut engine = tage_engine();
        let mut report = ReportObserver::default();
        let mut high = CountHigh(0);
        engine.run(&trace, &mut (&mut report, &mut high, ()));
        let high_level = report
            .report
            .level(tage_confidence::ConfidenceLevel::High)
            .predictions;
        assert_eq!(high.0, high_level);
    }

    #[test]
    fn observer_tuples_compose_flat_up_to_arity_six() {
        #[derive(Default)]
        struct Count {
            branches: u64,
            instructions: u64,
        }
        impl<P: PredictorCore> EngineObserver<P> for Count {
            fn on_branch(&mut self, _p: &mut P, event: &BranchEvent<'_, P::Lookup>) {
                self.branches += 1;
                self.instructions += event.instructions;
            }
            fn on_instructions(&mut self, instructions: u64, _in_measurement: bool) {
                self.instructions += instructions;
            }
        }
        let trace = small_trace(600);
        let mut engine = tage_engine();
        let mut six = (
            Count::default(),
            Count::default(),
            Count::default(),
            Count::default(),
            Count::default(),
            Count::default(),
        );
        engine.run(&trace, &mut six);
        for count in [&six.0, &six.1, &six.2, &six.3, &six.4, &six.5] {
            assert_eq!(count.branches, 600);
            assert_eq!(count.instructions, trace.instruction_count());
        }

        let mut engine = tage_engine();
        let mut four = (
            Count::default(),
            ReportObserver::default(),
            Count::default(),
            (),
        );
        engine.run(&trace, &mut four);
        assert_eq!(four.0.branches, 600);
        assert_eq!(four.2.branches, 600);
        assert_eq!(four.1.report.total().predictions, 600);
    }

    #[test]
    fn step_branch_matches_run() {
        let trace = small_trace(1_500);
        let mut stepped = tage_engine();
        let mut whole = tage_engine();
        let mut step_report = ReportObserver::default();
        let mut run_report = ReportObserver::default();
        whole.run(&trace, &mut run_report);
        for record in trace.iter() {
            if record.kind.is_conditional() {
                stepped.step_branch(
                    record.pc,
                    record.taken,
                    record.instructions(),
                    &mut step_report,
                );
            } else {
                EngineObserver::<TagePredictor>::on_instructions(
                    &mut step_report,
                    record.instructions(),
                    true,
                );
            }
        }
        assert_eq!(step_report.report, run_report.report);
    }

    #[test]
    fn run_source_matches_run_for_every_source_kind() {
        use tage_traces::source::{SliceSource, SyntheticSource};
        let spec = suites::cbp1_like().trace("SERV-2").unwrap().clone();
        let trace = spec.generate(4_000);

        let mut reference = tage_engine().with_warmup(500);
        let mut reference_report = ReportObserver::default();
        let reference_summary = reference.run(&trace, &mut reference_report);

        let mut slice = tage_engine().with_warmup(500);
        let mut slice_report = ReportObserver::default();
        let slice_summary = slice
            .run_source(&mut SliceSource::from_trace(&trace), &mut slice_report)
            .unwrap();
        assert_eq!(slice_summary, reference_summary);
        assert_eq!(slice_report.report, reference_report.report);

        let mut synthetic = tage_engine().with_warmup(500);
        let mut synthetic_report = ReportObserver::default();
        let synthetic_summary = synthetic
            .run_source(
                &mut SyntheticSource::from_spec(&spec, 4_000),
                &mut synthetic_report,
            )
            .unwrap();
        assert_eq!(synthetic_summary, reference_summary);
        assert_eq!(synthetic_report.report, reference_report.report);
    }

    #[test]
    fn par_map_is_order_preserving_and_worker_count_independent() {
        // The engine's parallel map (`steal_map`) equals a serial map for any
        // worker count.
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * x).collect();
        for workers in [1, 2, 3, 8, 64] {
            assert_eq!(steal_map(&items, workers, |&x| x * x).0, serial);
        }
        assert_eq!(serial[36], 36 * 36);
        let empty: Vec<u64> = Vec::new();
        assert!(steal_map(&empty, 4, |&x: &u64| x).0.is_empty());
    }

    #[test]
    fn steal_map_steals_from_loaded_workers() {
        // Worker 0's items are slow, the rest are instant: the only way the
        // fast workers stay busy is by stealing worker 0's backlog.
        let items: Vec<usize> = (0..32).collect();
        let (results, stats) = steal_map(&items, 4, |&i| {
            if i % 4 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i * 2
        });
        assert_eq!(results, (0..32).map(|i| i * 2).collect::<Vec<_>>());
        assert!(
            stats.steals > 0,
            "uneven per-worker load must trigger steals (got {stats:?})"
        );
    }

    #[test]
    fn default_parallelism_is_positive() {
        assert!(default_parallelism() >= 1);
    }
}
