//! The multi-lane engine: K independent branch streams advanced in lockstep
//! through one engine, with the per-branch loop restructured into
//! per-component passes.
//!
//! The scalar engine walks one stream and pays the full dependency chain of
//! every branch — index hash, tag probe, provider select, confidence grade,
//! train — before it starts the next. A [`MultilaneEngine`] instead keeps K
//! streams in flight and advances each by one conditional branch per cycle:
//!
//! 1. **stage** — each lane consumes its stream up to the next conditional
//!    branch (accounting intervening calls/returns/jumps exactly as the
//!    scalar loop does), refilling its batch buffer from the source as
//!    needed;
//! 2. **predict** — [`tage::LaneGroup::predict`] computes all K
//!    folded-history indices and tags component-major: the group holds
//!    every lane's folded histories and global history *transposed*
//!    (lane-major), so each table rank's hash runs as one tight
//!    vectorizable loop over contiguous state;
//! 3. **grade** — per lane, the storage-free classifier assesses and
//!    observes the outcome and the per-lane report records it, in the exact
//!    scalar `step_branch` order;
//! 4. **train** — [`tage::LaneGroup::train`] applies the scalar
//!    counter/allocation update per lane, then advances all K histories
//!    and folds in vectorized per-component passes (AVX2/AVX-512 when the
//!    host has them, dispatched at run time).
//!
//! Each lane owns all of its mutable state — predictor tables, folded
//! histories, RNG, classifier window, report — so interleaving the lanes
//! changes nothing observable: every lane's counters, RNG draws and
//! [`ConfidenceReport`] are bit-for-bit identical to a scalar
//! [`run_source`] of that stream alone. `tests/multilane_parity.rs` pins
//! this for K ∈ {1, 2, 4, 8, 16}, ragged stream lengths and every source
//! kind.
//!
//! The win is instruction-level parallelism, not threads: the K dependency
//! chains are independent, so one core overlaps their latencies where the
//! scalar loop serialises them. Threads still compose on top — the suite
//! runner shards *sources across workers* and lane-batches *within* each
//! worker.
//!
//! When a stream ends mid-run (ragged lengths), its lane finalizes its
//! [`TraceRunResult`] in place, then either re-arms with the next pending
//! source (predictor and classifier reset in place, allocation-free) or
//! retires by compacting the active lane range, so the remaining lanes keep
//! full occupancy.

use std::mem;

use tage::{LaneGroup, TageBlueprint, TageGeometry};
use tage_confidence::{ConfidenceReport, TageConfidenceClassifier};
use tage_predictors::PredictionOutcome;
use tage_traces::format::FormatError;
use tage_traces::source::{BranchSource, SourceSpec};
use tage_traces::BranchRecord;

use crate::engine::SOURCE_BATCH_RECORDS;
use crate::runner::{run_source, RunOptions, TraceRunResult};

/// Default lane count for multilane runs: enough independent dependency
/// chains to keep one core's execution ports busy, small enough that the
/// per-lane working sets stay cache-resident together.
pub const DEFAULT_LANES: usize = 16;

/// Which execution path a run should take — the scalar per-stream engine or
/// the lane-batched lockstep engine. The two are bit-identical; the choice
/// is purely a throughput decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// One stream at a time through [`crate::SimEngine::run_source`].
    Scalar,
    /// K streams in lockstep through [`MultilaneEngine`].
    Multilane,
}

/// Per-lane execution state: one stream's classifier, report and measurement
/// counters, plus its private record batch.
#[derive(Debug)]
struct LaneState {
    classifier: TageConfidenceClassifier,
    report: ConfidenceReport,
    conditional_seen: u64,
    measured_branches: u64,
    measured_instructions: u64,
    /// Index of the source (and result slot) this lane is running.
    source_idx: usize,
    batch: Vec<BranchRecord>,
    filled: usize,
    cursor: usize,
}

impl LaneState {
    fn new(geometry: &TageGeometry, options: &RunOptions, source_idx: usize) -> Self {
        LaneState {
            classifier: TageConfidenceClassifier::with_window(geometry, options.bim_miss_window),
            report: ConfidenceReport::new(),
            conditional_seen: 0,
            measured_branches: 0,
            measured_instructions: 0,
            source_idx,
            batch: vec![BranchRecord::default(); SOURCE_BATCH_RECORDS],
            filled: 0,
            cursor: 0,
        }
    }

    /// Re-arms the lane for a new source, allocation-free: the classifier's
    /// reset is equivalent to a fresh construction (the window length is
    /// fixed at construction) and the report was already drained by
    /// finalization.
    fn rearm(&mut self, source_idx: usize) {
        self.classifier.reset();
        self.conditional_seen = 0;
        self.measured_branches = 0;
        self.measured_instructions = 0;
        self.source_idx = source_idx;
        self.filled = 0;
        self.cursor = 0;
    }
}

/// The lockstep engine itself: K lanes of (predictor, classifier, report),
/// the staged per-cycle parallel arrays and the flat index/tag scratch.
///
/// Construct once and reuse across runs — every buffer (predictors, lane
/// batches, staging arrays, result strings in the caller's result slots) is
/// retained, so steady-state reruns perform no heap allocation.
#[derive(Debug)]
pub struct MultilaneEngine {
    geometry: TageGeometry,
    /// The geometry's derived report name, cached so lane finalization does
    /// not rebuild it per stream.
    config_name: String,
    options: RunOptions,
    lanes_max: usize,
    group: LaneGroup,
    states: Vec<LaneState>,
    /// Staged per-cycle inputs, one slot per active lane.
    pcs: Vec<u64>,
    takens: Vec<bool>,
    instrs: Vec<u64>,
    preds: Vec<tage::TagePrediction>,
}

impl MultilaneEngine {
    /// Creates an engine running up to `lanes` streams in lockstep (clamped
    /// to at least 1).
    ///
    /// # Panics
    ///
    /// Panics if `options` requests the adaptive saturation controller: the
    /// controller steers one predictor mid-run and has no batched
    /// equivalent; use the scalar [`run_source`] path for adaptive runs.
    pub fn new(blueprint: impl TageBlueprint, options: &RunOptions, lanes: usize) -> Self {
        assert!(
            options.adaptive_target_mkp.is_none(),
            "the multilane engine has no adaptive-controller path; run adaptive \
             experiments through the scalar engine"
        );
        let geometry = blueprint.tage_geometry();
        MultilaneEngine {
            group: LaneGroup::new(&geometry, lanes.max(1)),
            config_name: geometry.name(),
            geometry,
            options: options.clone(),
            lanes_max: lanes.max(1),
            states: Vec::new(),
            pcs: Vec::new(),
            takens: Vec::new(),
            instrs: Vec::new(),
            preds: Vec::new(),
        }
    }

    /// The configured lane count.
    pub fn lanes(&self) -> usize {
        self.lanes_max
    }

    /// Builds an empty result slot for [`MultilaneEngine::run_into`];
    /// finalization fills it in place, reusing its string capacity on
    /// reruns.
    pub fn placeholder_result() -> TraceRunResult {
        TraceRunResult {
            trace_name: String::new(),
            config_name: String::new(),
            report: ConfidenceReport::new(),
            conditional_branches: 0,
            instructions: 0,
            final_saturation_probability: 0.0,
        }
    }

    /// Ensures lane slot `k` exists (first run only) and arms it for
    /// `source_idx`, resetting reused predictors in place.
    fn arm_lane(&mut self, k: usize, source_idx: usize) {
        self.group.arm(k);
        if k < self.states.len() {
            self.states[k].rearm(source_idx);
        } else {
            self.states
                .push(LaneState::new(&self.geometry, &self.options, source_idx));
        }
    }

    /// Runs every source to exhaustion, `lanes()` at a time, writing each
    /// stream's [`TraceRunResult`] into the matching slot of `results`.
    ///
    /// Results are bit-identical to running each source alone through the
    /// scalar [`run_source`]. Sources are consumed from where they stand —
    /// callers reusing sources must reset them first.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed [`FormatError`] any source reported; the
    /// other streams still execute and their results are written (the
    /// failed slot holds the partial run up to the error). In-memory and
    /// synthetic sources never fail.
    ///
    /// # Panics
    ///
    /// Panics if `sources` and `results` disagree in length.
    pub fn run_into<S>(
        &mut self,
        sources: &mut [S],
        results: &mut [TraceRunResult],
    ) -> Result<(), FormatError>
    where
        S: BranchSource,
    {
        self.run_into_located(sources, results)
            .map_err(|(_, error)| error)
    }

    /// [`MultilaneEngine::run_into`], with the index of the failed source
    /// beside its error.
    fn run_into_located<S>(
        &mut self,
        sources: &mut [S],
        results: &mut [TraceRunResult],
    ) -> Result<(), (usize, FormatError)>
    where
        S: BranchSource,
    {
        assert_eq!(sources.len(), results.len(), "one result slot per source");
        let lanes_max = self.lanes_max.min(sources.len());
        let mut next_pending = 0;
        let mut active = 0;
        while active < lanes_max {
            self.arm_lane(active, next_pending);
            next_pending += 1;
            active += 1;
        }
        self.pcs.resize(lanes_max, 0);
        self.takens.resize(lanes_max, false);
        self.instrs.resize(lanes_max, 0);

        // Split borrows: every array the cycle touches is a distinct field.
        let MultilaneEngine {
            geometry,
            config_name,
            options,
            group,
            states,
            pcs,
            takens,
            instrs,
            preds,
            ..
        } = self;
        let warmup = options.warmup_branches;
        let mut first_error: Option<(usize, FormatError)> = None;

        while active > 0 {
            // Stage: advance every active lane to its next conditional
            // branch, accounting non-branch records exactly as the scalar
            // `drive_source` does, and re-arming or retiring lanes whose
            // stream ends.
            let mut k = 0;
            while k < active {
                let staged = loop {
                    let st = &mut states[k];
                    let mut staged_here = false;
                    while st.cursor < st.filled {
                        let record = &st.batch[st.cursor];
                        let instructions = record.instructions();
                        if record.kind.is_conditional() {
                            pcs[k] = record.pc;
                            takens[k] = record.taken;
                            instrs[k] = instructions;
                            st.cursor += 1;
                            staged_here = true;
                            break;
                        }
                        st.cursor += 1;
                        if st.conditional_seen >= warmup {
                            st.report.add_instructions(instructions);
                            st.measured_instructions += instructions;
                        }
                    }
                    if staged_here {
                        break true;
                    }
                    // Batch drained — refill from the lane's source. A read
                    // error retires the stream like exhaustion (its partial
                    // result slot is discarded by the caller anyway).
                    let slot = st.source_idx;
                    let filled = match sources[slot].next_batch(&mut st.batch) {
                        Ok(n) => n,
                        Err(error) => {
                            if first_error
                                .as_ref()
                                .is_none_or(|(failed, _)| slot < *failed)
                            {
                                first_error = Some((slot, error));
                            }
                            0
                        }
                    };
                    if filled > 0 {
                        st.filled = filled;
                        st.cursor = 0;
                        continue;
                    }
                    // Stream over: finalize this lane's result in place.
                    let result = &mut results[slot];
                    result.trace_name.clear();
                    result.trace_name.push_str(sources[slot].name());
                    result.config_name.clear();
                    result.config_name.push_str(config_name);
                    result.report = mem::replace(&mut st.report, ConfidenceReport::new());
                    result.conditional_branches = st.measured_branches;
                    result.instructions = st.measured_instructions;
                    result.final_saturation_probability =
                        geometry.automaton.saturation_probability();
                    if next_pending < sources.len() {
                        group.arm(k);
                        st.rearm(next_pending);
                        next_pending += 1;
                        continue;
                    }
                    // No pending work: retire the lane, compacting the
                    // active range so passes stay dense.
                    active -= 1;
                    if k < active {
                        group.swap(k, active);
                        states.swap(k, active);
                        continue; // the swapped-in lane still needs staging
                    }
                    break false;
                };
                if staged {
                    k += 1;
                }
            }
            if active == 0 {
                break;
            }

            // Predict: all lanes, component-major over the transposed
            // folds (pass A), then probe + resolve per lane (pass B).
            group.predict(&pcs[..active], preds);

            // Grade + train counters: the scalar `step_branch` bookkeeping
            // and the counter/allocation update, one pass over the
            // predictions per cycle in the exact scalar order (assess,
            // observe, then update — each lane's state is private, so
            // fusing the loops only changes locality, not results).
            for k in 0..active {
                let st = &mut states[k];
                let prediction = &preds[k];
                let in_measurement = st.conditional_seen >= warmup;
                st.conditional_seen += 1;
                let class = st.classifier.classify(prediction);
                let mispredicted = prediction.predicted_taken() != takens[k];
                st.classifier.observe(prediction, takens[k]);
                if in_measurement {
                    st.report.record(class, mispredicted);
                    st.report.add_instructions(instrs[k]);
                    st.measured_branches += 1;
                    st.measured_instructions += instrs[k];
                }
                group.train_lane(k, takens[k], prediction);
            }

            // Then one vectorized history-advance pass across all lanes.
            group.advance(&takens[..active]);
        }

        match first_error {
            Some(failure) => Err(failure),
            None => Ok(()),
        }
    }
}

/// Opens every spec and runs all of them through a [`MultilaneEngine`],
/// `lanes` streams at a time.
///
/// Each returned [`TraceRunResult`] is bit-identical to
/// [`run_source`] on that spec alone. When `options` requests the adaptive
/// saturation controller the specs fall back to the scalar engine, one
/// stream at a time (the controller steers one predictor mid-run and cannot
/// be batched).
///
/// # Errors
///
/// Returns the first [`FormatError`] in spec order, from opening or
/// streaming any source.
pub fn run_specs_multilane(
    blueprint: &dyn TageBlueprint,
    specs: &[SourceSpec],
    conditional_branches: usize,
    options: &RunOptions,
    lanes: usize,
) -> Result<Vec<TraceRunResult>, FormatError> {
    run_specs_located(blueprint, specs, conditional_branches, options, lanes)
        .map_err(|(_, error)| error)
}

/// [`run_specs_multilane`], with the index of the failed spec beside its
/// error.
pub(crate) fn run_specs_located(
    blueprint: &dyn TageBlueprint,
    specs: &[SourceSpec],
    conditional_branches: usize,
    options: &RunOptions,
    lanes: usize,
) -> Result<Vec<TraceRunResult>, (usize, FormatError)> {
    let open = |(index, spec): (usize, &SourceSpec)| {
        spec.open(conditional_branches)
            .map_err(|error| (index, error))
    };
    if options.adaptive_target_mkp.is_some() {
        let mut results = Vec::with_capacity(specs.len());
        for (index, spec) in specs.iter().enumerate() {
            let mut source = open((index, spec))?;
            results
                .push(run_source(blueprint, &mut source, options).map_err(|error| (index, error))?);
        }
        return Ok(results);
    }
    let mut sources = specs
        .iter()
        .enumerate()
        .map(open)
        .collect::<Result<Vec<_>, _>>()?;
    let mut engine = MultilaneEngine::new(blueprint, options, lanes);
    let mut results: Vec<TraceRunResult> = (0..specs.len())
        .map(|_| MultilaneEngine::placeholder_result())
        .collect();
    engine.run_into_located(&mut sources, &mut results)?;
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage::TageGeometry;
    use tage_traces::source::SyntheticSource;
    use tage_traces::suites;

    #[test]
    fn multilane_matches_scalar_per_source() {
        let suite = suites::cbp1_like();
        let config = TageGeometry::small();
        let options = RunOptions::default();
        let specs: Vec<SourceSpec> = suite
            .traces()
            .iter()
            .map(|t| SourceSpec::Synthetic(t.clone()))
            .collect();
        let batched = run_specs_multilane(&config, &specs, 3_000, &options, 4).unwrap();
        assert_eq!(batched.len(), specs.len());
        for (spec, result) in specs.iter().zip(&batched) {
            let mut source = spec.open(3_000).unwrap();
            let scalar = run_source(&config, &mut source, &options).unwrap();
            assert_eq!(result.report, scalar.report, "{}", scalar.trace_name);
            assert_eq!(result.trace_name, scalar.trace_name);
            assert_eq!(result.config_name, scalar.config_name);
            assert_eq!(result.conditional_branches, scalar.conditional_branches);
            assert_eq!(result.instructions, scalar.instructions);
        }
    }

    #[test]
    fn engine_reuse_is_bit_identical_across_runs() {
        let spec = suites::cbp1_like().trace("INT-1").unwrap().clone();
        let config = TageGeometry::small();
        let mut engine = MultilaneEngine::new(config.clone(), &RunOptions::default(), 2);
        let mut results = vec![
            MultilaneEngine::placeholder_result(),
            MultilaneEngine::placeholder_result(),
        ];
        let mut sources = vec![
            SyntheticSource::from_spec(&spec, 2_000),
            SyntheticSource::from_spec(&spec, 2_000),
        ];
        engine.run_into(&mut sources, &mut results).unwrap();
        let first = results[0].report.clone();
        for source in &mut sources {
            use tage_traces::source::BranchSource as _;
            source.reset().unwrap();
        }
        engine.run_into(&mut sources, &mut results).unwrap();
        assert_eq!(results[0].report, first);
        assert_eq!(results[1].report, first);
    }

    #[test]
    #[should_panic(expected = "adaptive")]
    fn adaptive_options_are_rejected_by_the_batched_engine() {
        let _ = MultilaneEngine::new(TageGeometry::small(), &RunOptions::adaptive(), 4);
    }
}
