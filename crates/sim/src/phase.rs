//! SimPoint-style phase sampling: simulate a few representative slices of
//! a long stream and reconstruct whole-trace metrics as weighted sums.
//!
//! Long real-world traces make exhaustive simulation the dominant cost of
//! a campaign. Phase analysis exploits program phase behaviour: a stream
//! is sliced into fixed-size intervals, each interval is summarized by a
//! *branch signature* basis vector (a bucketed histogram of branch pcs,
//! split by outcome), and seeded deterministic k-means groups intervals
//! into phases. A few evenly-spaced members of each phase are simulated
//! (averaging them cuts the variance a single medoid would carry) and the
//! whole-trace [`ConfidenceReport`] is reconstructed by folding each
//! representative in with [`ConfidenceReport::merge_scaled`] `weight`
//! times.
//!
//! ## Checkpointed warming
//!
//! A representative slice must start from the *exact* predictor state the
//! sequential run would have reached at its offset — TAGE keeps learning
//! for hundreds of thousands of branches, so any bounded warmup replay
//! leaves a systematic cold-start bias that the weighted reconstruction
//! multiplies. The sampled runner therefore carries one engine across the
//! representatives in stream order. Gaps between slices go through
//! `warmcache::advance`, the one restore-or-replay step:
//!
//! - **Replay** (cold): the engine simply consumes the gap's records,
//!   which keeps its state exactly sequential, and — when a [`WarmCache`]
//!   is attached — snapshots the boundary state at each slice start,
//!   keyed by that start.
//! - **Restore** (warm): when the cache already holds a slice's boundary
//!   state, the engine state is restored from the snapshot and the gap is
//!   *skipped*, not simulated.
//!
//! Both paths produce bit-identical slice measurements (restore ≡ replay
//! is the warm-state cache's contract), so a sampled result is a pure
//! function of the stream and the [`SamplingSpec`] regardless of cache
//! state, worker count or kill/resume splits. The first run of a
//! `(geometry, options, trace)` triple pays one sequential pass to build
//! the checkpoints; every later run — other confidence schemes, other
//! scenarios, design-space re-runs — simulates only the representative
//! slices themselves, typically 10–100× fewer branches. Reconstruction
//! error is then pure clustering noise, not warmup bias.
//!
//! The statistical-warmup exclusion (`RunOptions::warmup_branches`) leaves
//! the stream's leading conditional branches out of the slice statistics
//! exactly as in a sequential run, whatever the cache holds: checkpoints
//! carry the engine's executed-branch counter, so a restored slice knows
//! how many branches precede it. A slice inside the excluded prefix measures
//! fewer branches, and its weight scales that shortfall.
//!
//! ## One open per source
//!
//! A sampled run reads its stream twice: once to build the plan, once to
//! simulate it. [`run_sampled_source`] calls its `open` closure once and
//! rewinds the stream between the two reads with [`BranchSource::reset`],
//! so `open` must return a stream whose `reset` goes back to its first
//! record. Every [`tage_traces::source::AnySource`] does. A compressed or
//! CBP-format file is decoded into memory when it is opened, so it is
//! decoded once, not twice. Campaign cells that sample the same trace go
//! further: one task of their sampled group
//! ([`crate::point::GroupPlan::run_task`]) opens it and plans it once for
//! all of them, and rewinds it before each cell's predictor runs.

use tage::{TageBlueprint, TagePredictor};
use tage_confidence::ConfidenceReport;
use tage_traces::format::FormatError;
use tage_traces::rng::SplitMix64;
use tage_traces::source::{BranchSource, SamplingSpec, Take};
use tage_traces::BranchRecord;

use crate::runner::{run_source, RunOptions, TageRun, TraceRunResult};
use crate::warmcache::{self, Checkpoints, WarmCache};

/// Number of pc buckets in a branch signature (per outcome).
const SIGNATURE_BUCKETS: usize = 32;
/// Signature dimensionality: taken and not-taken bucket sets.
const SIGNATURE_DIMS: usize = 3 * SIGNATURE_BUCKETS;
/// Lloyd-iteration cap of the k-means loop.
const MAX_KMEANS_ITERATIONS: usize = 25;
/// Measured members per phase: averaging a few evenly-spaced cluster
/// members cuts the variance a single medoid would carry into the
/// weighted reconstruction.
const REPS_PER_CLUSTER: usize = 8;

/// One simulated slice of a phase plan: the interval it sits at and how
/// many intervals of its cluster it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Representative {
    /// Index of the represented interval (slice `index * interval ..
    /// index * interval + len`).
    pub interval_index: u64,
    /// Number of intervals this representative stands for (its own
    /// included); the slice's metrics are folded in `weight` times.
    pub weight: u64,
}

/// A deterministic phase-sampling plan for one stream: which intervals to
/// simulate and with what weights. A pure function of the record stream
/// and the [`SamplingSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhasePlan {
    /// Total records in the stream the plan was built from.
    pub total_records: u64,
    /// Records per interval (copied from the spec).
    pub interval: u64,
    /// The representatives, in ascending interval order. The weights sum
    /// to the stream's interval count (full intervals plus the ragged
    /// tail, which always gets its own weight-1 representative so the
    /// reconstruction stays exact at the stream edge).
    pub representatives: Vec<Representative>,
}

impl PhasePlan {
    /// Records inside the measured representative slices — the plan's
    /// irreducible simulation cost once checkpoints are warm.
    pub fn measured_records(&self) -> u64 {
        self.representatives
            .iter()
            .map(|rep| {
                let start = rep.interval_index * self.interval;
                self.interval.min(self.total_records - start)
            })
            .sum()
    }
}

/// Builds the phase plan for a stream by reading it once: per-interval
/// branch signatures, then seeded k-means into at most `spec.k` phases.
///
/// # Errors
///
/// Returns the source's [`FormatError`] if the stream fails mid-read.
pub fn build_plan<S: BranchSource>(
    source: &mut S,
    spec: SamplingSpec,
) -> Result<PhasePlan, FormatError> {
    let interval = spec.interval.max(1);
    let mut signatures: Vec<[f64; SIGNATURE_DIMS]> = Vec::new();
    let mut current = [0u32; SIGNATURE_DIMS];
    let mut last_outcome = [2u8; SIGNATURE_BUCKETS];
    let mut in_interval = 0u64;
    let mut total_records = 0u64;
    let mut batch = [BranchRecord::default(); 1024];
    loop {
        let got = source.next_batch(&mut batch)?;
        if got == 0 {
            break;
        }
        for record in &batch[..got] {
            let bucket = (record.pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59) as usize;
            let dim = bucket + if record.taken { SIGNATURE_BUCKETS } else { 0 };
            current[dim] += 1;
            let outcome = u8::from(record.taken);
            if last_outcome[bucket] != 2 && last_outcome[bucket] != outcome {
                current[2 * SIGNATURE_BUCKETS + bucket] += 1;
            }
            last_outcome[bucket] = outcome;
            in_interval += 1;
            total_records += 1;
            if in_interval == interval {
                signatures.push(normalize(&current, interval));
                current = [0u32; SIGNATURE_DIMS];
                last_outcome = [2u8; SIGNATURE_BUCKETS];
                in_interval = 0;
            }
        }
    }
    let has_tail = in_interval > 0;
    let full_intervals = signatures.len() as u64;

    let mut representatives = cluster(&signatures, spec);
    if has_tail {
        // The ragged tail is structurally unlike any full interval (it is
        // shorter); giving it its own weight-1 representative keeps the
        // record accounting exact.
        representatives.push(Representative {
            interval_index: full_intervals,
            weight: 1,
        });
    }
    representatives.sort_by_key(|rep| rep.interval_index);
    debug_assert_eq!(
        representatives.iter().map(|r| r.weight).sum::<u64>(),
        full_intervals + u64::from(has_tail),
        "weights must cover every interval exactly once"
    );
    Ok(PhasePlan {
        total_records,
        interval,
        representatives,
    })
}

fn normalize(counts: &[u32; SIGNATURE_DIMS], interval: u64) -> [f64; SIGNATURE_DIMS] {
    let mut out = [0.0f64; SIGNATURE_DIMS];
    for (slot, &count) in out.iter_mut().zip(counts.iter()) {
        *slot = count as f64 / interval as f64;
    }
    out
}

fn squared_distance(a: &[f64; SIGNATURE_DIMS], b: &[f64; SIGNATURE_DIMS]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Seeded deterministic k-means over the interval signatures. Returns one
/// weighted representative per non-empty cluster; with at most `spec.k`
/// intervals every interval represents itself.
fn cluster(signatures: &[[f64; SIGNATURE_DIMS]], spec: SamplingSpec) -> Vec<Representative> {
    let n = signatures.len();
    if n == 0 {
        return Vec::new();
    }
    if n <= spec.k {
        return (0..n as u64)
            .map(|interval_index| Representative {
                interval_index,
                weight: 1,
            })
            .collect();
    }

    // Farthest-point initialization: the seed picks the first center, each
    // further center is the point farthest from its nearest chosen center
    // (lowest index on ties). Duplicated signatures stop the expansion
    // early — extra identical centers would only create empty clusters.
    let mut rng = SplitMix64::new(spec.seed);
    let mut centers: Vec<[f64; SIGNATURE_DIMS]> =
        vec![signatures[(rng.next_u64() % n as u64) as usize]];
    let mut nearest: Vec<f64> = signatures
        .iter()
        .map(|point| squared_distance(point, &centers[0]))
        .collect();
    while centers.len() < spec.k {
        let (farthest, &distance) = nearest
            .iter()
            .enumerate()
            .max_by(|(i, a), (j, b)| a.partial_cmp(b).expect("finite").then(j.cmp(i)))
            .expect("n > 0");
        if distance == 0.0 {
            break;
        }
        centers.push(signatures[farthest]);
        for (slot, point) in nearest.iter_mut().zip(signatures.iter()) {
            *slot = slot.min(squared_distance(
                point,
                centers.last().expect("just pushed"),
            ));
        }
    }

    // Lloyd iterations with fixed-order, lowest-index tie-breaking.
    let mut assignment = vec![0usize; n];
    for _ in 0..MAX_KMEANS_ITERATIONS {
        let mut changed = false;
        for (point_index, point) in signatures.iter().enumerate() {
            let mut best = 0usize;
            let mut best_distance = f64::INFINITY;
            for (center_index, center) in centers.iter().enumerate() {
                let distance = squared_distance(point, center);
                if distance < best_distance {
                    best_distance = distance;
                    best = center_index;
                }
            }
            if assignment[point_index] != best {
                assignment[point_index] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        let mut sums = vec![[0.0f64; SIGNATURE_DIMS]; centers.len()];
        let mut counts = vec![0u64; centers.len()];
        for (point, &center_index) in signatures.iter().zip(assignment.iter()) {
            counts[center_index] += 1;
            for (slot, value) in sums[center_index].iter_mut().zip(point.iter()) {
                *slot += value;
            }
        }
        for ((center, sum), &count) in centers.iter_mut().zip(sums.iter()).zip(counts.iter()) {
            if count > 0 {
                for (slot, &total) in center.iter_mut().zip(sum.iter()) {
                    *slot = total / count as f64;
                }
            }
        }
    }

    // Representatives per cluster: a single medoid is a high-variance
    // estimator of its cluster's mean MPKI, so each cluster fields up to
    // [`REPS_PER_CLUSTER`] members, spread evenly across the cluster in
    // stream order, with the cluster's weight integer-split across them.
    // The split keeps the total weight exactly the interval count, so the
    // reconstruction still covers every interval exactly once.
    let mut representatives = Vec::new();
    for center_index in 0..centers.len() {
        let members: Vec<usize> = (0..n)
            .filter(|&point_index| assignment[point_index] == center_index)
            .collect();
        if members.is_empty() {
            continue;
        }
        let picks = members.len().min(REPS_PER_CLUSTER);
        let weight = members.len() as u64;
        let base = weight / picks as u64;
        let extra = weight % picks as u64;
        for pick in 0..picks {
            // Midpoint-of-stratum positions: (2*pick + 1) * len / (2*picks).
            let member = members[(2 * pick + 1) * members.len() / (2 * picks)];
            representatives.push(Representative {
                interval_index: member as u64,
                weight: base + u64::from((pick as u64) < extra),
            });
        }
    }
    representatives
}

/// The outcome of a phase-sampled run: a reconstructed whole-trace result
/// plus the sampling accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledRunResult {
    /// The reconstructed result. The report, branch and instruction
    /// counters are weighted sums over the representatives — *estimates*
    /// of the sequential run, not raw measurements. Deterministic:
    /// identical whatever the cache state.
    pub result: TraceRunResult,
    /// The plan the run executed. Deterministic.
    pub plan: PhasePlan,
    /// Conditional branches measured inside representative slices
    /// (unweighted). Deterministic: identical whatever the cache state.
    pub measured_branches: u64,
    /// Records replayed to carry the sequential state across gaps in
    /// *this* run. Cache-dependent — near the stream length on a cold
    /// run, zero once every checkpoint restores — so it must stay out of
    /// rendered reports.
    pub replayed_records: u64,
}

impl SampledRunResult {
    /// Records this run actually pushed through the simulation engine:
    /// the measured slices plus the gap replay. Cache-dependent, like
    /// [`SampledRunResult::replayed_records`].
    pub fn simulated_records(&self) -> u64 {
        self.measured_branches + self.replayed_records
    }
}

/// Runs one source phase-sampled: builds the plan, then carries a single
/// engine across the representative slices in stream order, replaying or
/// checkpoint-restoring the gaps (see the module docs), and reconstructs
/// whole-trace metrics as integer-weighted sums.
///
/// `open` is called once. The stream it returns is read to the end to
/// build the plan, rewound with [`BranchSource::reset`], and read again to
/// simulate, so its `reset` must return it to its first record: a
/// decoded trace file is then decoded once. `warm` pairs a [`WarmCache`]
/// with the source's content digest
/// ([`tage_traces::source::SourceSpec::digest`]).
///
/// # Errors
///
/// Returns the first [`FormatError`] from the analysis pass or the
/// simulation pass.
pub fn run_sampled_source<S, F>(
    blueprint: &dyn TageBlueprint,
    options: &RunOptions,
    spec: SamplingSpec,
    warm: Option<(&WarmCache, u64)>,
    open: F,
) -> Result<SampledRunResult, FormatError>
where
    S: BranchSource,
    F: Fn() -> Result<S, FormatError>,
{
    let mut source = open()?;
    let plan = build_plan(&mut source, spec)?;
    run_from_plan(blueprint, options, &plan, warm, &mut source)
}

/// Rewinds `source`, which `plan` was built from, and simulates it under
/// `plan`: the simulation half of [`run_sampled_source`]. Cells that share
/// one trace run each predictor from one plan over one opened source.
///
/// # Errors
///
/// Returns the first [`FormatError`] from the rewind or the simulation.
pub(crate) fn run_from_plan<S: BranchSource>(
    blueprint: &dyn TageBlueprint,
    options: &RunOptions,
    plan: &PhasePlan,
    warm: Option<(&WarmCache, u64)>,
    source: &mut S,
) -> Result<SampledRunResult, FormatError> {
    source.reset()?;
    let geometry = blueprint.tage_geometry();
    let checkpoints =
        warm.map(|(cache, digest)| Checkpoints::new(cache, digest, &geometry, options));

    let mut report = ConfidenceReport::new();
    let mut conditional_branches = 0u64;
    let mut instructions = 0u64;
    let mut measured_branches = 0u64;
    let mut replayed_records = 0u64;

    let mut position = 0u64;
    let mut predictor = TagePredictor::new(&geometry);
    let mut run = TageRun::new(&mut predictor, options);
    for rep in &plan.representatives {
        let start = rep.interval_index * plan.interval;
        let end = (start + plan.interval).min(plan.total_records);
        // Gap ahead of this slice: restore its boundary checkpoint when the
        // cache holds one, replay (and store the checkpoint) otherwise.
        // Both leave the run in the exact sequential state at `start`.
        let replayed = warmcache::advance(&mut run, &mut *source, position, start, checkpoints)?;
        replayed_records += replayed.unwrap_or(0);

        // Measure the representative slice.
        let (slice, summary) = run.measure(&mut Take::new(&mut *source, end - start), &mut ())?;
        position = end;
        report.merge_scaled(&slice, rep.weight);
        conditional_branches += summary.measured_branches * rep.weight;
        instructions += summary.measured_instructions * rep.weight;
        measured_branches += summary.measured_branches;
    }

    Ok(SampledRunResult {
        result: run.result(
            source.name().to_string(),
            report,
            conditional_branches,
            instructions,
        ),
        plan: plan.clone(),
        measured_branches,
        replayed_records,
    })
}

/// An exact-vs-sampled comparison: the error bound report behind the
/// `sampling-smoke` CI gate and the pinned accuracy test.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingErrorReport {
    /// MPKI of the exact (sequential, unsampled) run.
    pub exact_mpki: f64,
    /// MPKI reconstructed from the sampled run.
    pub sampled_mpki: f64,
    /// `|sampled - exact| / exact` (0 when the exact MPKI is 0).
    pub relative_error: f64,
    /// Conditional branches the exact run simulated.
    pub exact_branches: u64,
    /// Records the sampled run actually simulated (measured slices plus
    /// replayed gaps — so cache-dependent; see
    /// [`SampledRunResult::simulated_records`]).
    pub sampled_branches: u64,
}

impl SamplingErrorReport {
    /// How many times fewer branches the sampled run simulated.
    pub fn speedup(&self) -> f64 {
        if self.sampled_branches == 0 {
            0.0
        } else {
            self.exact_branches as f64 / self.sampled_branches as f64
        }
    }
}

/// Runs a source both exactly and phase-sampled and reports the
/// reconstruction error alongside the branch-count saving. With a warm
/// [`WarmCache`] the sampled leg restores checkpoints and the reported
/// speedup reflects the slices-only cost; cold, it reflects the one-time
/// checkpoint-building pass. `open` is called once, and the stream is
/// rewound between the exact run, the plan and the sampled run, as
/// [`run_sampled_source`] rewinds it.
///
/// # Errors
///
/// Returns the first [`FormatError`] from either run.
pub fn compare_sampled_vs_exact<S, F>(
    blueprint: &dyn TageBlueprint,
    options: &RunOptions,
    spec: SamplingSpec,
    warm: Option<(&WarmCache, u64)>,
    open: F,
) -> Result<SamplingErrorReport, FormatError>
where
    S: BranchSource,
    F: Fn() -> Result<S, FormatError>,
{
    let mut source = open()?;
    let exact = run_source(blueprint, &mut source, options)?;
    source.reset()?;
    let plan = build_plan(&mut source, spec)?;
    let sampled = run_from_plan(blueprint, options, &plan, warm, &mut source)?;
    let exact_mpki = exact.report.mpki();
    let sampled_mpki = sampled.result.report.mpki();
    let relative_error = if exact_mpki == 0.0 {
        0.0
    } else {
        (sampled_mpki - exact_mpki).abs() / exact_mpki
    };
    Ok(SamplingErrorReport {
        exact_mpki,
        sampled_mpki,
        relative_error,
        exact_branches: exact.conditional_branches,
        sampled_branches: sampled.simulated_records(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tage::TageGeometry;
    use tage_traces::source::SyntheticSource;
    use tage_traces::suites;

    fn spec() -> tage_traces::TraceSpec {
        suites::cbp1_like().trace("INT-2").unwrap().clone()
    }

    #[test]
    fn plans_are_deterministic_and_cover_every_interval() {
        let sampling = SamplingSpec {
            interval: 500,
            k: 4,
            seed: 1,
        };
        let build = || {
            let mut source = SyntheticSource::from_spec(&spec(), 10_000);
            build_plan(&mut source, sampling).unwrap()
        };
        let plan = build();
        assert_eq!(plan, build(), "same stream, same spec, same plan");
        assert!(plan.total_records >= 10_000);
        assert!(!plan.representatives.is_empty());
        assert!(
            plan.representatives.len() <= sampling.k * REPS_PER_CLUSTER + 1,
            "at most k clusters of REPS_PER_CLUSTER picks, plus the tail"
        );
        let full = plan.total_records / plan.interval;
        let tail = u64::from(!plan.total_records.is_multiple_of(plan.interval));
        assert_eq!(
            plan.representatives.iter().map(|r| r.weight).sum::<u64>(),
            full + tail
        );
        for pair in plan.representatives.windows(2) {
            assert!(pair[0].interval_index < pair[1].interval_index, "sorted");
        }
        assert!(plan.measured_records() < plan.total_records);
    }

    #[test]
    fn tiny_streams_represent_every_interval_exactly() {
        let sampling = SamplingSpec {
            interval: 1_000,
            k: 8,
            seed: 3,
        };
        // 2.5 intervals: 2 full + 1 tail, fewer than k.
        let mut source = SyntheticSource::from_spec(&spec(), 2_500);
        let total = source.skip_records(u64::MAX).unwrap();
        source.reset().unwrap();
        let plan = build_plan(&mut source, sampling).unwrap();
        assert_eq!(plan.total_records, total);
        let expected = plan.total_records.div_ceil(plan.interval);
        assert_eq!(plan.representatives.len() as u64, expected);
        assert!(plan.representatives.iter().all(|r| r.weight == 1));
        // Everything is measured: the "sampled" run degenerates to the
        // sequential run.
        assert_eq!(plan.measured_records(), total);
    }

    #[test]
    fn empty_stream_has_an_empty_plan() {
        let mut source = SyntheticSource::from_spec(&spec(), 0);
        let plan = build_plan(&mut source, SamplingSpec::default_plan()).unwrap();
        assert_eq!(plan.total_records, 0);
        assert!(plan.representatives.is_empty());
        assert_eq!(plan.measured_records(), 0);
    }

    #[test]
    fn sampled_runs_are_deterministic_and_reconstruct_totals() {
        let sampling = SamplingSpec {
            interval: 500,
            k: 4,
            seed: 1,
        };
        let config = TageGeometry::small();
        let run = || {
            run_sampled_source(&config, &RunOptions::default(), sampling, None, || {
                Ok(SyntheticSource::from_spec(&spec(), 10_000))
            })
            .unwrap()
        };
        let first = run();
        assert_eq!(first, run(), "bit-identical across runs");
        // The weights partition the intervals, so the weighted conditional
        // count reconstructs the stream's total exactly.
        let total_conditionals = {
            let t = spec().generate(10_000);
            t.iter().filter(|r| r.kind.is_conditional()).count() as u64
        };
        assert_eq!(first.result.conditional_branches, total_conditionals);
        assert_eq!(first.result.report.total().predictions, total_conditionals);
        assert!(first.measured_branches < total_conditionals);
        assert!(first.replayed_records < first.plan.total_records);
    }

    #[test]
    fn sampled_runs_open_their_source_once() {
        let sampling = SamplingSpec {
            interval: 400,
            k: 3,
            seed: 1,
        };
        let config = TageGeometry::small();
        let opens = std::cell::Cell::new(0);
        let open = || {
            opens.set(opens.get() + 1);
            Ok(SyntheticSource::from_spec(&spec(), 6_000))
        };
        let sampled =
            run_sampled_source(&config, &RunOptions::default(), sampling, None, open).unwrap();
        assert_eq!(opens.get(), 1, "one open plans and simulates");
        let compared =
            compare_sampled_vs_exact(&config, &RunOptions::default(), sampling, None, open)
                .unwrap();
        assert_eq!(opens.get(), 2, "one open runs exact, plans and simulates");
        assert_eq!(compared.sampled_mpki, sampled.result.report.mpki());
    }

    #[test]
    fn different_seeds_may_pick_different_representatives_but_stay_valid() {
        let config = TageGeometry::small();
        for seed in [1, 2, 99] {
            let sampling = SamplingSpec {
                interval: 400,
                k: 3,
                seed,
            };
            let out = run_sampled_source(&config, &RunOptions::default(), sampling, None, || {
                Ok(SyntheticSource::from_spec(&spec(), 6_000))
            })
            .unwrap();
            let full = out.plan.total_records / out.plan.interval;
            let tail = u64::from(!out.plan.total_records.is_multiple_of(out.plan.interval));
            assert_eq!(
                out.plan
                    .representatives
                    .iter()
                    .map(|r| r.weight)
                    .sum::<u64>(),
                full + tail,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn pinned_reconstruction_error_and_speedup() {
        // The acceptance gate of the sampling layer: the weighted
        // reconstruction lands within 5% of the exact MPKI, and once
        // checkpoints are warm a re-run simulates at least 5x fewer
        // branches. The cold leg builds the checkpoints (one sequential
        // pass — no worse than the exact run it replaces).
        let dir = std::env::temp_dir().join(format!("tage-phase-pinned-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sampling = SamplingSpec {
            interval: 250,
            k: 8,
            seed: 1,
        };
        let config = TageGeometry::small();
        let branches = 200_000;
        let source_spec = tage_traces::source::SourceSpec::Synthetic(spec());
        let digest = source_spec.digest(branches);
        let open = || source_spec.open(branches);
        let cache = WarmCache::new(&dir).unwrap();

        let cold = compare_sampled_vs_exact(
            &config,
            &RunOptions::default(),
            sampling,
            Some((&cache, digest)),
            open,
        )
        .unwrap();
        assert!(
            cold.relative_error < 0.05,
            "reconstruction error {:.4} (exact {:.4} MPKI, sampled {:.4} MPKI)",
            cold.relative_error,
            cold.exact_mpki,
            cold.sampled_mpki
        );

        let warmed = run_sampled_source(
            &config,
            &RunOptions::default(),
            sampling,
            Some((&cache, digest)),
            open,
        )
        .unwrap();
        assert_eq!(warmed.result.report.mpki(), cold.sampled_mpki, "byte-equal");
        assert_eq!(warmed.replayed_records, 0, "every checkpoint restored");
        let speedup = cold.exact_branches as f64 / warmed.simulated_records() as f64;
        assert!(
            speedup >= 5.0,
            "speedup {speedup:.2}x (exact {} branches, sampled {})",
            cold.exact_branches,
            warmed.simulated_records()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs `sampling` over the first `branches` of INT-2 uncached, then
    /// cold and warm through a fresh cache at `dir`, returning all three.
    fn uncached_cold_warm(
        options: &RunOptions,
        sampling: SamplingSpec,
        branches: usize,
        dir: &std::path::Path,
    ) -> [SampledRunResult; 3] {
        let _ = std::fs::remove_dir_all(dir);
        let config = TageGeometry::small();
        let source_spec = tage_traces::source::SourceSpec::Synthetic(spec());
        let digest = source_spec.digest(branches);
        let open = || source_spec.open(branches);
        let uncached = run_sampled_source(&config, options, sampling, None, open).unwrap();
        let cache = WarmCache::new(dir).unwrap();
        let cold = run_sampled_source(&config, options, sampling, Some((&cache, digest)), open);
        let warm = run_sampled_source(&config, options, sampling, Some((&cache, digest)), open);
        assert!(cache.hits() > 0, "the warm run restores checkpoints");
        let _ = std::fs::remove_dir_all(dir);
        [uncached, cold.unwrap(), warm.unwrap()]
    }

    #[test]
    fn statistical_warmup_is_the_same_whatever_the_cache_holds() {
        let sampling = SamplingSpec {
            interval: 500,
            k: 4,
            seed: 1,
        };
        let dir = std::env::temp_dir().join(format!("tage-phase-warmup-{}", std::process::id()));
        // 3,000 leading branches reach past the first representative
        // slices, so restored checkpoints must carry the branch counter.
        let mut measured = Vec::new();
        for warmup_branches in [0, 3_000] {
            let options = RunOptions {
                warmup_branches,
                ..RunOptions::default()
            };
            let [uncached, cold, warm] = uncached_cold_warm(&options, sampling, 10_000, &dir);
            assert_eq!(cold.result, uncached.result, "warmup {warmup_branches}");
            assert_eq!(warm.result, uncached.result, "warmup {warmup_branches}");
            assert_eq!(cold.measured_branches, uncached.measured_branches);
            assert_eq!(warm.measured_branches, uncached.measured_branches);
            measured.push(uncached.measured_branches);
        }
        assert!(measured[1] < measured[0], "the warmup excludes branches");
    }

    #[test]
    fn torn_checkpoints_fall_back_to_replay() {
        let dir = std::env::temp_dir().join(format!("tage-phase-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sampling = SamplingSpec {
            interval: 500,
            k: 4,
            seed: 1,
        };
        let config = TageGeometry::small();
        let options = RunOptions::default();
        let source_spec = tage_traces::source::SourceSpec::Synthetic(spec());
        let digest = source_spec.digest(8_000);
        let open = || source_spec.open(8_000);
        let uncached = run_sampled_source(&config, &options, sampling, None, open).unwrap();
        let cache = WarmCache::new(&dir).unwrap();
        let warm = Some((&cache, digest));
        run_sampled_source(&config, &options, sampling, warm, open).unwrap();
        let mut entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "warmstate"))
            .collect();
        entries.sort();
        assert!(entries.len() >= 2, "the cold run stores checkpoints");
        // One torn entry, one bit-flipped entry.
        let bytes = std::fs::read(&entries[0]).unwrap();
        std::fs::write(&entries[0], &bytes[..bytes.len() - 9]).unwrap();
        let mut bytes = std::fs::read(&entries[1]).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x01;
        std::fs::write(&entries[1], &bytes).unwrap();
        let misses = cache.misses();
        let repaired = run_sampled_source(&config, &options, sampling, warm, open).unwrap();
        assert_eq!(repaired.result, uncached.result, "corrupt entries replay");
        assert_eq!(repaired.measured_branches, uncached.measured_branches);
        assert!(repaired.replayed_records > 0, "the torn gaps were replayed");
        assert_eq!(cache.misses(), misses + 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn automata_of_one_geometry_keep_their_own_checkpoints() {
        let dir = std::env::temp_dir().join(format!("tage-phase-automata-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sampling = SamplingSpec {
            interval: 500,
            k: 4,
            seed: 1,
        };
        let source_spec = tage_traces::source::SourceSpec::Synthetic(spec());
        let warm = (&WarmCache::new(&dir).unwrap(), source_spec.digest(8_000));
        let open = || source_spec.open(8_000);
        for automaton in [
            tage::CounterAutomaton::paper_default(),
            tage::CounterAutomaton::Standard,
        ] {
            let config = TageGeometry::small().with_automaton(automaton);
            let options = RunOptions::default();
            let uncached = run_sampled_source(&config, &options, sampling, None, open).unwrap();
            let cached = run_sampled_source(&config, &options, sampling, Some(warm), open).unwrap();
            assert_eq!(cached.result, uncached.result, "{automaton}");
            assert!(cached.replayed_records > 0, "{automaton} builds its own");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_and_warm_runs_are_byte_identical() {
        let dir =
            std::env::temp_dir().join(format!("tage-phase-warmcache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sampling = SamplingSpec {
            interval: 500,
            k: 4,
            seed: 1,
        };
        let config = TageGeometry::small();
        let source_spec = tage_traces::source::SourceSpec::Synthetic(spec());
        let digest = source_spec.digest(8_000);
        let open = || source_spec.open(8_000);
        let uncached =
            run_sampled_source(&config, &RunOptions::default(), sampling, None, open).unwrap();
        let cache = WarmCache::new(&dir).unwrap();
        let cold = run_sampled_source(
            &config,
            &RunOptions::default(),
            sampling,
            Some((&cache, digest)),
            open,
        )
        .unwrap();
        assert_eq!(cold, uncached, "first cached run replays, like uncached");
        assert!(cache.misses() > 0);
        let warm = run_sampled_source(
            &config,
            &RunOptions::default(),
            sampling,
            Some((&cache, digest)),
            open,
        )
        .unwrap();
        assert_eq!(warm.result, uncached.result, "restore ≡ replay");
        assert_eq!(warm.plan, uncached.plan);
        assert_eq!(warm.measured_branches, uncached.measured_branches);
        assert!(cache.hits() > 0, "checkpoints should restore");
        assert!(
            warm.replayed_records < uncached.replayed_records,
            "restores replace replays"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
