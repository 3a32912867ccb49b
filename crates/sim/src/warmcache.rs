//! Content-addressed on-disk cache of warm simulation states, and the one
//! restore-or-replay step built on it.
//!
//! Sampled runs ([`crate::phase`]) replay the gaps between their
//! representative slices. That replay is pure overhead, and it is
//! *repeated on every run* of the same grid — a campaign sweeping schemes
//! over one source replays the same records once per cell. A
//! [`WarmCache`] eliminates the repeats: the first run replays once,
//! snapshots the run state at the end of the replay, and stores it under a
//! content-addressed key; later runs restore the snapshot and skip straight
//! past the replayed records. Because the snapshot captures the **full**
//! dynamic state (tables, histories, folds, RNG, the classifier's recency
//! window, the adaptive controller's measurement window and the engine's
//! executed-branch counter), a cache-hit run is byte-identical to a replay
//! run. `advance` is that step.
//!
//! # Keying
//!
//! A cache entry is valid only for the exact warm state it captured, so the
//! key digests everything that state depends on:
//!
//! * the **state digest**: the predictor's snapshot spec digest
//!   ([`TagePredictor::spec_digest_for`]) folded with the counter
//!   automaton, the classifier window and the adaptive target
//!   (`state_digest`) — anything that changes how the replay trains. The
//!   spec digest leaves the automaton out, and a restored snapshot brings
//!   its own automaton along, so without it a standard-automaton run would
//!   restore the modified automaton's state of the same geometry. The
//!   paper's default automaton adds nothing to the key text, so its entries
//!   keep the names earlier builds gave them. Those builds also wrote
//!   standard-automaton states under that text, so a run without the
//!   adaptive controller treats an entry of another automaton as a miss;
//! * the **source digest** ([`tage_traces::source::SourceSpec::digest`]) —
//!   which records were replayed;
//! * the **replayed record range** `[0, target)` — how many of them. The
//!   key text still carries the origin `0` ahead of `target`, so entries
//!   written by earlier builds keep their names.
//!
//! Entries live in a [`KeyedFiles`] directory as `<fnv64 of the
//! key>.warmstate` files; the state digest is also embedded in each entry's
//! snapshot header, so a key collision, a stale file or a torn or
//! bit-flipped one is detected at decode time and treated as a miss (the
//! records are replayed and the entry rewritten).

use std::path::PathBuf;

use tage::{CounterAutomaton, TageBlueprint, TagePredictor};
use tage_traces::format::FormatError;
use tage_traces::snapshot::{fnv1a64, KeyedFiles, SnapshotError, SnapshotReader, SnapshotWriter};
use tage_traces::source::{BranchSource, Take};

use crate::runner::{RunOptions, TageRun};

/// File extension of cache entries.
const ENTRY_EXTENSION: &str = "warmstate";

/// A directory of content-addressed warm simulation states; share it by
/// reference across campaign workers.
#[derive(Debug)]
pub struct WarmCache(KeyedFiles);

impl WarmCache {
    /// Opens (creating if needed) a warm-state cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the [`std::io::Error`] from creating the directory.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<WarmCache> {
        KeyedFiles::new(dir, ENTRY_EXTENSION).map(WarmCache)
    }

    /// Number of successful warm-state restores served so far.
    pub fn hits(&self) -> u64 {
        self.0.hits()
    }

    /// Number of lookups that found no (valid) entry so far.
    pub fn misses(&self) -> u64 {
        self.0.misses()
    }
}

/// Process-wide `(hits, misses)` accumulated across every [`WarmCache`]
/// this process has used — what `tage-serve`'s `GET /metrics` reports as
/// `warmcache_hits` / `warmcache_misses`.
pub fn global_counters() -> (u64, u64) {
    KeyedFiles::process_counters(ENTRY_EXTENSION)
}

/// Digest of everything about the *simulation configuration* that the warm
/// state depends on: the predictor's snapshot spec digest, its counter
/// automaton unless it is the paper's default (see the module docs), the
/// classifier's recency-window length and the adaptive controller's target.
fn state_digest(blueprint: &dyn TageBlueprint, options: &RunOptions) -> u64 {
    let automaton = match blueprint.tage_geometry().automaton {
        paper if paper == CounterAutomaton::paper_default() => String::new(),
        other => format!("|automaton={other}"),
    };
    fnv1a64(
        format!(
            "warm|predictor={:016x}|window={}|adaptive={:?}{automaton}",
            TagePredictor::spec_digest_for(blueprint),
            options.bim_miss_window,
            options.adaptive_target_mkp.map(f64::to_bits),
        )
        .as_bytes(),
    )
}

/// The content-addressed entry key: state digest × source digest × replayed
/// record range `[0, target)`.
fn entry_key(state_digest: u64, source_digest: u64, target: u64) -> u64 {
    fnv1a64(format!("{state_digest:016x}|{source_digest:016x}|0|{target}").as_bytes())
}

/// A decoded warm simulation state: the predictor snapshot plus the
/// classifier, engine and adaptive-controller dynamic state captured at the
/// same instant.
struct WarmState {
    /// A full [`TagePredictor::snapshot`].
    predictor: Vec<u8>,
    /// [`TageConfidenceClassifier::window_remaining`] at the boundary.
    ///
    /// [`TageConfidenceClassifier::window_remaining`]:
    /// tage_confidence::TageConfidenceClassifier::window_remaining
    window_remaining: u32,
    /// [`crate::SimEngine::branches_executed`] at the boundary — what the
    /// statistical warm-up (`RunOptions::warmup_branches`) counts against.
    branches_executed: u64,
    /// [`AdaptiveSaturationController::dynamic_state`] at the boundary, when
    /// the adaptive controller was running.
    ///
    /// [`AdaptiveSaturationController::dynamic_state`]:
    /// tage_confidence::AdaptiveSaturationController::dynamic_state
    adaptive: Option<(u32, u64, u64, u64)>,
}

/// Frames a warm state as a snapshot whose spec digest is the cache's state
/// digest, so stale or colliding entries fail validation on read.
fn encode_warm_state(state_digest: u64, state: &WarmState) -> Vec<u8> {
    let mut w = SnapshotWriter::new(state_digest);
    w.begin_section();
    w.write_bytes(&state.predictor);
    w.end_section();
    w.begin_section();
    w.write_u32(state.window_remaining);
    w.write_u64(state.branches_executed);
    match state.adaptive {
        None => {
            w.write_bool(false);
            for _ in 0..4 {
                w.write_u64(0);
            }
        }
        Some((exponent, high_predictions, high_mispredictions, adaptations)) => {
            w.write_bool(true);
            w.write_u64(u64::from(exponent));
            w.write_u64(high_predictions);
            w.write_u64(high_mispredictions);
            w.write_u64(adaptations);
        }
    }
    w.end_section();
    w.finish()
}

/// Decodes an entry written by [`encode_warm_state`].
///
/// # Errors
///
/// Returns the [`SnapshotError`] when the entry is truncated, corrupt, was
/// written for a different simulation configuration or by an older build
/// (whose entries lack the branch counter) — callers treat any error as a
/// cache miss.
fn decode_warm_state(bytes: &[u8], state_digest: u64) -> Result<WarmState, SnapshotError> {
    let mut r = SnapshotReader::new(bytes, state_digest)?;
    r.begin_section()?;
    let predictor = r.read_bytes()?.to_vec();
    r.end_section()?;
    r.begin_section()?;
    let window_remaining = r.read_u32()?;
    let branches_executed = r.read_u64()?;
    let has_adaptive = r.read_bool()?;
    let exponent = r.read_u64()?;
    let high_predictions = r.read_u64()?;
    let high_mispredictions = r.read_u64()?;
    let adaptations = r.read_u64()?;
    r.end_section()?;
    r.finish()?;
    let offset = bytes.len();
    let adaptive = if has_adaptive {
        let exponent = u32::try_from(exponent).map_err(|_| SnapshotError::MalformedSection {
            offset,
            reason: format!("adaptive exponent {exponent} exceeds u32"),
        })?;
        Some((exponent, high_predictions, high_mispredictions, adaptations))
    } else {
        None
    };
    Ok(WarmState {
        predictor,
        window_remaining,
        branches_executed,
        adaptive,
    })
}

/// Where [`advance`] looks for and leaves checkpoints of one source: the
/// cache, the source's content digest and the simulation configuration's
/// state digest.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Checkpoints<'a> {
    cache: &'a WarmCache,
    source_digest: u64,
    state_digest: u64,
}

impl<'a> Checkpoints<'a> {
    /// Checkpoints of the source with content digest `source_digest`, for
    /// runs of `blueprint` under `options`.
    pub(crate) fn new(
        cache: &'a WarmCache,
        source_digest: u64,
        blueprint: &dyn TageBlueprint,
        options: &RunOptions,
    ) -> Self {
        Checkpoints {
            cache,
            source_digest,
            state_digest: state_digest(blueprint, options),
        }
    }
}

/// The one restore-or-replay step: brings `run` to record `target` of
/// `source`. Predictor, classifier window, adaptive controller and the
/// engine's executed-branch counter end up exactly as a cold run fed
/// records `[0, target)` would leave them.
///
/// `position` is where `run` and `source` stand now. With `checkpoints`, a
/// valid entry keyed `(state, source, target)` is restored and the source
/// skips to `target`; otherwise the records from `position` on are replayed
/// and the entry is (re)written. A torn, stale or mismatched entry leaves
/// `run` untouched — [`TagePredictor::restore`] is all-or-nothing, so no
/// scratch predictor is needed — and falls back to the replay. Either way
/// the run continues bit-identically.
///
/// Returns the records replayed, or `None` when the stream ended before a
/// skip reached `target`.
///
/// # Errors
///
/// Propagates the source's [`FormatError`]. Cache I/O never fails a run:
/// an unreadable entry is a miss and a failed store is dropped.
pub(crate) fn advance<S: BranchSource>(
    run: &mut TageRun<'_>,
    source: &mut S,
    position: u64,
    target: u64,
    checkpoints: Option<Checkpoints<'_>>,
) -> Result<Option<u64>, FormatError> {
    if position >= target {
        return Ok(Some(0));
    }
    let gap = target - position;
    let entry = checkpoints.map(|c| {
        let key = entry_key(c.state_digest, c.source_digest, target);
        (c, key)
    });
    if let Some((c, key)) = entry {
        if restore(run, c, key) {
            return Ok((source.skip_records(gap)? == gap).then_some(0));
        }
    }
    run.engine.run_source(
        &mut Take::new(&mut *source, gap),
        &mut run.adaptive.as_mut(),
    )?;
    if let Some((c, key)) = entry {
        let state = WarmState {
            predictor: run.engine.predictor().snapshot(),
            window_remaining: run.engine.scheme().window_remaining(),
            branches_executed: run.engine.branches_executed(),
            adaptive: run
                .adaptive
                .as_ref()
                .map(|observer| observer.controller.dynamic_state()),
        };
        // Best effort: an unwritable cache degrades to replays.
        let _ = c
            .cache
            .0
            .store(key, &encode_warm_state(c.state_digest, &state));
    }
    Ok(Some(gap))
}

/// Restores the entry under `key` into `run`, counting a cache hit;
/// `false` (with `run` untouched, and a miss counted) when there is no
/// usable entry.
///
/// Without the adaptive controller the run's automaton never changes, so
/// an entry carrying another automaton is a miss. Builds that keyed no
/// automaton wrote the standard automaton's states under the paper
/// default's key, and a restore would install that automaton.
fn restore(run: &mut TageRun<'_>, checkpoints: Checkpoints<'_>, key: u64) -> bool {
    let restored = checkpoints.cache.0.load(key, |bytes| {
        let state = decode_warm_state(&bytes, checkpoints.state_digest).ok()?;
        let predictor = run.engine.predictor_mut();
        let foreign_automaton = run.adaptive.is_none()
            && predictor.snapshot_automaton(&state.predictor).ok()
                != Some(predictor.geometry().automaton);
        if foreign_automaton
            || run.adaptive.is_some() != state.adaptive.is_some()
            || predictor.restore(&state.predictor).is_err()
        {
            return None;
        }
        // The restored predictor already carries the automaton the
        // controller had installed; only the controller's own window needs
        // restoring.
        if let (Some(observer), Some(dynamic)) = (run.adaptive.as_mut(), state.adaptive) {
            observer.controller.restore_dynamic_state(dynamic);
        }
        run.engine
            .scheme_mut()
            .set_window_remaining(state.window_remaining);
        run.engine.set_branches_executed(state.branches_executed);
        Some(())
    });
    restored.is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use tage::TageGeometry;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tage-warmcache-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn warm_state_round_trips_with_and_without_adaptive() {
        let predictor = TagePredictor::new(TageGeometry::small()).snapshot();
        for adaptive in [None, Some((7u32, 100u64, 3u64, 2u64))] {
            let state = WarmState {
                predictor: predictor.clone(),
                window_remaining: 5,
                branches_executed: 1_234,
                adaptive,
            };
            let bytes = encode_warm_state(0xABCD, &state);
            let decoded = decode_warm_state(&bytes, 0xABCD).unwrap();
            assert_eq!(decoded.predictor, predictor);
            assert_eq!(decoded.window_remaining, 5);
            assert_eq!(decoded.branches_executed, 1_234);
            assert_eq!(decoded.adaptive, adaptive);
        }
    }

    #[test]
    fn wrong_state_digest_is_rejected() {
        let state = WarmState {
            predictor: vec![1, 2, 3],
            window_remaining: 0,
            branches_executed: 0,
            adaptive: None,
        };
        let bytes = encode_warm_state(1, &state);
        assert!(matches!(
            decode_warm_state(&bytes, 2),
            Err(SnapshotError::SpecMismatch { .. })
        ));
    }

    #[test]
    fn store_then_load_round_trips_and_counts() {
        let dir = temp_dir("roundtrip");
        let cache = WarmCache::new(&dir).unwrap();
        let (global_hits, global_misses) = global_counters();
        assert!(cache.0.load(42, Some).is_none());
        cache.0.store(42, b"hello").unwrap();
        assert_eq!(cache.0.load(42, Some).unwrap(), b"hello");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // The process-wide counters advance alongside the per-instance
        // ones (other tests may also bump them; only the delta is ours).
        let (now_hits, now_misses) = global_counters();
        assert!(now_hits > global_hits);
        assert!(now_misses > global_misses);
        assert!(dir.join(format!("{:016x}.warmstate", 42)).is_file());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn another_automatons_state_under_the_paper_key_is_a_miss() {
        use crate::phase::run_sampled_source;
        use tage_traces::{suites, SamplingSpec, SourceSpec};
        // Builds that keyed no automaton wrote a standard-automaton run's
        // checkpoints under the paper default's key text. Plant such
        // entries: the paper-default run must replay past them, as fresh.
        let dir = temp_dir("planted-automaton");
        let sampling = SamplingSpec {
            interval: 500,
            k: 4,
            seed: 1,
        };
        let source = SourceSpec::Synthetic(suites::cbp1_like().trace("INT-2").unwrap().clone());
        let digest = source.digest(8_000);
        let open = || source.open(8_000);
        let options = RunOptions::default();
        let paper = TageGeometry::small().with_automaton(CounterAutomaton::paper_default());
        let standard = TageGeometry::small().with_automaton(CounterAutomaton::Standard);
        let fresh = run_sampled_source(&paper, &options, sampling, None, open).unwrap();

        let written = WarmCache::new(dir.join("standard")).unwrap();
        run_sampled_source(
            &standard,
            &options,
            sampling,
            Some((&written, digest)),
            open,
        )
        .unwrap();
        let cache = WarmCache::new(dir.join("planted")).unwrap();
        let (from, to) = (
            state_digest(&standard, &options),
            state_digest(&paper, &options),
        );
        let mut planted = 0;
        for target in 0..=fresh.plan.total_records {
            if let Some(bytes) = written.0.load(entry_key(from, digest, target), Some) {
                let state = decode_warm_state(&bytes, from).unwrap();
                let entry = encode_warm_state(to, &state);
                cache
                    .0
                    .store(entry_key(to, digest, target), &entry)
                    .unwrap();
                planted += 1;
            }
        }
        assert!(planted > 0);

        let run = run_sampled_source(&paper, &options, sampling, Some((&cache, digest)), open);
        assert_eq!(run.unwrap().result, fresh.result);
        assert_eq!((cache.hits(), cache.misses()), (0, planted));
        // Each miss rewrote its entry with the run's own state.
        let run = run_sampled_source(&paper, &options, sampling, Some((&cache, digest)), open);
        assert_eq!(run.unwrap().result, fresh.result);
        assert_eq!(cache.hits(), planted);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_separate_every_component() {
        let base = entry_key(1, 2, 4);
        assert_ne!(base, entry_key(9, 2, 4));
        assert_ne!(base, entry_key(1, 9, 4));
        assert_ne!(base, entry_key(1, 2, 9));
        assert_eq!(base, entry_key(1, 2, 4));
    }

    #[test]
    fn state_digest_tracks_options() {
        let config = TageGeometry::small();
        let base = state_digest(&config, &RunOptions::default());
        let window = state_digest(
            &config,
            &RunOptions {
                bim_miss_window: 4,
                ..RunOptions::default()
            },
        );
        let adaptive = state_digest(&config, &RunOptions::adaptive());
        let other_config = state_digest(&TageGeometry::medium(), &RunOptions::default());
        assert_ne!(base, window);
        assert_ne!(base, adaptive);
        assert_ne!(base, other_config);
    }
}
