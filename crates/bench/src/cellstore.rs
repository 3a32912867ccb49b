//! The shared content-addressed on-disk store of finished campaign cells.
//!
//! A campaign cell — one (predictor, scheme, suite, scenario) grid point at
//! a fixed per-trace length — is deterministic: its rendered timing-free
//! report bytes depend only on its identity, never on worker count, engine
//! choice, or which process computed it. A [`CellStore`] memoizes those
//! bytes on disk under a content-addressed key, so *any* later consumer of
//! the same cell — a resumed `tage-bench --resume` run, a resubmitted
//! `tage-serve` campaign, or a second in-flight campaign overlapping the
//! first — restores the bytes instead of recomputing the cell.
//!
//! # What a cell file holds
//!
//! Each `<fnv64 key>.cell` file stores the **exact rendered bytes** of the
//! point's timing-free JSON report element (what
//! [`CampaignReport::render_json`](crate::campaign::CampaignReport::render_json)
//! emits for the point with `include_timing == false`), wrapped in the
//! checksummed snapshot framing of [`tage_traces::snapshot`] with the cell
//! key as spec digest. Restored cells are pasted verbatim into reports,
//! which is what makes a resumed or cache-served report byte-identical to a
//! clean one-shot run's — `scripts/verify/campaign.sh` and `service.sh`
//! `cmp` the two.
//!
//! # Keying and validation
//!
//! [`cell_key`] digests the cell's full content identity: the per-trace
//! length, the predictor/scheme/scenario labels, and the suite's name plus
//! its [content digest](tage_traces::source::SourceSuite::digest), which
//! hashes a file-backed trace's bytes. The campaign label is deliberately
//! **not** part of the key — it only appears in the report header, so
//! differently-labelled campaigns share cells.
//!
//! On load the framing (checksum, key) and then the stored cell's identity
//! fields are checked against the requesting point; a mismatch — a key
//! collision, a stale, torn or bit-flipped file, or an unframed cell from
//! an older build — is treated as absent and the cell is recomputed and
//! rewritten. The cells live in a [`KeyedFiles`] directory, so a kill can
//! never leave a torn cell behind and concurrent writers of the same cell
//! are harmless (either complete file wins — the bytes are identical).
//!
//! The store also holds the predictor warm cache of phase-sampled cells,
//! under `<store>/warm` ([`CellStore::warm`]).

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use tage_sim::point::{PredictorSpec, SweepPoint};
use tage_sim::WarmCache;
use tage_traces::snapshot::{fnv1a64, KeyedFiles, SnapshotReader, SnapshotWriter};

use crate::jsonish;

/// A directory of finished campaign cells, each stored as its rendered
/// timing-free report element under its content-addressed key, and the
/// warm cache beside them.
#[derive(Debug)]
pub struct CellStore {
    cells: KeyedFiles,
    warm: OnceLock<Option<WarmCache>>,
}

impl CellStore {
    /// Opens (creating if needed) a cell store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the [`std::io::Error`] from creating the directory.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<CellStore> {
        Ok(CellStore {
            cells: KeyedFiles::new(dir, "cell")?,
            warm: OnceLock::new(),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        self.cells.dir()
    }

    /// Number of loads served from a valid stored cell so far.
    pub fn hits(&self) -> u64 {
        self.cells.hits()
    }

    /// Number of loads that found no (valid) cell so far.
    pub fn misses(&self) -> u64 {
        self.cells.misses()
    }

    /// Whether a cell file exists under `key`, without reading or counting
    /// it; only [`CellStore::load_cell`] tells whether it is valid.
    pub fn has_cell(&self, key: u64) -> bool {
        self.cells.path(key).exists()
    }

    /// Loads the finished cell stored under `key`, if it exists, its
    /// framing is intact and its identity fields match `point`. A missing,
    /// unreadable, corrupt or mismatched cell returns `None` — the caller
    /// recomputes (and rewrites) it.
    pub fn load_cell(&self, key: u64, point: &SweepPoint) -> Option<String> {
        self.cells.load(key, |bytes| {
            let rendered = unframe(&bytes, key)?;
            let expected = [
                ("predictor", point.predictor.label()),
                ("scheme", point.scheme.label()),
                ("suite", point.suite.name().to_string()),
                ("scenario", point.scenario.label().to_string()),
            ];
            expected
                .iter()
                .all(|(field, value)| {
                    jsonish::string_field(&rendered, field).as_deref() == Some(value.as_str())
                })
                .then_some(rendered)
        })
    }

    /// Atomically stores a finished cell's rendered bytes under `key`,
    /// framed and checksummed: concurrent workers and killed runs only
    /// ever leave complete cells.
    pub fn store_cell(&self, key: u64, rendered: &str) -> std::io::Result<()> {
        let mut framed = SnapshotWriter::new(key);
        framed.write_bytes(rendered.as_bytes());
        self.cells.store(key, &framed.finish())
    }

    /// The predictor warm cache at `<store>/warm`, opened on first use;
    /// none when that directory cannot be created, which degrades
    /// phase-sampled cells to gap replays.
    pub fn warm(&self) -> Option<&WarmCache> {
        self.warm
            .get_or_init(|| WarmCache::new(self.dir().join("warm")).ok())
            .as_ref()
    }
}

/// The rendered cell inside a framed cell file, if the framing is intact
/// and was written under `key`.
fn unframe(bytes: &[u8], key: u64) -> Option<String> {
    let mut reader = SnapshotReader::new(bytes, key).ok()?;
    let rendered = reader.read_bytes().ok()?.to_vec();
    reader.finish().ok()?;
    String::from_utf8(rendered).ok()
}

/// The content-addressed cell key: everything that determines a cell's
/// deterministic rendered bytes — the per-trace length, the
/// predictor/scheme/scenario labels, the counter automaton of a
/// `geometry:` predictor (whose label names its spec digest, which leaves
/// the automaton out), the suite's name plus its content digest, and the
/// phase-sampling plan when the suite carries one (sampled suites are also
/// *named* by their canonical `sample:` token, but the key spells the plan
/// out so cell identity never rests on the rename alone). Campaign labels
/// are excluded on purpose: they never reach the cell bytes, so keying on
/// them would only defeat cross-campaign sharing.
pub fn cell_key(branches_per_trace: usize, point: &SweepPoint) -> u64 {
    let automaton = match &point.predictor {
        PredictorSpec::Geometry { geometry, .. } => format!("|automaton={}", geometry.automaton),
        PredictorSpec::Tage(_) | PredictorSpec::Baseline(_) => String::new(),
    };
    let sample = match point.suite.sampling() {
        Some(spec) => format!("|sample={}", spec.identity()),
        None => String::new(),
    };
    fnv1a64(
        format!(
            "cell|branches={branches_per_trace}|predictor={}{automaton}|scheme={}|suite={}|suite_digest={:016x}|scenario={}{sample}",
            point.predictor.label(),
            point.scheme.label(),
            point.suite.name(),
            point.suite.digest(branches_per_trace),
            point.scenario.label(),
        )
        .as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use tage_sim::point::SchemeSpec;
    use tage_sim::scenarios::ScenarioSpec;
    use tage_traces::suites;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tage-cellstore-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn point() -> SweepPoint {
        SweepPoint {
            predictor: PredictorSpec::parse("tage-16k").unwrap(),
            scheme: SchemeSpec::parse("storage-free").unwrap(),
            suite: suites::cbp1_mini().into(),
            scenario: ScenarioSpec::Baseline,
        }
    }

    fn rendered_for(point: &SweepPoint) -> String {
        format!(
            "  {{\"predictor\": \"{}\", \"scheme\": \"{}\", \"suite\": \"{}\", \"scenario\": \"{}\"}}",
            point.predictor.label(),
            point.scheme.label(),
            point.suite.name(),
            point.scenario.label()
        )
    }

    #[test]
    fn cells_round_trip_verbatim_and_count() {
        let dir = temp_dir("roundtrip");
        let store = CellStore::new(&dir).unwrap();
        let point = point();
        let key = cell_key(1_000, &point);
        assert!(store.load_cell(key, &point).is_none());
        let rendered = rendered_for(&point);
        store.store_cell(key, &rendered).unwrap();
        assert_eq!(store.load_cell(key, &point).unwrap(), rendered);
        assert_eq!((store.hits(), store.misses()), (1, 1));
        assert_eq!(store.dir(), dir.as_path());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_mismatched_cells_read_as_absent() {
        let dir = temp_dir("corrupt");
        let store = CellStore::new(&dir).unwrap();
        let point = point();
        let key = cell_key(1_000, &point);
        // Garbage bytes: no identity fields at all.
        store.store_cell(key, "not a cell").unwrap();
        assert!(store.load_cell(key, &point).is_none());
        // A structurally fine cell whose identity disagrees (key collision
        // or stale grid) is also rejected.
        let mut other = point.clone();
        other.predictor = PredictorSpec::parse("tage-64k").unwrap();
        store.store_cell(key, &rendered_for(&other)).unwrap();
        assert!(store.load_cell(key, &point).is_none());
        assert_eq!(store.hits(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unframed_torn_and_misfiled_cells_read_as_absent() {
        let dir = temp_dir("framing");
        let store = CellStore::new(&dir).unwrap();
        let point = point();
        let key = cell_key(1_000, &point);
        let rendered = rendered_for(&point);
        let path = dir.join(format!("{key:016x}.cell"));
        // A bare cell, as older builds wrote it.
        fs::write(&path, &rendered).unwrap();
        assert!(store.load_cell(key, &point).is_none());
        // A torn cell.
        store.store_cell(key, &rendered).unwrap();
        let framed = fs::read(&path).unwrap();
        fs::write(&path, &framed[..framed.len() - 3]).unwrap();
        assert!(store.load_cell(key, &point).is_none());
        // An intact cell filed under another key.
        store.store_cell(key ^ 1, &rendered).unwrap();
        fs::rename(dir.join(format!("{:016x}.cell", key ^ 1)), &path).unwrap();
        assert!(store.load_cell(key, &point).is_none());
        // Rewritten, it restores verbatim; no temp file is left behind.
        store.store_cell(key, &rendered).unwrap();
        assert_eq!(store.load_cell(key, &point).unwrap(), rendered);
        assert_eq!((store.hits(), store.misses()), (1, 3));
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_separate_every_content_component() {
        let base = point();
        let key = cell_key(1_000, &base);
        assert_eq!(key, cell_key(1_000, &base));
        assert_ne!(key, cell_key(2_000, &base));
        let mut predictor = base.clone();
        predictor.predictor = PredictorSpec::parse("gshare").unwrap();
        assert_ne!(key, cell_key(1_000, &predictor));
        let mut scheme = base.clone();
        scheme.scheme = SchemeSpec::parse("jrs-classic").unwrap();
        assert_ne!(key, cell_key(1_000, &scheme));
        let mut suite = base.clone();
        suite.suite = suites::cbp2_like().into();
        assert_ne!(key, cell_key(1_000, &suite));
        let mut scenario = base.clone();
        scenario.scenario = ScenarioSpec::RecoveryEnergy;
        assert_ne!(key, cell_key(1_000, &scenario));
        // The sampling plan is part of cell identity: a sampled suite keys
        // differently from the full suite, and differently per plan.
        use tage_traces::source::{SamplingSpec, SourceSuite};
        let plan = SamplingSpec {
            interval: 500,
            k: 4,
            seed: 1,
        };
        let mut sampled = base.clone();
        sampled.suite = SourceSuite::from(suites::cbp1_mini()).with_sampling(plan);
        let sampled_key = cell_key(1_000, &sampled);
        assert_ne!(key, sampled_key);
        let mut other_plan = base.clone();
        other_plan.suite =
            SourceSuite::from(suites::cbp1_mini()).with_sampling(SamplingSpec { seed: 2, ..plan });
        assert_ne!(sampled_key, cell_key(1_000, &other_plan));
    }

    #[test]
    fn keys_track_suite_content_not_just_names() {
        use tage_traces::source::SourceSuite;
        use tage_traces::writer::TraceWriter;
        let dir = temp_dir("content");
        fs::create_dir_all(&dir).unwrap();
        let spec = &suites::cbp1_mini().traces()[0].clone();
        fs::write(
            dir.join("t.trace"),
            TraceWriter::to_binary_bytes(&spec.generate(500)),
        )
        .unwrap();
        let mut point_a = point();
        point_a.suite = SourceSuite::from_dir(&dir).unwrap();
        let key_a = cell_key(1_000, &point_a);
        // Rewriting the trace with different content (length) under the
        // same path changes the suite digest, hence the key: the stale
        // cell can never be served for the new content.
        fs::write(
            dir.join("t.trace"),
            TraceWriter::to_binary_bytes(&spec.generate(800)),
        )
        .unwrap();
        let mut point_b = point();
        point_b.suite = SourceSuite::from_dir(&dir).unwrap();
        assert_eq!(point_a.suite.name(), point_b.suite.name());
        assert_ne!(key_a, cell_key(1_000, &point_b));
        // The same directory spelled relative to the working directory
        // names the same files, hence the same cell.
        let up: PathBuf = std::env::current_dir()
            .unwrap()
            .components()
            .skip(1)
            .map(|_| "..")
            .collect();
        let relative = up.join(dir.strip_prefix("/").unwrap());
        assert!(relative.is_relative());
        let mut point_c = point();
        point_c.suite = SourceSuite::from_dir(&relative).unwrap();
        assert_eq!(cell_key(1_000, &point_b), cell_key(1_000, &point_c));
        let _ = fs::remove_dir_all(&dir);
    }
}
