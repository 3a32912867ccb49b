//! Declarative per-table predictor geometry.
//!
//! [`TageGeometry`] is the one description of a TAGE predictor: a fully
//! data-driven shape — per-table entry counts, tag widths, explicit history
//! vectors and hash-fold footprints — loadable from and savable to a small
//! JSON file (via the std-only `tage_traces::jsonish` helpers — no JSON
//! dependency), with exact storage accounting. The paper's Table-1 presets
//! ([`TageGeometry::small`], [`TageGeometry::medium`],
//! [`TageGeometry::large`]) are uniform geometries built in
//! [`crate::config`]; `geometries/*.json` holds them as files (pinned by
//! `tests/geometry_parity.rs`).

use core::fmt;
use std::path::Path;

use tage_traces::jsonish;
use tage_traces::snapshot::fnv1a64;

use crate::automaton::CounterAutomaton;
use crate::prediction::MAX_TAGGED_TABLES;

/// Geometry of one tagged component: entry count, tag width, the global
/// history length it consumes, and the widths of its three folded-history
/// registers (index XOR-fold plus the two tag folds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableGeometry {
    /// log2 of the number of entries of this component.
    pub index_bits: u32,
    /// Width of the partial tags, in bits.
    pub tag_bits: u32,
    /// Global history length consumed by this component.
    pub history_length: usize,
    /// Compressed width of the index folded-history register (the legacy
    /// uniform geometry uses `index_bits`).
    pub index_fold_bits: u32,
    /// Compressed width of the primary tag folded-history register (legacy:
    /// `tag_bits`).
    pub tag_fold_bits: u32,
    /// Compressed width of the secondary tag folded-history register,
    /// XORed in shifted left by one (legacy: `max(tag_bits - 1, 1)`).
    pub tag_fold2_bits: u32,
}

impl TableGeometry {
    /// The legacy fold footprints for an `(index_bits, tag_bits)` pair:
    /// index fold as wide as the index, tag folds of `tag_bits` and
    /// `tag_bits - 1` (never below one).
    pub fn uniform(index_bits: u32, tag_bits: u32, history_length: usize) -> Self {
        TableGeometry {
            index_bits,
            tag_bits,
            history_length,
            index_fold_bits: index_bits,
            tag_fold_bits: tag_bits,
            tag_fold2_bits: (tag_bits.saturating_sub(1)).max(1),
        }
    }

    /// Number of entries of this component.
    pub fn entries(&self) -> u64 {
        1u64 << self.index_bits
    }

    /// Storage of one entry in bits (counter + tag + useful).
    pub fn entry_bits(&self, counter_bits: u8, useful_bits: u8) -> u64 {
        u64::from(counter_bits) + u64::from(self.tag_bits) + u64::from(useful_bits)
    }
}

/// A complete, data-driven TAGE predictor geometry.
///
/// Every tagged component carries its own [`TableGeometry`], the history
/// vector is explicit (no geometric-series constraint), and an optional
/// path-history register can be folded into the index hash. Report names
/// are *derived* from the geometry ([`TageGeometry::name`]) so a renamed
/// preset can never drift from its storage accounting.
///
/// # Example
///
/// ```
/// use tage::TageGeometry;
///
/// let geometry = TageGeometry::small();
/// assert_eq!(geometry.num_tagged_tables(), 4);
/// assert_eq!(geometry.storage_bits(), 16 * 1024);
/// assert_eq!(geometry.name(), "TAGE-16K");
/// let json = geometry.to_json();
/// assert_eq!(TageGeometry::from_json(&json).unwrap(), geometry);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TageGeometry {
    /// Per-component geometry, ordered by strictly increasing history
    /// length (rank 0 = shortest history).
    pub tables: Vec<TableGeometry>,
    /// Width of the tagged prediction counters, in bits.
    pub counter_bits: u8,
    /// Width of the useful counters, in bits.
    pub useful_bits: u8,
    /// log2 of the number of entries of the bimodal base predictor.
    pub bimodal_index_bits: u32,
    /// Width of the bimodal counters, in bits.
    pub bimodal_counter_bits: u8,
    /// Width of the path-history register XORed into the index hash
    /// (0 disables path history — the legacy behaviour).
    pub path_history_bits: u32,
    /// Width of the `USE_ALT_ON_NA` counter, in bits.
    pub use_alt_on_na_bits: u8,
    /// Updates between two graceful useful-counter reset steps.
    pub useful_reset_period: u64,
    /// The counter-update automaton used by the tagged components.
    pub automaton: CounterAutomaton,
    /// Seed of the predictor's internal pseudo-random source.
    pub rng_seed: u64,
}

/// Schema version of the geometry JSON files.
pub const GEOMETRY_SCHEMA: u32 = 1;

/// Derives the canonical report name of a predictor from its storage
/// accounting: `TAGE-16K` for whole-Kbit budgets, `TAGE-{bits}b-{tables}T`
/// otherwise. This is the **single** place report names come from, so a
/// preset's name can never drift from its actual storage.
pub fn derived_name(storage_bits: u64, tagged_tables: usize) -> String {
    if storage_bits > 0 && storage_bits.is_multiple_of(1024) {
        format!("TAGE-{}K", storage_bits / 1024)
    } else {
        format!("TAGE-{storage_bits}b-{tagged_tables}T")
    }
}

impl TageGeometry {
    /// Number of tagged components.
    pub fn num_tagged_tables(&self) -> usize {
        self.tables.len()
    }

    /// The per-component history lengths, shortest first.
    pub fn history_lengths(&self) -> Vec<usize> {
        self.tables.iter().map(|t| t.history_length).collect()
    }

    /// The longest history length consumed by any component.
    pub fn max_history(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.history_length)
            .max()
            .unwrap_or(0)
    }

    /// The shortest history length consumed by any component.
    pub fn min_history(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.history_length)
            .min()
            .unwrap_or(0)
    }

    /// Number of entries of the bimodal base predictor.
    pub fn bimodal_entries(&self) -> usize {
        1 << self.bimodal_index_bits
    }

    /// Total predictor storage in bits: every tagged component's
    /// `entries × (counter + tag + useful)` plus the bimodal table. The
    /// handful of extra state bits are reported separately by
    /// [`TageGeometry::ancillary_bits`], as is conventional.
    pub fn storage_bits(&self) -> u64 {
        let tagged: u64 = self
            .tables
            .iter()
            .map(|t| t.entries() * t.entry_bits(self.counter_bits, self.useful_bits))
            .sum();
        tagged + self.bimodal_entries() as u64 * u64::from(self.bimodal_counter_bits)
    }

    /// Ancillary state in bits: global history, path history,
    /// `USE_ALT_ON_NA`, and the useful-reset tick counter.
    pub fn ancillary_bits(&self) -> u64 {
        self.max_history() as u64
            + u64::from(self.path_history_bits)
            + u64::from(self.use_alt_on_na_bits)
            + 20
    }

    /// The derived report name of this geometry (see [`derived_name`]).
    pub fn name(&self) -> String {
        derived_name(self.storage_bits(), self.num_tagged_tables())
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.tables.is_empty() {
            return Err("at least one tagged table is required".to_string());
        }
        if self.tables.len() > MAX_TAGGED_TABLES {
            return Err(format!(
                "more than {MAX_TAGGED_TABLES} tagged tables is not supported \
                 (the prediction scratch is sized for at most that many)"
            ));
        }
        for (t, table) in self.tables.iter().enumerate() {
            if !(1..=24).contains(&table.index_bits) {
                return Err(format!("table {t}: index_bits must be in 1..=24"));
            }
            if !(4..=16).contains(&table.tag_bits) {
                return Err(format!("table {t}: tag_bits must be in 4..=16"));
            }
            if table.history_length == 0 || table.history_length > 1024 {
                return Err(format!("table {t}: history_length must be in 1..=1024"));
            }
            for (what, bits) in [
                ("index_fold_bits", table.index_fold_bits),
                ("tag_fold_bits", table.tag_fold_bits),
                ("tag_fold2_bits", table.tag_fold2_bits),
            ] {
                if !(1..=32).contains(&bits) {
                    return Err(format!("table {t}: {what} must be in 1..=32"));
                }
            }
            if t > 0 && table.history_length <= self.tables[t - 1].history_length {
                return Err(format!(
                    "table {t}: history lengths must be strictly increasing \
                     (rank order is provider priority)"
                ));
            }
        }
        if !(2..=6).contains(&self.counter_bits) {
            return Err("counter_bits must be in 2..=6".to_string());
        }
        if !(1..=4).contains(&self.useful_bits) {
            return Err("useful_bits must be in 1..=4".to_string());
        }
        if !(1..=24).contains(&self.bimodal_index_bits) {
            return Err("bimodal_index_bits must be in 1..=24".to_string());
        }
        if !(1..=3).contains(&self.bimodal_counter_bits) {
            return Err("bimodal_counter_bits must be in 1..=3".to_string());
        }
        if self.path_history_bits > 32 {
            return Err("path_history_bits must be at most 32".to_string());
        }
        if self.use_alt_on_na_bits == 0 || self.use_alt_on_na_bits > 7 {
            return Err("use_alt_on_na_bits must be in 1..=7".to_string());
        }
        if self.useful_reset_period == 0 {
            return Err("useful_reset_period must be non-zero".to_string());
        }
        self.automaton.validate()?;
        Ok(())
    }

    /// The specification string hashed into the snapshot spec digest: the
    /// implementation marker plus **every** structural field of the
    /// geometry, per table. The counter automaton is deliberately excluded —
    /// adaptive runs mutate it at run time, so it travels in the snapshot
    /// payload instead. The derived name is excluded too (it is a function
    /// of the fields already folded in).
    pub fn spec_string(&self) -> String {
        let tables: Vec<String> = self
            .tables
            .iter()
            .map(|t| {
                format!(
                    "{}:{}:{}:{}:{}:{}",
                    t.index_bits,
                    t.tag_bits,
                    t.history_length,
                    t.index_fold_bits,
                    t.tag_fold_bits,
                    t.tag_fold2_bits
                )
            })
            .collect();
        format!(
            "tage-geom|ctr={}|useful={}|bim_index={}|bim_ctr={}|path={}|alt={}|reset={}|seed={}|tables=[{}]",
            self.counter_bits,
            self.useful_bits,
            self.bimodal_index_bits,
            self.bimodal_counter_bits,
            self.path_history_bits,
            self.use_alt_on_na_bits,
            self.useful_reset_period,
            self.rng_seed,
            tables.join(";"),
        )
    }

    /// FNV-1a-64 digest of [`TageGeometry::spec_string`] — the snapshot
    /// compatibility key: two geometries share a digest iff their predictors
    /// have interchangeable state layouts.
    pub fn spec_digest(&self) -> u64 {
        fnv1a64(self.spec_string().as_bytes())
    }

    /// Renders the geometry as its canonical JSON file form.
    ///
    /// The rendering is byte-stable: `from_json(g.to_json())` re-renders to
    /// the identical bytes, so committed geometry files never churn.
    pub fn to_json(&self) -> String {
        let mut tables = String::new();
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                tables.push_str(",\n");
            }
            tables.push_str(&format!(
                "  {{\"index_bits\": {}, \"tag_bits\": {}, \"history_length\": {}, \
                 \"index_fold_bits\": {}, \"tag_fold_bits\": {}, \"tag_fold2_bits\": {}}}",
                t.index_bits,
                t.tag_bits,
                t.history_length,
                t.index_fold_bits,
                t.tag_fold_bits,
                t.tag_fold2_bits
            ));
        }
        let automaton = match self.automaton {
            CounterAutomaton::Standard => "standard".to_string(),
            CounterAutomaton::ProbabilisticSaturation {
                log2_inverse_probability,
            } => format!("probabilistic:{log2_inverse_probability}"),
        };
        format!(
            "{{\n \"kind\": \"tage-geometry\",\n \"schema\": {},\n \"name\": \"{}\",\n \
             \"storage_bits\": {},\n \"counter_bits\": {},\n \"useful_bits\": {},\n \
             \"bimodal_index_bits\": {},\n \"bimodal_counter_bits\": {},\n \
             \"path_history_bits\": {},\n \"use_alt_on_na_bits\": {},\n \
             \"useful_reset_period\": {},\n \"automaton\": \"{}\",\n \
             \"rng_seed\": \"{:#018x}\",\n \"tables\": [\n{}\n ]\n}}\n",
            GEOMETRY_SCHEMA,
            jsonish::escape(&self.name()),
            self.storage_bits(),
            self.counter_bits,
            self.useful_bits,
            self.bimodal_index_bits,
            self.bimodal_counter_bits,
            self.path_history_bits,
            self.use_alt_on_na_bits,
            self.useful_reset_period,
            automaton,
            self.rng_seed,
            tables,
        )
    }

    /// Parses a geometry from its JSON file form and validates it.
    ///
    /// The `name` and `storage_bits` fields present in rendered files are
    /// *derived* annotations: they are re-derived (and thereby checked)
    /// rather than trusted — a hand-edited file whose `storage_bits` no
    /// longer matches its tables is rejected.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural or validation problem.
    pub fn from_json(json: &str) -> Result<Self, String> {
        if let Some(kind) = jsonish::string_field(json, "kind") {
            if kind != "tage-geometry" {
                return Err(format!("not a tage-geometry file (kind = {kind:?})"));
            }
        } else {
            return Err("missing \"kind\": \"tage-geometry\" marker".to_string());
        }
        let schema = number_u64(json, "schema")?;
        if schema != u64::from(GEOMETRY_SCHEMA) {
            return Err(format!(
                "unsupported geometry schema {schema} (supported: {GEOMETRY_SCHEMA})"
            ));
        }
        let automaton_token =
            jsonish::string_field(json, "automaton").ok_or("missing field automaton")?;
        let automaton = parse_automaton(&automaton_token)?;
        let rng_seed = jsonish::string_field(json, "rng_seed")
            .ok_or("missing field rng_seed (a hex string, e.g. \"0x1234\")")?;
        let rng_seed = parse_hex_u64(&rng_seed)?;

        let table_objects = jsonish::extract_array_objects(json, "tables");
        if table_objects.is_empty() {
            return Err("missing or empty tables array".to_string());
        }
        let mut tables = Vec::with_capacity(table_objects.len());
        for (i, object) in table_objects.iter().enumerate() {
            let in_table = |e: String| format!("table {i}: {e}");
            let index_bits = number(object, "index_bits").map_err(in_table)?;
            let tag_bits = number(object, "tag_bits").map_err(in_table)?;
            let history_length = number(object, "history_length").map_err(in_table)?;
            let defaults = TableGeometry::uniform(index_bits, tag_bits, history_length);
            let fold = |key, default| match jsonish::number_field(object, key) {
                None => Ok(default),
                Some(_) => number(object, key).map_err(in_table),
            };
            tables.push(TableGeometry {
                index_bits,
                tag_bits,
                history_length,
                index_fold_bits: fold("index_fold_bits", defaults.index_fold_bits)?,
                tag_fold_bits: fold("tag_fold_bits", defaults.tag_fold_bits)?,
                tag_fold2_bits: fold("tag_fold2_bits", defaults.tag_fold2_bits)?,
            });
        }

        let geometry = TageGeometry {
            tables,
            counter_bits: number(json, "counter_bits")?,
            useful_bits: number(json, "useful_bits")?,
            bimodal_index_bits: number(json, "bimodal_index_bits")?,
            bimodal_counter_bits: number(json, "bimodal_counter_bits")?,
            path_history_bits: number(json, "path_history_bits")?,
            use_alt_on_na_bits: number(json, "use_alt_on_na_bits")?,
            useful_reset_period: number(json, "useful_reset_period")?,
            automaton,
            rng_seed,
        };
        geometry.validate()?;
        if let Ok(declared) = number_u64(json, "storage_bits") {
            let actual = geometry.storage_bits();
            if declared != actual {
                return Err(format!(
                    "declared storage_bits {declared} does not match the tables' \
                     actual storage {actual} (the field is derived; fix or drop it)"
                ));
            }
        }
        Ok(geometry)
    }

    /// Loads and validates a geometry from a JSON file.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path for IO and parse failures alike.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the canonical JSON form to a file.
    ///
    /// # Errors
    ///
    /// Returns a message naming the path on IO failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), String> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

impl fmt::Display for TageGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: 1+{} tables, {} bits, hist {}..{}",
            self.name(),
            self.num_tagged_tables(),
            self.storage_bits(),
            self.min_history(),
            self.max_history()
        )
    }
}

/// Anything a TAGE predictor can be constructed from: a [`TageGeometry`]
/// or a reference to one (including `&dyn TageBlueprint`).
///
/// [`crate::TagePredictor::new`] and [`crate::LaneGroup::new`] take
/// `impl TageBlueprint`.
pub trait TageBlueprint {
    /// The explicit geometry this blueprint describes.
    fn tage_geometry(&self) -> TageGeometry;
}

impl TageBlueprint for TageGeometry {
    fn tage_geometry(&self) -> TageGeometry {
        self.clone()
    }
}

impl<B: TageBlueprint + ?Sized> TageBlueprint for &B {
    fn tage_geometry(&self) -> TageGeometry {
        (**self).tage_geometry()
    }
}

fn parse_automaton(token: &str) -> Result<CounterAutomaton, String> {
    if token == "standard" {
        return Ok(CounterAutomaton::Standard);
    }
    if let Some(exponent) = token.strip_prefix("probabilistic:") {
        let log2_inverse_probability: u32 = exponent
            .parse()
            .map_err(|_| format!("automaton: bad probability exponent {exponent:?}"))?;
        return Ok(CounterAutomaton::ProbabilisticSaturation {
            log2_inverse_probability,
        });
    }
    Err(format!(
        "unknown automaton {token:?} (expected \"standard\" or \"probabilistic:N\")"
    ))
}

fn parse_hex_u64(text: &str) -> Result<u64, String> {
    let digits = text
        .strip_prefix("0x")
        .or_else(|| text.strip_prefix("0X"))
        .unwrap_or(text);
    u64::from_str_radix(digits, 16).map_err(|_| format!("rng_seed: not a hex number: {text:?}"))
}

/// Pulls a required non-negative integer field out of a JSON object,
/// rejecting fractional values (every geometry field is integral).
fn number_u64(object: &str, key: &str) -> Result<u64, String> {
    let value = jsonish::number_field(object, key).ok_or_else(|| format!("missing field {key}"))?;
    if value < 0.0 || value.fract() != 0.0 || value > (1u64 << 53) as f64 {
        return Err(format!("field {key}: not a non-negative integer: {value}"));
    }
    Ok(value as u64)
}

/// [`number_u64`] narrowed to the field's type, rejecting values the type
/// cannot hold instead of truncating them.
fn number<T: TryFrom<u64>>(object: &str, key: &str) -> Result<T, String> {
    let value = number_u64(object, key)?;
    T::try_from(value).map_err(|_| format!("field {key}: {value} is out of range"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn presets() -> [TageGeometry; 3] {
        [
            TageGeometry::small(),
            TageGeometry::medium(),
            TageGeometry::large(),
        ]
    }

    #[test]
    fn presets_preserve_accounting_and_names() {
        let table_1 = [
            ("TAGE-16K", 4, 8, 9, 10, 3, 80),
            ("TAGE-64K", 7, 9, 11, 12, 5, 130),
            ("TAGE-256K", 8, 11, 10, 13, 5, 300),
        ];
        for (geometry, (name, tables, index, tag, bimodal, min, max)) in
            presets().into_iter().zip(table_1)
        {
            assert!(geometry.validate().is_ok());
            let tagged = tables as u64 * (1u64 << index) * (3 + tag + 2);
            assert_eq!(geometry.storage_bits(), tagged + (1u64 << bimodal) * 2);
            assert_eq!(geometry.ancillary_bits(), max as u64 + 4 + 20);
            assert_eq!(geometry.name(), name);
            assert_eq!(
                geometry.history_lengths(),
                crate::config::geometric_history_lengths(tables, min, max)
            );
            assert!(geometry
                .tables
                .iter()
                .all(|t| *t == TableGeometry::uniform(index as u32, tag as u32, t.history_length)));
        }
    }

    #[test]
    fn json_round_trip_is_byte_stable() {
        for geometry in presets() {
            let json = geometry.to_json();
            let parsed = TageGeometry::from_json(&json).expect("parses");
            assert_eq!(parsed, geometry);
            assert_eq!(parsed.to_json(), json, "re-render must be byte-identical");
        }
    }

    #[test]
    fn json_round_trip_covers_probabilistic_automaton_and_path_history() {
        let mut geometry = TageGeometry::small();
        geometry.automaton = CounterAutomaton::probabilistic(7);
        geometry.path_history_bits = 16;
        geometry.tables[2].index_fold_bits = 11;
        geometry.rng_seed = u64::MAX;
        let json = geometry.to_json();
        let parsed = TageGeometry::from_json(&json).expect("parses");
        assert_eq!(parsed, geometry);
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn fold_footprints_default_to_the_legacy_widths() {
        let json = r#"{
 "kind": "tage-geometry",
 "schema": 1,
 "counter_bits": 3,
 "useful_bits": 2,
 "bimodal_index_bits": 10,
 "bimodal_counter_bits": 2,
 "path_history_bits": 0,
 "use_alt_on_na_bits": 4,
 "useful_reset_period": 262144,
 "automaton": "standard",
 "rng_seed": "0x7a6e5eed0badf00d",
 "tables": [
  {"index_bits": 8, "tag_bits": 9, "history_length": 3},
  {"index_bits": 7, "tag_bits": 8, "history_length": 12}
 ]
}"#;
        let geometry = TageGeometry::from_json(json).expect("parses");
        assert_eq!(geometry.tables[0].index_fold_bits, 8);
        assert_eq!(geometry.tables[0].tag_fold_bits, 9);
        assert_eq!(geometry.tables[0].tag_fold2_bits, 8);
        assert_eq!(geometry.tables[1].index_fold_bits, 7);
        assert_eq!(geometry.tables[1].tag_fold2_bits, 7);
        assert_eq!(geometry.rng_seed, 0x7A6E_5EED_0BAD_F00D);
    }

    #[test]
    fn malformed_json_is_rejected_with_reasons() {
        let base = TageGeometry::small().to_json();
        for (mangle, expected) in [
            (
                base.replace("tage-geometry", "something-else"),
                "not a tage-geometry",
            ),
            (base.replace("\"schema\": 1", "\"schema\": 99"), "schema 99"),
            (
                base.replace("\"counter_bits\": 3", "\"counter_bits\": 9"),
                "counter_bits",
            ),
            (
                base.replace("\"automaton\": \"standard\"", "\"automaton\": \"magic\""),
                "unknown automaton",
            ),
            (
                base.replace("\"rng_seed\": \"0x", "\"rng_seed\": \"zz"),
                "rng_seed",
            ),
            (
                base.replace("\"storage_bits\": 16384", "\"storage_bits\": 999"),
                "storage_bits 999",
            ),
            (
                base.replace("\"counter_bits\": 3", "\"counter_bits\": 259"),
                "counter_bits: 259 is out of range",
            ),
            (
                base.replace("\"use_alt_on_na_bits\": 4", "\"use_alt_on_na_bits\": 260"),
                "use_alt_on_na_bits: 260 is out of range",
            ),
            (
                base.replacen("\"index_bits\": 8", "\"index_bits\": 4294967304", 1),
                "table 0: field index_bits: 4294967304 is out of range",
            ),
            (String::from("{}"), "missing"),
        ] {
            let err = TageGeometry::from_json(&mangle).expect_err(expected);
            assert!(err.contains(expected), "{expected:?} not in {err:?}");
        }
    }

    #[test]
    fn validation_rejects_bad_geometries() {
        let good = TageGeometry::small();

        let mut g = good.clone();
        g.tables.clear();
        assert!(g.validate().is_err());

        let mut g = good.clone();
        g.tables[1].history_length = g.tables[0].history_length;
        assert!(g.validate().unwrap_err().contains("strictly increasing"));

        let mut g = good.clone();
        g.tables[0].index_fold_bits = 0;
        assert!(g.validate().is_err());

        let mut g = good.clone();
        g.tables[0].tag_bits = 2;
        assert!(g.validate().is_err());

        let mut g = good.clone();
        g.tables[0].history_length = 0;
        assert!(g.validate().unwrap_err().contains("history_length"));

        let mut g = good.clone();
        g.tables[3].history_length = 1025;
        assert!(g.validate().unwrap_err().contains("history_length"));

        let mut g = good.clone();
        g.path_history_bits = 40;
        assert!(g.validate().is_err());

        let mut g = good;
        g.useful_reset_period = 0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn derived_names_encode_budget_and_tables() {
        assert_eq!(derived_name(16 * 1024, 4), "TAGE-16K");
        assert_eq!(derived_name(256 * 1024, 8), "TAGE-256K");
        assert_eq!(derived_name(16 * 1024 + 7, 4), "TAGE-16391b-4T");
        assert_eq!(derived_name(0, 1), "TAGE-0b-1T");
    }

    #[test]
    fn spec_string_folds_every_table() {
        let geometry = TageGeometry::small();
        let spec = geometry.spec_string();
        assert!(spec.starts_with("tage-geom|"));
        for table in &geometry.tables {
            assert!(
                spec.contains(&format!(":{}:", table.history_length)),
                "{spec}"
            );
        }
        // A per-table tweak that changes no aggregate statistic still moves
        // the digest.
        let mut tweaked = geometry.clone();
        tweaked.tables[1].index_fold_bits += 1;
        assert_ne!(tweaked.spec_digest(), geometry.spec_digest());
    }

    #[test]
    fn blueprint_is_implemented_for_geometries_and_refs() {
        let geometry = TageGeometry::small();
        assert_eq!(geometry.tage_geometry(), geometry);
        // The blanket &B impl, through explicit references and a trait
        // object.
        let geometry_ref_ref: &&TageGeometry = &&geometry;
        assert_eq!(geometry_ref_ref.tage_geometry(), geometry);
        let blueprint: &dyn TageBlueprint = &geometry;
        assert_eq!((&blueprint).tage_geometry(), geometry);
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let geometry = TageGeometry::medium();
        // A per-process name: test processes on one host must not race on
        // one file.
        let name = format!("tage-geometry-test-{}-roundtrip.json", std::process::id());
        let path = std::env::temp_dir().join(&name);
        geometry.save(&path).expect("save");
        let loaded = TageGeometry::load(&path).expect("load");
        assert_eq!(loaded, geometry);
        std::fs::remove_file(&path).expect("cleanup");
        let missing = TageGeometry::load(&path).unwrap_err();
        assert!(missing.contains(&name), "{missing}");
    }

    #[test]
    fn display_mentions_name_and_tables() {
        let geometry = TageGeometry::small();
        let text = format!("{geometry}");
        assert!(text.contains("TAGE-16K"));
        assert!(text.contains("1+4"));
    }
}
