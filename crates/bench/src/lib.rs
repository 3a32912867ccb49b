//! Benchmark harness: the [`campaign`] cross-product runner behind
//! `tage-bench` and `tage-serve`, the paper's tables and figures as named
//! lists of campaign cells ([`paper`], `tage-bench --paper`), and shared
//! helpers for the remaining binaries.
//!
//! `estimators` is a standalone printout. It accepts an optional first
//! argument, the number of conditional branches to simulate per trace (the
//! traces in the paper are ~30 M instructions long; the default keeps a run
//! to seconds or minutes on a laptop).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod cellstore;
pub mod explore;
pub mod paper;
pub mod service;

/// Default number of conditional branches simulated per trace by
/// `tage-bench --paper`, `estimators` and `throughput`.
pub const DEFAULT_BRANCHES_PER_TRACE: usize = 200_000;

/// Reads the branches-per-trace count from the first CLI argument, or
/// `default` when there is none. A value that is not a count ends the
/// process with status 2 and a message naming it.
pub fn branches_from_args(default: usize) -> usize {
    branches_from(std::env::args().nth(1), default).unwrap_or_else(|error| {
        eprintln!("{error}");
        std::process::exit(2)
    })
}

fn branches_from(arg: Option<String>, default: usize) -> Result<usize, String> {
    arg.map_or(Ok(default), |value| {
        cli::parse_count("branches per trace", &value)
    })
}

/// The header every paper artefact and standalone experiment prints first.
pub fn header(what: &str, branches: usize) -> String {
    format!(
        "== {what} ==\nsynthetic CBP-1-like / CBP-2-like workloads, {branches} conditional branches per trace\n\n"
    )
}

pub mod cli {
    //! Tiny flag-parsing helpers shared by the bench binaries (the
    //! workspace carries no argument-parsing dependency).

    /// Pulls the value following `flag` from the argument iterator.
    pub fn require_value(
        args: &mut impl Iterator<Item = String>,
        flag: &str,
    ) -> Result<String, String> {
        args.next()
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// Parses a count argument, allowing `_` separators (`200_000`).
    pub fn parse_count(what: &str, value: &str) -> Result<usize, String> {
        value
            .replace('_', "")
            .parse()
            .map_err(|_| format!("{what}: not a number: {value}"))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn count_parsing_accepts_separators_and_rejects_garbage() {
            assert_eq!(parse_count("branches", "200_000"), Ok(200_000));
            assert_eq!(parse_count("branches", "42"), Ok(42));
            let error = parse_count("--workers", "four").unwrap_err();
            assert!(error.contains("--workers") && error.contains("four"));
        }

        #[test]
        fn require_value_reports_the_flag_name() {
            let mut args = vec!["x".to_string()].into_iter();
            assert_eq!(require_value(&mut args, "--out"), Ok("x".to_string()));
            assert!(require_value(&mut args, "--out")
                .unwrap_err()
                .contains("--out"));
        }
    }
}

/// Minimal structural helpers for hand-rolled JSON files (re-exported from
/// `tage_traces::jsonish`, where they moved so the `tage` crate can parse
/// geometry files without a dependency cycle).
pub use tage_traces::jsonish;

pub mod trajectory {
    //! Helpers for the `BENCH_throughput.json` benchmark-trajectory file.
    //!
    //! The file is an append-only series of measurement entries (see
    //! `docs/BENCHMARKS.md` for the schema): every `throughput` run appends
    //! one labelled entry, so the file records how hot-path performance moved
    //! across PRs. The workspace has no JSON dependency, so these helpers do
    //! the minimal structural work on the formats the `throughput` bin
    //! itself writes: extracting the existing entries (including migrating
    //! the schema-1 file that predates the trajectory) and re-rendering the
    //! file with a new entry appended.
    //!
    //! Re-running with the *same* label replaces the last entry instead of
    //! appending, so repeated default-label runs do not grow the file.

    /// Current schema version of the trajectory file.
    pub const SCHEMA_VERSION: u32 = 2;

    /// Label under which a schema-1 file's measurements are preserved when
    /// the file is first migrated to the trajectory schema.
    pub const LEGACY_LABEL: &str = "nested-vec baseline (schema 1)";

    use crate::jsonish::{self, extract_array_objects};

    /// Extracts the existing trajectory entries from a previously written
    /// `BENCH_throughput.json`, whatever its schema:
    ///
    /// * schema 2: the entries of the `trajectory` array, verbatim;
    /// * schema 1 (a bare `measurements` array): one synthesised entry
    ///   labelled [`LEGACY_LABEL`] wrapping those measurements.
    pub fn existing_entries(json: &str) -> Vec<String> {
        let entries = extract_array_objects(json, "trajectory");
        if !entries.is_empty() {
            return entries;
        }
        let measurements = extract_array_objects(json, "measurements");
        if measurements.is_empty() {
            return Vec::new();
        }
        vec![render_entry(LEGACY_LABEL, &measurements)]
    }

    /// Extracts an entry's `label` value (unescaped), if present.
    pub fn entry_label(entry: &str) -> Option<String> {
        jsonish::string_field(entry, "label")
    }

    /// Extracts the numeric `field` of the measurement named `name` inside a
    /// trajectory entry — e.g. the `branches_per_sec` of
    /// `engine_single_trace`, which the `throughput` bin's
    /// `--check-regression` mode compares against the latest committed
    /// milestone.
    pub fn entry_measurement(entry: &str, name: &str, field: &str) -> Option<f64> {
        extract_array_objects(entry, "measurements")
            .iter()
            .find(|m| jsonish::string_field(m, "name").as_deref() == Some(name))
            .and_then(|m| jsonish::number_field(m, field))
    }

    /// Renders one trajectory entry from a label and raw measurement
    /// objects.
    pub fn render_entry(label: &str, measurements: &[String]) -> String {
        let measurements: Vec<String> = measurements
            .iter()
            .map(|m| format!("    {}", m.trim()))
            .collect();
        format!(
            "  {{\n   \"label\": \"{}\",\n   \"measurements\": [\n{}\n   ]\n  }}",
            jsonish::escape(label),
            measurements.join(",\n")
        )
    }

    /// Renders the whole trajectory file.
    ///
    /// Entries extracted from an existing file start at their `{` (the
    /// extractor drops the surrounding indentation), so the first line is
    /// re-indented here to keep the rendered file stable across append
    /// cycles.
    pub fn render_file(workers: usize, entries: &[String]) -> String {
        let entries: Vec<String> = entries
            .iter()
            .map(|entry| {
                if entry.starts_with(' ') {
                    entry.clone()
                } else {
                    format!("  {entry}")
                }
            })
            .collect();
        format!(
            "{{\n \"bench\": \"throughput\",\n \"schema\": {},\n \"workers\": {},\n \"trajectory\": [\n{}\n ]\n}}\n",
            SCHEMA_VERSION,
            workers,
            entries.join(",\n")
        )
    }

    /// Appends `entry` to `entries`, replacing the last entry instead when
    /// it carries the same label (so re-runs update rather than grow the
    /// trajectory).
    pub fn push_entry(entries: &mut Vec<String>, entry: String) {
        let replace = entries
            .last()
            .and_then(|last| entry_label(last))
            .is_some_and(|last_label| Some(last_label) == entry_label(&entry));
        if replace {
            *entries.last_mut().expect("non-empty") = entry;
        } else {
            entries.push(entry);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        const LEGACY: &str = r#"{
 "bench": "throughput",
 "workers": 1,
 "measurements": [
  {"name": "engine_single_trace", "branches": 50000, "seconds": 0.010769, "branches_per_sec": 4642755},
  {"name": "suite_parallel", "branches": 100000, "seconds": 0.022130, "branches_per_sec": 4518823}
 ]
}"#;

        #[test]
        fn legacy_file_is_migrated_into_one_labelled_entry() {
            let entries = existing_entries(LEGACY);
            assert_eq!(entries.len(), 1);
            assert_eq!(entry_label(&entries[0]).as_deref(), Some(LEGACY_LABEL));
            assert!(entries[0].contains("engine_single_trace"));
            assert!(entries[0].contains("4642755"));
        }

        #[test]
        fn round_trip_preserves_entries() {
            let first = render_entry("a", &[r#"{"name": "x", "branches": 1}"#.to_string()]);
            let second = render_entry("b", &[r#"{"name": "y", "branches": 2}"#.to_string()]);
            let file = render_file(4, &[first.clone(), second.clone()]);
            let extracted = existing_entries(&file);
            assert_eq!(extracted.len(), 2);
            assert_eq!(entry_label(&extracted[0]).as_deref(), Some("a"));
            assert_eq!(entry_label(&extracted[1]).as_deref(), Some("b"));
            assert!(extracted[1].contains("\"y\""));
            // Re-rendering extracted entries reproduces the file verbatim,
            // so formatting cannot drift across append cycles.
            assert_eq!(render_file(4, &extracted), file);
        }

        #[test]
        fn labels_with_quotes_and_backslashes_round_trip() {
            let label = r#"fast "soa" \ run"#;
            let entry = render_entry(label, &["{}".to_string()]);
            assert_eq!(entry_label(&entry).as_deref(), Some(label));
            // The rendered file stays valid for the extractor and keeps the
            // entry intact on the next append cycle.
            let file = render_file(1, &[entry]);
            let extracted = existing_entries(&file);
            assert_eq!(extracted.len(), 1);
            assert_eq!(entry_label(&extracted[0]).as_deref(), Some(label));
            // Same-label replacement still works through the escaping.
            let mut entries = extracted;
            push_entry(
                &mut entries,
                render_entry(label, &[r#"{"v": 2}"#.to_string()]),
            );
            assert_eq!(entries.len(), 1);
            assert!(entries[0].contains("\"v\""));
        }

        #[test]
        fn push_entry_replaces_same_label_appends_new() {
            let mut entries = vec![render_entry("base", &["{}".to_string()])];
            push_entry(
                &mut entries,
                render_entry("current", &[r#"{"name": "v1"}"#.to_string()]),
            );
            assert_eq!(entries.len(), 2);
            push_entry(
                &mut entries,
                render_entry("current", &[r#"{"name": "v2"}"#.to_string()]),
            );
            assert_eq!(entries.len(), 2, "same label replaces the last entry");
            assert!(entries[1].contains("v2"));
            assert!(!entries[1].contains("v1"));
        }

        #[test]
        fn absent_fields_yield_no_entries() {
            assert!(existing_entries("{}").is_empty());
            assert!(existing_entries("not json at all").is_empty());
            assert_eq!(entry_label("{}"), None);
        }

        #[test]
        fn entry_measurement_extracts_named_rates() {
            let entries = existing_entries(LEGACY);
            let rate = entry_measurement(&entries[0], "engine_single_trace", "branches_per_sec");
            assert_eq!(rate, Some(4642755.0));
            let seconds = entry_measurement(&entries[0], "suite_parallel", "seconds");
            assert_eq!(seconds, Some(0.022130));
            assert_eq!(
                entry_measurement(&entries[0], "missing_measurement", "branches_per_sec"),
                None
            );
            assert_eq!(
                entry_measurement(&entries[0], "engine_single_trace", "missing_field"),
                None
            );
        }

        #[test]
        fn extraction_ignores_braces_inside_strings() {
            let tricky = r#"{"trajectory": [ {"label": "odd { ] value", "measurements": []} ]}"#;
            let entries = existing_entries(tricky);
            assert_eq!(entries.len(), 1);
            assert_eq!(entry_label(&entries[0]).as_deref(), Some("odd { ] value"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_used_without_args() {
        assert_eq!(branches_from(None, 100_000), Ok(100_000));
        assert_eq!(branches_from(Some("5_000".to_string()), 1), Ok(5_000));
    }

    #[test]
    fn a_bad_branch_count_is_an_error_naming_the_value() {
        let error = branches_from(Some("5k".to_string()), 200_000).unwrap_err();
        assert_eq!(error, "branches per trace: not a number: 5k");
    }
}
