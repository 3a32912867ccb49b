//! Geometry parity suite — the pin for the committed preset geometry files.
//!
//! `geometries/{tage-16k,tage-64k,tage-256k}.json` are the file form of
//! `TageGeometry::{small,medium,large}`. Three contracts:
//!
//! 1. **Structural parity**: each committed file loads to exactly its
//!    preset — same value, same spec digest.
//! 2. **Byte stability**: the committed bytes equal the canonical
//!    `to_json()` rendering, so the files cannot drift from the renderer
//!    (regenerate with `cargo run --example export_geometries`).
//! 3. **Behavioral parity**: a predictor built from a loaded geometry file
//!    is bit-identical to one built from the preset constructor —
//!    predictions, internal RNG evolution, and snapshot bytes all match
//!    over a trained run.

use tage_confidence_suite::tage::{TageGeometry, TagePredictor};
use tage_confidence_suite::traces::SplitMix64;

/// The committed files and the presets they mirror.
fn presets() -> [(&'static str, TageGeometry); 3] {
    [
        ("geometries/tage-16k.json", TageGeometry::small()),
        ("geometries/tage-64k.json", TageGeometry::medium()),
        ("geometries/tage-256k.json", TageGeometry::large()),
    ]
}

#[test]
fn committed_files_load_to_the_preset_geometries() {
    for (path, preset) in presets() {
        let loaded = TageGeometry::load(path).expect("committed geometry loads");
        assert_eq!(loaded, preset, "{path} drifted from its preset");
        assert_eq!(loaded.spec_digest(), preset.spec_digest(), "{path}");
        assert_eq!(loaded.storage_bits(), preset.storage_bits(), "{path}");
        assert_eq!(loaded.name(), preset.name(), "{path}");
    }
}

#[test]
fn committed_bytes_are_the_canonical_rendering() {
    for (path, _) in presets() {
        let bytes = std::fs::read_to_string(path).expect("committed geometry readable");
        let canonical = TageGeometry::from_json(&bytes)
            .expect("committed geometry parses")
            .to_json();
        assert_eq!(
            bytes, canonical,
            "{path} is not byte-stable; regenerate with `cargo run --example export_geometries`"
        );
    }
}

#[test]
fn geometry_built_predictors_are_bit_identical_to_preset_constructors() {
    for (path, preset) in presets() {
        let geometry = TageGeometry::load(path).expect("committed geometry loads");
        let mut from_file = TagePredictor::new(geometry);
        let mut from_preset = TagePredictor::new(preset);
        assert_eq!(from_file.spec_digest(), from_preset.spec_digest(), "{path}");

        // A biased-with-noise stream long enough to train the tagged
        // tables and fire the probabilistic automaton's RNG.
        let mut rng = SplitMix64::new(0x9e07_e706_e0a3_a1c5);
        for _ in 0..20_000 {
            let pc = 0x4000 + (rng.next_u64() % 64) * 4;
            let taken = pc.is_multiple_of(3) ^ rng.next_u64().is_multiple_of(8);
            let a = from_file.predict(pc);
            let b = from_preset.predict(pc);
            assert_eq!(a.taken, b.taken, "{path} diverged");
            from_file.update(pc, taken, &a);
            from_preset.update(pc, taken, &b);
        }
        // Snapshot bytes capture every table, history, and the RNG word:
        // byte equality is full-state equality.
        assert_eq!(from_file.snapshot(), from_preset.snapshot(), "{path}");
    }
}
