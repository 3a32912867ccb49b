//! Regenerates the committed preset geometry files in `geometries/`.
//!
//! The three JSON files are `TageGeometry::{small,medium,large}` exactly —
//! `tests/geometry_parity.rs` pins the committed bytes to `to_json()` of the
//! corresponding preset, so a drive-by edit of either side fails CI. Run
//! this after an intentional preset change to refresh the files:
//!
//! Run with: `cargo run --release --example export_geometries`

use tage_confidence_suite::tage::TageGeometry;

fn main() {
    let presets = [
        ("geometries/tage-16k.json", TageGeometry::small()),
        ("geometries/tage-64k.json", TageGeometry::medium()),
        ("geometries/tage-256k.json", TageGeometry::large()),
    ];
    std::fs::create_dir_all("geometries").expect("create geometries/");
    for (path, geometry) in presets {
        geometry.save(path).expect("write geometry file");
        println!(
            "wrote {path}: {} ({} bits, digest {:016x})",
            geometry.name(),
            geometry.storage_bits(),
            geometry.spec_digest()
        );
    }
}
