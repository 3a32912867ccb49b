//! Snapshot parity suite — the pin for the predictor-state snapshot layer.
//!
//! Three contracts, each driven over deterministic pseudo-random cases in
//! the `tests/properties.rs` idiom (no proptest; every failing case is
//! replayable from the printed seed):
//!
//! 1. **Split parity**: for every predictor implementation (SoA TAGE,
//!    reference nested-Vec TAGE, gshare, perceptron, GEHL, bimodal, and the
//!    boxed baseline family), snapshot → restore → continue is bit-identical
//!    to straight-line simulation at arbitrary split points — branch 0,
//!    mid-stream, last branch — whether the restore target is a fresh core
//!    or a dirtied one, and multilane [`LaneGroup`] lanes restored from
//!    scalar snapshots stay parity-clean.
//! 2. **Corruption robustness**: truncated bytes, a flipped version byte, a
//!    wrong predictor-spec digest and a corrupted payload each fail with the
//!    precise byte-offset-carrying [`SnapshotError`] — no panics, and the
//!    failed restore leaves the target's state untouched (all-or-nothing).
//! 3. **Op-interleaving fuzz**: random interleavings of {run N branches,
//!    snapshot, restore, reset} never diverge from a shadow core that
//!    replays the surviving operation log from cold.

use tage_confidence_suite::predictors::spec::BaselinePredictorSpec;
use tage_confidence_suite::predictors::{
    BimodalPredictor, GehlPredictor, GsharePredictor, PerceptronPredictor, PredictionOutcome,
    PredictorCore,
};
use tage_confidence_suite::tage::{
    CounterAutomaton, LaneGroup, ReferenceTagePredictor, TageGeometry, TagePredictor,
};
use tage_confidence_suite::traces::snapshot::SnapshotError;
use tage_confidence_suite::traces::SplitMix64;

/// Number of pseudo-random cases per property. Each case exercises every
/// predictor implementation at several split points, so fewer cases than
/// `tests/properties.rs` keep the suite fast while still sweeping a wide
/// configuration space.
const CASES: u64 = 10;

/// Runs `body` over `CASES` independent pseudo-random generators.
fn for_each_case(property: &str, mut body: impl FnMut(&mut SplitMix64)) {
    for case in 0..CASES {
        let seed = 0x5eed_7000 + case * 0x9e37;
        let mut rng = SplitMix64::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            eprintln!("property `{property}` failed for seed {seed:#x}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// A branch stream over a small PC alphabet with per-PC bias plus noise, so
/// predictors actually train (and the TAGE allocator and probabilistic
/// automaton both fire) instead of seeing white noise.
/// A branch stream: `(pc, taken)` per conditional branch.
type Stream = Vec<(u64, bool)>;

fn arbitrary_stream(rng: &mut SplitMix64, len: u64) -> Stream {
    (0..len)
        .map(|_| {
            let pc = 0x4000 + rng.next_below(24) * 8;
            let bias = !(pc >> 3).is_multiple_of(3);
            let taken = if rng.chance(0.2) { !bias } else { bias };
            (pc, taken)
        })
        .collect()
}

/// Feeds `stream` through the core, returning the predicted direction of
/// every branch.
fn drive<P: PredictorCore>(core: &mut P, stream: &[(u64, bool)]) -> Vec<bool> {
    stream
        .iter()
        .map(|&(pc, taken)| {
            let lookup = core.predict(pc);
            let predicted = lookup.predicted_taken();
            core.update(pc, taken, &lookup);
            predicted
        })
        .collect()
}

/// The split-parity contract for one core implementation at one split
/// point: a core restored from the split snapshot — whether fresh or
/// dirtied by an unrelated stream first — predicts the tail identically to
/// the straight-line core and lands on the identical full state.
fn check_split_parity<P: PredictorCore>(
    label: &str,
    make: &dyn Fn() -> P,
    stream: &[(u64, bool)],
    dirt: &[(u64, bool)],
    split: usize,
) {
    let mut straight = make();
    drive(&mut straight, &stream[..split]);
    let snapshot = straight.snapshot();
    let expected_tail = drive(&mut straight, &stream[split..]);
    let expected_final = straight.snapshot();

    // (a) restore into a fresh core.
    let mut fresh = make();
    fresh
        .restore(&snapshot)
        .unwrap_or_else(|error| panic!("{label}: restore into fresh core: {error}"));
    assert_eq!(
        drive(&mut fresh, &stream[split..]),
        expected_tail,
        "{label}: tail predictions after restore into fresh core, split {split}"
    );
    assert_eq!(
        fresh.snapshot(),
        expected_final,
        "{label}: final state after restore into fresh core, split {split}"
    );

    // (b) restore into a dirtied core: restoring must fully overwrite
    // whatever the target had accumulated.
    let mut dirty = make();
    drive(&mut dirty, dirt);
    dirty
        .restore(&snapshot)
        .unwrap_or_else(|error| panic!("{label}: restore into dirtied core: {error}"));
    assert_eq!(
        drive(&mut dirty, &stream[split..]),
        expected_tail,
        "{label}: tail predictions after restore into dirtied core, split {split}"
    );
    assert_eq!(
        dirty.snapshot(),
        expected_final,
        "{label}: final state after restore into dirtied core, split {split}"
    );
}

/// Split points covering the edges the streaming engine produces: branch 0
/// (cold snapshot), branch 1, a random mid-stream point (mid-chunk for any
/// chunking), the last branch, and one past it (snapshot of the finished
/// run).
fn split_points(rng: &mut SplitMix64, len: usize) -> [usize; 5] {
    [
        0,
        1,
        1 + rng.next_below(len as u64 - 2) as usize,
        len - 1,
        len,
    ]
}

#[test]
fn snapshot_restore_continue_is_bit_identical_for_every_core() {
    for_each_case("snapshot_split_parity", |rng| {
        let stream = arbitrary_stream(rng, 260);
        let dirt = arbitrary_stream(rng, 90);

        // Randomized configurations, one per implementation per case.
        let tage_config = TageGeometry::small()
            .with_rng_seed(rng.next_u64())
            .with_automaton(CounterAutomaton::probabilistic(rng.next_below(11) as u32));
        let gshare_bits = (
            6 + rng.next_below(7) as u32,
            4 + rng.next_below(12) as usize,
        );
        let perceptron_dims = (
            16 << rng.next_below(3) as usize,
            8 + rng.next_below(17) as usize,
        );
        let gehl_dims = (
            3 + rng.next_below(3) as usize,
            6 + rng.next_below(5) as u32,
            24 + rng.next_below(40) as usize,
        );
        let bimodal_bits = 4 + rng.next_below(9) as u32;

        for split in split_points(rng, stream.len()) {
            check_split_parity(
                "tage-soa",
                &|| TagePredictor::new(tage_config.clone()),
                &stream,
                &dirt,
                split,
            );
            check_split_parity(
                "tage-reference",
                &|| ReferenceTagePredictor::new(tage_config.clone()),
                &stream,
                &dirt,
                split,
            );
            check_split_parity(
                "gshare",
                &|| GsharePredictor::new(gshare_bits.0, gshare_bits.1),
                &stream,
                &dirt,
                split,
            );
            check_split_parity(
                "perceptron",
                &|| PerceptronPredictor::new(perceptron_dims.0, perceptron_dims.1),
                &stream,
                &dirt,
                split,
            );
            check_split_parity(
                "gehl",
                &|| GehlPredictor::new(gehl_dims.0, gehl_dims.1, 2, gehl_dims.2),
                &stream,
                &dirt,
                split,
            );
            check_split_parity(
                "bimodal",
                &|| BimodalPredictor::new(bimodal_bits),
                &stream,
                &dirt,
                split,
            );
        }

        // The boxed baseline family: snapshot/restore forwarded through
        // `Box<dyn BranchPredictor + Send>` — the heterogeneous-fleet path
        // the suite runner and campaign cells use.
        let split = split_points(rng, stream.len())[2];
        for spec in BaselinePredictorSpec::ALL {
            check_split_parity(spec.token(), &|| spec.build(), &stream, &dirt, split);
        }
    });
}

#[test]
fn multilane_lanes_restored_from_scalar_snapshots_stay_parity_clean() {
    for_each_case("snapshot_multilane_parity", |rng| {
        const LANES: usize = 4;
        let config = TageGeometry::small()
            .with_rng_seed(rng.next_u64())
            .with_automaton(CounterAutomaton::probabilistic(rng.next_below(11) as u32));

        // Warm K scalar predictors on distinct streams and snapshot each.
        let mut scalars: Vec<TagePredictor> = (0..LANES)
            .map(|_| TagePredictor::new(config.clone()))
            .collect();
        for scalar in &mut scalars {
            let len = 80 + rng.next_below(120);
            let warmup = arbitrary_stream(rng, len);
            drive(scalar, &warmup);
        }
        let snapshots: Vec<Vec<u8>> = scalars.iter().map(TagePredictor::snapshot).collect();

        // Restore each snapshot into a lane of a lockstep group.
        let mut group = LaneGroup::new(config, LANES);
        for (k, snapshot) in snapshots.iter().enumerate() {
            group.arm(k);
            group.restore_lane(k, snapshot).expect("lane restore");
        }

        // Lockstep continuation must match the scalar twins bit for bit.
        let mut out = Vec::new();
        for _ in 0..100 {
            let pcs: Vec<u64> = (0..LANES)
                .map(|_| 0x4000 + rng.next_below(24) * 8)
                .collect();
            let takens: Vec<bool> = (0..LANES).map(|_| rng.chance(0.6)).collect();
            group.predict(&pcs, &mut out);
            for k in 0..LANES {
                let prediction = scalars[k].predict(pcs[k]);
                assert_eq!(out[k], prediction, "lane {k} prediction");
                scalars[k].update(pcs[k], takens[k], &prediction);
            }
            group.train(&takens, &out);
        }
        for (k, scalar) in scalars.iter().enumerate() {
            group.store_lane(k);
            assert_eq!(
                group.predictor(k).snapshot(),
                scalar.snapshot(),
                "lane {k} full state"
            );
        }
    });
}

#[test]
fn corrupted_snapshots_fail_with_byte_offsets_and_leave_state_untouched() {
    for_each_case("snapshot_corruption", |rng| {
        let config = TageGeometry::small().with_rng_seed(rng.next_u64());
        let mut source = TagePredictor::new(config.clone());
        drive(&mut source, &arbitrary_stream(rng, 150));
        let snapshot = TagePredictor::snapshot(&source);

        // The restore target carries its own (different) trained state; a
        // failed restore must leave it bit-for-bit untouched.
        let mut target = TagePredictor::new(config.clone());
        drive(&mut target, &arbitrary_stream(rng, 60));
        let before = TagePredictor::snapshot(&target);

        // Truncation, anywhere: short buffers report Truncated at the read
        // offset, longer cuts surface as a checksum mismatch at the (moved)
        // checksum position. Never a panic, never a partial restore.
        for cut in [
            0,
            3,
            snapshot.len() - 1,
            rng.next_below(snapshot.len() as u64) as usize,
        ] {
            let error = TagePredictor::restore(&mut target, &snapshot[..cut]).unwrap_err();
            match error {
                SnapshotError::Truncated { offset } => assert!(offset <= cut, "cut {cut}"),
                SnapshotError::BadChecksum { offset, .. } => {
                    assert_eq!(offset, cut - 8, "cut {cut}")
                }
                other => panic!("cut {cut}: unexpected error {other}"),
            }
            assert_eq!(TagePredictor::snapshot(&target), before, "cut {cut}");
        }

        // A flipped version byte is rejected as an unsupported version.
        let mut flipped = snapshot.clone();
        flipped[4] ^= 0xFF;
        match TagePredictor::restore(&mut target, &flipped).unwrap_err() {
            SnapshotError::UnsupportedVersion(version) => assert_ne!(version, 1),
            other => panic!("unexpected error {other}"),
        }
        assert_eq!(TagePredictor::snapshot(&target), before);

        // A snapshot from a different predictor specification is rejected
        // by digest, with the digest's byte offset: different TAGE
        // configuration, and the reference implementation's snapshot (the
        // two implementations are deliberately not interchangeable).
        let medium = TagePredictor::new(TageGeometry::medium());
        for foreign in [
            TagePredictor::snapshot(&medium),
            ReferenceTagePredictor::new(config.clone()).snapshot(),
        ] {
            match TagePredictor::restore(&mut target, &foreign).unwrap_err() {
                SnapshotError::SpecMismatch {
                    offset,
                    expected,
                    found,
                } => {
                    assert_eq!(offset, 8);
                    assert_ne!(expected, found);
                }
                other => panic!("unexpected error {other}"),
            }
            assert_eq!(TagePredictor::snapshot(&target), before);
        }

        // A corrupted payload byte fails the trailing checksum, reported at
        // the checksum's position.
        let mut corrupt = snapshot.clone();
        let victim = 16 + rng.next_below((corrupt.len() - 24) as u64) as usize;
        corrupt[victim] ^= 0x55;
        match TagePredictor::restore(&mut target, &corrupt).unwrap_err() {
            SnapshotError::BadChecksum {
                offset,
                expected,
                found,
            } => {
                assert_eq!(offset, corrupt.len() - 8);
                assert_ne!(expected, found);
            }
            // Flipping a byte inside the version or digest fields surfaces
            // as those (earlier) validations instead.
            SnapshotError::SpecMismatch { offset, .. } => assert_eq!(offset, 8),
            other => panic!("victim {victim}: unexpected error {other}"),
        }
        assert_eq!(TagePredictor::snapshot(&target), before);

        // Pure garbage never panics.
        let garbage: Vec<u8> = (0..rng.next_below(200))
            .map(|_| rng.next_u64() as u8)
            .collect();
        assert!(TagePredictor::restore(&mut target, &garbage).is_err());
        assert_eq!(TagePredictor::snapshot(&target), before);

        // The same all-or-nothing contract holds for a baseline core.
        let mut gshare = GsharePredictor::new(10, 12);
        drive(&mut gshare, &arbitrary_stream(rng, 60));
        let gshare_before = gshare.snapshot();
        let other_spec = GsharePredictor::new(11, 12).snapshot();
        match gshare.restore(&other_spec).unwrap_err() {
            SnapshotError::SpecMismatch { offset, .. } => assert_eq!(offset, 8),
            other => panic!("unexpected error {other}"),
        }
        assert!(gshare.restore(&snapshot).is_err(), "TAGE bytes into gshare");
        assert_eq!(gshare.snapshot(), gshare_before);
    });
}

/// One fuzzed core: applies a random interleaving of {run, snapshot,
/// restore, reset} while maintaining the operation log a correct core would
/// have survived, then checks the core's full state equals a shadow core
/// replaying that log from cold.
fn fuzz_core<P: PredictorCore>(label: &str, make: &dyn Fn() -> P, rng: &mut SplitMix64) {
    let mut core = make();
    let mut applied: Vec<(u64, bool)> = Vec::new();
    let mut saved: Option<(Vec<u8>, Stream)> = None;
    for _ in 0..24 {
        match rng.next_below(8) {
            0..=4 => {
                let len = 1 + rng.next_below(60);
                let burst = arbitrary_stream(rng, len);
                drive(&mut core, &burst);
                applied.extend_from_slice(&burst);
            }
            5 => saved = Some((core.snapshot(), applied.clone())),
            6 => {
                if let Some((bytes, log)) = &saved {
                    core.restore(bytes)
                        .unwrap_or_else(|error| panic!("{label}: fuzz restore: {error}"));
                    applied = log.clone();
                }
            }
            _ => {
                core.reset();
                applied.clear();
            }
        }
    }
    let mut shadow = make();
    drive(&mut shadow, &applied);
    assert_eq!(
        core.snapshot(),
        shadow.snapshot(),
        "{label}: diverged from the replayed shadow after {} surviving ops",
        applied.len()
    );
}

#[test]
fn random_snapshot_op_interleavings_never_diverge_from_a_shadow_core() {
    for_each_case("snapshot_fuzz", |rng| {
        let config = TageGeometry::small()
            .with_rng_seed(rng.next_u64())
            .with_automaton(CounterAutomaton::probabilistic(rng.next_below(11) as u32));
        fuzz_core("tage-soa", &|| TagePredictor::new(config.clone()), rng);
        fuzz_core(
            "tage-reference",
            &|| ReferenceTagePredictor::new(config.clone()),
            rng,
        );
        fuzz_core("gshare", &|| GsharePredictor::new(10, 12), rng);
        fuzz_core("perceptron", &|| PerceptronPredictor::new(64, 16), rng);
        fuzz_core("gehl", &|| GehlPredictor::new(4, 9, 2, 40), rng);
        fuzz_core("bimodal", &|| BimodalPredictor::new(10), rng);
    });
}

#[test]
fn snapshots_are_keyed_to_the_geometry_not_the_construction_path() {
    // Two predictors built from the *same* geometry — one through the
    // preset constructor, one through its JSON file form — exchange
    // snapshots freely; any geometry difference (here: one bit of tag
    // width) flips the spec digest and is rejected at the digest offset.
    // This is what keeps warm-state caches honest when campaigns mix
    // `tage-16k`-style tokens with `geometry:` files.
    for_each_case("snapshot_geometry_digest", |rng| {
        let preset = TageGeometry::small().with_rng_seed(rng.next_u64());
        let geometry = TageGeometry::from_json(&preset.to_json()).expect("round trip");

        let mut from_preset = TagePredictor::new(preset.clone());
        drive(&mut from_preset, &arbitrary_stream(rng, 120));
        let snapshot = TagePredictor::snapshot(&from_preset);

        let mut from_geometry = TagePredictor::new(geometry.clone());
        TagePredictor::restore(&mut from_geometry, &snapshot)
            .expect("same geometry, different construction path");
        assert_eq!(TagePredictor::snapshot(&from_geometry), snapshot);

        // The small preset with one more tag bit.
        let reshaped = TageGeometry::uniform(4, 8, 10, 10, 3, 80).with_rng_seed(preset.rng_seed);
        assert_ne!(reshaped.spec_digest(), geometry.spec_digest());
        let mut other = TagePredictor::new(reshaped);
        let before = TagePredictor::snapshot(&other);
        match TagePredictor::restore(&mut other, &snapshot).unwrap_err() {
            SnapshotError::SpecMismatch {
                offset,
                expected,
                found,
            } => {
                assert_eq!(offset, 8);
                assert_ne!(expected, found);
            }
            other => panic!("unexpected error {other}"),
        }
        assert_eq!(TagePredictor::snapshot(&other), before);
    });
}
