//! Exact-parity suite: the structure-of-arrays [`TagePredictor`] against the
//! nested-`Vec` [`ReferenceTagePredictor`] kept as executable specification.
//!
//! The SoA refactor re-arranged the predictor's storage and replaced every
//! per-lookup heap allocation with fixed-size stack scratch. None of that is
//! allowed to change observable behaviour: these property-style tests (same
//! deterministic [`SplitMix64`] case-generation style as `properties.rs`, no
//! external deps) drive both implementations in lockstep and require
//! bit-identical [`TagePrediction`]s — including the per-table lookup
//! metadata — identical statistics, and identical `USE_ALT_ON_NA` movement.

use tage_confidence_suite::tage::{
    CounterAutomaton, ReferenceTagePredictor, TageGeometry, TagePrediction, TagePredictor,
};
use tage_confidence_suite::traces::{suites, SplitMix64};

/// Number of pseudo-random cases per property.
const CASES: u64 = 25;

/// Runs `body` over `CASES` independent pseudo-random generators, reporting
/// the failing seed so a case can be replayed in isolation.
fn for_each_case(property: &str, mut body: impl FnMut(&mut SplitMix64)) {
    for case in 0..CASES {
        let seed = 0x50a_0000 + case * 0x9e37;
        let mut rng = SplitMix64::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            eprintln!("property `{property}` failed for seed {seed:#x}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Draws a valid, deliberately varied configuration: table count, index
/// width, counter widths, automaton and reset period all move so the parity
/// sweep exercises allocation, aging, graceful reset and the probabilistic
/// automaton (which consumes the shared RNG stream).
fn arbitrary_config(rng: &mut SplitMix64) -> TageGeometry {
    let num_tables = 1 + rng.next_below(8) as usize;
    let max_history = 20 + rng.next_below(120) as usize;
    let automaton = if rng.chance(0.5) {
        CounterAutomaton::Standard
    } else {
        CounterAutomaton::probabilistic(1 + rng.next_below(7) as u32)
    };
    let index_bits = 4 + rng.next_below(5) as u32;
    let tag_bits = 6 + rng.next_below(6) as u32;
    let counter_bits = 2 + rng.next_below(3) as u8;
    let min_history = 2 + rng.next_below(4) as usize;
    TageGeometry {
        counter_bits,
        useful_reset_period: 128 + rng.next_below(512),
        automaton,
        rng_seed: rng.next_u64(),
        ..TageGeometry::uniform(
            num_tables,
            index_bits,
            tag_bits,
            10,
            min_history,
            max_history,
        )
    }
}

/// Asserts full observable equality after one lockstep step and returns the
/// (shared) prediction.
fn step_both(
    fast: &mut TagePredictor,
    reference: &mut ReferenceTagePredictor,
    pc: u64,
    taken: bool,
) -> TagePrediction {
    let fast_prediction = fast.predict(pc);
    let reference_prediction = reference.predict(pc);
    assert_eq!(
        fast_prediction, reference_prediction,
        "lookup diverged at pc {pc:#x}"
    );
    fast.update(pc, taken, &fast_prediction);
    reference.update(pc, taken, &reference_prediction);
    assert_eq!(fast.stats(), reference.stats(), "stats diverged");
    assert_eq!(
        fast.use_alt_on_na(),
        reference.use_alt_on_na(),
        "USE_ALT_ON_NA diverged"
    );
    fast_prediction
}

#[test]
fn soa_predictor_matches_reference_on_random_streams() {
    for_each_case("soa_vs_reference_random_streams", |rng| {
        let config = arbitrary_config(rng);
        let mut fast = TagePredictor::new(config.clone());
        let mut reference = ReferenceTagePredictor::new(config);
        // A small PC pool with mixed biases: plenty of hits, mispredictions
        // and therefore allocations and useful-counter traffic.
        let pool = 1 + rng.next_below(48);
        let bias = 0.1 + 0.8 * rng.next_f64();
        for _ in 0..4_000 {
            let pc = 0x40_0000 + rng.next_below(pool) * 4;
            let taken = rng.chance(if pc % 8 == 0 { bias } else { 1.0 - bias });
            step_both(&mut fast, &mut reference, pc, taken);
        }
        assert!(fast.stats().updates == 4_000);
    });
}

#[test]
fn soa_predictor_matches_reference_on_seeded_trace_mixes() {
    // Lockstep over real synthetic workloads: one trace from each suite per
    // paper preset, enough branches to trigger allocation and aging.
    let presets = [
        TageGeometry::small(),
        TageGeometry::medium(),
        TageGeometry::large().with_automaton(CounterAutomaton::paper_default()),
    ];
    for (i, config) in presets.into_iter().enumerate() {
        let suite = if i % 2 == 0 {
            suites::cbp1_like()
        } else {
            suites::cbp2_like()
        };
        let trace = suite.traces()[i % suite.traces().len()].generate(6_000);
        let mut fast = TagePredictor::new(config.clone());
        let mut reference = ReferenceTagePredictor::new(config);
        for record in trace.iter().filter(|r| r.kind.is_conditional()) {
            step_both(&mut fast, &mut reference, record.pc, record.taken);
        }
        assert_eq!(fast.stats(), reference.stats());
        assert!(
            fast.stats().allocations > 0,
            "sweep must exercise allocation"
        );
    }
}

#[test]
fn soa_parity_survives_graceful_useful_reset() {
    // A tiny reset period forces many graceful-reset sweeps, pinning the
    // flat clear_useful_bit pass against the nested per-table loops.
    let config = TageGeometry {
        useful_reset_period: 64,
        ..TageGeometry::small()
    };
    let mut fast = TagePredictor::new(config.clone());
    let mut reference = ReferenceTagePredictor::new(config);
    let mut rng = SplitMix64::new(0xdead_5eed);
    for i in 0..2_000u64 {
        let pc = 0x60_0000 + (i % 32) * 8;
        let taken = rng.chance(0.5);
        step_both(&mut fast, &mut reference, pc, taken);
    }
    assert!(fast.stats().useful_resets >= 10);
}

/// `predict` must keep its `&self` receiver: taking it through a shared
/// reference is a compile-time regression test that the hot path cannot
/// mutate (or allocate scratch inside) the predictor.
fn predict_through_shared_ref(predictor: &TagePredictor, pc: u64) -> TagePrediction {
    predictor.predict(pc)
}

#[test]
fn predict_takes_shared_self_and_stays_pure() {
    let mut predictor = TagePredictor::new(TageGeometry::medium());
    let mut rng = SplitMix64::new(7);
    for i in 0..3_000u64 {
        let pc = 0x70_0000 + (i % 64) * 4;
        let taken = rng.chance(0.7);
        let prediction = predictor.predict(pc);
        predictor.update(pc, taken, &prediction);
    }
    // Repeated shared-reference lookups are bit-identical, and interleaved
    // lookups of other PCs do not perturb them.
    let first = predict_through_shared_ref(&predictor, 0x70_0000);
    for other in 0..64u64 {
        let _ = predict_through_shared_ref(&predictor, 0x70_0000 + other * 4);
    }
    let second = predict_through_shared_ref(&predictor, 0x70_0000);
    assert_eq!(first, second, "predict must not mutate observable state");
    let stats_before = predictor.stats();
    let _ = predictor.predict(0x70_0004);
    assert_eq!(predictor.stats(), stats_before);
}
