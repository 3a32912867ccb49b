//! Property-style tests on the core data structures and invariants of the
//! workspace.
//!
//! The workspace builds without network access, so instead of `proptest`
//! these tests drive each invariant over a few hundred deterministic
//! pseudo-random cases generated with the in-tree [`SplitMix64`] generator.
//! Every case is reproducible from the printed seed.

use tage_confidence_suite::confidence::{
    ConfidenceLevel, ConfidenceReport, PredictionClass, TageConfidenceClassifier,
};
use tage_confidence_suite::predictors::counter::{SignedCounter, UnsignedCounter};
use tage_confidence_suite::predictors::history::HistoryRegister;
use tage_confidence_suite::tage::folded::FoldedHistory;
use tage_confidence_suite::tage::{CounterAutomaton, TageGeometry, TagePredictor};
use tage_confidence_suite::traces::reader::TraceReader;
use tage_confidence_suite::traces::writer::TraceWriter;
use tage_confidence_suite::traces::{BranchKind, BranchRecord, SplitMix64, Trace};

/// Number of pseudo-random cases per property.
const CASES: u64 = 60;

/// Runs `body` over `CASES` independent pseudo-random generators.
fn for_each_case(property: &str, mut body: impl FnMut(&mut SplitMix64)) {
    for case in 0..CASES {
        let seed = 0x5eed_0000 + case * 0x9e37;
        let mut rng = SplitMix64::new(seed);
        // The seed is part of the panic message via this wrapper so that a
        // failing case can be replayed in isolation.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            eprintln!("property `{property}` failed for seed {seed:#x}");
            std::panic::resume_unwind(payload);
        }
    }
}

fn arbitrary_record(rng: &mut SplitMix64) -> BranchRecord {
    BranchRecord {
        pc: rng.next_u64(),
        target: rng.next_u64(),
        taken: rng.chance(0.5),
        kind: match rng.next_below(5) {
            0 => BranchKind::Conditional,
            1 => BranchKind::Unconditional,
            2 => BranchKind::Call,
            3 => BranchKind::Return,
            _ => BranchKind::Indirect,
        },
        gap: rng.next_u32(),
    }
}

fn arbitrary_records(rng: &mut SplitMix64, max: u64) -> Vec<BranchRecord> {
    let len = rng.next_below(max) as usize;
    (0..len).map(|_| arbitrary_record(rng)).collect()
}

#[test]
fn signed_counters_stay_in_range_under_any_update_sequence() {
    for_each_case("signed_counter_range", |rng| {
        let bits = 1 + rng.next_below(7) as u8;
        let mut counter = SignedCounter::new(bits);
        for _ in 0..rng.next_below(200) {
            counter.update(rng.chance(0.5));
            assert!(counter.value() >= counter.min());
            assert!(counter.value() <= counter.max());
            // The centered magnitude is always odd and bounded.
            let magnitude = counter.centered_magnitude();
            assert_eq!(magnitude % 2, 1);
            assert!(u16::from(magnitude) < (1u16 << bits));
        }
    });
}

#[test]
fn unsigned_counters_saturate_and_never_underflow() {
    for_each_case("unsigned_counter_range", |rng| {
        let bits = 1 + rng.next_below(8) as u8;
        let mut counter = UnsignedCounter::new(bits);
        for _ in 0..rng.next_below(200) {
            if rng.chance(0.5) {
                counter.increment();
            } else {
                counter.decrement();
            }
            assert!(counter.value() <= counter.max());
        }
    });
}

#[test]
fn incremental_folded_history_always_matches_functional_fold() {
    for_each_case("folded_history", |rng| {
        let original = 1 + rng.next_below(299) as usize;
        let compressed = 1 + rng.next_below(15) as usize;
        let mut history = HistoryRegister::new(original + 4);
        let mut fold = FoldedHistory::new(original, compressed);
        for _ in 0..1 + rng.next_below(120) {
            let taken = rng.chance(0.5);
            let evicted = history.bit(original - 1);
            fold.update(taken, evicted);
            history.push(taken);
            assert_eq!(fold.value(), fold.recompute(&history));
        }
    });
}

#[test]
fn trace_binary_round_trip_is_lossless() {
    for_each_case("binary_round_trip", |rng| {
        let records = arbitrary_records(rng, 200);
        // The same alphabet the proptest generator used: [a-zA-Z0-9._-].
        const NAME_CHARS: &[u8] =
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-";
        let name: String = (0..rng.next_below(25))
            .map(|_| char::from(NAME_CHARS[rng.next_below(NAME_CHARS.len() as u64) as usize]))
            .collect();
        let trace = Trace::from_records(name, records);
        let bytes = TraceWriter::to_binary_bytes(&trace);
        let back = TraceReader::read_binary(&bytes[..]).expect("round trip");
        assert_eq!(back.records(), trace.records());
        assert_eq!(back.name(), trace.name());
        assert_eq!(back.instruction_count(), trace.instruction_count());
    });
}

#[test]
fn trace_text_round_trip_is_lossless() {
    for_each_case("text_round_trip", |rng| {
        let records = arbitrary_records(rng, 100);
        let trace = Trace::from_records("text-prop", records);
        let text = TraceWriter::to_text_string(&trace);
        let back = TraceReader::read_text(text.as_bytes()).expect("round trip");
        assert_eq!(back.records(), trace.records());
    });
}

#[test]
fn splitmix_chance_is_always_within_bounds() {
    for_each_case("splitmix_bounds", |rng| {
        let seed = rng.next_u64();
        let p = rng.next_f64();
        let mut inner = SplitMix64::new(seed);
        let x = inner.next_f64();
        assert!((0.0..1.0).contains(&x));
        let _ = inner.chance(p);
        let bound = 1 + (seed | 1) % 1000;
        assert!(inner.next_below(bound) < bound);
    });
}

#[test]
fn tage_prediction_magnitude_is_always_a_valid_class() {
    for_each_case("classification_total", |rng| {
        let config = TageGeometry::small();
        let mut predictor = TagePredictor::new(config.clone());
        let classifier = TageConfidenceClassifier::new(&config);
        for _ in 0..1 + rng.next_below(200) {
            let pc = rng.next_u64();
            let taken = rng.chance(0.5);
            let prediction = predictor.predict(pc);
            let class = classifier.classify(&prediction);
            assert!(PredictionClass::ALL.contains(&class));
            // Level partition is total and consistent.
            assert!(class.level().classes().contains(&class));
            predictor.update(pc, taken, &prediction);
        }
    });
}

#[test]
fn tage_predict_never_mutates_state() {
    for_each_case("predict_pure", |rng| {
        let mut predictor = TagePredictor::new(TageGeometry::small());
        let pcs: Vec<u64> = (0..1 + rng.next_below(50))
            .map(|_| rng.next_u64())
            .collect();
        // Train a little first.
        for (i, pc) in pcs.iter().enumerate() {
            let prediction = predictor.predict(*pc);
            predictor.update(*pc, i % 3 != 0, &prediction);
        }
        for pc in &pcs {
            let a = predictor.predict(*pc);
            let b = predictor.predict(*pc);
            assert_eq!(a, b);
        }
    });
}

#[test]
fn automaton_update_never_leaves_counter_range() {
    for_each_case("automaton_range", |rng| {
        let start = rng.next_below(8) as i8 - 4;
        let taken = rng.chance(0.5);
        let exponent = rng.next_below(11) as u32;
        for automaton in [
            CounterAutomaton::Standard,
            CounterAutomaton::probabilistic(exponent),
        ] {
            let mut counter = SignedCounter::with_value(3, start);
            automaton.update_counter(&mut counter, taken, rng);
            assert!((-4..=3).contains(&counter.value()));
            // The counter never moves by more than one step.
            assert!((i16::from(counter.value()) - i16::from(start)).abs() <= 1);
        }
    });
}

#[test]
fn confidence_report_fractions_are_consistent() {
    for_each_case("report_fractions", |rng| {
        let mut report = ConfidenceReport::new();
        let events = 1 + rng.next_below(300);
        for _ in 0..events {
            let class = PredictionClass::ALL[rng.next_below(7) as usize];
            report.record(class, rng.chance(0.3));
        }
        let pcov_sum: f64 = PredictionClass::ALL.iter().map(|&c| report.pcov(c)).sum();
        assert!((pcov_sum - 1.0).abs() < 1e-9);
        let level_preds: u64 = ConfidenceLevel::ALL
            .iter()
            .map(|&l| report.level(l).predictions)
            .sum();
        assert_eq!(level_preds, events);
        for class in PredictionClass::ALL {
            let rate = report.mprate_mkp(class);
            assert!((0.0..=1000.0).contains(&rate));
        }
        let confusion = report.binary_confusion(&[ConfidenceLevel::High]);
        assert_eq!(confusion.total(), events);
    });
}

#[test]
fn level_only_report_entries_aggregate_like_classes() {
    // The level-only buckets used by the baseline estimators obey the same
    // accounting identities as the classed buckets.
    for_each_case("report_level_only", |rng| {
        let mut report = ConfidenceReport::new();
        let events = 1 + rng.next_below(300);
        let mut mispredictions = 0;
        for _ in 0..events {
            let level = ConfidenceLevel::ALL[rng.next_below(3) as usize];
            let mispredicted = rng.chance(0.3);
            mispredictions += u64::from(mispredicted);
            report.record_level(level, mispredicted);
        }
        let level_preds: u64 = ConfidenceLevel::ALL
            .iter()
            .map(|&l| report.level(l).predictions)
            .sum();
        assert_eq!(level_preds, events);
        assert_eq!(report.total().predictions, events);
        assert_eq!(report.total().mispredictions, mispredictions);
        let confusion = report.binary_confusion(&[ConfidenceLevel::High]);
        assert_eq!(confusion.total(), events);
        assert_eq!(
            confusion.high_correct + confusion.high_incorrect,
            report.level(ConfidenceLevel::High).predictions
        );
    });
}

#[test]
fn classifier_window_never_exceeds_configuration() {
    for_each_case("classifier_window", |rng| {
        let window = rng.next_below(17) as u32;
        let config = TageGeometry::small();
        let mut predictor = TagePredictor::new(config.clone());
        let mut classifier = TageConfidenceClassifier::with_window(&config, window);
        for i in 0..1 + rng.next_below(200) {
            let pc = 0x1000 + (u64::from(rng.chance(0.5)) + i % 7) * 64;
            let taken = rng.chance(0.5);
            let prediction = predictor.predict(pc);
            classifier.classify_and_observe(&prediction, taken);
            assert!(classifier.window_remaining() <= window);
            predictor.update(pc, taken, &prediction);
        }
    });
}
