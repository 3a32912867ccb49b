//! Predictor sanity checks on controlled micro-workloads, used to separate
//! "the TAGE implementation underperforms" from "the synthetic workload is
//! intrinsically unpredictable".

use tage::{TageGeometry, TagePredictor};
use tage_predictors::{BimodalPredictor, BranchPredictor, GsharePredictor, PerceptronPredictor};
use tage_traces::synthetic::{SyntheticTraceBuilder, WorkloadProfile};
use tage_traces::{SplitMix64, Trace};

fn run_tage(config: &TageGeometry, trace: &Trace, skip: usize) -> f64 {
    let mut p = TagePredictor::new(config.clone());
    let mut misses = 0u64;
    let mut total = 0u64;
    for (i, r) in trace.iter().filter(|r| r.kind.is_conditional()).enumerate() {
        let pred = p.predict(r.pc);
        if i >= skip {
            total += 1;
            if pred.taken != r.taken {
                misses += 1;
            }
        }
        p.update(r.pc, r.taken, &pred);
    }
    misses as f64 * 1000.0 / total as f64
}

fn run_other(p: &mut dyn BranchPredictor, trace: &Trace, skip: usize) -> f64 {
    let mut misses = 0u64;
    let mut total = 0u64;
    for (i, r) in trace.iter().filter(|r| r.kind.is_conditional()).enumerate() {
        let pred = p.predict(r.pc);
        if i >= skip {
            total += 1;
            if pred.taken != r.taken {
                misses += 1;
            }
        }
        p.update(r.pc, r.taken, &pred);
    }
    misses as f64 * 1000.0 / total as f64
}

fn main() {
    // 1. Interleaved deterministic patterns: 16 branches, each a short
    //    repeating pattern, executed in sequence. Fully predictable.
    let mut rng = SplitMix64::new(1);
    let mut records = Vec::new();
    let patterns: Vec<Vec<bool>> = (0..16)
        .map(|_| (0..6).map(|_| rng.chance(0.5)).collect())
        .collect();
    let mut positions = [0usize; 16];
    for _ in 0..20_000 {
        for b in 0..16 {
            let taken = patterns[b][positions[b]];
            positions[b] = (positions[b] + 1) % patterns[b].len();
            records.push(tage_traces::BranchRecord::conditional(
                0x1000 + b as u64 * 16,
                taken,
            ));
        }
    }
    let trace = Trace::from_records("patterns", records);
    println!("interleaved patterns (MKP, steady state):");
    println!(
        "  tage-16k   {:8.2}",
        run_tage(&TageGeometry::small(), &trace, 50_000)
    );
    println!(
        "  tage-256k  {:8.2}",
        run_tage(&TageGeometry::large(), &trace, 50_000)
    );
    println!(
        "  gshare-12  {:8.2}",
        run_other(&mut GsharePredictor::new(12, 12), &trace, 50_000)
    );
    println!(
        "  bimodal    {:8.2}",
        run_other(&mut BimodalPredictor::new(12), &trace, 50_000)
    );

    // 1b. Knock-out study: remove one behaviour family at a time from the
    //     integer profile to find where the misprediction floor comes from.
    let base = WorkloadProfile::integer_like();
    let mut variants = vec![("int-full", base.clone())];
    for family in ["loops", "biased", "pattern", "history", "path", "phased"] {
        let mut p = base.clone();
        match family {
            "loops" => p.mix.loop_weight = 0.0,
            "biased" => p.mix.biased_weight = 0.0,
            "pattern" => p.mix.pattern_weight = 0.0,
            "history" => p.mix.history_weight = 0.0,
            "path" => p.mix.path_weight = 0.0,
            _ => p.mix.phased_weight = 0.0,
        }
        variants.push((
            Box::leak(format!("int-no-{family}").into_boxed_str()) as &str,
            p,
        ));
    }
    let mut only_pattern = base.clone();
    only_pattern.mix.loop_weight = 0.0;
    only_pattern.mix.biased_weight = 0.0;
    only_pattern.mix.history_weight = 0.0;
    only_pattern.mix.path_weight = 0.0;
    only_pattern.mix.phased_weight = 0.0;
    variants.push(("int-only-pattern", only_pattern));
    let mut no_noise = base.clone();
    no_noise.noise = 0.0;
    variants.push(("int-no-noise", no_noise));
    let mut tight_locality = base.clone();
    tight_locality.routine_locality = 0.98;
    variants.push(("int-locality-98", tight_locality));
    println!("knock-out study (tage-64k MKP, steady state):");
    for (name, profile) in &variants {
        let trace = SyntheticTraceBuilder::new(*name, profile.clone(), 42).build(150_000);
        println!(
            "  {:<18} {:8.2}",
            name,
            run_tage(&TageGeometry::medium(), &trace, 50_000)
        );
    }

    // 2. The FP-like synthetic workload: TAGE vs the baselines.
    for (name, profile) in [
        ("fp_like", WorkloadProfile::fp_like()),
        ("integer_like", WorkloadProfile::integer_like()),
        ("server_like", WorkloadProfile::server_like()),
    ] {
        let trace = SyntheticTraceBuilder::new(name, profile, 42).build(150_000);
        println!("{name} workload (MKP, steady state):");
        println!(
            "  tage-16k   {:8.2}",
            run_tage(&TageGeometry::small(), &trace, 50_000)
        );
        println!(
            "  tage-64k   {:8.2}",
            run_tage(&TageGeometry::medium(), &trace, 50_000)
        );
        println!(
            "  tage-256k  {:8.2}",
            run_tage(&TageGeometry::large(), &trace, 50_000)
        );
        println!(
            "  gshare-14  {:8.2}",
            run_other(&mut GsharePredictor::new(14, 14), &trace, 50_000)
        );
        println!(
            "  perceptron {:8.2}",
            run_other(&mut PerceptronPredictor::new(512, 32), &trace, 50_000)
        );
        println!(
            "  bimodal    {:8.2}",
            run_other(&mut BimodalPredictor::new(13), &trace, 50_000)
        );
    }
}
