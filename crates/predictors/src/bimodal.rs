//! Smith's PC-indexed 2-bit counter (bimodal) predictor.

use tage_traces::snapshot::{fnv1a64, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::counter::SignedCounter;
use crate::predictor::{Prediction, PredictorCore};

/// A stand-alone bimodal predictor: a table of 2-bit counters indexed by the
/// branch PC.
///
/// This is both the oldest baseline in the confidence-estimation literature
/// (Smith already observed that saturated counters are more trustworthy than
/// weak ones) and the base component of the TAGE predictor.
///
/// # Example
///
/// ```
/// use tage_predictors::{BimodalPredictor, PredictorCore};
///
/// let mut p = BimodalPredictor::new(12);
/// // Train a strongly-taken branch.
/// for _ in 0..4 {
///     let pred = p.predict(0x1000);
///     p.update(0x1000, true, &pred);
/// }
/// assert!(p.predict(0x1000).taken);
/// ```
#[derive(Debug, Clone)]
pub struct BimodalPredictor {
    table: Vec<SignedCounter>,
    index_bits: u32,
    counter_bits: u8,
}

impl BimodalPredictor {
    /// Creates a bimodal predictor with `2^index_bits` 2-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is zero or greater than 28.
    pub fn new(index_bits: u32) -> Self {
        Self::with_counter_bits(index_bits, 2)
    }

    /// Creates a bimodal predictor with counters of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is zero or greater than 28, or if the counter
    /// width is invalid.
    pub fn with_counter_bits(index_bits: u32, counter_bits: u8) -> Self {
        assert!(
            (1..=28).contains(&index_bits),
            "index_bits must be in 1..=28"
        );
        BimodalPredictor {
            table: vec![SignedCounter::new(counter_bits); 1 << index_bits],
            index_bits,
            counter_bits,
        }
    }

    /// Creates a bimodal predictor from its declarative spec.
    ///
    /// # Panics
    ///
    /// Panics when the spec violates the constructor's parameter ranges.
    pub fn from_spec(spec: &crate::spec::BimodalSpec) -> Self {
        Self::with_counter_bits(spec.index_bits, spec.counter_bits)
    }

    /// Number of table entries.
    pub fn entries(&self) -> usize {
        self.table.len()
    }

    fn index(&self, pc: u64) -> usize {
        // Drop the low bits that are constant for aligned instructions.
        ((pc >> 2) & ((1 << self.index_bits) - 1)) as usize
    }

    /// Reads the counter associated with `pc` (for observation-based
    /// confidence estimation).
    pub fn counter(&self, pc: u64) -> SignedCounter {
        self.table[self.index(pc)]
    }

    fn spec_string(&self) -> String {
        format!(
            "bimodal|index_bits={}|counter_bits={}",
            self.index_bits, self.counter_bits
        )
    }
}

impl PredictorCore for BimodalPredictor {
    type Lookup = Prediction;

    fn predict(&mut self, pc: u64) -> Prediction {
        let ctr = self.table[self.index(pc)];
        // Margin: distance from the weak threshold, i.e. the centered
        // magnitude of the counter.
        Prediction::new(ctr.predict_taken(), i64::from(ctr.centered_magnitude()))
    }

    fn update(&mut self, pc: u64, taken: bool, _prediction: &Prediction) {
        let idx = self.index(pc);
        self.table[idx].update(taken);
    }

    fn storage_bits(&self) -> u64 {
        self.table.len() as u64 * u64::from(self.counter_bits)
    }

    fn name(&self) -> String {
        format!("bimodal-{}k", self.table.len() / 1024)
    }

    fn reset(&mut self) {
        *self = BimodalPredictor::with_counter_bits(self.index_bits, self.counter_bits);
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(self.spec_digest());
        w.begin_section();
        for ctr in &self.table {
            w.write_i8(ctr.value());
        }
        w.end_section();
        w.finish()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(bytes, self.spec_digest())?;
        r.begin_section()?;
        let mut values = Vec::with_capacity(self.table.len());
        for _ in 0..self.table.len() {
            values.push(r.read_i8()?);
        }
        r.end_section()?;
        r.finish()?;
        for (ctr, value) in self.table.iter_mut().zip(values) {
            ctr.set(value);
        }
        Ok(())
    }

    fn spec_digest(&self) -> u64 {
        fnv1a64(self.spec_string().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_strongly_biased_branch() {
        let mut p = BimodalPredictor::new(10);
        for _ in 0..10 {
            let pred = p.predict(0x4000);
            p.update(0x4000, true, &pred);
        }
        let pred = p.predict(0x4000);
        assert!(pred.taken);
        assert!(pred.margin >= 3, "saturated counter expected");
    }

    #[test]
    fn distinct_pcs_use_distinct_entries() {
        let mut p = BimodalPredictor::new(10);
        for _ in 0..5 {
            let a = p.predict(0x4000);
            p.update(0x4000, true, &a);
            let b = p.predict(0x4004);
            p.update(0x4004, false, &b);
        }
        assert!(p.predict(0x4000).taken);
        assert!(!p.predict(0x4004).taken);
    }

    #[test]
    fn aliasing_occurs_beyond_table_size() {
        let mut p = BimodalPredictor::new(4); // 16 entries
        let a = 0x1000u64;
        let b = a + (16 << 2); // same index
        for _ in 0..5 {
            let pred = p.predict(a);
            p.update(a, true, &pred);
        }
        assert!(
            p.predict(b).taken,
            "aliased branch sees the trained counter"
        );
    }

    #[test]
    fn storage_accounting() {
        let p = BimodalPredictor::new(10);
        assert_eq!(p.storage_bits(), 1024 * 2);
        let p = BimodalPredictor::with_counter_bits(8, 3);
        assert_eq!(p.storage_bits(), 256 * 3);
        assert_eq!(p.entries(), 256);
    }

    #[test]
    #[should_panic(expected = "index_bits must be in 1..=28")]
    fn rejects_zero_index_bits() {
        BimodalPredictor::new(0);
    }

    #[test]
    fn counter_observation_matches_prediction() {
        let mut p = BimodalPredictor::new(8);
        for _ in 0..3 {
            let pred = p.predict(0x2000);
            p.update(0x2000, false, &pred);
        }
        let ctr = p.counter(0x2000);
        assert!(!ctr.predict_taken());
        assert!(ctr.is_saturated());
    }

    #[test]
    fn name_mentions_size() {
        assert!(BimodalPredictor::new(12).name().contains("bimodal"));
    }
}
