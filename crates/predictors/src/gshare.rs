//! McFarling's gshare predictor.

use tage_traces::snapshot::{fnv1a64, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::counter::SignedCounter;
use crate::history::HistoryRegister;
use crate::predictor::{Prediction, PredictorCore};
use crate::snapshot_util::{read_history, write_history};

/// A gshare predictor: a table of 2-bit counters indexed by the XOR of the
/// branch PC and the global branch history.
///
/// The JRS confidence estimator (Jacobsen, Rotenberg and Smith) was defined
/// for exactly this kind of two-level predictor; gshare is therefore both a
/// baseline predictor and the natural host for the storage-based confidence
/// estimators implemented in the `tage-confidence` crate.
///
/// # Example
///
/// ```
/// use tage_predictors::{GsharePredictor, PredictorCore};
///
/// let mut p = GsharePredictor::new(12, 12);
/// let pred = p.predict(0x7700);
/// p.update(0x7700, true, &pred);
/// ```
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    table: Vec<SignedCounter>,
    index_bits: u32,
    history: HistoryRegister,
    history_bits: usize,
}

impl GsharePredictor {
    /// Creates a gshare predictor with `2^index_bits` counters and the given
    /// number of global history bits.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is not in `1..=28` or `history_bits` is zero or
    /// greater than 64.
    pub fn new(index_bits: u32, history_bits: usize) -> Self {
        assert!(
            (1..=28).contains(&index_bits),
            "index_bits must be in 1..=28"
        );
        assert!(
            (1..=64).contains(&history_bits),
            "history_bits must be in 1..=64"
        );
        GsharePredictor {
            table: vec![SignedCounter::new(2); 1 << index_bits],
            index_bits,
            history: HistoryRegister::new(history_bits),
            history_bits,
        }
    }

    /// Creates a gshare predictor from its declarative spec.
    ///
    /// # Panics
    ///
    /// Panics when the spec violates the constructor's parameter ranges.
    pub fn from_spec(spec: &crate::spec::GshareSpec) -> Self {
        Self::new(spec.index_bits, spec.history_bits)
    }

    /// The index the predictor would use for `pc` with the current history
    /// (exposed so that storage-based confidence estimators can share it).
    pub fn index(&self, pc: u64) -> usize {
        let hist = self
            .history
            .low_bits(self.history_bits.min(self.index_bits as usize));
        (((pc >> 2) ^ hist) & ((1 << self.index_bits) - 1)) as usize
    }

    /// Number of global history bits used.
    pub fn history_bits(&self) -> usize {
        self.history_bits
    }

    /// A copy of the current global history register.
    pub fn history(&self) -> &HistoryRegister {
        &self.history
    }

    fn spec_string(&self) -> String {
        format!(
            "gshare|index_bits={}|history_bits={}",
            self.index_bits, self.history_bits
        )
    }
}

impl PredictorCore for GsharePredictor {
    type Lookup = Prediction;

    fn predict(&mut self, pc: u64) -> Prediction {
        let ctr = self.table[self.index(pc)];
        Prediction::new(ctr.predict_taken(), i64::from(ctr.centered_magnitude()))
    }

    fn update(&mut self, pc: u64, taken: bool, _prediction: &Prediction) {
        let idx = self.index(pc);
        self.table[idx].update(taken);
        self.history.push(taken);
    }

    fn storage_bits(&self) -> u64 {
        self.table.len() as u64 * 2 + self.history_bits as u64
    }

    fn name(&self) -> String {
        format!("gshare-{}k-h{}", self.table.len() / 1024, self.history_bits)
    }

    fn reset(&mut self) {
        *self = GsharePredictor::new(self.index_bits, self.history_bits);
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(self.spec_digest());
        w.begin_section();
        for ctr in &self.table {
            w.write_i8(ctr.value());
        }
        w.end_section();
        w.begin_section();
        write_history(&mut w, &self.history);
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
        r.begin_section()?;
        let words = read_history(&mut r, self.history.words().len())?;
        r.end_section()?;
        r.finish()?;
        for (ctr, value) in self.table.iter_mut().zip(values) {
            ctr.set(value);
        }
        self.history.load_words(&words);
        Ok(())
    }

    fn spec_digest(&self) -> u64 {
        fnv1a64(self.spec_string().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(p: &mut GsharePredictor, pc: u64, outcomes: &[bool], reps: usize) {
        for _ in 0..reps {
            for &taken in outcomes {
                let pred = p.predict(pc);
                p.update(pc, taken, &pred);
            }
        }
    }

    #[test]
    fn learns_history_correlated_pattern() {
        // A strict alternation is unpredictable for bimodal but trivial for
        // gshare once the history disambiguates the two contexts.
        let mut gshare = GsharePredictor::new(12, 8);
        let mut bimodal = crate::BimodalPredictor::new(12);
        let pattern = [true, false];
        let mut gshare_wrong = 0;
        let mut bimodal_wrong = 0;
        for i in 0..2000 {
            let taken = pattern[i % 2];
            let gp = gshare.predict(0x9000);
            let bp = bimodal.predict(0x9000);
            if gp.taken != taken {
                gshare_wrong += 1;
            }
            if bp.taken != taken {
                bimodal_wrong += 1;
            }
            gshare.update(0x9000, taken, &gp);
            bimodal.update(0x9000, taken, &bp);
        }
        assert!(
            gshare_wrong * 4 < bimodal_wrong,
            "gshare {gshare_wrong} vs bimodal {bimodal_wrong}"
        );
    }

    #[test]
    fn learns_biased_branch() {
        let mut p = GsharePredictor::new(10, 10);
        train(&mut p, 0x100, &[true], 20);
        assert!(p.predict(0x100).taken);
    }

    #[test]
    fn index_depends_on_history() {
        let mut p = GsharePredictor::new(12, 12);
        let before = p.index(0x5555);
        let pred = p.predict(0x5555);
        p.update(0x5555, true, &pred);
        let after = p.index(0x5555);
        assert_ne!(before, after, "pushing history must change the index");
    }

    #[test]
    fn storage_accounts_table_and_history() {
        let p = GsharePredictor::new(10, 16);
        assert_eq!(p.storage_bits(), 1024 * 2 + 16);
    }

    #[test]
    #[should_panic(expected = "history_bits must be in 1..=64")]
    fn rejects_zero_history() {
        GsharePredictor::new(10, 0);
    }

    #[test]
    fn name_and_history_accessors() {
        let p = GsharePredictor::new(10, 12);
        assert_eq!(p.history_bits(), 12);
        assert_eq!(p.history().capacity(), 12);
        assert!(p.name().contains("gshare"));
    }
}
