//! A GEHL-style predictor (GEometric History Length).

use tage_traces::snapshot::{fnv1a64, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::counter::SignedCounter;
use crate::history::HistoryRegister;
use crate::predictor::{Prediction, PredictorCore};
use crate::snapshot_util::{read_history, write_history};

/// A GEHL-style predictor: several tables of signed counters indexed with
/// hashes of the PC and geometrically increasing history lengths; the
/// prediction is the sign of the sum of the selected counters.
///
/// The O-GEHL predictor's *self-confidence* — comparing the absolute value
/// of the sum against the update threshold — is the storage-free baseline
/// the paper cites for pre-TAGE predictors (good PVN, poor SPEC). That
/// estimator is implemented in `tage-confidence::estimators` on top of the
/// margin this predictor reports.
///
/// # Example
///
/// ```
/// use tage_predictors::{GehlPredictor, PredictorCore};
///
/// let mut p = GehlPredictor::new(6, 10, 3, 120);
/// let pred = p.predict(0xabc0);
/// p.update(0xabc0, true, &pred);
/// ```
#[derive(Debug, Clone)]
pub struct GehlPredictor {
    tables: Vec<Vec<SignedCounter>>,
    index_bits: u32,
    history_lengths: Vec<usize>,
    history: HistoryRegister,
    /// Update threshold θ: train on a correct prediction whose |sum| ≤ θ.
    threshold: i32,
    counter_bits: u8,
}

impl GehlPredictor {
    /// Creates a GEHL predictor.
    ///
    /// * `num_tables` — number of component tables (including the L(0) = 0
    ///   bias table),
    /// * `index_bits` — each table has `2^index_bits` counters,
    /// * `min_history` — history length of the second table,
    /// * `max_history` — history length of the last table.
    ///
    /// # Panics
    ///
    /// Panics if `num_tables < 2`, `index_bits` is not in `1..=28`, or the
    /// history lengths are not a valid increasing range.
    pub fn new(num_tables: usize, index_bits: u32, min_history: usize, max_history: usize) -> Self {
        assert!(num_tables >= 2, "GEHL needs at least two tables");
        assert!(
            (1..=28).contains(&index_bits),
            "index_bits must be in 1..=28"
        );
        assert!(
            min_history >= 1 && max_history >= min_history,
            "history lengths must satisfy 1 <= min <= max"
        );
        let history_lengths = geometric_series(num_tables, min_history, max_history);
        let history = HistoryRegister::new(max_history.max(1));
        let threshold = num_tables as i32 * 2;
        GehlPredictor {
            tables: vec![vec![SignedCounter::new(4); 1 << index_bits]; num_tables],
            index_bits,
            history_lengths,
            history,
            threshold,
            counter_bits: 4,
        }
    }

    /// Creates a GEHL predictor from its declarative spec.
    ///
    /// # Panics
    ///
    /// Panics when the spec violates the constructor's parameter ranges.
    pub fn from_spec(spec: &crate::spec::GehlSpec) -> Self {
        Self::new(
            spec.tables,
            spec.index_bits,
            spec.min_history,
            spec.max_history,
        )
    }

    /// The geometric series of history lengths (first entry is 0: the bias
    /// table).
    pub fn history_lengths(&self) -> &[usize] {
        &self.history_lengths
    }

    /// The update threshold θ.
    pub fn threshold(&self) -> i32 {
        self.threshold
    }

    fn index(&self, table: usize, pc: u64) -> usize {
        let mask = (1u64 << self.index_bits) - 1;
        let length = self.history_lengths[table];
        let folded = if length == 0 {
            0
        } else {
            self.history.fold(length, self.index_bits as usize)
        };
        (((pc >> 2) ^ folded ^ (pc >> (3 + table as u64))) & mask) as usize
    }

    fn spec_string(&self) -> String {
        format!(
            "gehl|num_tables={}|index_bits={}|history_lengths={:?}|counter_bits={}",
            self.tables.len(),
            self.index_bits,
            self.history_lengths,
            self.counter_bits
        )
    }

    fn sum(&self, pc: u64) -> i32 {
        (0..self.tables.len())
            .map(|t| {
                let idx = self.index(t, pc);
                // Centered read: 2*ctr + 1 as in the original GEHL papers.
                2 * i32::from(self.tables[t][idx].value()) + 1
            })
            .sum()
    }
}

/// Computes `count` history lengths forming a geometric series from 0,
/// `min`, ..., `max` (the first table uses no history).
fn geometric_series(count: usize, min: usize, max: usize) -> Vec<usize> {
    let mut lengths = Vec::with_capacity(count);
    lengths.push(0);
    let steps = count - 1;
    if steps == 1 {
        lengths.push(max);
        return lengths;
    }
    let ratio = (max as f64 / min as f64).powf(1.0 / (steps as f64 - 1.0));
    for i in 0..steps {
        let l = (min as f64 * ratio.powi(i as i32) + 0.5) as usize;
        lengths.push(l.max(1));
    }
    // Force the exact endpoints.
    let last = lengths.len() - 1;
    lengths[1] = min;
    lengths[last] = max;
    lengths
}

impl PredictorCore for GehlPredictor {
    type Lookup = Prediction;

    fn predict(&mut self, pc: u64) -> Prediction {
        let sum = self.sum(pc);
        Prediction::new(sum >= 0, i64::from(sum.abs()))
    }

    fn update(&mut self, pc: u64, taken: bool, prediction: &Prediction) {
        let _ = prediction;
        let sum = self.sum(pc);
        let mispredicted = (sum >= 0) != taken;
        if mispredicted || sum.abs() <= self.threshold {
            for t in 0..self.tables.len() {
                let idx = self.index(t, pc);
                self.tables[t][idx].update(taken);
            }
        }
        self.history.push(taken);
    }

    fn storage_bits(&self) -> u64 {
        self.tables.len() as u64 * (1u64 << self.index_bits) * u64::from(self.counter_bits)
            + self.history.capacity() as u64
    }

    fn name(&self) -> String {
        format!(
            "gehl-{}x{}k",
            self.tables.len(),
            (1usize << self.index_bits) / 1024
        )
    }

    fn reset(&mut self) {
        // `geometric_series` pins the endpoints, so the stored lengths
        // reconstruct the constructor arguments exactly.
        let min = self.history_lengths[1];
        let max = *self.history_lengths.last().expect("at least two tables");
        *self = GehlPredictor::new(self.tables.len(), self.index_bits, min, max);
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(self.spec_digest());
        w.begin_section();
        for table in &self.tables {
            for ctr in table {
                w.write_i8(ctr.value());
            }
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
        let per_table = 1usize << self.index_bits;
        let mut values = Vec::with_capacity(self.tables.len() * per_table);
        for _ in 0..self.tables.len() * per_table {
            values.push(r.read_i8()?);
        }
        r.end_section()?;
        r.begin_section()?;
        let words = read_history(&mut r, self.history.words().len())?;
        r.end_section()?;
        r.finish()?;
        let mut flat = values.into_iter();
        for table in &mut self.tables {
            for ctr in table.iter_mut() {
                ctr.set(flat.next().expect("sized above"));
            }
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

    #[test]
    fn geometric_series_endpoints_and_monotonicity() {
        let s = geometric_series(6, 3, 100);
        assert_eq!(s[0], 0);
        assert_eq!(s[1], 3);
        assert_eq!(*s.last().unwrap(), 100);
        assert!(s.windows(2).all(|w| w[0] <= w[1]), "{s:?}");
        let two = geometric_series(2, 5, 50);
        assert_eq!(two, vec![0, 50]);
    }

    #[test]
    fn learns_biased_branch() {
        let mut p = GehlPredictor::new(5, 8, 2, 40);
        for _ in 0..200 {
            let pred = p.predict(0x1000);
            p.update(0x1000, true, &pred);
        }
        assert!(p.predict(0x1000).taken);
    }

    #[test]
    fn learns_periodic_pattern_with_history() {
        let mut p = GehlPredictor::new(6, 10, 2, 60);
        let pattern = [true, true, false, true, false, false];
        let mut wrong_late = 0;
        for i in 0..6000 {
            let taken = pattern[i % pattern.len()];
            let pred = p.predict(0x2000);
            if i > 4000 && pred.taken != taken {
                wrong_late += 1;
            }
            p.update(0x2000, taken, &pred);
        }
        assert!(wrong_late < 200, "wrong_late = {wrong_late}");
    }

    #[test]
    fn margin_reflects_training_confidence() {
        let mut p = GehlPredictor::new(5, 8, 2, 40);
        let early = p.predict(0x42).margin;
        for _ in 0..500 {
            let pred = p.predict(0x42);
            p.update(0x42, true, &pred);
        }
        assert!(p.predict(0x42).margin > early);
    }

    #[test]
    #[should_panic(expected = "GEHL needs at least two tables")]
    fn rejects_single_table() {
        GehlPredictor::new(1, 8, 2, 10);
    }

    #[test]
    fn storage_and_name() {
        let p = GehlPredictor::new(4, 8, 2, 30);
        assert_eq!(p.storage_bits(), 4 * 256 * 4 + 30);
        assert!(p.name().contains("gehl"));
        assert_eq!(p.history_lengths().len(), 4);
        assert!(p.threshold() > 0);
    }
}
