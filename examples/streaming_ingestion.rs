//! Out-of-core trace ingestion: simulate a trace far larger than the
//! reader's chunk without ever materializing it.
//!
//! The example stages the full streaming pipeline:
//!
//! 1. a synthetic workload is streamed **generator → disk** through
//!    `StreamingTraceWriter` (bounded batch buffer, no `Vec<BranchRecord>`
//!    of the whole trace anywhere);
//! 2. the file is streamed back **disk → engine** through a
//!    `BinaryFileSource` whose chunk holds a small fraction of the trace,
//!    so resident record memory is bounded by the chunk size;
//! 3. the result is checked bit-for-bit against the materialized path.
//!
//! Run with: `cargo run --release --example streaming_ingestion`
//! (run by `scripts/verify/campaign.sh`).

use tage_confidence_suite::sim::runner::{run_source, run_trace, RunOptions};
use tage_confidence_suite::tage::TageGeometry;
use tage_confidence_suite::traces::format::RECORD_BYTES;
use tage_confidence_suite::traces::source::{BinaryFileSource, BranchSource, SyntheticSource};
use tage_confidence_suite::traces::writer::StreamingTraceWriter;
use tage_confidence_suite::traces::{suites, BranchRecord};

/// Conditional branches to stream — the resulting file is ~50× larger than
/// the reader's chunk below.
const BRANCHES: usize = 200_000;

/// Records the file reader holds in memory at any moment.
const CHUNK_RECORDS: usize = 4_096;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = suites::cbp1_like()
        .trace("SERV-2")
        .expect("suite trace exists")
        .clone();
    let path = std::env::temp_dir().join(format!(
        "tage-streaming-ingestion-{}.trace",
        std::process::id()
    ));

    // 1. Generator → disk, through a bounded batch buffer.
    let mut source = SyntheticSource::from_spec(&spec, BRANCHES);
    let file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let mut writer = StreamingTraceWriter::new(file, spec.name())?;
    let mut batch = [BranchRecord::default(); 1024];
    loop {
        let filled = source.next_batch(&mut batch)?;
        if filled == 0 {
            break;
        }
        for record in &batch[..filled] {
            writer.push(record)?;
        }
    }
    let records_written = writer.records_written();
    writer.finish()?;
    let file_bytes = std::fs::metadata(&path)?.len();
    println!(
        "wrote {} records ({:.1} MiB) to {}",
        records_written,
        file_bytes as f64 / (1024.0 * 1024.0),
        path.display()
    );

    // 2. Disk → engine, holding one small chunk at a time.
    let mut reader = BinaryFileSource::open_with_chunk_records(&path, CHUNK_RECORDS)?;
    let total_records = reader.len_hint().expect("file length is known");
    assert!(
        total_records > CHUNK_RECORDS as u64 * 10,
        "the trace must dwarf the chunk for the demo to mean anything"
    );
    let config = TageGeometry::medium();
    let streamed = run_source(&config, &mut reader, &RunOptions::default())?;
    println!(
        "streamed {} conditional branches through a {}-record chunk (~{} KiB resident): \
         {:.3} MPKI",
        streamed.conditional_branches,
        CHUNK_RECORDS,
        CHUNK_RECORDS * RECORD_BYTES / 1024,
        streamed.mpki()
    );

    // 3. The streamed run is bit-identical to materializing the whole trace.
    let trace = spec.generate(BRANCHES);
    let materialized = run_trace(&config, &trace, &RunOptions::default());
    assert_eq!(streamed, materialized, "streaming must not change results");
    println!(
        "parity OK: streamed report equals the materialized run ({} records, {}x chunk size)",
        trace.len(),
        trace.len() / CHUNK_RECORDS
    );

    std::fs::remove_file(&path)?;
    Ok(())
}
