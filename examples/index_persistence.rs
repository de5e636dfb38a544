//! Persisting and reloading an RLC index.
//!
//! Building the index is the expensive part (Table IV); production use
//! builds it offline, stores it next to the graph, and memory-maps or loads
//! it at query time. This example shows the binary round trip and verifies
//! that the reloaded index answers exactly like the original.
//!
//! Run with: `cargo run --release --example index_persistence`

use rlc::prelude::*;
use rlc::workloads::datasets::dataset_by_code;

fn main() {
    // A scaled-down stand-in of the paper's Web-NotreDame graph.
    let spec = dataset_by_code("WN").expect("WN is in the catalog");
    let graph = spec.generate(1.0 / 256.0, 7);
    println!(
        "WN stand-in: {} vertices, {} edges, {} labels",
        graph.vertex_count(),
        graph.edge_count(),
        graph.label_count()
    );

    // The parallel build produces the same bytes as the sequential one, so
    // persisted blobs are reproducible no matter how the index was built.
    let (index, stats) = build_index(&graph, &BuildConfig::new(2).with_parallel());
    println!(
        "built index in {:.2?} with {} entries",
        stats.duration,
        index.entry_count()
    );

    // Serialize to a compact binary blob (format v3, magic "RLC3": the
    // packed arrays as they sit in memory) and write it to a temporary file;
    // `try_to_bytes` reports field overflow instead of silently truncating.
    let blob = index.try_to_bytes().expect("index fits the binary format");
    let path = std::env::temp_dir().join("wn-standin.rlc");
    std::fs::write(&path, &blob).expect("write index blob");
    println!("wrote {} bytes to {}", blob.len(), path.display());

    // Reload and verify on a verified workload, driving both indexes through
    // the `ReachabilityEngine` trait (the batch path checks the whole
    // workload in one parallel call).
    let restored = rlc::index::RlcIndex::from_bytes(&std::fs::read(&path).expect("read blob"))
        .expect("valid index blob");
    let workload = generate_query_set(&graph, &QueryGenConfig::small(100, 100, 2, 3));
    let queries: Vec<Query> = workload.iter().map(|(q, _)| Query::from(q)).collect();
    let expected: Vec<Result<bool, QueryError>> = workload.iter().map(|(_, e)| Ok(e)).collect();
    let original_engine = IndexEngine::new(&graph, &index);
    let restored_engine = IndexEngine::new(&graph, &restored);
    let restored_answers = restored_engine.evaluate_batch(&queries);
    assert_eq!(restored_answers, expected);
    assert_eq!(restored_answers, original_engine.evaluate_batch(&queries));
    println!(
        "reloaded index answers all {} verified queries identically",
        workload.len()
    );

    // Generations are never part of the blob: the reloaded index gets a
    // fresh stamp, so plans prepared against the original re-prepare (and
    // cached plans are invalidated) instead of misreading catalog ids.
    assert_ne!(restored.generation(), index.generation());
    println!(
        "original generation {} != reloaded generation {} (stale plans re-prepare)",
        index.generation().value(),
        restored.generation().value()
    );
    std::fs::remove_file(&path).ok();
}
