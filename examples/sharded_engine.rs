//! Sharding a graph across per-shard RLC indexes.
//!
//! When one machine cannot hold the whole index, the graph is cut into
//! vertex-disjoint shards, each shard gets its own RLC index, and
//! cross-shard queries are stitched through the cut edges. This example
//! partitions a synthetic graph, answers a batch through the sharded engine
//! (asserting identity with the unsharded answers), persists the `RSH1`
//! manifest, reloads it, and shows how rebuilding a single shard
//! invalidates cached plans.
//!
//! Run with: `cargo run --release --example sharded_engine`

use rlc::graph::generate::{erdos_renyi, SyntheticConfig};
use rlc::prelude::*;

fn main() {
    let graph = erdos_renyi(&SyntheticConfig::new(3_000, 4.0, 6, 7));
    println!(
        "graph: {} vertices, {} edges, {} labels",
        graph.vertex_count(),
        graph.edge_count(),
        graph.label_count()
    );

    // Partition into 4 degree-aware shards and build one index per shard
    // (the per-shard builds fan out across rayon workers).
    let config = ShardBuildConfig::new(2, 4).with_strategy(PartitionStrategy::DegreeAware);
    let (sharded, build_stats) = ShardedIndex::build(&graph, &config).expect("valid shard count");
    let stats = sharded.stats();
    println!(
        "built {} shards in {:.2?} total: {} cut edges, {:.1} MiB resident",
        sharded.shard_count(),
        build_stats
            .iter()
            .map(|s| s.duration)
            .sum::<std::time::Duration>(),
        stats.cut_edges,
        stats.memory_bytes as f64 / (1024.0 * 1024.0),
    );
    for (i, shard) in stats.shards.iter().enumerate() {
        println!(
            "  shard {i}: {} vertices, {} intra edges, {} index entries, {}/{} portals in/out",
            shard.vertices,
            shard.edges,
            shard.index_entries,
            shard.entry_portals,
            shard.exit_portals,
        );
    }

    // The sharded engine is a drop-in ReachabilityEngine: the planner
    // prepares each distinct constraint once and the stitcher answers
    // cross-shard pairs exactly like the unsharded reference.
    let (plain, _) = build_index(&graph, &BuildConfig::new(2));
    let reference = IndexEngine::new(&graph, &plain);
    let engine = ShardedEngine::new(&graph, &sharded);
    let l = |i: u16| Label(i);
    let queries: Vec<Query> = (0..200u32)
        .map(|i| {
            let s = (i * 37) % 3_000;
            let t = (i * 101 + 13) % 3_000;
            match i % 3 {
                0 => Query::rlc(s, t, vec![l(0)]).unwrap(),
                1 => Query::rlc(s, t, vec![l(0), l(1)]).unwrap(),
                _ => Query::concat(s, t, vec![vec![l(1)], vec![l(0)]]).unwrap(),
            }
        })
        .collect();
    let plan = BatchPlan::new(&queries);
    let sharded_answers = plan.execute(&engine);
    assert_eq!(
        sharded_answers,
        plan.execute(&reference),
        "sharded answers are identical to the unsharded reference"
    );
    let reachable = sharded_answers.iter().filter(|a| **a == Ok(true)).count();
    println!(
        "batch of {}: {reachable} reachable, identical to unsharded",
        queries.len()
    );

    // Persist the RSH1 manifest (partition map, cut edges, per-shard RLC3
    // blobs with digests) and reload it against the same graph.
    let manifest = sharded.try_to_bytes().expect("manifest fits field widths");
    let path = std::env::temp_dir().join("er-3000.rsh");
    std::fs::write(&path, &manifest).expect("write manifest");
    let restored = ShardedIndex::from_bytes(&std::fs::read(&path).expect("read manifest"), &graph)
        .expect("valid manifest");
    println!(
        "manifest: {} bytes at {}; reload answers match: {}",
        manifest.len(),
        path.display(),
        BatchPlan::new(&queries).execute(&ShardedEngine::new(&graph, &restored)) == sharded_answers,
    );

    // Rebuilding any shard changes the folded plan identity, so cached
    // plans resolved against the old shard set are dropped, not re-served.
    let mut rebuilt = restored;
    let cache = PlanCache::new();
    {
        let engine = ShardedEngine::new(&graph, &rebuilt);
        let constraint = queries[0].constraint().clone();
        cache.prepare(&engine, &constraint).unwrap();
        cache.prepare(&engine, &constraint).unwrap();
    }
    rebuilt
        .rebuild_shard(0, &BuildConfig::new(2))
        .expect("rebuild shard 0");
    let engine = ShardedEngine::new(&graph, &rebuilt);
    cache.prepare(&engine, queries[0].constraint()).unwrap();
    let cache_stats = cache.stats();
    println!(
        "plan cache across a shard rebuild: {} hit(s), {} stale drop(s) — stale plans never re-served",
        cache_stats.hits, cache_stats.stale_drops,
    );
    assert_eq!(cache_stats.stale_drops, 1);
}
