//! Hash partitioning of the streaming engine's ring state.
//!
//! A [`crate::StreamingPredictor`] keeps its per-node rings in `N ≥ 1`
//! partitions; [`shard_of`] names the partition that owns a node's ring,
//! and [`ShardStats`] reports one partition's counters. The engine, its
//! single witness, and the argument that every `N` serves the same bits
//! are documented in [`crate::stream`].
//!
//! Nothing persisted depends on the partition count: an artifact stores
//! the rings merged in node order, and ownership is recomputed when an
//! engine is built or resharded ([`crate::StreamingPredictor::reshard`]).
//! Durable checkpoints write one ring file per partition and merge them
//! on recovery, so they restore at any count too.

use ctdg::NodeId;

/// The owner partition of `node` under an `shards`-way partition.
///
/// A splitmix64-style finalizer avalanches the (dense) node ids so
/// consecutive ids spread across partitions instead of striping; the
/// function is pure and version-independent *within a process*, and
/// nothing persisted depends on it — rings are stored merged and
/// ownership is recomputed when an artifact loads, which is what makes
/// resharding-on-load free. A single partition owns every node without
/// hashing.
pub fn shard_of(node: NodeId, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    if shards == 1 {
        return 0;
    }
    let mut x = (node as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// A snapshot of one ring partition's serving counters
/// ([`crate::StreamingPredictor::shard_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Which partition this row describes.
    pub shard: usize,
    /// Nodes whose rings live on this partition (at least one entry).
    pub owned_nodes: usize,
    /// Edges with at least one endpoint owned here (ring writes).
    pub owned_edges: u64,
    /// Queries answered by this partition.
    pub queries_served: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_partitions_every_node() {
        for shards in [1usize, 2, 3, 7, 16] {
            let mut hit = vec![0usize; shards];
            for v in 0..10_000u32 {
                let s = shard_of(v, shards);
                assert!(s < shards);
                hit[s] += 1;
            }
            // The hash must actually spread dense ids: no shard may be
            // starved below half of a perfectly uniform share.
            let floor = 10_000 / shards / 2;
            for (s, &count) in hit.iter().enumerate() {
                assert!(count >= floor, "shard {s}/{shards} got {count} of 10000");
            }
        }
    }

    #[test]
    fn shard_of_is_stable() {
        // Routing is a pure function: the same node maps to the same shard
        // on every call (ingest and query sides must agree).
        for v in [0u32, 1, 17, 1 << 20, u32::MAX] {
            assert_eq!(shard_of(v, 7), shard_of(v, 7));
        }
    }

    #[test]
    fn zero_shards_is_rejected() {
        let dataset =
            crate::truncate_to_available(&datasets::synthetic_shift(30, 5), 0.5);
        let mut cfg = crate::SplashConfig::tiny();
        cfg.epochs = 1;
        let p = crate::StreamingPredictor::train_with_process(
            &dataset,
            &cfg,
            crate::FeatureProcess::Random,
        );
        let err = p.reshard(0).unwrap_err();
        assert!(matches!(err, crate::SplashError::InvalidConfig { .. }), "{err:?}");
    }
}
