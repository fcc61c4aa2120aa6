//! Pipeline stage: **merging-aware caching and deferred writeback**
//! (§3.5, §4.4).
//!
//! Owns everything that touches bucket bytes: the on-chip bucket cache
//! (none / treetop / merging-aware), the subtree-aligned DRAM layout, and
//! the burst-level batch generation for path reads and the leaf-to-root
//! refill stream. The controller deals only in bucket node ids and commit
//! times; this stage decides which of those become DRAM traffic.

use fp_dram::layout::{SubtreeLayout, TreeLayout};
use fp_dram::{AccessKind, DramSystem};
use fp_path_oram::cache::{BucketCache, NoCache, TreetopCache, WriteOutcome};
use fp_trace::{Counter, TraceHandle};

use crate::config::{CacheChoice, ForkConfig};
use crate::mac::MergingAwareCache;
use crate::pipeline::PipelineStage;

/// Statistics of the writeback stage — a view over the trace spine's
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WritebackStats {
    /// Path-read buckets served from the on-chip cache.
    pub cache_hits: u64,
    /// Path-read buckets that went to DRAM.
    pub cache_misses: u64,
    /// DRAM bursts read.
    pub dram_blocks_read: u64,
    /// DRAM bursts written.
    pub dram_blocks_written: u64,
    /// Buckets committed by refill streams (cached or written through).
    pub buckets_written: u64,
}

/// The writeback stage: bucket cache + DRAM batch generation.
#[derive(Debug)]
pub struct WritebackEngine {
    cache: Box<dyn BucketCache + Send>,
    layout: SubtreeLayout,
    bursts_per_bucket: u64,
    burst_bytes: u64,
    trace: TraceHandle,
    /// Reusable DRAM burst batch: path reads and bucket writes run on
    /// every access, so the batch is not reallocated per call.
    bursts: Vec<(u64, AccessKind)>,
}

impl WritebackEngine {
    /// Creates the stage from the fork cache choice and the memory
    /// geometry: `path_len` buckets per path of `bucket_bytes` each, DRAM
    /// rows of `row_bytes` accessed in `burst_bytes` bursts.
    pub fn new(
        fork: &ForkConfig,
        bucket_bytes: u64,
        path_len: u32,
        row_bytes: u64,
        burst_bytes: u64,
    ) -> Self {
        let cache: Box<dyn BucketCache + Send> = match fork.cache {
            CacheChoice::None => Box::new(NoCache),
            CacheChoice::Treetop { bytes } => {
                Box::new(TreetopCache::with_capacity_bytes(bytes, bucket_bytes))
            }
            CacheChoice::MergingAware { bytes, ways } => {
                let m1 = fork
                    .mac_bypass_levels
                    .unwrap_or_else(|| fork.derived_mac_bypass());
                // Clamp the cacheable window to the real tree: levels past
                // the leaf (path_len - 1) must not own cache sets.
                Box::new(MergingAwareCache::with_capacity_bytes_for_tree(
                    bytes,
                    bucket_bytes,
                    ways,
                    m1,
                    path_len.saturating_sub(1),
                ))
            }
        };
        Self {
            cache,
            layout: SubtreeLayout::fit_row(path_len, bucket_bytes, row_bytes),
            bursts_per_bucket: bucket_bytes.div_ceil(burst_bytes).max(1),
            burst_bytes,
            trace: TraceHandle::default(),
            bursts: Vec::new(),
        }
    }

    /// Attaches a shared trace spine; writeback counters report there
    /// from now on.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// DRAM reads for a path range, minus cache hits, FR-FCFS batched.
    /// Returns the batch finish time (or `now_ps` when every bucket hit
    /// the cache); the controller adds its pipeline latency on top.
    // fp-lint: hot-path
    pub fn read_path(&mut self, dram: &mut DramSystem, nodes: &[u64], now_ps: u64) -> u64 {
        self.bursts.clear();
        for &node in nodes {
            if self.cache.lookup_for_read(node) {
                self.trace.bump(Counter::CacheHits);
                continue;
            }
            self.trace.bump(Counter::CacheMisses);
            let base = self.layout.bucket_address(node);
            for i in 0..self.bursts_per_bucket {
                self.bursts
                    .push((base + i * self.burst_bytes, AccessKind::Read));
            }
        }
        if self.bursts.is_empty() {
            return now_ps;
        }
        self.trace
            .add(Counter::DramBlocksRead, self.bursts.len() as u64);
        dram.access_batch(now_ps, &self.bursts).batch_finish_ps
    }

    /// Commits one refill bucket through the cache; returns its commit
    /// time. A cached bucket commits instantly; a write-through or an
    /// eviction victim pays the DRAM write.
    pub fn write_bucket(&mut self, dram: &mut DramSystem, node: u64, t_ps: u64) -> u64 {
        self.trace.bump(Counter::BucketsWritten);
        match self.cache.insert_on_write(node) {
            WriteOutcome::Cached => t_ps,
            WriteOutcome::WriteThrough => self.write_bucket_dram(dram, node, t_ps),
            WriteOutcome::CachedEvicting { victim } => self.write_bucket_dram(dram, victim, t_ps),
        }
    }

    /// Buckets currently resident in the on-chip cache.
    pub fn resident(&self) -> usize {
        self.cache.resident()
    }

    // fp-lint: hot-path
    fn write_bucket_dram(&mut self, dram: &mut DramSystem, node: u64, t_ps: u64) -> u64 {
        let base = self.layout.bucket_address(node);
        self.bursts.clear();
        self.bursts.extend(
            (0..self.bursts_per_bucket).map(|i| (base + i * self.burst_bytes, AccessKind::Write)),
        );
        self.trace
            .add(Counter::DramBlocksWritten, self.bursts.len() as u64);
        dram.access_batch(t_ps, &self.bursts).batch_finish_ps
    }
}

impl PipelineStage for WritebackEngine {
    type Stats = WritebackStats;

    fn name(&self) -> &'static str {
        "writeback"
    }

    fn stats(&self) -> WritebackStats {
        WritebackStats {
            cache_hits: self.trace.counter(Counter::CacheHits),
            cache_misses: self.trace.counter(Counter::CacheMisses),
            dram_blocks_read: self.trace.counter(Counter::DramBlocksRead),
            dram_blocks_written: self.trace.counter(Counter::DramBlocksWritten),
            buckets_written: self.trace.counter(Counter::BucketsWritten),
        }
    }

    fn reset_stats(&mut self) {
        self.trace.reset_counters(&[
            Counter::CacheHits,
            Counter::CacheMisses,
            Counter::DramBlocksRead,
            Counter::DramBlocksWritten,
            Counter::BucketsWritten,
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_dram::DramConfig;

    fn dram() -> DramSystem {
        DramSystem::new(DramConfig::ddr3_1600(1))
    }

    fn engine(fork: &ForkConfig) -> WritebackEngine {
        let cfg = DramConfig::ddr3_1600(1);
        WritebackEngine::new(fork, 256, 11, cfg.row_bytes, cfg.burst_bytes)
    }

    #[test]
    fn uncached_path_read_hits_dram_per_bucket() {
        let fork = ForkConfig {
            cache: CacheChoice::None,
            ..ForkConfig::default()
        };
        let mut wb = engine(&fork);
        let mut d = dram();
        let nodes: Vec<u64> = (1..=8).collect();
        let finish = wb.read_path(&mut d, &nodes, 0);
        assert!(finish > 0);
        assert_eq!(wb.stats().cache_misses, 8);
        assert_eq!(wb.stats().cache_hits, 0);
        assert_eq!(
            wb.stats().dram_blocks_read % 8,
            0,
            "whole bursts per bucket"
        );
    }

    #[test]
    fn empty_read_batch_costs_no_dram_time() {
        let fork = ForkConfig {
            cache: CacheChoice::None,
            ..ForkConfig::default()
        };
        let mut wb = engine(&fork);
        let mut d = dram();
        assert_eq!(wb.read_path(&mut d, &[], 42), 42);
        assert_eq!(wb.stats().dram_blocks_read, 0);
    }

    #[test]
    fn cached_buckets_commit_instantly_and_hit_on_read() {
        let fork = ForkConfig {
            cache: CacheChoice::MergingAware {
                bytes: 64 << 10,
                ways: 4,
            },
            mac_bypass_levels: Some(2),
            ..ForkConfig::default()
        };
        let mut wb = engine(&fork);
        let mut d = dram();
        // A deep bucket (level >= m1) is cacheable by the MAC.
        let node = (1u64 << 8) + 3;
        let t = wb.write_bucket(&mut d, node, 1_000);
        assert_eq!(t, 1_000, "cached commit is instantaneous");
        assert_eq!(wb.stats().buckets_written, 1);
        let finish = wb.read_path(&mut d, &[node], 2_000);
        assert_eq!(finish, 2_000, "cache hit needs no DRAM");
        assert_eq!(wb.stats().cache_hits, 1);
        assert!(wb.resident() > 0);
    }

    #[test]
    #[should_panic(expected = "outside tree")]
    fn mac_window_is_clamped_to_tree_depth() {
        // A 64 KiB MAC on a 5-bucket path (leaf level 4): unclamped sizing
        // dedicates sets to levels 5..=9, so a (buggy) write to a node past
        // the leaf was silently absorbed by a phantom set and committed
        // instantly — this test did NOT panic on the pre-fix code. With the
        // depth threaded through, the MAC refuses the phantom bucket and the
        // layout rejects the nonexistent node loudly.
        let fork = ForkConfig {
            cache: CacheChoice::MergingAware {
                bytes: 64 << 10,
                ways: 4,
            },
            mac_bypass_levels: Some(2),
            ..ForkConfig::default()
        };
        let cfg = DramConfig::ddr3_1600(1);
        let mut wb = WritebackEngine::new(&fork, 256, 5, cfg.row_bytes, cfg.burst_bytes);
        let mut d = dram();
        // Real in-window levels cache and commit instantly.
        let real = (1u64 << 3) + 1;
        assert_eq!(wb.write_bucket(&mut d, real, 1_000), 1_000);
        let phantom = (1u64 << 6) + 1; // level 6 > leaf level 4
        let _ = wb.write_bucket(&mut d, phantom, 1_000);
    }

    #[test]
    fn no_cache_writes_through() {
        let fork = ForkConfig {
            cache: CacheChoice::None,
            ..ForkConfig::default()
        };
        let mut wb = engine(&fork);
        let mut d = dram();
        let t = wb.write_bucket(&mut d, 5, 0);
        assert!(t > 0, "write-through pays DRAM time");
        assert!(wb.stats().dram_blocks_written > 0);
        assert_eq!(wb.resident(), 0);
    }
}
