//! Wall-clock micro-benchmarks of the core data structures and the
//! end-to-end controllers.
//!
//! A plain `fn main()` harness (`harness = false`): each benchmark is
//! auto-calibrated to a target wall time, timed over several samples, and
//! reported as the best-sample nanoseconds per iteration. Hermetic — no
//! Criterion or any other registry dependency. Run with
//! `cargo bench -p fp-bench --bench micro` (append `-- --fast` for a
//! quick pass).

#![allow(clippy::disallowed_methods)] // wall-clock measurement is this harness's purpose

use std::time::{Duration, Instant};

use fp_core::{ForkConfig, ForkPathController, MergingAwareCache, PosMapLookasideBuffer};
use fp_crypto::{BlockCipher, Nonce, Xoshiro256};
use fp_dram::layout::{SubtreeLayout, TreeLayout};
use fp_dram::{AccessKind, DramConfig, DramSystem};
use fp_path_oram::cache::BucketCache;
use fp_path_oram::path::overlap_degree;
use fp_path_oram::{BaselineController, Block, Op, OramConfig, Stash};

/// Target per-sample duration; `--fast` shrinks it for smoke runs.
fn sample_budget() -> Duration {
    if std::env::args().any(|a| a == "--fast") {
        Duration::from_millis(20)
    } else {
        Duration::from_millis(100)
    }
}

/// Times `f`, auto-calibrating the iteration count so one sample fills the
/// budget, and prints the best of `SAMPLES` samples.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    const SAMPLES: usize = 5;
    let budget = sample_budget();

    // Calibrate: grow the iteration count until one batch exceeds ~10% of
    // the budget, then scale to fill it.
    let mut iters: u64 = 1;
    let per_iter = loop {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= budget / 10 || iters >= 1 << 24 {
            break elapsed.as_nanos().max(1) as u64 / iters;
        }
        iters *= 4;
    };
    let iters = (budget.as_nanos() as u64 / per_iter.max(1)).clamp(1, 1 << 26);

    let mut best_ns = f64::INFINITY;
    for _ in 0..SAMPLES {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        best_ns = best_ns.min(ns);
    }
    println!("{name:<44} {best_ns:>12.1} ns/iter   ({iters} iters/sample)");
}

fn bench_crypto() {
    let cipher = BlockCipher::new([7; 32]);
    let block = vec![0xAB; 64];
    let mut counter = 0u64;
    bench("crypto/encrypt_64B_block", || {
        counter += 1;
        cipher.encrypt(Nonce::new(counter, 1), &block)
    });
}

fn bench_path_math() {
    let mut rng = Xoshiro256::new(3);
    let pairs: Vec<(u64, u64)> = (0..1024)
        .map(|_| (rng.next_below(1 << 24), rng.next_below(1 << 24)))
        .collect();
    bench("path/overlap_degree_1k_pairs", || {
        pairs
            .iter()
            .map(|&(x, y)| overlap_degree(24, x, y) as u64)
            .sum::<u64>()
    });
}

fn bench_stash_eviction() {
    let mut rng = Xoshiro256::new(5);
    let blocks: Vec<Block> = (0..200)
        .map(|i| Block::new(i, rng.next_below(1 << 24), vec![0u8; 64]))
        .collect();
    bench("stash/plan_path_eviction_200_blocks", || {
        let mut s = Stash::new(256);
        for blk in &blocks {
            s.insert(blk.clone());
        }
        // A full refill plans every level from the leaf up to the root.
        (0..=24u32)
            .rev()
            .map(|level| s.plan_eviction_level(24, 12345, level, 4))
            .collect::<Vec<_>>()
    });
}

fn bench_plb() {
    // Capacity-1024 PLB under a mixed hit/miss stream drawn from a 2x
    // address range: roughly half the touches scan to a hit mid-buffer,
    // half miss and evict. This is the per-posmap-step hot path.
    let mut rng = Xoshiro256::new(17);
    let mut plb = PosMapLookasideBuffer::new(1024);
    for a in 0..1024 {
        plb.touch(a);
    }
    bench("plb/touch_hot_1k_capacity", || {
        let addr = rng.next_below(2048);
        plb.touch(addr)
    });
}

fn bench_fr_fcfs_large_batch() {
    // A 256-burst batch spread over rows and banks: the FR-FCFS arbiter's
    // per-pick work dominates (row-hit search + queue compaction).
    let mut rng = Xoshiro256::new(23);
    let mut dram = DramSystem::new(DramConfig::ddr3_1600(2));
    let row_bytes = dram.config().row_bytes;
    let mut now = 0u64;
    bench("dram/fr_fcfs_batch_256_bursts", || {
        let mut batch = Vec::with_capacity(256);
        for _ in 0..256 {
            // 64 distinct rows, bursts within a row clustered.
            let row = rng.next_below(64);
            let col = rng.next_below(32) * 64;
            batch.push((row * row_bytes + col, AccessKind::Read));
        }
        let r = dram.access_batch(now, &batch);
        now = r.batch_finish_ps;
        r.batch_finish_ps
    });
}

fn bench_fr_fcfs_scatter() {
    // 512 bursts over 4096 rows: almost every pick is a row miss, so the
    // arbiter's own work dominates — the regime where the old full-queue
    // rescan went quadratic. This is the posmap/metadata traffic shape
    // (scattered, low-locality) rather than the clustered path-read shape.
    let mut rng = Xoshiro256::new(29);
    let mut dram = DramSystem::new(DramConfig::ddr3_1600(2));
    let row_bytes = dram.config().row_bytes;
    let mut now = 0u64;
    bench("dram/fr_fcfs_scatter_512_bursts", || {
        let mut batch = Vec::with_capacity(512);
        for _ in 0..512 {
            let row = rng.next_below(4096);
            let col = rng.next_below(32) * 64;
            batch.push((row * row_bytes + col, AccessKind::Read));
        }
        let r = dram.access_batch(now, &batch);
        now = r.batch_finish_ps;
        r.batch_finish_ps
    });
}

fn bench_dram_batch() {
    let layout = SubtreeLayout::fit_row(25, 256, 8192);
    let mut rng = Xoshiro256::new(9);
    let mut dram = DramSystem::new(DramConfig::ddr3_1600(2));
    let mut now = 0u64;
    bench("dram/path_read_batch_100_bursts", || {
        let leaf = rng.next_below(1 << 24);
        let mut batch = Vec::with_capacity(100);
        let mut node = (1u64 << 24) + leaf;
        while node >= 1 {
            let base = layout.bucket_address(node);
            for i in 0..4 {
                batch.push((base + i * 64, AccessKind::Read));
            }
            if node == 1 {
                break;
            }
            node >>= 1;
        }
        let r = dram.access_batch(now, &batch);
        now = r.batch_finish_ps;
        r.batch_finish_ps
    });
}

fn bench_mac() {
    let mut rng = Xoshiro256::new(11);
    let mut mac = MergingAwareCache::with_capacity_bytes(1 << 20, 256, 4, 7);
    bench("mac/insert_and_lookup", || {
        let level = 7 + (rng.next_below(6) as u32);
        let node = (1u64 << level) + rng.next_below(1 << level);
        mac.insert_on_write(node);
        mac.lookup_for_read(node)
    });
}

fn bench_controllers() {
    {
        let dram = DramSystem::new(DramConfig::ddr3_1600(2));
        let mut ctl = BaselineController::new(OramConfig::small_test(), dram, 1);
        let mut addr = 0u64;
        bench("controller/baseline_access", || {
            addr = (addr + 1) % 1000;
            ctl.access_sync(addr, Op::Read, vec![])
        });
    }
    {
        let dram = DramSystem::new(DramConfig::ddr3_1600(2));
        let mut ctl =
            ForkPathController::new(OramConfig::small_test(), ForkConfig::default(), dram, 1);
        let mut addr = 0u64;
        bench("controller/fork_access", || {
            addr = (addr + 1) % 1000;
            ctl.submit(addr, Op::Read, vec![], ctl.clock_ps());
            ctl.run_to_idle().len()
        });
    }
}

fn main() {
    println!("fp-bench micro (wall-clock, best of 5 samples)");
    bench_crypto();
    bench_path_math();
    bench_plb();
    bench_stash_eviction();
    bench_dram_batch();
    bench_fr_fcfs_large_batch();
    bench_fr_fcfs_scatter();
    bench_mac();
    bench_controllers();
}
