//! Replays a wire schedule in-process on bare engines, one per shard.
//!
//! Each shard's engine comes from `Scheme::build` with the shard's own
//! geometry and seed, as `fp_service` builds it, and is fed that shard's
//! requests with the admission loop of the service's trace-replay mode.
//! With [`Arrivals::Due`], due times become simulated arrivals; with
//! [`Arrivals::Saturated`], each shard keeps `batch_max` requests
//! outstanding whatever the due times. Either way the outcome is a pure
//! function of the seeded schedule.

use std::collections::VecDeque;

use fp_core::engine::OramEngine;
use fp_dram::{DramStats, DramSystem};
use fp_path_oram::{CipherMode, NewRequest, NoFeedback, Op, OramStats};
use fp_service::ServiceConfig;
use fp_sim::energy::{self, EnergyParams};
use fp_trace::{Counter, TraceHandle};
use fp_workloads::zipf::{self, ScheduledRequest};

use crate::procfs;
use crate::report::Outcome;
use crate::spans::{Span, Spans};

/// When a replayed request reaches its engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// At its due time in the schedule, as the wall-paced server sees it.
    Due,
    /// As soon as fewer than `batch_max` requests of its shard are
    /// outstanding: the engine never idles, so simulated time and energy
    /// measure the engine, not the offered rate.
    Saturated,
}

/// One replayed shard.
struct ShardRun {
    oram: OramStats,
    dram: DramStats,
    trace: TraceHandle,
    stash_high_water: usize,
    exec_ps: u64,
    energy_pj: u64,
}

/// All shards of one replay, with the host CPU it took.
pub struct Bare {
    shards: Vec<ShardRun>,
    pub cpu_ns: u64,
}

impl Bare {
    fn sum(&self, f: impl Fn(&ShardRun) -> u64) -> u64 {
        self.shards.iter().map(f).sum()
    }

    /// Mean simulated request latency over every shard, ns.
    pub fn latency_ns(&self) -> f64 {
        self.sum(|s| s.oram.sum_latency_ps) as f64
            / self.sum(|s| s.oram.completed_requests) as f64
            / 1e3
    }

    /// Simulated execution time summed over the shards' engines, ps: the
    /// engines' own cost, whatever the balance between the shards.
    pub fn exec_ps(&self) -> u64 {
        self.sum(|s| s.exec_ps)
    }

    /// Memory-system energy over every shard, pJ.
    pub fn energy_pj(&self) -> u64 {
        self.sum(|s| s.energy_pj)
    }

    /// ORAM accesses over every shard.
    pub fn accesses(&self) -> u64 {
        self.sum(|s| s.oram.oram_accesses)
    }

    /// The engine-internal per-layer metrics, over every shard.
    pub fn set_engine_layers(&self, out: &mut Outcome) {
        let oram = OramStats {
            completed_requests: self.sum(|s| s.oram.completed_requests),
            oram_accesses: self.accesses(),
            buckets_read: self.sum(|s| s.oram.buckets_read),
            buckets_written: self.sum(|s| s.oram.buckets_written),
            dram_blocks_read: self.sum(|s| s.oram.dram_blocks_read),
            dram_blocks_written: self.sum(|s| s.oram.dram_blocks_written),
            cache_hits: self.sum(|s| s.oram.cache_hits),
            cache_misses: self.sum(|s| s.oram.cache_misses),
            created_blocks: self.sum(|s| s.oram.created_blocks),
            stash_hits: self.sum(|s| s.oram.stash_hits),
            access_busy_ps: self.sum(|s| s.oram.access_busy_ps),
            sched_ready_reals: self.sum(|s| s.oram.sched_ready_reals),
            sched_rounds: self.sum(|s| s.oram.sched_rounds),
            dummies_replaced: self.sum(|s| s.oram.dummies_replaced),
            dummy_accesses: self.sum(|s| s.oram.dummy_accesses),
            ..OramStats::default()
        };
        let dram = DramStats {
            activations: self.sum(|s| s.dram.activations),
            row_hits: self.sum(|s| s.dram.row_hits),
            row_misses: self.sum(|s| s.dram.row_misses),
            ..DramStats::default()
        };
        let counter = |c: Counter| self.sum(|s| s.trace.counter(c)) as f64;
        let stash_high_water = self
            .shards
            .iter()
            .map(|s| s.stash_high_water)
            .max()
            .unwrap_or(0);
        crate::sim::set_engine_layers(out, &oram, &dram, &counter, stash_high_water);
    }
}

/// Replays `sched` under `cfg` with every shard's tree cipher set to
/// `cipher`, on the calling thread, one shard after another. With
/// `spans`, each `process_one` call is recorded.
pub fn bare(
    cfg: &ServiceConfig,
    sched: &[ScheduledRequest],
    cipher: CipherMode,
    arrivals: Arrivals,
    mut spans: Option<&mut Spans>,
) -> Bare {
    let block_bytes = cfg.oram.block_bytes;
    let cpu0 = procfs::thread_cpu_ns();
    let mut shards = Vec::with_capacity(cfg.shards);
    for shard in 0..cfg.shards {
        let mut oram_cfg = cfg.shard_oram();
        oram_cfg.cipher_mode = cipher;
        let mut engine = cfg.scheme.build(
            oram_cfg,
            DramSystem::new(cfg.dram.clone()),
            cfg.shard_seed(shard),
        );
        let mut pending: VecDeque<NewRequest> = sched
            .iter()
            .filter(|r| cfg.shard_of(r.addr) == shard)
            .map(|r| NewRequest {
                addr: cfg.local_addr(r.addr),
                op: r.op,
                data: match r.op {
                    Op::Write => zipf::write_payload(r.addr, r.tag, block_bytes),
                    Op::Read => Vec::new(),
                },
                arrival_ps: r.arrival_ps,
                tag: r.tag,
            })
            .collect();
        let mut last_done = 0u64;
        let mut outstanding = 0usize;
        while !pending.is_empty() || engine.has_pending_work() {
            let clock = engine.clock_ps();
            let mut batch = Vec::new();
            match arrivals {
                Arrivals::Due => {
                    while batch.len() < cfg.batch_max
                        && pending.front().is_some_and(|r| r.arrival_ps <= clock)
                    {
                        batch.extend(pending.pop_front());
                    }
                }
                Arrivals::Saturated => {
                    while outstanding + batch.len() < cfg.batch_max {
                        let Some(mut r) = pending.pop_front() else {
                            break;
                        };
                        r.arrival_ps = clock;
                        batch.push(r);
                    }
                }
            }
            if batch.is_empty() && !engine.has_pending_work() {
                // Idle with the next arrival in the future: admit it and
                // let the engine advance to it.
                batch.extend(pending.pop_front());
            }
            if !batch.is_empty() {
                outstanding += batch.len();
                engine.submit_batch(batch).expect("replay submit");
            }
            let start = spans.as_deref().map(Spans::now_ns);
            engine.process_one(&mut NoFeedback).expect("replay access");
            if let (Some(s), Some(start_ns)) = (spans.as_deref_mut(), start) {
                let end_ns = s.now_ns();
                s.push(Span {
                    name: "core.process_one",
                    start_ns,
                    end_ns,
                    parent: 0,
                    req: 0,
                });
            }
            for c in engine.drain_completions() {
                outstanding -= 1;
                last_done = last_done.max(c.done_ps);
            }
        }
        let oram = engine.stats().clone();
        let dram = engine.dram().stats().clone();
        let exec_ps = last_done.max(oram.finish_time_ps);
        let energy_pj = energy::compute(
            &EnergyParams::default(),
            &dram,
            &oram,
            exec_ps,
            engine.dram().total_ranks(),
            cfg.dram.background_mw_per_rank,
        )
        .total_pj();
        shards.push(ShardRun {
            stash_high_water: engine.stash_high_water(),
            trace: engine.trace().clone(),
            oram,
            dram,
            exec_ps,
            energy_pj,
        });
    }
    Bare {
        shards,
        cpu_ns: procfs::thread_cpu_ns() - cpu0,
    }
}
