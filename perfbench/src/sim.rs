//! The simulator workloads: Table 2 Mix1 driven closed-loop in simulated
//! time through `fp_sim::run_workload`.
//!
//! Both runs repeat `run_workload` for the measuring time and take its
//! host cost from the fastest repetition. The untraced run then reports
//! the simulated metrics of one longer run. The traced run drives the
//! same loop as `run_workload` from this file, with spans around each
//! `OramEngine::process_one` and each `ReactiveSource::on_complete`, and
//! checks that every simulated field it produces equals `run_workload`'s.

use std::path::Path;
use std::time::Instant;

use fp_core::engine::OramEngine;
use fp_core::{NewRequest, ReactiveSource};
use fp_dram::{DramStats, DramSystem};
use fp_path_oram::{Completion, Op, OramStats};
use fp_sim::energy::{self, EnergyParams};
use fp_sim::experiment::{mix_workload, MissBudget};
use fp_sim::{run_workload, RunResult, Scheme, SystemConfig};
use fp_trace::{Counter, TraceHandle};
use fp_workloads::cpu::{untag_addr, untag_core, MultiCoreWorkload};
use fp_workloads::mixes::{self, Mix};

use crate::procfs;
use crate::report::Outcome;
use crate::spans::{Span, Spans};
use crate::stats::{median, percentile, ratio, tail_supported};

/// Fewest timed repetitions per run, however long each one takes.
const MIN_REPS: usize = 3;

/// The simulated system and the Table 2 mix, shrunk to the fast-test
/// tree: 4 cores × 2^12 blocks is 16× the 256 KiB MAC's 4096 blocks.
fn inputs(seed: u64) -> (SystemConfig, Mix) {
    let mut cfg = SystemConfig::fast_test();
    cfg.seed = seed;
    let mut mix = mixes::all()[0].clone();
    for p in &mut mix.programs {
        p.working_set_blocks = 1 << 12;
    }
    (cfg, mix)
}

/// LLC misses per core of the run that gives the simulated metrics: 8×
/// the figure binaries' full budget, so that they vary little from seed
/// to seed.
const MISSES_PER_CORE: u64 = 16_000;

fn workload(mix: &Mix, seed: u64) -> MultiCoreWorkload {
    MultiCoreWorkload::from_mix(mix, MISSES_PER_CORE, seed ^ 0x5eed)
}

/// The figure binaries' own Mix1 workload, which the timed repetitions
/// run: short enough that many fit in the measuring time.
fn timed_workload(mix: &Mix, seed: u64) -> MultiCoreWorkload {
    mix_workload(mix, MissBudget::Full, seed ^ 0x5eed)
}

/// What the benchmark's own copy of `run_workload`'s loop brings back.
struct Driven {
    result: RunResult,
    latencies_ps: Vec<u64>,
    oram: OramStats,
    dram: DramStats,
    trace: TraceHandle,
}

/// `run_workload`'s loop, step for step, with optional spans.
fn drive(
    cfg: &SystemConfig,
    scheme: &Scheme,
    mut wl: MultiCoreWorkload,
    spans: Option<&mut Spans>,
) -> Driven {
    let dram = DramSystem::new(cfg.dram.clone());
    let mut engine = scheme.build(cfg.oram.clone(), dram, cfg.seed);
    let block_bytes = cfg.oram.block_bytes;
    for r in drain_issues(&mut wl, block_bytes) {
        engine.submit(r).expect("engine invariant violated");
    }
    let mut src = CoreSource {
        wl: &mut wl,
        block_bytes,
        spans,
        parent: 0,
    };
    loop {
        src.open_process_one();
        let more = engine
            .process_one(&mut src)
            .expect("engine invariant violated");
        src.close_process_one();
        if !more {
            break;
        }
    }
    let done = engine.drain_completions();
    let oram = engine.stats().clone();
    let dram = engine.dram().stats().clone();
    let exec_time_ps = done
        .iter()
        .map(|c| c.done_ps)
        .max()
        .unwrap_or(0)
        .max(oram.finish_time_ps);
    let energy = energy::compute(
        &EnergyParams::default(),
        &dram,
        &oram,
        exec_time_ps,
        engine.dram().total_ranks(),
        cfg.dram.background_mw_per_rank,
    );
    let result = RunResult {
        scheme: scheme.label(),
        workload: String::new(),
        oram_latency_ns: oram.avg_latency_ns(),
        avg_path_len: oram.avg_path_len(),
        dram_busy_ns_per_access: oram.avg_access_busy_ns(),
        llc_requests: wl.total_issued(),
        oram_accesses: oram.oram_accesses,
        real_accesses: oram.real_accesses,
        dummy_accesses: oram.dummy_accesses,
        dummies_replaced: oram.dummies_replaced,
        exec_time_ps,
        energy,
        row_hit_rate: dram.row_hit_rate(),
        dram_blocks_read: dram.reads,
        dram_blocks_written: dram.writes,
        stash_high_water: engine.stash_high_water(),
        sched_ready_reals: ratio(oram.sched_ready_reals as f64, oram.sched_rounds as f64),
    };
    Driven {
        result,
        latencies_ps: done.iter().map(|c| c.done_ps - c.arrival_ps).collect(),
        oram,
        dram,
        trace: engine.trace().clone(),
    }
}

fn write_payload(addr: u64, block_bytes: usize) -> Vec<u8> {
    let mut v = addr.to_le_bytes().to_vec();
    v.resize(block_bytes, 0xA5);
    v
}

fn drain_issues(wl: &mut MultiCoreWorkload, block_bytes: usize) -> Vec<NewRequest> {
    let mut out = Vec::new();
    while let Some(t) = wl.next_issue_time() {
        let (tagged, op) = wl.issue_at(t).expect("issueable");
        let addr = untag_addr(tagged);
        let data = match op {
            Op::Write => write_payload(addr, block_bytes),
            Op::Read => Vec::new(),
        };
        out.push(NewRequest {
            addr,
            op,
            data,
            arrival_ps: t,
            tag: untag_core(tagged) as u64,
        });
    }
    out
}

struct CoreSource<'a> {
    wl: &'a mut MultiCoreWorkload,
    block_bytes: usize,
    spans: Option<&'a mut Spans>,
    /// Id of the open `process_one` span.
    parent: u64,
}

impl CoreSource<'_> {
    fn open_process_one(&mut self) {
        if let Some(s) = self.spans.as_deref_mut() {
            let now = s.now_ns();
            self.parent = s.push(Span {
                name: "core.process_one",
                start_ns: now,
                end_ns: now,
                parent: 0,
                req: 0,
            });
        }
    }

    fn close_process_one(&mut self) {
        if let Some(s) = self.spans.as_deref_mut() {
            let now = s.now_ns();
            s.close(self.parent, now);
        }
    }
}

impl ReactiveSource for CoreSource<'_> {
    fn on_complete(&mut self, completion: &Completion) -> Vec<NewRequest> {
        let start = self.spans.as_deref().map(Spans::now_ns);
        self.wl
            .complete_core(completion.tag as usize, completion.done_ps);
        let out = drain_issues(self.wl, self.block_bytes);
        if let (Some(s), Some(start_ns)) = (self.spans.as_deref_mut(), start) {
            let end_ns = s.now_ns();
            s.push(Span {
                name: "workloads.on_complete",
                start_ns,
                end_ns,
                parent: self.parent,
                req: completion.id,
            });
        }
        out
    }
}

/// Runs one simulator workload under registry scheme `scheme_name`.
pub fn run(
    name: &str,
    scheme_name: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    out_dir: &Path,
) -> Outcome {
    let scheme = fp_core::engine::by_name(scheme_name).expect("registry scheme");
    let (cfg, mix) = inputs(seed);
    let mut out = Outcome::default();

    // Timed repetitions of the public entry point, each after a set-up:
    // generate the workload, then warm the allocator and caches with a
    // short run, as a figure binary's first mix does. The host's speed
    // swings by up to 2.5× within seconds as its neighbours come and go.
    // Set-ups spread over the whole measuring time give a median that one
    // burst does not move, and the fastest repetition, the one least
    // slowed by the neighbours, estimates the program's own cost.
    let started = Instant::now();
    let steal0 = procfs::steal_s();
    let mut reference: Option<RunResult> = None;
    let (mut setups, mut gens) = (Vec::new(), Vec::new());
    let (mut reps, mut best_rate, mut best_cpu_us) = (0usize, 0.0f64, f64::INFINITY);
    while reps < MIN_REPS || started.elapsed().as_secs() < seconds {
        let t0 = Instant::now();
        let wl = workload(&mix, seed);
        gens.push(t0.elapsed().as_secs_f64());
        drop(wl);
        run_workload(
            &cfg,
            scheme.clone(),
            mix_workload(&mix, MissBudget::Fast, seed),
        );
        setups.push(t0.elapsed().as_secs_f64());

        let wl = timed_workload(&mix, seed);
        let cpu0 = procfs::thread_cpu_ns();
        let t0 = Instant::now();
        let r = run_workload(&cfg, scheme.clone(), wl);
        let wall_s = t0.elapsed().as_secs_f64();
        let reqs = r.llc_requests as f64;
        best_rate = best_rate.max(reqs / wall_s);
        best_cpu_us = best_cpu_us.min((procfs::thread_cpu_ns() - cpu0) as f64 / 1e3 / reqs);
        reps += 1;
        out.attempted += r.llc_requests;
        match &reference {
            None => reference = Some(r),
            Some(first) => out.check(*first == r, || {
                format!("{name}: run_workload's simulated fields changed between repetitions")
            }),
        }
    }
    let first = reference.expect("at least one repetition");
    let steal = procfs::steal_ratio(steal0, started.elapsed().as_secs_f64());
    out.set("host_req_per_s", best_rate);
    out.set("server_cpu_us_per_req", best_cpu_us);
    if traced {
        return run_traced(name, &cfg, &mix, &scheme, seed, median(&gens), out, out_dir);
    }

    // The benchmark's loop must reproduce run_workload exactly. On the
    // longer workload it gives the simulated metrics, with one completion
    // per LLC request.
    let check = drive(&cfg, &scheme, timed_workload(&mix, seed), None);
    out.check(check.result == first, || {
        format!("{name}: the benchmark loop's simulated fields differ from run_workload's")
    });
    let d = drive(&cfg, &scheme, workload(&mix, seed), None);
    let r = d.result;
    out.attempted += r.llc_requests;
    out.check(d.latencies_ps.len() as u64 == r.llc_requests, || {
        format!(
            "{name}: {} completions for {} requests",
            d.latencies_ps.len(),
            r.llc_requests
        )
    });

    let reqs = r.llc_requests as f64;
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mib", procfs::peak_rss_mib());
    out.set("sim_latency_ns", r.oram_latency_ns);
    out.set("sim_exec_ns_per_req", r.exec_time_ps as f64 / 1e3 / reqs);
    out.set(
        "sim_energy_nj_per_req",
        r.energy.total_pj() as f64 / 1e3 / reqs,
    );
    println!(
        "{name}: {reps} timed repetitions of {} LLC requests; {} ORAM accesses for {}; host steal {:.2}%",
        first.llc_requests,
        r.oram_accesses,
        r.llc_requests,
        steal * 100.0
    );
    out
}

#[allow(clippy::too_many_arguments)]
fn run_traced(
    name: &str,
    cfg: &SystemConfig,
    mix: &Mix,
    scheme: &Scheme,
    seed: u64,
    gen_s: f64,
    mut out: Outcome,
    out_dir: &Path,
) -> Outcome {
    let t0 = Instant::now();
    let r = run_workload(cfg, scheme.clone(), workload(mix, seed));
    let untraced_s = t0.elapsed().as_secs_f64();

    let mut spans = Spans::new(Instant::now());
    let t0 = Instant::now();
    let steal0 = procfs::steal_s();
    let d = drive(cfg, scheme, workload(mix, seed), Some(&mut spans));
    let traced_s = t0.elapsed().as_secs_f64();
    out.set("host.steal_ratio", procfs::steal_ratio(steal0, traced_s));
    out.attempted = r.llc_requests;
    out.check(d.result == r, || {
        format!("{name}: the traced loop's simulated fields differ from run_workload's")
    });

    let o = &d.oram;
    let acc = o.oram_accesses as f64;
    for (metric, value) in crate::wire::wire_only_zeroes() {
        out.set(metric, value);
    }
    out.set(
        "core.process_one_us",
        spans.mean_self_us("core.process_one"),
    );
    out.set(
        "workloads.on_complete_us",
        spans.mean_self_us("workloads.on_complete"),
    );
    let counter = |c: Counter| d.trace.counter(c) as f64;
    set_engine_layers(&mut out, o, &d.dram, &counter, d.result.stash_high_water);
    out.set("core.accesses_per_req", ratio(acc, r.llc_requests as f64));
    out.set("core.dummy_ratio", ratio(o.dummy_accesses as f64, acc));
    out.set("workloads.gen_s", gen_s);
    out.set("trace.overhead_ratio", traced_s / untraced_s);
    out.set("fail_ratio", 0.0);
    let mut lat_ms: Vec<f64> = d.latencies_ps.iter().map(|&p| p as f64 / 1e9).collect();
    lat_ms.sort_by(f64::total_cmp);
    out.check(tail_supported(lat_ms.len(), 99.0), || {
        format!("{name}: {} requests are too few for a p99", lat_ms.len())
    });
    out.set("lat_p50_ms", percentile(&lat_ms, 50.0));
    out.set("lat_p99_ms", percentile(&lat_ms, 99.0));
    // No offered rate to raise: the loop is closed in simulated time.
    out.set("slo_rps", 0.0);
    if let Err(e) = spans.write(&out_dir.join(format!("spans-{name}.jsonl"))) {
        eprintln!("{name}: spans not written: {e}");
    }
    out
}

/// The engine-internal per-layer metrics, from one engine's stats.
pub fn set_engine_layers(
    out: &mut Outcome,
    o: &OramStats,
    dram: &DramStats,
    counter: &dyn Fn(Counter) -> f64,
    stash_high_water: usize,
) {
    let acc = o.oram_accesses as f64;
    out.set(
        "core.dummy_replace_ratio",
        ratio(
            o.dummies_replaced as f64,
            (o.dummies_replaced + o.dummy_accesses) as f64,
        ),
    );
    out.set(
        "core.read_levels_skipped_per_access",
        ratio(counter(Counter::ReadLevelsSkipped), acc),
    );
    out.set(
        "core.sched_ready_reals_per_round",
        ratio(o.sched_ready_reals as f64, o.sched_rounds as f64),
    );
    out.set("core.mac_hit_ratio", o.cache_hit_rate());
    out.set(
        "path_oram.buckets_read_per_access",
        ratio(o.buckets_read as f64, acc),
    );
    out.set(
        "path_oram.buckets_written_per_access",
        ratio(o.buckets_written as f64, acc),
    );
    out.set("path_oram.stash_high_water", stash_high_water as f64);
    out.set(
        "path_oram.stash_hit_ratio",
        ratio(o.stash_hits as f64, o.completed_requests as f64),
    );
    out.set("path_oram.created_blocks", o.created_blocks as f64);
    out.set(
        "dram.blocks_per_access",
        ratio((o.dram_blocks_read + o.dram_blocks_written) as f64, acc),
    );
    out.set("dram.row_hit_rate", dram.row_hit_rate());
    out.set("dram.busy_ns_per_access", o.avg_access_busy_ns());
    out.set("dram.acts_per_access", ratio(dram.activations as f64, acc));
}
