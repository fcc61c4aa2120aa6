//! Full-system integration: the paper's qualitative claims must hold on
//! end-to-end closed-loop simulations.

use fork_path_oram::core::engine::by_name;
use fork_path_oram::core::{
    FaultConfig, FaultInjector, ForkConfig, ForkPathController, NewRequest, OramEngine,
    ReactiveSource,
};
use fork_path_oram::dram::DramSystem;
use fork_path_oram::path_oram::{BaselineController, Completion, Op, OramState};
use fork_path_oram::sim::experiment::MissBudget;
use fork_path_oram::sim::{run_workload, Scheme, SystemConfig};
use fork_path_oram::workloads::cpu::{untag_addr, untag_core, MultiCoreWorkload, PipelineKind};
use fork_path_oram::workloads::mixes;

/// A dense 4-core workload shrunk to the fast-test ORAM capacity.
fn dense_wl(budget: u64, seed: u64) -> MultiCoreWorkload {
    let mut mix = mixes::all()[2].clone(); // Mix3, HG
    for p in &mut mix.programs {
        p.working_set_blocks = 1 << 12;
        p.avg_gap_ns = 400.0;
    }
    MultiCoreWorkload::from_mix(&mix, budget, seed)
}

/// A sparse (compute-bound) workload.
fn sparse_wl(budget: u64, seed: u64) -> MultiCoreWorkload {
    let mut mix = mixes::all()[0].clone(); // Mix1, LG
    for p in &mut mix.programs {
        p.working_set_blocks = 1 << 12;
    }
    MultiCoreWorkload::from_mix(&mix, budget, seed)
}

#[test]
fn headline_claim_fork_reduces_latency_and_energy() {
    let cfg = SystemConfig::fast_test();
    let base = run_workload(&cfg, Scheme::Traditional, dense_wl(150, 3));
    let fork = run_workload(
        &cfg,
        Scheme::Fork(ForkConfig::paper_best()),
        dense_wl(150, 3),
    );
    assert!(
        fork.oram_latency_ns < 0.7 * base.oram_latency_ns,
        "fork {:.0} vs base {:.0}",
        fork.oram_latency_ns,
        base.oram_latency_ns
    );
    assert!(fork.energy.total_pj() < base.energy.total_pj());
    assert!(fork.exec_time_ps < base.exec_time_ps);
}

#[test]
fn slowdown_ordering_matches_paper() {
    // insecure < fork < traditional in execution time.
    let cfg = SystemConfig::fast_test();
    let insecure = run_workload(&cfg, Scheme::Insecure, dense_wl(120, 4));
    let fork = run_workload(&cfg, Scheme::ForkDefault, dense_wl(120, 4));
    let trad = run_workload(&cfg, Scheme::Traditional, dense_wl(120, 4));
    assert!(insecure.exec_time_ps < fork.exec_time_ps);
    assert!(fork.exec_time_ps < trad.exec_time_ps);
}

#[test]
fn dummy_overhead_tracks_intensity() {
    // §5.2: low memory intensity inserts more dummies.
    let cfg = SystemConfig::fast_test();
    let dense = run_workload(&cfg, Scheme::ForkDefault, dense_wl(120, 5));
    let sparse = run_workload(&cfg, Scheme::ForkDefault, sparse_wl(120, 5));
    let dense_frac = dense.dummy_accesses as f64 / dense.oram_accesses.max(1) as f64;
    let sparse_frac = sparse.dummy_accesses as f64 / sparse.oram_accesses.max(1) as f64;
    assert!(
        sparse_frac > dense_frac,
        "sparse {sparse_frac:.3} should exceed dense {dense_frac:.3}"
    );
}

#[test]
fn in_order_pipeline_is_less_favourable() {
    // Fig 16: relative fork advantage shrinks in-order.
    let cfg = SystemConfig::fast_test();
    let mut mix = mixes::all()[2].clone();
    for p in &mut mix.programs {
        p.working_set_blocks = 1 << 12;
        p.avg_gap_ns = 400.0;
    }
    let mk = |pipeline| MultiCoreWorkload::from_profiles(&mix.programs, pipeline, 100, 6);
    let ratio = |pipeline| {
        let base = run_workload(&cfg, Scheme::Traditional, mk(pipeline));
        let fork = run_workload(&cfg, Scheme::ForkDefault, mk(pipeline));
        fork.oram_latency_ns / base.oram_latency_ns
    };
    let ooo = ratio(PipelineKind::OutOfOrder);
    let ino = ratio(PipelineKind::InOrder);
    assert!(ino > ooo, "in-order {ino:.3} vs out-of-order {ooo:.3}");
}

#[test]
fn runs_are_deterministic() {
    let cfg = SystemConfig::fast_test();
    let a = run_workload(&cfg, Scheme::ForkDefault, dense_wl(80, 9));
    let b = run_workload(&cfg, Scheme::ForkDefault, dense_wl(80, 9));
    assert_eq!(a.oram_accesses, b.oram_accesses);
    assert_eq!(a.exec_time_ps, b.exec_time_ps);
    assert_eq!(a.dram_blocks_read, b.dram_blocks_read);
    assert!((a.oram_latency_ns - b.oram_latency_ns).abs() < 1e-9);
}

#[test]
fn bigger_oram_means_longer_paths() {
    // Fig 17(b) mechanics at test scale.
    let small = SystemConfig::with_capacity(1 << 30);
    let large = SystemConfig::with_capacity(32u64 << 30);
    assert!(large.oram.path_len() > small.oram.path_len());
    // And the path-length metric from a real run reflects it.
    let mut mix = mixes::all()[4].clone();
    for p in &mut mix.programs {
        p.working_set_blocks = 1 << 10;
        p.avg_gap_ns = 500.0;
    }
    let wl = |_cfg: &SystemConfig| MultiCoreWorkload::from_mix(&mix, 40, 11);
    let rs = run_workload(&small, Scheme::Traditional, wl(&small));
    let rl = run_workload(&large, Scheme::Traditional, wl(&large));
    assert!(rl.avg_path_len > rs.avg_path_len);
    assert_eq!(rs.avg_path_len, small.oram.path_len() as f64);
}

#[test]
fn more_channels_cut_latency() {
    // Fig 18 mechanics: adding channels speeds both schemes.
    let one = SystemConfig::with_channels(1);
    let four = SystemConfig::with_channels(4);
    let r1 = run_workload(&one, Scheme::Traditional, dense_wl(100, 13));
    let r4 = run_workload(&four, Scheme::Traditional, dense_wl(100, 13));
    assert!(r4.oram_latency_ns < r1.oram_latency_ns);
}

#[test]
fn parsec_workloads_run_end_to_end() {
    let cfg = SystemConfig::fast_test();
    let mut wl_def = fork_path_oram::workloads::parsec::by_name("swaptions").unwrap();
    wl_def.profile.working_set_blocks = 1 << 12;
    let wl = MultiCoreWorkload::from_parsec(&wl_def, 4, 60, 15);
    let r = run_workload(&cfg, Scheme::ForkDefault, wl);
    assert_eq!(r.llc_requests, 240);
    assert!(r.oram_latency_ns > 0.0);
}

#[test]
fn miss_budget_scales_run_length() {
    let cfg = SystemConfig::fast_test();
    let short = run_workload(&cfg, Scheme::ForkDefault, dense_wl(40, 17));
    let long = run_workload(&cfg, Scheme::ForkDefault, dense_wl(160, 17));
    assert_eq!(short.llc_requests * 4, long.llc_requests);
    assert!(long.exec_time_ps > short.exec_time_ps);
    let _ = MissBudget::Fast; // re-export sanity
}

/// Every currently issueable miss of `wl`, as engine requests.
fn issue_ready(wl: &mut MultiCoreWorkload, block_bytes: usize) -> Vec<NewRequest> {
    let mut out = Vec::new();
    while let Some(t) = wl.next_issue_time() {
        let (tagged, op) = wl.issue_at(t).expect("issueable");
        out.push(NewRequest {
            addr: untag_addr(tagged),
            op,
            data: match op {
                Op::Write => vec![0xA5; block_bytes],
                Op::Read => Vec::new(),
            },
            arrival_ps: t,
            tag: untag_core(tagged) as u64,
        });
    }
    out
}

/// Closed-loop feedback: a completion frees its core to issue again.
struct Cores<'a> {
    wl: &'a mut MultiCoreWorkload,
    block_bytes: usize,
}

impl ReactiveSource for Cores<'_> {
    fn on_complete(&mut self, c: &Completion) -> Vec<NewRequest> {
        self.wl.complete_core(c.tag as usize, c.done_ps);
        issue_ready(self.wl, self.block_bytes)
    }
}

/// Drives `engine` through a fixed-seed fast-test Mix1 run, the same
/// closed loop `run_workload` runs, and returns its completion count.
fn drive_mix1(engine: &mut impl OramEngine, block_bytes: usize) -> usize {
    let mut wl = sparse_wl(300, 17);
    for r in issue_ready(&mut wl, block_bytes) {
        engine.submit(r).unwrap();
    }
    let mut cores = Cores {
        wl: &mut wl,
        block_bytes,
    };
    while engine.process_one(&mut cores).unwrap() {}
    assert!(wl.finished());
    engine.drain_completions().len()
}

/// The sparse plaintext store after a real run: every stored bucket holds
/// at least one block, the Path ORAM invariants hold, and every block
/// ever created sits in exactly one place (a stored bucket or the stash).
fn assert_sparse_store(state: &OramState) {
    state.check_invariants().unwrap();
    let mut in_tree = 0;
    for (node, blocks) in state.tree().iter_buckets() {
        assert!(!blocks.is_empty(), "bucket {node} stored with no block");
        in_tree += blocks.len();
    }
    assert_eq!(
        state.tree().touched_buckets(),
        state.tree().iter_buckets().count()
    );
    assert!(in_tree > 0);
    assert_eq!(
        (in_tree + state.stash().len()) as u64,
        state.created_blocks()
    );
}

#[test]
fn stored_plaintext_buckets_are_never_empty_after_mix1() {
    let cfg = SystemConfig::fast_test();
    let bb = cfg.oram.block_bytes;
    let dram = || DramSystem::new(cfg.dram.clone());

    let Some(Scheme::Fork(fork_mac)) = by_name("fork+mac") else {
        panic!("fork+mac is a fork configuration");
    };
    let mut fork = ForkPathController::new(cfg.oram.clone(), fork_mac, dram(), cfg.seed);
    assert!(drive_mix1(&mut fork, bb) > 0);
    assert_sparse_store(fork.state());
    assert_eq!(fork.stats().created_blocks, fork.state().created_blocks());

    let mut trad = BaselineController::new(cfg.oram.clone(), dram(), cfg.seed);
    assert!(drive_mix1(&mut trad, bb) > 0);
    assert_sparse_store(trad.state());
    assert_eq!(trad.stats().created_blocks, trad.state().created_blocks());
}

#[test]
fn created_blocks_is_reported_and_fault_wrapper_agrees() {
    let cfg = SystemConfig::fast_test();
    let bb = cfg.oram.block_bytes;
    for name in ["fork+mac", "traditional"] {
        let scheme = by_name(name).unwrap();
        let build = || {
            let dram = DramSystem::new(cfg.dram.clone());
            scheme.build(cfg.oram.clone(), dram, cfg.seed)
        };
        let mut bare = build();
        let mut wrapped = FaultInjector::new(build(), FaultConfig::default());
        assert_eq!(drive_mix1(&mut bare, bb), drive_mix1(&mut wrapped, bb));
        assert!(bare.stats().created_blocks > 0, "{name}");
        assert_eq!(bare.stats(), wrapped.stats(), "{name}");
    }
}
