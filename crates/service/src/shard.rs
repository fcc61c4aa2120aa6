//! Shard worker: one scheme-agnostic [`OramEngine`] driven by one loop,
//! [`ShardEngine::run`], over a [`RequestSource`]: the bounded submission
//! queue (external mode), a pre-generated schedule (trace-replay mode), or
//! an embedded closed-loop client pool (deterministic load mode). Every
//! source shares the same admission, completion and finish bookkeeping.
//! The engine is built from [`ServiceConfig::scheme`](crate::ServiceConfig),
//! so the same worker serves traditional Path ORAM, Fork Path, or any
//! future scheme.
//!
//! The queue blocks only while the controller is idle; with work in
//! flight the loop polls it without blocking so simulated progress never
//! waits on producers. The source is also the engine's [`ReactiveSource`]:
//! a pool completion immediately yields the issuing client's next request
//! in *simulated* time, so a closed-loop shard's entire execution is a
//! pure function of its seed — independent of host thread scheduling.
//!
//! With [`ServiceConfig::coalesce`] enabled, the worker keeps a
//! cross-request **coalescing index** (address → in-flight entry): a
//! duplicate-address request arriving while an access to that address is
//! outstanding attaches as a *waiter* instead of submitting a second ORAM
//! access. When the one access completes, its result fans out to every
//! waiter — reads share the data, a write coalesced behind the access
//! acknowledges immediately and upgrades the entry (last-writer-wins),
//! and one write-back flush carries the final data. This is the
//! service-level analogue of the controller's fork/merge of consecutive
//! overlapping paths (PAPER.md §3): the same redundancy the paper removes
//! between back-to-back accesses reappears across concurrent requests
//! under skewed traffic. See DESIGN.md for the obliviousness caveat.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};

use fp_core::engine::OramEngine;
use fp_core::{ControllerError, FaultInjector, NewRequest, ReactiveSource};
use fp_dram::DramSystem;
use fp_path_oram::{Completion, Op};
use fp_trace::{Counter, TraceHandle};
use fp_workloads::service::ServiceClientPool;

use crate::coalesce::{CoalesceIndex, Waiter, WaiterAnswer};
use crate::config::ServiceConfig;
use crate::queue::SubmissionQueue;
use crate::request::{CompletionStatus, ServiceCompletion, ServiceRequest};
use crate::sync::relock;

/// Liveness of one shard as seen by the service front end.
///
/// Transitions are one-way: `Healthy → Degraded` (the shard absorbed
/// injected or transient faults but kept serving) and `* → Dead` (its
/// worker exited with an error or panicked). A dead shard's queue is
/// closed and [`crate::SubmitError::ShardDown`] is returned for its
/// addresses; the remaining shards keep serving theirs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally; no faults observed.
    Healthy,
    /// Serving, but transient faults were absorbed (retries succeeded).
    Degraded,
    /// Worker exited abnormally; the shard no longer serves requests.
    Dead,
}

impl ShardHealth {
    /// Stable snake_case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ShardHealth::Healthy => "healthy",
            ShardHealth::Degraded => "degraded",
            ShardHealth::Dead => "dead",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => ShardHealth::Healthy,
            1 => ShardHealth::Degraded,
            _ => ShardHealth::Dead,
        }
    }
}

/// Monotonic per-shard accounting, folded into [`crate::ServiceStats`].
///
/// Invariants (exact at drain, when the queue is empty and nothing is in
/// flight): `enqueued == admitted + expired` and `completed == admitted`.
/// Expired requests are *not* completions — they never execute — so
/// throughput rates derived from `completed` count served work only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Requests accepted into the shard's queue, replayed from its
    /// schedule, or issued by its client pool.
    pub enqueued: u64,
    /// Submissions rejected with `Busy` (counted by the service handle).
    pub rejected_busy: u64,
    /// Client requests accepted past admission control: submitted to the
    /// controller *or* attached to the coalescing index as waiters.
    /// Internal coalescing flushes are not client requests and are never
    /// counted here.
    pub admitted: u64,
    /// Requests dropped at admission because their deadline had passed.
    /// Disjoint from `completed`: an expired request was never served.
    pub expired: u64,
    /// Client requests *served* to completion (including `Late` ones, and
    /// coalesced waiters answered by their anchor's access). Excludes
    /// expired requests and internal flushes.
    pub completed: u64,
    /// Completions that finished after their deadline.
    pub completed_late: u64,
    /// Admission batches handed to the controller.
    pub batches: u64,
    /// Largest single admission batch.
    pub max_batch: u64,
    /// Shard's simulated clock when it went idle, picoseconds.
    pub sim_finish_ps: u64,
}

/// State shared between a shard worker and the service front end.
#[derive(Debug)]
pub struct ShardShared {
    /// Bounded submission queue ([`RequestSource::Queue`]).
    pub queue: SubmissionQueue,
    /// Completions awaiting collection. Closed-loop follow-ups are
    /// counted, not stored, so a pool run leaves at most its opening
    /// burst (one request per client) here.
    pub completions: Mutex<Vec<ServiceCompletion>>,
    /// Monotonic counters.
    pub counters: Mutex<ShardCounters>,
    /// The shard controller's trace handle (cloned snapshot source).
    pub trace: TraceHandle,
    /// Liveness, written by the worker/supervisor, read by the front end.
    /// Atomic (not under a mutex) so health survives lock poisoning.
    health: AtomicU8,
    /// Description of the failure that killed the shard, if any.
    fault: Mutex<Option<String>>,
}

impl ShardShared {
    fn new(queue_depth: usize, trace: TraceHandle) -> Self {
        Self {
            queue: SubmissionQueue::new(queue_depth),
            completions: Mutex::new(Vec::new()),
            counters: Mutex::new(ShardCounters::default()),
            trace,
            health: AtomicU8::new(0),
            fault: Mutex::new(None),
        }
    }

    /// Notes a `Busy` rejection observed by the front end.
    pub fn note_rejected(&self) {
        relock(&self.counters).rejected_busy += 1;
    }

    /// Notes an accepted submission.
    pub fn note_enqueued(&self) {
        relock(&self.counters).enqueued += 1;
    }

    /// Current liveness of this shard.
    pub fn health(&self) -> ShardHealth {
        ShardHealth::from_u8(self.health.load(Ordering::Acquire))
    }

    /// The failure that killed the shard, if it is dead.
    pub fn fault(&self) -> Option<String> {
        relock(&self.fault).clone()
    }

    /// Marks the shard degraded (faults absorbed, still serving). A dead
    /// shard stays dead.
    pub fn mark_degraded(&self) {
        let _ = self.health.compare_exchange(
            ShardHealth::Healthy as u8,
            ShardHealth::Degraded as u8,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    }

    /// Marks the shard dead: records the failure, closes the queue so
    /// producers see `Shutdown`/`ShardDown` instead of retrying `Busy`
    /// forever, and counts a failover in the trace.
    pub fn mark_dead(&self, error: &str) {
        let was = self.health.swap(ShardHealth::Dead as u8, Ordering::AcqRel);
        if was != ShardHealth::Dead as u8 {
            self.trace.bump(Counter::ShardFailovers);
        }
        {
            let mut f = relock(&self.fault);
            if f.is_none() {
                *f = Some(error.to_string());
            }
        }
        self.queue.close();
    }
}

/// Service-side metadata for one engine-submitted request, keyed by the
/// engine-assigned id.
enum ReqMeta {
    /// A client request; its completion is published to the submitter.
    Client {
        tag: u64,
        deadline_ps: Option<u64>,
        /// Writes acknowledge with empty data (the payload echo of a
        /// write completion is never meaningful to the client).
        write: bool,
    },
    /// An internal write-back issued by the coalescing layer to persist
    /// last-writer-wins data. Produces no client completion and is not
    /// counted in `admitted`/`completed`.
    Flush,
}

/// Where a shard's requests come from. [`ShardEngine::run`] drives every
/// variant through the same admission, completion and finish path; the
/// variants differ only in where requests come from and when the loop
/// may block.
pub enum RequestSource {
    /// The shard's bounded submission queue, fed through a
    /// [`crate::ServiceHandle`]. Blocks while the engine is idle and polls
    /// while it is busy, so simulated progress never waits on producers.
    Queue,
    /// A shard-local schedule (local addresses) in arrival order. Requests
    /// are admitted once the engine clock reaches them; when the engine is
    /// idle with the next arrival in the future, that request is admitted
    /// directly and the engine's scheduler advances its clock to it.
    Schedule(VecDeque<ServiceRequest>),
    /// An embedded closed-loop client pool. It yields its opening burst
    /// once; every later request is a follow-up the pool issues through
    /// the engine's feedback hook in simulated time.
    Pool {
        /// The clients; their address regions are disjoint.
        pool: ServiceClientPool,
        /// Size of the deterministic payload a pool write carries.
        block_bytes: usize,
    },
}

impl RequestSource {
    /// The next batch to admit (possibly empty while the engine is
    /// `busy`), or `None` once the source is exhausted. Schedule and pool
    /// requests count as enqueued when they are yielded; queue requests
    /// were counted when the front end accepted them.
    fn next_batch(
        &mut self,
        shared: &ShardShared,
        busy: bool,
        clock_ps: u64,
        max: usize,
    ) -> Option<Vec<ServiceRequest>> {
        let batch: Vec<ServiceRequest> = match self {
            RequestSource::Queue if busy => return shared.queue.try_pop_batch(max),
            // Idle: block until producers push or the service drains.
            RequestSource::Queue => return shared.queue.pop_batch(max),
            RequestSource::Schedule(pending) if !pending.is_empty() => {
                let due = pending
                    .iter()
                    .take(max)
                    .take_while(|r| r.arrival_ps <= clock_ps)
                    .count();
                // Idle with the next arrival in the future: fast-forward.
                let n = if due == 0 && !busy { 1 } else { due };
                pending.drain(..n).collect()
            }
            RequestSource::Pool { pool, block_bytes }
                if pool.issued() == 0 && pool.budget() > 0 =>
            {
                pool.initial_burst()
                    .into_iter()
                    .map(|r| ServiceRequest {
                        addr: r.addr,
                        op: r.op,
                        data: pool_payload(r.op, r.addr, *block_bytes),
                        arrival_ps: r.arrival_ps,
                        deadline_ps: None,
                        tag: r.client as u64,
                    })
                    .collect()
            }
            RequestSource::Schedule(_) | RequestSource::Pool { .. } => return None,
        };
        relock(&shared.counters).enqueued += batch.len() as u64;
        Some(batch)
    }
}

/// A pool write's deterministic payload, derived from the address.
fn pool_payload(op: Op, addr: u64, block_bytes: usize) -> Vec<u8> {
    match op {
        Op::Write => {
            let mut d = vec![0u8; block_bytes];
            d[..8].copy_from_slice(&addr.to_le_bytes());
            d
        }
        Op::Read => Vec::new(),
    }
}

impl ReactiveSource for RequestSource {
    /// A pool completion births the issuing client's next request in
    /// simulated time; the queue and the schedule issue no follow-ups.
    fn on_complete(&mut self, completion: &Completion) -> Vec<NewRequest> {
        let RequestSource::Pool { pool, block_bytes } = self else {
            return Vec::new();
        };
        let client = completion.tag as usize;
        pool.on_complete(client, completion.done_ps)
            .map(|r| NewRequest {
                addr: r.addr,
                op: r.op,
                data: pool_payload(r.op, r.addr, *block_bytes),
                arrival_ps: r.arrival_ps,
                tag: r.client as u64,
            })
            .into_iter()
            .collect()
    }
}

/// One shard's worker: the scheme-agnostic ORAM engine
/// [`ServiceConfig::scheme`] builds, plus in-flight request metadata.
pub struct ShardEngine {
    shard: usize,
    ctl: Box<dyn OramEngine + Send>,
    shared: Arc<ShardShared>,
    batch_max: usize,
    default_deadline_ps: Option<u64>,
    meta: HashMap<u64, ReqMeta>,
    /// Cross-request coalescing index (`Some` iff
    /// [`ServiceConfig::coalesce`] is set). The pure bookkeeping lives in
    /// [`crate::coalesce`]; this worker wires its results to completions,
    /// trace counters, and flush submissions.
    coalesce: Option<CoalesceIndex>,
    /// Reusable buffer the engine drains its completions into, so a drain
    /// after every access allocates nothing for the hand-over.
    drained: Vec<Completion>,
}

impl ShardEngine {
    /// Builds shard `shard` of `cfg` with its private engine (selected by
    /// [`ServiceConfig::scheme`]), DRAM system, and shared front-end state.
    ///
    /// When [`ServiceConfig::fault`] is set (and `fault_shard` either
    /// matches this shard or is `None`), the engine is wrapped in a
    /// deterministic [`FaultInjector`] whose seed is decorrelated per
    /// shard, so shards roll independent fault streams.
    pub fn new(cfg: &ServiceConfig, shard: usize) -> (Self, Arc<ShardShared>) {
        let dram = DramSystem::new(cfg.dram.clone());
        let mut ctl = cfg
            .scheme
            .build(cfg.shard_oram(), dram, cfg.shard_seed(shard));
        ctl.set_trace_capacity(cfg.trace_capacity);
        if let Some(fault) = cfg
            .fault
            .as_ref()
            .filter(|_| cfg.fault_shard.is_none_or(|s| s == shard))
        {
            let mut fc = fault.clone();
            fc.seed ^= cfg.shard_seed(shard);
            ctl = Box::new(FaultInjector::new(ctl, fc));
        }
        let shared = Arc::new(ShardShared::new(cfg.queue_depth, ctl.trace().clone()));
        (
            Self {
                shard,
                ctl,
                shared: Arc::clone(&shared),
                batch_max: cfg.batch_max,
                default_deadline_ps: cfg.deadline_ps,
                meta: HashMap::new(),
                coalesce: cfg.coalesce.then(CoalesceIndex::new),
                drained: Vec::new(),
            },
            shared,
        )
    }

    /// Serves `source` to exhaustion: admits each batch it yields,
    /// executes one access, publishes completions; once the source is
    /// exhausted, finishes the work still in flight. Pool follow-ups enter
    /// through the engine's feedback hook (`source` is the engine's
    /// [`ReactiveSource`]), so a closed-loop run is a pure function of its
    /// seed.
    ///
    /// On *every* exit path — clean drain or controller failure — the
    /// completions drained so far are published and final counters are
    /// recorded; a failure also closes the shard's queue. Without this, an
    /// error exit left the queue open and producers spun forever on `Busy`
    /// against a worker that would never pop again (the dead-shard
    /// livelock).
    ///
    /// # Errors
    ///
    /// Propagates controller failures (integrity violations, stash
    /// overflow, config errors) after marking the shard [`ShardHealth::Dead`].
    pub fn run(mut self, mut source: RequestSource) -> Result<(), ControllerError> {
        let result = self.drive(&mut source);
        if let Err(e) = &result {
            self.fail(&e.to_string());
        }
        result
    }

    // fp-lint: hot-path
    fn drive(&mut self, source: &mut RequestSource) -> Result<(), ControllerError> {
        while let Some(batch) = source.next_batch(
            &self.shared,
            self.ctl.has_pending_work(),
            self.ctl.clock_ps(),
            self.batch_max,
        ) {
            if !batch.is_empty() {
                self.admit(batch)?;
            }
            self.ctl.process_one(source)?;
            self.publish_completions()?;
        }
        // Resolving coalesced writes submits flush accesses, which are new
        // pending work, so publishing happens inside this loop too.
        while self.ctl.has_pending_work() {
            self.ctl.process_one(source)?;
            self.publish_completions()?;
        }
        self.finish_drained();
        Ok(())
    }

    /// Error-exit cleanup: marks the shard dead (which closes the queue so
    /// producers stop retrying `Busy`), publishes whatever completions the
    /// engine had finished, and records final counters. Publishing is
    /// best-effort: a broken engine may reject the coalescing layer's
    /// flush write-backs, but client completions drained so far are
    /// published before any flush is submitted.
    fn fail(&mut self, error: &str) {
        self.shared.mark_dead(error);
        let _ = self.publish_completions();
        self.finish();
    }

    /// Admits a batch: expires requests whose deadline already passed,
    /// attaches duplicate-address requests as coalescing waiters (when
    /// enabled), and hands the rest to the controller in one batch
    /// submission.
    fn admit(&mut self, reqs: Vec<ServiceRequest>) -> Result<(), ControllerError> {
        let clock = self.ctl.clock_ps();
        let mut live = Vec::with_capacity(reqs.len());
        let mut metas = Vec::with_capacity(reqs.len());
        let mut expired = Vec::new();
        let mut coalesced = 0u64;
        for req in reqs {
            let deadline = req.deadline_ps.or_else(|| {
                self.default_deadline_ps
                    .map(|d| req.arrival_ps.saturating_add(d))
            });
            // A deadline in the past at admission time: reject without
            // charging an ORAM access.
            if deadline.is_some_and(|d| d < req.arrival_ps.max(clock)) {
                expired.push(ServiceCompletion {
                    tag: req.tag,
                    shard: self.shard,
                    addr: req.addr,
                    status: CompletionStatus::Expired,
                    latency_ps: 0,
                    data: Vec::new(),
                });
                continue;
            }
            let write = req.op == Op::Write;
            let mut data = req.data;
            if let Some(index) = self.coalesce.as_mut() {
                match index.try_attach(
                    req.addr,
                    Waiter {
                        tag: req.tag,
                        write,
                        data,
                        arrival_ps: req.arrival_ps,
                        deadline_ps: deadline,
                    },
                ) {
                    // An access to this address is already in flight:
                    // the request parked on it instead of submitting a
                    // second ORAM access.
                    Ok(()) => {
                        self.shared.trace.bump(if write {
                            Counter::CoalescedWrites
                        } else {
                            Counter::CoalescedReads
                        });
                        coalesced += 1;
                        continue;
                    }
                    // No in-flight access: this request becomes the
                    // anchor others can coalesce onto.
                    Err(w) => {
                        data = w.data;
                        let occupancy = index.insert_anchor(req.addr, write.then(|| data.clone()));
                        self.shared
                            .trace
                            .raise(Counter::CoalesceIndexHighWater, occupancy);
                    }
                }
            }
            metas.push(ReqMeta::Client {
                tag: req.tag,
                deadline_ps: deadline,
                write,
            });
            live.push(NewRequest {
                addr: req.addr,
                op: req.op,
                data,
                arrival_ps: req.arrival_ps,
                tag: req.tag,
            });
        }
        let submitted = live.len() as u64;
        let ids = if live.is_empty() {
            Vec::new()
        } else {
            self.ctl.submit_batch(live)?
        };
        for (id, meta) in ids.into_iter().zip(metas) {
            self.meta.insert(id, meta);
        }
        {
            let mut c = relock(&self.shared.counters);
            c.admitted += submitted + coalesced;
            c.expired += expired.len() as u64;
            if submitted > 0 {
                c.batches += 1;
                c.max_batch = c.max_batch.max(submitted);
            }
        }
        if !expired.is_empty() {
            relock(&self.shared.completions).extend(expired);
        }
        Ok(())
    }

    /// Moves finished controller completions into the shared buffer with
    /// deadline classification, fanning each result out to its coalesced
    /// waiters. Waiter resolution runs in arrival order: reads observe
    /// the youngest earlier write (the in-flight access's own payload,
    /// else the data as read) and writes acknowledge and become the new
    /// current value; if any waiter wrote, one flush write-back carries
    /// the final data. Write completions acknowledge with empty data in
    /// every mode — a write's payload echo is never meaningful.
    ///
    /// # Errors
    ///
    /// Propagates failures submitting flush write-backs. Client
    /// completions and counters are published before flushes are
    /// submitted, so nothing drained is lost on that path.
    fn publish_completions(&mut self) -> Result<(), ControllerError> {
        let mut done = std::mem::take(&mut self.drained);
        self.ctl.drain_completions_into(&mut done);
        if done.is_empty() {
            self.drained = done;
            return Ok(());
        }
        let mut out = Vec::new();
        let mut late = 0u64;
        let mut follow_ups = 0u64;
        let mut flushes: Vec<NewRequest> = Vec::new();
        for mut c in done.drain(..) {
            // Resolve waiters first: the index borrows the data as read,
            // so the anchor's own completion can take it without a copy.
            let resolved = self
                .coalesce
                .as_mut()
                .and_then(|ix| ix.resolve(c.addr, &c.data));
            match self.meta.remove(&c.id) {
                // Internal write-back: no client completion.
                Some(ReqMeta::Flush) => {}
                Some(ReqMeta::Client {
                    tag,
                    deadline_ps,
                    write,
                }) => {
                    let status = if deadline_ps.is_some_and(|d| c.done_ps > d) {
                        late += 1;
                        CompletionStatus::Late
                    } else {
                        CompletionStatus::Ok
                    };
                    out.push(ServiceCompletion {
                        tag,
                        shard: self.shard,
                        addr: c.addr,
                        status,
                        latency_ps: c.done_ps.saturating_sub(c.arrival_ps),
                        data: if write {
                            Vec::new()
                        } else {
                            std::mem::take(&mut c.data)
                        },
                    });
                }
                // A closed-loop follow-up the pool issued through the
                // feedback hook: counted, never stored, so pool runs stay
                // flat in memory.
                None => {
                    follow_ups += 1;
                    if self
                        .default_deadline_ps
                        .is_some_and(|d| c.done_ps.saturating_sub(c.arrival_ps) > d)
                    {
                        late += 1;
                    }
                }
            }
            let Some(res) = resolved else {
                continue;
            };
            for WaiterAnswer { waiter: w, data } in res.answers {
                let status = if w.deadline_ps.is_some_and(|d| c.done_ps > d) {
                    late += 1;
                    CompletionStatus::Late
                } else {
                    CompletionStatus::Ok
                };
                let latency_ps = c.done_ps.saturating_sub(w.arrival_ps);
                // Waiters bypass the engine, so their latency samples are
                // recorded here instead of by the controller.
                self.shared.trace.record_latency(latency_ps);
                out.push(ServiceCompletion {
                    tag: w.tag,
                    shard: self.shard,
                    addr: c.addr,
                    status,
                    latency_ps,
                    data,
                });
            }
            if let Some(final_data) = res.flush {
                // The index already re-armed the entry so requests
                // arriving while the flush is in flight coalesce onto it.
                self.shared.trace.bump(Counter::CoalesceFlushes);
                flushes.push(NewRequest {
                    addr: c.addr,
                    op: Op::Write,
                    data: final_data,
                    arrival_ps: c.done_ps,
                    tag: 0,
                });
            }
        }
        {
            let mut ctr = relock(&self.shared.counters);
            ctr.enqueued += follow_ups;
            ctr.admitted += follow_ups;
            ctr.completed += out.len() as u64 + follow_ups;
            ctr.completed_late += late;
        }
        self.drained = done;
        if !out.is_empty() {
            relock(&self.shared.completions).extend(out);
        }
        for f in flushes {
            let id = self.ctl.submit(f)?;
            self.meta.insert(id, ReqMeta::Flush);
        }
        Ok(())
    }

    /// [`ShardEngine::finish`] for clean drains, where every admitted
    /// client request must have been answered — an entry left in the
    /// meta map means a completion was lost on the way out (the exact
    /// failure mode `has_pending_work`'s undrained-completion clause
    /// exists to prevent).
    fn finish_drained(&self) {
        debug_assert!(
            self.meta.is_empty(),
            "shard drained cleanly but left client requests unanswered"
        );
        self.finish();
    }

    /// Records the shard's final simulated clock and settles health: a
    /// shard that absorbed injected faults (but recovered via retries)
    /// reports [`ShardHealth::Degraded`] instead of `Healthy`. Called
    /// from clean drains *and* from [`ShardEngine::fail`], so it must
    /// tolerate in-flight requests left unanswered by a dying engine;
    /// clean exits assert emptiness via [`ShardEngine::finish_drained`].
    fn finish(&self) {
        {
            let mut c = relock(&self.shared.counters);
            c.sim_finish_ps = self.ctl.clock_ps();
        }
        if self.shared.trace.counter(Counter::FaultsInjected) > 0 {
            self.shared.mark_degraded();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_workloads::mixes;

    #[test]
    fn closed_loop_drains_pool_and_counts() {
        // A zero budget yields no burst and must end the run, not spin.
        for budget in [0, 200] {
            let cfg = ServiceConfig::fast_test(1);
            let (engine, shared) = ShardEngine::new(&cfg, 0);
            let pool = ServiceClientPool::from_profiles(
                &mixes::all()[0].programs,
                cfg.shard_blocks(),
                budget,
                cfg.shard_seed(0),
            );
            let clients = pool.client_count();
            engine
                .run(RequestSource::Pool {
                    pool,
                    block_bytes: cfg.oram.block_bytes,
                })
                .unwrap();
            let c = *shared.counters.lock().unwrap();
            assert_eq!(c.enqueued, budget);
            assert_eq!(c.admitted, budget);
            assert_eq!(c.completed, budget);
            assert_eq!(c.sim_finish_ps > 0, budget > 0);
            // Follow-ups are counted, not stored: only the opening burst
            // (one request per client) is kept, never the whole budget.
            let stored = shared.completions.lock().unwrap().len();
            assert!(
                stored <= clients,
                "{stored} completions kept for {clients} clients"
            );
        }
    }

    #[test]
    fn external_mode_serves_and_classifies_deadlines() {
        let cfg = ServiceConfig::fast_test(1);
        let (engine, shared) = ShardEngine::new(&cfg, 0);
        for i in 0..8u64 {
            shared
                .queue
                .try_push(ServiceRequest::read(i * 7, 0, i))
                .unwrap();
            shared.note_enqueued();
        }
        // One request already expired at admission.
        let mut dead = ServiceRequest::read(3, 0, 99);
        dead.deadline_ps = Some(0);
        dead.arrival_ps = 10;
        shared.queue.try_push(dead).unwrap();
        shared.note_enqueued();
        shared.queue.close();
        engine.run(RequestSource::Queue).unwrap();
        let c = *shared.counters.lock().unwrap();
        assert_eq!(c.enqueued, 9);
        assert_eq!(c.admitted, 8);
        assert_eq!(c.expired, 1);
        // The expired request was never served: it does not count as a
        // completion (this double-count once inflated reported req/s).
        assert_eq!(c.completed, 8);
        assert_eq!(c.enqueued, c.admitted + c.expired);
        let done = shared.completions.lock().unwrap();
        assert_eq!(
            done.len(),
            9,
            "expired requests still get a completion record"
        );
        assert_eq!(
            done.iter()
                .filter(|c| c.status == CompletionStatus::Expired)
                .count(),
            1
        );
    }

    #[test]
    fn schedule_mode_coalesces_duplicates_and_preserves_data() {
        let mut cfg = ServiceConfig::fast_test(1);
        cfg.coalesce = true;
        let (engine, shared) = ShardEngine::new(&cfg, 0);
        let block = cfg.oram.block_bytes;
        let payload = |b: u8| vec![b; block];
        // A hot address hammered while its accesses are in flight: one
        // write, then reads/writes that should coalesce behind it.
        let mut reqs = vec![ServiceRequest::write(5, payload(0xA1), 0, 0)];
        for i in 1..6u64 {
            reqs.push(ServiceRequest::read(5, i, i));
        }
        reqs.push(ServiceRequest::write(5, payload(0xB2), 6, 6));
        reqs.push(ServiceRequest::read(5, 7, 7));
        // A cold address for contrast.
        reqs.push(ServiceRequest::read(9, 8, 8));
        engine.run(RequestSource::Schedule(reqs.into())).unwrap();
        let c = *shared.counters.lock().unwrap();
        assert_eq!(c.enqueued, 9);
        assert_eq!(c.admitted, 9);
        assert_eq!(c.completed, 9, "flushes are not client completions");
        let coalesced = shared.trace.counter(Counter::CoalescedReads)
            + shared.trace.counter(Counter::CoalescedWrites);
        assert!(coalesced > 0, "duplicates must attach as waiters");
        assert!(shared.trace.counter(Counter::CoalesceIndexHighWater) >= 1);
        let done = shared.completions.lock().unwrap();
        assert_eq!(done.len(), 9);
        // Every write acknowledges with empty data; every read of addr 5
        // observes the youngest earlier write's payload.
        for d in done.iter() {
            match d.tag {
                0 | 6 => assert!(d.data.is_empty(), "write acks carry no data"),
                7 => assert_eq!(d.data, payload(0xB2), "read behind second write"),
                8 => {}
                _ => assert_eq!(d.data, payload(0xA1), "reads behind first write"),
            }
        }
    }
}
