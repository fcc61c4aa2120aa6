//! The wire workloads: an open-loop load generator over `NetServer`.
//!
//! The load comes from this process over one loopback connection: a
//! sender thread writes request frames at their due times with the public
//! `fp_net::wire` codec, whatever the server's state (open loop), and a
//! receiver thread reads the responses. Latency runs from a request's due
//! time to its response, so a stall also charges the requests queued
//! behind it. One connection keeps program order, which makes the
//! last-writer model in [`LastWriter`] exact.
//!
//! An untraced run sets the server up (start, handshake, warm-up),
//! measures a phase at the workload's nominal rate, times [`SETUPS`] − 1
//! more set-ups, and replays the schedule in-process for the simulated
//! metrics. A traced run measures the nominal rate in two halves, replays
//! the schedule layer by layer, and climbs a rate ladder for `slo_rps` on
//! a fresh server.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use fp_net::wire::{read_frame, write_frame, Frame, WireOp, WireRequest, WireStatus, VERSION};
use fp_net::{NetConfig, NetReport, NetServer};
use fp_path_oram::{CipherMode, Op};
use fp_service::{OramService, ServiceConfig, ServiceRequest};
use fp_trace::Counter;
use fp_workloads::zipf::{self, ScheduledRequest, ZipfConfig};

use crate::procfs;
use crate::replay::{self, Arrivals};
use crate::report::Outcome;
use crate::spans::{Span, Spans};
use crate::stats::{backlog_grows, median, percentile, ratio, tail_supported};

/// Shards behind the server: one per core of the 2-core reference box.
const SHARDS: usize = 2;
/// Per-connection in-flight window and shard queue depth. Far above any
/// backlog a passing phase builds, so the server never answers `Busy`.
const WINDOW: usize = 1 << 15;
/// Requests sent, unpaced, by each set-up to warm TCP, threads and tree.
const WARMUP_REQUESTS: u64 = 1_000;
/// Server set-ups per run; the median time is reported. The first one is
/// the measured server.
const SETUPS: usize = 5;
/// The p99 latency limit of `slo_rps`. Well above the 2–8 ms p99 that
/// thread scheduling alone gives on a loaded 2-core host, so the ladder
/// finds the server's capacity, not scheduler noise.
const LIMIT_MS: f64 = 20.0;
/// Length of one ladder rung.
const RUNG_NS: u64 = 2_500_000_000;
/// Rate step from one ladder rung to the next.
const LADDER_STEP: f64 = 1.25;
/// Most rungs above the nominal rate: 1.25^12 is 14.6×.
const MAX_RUNGS: i32 = 12;
/// Requests of the nominal schedule replayed in-process, which bounds the
/// replays' cost whatever the measuring time.
const REPLAY_REQUESTS: usize = 10_000;
/// Timed saturated replays per run; the fastest gives `host_req_per_s`.
const REPLAY_REPS: usize = 3;
/// Socket reads and writes give up after this long without progress, so
/// a stuck server fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One wire workload.
#[derive(Debug, Clone, Copy)]
pub struct WireSpec {
    /// Zipf skew of addresses (0 = uniform) over the 2^16-block space.
    pub theta: f64,
    /// Share of requests that are writes.
    pub write_fraction: f64,
    /// Tree cipher of every shard.
    pub cipher: CipherMode,
    /// Offered rate of the measured phase, requests per second.
    pub nominal_rps: f64,
}

fn net_config(spec: &WireSpec, seed: u64) -> NetConfig {
    let mut service = ServiceConfig::fast_test(SHARDS);
    service.seed = seed;
    service.oram.cipher_mode = spec.cipher;
    service.queue_depth = WINDOW;
    NetConfig {
        service,
        port: 0,
        max_connections: 4,
        max_inflight_per_conn: WINDOW,
        drain_wait_ms: 10_000,
    }
}

/// A seeded open-loop schedule: `rate` requests per second for `span_ns`.
fn schedule(
    spec: &WireSpec,
    cfg: &ServiceConfig,
    rate: f64,
    span_ns: u64,
    seed: u64,
) -> Vec<ScheduledRequest> {
    let requests = (rate * span_ns as f64 / 1e9).round().max(1.0) as u64;
    zipf::generate(&ZipfConfig {
        blocks: cfg.oram.data_blocks,
        requests,
        theta: spec.theta,
        write_fraction: spec.write_fraction,
        mean_gap_ns: 1e9 / rate,
        block_bytes: cfg.oram.block_bytes,
        seed,
    })
}

/// The last-writer model of one connection: fed every answered request in
/// send order, it checks that each Ok read returns the payload of the last
/// Ok write to its address sent before it. An address never written reads
/// back the same image every time.
#[derive(Debug)]
pub struct LastWriter {
    block_bytes: usize,
    last_write: HashMap<u64, u64>,
    unwritten: HashMap<u64, Vec<u8>>,
}

impl LastWriter {
    pub fn new(block_bytes: usize) -> Self {
        Self {
            block_bytes,
            last_write: HashMap::new(),
            unwritten: HashMap::new(),
        }
    }

    /// Feeds one request; `Err` describes a read that broke the model.
    pub fn observe(
        &mut self,
        tag: u64,
        addr: u64,
        write: bool,
        ok: bool,
        data: &[u8],
    ) -> Result<(), String> {
        if !ok {
            return Ok(());
        }
        if write {
            self.last_write.insert(addr, tag);
            return Ok(());
        }
        match self.last_write.get(&addr) {
            Some(&w) if data != zipf::write_payload(addr, w, self.block_bytes).as_slice() => {
                Err(format!(
                    "tag {tag}: read of addr {addr} did not return the payload of write tag {w}"
                ))
            }
            Some(_) => Ok(()),
            None => {
                let first = self.unwritten.entry(addr).or_insert_with(|| data.to_vec());
                if first.as_slice() == data {
                    Ok(())
                } else {
                    Err(format!(
                        "tag {tag}: unwritten addr {addr} read back a changed image"
                    ))
                }
            }
        }
    }
}

/// One connection to the server.
struct Conn {
    stream: TcpStream,
    block_bytes: usize,
    next_tag: u64,
    model: LastWriter,
    /// Requests sent and answered on this connection, for the checks.
    sent: u64,
    ok: u64,
    violations: Vec<String>,
}

impl Conn {
    fn open(server: &NetServer) -> Self {
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect to the server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .expect("read timeout");
        stream
            .set_write_timeout(Some(IO_TIMEOUT))
            .expect("write timeout");
        write_frame(&mut stream, &Frame::Hello { version: VERSION }).expect("send hello");
        let block_bytes = match read_frame(&mut stream) {
            Ok(Some((Frame::HelloAck { block_bytes, .. }, _))) => block_bytes as usize,
            other => panic!("handshake failed: {other:?}"),
        };
        Self {
            stream,
            block_bytes,
            next_tag: 1,
            model: LastWriter::new(block_bytes),
            sent: 0,
            ok: 0,
            violations: Vec::new(),
        }
    }
}

/// What one phase observed, indexed like its schedule.
struct PhaseLog {
    due_ns: Vec<u64>,
    /// Send time, `u64::MAX` for requests never sent (an aborted rung).
    sent_ns: Vec<u64>,
    /// Host ns inside `write_frame`, when traced.
    send_dur_ns: Vec<u64>,
    /// Response time, `u64::MAX` when none came.
    recv_ns: Vec<u64>,
    status: Vec<Option<WireStatus>>,
    sent: usize,
    /// Server CPU over the phase (every thread but the generator's).
    server_cpu_ns: u64,
    /// CPU of the generator's sender and receiver threads.
    gen_cpu_ns: u64,
    /// Share of the host's CPU time stolen by other guests meanwhile.
    steal_ratio: f64,
}

impl PhaseLog {
    /// Latency from due time to response, ms; failures and missing
    /// responses count as infinitely late.
    fn latencies_ms(&self, range: std::ops::Range<usize>) -> Vec<f64> {
        let mut v: Vec<f64> = range
            .filter(|&i| self.sent_ns[i] != u64::MAX)
            .map(|i| match self.status[i] {
                Some(WireStatus::Ok) => (self.recv_ns[i] - self.due_ns[i]) as f64 / 1e6,
                _ => f64::INFINITY,
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn span_ns(&self) -> u64 {
        self.due_ns.last().copied().unwrap_or(0)
    }
}

/// Sends `sched` over `conn` at the due times (all at once when not
/// `paced`) and collects every response. With `abort_backlog`, stops
/// sending once that many requests are outstanding.
fn run_phase(
    conn: &mut Conn,
    sched: &[ScheduledRequest],
    paced: bool,
    abort_backlog: Option<usize>,
    traced: bool,
) -> PhaseLog {
    let n = sched.len();
    let base = conn.next_tag;
    conn.next_tag += n as u64;
    // Request i of the phase carries tag `base + i`.
    let frames: Vec<Frame> = (base..)
        .zip(sched)
        .map(|(tag, r)| {
            let (op, payload) = match r.op {
                Op::Read => (WireOp::Read, Vec::new()),
                Op::Write => (
                    WireOp::Write,
                    zipf::write_payload(r.addr, tag, conn.block_bytes),
                ),
            };
            Frame::Request(WireRequest {
                tag,
                op,
                addr: r.addr,
                deadline_rel_ns: 0,
                payload,
            })
        })
        .collect();
    let due_ns: Vec<u64> = sched
        .iter()
        .map(|r| if paced { r.arrival_ps / 1_000 } else { 0 })
        .collect();

    let sent_count = AtomicUsize::new(0);
    let received = AtomicUsize::new(0);
    let sender_done = AtomicBool::new(false);
    let mut writer = conn
        .stream
        .try_clone()
        .expect("clone socket for the sender");
    let reader = conn
        .stream
        .try_clone()
        .expect("clone socket for the receiver");
    let pid = procfs::process_id();
    let before = procfs::task_cpu_ns();
    let steal0 = procfs::steal_s();
    let t0 = Instant::now();

    let ((sent_ns, send_dur_ns, send_cpu), (recv_ns, status, data, strays, recv_cpu)) =
        std::thread::scope(|scope| {
            let sender = scope.spawn(|| {
                let cpu0 = procfs::thread_cpu_ns();
                let mut sent_ns = vec![u64::MAX; n];
                let mut dur = vec![0u64; if traced { n } else { 0 }];
                for (i, frame) in frames.iter().enumerate() {
                    let due = t0 + Duration::from_nanos(due_ns[i]);
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let at = t0.elapsed().as_nanos() as u64;
                    sent_ns[i] = at;
                    write_frame(&mut writer, frame).expect("send request");
                    if traced {
                        dur[i] = t0.elapsed().as_nanos() as u64 - at;
                    }
                    sent_count.store(i + 1, Ordering::SeqCst);
                    if abort_backlog.is_some_and(|b| i + 1 - received.load(Ordering::SeqCst) > b) {
                        break;
                    }
                }
                sender_done.store(true, Ordering::SeqCst);
                // End-of-phase marker: the server answers it at once, so
                // the receiver wakes to see the final sent count.
                write_frame(&mut writer, &Frame::HealthReq).expect("send marker");
                (sent_ns, dur, procfs::thread_cpu_ns() - cpu0)
            });
            let receiver = scope.spawn(|| {
                let cpu0 = procfs::thread_cpu_ns();
                let mut r = BufReader::with_capacity(1 << 16, reader);
                let mut recv_ns = vec![u64::MAX; n];
                let mut status = vec![None; n];
                let mut data = vec![Vec::new(); n];
                let mut marker = false;
                let mut got = 0usize;
                let mut strays = Vec::new();
                while !(marker
                    && sender_done.load(Ordering::SeqCst)
                    && got == sent_count.load(Ordering::SeqCst))
                {
                    match read_frame(&mut r) {
                        Ok(Some((Frame::Response(resp), _))) => {
                            let at = t0.elapsed().as_nanos() as u64;
                            let i = resp.tag.wrapping_sub(base) as usize;
                            if i >= n || status[i].is_some() {
                                strays
                                    .push(format!("tag {} answered twice or never sent", resp.tag));
                                continue;
                            }
                            recv_ns[i] = at;
                            status[i] = Some(resp.status);
                            data[i] = resp.data;
                            got += 1;
                            received.store(got, Ordering::SeqCst);
                        }
                        Ok(Some((Frame::HealthResp { .. }, _))) => marker = true,
                        Ok(Some((other, _))) => panic!("unexpected {} frame", other.kind_name()),
                        Ok(None) => break,
                        Err(e) => {
                            eprintln!("receiver stopped: {e}");
                            break;
                        }
                    }
                }
                (
                    recv_ns,
                    status,
                    data,
                    strays,
                    procfs::thread_cpu_ns() - cpu0,
                )
            });
            (
                sender.join().expect("sender thread"),
                receiver.join().expect("receiver thread"),
            )
        });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let after = procfs::task_cpu_ns();
    let sent = sent_count.into_inner();

    conn.violations.extend(strays);
    for (i, r) in sched.iter().enumerate().take(sent) {
        let tag = base + i as u64;
        let ok = status[i] == Some(WireStatus::Ok);
        if status[i].is_none() {
            conn.violations
                .push(format!("tag {tag} was never answered"));
        }
        if let Err(v) = conn
            .model
            .observe(tag, r.addr, r.op == Op::Write, ok, &data[i])
        {
            conn.violations.push(v);
        }
        conn.ok += u64::from(ok);
    }
    conn.sent += sent as u64;
    PhaseLog {
        due_ns,
        sent_ns,
        send_dur_ns,
        recv_ns,
        status,
        sent,
        server_cpu_ns: procfs::cpu_ns_between(&before, &after, &[pid]),
        gen_cpu_ns: send_cpu + recv_cpu,
        steal_ratio: procfs::steal_ratio(steal0, wall_ns as f64 / 1e9),
    }
}

/// One kept server with its connection.
struct Setup {
    server: NetServer,
    conn: Conn,
}

/// Starts a server, connects and warms it up; returns it with the time
/// that took.
fn set_up(spec: &WireSpec, seed: u64) -> (Setup, f64) {
    let t0 = Instant::now();
    let cfg = net_config(spec, seed);
    let warm = schedule(
        spec,
        &cfg.service,
        spec.nominal_rps,
        1_000_000_000,
        seed ^ 0x3A4F,
    );
    let warm = &warm[..warm.len().min(WARMUP_REQUESTS as usize)];
    let server = NetServer::start(cfg).expect("server start");
    let mut conn = Conn::open(&server);
    run_phase(&mut conn, warm, false, None, false);
    let s = t0.elapsed().as_secs_f64();
    (Setup { server, conn }, s)
}

/// Shuts the server down and checks what its report owes the client.
fn tear_down(setup: Setup, out: &mut Outcome) -> (NetReport, u64, u64) {
    let Setup { server, conn } = setup;
    drop(conn.stream);
    server.shutdown();
    let report = server.join().expect("server join");
    for v in conn.violations {
        out.check(false, || v);
    }
    out.check(report.failures.is_empty(), || {
        format!("shards died: {:?}", report.failures)
    });
    out.check(report.stats.completed() == report.stats.admitted(), || {
        format!(
            "service ledger open: {} completed of {} admitted",
            report.stats.completed(),
            report.stats.admitted()
        )
    });
    out.check(report.net_counter(Counter::NetProtocolErrors) == 0, || {
        "the server counted protocol errors".into()
    });
    (report, conn.sent, conn.ok)
}

/// Nearest-rank p50 and p99 of every request sent in a phase.
fn phase_latency(log: &PhaseLog) -> (f64, f64) {
    let lat = log.latencies_ms(0..log.sent);
    (percentile(&lat, 50.0), percentile(&lat, 99.0))
}

/// One rung's verdict: its rate, its p99 and whether it met the limit
/// without a growing backlog.
#[derive(Debug, Clone)]
struct Rung {
    rate: f64,
    p99_ms: f64,
    pass: bool,
}

fn judge(rate: f64, log: &PhaseLog) -> Rung {
    let (_, p99_ms) = phase_latency(log);
    let done: Vec<u64> = (0..log.sent).map(|i| log.recv_ns[i]).collect();
    let grows = backlog_grows(&log.due_ns[..log.sent], &done, log.span_ns());
    let complete = log.sent == log.due_ns.len();
    Rung {
        rate,
        p99_ms,
        pass: complete && !grows && p99_ms <= LIMIT_MS,
    }
}

/// `slo_rps`: the highest passing rung of the fixed ladder nominal ×
/// [`LADDER_STEP`]^k, climbed from k = 1 until a rung fails. 0 when the
/// nominal rate itself failed.
fn ladder(spec: &WireSpec, conn: &mut Conn, cfg: &ServiceConfig, seed: u64, nominal: &Rung) -> f64 {
    if !nominal.pass {
        return 0.0;
    }
    let mut best = nominal.rate;
    for k in 1..=MAX_RUNGS {
        let rate = spec.nominal_rps * LADDER_STEP.powi(k);
        let sched = schedule(spec, cfg, rate, RUNG_NS, seed ^ (0x1AD0 + k as u64));
        let abort = (rate * 3.0 * LIMIT_MS / 1e3).max(64.0) as usize;
        let r = judge(rate, &run_phase(conn, &sched, true, Some(abort), false));
        println!(
            "  rung {rate:>8.0} req/s: p99 {:.3} ms, {}",
            r.p99_ms,
            if r.pass { "pass" } else { "fail" }
        );
        if !r.pass {
            break;
        }
        best = rate;
        // Let the server drain before the next rung.
        std::thread::sleep(Duration::from_millis(50));
    }
    best
}

/// The wire schedule as in-process service requests, due times as
/// simulated arrivals.
fn service_requests(sched: &[ScheduledRequest], block_bytes: usize) -> Vec<ServiceRequest> {
    sched
        .iter()
        .map(|r| ServiceRequest {
            addr: r.addr,
            op: r.op,
            data: match r.op {
                Op::Write => zipf::write_payload(r.addr, r.tag, block_bytes),
                Op::Read => Vec::new(),
            },
            arrival_ps: r.arrival_ps,
            deadline_ps: None,
            tag: r.tag,
        })
        .collect()
}

/// The per-layer metrics that only the wire workloads measure, at zero.
pub fn wire_only_zeroes() -> [(&'static str, f64); 15] {
    [
        "gen.lateness_p99_ms",
        "gen.send_us",
        "net.bytes_per_req",
        "net.wire_cpu_us_per_req",
        "net.busy_rejections",
        "net.protocol_errors",
        "service.rejected_busy",
        "service.queue_high_water",
        "service.shard_skew",
        "service.sim_latency_p99_us",
        "service.replay_cpu_us_per_req",
        "service.replay_accesses_per_req",
        "core.engine_replay_cpu_us_per_req",
        "core.engine_replay_accesses_per_req",
        "crypto.cpu_us_per_req",
    ]
    .map(|m| (m, 0.0))
}

/// Runs one wire workload.
pub fn run(
    name: &str,
    spec: &WireSpec,
    seed: u64,
    seconds: u64,
    traced: bool,
    out_dir: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    // The measured server is the first one set up; the other set-ups
    // come after the measurement, so that their memory does not reach
    // the measured peak.
    let (Setup { server, mut conn }, first_setup_s) = set_up(spec, seed);
    let cfg = net_config(spec, seed).service;

    let t_gen = Instant::now();
    let span_ns = seconds * 1_000_000_000;
    let sched = schedule(spec, &cfg, spec.nominal_rps, span_ns, seed ^ 0x5EED);
    let gen_s = t_gen.elapsed().as_secs_f64();
    let prefix = &sched[..sched.len().min(REPLAY_REQUESTS)];

    if traced {
        // Two halves at the nominal rate: untraced, then traced, so the
        // tracing overhead is measured under the same load.
        let half = sched.len() / 2;
        let plain = run_phase(&mut conn, &sched[..half], true, None, false);
        let log = run_phase(&mut conn, &rebase(&sched[half..]), true, None, true);
        let (report, sent, ok) = tear_down(Setup { server, conn }, &mut out);
        out.attempted = sent;
        out.failed = sent - ok;
        let per_req = |l: &PhaseLog| (l.server_cpu_ns + l.gen_cpu_ns) as f64 / l.sent.max(1) as f64;
        out.set("trace.overhead_ratio", per_req(&log) / per_req(&plain));
        out.set("workloads.gen_s", gen_s);
        out.check(tail_supported(plain.sent, 99.0), || {
            format!("{name}: {} requests are too few for a p99", plain.sent)
        });
        let (lat_p50, lat_p99) = phase_latency(&plain);
        out.set("lat_p50_ms", lat_p50);
        out.set("lat_p99_ms", lat_p99);
        traced_layers(
            name, spec, &cfg, prefix, &plain, &log, &report, sent, &mut out, out_dir,
        );
        let (_, rate) = saturated(name, &cfg, prefix, spec.cipher, &mut out);
        out.set("host_req_per_s", rate);
        // The ladder runs on a server of its own, so that its overload
        // does not reach the counters read above.
        let (Setup { server, mut conn }, _) = set_up(spec, seed);
        let slo = ladder(
            spec,
            &mut conn,
            &cfg,
            seed,
            &judge(spec.nominal_rps, &plain),
        );
        let (_, sent, ok) = tear_down(Setup { server, conn }, &mut out);
        out.attempted += sent;
        out.failed += sent - ok;
        out.set("slo_rps", slo);
        out.set("fail_ratio", ratio(out.failed as f64, out.attempted as f64));
        return out;
    }

    let log = run_phase(&mut conn, &sched, true, None, false);
    println!(
        "{name}: {} requests at {:.0} req/s; host steal {:.2}%",
        log.sent,
        spec.nominal_rps,
        log.steal_ratio * 100.0
    );
    let peak = procfs::peak_rss_mib();
    let (_report, sent, ok) = tear_down(Setup { server, conn }, &mut out);
    out.attempted = sent;
    out.failed = sent - ok;
    let mut setups = vec![first_setup_s];
    for _ in 1..SETUPS {
        let (setup, s) = set_up(spec, seed);
        setups.push(s);
        let (_, sent, ok) = tear_down(setup, &mut out);
        out.attempted += sent;
        out.failed += sent - ok;
    }

    // The same seeded schedule replayed in-process on bare engines, which
    // is deterministic, unlike the wall-paced live run. At the due times
    // it gives the engines' latency under the nominal load; saturated, the
    // simulated time and energy per request of the engines alone.
    let reqs = prefix.len() as f64;
    let paced = replay::bare(&cfg, prefix, spec.cipher, Arrivals::Due, None);
    let (sat, _) = saturated(name, &cfg, prefix, spec.cipher, &mut out);
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mib", peak);
    out.set("sim_latency_ns", paced.latency_ns());
    out.set("sim_exec_ns_per_req", sat.exec_ps() as f64 / 1e3 / reqs);
    out.set("sim_energy_nj_per_req", sat.energy_pj() as f64 / 1e3 / reqs);
    out
}

/// [`REPLAY_REPS`] saturated replays of `prefix`, which must agree; returns
/// the first and the fastest rate in requests per host second.
fn saturated(
    name: &str,
    cfg: &ServiceConfig,
    prefix: &[ScheduledRequest],
    cipher: CipherMode,
    out: &mut Outcome,
) -> (replay::Bare, f64) {
    let mut best_rate = 0.0f64;
    let mut first: Option<replay::Bare> = None;
    for _ in 0..REPLAY_REPS {
        let t0 = Instant::now();
        let r = replay::bare(cfg, prefix, cipher, Arrivals::Saturated, None);
        best_rate = best_rate.max(prefix.len() as f64 / t0.elapsed().as_secs_f64());
        match &first {
            None => first = Some(r),
            Some(f) => out.check(
                (f.exec_ps(), f.energy_pj()) == (r.exec_ps(), r.energy_pj()),
                || format!("{name}: the saturated replay changed between repetitions"),
            ),
        }
    }
    (first.expect("at least one replay"), best_rate)
}

/// A schedule slice with due times restarting at zero.
fn rebase(sched: &[ScheduledRequest]) -> Vec<ScheduledRequest> {
    let t0 = sched[0].arrival_ps;
    sched
        .iter()
        .map(|r| ScheduledRequest {
            arrival_ps: r.arrival_ps - t0,
            ..r.clone()
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn traced_layers(
    name: &str,
    spec: &WireSpec,
    cfg: &ServiceConfig,
    sched: &[ScheduledRequest],
    plain: &PhaseLog,
    log: &PhaseLog,
    report: &NetReport,
    sent: u64,
    out: &mut Outcome,
    out_dir: &Path,
) {
    let stats = &report.stats;
    let totals = stats.trace_counter_totals();
    let counter = |c: Counter| totals[c as usize] as f64;
    let live_accesses = counter(Counter::FullReads) + counter(Counter::MergedReads);
    let reqs = sched.len() as f64;
    let lateness: Vec<f64> = {
        let mut v: Vec<f64> = (0..log.sent)
            .map(|i| (log.sent_ns[i] - log.due_ns[i]) as f64 / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let completed: Vec<f64> = stats
        .per_shard
        .iter()
        .map(|s| s.counters.completed as f64)
        .collect();
    let server_cpu_us = plain.server_cpu_ns as f64 / 1e3 / plain.sent as f64;

    // The waterfall: the nominal schedule through the in-process service,
    // then through bare engines, with and without real encryption.
    let requests = service_requests(sched, cfg.oram.block_bytes);
    let cpu0 = procfs::process_cpu_s();
    let (svc, _) = OramService::run_trace(cfg.clone(), requests).expect("in-process replay");
    let svc_cpu_us = (procfs::process_cpu_s() - cpu0) * 1e6 / reqs;
    let mut spans = Spans::new(Instant::now());
    let bare = replay::bare(cfg, sched, spec.cipher, Arrivals::Due, Some(&mut spans));
    let crypto_us = if spec.cipher == CipherMode::Real {
        let plain = replay::bare(cfg, sched, CipherMode::Transparent, Arrivals::Due, None);
        (bare.cpu_ns as f64 - plain.cpu_ns as f64) / 1e3 / reqs
    } else {
        0.0
    };

    out.set("server_cpu_us_per_req", server_cpu_us);
    out.set("gen.lateness_p99_ms", percentile(&lateness, 99.0));
    out.set(
        "gen.send_us",
        log.send_dur_ns.iter().take(log.sent).sum::<u64>() as f64 / 1e3 / log.sent as f64,
    );
    out.set(
        "net.bytes_per_req",
        (report.net_counter(Counter::NetWireBytesIn) + report.net_counter(Counter::NetWireBytesOut))
            as f64
            / sent as f64,
    );
    out.set("net.wire_cpu_us_per_req", server_cpu_us - svc_cpu_us);
    out.set(
        "net.busy_rejections",
        report.net_counter(Counter::NetBusyRejections) as f64,
    );
    out.set(
        "net.protocol_errors",
        report.net_counter(Counter::NetProtocolErrors) as f64,
    );
    out.set("service.rejected_busy", stats.rejected_busy() as f64);
    out.set(
        "service.queue_high_water",
        stats
            .per_shard
            .iter()
            .map(|s| s.queue_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    out.set(
        "service.shard_skew",
        ratio(
            completed.iter().copied().fold(0.0, f64::max),
            crate::stats::mean(&completed),
        ),
    );
    out.set("service.sim_latency_p99_us", stats.p99_le_ps() as f64 / 1e6);
    out.set("service.replay_cpu_us_per_req", svc_cpu_us);
    out.set(
        "service.replay_accesses_per_req",
        ratio(svc.oram_accesses() as f64, svc.completed() as f64),
    );
    out.set(
        "core.engine_replay_cpu_us_per_req",
        bare.cpu_ns as f64 / 1e3 / reqs,
    );
    out.set(
        "core.engine_replay_accesses_per_req",
        ratio(bare.accesses() as f64, reqs),
    );
    out.set("crypto.cpu_us_per_req", crypto_us);
    out.set(
        "core.process_one_us",
        spans.mean_self_us("core.process_one"),
    );
    out.set("workloads.on_complete_us", 0.0);
    out.set(
        "core.accesses_per_req",
        ratio(live_accesses, stats.completed() as f64),
    );
    out.set(
        "core.dummy_ratio",
        ratio(counter(Counter::DummiesExecuted), live_accesses),
    );
    bare.set_engine_layers(out);
    out.set("host.steal_ratio", log.steal_ratio);

    for i in 0..log.sent {
        let tag = i as u64 + 1;
        spans.push(Span {
            name: "gen.send",
            start_ns: log.sent_ns[i],
            end_ns: log.sent_ns[i] + log.send_dur_ns[i],
            parent: 0,
            req: tag,
        });
        if log.recv_ns[i] != u64::MAX {
            spans.push(Span {
                name: "wire.request",
                start_ns: log.due_ns[i],
                end_ns: log.recv_ns[i],
                parent: 0,
                req: tag,
            });
        }
    }
    if let Err(e) = spans.write(&out_dir.join(format!("spans-{name}.jsonl"))) {
        eprintln!("{name}: spans not written: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(addr: u64, tag: u64) -> Vec<u8> {
        zipf::write_payload(addr, tag, 64)
    }

    #[test]
    fn last_writer_model_accepts_program_order() {
        let mut m = LastWriter::new(64);
        assert!(m.observe(1, 5, false, true, &[0; 64]).is_ok());
        assert!(m.observe(2, 5, false, true, &[0; 64]).is_ok());
        assert!(m.observe(3, 5, true, true, &[]).is_ok());
        assert!(m.observe(4, 5, false, true, &payload(5, 3)).is_ok());
        // A refused write changes nothing.
        assert!(m.observe(5, 5, true, false, &[]).is_ok());
        assert!(m.observe(6, 5, false, true, &payload(5, 3)).is_ok());
        // Failed reads carry no data to check.
        assert!(m.observe(7, 5, false, false, &[]).is_ok());
    }

    #[test]
    fn last_writer_model_flags_an_injected_stale_read() {
        let mut m = LastWriter::new(64);
        m.observe(1, 9, true, true, &[]).unwrap();
        m.observe(2, 9, true, true, &[]).unwrap();
        let stale = m.observe(3, 9, false, true, &payload(9, 1));
        assert!(stale.unwrap_err().contains("write tag 2"));
        // Another address's payload is as wrong as a stale one.
        assert!(m.observe(4, 9, false, true, &payload(8, 2)).is_err());
        // An unwritten block must read back the same image every time.
        m.observe(5, 11, false, true, &[0; 64]).unwrap();
        assert!(m.observe(6, 11, false, true, &[1; 64]).is_err());
    }
}
