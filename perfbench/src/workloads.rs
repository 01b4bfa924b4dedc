//! The three benchmark workloads: how each is built from a seed, its raw
//! twin, how its simulated output is checked, and what its fingerprint
//! covers. Every workload runs on `ArchConfig::ccnuma(2, 2)` (the
//! paper's 4-way machine) with 4 simulated application processes, at the
//! shipped `SimConfig` defaults; simulated caches start cold.

use crate::probe::{self, Readings, Tracer};
use crate::procfs;
use compass::runner::RunReport;
use compass::{ArchConfig, CpuCtx, KernelConfig, OsCall, Process, SimBuilder, SysVal};
use compass_backend::TrafficSource;
use compass_comm::Frame;
use compass_isa::{ConnId, Cycles};
use compass_os::KernelShared;
use compass_workloads::db2lite::index::Index;
use compass_workloads::db2lite::tpcc::{self, TerminalStats, TpccConfig};
use compass_workloads::db2lite::tpcd::{self, Query, QueryResults, TpcdConfig};
use compass_workloads::db2lite::{Db2Config, Db2Session, Db2Shared};
use compass_workloads::httplite::specweb::{path_of, size_of};
use compass_workloads::httplite::{
    self, generate_fileset, FileSetConfig, PlayerConfig, ServerConfig, SharedTickets, Trace,
    TraceEntry, TracePlayer,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Host watchdog: a simulation making no progress for this long ends in
/// `RunError::Deadlock`.
const DEADLOCK_MS: u64 = 30_000;
/// Simulated application processes in every workload.
const PROCS: u64 = 4;
/// TPC-D scale: about 200k lineitems scanned by Q1 through a 96-page pool.
const TPCD_LINEITEMS: u32 = 200_000;
const TPCD_POOL_PAGES: usize = 96;
const TPCD_Q1_CUTOFF: u32 = 1_600;
/// TPC-C mix: 4 terminals x 200 transactions, half of them new-order.
const TPCC_TXNS: u32 = 200;
/// httplite: the full-scale keep-alive player of the OS-server sweep.
const HTTP_REQUESTS: u32 = 600;
const HTTP_CLIENTS: u32 = 48;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TpcdQ1,
    Tpcc,
    Httplite,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::TpcdQ1, Workload::Tpcc, Workload::Httplite];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpcdQ1 => "tpcd_q1",
            Workload::Tpcc => "tpcc",
            Workload::Httplite => "httplite",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What the traced run attaches to a simulation; all off for the
/// untraced end-to-end runs.
#[derive(Default)]
pub struct Hooks {
    /// Span recorder and the span every process span hangs under.
    pub tracer: Option<(Arc<Tracer>, u32)>,
    /// Where process threads leave their final CPU reading.
    pub readings: Option<Readings>,
    /// Turn on the simulator's obs counters.
    pub obs: bool,
    /// Record every access into the architecture models.
    pub record: Option<compass_backend::TraceSink>,
}

/// One finished simulation.
pub struct Sim {
    pub report: RunReport,
    /// Builder start to the start of simulation.
    pub setup_s: f64,
    /// The `prepare_kernel` closure alone.
    pub load_s: f64,
    /// Process CPU (user + sys, all threads) from the end of kernel
    /// preparation to the end of the run.
    pub cpu_s: f64,
    /// Hash of the simulated output.
    pub fingerprint: u64,
    /// The value the raw twin must reproduce (TPC-D revenue), if any.
    pub answer: Option<u64>,
}

/// One raw-twin run.
pub struct Raw {
    pub wall_s: f64,
    pub answer: Option<u64>,
}

/// Reads a finished run's output: its canonical text and the answer the
/// raw twin must match, or why the output is wrong.
type Finish = Box<dyn FnOnce(&RunReport) -> Result<(String, Option<u64>), String>>;

/// A workload instance before it runs: the builder holding its
/// processes, the kernel preparation, and how to read its output.
struct Setup {
    builder: SimBuilder,
    prepare: Box<dyn FnOnce(&KernelShared) + Send>,
    finish: Finish,
}

/// Runs one simulation of `w` at `seed` and checks its output. Any
/// `RunError`, panic or wrong answer is an `Err`.
pub fn simulate(w: Workload, seed: u64, hooks: &Hooks) -> Result<Sim, String> {
    let started = Instant::now();
    // Traced: `setup` and `simulate` spans under the caller's span, the
    // `load` span inside `setup`, and the process spans inside `simulate`.
    let spans = hooks.tracer.as_ref().map(|(t, root)| {
        let setup = t.open("setup", Some(*root));
        (Arc::clone(t), setup, t.open("simulate", Some(*root)))
    });
    let inner = Hooks {
        tracer: spans.as_ref().map(|(t, _, sim)| (Arc::clone(t), *sim)),
        readings: hooks.readings.clone(),
        ..Hooks::default()
    };
    let marks: Arc<Mutex<Option<(f64, f64)>>> = Arc::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let Setup {
            builder,
            prepare,
            finish,
        } = match w {
            Workload::TpcdQ1 => tpcd_setup(seed, &inner),
            Workload::Tpcc => tpcc_setup(seed, &inner),
            Workload::Httplite => http_setup(seed, &inner),
        };
        let marks2 = Arc::clone(&marks);
        let load_span = spans.as_ref().map(|(t, setup, _)| (Arc::clone(t), *setup));
        let mut b = builder.prepare_kernel(move |k| {
            let span = load_span
                .as_ref()
                .map(|(t, setup)| (t, t.open("load", Some(*setup))));
            let t = Instant::now();
            prepare(k);
            let load_s = t.elapsed().as_secs_f64();
            if let Some((t, id)) = span {
                t.close(id);
            }
            *marks2.lock().expect("marks poisoned") = Some((load_s, procfs::process_cpu_s()));
        });
        if let Some(sink) = &hooks.record {
            b = b.record_accesses(Arc::clone(sink));
        }
        let c = b.config_mut();
        c.backend.deadlock_ms = DEADLOCK_MS;
        c.obs.counters = hooks.obs;
        let report = b.try_run().map_err(|e| format!("run error: {e}"))?;
        let ended = (started.elapsed().as_secs_f64(), procfs::process_cpu_s());
        let (canon, answer) = finish(&report)?;
        Ok::<_, String>((report, canon, answer, ended))
    }));
    let (report, canon, answer, (total_s, cpu_end)) = match outcome {
        Ok(r) => r?,
        Err(panic) => return Err(format!("panic: {}", panic_text(&panic))),
    };
    let setup_s = total_s - report.wall.as_secs_f64();
    if let Some((t, setup, sim)) = &spans {
        let since_end_ns = (started.elapsed().as_secs_f64() - total_s) * 1e9;
        let end = t.now_ns() - since_end_ns as u64;
        let sim_start = end - report.wall.as_nanos() as u64;
        t.set_end(*setup, sim_start);
        t.set_start(*sim, sim_start);
        t.close(*sim);
    }
    let (load_s, cpu_start) = marks
        .lock()
        .expect("marks poisoned")
        .ok_or("kernel preparation never ran")?;
    let fingerprint = compass_snap::fnv1a64(
        format!("{:?}|{:?}|{canon}", report.backend, report.syscalls).as_bytes(),
    );
    Ok(Sim {
        setup_s,
        load_s,
        cpu_s: cpu_end - cpu_start,
        fingerprint,
        answer,
        report,
    })
}

/// Runs the raw twin of `w` at `seed`: the same application code on the
/// same functional kernel as one uninstrumented stream (no events, no
/// backend, no OS-server threads), timed from after kernel preparation.
pub fn raw(w: Workload, seed: u64) -> Result<Raw, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| match w {
        Workload::TpcdQ1 => tpcd_raw(seed),
        Workload::Tpcc => tpcc_raw(seed),
        Workload::Httplite => http_raw(seed),
    }));
    match outcome {
        Ok(r) => r,
        Err(panic) => Err(format!("raw twin panic: {}", panic_text(&panic))),
    }
}

/// `compass::run_raw` on the calling thread.
fn run_raw_timed(prepare: impl FnOnce(&KernelShared), body: impl Process) -> Raw {
    let report = compass::run_raw(KernelConfig::default(), prepare, body);
    Raw {
        wall_s: report.wall.as_secs_f64(),
        answer: None,
    }
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "unknown panic".into())
}

/// A simulated process wrapped in a span from body start to body end;
/// the thread also leaves its final CPU reading for the sampler. A no-op
/// wrapper when untraced.
struct Spanned<P> {
    name: String,
    body: P,
    tracer: Option<(Arc<Tracer>, u32)>,
    readings: Option<Readings>,
}

impl<P: Process> Process for Spanned<P> {
    fn run(&mut self, cpu: &mut CpuCtx) {
        let span = self
            .tracer
            .as_ref()
            .map(|(t, parent)| t.open(self.name.clone(), Some(*parent)));
        self.body.run(cpu);
        if let (Some((t, _)), Some(id)) = (&self.tracer, span) {
            t.close(id);
        }
        if let Some(r) = &self.readings {
            probe::report_own(r);
        }
    }
}

fn spanned<P: Process + 'static>(hooks: &Hooks, pid: u64, body: P) -> Spanned<P> {
    Spanned {
        name: format!("process-{pid}"),
        body,
        tracer: hooks.tracer.clone(),
        readings: hooks.readings.clone(),
    }
}

/// The httplite trace player behind a wrapper that counts and times each
/// call the backend makes into it.
struct CountedTraffic<T> {
    inner: T,
    tracer: Option<(Arc<Tracer>, u32)>,
}

impl<T: TrafficSource> CountedTraffic<T> {
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut T) -> R) -> R {
        match &self.tracer {
            None => f(&mut self.inner),
            Some((t, parent)) => {
                let t0 = t.now_ns();
                let r = f(&mut self.inner);
                t.count(*parent, name, t.now_ns() - t0);
                r
            }
        }
    }
}

impl<T: TrafficSource> TrafficSource for CountedTraffic<T> {
    fn initial(&mut self) -> Vec<(Cycles, Frame)> {
        self.timed("player.initial", |p| p.initial())
    }

    fn on_tx(&mut self, conn: ConnId, bytes: u32, now: Cycles) -> Vec<(Cycles, Frame)> {
        self.timed("player.on_tx", |p| p.on_tx(conn, bytes, now))
    }
}

// --- tpcd_q1 -----------------------------------------------------------

fn tpcd_data(seed: u64) -> TpcdConfig {
    TpcdConfig {
        lineitems: TPCD_LINEITEMS,
        orders: TPCD_LINEITEMS / 4,
        seed,
    }
}

fn db2_shared(pool_pages: usize) -> Arc<Db2Shared> {
    Db2Shared::new(Db2Config {
        pool_pages,
        shm_key: 0xDB2,
    })
}

fn tpcd_setup(seed: u64, hooks: &Hooks) -> Setup {
    let shared = db2_shared(TPCD_POOL_PAGES);
    let results = Arc::new(QueryResults::default());
    let mut builder = SimBuilder::new(ArchConfig::ccnuma(2, 2));
    for rank in 0..PROCS {
        let body = tpcd::query_worker(
            Arc::clone(&shared),
            Query::Q1(TPCD_Q1_CUTOFF),
            rank,
            PROCS,
            Arc::clone(&results),
        );
        builder = builder.add_process(spanned(hooks, rank, body));
    }
    let data = tpcd_data(seed);
    Setup {
        builder,
        prepare: Box::new(move |k| {
            tpcd::load(k, &shared, data);
        }),
        finish: Box::new(move |_| {
            let groups = results.q1.lock();
            let mut rows: Vec<_> = groups.iter().collect();
            rows.sort();
            let revenue = groups.values().map(|v| v.1).sum();
            if rows.is_empty() {
                return Err("Q1 returned no groups".into());
            }
            Ok((format!("{rows:?}"), Some(revenue)))
        }),
    }
}

fn tpcd_raw(seed: u64) -> Result<Raw, String> {
    let shared = db2_shared(TPCD_POOL_PAGES);
    let body_shared = Arc::clone(&shared);
    let data = tpcd_data(seed);
    let revenue = Arc::new(Mutex::new(0u64));
    let rev2 = Arc::clone(&revenue);
    let mut raw = run_raw_timed(
        |k| {
            tpcd::load(k, &shared, data);
        },
        move |cpu: &mut CpuCtx| {
            let session = Db2Session::attach(cpu, Arc::clone(&body_shared));
            let groups = tpcd::q1_worker(cpu, &session, TPCD_Q1_CUTOFF, 0, 1);
            *rev2.lock().expect("revenue poisoned") = groups.values().map(|v| v.1).sum();
        },
    );
    raw.answer = Some(*revenue.lock().expect("revenue poisoned"));
    Ok(raw)
}

// --- tpcc --------------------------------------------------------------

fn tpcc_cfg(seed: u64) -> TpccConfig {
    TpccConfig {
        districts: 4,
        customers: 32,
        items: 64,
        txns_per_terminal: TPCC_TXNS,
        new_order_pct: 50,
        seed,
    }
}

type Terminals = Arc<parking_lot::Mutex<Vec<TerminalStats>>>;

/// Every terminal ran all its transactions (db2lite has no aborts, so
/// committed new-orders plus payments must equal the count requested).
fn check_terminals(stats: &[TerminalStats]) -> Result<String, String> {
    for (rank, s) in stats.iter().enumerate() {
        if s.new_orders + s.payments != u64::from(TPCC_TXNS) {
            return Err(format!(
                "terminal {rank} committed {} new-order + {} payment, requested {TPCC_TXNS}",
                s.new_orders, s.payments
            ));
        }
    }
    Ok(format!("{stats:?}"))
}

fn tpcc_setup(seed: u64, hooks: &Hooks) -> Setup {
    let cfg = tpcc_cfg(seed);
    let shared = db2_shared(32);
    let sink: Terminals = Arc::new(parking_lot::Mutex::new(vec![
        TerminalStats::default();
        PROCS as usize
    ]));
    let index: Arc<Mutex<Option<Arc<Index>>>> = Arc::default();
    let mut builder = SimBuilder::new(ArchConfig::ccnuma(2, 2));
    for rank in 0..PROCS {
        let (idx, shared, sink) = (Arc::clone(&index), Arc::clone(&shared), Arc::clone(&sink));
        let body = move |cpu: &mut CpuCtx| {
            let index = idx
                .lock()
                .expect("index slot poisoned")
                .clone()
                .expect("loader ran before terminals");
            tpcc::terminal(Arc::clone(&shared), cfg, rank, Arc::clone(&sink), index)(cpu)
        };
        builder = builder.add_process(spanned(hooks, rank, body));
    }
    builder.config_mut().backend.timer_interval = Some(2_000_000);
    Setup {
        builder,
        prepare: Box::new(move |k| {
            *index.lock().expect("index slot poisoned") = Some(tpcc::load(k, &shared, cfg));
        }),
        finish: Box::new(move |_| Ok((check_terminals(&sink.lock())?, None))),
    }
}

fn tpcc_raw(seed: u64) -> Result<Raw, String> {
    let cfg = tpcc_cfg(seed);
    let shared = db2_shared(32);
    let body_shared = Arc::clone(&shared);
    let sink: Terminals = Arc::new(parking_lot::Mutex::new(vec![
        TerminalStats::default();
        PROCS as usize
    ]));
    let sink2 = Arc::clone(&sink);
    let index: Arc<Mutex<Option<Arc<Index>>>> = Arc::default();
    let idx2 = Arc::clone(&index);
    let raw = run_raw_timed(
        |k| {
            *index.lock().expect("index slot poisoned") = Some(tpcc::load(k, &shared, cfg));
        },
        // The terminals' transactions, one terminal after another in a
        // single stream.
        move |cpu: &mut CpuCtx| {
            let index = idx2
                .lock()
                .expect("index slot poisoned")
                .clone()
                .expect("loader ran before terminals");
            for rank in 0..PROCS {
                tpcc::terminal(
                    Arc::clone(&body_shared),
                    cfg,
                    rank,
                    Arc::clone(&sink2),
                    Arc::clone(&index),
                )(cpu);
            }
        },
    );
    check_terminals(&sink.lock())?;
    Ok(raw)
}

// --- httplite ----------------------------------------------------------

const FILESET: FileSetConfig = FileSetConfig { dirs: 2 };
/// SPECWeb96's access mix as `httplite::specweb` draws it: percent per
/// size class, and percent per file within a class.
const CLASS_MIX: [u32; 4] = [35, 50, 14, 1];
const FILE_WEIGHTS: [u32; 9] = [4, 8, 16, 24, 16, 12, 8, 8, 4];

/// The httplite request trace for `seed`: SPECWeb96's class and file mix
/// met exactly (largest remainder), with the seed choosing each request's
/// directory and the play order. `generate_trace` draws the mix at random
/// instead, so its total bytes move by about 20% from seed to seed (a few
/// 100-900 KB files decide it), which would read as run-to-run noise.
fn http_trace(seed: u64) -> Trace {
    let mut rng = SplitMix64(seed);
    let mut entries = Vec::with_capacity(HTTP_REQUESTS as usize);
    for (class, mix) in (0u32..).zip(CLASS_MIX) {
        let quota = HTTP_REQUESTS * mix / 100;
        let shares: Vec<u32> = FILE_WEIGHTS.iter().map(|w| quota * w).collect();
        let mut counts: Vec<u32> = shares.iter().map(|s| s / 100).collect();
        let mut by_remainder: Vec<usize> = (0..shares.len()).collect();
        by_remainder.sort_by_key(|&i| (std::cmp::Reverse(shares[i] % 100), i));
        let short = quota - counts.iter().sum::<u32>();
        for &i in &by_remainder[..short as usize] {
            counts[i] += 1;
        }
        for (idx, n) in (0u32..).zip(counts) {
            for _ in 0..n {
                let dir = rng.below(u64::from(FILESET.dirs)) as u32;
                entries.push(TraceEntry {
                    path: path_of(dir, class, idx),
                    size: size_of(class, idx),
                });
            }
        }
    }
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Trace { entries }
}

/// SplitMix64: a small, well-mixed generator for the benchmark's own
/// input choices.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias is negligible for the
    /// small `n` used here).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn http_server() -> ServerConfig {
    ServerConfig {
        keep_alive: true,
        ..ServerConfig::default()
    }
}

fn http_setup(seed: u64, hooks: &Hooks) -> Setup {
    let cfg = http_server();
    let trace = http_trace(seed);
    let player = TracePlayer::with_config(
        trace,
        PlayerConfig {
            keep_alive: 4,
            slow_every: 5,
            slow_factor: 4,
            churn_every: 8,
            ..PlayerConfig::http10(HTTP_CLIENTS, cfg.port)
        },
    );
    let stats = player.stats();
    let expected_conns = player.expected_connections();
    let tickets = SharedTickets::new(expected_conns);
    let mut builder = SimBuilder::new(ArchConfig::ccnuma(2, 2)).traffic(CountedTraffic {
        inner: player,
        tracer: hooks.tracer.clone(),
    });
    for pid in 0..PROCS {
        let body = httplite::worker(cfg, Arc::clone(&tickets));
        builder = builder.add_process(spanned(hooks, pid, body));
    }
    Setup {
        builder,
        prepare: Box::new(|k| {
            generate_fileset(k, FILESET);
        }),
        finish: Box::new(move |report| {
            let seen = stats.observed();
            if seen.completed != u64::from(HTTP_REQUESTS) {
                return Err(format!(
                    "{} of {HTTP_REQUESTS} requests completed",
                    seen.completed
                ));
            }
            if seen.connections != expected_conns || report.net.conns != expected_conns {
                return Err(format!(
                    "{} connections opened, {} accepted, {expected_conns} requested",
                    seen.connections, report.net.conns
                ));
            }
            Ok((format!("{seen:?}"), None))
        }),
    }
}

/// The raw twin of httplite: the server's per-request application work
/// (request handling, stat, open, chunked reads, close) for every trace
/// entry in one stream. Requests cannot arrive over a network without the
/// simulator, so the twin replays the trace directly and leaves out the
/// socket calls.
fn http_raw(seed: u64) -> Result<Raw, String> {
    let cfg = http_server();
    let trace = http_trace(seed);
    let served = Arc::new(Mutex::new(0u64));
    let served2 = Arc::clone(&served);
    let raw = run_raw_timed(
        |k| {
            generate_fileset(k, FILESET);
        },
        move |cpu: &mut CpuCtx| {
            let buf = cpu.malloc_pages(cfg.chunk.max(4096));
            for entry in &trace.entries {
                cpu.compute(15_000);
                cpu.touch_range(buf, 64, 64, false);
                cpu.touch_range(buf + 2048, 512, 64, true);
                let len = match cpu.os_call(OsCall::Stat {
                    path: entry.path.clone(),
                }) {
                    Ok(SysVal::Stat(st)) => st.len,
                    other => panic!("stat {}: {other:?}", entry.path),
                };
                let fd = match cpu.os_call(OsCall::Open {
                    path: entry.path.clone(),
                    create: false,
                }) {
                    Ok(SysVal::NewFd(fd)) => fd,
                    other => panic!("open {}: {other:?}", entry.path),
                };
                cpu.compute(1_800);
                let mut off = 0u64;
                while off < len {
                    let n = (cfg.chunk as u64).min(len - off) as u32;
                    match cpu.os_call(OsCall::ReadAt {
                        fd,
                        off,
                        len: n,
                        buf,
                    }) {
                        Ok(SysVal::Data(d)) if !d.is_empty() => {
                            cpu.compute(700);
                            off += d.len() as u64;
                        }
                        other => panic!("read {}: {other:?}", entry.path),
                    }
                }
                let _ = cpu.os_call(OsCall::Close { fd });
                *served2.lock().expect("served poisoned") += 1;
            }
        },
    );
    let served = *served.lock().expect("served poisoned");
    if served != u64::from(HTTP_REQUESTS) {
        return Err(format!(
            "raw twin served {served} of {HTTP_REQUESTS} requests"
        ));
    }
    Ok(raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_traces_hold_the_mix_and_vary_the_order() {
        let (a, b) = (http_trace(1), http_trace(2));
        assert_eq!(a.entries.len(), HTTP_REQUESTS as usize);
        assert_eq!(
            a.total_bytes(),
            b.total_bytes(),
            "every seed serves the same bytes"
        );
        let class3 = |t: &Trace| {
            t.entries
                .iter()
                .filter(|e| e.path.contains("class3"))
                .count()
        };
        assert_eq!(class3(&a), 6);
        assert_ne!(a.entries, b.entries);
        assert_eq!(http_trace(1).entries, a.entries);
    }
}
