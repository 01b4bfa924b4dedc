//! The simulation runner: builds the communicator, spawns the frontend
//! processes, the OS server (threads + bottom-half daemon) and the
//! backend, runs to completion, and collects every statistic.

use crate::config::SimConfig;
use compass_arch::ArchConfig;
use compass_backend::devices::NullTraffic;
use compass_backend::{Backend, BackendStats, RunError, TrafficSource};
use compass_comm::{CpuStates, DevShared, EventPort, Notifier, SimAbort};
use compass_frontend::{CpuCtx, FrontendStats, Process};
use compass_isa::{Cycles, ProcessId};
use compass_obs::{Ctr, ObsHub, ObsReport, ProgressFn, TraceBuffer, TraceHandle};
use compass_os::bufcache::BufStats;
use compass_os::net::NetStats;
use compass_os::{KernelShared, OsObs, OsServer};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a finished run reports.
#[derive(Debug)]
pub struct RunReport {
    /// Backend counters (time attribution, memory system, scheduler,
    /// devices…).
    pub backend: BackendStats,
    /// Per-syscall `(name, count, cycles)`, sorted by cycles.
    pub syscalls: Vec<(String, u64, u64)>,
    /// Buffer-cache counters.
    pub bufcache: BufStats,
    /// Network-stack counters.
    pub net: NetStats,
    /// Interrupt-handler cycles by source `[disk, net, timer]`.
    pub intr_cycles: [Cycles; 3],
    /// Per-process frontend counters.
    pub frontends: Vec<FrontendStats>,
    /// Host wall-clock time of the simulation.
    pub wall: Duration,
    /// Number of application processes (the kernel daemon is `pid
    /// app_processes`).
    pub app_processes: usize,
    /// Bytes written to files through `write`/`writev`. Architecture-
    /// independent: simcheck's metamorphic checks assert it is invariant
    /// across scheduler/placement/cache knobs.
    pub fs_write_bytes: u64,
    /// Merged observability counters (present when
    /// [`SimConfig::obs`](crate::SimConfig) enabled anything).
    pub obs: Option<ObsReport>,
    /// The structured trace ring, for JSONL / Chrome `trace_event`
    /// export (present when tracing was on).
    pub trace: Option<Arc<TraceBuffer>>,
}

impl RunReport {
    /// Pids of the application processes.
    pub fn app_pids(&self) -> impl Iterator<Item = usize> + '_ {
        0..self.app_processes
    }

    /// Total simulated CPU cycles (user + kernel + interrupt, all
    /// processes including the daemon's handler time).
    pub fn total_cpu_cycles(&self) -> Cycles {
        self.backend.procs.iter().map(|p| p.cpu_cycles()).sum()
    }
}

type PrepareFn = Box<dyn FnOnce(&KernelShared) + Send>;

/// Builds and runs one simulation.
pub struct SimBuilder {
    config: SimConfig,
    processes: Vec<Box<dyn Process>>,
    traffic: Option<Box<dyn TrafficSource>>,
    prepare: Option<PrepareFn>,
    recorder: Option<compass_backend::TraceSink>,
    progress: Option<ProgressFn>,
    ckpt_every: Option<(u64, PathBuf)>,
    resume_from: Option<PathBuf>,
    ff_events: u64,
}

impl SimBuilder {
    /// Starts from an architecture with default everything else.
    pub fn new(arch: ArchConfig) -> Self {
        Self::with_config(SimConfig::new(arch))
    }

    /// Starts from a full configuration.
    pub fn with_config(config: SimConfig) -> Self {
        Self {
            config,
            processes: Vec::new(),
            traffic: None,
            prepare: None,
            recorder: None,
            progress: None,
            ckpt_every: None,
            resume_from: None,
            ff_events: 0,
        }
    }

    /// Mutable access to the configuration.
    pub fn config_mut(&mut self) -> &mut SimConfig {
        &mut self.config
    }

    /// Adds a simulated application process; pids are assigned in call
    /// order.
    pub fn add_process(mut self, p: impl Process + 'static) -> Self {
        self.processes.push(Box::new(p));
        self
    }

    /// Installs the client-side traffic source (the SPECWeb-style trace
    /// player).
    pub fn traffic(mut self, t: impl TrafficSource + 'static) -> Self {
        self.traffic = Some(Box::new(t));
        self
    }

    /// Runs `f` against the functional kernel before simulation starts
    /// (file-set population, database loading — not simulated, exactly
    /// like the paper's pre-test file set generator).
    pub fn prepare_kernel(mut self, f: impl FnOnce(&KernelShared) + Send + 'static) -> Self {
        self.prepare = Some(Box::new(f));
        self
    }

    /// Records every backend call into the architecture models into
    /// `sink`, in global simulated order (the simcheck reference oracle
    /// replays it — see [`compass_backend::trace`]).
    pub fn record_accesses(mut self, sink: compass_backend::TraceSink) -> Self {
        self.recorder = Some(sink);
        self
    }

    /// Checkpoints the deterministic simulation state to `path` every
    /// `every` serviced events, at quiesced boundaries between engine
    /// steps (filter logs drained through the ordinary pop path). The
    /// file is atomically overwritten at each cut — the latest cut wins.
    /// Resume it with [`SimBuilder::resume`].
    pub fn checkpoint_every(mut self, every: u64, path: impl Into<PathBuf>) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        self.ckpt_every = Some((every, path.into()));
        self
    }

    /// Resumes from a checkpoint written by [`SimBuilder::checkpoint_every`].
    /// The run re-executes the workload live but feeds the architecture
    /// models from the recorded outcome stream, validating every request
    /// (the resume-identity oracle); at the recorded cut the hierarchy
    /// snapshot is swapped in and the run continues fully live —
    /// bit-identical `BackendStats` to the recording run. Transport knobs
    /// (batch depths, the reference filter) may differ between the two
    /// runs; the architecture configuration must match.
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Fast-forwards the first `events` serviced events: the architecture
    /// models are skipped entirely (fixed L1-hit latencies) while the
    /// functional state — page tables, locks, buffer cache, scheduler —
    /// warms up. Combine with [`SimBuilder::checkpoint_every`] to turn a
    /// long run into checkpoint-warm-then-measure.
    pub fn fast_forward(mut self, events: u64) -> Self {
        self.ff_events = events;
        self
    }

    /// Installs the progress-snapshot callback. Snapshots fire every
    /// `SimConfig::obs.progress_every` serviced events; setting a
    /// callback without a period implies the default period.
    pub fn progress(
        mut self,
        f: impl Fn(&compass_obs::ProgressSnapshot) + Send + Sync + 'static,
    ) -> Self {
        if self.config.obs.progress_every.is_none() {
            self.config.obs.progress_every = Some(100_000);
        }
        self.progress = Some(Arc::new(f));
        self
    }

    /// Runs the simulation to completion; panics (with the deadlock
    /// report) if the run ends in an error. Use [`SimBuilder::try_run`]
    /// to handle errors structurally.
    pub fn run(self) -> RunReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the simulation to completion, returning a structured error
    /// instead of panicking when the backend detects a deadlock (sync
    /// cycle or host-timeout). On error every event port is poisoned, so
    /// all simulated threads unwind cleanly before this returns.
    pub fn try_run(self) -> Result<RunReport, RunError> {
        let SimBuilder {
            config,
            processes,
            traffic,
            prepare,
            recorder,
            progress,
            ckpt_every,
            resume_from,
            ff_events,
        } = self;
        assert!(
            ckpt_every.is_none() || resume_from.is_none(),
            "checkpoint recording and resume are mutually exclusive in one run"
        );
        config.validate().expect("invalid simulation configuration");
        let nprocs = processes.len();
        assert!(nprocs > 0, "no processes to simulate");
        let daemon_pid = ProcessId(nprocs as u32);
        let ncpus = config.backend.arch.ncpus();

        // --- Observability ---
        let hub = config.obs.enabled().then(ObsHub::new);
        let counters = config.obs.counters.then(|| hub.as_ref().unwrap());
        let trace = (config.obs.trace != compass_obs::TraceLevel::Off)
            .then(|| TraceHandle::new(config.obs.trace, config.obs.trace_capacity));

        // --- Communicator ---
        let notifier = Arc::new(Notifier::new());
        let cpu_states = Arc::new(CpuStates::new(ncpus));
        let devshared = Arc::new(DevShared::new());
        // Rings must hold a full frontend batch, the OS thread's batched
        // kernel events (its pending count persists across syscalls), and
        // the blocking event that cuts the batch. The frontend parks
        // while its OS thread runs, so the two never publish into one
        // ring concurrently — capacity is the only constraint.
        let ring_cap = compass_comm::DEFAULT_RING_CAPACITY
            .max(config.backend.batch_depth + config.kernel_batch_depth.max(1) + 1);
        let ports: Vec<Arc<EventPort>> = (0..=nprocs)
            .map(|pid| {
                let mut port = EventPort::with_capacity(
                    ProcessId(pid as u32),
                    Arc::clone(&notifier),
                    ring_cap,
                );
                if let Some(hub) = counters {
                    port.set_counters(hub.register(&format!("port-{pid}")));
                }
                Arc::new(port)
            })
            .collect();

        // --- OS server ---
        let kernel = KernelShared::new(config.kernel, Arc::clone(&devshared));
        if let Some(f) = prepare {
            f(&kernel);
        }
        let os_threads = if config.os_threads == 0 {
            nprocs
        } else {
            config.os_threads
        };
        let os_block = counters.map(|hub| hub.register("os"));
        let os_obs = OsObs {
            counters: os_block.clone(),
            trace: trace.clone(),
        };
        // Kernel-side batching: syscall-path only, so it is disabled
        // wholesale under pseudo-IRQ delivery — interrupt handlers must
        // see the authoritative clock and reply flags.
        let perf = compass_os::KernelPerfSetup {
            batch_depth: config.kernel_batch_depth,
        };
        let kernel_perf = (!config.pseudo_irq && config.kernel_batch_depth > 1).then_some(perf);
        let os_server =
            OsServer::start_with_perf(Arc::clone(&kernel), os_threads, os_obs, kernel_perf);
        // Event-driven disk path (ISSUE 9): the bottom-half daemon gets a
        // batching-only sink so interrupt handlers settle their kernel
        // references through the port credit. Off under pseudo-IRQ for
        // the same reason as the syscall-path perf above, and pointless
        // at depth 1.
        let daemon_perf = (!config.pseudo_irq && config.disk_wake && config.kernel_batch_depth > 1)
            .then_some(perf);
        let daemon_handle = os_server.start_daemon_with_perf(
            daemon_pid,
            Arc::clone(&ports[daemon_pid.index()]),
            daemon_perf,
        );

        // --- Backend ---
        let mut backend = Backend::new(
            config.backend.clone(),
            ports.clone(),
            Arc::clone(&notifier),
            Arc::clone(&cpu_states),
            Arc::clone(&devshared),
            Some(daemon_pid),
            traffic.unwrap_or_else(|| Box::new(NullTraffic)),
        );
        if let Some(sink) = recorder {
            backend.set_access_recorder(sink);
        }
        if ff_events > 0 {
            backend.set_fast_forward(ff_events);
        }
        if let Some((every, path)) = ckpt_every {
            backend.set_checkpoint(every, path);
        }
        if let Some(path) = resume_from {
            let data = compass_backend::CheckpointData::load(&path)
                .map_err(|msg| RunError::Checkpoint { msg })?;
            let want = compass_arch::Hierarchy::config_hash(&config.backend.arch);
            if data.config_hash != want {
                return Err(RunError::Checkpoint {
                    msg: format!(
                        "checkpoint {} was recorded under a different architecture                          configuration (hash {:#x}, this run {want:#x})",
                        path.display(),
                        data.config_hash
                    ),
                });
            }
            backend.set_resume(data);
        }
        let backend_block = counters.map(|hub| hub.register("backend"));
        if let Some(block) = &backend_block {
            backend.set_counters(Arc::clone(block));
        }
        if let Some(block) = &os_block {
            // Progress snapshots surface the OS-side batching counter
            // alongside the backend's own.
            backend.set_os_counters(Arc::clone(block));
        }
        if let Some(t) = &trace {
            backend.set_trace(t.clone());
        }
        if let Some(every) = config.obs.progress_every {
            // Snapshots still count (and trace) with no user callback.
            backend.set_progress(every, progress.unwrap_or_else(|| Arc::new(|_| {})));
        }
        let started = Instant::now();
        let backend_handle = std::thread::Builder::new()
            .name("compass-backend".into())
            .spawn(move || {
                // Deadlocks come back as Err; a genuine panic would leave
                // every frontend parked forever, so abort loudly instead
                // of hanging the harness.
                match catch_unwind(AssertUnwindSafe(|| backend.run())) {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        let msg = e
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| e.downcast_ref::<&str>().copied())
                            .unwrap_or("backend panicked");
                        eprintln!("fatal: {msg}");
                        std::process::abort();
                    }
                }
            })
            .expect("spawn backend");

        // --- Frontend processes ---
        let mut proc_handles = Vec::with_capacity(nprocs);
        for (pid, mut body) in processes.into_iter().enumerate() {
            let port = Arc::clone(&ports[pid]);
            let os_server = Arc::clone(&os_server);
            let cpu_states = Arc::clone(&cpu_states);
            let timing = config.timing.clone();
            let pseudo = config.pseudo_irq;
            let sample_period = config.sample_period;
            let batch_depth = config.backend.batch_depth;
            let filter = config.filter.then_some((
                config.backend.arch.l1,
                config.backend.arch.lat.l1_hit,
                config.backend.tlb_entries,
                config.backend.tlb_assoc,
            ));
            let fe_block = counters.map(|hub| hub.register(&format!("frontend-{pid}")));
            proc_handles.push(
                std::thread::Builder::new()
                    .name(format!("app-process-{pid}"))
                    .spawn(move || {
                        let pid = ProcessId(pid as u32);
                        let os = os_server.connect(pid, Arc::clone(&port));
                        let mut cpu = CpuCtx::simulated(pid, port, os, cpu_states, timing);
                        if pseudo {
                            cpu.enable_pseudo_irq();
                        }
                        if let Some((l1, hit_lat, tlb_entries, tlb_assoc)) = filter {
                            // Mirrors match the real L1 geometry and TLB;
                            // a no-op under pseudo-IRQ (see enable_filter).
                            cpu.enable_filter(l1, hit_lat, tlb_entries, tlb_assoc);
                        }
                        cpu.set_batch_depth(batch_depth);
                        cpu.set_sample_period(sample_period);
                        if let Some(block) = &fe_block {
                            cpu.set_obs_counters(Arc::clone(block));
                        }
                        let born = Instant::now();
                        // [`SimAbort`] means the backend poisoned the
                        // ports (deadlock teardown): unwind quietly; the
                        // backend join reports the structured error.
                        let res = catch_unwind(AssertUnwindSafe(|| {
                            cpu.start();
                            body.run(&mut cpu);
                            cpu.exit();
                        }));
                        if let Some(block) = &fe_block {
                            let lifetime = born.elapsed().as_nanos() as u64;
                            let waited = block.get(Ctr::CommWaitNs);
                            block.add(Ctr::FrontendGenNs, lifetime.saturating_sub(waited));
                        }
                        match res {
                            Ok(()) => Some(cpu.stats()),
                            Err(e) if e.downcast_ref::<SimAbort>().is_some() => None,
                            Err(e) => resume_unwind(e),
                        }
                    })
                    .expect("spawn application process"),
            );
        }

        // --- Join ---
        let frontends: Vec<Option<FrontendStats>> = proc_handles
            .into_iter()
            .map(|h| h.join().expect("application process panicked"))
            .collect();
        let outcome = backend_handle.join().expect("backend thread panicked");
        daemon_handle.join().expect("kernel daemon panicked");
        os_server.shutdown();
        let wall = started.elapsed();
        let outcome = outcome?;
        let frontends = frontends
            .into_iter()
            .map(|s| s.expect("frontend aborted but the backend reported no error"))
            .collect();

        let obs = hub.as_ref().map(|hub| {
            if let (Some(block), Some(t)) = (&backend_block, &trace) {
                block.add(Ctr::TraceDropped, t.buf.dropped());
            }
            ObsReport {
                counters: hub.merge().all(),
                trace_records: trace.as_ref().map_or(0, |t| t.buf.len() as u64),
                trace_dropped: trace.as_ref().map_or(0, |t| t.buf.dropped()),
            }
        });

        let bufcache = kernel.bufs.lock().stats();
        let net = kernel.net.lock().stats;
        let intr_cycles = [
            kernel.intr_cycles[0].load(Ordering::Relaxed),
            kernel.intr_cycles[1].load(Ordering::Relaxed),
            kernel.intr_cycles[2].load(Ordering::Relaxed),
        ];
        Ok(RunReport {
            backend: outcome.stats,
            syscalls: kernel.stats.snapshot(),
            bufcache,
            net,
            intr_cycles,
            frontends,
            wall,
            app_processes: nprocs,
            fs_write_bytes: kernel.fs_write_bytes.load(Ordering::Relaxed),
            obs,
            trace: trace.map(|t| t.buf),
        })
    }
}
