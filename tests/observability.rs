//! The observability layer end to end: counters, structured tracing,
//! progress snapshots — and the load-bearing property that none of it
//! changes the simulation.

use compass::{ArchConfig, CpuCtx, ObsConfig, SimBuilder, TraceLevel};
use compass_backend::BackendStats;
use compass_os::fs::FileData;
use compass_os::{OsCall, SysVal};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A small mixed workload touching every instrumented subsystem: shared
/// memory (locks), private memory, file I/O, compute.
fn workload(nprocs: u16) -> impl FnMut(&mut CpuCtx) + Send {
    move |cpu: &mut CpuCtx| {
        let seg = cpu.shmget(0xBEEF, 4 * 4096);
        let base = cpu.shmat(seg);
        let buf = cpu.malloc_pages(4096);
        let fd = match cpu.os_call(OsCall::Open {
            path: "/data".into(),
            create: false,
        }) {
            Ok(SysVal::NewFd(fd)) => fd,
            other => panic!("{other:?}"),
        };
        for i in 0..40u32 {
            cpu.lock(base);
            cpu.store(base + 256 + (i % 8) * 64, 8);
            cpu.unlock(base);
            cpu.load(buf + (i % 16) * 64, 8);
            if i % 8 == 0 {
                match cpu.os_call(OsCall::ReadAt {
                    fd,
                    off: (i as u64 % 4) * 1024,
                    len: 1024,
                    buf,
                }) {
                    Ok(SysVal::Data(_)) => {}
                    other => panic!("{other:?}"),
                }
            }
            cpu.compute(500);
        }
        cpu.barrier(base + 64, nprocs);
        let _ = cpu.os_call(OsCall::Close { fd });
    }
}

fn builder(nprocs: u16, obs: ObsConfig) -> SimBuilder {
    let mut b = SimBuilder::new(ArchConfig::ccnuma(2, 2)).prepare_kernel(|k| {
        k.create_file("/data", FileData::Synthetic { len: 16 * 1024 });
    });
    for _ in 0..nprocs {
        b = b.add_process(workload(nprocs));
    }
    b.config_mut().backend.timer_interval = Some(100_000);
    b.config_mut().obs = obs;
    b
}

#[test]
fn counters_and_trace_capture_the_run() {
    let mut obs = ObsConfig::full(TraceLevel::Fine);
    obs.progress_every = Some(500);
    let report = builder(2, obs).run();

    let o = report.obs.expect("obs enabled, report must be present");
    for name in [
        "events_memref",
        "events_sync",
        "events_ctl",
        "sched_dispatches",
        "timer_ticks",
        "replies",
        "ring_posts",
        "os_calls",
        "frontend_posts",
        "progress_snapshots",
    ] {
        assert!(o.counter(name) > 0, "counter {name} stayed zero: {o:?}");
    }
    // The events the backend serviced match its own statistics.
    let serviced = o.counter("events_memref")
        + o.counter("events_sync")
        + o.counter("events_dev")
        + o.counter("events_ctl");
    assert_eq!(serviced, report.backend.events);

    let trace = report.trace.expect("tracing was on");
    assert!(!trace.is_empty(), "fine tracing must retain records");
    assert_eq!(o.trace_records, trace.len() as u64);

    let jsonl = trace.to_jsonl();
    assert!(jsonl.lines().count() > 0);
    assert!(jsonl
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(jsonl.contains("\"kind\":\"pickup\""));
    assert!(jsonl.contains("\"kind\":\"os_call\""));

    let chrome = trace.to_chrome_trace();
    assert!(chrome.starts_with('{') && chrome.ends_with('}'));
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("\"ph\":\"X\""), "OS calls become slices");
}

#[test]
fn progress_snapshots_reach_the_callback() {
    let obs = ObsConfig {
        progress_every: Some(200),
        ..ObsConfig::default()
    };
    let fired = Arc::new(AtomicU64::new(0));
    let seen_events = Arc::new(AtomicU64::new(0));
    let f = Arc::clone(&fired);
    let e = Arc::clone(&seen_events);
    let report = builder(2, obs)
        .progress(move |snap| {
            f.fetch_add(1, Ordering::Relaxed);
            e.store(snap.events, Ordering::Relaxed);
            assert!(snap.events > 0);
            assert!(!snap.states.is_empty());
        })
        .run();
    assert!(fired.load(Ordering::Relaxed) > 0, "no snapshot fired");
    assert!(seen_events.load(Ordering::Relaxed) <= report.backend.events);
}

/// Counters of deleted mechanisms stay retired end to end: with every
/// observability hook on, no retired name reaches the counter list,
/// `nonzero()`, or a progress snapshot.
#[test]
fn retired_counters_never_surface() {
    let mut obs = ObsConfig::full(TraceLevel::Coarse);
    obs.progress_every = Some(200);
    let snapshots = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let sink = Arc::clone(&snapshots);
    let mut b = builder(2, obs).progress(move |snap| {
        sink.lock().push(format!("{snap:?} {}", snap.one_line()));
    });
    b.config_mut().filter = true;
    let report = b.run();
    let o = report.obs.expect("obs enabled");
    let snapshots = snapshots.lock();
    assert!(!snapshots.is_empty(), "no snapshot fired");
    for &(_, name) in &compass_obs::counters::RETIRED {
        assert!(
            o.counters.iter().all(|&(n, _)| n != name),
            "retired {name} listed"
        );
        assert!(
            o.nonzero().iter().all(|&(n, _)| n != name),
            "retired {name} nonzero"
        );
        for s in snapshots.iter() {
            assert!(!s.contains(name), "retired {name} in snapshot {s}");
        }
    }
}

#[test]
fn disabled_observability_reports_nothing() {
    let report = builder(2, ObsConfig::default()).run();
    assert!(report.obs.is_none());
    assert!(report.trace.is_none());
}

#[test]
fn observability_does_not_change_the_simulation() {
    // The acceptance bar: full instrumentation on vs everything off must
    // produce byte-identical backend statistics.
    let mut obs = ObsConfig::full(TraceLevel::Fine);
    obs.progress_every = Some(100);
    let on = builder(2, obs).run().backend;
    let off = builder(2, ObsConfig::default()).run().backend;
    let bytes = |s: &BackendStats| format!("{s:#?}").into_bytes();
    assert_eq!(
        bytes(&on),
        bytes(&off),
        "instrumentation perturbed the simulation"
    );
}

#[test]
fn shm_exhaustion_surfaces_as_an_error_not_a_crash() {
    // Eager placement + a tiny per-node memory: shmget must fail with
    // ENOMEM semantics at the stub, not panic the backend.
    let mut b = SimBuilder::new(ArchConfig::ccnuma(2, 2)).add_process(|cpu: &mut CpuCtx| {
        let r = cpu.try_shmget(0xD00D, 64 * 1024 * 1024);
        assert_eq!(r, Err(compass_mem::ShmError::OutOfMemory));
        // The failed call must leave the simulation healthy.
        cpu.compute(100);
        let seg = cpu.try_shmget(0xFEED, 4096).expect("small segment fits");
        let base = cpu.try_shmat(seg).expect("attach succeeds");
        cpu.store(base, 8);
    });
    b.config_mut().backend.placement = compass_mem::PlacementPolicy::RoundRobin;
    b.config_mut().backend.mem_per_node = 1 << 20; // 1 MiB per node
    let report = b.run();
    assert!(report.backend.global_cycles > 0);
}
