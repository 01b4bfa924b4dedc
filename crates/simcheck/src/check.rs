//! Running scenarios and composing the three check layers.

use crate::scenario::{ArchPreset, Geometry, Scenario};
use crate::{diff, oracle};
use compass::runner::RunReport;
use compass::{ObsConfig, PlacementPolicy, RunError, SchedPolicy, TraceLevel};
use compass_backend::{trace, TraceRecord};
use std::path::Path;
use std::sync::Arc;

/// Batch depths every scenario is replayed at; depth 1 (classic
/// per-event rendezvous) is the baseline the others must match.
pub const DEPTHS: [usize; 4] = [1, 4, 16, 64];

/// One finished run, optionally with its recorded engine→arch trace.
pub struct RunOutput {
    /// The full report.
    pub report: RunReport,
    /// Recorded trace (empty unless recording was requested).
    pub trace: Vec<TraceRecord>,
}

/// Runs `sc` once at the given batch depth, under the scenario's own
/// transport knobs (a twin differential passes a copy with one knob
/// flipped). `observe` turns the full observability stack on (counters,
/// fine tracing, progress snapshots) — the depth differentials then
/// double as the proof that instrumentation never perturbs the
/// simulation. A deadlock comes back as `Err` so soak runs record and
/// shrink it instead of dying.
pub fn run_scenario(
    sc: &Scenario,
    depth: usize,
    record: bool,
    observe: bool,
) -> Result<RunOutput, RunError> {
    run_scenario_ckpt(sc, depth, record, observe, CkptMode::Off)
}

/// Checkpoint participation of one run (ISSUE 8).
#[derive(Clone, Copy)]
pub enum CkptMode<'a> {
    /// Plain run.
    Off,
    /// Record: cut to `path` every `every` serviced events.
    Record {
        /// Cut interval.
        every: u64,
        /// Checkpoint file.
        path: &'a Path,
    },
    /// Resume from the latest cut in `path` under the resume-identity
    /// oracle.
    Resume {
        /// Checkpoint file.
        path: &'a Path,
    },
}

/// Applies a scenario's backend/transport knobs (scheduler, placement,
/// pre-emption, filter, OS batch, disk wake) plus the frontend batch
/// `depth` onto a `SimConfig`. Shared with the fleet runner
/// (`compass-fleet`), whose lattice points carry their knob values in
/// the scenario itself — one definition of "how a scenario configures a
/// run" for both harnesses.
pub fn apply_scenario_knobs(cfg: &mut compass::SimConfig, sc: &Scenario, depth: usize) {
    cfg.backend.sched = sc.sched;
    cfg.backend.placement = sc.placement;
    cfg.backend.batch_depth = depth;
    cfg.backend.deadlock_ms = 30_000;
    if sc.preempt {
        cfg.backend.preempt_interval = Some(400_000);
        cfg.backend.timer_interval = Some(400_000);
    } else {
        // Keep the interval timer ticking in every scenario so the IRQ
        // path stays under test even without pre-emption.
        cfg.backend.timer_interval = Some(900_000);
    }
    cfg.filter = sc.filter;
    cfg.kernel_batch_depth = sc.os_batch;
    cfg.disk_wake = sc.disk_wake;
}

/// [`run_scenario`] with a checkpoint mode.
pub fn run_scenario_ckpt(
    sc: &Scenario,
    depth: usize,
    record: bool,
    observe: bool,
    ckpt: CkptMode<'_>,
) -> Result<RunOutput, RunError> {
    let mut b = sc.builder();
    let sink = if record { Some(trace::sink()) } else { None };
    if let Some(s) = &sink {
        b = b.record_accesses(Arc::clone(s));
    }
    match ckpt {
        CkptMode::Off => {}
        CkptMode::Record { every, path } => b = b.checkpoint_every(every, path),
        CkptMode::Resume { path } => b = b.resume(path),
    }
    let cfg = b.config_mut();
    apply_scenario_knobs(cfg, sc, depth);
    if observe {
        cfg.obs = ObsConfig::full(TraceLevel::Fine);
        cfg.obs.progress_every = Some(10_000);
    }
    let report = b.try_run()?;
    let trace = sink
        .map(|s| std::mem::take(&mut *s.lock()))
        .unwrap_or_default();
    Ok(RunOutput { report, trace })
}

/// Architecture-independent quantities: equal across every backend knob
/// for timing-independent workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Signature {
    /// Per application process: `(frontend events, OS calls)`.
    per_proc: Vec<(u64, u64)>,
    /// Bytes written through `os::fs`.
    fs_write_bytes: u64,
    /// Barrier episodes completed.
    barriers: u64,
}

fn signature(r: &RunReport) -> Signature {
    Signature {
        per_proc: r.frontends.iter().map(|f| (f.events, f.os_calls)).collect(),
        fs_write_bytes: r.fs_write_bytes,
        barriers: r.backend.sync.barriers,
    }
}

/// Variants of `sc` that each change exactly one architecture/OS knob.
/// Every preset has 4 CPUs, so the knob under test is the only change.
pub fn metamorphic_variants(sc: &Scenario) -> Vec<Scenario> {
    let mut v = Vec::new();
    let mut push = |s: Scenario| {
        if s != *sc {
            v.push(s);
        }
    };
    push(Scenario {
        preset: if sc.preset == ArchPreset::SimpleSmp {
            ArchPreset::CcNuma2x2
        } else {
            ArchPreset::SimpleSmp
        },
        ..*sc
    });
    push(Scenario {
        geometry: if sc.geometry == Geometry::SmallCaches {
            Geometry::Default
        } else {
            Geometry::SmallCaches
        },
        ..*sc
    });
    push(Scenario {
        sched: if sc.sched == SchedPolicy::Fcfs {
            SchedPolicy::Affinity
        } else {
            SchedPolicy::Fcfs
        },
        ..*sc
    });
    push(Scenario {
        placement: if sc.placement == PlacementPolicy::FirstTouch {
            PlacementPolicy::RoundRobin
        } else {
            PlacementPolicy::FirstTouch
        },
        ..*sc
    });
    push(Scenario {
        preempt: !sc.preempt,
        ..*sc
    });
    push(Scenario {
        filter: !sc.filter,
        ..*sc
    });
    v
}

/// Runs the full check stack on one scenario; returns one message per
/// failed check (empty = clean).
///
/// Layers: depth-1 baseline with trace recording → oracle replay →
/// filter-toggled differential → OS-batch-twin and disk-wake-twin
/// differentials → checkpoint record/resume → depth {4,16,64}
/// differentials → (timing-independent workloads only) metamorphic knob
/// variants. The per-step invariant layer runs inside every one of these
/// when built with `--features check-invariants`.
pub fn check_scenario(sc: &Scenario) -> Vec<String> {
    check_scenario_with_soak_ckpt(sc, None)
}

/// [`check_scenario`], optionally cutting checkpoints of the baseline
/// run into `soak_ckpt` (every 500 serviced events) so a killed soak can
/// continue the in-flight seed from its last cut — see
/// [`crate::soak`].
pub fn check_scenario_with_soak_ckpt(sc: &Scenario, soak_ckpt: Option<&Path>) -> Vec<String> {
    let mut failures = Vec::new();
    // The baseline runs with the full observability stack on; every other
    // run leaves it off, so the depth differentials below also prove that
    // instrumentation does not change a single statistic.
    let base_ckpt = match soak_ckpt {
        Some(path) => CkptMode::Record { every: 500, path },
        None => CkptMode::Off,
    };
    let base = match run_scenario_ckpt(sc, 1, true, true, base_ckpt) {
        Ok(out) => out,
        Err(e) => return vec![format!("depth-1 run deadlocked: {e}")],
    };
    if base.trace.is_empty() {
        failures.push("depth-1 run recorded an empty trace".into());
    }
    if base
        .report
        .obs
        .as_ref()
        .is_none_or(|o| o.counters.is_empty())
    {
        failures.push("observed depth-1 run reported no counters".into());
    }
    if let Err(e) = oracle::verify_trace(&sc.arch_config(), &base.trace, &base.report.backend.mem) {
        failures.push(format!("oracle(depth 1): {e}"));
    }
    // Twin differentials: a dark depth-1 run with one transport knob
    // toggled must match the instrumented baseline statistic for
    // statistic. Depth 1 pins per-event rendezvous, so any divergence is
    // the knob's alone.
    // * filter — frontend reference filtering the other way;
    // * os_batch — the kernel syscall path on the classic per-event port
    //   (or, when the scenario already is classic, at depth 64): the
    //   credit-based aggregate reply may change host time only;
    // * disk_wake — wake-driven disk delivery settles the same
    //   latencies the polled drain charged.
    let twin_os_batch = if sc.os_batch == 1 { 64 } else { 1 };
    let twins = [
        (
            format!("filter={} vs filter={}", !sc.filter, sc.filter),
            Scenario {
                filter: !sc.filter,
                ..*sc
            },
        ),
        (
            format!("os_batch={twin_os_batch} vs os_batch={}", sc.os_batch),
            Scenario {
                os_batch: twin_os_batch,
                ..*sc
            },
        ),
        (
            format!("disk_wake={} vs disk_wake={}", !sc.disk_wake, sc.disk_wake),
            Scenario {
                disk_wake: !sc.disk_wake,
                ..*sc
            },
        ),
    ];
    for (label, twin) in &twins {
        match run_scenario(twin, 1, false, false) {
            Ok(run) => {
                for d in diff::diff_backend_stats(&base.report.backend, &run.report.backend) {
                    failures.push(format!("{label}: {d}"));
                }
            }
            Err(e) => failures.push(format!("{label} twin run deadlocked: {e}")),
        }
    }
    // Checkpoint/resume differential (ISSUE 8): record the scenario with
    // `checkpoint_every`, then resume from the latest cut — once under
    // the scenario's own knobs and once under flipped transport knobs
    // (filter, OS batch, disk wake, batch depth). All of them run under
    // the resume-identity oracle and must reproduce the baseline
    // `BackendStats` bit for bit.
    if sc.ckpt {
        let path = std::env::temp_dir().join(format!(
            "compass-simcheck-{}-{:x}.ckpt",
            std::process::id(),
            sc.seed
        ));
        let _ = std::fs::remove_file(&path);
        match run_scenario_ckpt(
            sc,
            1,
            false,
            false,
            CkptMode::Record {
                every: 500,
                path: &path,
            },
        ) {
            Ok(run) => {
                for d in diff::diff_backend_stats(&base.report.backend, &run.report.backend) {
                    failures.push(format!("checkpoint-record vs base: {d}"));
                }
                // A run shorter than one cut interval writes no file;
                // there is then nothing to resume.
                if path.exists() {
                    match run_scenario_ckpt(sc, 1, false, false, CkptMode::Resume { path: &path }) {
                        Ok(run) => {
                            for d in
                                diff::diff_backend_stats(&base.report.backend, &run.report.backend)
                            {
                                failures.push(format!("checkpoint-resume vs base: {d}"));
                            }
                        }
                        Err(e) => failures.push(format!("checkpoint-resume run failed: {e}")),
                    }
                    let flipped = Scenario {
                        filter: !sc.filter,
                        os_batch: twin_os_batch,
                        disk_wake: !sc.disk_wake,
                        ..*sc
                    };
                    match run_scenario_ckpt(
                        &flipped,
                        16,
                        false,
                        false,
                        CkptMode::Resume { path: &path },
                    ) {
                        Ok(run) => {
                            for d in
                                diff::diff_backend_stats(&base.report.backend, &run.report.backend)
                            {
                                failures
                                    .push(format!("checkpoint-resume(flipped knobs) vs base: {d}"));
                            }
                        }
                        Err(e) => {
                            failures.push(format!("checkpoint-resume(flipped knobs) failed: {e}"))
                        }
                    }
                }
            }
            Err(e) => failures.push(format!("checkpoint-record run failed: {e}")),
        }
        let _ = std::fs::remove_file(&path);
    }
    for depth in &DEPTHS[1..] {
        let run = match run_scenario(sc, *depth, false, false) {
            Ok(out) => out,
            Err(e) => {
                failures.push(format!("depth {depth} run deadlocked: {e}"));
                continue;
            }
        };
        for d in diff::diff_backend_stats(&base.report.backend, &run.report.backend) {
            failures.push(format!("depth {depth} vs 1: {d}"));
        }
    }
    if sc.workload.timing_independent() {
        let sig0 = signature(&base.report);
        for var in metamorphic_variants(sc) {
            let run = match run_scenario(&var, 8, false, false) {
                Ok(out) => out,
                Err(e) => {
                    failures.push(format!("metamorphic variant {var:?} deadlocked: {e}"));
                    continue;
                }
            };
            let sig = signature(&run.report);
            if sig != sig0 {
                failures.push(format!(
                    "metamorphic: architecture-independent quantities changed \
                     under {var:?}:\n  base:    {sig0:?}\n  variant: {sig:?}"
                ));
            }
        }
    }
    failures
}

/// Greedily minimises a failing scenario: repeatedly moves to the first
/// shrink candidate that still fails, until none does (bounded — each
/// probe is a full multi-run check).
pub fn shrink_failure(sc: &Scenario) -> (Scenario, Vec<String>) {
    let mut cur = *sc;
    let mut cur_failures = check_scenario(&cur);
    for _ in 0..16 {
        let mut advanced = false;
        for cand in cur.shrink() {
            let f = check_scenario(&cand);
            if !f.is_empty() {
                cur = cand;
                cur_failures = f;
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    (cur, cur_failures)
}
