//! **Checkpoint/fast-forward report** — the paper's long-run recipe
//! measured end to end, as machine-readable JSON (the record behind
//! `BENCH_ckpt.json`).
//!
//! Three runs of the same TPC-C-style workload:
//!
//! 1. *cold* — full detail from the first instruction (the baseline
//!    every long simulation pays today);
//! 2. *warm* — the warmup fast-forwarded (functional execution only,
//!    timing models skipped) with a checkpoint cut after it;
//! 3. *resume* — restarted from that checkpoint under the
//!    resume-identity oracle.
//!
//! The report records the warmup-skip speedup (cold wall / warm wall),
//! the checkpoint's size and load latency, and — as a hard gate, not a
//! statistic — that the resumed run's `BackendStats` are bit-identical
//! to the recording run's. `--smoke` shrinks the transaction count for
//! CI; the JSON shape is the same.
//!
//! Wall-clock rows carry an honesty guard: when the host has a single
//! hardware thread the speedup is still meaningful (fast-forward removes
//! *work*, not just parallelism), but `host_cpus` is recorded so readers
//! can judge the absolute numbers.
//!
//! The record/resume identity cycle is also exercised by `compass-fleet
//! --preset ckpt` and by every `--smoke` run (the fleet CI gate that
//! replaced the old `report_ckpt --smoke` invocation); this binary
//! remains the measured end-to-end recipe.

use compass::runner::RunReport;
use compass::{ArchConfig, CheckpointData, CpuCtx, SimBuilder};
use compass_workloads::db2lite::tpcc::{self, TerminalStats, TpccConfig};
use compass_workloads::db2lite::{Db2Config, Db2Shared};
use parking_lot::Mutex;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const TERMINALS: u64 = 4;

#[derive(Clone, Copy)]
enum Mode<'a> {
    Cold,
    /// Fast-forward `ff` events, no checkpoint: the pure warmup-skip.
    Ff {
        ff: u64,
    },
    /// Fast-forward `ff` events, then cut a checkpoint every `every`.
    Warm {
        ff: u64,
        every: u64,
        path: &'a Path,
    },
    Resume {
        path: &'a Path,
    },
}

fn run_tpcc(txns: u32, mode: Mode) -> RunReport {
    let cfg = TpccConfig {
        districts: 4,
        customers: 32,
        items: 64,
        txns_per_terminal: txns,
        new_order_pct: 50,
        seed: 0xA27C,
    };
    let shared = Db2Shared::new(Db2Config {
        pool_pages: 32,
        shm_key: 0xDB2,
    });
    let sink = Arc::new(Mutex::new(vec![
        TerminalStats::default();
        TERMINALS as usize
    ]));
    let cust_index: Arc<Mutex<Option<Arc<compass_workloads::db2lite::index::Index>>>> =
        Arc::new(Mutex::new(None));
    let idx_slot = Arc::clone(&cust_index);
    let shared_for_load = Arc::clone(&shared);
    let mut b = SimBuilder::new(ArchConfig::ccnuma(2, 2)).prepare_kernel(move |k| {
        *idx_slot.lock() = Some(tpcc::load(k, &shared_for_load, cfg));
    });
    for rank in 0..TERMINALS {
        let idx = Arc::clone(&cust_index);
        let shared = Arc::clone(&shared);
        let sink = Arc::clone(&sink);
        b = b.add_process(move |cpu: &mut CpuCtx| {
            let index = idx.lock().clone().expect("loader ran before terminals");
            let mut body = tpcc::terminal(Arc::clone(&shared), cfg, rank, Arc::clone(&sink), index);
            body(cpu)
        });
    }
    let c = b.config_mut();
    c.backend.batch_depth = 16;
    c.backend.deadlock_ms = 30_000;
    c.backend.timer_interval = Some(2_000_000);
    match mode {
        Mode::Cold => {}
        Mode::Ff { ff } => b = b.fast_forward(ff),
        Mode::Warm { ff, every, path } => {
            b = b.fast_forward(ff).checkpoint_every(every, path);
        }
        Mode::Resume { path } => b = b.resume(path),
    }
    b.run()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Smoke keeps CI under a few seconds; the full run makes the warmup
    // long enough that skipping it is clearly visible in wall time. The
    // fast-forward window covers most of the run — that is the recipe's
    // point: warmup dominates a long simulation.
    let (txns, ff, every) = if smoke {
        (16, 15_000, 2_000)
    } else {
        (64, 60_000, 5_000)
    };
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let path =
        std::env::temp_dir().join(format!("compass-report-ckpt-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let t = Instant::now();
    let cold = run_tpcc(txns, Mode::Cold);
    let cold_wall = t.elapsed();
    eprintln!("cold   {:>8.1} ms", cold_wall.as_secs_f64() * 1e3);

    let t = Instant::now();
    let ffr = run_tpcc(txns, Mode::Ff { ff });
    let ff_wall = t.elapsed();
    eprintln!(
        "ff     {:>8.1} ms  (fast-forward {ff} events, no checkpoint)",
        ff_wall.as_secs_f64() * 1e3
    );

    let t = Instant::now();
    let warm = run_tpcc(
        txns,
        Mode::Warm {
            ff,
            every,
            path: &path,
        },
    );
    let warm_wall = t.elapsed();
    eprintln!(
        "warm   {:>8.1} ms  (fast-forward + checkpoint cuts)",
        warm_wall.as_secs_f64() * 1e3
    );
    assert!(path.exists(), "warm run wrote no checkpoint cut");

    let ckpt_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let t = Instant::now();
    let data = CheckpointData::load(&path).expect("checkpoint loads");
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    let cut_events = data.cut_events;
    drop(data);

    let t = Instant::now();
    let resume = run_tpcc(txns, Mode::Resume { path: &path });
    let resume_wall = t.elapsed();
    eprintln!(
        "resume {:>8.1} ms  (cut at event {cut_events})",
        resume_wall.as_secs_f64() * 1e3
    );
    let _ = std::fs::remove_file(&path);

    // The gate: resume must be bit-identical to the run it resumed.
    let fmt = |r: &RunReport| format!("{:#?}", r.backend);
    assert_eq!(
        fmt(&warm),
        fmt(&resume),
        "resumed BackendStats diverge from the recording run"
    );
    // Fast-forward must not change functional behaviour. (Frontend event
    // counts are *not* asserted: TPC-C's instruction stream is legitimately
    // timing-dependent — lock grant order steers buffer-pool reuse — and
    // fast-forward changes timing. Committed work must not change.)
    assert_eq!(
        cold.fs_write_bytes, warm.fs_write_bytes,
        "fast-forward changed the committed transaction log"
    );

    let speedup = cold_wall.as_secs_f64() / ff_wall.as_secs_f64().max(1e-9);
    let ckpt_overhead_ms = (warm_wall.as_secs_f64() - ff_wall.as_secs_f64()) * 1e3;
    // Wall clock on a small run is noisy; the deterministic measure of
    // what fast-forward buys is the architecture-model work it skipped.
    let cold_accesses = cold.backend.mem.total_accesses();
    let ff_accesses = ffr.backend.mem.total_accesses();
    assert!(
        ff_accesses < cold_accesses,
        "fast-forward skipped no modeled accesses ({ff_accesses} vs {cold_accesses})"
    );
    let skipped_pct = 100.0 * (1.0 - ff_accesses as f64 / cold_accesses as f64);
    println!("{{");
    println!("  \"bench\": \"checkpoint\",");
    println!("  \"smoke\": {smoke},");
    println!("  \"host_cpus\": {host_cpus},");
    if host_cpus < 2 {
        println!("  \"note\": \"single-hardware-thread host: wall times include frontend/backend timeslicing\",");
    }
    println!("  \"ff_events\": {ff},");
    println!("  \"cut_events\": {cut_events},");
    println!("  \"cold_ms\": {:.1},", cold_wall.as_secs_f64() * 1e3);
    println!("  \"ff_ms\": {:.1},", ff_wall.as_secs_f64() * 1e3);
    println!("  \"warm_ms\": {:.1},", warm_wall.as_secs_f64() * 1e3);
    println!("  \"resume_ms\": {:.1},", resume_wall.as_secs_f64() * 1e3);
    println!("  \"warmup_skip_speedup\": {speedup:.2},");
    println!("  \"modeled_accesses_cold\": {cold_accesses},");
    println!("  \"modeled_accesses_ff\": {ff_accesses},");
    println!("  \"modeled_accesses_skipped_pct\": {skipped_pct:.1},");
    println!("  \"ckpt_overhead_ms\": {ckpt_overhead_ms:.1},");
    println!("  \"ckpt_bytes\": {ckpt_bytes},");
    println!("  \"ckpt_load_ms\": {load_ms:.2},");
    println!("  \"resume_bit_identical\": true");
    println!("}}");
}
