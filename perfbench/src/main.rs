//! The COMPASS benchmark: host cost of simulating three commercial
//! workloads, end to end and layer by layer. See `README.md` beside this
//! package for the metrics, workloads and how to run it.
//!
//! ```text
//! compass-perfbench --workload <tpcd_q1|tpcc|httplite> --seed N --seconds S --trace 0|1 [--record FILE]
//! compass-perfbench compare PARENT.tsv CHANGE.tsv
//! compass-perfbench pin
//! ```

mod metrics;
mod probe;
mod procfs;
mod record;
mod stats;
mod workloads;

use metrics::{LayerSample, Metric, Tally, E2E};
use probe::{Sampler, Tracer};
use record::Record;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workloads::{Hooks, Workload};

/// Where traced runs leave their span files, relative to the directory
/// the benchmark runs in.
const OUT_DIR: &str = ".perfbench_out";

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: compass-perfbench --workload <tpcd_q1|tpcc|httplite> --seed N --seconds S \
         --trace 0|1 [--record FILE]\n       compass-perfbench compare PARENT.tsv CHANGE.tsv\n       \
         compass-perfbench pin"
    );
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        flags.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let workload = Workload::parse(get("--workload")?).ok_or("unknown workload")?;
    let seed = get("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        record: flags.get("--record").map(|s| s.to_string()),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        Some("pin") if args.len() == 1 => pin(),
        Some(_) => match parse_run(&args) {
            Ok(a) => run(&a),
            Err(e) => {
                eprintln!("perfbench: {e}");
                usage()
            }
        },
        None => usage(),
    }
}

/// Samples gathered by one benchmark run.
struct Collected {
    tally: Tally,
    /// Per-metric values, one per accepted sample.
    values: BTreeMap<&'static str, Vec<f64>>,
}

fn run(a: &RunArgs) -> ExitCode {
    let mut host = record::host_context();
    eprintln!(
        "perfbench: {} seed {} for {}s, trace {} | host_cpus {} kernel {} {} commit {} load {}",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        host["host_cpus"],
        host["kernel"],
        host["rustc"],
        host["commit"],
        host["loadavg_1m"],
    );
    let pinned = metrics::pinned_fingerprint(a.workload, a.seed);
    let steal0 = procfs::steal_ticks();
    let c = if a.trace {
        traced(a, pinned)
    } else {
        untraced(a, pinned)
    };
    let pct = 100.0 * procfs::steal_share(steal0, procfs::steal_ticks());
    eprintln!("perfbench: hypervisor steal during the run: {pct:.1}% of CPU time");
    host.insert("steal_pct".into(), pct.to_string());
    report(a, &host, &c)
}

/// Accumulated raw-twin wall time each `tpcd_q1` sample gathers for
/// `slowdown_vs_raw`: the raw runs are short, so several are timed per
/// simulation.
const RAW_SECONDS_PER_SAMPLE: f64 = 0.08;

/// Runs untraced samples until the time is up (closed loop: one at a
/// time). The first sample warms the host process and is checked but not
/// measured, except for the peak RSS read right after its simulation.
/// Each sample is one simulation, then on `tpcd_q1` a few raw-twin runs
/// for the answer check and `slowdown_vs_raw`. Every sample is checked;
/// the metrics come from the quieter half of those that passed, by
/// hypervisor steal (see `stats::quieter_half`).
fn untraced(a: &RunArgs, pinned: Option<u64>) -> Collected {
    let start = Instant::now();
    let mut c = Collected {
        tally: Tally::new(pinned),
        values: BTreeMap::new(),
    };
    let mut measured = Vec::new();
    let mut peak_rss = None;
    let mut samples = 0;
    while (samples <= metrics::MIN_SAMPLES || start.elapsed().as_secs_f64() < a.seconds)
        && start.elapsed().as_secs_f64() < metrics::HARD_STOP_S
    {
        let warmup = samples == 0;
        samples += 1;
        let steal0 = procfs::steal_ticks();
        let mut raws: Vec<workloads::Raw> = Vec::new();
        let sample = (|| {
            let sim = workloads::simulate(a.workload, a.seed, &Hooks::default())?;
            if warmup {
                // A fresh process's first simulation, before any raw twin:
                // later simulations reuse malloc arenas in whatever order
                // threads claim them, which moved the high-water mark by up
                // to 20% between runs.
                peak_rss = Some(procfs::peak_rss_mb());
            }
            // Only TPC-D has an answer to check and the paper's raw
            // baseline; the other twins serve the traced run.
            if a.workload == Workload::TpcdQ1 {
                while raws.is_empty()
                    || !warmup
                        && raws.iter().map(|r| r.wall_s).sum::<f64>() < RAW_SECONDS_PER_SAMPLE
                {
                    let raw = workloads::raw(a.workload, a.seed)?;
                    metrics::check_answer(&sim, &raw)?;
                    raws.push(raw);
                }
            }
            Ok(sim)
        })();
        let steal = procfs::steal_share(steal0, procfs::steal_ticks());
        let Some((fingerprint, sim)) = c.tally.add(sample.map(|s| (s.fingerprint, s))) else {
            continue;
        };
        let raw_walls: Vec<f64> = raws.iter().map(|r| r.wall_s).collect();
        eprintln!(
            "sample {samples}{}: {} events, sim {:.3}s, cpu {:.1}ns/event, raw {} x{}, \
             setup {:.4}s, steal {:.1}%, fingerprint {:016x}",
            if warmup { " (warmup)" } else { "" },
            sim.report.backend.events,
            sim.report.wall.as_secs_f64(),
            sim.cpu_s * 1e9 / sim.report.backend.events as f64,
            if raw_walls.is_empty() {
                "-".to_string()
            } else {
                format!("{:.4}s", stats::median(&raw_walls))
            },
            raws.len(),
            sim.setup_s,
            steal * 100.0,
            sim.fingerprint
        );
        if !warmup {
            measured.push((fingerprint, steal, metrics::end_to_end(&sim, &raw_walls)));
        }
    }
    let reference = c.tally.settle();
    let measured = measured
        .into_iter()
        .filter(|(fp, ..)| Some(*fp) == reference)
        .map(|(_, steal, values)| (steal, values))
        .collect();
    for values in stats::quieter_half(measured) {
        for (name, v) in values {
            c.values.entry(name).or_default().push(v);
        }
    }
    if let Some(mb) = peak_rss {
        c.values.insert("peak_rss_mb", vec![mb]);
    }
    c
}

/// The traced run: untraced and traced simulations alternate, the
/// traced ones with obs counters, spans and the thread sampler on; then
/// one recorded simulation whose access trace is replayed through fresh
/// architecture models.
fn traced(a: &RunArgs, pinned: Option<u64>) -> Collected {
    let start = Instant::now();
    let tracer = Tracer::new();
    let mut c = Collected {
        tally: Tally::new(pinned),
        values: BTreeMap::new(),
    };
    let (mut plain, mut layers) = (Vec::new(), Vec::new());
    // The replay runs last and takes about one simulation's time.
    let budget = a.seconds * 0.7;
    while (layers.len() < 2 || start.elapsed().as_secs_f64() < budget)
        && start.elapsed().as_secs_f64() < metrics::HARD_STOP_S
    {
        let sim = workloads::simulate(a.workload, a.seed, &Hooks::default());
        plain.extend(
            c.tally
                .add(sim.map(|s| (s.fingerprint, s.report.wall.as_secs_f64()))),
        );
        let root = tracer.open("sample", None);
        let sample = traced_sample(a, &tracer, root);
        tracer.close(root);
        layers.extend(c.tally.add(sample.map(|s| (s.fingerprint, s))));
    }
    let reference = c.tally.settle();
    let plain_walls: Vec<f64> = plain
        .into_iter()
        .filter_map(|(fp, wall)| (Some(fp) == reference).then_some(wall))
        .collect();
    let mut traced_walls = Vec::new();
    for (_, layer) in layers.into_iter().filter(|(fp, _)| Some(*fp) == reference) {
        traced_walls.push(layer.wall_s);
        for (name, v) in layer.metrics {
            c.values.entry(name).or_default().push(v);
        }
    }
    let root = tracer.open("arch-replay", None);
    match metrics::arch_replay(a.workload, a.seed) {
        Ok(ns) => c
            .values
            .entry("arch.replay_ns_per_access")
            .or_default()
            .push(ns),
        Err(e) => {
            eprintln!("perfbench: FAILED arch replay: {e}");
            c.tally.attempted += 1;
            c.tally.failed += 1;
        }
    }
    tracer.close(root);
    if !plain_walls.is_empty() && !traced_walls.is_empty() {
        let ratio = stats::median(&traced_walls) / stats::median(&plain_walls);
        c.values.insert("trace.overhead_ratio", vec![ratio]);
    }
    write_trace_file(a, &tracer);
    c
}

fn traced_sample(a: &RunArgs, tracer: &Arc<Tracer>, root: u32) -> Result<LayerSample, String> {
    let raw_span = tracer.open("raw", Some(root));
    let raw = workloads::raw(a.workload, a.seed)?;
    tracer.close(raw_span);
    let sampler = Sampler::start();
    let hooks = Hooks {
        tracer: Some((Arc::clone(tracer), root)),
        readings: Some(sampler.readings()),
        obs: true,
        record: None,
    };
    let sim = workloads::simulate(a.workload, a.seed, &hooks);
    let threads = sampler.stop();
    let sim = sim?;
    metrics::check_answer(&sim, &raw)?;
    let layer = metrics::layers(&sim, &raw, &threads);
    // The obs phase counter is wall-clock, not CPU; show both side by side.
    let fe_cpu = layer.metrics.iter().find(|(n, _)| *n == "frontend.cpu_s");
    if let (Some(obs), Some((_, cpu))) = (&sim.report.obs, fe_cpu) {
        eprintln!(
            "traced sample: sim {:.3}s; obs frontend_gen_ns {:.3}s (thread lifetime minus comm \
             wait) vs frontend.cpu_s {cpu:.3}s",
            layer.wall_s,
            obs.counter("frontend_gen_ns") as f64 / 1e9
        );
    }
    Ok(layer)
}

fn write_trace_file(a: &RunArgs, tracer: &Tracer) {
    let path = format!("{OUT_DIR}/trace-{}-seed{}.jsonl", a.workload.name(), a.seed);
    let res =
        std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    match res {
        Ok(()) => eprintln!("perfbench: spans and counts written to {path}"),
        Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
    }
}

/// Prints the human-readable table (stderr), appends the record if
/// asked, and prints the result object as the last stdout line. Exits
/// nonzero when a metric could not be measured.
fn report(a: &RunArgs, host: &Record, c: &Collected) -> ExitCode {
    // The result object carries the gated metrics; the reported ones go
    // to the table and the record only.
    let (names, extra): (Vec<&Metric>, &[Metric]) = if a.trace {
        (metrics::LAYERS.iter().collect(), &[])
    } else {
        (E2E.iter().collect(), &metrics::REPORTED)
    };
    let mut rec = host.clone();
    rec.insert("workload".into(), a.workload.name().into());
    rec.insert("seed".into(), a.seed.to_string());
    rec.insert("trace".into(), u8::from(a.trace).to_string());
    rec.insert("attempted".into(), c.tally.attempted.to_string());
    rec.insert("failed".into(), c.tally.failed.to_string());
    let mut metrics_json = Vec::new();
    let mut complete = true;
    let names_len = names.len();
    eprintln!(
        "{:<28} {:>16} {:<6} {:>6} {:>8}",
        "metric", "median", "unit", "n", "iqr/med"
    );
    for (i, Metric { name, unit, .. }) in names.into_iter().chain(extra).enumerate() {
        let gated = i < names_len;
        let Some(vs) = c.values.get(name).filter(|v| !v.is_empty()) else {
            eprintln!("{name:<28} {:>16} {unit:<6}", "missing");
            complete &= !gated;
            continue;
        };
        let med = stats::median(vs);
        eprintln!(
            "{name:<28} {med:>16.6} {unit:<6} {:>6} {:>8.4}",
            vs.len(),
            stats::relative_iqr(vs)
        );
        rec.insert(name.to_string(), med.to_string());
        if !gated {
            continue;
        }
        metrics_json.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            record::quote(name),
            record::json_num(med),
            record::quote(unit)
        ));
    }
    let error_rate = c.tally.error_rate();
    eprintln!(
        "{:<28} {error_rate:>16.6} {:<6} {:>6}",
        "error_rate", "ratio", c.tally.attempted
    );
    if a.trace {
        metrics::print_table1(&c.values);
    }
    if let Some(path) = &a.record {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", record::to_line(&rec)));
        if let Err(e) = appended {
            eprintln!("perfbench: cannot append to {path}: {e}");
            complete = false;
        }
    }
    let correct = c.tally.failed == 0 && complete;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        c.tally.attempted,
        c.tally.failed,
        metrics_json.join(", ")
    );
    // Failed runs are reported in the result object (`correct`, `failed`);
    // a nonzero exit means no usable result was produced.
    if complete {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the fingerprint of every workload at the default and the
/// held-out seed, in the format of `fingerprints.txt`.
fn pin() -> ExitCode {
    for w in Workload::ALL {
        for seed in [metrics::DEFAULT_SEED, metrics::HELD_OUT_SEED] {
            match workloads::simulate(w, seed, &Hooks::default()) {
                Ok(sim) => println!("{} {seed} {:016x}", w.name(), sim.fingerprint),
                Err(e) => {
                    eprintln!("perfbench: {} seed {seed} failed: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn compare(parent: &str, change: &str) -> ExitCode {
    let load = |path: &str| -> Result<Vec<Record>, String> {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))?
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(record::parse_line)
            .collect()
    };
    let rows = load(parent)
        .and_then(|p| Ok((p, load(change)?)))
        .and_then(|(p, c)| metrics::compare_sets(&p, &c));
    match rows {
        Ok(rows) => {
            for row in rows {
                println!("{row}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            ExitCode::FAILURE
        }
    }
}
