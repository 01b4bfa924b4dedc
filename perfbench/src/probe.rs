//! The traced run's instruments, all outside the program: spans recorded
//! around the benchmark's own calls into the simulator, and a sampler
//! thread that reads per-thread CPU time and context switches from
//! `/proc/self/task`.

use crate::procfs::{self, ThreadReading};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One span: a named interval, the span that caused it, and the thread
/// that ran it.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Calls and total nanoseconds, keyed by (parent span, boundary name).
type CallCounts = BTreeMap<(u32, &'static str), (u64, u64)>;

/// Spans and call counts kept in memory for the whole process and
/// written out once at exit.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// Calls and total nanoseconds per fine-grained boundary (one entry
    /// per simulation and name), too frequent for a span each.
    calls: Mutex<CallCounts>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            calls: Mutex::new(BTreeMap::new()),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: impl Into<String>, parent: Option<u32>) -> u32 {
        let mut spans = self.spans.lock().expect("span list poisoned");
        let id = spans.len() as u32;
        let start_ns = self.now_ns();
        spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&self, id: u32) {
        let end = self.now_ns();
        self.spans.lock().expect("span list poisoned")[id as usize].end_ns = end;
    }

    /// Moves a span's start (for a boundary known only afterwards).
    pub fn set_start(&self, id: u32, start_ns: u64) {
        self.spans.lock().expect("span list poisoned")[id as usize].start_ns = start_ns;
    }

    pub fn set_end(&self, id: u32, end_ns: u64) {
        self.spans.lock().expect("span list poisoned")[id as usize].end_ns = end_ns;
    }

    /// Adds one call of `ns` nanoseconds at boundary `name` under `parent`.
    pub fn count(&self, parent: u32, name: &'static str, ns: u64) {
        let mut calls = self.calls.lock().expect("call counts poisoned");
        let e = calls.entry((parent, name)).or_default();
        e.0 += 1;
        e.1 += ns;
    }

    /// The spans as JSON lines, then one line per counted boundary.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.lock().expect("span list poisoned").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {}, \"parent\": {parent}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                crate::record::quote(&s.name),
                s.start_ns,
                s.end_ns
            );
        }
        for ((parent, name), (calls, ns)) in self.calls.lock().expect("call counts poisoned").iter()
        {
            let _ = writeln!(
                out,
                "{{\"count\": \"{name}\", \"parent\": {parent}, \"calls\": {calls}, \"total_ns\": {ns}}}"
            );
        }
        out
    }
}

/// The simulator layer a thread belongs to, from its name.
fn layer_of(thread_name: &str) -> Option<&'static str> {
    const PREFIXES: [(&str, &str); 5] = [
        ("app-process-", "frontend"),
        ("compass-backend", "backend"),
        ("compass-shard", "backend"),
        ("os-thread-", "os"),
        // `kernel-bottom-half`, cut to 15 bytes by the kernel.
        ("kernel-bottom-h", "devices"),
    ];
    PREFIXES
        .iter()
        .find(|(p, _)| thread_name.starts_with(p))
        .map(|(_, layer)| *layer)
}

/// Per-layer totals over the threads of one simulation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTotals {
    pub cpu_s: f64,
    pub vol_csw: u64,
    pub invol_csw: u64,
}

/// Sums the last reading of every thread by layer; threads that belong
/// to no simulator layer are left out.
pub fn group_by_layer(
    readings: &BTreeMap<u64, ThreadReading>,
) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for r in readings.values() {
        if let Some(layer) = layer_of(&r.name) {
            let t = out.entry(layer).or_default();
            t.cpu_s += r.cpu_ns as f64 / 1e9;
            t.vol_csw += r.vol_csw;
            t.invol_csw += r.invol_csw;
        }
    }
    out
}

/// How often the sampler reads `/proc/self/task`. A thread's CPU time
/// after its last sample is lost when it exits, so this bounds the error
/// per thread.
const SAMPLE_EVERY: Duration = Duration::from_millis(2);

/// Latest reading per thread id, kept by the sampler and by threads that
/// report their own final reading before they exit.
pub type Readings = Arc<Mutex<BTreeMap<u64, ThreadReading>>>;

/// A running sampler; [`Sampler::stop`] joins it and returns the last
/// reading of every thread it saw.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
    readings: Readings,
}

impl Sampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let readings: Readings = Arc::default();
        let (stop2, readings2) = (Arc::clone(&stop), Arc::clone(&readings));
        let handle = std::thread::Builder::new()
            .name("perf-sampler".into())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    sample_into(&readings2);
                    std::thread::sleep(SAMPLE_EVERY);
                }
            })
            .expect("spawn sampler thread");
        Self {
            stop,
            handle,
            readings,
        }
    }

    /// The shared map, for threads reporting their own final reading.
    pub fn readings(&self) -> Readings {
        Arc::clone(&self.readings)
    }

    pub fn stop(self) -> BTreeMap<u64, ThreadReading> {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("sampler thread panicked");
        sample_into(&self.readings);
        let map = self.readings.lock().expect("readings poisoned");
        map.clone()
    }
}

/// Reads every live thread once. Counters only grow, so the newest
/// reading replaces the older one.
fn sample_into(readings: &Readings) {
    let fresh: Vec<(u64, ThreadReading)> = procfs::thread_ids()
        .into_iter()
        .filter_map(|tid| Some((tid, procfs::read_thread(&format!("/proc/self/task/{tid}"))?)))
        .collect();
    let mut map = readings.lock().expect("readings poisoned");
    for (tid, r) in fresh {
        merge_reading(&mut map, tid, r);
    }
}

/// Records the calling thread's own reading (called by a simulated
/// process body just before its thread exits, so nothing is lost).
pub fn report_own(readings: &Readings) {
    if let (Some(tid), Some(r)) = (procfs::own_tid(), procfs::read_thread("/proc/thread-self")) {
        merge_reading(&mut readings.lock().expect("readings poisoned"), tid, r);
    }
}

fn merge_reading(map: &mut BTreeMap<u64, ThreadReading>, tid: u64, r: ThreadReading) {
    let e = map.entry(tid).or_default();
    if r.cpu_ns >= e.cpu_ns {
        *e = r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(name: &str, cpu_ns: u64, vol: u64, invol: u64) -> ThreadReading {
        ThreadReading {
            name: name.into(),
            cpu_ns,
            vol_csw: vol,
            invol_csw: invol,
        }
    }

    #[test]
    fn threads_group_by_name_prefix() {
        let mut m = BTreeMap::new();
        m.insert(1, reading("app-process-0", 200_000_000, 10, 1));
        m.insert(2, reading("app-process-1", 300_000_000, 20, 2));
        m.insert(3, reading("compass-backend", 1_000_000_000, 95_000, 5));
        m.insert(4, reading("os-thread-3", 50_000_000, 7, 0));
        m.insert(5, reading("kernel-bottom-h", 10_000_000, 3, 0));
        m.insert(6, reading("perf-sampler", 99_000_000, 9, 9));
        let g = group_by_layer(&m);
        assert!((g["frontend"].cpu_s - 0.5).abs() < 1e-12);
        assert_eq!(g["frontend"].vol_csw, 30);
        assert_eq!(g["backend"].vol_csw, 95_000);
        assert_eq!(g["os"].cpu_s, 0.05);
        assert_eq!(g["devices"].invol_csw, 0);
        assert_eq!(g.len(), 4, "the sampler itself is no simulator layer");
    }

    #[test]
    fn newer_readings_replace_older_ones() {
        let mut m = BTreeMap::new();
        merge_reading(&mut m, 7, reading("app-process-0", 5, 1, 0));
        merge_reading(&mut m, 7, reading("app-process-0", 9, 2, 0));
        merge_reading(&mut m, 7, reading("app-process-0", 8, 2, 0));
        assert_eq!(m[&7].cpu_ns, 9);
    }

    #[test]
    fn sampler_sees_a_busy_named_thread() {
        let s = Sampler::start();
        let readings = s.readings();
        std::thread::Builder::new()
            .name("os-thread-9".into())
            .spawn(move || {
                let t0 = Instant::now();
                let mut x = 0u64;
                while t0.elapsed() < Duration::from_millis(20) {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
                report_own(&readings);
            })
            .unwrap()
            .join()
            .unwrap();
        let g = group_by_layer(&s.stop());
        assert!(g["os"].cpu_s > 0.005, "{g:?}");
    }

    #[test]
    fn spans_nest_and_serialise() {
        let t = Tracer::new();
        let root = t.open("simulate", None);
        let child = t.open("process-0", Some(root));
        t.close(child);
        t.close(root);
        t.count(root, "player.on_tx", 40);
        t.count(root, "player.on_tx", 60);
        let out = t.to_jsonl();
        assert!(out.contains("\"parent\": 0, \"name\": \"process-0\""));
        assert!(out.contains("\"calls\": 2, \"total_ns\": 100"));
    }
}
