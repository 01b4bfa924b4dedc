//! Readers for the Linux `/proc` files the benchmark samples. Parsing is
//! split from reading so the parsers can be tested on canned text.

use std::collections::BTreeMap;
use std::fs;

/// Clock ticks per second of `/proc/*/stat` CPU times (`USER_HZ`, fixed
/// at 100 on every Linux architecture the simulator builds for).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`. For a
/// process this includes threads that have already exited.
pub fn parse_stat_cpu_s(text: &str) -> Option<f64> {
    // The command name is parenthesised and may itself hold spaces or
    // parentheses: fields are counted from the last ')'.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name: state is field 3 of the man page, utime 14, stime 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// Nanoseconds on CPU: the first field of `/proc/<pid>/task/<tid>/schedstat`.
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// The numeric `key:` fields of a `/proc/.../status` file, in kB for the
/// memory lines and plain counts for the rest.
pub fn parse_status(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter_map(|line| {
            let (key, rest) = line.split_once(':')?;
            let v = rest.split_whitespace().next()?.parse().ok()?;
            Some((key.trim().to_string(), v))
        })
        .collect()
}

/// The 1-minute load average from the text of `/proc/loadavg`.
pub fn parse_loadavg_1m(text: &str) -> Option<f64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Steal and total ticks from the aggregate `cpu` line of `/proc/stat`:
/// time the hypervisor ran something else while this machine's CPUs
/// wanted to run.
pub fn parse_proc_stat_steal(text: &str) -> Option<(u64, u64)> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user.
    let steal = *ticks.get(7)?;
    Some((steal, ticks.iter().take(8).sum()))
}

/// Current `(steal, total)` ticks of the whole machine.
pub fn steal_ticks() -> Option<(u64, u64)> {
    parse_proc_stat_steal(&fs::read_to_string("/proc/stat").ok()?)
}

/// Share of the machine's CPU time stolen between two readings of
/// [`steal_ticks`] (0 when either is missing, as off Linux guests).
pub fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Process CPU seconds so far (all threads, live and exited).
pub fn process_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat_cpu_s(&t))
        .expect("/proc/self/stat has CPU times")
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = parse_status(&text)
        .get("VmHWM")
        .copied()
        .expect("/proc/self/status has VmHWM");
    kb as f64 / 1024.0
}

/// One reading of one thread.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThreadReading {
    /// Thread name (`comm`, cut to 15 bytes by the kernel).
    pub name: String,
    /// Nanoseconds on CPU.
    pub cpu_ns: u64,
    /// Voluntary context switches.
    pub vol_csw: u64,
    /// Involuntary context switches.
    pub invol_csw: u64,
}

/// Reads one thread's directory (`/proc/self/task/<tid>` or
/// `/proc/thread-self`); `None` when the thread exited meanwhile.
pub fn read_thread(dir: &str) -> Option<ThreadReading> {
    let name = fs::read_to_string(format!("{dir}/comm")).ok()?;
    let cpu_ns = parse_schedstat_ns(&fs::read_to_string(format!("{dir}/schedstat")).ok()?)?;
    let status = parse_status(&fs::read_to_string(format!("{dir}/status")).ok()?);
    Some(ThreadReading {
        name: name.trim_end().to_string(),
        cpu_ns,
        vol_csw: status.get("voluntary_ctxt_switches").copied().unwrap_or(0),
        invol_csw: status
            .get("nonvoluntary_ctxt_switches")
            .copied()
            .unwrap_or(0),
    })
}

/// The thread ids of this process.
pub fn thread_ids() -> Vec<u64> {
    fs::read_dir("/proc/self/task")
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// This thread's id (`/proc/thread-self` resolves to `<pid>/task/<tid>`).
pub fn own_tid() -> Option<u64> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_counts_from_the_last_paren() {
        let text = "4242 (odd) name) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    250 50 3 1 20 0 9 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(text), Some(3.0));
        assert_eq!(parse_stat_cpu_s("garbage"), None);
    }

    #[test]
    fn schedstat_first_field_is_cpu_ns() {
        assert_eq!(parse_schedstat_ns("1234567 89 10\n"), Some(1_234_567));
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tcompass-backend\nVmHWM:\t   20480 kB\n\
                    voluntary_ctxt_switches:\t95123\nnonvoluntary_ctxt_switches:\t17\n";
        let s = parse_status(text);
        assert_eq!(s.get("VmHWM"), Some(&20_480));
        assert_eq!(s.get("voluntary_ctxt_switches"), Some(&95_123));
        assert_eq!(s.get("nonvoluntary_ctxt_switches"), Some(&17));
        assert!(!s.contains_key("Name"));
    }

    #[test]
    fn steal_is_the_eighth_cpu_field() {
        let text = "cpu  77609 0 33486 413868 3606 0 333 9338 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(
            parse_proc_stat_steal(text),
            Some((9338, 77609 + 33486 + 413868 + 3606 + 333 + 9338))
        );
        assert_eq!(parse_proc_stat_steal("intr 1 2\n"), None);
        assert_eq!(steal_share(Some((10, 1000)), Some((30, 1200))), 0.1);
        assert_eq!(steal_share(None, Some((30, 1200))), 0.0);
    }

    #[test]
    fn loadavg_first_field() {
        assert_eq!(parse_loadavg_1m("0.52 0.30 0.54 1/87 11070\n"), Some(0.52));
    }

    #[test]
    fn live_proc_files_read() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        let me = read_thread("/proc/thread-self").expect("own thread readable");
        assert!(me.cpu_ns > 0);
        assert!(thread_ids().contains(&own_tid().expect("own tid")));
    }
}
