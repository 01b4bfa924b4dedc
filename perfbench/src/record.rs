//! Result records: one line of tab-separated `key=value` fields per
//! benchmark run, carrying the host context and every metric, appended to
//! a result-set file. The compare mode reads two such files back.

use crate::procfs;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One run's record, keys in sorted order. Numbers are kept as written.
pub type Record = BTreeMap<String, String>;

/// A record's field read as a number.
pub fn num(r: &Record, key: &str) -> Option<f64> {
    r.get(key)?.parse().ok()
}

/// The host a result set came from. Results from hosts with different
/// CPU counts are never compared.
pub fn host_context() -> Record {
    let mut r = Record::new();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    r.insert("host_cpus".into(), cpus.to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    r.insert("kernel".into(), kernel.trim().to_string());
    r.insert("rustc".into(), command_line("rustc", &["-V"]));
    // Only ask git inside a git checkout, so the lookup never wanders
    // into a parent directory's repository.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "unknown".into()
    };
    r.insert("commit".into(), commit);
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|t| procfs::parse_loadavg_1m(&t))
        .unwrap_or(-1.0);
    r.insert("loadavg_1m".into(), load.to_string());
    r
}

/// First line of a command's standard output, or "unknown" when it
/// cannot run (a checkout without git metadata, say).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()?
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Writes a record as one line. Tabs and line breaks inside a value
/// become spaces, so a line always reads back as the same fields.
pub fn to_line(r: &Record) -> String {
    let fields: Vec<String> = r
        .iter()
        .map(|(k, v)| format!("{k}={}", v.replace(['\t', '\n', '\r'], " ")))
        .collect();
    fields.join("\t")
}

/// Reads one line written by [`to_line`].
pub fn parse_line(line: &str) -> Result<Record, String> {
    line.split('\t')
        .map(|f| {
            let (k, v) = f
                .split_once('=')
                .ok_or(format!("field without '=': {f:?}"))?;
            Ok((k.to_string(), v.to_string()))
        })
        .collect()
}

/// A finite number in JSON form, all digits kept.
pub fn json_num(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not finite");
    format!("{x:?}")
}

pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_context_names_the_host() {
        let h = host_context();
        assert!(num(&h, "host_cpus").unwrap() >= 1.0);
        for key in ["kernel", "rustc", "commit", "loadavg_1m"] {
            assert!(h.contains_key(key), "{key}");
        }
    }
}
