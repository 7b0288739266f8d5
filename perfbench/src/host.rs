//! Host and process facts recorded with every run, so a slow run can be
//! traced to the machine rather than the code.
//!
//! Everything is read from procfs: `/proc/stat` for the VM's steal share,
//! `/proc/self/stat` for the process CPU time (the same `utime`/`stime`
//! counters `getrusage(RUSAGE_SELF)` reports, at clock-tick resolution)
//! and `/proc/self/status` for the peak resident set.

use std::fs;

/// Kernel clock ticks per second for `/proc/*/stat` times (`USER_HZ`,
/// 100 on every mainstream Linux architecture).
const USER_HZ: f64 = 100.0;

/// A reading of the host-wide CPU counters in `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuSample {
    steal: u64,
    total: u64,
}

/// Reads the aggregate `cpu` line of `/proc/stat`.
pub fn cpu_sample() -> Option<CpuSample> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    parse_cpu_line(stat.lines().next()?)
}

fn parse_cpu_line(line: &str) -> Option<CpuSample> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user, so stop at steal.
    let v: Vec<u64> = fields.take(8).map(|f| f.parse().ok()).collect::<Option<_>>()?;
    if v.len() < 8 {
        return None;
    }
    Some(CpuSample { steal: v[7], total: v.iter().sum() })
}

/// Share of host CPU time the hypervisor gave to other tenants between
/// two readings.
pub fn steal_frac(before: Option<CpuSample>, after: Option<CpuSample>) -> f64 {
    match (before, after) {
        (Some(a), Some(b)) if b.total > a.total => {
            (b.steal - a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => 0.0,
    }
}

/// User plus system CPU seconds this process has used so far.
pub fn proc_cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else { return f64::NAN };
    // Fields after the parenthesised command name start at field 3.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else { return f64::NAN };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else { return f64::NAN };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Static facts about the host and the build, as `(key, value)` pairs.
pub fn facts() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        ("matmul_worker_threads", scissor_linalg::matmul_worker_threads().to_string()),
        ("cpu_model", cpu_model),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("rustflags", env!("PERFBENCH_RUSTFLAGS").to_string()),
        ("profile", env!("PERFBENCH_PROFILE").to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_aggregate_cpu_line() {
        let s = parse_cpu_line("cpu  100 0 50 800 10 0 5 35 0 0").unwrap();
        assert_eq!((s.steal, s.total), (35, 1000));
        assert!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8").is_none());
        let later = CpuSample { steal: 45, total: 1100 };
        assert!((steal_frac(Some(s), Some(later)) - 0.1).abs() < 1e-12);
        assert_eq!(steal_frac(None, Some(later)), 0.0);
    }

    #[test]
    fn process_readings_are_live() {
        assert!(peak_rss_mb() > 0.0);
        assert!(proc_cpu_s() >= 0.0);
    }
}
