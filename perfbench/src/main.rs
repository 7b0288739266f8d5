//! End-to-end and per-layer benchmark of the Group Scissor stack.
//!
//! ```text
//! perfbench --workload <lenet|convnet|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A workload compresses one model with `run_pipeline_on`, then serves the
//! exported f32 and int8 plans behind one `Router` for the rest of the
//! `--seconds` (at least [`MIN_SERVE_S`]). Each workload runs in a fresh
//! worker process at the program's defaults (the pool sized to the
//! machine, no tuning variables set). With `--trace 0` the last stdout
//! line is a JSON object with every end-to-end metric; with `--trace 1` a second,
//! traced worker runs the same workload and the line carries the
//! per-layer metrics and the tracing overhead instead. The exit code is
//! non-zero when a correctness gate fails. `--workload all` runs every
//! workload and prints one table. `--seeds <a>-<b>` in place of `--seed`
//! runs one workload once per seed and prints each metric's median and
//! quartile spread, the check a benchmark change must pass.

mod compress;
mod flops;
mod host;
mod record;
mod serve;
mod stats;
mod tracer;

use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant, UNIX_EPOCH};

use group_scissor::ModelKind;

use record::Record;

/// The workloads, each with why it exists.
const WORKLOADS: [(&str, &str); 2] = [
    ("lenet", "PCA clipping of LeNet, then serving it: spectral fits share the compress time"),
    ("convnet", "SVD clipping of ConvNet, then serving it: padded convolutions dominate"),
];

/// Shortest serving phase, seconds, whatever the compression left of
/// `--seconds`.
const MIN_SERVE_S: f64 = 10.0;

/// End-to-end metrics in report order; every workload reports all of them.
const END_TO_END: [&str; 11] = [
    "setup_s",
    "compress_s",
    "peak_rss_mb",
    "ok_frac",
    "crossbar_area_ratio",
    "routing_area_ratio",
    "accuracy_f32",
    "accuracy_int8",
    "serve_p50_ms",
    "serve_p90_ms",
    "serve_peak_rps",
];

/// Variables that would move the program off its defaults; workers run
/// without them.
const KNOBS: [&str; 8] = [
    "RAYON_NUM_THREADS",
    "GS_TILE_BATCH",
    "GS_LLC_BUDGET",
    "GS_OBS_TRACE",
    "GS_OBS_TRACE_CAP",
    "GS_OBS_PROFILE",
    "GS_MNIST_DIR",
    "GS_CIFAR_DIR",
];

/// Wall-clock budget of one workload, both workers included.
const RUN_BUDGET: Duration = Duration::from_secs(170);

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    worker: bool,
    /// Last seed of a `--seeds` sweep (`seed` is the first).
    last_seed: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        worker: false,
        last_seed: None,
    };
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--worker" {
            out.worker = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seeds" => {
                let range = value
                    .split_once('-')
                    .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)));
                let (a, b) = range
                    .filter(|(a, b)| a < b)
                    .ok_or_else(|| format!("bad seed range {value}"))?;
                seed = Some(a);
                out.last_seed = Some(b);
            }
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let known = out.workload == "all" || WORKLOADS.iter().any(|w| w.0 == out.workload);
    if !known {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    out.seed = seed.ok_or("--seed is required")?;
    out.seconds = seconds.ok_or("--seconds must be a positive number")?;
    out.trace = trace.ok_or("--trace is required")?;
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.0).join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.worker {
        if args.workload == "all" {
            eprintln!("perfbench: a worker runs one workload");
            return ExitCode::from(2);
        }
        exit_with_parent();
        worker(&args);
        return ExitCode::SUCCESS;
    }
    for (k, v) in host::facts() {
        eprintln!("host {k}: {v}");
    }
    let ok = match (args.workload.as_str(), args.last_seed) {
        (_, Some(last)) => sweep(&args, last),
        ("all", None) => run_all(&args),
        _ => run_one(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Ends this worker if its parent goes away, so stopping the benchmark
/// stops the run it was measuring. The watch thread lives as long as the
/// process.
fn exit_with_parent() {
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(200));
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(3);
        }
    });
}

/// Writes a traced run's spans under [`out_dir`].
fn write_spans(workload: &str, phase: &str, seed: u64, json: String) {
    let path = out_dir().join(format!("spans-{workload}-{phase}-seed{seed}.json"));
    let written = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, json));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Runs one workload in this process and prints its record.
fn worker(args: &Args) {
    let cpu0 = host::cpu_sample();
    let t = Instant::now();
    let (seed, traced) = (args.seed, args.trace);
    let model = if args.workload == "lenet" { ModelKind::LeNet } else { ModelKind::ConvNet };
    let (mut rec, setup_s, exported) = if traced {
        let (rec, tr, exported) = compress::run_traced(model, seed);
        write_spans(&args.workload, "compress", seed, tr.to_json());
        (rec, 0.0, exported)
    } else {
        compress::run_untraced(model, seed)
    };
    if let Some(exported) = exported {
        let serve_s = (args.seconds - t.elapsed().as_secs_f64()).max(MIN_SERVE_S);
        let (served, deploy_s, spans) = serve::run(model, exported, seed, serve_s, traced);
        rec.merge(served);
        if traced {
            write_spans(&args.workload, "serve", seed, serve::spans_json(&spans));
        } else {
            rec.metric("setup_s", setup_s + deploy_s, "s");
        }
    }
    rec.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
    rec.metric("proc.cpu_s", host::proc_cpu_s(), "s");
    rec.metric("proc.wall_s", t.elapsed().as_secs_f64(), "s");
    rec.metric("host.steal_frac", host::steal_frac(cpu0, host::cpu_sample()), "ratio");
    print!("{}", rec.to_lines());
}

/// Runs a worker process and returns its record.
fn spawn_worker(args: &Args, traced: bool, deadline: Instant) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no executable path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--worker", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    for k in KNOBS {
        cmd.env_remove(k);
    }
    let mut child = cmd.spawn().map_err(|e| format!("could not start worker: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let status = loop {
        match child.try_wait().map_err(|e| format!("waiting for worker: {e}"))? {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err("worker overran the run budget and was stopped".into());
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let text = reader.join().map_err(|_| "stdout reader panicked")?.map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("worker exited with {status}"));
    }
    Record::from_lines(&text).ok_or_else(|| "worker printed no record".to_string())
}

/// Compares a compress fingerprint with the one an earlier run of the
/// same seed and the same build left behind, then records it. Returns
/// `None` when there is nothing to compare against.
fn same_as_earlier_run(workload: &str, seed: u64, fingerprint: u64) -> Option<bool> {
    let build = std::env::current_exe()
        .and_then(std::fs::metadata)
        .and_then(|m| m.modified())
        .ok()?
        .duration_since(UNIX_EPOCH)
        .ok()?
        .as_nanos();
    let path = out_dir().join(format!("quality-{workload}-seed{seed}.txt"));
    let line = format!("{build} {fingerprint:016x}");
    let earlier = std::fs::read_to_string(&path).ok();
    let _ = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, &line));
    let earlier = earlier?;
    let (earlier_build, earlier_fp) = earlier.trim().split_once(' ')?;
    (earlier_build == build.to_string()).then(|| earlier_fp == format!("{fingerprint:016x}"))
}

/// Measures one workload; returns the result record and whether every
/// gate passed.
fn measure(args: &Args) -> (Record, bool) {
    let deadline = Instant::now() + RUN_BUDGET;
    let mut out = Record::default();
    let untraced = spawn_worker(args, false, deadline);
    let traced = args.trace.then(|| spawn_worker(args, true, deadline));
    let mut workers_ok = true;
    for (label, r) in [("untraced", Some(&untraced)), ("traced", traced.as_ref())] {
        match r {
            Some(Ok(rec)) => {
                for note in &rec.notes {
                    eprintln!("{} {label}: {note}", args.workload);
                }
            }
            Some(Err(e)) => {
                eprintln!("{} {label}: FAILED: {e}", args.workload);
                out.check(false, e);
                workers_ok = false;
            }
            None => {}
        }
    }
    let Ok(base) = untraced else { return (out, false) };
    if traced.is_none() {
        for name in END_TO_END.iter().filter(|&&n| n != "ok_frac" && base.get(n).is_none()) {
            out.check(false, &format!("end-to-end metric {name} was measured"));
        }
    }
    for (name, value, unit) in base.metrics.iter().filter(|m| !END_TO_END.contains(&m.0.as_str())) {
        eprintln!("{} untraced {name} = {value} {unit}", args.workload);
    }
    if let Some(fp) = base.fingerprint {
        if let Some(same) = same_as_earlier_run(&args.workload, args.seed, fp) {
            out.check(same, "outcome equals an earlier run of this seed bit for bit");
        }
    }
    match traced {
        None => {
            out.checks(base.attempted, base.failed, "operations");
            let ok_frac = out.ok_frac();
            for name in END_TO_END {
                let found = match name {
                    "ok_frac" => Some((ok_frac, "ratio")),
                    _ => base.metrics.iter().find(|m| m.0 == name).map(|m| (m.1, m.2.as_str())),
                };
                if let Some((value, unit)) = found {
                    out.metric(name, value, unit);
                }
            }
        }
        Some(Ok(tr)) => {
            out.checks(base.attempted + tr.attempted, base.failed + tr.failed, "operations");
            if tr.fingerprint.is_some() || base.fingerprint.is_some() {
                out.check(
                    tr.fingerprint == base.fingerprint,
                    "traced outcome equals untraced bit for bit",
                );
            }
            let ratio = |a: Option<f64>, b: Option<f64>| a.zip(b).map_or(f64::NAN, |(a, b)| a / b);
            let overhead = ratio(tr.get("trace.wall_s"), base.get("compress_s")) - 1.0;
            let serve_overhead = ratio(base.get("serve_peak_rps"), tr.get("serve_peak_rps")) - 1.0;
            for m in tr.metrics.iter().filter(|m| !END_TO_END.contains(&m.0.as_str())) {
                out.metrics.push(m.clone());
            }
            out.metric("trace.overhead_frac", overhead, "ratio");
            out.metric("trace.serve_overhead_frac", serve_overhead, "ratio");
        }
        Some(Err(_)) => {}
    }
    let correct = workers_ok && out.failed == 0;
    for note in out.notes.iter().filter(|n| n.starts_with("FAILED")) {
        eprintln!("{}: {note}", args.workload);
    }
    for (name, value, unit) in &out.metrics {
        eprintln!("{} {name} = {value} {unit}", args.workload);
    }
    (out, correct)
}

fn run_one(args: &Args) -> bool {
    let (out, correct) = measure(args);
    println!("{}", out.to_json(correct));
    correct
}

fn run_all(args: &Args) -> bool {
    let mut all = Record::default();
    let mut correct = true;
    println!("{:<18} {:<28} {:>16}  unit", "workload", "metric", "value");
    for (workload, why) in WORKLOADS {
        eprintln!("== {workload}: {why}");
        let (out, ok) = measure(&Args { workload: workload.into(), ..args.clone() });
        correct &= ok;
        all.checks(out.attempted, out.failed, workload);
        for (name, value, unit) in out.metrics {
            println!("{workload:<18} {name:<28} {value:>16.6}  {unit}");
            all.metric(format!("{workload}.{name}"), value, &unit);
        }
        println!("{workload:<18} {:<28} {:>16}", "correct", ok);
    }
    println!("{}", all.to_json(correct));
    correct
}

/// Runs one workload once per seed in `args.seed..=last` and prints each
/// metric's median, quartiles and spread (inter-quartile distance over
/// the median).
fn sweep(args: &Args, last: u64) -> bool {
    let mut correct = true;
    let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
    for seed in args.seed..=last {
        let (out, ok) = measure(&Args { seed, ..args.clone() });
        println!("{}", out.to_json(ok));
        correct &= ok;
        for (name, value, unit) in out.metrics {
            match series.iter_mut().find(|s| s.0 == name) {
                Some(s) => s.2.push(value),
                None => series.push((name, unit, vec![value])),
            }
        }
    }
    println!("{:<28} {:>14} {:>14} {:>14} {:>8}  unit", "metric", "q1", "median", "q3", "spread");
    for (name, unit, values) in &series {
        let [q1, _, q3] = stats::quartiles(values).unwrap_or([f64::NAN; 3]);
        let spread = stats::spread(values).unwrap_or(f64::NAN);
        let med = stats::median(values);
        println!("{name:<28} {q1:>14.6} {med:>14.6} {q3:>14.6} {spread:>8.4}  {unit}");
    }
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload convnet --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.worker),
            ("convnet", 7, 10.0, true, false)
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload all --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload all --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload all --seconds 1 --trace 0")).is_err());
        let s = parse_args(&argv("--workload lenet --seeds 3-7 --seconds 2 --trace 0")).unwrap();
        assert_eq!((s.seed, s.last_seed), (3, Some(7)));
        assert!(parse_args(&argv("--workload lenet --seeds 7-3 --seconds 2 --trace 0")).is_err());
    }
}
