//! End-to-end benchmark of the SheetMusiq sheet server.
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload study|feed|cold_open --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. It builds the `ssa-server` release
//! binary, generates the workload's inputs from the seed, and drives the
//! server as a child process over loopback TCP with keep-alive
//! connections. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! replays every workload's generated operations in-process with spans
//! around calls into each layer's public functions and prints per-layer
//! metrics. Human-readable lines come first; the last line of standard
//! output is one JSON object. WORKLOADS.md describes the workloads and
//! what each metric should respond to.

mod cold;
mod feed;
mod gen;
mod net;
mod replay;
mod stats;
mod study;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Server spawns per run that `setup_s` takes the median of.
const SETUP_REPEATS: usize = 3;
/// Percentile of the read tails. The study's largest view (task 1) is
/// exactly a tenth of its views, and about half of those wait out a 40 ms
/// delayed ACK, so a p90 or p95 sits on an edge between latency modes and
/// jumps from run to run.
const READ_TAIL: f64 = 0.99;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad)? == 1,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !["study", "feed", "cold_open"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Everything a run prints: readable lines, metrics, and op counts.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: usize,
    pub failed: usize,
}

impl Report {
    /// A metric for the JSON line (also printed).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        self.note(name, value, unit, note);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A printed-only figure.
    pub fn note(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        println!("{name:<34} {value:>14.4} {unit:<8} {note}");
    }

    /// Median and tail of a latency sample set, as printed figures named
    /// `<name>_p50_ms` and `<name>_p<nominal>_ms`. Returns the summary.
    pub fn latency(&mut self, name: &str, samples: &[f64], nominal: f64) -> Option<stats::Summary> {
        let s = stats::summarize(samples, nominal)?;
        let n = format!("n={}", s.n);
        self.note(&format!("{name}_p50_ms"), s.p50, "ms", &n);
        let tail = format!("{n}, taken at p{:.1}", s.tail_q * 100.0);
        let label = format!("{name}_p{:.0}_ms", nominal * 100.0);
        self.note(&label, s.tail, "ms", &tail);
        Some(s)
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn build_server(root: &Path) -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "-p", "ssa-server"])
        .current_dir(root)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ssa-server failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .map_or_else(|| root.join("target"), |t| root.join(t));
    let bin = target.join("release").join("ssa-server");
    if !bin.exists() {
        return Err(format!("no server binary at {}", bin.display()));
    }
    Ok(bin)
}

/// Spawn a server [`SETUP_REPEATS`] times, timing each set-up; every
/// server but the last is killed, the last is returned with the times.
fn spawn_repeatedly<S>(
    mut spawn: impl FnMut() -> std::io::Result<(S, f64)>,
) -> Result<(S, Vec<f64>), String> {
    let mut samples = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let (server, secs) = spawn().map_err(|e| format!("server set-up failed: {e}"))?;
        samples.push(secs);
        last = Some(server);
    }
    let server = last.ok_or_else(|| "no set-up ran".to_string())?;
    Ok((server, samples))
}

/// A workload's run over TCP: its inputs, what the clients measured,
/// set-up times (s) and the server's peak RSS (MB).
pub struct Tcp<I, R> {
    pub inputs: I,
    pub run: R,
    pub setup: Vec<f64>,
    pub rss: f64,
}

/// `study` over TCP for `seconds`, oracle included; ops counted into `r`.
pub fn study_tcp(
    bin: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    r: &mut Report,
) -> Result<Tcp<study::Inputs, study::Run>, String> {
    let inputs = study::prepare(work, seed, gen::STUDY_SCALE)?;
    r.attempted += inputs.tasks.len() + inputs.oracle_failures;
    r.failed += inputs.oracle_failures;
    let log = work.join("server.log");
    let (server, setup) = spawn_repeatedly(|| study::spawn(bin, &inputs, &log))?;
    let run = study::drive(&server.addr, &inputs.tasks, seconds, seed);
    let rss = server.peak_rss_mb();
    server.kill();
    r.attempted += run.attempted;
    r.failed += run.failed;
    Ok(Tcp {
        inputs,
        run,
        setup,
        rss,
    })
}

/// `feed` over TCP for `seconds`, split over [`feed::SEGMENTS`] fresh
/// servers on the pristine sheet, each segment with its crash check; ops
/// counted into `r`. The peak RSS is the median of the segments' servers.
/// Fails if a segment completes no write or no poll.
pub fn feed_tcp(
    bin: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    r: &mut Report,
) -> Result<Tcp<feed::Inputs, feed::Run>, String> {
    let inputs = feed::prepare(work, seed)?;
    let log = work.join("server.log");
    let mut run = feed::Run::default();
    let mut setup = Vec::new();
    let mut rss = Vec::new();
    for k in 0..feed::SEGMENTS {
        if k > 0 {
            feed::reset(&inputs)?;
        }
        let (server, secs) =
            feed::spawn(bin, &inputs, &log).map_err(|e| format!("server set-up failed: {e}"))?;
        setup.push(secs);
        let segment = feed::drive(&server.addr, &inputs, seconds / feed::SEGMENTS as f64)
            .map_err(|e| e.to_string())?;
        rss.push(server.peak_rss_mb());
        let mut segment = segment;
        let acks: Vec<f64> = segment.acks.iter().map(|(_, ms)| *ms).collect();
        for (name, samples) in [("ack", &acks), ("dashboard", &segment.dashboards)] {
            if samples.is_empty() {
                return Err(format!("feed segment {k} completed no {name}"));
            }
            let n = format!("n={}", samples.len());
            let p50 = stats::median(samples);
            r.note(&format!("{name}_p50_ms[segment {k}]"), p50, "ms", &n);
        }
        segment.segment_acks.push(stats::median(&acks));
        segment
            .segment_dashboards
            .push(stats::median(&segment.dashboards));
        r.attempted += 1;
        if !feed::crash_check(bin, server, &inputs, &segment, &log) {
            r.failed += 1;
        }
        run.extend(segment);
    }
    r.attempted += run.attempted;
    r.failed += run.failed;
    Ok(Tcp {
        inputs,
        run,
        setup,
        rss: stats::median(&rss),
    })
}

/// `cold_open` restarts until `seconds` have passed (at least
/// [`SETUP_REPEATS`]); ops counted into `r`. Returns the inputs, the
/// restarts and the seconds they took.
pub fn cold_tcp(
    bin: &Path,
    work: &Path,
    seed: u64,
    seconds: f64,
    r: &mut Report,
) -> Result<(cold::Inputs, Vec<cold::Restart>, f64), String> {
    let inputs = cold::prepare(&work.join("pristine"), seed)?;
    let log = work.join("server.log");
    let start = std::time::Instant::now();
    let mut restarts = Vec::new();
    while restarts.len() < SETUP_REPEATS || start.elapsed().as_secs_f64() < seconds {
        r.attempted += 1;
        let x = cold::restart(bin, &inputs, &work.join("run"), &log).map_err(|e| {
            r.failed += 1;
            format!("cold restart failed: {e}")
        })?;
        if !x.correct {
            r.failed += 1;
        }
        restarts.push(x);
    }
    Ok((inputs, restarts, start.elapsed().as_secs_f64()))
}

fn setup_metric(r: &mut Report, samples: &[f64]) {
    let n = format!("n={}, spawn -> every hosted sheet answers", samples.len());
    r.metric("setup_s", stats::median(samples), "s", &n);
}

fn run_study(bin: &Path, work: &Path, args: &Args, r: &mut Report) -> Result<(), String> {
    let Tcp {
        inputs,
        run,
        setup,
        rss,
    } = study_tcp(bin, work, args.seed, args.seconds, r)?;
    setup_metric(r, &setup);
    let g = r.latency("gesture", &run.gestures, 0.99);
    let v = r.latency("view", &run.views, READ_TAIL);
    let (Some(g), Some(v)) = (g, v) else {
        return Err("study completed no gesture and no view".into());
    };
    r.metric("op_p50_ms", g.p50, "ms", "= gesture_p50_ms");
    r.metric("read_p50_ms", v.p50, "ms", "= view_p50_ms");
    let tps = run.tasks as f64 / run.elapsed;
    let n = format!("n={} tasks", run.tasks);
    r.note("tasks_per_s", tps, "tasks/s", &n);
    r.metric("peak_rss_mb", rss, "MB", "server VmHWM");
    for task in &inputs.tasks {
        let ms: Vec<f64> = run
            .views
            .iter()
            .zip(&run.view_task)
            .filter(|(_, t)| **t == task.id)
            .map(|(x, _)| *x)
            .collect();
        if !ms.is_empty() {
            let note = format!("n={}, {} bytes", ms.len(), task.view.len());
            let name = format!("view_p50_ms[task {}]", task.id);
            r.note(&name, stats::median(&ms), "ms", &note);
        }
    }
    let mismatches = run.mismatches as f64;
    r.note("view_mismatches", mismatches, "count", "vs naive oracle");
    Ok(())
}

fn run_feed(bin: &Path, work: &Path, args: &Args, r: &mut Report) -> Result<(), String> {
    let Tcp {
        run, setup, rss, ..
    } = feed_tcp(bin, work, args.seed, args.seconds, r)?;
    setup_metric(r, &setup);
    let acks: Vec<f64> = run.acks.iter().map(|(_, ms)| *ms).collect();
    r.latency("ack", &acks, 0.99);
    r.latency("dashboard", &run.dashboards, READ_TAIL);
    let servers = format!("{} servers'", run.segment_acks.len());
    let note = format!("median of the {servers} ack_p50_ms, from due time");
    r.metric("op_p50_ms", stats::median(&run.segment_acks), "ms", &note);
    let note = format!("median of the {servers} dashboard_p50_ms, from due time");
    r.metric(
        "read_p50_ms",
        stats::median(&run.segment_dashboards),
        "ms",
        &note,
    );
    let wps = run.acked.len() as f64 / run.elapsed;
    r.note("writes_per_s", wps, "1/s", "acked writes per second");
    r.metric("peak_rss_mb", rss, "MB", "server VmHWM");
    if let Some(l) = stats::summarize(&run.lag, 0.99) {
        r.note("loadgen.lag_p99_ms", l.tail, "ms", &format!("n={}", l.n));
    }
    Ok(())
}

fn run_cold(bin: &Path, work: &Path, args: &Args, r: &mut Report) -> Result<(), String> {
    let (_, restarts, elapsed) = cold_tcp(bin, work, args.seed, args.seconds, r)?;
    let col = |f: fn(&cold::Restart) -> f64| restarts.iter().map(f).collect::<Vec<f64>>();
    setup_metric(r, &col(|x| x.setup_s));
    let a = r.latency("first_answer", &col(|x| x.first_answer), 0.99);
    let v = r.latency("first_view", &col(|x| x.first_view), READ_TAIL);
    let (Some(a), Some(v)) = (a, v) else {
        return Err("no restart completed".into());
    };
    let note = "= first_answer_p50_ms, spawn -> first ack";
    r.metric("op_p50_ms", a.p50, "ms", note);
    r.metric("read_p50_ms", v.p50, "ms", "view right after the first ack");
    let rps = restarts.len() as f64 / elapsed;
    r.note("restarts_per_s", rps, "1/s", "");
    let rss = stats::median(&col(|x| x.peak_rss_mb));
    r.metric(
        "peak_rss_mb",
        rss,
        "MB",
        "server VmHWM, median over restarts",
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload study|feed|cold_open --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bin = match build_server(&root) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let work = root
        .join(".bench_work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let mut report = Report::default();
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let outcome = if args.trace {
        replay::run(&bin, &work, &root, &args, &mut report)
    } else {
        match args.workload.as_str() {
            "study" => run_study(&bin, &work, &args, &mut report),
            "feed" => run_feed(&bin, &work, &args, &mut report),
            _ => run_cold(&bin, &work, &args, &mut report),
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    report.note(
        "error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        &format!("{} failed of {} attempted", report.failed, report.attempted),
    );
    println!("{}", report.json());
    ExitCode::SUCCESS
}
