//! The `ssa-server` binary: host spreadsheets over HTTP.
//!
//! ```text
//! ssa-server [--port N] [--pool N] [--backlog N]
//!            [--preload tiny|scale:F] [--open FILE]...
//!            [--durable DIR] [--fsync always|batch:MS|never] [--replica N]
//! ```
//!
//! `--preload` hosts the deterministic TPC-H tables (seed 42) so the
//! server starts with data to query; new sheets can always be created
//! at runtime with `PUT /sheets/{name}` and a CSV body. `--open`
//! (repeatable) registers binary sheet files: on a durable server it
//! recovers snapshot + WAL tail (DESIGN.md §17); otherwise it uses the
//! paged store, reading only header/footer and loading rows lazily.
//!
//! `--durable DIR` makes every hosted sheet crash-safe: commits append
//! to a per-sheet write-ahead log under DIR before they are acked, with
//! the fsync policy from `--fsync` (default `batch:25`). `--replica`
//! sets the id stamped on committed events — give each server of a
//! replicated group a distinct one. `--backlog` bounds the accept
//! queue; overflow connections get 503 + Retry-After.

use ssa_server::{DurabilityConfig, ServerState};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ssa-server [--port N] [--pool N] [--backlog N] \
         [--preload tiny|scale:F] [--open FILE]... \
         [--durable DIR] [--fsync always|batch:MS|never] [--replica N]"
    );
    ExitCode::FAILURE
}

/// Return freed heap memory to the OS when the resident size grows
/// (glibc only).
///
/// The evaluator's parallel sections run on short-lived scoped threads,
/// and glibc gives each of them an arena of its own. Rows those threads
/// build outlive them — a session's cached evaluation — and are freed
/// later by a request thread. The freed memory then stays in the dead
/// thread's arena, resident, until some later parallel section happens
/// to reuse it. A session that builds a large view and then narrows it
/// strands ~12 MB that way; a refresh that patches its cache never
/// evaluates again, so nothing would reclaim it. `malloc_trim` releases
/// the free pages of every arena; it takes each arena's lock briefly,
/// so it runs on its own thread rather than on a request path.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn spawn_heap_trimmer() {
    /// How often the trimmer reads the resident size.
    const INTERVAL: std::time::Duration = std::time::Duration::from_millis(250);
    /// Resident-size growth since the last trim, in kB, that triggers
    /// the next one. Pages handed back fault in again when the allocator
    /// reuses them, so trimming on a timer, or on every small rise, would
    /// tax every write's chunk copies; a jump this large is a freed
    /// evaluation, not a writer's working set.
    const GROWTH_KB: u64 = 8192;
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    fn resident_kb() -> Option<u64> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
        line.split_whitespace().nth(1)?.parse().ok()
    }
    std::thread::Builder::new()
        .name("ssa-server-trim".into())
        .spawn(|| {
            let mut baseline = 0;
            while let Some(now) = resident_kb() {
                if now > baseline + GROWTH_KB {
                    // SAFETY: `malloc_trim` takes no pointers and is
                    // thread-safe; it only returns unused pages of the
                    // allocator's own heaps.
                    unsafe {
                        malloc_trim(0);
                    }
                    baseline = resident_kb().unwrap_or(now);
                } else {
                    baseline = baseline.min(now);
                }
                std::thread::sleep(INTERVAL);
            }
        })
        .expect("spawn heap trim thread");
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn spawn_heap_trimmer() {}

fn preload(state: &ServerState, spec: &str) -> Result<(), String> {
    let config = if spec == "tiny" {
        ssa_tpch::GenConfig::tiny()
    } else if let Some(f) = spec.strip_prefix("scale:") {
        let factor: f64 = f
            .parse()
            .map_err(|_| format!("bad scale factor {f:?} in --preload"))?;
        ssa_tpch::GenConfig::scale(factor)
    } else {
        return Err(format!("bad --preload spec {spec:?} (tiny|scale:F)"));
    };
    let data = ssa_tpch::generate(&config, 42);
    let catalog = data.catalog();
    let mut names: Vec<String> = catalog.names().iter().map(|n| n.to_string()).collect();
    names.sort();
    for name in names {
        let relation = catalog
            .get(&name)
            .map_err(|e| format!("preload {name}: {e}"))?
            .clone();
        let rows = relation.len();
        state
            .create_sheet(relation)
            .map_err(|e| format!("preload {name}: {e}"))?;
        eprintln!("preloaded {name} ({rows} rows)");
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut port = 7878u16;
    let mut pool = 4usize;
    let mut backlog: Option<usize> = None;
    let mut preload_spec: Option<String> = None;
    let mut open_paths: Vec<String> = Vec::new();
    let mut durable_dir: Option<String> = None;
    let mut fsync_spec = "batch:25".to_string();
    let mut replica = 0u64;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let value = |argv: &mut dyn Iterator<Item = String>| {
            argv.next().ok_or_else(|| format!("{arg} needs a value"))
        };
        let parsed = match arg.as_str() {
            "--port" => value(&mut argv).and_then(|v| {
                v.parse::<u16>()
                    .map(|p| port = p)
                    .map_err(|_| format!("bad port {v:?}"))
            }),
            "--pool" => value(&mut argv).and_then(|v| {
                v.parse::<usize>()
                    .map(|p| pool = p.max(1))
                    .map_err(|_| format!("bad pool size {v:?}"))
            }),
            "--backlog" => value(&mut argv).and_then(|v| {
                v.parse::<usize>()
                    .map(|b| backlog = Some(b.max(1)))
                    .map_err(|_| format!("bad backlog size {v:?}"))
            }),
            "--preload" => value(&mut argv).map(|v| preload_spec = Some(v)),
            "--open" => value(&mut argv).map(|v| open_paths.push(v)),
            "--durable" => value(&mut argv).map(|v| durable_dir = Some(v)),
            "--fsync" => value(&mut argv).map(|v| fsync_spec = v),
            "--replica" => value(&mut argv).and_then(|v| {
                v.parse::<u64>()
                    .map(|r| replica = r)
                    .map_err(|_| format!("bad replica id {v:?}"))
            }),
            "--help" | "-h" => return usage(),
            other => Err(format!("unknown argument {other:?}")),
        };
        if let Err(e) = parsed {
            eprintln!("error: {e}");
            return usage();
        }
    }

    // Crash-schedule tests arm failpoints in the child through the
    // environment; a release build compiles this away entirely.
    #[cfg(feature = "fault-injection")]
    {
        let armed = ssa_relation::fault::arm_from_env();
        if armed > 0 {
            eprintln!("armed {armed} failpoint(s) from SSA_FAULTS");
        }
    }

    let policy = match spreadsheet_algebra::FsyncPolicy::parse(&fsync_spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };

    let state = match &durable_dir {
        Some(dir) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: cannot create durability dir {dir}: {e}");
                return ExitCode::FAILURE;
            }
            Arc::new(ServerState::durable(DurabilityConfig {
                dir: dir.into(),
                policy,
                replica,
            }))
        }
        None => Arc::new(ServerState::new()),
    };

    if let Some(spec) = preload_spec {
        if let Err(e) = preload(&state, &spec) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    for path in open_paths {
        let opened = if durable_dir.is_some() {
            state.open_durable_sheet(&path)
        } else {
            state.open_sheet_file(&path)
        };
        match opened {
            Ok((name, rows)) => eprintln!("opened {name} ({rows} rows) from {path}"),
            Err(e) => {
                eprintln!("error: open {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    spawn_heap_trimmer();

    // Under `--fsync batch:MS` a background sweep flushes dirty WALs on
    // the batch interval, bounding the window in which an acked-but-
    // unsynced op can be lost to a power cut (a process crash alone
    // loses nothing: the OS has the appended bytes).
    if durable_dir.is_some() {
        if let spreadsheet_algebra::FsyncPolicy::Batch(interval) = policy {
            let flusher_state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("ssa-server-wal-flush".into())
                .spawn(move || loop {
                    std::thread::sleep(interval);
                    flusher_state.flush_wals();
                })
                .expect("spawn wal flusher thread");
        }
    }

    let backlog = backlog.unwrap_or(pool * 16 + 16);
    let handle =
        match ssa_server::serve_with(Arc::clone(&state), ("127.0.0.1", port), pool, backlog) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("error: cannot bind 127.0.0.1:{port}: {e}");
                return ExitCode::FAILURE;
            }
        };
    // The smoke script scrapes this exact line for the bound address.
    println!("listening on {}", handle.addr());

    // Serve until killed: the accept loop owns the process lifetime.
    loop {
        std::thread::park();
    }
}
