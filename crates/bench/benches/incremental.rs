//! Incremental delta evaluation vs full re-evaluation for state edits.
//!
//! Measures the latency of one interactive edit — apply the operator,
//! then `view()` — on a spreadsheet whose cache is already warm, in two
//! modes: incremental (the delta-aware cache patches the cached
//! canonical relation) and full (`set_incremental(false)` +
//! `set_fast_reorganize(false)`, so every edit replays the whole
//! pipeline). Three edit scenarios, matching DESIGN.md §10:
//!
//! - `add_selection`: a fresh predicate lands on the sheet (Narrow).
//! - `tighten_selection`: an existing predicate is replaced by a
//!   strictly tighter one (Narrow via `Expr::implies`).
//! - `toggle_projection`: a column is hidden (Reorganize — the cached
//!   canonical is reused wholesale, only visibility changes).
//!
//! Every sample starts from the same warm cache, set up outside the
//! timed region. An incremental sample gets a freshly warmed sheet over
//! the shared base: a clone of the template would share its cached row
//! chunks, and the edit would then pay their copy-on-write, which a
//! long-lived sheet never does. A full sample clones the template, whose
//! cache it discards anyway. Results go to console and to
//! `BENCH_incremental.json` at the repository root. `SSA_BENCH_FAST=1`
//! runs a tiny smoke configuration (the JSON is then marked
//! `"fast": true`).

use spreadsheet_algebra::eval::evaluate_with;
use spreadsheet_algebra::prelude::*;
use ssa_bench::synthetic_cars;
use ssa_relation::Relation;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// The warm template: grouped by Model then Year, ordered by Price, one
/// aggregate (recomputed on narrowing) and one coarse selection so
/// `tighten_selection` has something to tighten.
fn template(base: &Arc<Relation>) -> (Spreadsheet, u64) {
    let mut s = Spreadsheet::over_shared(Arc::clone(base));
    s.group(&["Model"], Direction::Asc).unwrap();
    s.group_add(&["Year"], Direction::Asc).unwrap();
    s.order("Price", Direction::Asc, 3).unwrap();
    s.aggregate(AggFunc::Avg, "Price", 2).unwrap();
    let sel = s.select(Expr::col("Price").lt(Expr::lit(24_000))).unwrap();
    s.view().expect("template evaluates");
    // One small tighten + view so the lazily built caches (sort keys,
    // group membership) are warm: the timed edits then measure the
    // steady interactive state, not first-touch cache construction.
    s.replace_selection(sel, Expr::col("Price").lt(Expr::lit(23_500)))
        .unwrap();
    s.view().expect("template pre-warm evaluates");
    (s, sel)
}

struct Scenario {
    name: &'static str,
    edit: fn(&mut Spreadsheet, u64),
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "add_selection",
        edit: |s, _| {
            s.select(Expr::col("Year").ge(Expr::lit(2004))).unwrap();
        },
    },
    Scenario {
        name: "tighten_selection",
        edit: |s, sel| {
            s.replace_selection(sel, Expr::col("Price").lt(Expr::lit(16_000)))
                .unwrap();
        },
    },
    Scenario {
        name: "toggle_projection",
        edit: |s, _| {
            s.project_out("Mileage").unwrap();
        },
    },
];

/// Median wall time of (edit + view) in milliseconds. `warm` builds each
/// sample's warm sheet outside the timed region.
fn time_edit(
    warm: impl Fn() -> Spreadsheet,
    sel: u64,
    edit: fn(&mut Spreadsheet, u64),
    samples: usize,
) -> f64 {
    let mut times = Vec::with_capacity(samples);
    // Warm-up iterations (code paths, allocator) are discarded.
    for i in 0..samples + 2 {
        let mut s = warm();
        let t = Instant::now();
        edit(&mut s, sel);
        black_box(s.view().expect("edited sheet evaluates"));
        if i >= 2 {
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

struct Row {
    rows: usize,
    scenario: &'static str,
    full_ms: f64,
    incremental_ms: f64,
}

fn main() {
    let fast = std::env::var_os("SSA_BENCH_FAST").is_some();
    let sizes: &[usize] = if fast {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let samples = if fast { 5 } else { 25 };

    let mut rows = Vec::new();
    for &n in sizes {
        let base = Arc::new(synthetic_cars(n));
        let (warm, sel) = template(&base);
        let mut full = warm.clone();
        full.set_incremental(false);
        full.set_fast_reorganize(false);

        for sc in SCENARIOS {
            // The delta path must agree with a fresh full evaluation and
            // with the naive oracle before its timing means anything.
            let mut a = warm.clone();
            (sc.edit)(&mut a, sel);
            let naive = evaluate_with(
                a.base(),
                a.state(),
                spreadsheet_algebra::EvalOptions {
                    naive: true,
                    ..spreadsheet_algebra::EvalOptions::default()
                },
            )
            .expect("naive oracle");
            let incremental = a.view().expect("incremental view");
            assert_eq!(
                incremental, &naive,
                "incremental != oracle for {} at {n} rows — bench aborted",
                sc.name
            );

            let full_ms = time_edit(|| full.clone(), sel, sc.edit, samples);
            let incremental_ms = time_edit(|| template(&base).0, sel, sc.edit, samples);
            println!(
                "incremental/{:>6} rows/{:18}  full {:8.3} ms  incremental {:8.3} ms  speedup {:5.2}x",
                n,
                sc.name,
                full_ms,
                incremental_ms,
                full_ms / incremental_ms,
            );
            rows.push(Row {
                rows: n,
                scenario: sc.name,
                full_ms,
                incremental_ms,
            });
        }
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"incremental\",\n");
    json.push_str(
        "  \"workload\": \"warm 2-level grouped sheet + Avg aggregate + selection; one edit then view()\",\n",
    );
    json.push_str(&format!("  \"fast\": {fast},\n"));
    json.push_str("  \"edits\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"rows\": {}, \"scenario\": \"{}\", \"full_ms\": {:.3}, \"incremental_ms\": {:.3}, \"speedup\": {:.2}}}{}\n",
            r.rows,
            r.scenario,
            r.full_ms,
            r.incremental_ms,
            r.full_ms / r.incremental_ms,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_incremental.json");
    std::fs::write(path, &json).expect("write BENCH_incremental.json at repo root");
    println!("wrote {path}");
}
