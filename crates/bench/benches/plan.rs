//! Planned vs unplanned multi-join TPC-H workloads — the gate for the
//! algebraic query planner (`spreadsheet_algebra::plan`).
//!
//! Two scenarios per size (`rows` ≈ lineitem count):
//!
//! - `filter_join`: `lineitem ⋈ orders` with a selective single-table
//!   filter (`l_quantity = 1`, ~2% of lineitems) written *above* the
//!   join. The unplanned pipeline joins everything and then filters; the
//!   planner pushes the filter below the join.
//! - `multijoin`: `lineitem ⋈ orders ⋈ customer` with a selective
//!   customer filter (`c_custkey < 1%·customers`). The planner pushes
//!   the filter into `customer`, starts the join tree from that
//!   25-row side, and orders the equi-joins by estimated selectivity;
//!   the unplanned pipeline joins in FROM order and filters last.
//!
//! The unplanned baseline is not a strawman nested loop: it uses the
//! same hash joins, in FROM order, with every single-table filter
//! applied at the top — exactly the filter-above-join flow the
//! evaluation pipeline executed before the planner. Before timing, the
//! planned output is asserted row-for-row equal (including order) to
//! the unplanned output.
//!
//! Results go to console and `BENCH_plan.json` at the repository root.
//! `SSA_BENCH_FAST=1` runs the 1k size only (JSON marked `"fast": true`).

use spreadsheet_algebra::plan::plan_tables;
use ssa_relation::ops;
use ssa_relation::par::DEFAULT_PARALLEL_THRESHOLD;
use ssa_relation::{Expr, Relation};
use ssa_tpch::gen::{generate, GenConfig};
use std::hint::black_box;
use std::time::Instant;

struct Scenario {
    name: &'static str,
    /// FROM list, in order, out of the generated database.
    from: fn(&Db) -> Vec<&Relation>,
    /// WHERE condition (join conjuncts + selective filters).
    condition: fn(&Db) -> Expr,
}

struct Db {
    lineitem: Relation,
    orders: Relation,
    customer: Relation,
    /// `c_custkey < cust_cut` keeps ~1% of customers.
    cust_cut: i64,
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "filter_join",
        from: |db| vec![&db.lineitem, &db.orders],
        condition: |_| {
            Expr::col("l_orderkey")
                .eq(Expr::col("o_orderkey"))
                .and(Expr::col("l_quantity").eq(Expr::lit(1)))
        },
    },
    Scenario {
        name: "multijoin",
        from: |db| vec![&db.lineitem, &db.orders, &db.customer],
        condition: |db| {
            Expr::col("l_orderkey")
                .eq(Expr::col("o_orderkey"))
                .and(Expr::col("o_custkey").eq(Expr::col("c_custkey")))
                .and(Expr::col("c_custkey").lt(Expr::lit(db.cust_cut)))
        },
    },
];

/// The pre-planner pipeline: left-deep hash joins in FROM order on the
/// multi-table equi conjuncts, then every remaining conjunct applied as
/// one selection at the top. TPC-H column names are globally unique, so
/// the FROM-order chain needs no renaming and its output order is the
/// left-major nested-loop order the planner must reproduce.
fn unplanned(inputs: &[&Relation], condition: &Expr) -> Relation {
    let mut joins: Vec<Expr> = Vec::new();
    let mut filters: Vec<Expr> = Vec::new();
    for conj in condition.split_conjuncts() {
        let cols = conj.columns();
        let multi = inputs
            .iter()
            .filter(|r| cols.iter().any(|c| r.schema().contains(c)))
            .count()
            > 1;
        if multi {
            joins.push(conj.clone());
        } else {
            filters.push(conj.clone());
        }
    }
    // The recorded baselines include a full copy of the first input. A
    // `Relation::clone` shares row chunks, so copy the rows explicitly to
    // keep that work, and the recorded speedups, comparable.
    let first = inputs[0];
    let mut cur = Relation::with_rows(first.name(), first.schema().clone(), first.rows().to_vec())
        .expect("same schema, same widths");
    for rhs in &inputs[1..] {
        let cond = Expr::conjoin(
            joins
                .iter()
                .filter(|j| {
                    j.columns()
                        .iter()
                        .all(|c| cur.schema().contains(c) || rhs.schema().contains(c))
                })
                .cloned()
                .collect(),
        )
        .expect("every chained input shares an equi conjunct");
        joins.retain(|j| {
            !j.columns()
                .iter()
                .all(|c| cur.schema().contains(c) || rhs.schema().contains(c))
        });
        cur = ops::join_opts(&cur, rhs, &cond, DEFAULT_PARALLEL_THRESHOLD).expect("join");
    }
    match Expr::conjoin(filters) {
        Some(f) => ops::select(&cur, &f).expect("filter"),
        None => cur,
    }
}

fn planned(inputs: &[&Relation], condition: &Expr) -> Relation {
    plan_tables(inputs, Some(condition))
        .expect("plan")
        .execute(DEFAULT_PARALLEL_THRESHOLD)
        .expect("execute")
}

/// Median wall time in milliseconds; one warm-up iteration discarded.
fn time_run(f: impl Fn() -> Relation, samples: usize) -> f64 {
    let mut times = Vec::with_capacity(samples);
    for i in 0..samples + 1 {
        let t = Instant::now();
        black_box(f());
        if i >= 1 {
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

struct Row {
    rows: usize,
    scenario: &'static str,
    unplanned_ms: f64,
    planned_ms: f64,
}

fn main() {
    let fast = std::env::var_os("SSA_BENCH_FAST").is_some();
    let sizes: &[usize] = if fast {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let samples = if fast { 3 } else { 5 };

    let mut results = Vec::new();
    for &n in sizes {
        // `scale(1.0)` yields ~6000 lineitems (1500 orders × ~4 lines).
        let data = generate(&GenConfig::scale(n as f64 / 6000.0), 42);
        let db = Db {
            cust_cut: (data.customer.len() / 100).max(1) as i64,
            lineitem: data.lineitem,
            orders: data.orders,
            customer: data.customer,
        };
        for sc in SCENARIOS {
            let inputs = (sc.from)(&db);
            let cond = (sc.condition)(&db);

            // The planned pipeline must agree with the unplanned one
            // row-for-row (including order) before timing means anything.
            let base = unplanned(&inputs, &cond);
            let opt = planned(&inputs, &cond);
            assert_eq!(base.schema().names(), opt.schema().names(), "{}", sc.name);
            assert_eq!(
                base.rows(),
                opt.rows(),
                "planned != unplanned for {} at {n} rows — bench aborted",
                sc.name
            );

            let unplanned_ms = time_run(|| unplanned(&inputs, &cond), samples);
            let planned_ms = time_run(|| planned(&inputs, &cond), samples);
            println!(
                "plan/{:>6} rows/{:12}  unplanned {:10.3} ms  planned {:8.3} ms  speedup {:7.2}x  ({} output rows)",
                db.lineitem.len(),
                sc.name,
                unplanned_ms,
                planned_ms,
                unplanned_ms / planned_ms,
                base.len(),
            );
            results.push(Row {
                rows: n,
                scenario: sc.name,
                unplanned_ms,
                planned_ms,
            });
        }
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"plan\",\n");
    json.push_str(
        "  \"workload\": \"TPC-H multi-join with selective filters written above the joins; unplanned = FROM-order hash joins with all filters at the top, planned = selection pushdown + selectivity-ordered join tree (plan_tables), output asserted identical incl. order\",\n",
    );
    json.push_str(&format!("  \"fast\": {fast},\n"));
    json.push_str("  \"plans\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"rows\": {}, \"scenario\": \"{}\", \"unplanned_ms\": {:.3}, \"planned_ms\": {:.3}, \"speedup\": {:.2}}}{}\n",
            r.rows,
            r.scenario,
            r.unplanned_ms,
            r.planned_ms,
            r.unplanned_ms / r.planned_ms,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_plan.json");
    std::fs::write(path, &json).expect("write BENCH_plan.json at repo root");
    println!("wrote {path}");
}
