//! `study`: the paper's ten Sec. VII tasks as direct-manipulation
//! sessions, closed loop, over the lazily paged study catalog.

use crate::gen::{self, perturb_numbers};
use crate::net::{Conn, Server};
use sheetmusiq::ScriptHost;
use spreadsheet_algebra::{open_paged, save_sheet, Direction, QueryState, SheetError, StoredSheet};
use ssa_relation::{ops, Catalog, Relation};
use ssa_sql::SelectStmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Client connections (and server workers).
pub const CONNS: usize = 2;

/// One study task, ready to send: its gesture transcript and the view
/// text the naive oracle rendered for it.
pub struct Task {
    pub id: usize,
    pub sheet: String,
    /// One gesture per line: the Theorem-1 construction, then one
    /// `modify` of the first selection and its `undo`.
    pub lines: Vec<String>,
    pub view: String,
}

pub struct Inputs {
    /// Binary sheet files, one per catalog relation.
    pub files: Vec<(String, PathBuf)>,
    pub tasks: Vec<Task>,
    /// Tasks whose oracle failed (Theorem-1 mismatch or a gesture error).
    pub oracle_failures: usize,
}

/// Generate the catalog at TPC-H `scale`, save every relation as a binary
/// sheet under `dir`, and build each task's transcript and oracle view in-process on
/// a naive-eval session.
pub fn prepare(dir: &Path, seed: u64, scale: f64) -> Result<Inputs, String> {
    let config = ssa_tpch::GenConfig::scale(scale);
    let data = ssa_tpch::generate(&config, gen::STUDY_DATA_SEED);
    let catalog = ssa_tpch::study_catalog(&data).map_err(|e| e.to_string())?;
    let mut names: Vec<String> = catalog.names().iter().map(|n| n.to_string()).collect();
    names.sort();
    let mut files = Vec::new();
    for name in names {
        let path = dir.join(format!("{name}.sheet"));
        let relation = catalog.get(&name).map_err(|e| e.to_string())?.clone();
        let stored = StoredSheet {
            name: name.clone(),
            relation,
            state: QueryState::new(),
        };
        save_sheet(&stored, &path).map_err(|e| e.to_string())?;
        files.push((name, path));
    }
    let mut rng = gen::stream(seed, 0x57D);
    let mut tasks = Vec::new();
    let mut oracle_failures = 0;
    for task in ssa_tpch::study_tasks() {
        let sql = perturb_numbers(task.sql, &mut rng);
        let stmt = ssa_sql::parse_select(&sql).map_err(|e| format!("task {}: {e}", task.id))?;
        let sheet = stmt.from[0].clone();
        let path = &files
            .iter()
            .find(|(n, _)| *n == sheet)
            .ok_or_else(|| format!("task {}: no sheet {sheet}", task.id))?
            .1;
        match oracle(&stmt, path, &catalog, &mut rng) {
            Ok((lines, view)) => tasks.push(Task {
                id: task.id,
                sheet,
                lines,
                view,
            }),
            Err(e) => {
                eprintln!("study oracle: task {} failed: {e}", task.id);
                oracle_failures += 1;
            }
        }
    }
    Ok(Inputs {
        files,
        tasks,
        oracle_failures,
    })
}

/// The sheet exactly as the server materializes it, as a session host.
fn host_over(path: &Path) -> Result<ScriptHost, SheetError> {
    let stored = open_paged(path)?.materialize()?;
    let mut relation = stored.relation;
    relation.set_name(stored.name);
    let snapshot = ssa_server::SheetSnapshot {
        name: relation.name().to_string(),
        base: Arc::new(relation),
        version: 0,
    };
    Ok(ssa_server::session_over(&snapshot).script)
}

/// Build the task's transcript on a naive-eval session, check it against
/// SQL evaluation (Theorem 1), and return it with the rendered view.
fn oracle(
    stmt: &SelectStmt,
    path: &Path,
    catalog: &Catalog,
    rng: &mut ssa_relation::rng::Rng,
) -> Result<(Vec<String>, String), String> {
    let mut host = host_over(path).map_err(|e| e.to_string())?;
    host.session
        .engine()
        .map_err(|e| e.to_string())?
        .sheet_mut()
        .set_naive_eval(true);
    let (lines, outputs) = transcript(stmt, &mut host, rng).map_err(|e| e.to_string())?;
    let view = host.execute("show").map_err(|e| e.to_string())?;

    let engine = host.session.engine().map_err(|e| e.to_string())?;
    let derived = engine.view().map_err(|e| e.to_string())?;
    let cols: Vec<&str> = outputs.iter().map(|(_, c)| c.as_str()).collect();
    let mut result: Relation = ops::project(&derived.data, &cols).map_err(|e| e.to_string())?;
    for (sql_name, sheet_col) in &outputs {
        if sql_name != sheet_col {
            result
                .schema_mut()
                .rename(sheet_col, sql_name)
                .map_err(|e| e.to_string())?;
        }
    }
    let reference = ssa_sql::eval_select(stmt, catalog).map_err(|e| e.to_string())?;
    if !ssa_sql::equivalent(stmt, &reference, &result) {
        return Err("spreadsheet result is not equivalent to SQL (Theorem 1)".into());
    }
    Ok((lines, view))
}

fn number_after(text: &str, marker: &str) -> Option<u64> {
    let rest = &text[text.find(marker)? + marker.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// `(SQL output name, sheet column)` per SELECT item.
type Outputs = Vec<(String, String)>;

/// A transcript being written: each line runs on the oracle session as it
/// is added, so aggregate column names and selection ids come from the
/// session itself.
struct Recorder<'a> {
    host: &'a mut ScriptHost,
    lines: Vec<String>,
    /// The first selection's id and predicate.
    first: Option<(u64, String)>,
}

impl Recorder<'_> {
    fn run(&mut self, line: String) -> Result<String, SheetError> {
        let out = self.host.execute(&line)?;
        self.lines.push(line);
        Ok(out)
    }

    fn select(&mut self, pred: String) -> Result<(), SheetError> {
        let out = self.run(format!("select {pred}"))?;
        if self.first.is_none() {
            let id = number_after(&out, "selection #").ok_or_else(|| SheetError::Persist {
                message: format!("no selection id in {out:?}"),
            })?;
            self.first = Some((id, pred));
        }
        Ok(())
    }

    fn sheet(&mut self) -> Result<&spreadsheet_algebra::Spreadsheet, SheetError> {
        Ok(self.host.session.engine()?.sheet())
    }
}

/// The Theorem-1 construction as gestures (select, group, agg, having,
/// order, project), one line each, then one `modify` of the first
/// selection and its `undo`. Returns the lines and the output mapping.
fn transcript(
    stmt: &SelectStmt,
    host: &mut ScriptHost,
    rng: &mut ssa_relation::rng::Rng,
) -> Result<(Vec<String>, Outputs), SheetError> {
    let mut rec = Recorder {
        host,
        lines: Vec::new(),
        first: None,
    };
    if let Some(w) = &stmt.where_clause {
        for c in w.conjuncts() {
            rec.select(c.to_string())?;
        }
    }
    for g in &stmt.group_by {
        rec.run(format!("group {g} asc"))?;
    }
    let finest = rec.sheet()?.state().spec.level_count();
    let mut agg_names: Vec<(String, String)> = Vec::new();
    for agg in &stmt.aggregates {
        // COUNT(*) counts tuples: any column does, as in the translation.
        let input = match &agg.column {
            Some(c) => c.clone(),
            None => rec.sheet()?.base().schema().names()[0].to_string(),
        };
        let out = rec.run(format!("agg {:?} {input} {finest}", agg.func))?;
        let name = out
            .strip_prefix("created column ")
            .and_then(|r| r.split(" (").next())
            .ok_or_else(|| SheetError::Persist {
                message: format!("no column name in {out:?}"),
            })?;
        agg_names.push((agg.output.clone(), name.to_string()));
    }
    let sheet_name_of = |canonical: &str| -> String {
        agg_names
            .iter()
            .find(|(c, _)| c == canonical)
            .map_or_else(|| canonical.to_string(), |(_, n)| n.clone())
    };
    if let Some(h) = &stmt.having {
        for c in h.map_columns(&|c| sheet_name_of(c)).conjuncts() {
            rec.select(c.to_string())?;
        }
    }
    for (target, dir) in &stmt.order_by {
        // A grouping attribute flips its group level (Def. 4 case 2).
        let col = sheet_name_of(target);
        let spec = rec.sheet()?.state().spec.clone();
        let level = (2..=spec.level_count())
            .find(|&l| spec.in_relative_basis(&col, l))
            .map_or(spec.level_count(), |l| l - 1);
        let dir = if *dir == Direction::Asc {
            "asc"
        } else {
            "desc"
        };
        rec.run(format!("order {col} {dir} {level}"))?;
    }
    let mut outputs = Vec::new();
    for item in &stmt.items {
        let col = match item {
            ssa_sql::ast::OutputItem::Column(c) => c.clone(),
            ssa_sql::ast::OutputItem::Agg(a) => sheet_name_of(&a.output),
        };
        outputs.push((item.output_name().to_string(), col));
    }
    for col in rec.sheet()?.visible() {
        if outputs.iter().any(|(_, c)| *c == col) {
            continue;
        }
        // A column a HAVING selection reads cannot go; keeping it visible
        // does not change the projected answer.
        match rec.run(format!("project {col}")) {
            Ok(_) | Err(SheetError::ColumnInUse { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    if stmt.distinct {
        rec.run("dedup".to_string())?;
    }
    let (id, pred) = rec.first.take().ok_or_else(|| SheetError::Persist {
        message: "task has no selection to modify".into(),
    })?;
    rec.run(format!("modify {id} {}", perturb_numbers(&pred, rng)))?;
    rec.run("undo".to_string())?;
    Ok((rec.lines, outputs))
}

/// Spawn the server over the sheet files and time spawn → every hosted
/// sheet answered (which materializes each paged sheet).
pub fn spawn(bin: &Path, inputs: &Inputs, log: &Path) -> std::io::Result<(Server, f64)> {
    let mut args = vec!["--pool".to_string(), CONNS.to_string()];
    for (_, path) in &inputs.files {
        args.push("--open".into());
        args.push(path.display().to_string());
    }
    let server = Server::spawn(bin, &args, log)?;
    let mut conn = Conn::open(&server.addr)?;
    for (name, _) in &inputs.files {
        let r = conn.request("GET", &format!("/sheets/{name}"), "")?;
        if !r.ok() {
            return Err(std::io::Error::other(format!("sheet {name}: {}", r.status)));
        }
    }
    let secs = server.spawned.elapsed().as_secs_f64();
    Ok((server, secs))
}

/// What the clients measured.
#[derive(Default)]
pub struct Run {
    pub gestures: Vec<f64>,
    pub views: Vec<f64>,
    pub view_bytes: Vec<usize>,
    /// Task id of each view.
    pub view_task: Vec<usize>,
    pub opens: Vec<f64>,
    pub closes: Vec<f64>,
    pub tasks: usize,
    pub attempted: usize,
    pub failed: usize,
    pub mismatches: usize,
    pub elapsed: f64,
}

impl Run {
    fn absorb(&mut self, o: Run) {
        self.gestures.extend(o.gestures);
        self.views.extend(o.views);
        self.view_bytes.extend(o.view_bytes);
        self.view_task.extend(o.view_task);
        self.opens.extend(o.opens);
        self.closes.extend(o.closes);
        self.tasks += o.tasks;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Closed loop: each connection runs whole tasks back to back until
/// `seconds` have passed, every round of ten in its own seeded order. Two
/// loops walking the same order would lock into one relative phase for a
/// whole run, and which heavy tasks overlap would then differ from run
/// to run.
pub fn drive(addr: &str, tasks: &[Task], seconds: f64, seed: u64) -> Run {
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let mut total = Run::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|c| {
                s.spawn(move || {
                    let mut run = Run::default();
                    let mut conn = match Conn::open(addr) {
                        Ok(c) => c,
                        Err(_) => {
                            run.attempted += 1;
                            run.failed += 1;
                            return run;
                        }
                    };
                    let mut rng = gen::stream(seed, 0x0DE5 + c as u64);
                    let mut order: Vec<usize> = (0..tasks.len()).collect();
                    'rounds: while !tasks.is_empty() {
                        rng.shuffle(&mut order);
                        for &i in &order {
                            if Instant::now() >= deadline {
                                break 'rounds;
                            }
                            if one_task(&mut conn, &tasks[i], &mut run).is_err() {
                                run.failed += 1;
                                break 'rounds;
                            }
                        }
                    }
                    run
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("study client thread panicked"));
        }
    });
    total.elapsed = start.elapsed().as_secs_f64();
    total
}

fn one_task(conn: &mut Conn, task: &Task, run: &mut Run) -> std::io::Result<()> {
    let failed_before = run.failed;
    run.attempted += 1;
    let t = Instant::now();
    let r = conn.request("POST", &format!("/sessions?sheet={}", task.sheet), "")?;
    run.opens.push(ms(t));
    let Some(id) = r
        .ok()
        .then(|| number_after(r.text(), "\"session\": "))
        .flatten()
    else {
        run.failed += 1;
        return Ok(());
    };
    for line in &task.lines {
        run.attempted += 1;
        let t = Instant::now();
        let r = conn.request("POST", &format!("/sessions/{id}/apply"), line)?;
        run.gestures.push(ms(t));
        if !r.ok() {
            run.failed += 1;
        }
    }
    run.attempted += 1;
    let t = Instant::now();
    let r = conn.request("GET", &format!("/sessions/{id}/view"), "")?;
    run.views.push(ms(t));
    run.view_bytes.push(r.body.len());
    run.view_task.push(task.id);
    if !r.ok() || r.body != task.view.as_bytes() {
        run.failed += 1;
        run.mismatches += 1;
    }
    run.attempted += 1;
    let t = Instant::now();
    let r = conn.request("DELETE", &format!("/sessions/{id}"), "")?;
    run.closes.push(ms(t));
    if !r.ok() {
        run.failed += 1;
    }
    if run.failed == failed_before {
        run.tasks += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(seed: u64, dir: &str) -> Vec<u8> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("test-study-{dir}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let inputs = prepare(&dir, seed, 0.2).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(inputs.oracle_failures, 0);
        assert_eq!(inputs.tasks.len(), 10);
        let mut out = Vec::new();
        for t in &inputs.tasks {
            out.extend(format!("{} {}\n", t.id, t.sheet).bytes());
            for line in &t.lines {
                out.extend(line.bytes());
                out.push(b'\n');
            }
            out.extend(t.view.bytes());
        }
        out
    }

    #[test]
    fn transcripts_and_oracle_views_are_byte_identical_per_seed() {
        let a = ops(7, "a");
        assert_eq!(a, ops(7, "b"));
        assert_ne!(a, ops(8, "c"));
    }
}
