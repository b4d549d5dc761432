//! Property tests for the relational substrate: value ordering laws,
//! multiset-operator algebra, sort stability, CSV round-trips, and
//! expression-parser round-trips. Cases are drawn from the in-tree
//! [`Rng`] with fixed per-test seeds, so failures are replayable.

use ssa_relation::expr_parse::parse_expr;
use ssa_relation::ops::{self, SortKey};
use ssa_relation::rng::Rng;
use ssa_relation::schema::Schema;
use ssa_relation::ValueType::{Int, Str};
use ssa_relation::{Expr, Relation, Tuple, Value};
use std::cmp::Ordering;

fn arb_value(rng: &mut Rng) -> Value {
    match rng.gen_range(0..5usize) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.gen_range(-1000..1000i64)),
        3 => Value::Float(rng.gen_range(-1000..1000i64) as f64 / 4.0),
        _ => {
            let len = rng.gen_range(0..=6usize);
            Value::from(
                (0..len)
                    .map(|_| *rng.pick(&['a', 'b', 'c', 'x', 'y', 'z']))
                    .collect::<String>(),
            )
        }
    }
}

fn arb_rows(rng: &mut Rng) -> Vec<(i64, String)> {
    (0..rng.gen_range(0..30usize))
        .map(|_| {
            let len = rng.gen_range(1..=2usize);
            let s: String = (0..len).map(|_| *rng.pick(&['a', 'b', 'c'])).collect();
            (rng.gen_range(0..20i64), s)
        })
        .collect()
}

fn rel_of(name: &str, rows: &[(i64, String)]) -> Relation {
    Relation::with_rows(
        name,
        Schema::of(&[("x", Int), ("s", Str)]),
        rows.iter()
            .map(|(x, s)| Tuple::new(vec![Value::Int(*x), Value::str(s.as_str())]))
            .collect(),
    )
    .expect("widths match")
}

/// Value's Ord is a total order: antisymmetric and transitive.
#[test]
fn value_order_is_total() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x01 ^ (case << 8));
        let (a, b, c) = (
            arb_value(&mut rng),
            arb_value(&mut rng),
            arb_value(&mut rng),
        );
        // antisymmetry
        match a.cmp(&b) {
            Ordering::Less => assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => assert_eq!(b.cmp(&a), Ordering::Less),
            Ordering::Equal => assert_eq!(b.cmp(&a), Ordering::Equal),
        }
        // transitivity
        if a <= b && b <= c {
            assert!(a <= c, "{a:?} <= {b:?} <= {c:?} but not {a:?} <= {c:?}");
        }
        // consistency of eq with cmp
        assert_eq!(a == b, a.cmp(&b) == Ordering::Equal);
    }
}

/// Hash agrees with equality.
#[test]
fn value_hash_consistent_with_eq() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x02 ^ (case << 8));
        let (a, b) = (arb_value(&mut rng), arb_value(&mut rng));
        if a == b {
            assert_eq!(h(&a), h(&b));
        }
    }
}

/// The interned representation is invisible: string values order,
/// equate and hash exactly as their text does, so Def. 1's total order
/// is byte-for-byte what it was before `Value::Str` became a `Sym`.
#[test]
fn interned_values_match_plain_string_semantics() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }
    let alphabet = ['a', 'b', 'A', 'B', 'z', ' ', '0', 'é'];
    for case in 0..512u64 {
        let mut rng = Rng::seed_from_u64(0x0D ^ (case << 8));
        let arb_s = |rng: &mut Rng| -> String {
            let len = rng.gen_range(0..=10usize);
            (0..len).map(|_| *rng.pick(&alphabet)).collect()
        };
        let (a, b) = (arb_s(&mut rng), arb_s(&mut rng));
        let (va, vb) = (Value::from(a.clone()), Value::from(b.clone()));
        // Ord/Eq/Hash delegate to the text, not the interner ids.
        assert_eq!(va.cmp(&vb), a.cmp(&b), "case {case}: {a:?} vs {b:?}");
        assert_eq!(va == vb, a == b, "case {case}");
        if va == vb {
            assert_eq!(h(&va), h(&vb), "case {case}");
        }
        // NULL-first and the cross-type rank of Def. 1 are untouched:
        // strings still sort after every non-string value.
        assert!(Value::Null < va);
        assert!(Value::Bool(true) < va);
        assert!(Value::Int(i64::MAX) < va);
        assert!(Value::Float(f64::INFINITY) < va);
    }
    // Numeric ties keep their Int-before-Float tie-break.
    assert_eq!(Value::Int(2).cmp(&Value::Float(2.0)), Ordering::Less);
    assert_eq!(Value::Float(2.0).cmp(&Value::Int(2)), Ordering::Greater);
}

/// Sorting interned string values is identical to sorting their texts,
/// and the interner's bulk rank snapshot induces the same order as
/// `Value`'s own comparator — the invariant the index-vector engine's
/// string sort-key fast path relies on.
#[test]
fn interned_sort_matches_text_sort() {
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0x0E ^ (case << 8));
        let mut texts: Vec<String> = (0..rng.gen_range(0..40usize))
            .map(|_| {
                let len = rng.gen_range(0..=6usize);
                (0..len)
                    .map(|_| *rng.pick(&['m', 'a', 'z', 'M', '1', ' ']))
                    .collect()
            })
            .collect();
        let mut values: Vec<Value> = texts.iter().map(|s| Value::str(s.as_str())).collect();
        values.sort();
        texts.sort();
        let resolved: Vec<&str> = values.iter().map(|v| v.as_str().unwrap()).collect();
        assert_eq!(resolved, texts, "case {case}");

        let snap = ssa_relation::intern::rank_snapshot();
        for w in values.windows(2) {
            if let (Value::Str(a), Value::Str(b)) = (&w[0], &w[1]) {
                assert!(
                    snap[a.id() as usize] <= snap[b.id() as usize],
                    "case {case}: rank snapshot disagrees with Value order"
                );
            }
        }
    }
}

/// |A ∪ B| = |A| + |B| and per-tuple counts add.
#[test]
fn union_adds_histograms() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x03 ^ (case << 8));
        let a = rel_of("a", &arb_rows(&mut rng));
        let b = rel_of("b", &arb_rows(&mut rng));
        let u = ops::union_all(&a, &b).unwrap();
        assert_eq!(u.len(), a.len() + b.len());
        let (ha, hb, hu) = (a.histogram(), b.histogram(), u.histogram());
        for (t, n) in &hu {
            let expect = ha.get(t).copied().unwrap_or(0) + hb.get(t).copied().unwrap_or(0);
            assert_eq!(*n, expect);
        }
    }
}

/// Multiset difference: count(A − B, t) = max(0, count(A,t) − count(B,t)).
#[test]
fn difference_saturating_counts() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x04 ^ (case << 8));
        let a = rel_of("a", &arb_rows(&mut rng));
        let b = rel_of("b", &arb_rows(&mut rng));
        let d = ops::difference(&a, &b).unwrap();
        let (ha, hb, hd) = (a.histogram(), b.histogram(), d.histogram());
        for (t, n) in &ha {
            let expect = n.saturating_sub(hb.get(t).copied().unwrap_or(0));
            assert_eq!(hd.get(t).copied().unwrap_or(0), expect);
        }
        // nothing new appears
        for t in hd.keys() {
            assert!(ha.contains_key(t));
        }
    }
}

/// (A ∪ B) − B == A.
#[test]
fn union_difference_inverse() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x05 ^ (case << 8));
        let a = rel_of("a", &arb_rows(&mut rng));
        let b = rel_of("b", &arb_rows(&mut rng));
        let u = ops::union_all(&a, &b).unwrap();
        let back = ops::difference(&u, &b).unwrap();
        assert!(back.multiset_eq(&a), "case {case}");
    }
}

/// distinct is idempotent and dominated by the original.
#[test]
fn distinct_idempotent() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x06 ^ (case << 8));
        let a = rel_of("a", &arb_rows(&mut rng));
        let d1 = ops::distinct(&a).unwrap();
        let d2 = ops::distinct(&d1).unwrap();
        assert!(d1.multiset_eq(&d2));
        for (t, n) in d1.histogram() {
            assert_eq!(n, 1);
            assert!(a.histogram().contains_key(&t));
        }
    }
}

/// Selection distributes over union: σ(A ∪ B) == σ(A) ∪ σ(B).
#[test]
fn selection_distributes_over_union() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x07 ^ (case << 8));
        let a = rel_of("a", &arb_rows(&mut rng));
        let b = rel_of("b", &arb_rows(&mut rng));
        let k = rng.gen_range(0..20i64);
        let pred = Expr::col("x").lt(Expr::lit(k));
        let lhs = ops::select(&ops::union_all(&a, &b).unwrap(), &pred).unwrap();
        let rhs = ops::union_all(
            &ops::select(&a, &pred).unwrap(),
            &ops::select(&b, &pred).unwrap(),
        )
        .unwrap();
        assert!(lhs.multiset_eq(&rhs), "case {case}");
    }
}

/// Sorting is a permutation, ordered by the key, and stable.
#[test]
fn sort_is_stable_permutation() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x08 ^ (case << 8));
        let a = rel_of("a", &arb_rows(&mut rng));
        let sorted = ops::sort(&a, &[SortKey::asc("x")]).unwrap();
        assert!(sorted.multiset_eq(&a));
        let col = sorted.column_values("x").unwrap();
        assert!(col.windows(2).all(|w| w[0] <= w[1]));
        // stability: rows with equal x keep their original relative order
        let orig: Vec<&Tuple> = a.rows().iter().collect();
        for w in sorted.rows().to_vec().windows(2) {
            if w[0].get(0) == w[1].get(0) {
                let i = orig.iter().position(|t| *t == &w[0]).unwrap();
                let j = orig.iter().rposition(|t| *t == &w[1]).unwrap();
                assert!(i <= j);
            }
        }
    }
}

/// Product cardinality and join-as-product-plus-selection.
#[test]
fn join_equals_filtered_product() {
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0x09 ^ (case << 8));
        let a = rel_of("a", &arb_rows(&mut rng));
        let mut b = rel_of("b", &arb_rows(&mut rng));
        b.schema_mut().rename("x", "y").unwrap();
        b.schema_mut().rename("s", "t").unwrap();
        let p = ops::product(&a, &b).unwrap();
        assert_eq!(p.len(), a.len() * b.len());
        let cond = Expr::col("x").eq(Expr::col("y"));
        let j = ops::join(&a, &b, &cond).unwrap();
        let filtered = ops::select(&p, &cond).unwrap();
        assert!(j.multiset_eq(&filtered), "case {case}");
    }
}

/// CSV round-trip: parse(to_csv(R)) == R for string/int relations.
#[test]
fn csv_round_trip() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x0A ^ (case << 8));
        let schema = Schema::of(&[("n", Int), ("text", Str)]);
        let n_rows = rng.gen_range(1..20usize);
        let rel = Relation::with_rows(
            "r",
            schema,
            (0..n_rows)
                .map(|_| {
                    // avoid strings that parse back as numbers, empties,
                    // or values with leading/trailing whitespace (the CSV
                    // reader trims unquoted fields)
                    let len = rng.gen_range(0..=8usize);
                    let body: String = (0..len)
                        .map(|_| *rng.pick(&['q', 'W', ' ', ',', '"', 'z', 'A']))
                        .collect();
                    Tuple::new(vec![
                        Value::Int(rng.gen_range(0..1000i64)),
                        Value::from(format!("s{body}e")),
                    ])
                })
                .collect(),
        )
        .unwrap();
        let text = ssa_relation::csv::to_csv(&rel);
        let back = ssa_relation::csv::parse_csv("r", &text).unwrap();
        assert!(rel.multiset_eq(&back), "case {case}");
    }
}

/// Expression Display output re-parses to the same AST.
#[test]
fn expr_display_round_trips() {
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x0B ^ (case << 8));
        let k = rng.gen_range(-100..100i64);
        let m = rng.gen_range(-100..100i64);
        let exprs = [
            Expr::col("x")
                .lt(Expr::lit(k))
                .and(Expr::col("s").eq(Expr::lit("ab"))),
            Expr::col("x")
                .add(Expr::lit(m))
                .mul(Expr::lit(k))
                .ge(Expr::lit(0)),
            Expr::if_else(
                Expr::col("x").gt(Expr::lit(k)),
                Expr::lit("hi"),
                Expr::lit("lo"),
            ),
            Expr::col("s")
                .cmp(ssa_relation::CmpOp::Ne, Expr::lit("q"))
                .or(Expr::IsNull(Box::new(Expr::col("x")))),
        ];
        for e in exprs {
            let text = e.to_string();
            let back = parse_expr(&text).unwrap();
            assert_eq!(back, e, "round trip failed for `{text}`");
        }
    }
}

/// Aggregates of a concatenation: COUNT adds, SUM adds, MIN/MAX are
/// the min/max of parts.
#[test]
fn aggregate_concat_laws() {
    use ssa_relation::AggFunc;
    for case in 0..256u64 {
        let mut rng = Rng::seed_from_u64(0x0C ^ (case << 8));
        let vx: Vec<Value> = (0..rng.gen_range(1..20usize))
            .map(|_| Value::Int(rng.gen_range(-100..100i64)))
            .collect();
        let vy: Vec<Value> = (0..rng.gen_range(1..20usize))
            .map(|_| Value::Int(rng.gen_range(-100..100i64)))
            .collect();
        let both: Vec<Value> = vx.iter().chain(vy.iter()).cloned().collect();
        let count = |v: &[Value]| AggFunc::Count.apply(v).unwrap();
        let sum = |v: &[Value]| AggFunc::Sum.apply(v).unwrap();
        assert_eq!(count(&both), count(&vx).add(&count(&vy)).unwrap());
        assert_eq!(sum(&both), sum(&vx).add(&sum(&vy)).unwrap());
        let min_both = AggFunc::Min.apply(&both).unwrap();
        let min_parts = std::cmp::min(
            AggFunc::Min.apply(&vx).unwrap(),
            AggFunc::Min.apply(&vy).unwrap(),
        );
        assert_eq!(min_both, min_parts);
    }
}
