//! Differential test of grouping on dictionary codes (`tqo_exec::batch`)
//! against the hashed grouping it replaced.
//!
//! A `ClassIndex` numbered from codes must give the hashed build's
//! classes — `class_of_row`, `protos`, `members` — and the same
//! `probe_all` answers. The streaming keys of `rdup` and `\`
//! (`StreamKeys`) must number a stream's rows as the hashed build numbers
//! the stream's concatenation, and find what its probe finds.
//!
//! Inputs hold 1–3 string keys with NULLs, empty and multi-byte strings,
//! over one dictionary or two, sorted or grown by interning. Probe values
//! may be missing from the build dictionary, and key domains fall on both
//! sides of the dense bound. One case has 70 000 rows; mixed string +
//! `Int` keys take the hashed path. The one-pass `ξᵀ` is held to the
//! interpreter's with empty periods and NULL group keys.

use std::sync::Arc;

use proptest::prelude::*;
use tqo_core::columnar::{Column, ColumnarRelation};
use tqo_core::expr::{AggFunc, AggItem};
use tqo_core::interp::{eval_plan, Env};
use tqo_core::ops;
use tqo_core::ops::temporal::aggregate_t::aggregate_t_schema;
use tqo_core::plan::{BaseProps, PlanBuilder};
use tqo_core::relation::Relation;
use tqo_core::schema::Schema;
use tqo_core::trace::counters::GROUPINGS_HASHED;
use tqo_core::tuple::Tuple;
use tqo_core::value::{DataType, Value};
use tqo_exec::batch::hash::StreamKeys;
use tqo_exec::batch::kernels::{self, ClassIndex};
use tqo_exec::batch::{concat, Batch};
use tqo_exec::{execute_mode, lower, ExecMode, PlannerConfig};

/// Value `i` of a key column: NULL, four awkward strings, or `v{i}`.
fn word(i: u16) -> Value {
    const SPECIAL: [&str; 4] = ["", "日本", "straße", "a\u{0}"];
    match i {
        0 => Value::Null,
        1..=4 => Value::from(SPECIAL[i as usize - 1]),
        _ => Value::from(format!("v{i}")),
    }
}

/// How a generated relation's string columns are coded.
#[derive(Debug, Clone, Copy)]
struct Coding {
    /// Over a sorted dictionary of the entries used, or the one grown by
    /// interning in row order.
    sorted: bool,
    /// The dictionary also holds 2 000 entries no row uses, so the key
    /// domain is past the dense bound.
    wide: bool,
}

/// A string column of `values` coded as `coding` says.
fn str_column(values: &[Value], coding: Coding) -> Column {
    let fill = if coding.wide { 2000 } else { 0 };
    let mut col = Column::with_capacity(DataType::Str, fill + values.len());
    for i in 0..fill {
        col.push(&Value::from(format!("unused{i}"))).unwrap();
    }
    for v in values {
        col.push(v).unwrap();
    }
    let rows: Vec<u32> = (fill as u32..(fill + values.len()) as u32).collect();
    let col = col.gather(&rows);
    match coding.sorted {
        true => col.sorted_strings().unwrap_or(col),
        false => col,
    }
}

/// A relation of `keys` string columns `K0..`, one value index per row
/// and column, coded as `coding`.
fn relation(rows: &[Vec<u16>], keys: usize, coding: Coding) -> ColumnarRelation {
    let names: Vec<String> = (0..keys).map(|k| format!("K{k}")).collect();
    let attrs: Vec<(&str, DataType)> = names.iter().map(|n| (n.as_str(), DataType::Str)).collect();
    let columns = (0..keys)
        .map(|k| {
            let values: Vec<Value> = rows.iter().map(|r| word(r[k])).collect();
            Arc::new(str_column(&values, coding))
        })
        .collect();
    ColumnarRelation::new(Arc::new(Schema::of(&attrs)), columns)
}

/// Build `rows` and probe rows `probe` over one dictionary: both halves
/// gathered from one column per key.
fn shared(
    rows: &[Vec<u16>],
    probe: &[Vec<u16>],
    keys: usize,
    coding: Coding,
) -> (ColumnarRelation, ColumnarRelation) {
    let all = relation(&[rows, probe].concat(), keys, coding);
    let part = |range: std::ops::Range<usize>| {
        let idx: Vec<u32> = range.map(|i| i as u32).collect();
        let cols = all
            .columns()
            .iter()
            .map(|c| Arc::new(c.gather(&idx)))
            .collect();
        ColumnarRelation::new(all.schema().clone(), cols)
    };
    (
        part(0..rows.len()),
        part(rows.len()..rows.len() + probe.len()),
    )
}

/// The code-numbered index over every column of `build` against the
/// hashed one, probed by `probe`.
fn check_class_index(
    build: &ColumnarRelation,
    probe: &ColumnarRelation,
) -> Result<(), TestCaseError> {
    let keys: Vec<usize> = (0..build.schema().arity()).collect();
    let code = ClassIndex::build(build, keys.clone());
    let hashed = ClassIndex::build_hashed(build, keys.clone());
    prop_assert_eq!(&code.class_of_row, &hashed.class_of_row);
    prop_assert_eq!(&code.protos, &hashed.protos);
    for c in 0..code.len() {
        prop_assert_eq!(code.members(c), hashed.members(c), "members of class {}", c);
    }
    prop_assert_eq!(
        code.probe_all(probe.columns(), &keys, probe.rows()),
        hashed.probe_all(probe.columns(), &keys, probe.rows())
    );
    Ok(())
}

/// Cut `table` into batches at `cuts`, each batch's rows every other one
/// when `thin`.
fn batches(table: &ColumnarRelation, cuts: &[usize], thin: bool) -> Vec<Batch> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (table.rows() + 1)).collect();
    bounds.extend([0, table.rows()]);
    bounds.sort_unstable();
    bounds.dedup();
    bounds
        .windows(2)
        .map(|w| {
            let batch = Batch::slice(table, w[0], w[1]);
            match thin {
                true => batch.with_sel_rows((w[0] as u32..w[1] as u32).step_by(2).collect()),
                false => batch,
            }
        })
        .collect()
}

/// A stream's keys against the hashed index of its concatenation: the
/// same ids in order, inserted by the rows that first hold them; and the
/// probe stream's ids are the hashed probe's.
fn check_stream(
    schema: &Arc<Schema>,
    stream: &[Batch],
    probe: &[Batch],
) -> Result<(), TestCaseError> {
    let schema = schema.clone();
    let keys: Vec<usize> = (0..schema.arity()).collect();
    let mut stream_keys = StreamKeys::new(&schema, keys.clone());
    let (mut ids, mut inserted, mut firsts) = (Vec::new(), Vec::new(), Vec::new());
    for batch in stream {
        let batch_ids = stream_keys.insert(batch, &mut inserted);
        for (&id, row) in batch_ids.iter().zip(batch.rows()) {
            if id as usize == firsts.len() {
                firsts.push(row as u32);
            }
        }
        ids.extend(batch_ids);
    }
    let whole = concat(schema.clone(), stream);
    let hashed = ClassIndex::build_hashed(&whole, keys.clone());
    prop_assert_eq!(&ids, &hashed.class_of_row);
    prop_assert_eq!(&inserted, &firsts);
    prop_assert_eq!(stream_keys.len(), hashed.len());
    let found: Vec<u32> = probe.iter().flat_map(|b| stream_keys.find(b)).collect();
    let probed = concat(schema, probe);
    prop_assert_eq!(
        found,
        hashed.probe_all(probed.columns(), &keys, probed.rows())
    );
    Ok(())
}

fn key_rows(keys: usize, width: u16, max_rows: usize) -> impl Strategy<Value = Vec<Vec<u16>>> {
    prop::collection::vec(
        prop::collection::vec(0u16..width, keys..keys + 1),
        0..max_rows,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// One dictionary per key column, build and probe rows gathered from
    /// it: codes compare directly.
    #[test]
    fn class_index_over_one_dictionary_matches_hashing(
        keys in 1usize..4,
        width in 2u16..12,
        rows in key_rows(3, 16, 60),
        probe in key_rows(3, 16, 30),
        sorted in any::<bool>(),
        wide in any::<bool>(),
    ) {
        let narrow = |rows: &[Vec<u16>], width: u16| -> Vec<Vec<u16>> {
            rows.iter().map(|r| r[..keys].iter().map(|v| v % width).collect()).collect()
        };
        let (rows, probe) = (narrow(&rows, width), narrow(&probe, width + 3));
        let (build, probe) = shared(&rows, &probe, keys, Coding { sorted, wide });
        check_class_index(&build, &probe)?;
    }

    /// Build and probe over dictionaries of their own: the probe
    /// translates its codes, and holds values the build never saw.
    #[test]
    fn class_index_over_two_dictionaries_matches_hashing(
        rows in key_rows(2, 9, 60),
        probe in key_rows(2, 14, 40),
        sorted in any::<bool>(),
        wide in any::<bool>(),
        probe_sorted in any::<bool>(),
    ) {
        let build = relation(&rows, 2, Coding { sorted, wide });
        let probe = relation(&probe, 2, Coding { sorted: probe_sorted, wide: !wide });
        check_class_index(&build, &probe)?;
    }

    /// A stream of batches over one dictionary, then over another with
    /// values the first lacks (the keys move to hashing mid-stream), and
    /// a probe stream over a third.
    #[test]
    fn stream_keys_match_hashing_the_concatenated_stream(
        keys in 1usize..4,
        first in key_rows(3, 7, 50),
        second in key_rows(3, 10, 50),
        probe in key_rows(3, 12, 40),
        cuts in prop::collection::vec(0usize..60, 0..4),
        thin in any::<bool>(),
        wide in any::<bool>(),
    ) {
        let trim = |rows: &[Vec<u16>]| -> Vec<Vec<u16>> { rows.iter().map(|r| r[..keys].to_vec()).collect() };
        let coding = Coding { sorted: false, wide };
        let (a, b) = (relation(&trim(&first), keys, coding), relation(&trim(&second), keys, coding));
        let p = relation(&trim(&probe), keys, Coding { sorted: true, wide: false });
        let mut stream = batches(&a, &cuts, thin);
        check_stream(a.schema(), &stream, &batches(&p, &cuts, false))?;
        stream.extend(batches(&b, &cuts, !thin));
        check_stream(a.schema(), &stream, &batches(&p, &cuts, thin))?;
    }

    /// The one-pass `ξᵀ` is the interpreter's list: empty periods, NULL
    /// group keys, and every aggregate at once — typed and generic.
    #[test]
    fn one_pass_aggregate_t_is_the_interpreters_list(
        rows in prop::collection::vec(
            (0u16..5, 0i64..10, 0i64..4, prop_oneof![Just(None), (-3i64..4).prop_map(Some)]),
            0..40,
        ),
    ) {
        // Built in columns: a relation of tuples admits no empty period.
        let schema = Schema::temporal(&[("G", DataType::Str), ("V", DataType::Int), ("F", DataType::Float)]);
        let mut columns: Vec<Column> =
            schema.attrs().iter().map(|a| Column::with_capacity(a.dtype, rows.len())).collect();
        for &(g, s, d, v) in &rows {
            let values = [
                word(g),
                v.map_or(Value::Null, Value::Int),
                Value::Float(s as f64 / 4.0),
                Value::Time(s),
                Value::Time(s + d),
            ];
            for (col, v) in columns.iter_mut().zip(&values) {
                col.push(v).unwrap();
            }
        }
        let input = ColumnarRelation::new(Arc::new(schema), columns.into_iter().map(Arc::new).collect());
        let m = Relation::from_columnar(input.clone());
        let aggs = vec![
            AggItem::count_star("n"),
            AggItem::new(AggFunc::Count, Some("V"), "count_v"),
            AggItem::new(AggFunc::Sum, Some("V"), "sum_v"),
            AggItem::new(AggFunc::Min, Some("V"), "min_v"),
            AggItem::new(AggFunc::Max, Some("V"), "max_v"),
            AggItem::new(AggFunc::Avg, Some("V"), "avg_v"),
            AggItem::new(AggFunc::Sum, Some("F"), "sum_f"),
        ];
        for group_by in [vec!["G".to_owned()], vec![], vec!["G".to_owned(), "V".to_owned()]] {
            let out = Arc::new(aggregate_t_schema(m.schema(), &group_by, &aggs).unwrap());
            let got = kernels::aggregate_t(&input, &group_by, &aggs, out).unwrap().to_relation();
            prop_assert_eq!(got, ops::aggregate_t(&m, &group_by, &aggs).unwrap(), "ξᵀ by {:?}", group_by);
        }
    }
}

/// 70 000 rows over two keys, one of them with NULLs, a probe over a
/// dictionary of its own, and the same rows as a stream of batches.
#[test]
fn seventy_thousand_rows_match_hashing() {
    let rows: Vec<Vec<u16>> = (0..70_000u32)
        .map(|i| {
            vec![
                (i * 7919 % 311) as u16,
                (u64::from(i) * 104_729 % 37) as u16,
            ]
        })
        .collect();
    let probe: Vec<Vec<u16>> = (0..5_000u32)
        .map(|i| vec![(i * 31 % 400) as u16, (i % 41) as u16])
        .collect();
    let coding = Coding {
        sorted: true,
        wide: false,
    };
    let build = relation(&rows, 2, coding);
    check_class_index(&build, &relation(&probe, 2, coding)).unwrap();
    let (build, probe) = shared(&rows, &probe, 2, coding);
    check_class_index(&build, &probe).unwrap();
    check_stream(
        build.schema(),
        &batches(&build, &[1024, 9000, 40_000], false),
        &batches(&probe, &[], false),
    )
    .unwrap();
}

/// A key with an `Int` column is hashed, by the class index and by the
/// stream keys alike, and still numbers classes as the hashed build does.
#[test]
fn mixed_string_and_int_keys_take_the_hashed_path() {
    let r = Relation::new(
        Schema::of(&[("S", DataType::Str), ("I", DataType::Int)]),
        (0..500i64)
            .map(|i| {
                Tuple::new(vec![
                    word((i % 9) as u16),
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i % 4)
                    },
                ])
            })
            .collect(),
    )
    .unwrap();
    let c = ColumnarRelation::from_relation(&r).unwrap();
    let before = GROUPINGS_HASHED.get();
    let index = ClassIndex::build(&c, vec![0, 1]);
    assert!(GROUPINGS_HASHED.get() > before, "the class index hashed");
    let hashed = ClassIndex::build_hashed(&c, vec![0, 1]);
    assert_eq!(index.class_of_row, hashed.class_of_row);
    assert_eq!(index.protos, hashed.protos);

    let before = GROUPINGS_HASHED.get();
    check_stream(
        c.schema(),
        &batches(&c, &[100, 333], true),
        &batches(&c, &[50], false),
    )
    .unwrap();
    assert!(GROUPINGS_HASHED.get() > before, "the stream keys hashed");
}

/// `rdup` and `\` over a union of two tables, each over a dictionary of
/// its own, run in the engine as the interpreter runs them.
#[test]
fn streaming_rdup_and_difference_across_dictionaries_match_the_interpreter() {
    let table = |offset: i64, n: i64| {
        Relation::new(
            Schema::of(&[("A", DataType::Str), ("B", DataType::Str)]),
            (0..n)
                .map(|i| {
                    Tuple::new(vec![
                        word(((i + offset) % 13) as u16),
                        word(((i * 3 + offset) % 5) as u16),
                    ])
                })
                .collect(),
        )
        .unwrap()
    };
    let env = Env::new()
        .with("L", table(0, 3000))
        .with("R", table(7, 2500))
        .with("Q", table(3, 800));
    let scan = |name: &str| {
        let rel = env.get(name).unwrap();
        PlanBuilder::scan(
            name,
            BaseProps::unordered(rel.schema().clone(), rel.len() as u64),
        )
    };
    for plan in [
        scan("L").union_all(scan("R")).rdup().build_multiset(),
        scan("L")
            .union_all(scan("R"))
            .difference(scan("Q"))
            .build_multiset(),
        scan("Q")
            .difference(scan("L").union_all(scan("R")))
            .build_multiset(),
    ] {
        let physical = lower(&plan, PlannerConfig::default()).unwrap();
        let (got, _) = execute_mode(&physical, &env, ExecMode::Batch).unwrap();
        assert_eq!(got, eval_plan(&plan, &env).unwrap());
    }
}
