//! Seeded inputs. Every table, query, SQL statement and update batch the
//! benchmark sends is derived from the workload seed, so one seed always
//! produces the same inputs; the program under test only ever sees them.

use adp_bench::{KeyDist, WorkloadSpec};
use adp_core::prelude::*;
use adp_core::AggregateValue;
use adp_relation::{Column, KeyRange, Record, Schema, SelectQuery, Table, Value, ValueType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Rows of the `select_cold` / `churn` table and of `emp`.
pub const ROWS: usize = 10_000;
/// Key spacing of the generated `bench` table.
pub const GAP: i64 = 10;
/// Payload bytes per `bench` row.
pub const PAYLOAD: usize = 64;
/// Largest range, in rows, of one select.
pub const MAX_RANGE_ROWS: usize = 64;
/// Rows of the `dept` table (dept ids `1..=DEPTS`).
pub const DEPTS: i64 = 1_000;
/// Fixed SQL statements of `sql_hot`.
pub const STATEMENTS: usize = 64;
/// Mutations per owner update batch.
pub const BATCH_OPS: usize = 16;

/// A sub-seed for one stream of one run (`lane` separates the streams).
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ lane.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// The `select_cold` / `churn` table: `ROWS` rows keyed `key_min + GAP*i`
/// with `PAYLOAD`-byte random payloads.
pub fn bench_table(seed: u64) -> (Table, Domain) {
    WorkloadSpec {
        rows: ROWS,
        payload_bytes: PAYLOAD,
        dist: KeyDist::Spaced { gap: GAP },
        seed,
    }
    .build()
}

/// A `bench` record for key `k` (inserted or updated by a batch).
pub fn bench_record(k: i64, rng: &mut StdRng) -> Record {
    let mut payload = vec![0u8; PAYLOAD];
    rng.fill(payload.as_mut_slice());
    Record::new(vec![
        Value::Int(k),
        Value::Int(rng.gen_range(0..10)),
        Value::Bytes(payload),
    ])
}

/// Range selects over the spaced-key table: each starts at a uniformly
/// random key and spans 1..=`MAX_RANGE_ROWS` rows of the generated table,
/// so almost no request repeats.
pub struct RangeStream {
    rng: StdRng,
    key_min: i64,
}

impl RangeStream {
    pub fn new(seed: u64, lane: u64, domain: &Domain) -> Self {
        RangeStream {
            rng: StdRng::seed_from_u64(sub_seed(seed, lane)),
            key_min: domain.key_min(),
        }
    }

    pub fn next_query(&mut self) -> SelectQuery {
        let i = self.rng.gen_range(0..ROWS as i64);
        let span = self.rng.gen_range(1..=MAX_RANGE_ROWS as i64);
        let slack = self.rng.gen_range(0..GAP);
        let lo = self.key_min + GAP * i;
        SelectQuery::range(KeyRange::closed(lo, lo + GAP * (span - 1) + slack))
    }
}

/// Keys (from [`keys_of`]) lying in `[lo, hi]`: the known answer to a
/// range select, computed from the owner's copy of the table.
pub fn rows_in(keys: &[i64], lo: i64, hi: i64) -> usize {
    keys.partition_point(|&k| k <= hi) - keys.partition_point(|&k| k < lo)
}

/// The sorted keys (one per row) of a signed table.
pub fn keys_of(st: &SignedTable) -> Vec<i64> {
    let schema = st.table().schema();
    st.table()
        .rows()
        .iter()
        .map(|r| r.record.key(schema))
        .collect()
}

/// `emp(id, dept, salary)` sorted on its foreign key `dept`, and
/// `dept(dept, dname, budget)` sorted on its primary key.
pub fn sql_tables(seed: u64) -> ((Table, Domain), (Table, Domain)) {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 100));
    let mut emp = Table::new("emp", emp_schema());
    for id in 0..ROWS as i64 {
        emp.insert(emp_record(id, rng.gen_range(1..=DEPTS), &mut rng))
            .expect("generated emp row is schema-valid");
    }
    let dept_schema = Schema::new(
        vec![
            Column::new("dept", ValueType::Int),
            Column::new("dname", ValueType::Text),
            Column::new("budget", ValueType::Int),
        ],
        "dept",
    );
    let mut dept = Table::new("dept", dept_schema);
    for d in 1..=DEPTS {
        dept.insert(Record::new(vec![
            Value::Int(d),
            Value::from(format!("d{d}").as_str()),
            Value::Int(rng.gen_range(100..100_000)),
        ]))
        .expect("generated dept row is schema-valid");
    }
    let domain = Domain::new(-2, DEPTS + 3);
    ((emp, domain), (dept, domain))
}

fn emp_schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("dept", ValueType::Int),
            Column::new("salary", ValueType::Int),
        ],
        "dept",
    )
}

/// An `emp` record (used by the generator and by update batches).
pub fn emp_record(id: i64, dept: i64, rng: &mut StdRng) -> Record {
    Record::new(vec![
        Value::Int(id),
        Value::Int(dept),
        Value::Int(rng.gen_range(1_000..10_000)),
    ])
}

/// What a statement must return, computed in-process from the tables.
#[derive(Clone, Debug, PartialEq)]
pub enum Expected {
    Rows(usize),
    Agg(AggregateValue),
    Pairs(usize),
}

/// One fixed `sql_hot` statement with its known answer.
#[derive(Clone, Debug)]
pub struct Statement {
    pub sql: String,
    pub expected: Expected,
}

/// The `STATEMENTS` fixed statements: range SELECT, COUNT, SUM and pk-fk
/// JOIN in turn, each over 1–3 departments (~10–30 employees).
pub fn sql_statements(seed: u64, emp: &Table) -> Vec<Statement> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 200));
    let depts: Vec<(i64, i64)> = emp
        .rows()
        .iter()
        .map(|r| match r.record.values() {
            [_, Value::Int(d), Value::Int(s)] => (*d, *s),
            _ => unreachable!("emp rows are (id, dept, salary)"),
        })
        .collect();
    (0..STATEMENTS)
        .map(|j| {
            let a = rng.gen_range(1..=DEPTS - 2);
            let b = a + rng.gen_range(0..=2);
            let hit = depts.iter().filter(|(d, _)| (a..=b).contains(d));
            let n = hit.clone().count();
            let (sql, expected) = match j % 4 {
                0 => (
                    format!("SELECT * FROM emp WHERE dept BETWEEN {a} AND {b}"),
                    Expected::Rows(n),
                ),
                1 => (
                    format!("SELECT COUNT(*) FROM emp WHERE dept BETWEEN {a} AND {b}"),
                    Expected::Agg(AggregateValue::Count(n as u64)),
                ),
                2 => (
                    format!("SELECT SUM(salary) FROM emp WHERE dept BETWEEN {a} AND {b}"),
                    Expected::Agg(AggregateValue::Sum(hit.map(|(_, s)| s).sum())),
                ),
                _ => (
                    format!(
                        "SELECT emp.id, dept.dname FROM emp INNER JOIN dept \
                         ON emp.dept = dept.dept WHERE emp.dept BETWEEN {a} AND {b}"
                    ),
                    Expected::Pairs(n),
                ),
            };
            Statement { sql, expected }
        })
        .collect()
}

/// Which table an update batch targets, and how to make its records.
#[derive(Clone, Copy, Debug)]
pub enum BatchShape {
    Bench,
    Emp,
}

/// One owner batch of `BATCH_OPS` mutations on distinct rows: inserts at
/// random legal keys, deletes and in-place updates of random rows.
pub fn gen_batch(
    st: &SignedTable,
    shape: BatchShape,
    rng: &mut StdRng,
    next_id: &mut i64,
) -> Vec<Mutation> {
    let schema = st.table().schema();
    let (lo, hi) = match shape {
        BatchShape::Bench => (st.domain().key_min(), st.domain().key_max()),
        BatchShape::Emp => (1, DEPTS),
    };
    let mut taken = HashSet::new();
    let mut pick = |rng: &mut StdRng| loop {
        let pos = rng.gen_range(0..st.len());
        if taken.insert(pos) {
            let row = st.table().row(pos);
            return (row.record.key(schema), row.replica, row.record.clone());
        }
    };
    let mut record_for = |k: i64, old: Option<&Record>, rng: &mut StdRng| match shape {
        BatchShape::Bench => bench_record(k, rng),
        BatchShape::Emp => {
            let id = match old.map(|r| r.get(0)) {
                Some(Value::Int(id)) => *id,
                _ => {
                    *next_id += 1;
                    *next_id
                }
            };
            emp_record(id, k, rng)
        }
    };
    (0..BATCH_OPS)
        .map(|_| match rng.gen_range(0..3) {
            0 => {
                let k = rng.gen_range(lo..=hi);
                Mutation::Insert(record_for(k, None, rng))
            }
            1 => {
                let (key, replica, _) = pick(rng);
                Mutation::Delete { key, replica }
            }
            _ => {
                let (key, replica, old) = pick(rng);
                Mutation::Update {
                    key,
                    replica,
                    record: record_for(key, Some(&old), rng),
                }
            }
        })
        .collect()
}
