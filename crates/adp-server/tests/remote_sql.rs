//! SQL over the wire: a `SqlSession` plans statements locally, ships the
//! cheapest-proof plan as a `PlannedQuery` frame, and verifies
//! the multi-relation VO that comes back against owner certificates alone.
//! The suite pins the acceptance bar for the planner: the chosen plan's VO
//! must be *measurably smaller* than the naive full-domain plan's on the
//! committed fixture, and joins + aggregates must round-trip verified.

use adp_core::prelude::*;
use adp_relation::{check_referential_integrity, Column, Record, Schema, Table, Value, ValueType};
use adp_server::{RemoteClient, RemoteError, Server, SqlSession};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// Employees sorted on their dept foreign key: 6 rows over depts
/// {10, 20, 30, 40}, referentially contained in [`dept_table`].
fn emp_table() -> Table {
    let schema = Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("name", ValueType::Text),
            Column::new("dept", ValueType::Int),
        ],
        "dept",
    );
    let mut t = Table::new("emp", schema);
    for (id, name, dept) in [
        (5i64, "A", 10i64),
        (1, "D", 10),
        (2, "C", 20),
        (3, "E", 20),
        (4, "B", 30),
        (6, "F", 40),
    ] {
        t.insert(Record::new(vec![
            Value::Int(id),
            Value::from(name),
            Value::Int(dept),
        ]))
        .unwrap();
    }
    t
}

/// Departments keyed on dept id: 5 rows, one (legal/50) never joined.
fn dept_table() -> Table {
    let schema = Schema::new(
        vec![
            Column::new("dept", ValueType::Int),
            Column::new("dname", ValueType::Text),
            Column::new("budget", ValueType::Int),
        ],
        "dept",
    );
    let mut t = Table::new("dept", schema);
    for (d, n, b) in [
        (10i64, "eng", 500i64),
        (20, "sales", 300),
        (30, "hr", 100),
        (40, "ops", 200),
        (50, "legal", 50),
    ] {
        t.insert(Record::new(vec![
            Value::Int(d),
            Value::from(n),
            Value::Int(b),
        ]))
        .unwrap();
    }
    t
}

struct Fixture {
    emp: Arc<SignedTable>,
    dept: Arc<SignedTable>,
    emp_cert: Certificate,
    dept_cert: Certificate,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x50_1A);
        let owner = Owner::new(512, &mut rng);
        let emp_raw = emp_table();
        let dept_raw = dept_table();
        check_referential_integrity(&emp_raw, &dept_raw).unwrap();
        let emp = owner
            .sign_table(emp_raw, Domain::new(0, 1_000), SchemeConfig::default())
            .unwrap();
        let dept = owner
            .sign_table(dept_raw, Domain::new(0, 1_000), SchemeConfig::default())
            .unwrap();
        let emp_cert = owner.certificate(&emp);
        let dept_cert = owner.certificate(&dept);
        Fixture {
            emp: Arc::new(emp),
            dept: Arc::new(dept),
            emp_cert,
            dept_cert,
        }
    })
}

fn start_server() -> adp_server::ServerHandle {
    let fix = fixture();
    let mut server = Server::new(adp_server::ServerConfig::default());
    server.add_shared_table(0, Arc::clone(&fix.emp));
    server.add_shared_table(1, Arc::clone(&fix.dept));
    server.serve("127.0.0.1:0").expect("bind ephemeral port")
}

/// Builds a session that knows both tables and the owner-declared
/// referential integrity emp.dept → dept.dept.
fn session(addr: std::net::SocketAddr) -> SqlSession {
    let fix = fixture();
    let mut s = SqlSession::connect(addr).unwrap();
    s.add_table(0, fix.emp_cert.clone(), 6);
    s.add_table(1, fix.dept_cert.clone(), 5);
    s.declare_fk("emp", "dept");
    s
}

#[test]
fn planned_select_round_trips_and_beats_naive_vo() {
    let handle = start_server();
    let mut s = session(handle.addr());

    let sql = "SELECT * FROM emp WHERE dept BETWEEN 10 AND 20";
    let out = s.query_sql(sql).unwrap();
    assert_eq!(out.output.rows.len(), 4, "depts 10,10,20,20");
    assert!(out.rows_verified >= 4);
    assert!(out.signatures_verified > 0);
    assert!(
        out.planned.passes_applied.contains(&"predicate-pushdown"),
        "pushdown must fire: {:?}",
        out.planned.passes_applied
    );
    // The chosen plan scans only [10, 20]; the naive plan scans the whole
    // domain with the predicate as client-side residue. The proof for the
    // narrow range must be strictly smaller on the wire.
    assert!(
        out.planned.chosen_cost.score() < out.planned.naive_cost.score(),
        "planner must price the narrow scan cheaper"
    );
    let (naive_result, naive_vo) = s
        .client_mut()
        .query_planned_raw(&out.planned.naive.wire)
        .unwrap();
    assert!(
        out.vo_bytes < naive_vo.len(),
        "chosen VO {} bytes must beat naive VO {} bytes",
        out.vo_bytes,
        naive_vo.len()
    );
    assert!(out.result_bytes < naive_result.len());

    handle.shutdown();
}

#[test]
fn planned_join_verifies_end_to_end() {
    let handle = start_server();
    let mut s = session(handle.addr());

    let sql = "SELECT emp.name, dept.dname FROM emp \
               INNER JOIN dept ON emp.dept = dept.dept \
               WHERE emp.dept BETWEEN 10 AND 20";
    let out = s.query_sql(sql).unwrap();
    // Four emp rows over depts {10, 20}, each matched to its department.
    assert_eq!(out.output.rows.len(), 4);
    let mut pairs: Vec<(String, String)> = out
        .output
        .rows
        .iter()
        .map(|r| {
            let name = |c: &str| {
                let i = out.output.columns.iter().position(|x| x == c).unwrap();
                match &r.values()[i] {
                    Value::Text(t) => t.clone(),
                    v => panic!("expected text, got {v:?}"),
                }
            };
            (name("emp.name"), name("dept.dname"))
        })
        .collect();
    pairs.sort();
    assert_eq!(
        pairs,
        vec![
            ("A".into(), "eng".into()),
            ("C".into(), "sales".into()),
            ("D".into(), "eng".into()),
            ("E".into(), "sales".into()),
        ]
    );
    // Both relations' chains were verified: 4 outer pairs + the inner
    // boundary rows all contribute to the verified count.
    assert!(out.rows_verified > 4);
    assert!(out.signatures_verified >= 2, "one signature per relation");

    // FROM listed emp first and emp is the declared fk side, so join-order
    // keeps it outer; pushdown then narrows both scans through the fk
    // range transfer.
    assert!(out.planned.passes_applied.contains(&"predicate-pushdown"));

    handle.shutdown();
}

#[test]
fn planned_join_beats_naive_on_vo_bytes() {
    let handle = start_server();
    let mut s = session(handle.addr());

    let sql = "SELECT * FROM emp INNER JOIN dept ON emp.dept = dept.dept \
               WHERE emp.dept BETWEEN 10 AND 20";
    let out = s.query_sql(sql).unwrap();
    assert_eq!(out.output.rows.len(), 4);

    let (_, naive_vo) = s
        .client_mut()
        .query_planned_raw(&out.planned.naive.wire)
        .unwrap();
    assert!(
        out.vo_bytes < naive_vo.len(),
        "narrowed join VO {} bytes must beat naive {} bytes",
        out.vo_bytes,
        naive_vo.len()
    );

    handle.shutdown();
}

#[test]
fn planned_aggregates_round_trip() {
    let handle = start_server();
    let mut s = session(handle.addr());

    let out = s
        .query_sql("SELECT COUNT(*) FROM emp WHERE dept >= 20")
        .unwrap();
    let (label, value) = out.output.aggregate.clone().unwrap();
    assert_eq!(label, "COUNT(*)");
    assert!(matches!(value, AggregateValue::Count(4)));

    let out = s
        .query_sql("SELECT SUM(budget) FROM dept WHERE dept BETWEEN 10 AND 30")
        .unwrap();
    let (label, value) = out.output.aggregate.clone().unwrap();
    assert_eq!(label, "SUM(budget)");
    assert!(matches!(value, AggregateValue::Sum(900)), "{value:?}");

    // Aggregate over a join: total budget reachable from employees in
    // depts [10, 20] — eng(500) + sales(300), counted once per emp pair.
    let out = s
        .query_sql(
            "SELECT SUM(dept.budget) FROM emp \
             INNER JOIN dept ON emp.dept = dept.dept \
             WHERE emp.dept BETWEEN 10 AND 20",
        )
        .unwrap();
    let (_, value) = out.output.aggregate.clone().unwrap();
    // 2 emps in eng + 2 in sales: 2*500 + 2*300.
    assert!(matches!(value, AggregateValue::Sum(1_600)), "{value:?}");

    handle.shutdown();
}

#[test]
fn session_stats_accumulate_and_cache_serves_repeats() {
    let handle = start_server();
    let mut s = session(handle.addr());

    let sql = "SELECT * FROM emp WHERE dept BETWEEN 10 AND 30";
    s.query_sql(sql).unwrap();
    s.query_sql(sql).unwrap();
    let stats = s.stats();
    assert_eq!(stats.queries, 2);
    assert!(stats.vo_bytes > 0 && stats.rows_verified >= 10);

    let server_stats = s.client_mut().stats().unwrap();
    assert_eq!(server_stats.cache_misses, 1, "identical plan re-served");
    assert!(server_stats.cache_hits >= 1);

    handle.shutdown();
}

#[test]
fn sql_errors_are_client_side_and_connection_survives() {
    let handle = start_server();
    let mut s = session(handle.addr());

    // Parse error.
    assert!(matches!(
        s.query_sql("SELEKT * FROM emp"),
        Err(RemoteError::Sql(_))
    ));
    // Unknown table.
    assert!(matches!(
        s.query_sql("SELECT * FROM nope"),
        Err(RemoteError::Sql(_))
    ));
    // Unsupported shape: non-key predicate over a join.
    assert!(matches!(
        s.query_sql(
            "SELECT * FROM emp INNER JOIN dept ON emp.dept = dept.dept \
             WHERE budget >= 100"
        ),
        Err(RemoteError::Sql(_))
    ));
    // None of those touched the wire; the connection still works.
    let out = s.query_sql("SELECT COUNT(*) FROM dept").unwrap();
    assert!(matches!(
        out.output.aggregate.as_ref().unwrap().1,
        AggregateValue::Count(5)
    ));

    handle.shutdown();
}

#[test]
fn unknown_table_id_in_plan_is_a_server_error() {
    let handle = start_server();
    let mut client = RemoteClient::connect(handle.addr()).unwrap();

    let plan = adp_core::plan::WirePlan::Select {
        table_id: 42,
        query: adp_relation::SelectQuery::range(adp_relation::KeyRange::all()),
    };
    match client.query_planned_raw(&plan) {
        Err(RemoteError::Server { code, .. }) => {
            assert_eq!(code, adp_server::ErrorCode::UnknownTable)
        }
        other => panic!("expected UnknownTable, got {other:?}"),
    }
    // Connection survives the refused plan.
    client.ping().unwrap();

    handle.shutdown();
}
