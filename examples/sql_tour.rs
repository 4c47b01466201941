//! A tour of the SQL frontend: parse → plan → EXPLAIN → verified
//! execution over a live socket.
//!
//! An owner signs two related tables (employees keyed by their department
//! foreign key, departments keyed by id), an untrusted publisher serves
//! them over the wire, and a [`adp::server::SqlSession`] —
//! holding nothing but the owner certificates — plans each statement
//! locally, ships the cheapest-proof plan as a `PlannedQuery` frame, and
//! verifies the answer before showing a single row. Along the way it
//! prints the planner's EXPLAIN record and measures the chosen plan's
//! VO-byte advantage over the naive plan on the real wire
//! (`docs/SQL.md`; Pang et al., SIGMOD 2005, Sections 4.1–4.3).
//!
//! Run with: `cargo run --release --example sql_tour`

use adp::core::prelude::*;
use adp::relation::{Column, Record, Schema, Table, Value, ValueType};
use adp::server::{Server, ServerConfig, SqlSession};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

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
        (5i64, "Ada", 10i64),
        (1, "Dijkstra", 10),
        (2, "Curie", 20),
        (3, "Erdos", 20),
        (4, "Bohr", 30),
        (6, "Franklin", 40),
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
        (10i64, "engineering", 500i64),
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

fn explain(sql: &str, out: &adp::server::SqlOutcome) {
    println!("\nEXPLAIN {sql}");
    println!(
        "  naive  cost: {:>8.0} est. VO bytes + {:>6.2} ms verify  (score {:.0})",
        out.planned.naive_cost.vo_bytes,
        out.planned.naive_cost.verify_ms,
        out.planned.naive_cost.score()
    );
    println!(
        "  chosen cost: {:>8.0} est. VO bytes + {:>6.2} ms verify  (score {:.0})",
        out.planned.chosen_cost.vo_bytes,
        out.planned.chosen_cost.verify_ms,
        out.planned.chosen_cost.score()
    );
    println!(
        "  passes applied: {}",
        if out.planned.passes_applied.is_empty() {
            "(none — naive plan already cheapest)".to_string()
        } else {
            out.planned.passes_applied.join(", ")
        }
    );
    for line in out.planned.optimized.to_string().lines() {
        println!("    {line}");
    }
    println!(
        "  verified: {} rows, {} signatures; {} result bytes + {} VO bytes on the wire",
        out.rows_verified, out.signatures_verified, out.result_bytes, out.vo_bytes
    );
}

fn main() {
    // --- The owner: sign both tables, hand out certificates. -----------
    let mut rng = StdRng::seed_from_u64(0x70_12);
    let owner = Owner::new(512, &mut rng);
    let emp = owner
        .sign_table(emp_table(), Domain::new(0, 1_000), SchemeConfig::default())
        .unwrap();
    let dept = owner
        .sign_table(dept_table(), Domain::new(0, 1_000), SchemeConfig::default())
        .unwrap();
    let emp_cert = owner.certificate(&emp);
    let dept_cert = owner.certificate(&dept);

    // --- The untrusted publisher: a live server. -----------------------
    let mut server = Server::new(ServerConfig::default());
    server.add_shared_table(0, Arc::new(emp));
    server.add_shared_table(1, Arc::new(dept));
    let handle = server.serve("127.0.0.1:0").expect("bind");
    println!("publisher listening on {}", handle.addr());

    // --- The user: certificates only, SQL in, verified rows out. -------
    let mut session = SqlSession::connect(handle.addr()).unwrap();
    session.add_table(0, emp_cert, 6);
    session.add_table(1, dept_cert, 5);
    session.declare_fk("emp", "dept");

    // 1. A range select: predicate pushdown narrows the scan, so the
    //    publisher proves [10, 20] instead of the whole signed domain.
    let sql = "SELECT name, dept FROM emp WHERE dept BETWEEN 10 AND 20";
    let out = session.query_sql(sql).unwrap();
    explain(sql, &out);
    for row in &out.output.rows {
        println!("  {:?}", row.values());
    }

    // The naive plan is a real plan — ship it and measure the difference.
    let (_, naive_vo) = session
        .client_mut()
        .query_planned_raw(&out.planned.naive.wire)
        .unwrap();
    println!(
        "  naive plan on the same wire: {} VO bytes → planner saved {} bytes of proof",
        naive_vo.len(),
        naive_vo.len() - out.vo_bytes
    );

    // 2. A pk-fk join: both relations' chains verify, and the inner
    //    side's range transfers onto the outer scan.
    let sql = "SELECT emp.name, dept.dname FROM emp \
               INNER JOIN dept ON emp.dept = dept.dept \
               WHERE emp.dept BETWEEN 10 AND 20";
    let out = session.query_sql(sql).unwrap();
    explain(sql, &out);
    for row in &out.output.rows {
        println!("  {:?}", row.values());
    }

    // 3. Aggregates compute client-side over verified rows: a publisher
    //    that omitted a row would have failed verification first.
    for sql in [
        "SELECT COUNT(*) FROM emp WHERE dept >= 20",
        "SELECT SUM(budget) FROM dept WHERE dept BETWEEN 10 AND 30",
        "SELECT SUM(dept.budget) FROM emp \
         INNER JOIN dept ON emp.dept = dept.dept \
         WHERE emp.dept BETWEEN 10 AND 20",
    ] {
        let out = session.query_sql(sql).unwrap();
        let (label, value) = out.output.aggregate.clone().unwrap();
        explain(sql, &out);
        println!("  {label} = {value:?}");
    }

    // 4. Unprovable statements fail client-side, before any bytes move.
    let err = session
        .query_sql("SELECT * FROM emp INNER JOIN dept ON emp.dept = dept.dept WHERE budget > 100")
        .unwrap_err();
    println!("\nrejected without touching the wire: {err}");

    let stats = session.stats();
    println!(
        "\nsession: {} queries, {} rows verified, {} VO bytes total",
        stats.queries, stats.rows_verified, stats.vo_bytes
    );
    handle.shutdown();
}
