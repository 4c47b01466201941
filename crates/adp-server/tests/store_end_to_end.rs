//! Bulk-ingest end-to-end: owner → store → live server → socket →
//! `RemoteVerifier`, across an update and a process "restart".
//!
//! The flow being proven: a table is signed and persisted, served from
//! its store, queried and verified over a real socket; the owner then
//! ships an update batch (canonical ops + O(k) re-signed signatures),
//! the server verifies, logs, and hot-swaps it (bumping the table epoch
//! so cached VOs die lazily); queries verify again; the server restarts
//! from disk alone and the post-update state still verifies. Tampered
//! update batches — in flight or in the on-disk log — are rejected.

use adp_core::plan::WirePlan;
use adp_core::prelude::*;
use adp_relation::{Column, KeyRange, Record, Schema, SelectQuery, Table, Value, ValueType};
use adp_server::{RemoteVerifier, Server, ServerConfig, SqlSession, UpdateError};
use adp_store::{Store, StoreError, LOG_FILE};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::PathBuf;

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adp-server-store-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("name", ValueType::Text),
            Column::new("salary", ValueType::Int),
        ],
        "salary",
    )
}

fn rec(id: i64, salary: i64) -> Record {
    Record::new(vec![
        Value::Int(id),
        Value::from(format!("e{id}")),
        Value::Int(salary),
    ])
}

#[test]
fn ingest_update_restart_verify_over_socket() {
    let mut rng = StdRng::seed_from_u64(0xE2E);
    let owner = Owner::new(512, &mut rng);
    let mut t = Table::new("emp", schema());
    for i in 0..10i64 {
        t.insert(rec(i, 1_000 + i * 500)).unwrap();
    }
    let signed = owner
        .sign_table(t, Domain::new(0, 100_000), SchemeConfig::default())
        .unwrap();
    let cert = owner.certificate(&signed);
    // The owner's in-memory replica (what it keeps signing against).
    let mut owner_st = signed.clone();

    let dir = workdir("e2e");
    Store::create(&dir, signed).unwrap();

    // ---- serve from the store ------------------------------------------
    let mut server = Server::new(ServerConfig::default());
    server.open_store(0, &dir).unwrap();
    let handle = server.serve("127.0.0.1:0").unwrap();
    let epoch0 = handle.table_epoch(0).unwrap();

    let mut user = RemoteVerifier::connect(handle.addr(), cert.clone(), 0).unwrap();
    let query = SelectQuery::range(KeyRange::closed(1_000, 3_000));
    let pre = user.select(&query).expect("pre-update query verifies");
    assert_eq!(pre.rows.len(), 5);
    // Query again: served from the VO cache.
    user.select(&query).unwrap();
    let stats = user.client_mut().stats().unwrap();
    assert!(stats.cache_hits >= 1);
    assert_eq!(stats.invalidations, 0);

    // ---- live update ----------------------------------------------------
    let ops = vec![
        Mutation::Insert(rec(100, 2_250)),
        Mutation::Delete {
            key: 3_000,
            replica: 0,
        },
    ];
    let report = owner.apply_batch(&mut owner_st, ops).unwrap();
    let new_epoch = handle
        .apply_update(0, &report.ops, &report.resigned)
        .expect("update applies");
    assert!(new_epoch > epoch0);

    // The same query now answers the new state — the stale cache entry is
    // dropped lazily and counted.
    let post = user.select(&query).expect("post-update query verifies");
    assert_eq!(post.rows.len(), 5); // +1 insert, -1 delete
    let salaries: Vec<i64> = post.rows.iter().filter_map(|r| r.get(2).as_int()).collect();
    assert!(salaries.contains(&2_250));
    assert!(!salaries.contains(&3_000));
    let stats = user.client_mut().stats().unwrap();
    assert!(stats.invalidations >= 1, "{stats:?}");

    // ---- tampered in-flight update rejected -----------------------------
    let mut forged = report.resigned.clone();
    let mut bytes = forged[0].1.to_bytes();
    bytes[5] ^= 0x20;
    forged[0].1 = adp_crypto::Signature::from_bytes(&bytes);
    // Replaying the same batch would dirty different positions anyway, so
    // craft a fresh batch signed by the owner and forge one signature.
    let report2 = owner
        .apply_batch(
            &mut owner_st.clone(),
            vec![Mutation::Insert(rec(101, 9_999))],
        )
        .unwrap();
    let mut forged2 = report2.resigned.clone();
    let mut b2 = forged2[1].1.to_bytes();
    b2[7] ^= 0x40;
    forged2[1].1 = adp_crypto::Signature::from_bytes(&b2);
    let err = handle
        .apply_update(0, &report2.ops, &forged2)
        .expect_err("forged update must be rejected");
    assert!(matches!(
        err,
        UpdateError::Store(StoreError::Owner(
            adp_core::owner::OwnerError::ResignatureInvalid { .. }
        ))
    ));
    // Service unaffected by the rejected update.
    assert_eq!(user.select(&query).unwrap().rows.len(), 5);

    handle.shutdown();

    // ---- restart from disk ----------------------------------------------
    let mut server = Server::new(ServerConfig::default());
    server.open_store(0, &dir).unwrap();
    let handle = server.serve("127.0.0.1:0").unwrap();
    let mut user = RemoteVerifier::connect(handle.addr(), cert.clone(), 0).unwrap();
    let reloaded = user.select(&query).expect("post-restart query verifies");
    assert_eq!(reloaded.rows.len(), 5);
    let salaries: Vec<i64> = reloaded
        .rows
        .iter()
        .filter_map(|r| r.get(2).as_int())
        .collect();
    assert!(salaries.contains(&2_250), "update survived the restart");
    // The owner's in-memory replica and the twice-reloaded table agree on
    // every VO byte: verify a few more shapes.
    for q in [
        SelectQuery::range(KeyRange::all()),
        SelectQuery::range(KeyRange::at_least(5_000)).project(&["name"]),
    ] {
        user.select(&q)
            .unwrap_or_else(|e| panic!("query {q:?} must verify after restart: {e}"));
    }
    handle.shutdown();

    // ---- a bit-flipped log refuses to load ------------------------------
    let log_path = dir.join(LOG_FILE);
    let pristine = fs::read(&log_path).unwrap();
    let mut bad = pristine.clone();
    let mid = 10 + (bad.len() - 10) / 2;
    bad[mid] ^= 0x08;
    fs::write(&log_path, &bad).unwrap();
    let mut server = Server::new(ServerConfig::default());
    assert!(
        server.open_store(0, &dir).is_err(),
        "tampered log must fail to open"
    );
    fs::write(&log_path, &pristine).unwrap();

    fs::remove_dir_all(&dir).unwrap();
}

/// A cached pk-fk join answer records the epochs of *both* tables: an
/// update to either one drops the entry on the next lookup (counted as an
/// invalidation), and the recomputed join verifies against the new state.
#[test]
fn cached_join_is_invalidated_by_an_update_on_either_table() {
    let mut rng = StdRng::seed_from_u64(0x701E);
    let owner = Owner::new(512, &mut rng);
    let emp_row = |id: i64, dept: i64| Record::new(vec![Value::Int(id), Value::Int(dept)]);
    let dept_row = |dept: i64| Record::new(vec![Value::Int(dept), Value::from(format!("d{dept}"))]);
    let mut emp = Table::new(
        "emp",
        Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("dept", ValueType::Int),
            ],
            "dept",
        ),
    );
    for (id, dept) in [(1, 10), (2, 10), (3, 20), (4, 30)] {
        emp.insert(emp_row(id, dept)).unwrap();
    }
    let mut dept = Table::new(
        "dept",
        Schema::new(
            vec![
                Column::new("dept", ValueType::Int),
                Column::new("dname", ValueType::Text),
            ],
            "dept",
        ),
    );
    for d in [10, 20, 30] {
        dept.insert(dept_row(d)).unwrap();
    }
    let sign = |t| {
        owner
            .sign_table(t, Domain::new(0, 1_000), SchemeConfig::default())
            .unwrap()
    };
    let (mut emp_st, mut dept_st) = (sign(emp), sign(dept));
    let (emp_dir, dept_dir) = (workdir("join-emp"), workdir("join-dept"));
    Store::create(&emp_dir, emp_st.clone()).unwrap();
    Store::create(&dept_dir, dept_st.clone()).unwrap();

    let mut server = Server::new(ServerConfig::default());
    server.open_store(0, &emp_dir).unwrap();
    server.open_store(1, &dept_dir).unwrap();
    let handle = server.serve("127.0.0.1:0").unwrap();
    let mut s = SqlSession::connect(handle.addr()).unwrap();
    s.add_table(0, owner.certificate(&emp_st), 4);
    s.add_table(1, owner.certificate(&dept_st), 3);
    s.declare_fk("emp", "dept");

    let sql = "SELECT * FROM emp INNER JOIN dept ON emp.dept = dept.dept \
               WHERE emp.dept BETWEEN 10 AND 20";
    let join_rows = |s: &mut SqlSession| {
        let out = s.query_sql(sql).expect("join verifies");
        assert!(matches!(out.planned.chosen.wire, WirePlan::PkFkJoin { .. }));
        out.output.rows.len()
    };
    assert_eq!(join_rows(&mut s), 3);
    assert_eq!(join_rows(&mut s), 3);
    let stats = s.client_mut().stats().unwrap();
    assert_eq!(
        (stats.cache_misses, stats.cache_hits, stats.invalidations),
        (1, 1, 0)
    );

    // pk side: a new, unreferenced department.
    let report = owner
        .apply_batch(&mut dept_st, vec![Mutation::Insert(dept_row(40))])
        .unwrap();
    handle
        .apply_update(1, &report.ops, &report.resigned)
        .expect("dept update applies");
    assert_eq!(join_rows(&mut s), 3);
    let stats = s.client_mut().stats().unwrap();
    assert_eq!((stats.cache_misses, stats.invalidations), (2, 1));

    // fk side: one more employee in dept 20.
    let report = owner
        .apply_batch(&mut emp_st, vec![Mutation::Insert(emp_row(5, 20))])
        .unwrap();
    handle
        .apply_update(0, &report.ops, &report.resigned)
        .expect("emp update applies");
    assert_eq!(join_rows(&mut s), 4);
    let stats = s.client_mut().stats().unwrap();
    assert_eq!((stats.cache_misses, stats.invalidations), (3, 2));

    handle.shutdown();
    fs::remove_dir_all(&emp_dir).unwrap();
    fs::remove_dir_all(&dept_dir).unwrap();
}

#[test]
fn open_store_refuses_unauditable_snapshot() {
    // A snapshot whose CRCs are valid but whose signatures don't match the
    // data decodes structurally — the publisher-side audit at open_store
    // must still refuse to serve it.
    let mut rng = StdRng::seed_from_u64(0xA0D1);
    let owner = Owner::new(512, &mut rng);
    let mut t = Table::new("emp", schema());
    for i in 0..4i64 {
        t.insert(rec(i, 1_000 + i * 100)).unwrap();
    }
    let signed = owner
        .sign_table(t, Domain::new(0, 100_000), SchemeConfig::default())
        .unwrap();
    // Re-assemble the table with one signature byte flipped, then frame it
    // as a perfectly well-formed snapshot.
    let mut sigs: Vec<adp_crypto::Signature> = (0..signed.chain_len())
        .map(|i| signed.entry(i).signature.clone())
        .collect();
    let mut bytes = sigs[2].to_bytes();
    bytes[0] ^= 0x01;
    sigs[2] = adp_crypto::Signature::from_bytes(&bytes);
    let forged = SignedTable::from_parts(
        signed.table().clone(),
        *signed.domain(),
        *signed.config(),
        sigs,
        signed.public_key().clone(),
    )
    .unwrap();

    let dir = workdir("unauditable");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join(adp_store::SNAPSHOT_FILE),
        adp_store::format::encode_snapshot(&forged, 0),
    )
    .unwrap();
    std::fs::write(dir.join(LOG_FILE), adp_store::log::log_header()).unwrap();

    // The raw store opens (CRCs pass) ...
    assert!(Store::open(&dir).is_ok());
    // ... but the serving path refuses it.
    let mut server = Server::new(ServerConfig::default());
    assert!(matches!(
        server.open_store(0, &dir),
        Err(StoreError::AuditFailed)
    ));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn updates_require_a_store_backed_table() {
    let mut rng = StdRng::seed_from_u64(0xE2F);
    let owner = Owner::new(512, &mut rng);
    let mut t = Table::new("emp", schema());
    t.insert(rec(1, 1_000)).unwrap();
    let signed = owner
        .sign_table(t, Domain::new(0, 100_000), SchemeConfig::default())
        .unwrap();
    let mut owner_st = signed.clone();
    let mut server = Server::new(ServerConfig::default());
    server.add_table(3, signed);
    let handle = server.serve("127.0.0.1:0").unwrap();

    let report = owner
        .apply_batch(&mut owner_st, vec![Mutation::Insert(rec(2, 2_000))])
        .unwrap();
    assert!(matches!(
        handle.apply_update(3, &report.ops, &report.resigned),
        Err(UpdateError::NotStoreBacked(3))
    ));
    assert!(matches!(
        handle.apply_update(9, &report.ops, &report.resigned),
        Err(UpdateError::UnknownTable(9))
    ));
    handle.shutdown();
}
