//! The owner → publisher dissemination path (Figure 3's "data +
//! signatures" arrow): the publisher reconstructs a serving-ready
//! [`SignedTable`] from the raw table plus the signature list, and the
//! certificate travels to users as bytes.

use adp_core::prelude::*;
use adp_core::wire;
use adp_relation::{Column, KeyRange, Record, Schema, SelectQuery, Table, Value, ValueType};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

fn owner() -> &'static Owner {
    static OWNER: OnceLock<Owner> = OnceLock::new();
    OWNER.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xD155);
        Owner::new(512, &mut rng)
    })
}

fn sample_table() -> Table {
    sample_table_of(40)
}

fn sample_table_of(rows: i64) -> Table {
    let schema = Schema::new(
        vec![
            Column::new("k", ValueType::Int),
            Column::new("name", ValueType::Text),
            Column::new("flag", ValueType::Bool),
        ],
        "k",
    );
    let mut t = Table::new("disseminated", schema);
    for i in 0..rows {
        t.insert(Record::new(vec![
            Value::Int(i * 3 + 2),
            Value::from(format!("n{i}")),
            Value::Bool(i % 2 == 0),
        ]))
        .unwrap();
    }
    t
}

#[test]
fn publisher_rebuilds_from_parts_and_serves() {
    let o = owner();
    // Both modes, an empty table (chain length 2), and 7 rows (9 chain
    // positions, not a multiple of a typical worker count).
    for (rows, config) in [
        (40, SchemeConfig::default()),
        (40, SchemeConfig::conceptual()),
        (0, SchemeConfig::default()),
        (7, SchemeConfig::default()),
    ] {
        let original = o
            .sign_table(sample_table_of(rows), Domain::new(0, 10_000), config)
            .unwrap();
        let cert = o.certificate(&original);

        // What actually travels owner → publisher: data + signatures.
        let signatures: Vec<_> = (0..original.chain_len())
            .map(|i| original.entry(i).signature.clone())
            .collect();
        let sig_bytes = wire::encode_signatures(&signatures);
        let decoded_sigs = wire::decode_signatures(&sig_bytes).unwrap();

        let rebuilt = SignedTable::from_parts(
            sample_table_of(rows),
            Domain::new(0, 10_000),
            config,
            decoded_sigs,
            cert.public_key.clone(),
        )
        .unwrap();
        assert_eq!(rebuilt.chain_len(), rows as usize + 2);
        for p in 0..original.chain_len() {
            assert_eq!(rebuilt.g_bytes(p), original.g_bytes(p), "g at {p}");
            assert_eq!(rebuilt.entry(p).roots, original.entry(p).roots, "{p}");
            assert_eq!(
                rebuilt.entry(p).signature.to_bytes(),
                original.entry(p).signature.to_bytes(),
                "signature at {p}"
            );
        }
        assert_eq!(rebuilt.sig_index().len(), original.sig_index().len());
        assert!(
            rebuilt.audit(),
            "rebuilt chain must verify against the owner key"
        );

        // The rebuilt publisher serves verifiable answers.
        let query = SelectQuery::range(KeyRange::closed(10, 60)).project(&["name"]);
        let (answer, vo) = Publisher::new(&rebuilt).answer_select(&query).unwrap();
        let report = verify_select(&cert, &query, &answer, &vo).unwrap();
        assert_eq!(report.matched > 0, rows > 0);
    }
}

#[test]
fn from_parts_rejects_wrong_signature_count() {
    let o = owner();
    let original = o
        .sign_table(
            sample_table(),
            Domain::new(0, 10_000),
            SchemeConfig::default(),
        )
        .unwrap();
    let mut signatures: Vec<_> = (0..original.chain_len())
        .map(|i| original.entry(i).signature.clone())
        .collect();
    signatures.pop();
    assert!(SignedTable::from_parts(
        sample_table(),
        Domain::new(0, 10_000),
        SchemeConfig::default(),
        signatures,
        original.public_key().clone(),
    )
    .is_err());
}

#[test]
fn tampered_dissemination_fails_audit() {
    // A publisher receiving data that does not match the signatures can
    // detect it immediately (and must not serve it) — wherever in the
    // chain the mismatch sits, including both ends of the audit's split.
    let o = owner();
    let original = o
        .sign_table(
            sample_table(),
            Domain::new(0, 10_000),
            SchemeConfig::default(),
        )
        .unwrap();
    let signatures: Vec<_> = (0..original.chain_len())
        .map(|i| original.entry(i).signature.clone())
        .collect();
    let rebuild = |table: Table, signatures: Vec<_>| {
        SignedTable::from_parts(
            table,
            Domain::new(0, 10_000),
            SchemeConfig::default(),
            signatures,
            original.public_key().clone(),
        )
        .unwrap()
    };
    let n = original.len();
    for row in [0, n / 2, n - 1] {
        let mut tampered = sample_table();
        let mut values = tampered.row(row).record.values().to_vec();
        values[1] = Value::from("evil");
        tampered.update_in_place(row, Record::new(values)).unwrap();
        assert!(
            !rebuild(tampered, signatures.clone()).audit(),
            "tampered row {row} must fail the audit"
        );
    }
    // Forged delimiter signatures: a genuine signature over another link.
    for pos in [0, n + 1] {
        let mut forged = signatures.clone();
        forged[pos] = signatures[n / 2].clone();
        assert!(
            !rebuild(sample_table(), forged).audit(),
            "forged signature at chain position {pos} must fail the audit"
        );
    }
}

#[test]
fn certificate_roundtrips_through_bytes() {
    let o = owner();
    for config in [
        SchemeConfig::default(),
        SchemeConfig::conceptual(),
        SchemeConfig::with_base(10).digest_len(32).aggregate(false),
    ] {
        let st = o
            .sign_table(sample_table(), Domain::new(-50, 10_000), config)
            .unwrap();
        let cert = o.certificate(&st);
        let bytes = wire::encode_certificate(&cert);
        let back = wire::decode_certificate(&bytes).unwrap();
        assert_eq!(back.table_name, cert.table_name);
        assert_eq!(back.schema, cert.schema);
        assert_eq!(back.domain, cert.domain);
        assert_eq!(back.config, cert.config);
        assert_eq!(back.public_key, cert.public_key);

        // The decoded certificate verifies real answers.
        let query = SelectQuery::range(KeyRange::closed(10, 60));
        let (rows, vo) = Publisher::new(&st).answer_select(&query).unwrap();
        verify_select(&back, &query, &rows, &vo).unwrap();
    }
}

#[test]
fn certificate_decoding_rejects_garbage() {
    assert!(wire::decode_certificate(&[]).is_err());
    assert!(wire::decode_certificate(&[0xff; 40]).is_err());
    let o = owner();
    let st = o
        .sign_table(
            sample_table(),
            Domain::new(0, 10_000),
            SchemeConfig::default(),
        )
        .unwrap();
    let bytes = wire::encode_certificate(&o.certificate(&st));
    for cut in [1usize, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            wire::decode_certificate(&bytes[..cut]).is_err(),
            "cut {cut}"
        );
    }
}
