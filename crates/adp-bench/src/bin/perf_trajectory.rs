//! The committed performance trajectory: measures the crypto hot paths the
//! paper's cost model leans on (Section 6, Figures 9–10) and writes them to
//! a `BENCH_*.json` snapshot at the repo root so successive PRs can prove
//! speedups against a fixed, machine-local baseline.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p adp-bench --bin perf_trajectory -- \
//!     [--out BENCH_PR3.json] [--label pr3] [--baseline BENCH_PR2.json]
//! ```
//!
//! With `--baseline`, each bench in the output carries `before_ns` (the
//! baseline's `after_ns`), `after_ns`, and `speedup`. Without it only
//! `after_ns` is recorded. `ADP_PERF_SAMPLES` (default 25) bounds the
//! number of timing samples per bench — CI's bench-smoke job sets it to 2
//! so the harness cannot rot without burning minutes.
//!
//! See `docs/PERFORMANCE.md` for how to read the snapshot.

use adp_core::delta::{build_delta_pieces, dirty_intervals};
use adp_core::gdigest::{direction_commitment, entry_component, Direction};
use adp_core::prelude::*;
use adp_crypto::{
    chain_extend, chain_from_value, sha256::sha256, AggregateSignature, HashDomain, Hasher,
    Keypair, MerkleTree, Signature,
};
use adp_relation::{Column, Record, Schema, Table, Value, ValueType};
use adp_server::protocol::encode_frame;
use adp_server::Frame;
use adp_store::format::{decode_snapshot, encode_snapshot};
use adp_store::LogRecord;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Every bench key the snapshot must contain (CI asserts this set).
pub const EXPECTED_BENCHES: &[&str] = &[
    "hash/sha256_64B",
    "hash/sha256_1024B",
    "chain/from_value_64steps",
    "chain/extend_1000steps",
    "gdigest/direction_commitment_b2_m16",
    "gdigest/entry_component_b2_m16",
    "merkle/build_1000",
    "rsa512/sign_crt",
    "rsa512/verify",
    "rsa1024/sign_crt",
    "rsa1024/verify",
    "aggregate/verify_100_1024",
    "store/ingest_batch",
    "store/log_replay",
    "store/snapshot_load",
    "subscribe/fanout_p99",
    "subscribe/delta_bytes",
];

// Sampling and the calibrated-median estimator are shared with the
// baseline_compare harness so the two snapshot families stay comparable.
use adp_bench::measure_ns as measure;
use adp_bench::measure_setup_ns as measure_setup;
use adp_bench::perf_samples as samples;

fn keypair(bits: usize, seed: u64) -> Keypair {
    let mut rng = StdRng::seed_from_u64(seed);
    Keypair::generate(bits, &mut rng)
}

fn run_benches() -> Vec<(String, f64)> {
    let n = samples();
    let hasher = Hasher::new(16);
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut record = |name: &str, ns: f64| {
        eprintln!("{name:<32} {ns:>14.1} ns");
        out.push((name.to_string(), ns));
    };

    // Hashing (the paper's C_hash).
    let msg64 = vec![0x5au8; 64];
    let msg1k = vec![0x5au8; 1024];
    record(
        "hash/sha256_64B",
        measure(n, || sha256(std::hint::black_box(&msg64))),
    );
    record(
        "hash/sha256_1024B",
        measure(n, || sha256(std::hint::black_box(&msg1k))),
    );

    // Hash chains (owner-side g(r) computation, user-side extension).
    record(
        "chain/from_value_64steps",
        measure(n, || chain_from_value(&hasher, b"key-bytes", 0, 64)),
    );
    let seed = chain_from_value(&hasher, b"key-bytes", 0, 0);
    record(
        "chain/extend_1000steps",
        measure(n, || {
            chain_extend(&hasher, std::hint::black_box(seed), 1000)
        }),
    );

    // One owner-side direction commitment (Figure 7) at B=2, m=16: one
    // walk per digit chain plus the 16 preferred-representation digests.
    // Then the verifier-side recomputation of the same component for a
    // result entry (Figure 8b): 17 chains read at one point each, the
    // canonical representation digest and the combine with the rep root.
    {
        let domain = Domain::new(0, 100_044);
        let config = SchemeConfig::default();
        let radix = config.radix(&domain);
        let commit = |key| {
            direction_commitment(
                &hasher,
                &config,
                radix.as_ref(),
                &domain,
                key,
                Direction::Up,
            )
        };
        record(
            "gdigest/direction_commitment_b2_m16",
            measure(n, || commit(std::hint::black_box(57_321))),
        );
        let rep_root = commit(57_321).rep_tree.map(|t| t.root());
        record(
            "gdigest/entry_component_b2_m16",
            measure(n, || {
                entry_component(
                    &hasher,
                    &config,
                    radix.as_ref(),
                    &domain,
                    std::hint::black_box(57_321),
                    Direction::Up,
                    rep_root,
                )
            }),
        );
    }

    // Merkle builds (MHT(r.A), rep trees, Devanbu baseline).
    let leaves: Vec<_> = (0..1000u32)
        .map(|i| hasher.hash(HashDomain::Leaf, &i.to_le_bytes()))
        .collect();
    record(
        "merkle/build_1000",
        measure(n, || {
            MerkleTree::build(hasher, std::hint::black_box(leaves.clone()))
        }),
    );

    // RSA signing/verification at the test size and the paper's M_sign.
    for (bits, seed) in [(512usize, 0x0512u64), (1024, 0xC0DE)] {
        let kp = keypair(bits, seed);
        let digest = hasher.hash(HashDomain::Data, b"bench message");
        let sig = kp.sign(&hasher, &digest);
        record(
            &format!("rsa{bits}/sign_crt"),
            measure(n, || kp.sign(&hasher, &digest)),
        );
        record(
            &format!("rsa{bits}/verify"),
            measure(n, || kp.public().verify(&hasher, &digest, &sig)),
        );
        if bits == 1024 {
            let digests: Vec<_> = (0..100u32)
                .map(|i| hasher.hash(HashDomain::Data, &i.to_le_bytes()))
                .collect();
            let sigs: Vec<Signature> = digests.iter().map(|d| kp.sign(&hasher, d)).collect();
            let refs: Vec<&Signature> = sigs.iter().collect();
            let agg = AggregateSignature::combine(kp.public(), &refs);
            record(
                "aggregate/verify_100_1024",
                measure(n, || agg.verify(&hasher, kp.public(), &digests)),
            );
        }
    }

    // Durable store (PR 4): incremental ingest, log replay, snapshot load.
    {
        let mut rng = StdRng::seed_from_u64(0x5704);
        let owner = Owner::new(512, &mut rng);
        let schema = Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("k", ValueType::Int),
            ],
            "k",
        );
        let mut t = Table::new("bench", schema);
        for i in 0..256i64 {
            t.insert(Record::new(vec![Value::Int(i), Value::Int(1_000 + i * 10)]))
                .unwrap();
        }
        let base = owner
            .sign_table(t, Domain::new(0, 1_000_000), SchemeConfig::default())
            .unwrap();

        // ingest_batch: a steady-state cycle on ONE table — a batch of 16
        // scattered inserts followed by the batch deleting them — so the
        // measured closure is pure apply_batch (O(k) re-signing), with no
        // per-iteration O(n) table clone polluting the number. One
        // iteration = 2 batches = 32 mutations.
        // Keys ≡ 3 (mod 10) can never collide with the base table's
        // ≡ 0 (mod 10) keys, so each delete removes exactly its insert.
        let inserts: Vec<Mutation> = (0..16i64)
            .map(|i| {
                Mutation::Insert(Record::new(vec![
                    Value::Int(500 + i),
                    Value::Int(1_003 + i * 170),
                ]))
            })
            .collect();
        let deletes: Vec<Mutation> = (0..16i64)
            .map(|i| Mutation::Delete {
                key: 1_003 + i * 170,
                replica: 0,
            })
            .collect();
        let mut ingest_st = base.clone();
        record(
            "store/ingest_batch",
            measure(n, || {
                owner.apply_batch(&mut ingest_st, inserts.clone()).unwrap();
                owner.apply_batch(&mut ingest_st, deletes.clone()).unwrap()
            }),
        );

        // log_replay: the publisher-side mirror — verify and splice 8
        // logged batches (2 mutations each) without the signing key. Each
        // call replays into its own clone of `base`, made untimed.
        let mut replay_src = base.clone();
        let records: Vec<LogRecord> = (0..8u64)
            .map(|seq| {
                let ops = vec![
                    Mutation::Insert(Record::new(vec![
                        Value::Int(700 + seq as i64),
                        Value::Int(2_000 + seq as i64 * 331),
                    ])),
                    Mutation::Delete {
                        key: 1_000 + seq as i64 * 10,
                        replica: 0,
                    },
                ];
                let report = owner.apply_batch(&mut replay_src, ops).unwrap();
                LogRecord {
                    seq,
                    ops: report.ops,
                    resigned: report.resigned,
                }
            })
            .collect();
        record(
            "store/log_replay",
            measure_setup(
                n,
                || base.clone(),
                |st| {
                    for rec in &records {
                        st.replay_batch(&rec.ops, &rec.resigned).unwrap();
                    }
                    st.len()
                },
            ),
        );

        // snapshot_load: decode + full digest rematerialization of the
        // 256-row snapshot (the restart path).
        let snapshot = encode_snapshot(&base, 0);
        record(
            "store/snapshot_load",
            measure(n, || decode_snapshot(&snapshot).unwrap().0.len()),
        );
    }

    // Subscription fan-out (PR 7): what the reactor pays per subscriber
    // after a churn batch — build the delta pieces for the dirtied
    // intervals ∩ the subscribed range and encode the DeltaVo frame.
    // The fleet mirrors the CI subscription-smoke job: 50 subscribers on
    // 5 distinct overlapping ranges over a 256-row table.
    {
        let mut rng = StdRng::seed_from_u64(0x5B57);
        let owner = Owner::new(512, &mut rng);
        let schema = Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("salary", ValueType::Int),
            ],
            "salary",
        );
        let mut t = Table::new("subs", schema);
        for i in 0..256i64 {
            t.insert(Record::new(vec![Value::Int(i), Value::Int(1_000 + i * 40)]))
                .unwrap();
        }
        let mut st = owner
            .sign_table(t, Domain::new(0, 100_000), SchemeConfig::default())
            .unwrap();
        let report = owner
            .apply_batch(
                &mut st,
                vec![
                    Mutation::Insert(Record::new(vec![Value::Int(500), Value::Int(2_110)])),
                    Mutation::Insert(Record::new(vec![Value::Int(501), Value::Int(4_310)])),
                    Mutation::Insert(Record::new(vec![Value::Int(502), Value::Int(6_510)])),
                    Mutation::Delete {
                        key: 3_000,
                        replica: 0,
                    },
                    Mutation::Delete {
                        key: 7_000,
                        replica: 0,
                    },
                ],
            )
            .unwrap();
        let intervals = dirty_intervals(&st, &report.resigned);
        assert!(!intervals.is_empty(), "churn batch must dirty the table");
        let subs: Vec<(i64, i64)> = (0..50i64)
            .map(|i| {
                let lo = 1_000 + (i % 5) * 400;
                (lo, lo + 6_000)
            })
            .collect();

        // fanout_p99: p99 over every (pass, subscriber) sample of the
        // per-subscriber build+encode closure — the tail a slow delta
        // adds to the apply_update caller, since fan-out is serial.
        let encode_delta = |lo: i64, hi: i64| {
            let pieces = build_delta_pieces(&st, &intervals, lo, hi)
                .unwrap()
                .into_iter()
                .map(|p| adp_server::protocol::DeltaPiece {
                    lo: p.lo,
                    hi: p.hi,
                    result: adp_core::wire::encode_records(&p.records),
                    vo: adp_core::wire::encode_vo(&p.vo),
                })
                .collect();
            encode_frame(&Frame::DeltaVo {
                sub_id: 1,
                epoch: 1,
                pieces,
            })
        };
        let mut fan_ns: Vec<f64> = Vec::with_capacity(n * subs.len());
        for _ in 0..n {
            for &(lo, hi) in &subs {
                let t0 = Instant::now();
                std::hint::black_box(encode_delta(lo, hi));
                fan_ns.push(t0.elapsed().as_nanos() as f64);
            }
        }
        fan_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
        record(
            "subscribe/fanout_p99",
            fan_ns[(fan_ns.len() - 1) * 99 / 100],
        );

        // delta_bytes: the pushed DeltaVo's wire payload for the widest
        // fleet range. Seed-determined and machine-independent — the
        // snapshot schema stores it in the same numeric cell as the
        // timings (the value is bytes, not nanoseconds).
        let frame = encode_delta(1_000, 7_000);
        record("subscribe/delta_bytes", (frame.len() - 8) as f64);
    }
    out
}

/// Pulls `"name": { ... "after_ns": <num> ... }` out of a snapshot we wrote
/// ourselves (not a general JSON parser; the emitter below is its dual).
fn baseline_after_ns(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\"");
    let obj = &json[json.find(&needle)? + needle.len()..];
    let obj = &obj[..obj.find('}')?];
    let tail = &obj[obj.find("\"after_ns\":")? + "\"after_ns\":".len()..];
    let num: String = tail
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// The `"label"` of a snapshot we wrote (same scanner caveat as above).
fn baseline_label(json: &str) -> Option<String> {
    let tail = &json[json.find("\"label\":")? + "\"label\":".len()..];
    let tail = tail.trim_start();
    let tail = tail.strip_prefix('"')?;
    Some(tail[..tail.find('"')?].to_string())
}

fn main() {
    let mut out_path = "BENCH_PR3.json".to_string();
    let mut label = "pr3".to_string();
    let mut baseline_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--label" => label = args.next().expect("--label needs a value"),
            "--baseline" => baseline_path = Some(args.next().expect("--baseline needs a path")),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    let baseline = baseline_path.map(|p| {
        (
            std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("cannot read baseline {p}: {e}")),
            p,
        )
    });

    let results = run_benches();
    for expected in EXPECTED_BENCHES {
        assert!(
            results.iter().any(|(n, _)| n == expected),
            "bench {expected} missing from the run"
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str(&format!("  \"label\": \"{label}\",\n"));
    if let Some((text, p)) = &baseline {
        let id = baseline_label(text).unwrap_or_else(|| p.clone());
        json.push_str(&format!("  \"baseline\": \"{id}\",\n"));
    }
    json.push_str(&format!("  \"samples\": {},\n", samples()));
    json.push_str("  \"benches\": {\n");
    for (i, (name, after)) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        match baseline
            .as_ref()
            .and_then(|(text, _)| baseline_after_ns(text, name))
        {
            Some(before) => {
                json.push_str(&format!(
                    "    \"{name}\": {{ \"before_ns\": {before:.1}, \"after_ns\": {after:.1}, \
                     \"speedup\": {:.2} }}{sep}\n",
                    before / after
                ));
            }
            None => {
                json.push_str(&format!(
                    "    \"{name}\": {{ \"after_ns\": {after:.1} }}{sep}\n"
                ));
            }
        }
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).expect("write snapshot");
    eprintln!("wrote {out_path}");
}
