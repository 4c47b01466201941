//! Every worked byte example in `docs/PROTOCOL.md` is asserted here
//! verbatim, so the spec cannot drift from the codec. If one of these
//! tests fails, fix the document (or the regression) — never the test
//! alone.

use adp_core::wire;
use adp_relation::{KeyRange, SelectQuery, Value};
use adp_server::protocol::{decode_frame, encode_frame, BatchItem, DeltaPiece, Frame};
use adp_server::ErrorCode;

/// PROTOCOL.md §2 "Frame header" — the smallest possible frame.
#[test]
fn ping_frame_example() {
    let bytes = encode_frame(&Frame::Ping);
    assert_eq!(bytes, [0xAD, 0x50, 0x07, 0x01, 0x00, 0x00, 0x00, 0x00]);
}

/// PROTOCOL.md §2 — pong differs only in the frame-type byte.
#[test]
fn pong_frame_example() {
    let bytes = encode_frame(&Frame::Pong);
    assert_eq!(bytes, [0xAD, 0x50, 0x07, 0x02, 0x00, 0x00, 0x00, 0x00]);
}

/// PROTOCOL.md §4 "Values" — canonical value encodings (shared with the
/// `adp-core` wire codec's test vectors).
#[test]
fn value_encoding_examples() {
    assert_eq!(
        Value::Int(7).encode(),
        [0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00]
    );
    assert_eq!(Value::from("hi").encode(), [0x02, 0x68, 0x69]);
    assert_eq!(Value::Bool(true).encode(), [0x04, 0x01]);
}

/// PROTOCOL.md §5 "BatchRequest" — the full worked example: one item,
/// table 7, `SELECT * WHERE 2000 ≤ K ≤ 9000`. The server lowers the item
/// to a `Select` plan (§13).
#[test]
fn batch_request_frame_example() {
    let frame = Frame::BatchRequest {
        items: vec![(7, SelectQuery::range(KeyRange::closed(2_000, 9_000)))],
    };
    let bytes = encode_frame(&frame);
    #[rustfmt::skip]
    let expected: &[u8] = &[
        // header
        0xAD, 0x50,             // magic
        0x07,                   // version
        0x05,                   // frame type: BatchRequest
        0x24, 0x00, 0x00, 0x00, // payload length = 36
        // payload
        0x01, 0x00, 0x00, 0x00, // item_count = 1
        0x07, 0x00, 0x00, 0x00, // table_id = 7
        0x18, 0x00, 0x00, 0x00, // query blob length = 24
        // query blob
        0x01, 0xD0, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lo: Included(2000)
        0x01, 0x28, 0x23, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // hi: Included(9000)
        0x00, 0x00, 0x00, 0x00, // 0 filters
        0x00,                   // projection: All
        0x00,                   // distinct: false
    ];
    assert_eq!(bytes, expected);
    assert_eq!(decode_frame(&bytes).unwrap(), frame);
}

/// PROTOCOL.md §6 "BatchResponse" — two items: the answer to a
/// trivially-empty query (zero records, a `TriviallyEmpty` VO) and a
/// per-item unknown-table error.
#[test]
fn batch_response_frame_example() {
    let frame = Frame::BatchResponse {
        items: vec![
            BatchItem::Ok {
                result: wire::encode_records(&[]),
                vo: wire::encode_vo(&adp_core::vo::QueryVO::TriviallyEmpty),
            },
            BatchItem::Err {
                code: ErrorCode::UnknownTable,
                message: "no table with id 9".into(),
            },
        ],
    };
    let bytes = encode_frame(&frame);
    #[rustfmt::skip]
    let expected: &[u8] = &[
        // header
        0xAD, 0x50, 0x07, 0x06, // magic, version, BatchResponse
        0x2A, 0x00, 0x00, 0x00, // payload length = 42
        // payload
        0x02, 0x00, 0x00, 0x00, // item_count = 2
        0x00,                   // item 0 tag: ok
        0x04, 0x00, 0x00, 0x00, //   result blob length = 4
        0x00, 0x00, 0x00, 0x00, //     encode_records([]): 0 records
        0x01, 0x00, 0x00, 0x00, //   vo blob length = 1
        0x00,                   //     encode_vo(TriviallyEmpty): tag 0
        0x01,                   // item 1 tag: error
        0x02,                   //   code: UnknownTable
        0x12, 0x00, 0x00, 0x00, //   message length = 18
        b'n', b'o', b' ', b't', b'a', b'b', b'l', b'e', b' ',
        b'w', b'i', b't', b'h', b' ', b'i', b'd', b' ', b'9',
    ];
    assert_eq!(bytes, expected);
    assert_eq!(decode_frame(&bytes).unwrap(), frame);
}

/// PROTOCOL.md §8 "Error" — unknown table id.
#[test]
fn error_frame_example() {
    let frame = Frame::Error {
        code: ErrorCode::UnknownTable,
        message: "no table with id 9".into(),
    };
    let bytes = encode_frame(&frame);
    #[rustfmt::skip]
    let expected: &[u8] = &[
        // header
        0xAD, 0x50, 0x07, 0x09, // magic, version, Error
        0x17, 0x00, 0x00, 0x00, // payload length = 23
        // payload
        0x02,                   // code: UnknownTable
        0x12, 0x00, 0x00, 0x00, // message length = 18
        b'n', b'o', b' ', b't', b'a', b'b', b'l', b'e', b' ',
        b'w', b'i', b't', b'h', b' ', b'i', b'd', b' ', b'9',
    ];
    assert_eq!(bytes, expected);
    assert_eq!(decode_frame(&bytes).unwrap(), frame);
}

/// PROTOCOL.md §1.1 "Connection lifecycle" — the frame-deadline error a
/// slow-loris client is answered with.
#[test]
fn frame_deadline_error_example() {
    let frame = Frame::Error {
        code: ErrorCode::BadFrame,
        message: "frame deadline exceeded".into(),
    };
    let bytes = encode_frame(&frame);
    #[rustfmt::skip]
    let expected: &[u8] = &[
        // header
        0xAD, 0x50, 0x07, 0x09, // magic, version, Error
        0x1C, 0x00, 0x00, 0x00, // payload length = 28
        // payload
        0x01,                   // code: BadFrame
        0x17, 0x00, 0x00, 0x00, // message length = 23
        b'f', b'r', b'a', b'm', b'e', b' ', b'd', b'e', b'a',
        b'd', b'l', b'i', b'n', b'e', b' ', b'e', b'x', b'c',
        b'e', b'e', b'd', b'e', b'd',
    ];
    assert_eq!(bytes, expected);
    assert_eq!(decode_frame(&bytes).unwrap(), frame);
}

/// PROTOCOL.md §7 "Stats" — request is empty; the response is sixteen
/// little-endian `u64` counters (version 2 appended `invalidations`;
/// version 3 appended `open_connections`, `queue_depth`, `idle_reaped`;
/// version 4 appended `subscriptions`, `deltas_pushed`; version 5
/// appended `reconnects`, `resyncs`, `drains`).
#[test]
fn stats_frames_example() {
    assert_eq!(
        encode_frame(&Frame::StatsRequest),
        [0xAD, 0x50, 0x07, 0x07, 0x00, 0x00, 0x00, 0x00]
    );
    let frame = Frame::StatsResponse(adp_server::StatsSnapshot {
        connections: 1,
        queries: 2,
        batches: 0,
        cache_hits: 1,
        cache_misses: 1,
        cache_entries: 1,
        invalidations: 0,
        open_connections: 1,
        queue_depth: 0,
        idle_reaped: 0,
        errors: 0,
        subscriptions: 1,
        deltas_pushed: 1,
        reconnects: 1,
        resyncs: 0,
        drains: 2,
    });
    let bytes = encode_frame(&frame);
    assert_eq!(bytes.len(), 8 + 16 * 8);
    assert_eq!(bytes[..8], [0xAD, 0x50, 0x07, 0x08, 0x80, 0x00, 0x00, 0x00]);
    // The §7 worked example's first counters: connections = 1, queries = 2.
    assert_eq!(bytes[8..16], 1u64.to_le_bytes());
    assert_eq!(bytes[16..24], 2u64.to_le_bytes());
    // ... the two version-4 counters ...
    assert_eq!(bytes[96..104], 1u64.to_le_bytes());
    assert_eq!(bytes[104..112], 1u64.to_le_bytes());
    // ... and the three version-5 counters at the tail.
    assert_eq!(bytes[112..120], 1u64.to_le_bytes()); // reconnects
    assert_eq!(bytes[120..128], 0u64.to_le_bytes()); // resyncs
    assert_eq!(bytes[128..136], 2u64.to_le_bytes()); // drains
    assert_eq!(decode_frame(&bytes).unwrap(), frame);
}

/// PROTOCOL.md §9 "FollowLog" — both handshakes: a fresh follower asking
/// for a bootstrap snapshot, and one resuming from log sequence 3.
#[test]
fn follow_log_frame_examples() {
    let fresh = Frame::FollowLog {
        table_id: 7,
        have: None,
    };
    let bytes = encode_frame(&fresh);
    #[rustfmt::skip]
    let expected: &[u8] = &[
        // header
        0xAD, 0x50, 0x07, 0x0A, // magic, version, FollowLog
        0x05, 0x00, 0x00, 0x00, // payload length = 5
        // payload
        0x07, 0x00, 0x00, 0x00, // table_id = 7
        0x00,                   // have: absent (bootstrap)
    ];
    assert_eq!(bytes, expected);
    assert_eq!(decode_frame(&bytes).unwrap(), fresh);

    let resume = Frame::FollowLog {
        table_id: 7,
        have: Some(3),
    };
    let bytes = encode_frame(&resume);
    #[rustfmt::skip]
    let expected: &[u8] = &[
        // header
        0xAD, 0x50, 0x07, 0x0A, // magic, version, FollowLog
        0x0D, 0x00, 0x00, 0x00, // payload length = 13
        // payload
        0x07, 0x00, 0x00, 0x00, // table_id = 7
        0x01,                   // have: present
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // have = 3
    ];
    assert_eq!(bytes, expected);
    assert_eq!(decode_frame(&bytes).unwrap(), resume);
}

/// PROTOCOL.md §9 "LogSegment" — the caught-up handshake ack: a segment
/// carrying zero log-record frames.
#[test]
fn log_segment_frame_example() {
    let frame = Frame::LogSegment {
        table_id: 7,
        records: Vec::new(),
    };
    let bytes = encode_frame(&frame);
    #[rustfmt::skip]
    let expected: &[u8] = &[
        // header
        0xAD, 0x50, 0x07, 0x0B, // magic, version, LogSegment
        0x08, 0x00, 0x00, 0x00, // payload length = 8
        // payload
        0x07, 0x00, 0x00, 0x00, // table_id = 7
        0x00, 0x00, 0x00, 0x00, // records blob length = 0
    ];
    assert_eq!(bytes, expected);
    assert_eq!(decode_frame(&bytes).unwrap(), frame);
}

/// PROTOCOL.md §10 "Subscribe" — subscription 1 on table 7 watching
/// `2000 ≤ K ≤ 9000` (the same query blob as the §3 example).
#[test]
fn subscribe_frame_example() {
    let frame = Frame::Subscribe {
        sub_id: 1,
        table_id: 7,
        query: SelectQuery::range(KeyRange::closed(2_000, 9_000)),
    };
    let bytes = encode_frame(&frame);
    #[rustfmt::skip]
    let expected: &[u8] = &[
        // header
        0xAD, 0x50, 0x07, 0x0D, // magic, version, Subscribe
        0x24, 0x00, 0x00, 0x00, // payload length = 36
        // payload
        0x01, 0x00, 0x00, 0x00, // sub_id = 1
        0x07, 0x00, 0x00, 0x00, // table_id = 7
        0x18, 0x00, 0x00, 0x00, // query blob length = 24
        0x01, 0xD0, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lo: Included(2000)
        0x01, 0x28, 0x23, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // hi: Included(9000)
        0x00, 0x00, 0x00, 0x00, // 0 filters
        0x00,                   // projection: All
        0x00,                   // distinct: false
    ];
    assert_eq!(bytes, expected);
    assert_eq!(decode_frame(&bytes).unwrap(), frame);
}

/// PROTOCOL.md §10 "DeltaVo" — a delta at epoch 2 with one piece proving
/// `[2000, 9000]` empty, and the empty-pieces unsubscribe ack.
#[test]
fn delta_vo_frame_examples() {
    let frame = Frame::DeltaVo {
        sub_id: 1,
        epoch: 2,
        pieces: vec![DeltaPiece {
            lo: 2_000,
            hi: 9_000,
            result: wire::encode_records(&[]),
            vo: wire::encode_vo(&adp_core::vo::QueryVO::TriviallyEmpty),
        }],
    };
    let bytes = encode_frame(&frame);
    #[rustfmt::skip]
    let expected: &[u8] = &[
        // header
        0xAD, 0x50, 0x07, 0x0E, // magic, version, DeltaVo
        0x2D, 0x00, 0x00, 0x00, // payload length = 45
        // payload
        0x01, 0x00, 0x00, 0x00, // sub_id = 1
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // epoch = 2
        0x01, 0x00, 0x00, 0x00, // 1 piece
        // piece 0
        0xD0, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lo = 2000
        0x28, 0x23, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // hi = 9000
        0x04, 0x00, 0x00, 0x00, // result blob length = 4
        0x00, 0x00, 0x00, 0x00, //   encode_records([]): 0 records
        0x01, 0x00, 0x00, 0x00, // vo blob length = 1
        0x00,                   //   encode_vo(TriviallyEmpty): tag 0
    ];
    assert_eq!(bytes, expected);
    assert_eq!(decode_frame(&bytes).unwrap(), frame);

    let ack = Frame::DeltaVo {
        sub_id: 1,
        epoch: 0,
        pieces: Vec::new(),
    };
    let bytes = encode_frame(&ack);
    #[rustfmt::skip]
    let expected: &[u8] = &[
        // header
        0xAD, 0x50, 0x07, 0x0E, // magic, version, DeltaVo
        0x10, 0x00, 0x00, 0x00, // payload length = 16
        // payload
        0x01, 0x00, 0x00, 0x00, // sub_id = 1
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // epoch = 0
        0x00, 0x00, 0x00, 0x00, // 0 pieces: the unsubscribe ack
    ];
    assert_eq!(bytes, expected);
    assert_eq!(decode_frame(&bytes).unwrap(), ack);
}

/// PROTOCOL.md §11 "ResyncRequired" — the server could not ship a delta
/// for subscription 1 (it outgrew the frame limit); the subscription is
/// terminated and the client must re-subscribe at epoch ≥ 3.
#[test]
fn resync_required_frame_example() {
    let frame = Frame::ResyncRequired {
        sub_id: 1,
        epoch: 3,
    };
    let bytes = encode_frame(&frame);
    #[rustfmt::skip]
    let expected: &[u8] = &[
        // header
        0xAD, 0x50, 0x07, 0x10, // magic, version, ResyncRequired
        0x0C, 0x00, 0x00, 0x00, // payload length = 12
        // payload
        0x01, 0x00, 0x00, 0x00, // sub_id = 1
        0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // epoch = 3
    ];
    assert_eq!(bytes, expected);
    assert_eq!(decode_frame(&bytes).unwrap(), frame);
}

/// PROTOCOL.md §10 "Unsubscribe" — cancel subscription 1.
#[test]
fn unsubscribe_frame_example() {
    let frame = Frame::Unsubscribe { sub_id: 1 };
    let bytes = encode_frame(&frame);
    #[rustfmt::skip]
    let expected: &[u8] = &[
        // header
        0xAD, 0x50, 0x07, 0x0F, // magic, version, Unsubscribe
        0x04, 0x00, 0x00, 0x00, // payload length = 4
        // payload
        0x01, 0x00, 0x00, 0x00, // sub_id = 1
    ];
    assert_eq!(bytes, expected);
    assert_eq!(decode_frame(&bytes).unwrap(), frame);
}

/// PROTOCOL.md §13 "PlannedQuery" (version 6) — the worked example: the
/// optimizer-chosen single-table plan for
/// `SELECT * FROM t WHERE 2000 <= K <= 9000` against table 7. The plan
/// blob nests the same 24-byte query blob as the §3 example.
#[test]
fn planned_query_frame_example() {
    let frame = Frame::PlannedQuery {
        plan: adp_core::plan::WirePlan::Select {
            table_id: 7,
            query: SelectQuery::range(KeyRange::closed(2_000, 9_000)),
        },
    };
    let bytes = encode_frame(&frame);
    #[rustfmt::skip]
    let expected: &[u8] = &[
        // header
        0xAD, 0x50,             // magic
        0x07,                   // version
        0x11,                   // frame type: PlannedQuery
        0x25, 0x00, 0x00, 0x00, // payload length = 37
        // payload
        0x21, 0x00, 0x00, 0x00, // plan blob length = 33
        // plan blob
        0x01,                   // plan tag: Select
        0x07, 0x00, 0x00, 0x00, // table_id = 7
        0x18, 0x00, 0x00, 0x00, // query blob length = 24
        // query blob (identical to the §3 example)
        0x01, 0xD0, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // lo: Included(2000)
        0x01, 0x28, 0x23, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // hi: Included(9000)
        0x00, 0x00, 0x00, 0x00, // 0 filters
        0x00,                   // projection: All
        0x00,                   // distinct: false
    ];
    assert_eq!(bytes, expected);
    assert_eq!(decode_frame(&bytes).unwrap(), frame);
}

/// PROTOCOL.md §13 "PlannedQuery" — the join plan: emp (table 0, the fk
/// side) joined into dept (table 1) over fk keys `[10, 20]`, all columns
/// from the fk side, only `dname` from the pk side.
#[test]
fn planned_join_frame_example() {
    let frame = Frame::PlannedQuery {
        plan: adp_core::plan::WirePlan::PkFkJoin {
            fk_table: 0,
            pk_table: 1,
            fk_range: KeyRange::closed(10, 20),
            fk_projection: adp_relation::Projection::All,
            pk_projection: adp_relation::Projection::Columns(vec!["dname".to_string()]),
        },
    };
    let bytes = encode_frame(&frame);
    #[rustfmt::skip]
    let expected: &[u8] = &[
        // header
        0xAD, 0x50, 0x07, 0x11, // magic, version, PlannedQuery
        0x2E, 0x00, 0x00, 0x00, // payload length = 46
        // payload
        0x2A, 0x00, 0x00, 0x00, // plan blob length = 42
        // plan blob
        0x02,                   // plan tag: PkFkJoin
        0x00, 0x00, 0x00, 0x00, // fk_table = 0
        0x01, 0x00, 0x00, 0x00, // pk_table = 1
        0x01, 0x0A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // fk lo: Included(10)
        0x01, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // fk hi: Included(20)
        0x00,                   // fk projection: All
        0x01,                   // pk projection: Columns
        0x01, 0x00, 0x00, 0x00, // 1 column
        0x05, 0x00, 0x00, 0x00, // name length = 5
        b'd', b'n', b'a', b'm', b'e',
    ];
    assert_eq!(bytes, expected);
    assert_eq!(decode_frame(&bytes).unwrap(), frame);
}

/// PROTOCOL.md §13 "PlannedResponse" — two length-prefixed blobs under
/// frame type 0x12; shown here for a trivially-empty select plan.
#[test]
fn planned_response_frame_example() {
    let frame = Frame::PlannedResponse {
        result: wire::encode_records(&[]),
        vo: wire::encode_vo(&adp_core::vo::QueryVO::TriviallyEmpty),
    };
    let bytes = encode_frame(&frame);
    #[rustfmt::skip]
    let expected: &[u8] = &[
        // header
        0xAD, 0x50, 0x07, 0x12, // magic, version, PlannedResponse
        0x0D, 0x00, 0x00, 0x00, // payload length = 13
        // payload
        0x04, 0x00, 0x00, 0x00, // result blob length = 4
        0x00, 0x00, 0x00, 0x00, //   encode_records([]): 0 records
        0x01, 0x00, 0x00, 0x00, // vo blob length = 1
        0x00,                   //   encode_vo(TriviallyEmpty): tag 0
    ];
    assert_eq!(bytes, expected);
    assert_eq!(decode_frame(&bytes).unwrap(), frame);
}
