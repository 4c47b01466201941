//! Robustness of the frame layer under adversarial bytes, mirroring
//! `adp-core/tests/wire_robustness.rs` one level up the stack: a live
//! server fed truncated headers, bad magic/version bytes, oversized
//! length prefixes, and random mutations must never panic, must answer
//! protocol violations with an `Error` frame where a reply is possible,
//! and must keep serving well-formed clients afterwards.

use adp_core::plan::WirePlan;
use adp_core::prelude::*;
use adp_relation::{Column, KeyRange, Record, Schema, SelectQuery, Table, Value, ValueType};
use adp_server::protocol::{decode_frame, encode_frame, read_frame, ErrorCode, Frame, ProtoError};
use adp_server::{RemoteClient, Server, ServerConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::TcpStream;
use std::sync::OnceLock;

fn handle() -> &'static adp_server::ServerHandle {
    static SRV: OnceLock<adp_server::ServerHandle> = OnceLock::new();
    SRV.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xF4A3);
        let owner = Owner::new(512, &mut rng);
        let schema = Schema::new(
            vec![
                Column::new("k", ValueType::Int),
                Column::new("v", ValueType::Text),
            ],
            "k",
        );
        let mut t = Table::new("robust", schema);
        for i in 0..10i64 {
            t.insert(Record::new(vec![
                Value::Int(i * 10 + 5),
                Value::from(format!("r{i}")),
            ]))
            .unwrap();
        }
        let st = owner
            .sign_table(t, Domain::new(0, 1_000), SchemeConfig::default())
            .unwrap();
        let mut server = Server::new(ServerConfig::default());
        server.add_table(0, st);
        server.serve("127.0.0.1:0").unwrap()
    })
}

/// Writes raw bytes to a fresh connection and returns the server's single
/// reply frame (if any). The write half is shut down so a declared frame
/// length larger than what was sent hits EOF on the server immediately
/// instead of stalling both sides until the frame timeout.
fn send_raw(bytes: &[u8]) -> Result<Frame, ProtoError> {
    let mut stream = TcpStream::connect(handle().addr()).unwrap();
    // Best-effort writes: the server may legitimately have replied and
    // closed already (a reset then fails write/shutdown, which is fine —
    // the reply, if any, is still readable below).
    let _ = stream.write_all(bytes);
    let _ = stream.flush();
    let _ = stream.shutdown(std::net::Shutdown::Write);
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    read_frame(&mut stream)
}

/// The server must still answer a well-formed client.
fn assert_still_serving() {
    let mut client = RemoteClient::connect(handle().addr()).unwrap();
    client.ping().expect("server must survive malformed input");
}

#[test]
fn garbage_bytes_get_an_error_frame_and_service_survives() {
    match send_raw(b"GARBAGE!").unwrap() {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected Error frame, got {other:?}"),
    }
    assert_still_serving();
}

#[test]
fn truncated_header_closes_cleanly() {
    // Fewer bytes than a header, then EOF: no reply is possible, the
    // server just drops the connection without panicking.
    let mut stream = TcpStream::connect(handle().addr()).unwrap();
    stream.write_all(&[0xAD, 0x50, 0x01]).unwrap();
    drop(stream);
    assert_still_serving();
}

#[test]
fn bad_version_byte_rejected() {
    let mut bytes = encode_frame(&Frame::Ping);
    bytes[2] = 0x7F;
    match send_raw(&bytes).unwrap() {
        Frame::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(message.contains("version"), "{message}");
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    assert_still_serving();
}

#[test]
fn oversized_length_prefix_rejected_without_allocation() {
    let mut bytes = encode_frame(&Frame::Ping);
    bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    match send_raw(&bytes).unwrap() {
        Frame::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(message.contains("exceeds cap"), "{message}");
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    assert_still_serving();
}

#[test]
fn unknown_frame_type_rejected() {
    // 0x03/0x04 were QueryRequest/QueryResponse until version 7.
    for t in [0x03, 0x04, 0xEE] {
        let mut bytes = encode_frame(&Frame::Ping);
        bytes[3] = t;
        match send_raw(&bytes).unwrap() {
            Frame::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
            other => panic!("expected Error frame, got {other:?}"),
        }
        assert_still_serving();
    }
}

#[test]
fn wrong_direction_frame_rejected() {
    // A client sending a server-to-client frame is out of protocol.
    let bytes = encode_frame(&Frame::StatsResponse(Default::default()));
    match send_raw(&bytes).unwrap() {
        Frame::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(message.contains("direction"), "{message}");
        }
        other => panic!("expected Error frame, got {other:?}"),
    }
    assert_still_serving();
}

fn sample_request_bytes() -> Vec<u8> {
    encode_frame(&Frame::PlannedQuery {
        plan: WirePlan::Select {
            table_id: 0,
            query: SelectQuery::range(KeyRange::closed(10, 60)),
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Mutating any byte of a valid request must never panic the decoder:
    /// the outcome is a frame (possibly still valid) or an error.
    #[test]
    fn decode_never_panics_on_mutation(pos in 0usize..4096, byte: u8) {
        let mut bytes = sample_request_bytes();
        let idx = pos % bytes.len();
        bytes[idx] = byte;
        let _ = decode_frame(&bytes);
    }

    /// Truncations must never panic either.
    #[test]
    fn decode_never_panics_on_truncation(cut in 0usize..4096) {
        let bytes = sample_request_bytes();
        let cut = cut % (bytes.len() + 1);
        let _ = decode_frame(&bytes[..cut]);
    }

    /// A live server fed a mutated request must reply with *some* frame
    /// (a response to a still-valid request, or an error) or close — and
    /// must keep serving afterwards.
    #[test]
    fn server_survives_mutated_requests(pos in 0usize..4096, byte: u8) {
        let mut bytes = sample_request_bytes();
        let idx = pos % bytes.len();
        bytes[idx] = byte;
        let _ = send_raw(&bytes); // reply content is free; no hang, no panic
        assert_still_serving();
    }
}
