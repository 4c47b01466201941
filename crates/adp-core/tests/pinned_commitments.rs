//! Frozen owner/publisher commitment bytes.
//!
//! The values below were captured from the per-representation
//! recomputation of `direction_commitment` (every digit chain rehashed for
//! every preferred representation) before the owner switched to one walk
//! per digit chain. Any change to how commitments, `g(r)` triples or
//! `answer_select` VOs are computed must leave every byte here unchanged.

use adp_core::gdigest::{direction_commitment, g_of_delimiter, g_of_record, Direction};
use adp_core::prelude::*;
use adp_core::wire;
use adp_crypto::sha256::sha256;
use adp_relation::{Column, KeyRange, Record, Schema, SelectQuery, Table, Value, ValueType};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pinned domain: wide enough that B=2 needs 17 digits (`m = 16`).
fn domain() -> Domain {
    Domain::new(0, 100_000)
}

/// `L+1` (left delimiter), `L+2`, a mid-domain key, `U-2`, `U-1` (right
/// delimiter): the zero-exponent edges of both directions and a key whose
/// digits exercise every preferred representation.
fn keys() -> [i64; 5] {
    let d = domain();
    [
        d.left_delimiter(),
        d.key_min(),
        57_321,
        d.key_max(),
        d.right_delimiter(),
    ]
}

fn hex_of(d: &adp_crypto::Digest) -> String {
    d.to_hex()
}

/// One direction's commitment as `[component, canon_digest, rep root]`
/// (the last two empty in conceptual mode).
fn commitment_hex(config: &SchemeConfig, key: i64, dir: Direction) -> [String; 3] {
    let d = domain();
    let hasher = config.hasher();
    let radix = config.radix(&d);
    let c = direction_commitment(&hasher, config, radix.as_ref(), &d, key, dir);
    [
        hex_of(&c.component),
        c.canon_digest.as_ref().map_or_else(String::new, hex_of),
        c.rep_tree
            .as_ref()
            .map_or_else(String::new, |t| hex_of(&t.root())),
    ]
}

struct Pin {
    base: u32,
    key: i64,
    up: [&'static str; 3],
    down: [&'static str; 3],
}

const PINS: &[Pin] = &[
    Pin {
        base: 0,
        key: 1,
        up: ["a7d79947580022c74c4415f7dcdb8b5d", "", ""],
        down: ["c4aff332eb00237ca730d082c707fb6b", "", ""],
    },
    Pin {
        base: 0,
        key: 2,
        up: ["4c58929e316c429a2fd98fdaf10eb8ff", "", ""],
        down: ["c1ac9cf2edde48e23f2053704401f304", "", ""],
    },
    Pin {
        base: 0,
        key: 57321,
        up: ["5bc9b6ee887a9419ea02f7790e155be2", "", ""],
        down: ["f75f30efb57250a0f94861825706bc80", "", ""],
    },
    Pin {
        base: 0,
        key: 99998,
        up: ["c13a67c743a15d110ce29ddde1e1b563", "", ""],
        down: ["b3a1be43f69ee83a3e8b0e3639a00ec4", "", ""],
    },
    Pin {
        base: 0,
        key: 99999,
        up: ["4cbcf0eb9ebc0fbfb2464117f963f6f6", "", ""],
        down: ["3e722eac29ce3d77350bf6716fdcc5bc", "", ""],
    },
    Pin {
        base: 2,
        key: 1,
        up: [
            "d8c9c79391caecfda8ec46af8513f90f",
            "b6dfbc964b680abb8d6e7c7cf72c006f",
            "32199d266ad8b0c52f5fe65e50538303",
        ],
        down: [
            "5cab92f1d1a78f3dda23d8d840464dd1",
            "2c8d03486e6f49bdd4c5371203aa365f",
            "ae6a9230efdaf945259de4137b5e933e",
        ],
    },
    Pin {
        base: 2,
        key: 2,
        up: [
            "63d8137179cc0a8b4b9d5d0ed2f1f430",
            "808085e5aafb38b38bee4e1d99f7a13e",
            "f4bba817280c0f18cfa36617410ee366",
        ],
        down: [
            "618847caa58ce0efd84d0054286ee1ff",
            "78317070de37793b5a210d5c98a491a3",
            "e3dfff72ef30f6b4840db45b68dbbd67",
        ],
    },
    Pin {
        base: 2,
        key: 57321,
        up: [
            "4531df8acdce3264ca08cd937faa2180",
            "00338392c1ac1e5ee614b980d780f7e1",
            "644f64482318efcf08ff04c7dd541125",
        ],
        down: [
            "0d3ad81c9e5a7f4f90fe299476700ba9",
            "b8145f7fb22345fedba0c7c3eeab45a4",
            "bb2dfb89947a072e30f1b59cf5a64a91",
        ],
    },
    Pin {
        base: 2,
        key: 99998,
        up: [
            "260e4f6d740420981f26c3380e31e3e9",
            "e3f49a1f59eeb3e638c633e7e38e85ae",
            "8f8d4808d508772041a0aa501b229bdc",
        ],
        down: [
            "caa421871320f376b2e49f84276bc7e7",
            "859b91ba4f19e45fcd5fcc5e72f9c315",
            "162c7e5fb2dafee922a045559a9b6f02",
        ],
    },
    Pin {
        base: 2,
        key: 99999,
        up: [
            "c28afcafa7c85fd1c1228aa480329b5b",
            "271c3ce3e4e760c8d6709e21ed8c54d7",
            "d479c2031a0e7443c71dbb8c07b438b9",
        ],
        down: [
            "a4840fc4e23b6692f97e3a3ffe2ab15e",
            "c180c2edc5241b05b0a8a77f583cdcca",
            "b35b1304f40d6a7766587d4b2491e563",
        ],
    },
    Pin {
        base: 3,
        key: 1,
        up: [
            "cd9d50e1af3c77f8d9a05cab41e82adc",
            "f11fd3a8d23233159cbb1c597d8acf90",
            "bc2bdc811dc966560e6d187893f6dc19",
        ],
        down: [
            "045c4ea26120ce8cf69cf495d5cdb11e",
            "da3685fcfbe3f98313c1ddb1b0adc2ff",
            "18a13d32fbc76eaa04f6eeacdc645db4",
        ],
    },
    Pin {
        base: 3,
        key: 2,
        up: [
            "598029a7efc2ce899e093d831975e45c",
            "708a8ba754bd2ee0a6be8677d96125dd",
            "09512b847652cb6aff6ec92918790f56",
        ],
        down: [
            "fa98c35adbd9e76ab5c9c8ac2bc3d9fd",
            "afaab77816d574869c83c278c3745bdd",
            "67ae2bee9034364502b8199bda4e2de4",
        ],
    },
    Pin {
        base: 3,
        key: 57321,
        up: [
            "98113879de93f428fd4b7a16c52043cb",
            "5dc4c9e2dbfb0639ff1d7b561b04f12c",
            "636244d34abc5f1116edb957a1251303",
        ],
        down: [
            "524259ed6d95081f0dc5ba9a4f13baeb",
            "76a6df5f71e33d220fc67b6358b1da01",
            "fb38210f25db301c9a0c8f5d9475b17e",
        ],
    },
    Pin {
        base: 3,
        key: 99998,
        up: [
            "6772bf0abed3a60860e7f5716f6ecdcf",
            "dea1eb1d7cb4029827f64f101eabc1cf",
            "dda1bf279c6e51125cf4c38b2b24e921",
        ],
        down: [
            "4b6f46f93c0066b52530fc7d47f801f5",
            "a12fcfd97e0e10ff00d4bf9cf4598678",
            "8e7fdcb789373492f4c42a5c82cd2f18",
        ],
    },
    Pin {
        base: 3,
        key: 99999,
        up: [
            "043c611db52441e59cf5ebe25cac07f5",
            "71419757d4457565a3f2dea5eb6a8dc8",
            "90e549f648434cba1a47da2e544e2211",
        ],
        down: [
            "612c869506ac3b1615cd7131d1ae583f",
            "267c1e03899194499a5c6acae938b710",
            "2f5a44eeb8c143359b07d460a3272196",
        ],
    },
    Pin {
        base: 10,
        key: 1,
        up: [
            "0e6d92eb67cf8daa9588fd45f9093457",
            "e02e664fd384f5bea8481ab94a726e43",
            "fd7573959c31379cc1c15543bba750b6",
        ],
        down: [
            "4b7bbf439f8694f496264a9531198af1",
            "266b255b7dcce99c8ecb2d84ac446528",
            "6c5021221fdd60b91ea23efcac9cca79",
        ],
    },
    Pin {
        base: 10,
        key: 2,
        up: [
            "b1a2830d4ab3fc1fdfdf8814d832331d",
            "3d1f62df4b0c6b6515696c6ce3041ae5",
            "d2ee88d9d659ae414b03edf4c35511b1",
        ],
        down: [
            "3139db09281fea656a0500eb16cab15b",
            "16ba0263f89255f1e6514ccf971e9208",
            "8515139d1a9c99a31f584b06c3e53868",
        ],
    },
    Pin {
        base: 10,
        key: 57321,
        up: [
            "3f703130375d841182911af71a302501",
            "ebf1a86e7fe044a4d7ffdf1dc4d54744",
            "fda125eea2b31cb138d40ac3525bfeb7",
        ],
        down: [
            "facc322938f6e1633089a875c96e11ff",
            "78b31fd8bd88186f0a0899c158088d20",
            "8d66248bb26806d566d318cb24d09c81",
        ],
    },
    Pin {
        base: 10,
        key: 99998,
        up: [
            "d8263a20cddff508e8e250e4903f3ab9",
            "c36264269fe5f2e7f872ad151905fc47",
            "39393e2e668bf77cf1a0172b5e2aa857",
        ],
        down: [
            "b34dade81277524f004a6c7fb694ca0a",
            "b7161ab73fe201a31554f4f7b91910d8",
            "d4663d785c17594c686af48fdd52b7eb",
        ],
    },
    Pin {
        base: 10,
        key: 99999,
        up: [
            "d412d05b5dc1f43427504b764d3afdab",
            "3437752a90667f1bd77fcb6bbd12428b",
            "d3525d87814f9253754852841d93ef7a",
        ],
        down: [
            "a8517c0b7992576e00fc6144d91c29e0",
            "3b2098643545af52a05bef5bd940ab7b",
            "76f85a8d4da0058334f8595b0e679cf6",
        ],
    },
];

fn configs() -> Vec<SchemeConfig> {
    vec![
        SchemeConfig::conceptual(),
        SchemeConfig::with_base(2),
        SchemeConfig::with_base(3),
        SchemeConfig::with_base(10),
    ]
}

fn base_of(config: &SchemeConfig) -> u32 {
    match config.mode {
        Mode::Conceptual => 0,
        Mode::Optimized { base } => base,
    }
}

#[test]
fn direction_commitments_are_pinned() {
    let mut actual = String::new();
    let mut mismatches = 0;
    let mut expected = PINS.iter();
    for config in configs() {
        for key in keys() {
            let up = commitment_hex(&config, key, Direction::Up);
            let down = commitment_hex(&config, key, Direction::Down);
            let base = base_of(&config);
            actual.push_str(&format!(
                "    Pin {{ base: {base}, key: {key}, up: {up:?}, down: {down:?} }},\n"
            ));
            match expected.next() {
                Some(p) if p.base == base && p.key == key && p.up == up && p.down == down => {}
                _ => mismatches += 1,
            }
        }
    }
    assert!(
        mismatches == 0 && expected.next().is_none(),
        "{mismatches} commitments moved; actual:\n{actual}"
    );
}

/// `g(r)` of a record and of a delimiter is the two direction components
/// plus the attribute root; the attribute roots are pinned here.
const RECORD_ATTRS: &str = "a36de92e8a3f3e62f25d3d015de2ffa4";
const DELIMITER_ATTRS: &str = "6ad92a167213e08edfafc0b0d4b5ab04";

#[test]
fn g_triples_are_pinned() {
    let d = domain();
    let schema = Schema::new(
        vec![
            Column::new("k", ValueType::Int),
            Column::new("name", ValueType::Text),
        ],
        "k",
    );
    for config in configs() {
        let hasher = config.hasher();
        let radix = config.radix(&d);
        for key in keys() {
            let up = commitment_hex(&config, key, Direction::Up);
            let down = commitment_hex(&config, key, Direction::Down);
            let record = Record::new(vec![Value::Int(key), Value::from("pinned")]);
            let g = g_of_record(&hasher, &config, radix.as_ref(), &d, &schema, &record);
            assert_eq!(
                [hex_of(&g.up), hex_of(&g.down), hex_of(&g.attrs)],
                [up[0].clone(), down[0].clone(), RECORD_ATTRS.to_string()],
                "record g, base {} key {key}",
                base_of(&config)
            );
            let g = g_of_delimiter(&hasher, &config, radix.as_ref(), &d, key);
            assert_eq!(
                [hex_of(&g.up), hex_of(&g.down), hex_of(&g.attrs)],
                [up[0].clone(), down[0].clone(), DELIMITER_ATTRS.to_string()],
                "delimiter g, base {} key {key}",
                base_of(&config)
            );
        }
    }
}

/// SHA-256 of `encode_vo` for one mid-range select per base, and of one
/// select covering the whole domain (both boundaries are delimiters).
const VO_SHA: &[(u32, &str, &str)] = &[
    (
        2,
        "62a746ae45c0169f699f9f7bcbe3ca5a0e88a4bc910583373c9c2af8647ca807",
        "a4608f9f274fe2cf1fd7a8673a2df9416fa0662687415fa872d72340f5bd3fc2",
    ),
    (
        3,
        "e1fdbd2d5a5dcbc150262123af532bff998082a5427aa3adfc66124af950cf8a",
        "78c2c9440bba4c34ddd5b5e60b41a98df17a78d1b8abc0acdb225c4bb54a2ab2",
    ),
    (
        10,
        "24f45b579de13047f5678393f1023b93b2b7e3360b6a4b789c80e1e8e86475bb",
        "3715c3a15c4a8430af1a7d87dbc57efbc1e42170aeb24ef1f862bda5ad0372e2",
    ),
];

fn pinned_table() -> Table {
    let d = domain();
    let schema = Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("k", ValueType::Int),
            Column::new("name", ValueType::Text),
        ],
        "k",
    );
    let mut t = Table::new("pinned", schema);
    let mut keys: Vec<i64> = (0..24).map(|i| 1_000 + i * 3_911).collect();
    keys.extend([d.key_min(), d.key_max()]);
    for (id, k) in keys.into_iter().enumerate() {
        t.insert(Record::new(vec![
            Value::Int(id as i64),
            Value::Int(k),
            Value::from(format!("row{id}")),
        ]))
        .unwrap();
    }
    t
}

#[test]
fn answer_select_vo_bytes_are_pinned() {
    let owner = Owner::new(512, &mut StdRng::seed_from_u64(0x9147));
    let mut actual = String::new();
    let mut moved = Vec::new();
    for base in [2u32, 3, 10] {
        let config = SchemeConfig::with_base(base);
        let st = owner.sign_table(pinned_table(), domain(), config).unwrap();
        let cert = owner.certificate(&st);
        let publisher = Publisher::new(&st);
        let digests: Vec<String> = [
            SelectQuery::range(KeyRange::closed(20_000, 61_000)),
            SelectQuery::range(KeyRange::all()),
        ]
        .iter()
        .map(|q| {
            let (rows, vo) = publisher.answer_select(q).unwrap();
            let vo_bytes = wire::encode_vo(&vo);
            verify_select_wire(&cert, q, &wire::encode_records(&rows), &vo_bytes).unwrap();
            sha256(&vo_bytes)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect()
        })
        .collect();
        actual.push_str(&format!(
            "    ({base}, {:?}, {:?}),\n",
            digests[0], digests[1]
        ));
        let pinned = VO_SHA.iter().find(|p| p.0 == base);
        if !pinned.is_some_and(|p| p.1 == digests[0] && p.2 == digests[1]) {
            moved.push(base);
        }
    }
    assert!(
        moved.is_empty(),
        "VO bytes moved at bases {moved:?}; actual:\n{actual}"
    );
}
