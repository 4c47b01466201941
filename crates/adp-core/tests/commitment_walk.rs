//! The one-walk-per-digit-chain commitment against the construction it
//! replaced, and its hash-op budget.
//!
//! `reference_commitment` is the earlier owner-side Figure 7 construction,
//! kept here verbatim: it rehashes every digit chain from the key for the
//! canonical representation and again for each of the `m` preferred
//! representations. The walk kernel must reproduce it byte for byte, and
//! the publisher's boundary proofs must match per-digit `digit_chain`
//! evidence selected against that reference.

use adp_core::domain::key_bytes;
use adp_core::gdigest::{
    combine_component, digit_chain, direction_commitment, entry_component, rep_digest, Direction,
    DirectionCommitment,
};
use adp_core::prelude::*;
use adp_core::repr::{Radix, ReprChoice};
use adp_core::vo::{BoundaryProof, RepProof};
use adp_crypto::{hash_ops, hasher::HashDomain, Digest, Hasher, MerkleTree};
use adp_relation::{Column, KeyRange, Record, Schema, SelectQuery, Table, Value, ValueType};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The earlier bulk chain API: one full walk per `(position, steps)` pair.
fn chain_run(hasher: &Hasher, value: &[u8], tags: &[(u32, u64)]) -> Vec<Digest> {
    let mut buf = Vec::with_capacity(value.len() + 4);
    buf.extend_from_slice(value);
    buf.extend_from_slice(&[0u8; 4]);
    tags.iter()
        .map(|&(position, steps)| {
            buf[value.len()..].copy_from_slice(&position.to_le_bytes());
            let mut d = hasher.hash(HashDomain::Value, &buf);
            for _ in 0..steps {
                d = hasher.hash(HashDomain::Step, d.as_bytes());
            }
            d
        })
        .collect()
}

/// The earlier optimized-mode `direction_commitment`, one recomputation of
/// every digit chain per representation.
fn reference_commitment(
    hasher: &Hasher,
    radix: &Radix,
    domain: &Domain,
    key: i64,
    dir: Direction,
) -> DirectionCommitment {
    let delta_t = dir.delta_t(domain, key);
    let canon = radix.canonical(delta_t);
    let m = radix.m();
    let at = |digit: u32, steps: u64| digit_chain(hasher, key, dir, digit, steps);
    // Canonical representation digest: all digit chains share the
    // key bytes, so run them through the bulk chain API.
    let canon_tags: Vec<(u32, u64)> = canon
        .iter()
        .enumerate()
        .map(|(i, &d)| (dir.tag(i as u32), d as u64))
        .collect();
    let canon_components = chain_run(hasher, &key_bytes(key), &canon_tags);
    let canon_digest = rep_digest(hasher, &canon_components);
    // The m preferred non-canonical representations.
    let mut leaves = Vec::with_capacity(m as usize);
    for j in 0..m {
        let rep = radix.preferred(&canon, j);
        let comps: Vec<Digest> = rep
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|d| at(i as u32, d as u64)))
            .collect();
        leaves.push(rep_digest(hasher, &comps));
    }
    let rep_tree = MerkleTree::build(*hasher, leaves);
    let component = combine_component(hasher, canon_digest, rep_tree.root());
    DirectionCommitment {
        component,
        canon_digest: Some(canon_digest),
        rep_tree: Some(rep_tree),
    }
}

/// The perfbench `select_cold` / `churn` domain: 10 000 keys spaced 10
/// apart, `Domain::new(0, (rows + 2) * gap + 4)`.
fn spaced_domain() -> Domain {
    Domain::new(0, (10_000 + 2) * 10 + 4)
}

fn domains() -> [Domain; 4] {
    [
        Domain::new(0, 100_000),
        Domain::u32_keys(),
        spaced_domain(),
        Domain::new(-50, 50),
    ]
}

/// A chain position in `[L+1, U-1]` (delimiters included).
fn key_in(domain: &Domain, offset: u64) -> i64 {
    let span = (domain.right_delimiter() - domain.left_delimiter()) as u64 + 1;
    domain.left_delimiter() + (offset % span) as i64
}

/// The hash-op counter is process-global: every test in this binary holds
/// this lock so the budget tests count only their own hashing.
fn count_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Measures `f`'s hash-op count, retrying in case another thread hashed
/// during a trial; an undisturbed trial yields the exact count.
fn exact_ops(expected: u64, f: impl Fn()) -> bool {
    (0..100).any(|_| {
        let before = hash_ops();
        f();
        hash_ops() - before == expected
    })
}

fn same_commitment(a: &DirectionCommitment, b: &DirectionCommitment, m: u32) -> bool {
    let (ta, tb) = (a.rep_tree.as_ref().unwrap(), b.rep_tree.as_ref().unwrap());
    a.component == b.component
        && a.canon_digest == b.canon_digest
        && ta.root() == tb.root()
        && ta.leaf_count() == m as usize
        && (0..m as usize).all(|j| ta.leaf(j) == tb.leaf(j) && ta.prove(j) == tb.prove(j))
}

fn owner() -> &'static Owner {
    static OWNER: OnceLock<Owner> = OnceLock::new();
    OWNER.get_or_init(|| Owner::new(512, &mut StdRng::seed_from_u64(0x3A1C)))
}

fn keyed_table(keys: &BTreeSet<i64>) -> Table {
    let schema = Schema::new(
        vec![
            Column::new("k", ValueType::Int),
            Column::new("v", ValueType::Text),
        ],
        "k",
    );
    let mut t = Table::new("walk", schema);
    for &k in keys {
        t.insert(Record::new(vec![Value::Int(k), Value::from("v")]))
            .unwrap();
    }
    t
}

/// The boundary proof an honest publisher owes for the record at `key`,
/// built from the reference commitment and one `digit_chain` per digit.
fn reference_boundary(
    hasher: &Hasher,
    radix: &Radix,
    domain: &Domain,
    key: i64,
    dir: Direction,
    delta_c: u64,
) -> (Vec<Digest>, RepProof) {
    let (choice, e_digits) = radix.select_representation(dir.delta_t(domain, key), delta_c);
    let intermediates = e_digits
        .iter()
        .enumerate()
        .map(|(i, &d)| digit_chain(hasher, key, dir, i as u32, d as u64))
        .collect();
    let commit = reference_commitment(hasher, radix, domain, key, dir);
    let tree = commit.rep_tree.unwrap();
    let selector = match choice {
        ReprChoice::Canonical => RepProof::Canonical {
            mht_root: tree.root(),
        },
        ReprChoice::NonCanonical(j) => RepProof::NonCanonical {
            index: j,
            canon_digest: commit.canon_digest.unwrap(),
            path: tree.prove(j as usize),
        },
    };
    (intermediates, selector)
}

fn check_boundary(
    proof: &BoundaryProof,
    expected: (Vec<Digest>, RepProof),
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&proof.intermediates, &expected.0);
    prop_assert_eq!(proof.selector.as_ref(), Some(&expected.1));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn commitment_matches_per_representation_reference(
        base in 2u32..=16,
        which in 0usize..4,
        offset in any::<u64>(),
    ) {
        let _guard = count_lock();
        let domain = domains()[which];
        let key = key_in(&domain, offset);
        let config = SchemeConfig::with_base(base);
        let hasher = config.hasher();
        let radix = config.radix(&domain).unwrap();
        for dir in [Direction::Up, Direction::Down] {
            let walked = direction_commitment(&hasher, &config, Some(&radix), &domain, key, dir);
            let reference = reference_commitment(&hasher, &radix, &domain, key, dir);
            prop_assert!(
                same_commitment(&walked, &reference, radix.m()),
                "B={} domain {:?} key {} {:?}", base, domain, key, dir
            );
        }
    }

    #[test]
    fn boundary_proofs_match_digit_chain_reference(
        base in 2u32..=16,
        which in 0usize..4,
        offsets in prop::collection::vec(any::<u64>(), 1..7),
        lo in any::<u64>(),
        hi in any::<u64>(),
    ) {
        let _guard = count_lock();
        let domain = domains()[which];
        let keys: BTreeSet<i64> = offsets
            .iter()
            .map(|&o| domain.key_min() + (o % (domain.key_max() - domain.key_min() + 1) as u64) as i64)
            .collect();
        let config = SchemeConfig::with_base(base);
        let hasher = config.hasher();
        let radix = config.radix(&domain).unwrap();
        let st = owner().sign_table(keyed_table(&keys), domain, config).unwrap();
        let (a, b) = (key_in(&domain, lo), key_in(&domain, hi));
        let query = SelectQuery::range(KeyRange::closed(a.min(b), a.max(b)));
        let bounds = domain.normalize(&query.range);
        prop_assume!(bounds.is_some());
        let bounds = bounds.unwrap();
        let (_, vo) = Publisher::new(&st).answer_select(&query).unwrap();
        let (left, right) = match &vo {
            QueryVO::Range(r) => (&r.left, &r.right),
            QueryVO::Empty(e) => (&e.left, &e.right),
            QueryVO::TriviallyEmpty => unreachable!("a closed range inside the domain"),
        };
        let left_key = keys
            .range(..bounds.alpha)
            .next_back()
            .copied()
            .unwrap_or(domain.left_delimiter());
        let right_key = keys
            .range(bounds.beta + 1..)
            .next()
            .copied()
            .unwrap_or(domain.right_delimiter());
        check_boundary(
            left,
            reference_boundary(
                &hasher,
                &radix,
                &domain,
                left_key,
                Direction::Up,
                domain.delta_up_query(bounds.alpha),
            ),
        )?;
        check_boundary(
            right,
            reference_boundary(
                &hasher,
                &radix,
                &domain,
                right_key,
                Direction::Down,
                domain.delta_down_query(bounds.beta),
            ),
        )?;
    }
}

/// The largest step any committed representation reads on digit `i`:
/// the maximum over the canonical digits and all `m` preferred ones.
fn max_steps(radix: &Radix, canon: &[u32]) -> Vec<u64> {
    (0..radix.m()).map(|j| radix.preferred(canon, j)).fold(
        canon.iter().map(|&d| d as u64).collect(),
        |mut max: Vec<u64>, rep| {
            for (mx, d) in max.iter_mut().zip(rep) {
                *mx = (*mx).max(d.map_or(0, u64::from));
            }
            max
        },
    )
}

/// One optimized `direction_commitment` costs `Σᵢ(1 + max stepᵢ)` walk
/// hashes, `m + 1` representation digests, `m - 1` Merkle nodes and one
/// combine, for every base, domain and key.
#[test]
fn commitment_costs_one_walk_per_digit_chain() {
    let _guard = count_lock();
    for base in [2u32, 3, 7, 10, 16] {
        for domain in domains() {
            let config = SchemeConfig::with_base(base);
            let hasher = config.hasher();
            let radix = config.radix(&domain).unwrap();
            let m = radix.m() as u64;
            for key in [
                domain.left_delimiter(),
                domain.key_min(),
                key_in(&domain, 0x5EED_1234_5678),
                domain.key_max(),
                domain.right_delimiter(),
            ] {
                for dir in [Direction::Up, Direction::Down] {
                    let canon = radix.canonical(dir.delta_t(&domain, key));
                    let walk: u64 = max_steps(&radix, &canon).iter().map(|s| 1 + s).sum();
                    let expected = walk + (m + 1) + (m - 1) + 1;
                    assert!(
                        exact_ops(expected, || {
                            let _ = direction_commitment(
                                &hasher,
                                &config,
                                Some(&radix),
                                &domain,
                                key,
                                dir,
                            );
                        }),
                        "B={base} domain {domain:?} key {key} {dir:?}: expected {expected} ops"
                    );
                }
            }
        }
    }
}

/// On the `select_cold` table (B=2, m=16) a typical direction walks 43
/// chain hashes; the per-representation reference spent 578 on the same
/// chains. Both totals add 17 rep digests, 15 Merkle nodes and 1 combine.
#[test]
fn select_cold_direction_walks_43_chain_hashes_not_578() {
    let _guard = count_lock();
    let domain = spaced_domain();
    let config = SchemeConfig::default();
    let hasher = config.hasher();
    let radix = config.radix(&domain).unwrap();
    assert_eq!((radix.base(), radix.m()), (2, 16));
    let key = 4;
    let fixed = 17 + 15 + 1;
    assert!(exact_ops(43 + fixed, || {
        let _ = direction_commitment(&hasher, &config, Some(&radix), &domain, key, Direction::Up);
    }));
    assert!(exact_ops(578 + fixed, || {
        let _ = reference_commitment(&hasher, &radix, &domain, key, Direction::Up);
    }));
}

/// The verifier's Figure 8b reconstruction walks each canonical digit
/// chain to its digit: `Σᵢ(1 + δ_i)` plus one rep digest and one combine,
/// exactly as before the walk kernel.
#[test]
fn entry_component_cost_is_unchanged() {
    let _guard = count_lock();
    for base in [2u32, 10] {
        let domain = spaced_domain();
        let config = SchemeConfig::with_base(base);
        let hasher = config.hasher();
        let radix = config.radix(&domain).unwrap();
        let root = hasher.hash(HashDomain::Data, b"root");
        for key in [domain.key_min(), 54_321, domain.key_max()] {
            for dir in [Direction::Up, Direction::Down] {
                let canon = radix.canonical(dir.delta_t(&domain, key));
                let expected = canon.iter().map(|&d| 1 + d as u64).sum::<u64>() + 2;
                assert!(exact_ops(expected, || {
                    let _ = entry_component(
                        &hasher,
                        &config,
                        Some(&radix),
                        &domain,
                        key,
                        dir,
                        Some(root),
                    );
                }));
            }
        }
    }
}
