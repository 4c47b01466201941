//! Computing the per-record digest `g(r)` (formulas (2)/(3), Figures 6–7).
//!
//! For the relational scheme, formula (3) defines
//!
//! ```text
//! g(r) = h^{U - r.K - 1}(r.K) | h^{r.K - L - 1}(r.K) | MHT(r.A)
//! ```
//!
//! — an *up* chain component binding how far `r.K` sits below `U`, a *down*
//! chain component binding how far it sits above `L`, and the root of a
//! Merkle tree over the non-key attributes. `g(r)` is a **concatenation**
//! (3 digests); the signature chain hashes triples of them (formula (1)).
//!
//! In [`Mode::Optimized`] each chain component is replaced by the Figure 7
//! construction: `comp = h( h(δ_t) | MHT(^0δ_t … ^{m-1}δ_t) )`, where
//! `h(δ_t)` hashes the concatenation of the `m+1` canonical digit-chain
//! digests `h^{δ_{t,i}}(r.K|i)` and the Merkle tree commits to the `m`
//! preferred non-canonical representations.
//!
//! Chains of the two directions are tagged with disjoint position spaces so
//! an up-chain digest can never be replayed as a down-chain digest.

use crate::domain::{key_bytes, Domain};
use crate::repr::Radix;
use crate::scheme::{Mode, SchemeConfig};
use adp_crypto::{chain_from_value, chain_points, hasher::HashDomain, Digest, Hasher, MerkleTree};
use adp_relation::{Record, Schema, Value};

/// Chain direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// `δ_t = U - K - 1`; proves origins (`K < α` for boundaries).
    Up,
    /// `δ_t = K - L - 1`; proves terminals (`K > β`).
    Down,
}

impl Direction {
    /// Position tag for digit `i`: the two directions use disjoint spaces.
    #[inline]
    pub fn tag(&self, digit: u32) -> u32 {
        match self {
            Direction::Up => digit,
            Direction::Down => 0x8000_0000 | digit,
        }
    }

    /// `δ_t` of `key` in this direction.
    pub fn delta_t(&self, domain: &Domain, key: i64) -> u64 {
        match self {
            Direction::Up => domain.delta_up(key),
            Direction::Down => domain.delta_down(key),
        }
    }
}

/// The `g(r)` digest triple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GDigest {
    pub up: Digest,
    pub down: Digest,
    pub attrs: Digest,
}

impl GDigest {
    /// The concatenated byte form entering the signature-chain hash.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.up.len() + self.down.len() + self.attrs.len());
        v.extend_from_slice(self.up.as_bytes());
        v.extend_from_slice(self.down.as_bytes());
        v.extend_from_slice(self.attrs.as_bytes());
        v
    }
}

/// What a verifier may know of a neighbour's `g`: either the full triple
/// (derivable) or opaque bytes handed over by the publisher, or the domain
/// edge anchors `h(L)` / `h(U)` flanking the delimiters (formula (1)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GBytes {
    Full(GDigest),
    Opaque(Vec<u8>),
    LeftEdge,
    RightEdge,
}

impl GBytes {
    /// Resolves to raw bytes for the link hash.
    pub fn resolve(&self, hasher: &Hasher, domain: &Domain) -> Vec<u8> {
        match self {
            GBytes::Full(g) => g.to_bytes(),
            GBytes::Opaque(b) => b.clone(),
            GBytes::LeftEdge => edge_digest(hasher, domain.l()).as_bytes().to_vec(),
            GBytes::RightEdge => edge_digest(hasher, domain.u()).as_bytes().to_vec(),
        }
    }
}

/// The edge anchor digest `h(L)` / `h(U)` (publicly computable).
pub fn edge_digest(hasher: &Hasher, bound: i64) -> Digest {
    hasher.hash_parts(HashDomain::Value, &[b"__edge__", &key_bytes(bound)])
}

/// The signature-chain link digest
/// `h( g(r_{i-1}) | g(r_i) | g(r_{i+1}) )` (formula (1)).
pub fn link_digest(hasher: &Hasher, prev: &[u8], cur: &[u8], next: &[u8]) -> Digest {
    hasher.hash_parts(HashDomain::Link, &[prev, cur, next])
}

/// Bulk form of [`link_digest`] over a whole chain: `encoded` is the
/// sequence `[h(L), g(r_0), …, g(r_{n+1}), h(U)]` and the result is the
/// `n + 2` link digests, each byte-identical to the single-link form.
/// The owner signs tables through this so every `g` is serialized once.
pub fn link_digests_run(hasher: &Hasher, encoded: &[&[u8]]) -> Vec<Digest> {
    hasher.hash_triple_windows(HashDomain::Link, encoded)
}

/// Owner/publisher-side materials for one chain direction of one record.
#[derive(Clone, Debug)]
pub struct DirectionCommitment {
    /// The finished component entering `g(r)`.
    pub component: Digest,
    /// Optimized mode: digest of the canonical representation `h(δ_t)`.
    pub canon_digest: Option<Digest>,
    /// Optimized mode: Merkle tree over the `m` preferred non-canonical
    /// representation digests.
    pub rep_tree: Option<MerkleTree>,
}

/// Computes the digit-chain digest `h^{steps}(key|tag(digit))`.
pub fn digit_chain(hasher: &Hasher, key: i64, dir: Direction, digit: u32, steps: u64) -> Digest {
    chain_from_value(hasher, &key_bytes(key), dir.tag(digit), steps)
}

/// Hashes one representation's component digests into `h(δ)`
/// (components whose digit was dropped — invalid representations — are
/// simply absent; positions stay bound through the chain tags).
pub fn rep_digest(hasher: &Hasher, components: &[Digest]) -> Digest {
    hasher.hash_digests(HashDomain::Rep, components)
}

/// Combines `h(δ_t)` with the non-canonical-representation MHT root into
/// the direction component (Figure 7).
pub fn combine_component(hasher: &Hasher, canon: Digest, mht_root: Digest) -> Digest {
    hasher.hash_digests(HashDomain::Comp, &[canon, mht_root])
}

/// Owner/publisher-side computation of one direction's commitment.
pub fn direction_commitment(
    hasher: &Hasher,
    config: &SchemeConfig,
    radix: Option<&Radix>,
    domain: &Domain,
    key: i64,
    dir: Direction,
) -> DirectionCommitment {
    match config.mode {
        Mode::Conceptual => DirectionCommitment {
            component: digit_chain(hasher, key, dir, 0, dir.delta_t(domain, key)),
            canon_digest: None,
            rep_tree: None,
        },
        Mode::Optimized { base } => {
            let radix = radix.expect("optimized mode needs a radix");
            debug_assert_eq!(radix.base(), base);
            direction_walk(hasher, radix, domain, key, dir, None).0
        }
    }
}

/// The optimized-mode (Figure 7) commitment of one direction, built from
/// **one walk per digit chain**.
///
/// The canonical digits `δ_i` of `δ_t` and every preferred representation
/// `^jδ_t` differ only by `+B` (digit 0), `+B-1` (inflated digits) and
/// `-1` (the borrowed digit), so chain `i` is walked once to its largest
/// step and `δ_i - 1`, `δ_i` and `δ_i + B` / `δ_i + B - 1` are read off on
/// the way. With `evidence` (a boundary proof's digits `δ_{e,i}`, each at
/// most the selected representation's digit) the same walks also yield
/// the intermediates `h^{δ_{e,i}}(key|tag(i))`; without it the second
/// result is empty.
pub fn direction_walk(
    hasher: &Hasher,
    radix: &Radix,
    domain: &Domain,
    key: i64,
    dir: Direction,
    evidence: Option<&[u32]>,
) -> (DirectionCommitment, Vec<Digest>) {
    const BORROWED: usize = 0;
    const CANON: usize = 1;
    const INFLATED: usize = 2;
    const EVIDENCE: usize = 3;
    let canon = radix.canonical(dir.delta_t(domain, key));
    let m = radix.m() as usize;
    let b = radix.base() as u64;
    // Digit 0 is borrowed from by no representation, digit `m` is inflated
    // by none; their unused points repeat `δ_i` and cost nothing.
    let chains: Vec<(u32, [u64; 4])> = canon
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let d = d as u64;
            let borrowed = if i == 0 { d } else { d.saturating_sub(1) };
            let inflated = match i {
                i if i == m => d,
                0 => d + b,
                _ => d + b - 1,
            };
            let e = evidence.map_or(d, |e| e[i] as u64);
            (dir.tag(i as u32), [borrowed, d, inflated, e])
        })
        .collect();
    let points = chain_points(hasher, &key_bytes(key), &chains);
    let canon_components: Vec<Digest> = points.iter().map(|p| p[CANON]).collect();
    let canon_digest = rep_digest(hasher, &canon_components);
    // `^jδ_t`: digits `0..=j` inflated, digit `j+1` borrowed from (dropped
    // when `δ_{j+1} = 0`, an invalid representation), the rest canonical.
    let mut components = Vec::with_capacity(m + 1);
    let leaves: Vec<Digest> = (0..m)
        .map(|j| {
            components.clear();
            components.extend(points[..=j].iter().map(|p| p[INFLATED]));
            if canon[j + 1] >= 1 {
                components.push(points[j + 1][BORROWED]);
            }
            components.extend_from_slice(&canon_components[j + 2..]);
            rep_digest(hasher, &components)
        })
        .collect();
    let rep_tree = MerkleTree::build(*hasher, leaves);
    let component = combine_component(hasher, canon_digest, rep_tree.root());
    let intermediates = match evidence {
        Some(_) => points.iter().map(|p| p[EVIDENCE]).collect(),
        None => Vec::new(),
    };
    (
        DirectionCommitment {
            component,
            canon_digest: Some(canon_digest),
            rep_tree: Some(rep_tree),
        },
        intermediates,
    )
}

/// Verifier-side recomputation of a direction component for a *result
/// entry*, whose key is disclosed (Figure 8b): the user rebuilds the
/// canonical digit chains from the key and combines with the rep-MHT root
/// supplied by the publisher (`None` in conceptual mode, where the chain
/// alone is the component).
pub fn entry_component(
    hasher: &Hasher,
    config: &SchemeConfig,
    radix: Option<&Radix>,
    domain: &Domain,
    key: i64,
    dir: Direction,
    rep_root: Option<Digest>,
) -> Digest {
    let delta_t = dir.delta_t(domain, key);
    match config.mode {
        Mode::Conceptual => digit_chain(hasher, key, dir, 0, delta_t),
        Mode::Optimized { .. } => {
            let radix = radix.expect("optimized mode needs a radix");
            let chains: Vec<(u32, [u64; 1])> = radix
                .canonical(delta_t)
                .iter()
                .enumerate()
                .map(|(i, &d)| (dir.tag(i as u32), [d as u64]))
                .collect();
            let comps: Vec<Digest> = chain_points(hasher, &key_bytes(key), &chains)
                .into_iter()
                .map(|[d]| d)
                .collect();
            let canon_digest = rep_digest(hasher, &comps);
            let root = rep_root.expect("optimized mode needs the rep-MHT root");
            combine_component(hasher, canon_digest, root)
        }
    }
}

/// Attribute leaf encoding: the canonical byte form of a value.
pub fn attr_leaf_bytes(value: &Value) -> Vec<u8> {
    value.encode()
}

/// Builds `MHT(r.A)` over the non-key attributes of a record, returning the
/// tree (owner/publisher side). Records with no non-key attributes commit
/// to a fixed sentinel leaf.
pub fn attr_tree(hasher: &Hasher, schema: &Schema, record: &Record) -> MerkleTree {
    let key_idx = schema.key_index();
    let leaves: Vec<Digest> = record
        .values()
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != key_idx)
        .map(|(_, v)| hasher.hash(HashDomain::Leaf, &attr_leaf_bytes(v)))
        .collect();
    if leaves.is_empty() {
        MerkleTree::build(
            *hasher,
            vec![hasher.hash(HashDomain::Leaf, b"\x00__no_attrs__")],
        )
    } else {
        MerkleTree::build(*hasher, leaves)
    }
}

/// The attribute digest of a delimiter pseudo-record.
pub fn delimiter_attr_digest(hasher: &Hasher) -> Digest {
    hasher.hash(HashDomain::Leaf, b"\x00__delimiter__")
}

/// Owner/publisher-side computation of the full `g(r)` for a real record.
pub fn g_of_record(
    hasher: &Hasher,
    config: &SchemeConfig,
    radix: Option<&Radix>,
    domain: &Domain,
    schema: &Schema,
    record: &Record,
) -> GDigest {
    let key = record.key(schema);
    GDigest {
        up: direction_commitment(hasher, config, radix, domain, key, Direction::Up).component,
        down: direction_commitment(hasher, config, radix, domain, key, Direction::Down).component,
        attrs: attr_tree(hasher, schema, record).root(),
    }
}

/// Owner/publisher-side `g` of a delimiter.
pub fn g_of_delimiter(
    hasher: &Hasher,
    config: &SchemeConfig,
    radix: Option<&Radix>,
    domain: &Domain,
    key: i64,
) -> GDigest {
    GDigest {
        up: direction_commitment(hasher, config, radix, domain, key, Direction::Up).component,
        down: direction_commitment(hasher, config, radix, domain, key, Direction::Down).component,
        attrs: delimiter_attr_digest(hasher),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_relation::{Column, ValueType};

    fn setup() -> (Hasher, Domain) {
        (Hasher::default(), Domain::new(0, 100_000))
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

    #[test]
    fn direction_tags_disjoint() {
        assert_ne!(Direction::Up.tag(3), Direction::Down.tag(3));
        assert_eq!(Direction::Up.tag(3), 3);
    }

    #[test]
    fn conceptual_component_is_plain_chain() {
        let (h, d) = setup();
        let cfg = SchemeConfig::conceptual();
        let c = direction_commitment(&h, &cfg, None, &d, 99_000, Direction::Up);
        assert!(c.canon_digest.is_none() && c.rep_tree.is_none());
        assert_eq!(
            c.component,
            digit_chain(&h, 99_000, Direction::Up, 0, d.delta_up(99_000))
        );
    }

    #[test]
    fn entry_component_matches_commitment_optimized() {
        // The verifier's Figure-8b reconstruction must agree with the
        // owner's Figure-7 construction for both directions and bases.
        let (h, d) = setup();
        for base in [2u32, 3, 10] {
            let cfg = SchemeConfig::with_base(base);
            let radix = Radix::for_width(base, d.width());
            for key in [2i64, 57, 5_000, 99_998] {
                for dir in [Direction::Up, Direction::Down] {
                    let commit = direction_commitment(&h, &cfg, Some(&radix), &d, key, dir);
                    let rebuilt = entry_component(
                        &h,
                        &cfg,
                        Some(&radix),
                        &d,
                        key,
                        dir,
                        Some(commit.rep_tree.as_ref().unwrap().root()),
                    );
                    assert_eq!(rebuilt, commit.component, "B={base} key={key} {dir:?}");
                }
            }
        }
    }

    #[test]
    fn direction_walk_evidence_matches_digit_chains() {
        // The publisher's evidence intermediates come off the commitment's
        // own walks; each equals the standalone digit chain.
        let (h, d) = setup();
        for base in [2u32, 3, 10] {
            let cfg = SchemeConfig::with_base(base);
            let radix = Radix::for_width(base, d.width());
            for (key, alpha) in [(57i64, 60i64), (5_000, 61_234), (2, 99_998)] {
                let dir = Direction::Up;
                let delta_c = d.delta_up_query(alpha);
                let (_, e) = radix.select_representation(dir.delta_t(&d, key), delta_c);
                let (commit, intermediates) = direction_walk(&h, &radix, &d, key, dir, Some(&e));
                let plain = direction_commitment(&h, &cfg, Some(&radix), &d, key, dir);
                assert_eq!(commit.component, plain.component);
                let expected: Vec<Digest> = e
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| digit_chain(&h, key, dir, i as u32, s as u64))
                    .collect();
                assert_eq!(intermediates, expected, "B={base} key={key} α={alpha}");
            }
        }
    }

    #[test]
    fn entry_component_matches_commitment_conceptual() {
        let (h, d) = setup();
        let cfg = SchemeConfig::conceptual();
        let commit = direction_commitment(&h, &cfg, None, &d, 1234, Direction::Down);
        let rebuilt = entry_component(&h, &cfg, None, &d, 1234, Direction::Down, None);
        assert_eq!(rebuilt, commit.component);
    }

    #[test]
    fn g_concatenation_layout() {
        let (h, d) = setup();
        let cfg = SchemeConfig::default();
        let radix = Radix::for_width(2, d.width());
        let rec = Record::new(vec![Value::Int(1), Value::from("A"), Value::Int(2000)]);
        let g = g_of_record(&h, &cfg, Some(&radix), &d, &schema(), &rec);
        let bytes = g.to_bytes();
        assert_eq!(bytes.len(), 3 * h.digest_len());
        assert_eq!(&bytes[..16], g.up.as_bytes());
        assert_eq!(&bytes[32..], g.attrs.as_bytes());
    }

    #[test]
    fn attr_tree_excludes_key() {
        let (h, _) = setup();
        let s = schema();
        let r1 = Record::new(vec![Value::Int(1), Value::from("A"), Value::Int(2000)]);
        let r2 = Record::new(vec![Value::Int(1), Value::from("A"), Value::Int(3000)]);
        // Same non-key attributes, different key → same attribute tree.
        assert_eq!(attr_tree(&h, &s, &r1).root(), attr_tree(&h, &s, &r2).root());
        let r3 = Record::new(vec![Value::Int(2), Value::from("A"), Value::Int(2000)]);
        assert_ne!(attr_tree(&h, &s, &r1).root(), attr_tree(&h, &s, &r3).root());
    }

    #[test]
    fn key_only_schema_has_sentinel_attr_tree() {
        let (h, _) = setup();
        let s = Schema::new(vec![Column::new("k", ValueType::Int)], "k");
        let r = Record::new(vec![Value::Int(5)]);
        let t = attr_tree(&h, &s, &r);
        assert_eq!(t.leaf_count(), 1);
    }

    #[test]
    fn different_keys_different_components() {
        let (h, d) = setup();
        let cfg = SchemeConfig::with_base(2);
        let radix = Radix::for_width(2, d.width());
        let c1 = direction_commitment(&h, &cfg, Some(&radix), &d, 100, Direction::Up);
        let c2 = direction_commitment(&h, &cfg, Some(&radix), &d, 101, Direction::Up);
        assert_ne!(c1.component, c2.component);
    }

    #[test]
    fn up_down_components_differ() {
        // Even for a key at the exact domain midpoint (δ_up == δ_down), the
        // direction tags keep components distinct.
        let (h, _) = setup();
        let d = Domain::new(0, 100);
        let key = 50; // δ_up = 49, δ_down = 49
        assert_eq!(d.delta_up(key), d.delta_down(key));
        let cfg = SchemeConfig::with_base(2);
        let radix = Radix::for_width(2, d.width());
        let up = direction_commitment(&h, &cfg, Some(&radix), &d, key, Direction::Up);
        let down = direction_commitment(&h, &cfg, Some(&radix), &d, key, Direction::Down);
        assert_ne!(up.component, down.component);
    }

    #[test]
    fn edge_digests_distinct() {
        let (h, d) = setup();
        assert_ne!(edge_digest(&h, d.l()), edge_digest(&h, d.u()));
        // Edge anchors must differ from ordinary value chains at the bound.
        assert_ne!(
            edge_digest(&h, d.l()),
            digit_chain(&h, d.l(), Direction::Up, 0, 0)
        );
    }

    #[test]
    fn gbytes_resolution() {
        let (h, d) = setup();
        let g = GDigest {
            up: h.hash(HashDomain::Data, b"u"),
            down: h.hash(HashDomain::Data, b"d"),
            attrs: h.hash(HashDomain::Data, b"a"),
        };
        assert_eq!(GBytes::Full(g).resolve(&h, &d), g.to_bytes());
        assert_eq!(GBytes::Opaque(vec![1, 2, 3]).resolve(&h, &d), vec![1, 2, 3]);
        assert_eq!(
            GBytes::LeftEdge.resolve(&h, &d),
            edge_digest(&h, d.l()).as_bytes().to_vec()
        );
    }
}
