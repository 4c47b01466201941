//! Iterated one-way hash chains `h^i(r|j)` (Sections 3.1 and 5.1).
//!
//! The paper defines `h^i(r)` recursively: `h^0(r)` applies the hash once to
//! `r`, and `h^i(r) = h^{i-1}(h(r))`. So **`h^i` means `i + 1` hash
//! applications**, and `h^j` is defined for `j = 0` (one application) but
//! *undefined for `j < 0`* — that asymmetry is precisely what makes the
//! completeness proof sound (Case 1 of Section 3.2): a publisher holding
//! `r_{a-1} ≥ α` would need `h^{α - r_{a-1} - 1}` with a negative exponent.
//!
//! Chains are *tagged*: the digit-decomposed scheme hashes `r|j` (the value
//! concatenated with its digit position `j`), so the `m+1` digit chains of
//! one value are mutually independent. The first application uses the
//! `Value` hash domain and subsequent steps the `Step` domain, which also
//! guarantees `h^{-1}(x) != x` structurally (cf. the paper's remark on
//! choosing `h` with output length different from `|r|`).

use crate::digest::Digest;
use crate::hasher::{count_ops, HashDomain, Hasher, StepBlock};

/// Encodes the tagged pre-image `r|j` of a digit chain.
#[inline]
fn tagged(value: &[u8], position: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(value.len() + 4);
    v.extend_from_slice(value);
    v.extend_from_slice(&position.to_le_bytes());
    v
}

/// Computes `h^steps(value|position)`, i.e. `steps + 1` hash applications
/// starting from the tagged plaintext value.
pub fn chain_from_value(hasher: &Hasher, value: &[u8], position: u32, steps: u64) -> Digest {
    count_ops(1 + steps);
    let d = hasher.hash_parts_uncounted(HashDomain::Value, &[&tagged(value, position)]);
    walk(hasher, d, steps)
}

/// `steps` uncounted chain steps from `d`. Every step truncates to the
/// hasher's digest length, so a digest of another length (a wire decoder
/// accepts any of 16..=32 bytes) takes its first step on its own.
fn walk(hasher: &Hasher, mut d: Digest, mut steps: u64) -> Digest {
    if steps > 0 && d.len() != hasher.digest_len() {
        d = hasher.hash_parts_uncounted(HashDomain::Step, &[d.as_bytes()]);
        steps -= 1;
    }
    let mut block = StepBlock::new(&d);
    for _ in 0..steps {
        block.step();
    }
    block.digest()
}

/// Walks a run of tagged chains sharing one value, each **once**, and reads
/// several intermediate digests off every walk: for chain
/// `(position, steps)`, entry `k` of its result is
/// `h^{steps[k]}(value|position)`, byte-identical to
/// `chain_from_value(hasher, value, position, steps[k])`.
///
/// Steps may come in any order and may repeat; a chain costs
/// `1 + max(steps)` hash applications however many points it yields. This
/// is the optimized-mode shape (Section 5.1): the `m+1` digit chains of
/// one key differ only in their position tag, and the canonical digest,
/// the `m` preferred representations and a boundary proof's evidence all
/// read their digests off those same chains.
pub fn chain_points<const K: usize>(
    hasher: &Hasher,
    value: &[u8],
    chains: &[(u32, [u64; K])],
) -> Vec<[Digest; K]> {
    let mut out = Vec::with_capacity(chains.len());
    let mut ops = 0;
    hasher.chain_starts(value, chains.iter().map(|&(tag, _)| tag), |mut block| {
        let steps = chains[out.len()].1;
        let last = steps.into_iter().max().unwrap_or(0);
        let mut points = [block.digest(); K];
        for at in 1..=last {
            block.step();
            if steps.contains(&at) {
                let d = block.digest();
                for (point, &s) in points.iter_mut().zip(&steps) {
                    if s == at {
                        *point = d;
                    }
                }
            }
        }
        ops += 1 + last;
        out.push(points);
    });
    count_ops(ops);
    out
}

/// Extends an intermediate chain digest by `extra` further applications.
///
/// This is the user-side operation of Figure 4: the publisher transmits
/// `h^{δ_e}(r|j)` and the user derives `h^{δ_e + extra}(r|j)`.
pub fn chain_extend(hasher: &Hasher, digest: Digest, extra: u64) -> Digest {
    count_ops(extra);
    walk(hasher, digest, extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasher::tests::exact_ops;
    use crate::hasher::Hasher;

    #[test]
    fn zero_steps_is_one_application() {
        let h = Hasher::default();
        let d = chain_from_value(&h, b"r", 0, 0);
        assert_eq!(d, h.hash(HashDomain::Value, &tagged(b"r", 0)));
    }

    #[test]
    fn extension_composes() {
        // h^{a}(v) extended by b steps equals h^{a+b}(v): the core algebra
        // behind the boundary proof (δ_e + δ_c = Δ_t).
        let h = Hasher::default();
        for (a, b) in [(0u64, 0u64), (0, 5), (3, 4), (10, 0), (7, 13)] {
            let inter = chain_from_value(&h, b"val", 2, a);
            let extended = chain_extend(&h, inter, b);
            assert_eq!(
                extended,
                chain_from_value(&h, b"val", 2, a + b),
                "a={a} b={b}"
            );
        }
    }

    #[test]
    fn chain_points_match_singles() {
        let h = Hasher::default();
        // Unsorted and repeated steps, and a zero-step point.
        let chains = [
            (0u32, [0u64, 0, 0]),
            (1, [5, 2, 7]),
            (0x8000_0002, [13, 13, 4]),
            (3, [1, 0, 1]),
        ];
        let bulk = chain_points(&h, b"shared-key", &chains);
        assert_eq!(bulk.len(), 4);
        for (points, &(pos, steps)) in bulk.iter().zip(&chains) {
            for (d, &s) in points.iter().zip(&steps) {
                assert_eq!(*d, chain_from_value(&h, b"shared-key", pos, s));
            }
        }
    }

    #[test]
    fn positions_are_independent() {
        let h = Hasher::default();
        assert_ne!(
            chain_from_value(&h, b"v", 0, 4),
            chain_from_value(&h, b"v", 1, 4)
        );
    }

    #[test]
    fn values_are_independent() {
        let h = Hasher::default();
        assert_ne!(
            chain_from_value(&h, b"v1", 0, 4),
            chain_from_value(&h, b"v2", 0, 4)
        );
    }

    #[test]
    fn tag_is_unambiguous() {
        // value || position must not collide across the boundary.
        let h = Hasher::default();
        // tagged(b"a\x01", 0) vs tagged(b"a", 1): byte strings differ in the
        // 4-byte LE position suffix, so chains must differ.
        assert_ne!(
            chain_from_value(&h, b"a\x01", 0, 0),
            chain_from_value(&h, b"a", 1, 0)
        );
    }

    #[test]
    fn points_of_one_chain_match_direct() {
        // Several points off one walk, including a repeated one, at the
        // cost of walking to the furthest: 1 initial application + 9 steps.
        let h = Hasher::default();
        let steps = [0u64, 2, 2, 9];
        let [points] = chain_points(&h, b"walk", &[(3, steps)])[..] else {
            panic!("one chain in, one result out");
        };
        for (d, s) in points.iter().zip(steps) {
            assert_eq!(*d, chain_from_value(&h, b"walk", 3, s), "step {s}");
        }
        assert!(exact_ops(10, || {
            let _ = chain_points(&h, b"walk", &[(3, steps)]);
        }));
    }

    #[test]
    fn chain_points_walk_each_chain_once() {
        let h = Hasher::default();
        // (1 + 7) + (1 + 13) + (1 + 0): the largest step of each chain.
        assert!(exact_ops(23, || {
            let _ = chain_points(
                &h,
                b"x",
                &[(0, [7, 2, 5]), (1, [13, 13, 0]), (2, [0, 0, 0])],
            );
        }));
    }

    #[test]
    fn three_chain_walk_is_counted_once() {
        // One atomic add per call covers every chain: (1 + 3) + (1 + 11) +
        // (1 + 20).
        let h = Hasher::default();
        let chains = [(0u32, [3u64]), (1, [11]), (2, [20])];
        assert!(exact_ops(37, || {
            let _ = chain_points(&h, b"x", &chains);
        }));
        for (points, &(pos, [s])) in chain_points(&h, b"x", &chains).iter().zip(&chains) {
            assert_eq!(points[0], chain_from_value(&h, b"x", pos, s));
        }
    }

    #[test]
    fn extension_truncates_a_foreign_length_digest() {
        // Each step is one `h` under the `Step` domain truncated to the
        // hasher's length, whatever the length of the digest it starts from.
        let h = Hasher::new(16);
        let wide = Hasher::new(32).hash(HashDomain::Data, b"x");
        let mut expected = wide;
        for steps in 0..4 {
            assert_eq!(chain_extend(&h, wide, steps), expected, "steps={steps}");
            expected = h.hash(HashDomain::Step, expected.as_bytes());
        }
    }

    #[test]
    fn zero_extension_costs_nothing() {
        let h = Hasher::default();
        let d = chain_from_value(&h, b"x", 0, 3);
        assert!(exact_ops(0, || {
            assert_eq!(chain_extend(&h, d, 0), d);
        }));
    }

    #[test]
    fn chain_cost_is_steps_plus_one() {
        let h = Hasher::default();
        assert!(exact_ops(8, || {
            let _ = chain_from_value(&h, b"x", 0, 7);
        }));
    }
}
