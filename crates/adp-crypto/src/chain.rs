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
use crate::hasher::{HashDomain, Hasher};

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
    let mut d = hasher.hash(HashDomain::Value, &tagged(value, position));
    for _ in 0..steps {
        d = hasher.hash(HashDomain::Step, d.as_bytes());
    }
    d
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
    let mut buf = tagged(value, 0);
    chains
        .iter()
        .map(|&(position, steps)| {
            buf[value.len()..].copy_from_slice(&position.to_le_bytes());
            let mut walker = ChainWalker::from_tagged(hasher, &buf);
            let mut order: [usize; K] = std::array::from_fn(|k| k);
            order.sort_unstable_by_key(|&k| steps[k]);
            let mut out = [walker.at(0); K];
            for k in order {
                out[k] = walker.at(steps[k]);
            }
            out
        })
        .collect()
}

/// Extends an intermediate chain digest by `extra` further applications.
///
/// This is the user-side operation of Figure 4: the publisher transmits
/// `h^{δ_e}(r|j)` and the user derives `h^{δ_e + extra}(r|j)`.
pub fn chain_extend(hasher: &Hasher, digest: Digest, extra: u64) -> Digest {
    let mut d = digest;
    for _ in 0..extra {
        d = hasher.hash(HashDomain::Step, d.as_bytes());
    }
    d
}

/// A memoizing walker over one tagged chain, letting the owner pick up
/// several intermediate points (`h^{δ}`, `h^{δ+B-1}`, `h^{δ+B}`, …) while
/// hashing each prefix only once.
pub struct ChainWalker<'a> {
    hasher: &'a Hasher,
    current: Digest,
    /// Number of *steps* taken so far (`h^{steps}` reached).
    steps: u64,
}

impl<'a> ChainWalker<'a> {
    /// Starts a walker at `h^0(value|position)`.
    pub fn new(hasher: &'a Hasher, value: &[u8], position: u32) -> Self {
        Self::from_tagged(hasher, &tagged(value, position))
    }

    /// Starts a walker at `h^0` of an already tagged pre-image `r|j`.
    #[inline]
    fn from_tagged(hasher: &'a Hasher, tagged: &[u8]) -> Self {
        let current = hasher.hash(HashDomain::Value, tagged);
        ChainWalker {
            hasher,
            current,
            steps: 0,
        }
    }

    /// Advances to `h^steps` and returns that digest.
    ///
    /// # Panics
    /// If asked to move backwards (chains are one-way).
    #[inline]
    pub fn at(&mut self, steps: u64) -> Digest {
        assert!(
            steps >= self.steps,
            "hash chains cannot be walked backwards"
        );
        while self.steps < steps {
            self.current = self.hasher.hash(HashDomain::Step, self.current.as_bytes());
            self.steps += 1;
        }
        self.current
    }

    /// Current position (number of steps taken).
    pub fn position(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hasher::{hash_ops, Hasher};

    /// The hash-op counter is process-global; serialize the tests that
    /// assert exact op counts so parallel tests cannot pollute them.
    fn count_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

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
    fn walker_matches_direct() {
        let h = Hasher::default();
        let mut w = ChainWalker::new(&h, b"walk", 3);
        assert_eq!(w.at(0), chain_from_value(&h, b"walk", 3, 0));
        assert_eq!(w.at(2), chain_from_value(&h, b"walk", 3, 2));
        assert_eq!(w.at(2), chain_from_value(&h, b"walk", 3, 2)); // idempotent
        assert_eq!(w.at(9), chain_from_value(&h, b"walk", 3, 9));
        assert_eq!(w.position(), 9);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn walker_cannot_go_back() {
        let h = Hasher::default();
        let mut w = ChainWalker::new(&h, b"walk", 0);
        let _ = w.at(5);
        let _ = w.at(4);
    }

    /// Measures `f`'s hash-op count, retrying because the process-global
    /// counter can be inflated by tests hashing in parallel threads; an
    /// undisturbed trial yields the exact count.
    fn exact_ops(expected: u64, f: impl Fn()) -> bool {
        let _guard = count_lock();
        (0..100).any(|_| {
            let before = hash_ops();
            f();
            hash_ops() - before == expected
        })
    }

    #[test]
    fn walker_saves_hash_ops() {
        let h = Hasher::default();
        // 1 initial application + 20 steps.
        assert!(exact_ops(21, || {
            let mut w = ChainWalker::new(&h, b"x", 0);
            let _ = w.at(10);
            let _ = w.at(20);
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
    fn chain_cost_is_steps_plus_one() {
        let h = Hasher::default();
        assert!(exact_ops(8, || {
            let _ = chain_from_value(&h, b"x", 0, 7);
        }));
    }
}
