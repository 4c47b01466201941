//! The one-way hash abstraction `h(.)` used throughout the scheme, with
//! domain separation and a global operation counter.
//!
//! # Domain separation
//!
//! The paper (Section 3.1) requires that the iterated hash `h^i(r)` has no
//! inverse for `i < 0`; it suggests choosing `h` whose output length differs
//! from the length of `r`, so that `h^{-1}(r) != r` trivially. We achieve the
//! same guarantee more robustly by *domain-separating* every use of the hash
//! function with a one-byte context tag:
//!
//! * `VALUE` — first application of the chain to an encoded value,
//! * `STEP` — each subsequent chain step over a digest,
//! * `LEAF` / `NODE` — Merkle tree leaves and internal nodes,
//! * `LINK` — the signature-chain digest `h(g(r_{i-1}) | g(r_i) | g(r_{i+1}))`,
//! * `SIG` — the full-domain-hash padding for RSA signing.
//!
//! Separation makes cross-context collisions (e.g. passing a Merkle node off
//! as a chain step) structurally impossible rather than merely unlikely.
//!
//! # Operation counting
//!
//! The paper's cost model is expressed in *numbers of hash operations*
//! (`C_hash` per op). A relaxed global counter lets benches report exact
//! operation counts that can be compared with formulas (4)/(5) independently
//! of hardware speed. Bulk callers (chain walks, FDH expansion, link runs)
//! add their exact total with one update per call rather than one per hash,
//! so threads hashing side by side do not contend on the counter.
//!
//! # One-block messages
//!
//! Almost every message hashed here is short: a chain step is
//! `tag | len | digest` (21 bytes at 16-byte digests), a tagged value
//! 17 bytes. Any message of at most 55 bytes is framed straight into one
//! padded SHA-256 block and compressed once; longer messages stream piece
//! by piece. Both paths give the same bytes.

use crate::digest::{Digest, MAX_DIGEST_LEN, MIN_DIGEST_LEN};
use crate::sha256::{self, Sha256, ONE_BLOCK_MAX};
use std::sync::atomic::{AtomicU64, Ordering};

/// Context tags for domain separation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum HashDomain {
    /// First hash application over an encoded plaintext value.
    Value = 0x56,
    /// A chain step: hash of a previous digest.
    Step = 0x43,
    /// Merkle tree leaf.
    Leaf = 0x4c,
    /// Merkle tree internal node.
    Node = 0x4e,
    /// Signature-chain link digest (formula 1 inner hash).
    Link = 0x4b,
    /// Full-domain-hash expansion for RSA signing.
    Sig = 0x53,
    /// Free-form application data.
    Data = 0x44,
    /// A digit-representation digest `h(δ)` (Section 5.1 of the paper):
    /// hash over the per-digit chain digests of one representation.
    Rep = 0x52,
    /// A direction component `h(h(δ_t) | MHT-root)` combining the canonical
    /// representation digest with the non-canonical-representation tree.
    Comp = 0x4f,
}

static HASH_OPS: AtomicU64 = AtomicU64::new(0);

/// Total number of hash-function applications performed process-wide since
/// start (or since [`reset_hash_ops`]).
pub fn hash_ops() -> u64 {
    HASH_OPS.load(Ordering::Relaxed)
}

/// Resets the global hash-operation counter and returns the previous value.
pub fn reset_hash_ops() -> u64 {
    HASH_OPS.swap(0, Ordering::Relaxed)
}

/// Adds `n` hash applications performed by a bulk caller to the counter.
pub(crate) fn count_ops(n: u64) {
    if n > 0 {
        HASH_OPS.fetch_add(n, Ordering::Relaxed);
    }
}

/// `domain | (len | part)*` — the message every [`Hasher`] digest hashes —
/// padded into one SHA-256 block, or `None` when it is longer than
/// [`ONE_BLOCK_MAX`] bytes.
fn framed<'a>(
    domain: HashDomain,
    parts: impl Iterator<Item = &'a [u8]> + Clone,
) -> Option<[u8; 64]> {
    let len = parts.clone().try_fold(1, |n, p| {
        Some(n + 4 + p.len()).filter(|&n| n <= ONE_BLOCK_MAX)
    })?;
    let mut block = [0u8; 64];
    block[0] = domain as u8;
    let mut at = 1;
    for p in parts {
        block[at..at + 4].copy_from_slice(&(p.len() as u32).to_le_bytes());
        block[at + 4..at + 4 + p.len()].copy_from_slice(p);
        at += 4 + p.len();
    }
    debug_assert_eq!(at, len);
    sha256::pad_one_block(&mut block, len);
    Some(block)
}

/// SHA-256 of `domain | (len | part)*`: one compression when the message
/// fits a block, the streaming hasher otherwise.
fn framed_sha256<'a>(
    domain: HashDomain,
    parts: impl Iterator<Item = &'a [u8]> + Clone,
) -> [u8; 32] {
    if let Some(block) = framed(domain, parts.clone()) {
        return sha256::one_block(&block);
    }
    let mut h = Sha256::new();
    h.update(&[domain as u8]);
    for p in parts {
        // Length-prefix each part so that concatenation is injective:
        // h(a|b) with a="x", b="yz" must differ from a="xy", b="z".
        h.update(&(p.len() as u32).to_le_bytes());
        h.update(p);
    }
    h.finalize()
}

/// The FDH counter block `Sig | counter | seed` (no length prefix) framed
/// into one padded block; `seed` must leave it within [`ONE_BLOCK_MAX`].
fn expand_block(seed: &[u8], counter: u32) -> [u8; 64] {
    let len = 5 + seed.len();
    let mut block = [0u8; 64];
    block[0] = HashDomain::Sig as u8;
    block[1..5].copy_from_slice(&counter.to_le_bytes());
    block[5..len].copy_from_slice(seed);
    sha256::pad_one_block(&mut block, len);
    block
}

/// A chain step's framed message `Step | len | d`, kept as its padded
/// block and updated in place: a step hashes the block and writes the
/// truncated result back over `d`, so a walk frames its message once.
#[derive(Clone, Copy)]
pub(crate) struct StepBlock {
    block: [u8; 64],
    /// Over the 32 bytes from [`Self::AT`]: `0xff` where a step keeps the
    /// block's byte (the padding past a truncated digest), `0` where it
    /// writes its output. A fixed-width blend instead of a copy of
    /// runtime length.
    keep: [u8; 32],
}

impl StepBlock {
    /// Where the digest sits: after the domain tag and its length prefix.
    const AT: usize = 5;

    /// The block of the step from `d`.
    pub(crate) fn new(d: &Digest) -> Self {
        let block = framed(HashDomain::Step, std::iter::once(d.as_bytes()))
            .expect("a digest of at most 32 bytes frames into one block");
        let keep = std::array::from_fn(|i| if i < d.len() { 0 } else { 0xff });
        StepBlock { block, keep }
    }

    /// The digest the chain has reached.
    pub(crate) fn digest(&self) -> Digest {
        let len = self.keep.iter().filter(|&&k| k == 0).count();
        Digest::from_prefix(self.window(), len)
    }

    fn window(&self) -> &[u8; 32] {
        self.block[Self::AT..Self::AT + 32]
            .try_into()
            .expect("32 bytes")
    }

    /// Writes a step's truncated output over the digest.
    fn store(&mut self, full: &[u8; 32]) {
        let window = &mut self.block[Self::AT..Self::AT + 32];
        for ((b, &f), &k) in window.iter_mut().zip(full).zip(&self.keep) {
            *b = (*b & k) | (f & !k);
        }
    }

    /// The block of the step from the truncation of a SHA-256 output,
    /// reusing this block's framing.
    fn with_output(&self, full: &[u8; 32]) -> Self {
        let mut b = *self;
        b.store(full);
        b
    }

    /// One uncounted chain step.
    pub(crate) fn step(&mut self) {
        let full = sha256::one_block(&self.block);
        self.store(&full);
    }
}

/// A configured one-way hash function: SHA-256 truncated to `digest_len`
/// bytes (16..=32), with domain separation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hasher {
    digest_len: usize,
}

impl Default for Hasher {
    /// Default matches the paper's `M_digest` = 128 bits.
    fn default() -> Self {
        Hasher::new(16)
    }
}

impl Hasher {
    /// Creates a hasher producing `digest_len`-byte digests.
    ///
    /// # Panics
    /// If `digest_len` is outside `16..=32`.
    pub fn new(digest_len: usize) -> Self {
        assert!(
            (MIN_DIGEST_LEN..=MAX_DIGEST_LEN).contains(&digest_len),
            "digest length {digest_len} out of range 16..=32"
        );
        Hasher { digest_len }
    }

    /// Digest length in bytes.
    #[inline]
    pub fn digest_len(&self) -> usize {
        self.digest_len
    }

    /// Digest length in bits (the paper's `M_digest`).
    #[inline]
    pub fn digest_bits(&self) -> usize {
        self.digest_len * 8
    }

    /// Truncates a SHA-256 output to this hasher's digest length.
    #[inline]
    fn truncate(&self, full: &[u8; 32]) -> Digest {
        Digest::from_prefix(full, self.digest_len)
    }

    /// One hash application without touching the op counter (shared core of
    /// [`Self::hash_parts`] and the bulk APIs, which count in batches).
    #[inline]
    pub(crate) fn hash_parts_uncounted(&self, domain: HashDomain, parts: &[&[u8]]) -> Digest {
        self.truncate(&framed_sha256(domain, parts.iter().copied()))
    }

    /// The first applications `h(value|tag)` (`Value` domain, uncounted)
    /// of a run of tagged chains sharing `value`, each handed to `start`,
    /// in order, as the block of its chain's first step. The messages
    /// differ only in the 4-byte tag, so one is framed and the others patch
    /// its tag.
    pub(crate) fn chain_starts(
        &self,
        value: &[u8],
        tags: impl Iterator<Item = u32>,
        mut start: impl FnMut(StepBlock),
    ) {
        let mut tagged = value.to_vec();
        tagged.extend_from_slice(&[0; 4]);
        let step = StepBlock::new(&self.truncate(&[0; 32]));
        let Some(mut block) = framed(HashDomain::Value, std::iter::once(&tagged[..])) else {
            for tag in tags {
                tagged[value.len()..].copy_from_slice(&tag.to_le_bytes());
                let full = framed_sha256(HashDomain::Value, std::iter::once(&tagged[..]));
                start(step.with_output(&full));
            }
            return;
        };
        // The tag ends the message: domain, length prefix, value, tag.
        let at = 5 + value.len();
        for tag in tags {
            block[at..at + 4].copy_from_slice(&tag.to_le_bytes());
            start(step.with_output(&sha256::one_block(&block)));
        }
    }

    /// One application of `h` over `parts` under `domain`.
    pub fn hash_parts(&self, domain: HashDomain, parts: &[&[u8]]) -> Digest {
        count_ops(1);
        self.hash_parts_uncounted(domain, parts)
    }

    /// Bulk link hashing: one digest per consecutive window of three parts
    /// (`parts[i-1] | parts[i] | parts[i+1]` for every interior `i`), each
    /// byte-identical to `hash_parts(domain, &[prev, cur, next])`.
    ///
    /// This is the owner-side signature-chain shape (formula (1)): callers
    /// encode each record digest **once** and hash a whole run of tuples,
    /// instead of re-buffering every neighbour triple.
    pub fn hash_triple_windows(&self, domain: HashDomain, parts: &[&[u8]]) -> Vec<Digest> {
        assert!(parts.len() >= 3, "need at least one window of three parts");
        count_ops((parts.len() - 2) as u64);
        parts
            .windows(3)
            .map(|w| self.hash_parts_uncounted(domain, w))
            .collect()
    }

    /// One application of `h` over a single byte string.
    #[inline]
    pub fn hash(&self, domain: HashDomain, data: &[u8]) -> Digest {
        self.hash_parts(domain, &[data])
    }

    /// One application of `h` over a sequence of digests (concatenation).
    pub fn hash_digests(&self, domain: HashDomain, digests: &[Digest]) -> Digest {
        count_ops(1);
        self.truncate(&framed_sha256(domain, digests.iter().map(Digest::as_bytes)))
    }

    /// Expands a digest into `out_len` pseudo-random bytes (counter-mode
    /// full-domain hash, used for RSA-FDH signature padding).
    pub fn expand(&self, seed: &[u8], out_len: usize) -> Vec<u8> {
        let blocks = out_len.div_ceil(32) as u32;
        count_ops(blocks as u64);
        let mut out = Vec::with_capacity(blocks as usize * 32);
        for c in 0..blocks {
            if 5 + seed.len() <= ONE_BLOCK_MAX {
                out.extend(sha256::one_block(&expand_block(seed, c)));
            } else {
                let mut h = Sha256::new();
                h.update(&[HashDomain::Sig as u8]);
                h.update(&c.to_le_bytes());
                h.update(seed);
                out.extend(h.finalize());
            }
        }
        out.truncate(out_len);
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Measures `f`'s hash-op count, retrying because the process-global
    /// counter can be inflated by tests hashing in parallel threads; an
    /// undisturbed trial yields the exact count. Callers are serialized so
    /// exact-count tests cannot pollute each other.
    pub(crate) fn exact_ops(expected: u64, f: impl Fn()) -> bool {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        (0..100).any(|_| {
            let before = hash_ops();
            f();
            hash_ops() - before == expected
        })
    }

    #[test]
    fn digest_lengths_respected() {
        for len in [16, 20, 32] {
            let h = Hasher::new(len);
            assert_eq!(h.hash(HashDomain::Data, b"hello").len(), len);
        }
    }

    #[test]
    fn domains_separate() {
        let h = Hasher::default();
        assert_ne!(
            h.hash(HashDomain::Value, b"x"),
            h.hash(HashDomain::Step, b"x")
        );
    }

    #[test]
    fn length_prefix_prevents_concat_ambiguity() {
        let h = Hasher::default();
        assert_ne!(
            h.hash_parts(HashDomain::Data, &[b"ab", b"c"]),
            h.hash_parts(HashDomain::Data, &[b"a", b"bc"])
        );
    }

    #[test]
    fn deterministic() {
        let h = Hasher::new(32);
        assert_eq!(
            h.hash(HashDomain::Data, b"z"),
            h.hash(HashDomain::Data, b"z")
        );
    }

    #[test]
    fn op_counter_counts() {
        let h = Hasher::default();
        let before = hash_ops();
        let _ = h.hash(HashDomain::Data, b"1");
        let _ = h.hash_digests(HashDomain::Node, &[h.hash(HashDomain::Leaf, b"2")]);
        assert!(hash_ops() >= before + 3);
    }

    #[test]
    fn triple_windows_match_singles() {
        let h = Hasher::default();
        let parts: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i; 3 + i as usize]).collect();
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        let bulk = h.hash_triple_windows(HashDomain::Link, &refs);
        assert_eq!(bulk.len(), 4);
        for (i, d) in bulk.iter().enumerate() {
            assert_eq!(
                *d,
                h.hash_parts(HashDomain::Link, &[refs[i], refs[i + 1], refs[i + 2]]),
                "window {i}"
            );
        }
    }

    /// The streaming construction of `domain | (len | part)*`.
    fn streamed(h: &Hasher, domain: HashDomain, parts: &[&[u8]]) -> Digest {
        let mut s = Sha256::new();
        s.update(&[domain as u8]);
        for p in parts {
            s.update(&(p.len() as u32).to_le_bytes());
            s.update(p);
        }
        h.truncate(&s.finalize())
    }

    #[test]
    fn framed_path_matches_streaming() {
        // Framed lengths 1 (no parts) and 5..=55 (one part) take the
        // one-block path, longer ones the streaming hasher. Lengths 2..=4
        // cannot be framed. Two- and three-part frames cross the same
        // boundary.
        let data: Vec<u8> = (0..700u32).map(|i| (i as u8).wrapping_mul(37)).collect();
        let lens = (5..=200).chain([340, 341, 613]);
        for h in [Hasher::new(16), Hasher::new(32)] {
            assert!(framed(HashDomain::Data, std::iter::empty()).is_some());
            assert_eq!(
                h.hash_parts(HashDomain::Data, &[]),
                streamed(&h, HashDomain::Data, &[])
            );
            for len in lens.clone() {
                let parts: [&[u8]; 1] = [&data[..len - 5]];
                let one_block = framed(HashDomain::Step, parts.iter().copied()).is_some();
                assert_eq!(one_block, len <= ONE_BLOCK_MAX, "len={len}");
                assert_eq!(
                    h.hash_parts(HashDomain::Step, &parts),
                    streamed(&h, HashDomain::Step, &parts),
                    "len={len}"
                );
                let split = (len - 5) / 2;
                let (x, y) = data[..len - 5].split_at(split);
                for parts in [&[x, y][..], &[x, y, &data[..3]][..]] {
                    assert_eq!(
                        h.hash_parts(HashDomain::Link, parts),
                        streamed(&h, HashDomain::Link, parts),
                        "len={len} parts={}",
                        parts.len()
                    );
                }
            }
        }
    }

    #[test]
    fn expand_counts_one_op_per_block() {
        // 128 bytes = four 32-byte counter blocks.
        let h = Hasher::default();
        assert!(exact_ops(4, || {
            assert_eq!(h.expand(b"seed", 128).len(), 128);
        }));
    }

    #[test]
    fn expand_lengths() {
        let h = Hasher::default();
        assert_eq!(h.expand(b"seed", 10).len(), 10);
        assert_eq!(h.expand(b"seed", 100).len(), 100);
        // Deterministic and prefix-consistent.
        assert_eq!(h.expand(b"seed", 100)[..10], h.expand(b"seed", 10)[..]);
    }
}
