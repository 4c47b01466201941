//! A from-scratch implementation of the SHA-256 cryptographic hash function
//! (FIPS 180-4).
//!
//! The paper treats its one-way hash `h(.)` as an abstract primitive
//! (examples given: MD5, SHA). No cryptographic crate is available in the
//! offline dependency set, so the primitive is implemented here and validated
//! against the NIST test vectors in the unit tests below.
//!
//! # Hot-path structure
//!
//! Hashing dominates the paper's owner and user cost models (`C_hash` per
//! chain step, per Merkle node, per FDH block), so the compression path is
//! engineered accordingly:
//!
//! * multi-block input is compressed **directly from the caller's slice** —
//!   no per-block copy into an intermediate buffer (only ragged head/tail
//!   bytes ever touch the internal buffer);
//! * on x86-64 CPUs with the SHA extensions, whole-block runs go through a
//!   hardware kernel built on `sha256rnds2`/`sha256msg1`/`sha256msg2`
//!   (runtime-detected once, scalar fallback everywhere else) — a ~3–5×
//!   speedup that feeds every chain, Merkle, and FDH operation above;
//! * a message of at most 55 bytes — every chain step, tagged value,
//!   Merkle node and FDH counter block — is padded into one block by its
//!   caller and compressed once from `H0` (`one_block`), with no streaming
//!   state, buffer copies or finalization.
//!
//! Callers either feed bytes incrementally through [`Sha256::update`] or use
//! the one-shot [`sha256`] helper.

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Compresses a run of whole 64-byte blocks from `data` into `state`,
/// dispatching to the hardware kernel when the CPU has one.
fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    debug_assert!(data.len().is_multiple_of(64));
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `available()` verified the sha/ssse3/sse4.1 features.
        unsafe { shani::compress_blocks(state, data) };
        return;
    }
    compress_blocks_scalar(state, data);
}

/// Longest message that fits one padded block: 64 bytes less the `0x80`
/// marker and the 8-byte bit length.
pub(crate) const ONE_BLOCK_MAX: usize = 55;

/// Writes the FIPS 180-4 padding of a `len`-byte message (`len` ≤
/// [`ONE_BLOCK_MAX`]) whose bytes sit at the front of an otherwise zeroed
/// `block`.
pub(crate) fn pad_one_block(block: &mut [u8; 64], len: usize) {
    debug_assert!(len <= ONE_BLOCK_MAX);
    block[len] = 0x80;
    block[56..].copy_from_slice(&(len as u64 * 8).to_be_bytes());
}

/// The SHA-256 digest of a message padded into one block (see
/// [`pad_one_block`]): a single compression from `H0`.
pub(crate) fn one_block(block: &[u8; 64]) -> [u8; 32] {
    let mut state = H0;
    compress_blocks(&mut state, block);
    state_bytes(&state)
}

/// The big-endian digest bytes of a final state.
fn state_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (o, w) in out.chunks_exact_mut(4).zip(state) {
        o.copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// Portable block compression (FIPS 180-4 §6.2.2), one block per iteration.
fn compress_blocks_scalar(state: &mut [u32; 8], data: &[u8]) {
    for block in data.chunks_exact(64) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// Hardware SHA-256 via the x86 SHA extensions (`sha256rnds2` executes two
/// rounds per instruction; `sha256msg1`/`sha256msg2` run the message
/// schedule). State is held in the ABEF/CDGH register split the
/// instructions expect; the prologue/epilogue shuffles translate to and
/// from the FIPS `a..h` word order.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use core::arch::x86_64::*;

    /// Whether the CPU exposes the needed extensions (detected once).
    pub fn available() -> bool {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("sha")
                && std::arch::is_x86_feature_detected!("ssse3")
                && std::arch::is_x86_feature_detected!("sse4.1")
        })
    }

    /// # Safety
    /// The `sha`, `ssse3`, and `sse4.1` CPU features must be present
    /// (guaranteed by [`available`]). `data.len()` must be a multiple of 64.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub unsafe fn compress_blocks(state: &mut [u32; 8], mut data: &[u8]) {
        // Per-32-bit-word big-endian → little-endian byte shuffle.
        let mask = _mm_set_epi64x(
            0x0c0d0e0f_08090a0b_u64 as i64,
            0x04050607_00010203_u64 as i64,
        );
        // Repack [a,b,c,d],[e,f,g,h] into ABEF / CDGH.
        let tmp = _mm_loadu_si128(state.as_ptr().cast());
        let st1 = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let tmp = _mm_shuffle_epi32(tmp, 0xB1);
        let st1 = _mm_shuffle_epi32(st1, 0x1B);
        let mut state0 = _mm_alignr_epi8(tmp, st1, 8);
        let mut state1 = _mm_blend_epi16(st1, tmp, 0xF0);

        while data.len() >= 64 {
            let abef_save = state0;
            let cdgh_save = state1;

            // Four rounds: two sha256rnds2, feeding K+W pairs low then high.
            macro_rules! qrounds {
                ($k:expr, $w:expr) => {{
                    let kw = _mm_add_epi32($w, _mm_loadu_si128(K.as_ptr().add($k).cast()));
                    state1 = _mm_sha256rnds2_epu32(state1, state0, kw);
                    let kw = _mm_shuffle_epi32(kw, 0x0E);
                    state0 = _mm_sha256rnds2_epu32(state0, state1, kw);
                }};
            }
            // Next four schedule words:
            // w0 ← msg2( msg1(w0, w1) + (w3:w2 >> 32), w3 ).
            macro_rules! sched {
                ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {{
                    let t = _mm_alignr_epi8($w3, $w2, 4);
                    $w0 = _mm_sha256msg1_epu32($w0, $w1);
                    $w0 = _mm_add_epi32($w0, t);
                    $w0 = _mm_sha256msg2_epu32($w0, $w3);
                }};
            }

            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(data.as_ptr().cast()), mask);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(data.as_ptr().add(16).cast()), mask);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(data.as_ptr().add(32).cast()), mask);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(data.as_ptr().add(48).cast()), mask);

            qrounds!(0, w0);
            qrounds!(4, w1);
            qrounds!(8, w2);
            qrounds!(12, w3);
            sched!(w0, w1, w2, w3);
            qrounds!(16, w0);
            sched!(w1, w2, w3, w0);
            qrounds!(20, w1);
            sched!(w2, w3, w0, w1);
            qrounds!(24, w2);
            sched!(w3, w0, w1, w2);
            qrounds!(28, w3);
            sched!(w0, w1, w2, w3);
            qrounds!(32, w0);
            sched!(w1, w2, w3, w0);
            qrounds!(36, w1);
            sched!(w2, w3, w0, w1);
            qrounds!(40, w2);
            sched!(w3, w0, w1, w2);
            qrounds!(44, w3);
            sched!(w0, w1, w2, w3);
            qrounds!(48, w0);
            sched!(w1, w2, w3, w0);
            qrounds!(52, w1);
            sched!(w2, w3, w0, w1);
            qrounds!(56, w2);
            sched!(w3, w0, w1, w2);
            qrounds!(60, w3);

            state0 = _mm_add_epi32(state0, abef_save);
            state1 = _mm_add_epi32(state1, cdgh_save);
            data = &data[64..];
        }

        // Unpack ABEF / CDGH back to [a,b,c,d],[e,f,g,h].
        let tmp = _mm_shuffle_epi32(state0, 0x1B);
        let st1 = _mm_shuffle_epi32(state1, 0xB1);
        let abcd = _mm_blend_epi16(tmp, st1, 0xF0);
        let efgh = _mm_alignr_epi8(st1, tmp, 8);
        _mm_storeu_si128(state.as_mut_ptr().cast(), abcd);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), efgh);
    }
}

/// Streaming SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total number of message bytes consumed so far.
    len: u64,
    /// Partially filled block.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hash state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state. Whole 64-byte blocks are
    /// compressed straight from `data`; only ragged edges are buffered.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress_blocks(&mut self.state, &block);
                self.buf_len = 0;
            }
        }
        let whole = rest.len() & !63;
        if whole > 0 {
            compress_blocks(&mut self.state, &rest[..whole]);
            rest = &rest[whole..];
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finalizes the hash, returning the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        // Append the 0x80 terminator, zero padding, and the 64-bit length.
        self.update_padding();
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        compress_blocks(&mut self.state, &block);
        state_bytes(&self.state)
    }

    /// Writes the 0x80 marker and zeroes, compressing once if the length
    /// field does not fit in the current block.
    fn update_padding(&mut self) {
        self.buf[self.buf_len] = 0x80;
        for b in &mut self.buf[self.buf_len + 1..] {
            *b = 0;
        }
        if self.buf_len >= 56 {
            let block = self.buf;
            compress_blocks(&mut self.state, &block);
            self.buf = [0u8; 64];
        }
        self.buf_len = 0;
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // NIST / FIPS 180-4 and commonly published reference vectors.

    #[test]
    fn empty_message() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn one_million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn quick_brown_fox() {
        assert_eq!(
            hex(&sha256(b"The quick brown fox jumps over the lazy dog")),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"
        );
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..1000u32).flat_map(|x| x.to_le_bytes()).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 127, 500] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn padding_boundaries() {
        // Exercise message lengths around the 56-byte padding boundary.
        for len in 50..=70usize {
            let msg = vec![0xabu8; len];
            let d1 = sha256(&msg);
            let mut h = Sha256::new();
            h.update(&msg[..len / 2]);
            h.update(&msg[len / 2..]);
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn scalar_matches_dispatched_kernel() {
        // Differential check of whichever kernel `compress_blocks` picked
        // (SHA-NI where present) against the portable implementation, over
        // 1..8-block runs of non-trivial data.
        for blocks in 1..=8usize {
            let data: Vec<u8> = (0..blocks * 64)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
                .collect();
            let mut fast = H0;
            let mut scalar = H0;
            compress_blocks(&mut fast, &data);
            compress_blocks_scalar(&mut scalar, &data);
            assert_eq!(fast, scalar, "blocks={blocks}");
        }
    }

    /// A padded one-block message of `len` bytes derived from `seed`.
    fn padded(len: usize, seed: u8) -> [u8; 64] {
        let mut block = [0u8; 64];
        for (i, b) in block[..len].iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(seed).wrapping_add(seed);
        }
        pad_one_block(&mut block, len);
        block
    }

    #[test]
    fn one_block_matches_streaming_up_to_55_bytes() {
        for len in 0..=ONE_BLOCK_MAX {
            let block = padded(len, 7);
            assert_eq!(one_block(&block), sha256(&block[..len]), "len={len}");
        }
    }
}
