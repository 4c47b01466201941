//! Property-based tests for the cryptographic substrate: algebraic laws of
//! the big-integer arithmetic, Merkle tree soundness, chain composition,
//! and signature scheme round-trips.

use adp_crypto::bigint::{is_probable_prime, BigUint};
use adp_crypto::sha256::Sha256;
use adp_crypto::{
    chain_extend, chain_from_value, chain_points, hasher::HashDomain, root_from_mixed,
    root_from_range, verify_inclusion, AggregateSignature, Hasher, Keypair, MerkleTree, MixedLeaf,
    MontgomeryCtx,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

fn keypair() -> &'static Keypair {
    static K: OnceLock<Keypair> = OnceLock::new();
    K.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x9909);
        Keypair::generate(512, &mut rng)
    })
}

/// Checks `chain_points` against one `chain_from_value` per point.
fn assert_points_match<const K: usize>(h: &Hasher, value: &[u8], chains: &[(u32, [u64; K])]) {
    let bulk = chain_points(h, value, chains);
    assert_eq!(bulk.len(), chains.len());
    for (points, &(pos, steps)) in bulk.iter().zip(chains) {
        for (d, &s) in points.iter().zip(&steps) {
            assert_eq!(
                *d,
                chain_from_value(h, value, pos, s),
                "tag {pos:#x} step {s}"
            );
        }
    }
}

#[test]
fn chain_points_match_singles_at_every_count() {
    // Every chain count up to 20, with uneven targets, at both ends of the
    // digest-length range. A 60-byte value is too long for its tagged
    // message to fit one block and takes the streaming path.
    let long = [0xa5u8; 60];
    for (h, value) in [
        (Hasher::new(16), &b"chain-value"[..]),
        (Hasher::new(32), &b"chain-value"[..]),
        (Hasher::new(16), &long[..]),
    ] {
        for count in 0..=20u32 {
            let target = |i: u32| u64::from((i * 7 + count) % 13 + (i % 2) * 3 * (count % 3));
            let k1: Vec<(u32, [u64; 1])> = (0..count).map(|i| (i, [target(i)])).collect();
            let k3: Vec<(u32, [u64; 3])> = (0..count)
                .map(|i| (0x8000_0000 | i, [target(i), 0, target(i + 1) / 2]))
                .collect();
            assert_points_match(&h, value, &k1);
            assert_points_match(&h, value, &k3);
        }
    }
}

/// The FDH expansion as one streaming hash per counter, the construction
/// `Hasher::expand` has always computed (its op counting omitted).
fn expand_reference(seed: &[u8], out_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(out_len);
    let mut counter = 0u32;
    while out.len() < out_len {
        let mut h = Sha256::new();
        h.update(&[HashDomain::Sig as u8]);
        h.update(&counter.to_le_bytes());
        h.update(seed);
        let block = h.finalize();
        let take = (out_len - out.len()).min(block.len());
        out.extend_from_slice(&block[..take]);
        counter += 1;
    }
    out
}

#[test]
fn expand_matches_per_counter_reference() {
    // 16- and 32-byte seeds take the one-block path; a 60-byte seed does
    // not fit a block and streams.
    let h = Hasher::default();
    for seed in [&[0x11u8; 16][..], &[0x22u8; 32][..], &[0x33u8; 60][..]] {
        for n in 1..=300 {
            assert_eq!(
                h.expand(seed, n),
                expand_reference(seed, n),
                "seed {} n {n}",
                seed.len()
            );
        }
    }
}

prop_compose! {
    fn arb_biguint()(bytes in prop::collection::vec(any::<u8>(), 0..40)) -> BigUint {
        BigUint::from_bytes_be(&bytes)
    }
}

/// Limb widths straddling the fixed-width Montgomery kernels: the 8- and
/// 16-limb fast paths plus one limb on either side of each.
const BOUNDARY_LIMBS: [usize; 6] = [7, 8, 9, 15, 16, 17];

/// A Montgomery context over a random odd modulus of exactly
/// `BOUNDARY_LIMBS[widx]` limbs (`extra` scatters the bit length within
/// the top limb), plus the modulus and the RNG for operand generation.
fn boundary_ctx(widx: usize, extra: usize, seed: u64) -> (MontgomeryCtx, BigUint, StdRng) {
    let limbs = BOUNDARY_LIMBS[widx];
    let bits = (limbs - 1) * 64 + 1 + (extra % 64);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = BigUint::random_bits(&mut rng, bits);
    if m.is_even() {
        m = m.add(&BigUint::one());
    }
    let ctx = MontgomeryCtx::new(&m).expect("odd modulus > 1");
    (ctx, m, rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- BigUint ring laws ----------------

    #[test]
    fn add_commutes(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn add_associates(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
    }

    #[test]
    fn mul_commutes(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(a.mul(&b), b.mul(&a));
    }

    #[test]
    fn mul_distributes(a in arb_biguint(), b in arb_biguint(), c in arb_biguint()) {
        prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn sub_inverts_add(a in arb_biguint(), b in arb_biguint()) {
        prop_assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn div_rem_reconstructs(a in arb_biguint(), b in arb_biguint()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(q.mul(&b).add(&r), a);
    }

    #[test]
    fn shifts_roundtrip(a in arb_biguint(), s in 0usize..200) {
        prop_assert_eq!(a.shl(s).shr(s), a);
    }

    #[test]
    fn bytes_roundtrip(a in arb_biguint()) {
        prop_assert_eq!(BigUint::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn hex_roundtrip(a in arb_biguint()) {
        prop_assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn mod_pow_multiplicative(a in arb_biguint(), b in arb_biguint(), m in arb_biguint()) {
        prop_assume!(m > BigUint::one());
        // (a*b)^2 == a^2 * b^2 (mod m)
        let two = BigUint::from_u64(2);
        let lhs = a.mul(&b).mod_pow(&two, &m);
        let rhs = a.mod_pow(&two, &m).mul_mod(&b.mod_pow(&two, &m), &m);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn mod_inverse_is_inverse(a in arb_biguint(), m in arb_biguint()) {
        prop_assume!(m > BigUint::one());
        if let Some(inv) = a.mod_inverse(&m) {
            prop_assert_eq!(a.mul_mod(&inv, &m), BigUint::one());
        }
    }

    #[test]
    fn gcd_divides_both(a in arb_biguint(), b in arb_biguint()) {
        prop_assume!(!a.is_zero() && !b.is_zero());
        let g = a.gcd(&b);
        prop_assert!(a.rem(&g).is_zero());
        prop_assert!(b.rem(&g).is_zero());
    }

    #[test]
    fn primes_pass_fermat(seed in any::<u64>()) {
        // For random 64-bit odd numbers that Miller-Rabin accepts, Fermat's
        // little theorem must hold for a few bases.
        let mut rng = StdRng::seed_from_u64(seed);
        let candidate = BigUint::from_u64(rand::Rng::gen_range(&mut rng, 3u64..u64::MAX) | 1);
        if is_probable_prime(&candidate, 16, &mut rng) {
            for base in [2u64, 3, 5, 7] {
                let b = BigUint::from_u64(base);
                let exp = candidate.sub(&BigUint::one());
                prop_assert_eq!(b.mod_pow(&exp, &candidate), BigUint::one());
            }
        }
    }

    // ---------------- Merkle trees ----------------

    #[test]
    fn inclusion_proofs_sound(n in 1usize..50, idx in 0usize..50) {
        let h = Hasher::default();
        let leaves: Vec<_> = (0..n).map(|i| h.hash(HashDomain::Leaf, &(i as u64).to_le_bytes())).collect();
        let tree = MerkleTree::build(h, leaves.clone());
        let idx = idx % n;
        let proof = tree.prove(idx);
        prop_assert_eq!(verify_inclusion(&h, leaves[idx], &proof), tree.root());
        // A different leaf with the same proof must fail.
        if n > 1 {
            let other = (idx + 1) % n;
            prop_assert_ne!(verify_inclusion(&h, leaves[other], &proof), tree.root());
        }
    }

    #[test]
    fn range_proofs_sound(n in 1usize..40, lo in 0usize..40, len in 1usize..10) {
        let h = Hasher::default();
        let leaves: Vec<_> = (0..n).map(|i| h.hash(HashDomain::Leaf, &(i as u64).to_le_bytes())).collect();
        let tree = MerkleTree::build(h, leaves.clone());
        let lo = lo % n;
        let hi = (lo + len - 1).min(n - 1);
        let fringe = tree.prove_range(lo, hi);
        let root = root_from_range(&h, n, lo, &leaves[lo..=hi], &fringe);
        prop_assert_eq!(root, Some(tree.root()));
    }

    #[test]
    fn mixed_roots_agree_with_plain(n in 1usize..20, mask in any::<u32>()) {
        let h = Hasher::default();
        let values: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; (i % 5) + 1]).collect();
        let refs: Vec<&[u8]> = values.iter().map(|v| v.as_slice()).collect();
        let tree = MerkleTree::from_values(h, &refs);
        let mixed: Vec<MixedLeaf> = refs.iter().enumerate().map(|(i, v)| {
            if mask >> (i % 32) & 1 == 1 {
                MixedLeaf::Digest(h.hash(HashDomain::Leaf, v))
            } else {
                MixedLeaf::Value(v)
            }
        }).collect();
        prop_assert_eq!(root_from_mixed(&h, &mixed), tree.root());
    }

    // ---------------- Montgomery differential suite ----------------
    //
    // The 8- and 16-limb operand widths take dedicated fixed-width CIOS
    // kernels (512/1024 bits: the CRT halves and full moduli); everything
    // else runs the generic loop. Each law below therefore samples limb
    // counts straddling those fast-path boundaries (7/8/9 and 15/16/17)
    // and checks the Montgomery result against the division-based
    // reference arithmetic bit for bit.

    #[test]
    fn mont_mul_matches_mul_mod(widx in 0usize..6, extra in 0usize..64, seed in any::<u64>()) {
        let (ctx, m, mut rng) = boundary_ctx(widx, extra, seed);
        let a = BigUint::random_below(&mut rng, &m);
        let b = BigUint::random_below(&mut rng, &m);
        prop_assert_eq!(ctx.mul_mod(&a, &b), a.mul_mod(&b, &m));
    }

    #[test]
    fn mont_sqr_matches_mul_mod(widx in 0usize..6, extra in 0usize..64, seed in any::<u64>()) {
        let (ctx, m, mut rng) = boundary_ctx(widx, extra, seed);
        let a = BigUint::random_below(&mut rng, &m);
        prop_assert_eq!(ctx.sqr_mod(&a), a.mul_mod(&a, &m));
    }

    #[test]
    fn mont_mod_pow_matches_plain(
        widx in 0usize..6,
        extra in 0usize..64,
        exp_bits in 1usize..224,
        seed in any::<u64>(),
    ) {
        // exp_bits spans every sliding-window width the ladder selects.
        let (ctx, m, mut rng) = boundary_ctx(widx, extra, seed);
        let base = BigUint::random_below(&mut rng, &m);
        let exp = BigUint::random_bits(&mut rng, exp_bits);
        prop_assert_eq!(ctx.mod_pow(&base, &exp), base.mod_pow_plain(&exp, &m));
    }

    #[test]
    fn mont_mod_pow_degenerate_exponents(widx in 0usize..6, extra in 0usize..64, seed in any::<u64>()) {
        let (ctx, m, mut rng) = boundary_ctx(widx, extra, seed);
        let base = BigUint::random_below(&mut rng, &m);
        prop_assert_eq!(ctx.mod_pow(&base, &BigUint::zero()), BigUint::one());
        prop_assert_eq!(ctx.mod_pow(&base, &BigUint::one()), base.rem(&m));
        // Unreduced base: the kernel must reduce before entering the domain.
        let big_base = base.add(&m);
        let exp = BigUint::from_u64(3);
        prop_assert_eq!(ctx.mod_pow(&big_base, &exp), base.mod_pow_plain(&exp, &m));
    }

    #[test]
    fn mont_product_matches_fold(
        widx in 0usize..6,
        count in 0usize..10,
        extra in 0usize..64,
        seed in any::<u64>(),
    ) {
        let (ctx, m, mut rng) = boundary_ctx(widx, extra, seed);
        let factors: Vec<BigUint> =
            (0..count).map(|_| BigUint::random_below(&mut rng, &m)).collect();
        let expected = factors.iter().fold(BigUint::one(), |acc, f| acc.mul_mod(f, &m));
        prop_assert_eq!(ctx.product_mod(factors.iter()), expected);
    }

    // ---------------- Chains ----------------

    #[test]
    fn chain_extension_composes(a in 0u64..200, b in 0u64..200, tag in any::<u32>()) {
        let h = Hasher::default();
        let part = chain_from_value(&h, b"v", tag, a);
        prop_assert_eq!(chain_extend(&h, part, b), chain_from_value(&h, b"v", tag, a + b));
    }

    #[test]
    fn chain_points_agree_with_singles(
        chains in prop::collection::vec((any::<u32>(), 0u64..30, 0u64..30, 0u64..30), 0..21),
        wide in any::<bool>(),
    ) {
        let h = Hasher::new(if wide { 32 } else { 16 });
        let chains: Vec<(u32, [u64; 3])> = chains.iter().map(|&(t, a, b, c)| (t, [a, b, c])).collect();
        let bulk = chain_points(&h, b"prop-value", &chains);
        prop_assert_eq!(bulk.len(), chains.len());
        for (points, &(pos, steps)) in bulk.iter().zip(&chains) {
            for (d, &st) in points.iter().zip(&steps) {
                prop_assert_eq!(*d, chain_from_value(&h, b"prop-value", pos, st));
            }
        }
    }

    #[test]
    fn chains_injective_over_steps(a in 0u64..100, b in 0u64..100) {
        prop_assume!(a != b);
        let h = Hasher::default();
        prop_assert_ne!(
            chain_from_value(&h, b"v", 0, a),
            chain_from_value(&h, b"v", 0, b)
        );
    }

    // ---------------- Signatures ----------------

    #[test]
    fn sign_verify_roundtrip(msg in prop::collection::vec(any::<u8>(), 0..100)) {
        let h = Hasher::default();
        let kp = keypair();
        let d = h.hash(HashDomain::Data, &msg);
        let sig = kp.sign(&h, &d);
        prop_assert!(kp.public().verify(&h, &d, &sig));
    }

    #[test]
    fn aggregates_verify_and_reject_subsets(count in 1usize..8) {
        let h = Hasher::default();
        let kp = keypair();
        let digests: Vec<_> = (0..count).map(|i| h.hash(HashDomain::Data, &[i as u8])).collect();
        let sigs: Vec<_> = digests.iter().map(|d| kp.sign(&h, d)).collect();
        let refs: Vec<_> = sigs.iter().collect();
        let agg = AggregateSignature::combine(kp.public(), &refs);
        prop_assert!(agg.verify(&h, kp.public(), &digests));
        if count > 1 {
            prop_assert!(!agg.verify(&h, kp.public(), &digests[..count - 1]));
        }
    }
}
