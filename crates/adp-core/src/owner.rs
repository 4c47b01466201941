//! The data owner (Figure 3): signs tables, maintains them under updates.
//!
//! For a table sorted on `K` the owner inserts the two delimiters
//! (Section 3.1), computes `g(r)` for every entry (formula (3), Figure 7)
//! and signs each chain link `h(g(r_{i-1}) | g(r_i) | g(r_{i+1}))`
//! (formula (1)), with the domain edge anchors `h(L)` / `h(U)` flanking the
//! delimiters.
//!
//! Updates have the locality the paper highlights in Section 6.3: an
//! insert/delete/modify recomputes **three (or two) signatures** — the
//! record's own and its immediate neighbours' — instead of a root path of
//! digests as in Merkle-tree schemes. Signatures are additionally stored in
//! a [`BPlusTree`] keyed by `(K, replica)`; its node-visit counters feed
//! the `sec63_updates` experiment.

use crate::domain::Domain;
use crate::gdigest::{
    attr_tree, direction_commitment, edge_digest, g_of_delimiter, link_digests_run, Direction,
    GDigest,
};
use crate::repr::Radix;
use crate::scheme::SchemeConfig;
use adp_crypto::{Digest, Hasher, Keypair, PublicKey, Signature};
use adp_relation::{BPlusTree, Record, Schema, SchemaError, Table};
use rand::RngCore;
use std::fmt;

/// Errors raised by owner operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OwnerError {
    /// A key value lies outside the legal key interval `[L+2, U-2]`.
    KeyOutOfDomain { key: i64 },
    /// The record does not match the table schema.
    Schema(SchemaError),
    /// The `(key, replica)` pair does not exist.
    NoSuchRecord { key: i64, replica: u32 },
    /// A dissemination payload carried the wrong number of signatures for
    /// the table (`n + 2` expected).
    SignatureCount { expected: usize, got: usize },
    /// A batch [`Mutation::Update`] changed the key attribute without being
    /// decomposed into delete + insert (only [`Owner::apply_batch`]
    /// canonicalizes; replayed logs must already be canonical).
    UpdateChangesKey { key: i64, new_key: i64 },
    /// A replayed batch's re-signed positions disagree with the chain
    /// positions the mutations actually dirtied.
    ResignSetMismatch { expected: usize, got: usize },
    /// A replayed signature failed verification against the recomputed link
    /// digest — the log record was tampered with or corrupted.
    ResignatureInvalid { chain_pos: usize },
}

impl fmt::Display for OwnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OwnerError::KeyOutOfDomain { key } => {
                write!(f, "key {key} outside the domain's legal key interval")
            }
            OwnerError::Schema(e) => write!(f, "schema violation: {e}"),
            OwnerError::NoSuchRecord { key, replica } => {
                write!(f, "no record with key {key}, replica {replica}")
            }
            OwnerError::SignatureCount { expected, got } => {
                write!(f, "expected {expected} signatures for the table, got {got}")
            }
            OwnerError::UpdateChangesKey { key, new_key } => {
                write!(
                    f,
                    "batch update changes the key attribute ({key} -> {new_key}); \
                     canonical batches decompose key changes into delete + insert"
                )
            }
            OwnerError::ResignSetMismatch { expected, got } => {
                write!(
                    f,
                    "replayed batch re-signs the wrong positions: \
                     {expected} dirtied, {got} provided"
                )
            }
            OwnerError::ResignatureInvalid { chain_pos } => {
                write!(
                    f,
                    "replayed signature at chain position {chain_pos} does not \
                     verify against the recomputed link digest"
                )
            }
        }
    }
}

impl std::error::Error for OwnerError {}

impl From<SchemaError> for OwnerError {
    fn from(e: SchemaError) -> Self {
        OwnerError::Schema(e)
    }
}

/// What the owner publishes for users (over an authenticated channel, e.g.
/// a public-key certificate): everything needed to verify results.
#[derive(Clone, Debug)]
pub struct Certificate {
    pub table_name: String,
    pub schema: Schema,
    pub domain: Domain,
    pub config: SchemeConfig,
    pub public_key: PublicKey,
}

/// Per-chain-position authentication material.
#[derive(Clone, Debug)]
pub struct SignedEntry {
    /// The `g` triple of this entry.
    pub g: GDigest,
    /// Optimized mode: the rep-MHT roots (up, down) the publisher hands to
    /// users for Figure-8b entry verification.
    pub roots: Option<(Digest, Digest)>,
    /// `sig(r_i)` over the link digest.
    pub signature: Signature,
}

/// `g` and (optimized mode) rep-MHT roots of one chain position.
type Material = (GDigest, Option<(Digest, Digest)>);

/// Cost accounting for one update operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateReport {
    /// Signatures recomputed: 3 for insert/modify, 2 for delete, and for a
    /// key-moving update the distinct positions of both neighbourhoods
    /// (5 when they do not overlap).
    pub signatures_recomputed: usize,
    /// `g` digests recomputed (1 for insert/modify, 0 for delete).
    pub g_recomputed: usize,
    /// Leaf nodes of the signature B+-tree touched.
    pub index_leaves_touched: u64,
    /// Total B+-tree nodes touched.
    pub index_nodes_touched: u64,
}

/// One owner-side mutation of a signed table, as carried in an ingest
/// batch and in `adp-store` update-log records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Insert a new record (replica assigned automatically).
    Insert(Record),
    /// Delete the record identified by `(key, replica)`.
    Delete {
        /// Key attribute value.
        key: i64,
        /// Replica disambiguator.
        replica: u32,
    },
    /// Replace the non-key attributes of `(key, replica)`. A replacement
    /// record with a *different* key is decomposed by
    /// [`Owner::apply_batch`] into delete + insert.
    Update {
        /// Key attribute value of the record being replaced.
        key: i64,
        /// Replica disambiguator.
        replica: u32,
        /// The replacement record.
        record: Record,
    },
}

/// Outcome of [`Owner::apply_batch`]: the canonicalized mutations as
/// applied plus the signatures recomputed for the affected chain
/// neighborhoods — exactly what an update-log record must carry so a
/// publisher can replay the batch without the signing key.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// The mutations in canonical application order (deletes, then
    /// in-place updates, then inserts, each sorted by key). Log these, not
    /// the caller's original vector.
    pub ops: Vec<Mutation>,
    /// `(chain position, new signature)` for every re-signed position, in
    /// chain order. Positions refer to the post-batch chain.
    pub resigned: Vec<(u32, Signature)>,
    /// Signatures recomputed — `O(k)` neighborhoods, never `O(n)`.
    pub signatures_recomputed: usize,
    /// `g` digests recomputed (one per insert/update).
    pub g_recomputed: usize,
}

/// A table signed for publishing: data + signature chain + signature index.
///
/// Cloning copies the table, the chain entries, and the signature index —
/// no cryptography is redone. `adp-store` and the live-reloading server
/// clone a signed table to stage a batch before atomically swapping it in.
#[derive(Clone, Debug)]
pub struct SignedTable {
    table: Table,
    domain: Domain,
    config: SchemeConfig,
    hasher: Hasher,
    radix: Option<Radix>,
    /// Chain positions `0..=n+1`; position 0 and n+1 are the delimiters.
    entries: Vec<SignedEntry>,
    /// Signatures keyed by `(K, replica)` in B+-tree leaves (Section 6.3).
    sig_index: BPlusTree<Signature>,
    public_key: PublicKey,
}

impl SignedTable {
    /// The underlying table (real records only).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The key domain.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The scheme configuration.
    pub fn config(&self) -> &SchemeConfig {
        &self.config
    }

    /// The hasher.
    pub fn hasher(&self) -> &Hasher {
        &self.hasher
    }

    /// The radix (None in conceptual mode).
    pub fn radix(&self) -> Option<&Radix> {
        self.radix.as_ref()
    }

    /// Number of real records `n`.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table has no real records.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Chain entry at position `0..=n+1`.
    pub fn entry(&self, chain_pos: usize) -> &SignedEntry {
        &self.entries[chain_pos]
    }

    /// Number of chain positions (`n + 2`).
    pub fn chain_len(&self) -> usize {
        self.entries.len()
    }

    /// Key at a chain position (delimiters included).
    pub fn key_at(&self, chain_pos: usize) -> i64 {
        if chain_pos == 0 {
            self.domain.left_delimiter()
        } else if chain_pos == self.entries.len() - 1 {
            self.domain.right_delimiter()
        } else {
            self.table
                .row(chain_pos - 1)
                .record
                .key(self.table.schema())
        }
    }

    /// `(key, replica)` at a chain position.
    pub fn tree_key_at(&self, chain_pos: usize) -> (i64, u32) {
        if chain_pos == 0 {
            (self.domain.left_delimiter(), 0)
        } else if chain_pos == self.entries.len() - 1 {
            (self.domain.right_delimiter(), 0)
        } else {
            let row = self.table.row(chain_pos - 1);
            (row.record.key(self.table.schema()), row.replica)
        }
    }

    /// The signature B+-tree (for instrumentation).
    pub fn sig_index(&self) -> &BPlusTree<Signature> {
        &self.sig_index
    }

    /// The owner's public key.
    pub fn public_key(&self) -> &PublicKey {
        &self.public_key
    }

    /// Bytes of authentication material the owner ships to the publisher:
    /// `n + 2` signatures (everything else is recomputable from the data).
    pub fn dissemination_size(&self) -> usize {
        self.entries.iter().map(|e| e.signature.byte_len()).sum()
    }

    /// The raw `g` bytes at a chain position (used by the publisher as
    /// opaque neighbour context).
    pub fn g_bytes(&self, chain_pos: usize) -> Vec<u8> {
        self.entries[chain_pos].g.to_bytes()
    }

    /// Internal consistency check: every stored signature verifies against
    /// the recomputed link digest. `O(n)` signature verifications, split
    /// across cores like [`Owner::sign_table`]'s signing; a publisher runs
    /// it before serving a table rebuilt by [`SignedTable::from_parts`].
    pub fn audit(&self) -> bool {
        let len = self.entries.len();
        let all: Vec<usize> = (0..len).collect();
        let links = links_for(
            &self.hasher,
            &self.domain,
            len,
            |p| &self.entries[p].g,
            &all,
        );
        par_chain(len, |p| {
            self.public_key
                .verify(&self.hasher, &links[p], &self.entries[p].signature)
        })
        .into_iter()
        .all(|ok| ok)
    }

    /// Current chain position of a `(key, replica)` tree key (delimiters
    /// included), or `None` if it no longer exists.
    fn chain_pos_of(&self, tree_key: (i64, u32)) -> Option<usize> {
        if tree_key == (self.domain.left_delimiter(), 0) {
            return Some(0);
        }
        if tree_key == (self.domain.right_delimiter(), 0) {
            return Some(self.entries.len() - 1);
        }
        self.table
            .position_of(tree_key.0, tree_key.1)
            .map(|p| p + 1)
    }

    /// Schema-validates every record carried by the batch (must run before
    /// anything extracts a key from a record).
    fn prevalidate_records(&self, ops: &[Mutation]) -> Result<(), OwnerError> {
        let schema = self.table.schema();
        for op in ops {
            match op {
                Mutation::Insert(record) | Mutation::Update { record, .. } => {
                    schema.validate(record.values())?;
                }
                Mutation::Delete { .. } => {}
            }
        }
        Ok(())
    }

    /// Validates a (canonical-order) batch against the pre-batch state so
    /// staging cannot fail halfway: keys in domain, delete/update targets
    /// present exactly once, no key-changing updates.
    fn validate_batch(&self, ops: &[Mutation]) -> Result<(), OwnerError> {
        let schema = self.table.schema();
        let mut removed: std::collections::BTreeSet<(i64, u32)> = std::collections::BTreeSet::new();
        for op in ops {
            match op {
                Mutation::Insert(record) => {
                    let key = record.key(schema);
                    if !self.domain.contains_key(key) {
                        return Err(OwnerError::KeyOutOfDomain { key });
                    }
                }
                Mutation::Delete { key, replica } => {
                    if self.table.position_of(*key, *replica).is_none()
                        || !removed.insert((*key, *replica))
                    {
                        return Err(OwnerError::NoSuchRecord {
                            key: *key,
                            replica: *replica,
                        });
                    }
                }
                Mutation::Update {
                    key,
                    replica,
                    record,
                } => {
                    let new_key = record.key(schema);
                    if new_key != *key {
                        return Err(OwnerError::UpdateChangesKey { key: *key, new_key });
                    }
                    if self.table.position_of(*key, *replica).is_none()
                        || removed.contains(&(*key, *replica))
                    {
                        return Err(OwnerError::NoSuchRecord {
                            key: *key,
                            replica: *replica,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies the structural half of a batch — table rows, chain entries,
    /// fresh `g` digests (signatures untouched except placeholders for
    /// inserts) — and returns `(dirty chain positions, g recomputed)`.
    /// Dirty positions are tracked by `(key, replica)` identity so earlier
    /// mutations stay correct as later ones shift positions.
    fn stage_batch(&mut self, ops: &[Mutation]) -> Result<(Vec<usize>, usize), OwnerError> {
        let mut dirty: std::collections::BTreeSet<(i64, u32)> = std::collections::BTreeSet::new();
        let mut g_recomputed = 0usize;
        for op in ops {
            match op {
                Mutation::Insert(record) => {
                    let (g, roots) = materialize_record(
                        &self.hasher,
                        &self.config,
                        self.radix.as_ref(),
                        &self.domain,
                        self.table.schema(),
                        record,
                    );
                    g_recomputed += 1;
                    let pos = self.table.insert(record.clone())?;
                    let cp = pos + 1;
                    // Placeholder replaced when the position is re-signed.
                    let placeholder = self.entries[0].signature.clone();
                    self.entries.insert(
                        cp,
                        SignedEntry {
                            g,
                            roots,
                            signature: placeholder,
                        },
                    );
                    for p in [cp - 1, cp, cp + 1] {
                        dirty.insert(self.tree_key_at(p));
                    }
                }
                Mutation::Delete { key, replica } => {
                    let Some(pos) = self.table.position_of(*key, *replica) else {
                        return Err(OwnerError::NoSuchRecord {
                            key: *key,
                            replica: *replica,
                        });
                    };
                    self.table.remove_at(pos);
                    let cp = pos + 1;
                    self.entries.remove(cp);
                    self.sig_index.remove((*key, *replica));
                    dirty.remove(&(*key, *replica));
                    dirty.insert(self.tree_key_at(cp - 1));
                    dirty.insert(self.tree_key_at(cp));
                }
                Mutation::Update {
                    key,
                    replica,
                    record,
                } => {
                    let Some(pos) = self.table.position_of(*key, *replica) else {
                        return Err(OwnerError::NoSuchRecord {
                            key: *key,
                            replica: *replica,
                        });
                    };
                    let (g, roots) = materialize_record(
                        &self.hasher,
                        &self.config,
                        self.radix.as_ref(),
                        &self.domain,
                        self.table.schema(),
                        record,
                    );
                    g_recomputed += 1;
                    self.table.update_in_place(pos, record.clone())?;
                    let cp = pos + 1;
                    self.entries[cp].g = g;
                    self.entries[cp].roots = roots;
                    for p in [cp - 1, cp, cp + 1] {
                        dirty.insert(self.tree_key_at(p));
                    }
                }
            }
        }
        let mut positions: Vec<usize> = dirty
            .iter()
            .filter_map(|&tk| self.chain_pos_of(tk))
            .collect();
        positions.sort_unstable();
        Ok((positions, g_recomputed))
    }

    /// Publisher-side batch application: replays a logged batch *without
    /// the signing key*, splicing in the owner-provided signatures after
    /// verifying each against the link digest recomputed from local state.
    /// A tampered log record — flipped payload bytes, a forged signature,
    /// a wrong position set — is rejected with a typed error.
    ///
    /// `ops` must be in canonical order (as emitted by
    /// [`Owner::apply_batch`]); `resigned` must list `(chain position,
    /// signature)` in chain order for exactly the dirtied positions.
    ///
    /// On error the table may be partially mutated: replay into a clone
    /// and swap on success (as `adp-store` does).
    pub fn replay_batch(
        &mut self,
        ops: &[Mutation],
        resigned: &[(u32, Signature)],
    ) -> Result<(), OwnerError> {
        self.prevalidate_records(ops)?;
        self.validate_batch(ops)?;
        let (positions, _) = self.stage_batch(ops)?;
        if resigned.len() != positions.len()
            || resigned
                .iter()
                .zip(&positions)
                .any(|((p, _), &want)| *p as usize != want)
        {
            return Err(OwnerError::ResignSetMismatch {
                expected: positions.len(),
                got: resigned.len(),
            });
        }
        let links = links_for(
            &self.hasher,
            &self.domain,
            self.entries.len(),
            |p| &self.entries[p].g,
            &positions,
        );
        for ((pos, sig), link) in resigned.iter().zip(&links) {
            if !self.public_key.verify(&self.hasher, link, sig) {
                return Err(OwnerError::ResignatureInvalid {
                    chain_pos: *pos as usize,
                });
            }
        }
        for (pos, sig) in resigned {
            let pos = *pos as usize;
            self.entries[pos].signature = sig.clone();
            self.sig_index.insert(self.tree_key_at(pos), sig.clone());
        }
        Ok(())
    }
}

/// The data owner: holds the signing keypair.
pub struct Owner {
    keypair: Keypair,
}

impl SignedTable {
    /// Publisher-side reconstruction from disseminated parts: the owner
    /// ships only the data and the `n + 2` signatures (Figure 3), and the
    /// publisher recomputes every `g`, rep-root and link digest itself with
    /// the same parallel kernel [`Owner::sign_table`] uses.
    ///
    /// `signatures` must cover chain positions `0..=n+1` in order, and every
    /// key must lie in the domain. The signatures themselves are **not**
    /// checked here: a caller about to serve the table must run
    /// [`SignedTable::audit`] first, since a publisher should not serve
    /// data it cannot prove.
    pub fn from_parts(
        table: Table,
        domain: Domain,
        config: SchemeConfig,
        signatures: Vec<Signature>,
        public_key: PublicKey,
    ) -> Result<Self, OwnerError> {
        let expected = table.len() + 2;
        if signatures.len() != expected {
            return Err(OwnerError::SignatureCount {
                expected,
                got: signatures.len(),
            });
        }
        let materials = materialize_chain(&table, &domain, &config)?;
        Ok(SignedTable::assemble(
            table, domain, config, materials, signatures, public_key,
        ))
    }

    /// Builds a signed table from its chain materials and signatures
    /// (positions `0..=n+1`) and fills the signature B+-tree.
    fn assemble(
        table: Table,
        domain: Domain,
        config: SchemeConfig,
        materials: Vec<Material>,
        signatures: Vec<Signature>,
        public_key: PublicKey,
    ) -> Self {
        let entries: Vec<SignedEntry> = materials
            .into_iter()
            .zip(signatures)
            .map(|((g, roots), signature)| SignedEntry {
                g,
                roots,
                signature,
            })
            .collect();
        let mut st = SignedTable {
            table,
            domain,
            config,
            hasher: config.hasher(),
            radix: config.radix(&domain),
            entries,
            sig_index: BPlusTree::new(64),
            public_key,
        };
        for pos in 0..st.entries.len() {
            let signature = st.entries[pos].signature.clone();
            st.sig_index.insert(st.tree_key_at(pos), signature);
        }
        st
    }
}

/// Computes `f(pos)` for every chain position in `0..len` (`len >= 1`) on
/// `available_parallelism().min(len)` scoped threads, each owning one
/// contiguous chunk; results come back in chain order. Whole-chain work —
/// materializing, signing and auditing — shares this split; per-batch
/// `O(k)` work stays serial.
fn par_chain<T: Send>(len: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(len);
    let chunk = len.div_ceil(threads);
    let mut out: Vec<Option<T>> = (0..len).map(|_| None).collect();
    std::thread::scope(|s| {
        for (t, slots) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                for (off, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(f(t * chunk + off));
                }
            });
        }
    });
    out.into_iter().map(Option::unwrap).collect()
}

/// `g` and rep-roots for one real record (formula (3), Figure 7).
fn materialize_record(
    hasher: &Hasher,
    config: &SchemeConfig,
    radix: Option<&Radix>,
    domain: &Domain,
    schema: &Schema,
    record: &Record,
) -> Material {
    let key = record.key(schema);
    let up = direction_commitment(hasher, config, radix, domain, key, Direction::Up);
    let down = direction_commitment(hasher, config, radix, domain, key, Direction::Down);
    let attrs = attr_tree(hasher, schema, record).root();
    let roots = match (up.rep_tree.as_ref(), down.rep_tree.as_ref()) {
        (Some(u), Some(d)) => Some((u.root(), d.root())),
        _ => None,
    };
    (
        GDigest {
            up: up.component,
            down: down.component,
            attrs,
        },
        roots,
    )
}

/// Materials for every chain position `0..=n+1`: the two delimiters and
/// each record, computed by [`par_chain`]. Every key is checked against
/// the domain first, so an out-of-domain table fails before any crypto.
fn materialize_chain(
    table: &Table,
    domain: &Domain,
    config: &SchemeConfig,
) -> Result<Vec<Material>, OwnerError> {
    let schema = table.schema();
    for row in table.rows() {
        let key = row.record.key(schema);
        if !domain.contains_key(key) {
            return Err(OwnerError::KeyOutOfDomain { key });
        }
    }
    let hasher = config.hasher();
    let radix = config.radix(domain);
    let last = table.len() + 1;
    Ok(par_chain(last + 1, |pos| {
        let delimiter = |key| {
            (
                g_of_delimiter(&hasher, config, radix.as_ref(), domain, key),
                None,
            )
        };
        match pos {
            0 => delimiter(domain.left_delimiter()),
            p if p == last => delimiter(domain.right_delimiter()),
            p => materialize_record(
                &hasher,
                config,
                radix.as_ref(),
                domain,
                schema,
                &table.row(p - 1).record,
            ),
        }
    }))
}

/// Link digests `h(g(r_{p-1}) | g(r_p) | g(r_{p+1}))` (formula (1)) for
/// the sorted `positions` of a `len`-position chain whose `g` at `p` is
/// `g(p)`, with the edge anchors `h(L)` / `h(U)` beyond the delimiters.
/// Each contiguous run of positions goes through one
/// [`link_digests_run`] sliding window, so every `g` in it is serialized
/// once; the whole chain is a single run.
fn links_for<'a>(
    hasher: &Hasher,
    domain: &Domain,
    len: usize,
    g: impl Fn(usize) -> &'a GDigest,
    positions: &[usize],
) -> Vec<Digest> {
    let edge_l = edge_digest(hasher, domain.l()).as_bytes().to_vec();
    let edge_u = edge_digest(hasher, domain.u()).as_bytes().to_vec();
    let mut out = Vec::with_capacity(positions.len());
    let mut i = 0;
    while i < positions.len() {
        let mut j = i;
        while j + 1 < positions.len() && positions[j + 1] == positions[j] + 1 {
            j += 1;
        }
        let (a, b) = (positions[i], positions[j]);
        let prev = if a == 0 {
            edge_l.clone()
        } else {
            g(a - 1).to_bytes()
        };
        let next = if b == len - 1 {
            edge_u.clone()
        } else {
            g(b + 1).to_bytes()
        };
        let encoded: Vec<Vec<u8>> = (a..=b).map(|p| g(p).to_bytes()).collect();
        let mut run: Vec<&[u8]> = Vec::with_capacity(encoded.len() + 2);
        run.push(&prev);
        run.extend(encoded.iter().map(Vec::as_slice));
        run.push(&next);
        out.extend(link_digests_run(hasher, &run));
        i = j + 1;
    }
    out
}

impl Owner {
    /// Creates an owner with a fresh RSA keypair of `bits` bits
    /// (1024 matches the paper's `M_sign`; tests use 512 for speed).
    pub fn new(bits: usize, rng: &mut dyn RngCore) -> Self {
        Owner {
            keypair: Keypair::generate(bits, rng),
        }
    }

    /// The owner's public key.
    pub fn public_key(&self) -> &PublicKey {
        self.keypair.public()
    }

    /// Signs a table for publishing. `O(n)` hash chains + `n + 2` RSA
    /// signatures; parallelized across available cores.
    pub fn sign_table(
        &self,
        table: Table,
        domain: Domain,
        config: SchemeConfig,
    ) -> Result<SignedTable, OwnerError> {
        let materials = materialize_chain(&table, &domain, &config)?;
        let hasher = config.hasher();
        let all: Vec<usize> = (0..materials.len()).collect();
        let links = links_for(&hasher, &domain, all.len(), |p| &materials[p].0, &all);
        let signatures = par_chain(all.len(), |p| self.keypair.sign(&hasher, &links[p]));
        Ok(SignedTable::assemble(
            table,
            domain,
            config,
            materials,
            signatures,
            self.keypair.public().clone(),
        ))
    }

    /// Applies one mutation through [`Owner::apply_batch`], reporting its
    /// cost with the signature B+-tree's node-visit counters.
    fn apply_one(&self, st: &mut SignedTable, op: Mutation) -> Result<UpdateReport, OwnerError> {
        st.sig_index.stats().reset();
        let batch = self.apply_batch(st, vec![op])?;
        Ok(UpdateReport {
            signatures_recomputed: batch.signatures_recomputed,
            g_recomputed: batch.g_recomputed,
            index_leaves_touched: st.sig_index.stats().leaves_visited(),
            index_nodes_touched: st.sig_index.stats().nodes_visited(),
        })
    }

    /// Inserts a record, re-signing the record and its two neighbours
    /// (Section 6.3: like updating a doubly-linked list).
    pub fn insert_record(
        &self,
        st: &mut SignedTable,
        record: Record,
    ) -> Result<UpdateReport, OwnerError> {
        self.apply_one(st, Mutation::Insert(record))
    }

    /// Deletes `(key, replica)`, re-signing the two now-adjacent
    /// neighbours.
    pub fn delete_record(
        &self,
        st: &mut SignedTable,
        key: i64,
        replica: u32,
    ) -> Result<UpdateReport, OwnerError> {
        self.apply_one(st, Mutation::Delete { key, replica })
    }

    /// Replaces the non-key attributes of `(key, replica)`, re-signing the
    /// record and its two neighbours. A record with a different key
    /// relocates: delete + insert, re-signing both neighbourhoods once.
    pub fn update_record(
        &self,
        st: &mut SignedTable,
        key: i64,
        replica: u32,
        new_record: Record,
    ) -> Result<UpdateReport, OwnerError> {
        self.apply_one(
            st,
            Mutation::Update {
                key,
                replica,
                record: new_record,
            },
        )
    }

    /// Incremental bulk ingest: applies a batch of `k` mutations to an
    /// `n`-row signed table, re-signing only the `O(k)` affected chain
    /// neighborhoods (each mutation dirties itself and its two neighbors;
    /// adjacent mutations share neighborhoods). Link digests come from
    /// the same `links_for` run kernel `sign_table` applies to the full
    /// chain; the `O(k)` re-signing itself runs serially.
    ///
    /// The batch is canonicalized first — key-changing updates decompose
    /// into delete + insert, then deletes, in-place updates, and inserts
    /// apply in that order, each sorted by key — and the canonical
    /// [`BatchReport::ops`] plus [`BatchReport::resigned`] are exactly what
    /// an update-log record must carry for [`SignedTable::replay_batch`].
    ///
    /// This is the owner-side path of the Section 6.3 churn experiment:
    /// `baseline_compare` drives batches of scattered updates through
    /// here into an `adp-store` log and tabulates the per-batch
    /// re-signing and log traffic against the baselines' update costs
    /// (`docs/EVALUATION.md` §"Update churn").
    ///
    /// Validation happens before any mutation, so an `Err` leaves the
    /// table untouched.
    pub fn apply_batch(
        &self,
        st: &mut SignedTable,
        ops: Vec<Mutation>,
    ) -> Result<BatchReport, OwnerError> {
        st.prevalidate_records(&ops)?;
        let ops = canonicalize_batch(st.table.schema(), ops);
        st.validate_batch(&ops)?;
        let (positions, g_recomputed) = st.stage_batch(&ops)?;
        let links = links_for(
            &st.hasher,
            &st.domain,
            st.entries.len(),
            |p| &st.entries[p].g,
            &positions,
        );
        let mut resigned = Vec::with_capacity(positions.len());
        for (&pos, link) in positions.iter().zip(&links) {
            let sig = self.keypair.sign(&st.hasher, link);
            st.entries[pos].signature = sig.clone();
            st.sig_index.insert(st.tree_key_at(pos), sig.clone());
            resigned.push((pos as u32, sig));
        }
        Ok(BatchReport {
            ops,
            signatures_recomputed: resigned.len(),
            g_recomputed,
            resigned,
        })
    }

    /// Issues the user-facing certificate for a signed table.
    pub fn certificate(&self, st: &SignedTable) -> Certificate {
        Certificate {
            table_name: st.table.name().to_string(),
            schema: st.table.schema().clone(),
            domain: st.domain,
            config: st.config,
            public_key: self.keypair.public().clone(),
        }
    }

    /// Publishes a logical table under several sort orders: one
    /// [`SignedTable`] per listed key attribute, each with its own domain
    /// (the paper's Section 6.3 notes this is analogous to creating one
    /// B+-tree per indexed attribute; its future work discusses
    /// multi-dimensional schemes to avoid it).
    pub fn sign_sort_orders(
        &self,
        table: &Table,
        orders: &[(&str, Domain)],
        config: SchemeConfig,
    ) -> Result<Vec<SignedTable>, OwnerError> {
        let mut out = Vec::with_capacity(orders.len());
        for (attr, domain) in orders {
            let schema = Schema::new(table.schema().columns().to_vec(), attr);
            let records: Vec<Record> = table.rows().iter().map(|r| r.record.clone()).collect();
            let renamed = format!("{}@{attr}", table.name());
            let sorted = Table::from_records(renamed, schema, records)?;
            out.push(self.sign_table(sorted, *domain, config)?);
        }
        Ok(out)
    }
}

/// Canonicalizes a batch: key-changing updates decompose into
/// delete + insert; then deletes, in-place updates, and inserts apply in
/// that order, each sorted by `(key, replica)` (inserts by key, stable for
/// duplicates). Records must already be schema-validated.
fn canonicalize_batch(schema: &Schema, ops: Vec<Mutation>) -> Vec<Mutation> {
    let mut deletes = Vec::new();
    let mut updates = Vec::new();
    let mut inserts = Vec::new();
    for op in ops {
        match op {
            Mutation::Update {
                key,
                replica,
                record,
            } if record.key(schema) != key => {
                deletes.push(Mutation::Delete { key, replica });
                inserts.push(Mutation::Insert(record));
            }
            Mutation::Delete { .. } => deletes.push(op),
            Mutation::Update { .. } => updates.push(op),
            Mutation::Insert(_) => inserts.push(op),
        }
    }
    let target = |op: &Mutation| match op {
        Mutation::Delete { key, replica } | Mutation::Update { key, replica, .. } => {
            (*key, *replica)
        }
        Mutation::Insert(_) => unreachable!("partitioned above"),
    };
    deletes.sort_by_key(target);
    updates.sort_by_key(target);
    inserts.sort_by_key(|op| match op {
        Mutation::Insert(record) => record.key(schema),
        _ => unreachable!("partitioned above"),
    });
    let mut out = deletes;
    out.extend(updates);
    out.extend(inserts);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_relation::{Column, Value, ValueType};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    pub(crate) fn test_owner() -> &'static Owner {
        static OWNER: OnceLock<Owner> = OnceLock::new();
        OWNER.get_or_init(|| {
            let mut rng = StdRng::seed_from_u64(0x0B11);
            Owner::new(512, &mut rng)
        })
    }

    fn emp_schema() -> Schema {
        Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("name", ValueType::Text),
                Column::new("salary", ValueType::Int),
                Column::new("dept", ValueType::Int),
            ],
            "salary",
        )
    }

    fn figure1_table() -> Table {
        let mut t = Table::new("emp", emp_schema());
        for (id, name, sal, dept) in [
            (5i64, "A", 2000i64, 1i64),
            (2, "C", 3500, 2),
            (1, "D", 8010, 1),
            (4, "B", 12100, 3),
            (3, "E", 25000, 2),
        ] {
            t.insert(Record::new(vec![
                Value::Int(id),
                Value::from(name),
                Value::Int(sal),
                Value::Int(dept),
            ]))
            .unwrap();
        }
        t
    }

    fn rec(id: i64, sal: i64) -> Record {
        Record::new(vec![
            Value::Int(id),
            Value::from("X"),
            Value::Int(sal),
            Value::Int(1),
        ])
    }

    #[test]
    fn sign_and_audit() {
        let owner = test_owner();
        let st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        assert_eq!(st.chain_len(), 7);
        assert_eq!(st.key_at(0), 1);
        assert_eq!(st.key_at(6), 99_999);
        assert_eq!(st.key_at(1), 2000);
        assert!(st.audit());
        assert_eq!(st.sig_index().len(), 7);
    }

    #[test]
    fn sign_empty_table() {
        let owner = test_owner();
        let st = owner
            .sign_table(
                Table::new("empty", emp_schema()),
                Domain::new(0, 1_000),
                SchemeConfig::default(),
            )
            .unwrap();
        assert_eq!(st.chain_len(), 2);
        assert!(st.audit());
    }

    #[test]
    fn conceptual_mode_sign() {
        let owner = test_owner();
        let st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::conceptual(),
            )
            .unwrap();
        assert!(st.audit());
        assert!(st.entry(1).roots.is_none());
    }

    #[test]
    fn out_of_domain_key_rejected() {
        let owner = test_owner();
        let err = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 10_000),
                SchemeConfig::default(),
            )
            .unwrap_err();
        assert!(matches!(err, OwnerError::KeyOutOfDomain { key: 12_100 }));
    }

    #[test]
    fn insert_resigns_three() {
        let owner = test_owner();
        let mut st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        let report = owner.insert_record(&mut st, rec(9, 5_000)).unwrap();
        assert_eq!(report.signatures_recomputed, 3);
        assert_eq!(report.g_recomputed, 1);
        assert_eq!(st.len(), 6);
        assert!(st.audit(), "chain must remain verifiable after insert");
        // Inserted between 3500 and 8010.
        assert_eq!(st.key_at(3), 5_000);
    }

    #[test]
    fn insert_at_extremes() {
        let owner = test_owner();
        let mut st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        owner.insert_record(&mut st, rec(9, 2)).unwrap(); // smallest legal key
        owner.insert_record(&mut st, rec(10, 99_998)).unwrap(); // largest legal key
        assert!(st.audit());
        assert_eq!(st.key_at(1), 2);
        assert_eq!(st.key_at(st.chain_len() - 2), 99_998);
    }

    #[test]
    fn insert_duplicate_key_gets_replica() {
        let owner = test_owner();
        let mut st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        owner.insert_record(&mut st, rec(9, 3500)).unwrap();
        assert!(st.audit());
        assert_eq!(st.tree_key_at(2), (3500, 0));
        assert_eq!(st.tree_key_at(3), (3500, 1));
    }

    #[test]
    fn delete_resigns_two() {
        let owner = test_owner();
        let mut st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        let report = owner.delete_record(&mut st, 8010, 0).unwrap();
        assert_eq!(report.signatures_recomputed, 2);
        assert_eq!(st.len(), 4);
        assert!(st.audit(), "chain must remain verifiable after delete");
        assert!(matches!(
            owner.delete_record(&mut st, 8010, 0),
            Err(OwnerError::NoSuchRecord { .. })
        ));
    }

    #[test]
    fn delete_first_and_last() {
        let owner = test_owner();
        let mut st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        owner.delete_record(&mut st, 2000, 0).unwrap();
        owner.delete_record(&mut st, 25_000, 0).unwrap();
        assert!(st.audit());
        assert_eq!(st.len(), 3);
    }

    #[test]
    fn update_in_place_resigns_three() {
        let owner = test_owner();
        let mut st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        let new_rec = Record::new(vec![
            Value::Int(1),
            Value::from("D2"),
            Value::Int(8010),
            Value::Int(7),
        ]);
        let report = owner.update_record(&mut st, 8010, 0, new_rec).unwrap();
        assert_eq!(report.signatures_recomputed, 3);
        assert!(st.audit());
        assert_eq!(st.table().row(2).record.get(1), &Value::from("D2"));
    }

    #[test]
    fn update_with_key_change_relocates() {
        let owner = test_owner();
        let mut st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        let report = owner
            .update_record(&mut st, 8010, 0, rec(1, 30_000))
            .unwrap();
        assert_eq!(report.signatures_recomputed, 5); // 2 delete + 3 insert
        assert!(st.audit());
        assert_eq!(st.key_at(st.chain_len() - 2), 30_000);

        // Moving 8010 one slot up (past 12100) makes the delete and insert
        // neighbourhoods share 12100: each position is re-signed once.
        let mut st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        let before: std::collections::BTreeMap<_, _> = sig_bytes_by_key(&st).into_iter().collect();
        let report = owner
            .update_record(&mut st, 8010, 0, rec(1, 13_000))
            .unwrap();
        assert_eq!(report.signatures_recomputed, 4); // 3500, 12100, 13000, 25000
        assert!(st.audit());
        assert_eq!(st.key_at(4), 13_000);
        let changed = sig_bytes_by_key(&st)
            .iter()
            .filter(|(tk, sig)| before.get(tk) != Some(sig))
            .count();
        assert_eq!(changed, report.signatures_recomputed);
    }

    #[test]
    fn update_locality_in_index() {
        // Section 6.3: updates should touch very few B+-tree leaves.
        let owner = test_owner();
        let mut t = Table::new("big", emp_schema());
        for i in 0..500i64 {
            t.insert(rec(i, 10 + i * 3)).unwrap();
        }
        let mut st = owner
            .sign_table(t, Domain::new(0, 100_000), SchemeConfig::default())
            .unwrap();
        let report = owner
            .update_record(&mut st, 10 + 250 * 3, 0, rec(250, 10 + 250 * 3))
            .unwrap();
        // 3 index writes, each descending height-many nodes; leaves should
        // be a small constant, not O(n) or O(log n)·digest-path like MHTs.
        assert!(report.index_leaves_touched <= 6, "{report:?}");
    }

    #[test]
    fn sort_orders_publish() {
        let owner = test_owner();
        let t = figure1_table();
        let signed = owner
            .sign_sort_orders(
                &t,
                &[
                    ("salary", Domain::new(0, 100_000)),
                    ("dept", Domain::new(-10, 100)),
                ],
                SchemeConfig::default(),
            )
            .unwrap();
        assert_eq!(signed.len(), 2);
        assert!(signed.iter().all(SignedTable::audit));
        assert_eq!(signed[1].table().schema().key_name(), "dept");
        // The dept-sorted chain orders by dept: 1,1,2,2,3.
        assert_eq!(signed[1].key_at(1), 1);
        assert_eq!(signed[1].key_at(5), 3);
    }

    #[test]
    fn certificate_carries_scheme() {
        let owner = test_owner();
        let st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        let cert = owner.certificate(&st);
        assert_eq!(cert.table_name, "emp");
        assert_eq!(cert.domain, *st.domain());
        assert_eq!(&cert.public_key, st.public_key());
    }

    #[test]
    fn dissemination_size_is_signatures_only() {
        let owner = test_owner();
        let st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        assert_eq!(st.dissemination_size(), 7 * 64);
    }

    fn sig_bytes_by_key(st: &SignedTable) -> Vec<((i64, u32), Vec<u8>)> {
        (0..st.chain_len())
            .map(|p| (st.tree_key_at(p), st.entry(p).signature.to_bytes()))
            .collect()
    }

    #[test]
    fn apply_batch_mixed_mutations_audit() {
        let owner = test_owner();
        let mut st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        let report = owner
            .apply_batch(
                &mut st,
                vec![
                    Mutation::Insert(rec(9, 5_000)),
                    Mutation::Delete {
                        key: 2_000,
                        replica: 0,
                    },
                    Mutation::Update {
                        key: 25_000,
                        replica: 0,
                        record: rec(3, 25_000),
                    },
                    // Key change: decomposed into delete + insert.
                    Mutation::Update {
                        key: 12_100,
                        replica: 0,
                        record: rec(4, 60_000),
                    },
                ],
            )
            .unwrap();
        assert!(st.audit(), "chain must verify after a mixed batch");
        assert_eq!(st.len(), 5);
        assert_eq!(report.g_recomputed, 3); // two inserts + one in-place update
        assert_eq!(report.ops.len(), 5); // key change decomposed
                                         // Canonical order: deletes first.
        assert!(matches!(report.ops[0], Mutation::Delete { .. }));
        assert_eq!(st.key_at(st.chain_len() - 2), 60_000);
        assert_eq!(st.sig_index().len(), st.chain_len());
    }

    #[test]
    fn apply_batch_matches_sequential_updates_byte_for_byte() {
        // FDH-RSA signing is deterministic, so the batch path and the
        // one-at-a-time path must land on identical signature bytes.
        let owner = test_owner();
        let signed = |t: Table| {
            owner
                .sign_table(t, Domain::new(0, 100_000), SchemeConfig::default())
                .unwrap()
        };
        let mut batch_st = signed(figure1_table());
        let mut seq_st = signed(figure1_table());

        let report = owner
            .apply_batch(
                &mut batch_st,
                vec![
                    Mutation::Insert(rec(9, 5_000)),
                    Mutation::Insert(rec(10, 5_500)),
                    Mutation::Delete {
                        key: 8_010,
                        replica: 0,
                    },
                ],
            )
            .unwrap();
        // Canonical order is deletes then inserts by key.
        owner.delete_record(&mut seq_st, 8_010, 0).unwrap();
        owner.insert_record(&mut seq_st, rec(9, 5_000)).unwrap();
        owner.insert_record(&mut seq_st, rec(10, 5_500)).unwrap();

        assert_eq!(sig_bytes_by_key(&batch_st), sig_bytes_by_key(&seq_st));
        assert!(report.signatures_recomputed < batch_st.chain_len());
    }

    #[test]
    fn apply_batch_resigns_o_k_not_o_n() {
        let owner = test_owner();
        let mut t = Table::new("big", emp_schema());
        for i in 0..200i64 {
            t.insert(rec(i, 100 + i * 37)).unwrap();
        }
        let mut st = owner
            .sign_table(t, Domain::new(0, 100_000), SchemeConfig::default())
            .unwrap();
        let before = sig_bytes_by_key(&st);
        let k = 6;
        let ops: Vec<Mutation> = (0..k)
            .map(|i| Mutation::Insert(rec(1_000 + i, 150 + i * 1_111)))
            .collect();
        let report = owner.apply_batch(&mut st, ops).unwrap();
        assert!(st.audit());
        // Each of the k inserts dirties at most itself + 2 neighbors.
        assert!(report.signatures_recomputed <= 3 * k as usize, "{report:?}");
        // Probe the chain itself: count signatures that actually changed.
        let after = sig_bytes_by_key(&st);
        let before: std::collections::BTreeMap<_, _> = before.into_iter().collect();
        let changed = after
            .iter()
            .filter(|(tk, sig)| before.get(tk) != Some(sig))
            .count();
        assert_eq!(changed, report.signatures_recomputed);
        assert!(changed <= 3 * k as usize && changed < st.chain_len() / 2);
    }

    #[test]
    fn apply_batch_validates_before_mutating() {
        let owner = test_owner();
        let mut st = owner
            .sign_table(
                figure1_table(),
                Domain::new(0, 100_000),
                SchemeConfig::default(),
            )
            .unwrap();
        let before = sig_bytes_by_key(&st);
        // Second op is invalid: the whole batch must be rejected with no
        // partial application.
        let err = owner
            .apply_batch(
                &mut st,
                vec![
                    Mutation::Insert(rec(9, 5_000)),
                    Mutation::Delete {
                        key: 4_242,
                        replica: 0,
                    },
                ],
            )
            .unwrap_err();
        assert!(matches!(err, OwnerError::NoSuchRecord { key: 4_242, .. }));
        let err = owner
            .apply_batch(&mut st, vec![Mutation::Insert(rec(9, 2_000_000))])
            .unwrap_err();
        assert!(matches!(err, OwnerError::KeyOutOfDomain { key: 2_000_000 }));
        assert_eq!(
            sig_bytes_by_key(&st),
            before,
            "failed batch must be a no-op"
        );
        assert!(st.audit());
    }

    #[test]
    fn replay_batch_reconstructs_byte_identically() {
        let owner = test_owner();
        let signed = |t: Table| {
            owner
                .sign_table(t, Domain::new(0, 100_000), SchemeConfig::default())
                .unwrap()
        };
        let mut owner_st = signed(figure1_table());
        let mut publisher_st = signed(figure1_table());
        let report = owner
            .apply_batch(
                &mut owner_st,
                vec![
                    Mutation::Insert(rec(9, 5_000)),
                    Mutation::Delete {
                        key: 3_500,
                        replica: 0,
                    },
                ],
            )
            .unwrap();
        publisher_st
            .replay_batch(&report.ops, &report.resigned)
            .unwrap();
        assert!(publisher_st.audit());
        assert_eq!(sig_bytes_by_key(&owner_st), sig_bytes_by_key(&publisher_st));
    }

    #[test]
    fn replay_batch_rejects_forgeries() {
        let owner = test_owner();
        let signed = |t: Table| {
            owner
                .sign_table(t, Domain::new(0, 100_000), SchemeConfig::default())
                .unwrap()
        };
        let mut owner_st = signed(figure1_table());
        let report = owner
            .apply_batch(&mut owner_st, vec![Mutation::Insert(rec(9, 5_000))])
            .unwrap();

        // A tampered signature byte is rejected.
        let mut forged = report.resigned.clone();
        let mut bytes = forged[1].1.to_bytes();
        bytes[0] ^= 0x01;
        forged[1].1 = Signature::from_bytes(&bytes);
        let err = signed(figure1_table())
            .replay_batch(&report.ops, &forged)
            .unwrap_err();
        assert!(matches!(err, OwnerError::ResignatureInvalid { .. }));

        // A wrong position set is rejected.
        let err = signed(figure1_table())
            .replay_batch(&report.ops, &report.resigned[..1])
            .unwrap_err();
        assert!(matches!(err, OwnerError::ResignSetMismatch { .. }));

        // A swapped record (honest sigs, different data) is rejected.
        let err = signed(figure1_table())
            .replay_batch(&[Mutation::Insert(rec(9, 5_001))], &report.resigned)
            .unwrap_err();
        assert!(matches!(
            err,
            OwnerError::ResignatureInvalid { .. } | OwnerError::ResignSetMismatch { .. }
        ));

        // A non-canonical key-changing update is rejected at replay.
        let err = signed(figure1_table())
            .replay_batch(
                &[Mutation::Update {
                    key: 3_500,
                    replica: 0,
                    record: rec(2, 4_000),
                }],
                &report.resigned,
            )
            .unwrap_err();
        assert!(matches!(err, OwnerError::UpdateChangesKey { .. }));
    }
}
