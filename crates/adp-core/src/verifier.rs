//! User-side verification (Figures 4 and 8).
//!
//! Given the owner's [`Certificate`], the (rewritten) query, the returned
//! records and the VO, the verifier establishes:
//!
//! * **completeness** — the signature chain walks contiguously from a
//!   record proven `< α` to a record proven `> β`, with every position in
//!   between accounted for (matched, provably-filtered, or
//!   provably-duplicate);
//! * **authenticity** — every returned value participates in `MHT(r.A)` or
//!   the key chains, both bound by the owner's signatures;
//! * **precision** — nothing outside the query's range/filters/projection
//!   was returned.
//!
//! The verifier trusts only the certificate; every byte of the result and
//! VO is treated as adversarial.

use crate::domain::QueryBounds;
use crate::errors::VerifyError;
use crate::gdigest::{
    combine_component, entry_component, link_digest, rep_digest, Direction, GDigest,
};
use crate::owner::Certificate;
use crate::publisher::{attr_position, effective_projection};
use crate::repr::Radix;
use crate::scheme::{Mode, SchemeConfig};
use crate::vo::{
    AttrProof, BoundaryProof, EntryChains, EntryProof, PrevG, QueryVO, RangeVO, RepProof,
    SignatureProof,
};
use adp_crypto::{
    chain_extend, hasher::HashDomain, root_from_mixed, verify_inclusion, Digest, Hasher, MixedLeaf,
    PublicKey,
};
use adp_relation::{Record, Schema, SelectQuery};

/// Successful-verification statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Result rows verified.
    pub matched: usize,
    /// Multipoint-filtered positions accounted for.
    pub filtered: usize,
    /// DISTINCT-eliminated duplicates accounted for.
    pub duplicates: usize,
    /// Component signatures covered by the signature proof.
    pub signatures_verified: usize,
    /// Whether the result was (provably) empty.
    pub empty: bool,
}

/// Verifies a select-project(-distinct) result against its VO.
pub fn verify_select(
    cert: &Certificate,
    query: &SelectQuery,
    result: &[Record],
    vo: &QueryVO,
) -> Result<VerifyReport, VerifyError> {
    let ctx = Ctx::new(cert, query)?;
    match (cert.domain.normalize(&query.range), vo) {
        (None, QueryVO::TriviallyEmpty) => {
            if result.is_empty() {
                Ok(VerifyReport {
                    empty: true,
                    ..Default::default()
                })
            } else {
                Err(VerifyError::ExpectedEmptyResult)
            }
        }
        (None, _) => Err(VerifyError::VoShapeMismatch {
            detail: "range is empty by construction; no proof expected",
        }),
        (Some(_), QueryVO::TriviallyEmpty) => Err(VerifyError::VoShapeMismatch {
            detail: "non-trivial range requires a proof",
        }),
        (Some(bounds), QueryVO::Empty(proof)) => {
            if !result.is_empty() {
                return Err(VerifyError::VoShapeMismatch {
                    detail: "empty-result proof alongside returned rows",
                });
            }
            ctx.verify_empty(&bounds, proof)
        }
        (Some(bounds), QueryVO::Range(rv)) => ctx.verify_range(&bounds, result, rv),
    }
}

/// Shared verification context.
struct Ctx<'a> {
    cert: &'a Certificate,
    query: &'a SelectQuery,
    schema: &'a Schema,
    hasher: Hasher,
    radix: Option<Radix>,
    /// Effective projection: schema column index per result slot.
    proj: Vec<usize>,
    /// Result slot holding the key column.
    key_slot: usize,
}

impl<'a> Ctx<'a> {
    fn new(cert: &'a Certificate, query: &'a SelectQuery) -> Result<Self, VerifyError> {
        let schema = &cert.schema;
        for f in &query.filters {
            match schema.column_index(&f.column) {
                None => {
                    return Err(VerifyError::Unsupported {
                        detail: "filter on unknown column",
                    })
                }
                Some(c) if c == schema.key_index() => {
                    return Err(VerifyError::Unsupported {
                        detail: "filters may not target the key column (use the range)",
                    })
                }
                Some(_) => {}
            }
        }
        let proj = effective_projection(schema, &query.projection, &query.filters).ok_or(
            VerifyError::Unsupported {
                detail: "projection names unknown column",
            },
        )?;
        let key_slot = proj
            .iter()
            .position(|&c| c == schema.key_index())
            .ok_or(VerifyError::KeyColumnMissing)?;
        let radix = cert.config.radix(&cert.domain);
        Ok(Ctx {
            cert,
            query,
            schema,
            hasher: cert.config.hasher(),
            radix,
            proj,
            key_slot,
        })
    }

    fn config(&self) -> &SchemeConfig {
        &self.cert.config
    }

    fn public_key(&self) -> &PublicKey {
        &self.cert.public_key
    }

    fn verify_empty(
        &self,
        bounds: &QueryBounds,
        proof: &crate::vo::EmptyProof,
    ) -> Result<VerifyReport, VerifyError> {
        let left_comp = self.boundary_component(&proof.left, Direction::Up, bounds, "left")?;
        let right_comp = self.boundary_component(&proof.right, Direction::Down, bounds, "right")?;
        let g_left = GDigest {
            up: left_comp,
            down: proof.left.other_component,
            attrs: proof.left.attr_root,
        };
        let g_right = GDigest {
            up: proof.right.other_component,
            down: right_comp,
            attrs: proof.right.attr_root,
        };
        let prev_bytes = match &proof.prev {
            PrevG::Edge => crate::gdigest::edge_digest(&self.hasher, self.cert.domain.l())
                .as_bytes()
                .to_vec(),
            PrevG::Opaque(b) => b.clone(),
        };
        let link = link_digest(
            &self.hasher,
            &prev_bytes,
            &g_left.to_bytes(),
            &g_right.to_bytes(),
        );
        self.verify_signatures(&[link], &proof.signature)?;
        Ok(VerifyReport {
            empty: true,
            signatures_verified: 1,
            ..Default::default()
        })
    }

    fn verify_range(
        &self,
        bounds: &QueryBounds,
        result: &[Record],
        rv: &RangeVO,
    ) -> Result<VerifyReport, VerifyError> {
        if rv.entries.is_empty() {
            return Err(VerifyError::VoShapeMismatch {
                detail: "range VO must contain at least one entry",
            });
        }
        let mut g_seq: Vec<Vec<u8>> = Vec::with_capacity(rv.entries.len() + 2);
        let left_comp = self.boundary_component(&rv.left, Direction::Up, bounds, "left")?;
        g_seq.push(
            GDigest {
                up: left_comp,
                down: rv.left.other_component,
                attrs: rv.left.attr_root,
            }
            .to_bytes(),
        );

        let mut matched = 0usize;
        let mut filtered = 0usize;
        let mut duplicates = 0usize;
        let mut next_record = 0usize;

        for (i, entry) in rv.entries.iter().enumerate() {
            match entry {
                EntryProof::Match { chains, attrs } => {
                    let rec = result
                        .get(next_record)
                        .ok_or(VerifyError::ResultCountMismatch {
                            records: result.len(),
                            matches: rv
                                .entries
                                .iter()
                                .filter(|e| matches!(e, EntryProof::Match { .. }))
                                .count(),
                        })?;
                    let key = self.check_record(rec, bounds, i)?;
                    let root = self.attr_root_for_record(rec, attrs, i)?;
                    let (up, down) = self.entry_chain_components(key, chains, i)?;
                    g_seq.push(
                        GDigest {
                            up,
                            down,
                            attrs: root,
                        }
                        .to_bytes(),
                    );
                    matched += 1;
                    next_record += 1;
                }
                EntryProof::Filtered {
                    up_component,
                    down_component,
                    attrs,
                } => {
                    if self.query.filters.is_empty() {
                        return Err(VerifyError::UnexpectedFilteredEntry { entry: i });
                    }
                    self.check_filtered_proven(attrs, i)?;
                    let root = self.attr_root_from_disclosure(attrs, i)?;
                    g_seq.push(
                        GDigest {
                            up: *up_component,
                            down: *down_component,
                            attrs: root,
                        }
                        .to_bytes(),
                    );
                    filtered += 1;
                }
                EntryProof::Duplicate { of, chains, attrs } => {
                    if !self.query.distinct {
                        return Err(VerifyError::DistinctViolation {
                            detail: "duplicate-elimination entry in a non-DISTINCT query",
                        });
                    }
                    let of = *of as usize;
                    if of >= next_record {
                        // Duplicates must reference an already-verified
                        // earlier match (first occurrence is retained).
                        return Err(VerifyError::DuplicateRefInvalid { entry: i });
                    }
                    let rec = &result[of];
                    let key = rec
                        .get(self.key_slot)
                        .as_int()
                        .ok_or(VerifyError::DuplicateRefInvalid { entry: i })?;
                    let root = self.attr_root_for_record(rec, attrs, i)?;
                    let (up, down) = self.entry_chain_components(key, chains, i)?;
                    g_seq.push(
                        GDigest {
                            up,
                            down,
                            attrs: root,
                        }
                        .to_bytes(),
                    );
                    duplicates += 1;
                }
            }
        }

        if next_record != result.len() {
            return Err(VerifyError::ResultCountMismatch {
                records: result.len(),
                matches: next_record,
            });
        }
        if self.query.distinct {
            let mut seen = std::collections::HashSet::new();
            for rec in result {
                if !seen.insert(crate::wire::encode_records(std::slice::from_ref(rec))) {
                    return Err(VerifyError::DistinctViolation {
                        detail: "result contains duplicate rows",
                    });
                }
            }
        }

        let right_comp = self.boundary_component(&rv.right, Direction::Down, bounds, "right")?;
        g_seq.push(
            GDigest {
                up: rv.right.other_component,
                down: right_comp,
                attrs: rv.right.attr_root,
            }
            .to_bytes(),
        );

        let links: Vec<Digest> = (0..rv.entries.len())
            .map(|i| link_digest(&self.hasher, &g_seq[i], &g_seq[i + 1], &g_seq[i + 2]))
            .collect();
        self.verify_signatures(&links, &rv.signatures)?;

        Ok(VerifyReport {
            matched,
            filtered,
            duplicates,
            signatures_verified: links.len(),
            empty: false,
        })
    }

    /// Validates a returned record's shape, typing, range membership and
    /// filter satisfaction (precision). Returns its key.
    fn check_record(
        &self,
        rec: &Record,
        bounds: &QueryBounds,
        entry: usize,
    ) -> Result<i64, VerifyError> {
        if rec.arity() != self.proj.len() {
            return Err(VerifyError::ProjectionMismatch { entry });
        }
        for (slot, &col) in self.proj.iter().enumerate() {
            let expected = self.schema.columns()[col].ty;
            let got = rec.get(slot).value_type();
            if got != expected {
                return Err(VerifyError::SchemaViolation {
                    entry,
                    detail: format!("column {col}: expected {expected}, got {got}"),
                });
            }
        }
        let key = rec
            .get(self.key_slot)
            .as_int()
            .expect("key slot type-checked above");
        if !bounds.contains(key) {
            return Err(VerifyError::KeyOutOfRange { key });
        }
        for f in &self.query.filters {
            let col = self.schema.column_index(&f.column).expect("validated");
            let slot = self
                .proj
                .iter()
                .position(|&c| c == col)
                .expect("effective projection includes filter columns");
            if !f.op.eval(rec.get(slot), &f.value).unwrap_or(false) {
                return Err(VerifyError::FilterViolation { entry });
            }
        }
        Ok(key)
    }

    /// Checks that a filtered entry's disclosed attributes prove at least
    /// one filter predicate fails (with correct typing).
    fn check_filtered_proven(&self, attrs: &AttrProof, entry: usize) -> Result<(), VerifyError> {
        for f in &self.query.filters {
            let col = self.schema.column_index(&f.column).expect("validated");
            let pos = attr_position(self.schema, col);
            if let Some((_, v)) = attrs.disclosed.iter().find(|(p, _)| *p == pos) {
                if v.value_type() != self.schema.columns()[col].ty {
                    continue;
                }
                if f.op.eval(v, &f.value) == Some(false) {
                    return Ok(());
                }
            }
        }
        Err(VerifyError::FilteredNotProven { entry })
    }

    /// Rebuilds `MHT(r.A)`'s root for a record returned in the result:
    /// projected non-key columns come from the record, the rest from the
    /// proof's hidden digests. Cross-checks the proof's root field.
    fn attr_root_for_record(
        &self,
        rec: &Record,
        attrs: &AttrProof,
        entry: usize,
    ) -> Result<Digest, VerifyError> {
        if !attrs.disclosed.is_empty() {
            // Result-row proofs disclose through the record, never inline.
            return Err(VerifyError::AttrCoverageInvalid { entry });
        }
        let non_key = self.schema.arity() - 1;
        let mut encodings: Vec<Option<Vec<u8>>> = vec![None; non_key];
        for (slot, &col) in self.proj.iter().enumerate() {
            if col == self.schema.key_index() {
                continue;
            }
            encodings[attr_position(self.schema, col) as usize] = Some(rec.get(slot).encode());
        }
        self.finish_attr_root(encodings, attrs, entry)
    }

    /// Rebuilds the attribute root for a filtered entry from inline
    /// disclosures plus hidden digests.
    fn attr_root_from_disclosure(
        &self,
        attrs: &AttrProof,
        entry: usize,
    ) -> Result<Digest, VerifyError> {
        let non_key = self.schema.arity() - 1;
        let mut encodings: Vec<Option<Vec<u8>>> = vec![None; non_key];
        for (pos, v) in &attrs.disclosed {
            let pos = *pos as usize;
            if pos >= non_key || encodings[pos].is_some() {
                return Err(VerifyError::AttrCoverageInvalid { entry });
            }
            // Type check against the schema column.
            let col = if pos < self.schema.key_index() {
                pos
            } else {
                pos + 1
            };
            if v.value_type() != self.schema.columns()[col].ty {
                return Err(VerifyError::SchemaViolation {
                    entry,
                    detail: format!("disclosed attribute {pos} has wrong type"),
                });
            }
            encodings[pos] = Some(v.encode());
        }
        self.finish_attr_root(encodings, attrs, entry)
    }

    /// Common tail: fill hidden digests, demand full coverage, hash.
    fn finish_attr_root(
        &self,
        encodings: Vec<Option<Vec<u8>>>,
        attrs: &AttrProof,
        entry: usize,
    ) -> Result<Digest, VerifyError> {
        let non_key = encodings.len();
        let mut hidden: Vec<Option<Digest>> = vec![None; non_key];
        for (pos, d) in &attrs.hidden {
            let pos = *pos as usize;
            if pos >= non_key || hidden[pos].is_some() || encodings[pos].is_some() {
                return Err(VerifyError::AttrCoverageInvalid { entry });
            }
            hidden[pos] = Some(*d);
        }
        let root = if non_key == 0 {
            if !attrs.hidden.is_empty() {
                return Err(VerifyError::AttrCoverageInvalid { entry });
            }
            delimiter_sentinel(&self.hasher)
        } else {
            let mut leaves: Vec<MixedLeaf<'_>> = Vec::with_capacity(non_key);
            for (i, enc) in encodings.iter().enumerate() {
                match (enc, hidden[i]) {
                    (Some(e), None) => leaves.push(MixedLeaf::Value(e)),
                    (None, Some(d)) => leaves.push(MixedLeaf::Digest(d)),
                    _ => return Err(VerifyError::AttrCoverageInvalid { entry }),
                }
            }
            root_from_mixed(&self.hasher, &leaves)
        };
        if root != attrs.root {
            return Err(VerifyError::AttrRootMismatch { entry });
        }
        Ok(root)
    }

    /// Figure 8b: recompute both direction components for a disclosed key.
    fn entry_chain_components(
        &self,
        key: i64,
        chains: &EntryChains,
        entry: usize,
    ) -> Result<(Digest, Digest), VerifyError> {
        match (self.config().mode, chains) {
            (Mode::Conceptual, EntryChains::Conceptual) => Ok((
                entry_component(
                    &self.hasher,
                    self.config(),
                    None,
                    &self.cert.domain,
                    key,
                    Direction::Up,
                    None,
                ),
                entry_component(
                    &self.hasher,
                    self.config(),
                    None,
                    &self.cert.domain,
                    key,
                    Direction::Down,
                    None,
                ),
            )),
            (Mode::Optimized { .. }, EntryChains::Optimized { up_root, down_root }) => Ok((
                entry_component(
                    &self.hasher,
                    self.config(),
                    self.radix.as_ref(),
                    &self.cert.domain,
                    key,
                    Direction::Up,
                    Some(*up_root),
                ),
                entry_component(
                    &self.hasher,
                    self.config(),
                    self.radix.as_ref(),
                    &self.cert.domain,
                    key,
                    Direction::Down,
                    Some(*down_root),
                ),
            )),
            _ => {
                let _ = entry;
                Err(VerifyError::VoShapeMismatch {
                    detail: "entry chain mode mismatch",
                })
            }
        }
    }

    /// Figure 8a: derive a boundary record's hidden-key component by
    /// extending the intermediate digests `δ_c` more steps.
    fn boundary_component(
        &self,
        proof: &BoundaryProof,
        dir: Direction,
        bounds: &QueryBounds,
        side: &'static str,
    ) -> Result<Digest, VerifyError> {
        let delta_c = match dir {
            Direction::Up => self.cert.domain.delta_up_query(bounds.alpha),
            Direction::Down => self.cert.domain.delta_down_query(bounds.beta),
        };
        match self.config().mode {
            Mode::Conceptual => {
                if proof.intermediates.len() != 1 || proof.selector.is_some() {
                    return Err(VerifyError::BoundaryShapeInvalid { side });
                }
                Ok(chain_extend(&self.hasher, proof.intermediates[0], delta_c))
            }
            Mode::Optimized { .. } => {
                let radix = self.radix.as_ref().expect("optimized mode has a radix");
                if proof.intermediates.len() != radix.digit_count() {
                    return Err(VerifyError::BoundaryShapeInvalid { side });
                }
                let c_digits = radix.canonical(delta_c);
                let targets: Vec<Digest> = proof
                    .intermediates
                    .iter()
                    .zip(&c_digits)
                    .map(|(d, &c)| chain_extend(&self.hasher, *d, c as u64))
                    .collect();
                let h_dt = rep_digest(&self.hasher, &targets);
                match &proof.selector {
                    None => Err(VerifyError::BoundaryShapeInvalid { side }),
                    Some(RepProof::Canonical { mht_root }) => {
                        Ok(combine_component(&self.hasher, h_dt, *mht_root))
                    }
                    Some(RepProof::NonCanonical {
                        index,
                        canon_digest,
                        path,
                    }) => {
                        if *index >= radix.m() || path.leaf_index != *index {
                            return Err(VerifyError::BoundarySelectorInvalid { side });
                        }
                        let root = verify_inclusion(&self.hasher, h_dt, path);
                        Ok(combine_component(&self.hasher, *canon_digest, root))
                    }
                }
            }
        }
    }

    /// Checks the signature proof over the computed link digests.
    fn verify_signatures(
        &self,
        links: &[Digest],
        sigs: &SignatureProof,
    ) -> Result<(), VerifyError> {
        if sigs.count() != links.len() {
            return Err(VerifyError::SignatureCountMismatch {
                expected: links.len(),
                got: sigs.count(),
            });
        }
        let ok = match sigs {
            SignatureProof::Aggregated(agg) => agg.verify(&self.hasher, self.public_key(), links),
            SignatureProof::Individual(v) => links
                .iter()
                .zip(v)
                .all(|(l, s)| self.public_key().verify(&self.hasher, l, s)),
        };
        if ok {
            Ok(())
        } else {
            Err(VerifyError::SignatureInvalid)
        }
    }
}

/// Sentinel root for schemas with no non-key attributes (must match
/// `gdigest::attr_tree`).
fn delimiter_sentinel(hasher: &Hasher) -> Digest {
    hasher.hash(HashDomain::Leaf, b"\x00__no_attrs__")
}

/// End-to-end wire verification: decode the result and VO from bytes, then
/// verify. This is the path a real client exercises and what benches
/// measure.
pub fn verify_select_wire(
    cert: &Certificate,
    query: &SelectQuery,
    result_bytes: &[u8],
    vo_bytes: &[u8],
) -> Result<(Vec<Record>, VerifyReport), VerifyError> {
    let result =
        crate::wire::decode_records(result_bytes).map_err(|_| VerifyError::VoShapeMismatch {
            detail: "result bytes malformed",
        })?;
    let vo = crate::wire::decode_vo(vo_bytes).map_err(|_| VerifyError::VoShapeMismatch {
        detail: "VO bytes malformed",
    })?;
    let report = verify_select(cert, query, &result, &vo)?;
    Ok((result, report))
}
