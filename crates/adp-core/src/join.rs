//! Authenticated joins (Section 4.3).
//!
//! Two join classes are supported, exactly as the paper describes:
//!
//! * **Primary-key / foreign-key equi-joins** `R ⋈_{R.fk = S.pk} S`, where
//!   `R` is signed sorted on its foreign key and `S` on its primary key.
//!   Referential integrity means the join drops no `R` rows, so
//!   completeness reduces to completeness of the `R`-side selection; each
//!   distinct `S` record is authenticated individually through its own
//!   signature link (neighbour `g`s supplied opaquely).
//! * **Band joins** `R.Ai ≤ S.Aj`: the publisher proves `max(S.Aj)` via a
//!   top-range query on `S`, proves the `R` partition complete for
//!   `(L, max(S.Aj)]`, and — if the partition is non-empty — proves the `S`
//!   partition complete for `[min(R.Ai), U)`. The user forms the pairs
//!   locally.

use crate::errors::VerifyError;
use crate::owner::Certificate;
use crate::publisher::{effective_projection, PublishError, Publisher};
use crate::verifier::{verify_select, VerifyReport};
use crate::vo::{AttrProof, EntryChains, QueryVO, SignatureProof};
use adp_crypto::{AggregateSignature, Digest, Signature};
use adp_relation::{KeyRange, Projection, Record, SelectQuery};
use std::collections::BTreeSet;
use std::ops::Bound;

/// Authentication material for one distinct inner (S-side) record of a
/// pk-fk join.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InnerRecordProof {
    /// The projected S record (primary key always included).
    pub record: Record,
    /// Rep-MHT roots for S's chains (its key is disclosed).
    pub chains: EntryChains,
    /// Hidden-attribute digests + root for `MHT(s.A)`.
    pub attrs: AttrProof,
    /// `g(s_{prev})` bytes, opaque.
    pub prev_g: Vec<u8>,
    /// `g(s_{next})` bytes, opaque.
    pub next_g: Vec<u8>,
}

/// VO for a pk-fk equi-join.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PkFkJoinVO {
    /// Completeness proof for the outer (R-side) selection.
    pub outer: QueryVO,
    /// One proof per *distinct* S key appearing in the join result,
    /// ordered by key.
    pub inner: Vec<InnerRecordProof>,
    /// Signatures of the inner records (aggregated by default).
    pub inner_signatures: Option<SignatureProof>,
}

/// The result of a pk-fk join: outer rows plus an authenticated lookup
/// table of distinct inner rows. The client materializes the joined pairs
/// after verification (`R` row ⋈ inner row with matching key).
#[derive(Clone, Debug)]
pub struct PkFkJoinResult {
    pub outer_rows: Vec<Record>,
    pub inner_rows: Vec<Record>,
}

/// A verified pk-fk join: the report for the outer side plus the pairing.
#[derive(Clone, Debug)]
pub struct JoinReport {
    pub outer: VerifyReport,
    pub inner_verified: usize,
    pub pairs: usize,
}

/// Publisher-side: answers `σ_range(R) ⋈ S` with projections.
pub fn answer_pkfk_join(
    r_pub: &Publisher<'_>,
    s_pub: &Publisher<'_>,
    fk_range: KeyRange,
    r_projection: &Projection,
    s_projection: &Projection,
) -> Result<(PkFkJoinResult, PkFkJoinVO), PublishError> {
    let r_st = r_pub.signed_table();
    let s_st = s_pub.signed_table();
    // Outer side: ordinary verified selection on R's sort (fk) attribute.
    let outer_query = SelectQuery {
        range: fk_range,
        filters: Vec::new(),
        projection: r_projection.clone(),
        distinct: false,
    };
    let (outer_rows, outer_vo) = r_pub.answer_select(&outer_query)?;

    // Distinct fk values present in the outer result.
    let r_schema = r_st.table().schema();
    let r_proj = effective_projection(r_schema, r_projection, &[])
        .ok_or(PublishError::BadProjectionColumn)?;
    let fk_slot = r_proj
        .iter()
        .position(|&c| c == r_schema.key_index())
        .expect("effective projection includes the key");
    let fks: BTreeSet<i64> = outer_rows
        .iter()
        .map(|row| row.get(fk_slot).as_int().expect("fk column is INT"))
        .collect();

    // Inner side: one authenticated record per distinct fk.
    let s_schema = s_st.table().schema();
    let s_proj = effective_projection(s_schema, s_projection, &[])
        .ok_or(PublishError::BadProjectionColumn)?;
    let mut inner = Vec::with_capacity(fks.len());
    let mut inner_rows = Vec::with_capacity(fks.len());
    let mut sigs: Vec<&Signature> = Vec::with_capacity(fks.len());
    for fk in fks {
        let pos = s_st
            .table()
            .position_of(fk, 0)
            .unwrap_or_else(|| panic!("referential integrity violated: fk {fk}"));
        let cp = pos + 1;
        let s_row = s_st.table().row(pos);
        let record = s_row.record.project(&s_proj);
        let entry = s_st.entry(cp);
        let chains = match entry.roots {
            Some((up_root, down_root)) => EntryChains::Optimized { up_root, down_root },
            None => EntryChains::Conceptual,
        };
        // Hidden digests for the S columns outside the projection.
        let hasher = s_st.hasher();
        let mut hidden = Vec::new();
        for col in 0..s_schema.arity() {
            if col == s_schema.key_index() || s_proj.contains(&col) {
                continue;
            }
            hidden.push((
                crate::publisher::attr_position(s_schema, col),
                hasher.hash(
                    adp_crypto::HashDomain::Leaf,
                    &s_row.record.get(col).encode(),
                ),
            ));
        }
        inner.push(InnerRecordProof {
            record: record.clone(),
            chains,
            attrs: AttrProof {
                disclosed: Vec::new(),
                hidden,
                root: entry.g.attrs,
            },
            prev_g: s_st.g_bytes(cp - 1),
            next_g: s_st.g_bytes(cp + 1),
        });
        inner_rows.push(record);
        sigs.push(&entry.signature);
    }
    let inner_signatures = if sigs.is_empty() {
        None
    } else if s_st.config().aggregate_signatures {
        Some(SignatureProof::Aggregated(AggregateSignature::combine(
            s_st.public_key(),
            &sigs,
        )))
    } else {
        Some(SignatureProof::Individual(
            sigs.into_iter().cloned().collect(),
        ))
    };

    Ok((
        PkFkJoinResult {
            outer_rows,
            inner_rows,
        },
        PkFkJoinVO {
            outer: outer_vo,
            inner,
            inner_signatures,
        },
    ))
}

/// User-side verification of a pk-fk join.
pub fn verify_pkfk_join(
    r_cert: &Certificate,
    s_cert: &Certificate,
    fk_range: KeyRange,
    r_projection: &Projection,
    s_projection: &Projection,
    result: &PkFkJoinResult,
    vo: &PkFkJoinVO,
) -> Result<JoinReport, VerifyError> {
    // 1. Outer completeness: the fk-range selection on R.
    let outer_query = SelectQuery {
        range: fk_range,
        filters: Vec::new(),
        projection: r_projection.clone(),
        distinct: false,
    };
    let outer = verify_select(r_cert, &outer_query, &result.outer_rows, &vo.outer)?;

    // 2. Inner authenticity: each distinct S record's signature link.
    let s_schema = &s_cert.schema;
    let s_proj =
        effective_projection(s_schema, s_projection, &[]).ok_or(VerifyError::Unsupported {
            detail: "inner projection names unknown column",
        })?;
    let pk_slot = s_proj
        .iter()
        .position(|&c| c == s_schema.key_index())
        .ok_or(VerifyError::KeyColumnMissing)?;
    if result.inner_rows.len() != vo.inner.len() {
        return Err(VerifyError::ResultCountMismatch {
            records: result.inner_rows.len(),
            matches: vo.inner.len(),
        });
    }
    let hasher = s_cert.config.hasher();
    let radix = s_cert.config.radix(&s_cert.domain);
    let mut links: Vec<Digest> = Vec::with_capacity(vo.inner.len());
    let mut seen_keys = BTreeSet::new();
    for (i, proof) in vo.inner.iter().enumerate() {
        if proof.record != result.inner_rows[i] {
            return Err(VerifyError::JoinInnerInvalid {
                detail: format!("inner row {i} disagrees with its proof"),
            });
        }
        if proof.record.arity() != s_proj.len() {
            return Err(VerifyError::ProjectionMismatch { entry: i });
        }
        let key = proof
            .record
            .get(pk_slot)
            .as_int()
            .ok_or(VerifyError::JoinInnerInvalid {
                detail: format!("inner row {i} has no key"),
            })?;
        if !seen_keys.insert(key) {
            return Err(VerifyError::JoinInnerInvalid {
                detail: format!("duplicate inner key {key}"),
            });
        }
        // Rebuild MHT(s.A) from projected values + hidden digests.
        let non_key = s_schema.arity() - 1;
        let mut encodings: Vec<Option<Vec<u8>>> = vec![None; non_key];
        for (slot, &col) in s_proj.iter().enumerate() {
            if col == s_schema.key_index() {
                continue;
            }
            encodings[crate::publisher::attr_position(s_schema, col) as usize] =
                Some(proof.record.get(slot).encode());
        }
        let mut hidden: Vec<Option<Digest>> = vec![None; non_key];
        for (pos, d) in &proof.attrs.hidden {
            let pos = *pos as usize;
            if pos >= non_key || hidden[pos].is_some() || encodings[pos].is_some() {
                return Err(VerifyError::AttrCoverageInvalid { entry: i });
            }
            hidden[pos] = Some(*d);
        }
        let attr_root = if non_key == 0 {
            hasher.hash(adp_crypto::HashDomain::Leaf, b"\x00__no_attrs__")
        } else {
            let mut leaves = Vec::with_capacity(non_key);
            for (j, enc) in encodings.iter().enumerate() {
                match (enc, hidden[j]) {
                    (Some(e), None) => leaves.push(adp_crypto::MixedLeaf::Value(e)),
                    (None, Some(d)) => leaves.push(adp_crypto::MixedLeaf::Digest(d)),
                    _ => return Err(VerifyError::AttrCoverageInvalid { entry: i }),
                }
            }
            adp_crypto::root_from_mixed(&hasher, &leaves)
        };
        if attr_root != proof.attrs.root {
            return Err(VerifyError::AttrRootMismatch { entry: i });
        }
        let (up, down) = match (&s_cert.config.mode, &proof.chains) {
            (crate::scheme::Mode::Conceptual, EntryChains::Conceptual) => (
                crate::gdigest::entry_component(
                    &hasher,
                    &s_cert.config,
                    None,
                    &s_cert.domain,
                    key,
                    crate::gdigest::Direction::Up,
                    None,
                ),
                crate::gdigest::entry_component(
                    &hasher,
                    &s_cert.config,
                    None,
                    &s_cert.domain,
                    key,
                    crate::gdigest::Direction::Down,
                    None,
                ),
            ),
            (
                crate::scheme::Mode::Optimized { .. },
                EntryChains::Optimized { up_root, down_root },
            ) => (
                crate::gdigest::entry_component(
                    &hasher,
                    &s_cert.config,
                    radix.as_ref(),
                    &s_cert.domain,
                    key,
                    crate::gdigest::Direction::Up,
                    Some(*up_root),
                ),
                crate::gdigest::entry_component(
                    &hasher,
                    &s_cert.config,
                    radix.as_ref(),
                    &s_cert.domain,
                    key,
                    crate::gdigest::Direction::Down,
                    Some(*down_root),
                ),
            ),
            _ => {
                return Err(VerifyError::VoShapeMismatch {
                    detail: "inner chain mode mismatch",
                })
            }
        };
        let g = crate::gdigest::GDigest {
            up,
            down,
            attrs: attr_root,
        };
        if proof.prev_g.is_empty() || proof.next_g.is_empty() {
            return Err(VerifyError::JoinInnerInvalid {
                detail: "inner proof lacks neighbour context".into(),
            });
        }
        links.push(crate::gdigest::link_digest(
            &hasher,
            &proof.prev_g,
            &g.to_bytes(),
            &proof.next_g,
        ));
    }
    match (&vo.inner_signatures, links.is_empty()) {
        (None, true) => {}
        (None, false) => {
            return Err(VerifyError::SignatureCountMismatch {
                expected: links.len(),
                got: 0,
            })
        }
        (Some(sp), _) => {
            if sp.count() != links.len() {
                return Err(VerifyError::SignatureCountMismatch {
                    expected: links.len(),
                    got: sp.count(),
                });
            }
            let ok = match sp {
                SignatureProof::Aggregated(agg) => agg.verify(&hasher, &s_cert.public_key, &links),
                SignatureProof::Individual(v) => links
                    .iter()
                    .zip(v)
                    .all(|(l, s)| s_cert.public_key.verify(&hasher, l, s)),
            };
            if !ok {
                return Err(VerifyError::SignatureInvalid);
            }
        }
    }

    // 3. Pairing: every outer row's fk has an authenticated inner record,
    //    and no unused inner records ride along (precision).
    let r_schema = &r_cert.schema;
    let r_proj =
        effective_projection(r_schema, r_projection, &[]).ok_or(VerifyError::Unsupported {
            detail: "outer projection names unknown column",
        })?;
    let fk_slot = r_proj
        .iter()
        .position(|&c| c == r_schema.key_index())
        .ok_or(VerifyError::KeyColumnMissing)?;
    let mut pairs = 0usize;
    let mut used: BTreeSet<i64> = BTreeSet::new();
    for row in &result.outer_rows {
        let fk = row
            .get(fk_slot)
            .as_int()
            .ok_or(VerifyError::JoinPairingBroken { fk: i64::MIN })?;
        if !seen_keys.contains(&fk) {
            return Err(VerifyError::JoinPairingBroken { fk });
        }
        used.insert(fk);
        pairs += 1;
    }
    if used.len() != seen_keys.len() {
        return Err(VerifyError::JoinInnerInvalid {
            detail: "inner lookup contains records no outer row references".into(),
        });
    }

    Ok(JoinReport {
        outer,
        inner_verified: vo.inner.len(),
        pairs,
    })
}

/// VO for a band join `R.Ai ≤ S.Aj` (Section 4.3's second join class).
#[derive(Clone, Debug)]
pub struct BandJoinVO {
    /// Claimed maximum of `S.Aj`.
    pub s_max: i64,
    /// Proof that `[s_max, key_max]` on S returns exactly the max-key rows
    /// (or, for an empty S, that the full range is empty).
    pub s_max_vo: QueryVO,
    /// The max-key rows of S backing the claim.
    pub s_max_rows: Vec<Record>,
    /// Completeness proof for the R partition `(L, s_max]`.
    pub r_vo: QueryVO,
    /// Completeness proof for the S partition `[r_min, U)`; `None` when the
    /// R partition is empty (join result empty).
    pub s_vo: Option<QueryVO>,
}

/// Result of a band join: the two partitions; pairs are formed locally as
/// `{(r, s) : r.key ≤ s.key}`.
#[derive(Clone, Debug)]
pub struct BandJoinResult {
    pub r_partition: Vec<Record>,
    pub s_partition: Vec<Record>,
}

/// Publisher-side band join.
pub fn answer_band_join(
    r_pub: &Publisher<'_>,
    s_pub: &Publisher<'_>,
) -> Result<(BandJoinResult, BandJoinVO), PublishError> {
    let s_st = s_pub.signed_table();
    let r_st = r_pub.signed_table();
    // Step 1: prove max(S.Aj).
    let (s_max, s_max_rows, s_max_vo) = match s_st.table().key_extent() {
        Some((_, max)) => {
            let q = SelectQuery::range(KeyRange::at_least(max));
            let (rows, vo) = s_pub.answer_select(&q)?;
            (max, rows, vo)
        }
        None => {
            // S empty: prove it with a full-range empty proof; put the
            // claimed max below every legal key so the R partition is
            // trivially empty too.
            let q = SelectQuery::range(KeyRange::all());
            let (rows, vo) = s_pub.answer_select(&q)?;
            (s_st.domain().key_min() - 1, rows, vo)
        }
    };
    // Step 2: R partition = all r with r.key ≤ s_max.
    let r_query = SelectQuery::range(KeyRange {
        lo: Bound::Unbounded,
        hi: Bound::Included(s_max),
    });
    let (r_partition, r_vo) = r_pub.answer_select(&r_query)?;
    // Step 3: S partition = all s with s.key ≥ min(R partition keys).
    let (s_partition, s_vo) = if r_partition.is_empty() {
        (Vec::new(), None)
    } else {
        let key_idx = r_st.table().schema().key_index();
        let r_min = r_partition
            .iter()
            .filter_map(|r| r.get(key_idx).as_int())
            .min()
            .expect("non-empty partition");
        let q = SelectQuery::range(KeyRange::at_least(r_min));
        let (rows, vo) = s_pub.answer_select(&q)?;
        (rows, Some(vo))
    };
    Ok((
        BandJoinResult {
            r_partition,
            s_partition,
        },
        BandJoinVO {
            s_max,
            s_max_vo,
            s_max_rows,
            r_vo,
            s_vo,
        },
    ))
}

/// User-side band join verification: the three range proofs plus the
/// consistency of the claimed extrema, per Section 4.3.
pub fn verify_band_join(
    r_cert: &Certificate,
    s_cert: &Certificate,
    result: &BandJoinResult,
    vo: &BandJoinVO,
) -> Result<(), VerifyError> {
    let s_key_idx = s_cert.schema.key_index();
    let r_key_idx = r_cert.schema.key_index();

    // 1. The s_max claim: either witnessed max-key rows, or S is empty.
    if s_cert.domain.contains_key(vo.s_max) {
        let q = SelectQuery::range(KeyRange::at_least(vo.s_max));
        verify_select(s_cert, &q, &vo.s_max_rows, &vo.s_max_vo)?;
        if vo.s_max_rows.is_empty() {
            return Err(VerifyError::BandJoinBoundsInvalid {
                detail: "claimed max has no witnesses".into(),
            });
        }
        for rec in &vo.s_max_rows {
            if rec.get(s_key_idx).as_int() != Some(vo.s_max) {
                return Err(VerifyError::BandJoinBoundsInvalid {
                    detail: "a row above the claimed max exists".into(),
                });
            }
        }
    } else {
        let q = SelectQuery::range(KeyRange::all());
        let report = verify_select(s_cert, &q, &vo.s_max_rows, &vo.s_max_vo)?;
        if !report.empty {
            return Err(VerifyError::BandJoinBoundsInvalid {
                detail: "S emptiness claim not proven".into(),
            });
        }
    }

    // 2. R partition complete for keys ≤ s_max.
    let r_query = SelectQuery::range(KeyRange {
        lo: Bound::Unbounded,
        hi: Bound::Included(vo.s_max),
    });
    verify_select(r_cert, &r_query, &result.r_partition, &vo.r_vo)?;

    // 3. S partition complete for keys ≥ min(R partition).
    match (&vo.s_vo, result.r_partition.is_empty()) {
        (None, true) => {
            if !result.s_partition.is_empty() {
                return Err(VerifyError::BandJoinBoundsInvalid {
                    detail: "S partition present but R partition empty".into(),
                });
            }
        }
        (None, false) => {
            return Err(VerifyError::BandJoinBoundsInvalid {
                detail: "missing S partition proof".into(),
            });
        }
        (Some(s_vo), false) => {
            let r_min = result
                .r_partition
                .iter()
                .filter_map(|r| r.get(r_key_idx).as_int())
                .min()
                .expect("non-empty");
            let q = SelectQuery::range(KeyRange::at_least(r_min));
            verify_select(s_cert, &q, &result.s_partition, s_vo)?;
        }
        (Some(_), true) => {
            return Err(VerifyError::BandJoinBoundsInvalid {
                detail: "S partition proof for empty R partition".into(),
            });
        }
    }
    Ok(())
}
