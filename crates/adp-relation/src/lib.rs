//! # adp-relation
//!
//! A compact relational engine substrate for the `adp` workspace
//! (reproduction of Pang et al., *Verifying Completeness of Relational
//! Query Results in Data Publishing*, SIGMOD 2005).
//!
//! The paper's scheme authenticates *relational query results*; this crate
//! supplies the relations: typed [`value::Value`]s, [`schema::Schema`]s,
//! sorted [`table::Table`]s with replica-number duplicate handling
//! (Section 3.1), a [`bptree::BPlusTree`] with node-visit instrumentation
//! (for the Section 6.3 update-locality experiment), the select query AST
//! (key range, non-key filters, projection, DISTINCT — Section 4) with the
//! non-key filter test and the referential-integrity check the
//! authenticated σ/π/⋈ answers rely on, and role-based access control
//! with query rewriting and per-role visibility columns (Figure 1 and
//! Section 4.4). Answering queries — and the joins — is `adp-core`'s job.
//!
//! Nothing in this crate performs authentication — `adp-core` layers the
//! signature-chain scheme on top.

pub mod access;
pub mod bptree;
pub mod exec;
pub mod query;
pub mod record;
pub mod schema;
pub mod table;
pub mod value;

pub use access::{AccessPolicy, Role, RolePolicy};
pub use bptree::{BPlusTree, TreeKey, TreeStats};
pub use exec::{check_referential_integrity, passes_filters};
pub use query::{CompareOp, KeyRange, Predicate, Projection, SelectQuery};
pub use record::Record;
pub use schema::{Column, Schema, SchemaError};
pub use table::{Row, Table};
pub use value::{Value, ValueType};
