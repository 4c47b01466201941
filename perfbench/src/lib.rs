//! The verified-answer benchmark: three workloads against an in-process
//! `adp-server`, every answer verified against the owner certificate,
//! with a traced run that times each layer's public calls from outside.
//! `run.py` builds this crate and drives `perfbench` through it.

pub mod bench;
pub mod gen;
pub mod stats;
pub mod trace;
