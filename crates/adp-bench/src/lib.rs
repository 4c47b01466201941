//! # adp-bench
//!
//! Workload generation and shared harness utilities for regenerating every
//! table and figure of the paper's evaluation (Section 6). The actual
//! experiment drivers live in `benches/` (run with `cargo bench`):
//!
//! | Bench target | Paper artifact |
//! |--------------|----------------|
//! | `table1_params` | Table 1 (cost parameters, paper vs measured) |
//! | `fig9_traffic` | Figure 9 (user traffic overhead) |
//! | `fig10_user_cost` | Figure 10 (user computation overhead vs `B`) |
//! | `sec62_scaling` | Section 6.2 absolute numbers (15.5 ms / 689 ms / 6.81 s) |
//! | `sec63_updates` | Section 6.3 update locality vs Merkle trees |
//! | `ablation_chain` | Section 5.1 motivation: conceptual vs optimized chains |
//! | `baseline_compare` | Section 2.3 / 6.1 comparison vs \[10\], \[13\], \[20\] |
//! | `crypto_micro`, `vo_micro` | Criterion micro-benchmarks |

use adp_core::prelude::*;
use adp_relation::{Column, Record, Schema, Table, Value, ValueType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

pub mod chaos;
pub mod compare;
pub mod load;

/// Key distributions for generated tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyDist {
    /// Evenly spaced keys (`gap` apart) — deterministic selectivity.
    Spaced { gap: i64 },
    /// Uniform random keys in the legal key interval.
    Uniform,
    /// Clustered keys: a few dense runs (stress for duplicates/ranges).
    Clustered,
    /// Zipf-distributed keys (exponent ~1): heavy duplication on a few hot
    /// keys, exercising the replica-number machinery at scale.
    Zipf,
}

/// Workload builder: tables with a key column and a sized payload.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    pub rows: usize,
    /// Payload bytes per record (drives the paper's `M_r`).
    pub payload_bytes: usize,
    pub dist: KeyDist,
    pub seed: u64,
}

impl WorkloadSpec {
    /// A spec with sensible defaults.
    pub fn new(rows: usize) -> Self {
        WorkloadSpec {
            rows,
            payload_bytes: 64,
            dist: KeyDist::Spaced { gap: 10 },
            seed: 42,
        }
    }

    /// Builder: payload size.
    pub fn payload(mut self, bytes: usize) -> Self {
        self.payload_bytes = bytes;
        self
    }

    /// Builder: key distribution.
    pub fn dist(mut self, dist: KeyDist) -> Self {
        self.dist = dist;
        self
    }

    /// The schema used by generated tables: `k INT, grp INT, payload BYTES`.
    pub fn schema() -> Schema {
        Schema::new(
            vec![
                Column::new("k", ValueType::Int),
                Column::new("grp", ValueType::Int),
                Column::new("payload", ValueType::Bytes),
            ],
            "k",
        )
    }

    /// Generates the table and a domain that fits it.
    pub fn build(&self) -> (Table, Domain) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let domain = match self.dist {
            KeyDist::Spaced { gap } => Domain::new(0, (self.rows as i64 + 2) * gap.max(1) + 4),
            KeyDist::Uniform | KeyDist::Clustered | KeyDist::Zipf => Domain::new(0, 1 << 24),
        };
        let mut t = Table::new("bench", Self::schema());
        for i in 0..self.rows {
            let k = match self.dist {
                KeyDist::Spaced { gap } => domain.key_min() + (i as i64) * gap,
                KeyDist::Uniform => rng.gen_range(domain.key_min()..=domain.key_max()),
                KeyDist::Clustered => {
                    let cluster = (i / 50) as i64;
                    domain.key_min() + cluster * 1_000 + rng.gen_range(0..40)
                }
                KeyDist::Zipf => {
                    // Inverse-CDF sampling of a rank-Zipf over 1000 ranks:
                    // rank r with weight 1/r.
                    let ranks = 1_000u32;
                    let h: f64 = (1..=ranks).map(|r| 1.0 / r as f64).sum();
                    let mut target = rng.gen_range(0.0..h);
                    let mut rank = 1u32;
                    for r in 1..=ranks {
                        target -= 1.0 / r as f64;
                        if target <= 0.0 {
                            rank = r;
                            break;
                        }
                    }
                    domain.key_min() + (rank as i64) * 7
                }
            };
            let mut payload = vec![0u8; self.payload_bytes];
            rng.fill(payload.as_mut_slice());
            t.insert(Record::new(vec![
                Value::Int(k),
                Value::Int((i % 10) as i64),
                Value::Bytes(payload),
            ]))
            .expect("generated record is schema-valid");
        }
        (t, domain)
    }

    /// Generates, signs, and certifies in one go.
    pub fn signed(&self, owner: &Owner, config: SchemeConfig) -> (SignedTable, Certificate) {
        let (table, domain) = self.build();
        let st = owner
            .sign_table(table, domain, config)
            .expect("generated keys are in-domain");
        let cert = owner.certificate(&st);
        (st, cert)
    }
}

/// A shared bench owner (keygen once per process). 1024-bit keys match the
/// paper's `M_sign`.
pub fn bench_owner() -> &'static Owner {
    use std::sync::OnceLock;
    static OWNER: OnceLock<Owner> = OnceLock::new();
    OWNER.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xBE9C);
        Owner::new(1024, &mut rng)
    })
}

/// A faster owner for experiments where signing cost is not the subject.
pub fn bench_owner_small() -> &'static Owner {
    use std::sync::OnceLock;
    static OWNER: OnceLock<Owner> = OnceLock::new();
    OWNER.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xBE9D);
        Owner::new(512, &mut rng)
    })
}

/// Timing samples per measurement, from `ADP_PERF_SAMPLES` (default 25;
/// CI smoke jobs set 2 so harnesses cannot rot without burning minutes).
pub fn perf_samples() -> usize {
    std::env::var("ADP_PERF_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(25usize)
        .max(1)
}

/// Median wall time of one call to `f` in nanoseconds, calibrated so each
/// sample spans ~2 ms (cheap routines are batched; expensive ones run
/// once per sample). The same estimator `perf_trajectory` uses.
pub fn measure_ns<T>(n_samples: usize, mut f: impl FnMut() -> T) -> f64 {
    measure_setup_ns(n_samples, || (), |_| f())
}

/// [`measure_ns`] for a routine that consumes state: every call gets its
/// own input from `setup`, built (and dropped) outside the timed region.
pub fn measure_setup_ns<S, T>(
    n_samples: usize,
    mut setup: impl FnMut() -> S,
    mut f: impl FnMut(&mut S) -> T,
) -> f64 {
    let mut input = setup();
    let start = Instant::now();
    std::hint::black_box(f(&mut input));
    let once = start.elapsed().max(Duration::from_nanos(50));
    let per_sample = (Duration::from_millis(2).as_nanos() / once.as_nanos()).clamp(1, 20_000);
    let mut times: Vec<f64> = Vec::with_capacity(n_samples);
    for _ in 0..n_samples {
        let mut inputs: Vec<S> = (0..per_sample).map(|_| setup()).collect();
        let start = Instant::now();
        for input in &mut inputs {
            std::hint::black_box(f(input));
        }
        times.push(start.elapsed().as_nanos() as f64 / per_sample as f64);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    times[times.len() / 2]
}

/// Times a closure, returning (result, elapsed).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Times a closure averaged over `iters` runs (after one warmup).
pub fn timed_avg(iters: usize, mut f: impl FnMut()) -> Duration {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed() / iters as u32
}

/// Minimal fixed-width table printer for the figure harnesses.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Starts a table and prints the header row.
    pub fn new(headers: &[&str]) -> Self {
        let widths: Vec<usize> = headers.iter().map(|h| h.len().max(10)).collect();
        let p = TablePrinter { widths };
        p.row(headers);
        let rule: Vec<String> = p.widths.iter().map(|w| "-".repeat(*w)).collect();
        p.row(&rule.iter().map(String::as_str).collect::<Vec<_>>());
        p
    }

    /// Prints one row.
    pub fn row(&self, cells: &[&str]) {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            let w = self.widths.get(i).copied().unwrap_or(10);
            line.push_str(&format!("{cell:>w$}  "));
        }
        println!("{}", line.trim_end());
    }
}

/// Formats a float with 2 decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a duration in milliseconds with 3 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adp_relation::{KeyRange, SelectQuery};

    #[test]
    fn spaced_workload_has_deterministic_selectivity() {
        let (t, domain) = WorkloadSpec::new(100).build();
        assert_eq!(t.len(), 100);
        assert!(t
            .rows()
            .iter()
            .all(|r| domain.contains_key(r.record.key(t.schema()))));
        // Keys at key_min, key_min+10, ...
        assert_eq!(t.rows()[0].record.key(t.schema()), domain.key_min());
        assert_eq!(t.rows()[99].record.key(t.schema()), domain.key_min() + 990);
    }

    #[test]
    fn payload_drives_record_size() {
        let (t, _) = WorkloadSpec::new(2).payload(512).build();
        assert!(t.rows()[0].record.wire_size() >= 512);
    }

    #[test]
    fn zipf_produces_hot_keys() {
        let (t, _) = WorkloadSpec::new(400).dist(KeyDist::Zipf).build();
        // The hottest key should have many replicas.
        let max_replica = t.rows().iter().map(|r| r.replica).max().unwrap();
        assert!(
            max_replica >= 10,
            "zipf should duplicate hot keys, got {max_replica}"
        );
    }

    #[test]
    fn uniform_and_clustered_build() {
        for dist in [KeyDist::Uniform, KeyDist::Clustered, KeyDist::Zipf] {
            let (t, domain) = WorkloadSpec::new(50).dist(dist).build();
            assert_eq!(t.len(), 50);
            assert!(t
                .rows()
                .iter()
                .all(|r| domain.contains_key(r.record.key(t.schema()))));
        }
    }

    #[test]
    fn signed_workload_verifies() {
        let (st, cert) = WorkloadSpec::new(30).signed(bench_owner_small(), SchemeConfig::default());
        let query = SelectQuery::range(KeyRange::all());
        let (result, vo) = Publisher::new(&st).answer_select(&query).unwrap();
        let report = verify_select(&cert, &query, &result, &vo).unwrap();
        assert_eq!(report.matched, 30);
    }
}
