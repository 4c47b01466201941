//! Scheme configuration.

use crate::domain::Domain;
use crate::repr::Radix;
use adp_crypto::Hasher;

/// How `g(r)`'s chain components are computed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Formula (2)/(3): a single iterated chain of length `δ = U - r.K - 1`
    /// per direction. Cost is linear in the domain width — the paper's
    /// Section 5.1 notes 2³² hashes ≈ 60 hours for a 4-byte key at
    /// 50 µs/hash — so this mode exists for small domains, tests, and the
    /// `ablation_chain` bench.
    Conceptual,
    /// Section 5.1: base-`B` digit decomposition with canonical and `m`
    /// preferred non-canonical representations; cost is
    /// `O(B · log_B(U - L))` per direction.
    Optimized {
        /// The number base `B > 1`. The paper's Figure 10 shows the optimum
        /// at `2 < B < 3`; 2 is the default.
        base: u32,
    },
}

/// Full configuration of the completeness-verification scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchemeConfig {
    pub mode: Mode,
    /// Digest length in bytes (16 = the paper's 128-bit `M_digest`).
    pub digest_len: usize,
    /// Whether the publisher condenses per-record signatures into one
    /// aggregate (Section 5.2). Disabling it lets benches measure the
    /// savings.
    pub aggregate_signatures: bool,
}

impl Default for SchemeConfig {
    fn default() -> Self {
        SchemeConfig {
            mode: Mode::Optimized { base: 2 },
            digest_len: 16,
            aggregate_signatures: true,
        }
    }
}

impl SchemeConfig {
    /// A conceptual-mode config (small domains only).
    pub fn conceptual() -> Self {
        SchemeConfig {
            mode: Mode::Conceptual,
            ..Default::default()
        }
    }

    /// An optimized-mode config with the given base.
    pub fn with_base(base: u32) -> Self {
        assert!(base >= 2, "base B must be > 1");
        SchemeConfig {
            mode: Mode::Optimized { base },
            ..Default::default()
        }
    }

    /// Builder: sets the digest length.
    pub fn digest_len(mut self, len: usize) -> Self {
        self.digest_len = len;
        self
    }

    /// Builder: toggles signature aggregation.
    pub fn aggregate(mut self, on: bool) -> Self {
        self.aggregate_signatures = on;
        self
    }

    /// The hasher implied by this config.
    pub fn hasher(&self) -> Hasher {
        Hasher::new(self.digest_len)
    }

    /// The radix a table over `domain` uses under this config (`None` in
    /// conceptual mode). Owner, publisher and verifier all derive it here.
    pub fn radix(&self, domain: &Domain) -> Option<Radix> {
        match self.mode {
            Mode::Conceptual => None,
            Mode::Optimized { base } => Some(Radix::for_width(base, domain.width())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SchemeConfig::default();
        assert_eq!(c.digest_len * 8, 128, "M_digest default");
        assert_eq!(c.mode, Mode::Optimized { base: 2 });
        assert!(c.aggregate_signatures);
    }

    #[test]
    fn builders() {
        let c = SchemeConfig::with_base(10).digest_len(32).aggregate(false);
        assert_eq!(c.mode, Mode::Optimized { base: 10 });
        assert_eq!(c.hasher().digest_len(), 32);
        assert!(!c.aggregate_signatures);
    }

    #[test]
    #[should_panic(expected = "base B must be > 1")]
    fn base_one_rejected() {
        let _ = SchemeConfig::with_base(1);
    }
}
