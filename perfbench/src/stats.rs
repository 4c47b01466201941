//! Sample summaries and the small JSON writer the report uses.

use std::fmt::Write as _;

/// A failed operation's entry in a latency sample: it missed every limit,
/// so it ranks above every success and can never improve a tail.
pub const FAILED: f64 = f64::INFINITY;

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample;
/// `None` for an empty sample. May return [`FAILED`].
pub fn percentile(sample: &[f64], p: f64) -> Option<f64> {
    if sample.is_empty() {
        return None;
    }
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

pub fn median(sample: &[f64]) -> Option<f64> {
    percentile(sample, 50.0)
}

/// Samples strictly above the nearest-rank percentile `p`.
pub fn beyond(sample: &[f64], p: f64) -> usize {
    let n = sample.len();
    n - ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize
}

pub fn mean(sample: &[f64]) -> Option<f64> {
    (!sample.is_empty()).then(|| sample.iter().sum::<f64>() / sample.len() as f64)
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A JSON object built field by field (keys are trusted identifiers).
#[derive(Default)]
pub struct Json {
    body: String,
}

impl Json {
    pub fn new() -> Self {
        Json::default()
    }

    fn key(&mut self, k: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        let _ = write!(self.body, "\"{k}\":");
    }

    pub fn num(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.body, "{v}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn boolean(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        let _ = write!(self.body, "{v}");
        self
    }

    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.body.push('"');
        for c in v.chars() {
            match c {
                '"' => self.body.push_str("\\\""),
                '\\' => self.body.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.body, "\\u{:04x}", c as u32);
                }
                c => self.body.push(c),
            }
        }
        self.body.push('"');
        self
    }

    pub fn obj(&mut self, k: &str, v: &Json) -> &mut Self {
        self.key(k);
        self.body.push_str(&v.render());
        self
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_rank_above_successes() {
        let mut s: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        s.push(FAILED);
        s.push(FAILED);
        assert_eq!(percentile(&s, 99.0), Some(FAILED));
        assert_eq!(median(&s), Some(51.0));
    }

    #[test]
    fn beyond_counts_the_tail() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(&s, 99.0), 10);
        assert_eq!(beyond(&s, 50.0), 500);
    }

    #[test]
    fn json_escapes_and_renders() {
        let mut inner = Json::new();
        inner.int("n", 3);
        let mut j = Json::new();
        j.str("s", "a\"b")
            .num("x", 1.5)
            .num("nan", f64::NAN)
            .obj("o", &inner);
        assert_eq!(j.render(), r#"{"s":"a\"b","x":1.5,"nan":null,"o":{"n":3}}"#);
    }
}
