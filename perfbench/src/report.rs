//! What one benchmark run prints: the metric lists, the run's check
//! tally, and the summary statistics the workloads share.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value, printed with all its digits.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Tally of attempted operations and failed checks over one run.
#[derive(Default)]
pub struct Tally {
    /// Operations attempted (predictions, serves, recoveries, reference
    /// measurements).
    pub attempted: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
    /// One line per failure, printed to standard error.
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one operation whose checks produced `problems` (empty = pass).
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }

    /// Counts one operation that failed with `why`.
    pub fn fail(&mut self, why: String) {
        self.op(vec![why]);
    }
}

/// Everything a workload run reports.
pub struct Outcome {
    /// Operation and check tally.
    pub tally: Tally,
    /// The metrics of the result line (end-to-end, or per-layer when
    /// traced).
    pub metrics: Vec<Metric>,
    /// The workload's own named figures, printed as a table above the
    /// result line.
    pub table: Vec<Metric>,
}

impl Outcome {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.tally.attempted > 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.tally.attempted,
            self.tally.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite JSON number (non-finite values, which no metric should
/// produce, print as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Quantile `q` of `v` by linear interpolation between order statistics
/// (the usual "type 7" definition); 0 for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let h = (s.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(s.len() - 1);
    s[lo] + (h - lo as f64) * (s[hi] - s[lo])
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// `part / whole` as a percentage (0 when `whole` is 0).
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// `part / whole` (0 when `whole` is 0).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// SplitMix64: the benchmark's own input generator, so that the inputs a
/// seed selects do not depend on any crate under measurement.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` and a workload-specific `stream` tag.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_type_7() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome {
            tally: Tally::default(),
            metrics: vec![metric("setup_s", 0.25, "s")],
            table: Vec::new(),
        };
        o.tally.op(Vec::new());
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.tally.fail("boom".into());
        assert!(!o.correct());
    }
}
