//! Correctness bookkeeping: digests of the deterministic outputs and the
//! attempted/failed tally that decides a run's verdict.

use gpusim::{Metric, SimStats};
use minijson::{Map, ToJson, Value};
use zatel::Prediction;
use zatel_proto::{GroupReport, MetricValues, PredictResponse};

/// FNV-1a over the bytes of every deterministic output of a run.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds a string and a separator, so adjacent fields cannot merge.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write(s.as_bytes()).write(&[0xff])
    }

    /// Folds a prediction: the bits of every predicted metric and every
    /// group's traced fraction and simulator statistics.
    pub fn prediction(&mut self, prediction: &Prediction) -> &mut Self {
        for metric in Metric::ALL {
            self.write(&prediction.value(metric).to_bits().to_le_bytes());
        }
        for group in &prediction.groups {
            self.write(&group.traced_fraction.to_bits().to_le_bytes());
            self.stats(&group.stats);
        }
        self
    }

    /// Folds a simulator statistics record (its `Debug` form prints every
    /// counter exactly).
    pub fn stats(&mut self, stats: &SimStats) -> &mut Self {
        self.write_str(&format!("{stats:?}"))
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The parts of a prediction a served response must reproduce exactly:
/// `k`, the predicted metric vector and the per-group reports with their
/// wall-clock field zeroed (the same fields `deterministic_json` keeps).
pub fn subset(k: u32, prediction: &MetricValues, groups: &[GroupReport]) -> String {
    let mut m = Map::new();
    m.insert("k".into(), Value::from(k));
    m.insert("prediction".into(), prediction.to_json());
    let groups = groups
        .iter()
        .map(|g| {
            let mut stripped = g.clone();
            stripped.wall_ms = 0.0;
            stripped.to_json()
        })
        .collect();
    m.insert("groups".into(), Value::Array(groups));
    Value::Object(m).to_string()
}

/// [`subset`] of an in-process prediction.
pub fn prediction_subset(prediction: &Prediction) -> String {
    let groups: Vec<GroupReport> = prediction
        .groups
        .iter()
        .map(GroupReport::from_outcome)
        .collect();
    subset(
        prediction.k,
        &MetricValues::from_prediction(prediction),
        &groups,
    )
}

/// [`subset`] of a served response.
pub fn response_subset(response: &PredictResponse) -> String {
    subset(response.k, &response.prediction, &response.groups)
}

/// Operations attempted and failed. An operation fails when the program
/// returns an error, refuses it, or returns an output that differs from
/// the independent computation it is checked against.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused or were incorrect.
    pub failed: u64,
    /// One line per failure, for the report.
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.problems.push(why.into());
    }

    /// Checks that an operation's output equals its expected value,
    /// failing the operation otherwise.
    pub fn expect_same(&mut self, what: &str, expected: &str, got: &str) {
        if expected != got {
            self.fail(format!("{what}: output differs from its check"));
        }
    }

    /// Whether every attempted operation succeeded with correct output.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_fields_and_is_stable() {
        let mut a = Digest::default();
        a.write_str("ab").write_str("c");
        let mut b = Digest::default();
        b.write_str("a").write_str("bc");
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.write_str("ab").write_str("c");
        assert_eq!(a.hex(), c.hex());
    }

    #[test]
    fn corrupted_digest_trips_the_check() {
        let mut good = Digest::default();
        good.stats(&SimStats {
            cycles: 100,
            ..SimStats::default()
        });
        let mut corrupted = Digest::default();
        corrupted.stats(&SimStats {
            cycles: 101,
            ..SimStats::default()
        });
        let mut tally = Tally::default();
        tally.attempt();
        tally.expect_same("digest", &good.hex(), &good.hex());
        assert!(tally.correct());
        tally.attempt();
        tally.expect_same("digest", &good.hex(), &corrupted.hex());
        assert!(!tally.correct());
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn nothing_attempted_is_not_correct() {
        assert!(!Tally::default().correct());
    }

    #[test]
    fn subset_ignores_wall_clock_only() {
        let group = GroupReport {
            index: 0,
            pixels: 64,
            traced_fraction: 0.5,
            target_percent: 0.5,
            cycles: 1000,
            wall_ms: 3.0,
            trace: None,
        };
        let values = MetricValues([1.0; 7]);
        let slower = GroupReport {
            wall_ms: 9.0,
            ..group.clone()
        };
        assert_eq!(
            subset(4, &values, std::slice::from_ref(&group)),
            subset(4, &values, &[slower])
        );
        let other = GroupReport {
            cycles: 1001,
            ..group.clone()
        };
        assert_ne!(subset(4, &values, &[group]), subset(4, &values, &[other]));
    }
}
