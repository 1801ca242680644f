//! `--compare A.json B.json`: do two sets of runs agree?
//!
//! One row per (end-to-end metric, workload): both medians, how much
//! worse B is than A as a share of A, the metric's bound, and a verdict.
//! Used to check that two runs of one commit agree, and by every later
//! change to compare itself against its parent.

use crate::jsonio::Json;
use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, spread};
use crate::workload::ALL;

/// Outcome for one (metric, workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is not worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A set's own quartile spread exceeds the bound, so a difference of
    /// that size cannot be told from noise; never reported as unchanged.
    Unresolved,
}

impl Verdict {
    /// Spelling in the printed table.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Median of A's runs.
    pub median_a: f64,
    /// Median of B's runs.
    pub median_b: f64,
    /// How much worse B is, as a share of A's median (negative: better).
    pub worse_by: f64,
    /// The larger of the two sets' interquartile spreads, as a share of
    /// the set's median.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare two sets of values of one metric on one workload.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Row {
    let (median_a, median_b) = (median(a), median(b));
    let change = (median_b - median_a) / median_a.abs();
    let worse_by = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = spread(a).max(spread(b));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Row {
        median_a,
        median_b,
        worse_by,
        spread,
        verdict,
    }
}

fn values(doc: &Json, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    let list = doc
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("no values for {metric} on {workload}"))?;
    let out: Vec<f64> = list.iter().filter_map(Json::as_f64).collect();
    if out.is_empty() || out.len() != list.len() {
        return Err(format!(
            "values for {metric} on {workload} are not all numbers"
        ));
    }
    Ok(out)
}

/// Compare two suite outputs. Returns the printed table and whether any
/// row is `worse`; workloads missing from either file are skipped, a
/// workload present in both with a missing metric is an error.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let mut table = format!(
        "{:<14}{:<12}{:>14}{:>14}{:>10}{:>9}{:>9}  verdict\n",
        "metric", "workload", "median A", "median B", "worse by", "spread", "bound"
    );
    let mut any_worse = false;
    let has = |doc: &Json, w: &str| doc.get("workloads").and_then(|x| x.get(w)).is_some();
    for m in END_TO_END {
        for w in ALL.iter().filter(|w| has(a, w.name) && has(b, w.name)) {
            let row = judge(
                &values(a, w.name, m.name)?,
                &values(b, w.name, m.name)?,
                m.better,
                m.bound,
            );
            any_worse |= row.verdict == Verdict::Worse;
            table.push_str(&format!(
                "{:<14}{:<12}{:>14.5}{:>14.5}{:>+9.2}%{:>8.2}%{:>8.0}%  {}\n",
                m.name,
                w.name,
                row.median_a,
                row.median_b,
                row.worse_by * 100.0,
                row.spread * 100.0,
                m.bound * 100.0,
                row.verdict.name()
            ));
        }
    }
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let steady = [100.0, 100.5, 99.5, 100.2, 99.8];
        let shifted = |by: f64| steady.map(|v| v * by);
        // Within the bound either way: ok.
        assert_eq!(
            judge(&steady, &shifted(1.05), Better::Lower, 0.07).verdict,
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &shifted(0.80), Better::Lower, 0.07).verdict,
            Verdict::Ok
        );
        // Worse by more than the bound, in the metric's own direction.
        assert_eq!(
            judge(&steady, &shifted(1.10), Better::Lower, 0.07).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &shifted(0.90), Better::Higher, 0.07).verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &shifted(1.10), Better::Higher, 0.07).verdict,
            Verdict::Ok
        );
        // A set noisier than the bound resolves nothing, whatever the medians say.
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.07).verdict,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy, &shifted(1.5), Better::Lower, 0.07).verdict,
            Verdict::Unresolved
        );
        let row = judge(&steady, &shifted(1.10), Better::Lower, 0.07);
        assert!((row.worse_by - 0.10).abs() < 1e-12 && row.spread < 0.07);
    }

    fn suite(iter_ms: &[f64]) -> Json {
        let metric = |values: &[f64]| format!(r#"{{"unit": "x", "values": {values:?}}}"#);
        let others: String = END_TO_END
            .iter()
            .skip(1)
            .map(|m| format!(r#", "{}": {}"#, m.name, metric(&[1.0, 1.0, 1.0])))
            .collect();
        Json::parse(&format!(
            r#"{{"workloads": {{"sgd": {{"end_to_end": {{"iter_ms": {}{others}}}}}}}}}"#,
            metric(iter_ms)
        ))
        .unwrap()
    }

    #[test]
    fn compare_reads_suite_files_and_flags_a_regression() {
        let bound = END_TO_END[0].bound;
        let a = suite(&[10.0, 10.1, 9.9]);
        let by = |f: f64| suite(&[10.0 * f, 10.1 * f, 9.9 * f]);
        let (table, worse) = compare(&a, &by(1.0 + bound / 2.0)).unwrap();
        assert!(!worse, "{table}");
        assert_eq!(table.lines().count(), 1 + END_TO_END.len(), "{table}");
        assert!(table.lines().nth(1).unwrap().ends_with("ok"), "{table}");
        let (table, worse) = compare(&a, &by(1.0 + bound * 2.0)).unwrap();
        assert!(worse && table.contains("worse"), "{table}");
        let broken = Json::parse(r#"{"workloads": {"sgd": {"end_to_end": {}}}}"#).unwrap();
        assert!(compare(&a, &broken).is_err());
    }
}
