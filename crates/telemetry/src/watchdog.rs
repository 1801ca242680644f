//! Watchdog: a small rule engine evaluated over the live [`Registry`].
//!
//! Rules read only well-known metric names (heartbeat gauge, loss and
//! staleness gauges, retry counters), so the watchdog has no coupling to
//! the trainer beyond the metric-name contract. Each evaluation produces
//! a [`HealthReport`] — served as JSON by the metrics server's `/health`
//! endpoint — with a typed [`RuleKind`] on each finding.

use std::time::Instant;

use crate::json::{escape_into, number};
use crate::registry::Registry;

/// Metric names the watchdog reads. Producers (trainer, preconditioner,
/// collectives) record under these names; keeping them in one place is
/// the whole name contract.
pub mod names {
    /// Gauge: µs-since-registry-origin of the most recent iteration
    /// heartbeat, across any rank.
    pub const HEARTBEAT_US: &str = "train/heartbeat_us";
    /// Gauge: most recent training loss.
    pub const LOSS: &str = "train/loss";
    /// Gauge: iterations since the K-FAC eigenbasis was last refreshed.
    pub const STALENESS_AGE: &str = "kfac/staleness_age";
    /// Counter: collective operations attempted.
    pub const COMM_OPS: &str = "comm/ops";
    /// Counter: collective operations that needed a retry.
    pub const COMM_RETRIES: &str = "comm/retries";
    /// Gauge: current membership epoch (0 = boot group; +1 per
    /// committed shrink).
    pub const MEMBERSHIP_EPOCH: &str = "comm/membership_epoch";
}

/// Which rule produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleKind {
    /// No iteration heartbeat within the configured stall window.
    HeartbeatStall,
    /// A monitored gauge went NaN/±Inf (diverging training).
    NonFinite,
    /// K-FAC factor staleness exceeded its ceiling.
    StalenessCeiling,
    /// Collective retry rate above threshold (flaky fabric).
    RetryRate,
}

impl RuleKind {
    fn as_str(self) -> &'static str {
        match self {
            RuleKind::HeartbeatStall => "heartbeat_stall",
            RuleKind::NonFinite => "non_finite",
            RuleKind::StalenessCeiling => "staleness_ceiling",
            RuleKind::RetryRate => "retry_rate",
        }
    }
}

/// Finding severity. `Critical` findings make the overall report
/// critical and `/health` answer HTTP 503.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational; healthy.
    Ok,
    /// Degraded but progressing.
    Warn,
    /// Stalled or diverging; intervention (or ladder escalation) needed.
    Critical,
}

impl Severity {
    fn as_str(self) -> &'static str {
        match self {
            Severity::Ok => "ok",
            Severity::Warn => "warn",
            Severity::Critical => "critical",
        }
    }
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule that fired.
    pub rule: RuleKind,
    /// How bad.
    pub severity: Severity,
    /// Human-readable detail (includes the observed values).
    pub message: String,
}

/// Outcome of one watchdog evaluation.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Worst severity across findings (`Ok` when no rule fired).
    pub severity: Severity,
    /// Rule violations, worst first.
    pub findings: Vec<Finding>,
    /// Evaluation time, µs since the registry origin.
    pub checked_at_us: u64,
}

impl HealthReport {
    /// Serialize as a JSON document (the `/health` response body).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"status\": ");
        escape_into(&mut out, self.severity.as_str());
        out.push_str(&format!(", \"checked_at_us\": {}", self.checked_at_us));
        out.push_str(", \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str("{\"rule\": ");
            escape_into(&mut out, f.rule.as_str());
            out.push_str(", \"severity\": ");
            escape_into(&mut out, f.severity.as_str());
            out.push_str(", \"message\": ");
            escape_into(&mut out, &f.message);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Watchdog thresholds. Defaults suit the in-process smoke runs; real
/// deployments would widen the stall window.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// Max µs between iteration heartbeats before `HeartbeatStall`
    /// fires (only once a first heartbeat has been seen).
    pub heartbeat_stall_us: u64,
    /// `StalenessCeiling` warns above this factor age (iterations) and
    /// goes critical at twice it.
    pub staleness_ceiling: f64,
    /// `RetryRate` warns when retries/ops exceeds this fraction and
    /// goes critical at twice it. Evaluated only after `min_comm_ops`.
    pub retry_rate_warn: f64,
    /// Minimum collective-op count before the retry-rate rule engages
    /// (avoids firing on the first retried op of a run).
    pub min_comm_ops: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            heartbeat_stall_us: 30_000_000, // 30 s
            staleness_ceiling: 100.0,
            retry_rate_warn: 0.05,
            min_comm_ops: 20,
        }
    }
}

/// Rule engine over a registry. Cheap to clone; evaluation reads only
/// metric snapshots (no locks held across rules).
#[derive(Debug, Clone)]
pub struct Watchdog {
    registry: Registry,
    config: WatchdogConfig,
}

impl Watchdog {
    /// Watchdog over `registry` with the given thresholds.
    pub fn new(registry: Registry, config: WatchdogConfig) -> Self {
        Watchdog { registry, config }
    }

    /// Run every rule now and report.
    pub fn evaluate(&self) -> HealthReport {
        let now_us = self.registry.micros_at(Instant::now());
        let mut findings = Vec::new();

        // Rule 1: heartbeat stall. The heartbeat gauge holds the µs
        // timestamp of the last completed iteration on any rank; a zero
        // gauge means training has not started (not a stall).
        let heartbeat = self.registry.gauge(names::HEARTBEAT_US).get();
        if heartbeat > 0.0 {
            let age = now_us.saturating_sub(heartbeat as u64);
            if age > self.config.heartbeat_stall_us {
                findings.push(Finding {
                    rule: RuleKind::HeartbeatStall,
                    severity: Severity::Critical,
                    message: format!(
                        "no heartbeat for {age} µs (limit {} µs)",
                        self.config.heartbeat_stall_us
                    ),
                });
            }
        }

        // Rule 2: non-finite values in any gauge. A NaN loss or
        // condition number is the canonical divergence signal.
        for (name, value) in self.registry.gauges() {
            if !value.is_finite() {
                findings.push(Finding {
                    rule: RuleKind::NonFinite,
                    severity: Severity::Critical,
                    message: format!("gauge '{name}' is {}", number_or_nan(value)),
                });
            }
        }

        // Rule 3: factor staleness ceiling.
        let staleness = self.registry.gauge(names::STALENESS_AGE).get();
        if staleness.is_finite() && staleness > self.config.staleness_ceiling {
            let severity = if staleness > 2.0 * self.config.staleness_ceiling {
                Severity::Critical
            } else {
                Severity::Warn
            };
            findings.push(Finding {
                rule: RuleKind::StalenessCeiling,
                severity,
                message: format!(
                    "K-FAC factors {staleness:.0} iterations stale (ceiling {:.0})",
                    self.config.staleness_ceiling
                ),
            });
        }

        // Rule 4: collective retry rate.
        let ops = self.registry.counter(names::COMM_OPS).get();
        let retries = self.registry.counter(names::COMM_RETRIES).get();
        if ops >= self.config.min_comm_ops {
            let rate = retries as f64 / ops as f64;
            if rate > self.config.retry_rate_warn {
                let severity = if rate > 2.0 * self.config.retry_rate_warn {
                    Severity::Critical
                } else {
                    Severity::Warn
                };
                findings.push(Finding {
                    rule: RuleKind::RetryRate,
                    severity,
                    message: format!(
                        "collective retry rate {rate:.3} ({retries}/{ops} ops, warn at {:.3})",
                        self.config.retry_rate_warn
                    ),
                });
            }
        }

        findings.sort_by_key(|f| std::cmp::Reverse(f.severity));
        let severity = findings.first().map(|f| f.severity).unwrap_or(Severity::Ok);
        HealthReport {
            severity,
            findings,
            checked_at_us: now_us,
        }
    }
}

fn number_or_nan(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        format!("{}Inf", if v > 0.0 { "+" } else { "-" })
    } else {
        number(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn wd(registry: &Registry) -> Watchdog {
        Watchdog::new(
            registry.clone(),
            WatchdogConfig {
                heartbeat_stall_us: 1_000,
                staleness_ceiling: 10.0,
                retry_rate_warn: 0.1,
                min_comm_ops: 5,
            },
        )
    }

    #[test]
    fn quiet_registry_is_healthy() {
        let registry = Registry::new();
        let report = wd(&registry).evaluate();
        assert_eq!(report.severity, Severity::Ok);
        assert!(report.findings.is_empty());
        let json = Json::parse(&report.to_json()).unwrap();
        assert_eq!(json.get("status").unwrap().as_str(), Some("ok"));
    }

    #[test]
    fn stalled_heartbeat_goes_critical() {
        let registry = Registry::new();
        registry.gauge(names::HEARTBEAT_US).set(1.0); // ancient
        std::thread::sleep(std::time::Duration::from_millis(3));
        let report = wd(&registry).evaluate();
        assert_eq!(report.severity, Severity::Critical);
        assert_eq!(report.findings[0].rule, RuleKind::HeartbeatStall);
    }

    #[test]
    fn nonfinite_gauge_goes_critical() {
        let registry = Registry::new();
        registry.gauge(names::LOSS).set(f64::NAN);
        let report = wd(&registry).evaluate();
        assert_eq!(report.severity, Severity::Critical);
        assert!(report
            .findings
            .iter()
            .any(|f| f.rule == RuleKind::NonFinite));
        // The report itself must still be valid JSON.
        Json::parse(&report.to_json()).unwrap();
    }

    #[test]
    fn staleness_warns_then_goes_critical() {
        let registry = Registry::new();
        registry.gauge(names::STALENESS_AGE).set(15.0);
        assert_eq!(wd(&registry).evaluate().severity, Severity::Warn);
        registry.gauge(names::STALENESS_AGE).set(25.0);
        assert_eq!(wd(&registry).evaluate().severity, Severity::Critical);
    }

    #[test]
    fn retry_rate_needs_minimum_volume() {
        let registry = Registry::new();
        registry.counter(names::COMM_OPS).add(2);
        registry.counter(names::COMM_RETRIES).add(2);
        assert_eq!(wd(&registry).evaluate().severity, Severity::Ok);
        registry.counter(names::COMM_OPS).add(8); // now 10 ops, 2 retries
        let report = wd(&registry).evaluate();
        assert_eq!(report.severity, Severity::Warn);
        assert_eq!(report.findings[0].rule, RuleKind::RetryRate);
    }
}
