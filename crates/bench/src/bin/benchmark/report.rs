//! Run outcomes: named metrics with units, the oracle tally, and the
//! one-line JSON result the benchmark ends with.

use std::fmt::Write as _;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Whether this is host (wall-clock) time rather than a simulated
    /// quantity; simulated quantities repeat exactly for one input.
    pub host: bool,
}

/// Everything one benchmark run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Oracle-checked operations (simulations) attempted.
    pub attempted: u64,
    /// Why each failed operation or check failed.
    pub failures: Vec<String>,
    /// Operations that failed the oracle.
    pub failed: u64,
    /// The metrics, in emission order.
    pub metrics: Vec<Metric>,
    /// The report digest of the input (`oracle::report_digest`).
    pub digest: u64,
    /// Free-form `key = value` lines for the human summary and artifact.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Records a simulated quantity or count `value` under `name`.
    #[cfg_attr(not(feature = "trace"), allow(dead_code))]
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.record(name, value, unit, false);
    }

    /// Records a host measurement `value` under `name`.
    pub fn push_host(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.record(name, value, unit, true);
    }

    /// A non-finite value is a benchmark bug: it fails the run instead of
    /// printing invalid JSON.
    fn record(&mut self, name: &'static str, value: f64, unit: &'static str, host: bool) {
        let value = if value.is_finite() {
            value
        } else {
            self.failures.push(format!("metric {name} is not finite"));
            0.0
        };
        self.metrics.push(Metric {
            name,
            value,
            unit,
            host,
        });
    }

    /// Records one oracle verdict.
    pub fn tally(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Adds a line to the human summary.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.value,
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The artifact written beside the build: the result plus the report
    /// digest, notes and failure reasons.
    pub fn artifact_json(&self, workload: &str, seed: u64) -> String {
        let list = |items: Vec<String>| items.join(", ");
        format!(
            "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"result\": {},\n  \
             \"report_digest\": \"{:#018x}\",\n  \"notes\": {{{}}},\n  \"failures\": [{}]\n}}\n",
            self.result_json(),
            self.digest,
            list(
                self.notes
                    .iter()
                    .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
                    .collect()
            ),
            list(
                self.failures
                    .iter()
                    .map(|f| format!("\"{}\"", escape(f)))
                    .collect()
            ),
        )
    }

    /// The human-readable summary printed before the result line.
    pub fn human(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("workload {workload}, seed {seed}\n");
        for m in &self.metrics {
            let kind = if m.host { "host" } else { "simulated" };
            let _ = writeln!(
                out,
                "  {:<30} {:>18.6} {:<7} {kind}",
                m.name, m.value, m.unit
            );
        }
        for (k, v) in &self.notes {
            let _ = writeln!(out, "  {k}: {v}");
        }
        let _ = writeln!(
            out,
            "  oracle: {} of {} runs failed{}",
            self.failed,
            self.attempted,
            if self.correct() {
                ""
            } else {
                " -- CHECK FAILED"
            }
        );
        for f in &self.failures {
            let _ = writeln!(out, "    {f}");
        }
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', " ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.tally(Ok(()));
        o.push_host("sim_s", 0.25, "s");
        assert_eq!(
            o.result_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"sim_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.push("bad", f64::NAN, "s");
        assert!(!o.correct());
    }
}
