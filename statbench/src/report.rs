//! Metrics, the run result, and how both are printed.

use std::fmt::Write as _;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How many samples the value was computed from.
    pub samples: usize,
    /// For a per-layer metric, the end-to-end metric and workload it
    /// should move; for an end-to-end metric, what it measures here.
    pub note: String,
}

/// Whether `name` is a valid metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The outcome of one run: the output checks, the operation counts, and
/// the metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed output checks, in the order they were found.
    pub errors: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that panicked, were refused, or answered an error.
    pub failed: u64,
    /// Metrics in report order: the ones `BENCHMARK.json` names first,
    /// then any printed for people only.
    pub metrics: Vec<Metric>,
    /// How many leading entries of `metrics` go into the result line.
    pub reported: usize,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
            note: note.into(),
        });
    }

    /// Marks every metric recorded so far as part of the result line.
    pub fn seal_reported(&mut self) {
        self.reported = self.metrics.len();
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Whether every output check passed and every reported value is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
            && self.metrics[..self.reported]
                .iter()
                .all(|m| m.value.is_finite() && valid_name(&m.name))
    }

    /// The human-readable table: every metric with its unit, sample
    /// count, and note.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!("== {title}\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let mark = if i < self.reported { ' ' } else { '+' };
            let _ = writeln!(
                out,
                "{mark} {:<36} {:>14.6} {:<6} n={:<6} {}",
                m.name, m.value, m.unit, m.samples, m.note
            );
        }
        let _ = writeln!(
            out,
            "  attempted={} failed={} correct={}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for e in &self.errors {
            let _ = writeln!(out, "  CHECK FAILED: {e}");
        }
        out
    }

    /// The one-line JSON result. Non-finite values are written as 0
    /// (and make `correct` false), so the line stays valid JSON.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics[..self.reported].iter().enumerate() {
            if i > 0 {
                metrics.push(',');
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// CPU time (user + system) this process has used so far, in seconds,
/// from `/proc/self/stat` (clock ticks of 1/100 s).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or("malformed /proc/self/stat")
    };
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_checked() {
        assert!(valid_name("pruned.sweep_s.iter0"));
        assert!(valid_name("trace.overhead_pct.serve_c1355"));
        assert!(!valid_name(""));
        assert!(!valid_name("what if"));
        assert!(!valid_name("a/b"));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("run_s", 1.25, "s", 3, "");
        o.seal_reported();
        o.metric("extra", 2.0, "s", 1, "");
        let line = o.result_line();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"run_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
        let parsed = statsize::wire::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
