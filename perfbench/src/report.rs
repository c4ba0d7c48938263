//! What one run prints: human-readable metric lines and metadata, then,
//! as the last line of standard output, the result object.

use std::fmt::Write as _;

/// A JSON value, written without any outside crate.
#[derive(Debug, Clone)]
pub enum Json {
    /// A number; non-finite values are written as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Json>),
    /// An object with keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = String::new();
        self.write(&mut s);
        f.write_str(&s)
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was computed from.
    pub samples: usize,
    /// How the value was obtained (percentile, windows, …).
    pub note: String,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Counts or the first disagreement.
    pub detail: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Output checks; the run is correct when all hold.
    pub checks: Vec<Check>,
    /// Operations the run attempted (calls, requests or steps).
    pub attempted: u64,
    /// Attempted operations that failed: errors, lost or wrong answers.
    pub failed: u64,
    /// Run metadata (rates, counts per phase, seeds, …).
    pub meta: Vec<(String, Json)>,
    /// Extra human-readable lines (per-layer tables).
    pub lines: Vec<String>,
}

impl Report {
    /// Adds a metric.
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

    /// Reports `setup_s`, the median of the timed set-ups, with every
    /// set-up's time in the metadata.
    pub fn setup(&mut self, times: &[f64], what: &str) {
        let n = times.len();
        self.metric(
            "setup_s",
            crate::stats::median(times),
            "s",
            n,
            format!("median of {n} set-ups: {what}"),
        );
        self.meta("setup_repeats", n);
        self.meta(
            "setup_s_each",
            Json::Arr(times.iter().map(|&t| Json::Num(t)).collect()),
        );
    }

    /// Adds an output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Adds a metadata entry.
    pub fn meta(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        self.meta.push((key.into(), value.into()));
    }

    /// Whether every check held and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok) && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the report; the result object is the last line.
    pub fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
        for c in &self.checks {
            println!(
                "check {:<44} {}  {}",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            );
        }
        for m in &self.metrics {
            println!(
                "metric {:<44} {:>16.4} {:<6} n={:<9} {}",
                m.name, m.value, m.unit, m.samples, m.note
            );
        }
        println!("meta {}", Json::Obj(self.meta.clone()));
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
                    )
                })
                .collect(),
        );
        let result = Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", metrics),
        ]);
        println!("{result}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_nests() {
        let j = Json::obj([
            ("a", Json::Num(1.25)),
            ("b", Json::from("x\"y")),
            ("c", Json::Arr(vec![Json::Bool(true), Json::Num(f64::NAN)])),
        ]);
        assert_eq!(
            j.to_string(),
            r#"{"a": 1.25, "b": "x\"y", "c": [true, null]}"#
        );
    }
}
