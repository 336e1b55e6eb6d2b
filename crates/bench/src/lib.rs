//! Shared utilities for the experiment harness.
//!
//! The binaries in `src/bin/exp_*.rs` regenerate every quantitative claim
//! of the paper (see the README's "Reproducing the Table 1 experiments"
//! for the index); this library holds
//! the table-printing, JSON-emission and sweep plumbing they share.

use std::fmt::Write as _;

/// A fixed-width text table writer for experiment output.
#[derive(Debug)]
pub struct Table {
    headers: Vec<String>,
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Self {
            widths: headers.iter().map(|h| h.len().max(8)).collect(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        for (w, c) in self.widths.iter_mut().zip(cells) {
            *w = (*w).max(c.len());
        }
        self.rows.push(cells.to_vec());
    }

    /// Render to stdout.
    pub fn print(&self) {
        let line: Vec<String> = self
            .headers
            .iter()
            .zip(&self.widths)
            .map(|(h, w)| format!("{h:>w$}"))
            .collect();
        println!("{}", line.join("  "));
        let rule: Vec<String> = self.widths.iter().map(|w| "-".repeat(*w)).collect();
        println!("{}", rule.join("  "));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&self.widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", cells.join("  "));
        }
    }
}

/// Format a float compactly for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.2e}")
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Format a duration in adaptive units.
pub fn fmt_dur(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.2}us", s * 1e6)
    } else {
        format!("{:.0}ns", s * 1e9)
    }
}

/// A minimal JSON object builder for machine-readable bench output
/// (`BENCH_*.json` files tracked across PRs for the perf trajectory).
/// Hand-rolled on purpose: the build environment has no registry access,
/// and the experiment output is flat key/value data.
#[derive(Debug, Default)]
pub struct JsonObject {
    parts: Vec<String>,
}

impl JsonObject {
    /// Empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        let mut escaped = String::with_capacity(value.len());
        for c in value.chars() {
            match c {
                '"' => escaped.push_str("\\\""),
                '\\' => escaped.push_str("\\\\"),
                '\n' => escaped.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(escaped, "\\u{:04x}", c as u32);
                }
                c => escaped.push(c),
            }
        }
        self.parts.push(format!("\"{key}\": \"{escaped}\""));
        self
    }

    /// Add an integer field.
    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.parts.push(format!("\"{key}\": {value}"));
        self
    }

    /// Add a float field (finite; NaN/inf are serialized as null).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        if value.is_finite() {
            self.parts.push(format!("\"{key}\": {value}"));
        } else {
            self.parts.push(format!("\"{key}\": null"));
        }
        self
    }

    /// Add a pre-serialized JSON value (nested object or array).
    pub fn raw(mut self, key: &str, value: String) -> Self {
        self.parts.push(format!("\"{key}\": {value}"));
        self
    }

    /// Serialize.
    pub fn build(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&self.parts.join(",\n"));
        out.push_str("\n}");
        out
    }
}

/// Serialize a sequence of pre-built JSON values as an array.
pub fn json_array<I: IntoIterator<Item = String>>(items: I) -> String {
    let items: Vec<String> = items.into_iter().collect();
    if items.is_empty() {
        "[]".into()
    } else {
        format!("[\n{}\n]", items.join(",\n"))
    }
}

/// Print an experiment banner with provenance info.
pub fn banner(id: &str, claim: &str) {
    println!("==================================================================");
    println!("experiment {id}");
    println!("  claim: {claim}");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_without_panicking() {
        let mut t = Table::new(&["a", "beta"]);
        t.row(&["1".into(), fmt(0.25)]);
        t.row(&["200".into(), fmt(1e-9)]);
        t.print();
    }

    #[test]
    fn fmt_ranges() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.25), "0.250");
        assert_eq!(fmt(12345.0), "12345");
        assert_eq!(fmt(1e9), "1.00e9");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn json_object_serializes() {
        let j = JsonObject::new()
            .str("name", "table1 \"resources\"")
            .int("n", 1_000_000)
            .num("speedup", 2.5)
            .num("bad", f64::NAN)
            .raw("runs", json_array(vec!["{\n\"a\": 1\n}".into()]))
            .build();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"name\": \"table1 \\\"resources\\\"\""));
        assert!(j.contains("\"n\": 1000000"));
        assert!(j.contains("\"speedup\": 2.5"));
        assert!(j.contains("\"bad\": null"));
        assert!(j.contains("\"runs\": [\n{\n\"a\": 1\n}\n]"));
    }

    #[test]
    fn json_array_empty() {
        assert_eq!(json_array(Vec::<String>::new()), "[]");
    }
}
