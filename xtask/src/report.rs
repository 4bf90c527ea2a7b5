//! Diagnostic types and output formatting for simcheck.
//!
//! Two formats: human-readable text (`file:line: rule: message`, the
//! historical simaudit format) and `--format json`, a machine-readable
//! document CI archives as `lint_report.json`. The JSON writer is
//! hand-rolled (the offline build has no serde_json); the schema is
//! documented in `docs/STATIC_ANALYSIS.md`.

use std::fmt;

/// Every rule simcheck knows, in reporting order. Token-level rules come
/// first, then the cross-file passes, then marker hygiene.
pub const RULES: &[&str] = &[
    "no-wall-clock",
    "no-unordered-iteration",
    "no-raw-time-math",
    "no-foreign-rng",
    "no-unwrap-in-hot-path",
    "no-hot-alloc",
    "no-debug-print",
    "no-lib-panic",
    "feature-symmetry",
    "feature-forwarding",
    "allow-hygiene",
];

/// Rules that may be silenced with a `simaudit:allow(<rule>)` marker.
/// The cross-file passes and marker hygiene itself are structural
/// contracts and cannot be suppressed.
pub const SUPPRESSIBLE: &[&str] = &[
    "no-wall-clock",
    "no-unordered-iteration",
    "no-raw-time-math",
    "no-foreign-rng",
    "no-unwrap-in-hot-path",
    "no-hot-alloc",
    "no-debug-print",
    "no-lib-panic",
    "feature-symmetry",
];

/// A single lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// Rule identifier (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation with the fix direction.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Escapes `s` for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the whole run as the `lint_report.json` document.
pub fn to_json(diags: &[Diagnostic], files_scanned: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"simcheck\",\n");
    out.push_str("  \"schema_version\": 2,\n");
    out.push_str(&format!("  \"files_scanned\": {files_scanned},\n"));
    out.push_str("  \"rules\": [");
    for (i, r) in RULES.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{r}\""));
    }
    out.push_str("],\n");
    out.push_str(&format!("  \"violations\": {},\n", diags.len()));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&d.file),
            d.line,
            d.rule,
            json_escape(&d.message)
        ));
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_well_formed_and_escaped() {
        let diags = vec![Diagnostic {
            file: "crates/x.rs".to_string(),
            line: 3,
            rule: "no-wall-clock",
            message: "uses \"Instant\"\nbadly".to_string(),
        }];
        let json = to_json(&diags, 7);
        assert!(json.contains("\"violations\": 1"));
        assert!(json.contains("\"files_scanned\": 7"));
        assert!(json.contains("\\\"Instant\\\"\\nbadly"));
        // Balanced braces/brackets as a cheap well-formedness proxy.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_report_has_empty_array() {
        let json = to_json(&[], 0);
        assert!(json.contains("\"diagnostics\": []"));
        assert!(json.contains("\"violations\": 0"));
    }

    #[test]
    fn suppressible_is_a_subset_of_rules() {
        for r in SUPPRESSIBLE {
            assert!(RULES.contains(r), "{r} missing from RULES");
        }
    }
}
