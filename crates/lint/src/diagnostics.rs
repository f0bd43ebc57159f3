//! Diagnostics: what a rule reports, and the human/JSON renderings.

use std::fmt;

/// One finding of one rule at one source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule identifier (`"L001"` … `"L005"`, or `"W000"` for a broken
    /// waiver).
    pub rule: &'static str,
    /// Path of the offending file, relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic.
    pub fn new(
        rule: &'static str,
        file: impl Into<String>,
        line: usize,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            rule,
            file: file.into(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{}: {}",
            self.rule, self.file, self.line, self.message
        )
    }
}

/// Renders diagnostics for a terminal: one `RULE file:line: message` per
/// line, followed by a summary line.
pub fn render_human(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diagnostics {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    if diagnostics.is_empty() {
        out.push_str("oocts-lint: no violations\n");
    } else {
        out.push_str(&format!(
            "oocts-lint: {} violation{}\n",
            diagnostics.len(),
            if diagnostics.len() == 1 { "" } else { "s" }
        ));
    }
    out
}

/// The schema identifier stamped into every JSON report: consumers dispatch
/// on it and reject layouts they do not understand.
pub const JSON_SCHEMA: &str = "oocts-lint/v1";

/// Renders diagnostics as a JSON object `{"schema": "oocts-lint/v1",
/// "count": N, "diagnostics": [{"rule", "file", "line", "message"}, …]}`.
pub fn render_json(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::from("{");
    out.push_str(&format!(
        "\"schema\":{},\"count\":{},\"diagnostics\":[",
        json_string(JSON_SCHEMA),
        diagnostics.len()
    ));
    for (i, d) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
            json_string(d.rule),
            json_string(&d.file),
            d.line,
            json_string(&d.message)
        ));
    }
    out.push_str("]}");
    out
}

/// Escapes a string per RFC 8259.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_and_json_render() {
        let ds = vec![Diagnostic::new(
            "L001",
            "crates/core/src/x.rs",
            7,
            "bad \"call\"",
        )];
        let human = render_human(&ds);
        assert!(human.contains("L001 crates/core/src/x.rs:7: bad \"call\""));
        assert!(human.contains("1 violation\n"));
        let json = render_json(&ds);
        assert!(json.starts_with("{\"schema\":\"oocts-lint/v1\",\"count\":1,"));
        assert!(json.contains("\"line\":7"));
        assert!(json.contains("bad \\\"call\\\""));
    }

    #[test]
    fn empty_report() {
        assert!(render_human(&[]).contains("no violations"));
        assert_eq!(
            render_json(&[]),
            "{\"schema\":\"oocts-lint/v1\",\"count\":0,\"diagnostics\":[]}"
        );
    }

    #[test]
    fn schema_version_is_stamped_and_stable() {
        // The schema string is part of the wire contract (CI uploads the
        // report as an artifact); bump the suffix on layout changes.
        assert_eq!(JSON_SCHEMA, "oocts-lint/v1");
        assert!(render_json(&[]).contains("\"schema\":\"oocts-lint/v1\""));
    }
}
