//! The two pieces of the Prometheus text exposition format (0.0.4) that
//! both exporters (`fabric-trace`'s end-of-run snapshot and
//! `fabric-telemetry`'s windowed series) write the same way.

use std::fmt::Write as _;

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline must be backslash-escaped inside the quotes —
/// otherwise a hostile or merely unlucky label (a key name containing
/// `"` or a newline) corrupts the whole document.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Writes the `# HELP` and `# TYPE` lines that open metric family `name`
/// of type `kind` (`counter`, `gauge`, …).
pub fn family_header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}
