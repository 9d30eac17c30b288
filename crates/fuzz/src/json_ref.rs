//! The reference JSON serializer for the `json-roundtrip` oracle.
//!
//! This is the straightforward serializer `vfpga_sim::Json` shipped
//! before its writer was tuned to avoid per-node allocations: indentation
//! via `"  ".repeat`, integers and `\u` escapes via `write!`, and one
//! `push` per unescaped character. The library's `pretty()` and
//! `compact()` must reproduce its output byte for byte on every generated
//! document.

use std::fmt::Write as _;

use vfpga_sim::Json;

/// Two-space indentation with a trailing newline, like [`Json::pretty`].
pub fn pretty(doc: &Json) -> String {
    let mut out = String::new();
    write(doc, &mut out, 0);
    out.push('\n');
    out
}

/// No whitespace, like [`Json::compact`].
pub fn compact(doc: &Json) -> String {
    let mut out = String::new();
    write(doc, &mut out, usize::MAX);
    out
}

fn write(doc: &Json, out: &mut String, indent: usize) {
    let compact = indent == usize::MAX;
    match doc {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(x) => {
            if x.is_finite() {
                if *x == x.trunc() && x.abs() < 1e15 {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x}");
                }
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => escape_into(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if !compact {
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                }
                write(item, out, if compact { indent } else { indent + 1 });
            }
            if !compact {
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if !compact {
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                }
                escape_into(k, out);
                out.push(':');
                if !compact {
                    out.push(' ');
                }
                write(v, out, if compact { indent } else { indent + 1 });
            }
            if !compact {
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            out.push('}');
        }
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
