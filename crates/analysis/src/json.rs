//! The one JSON string escaper every hand-rolled JSON writer in the
//! workspace shares (reports, slices, SARIF, the serve protocol).

use std::fmt::Write as _;

/// Escapes `s` as a JSON string literal, double quotes included.
/// Quotes, backslashes and control characters are escaped; everything
/// else, non-ASCII included, is copied as is, so a conforming parser
/// yields `s` back byte-for-byte.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_controls() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(
            json_string("a\"b\\c\nd\re\tf\u{1}g\u{1f980}"),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\u{1f980}\""
        );
    }
}
