//! Entity escaping and decoding for text and attribute values.

use std::fmt::{self, Write as _};

/// Decode a single entity body (the part between `&` and `;`).
///
/// Supports the five predefined entities plus decimal (`#NN`) and
/// hexadecimal (`#xNN`) character references. Returns `None` when the
/// entity is unknown or the code point is invalid.
pub fn decode_entity(entity: &str) -> Option<char> {
    match entity {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        _ => {
            let rest = entity.strip_prefix('#')?;
            let code = if let Some(hex) = rest.strip_prefix('x').or_else(|| rest.strip_prefix('X'))
            {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                rest.parse::<u32>().ok()?
            };
            char::from_u32(code)
        }
    }
}

/// Escape character data for element content (`&`, `<`, `>`).
pub fn escape_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let _ = write!(out, "{}", EscapedText(text));
    out
}

/// Escape an attribute value for double-quoted serialization.
pub fn escape_attribute(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    let _ = write!(out, "{}", EscapedAttribute(value));
    out
}

/// Character data for element content, escaped as it is written:
/// `write!(out, "{}", EscapedText(s))` appends [`escape_text`]'s bytes
/// without building them first.
#[derive(Debug, Clone, Copy)]
pub struct EscapedText<'a>(pub &'a str);

/// An attribute value for double-quoted serialization, escaped as it
/// is written (the bytes of [`escape_attribute`]).
#[derive(Debug, Clone, Copy)]
pub struct EscapedAttribute<'a>(pub &'a str);

impl fmt::Display for EscapedText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_escaped(f, self.0, |b| match b {
            b'&' => Some("&amp;"),
            b'<' => Some("&lt;"),
            b'>' => Some("&gt;"),
            _ => None,
        })
    }
}

impl fmt::Display for EscapedAttribute<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_escaped(f, self.0, |b| match b {
            b'&' => Some("&amp;"),
            b'<' => Some("&lt;"),
            b'>' => Some("&gt;"),
            b'"' => Some("&quot;"),
            b'\n' => Some("&#10;"),
            b'\t' => Some("&#9;"),
            _ => None,
        })
    }
}

/// Write `s`, each byte `entity` names replaced by its entity. Every
/// escaped byte is ASCII, so the unescaped runs between them split no
/// code point.
fn write_escaped(
    f: &mut fmt::Formatter<'_>,
    s: &str,
    entity: impl Fn(u8) -> Option<&'static str>,
) -> fmt::Result {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if let Some(e) = entity(b) {
            f.write_str(&s[run..i])?;
            f.write_str(e)?;
            run = i + 1;
        }
    }
    f.write_str(&s[run..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predefined_entities_decode() {
        assert_eq!(decode_entity("amp"), Some('&'));
        assert_eq!(decode_entity("lt"), Some('<'));
        assert_eq!(decode_entity("gt"), Some('>'));
        assert_eq!(decode_entity("quot"), Some('"'));
        assert_eq!(decode_entity("apos"), Some('\''));
    }

    #[test]
    fn numeric_entities_decode() {
        assert_eq!(decode_entity("#65"), Some('A'));
        assert_eq!(decode_entity("#x41"), Some('A'));
        assert_eq!(decode_entity("#X41"), Some('A'));
        assert_eq!(decode_entity("#x1F600"), Some('😀'));
    }

    #[test]
    fn bad_entities_are_rejected() {
        assert_eq!(decode_entity("bogus"), None);
        assert_eq!(decode_entity(""), None);
        assert_eq!(decode_entity("#"), None);
        assert_eq!(decode_entity("#xZZ"), None);
        // Surrogate code point: not a valid char.
        assert_eq!(decode_entity("#xD800"), None);
        assert_eq!(decode_entity("#x110000"), None);
    }

    #[test]
    fn text_escaping_round_trips_specials() {
        assert_eq!(escape_text("a & b < c > d"), "a &amp; b &lt; c &gt; d");
        assert_eq!(escape_text("plain"), "plain");
        assert_eq!(escape_text("日本<é>&"), "日本&lt;é&gt;&amp;");
        assert_eq!(EscapedText("日本<é>&").to_string(), "日本&lt;é&gt;&amp;");
    }

    #[test]
    fn attribute_escaping_handles_quotes_and_whitespace() {
        assert_eq!(
            escape_attribute("say \"hi\"\t& go\n"),
            "say &quot;hi&quot;&#9;&amp; go&#10;"
        );
    }
}
