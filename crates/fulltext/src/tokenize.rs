//! Word tokenizer: maximal alphanumeric runs, case-folded.
//!
//! `"Hacking & RSI (1999)"` tokenizes to `hacking`, `rsi`, `1999`. This is
//! deliberately simple — the paper's evaluation searches for author names,
//! conference acronyms and years, all of which are single tokens.

/// Append the case fold of `c` to `out`. The one fold of the crate:
/// index tokens and query terms both go through it, one `char` at a
/// time, so a term always folds to the token it was indexed under
/// (`str::to_lowercase` would not: it lowers a word-final `Σ` to `ς`).
fn fold_into(c: char, out: &mut String) {
    if c.is_ascii() {
        out.push(c.to_ascii_lowercase());
    } else {
        out.extend(c.to_lowercase());
    }
}

/// The tokens of a string — its maximal alphanumeric runs — one at a
/// time into a buffer the caller reuses: the one definition of a token.
pub struct Scanner<'a> {
    chars: std::str::Chars<'a>,
}

impl<'a> Scanner<'a> {
    /// Start at the beginning of `text`.
    pub fn new(text: &'a str) -> Scanner<'a> {
        Scanner {
            chars: text.chars(),
        }
    }

    /// Replace the content of `token` with the next case-folded token;
    /// `false`, and `token` empty, once the text is exhausted.
    pub fn next_into(&mut self, token: &mut String) -> bool {
        token.clear();
        for c in self.chars.by_ref() {
            if c.is_alphanumeric() {
                fold_into(c, token);
            } else if !token.is_empty() {
                break;
            }
        }
        !token.is_empty()
    }
}

/// Iterator over the case-folded tokens of a string.
pub fn tokens(text: &str) -> impl Iterator<Item = String> + '_ {
    let mut scanner = Scanner::new(text);
    std::iter::from_fn(move || {
        let mut token = String::new();
        scanner.next_into(&mut token).then_some(token)
    })
}

/// Case-fold a query term the same way index tokens are folded.
pub fn fold(term: &str) -> String {
    let mut out = String::with_capacity(term.len());
    term.chars().for_each(|c| fold_into(c, &mut out));
    out
}

/// Whether `text` contains `needle` case-insensitively (the `contains`
/// predicate of the paper's query dialect).
pub fn contains_fold(text: &str, needle: &str) -> bool {
    if needle.is_empty() {
        return true;
    }
    // Case-insensitive search without allocating for pure-ASCII input.
    if text.is_ascii() && needle.is_ascii() {
        let t = text.as_bytes();
        let n = needle.as_bytes();
        if n.len() > t.len() {
            return false;
        }
        t.windows(n.len()).any(|w| w.eq_ignore_ascii_case(n))
    } else {
        fold(text).contains(&fold(needle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        tokens(s).collect()
    }

    #[test]
    fn splits_on_non_alphanumerics() {
        assert_eq!(toks("Hacking & RSI"), vec!["hacking", "rsi"]);
        assert_eq!(toks("a,b;c.d"), vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn folds_case() {
        assert_eq!(toks("ICDE"), vec!["icde"]);
        assert_eq!(toks("Ben Bit"), vec!["ben", "bit"]);
    }

    #[test]
    fn numbers_are_tokens() {
        assert_eq!(toks("pp. 115-132, 1999"), vec!["pp", "115", "132", "1999"]);
    }

    #[test]
    fn empty_and_separator_only_strings_yield_nothing() {
        assert!(toks("").is_empty());
        assert!(toks("  ,;- ").is_empty());
    }

    #[test]
    fn unicode_words_tokenize() {
        assert_eq!(toks("García-Molina"), vec!["garcía", "molina"]);
        assert_eq!(toks("ÜBER maß"), vec!["über", "maß"]);
    }

    #[test]
    fn fold_matches_token_folding() {
        assert_eq!(fold("ICDE"), "icde");
        assert_eq!(fold("García"), "garcía");
    }

    #[test]
    fn fold_is_the_tokenizer_fold_char_by_char() {
        // A word-final capital sigma stays `σ`, as in the token.
        assert_eq!(toks("ΟΔΟΣ"), vec!["οδοσ"]);
        assert_eq!(fold("ΟΔΟΣ"), "οδοσ");
        assert_eq!(fold("ΟΔΟΣ").as_str(), toks("η ΟΔΟΣ μου")[1]);
        // Unchanged: multi-char lowerings, caseless letters, ASCII.
        assert_eq!(fold("İstanbul"), "i\u{307}stanbul");
        assert_eq!(toks("İstanbul"), vec!["i\u{307}stanbul"]);
        assert_eq!(fold("straße"), "straße");
        assert_eq!(fold("Straße 12-B"), "straße 12-b");
        for s in ["ICDE 1999", "İstanbul", "straße", "Ünïcödé"] {
            assert_eq!(fold(s), s.to_lowercase());
        }
    }

    #[test]
    fn scanner_reuses_the_buffer() {
        let mut scanner = Scanner::new("  Ben, Bit!");
        let mut token = String::from("stale");
        assert!(scanner.next_into(&mut token));
        assert_eq!(token, "ben");
        assert!(scanner.next_into(&mut token));
        assert_eq!(token, "bit");
        assert!(!scanner.next_into(&mut token));
        assert_eq!(token, "");
        assert!(!scanner.next_into(&mut token));
    }

    #[test]
    fn contains_fold_is_case_insensitive() {
        assert!(contains_fold("How to Hack", "hack"));
        assert!(contains_fold("How to Hack", "HOW TO"));
        assert!(!contains_fold("How to Hack", "hacker"));
        assert!(contains_fold("anything", ""));
        assert!(contains_fold("Bücher über Bäume", "ÜBER"));
        assert!(!contains_fold("short", "much longer needle"));
        assert!(contains_fold("η ΟΔΟΣ μου", "οδοσ"));
        assert!(contains_fold("η οδός, ΟΔΟΣ", "ΟΔΟΣ"));
    }
}
