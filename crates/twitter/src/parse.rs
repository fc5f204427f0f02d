//! Microblogging syntax extraction (paper Table I).
//!
//! `@foo` addresses user *foo*; `#tag` marks a topic; a leading
//! `RT @foo:` marks a re-broadcast.  Handles follow Twitter's rules:
//! ASCII letters, digits, and underscore, 1–15 characters.
//!
//! The scanner works on bytes, not `char`s: the sigils and every token
//! character are ASCII, and no byte of a multi-byte UTF-8 character is
//! ASCII, so a byte test gives the same answer as a character test and
//! every token boundary is a character boundary.  [`iter_mentions`]
//! borrows each handle from the text and allocates nothing; the tweet
//! ingest runs on it.

/// Maximum Twitter handle length.
const MAX_HANDLE: usize = 15;

/// Maximum hashtag length.
const MAX_HASHTAG: usize = 100;

/// A handle or hashtag character; also what may not precede a sigil.
fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Extract the screen names mentioned in `text` (without `@`), in order
/// of appearance, duplicates preserved.
///
/// # Examples
///
/// ```
/// use graphct_twitter::parse::mentions;
///
/// let tweet = "RT @jaketapper @Slate: Sanjay Gupta has swine flu";
/// assert_eq!(mentions(tweet), vec!["jaketapper", "Slate"]);
/// assert!(mentions("no handles here").is_empty());
/// ```
pub fn mentions(text: &str) -> Vec<&str> {
    iter_mentions(text).collect()
}

/// Extract hashtags (without `#`), in order of appearance.
pub fn hashtags(text: &str) -> Vec<&str> {
    Tokens::new(text, b'#', MAX_HASHTAG).collect()
}

/// The mentions of [`mentions`], borrowed one at a time without
/// allocating.
///
/// ```
/// use graphct_twitter::parse::iter_mentions;
///
/// let mut it = iter_mentions("@a hi @b");
/// assert_eq!(it.next(), Some("a"));
/// assert_eq!(it.next(), Some("b"));
/// assert_eq!(it.next(), None);
/// ```
pub fn iter_mentions(text: &str) -> impl Iterator<Item = &str> {
    Tokens::new(text, b'@', MAX_HANDLE)
}

/// Iterator over the sigil tokens of one text.
struct Tokens<'a> {
    text: &'a str,
    pos: usize,
    sigil: u8,
    max_len: usize,
}

impl<'a> Tokens<'a> {
    fn new(text: &'a str, sigil: u8, max_len: usize) -> Self {
        Self {
            text,
            pos: 0,
            sigil,
            max_len,
        }
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let bytes = self.text.as_bytes();
        while let Some(skip) = bytes[self.pos..].iter().position(|&b| b == self.sigil) {
            let at = self.pos + skip;
            let start = at + 1;
            self.pos = start;
            // A sigil must not be glued to a preceding word character
            // (local@host is not a mention).
            if at > 0 && is_word_byte(bytes[at - 1]) {
                continue;
            }
            let len = bytes[start..]
                .iter()
                .take(self.max_len)
                .take_while(|&&b| is_word_byte(b))
                .count();
            if len > 0 {
                self.pos = start + len;
                return Some(&self.text[start..self.pos]);
            }
        }
        self.pos = bytes.len();
        None
    }
}

/// `Some(original_author)` when the text is a classic retweet
/// (`RT @user …`), else `None`.
pub fn retweet_source(text: &str) -> Option<&str> {
    let trimmed = text.trim_start();
    let rest = trimmed
        .strip_prefix("RT ")
        .or_else(|| trimmed.strip_prefix("rt "))?;
    let rest = rest.trim_start();
    if rest.starts_with('@') {
        iter_mentions(rest).next()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn extracts_mentions_in_order() {
        let text = "@EdMorrissey asserting that @dancharles is wrong about H1N1";
        assert_eq!(mentions(text), vec!["EdMorrissey", "dancharles"]);
    }

    #[test]
    fn handles_punctuation_boundaries() {
        assert_eq!(mentions("thanks @foo, and @bar!"), vec!["foo", "bar"]);
        assert_eq!(mentions("(@a_b2)"), vec!["a_b2"]);
    }

    #[test]
    fn rejects_bare_and_embedded_sigils() {
        assert!(mentions("email me @ home").is_empty());
        assert!(mentions("price@ $5").is_empty());
        assert!(
            mentions("user@example.com").is_empty(),
            "email is not a mention"
        );
    }

    #[test]
    fn duplicates_preserved() {
        assert_eq!(mentions("@a hi @a again"), vec!["a", "a"]);
    }

    #[test]
    fn handle_length_capped_at_15() {
        let long = "@abcdefghijklmnopqrst";
        assert_eq!(mentions(long), vec!["abcdefghijklmno"]);
    }

    #[test]
    fn hashtags_extracted() {
        assert_eq!(
            hashtags("flooding on I-85 #atlflood #atlanta"),
            vec!["atlflood", "atlanta"]
        );
        assert!(hashtags("nothing here").is_empty());
    }

    #[test]
    fn retweet_detection() {
        assert_eq!(
            retweet_source("RT @jaketapper @Slate: Sanjay Gupta has swine flu"),
            Some("jaketapper")
        );
        assert_eq!(retweet_source("rt @foo hello"), Some("foo"));
        assert_eq!(retweet_source("hello RT-ish"), None);
        assert_eq!(retweet_source("RT without handle"), None);
    }

    #[test]
    fn paper_example_tweet() {
        // From Fig. 1 of the paper.
        let t = "@dancharles as someone with a pregnant wife i will clearly \
                 take issue with that craziness. they are more vulnerable to H1N1";
        assert_eq!(mentions(t), vec!["dancharles"]);
    }

    #[test]
    fn unicode_text_safe() {
        assert_eq!(mentions("café @foo ☂ #rain"), vec!["foo"]);
        assert_eq!(hashtags("café @foo ☂ #rain"), vec!["rain"]);
        // A multi-byte character before a sigil is not a word character.
        assert_eq!(mentions("é@foo 中#x"), vec!["foo"]);
        assert_eq!(hashtags("é@foo 中#x"), vec!["x"]);
    }

    /// The character-based scanner the byte scanner replaced, kept as
    /// its oracle.
    fn char_tokens(text: &str, sigil: char, max_len: usize) -> Vec<&str> {
        let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
        let mut out = Vec::new();
        let chars = text.char_indices().collect::<Vec<_>>();
        let mut i = 0;
        while i < chars.len() {
            let (pos, c) = chars[i];
            if c == sigil && !(i > 0 && word(chars[i - 1].1)) {
                let start = pos + c.len_utf8();
                let mut end = start;
                let mut count = 0;
                let mut j = i + 1;
                while j < chars.len() && count < max_len && word(chars[j].1) {
                    end = chars[j].0 + chars[j].1.len_utf8();
                    count += 1;
                    j += 1;
                }
                if count > 0 {
                    out.push(&text[start..end]);
                    i = j;
                    continue;
                }
            }
            i += 1;
        }
        out
    }

    /// Text pieces that stress the scanner: sigils, runs at and past the
    /// handle cap, glued sigils, and multi-byte characters on either
    /// side of a sigil.
    const PIECES: &[&str] = &[
        "@",
        "#",
        "@@",
        "##",
        "a",
        "Z",
        "9",
        "_",
        " ",
        ".",
        "a@b",
        "x#y",
        "é",
        "中",
        "🌊",
        "abcdefghijklmno",
        "abcdefghijklmnopq",
        "@é",
        "é@",
        "#中",
        "\u{0}",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn byte_scanner_matches_char_scanner(
            parts in prop::collection::vec((0usize..PIECES.len() + 4, any::<u32>()), 0..40),
        ) {
            // Selectors past the piece table draw an arbitrary scalar value.
            let text: String = parts
                .iter()
                .map(|&(i, c)| match PIECES.get(i) {
                    Some(p) => p.to_string(),
                    None => char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}').to_string(),
                })
                .collect();
            prop_assert_eq!(mentions(&text), char_tokens(&text, '@', MAX_HANDLE));
            prop_assert_eq!(hashtags(&text), char_tokens(&text, '#', MAX_HASHTAG));
        }

        #[test]
        fn byte_scanner_matches_on_printable_text(text in "\\PC{0,120}") {
            prop_assert_eq!(mentions(&text), char_tokens(&text, '@', MAX_HANDLE));
            prop_assert_eq!(hashtags(&text), char_tokens(&text, '#', MAX_HASHTAG));
        }
    }
}
