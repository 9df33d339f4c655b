//! Normalisation and tokenisation — the **single** text-splitting path
//! shared by Phase-I indexing ([`crate::tfidf`]) and query-side
//! rewriting (the linker's Eq. 13 path). Keeping both sides on one
//! module is load-bearing: if the index and the query tokenised
//! differently, rewritten query words could miss postings they were
//! rewritten *into*.
//!
//! Footnote 9 of the paper: "we have converted all the words into their
//! lowercases, removed the special characters (e.g., ',' and ';'), and
//! eliminated the duplicate text snippets." Clinical snippets additionally
//! contain constructs like `fe def anemia 2' to menorrhagia` and
//! `hypertension ef 75%`, so the tokenizer keeps alphanumeric runs
//! (including pure numbers like the `5` in `ckd 5`, which the LR baseline's
//! "sharing number" feature relies on) and drops everything else.

/// Calls `f` with each lower-cased alphanumeric token of `text`, in
/// order — the one definition of the token boundary; [`tokenize`]
/// collects it.
///
/// A token is a maximal run of ASCII alphanumeric characters; all
/// punctuation and other separators are treated as boundaries and removed.
/// The scan is over bytes: every byte of a multi-byte UTF-8 scalar is
/// `>= 0x80`, so a maximal run of ASCII-alphanumeric bytes is a maximal
/// run of ASCII-alphanumeric chars and both ends of it are char
/// boundaries. A run that is already lower-case is handed out as a slice
/// of `text`; one with an upper-case letter goes through a buffer reused
/// across the call, so text that is already lower-case — every generated
/// ontology description — is tokenised without allocating.
///
/// ```
/// let mut lens = Vec::new();
/// ncl_text::for_each_token("CKD, stage 5", |t| lens.push((t.to_string(), t.len())));
/// assert_eq!(lens, vec![("ckd".to_string(), 3), ("stage".to_string(), 5), ("5".to_string(), 1)]);
/// ```
pub fn for_each_token(text: &str, mut f: impl FnMut(&str)) {
    let bytes = text.as_bytes();
    let mut lowered = String::new();
    let mut i = 0;
    while i < bytes.len() {
        if !bytes[i].is_ascii_alphanumeric() {
            i += 1;
            continue;
        }
        let start = i;
        while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
            i += 1;
        }
        let run = &text[start..i];
        if run.bytes().any(|b| b.is_ascii_uppercase()) {
            lowered.clear();
            lowered.push_str(run);
            lowered.make_ascii_lowercase();
            f(&lowered);
        } else {
            f(run);
        }
    }
}

/// Splits a snippet into lower-cased alphanumeric tokens
/// ([`for_each_token`], collected).
///
/// ```
/// use ncl_text::tokenize;
/// assert_eq!(tokenize("Chronic kidney disease, stage 5"),
///            vec!["chronic", "kidney", "disease", "stage", "5"]);
/// assert_eq!(tokenize("fe def anemia 2' to menorrhagia"),
///            vec!["fe", "def", "anemia", "2", "to", "menorrhagia"]);
/// ```
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_token(text, |t| tokens.push(t.to_string()));
    tokens
}

/// Normalises a snippet to its canonical single-spaced token form.
///
/// Two snippets that tokenise identically normalise identically, which is
/// how duplicate snippets are "eliminated" (footnote 9).
pub fn normalize(text: &str) -> String {
    tokenize(text).join(" ")
}

/// Returns true if the token is purely numeric (`"5"`, `"75"`).
///
/// Used by the LR⁺ "sharing numbers" feature (§6.1) and the query
/// generator when deciding which words may be abbreviated.
pub fn is_number(token: &str) -> bool {
    !token.is_empty() && token.chars().all(|c| c.is_ascii_digit())
}

/// De-duplicates a list of snippets by normalised form, preserving first
/// occurrence order.
pub fn dedup_snippets<S: AsRef<str>>(snippets: &[S]) -> Vec<String> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for s in snippets {
        let norm = normalize(s.as_ref());
        if norm.is_empty() {
            continue;
        }
        if seen.insert(norm.clone()) {
            out.push(norm);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lowercases_and_strips_punctuation() {
        assert_eq!(
            tokenize("Iron Deficiency Anemia, Secondary (to) Blood-Loss;"),
            vec![
                "iron",
                "deficiency",
                "anemia",
                "secondary",
                "to",
                "blood",
                "loss"
            ]
        );
    }

    #[test]
    fn keeps_numbers() {
        assert_eq!(tokenize("ckd 5"), vec!["ckd", "5"]);
        assert_eq!(
            tokenize("hypertension ef 75%"),
            vec!["hypertension", "ef", "75"]
        );
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize(" ,;:!?- ").is_empty());
    }

    #[test]
    fn normalize_canonicalises_spacing() {
        assert_eq!(normalize("  Acute   Abdomen !!"), "acute abdomen");
    }

    #[test]
    fn is_number_cases() {
        assert!(is_number("5"));
        assert!(is_number("2024"));
        assert!(!is_number("n18"));
        assert!(!is_number(""));
        assert!(!is_number("5a"));
    }

    #[test]
    fn dedup_preserves_order_and_drops_dupes() {
        let snippets = ["Acute abdomen", "acute ABDOMEN!", "scurvy", "Scurvy"];
        assert_eq!(dedup_snippets(&snippets), vec!["acute abdomen", "scurvy"]);
    }

    #[test]
    fn dedup_drops_empty() {
        let snippets = ["--", "pain"];
        assert_eq!(dedup_snippets(&snippets), vec!["pain"]);
    }

    /// The char-at-a-time splitter `for_each_token` replaced, kept as
    /// the reference it must agree with.
    fn reference_tokenize(text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut current = String::new();
        for ch in text.chars() {
            if ch.is_ascii_alphanumeric() {
                current.push(ch.to_ascii_lowercase());
            } else if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            tokens.push(current);
        }
        tokens
    }

    #[test]
    fn for_each_token_matches_the_reference_on_hostile_text() {
        let long_run = "aB3".repeat(350_000);
        for text in [
            "",
            " ,;:!?- ",
            "naïve café résumé",
            "aéb ÀcÉd 東京x東y京 ß9",
            "\u{0131}stanbul K\u{212A}elvin \u{ff21}bc", // dotless i, Kelvin sign, full-width A
            "trailing token",
            "Trailing TOKEN",
            "x",
            "X",
            "\u{1F600}a\u{1F600}",
            long_run.as_str(),
        ] {
            assert_eq!(tokenize(text), reference_tokenize(text), "text {text:.40?}");
        }
        assert_eq!(tokenize(&long_run).len(), 1);
        assert_eq!(tokenize(&long_run)[0].len(), 1_050_000);
    }

    proptest! {
        /// `for_each_token` ≡ the reference splitter, on printable ASCII
        /// with non-ASCII letters mixed in.
        #[test]
        fn for_each_token_matches_the_reference(s in "[ -~éÀ東ß]{0,64}") {
            prop_assert_eq!(tokenize(&s), reference_tokenize(&s));
        }

        /// Tokenising the normalised form reproduces the same tokens.
        #[test]
        fn normalize_is_idempotent(s in "[ -~]{0,64}") {
            let once = normalize(&s);
            let twice = normalize(&once);
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn tokens_are_lowercase_alnum(s in "[ -~]{0,64}") {
            for tok in tokenize(&s) {
                prop_assert!(!tok.is_empty());
                prop_assert!(tok.chars().all(|c| c.is_ascii_alphanumeric()
                    && !c.is_ascii_uppercase()));
            }
        }
    }
}
