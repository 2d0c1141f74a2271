//! Property tests for the hand-rolled lexer: randomized string
//! payloads, raw-string hash counts, nested block comments, lifetime vs
//! char-literal disambiguation, int/float classification, and line
//! accounting. Each property encodes an invariant the rules depend on
//! (e.g. "text inside a string can never become an identifier token").

use moped_lint::lexer::{lex, TokenKind};
use proptest::prelude::*;

/// Characters that are legal inside every string flavor used below (no
/// `"`, no `\`, no newline) but look like trouble: comment openers,
/// braces, a stray quote for char literals.
const PAYLOAD: &[char] = &[
    'a', 'b', 'z', 'I', ' ', '/', '*', ':', '(', ')', '{', '}', '\'', '#',
];

/// Letters only — safe inside nested block comments (cannot form `*/`
/// or `/*`) and inside raw-string terminator probes.
const LETTERS: &[char] = &['a', 'b', 'c', 'x', 'y', 'z'];

fn from_indices(idx: &[usize], alphabet: &[char]) -> String {
    idx.iter().map(|&i| alphabet[i % alphabet.len()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever a string contains, it lexes as exactly one `Str` token:
    /// no identifiers, comments, or braces leak out of the quotes.
    #[test]
    fn string_contents_never_become_tokens(
        idx in prop::collection::vec(0usize..PAYLOAD.len(), 0..24),
        variant in 0usize..4,
    ) {
        let payload = from_indices(&idx, PAYLOAD);
        let literal = match variant {
            0 => format!("\"{payload}\""),
            1 => format!("r\"{payload}\""),
            2 => format!("r##\"{payload}\"##"),
            _ => format!("b\"{payload}\""),
        };
        let src = format!("let s = {literal}; Instant");
        let lexed = lex(&src);
        let kinds: Vec<TokenKind> = lexed.tokens.iter().map(|t| t.kind).collect();
        prop_assert_eq!(
            kinds,
            vec![
                TokenKind::Ident, // let
                TokenKind::Ident, // s
                TokenKind::Punct, // =
                TokenKind::Str,
                TokenKind::Punct, // ;
                TokenKind::Ident, // Instant
            ],
            "payload {payload:?} via variant {variant}"
        );
        prop_assert!(lexed.comments.is_empty());
        prop_assert_eq!(&lexed.tokens[3].text, &literal);
    }

    /// A raw string closed by `"` + n hashes ignores any embedded
    /// `"` + fewer-than-n hashes.
    #[test]
    fn raw_string_hash_counts(
        n in 1usize..5,
        a in prop::collection::vec(0usize..LETTERS.len(), 0..10),
        b in prop::collection::vec(0usize..LETTERS.len(), 0..10),
    ) {
        let hashes = "#".repeat(n);
        let inner = format!(
            "{}\"{}{}",
            from_indices(&a, LETTERS),
            "#".repeat(n - 1),
            from_indices(&b, LETTERS)
        );
        let src = format!("r{hashes}\"{inner}\"{hashes} fin");
        let lexed = lex(&src);
        prop_assert_eq!(lexed.tokens.len(), 2, "src {src:?}");
        prop_assert_eq!(lexed.tokens[0].kind, TokenKind::Str);
        prop_assert!(lexed.tokens[1].is_ident("fin"));
    }

    /// Block comments nest to arbitrary depth and swallow their whole
    /// body into one `Comment`, leaving the token stream untouched.
    #[test]
    fn nested_block_comments_are_trivia(
        depth in 1usize..6,
        idx in prop::collection::vec(0usize..LETTERS.len(), 0..12),
    ) {
        let payload = from_indices(&idx, LETTERS);
        let src = format!(
            "fn f ( ) {} {} {} {{ }}",
            "/*".repeat(depth),
            payload,
            "*/".repeat(depth)
        );
        let lexed = lex(&src);
        let texts: Vec<&str> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        prop_assert_eq!(texts, vec!["fn", "f", "(", ")", "{", "}"], "src {src:?}");
        prop_assert_eq!(lexed.comments.len(), 1);
        prop_assert!(!lexed.comments[0].is_line);
    }

    /// `'ident` is a lifetime; `'c'` is a char literal — never confused,
    /// for any identifier and any single-char body.
    #[test]
    fn lifetimes_vs_char_literals(
        life in 0usize..5,
        ch in 0usize..6,
    ) {
        let life = ["a", "b", "de", "foo", "outer"][life];
        let ch = ['x', 'Z', '7', '(', ' ', '*'][ch];
        let src = format!("fn f<'{life}>(x: &'{life} str) {{ let c = '{ch}'; }}");
        let lexed = lex(&src);
        let lifetimes: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        let chars: Vec<&str> = lexed
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Char)
            .map(|t| t.text.as_str())
            .collect();
        let expect_life = format!("'{life}");
        prop_assert_eq!(lifetimes, vec![expect_life.as_str(), expect_life.as_str()]);
        prop_assert_eq!(chars, vec![format!("'{ch}'")]);
    }

    /// `a..b` stays two ints around a range operator; dotted, exponent,
    /// and `f`-suffixed forms classify as floats, `u`-suffixed as int.
    #[test]
    fn int_float_classification(a in 0u32..100_000, b in 0u32..100_000) {
        let src = format!(
            "let r = {a}..{b}; let f = {a}.5; let g = {a}e3; let h = {a}_u64; let i = {b}f32;"
        );
        let lexed = lex(&src);
        let of_kind = |k: TokenKind| -> Vec<&str> {
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == k)
                .map(|t| t.text.as_str())
                .collect()
        };
        prop_assert_eq!(
            of_kind(TokenKind::Int),
            vec![a.to_string(), b.to_string(), format!("{a}_u64")]
        );
        prop_assert_eq!(
            of_kind(TokenKind::Float),
            vec![format!("{a}.5"), format!("{a}e3"), format!("{b}f32")]
        );
        prop_assert!(lexed.tokens.iter().any(|t| t.is_punct("..")));
    }

    /// Newlines inside a multi-line string still advance the line
    /// counter, so diagnostics after the string point at the right line.
    #[test]
    fn line_numbers_track_newlines_in_strings(k in 1u32..8) {
        let body = "x\n".repeat(k as usize);
        let src = format!("let s = \"{body}\";\nfn f() {{}}");
        let lexed = lex(&src);
        let s = lexed.tokens.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        prop_assert_eq!(s.line, 1);
        let f = lexed.tokens.iter().find(|t| t.is_ident("fn")).unwrap();
        prop_assert_eq!(f.line, k + 2);
    }
}
