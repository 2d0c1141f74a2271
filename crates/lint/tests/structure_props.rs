//! Property tests for the structural layer: the item-tree builder is
//! total (any token stream, balanced or not, yields a tree without
//! panicking), body spans are ordered, child spans nest strictly inside
//! their parents, and siblings never overlap — the invariants the
//! scope-aware passes (`lock-order`, `panic-path`, `atomics-audit`)
//! assume when they walk fn bodies.

use moped_lint::lexer::lex;
use moped_lint::structure::{build, ItemTree};
use proptest::prelude::*;
use proptest::TestCaseError;

/// A token soup biased toward structural trouble: braces (balanced or
/// not), item introducers with and without names, signature `impl`,
/// semicolons that clear pending introducers, and ordinary filler.
const PIECES: &[&str] = &[
    "{", "}", "{", "}", ";", "fn", "mod", "impl", "trait", "for", "name", "x", "(", ")", "<", ">",
    "=", ",", "&", "if", "match", "let", "0", "\"s\"", "//c\n", "#", "[", "]",
];

fn soup(idx: &[usize]) -> String {
    idx.iter()
        .map(|&i| PIECES[i % PIECES.len()])
        .collect::<Vec<_>>()
        .join(" ")
}

/// Structural well-formedness shared by every property below.
fn assert_tree_invariants(tree: &ItemTree) -> Result<(), TestCaseError> {
    for (i, item) in tree.items.iter().enumerate() {
        let (open, close) = item.body;
        prop_assert!(open <= close, "item {i} has inverted span {open}..{close}");
        if let Some(p) = item.parent {
            let (po, pc) = tree.items[p].body;
            prop_assert!(
                po < open && close <= pc,
                "item {i} ({open}..{close}) escapes parent {p} ({po}..{pc})"
            );
            prop_assert!(tree.items[p].children.contains(&i));
        } else {
            prop_assert!(tree.roots.contains(&i));
        }
        // Siblings are disjoint and in source order.
        let siblings = match item.parent {
            Some(p) => &tree.items[p].children,
            None => &tree.roots,
        };
        for pair in siblings.windows(2) {
            let a = tree.items[pair[0]].body;
            let b = tree.items[pair[1]].body;
            prop_assert!(a.1 < b.0, "siblings overlap: {a:?} vs {b:?}");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The builder is total: arbitrary token soup — including wildly
    /// unbalanced braces — never panics, and the tree it produces keeps
    /// the span invariants.
    #[test]
    fn arbitrary_soup_never_panics(
        idx in prop::collection::vec(0usize..PIECES.len(), 0..120),
    ) {
        let src = soup(&idx);
        let tree = build(&lex(&src).tokens);
        assert_tree_invariants(&tree)?;
    }

    /// For *balanced* input, every `{` opens exactly one node: node
    /// count equals open-brace count and every node is closed (its `}`
    /// is a real token, not the EOF backstop).
    #[test]
    fn balanced_braces_open_one_node_each(
        depths in prop::collection::vec(1usize..5, 1..8),
    ) {
        // Build nested balanced groups: fn f { { { } } } mod m { } ...
        let mut src = String::new();
        for (i, &d) in depths.iter().enumerate() {
            let intro = ["fn f", "mod m", "impl T", "trait Q", ""][i % 5];
            src.push_str(intro);
            src.push_str(&" {".repeat(d));
            src.push_str(&" }".repeat(d));
            src.push(' ');
        }
        let tokens = lex(&src).tokens;
        let opens = tokens.iter().filter(|t| t.is_punct("{")).count();
        let tree = build(&tokens);
        prop_assert_eq!(tree.items.len(), opens, "src {:?}", src);
        for item in &tree.items {
            let closed = tokens[item.body.1].is_punct("}");
            prop_assert!(closed, "node not closed by a real brace token");
        }
        assert_tree_invariants(&tree)?;
    }

    /// Unbalanced prefixes of a balanced stream still produce a tree
    /// whose spans respect the invariants (unclosed nodes end at the
    /// last token).
    #[test]
    fn truncation_keeps_spans_ordered(
        depth in 1usize..7,
        cut in 0usize..14,
    ) {
        let full = format!("mod outer {{ fn inner ( ) {}", "{ x ; } ".repeat(depth));
        let tokens = lex(&full).tokens;
        let cut = cut.min(tokens.len());
        let tree = build(&tokens[..tokens.len() - cut]);
        assert_tree_invariants(&tree)?;
    }
}
