//! The structural half of the `panic-path` rule: panic sources the
//! token rule cannot see, restricted to code *reachable from thread
//! entry points* (the closures handed to `spawn(…)` — see
//! [`crate::callgraph::CrateGraph::entries`]).
//!
//! A panic on a worker thread outside its per-job guard ends the thread,
//! not the process — exactly the failure the serving contracts
//! (guaranteed ticket resolution, one panic guard per job) exist to
//! prevent, so the bar there is *no panics at all*. Flagged sources:
//!
//! * **indexing** — `xs[i]`, `xs[a + b]`, `&xs[..k]`: out-of-bounds
//!   panics. A single integer-literal index (`xs[0]` on a
//!   fixed-by-construction table) is accepted as the one idiomatic
//!   exception; everything else needs `get`/`get_mut` or a pragma.
//! * **integer division/modulo** — `a / b`, `a % b` with a non-literal
//!   divisor: divide-by-zero panics. Skipped when either side shows
//!   float evidence (float literals, `f32`/`f64`, float-typed methods),
//!   since float division cannot panic.
//! * **`assert!` family** — `assert!`/`assert_eq!`/`assert_ne!` outside
//!   test code; `debug_assert!` is fine (stripped in release).
//!
//! Findings honor the reason-mandatory pragma system like every other
//! rule.

use crate::callgraph::CrateGraph;
use crate::lexer::{Token, TokenKind};
use crate::{push_diag, Diagnostic, FileUnit};

/// Crates the pass runs over.
const SCOPE: &[&str] = &["service"];

/// Idents that read as float evidence in an operand window.
fn is_float_ident(text: &str) -> bool {
    text == "f32"
        || text == "f64"
        || text.ends_with("f32")
        || text.ends_with("f64")
        || crate::rules::FLOAT_METHODS.contains(&text)
}

/// Whether a small window around the operator shows float evidence.
fn float_nearby(toks: &[Token], op: usize) -> bool {
    let lo = op.saturating_sub(8);
    let hi = (op + 9).min(toks.len());
    toks[lo..hi].iter().any(|t| {
        t.kind == TokenKind::Float || (t.kind == TokenKind::Ident && is_float_ident(&t.text))
    })
}

/// Token index of the `]` matching the `[` at `open`, if any.
fn close_bracket(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth <= 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Runs the pass over one crate's parsed files.
pub fn check(crate_key: &str, units: &[FileUnit], graph: &CrateGraph, out: &mut Vec<Diagnostic>) {
    if !SCOPE.contains(&crate_key) {
        return;
    }
    let reachable = graph.reachable_from_entries();
    for (file, unit) in units.iter().enumerate() {
        if unit.is_test_file {
            continue;
        }
        let toks = &unit.lexed.tokens;
        // Innermost enclosing fn per token (same trick as the call
        // graph): a source site counts iff its owner is reachable.
        let mut owner: Vec<Option<usize>> = vec![None; toks.len()];
        for (f, node) in graph.fns.iter().enumerate() {
            if node.file != file {
                continue;
            }
            let (open, close) = node.body;
            for slot in owner
                .iter_mut()
                .take(close.min(toks.len().saturating_sub(1)) + 1)
                .skip(open)
            {
                *slot = Some(f);
            }
        }
        let on_worker_path = |i: usize| {
            owner
                .get(i)
                .copied()
                .flatten()
                .is_some_and(|f| reachable[f])
        };
        for (i, t) in toks.iter().enumerate() {
            if unit.is_test_line(t.line) || !on_worker_path(i) {
                continue;
            }
            // Indexing: `expr[ … ]` where the previous token ends an
            // indexable expression.
            if t.is_punct("[")
                && i > 0
                && (toks[i - 1].is_punct(")")
                    || toks[i - 1].is_punct("]")
                    || (toks[i - 1].kind == TokenKind::Ident
                        && !crate::callgraph::KEYWORDS.contains(&toks[i - 1].text.as_str())))
            {
                if let Some(j) = close_bracket(toks, i) {
                    let inner = &toks[i + 1..j];
                    let literal_index = inner.len() == 1 && inner[0].kind == TokenKind::Int;
                    let full_range = inner.len() == 1 && inner[0].is_punct("..");
                    if !inner.is_empty() && !literal_index && !full_range {
                        push_diag(
                            out,
                            "panic-path",
                            "structural",
                            &unit.path,
                            t.line,
                            format!(
                                "indexing `{}[…]` on a worker-reachable path can panic \
                                 out-of-bounds — use `get`/`get_mut` (or clamp) and handle \
                                 the miss",
                                toks[i - 1].text
                            ),
                        );
                    }
                }
                continue;
            }
            // Integer division / modulo by a non-literal divisor.
            if (t.is_punct("/") || t.is_punct("%")) && i > 0 {
                let mut r = i + 1;
                while toks.get(r).is_some_and(|n| n.is_punct("(")) {
                    r += 1;
                }
                let rhs_literal = toks
                    .get(r)
                    .is_some_and(|n| n.kind == TokenKind::Int && !n.text.starts_with('0'));
                if !rhs_literal && !float_nearby(toks, i) {
                    let op = if t.is_punct("/") {
                        "division"
                    } else {
                        "modulo"
                    };
                    push_diag(
                        out,
                        "panic-path",
                        "structural",
                        &unit.path,
                        t.line,
                        format!(
                            "integer {op} by a non-constant divisor on a worker-reachable \
                             path can panic on zero — use `checked_div`/`checked_rem` or \
                             prove the divisor non-zero with a pragma"
                        ),
                    );
                }
                continue;
            }
            // `assert!` family in non-test code (debug_assert is fine).
            if t.kind == TokenKind::Ident
                && matches!(t.text.as_str(), "assert" | "assert_eq" | "assert_ne")
                && toks.get(i + 1).is_some_and(|n| n.is_punct("!"))
            {
                push_diag(
                    out,
                    "panic-path",
                    "structural",
                    &unit.path,
                    t.line,
                    format!(
                        "`{}!` on a worker-reachable path panics in release builds — return \
                         an error, use `debug_assert!`, or justify with a pragma",
                        t.text
                    ),
                );
            }
        }
    }
}
