//! The rule catalog: each rule encodes one project contract as a check
//! over a file's token stream.
//!
//! Rules are shallow by design — they match token sequences, not types —
//! so each one is tuned to have zero false positives on the idioms this
//! workspace actually uses, and every deliberate exception is carried by
//! an inline `// moped-lint: allow(<rule>) <reason>` pragma rather than
//! by loosening the rule.

use std::path::Path;

use crate::lexer::{Token, TokenKind};
use crate::{Diagnostic, FileCtx, Severity};

/// Crates whose outputs must be a pure function of their inputs: the
/// planner core and every kernel under it, plus the scenario/catalog
/// layer that seeds them, the tuner and the corpus matrix that reports
/// on them. See DESIGN.md §8.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "core",
    "geometry",
    "simbr",
    "rtree",
    "kdtree",
    "octree",
    "collision",
    "hw",
    "env",
    "scenarios",
    "tune",
    "eval",
];

/// Static description of one rule.
pub struct Rule {
    /// Stable rule id, used in output and in `allow(...)` pragmas.
    pub id: &'static str,
    /// Default severity (escalated by `--deny warnings`).
    pub severity: Severity,
    /// One-line contract statement for `--list-rules` and docs.
    pub summary: &'static str,
    /// The check itself.
    pub check: fn(&FileCtx<'_>, &mut Vec<Diagnostic>),
}

/// Every registered rule, in catalog order. `cargo-deps` also appears
/// here for `--list-rules`/pragma validation, but runs over manifests
/// (see [`crate::manifest`]) rather than through `check`.
pub const RULES: &[Rule] = &[
    Rule {
        id: "wall-clock",
        severity: Severity::Error,
        summary: "no Instant::now/SystemTime/thread_rng in deterministic crates",
        check: wall_clock,
    },
    Rule {
        id: "hash-collections",
        severity: Severity::Error,
        summary: "no HashMap/HashSet in deterministic crates (iteration order is nondeterministic)",
        check: hash_collections,
    },
    Rule {
        id: "panic-path",
        severity: Severity::Error,
        summary: "no unwrap()/expect()/panic!/todo!/unimplemented! in the serving layer, and \
                  no unguarded indexing/division/assert! on worker-reachable paths",
        check: panic_path,
    },
    Rule {
        id: "float-eq",
        severity: Severity::Error,
        summary: "no ==/!= between float expressions in geometry kernels (use epsilon helpers)",
        check: float_eq,
    },
    Rule {
        id: "unbounded-channel",
        severity: Severity::Error,
        summary: "no unbounded mpsc::channel() in the serving layer (bounded admission only)",
        check: unbounded_channel,
    },
    Rule {
        id: "mutex-receiver",
        severity: Severity::Error,
        summary: "no Mutex/RwLock-wrapped channel Receiver in the serving layer \
                  (a lock held across a blocking recv parks every other worker)",
        check: mutex_receiver,
    },
    Rule {
        id: "nested-lock",
        severity: Severity::Warning,
        summary: "no second .lock() inside one function body (lock-ordering smell)",
        check: nested_lock,
    },
    Rule {
        id: "allow-without-reason",
        severity: Severity::Warning,
        summary: "#[allow(...)] requires an adjacent justification comment",
        check: allow_without_reason,
    },
    Rule {
        id: "print-in-lib",
        severity: Severity::Error,
        summary: "no println!/eprintln!/dbg! in library code (binaries, tests, examples exempt)",
        check: print_in_lib,
    },
    Rule {
        id: "no-recursion-in-hot-path",
        severity: Severity::Error,
        summary: "no recursive self-calls in simbr/collision search functions (iterate over \
                  explicit scratch instead)",
        check: no_recursion_in_hot_path,
    },
    Rule {
        id: "cargo-deps",
        severity: Severity::Error,
        summary:
            "Cargo.toml dependencies must be path-local or workspace-inherited (offline build)",
        check: |_, _| {}, // manifest rule: see crate::manifest::check_manifest
    },
    Rule {
        id: "lock-order",
        severity: Severity::Error,
        summary: "no lock-order cycles, and no blocking ops (park/recv/wait/join/send) while \
                  holding a lock",
        check: |_, _| {}, // structural pass: see crate::lock_order
    },
    Rule {
        id: "atomics-audit",
        severity: Severity::Error,
        summary: "no Ordering::Relaxed on atomics that gate park/unpark decisions \
                  (lost-wakeup class)",
        check: |_, _| {}, // structural pass: see crate::atomics
    },
    Rule {
        id: "stale-pragma",
        severity: Severity::Warning,
        summary: "every `moped-lint: allow` pragma must still suppress a finding \
                  (suppressions must not rot)",
        check: |_, _| {}, // pragma pass: see crate::pragma::apply_tracked
    },
];

/// Looks a rule up by id (for pragma validation).
pub fn rule_by_id(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

fn applies(ctx: &FileCtx<'_>, crates: &[&str]) -> bool {
    crates.contains(&ctx.crate_key)
}

/// Emits a diagnostic for `rule_id` at `line`.
fn emit(
    ctx: &FileCtx<'_>,
    out: &mut Vec<Diagnostic>,
    rule_id: &'static str,
    line: u32,
    msg: String,
) {
    let rule = rule_by_id(rule_id).unwrap_or(&RULES[0]);
    out.push(Diagnostic {
        rule: rule.id,
        severity: rule.severity,
        pass: "token",
        path: ctx.path.to_path_buf(),
        line,
        message: msg,
    });
}

/// rule `wall-clock` — wall-clock time and ambient randomness are the
/// two classic sources of silent nondeterminism; neither belongs in a
/// crate whose results must be bit-reproducible.
fn wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !applies(ctx, DETERMINISTIC_CRATES) {
        return;
    }
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if ctx.is_test_line(t.line) {
            continue;
        }
        if t.is_ident("Instant")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("now"))
        {
            emit(
                ctx,
                out,
                "wall-clock",
                t.line,
                format!(
                    "`Instant::now()` in deterministic crate `{}` — planner results must not \
                     depend on wall-clock time; take time bounds as caller-provided inputs",
                    ctx.crate_key
                ),
            );
        } else if t.is_ident("SystemTime") || t.is_ident("thread_rng") {
            emit(
                ctx,
                out,
                "wall-clock",
                t.line,
                format!(
                    "`{}` in deterministic crate `{}` — use a seeded `StdRng` or caller-provided \
                     inputs instead",
                    t.text, ctx.crate_key
                ),
            );
        }
    }
}

/// rule `hash-collections` — `HashMap`/`HashSet` iteration order varies
/// run to run (SipHash keys are randomized upstream; even with a fixed
/// hasher, order is an implementation detail). Deterministic crates use
/// `BTreeMap`/`BTreeSet` or sorted drains instead. Any use is flagged:
/// a map that is never iterated today is one refactor away from being
/// iterated, and the B-tree swap is cheap at planner scales.
fn hash_collections(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !applies(ctx, DETERMINISTIC_CRATES) {
        return;
    }
    for t in ctx.tokens {
        if ctx.is_test_line(t.line) {
            continue;
        }
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            emit(
                ctx,
                out,
                "hash-collections",
                t.line,
                format!(
                    "`{}` in deterministic crate `{}` — iteration order is nondeterministic; \
                     use `BTree{}` or a sorted drain",
                    t.text,
                    ctx.crate_key,
                    &t.text[4..],
                ),
            );
        }
    }
}

/// rule `panic-path` — the serving layer's contract (DESIGN.md §7.1) is
/// that no request can take a worker down: failures are typed values,
/// not unwinds. `unwrap`/`expect` and the panic macro family are banned
/// in non-test service code; deliberate panics (fault injection) carry
/// a pragma.
fn panic_path(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !applies(ctx, &["service"]) {
        return;
    }
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if ctx.is_test_line(t.line) {
            continue;
        }
        let called = |name: &str| {
            t.is_punct(".")
                && toks.get(i + 1).is_some_and(|t| t.is_ident(name))
                && toks.get(i + 2).is_some_and(|t| t.is_punct("("))
        };
        if called("unwrap") || called("expect") {
            let name = &toks[i + 1].text;
            emit(
                ctx,
                out,
                "panic-path",
                toks[i + 1].line,
                format!(
                    "`.{name}()` in the serving layer — return a typed error \
                     (`PlanFailure`/`RejectReason`) instead of panicking"
                ),
            );
        }
        let is_macro =
            |name: &str| t.is_ident(name) && toks.get(i + 1).is_some_and(|t| t.is_punct("!"));
        for mac in ["panic", "todo", "unimplemented"] {
            if is_macro(mac) {
                emit(
                    ctx,
                    out,
                    "panic-path",
                    t.line,
                    format!(
                        "`{mac}!` in the serving layer — workers must fail with typed outcomes, \
                         not unwinds"
                    ),
                );
            }
        }
    }
}

/// Identifiers that mark an expression as float-valued for the
/// `float-eq` heuristic: float-returning geometry methods plus the
/// float-typed constant namespaces.
pub(crate) const FLOAT_METHODS: &[&str] = &["norm", "norm_sq", "dot", "sqrt", "hypot", "distance"];
const FLOAT_NAMESPACES: &[&str] = &["f64", "f32", "Vec3", "Mat3"];

/// rule `float-eq` — exact `==`/`!=` on floats silently encodes "these
/// two rounding chains are identical", which SAT/GJK kernels cannot
/// promise. The rule walks each comparison's operand windows; if either
/// side shows float evidence (a float literal, an `f64::`/`Vec3::` path,
/// or a float-returning method), the comparison is flagged.
fn float_eq(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !applies(ctx, &["geometry"]) {
        return;
    }
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_punct("==") || t.is_punct("!=")) || ctx.is_test_line(t.line) {
            continue;
        }
        if operand_is_floaty(toks, i, Direction::Left)
            || operand_is_floaty(toks, i, Direction::Right)
        {
            emit(
                ctx,
                out,
                "float-eq",
                t.line,
                format!(
                    "`{}` between float expressions — compare with an epsilon \
                     (e.g. `(a - b).abs() <= eps` or `v.norm_sq() < eps`)",
                    t.text
                ),
            );
        }
    }
}

enum Direction {
    Left,
    Right,
}

/// Scans one operand of the comparison at `op_idx` for float evidence,
/// stopping at expression boundaries (statement/brace/argument edges
/// and short-circuit operators) so evidence never leaks across them.
fn operand_is_floaty(toks: &[Token], op_idx: usize, dir: Direction) -> bool {
    const BOUNDARY: &[&str] = &[
        ";", ",", "{", "}", "&&", "||", "=", "=>", "->", "?", "return", "if", "while", "match",
    ];
    // Delimiters that deepen the window, oriented by scan direction.
    let (deepen, shallow): (&[&str], &[&str]) = match dir {
        Direction::Left => (&[")", "]"], &["(", "["]),
        Direction::Right => (&["(", "["], &[")", "]"]),
    };
    let mut depth: i32 = 0;
    let mut idx = op_idx;
    for _ in 0..64 {
        idx = match dir {
            Direction::Left => match idx.checked_sub(1) {
                Some(n) => n,
                None => return false,
            },
            Direction::Right => idx + 1,
        };
        let Some(t) = toks.get(idx) else {
            return false;
        };
        if t.kind == TokenKind::Punct && deepen.contains(&t.text.as_str()) {
            depth += 1;
            continue;
        }
        if t.kind == TokenKind::Punct && shallow.contains(&t.text.as_str()) {
            depth -= 1;
            if depth < 0 {
                return false; // left the enclosing group: operand ended
            }
            continue;
        }
        if depth == 0 && BOUNDARY.contains(&t.text.as_str()) {
            return false;
        }
        match t.kind {
            TokenKind::Float => return true,
            TokenKind::Ident => {
                if FLOAT_METHODS.contains(&t.text.as_str()) {
                    return true;
                }
                // `f64::EPSILON`, `Vec3::ZERO`, … — the namespace ident is
                // evidence only when used as a path, so a local variable
                // that merely shadows the name cannot trip it.
                if FLOAT_NAMESPACES.contains(&t.text.as_str())
                    && toks.get(idx + 1).is_some_and(|t| t.is_punct("::"))
                {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// rule `unbounded-channel` — `mpsc::channel()` buffers without bound;
/// the serving layer's admission contract is "reject, don't buffer", so
/// every channel must be a bounded `sync_channel`.
fn unbounded_channel(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !applies(ctx, &["service"]) {
        return;
    }
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if ctx.is_test_line(t.line) {
            continue;
        }
        if t.is_ident("mpsc")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("channel"))
        {
            emit(
                ctx,
                out,
                "unbounded-channel",
                t.line,
                "unbounded `mpsc::channel()` in the serving layer — use a bounded \
                 `mpsc::sync_channel(capacity)` so backpressure is explicit"
                    .to_string(),
            );
        }
    }
}

/// rule `mutex-receiver` — a worker that locks a shared
/// `Mutex<Receiver<_>>` and then blocks in `recv` keeps the lock while it
/// sleeps, so every other idle worker parks behind that one lock instead
/// of waiting for work itself. Wait on a condition variable, which
/// releases the lock while it sleeps (the serving layer's
/// `queue::JobQueue`, DESIGN.md §7), never on a lock-wrapped channel end.
fn mutex_receiver(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !applies(ctx, &["service"]) {
        return;
    }
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if ctx.is_test_line(t.line) {
            continue;
        }
        if !(t.is_ident("Mutex") || t.is_ident("RwLock"))
            || !toks.get(i + 1).is_some_and(|t| t.is_punct("<"))
        {
            continue;
        }
        // Skip a path qualifier (`mpsc::`, `std::sync::mpsc::`) so the
        // fully-qualified spelling cannot dodge the rule.
        let mut j = i + 2;
        while toks.get(j).is_some_and(|t| t.kind == TokenKind::Ident)
            && toks.get(j + 1).is_some_and(|t| t.is_punct("::"))
        {
            j += 2;
        }
        if toks.get(j).is_some_and(|t| t.is_ident("Receiver")) {
            emit(
                ctx,
                out,
                "mutex-receiver",
                t.line,
                format!(
                    "`{}<Receiver<_>>` in the serving layer — a worker blocked in `recv` \
                     holds the lock, so every other worker parks behind it; wait on a \
                     condvar that releases the lock (`queue::JobQueue`) instead",
                    t.text
                ),
            );
        }
    }
}

/// rule `nested-lock` — two `.lock()` calls inside one function body
/// mean two guards can be alive at once; without a documented ordering
/// that is a deadlock waiting for a second call path. The pool keeps
/// one-lock-per-function discipline (helpers release before the next
/// acquire); a justified pragma marks any deliberate exception.
fn nested_lock(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !applies(ctx, &["service"]) {
        return;
    }
    let toks = ctx.tokens;
    // Collect function body spans (token index ranges, innermost wins).
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("fn") {
            continue;
        }
        // Find the body's opening brace, then match it.
        let mut j = i + 1;
        let mut open = None;
        while let Some(tok) = toks.get(j) {
            if tok.is_punct("{") {
                open = Some(j);
                break;
            }
            if tok.is_punct(";") {
                break; // trait method declaration: no body
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        let mut depth = 0usize;
        let mut k = open;
        while let Some(tok) = toks.get(k) {
            if tok.is_punct("{") {
                depth += 1;
            } else if tok.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        spans.push((open, k));
    }
    // Find `.lock()` call sites and attribute each to its innermost fn.
    let mut per_span: Vec<Vec<&Token>> = vec![Vec::new(); spans.len()];
    for (i, t) in toks.iter().enumerate() {
        let is_lock = t.is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("lock"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("("));
        if !is_lock || ctx.is_test_line(t.line) {
            continue;
        }
        let innermost = spans
            .iter()
            .enumerate()
            .filter(|(_, (a, b))| *a <= i && i <= *b)
            .min_by_key(|(_, (a, b))| b - a)
            .map(|(s, _)| s);
        if let Some(s) = innermost {
            per_span[s].push(&toks[i + 1]);
        }
    }
    for locks in per_span {
        for t in locks.iter().skip(1) {
            emit(
                ctx,
                out,
                "nested-lock",
                t.line,
                "second `.lock()` in one function body — overlapping guards risk lock-order \
                 inversion; split the function or document the ordering with a pragma"
                    .to_string(),
            );
        }
    }
}

/// Function-name prefixes that mark the neighbor-search and collision
/// hot paths for `no-recursion-in-hot-path`.
const HOT_PATH_PREFIXES: &[&str] = &[
    "nearest",
    "near",
    "search",
    "filter",
    "config_free",
    "motion_free",
];

/// rule `no-recursion-in-hot-path` — the flat-arena engine exists so the
/// per-query hot paths run allocation-free iterative loops over reusable
/// scratch; a recursive self-call reintroduces unbounded stack growth
/// and per-level call overhead, and silently defeats the zero-alloc
/// contract the `hot_path_alloc` tests pin. Search-shaped functions
/// (see [`HOT_PATH_PREFIXES`]) in `simbr` and `collision` must not call
/// themselves.
fn no_recursion_in_hot_path(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !applies(ctx, &["simbr", "collision"]) {
        return;
    }
    let toks = ctx.tokens;
    // Collect (name, body span) for every hot-path function.
    let mut fns: Vec<(&str, usize, usize)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("fn") {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokenKind::Ident {
            continue;
        }
        let name = name_tok.text.as_str();
        if !HOT_PATH_PREFIXES.iter().any(|p| name.starts_with(p)) {
            continue;
        }
        // Find the body's opening brace, then match it.
        let mut j = i + 2;
        let mut open = None;
        while let Some(tok) = toks.get(j) {
            if tok.is_punct("{") {
                open = Some(j);
                break;
            }
            if tok.is_punct(";") {
                break; // trait method declaration: no body
            }
            j += 1;
        }
        let Some(open) = open else { continue };
        let mut depth = 0usize;
        let mut k = open;
        while let Some(tok) = toks.get(k) {
            if tok.is_punct("{") {
                depth += 1;
            } else if tok.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        fns.push((name, open, k));
    }
    // Flag calls of the function's own name inside its body.
    for &(name, open, close) in &fns {
        for i in (open + 1)..close.min(toks.len()) {
            let t = &toks[i];
            if !t.is_ident(name)
                || !toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                || ctx.is_test_line(t.line)
            {
                continue;
            }
            // `fn name(` inside the span is a nested definition, not a call.
            if i > 0 && toks[i - 1].is_ident("fn") {
                continue;
            }
            emit(
                ctx,
                out,
                "no-recursion-in-hot-path",
                t.line,
                format!(
                    "`{name}` calls itself — hot-path search functions must be iterative \
                     (explicit frontier/stack over reusable scratch), not recursive"
                ),
            );
        }
    }
}

/// rule `print-in-lib` — library crates speak through return values and
/// the metrics/obs layers, never stdout/stderr: a stray `println!` in a
/// kernel interleaves with the machine-readable output of whatever
/// binary embeds it, and `dbg!` is debug noise that ships. Binary
/// targets (`src/bin/`, `main.rs`) own their streams and are exempt, as
/// are tests, benches, and examples.
fn print_in_lib(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if ctx.is_test_file || is_binary_target(ctx.path) {
        return;
    }
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if ctx.is_test_line(t.line) {
            continue;
        }
        let is_macro =
            |name: &str| t.is_ident(name) && toks.get(i + 1).is_some_and(|t| t.is_punct("!"));
        for mac in ["println", "eprintln", "print", "eprint", "dbg"] {
            if is_macro(mac) {
                emit(
                    ctx,
                    out,
                    "print-in-lib",
                    t.line,
                    format!(
                        "`{mac}!` in library crate `{}` — libraries report through return \
                         values and the obs/metrics layers; only binary targets may print",
                        ctx.crate_key
                    ),
                );
            }
        }
    }
}

/// Whether `path` is a binary target: any file under a `bin/` directory
/// or a crate-root `main.rs`.
fn is_binary_target(path: &Path) -> bool {
    path.components().any(|c| c.as_os_str() == "bin")
        || path.file_name().is_some_and(|f| f == "main.rs")
}

/// rule `allow-without-reason` — every `#[allow(...)]` is a contract
/// exception and must say why, as a comment on the same line or the
/// line directly above.
fn allow_without_reason(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_punct("#") {
            continue;
        }
        // `#[allow(` or `#![allow(`
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct("!")) {
            j += 1;
        }
        let is_allow = toks.get(j).is_some_and(|t| t.is_punct("["))
            && toks.get(j + 1).is_some_and(|t| t.is_ident("allow"))
            && toks.get(j + 2).is_some_and(|t| t.is_punct("("));
        if !is_allow {
            continue;
        }
        let line = t.line;
        // Doc comments (`///`, `//!`, `/** */`) document the *item*, not
        // the allow — they do not count as justification.
        let justified = ctx.comments.iter().any(|c| {
            !c.text.starts_with('/')
                && !c.text.starts_with('!')
                && (c.end_line + 1 == line || (c.line <= line && line <= c.end_line))
        });
        if !justified {
            emit(
                ctx,
                out,
                "allow-without-reason",
                line,
                "`#[allow(...)]` without a justification comment — say why the lint does not \
                 apply, on this line or the line above"
                    .to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_ids_are_unique_and_lookup_works() {
        for (i, r) in RULES.iter().enumerate() {
            assert!(
                RULES.iter().skip(i + 1).all(|o| o.id != r.id),
                "duplicate rule id {}",
                r.id
            );
            assert!(rule_by_id(r.id).is_some());
        }
        assert!(rule_by_id("no-such-rule").is_none());
    }
}
