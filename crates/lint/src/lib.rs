//! `moped-lint`: workspace-wide static analysis enforcing the MOPED
//! determinism, panic-freedom, and float-hygiene contracts.
//!
//! The chaos suite *observes* the determinism contract — "every
//! non-faulted request is bit-identical to a serial run" — but nothing
//! stopped the next change from reintroducing a wall-clock read into the
//! planner core or an `unwrap()` into a worker hot path. This crate
//! closes that gap statically: a hand-rolled Rust lexer (the workspace
//! builds offline, so no `syn`) feeding flat token rules plus three
//! structural passes — [`lock_order`], [`panic_flow`], [`atomics`] —
//! that walk a brace-matched item tree ([`structure`]) and a per-crate
//! call-graph approximation ([`callgraph`]). See DESIGN.md §8 for the
//! rule catalog and [`rules::RULES`] for the token-rule code.
//!
//! Deliberate exceptions are carried in-place by pragmas:
//!
//! ```text
//! // moped-lint: allow(panic-path) fault injection: the panic IS the fault
//! ```
//!
//! where the trailing reason is mandatory — a pragma without one is
//! itself a finding.
//!
//! Run over the workspace with `cargo run -p moped-lint -- --deny
//! warnings` (wired into `scripts/verify.sh`), or embed via
//! [`lint_workspace`] / [`lint_rust_source`] as the self-check test
//! does.

#![deny(missing_docs)]

pub mod atomics;
pub mod callgraph;
pub mod lexer;
pub mod lock_order;
pub mod manifest;
pub mod panic_flow;
pub mod pragma;
pub mod rules;
pub mod structure;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use lexer::{Comment, Token};

/// How severe a finding is. `Warning` still fails the build under
/// `--deny warnings` (the mode `scripts/verify.sh` uses).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A contract smell; fix it or justify it with a pragma.
    Warning,
    /// A contract violation.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding: a rule violated at a file/line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired (or `invalid-pragma`).
    pub rule: &'static str,
    /// Severity before any `--deny warnings` escalation.
    pub severity: Severity,
    /// Which analysis layer produced the finding: `"token"` (flat token
    /// rules), `"structural"` (item-tree/call-graph passes),
    /// `"pragma"` (pragma validation and staleness), or `"manifest"`.
    pub pass: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: PathBuf,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human explanation, including the suggested fix.
    pub message: String,
}

impl Diagnostic {
    /// Renders as the machine-readable JSON object used by `--json`.
    pub fn to_json(&self) -> String {
        format!(
            r#"{{"rule":"{}","pass":"{}","severity":"{}","path":"{}","line":{},"message":"{}"}}"#,
            self.rule,
            self.pass,
            self.severity,
            json_escape(&self.path.display().to_string()),
            self.line,
            json_escape(&self.message)
        )
    }
}

/// Pushes a diagnostic for `rule_id`, taking the severity from the rule
/// catalog — the shared emit path of the structural passes.
pub(crate) fn push_diag(
    out: &mut Vec<Diagnostic>,
    rule_id: &'static str,
    pass: &'static str,
    path: &Path,
    line: u32,
    message: String,
) {
    out.push(Diagnostic {
        rule: rule_id,
        severity: rules::rule_by_id(rule_id)
            .map(|r| r.severity)
            .unwrap_or(Severity::Warning),
        pass,
        path: path.to_path_buf(),
        line,
        message,
    });
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}:{}: {}",
            self.severity,
            self.rule,
            self.path.display(),
            self.line,
            self.message
        )
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Everything a rule sees about one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path (diagnostics point here).
    pub path: &'a Path,
    /// Which crate the file belongs to, as the directory key under
    /// `crates/` (`"geometry"`, `"service"`, …) or `"moped"` for the
    /// facade crate's own `src/`, `tests/`, and `examples/`.
    pub crate_key: &'a str,
    /// Whole-file test context: the file lives under `tests/`,
    /// `benches/`, or `examples/`.
    pub is_test_file: bool,
    /// The token stream.
    pub tokens: &'a [Token],
    /// The comments (for pragmas and comment-adjacency rules).
    pub comments: &'a [Comment],
    /// Line ranges covered by `#[cfg(test)]` items.
    pub test_regions: &'a [(u32, u32)],
}

impl FileCtx<'_> {
    /// Whether `line` is test code (a test file, or inside a
    /// `#[cfg(test)]` region) — most rules skip those lines: tests may
    /// unwrap, use wall clocks, and hash freely.
    pub fn is_test_line(&self, line: u32) -> bool {
        self.is_test_file
            || self
                .test_regions
                .iter()
                .any(|&(a, b)| a <= line && line <= b)
    }
}

/// Computes the line ranges of `#[cfg(test)]` items by brace-matching
/// the item that follows each attribute.
fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let is_cfg_test = tokens[i].is_punct("#")
            && tokens.get(i + 1).is_some_and(|t| t.is_punct("["))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct("("))
            && tokens.get(i + 4).is_some_and(|t| t.is_ident("test"))
            && tokens.get(i + 5).is_some_and(|t| t.is_punct(")"))
            && tokens.get(i + 6).is_some_and(|t| t.is_punct("]"));
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        // Scan to the item's body (first `{`) or its end (`;` for a
        // braceless item like `#[cfg(test)] use …;`), then brace-match.
        let mut j = i + 7;
        let mut end_line = start_line;
        while let Some(t) = tokens.get(j) {
            if t.is_punct(";") {
                end_line = t.line;
                break;
            }
            if t.is_punct("{") {
                let mut depth = 0usize;
                while let Some(t) = tokens.get(j) {
                    if t.is_punct("{") {
                        depth += 1;
                    } else if t.is_punct("}") {
                        depth -= 1;
                        if depth == 0 {
                            end_line = t.line;
                            break;
                        }
                    }
                    j += 1;
                }
                break;
            }
            j += 1;
        }
        regions.push((start_line, end_line.max(start_line)));
        i = j.max(i + 7);
    }
    regions
}

/// One parsed source file: the shared input of the token rules and the
/// structural passes (lexed once, item tree built once).
pub struct FileUnit {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// Whole-file test context (under `tests/`, `benches/`, `examples/`).
    pub is_test_file: bool,
    /// Lexer output: tokens and comments.
    pub lexed: lexer::Lexed,
    /// Line ranges covered by `#[cfg(test)]` items.
    pub test_regions: Vec<(u32, u32)>,
    /// The brace-matched item/block tree.
    pub tree: structure::ItemTree,
}

impl FileUnit {
    /// Lexes and parses one file.
    pub fn parse(path: PathBuf, is_test_file: bool, src: &str) -> FileUnit {
        let lexed = lexer::lex(src);
        let test_regions = test_regions(&lexed.tokens);
        let tree = structure::build(&lexed.tokens);
        FileUnit {
            path,
            is_test_file,
            lexed,
            test_regions,
            tree,
        }
    }

    /// Whether `line` is test code (see [`FileCtx::is_test_line`]).
    pub fn is_test_line(&self, line: u32) -> bool {
        self.is_test_file
            || self
                .test_regions
                .iter()
                .any(|&(a, b)| a <= line && line <= b)
    }
}

/// Lints one crate's Rust sources as a unit: token rules per file, then
/// the structural passes (which need the whole crate for call-edge
/// propagation), then pragma application with staleness tracking. This
/// is the engine's core entry point. Files are `(path, is_test_file,
/// source)` triples.
pub fn lint_crate(crate_key: &str, files: &[(PathBuf, bool, String)]) -> Vec<Diagnostic> {
    let units: Vec<FileUnit> = files
        .iter()
        .map(|(path, is_test, src)| FileUnit::parse(path.clone(), *is_test, src))
        .collect();
    let mut found = Vec::new();
    for unit in &units {
        let ctx = FileCtx {
            path: &unit.path,
            crate_key,
            is_test_file: unit.is_test_file,
            tokens: &unit.lexed.tokens,
            comments: &unit.lexed.comments,
            test_regions: &unit.test_regions,
        };
        for rule in rules::RULES {
            (rule.check)(&ctx, &mut found);
        }
    }
    let graph = callgraph::build(&units);
    lock_order::check(crate_key, &units, &graph, &mut found);
    panic_flow::check(crate_key, &units, &graph, &mut found);
    atomics::check(crate_key, &units, &graph, &mut found);
    // Pragmas apply per file; unmatched suppressions become
    // stale-pragma findings.
    let mut out = Vec::new();
    let mut remaining = found;
    for unit in &units {
        let (mine, rest): (Vec<_>, Vec<_>) =
            remaining.into_iter().partition(|d| d.path == unit.path);
        remaining = rest;
        let (sups, mut pragma_diags) = pragma::parse_pragmas(&unit.path, &unit.lexed.comments);
        out.extend(pragma::apply_tracked(&unit.path, mine, &sups));
        out.append(&mut pragma_diags);
    }
    out.append(&mut remaining);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// Lints one Rust source file with an explicit crate context — a
/// single-file crate as far as the structural passes are concerned.
/// The fixture tests call this directly.
pub fn lint_rust_source(
    path: &Path,
    crate_key: &str,
    is_test_file: bool,
    src: &str,
) -> Vec<Diagnostic> {
    lint_crate(
        crate_key,
        &[(path.to_path_buf(), is_test_file, src.to_string())],
    )
}

/// Derives the crate key and test-file flag from a workspace-relative
/// path (see [`FileCtx::crate_key`]).
pub fn classify_path(rel: &Path) -> (String, bool) {
    let comps: Vec<&str> = rel
        .components()
        .filter_map(|c| c.as_os_str().to_str())
        .collect();
    let crate_key = if comps.first() == Some(&"crates") && comps.len() > 1 {
        comps[1].to_string()
    } else {
        "moped".to_string()
    };
    let is_test = comps
        .iter()
        .any(|c| matches!(*c, "tests" | "benches" | "examples"));
    (crate_key, is_test)
}

/// Walks the workspace at `root` and lints every first-party Rust file
/// plus every manifest (including `vendor/*/Cargo.toml` — the vendored
/// subsets must stay offline-buildable too). Skips `target/`, `.git/`,
/// vendored *source* (third-party idiom is not ours to lint), and the
/// engine's own `tests/fixtures/` (deliberately seeded violations).
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    collect_files(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    let mut by_crate: BTreeMap<String, Vec<(PathBuf, bool, String)>> = BTreeMap::new();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        if rel.file_name().is_some_and(|n| n == "Cargo.toml") {
            out.extend(manifest::check_manifest(&rel, &src));
        } else {
            let (crate_key, is_test) = classify_path(&rel);
            by_crate
                .entry(crate_key)
                .or_default()
                .push((rel, is_test, src));
        }
    }
    for (crate_key, group) in &by_crate {
        out.extend(lint_crate(crate_key, group));
    }
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(out)
}

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | ".git" | "fixtures") {
                continue;
            }
            collect_files(root, &path, out)?;
        } else {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            let in_vendor = rel
                .components()
                .next()
                .is_some_and(|c| c.as_os_str() == "vendor");
            let is_manifest = rel.file_name().is_some_and(|n| n == "Cargo.toml");
            let is_rust = rel.extension().is_some_and(|e| e == "rs");
            if is_manifest || (is_rust && !in_vendor) {
                out.push(rel);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn helper() {}\n}\nfn tail() {}\n";
        let lexed = lexer::lex(src);
        let regions = test_regions(&lexed.tokens);
        assert_eq!(regions, vec![(2, 5)]);
    }

    #[test]
    fn classify_paths() {
        let (k, t) = classify_path(Path::new("crates/geometry/src/gjk.rs"));
        assert_eq!((k.as_str(), t), ("geometry", false));
        let (k, t) = classify_path(Path::new("crates/core/tests/properties.rs"));
        assert_eq!((k.as_str(), t), ("core", true));
        let (k, t) = classify_path(Path::new("examples/quickstart.rs"));
        assert_eq!((k.as_str(), t), ("moped", true));
        let (k, t) = classify_path(Path::new("src/lib.rs"));
        assert_eq!((k.as_str(), t), ("moped", false));
    }

    #[test]
    fn pragma_suppresses_next_line() {
        let src = "// moped-lint: allow(wall-clock) deadline plumbing is injected by the caller\n\
                   fn f() { let t = Instant::now(); }\n";
        let d = lint_rust_source(Path::new("x.rs"), "core", false, src);
        assert!(d.is_empty(), "{d:?}");
        // Without the pragma the same source is flagged.
        let d = lint_rust_source(
            Path::new("x.rs"),
            "core",
            false,
            "fn f() { let t = Instant::now(); }\n",
        );
        assert_eq!(d.len(), 1);
    }
}
