//! Fixture-file suite: every rule has one known-bad fixture (asserting
//! the exact line of every diagnostic) and one known-good fixture
//! (asserting silence). The fixtures live under `tests/fixtures/`, a
//! directory `lint_workspace` deliberately skips — they are seeded
//! violations, not workspace code.

use moped_lint::{lint_rust_source, manifest};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> (PathBuf, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading fixture {name}: {e}"));
    (path, src)
}

/// Lints a fixture under an explicit crate identity and flattens the
/// diagnostics to `(rule, line)` pairs for exact comparison.
fn findings(name: &str, crate_key: &str) -> Vec<(&'static str, u32)> {
    let (path, src) = fixture(name);
    lint_rust_source(&path, crate_key, false, &src)
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

#[test]
fn wall_clock_bad() {
    // Line 2 is the `use` naming SystemTime — importing the type is
    // already evidence; lines 5/10/11 are the reads.
    assert_eq!(
        findings("bad_wall_clock.rs", "core"),
        vec![
            ("wall-clock", 2),
            ("wall-clock", 5),
            ("wall-clock", 10),
            ("wall-clock", 11),
        ]
    );
}

#[test]
fn wall_clock_good() {
    assert_eq!(findings("good_wall_clock.rs", "core"), vec![]);
}

#[test]
fn hash_collections_bad() {
    assert_eq!(
        findings("bad_hash_collections.rs", "simbr"),
        vec![("hash-collections", 2), ("hash-collections", 4)]
    );
}

#[test]
fn hash_collections_good() {
    assert_eq!(findings("good_hash_collections.rs", "simbr"), vec![]);
}

#[test]
fn hash_collections_only_in_deterministic_crates() {
    // The same bad fixture is clean when it belongs to the serving
    // layer: crate scoping, not a global ban.
    assert_eq!(findings("bad_hash_collections.rs", "service"), vec![]);
}

#[test]
fn panic_path_bad() {
    assert_eq!(
        findings("bad_panic_path.rs", "service"),
        vec![
            ("panic-path", 4),
            ("panic-path", 5),
            ("panic-path", 7),
            ("panic-path", 9),
        ]
    );
}

#[test]
fn panic_path_good() {
    assert_eq!(findings("good_panic_path.rs", "service"), vec![]);
}

#[test]
fn float_eq_bad() {
    // Line 8's `len == 4` is an integer compare and must NOT appear.
    assert_eq!(
        findings("bad_float_eq.rs", "geometry"),
        vec![("float-eq", 4), ("float-eq", 5), ("float-eq", 6)]
    );
}

#[test]
fn float_eq_good() {
    assert_eq!(findings("good_float_eq.rs", "geometry"), vec![]);
}

#[test]
fn unbounded_channel_bad() {
    assert_eq!(
        findings("bad_unbounded_channel.rs", "service"),
        vec![("unbounded-channel", 5)]
    );
}

#[test]
fn unbounded_channel_good() {
    assert_eq!(findings("good_unbounded_channel.rs", "service"), vec![]);
}

#[test]
fn mutex_receiver_bad() {
    // Line 6: plain `Mutex<Receiver<_>>` field; line 9: fully-qualified
    // `RwLock<std::sync::mpsc::Receiver<_>>` in a signature.
    assert_eq!(
        findings("bad_mutex_receiver.rs", "service"),
        vec![("mutex-receiver", 6), ("mutex-receiver", 9)]
    );
}

#[test]
fn mutex_receiver_good() {
    assert_eq!(findings("good_mutex_receiver.rs", "service"), vec![]);
}

#[test]
fn mutex_receiver_only_in_service() {
    // A lock-wrapped receiver outside the serving layer (say, a bench
    // harness) is not the pool-serialization pathology: crate scoping.
    assert_eq!(findings("bad_mutex_receiver.rs", "bench"), vec![]);
}

#[test]
fn nested_lock_bad() {
    // The first `.lock()` (line 5) is legal; the overlapping second
    // one (line 6) is the finding.
    assert_eq!(
        findings("bad_nested_lock.rs", "service"),
        vec![("nested-lock", 6)]
    );
}

#[test]
fn nested_lock_good() {
    assert_eq!(findings("good_nested_lock.rs", "service"), vec![]);
}

#[test]
fn allow_without_reason_bad() {
    // Line 9's doc comment (line 8) does not count as justification.
    assert_eq!(
        findings("bad_allow_reason.rs", "core"),
        vec![("allow-without-reason", 5), ("allow-without-reason", 9)]
    );
}

#[test]
fn allow_without_reason_good() {
    assert_eq!(findings("good_allow_reason.rs", "core"), vec![]);
}

#[test]
fn print_in_lib_bad() {
    assert_eq!(
        findings("bad_print_in_lib.rs", "core"),
        vec![
            ("print-in-lib", 4),
            ("print-in-lib", 5),
            ("print-in-lib", 6),
            ("print-in-lib", 7),
            ("print-in-lib", 8),
        ]
    );
}

#[test]
fn print_in_lib_good() {
    assert_eq!(findings("good_print_in_lib.rs", "core"), vec![]);
}

#[test]
fn print_in_lib_exempts_binary_targets() {
    // The same bad fixture is clean under `src/bin/` or as a crate-root
    // `main.rs` — binaries own their stdout/stderr.
    let (_, src) = fixture("bad_print_in_lib.rs");
    for bin_path in ["crates/bench/src/bin/tool.rs", "crates/lint/src/main.rs"] {
        let d = lint_rust_source(Path::new(bin_path), "bench", false, &src);
        assert!(d.is_empty(), "{bin_path}: {d:?}");
    }
}

#[test]
fn invalid_pragmas_are_findings_and_do_not_suppress() {
    // A reasonless pragma (line 4) and an unknown-rule pragma (line 10)
    // are both diagnosed, and neither suppresses the `.unwrap()` on
    // line 6.
    assert_eq!(
        findings("bad_pragma.rs", "service"),
        vec![
            ("invalid-pragma", 4),
            ("panic-path", 6),
            ("invalid-pragma", 10),
        ]
    );
}

#[test]
fn cargo_deps_bad() {
    let (path, src) = fixture("bad_cargo_deps.toml");
    let got: Vec<(&str, u32)> = manifest::check_manifest(&path, &src)
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect();
    // serde (registry version), rayon (inline table without path or
    // workspace), [dependencies.tokio] (git sub-table, reported at its
    // header), insta (registry version).
    assert_eq!(
        got,
        vec![
            ("cargo-deps", 8),
            ("cargo-deps", 9),
            ("cargo-deps", 12),
            ("cargo-deps", 16),
        ]
    );
}

#[test]
fn cargo_deps_good() {
    let (path, src) = fixture("good_cargo_deps.toml");
    let got = manifest::check_manifest(&path, &src);
    assert!(got.is_empty(), "{got:?}");
}

#[test]
fn hot_path_recursion_bad() {
    // Line 6: free-fn self-call; line 16: method self-call.
    assert_eq!(
        findings("bad_hot_path_recursion.rs", "simbr"),
        vec![
            ("no-recursion-in-hot-path", 6),
            ("no-recursion-in-hot-path", 16),
        ]
    );
    assert_eq!(
        findings("bad_hot_path_recursion.rs", "collision"),
        vec![
            ("no-recursion-in-hot-path", 6),
            ("no-recursion-in-hot-path", 16),
        ]
    );
}

#[test]
fn hot_path_recursion_good() {
    assert_eq!(findings("good_hot_path_recursion.rs", "simbr"), vec![]);
    // The rule is scoped: the same recursive fixture is clean outside the
    // hot-path crates.
    assert_eq!(findings("bad_hot_path_recursion.rs", "core"), vec![]);
}

#[test]
fn test_files_are_exempt_from_crate_rules() {
    // The same panic-path fixture is clean when the file itself is test
    // code (tests/, benches/, examples/).
    let (path, src) = fixture("bad_panic_path.rs");
    let d = lint_rust_source(&path, "service", true, &src);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn lock_order_cycle_bad() {
    // Line 14 closes the first->second edge, line 20 the reverse one;
    // together they form the deadlock cycle, so both sites are reported.
    assert_eq!(
        findings("bad_lock_order.rs", "service"),
        vec![("lock-order", 14), ("lock-order", 20)]
    );
}

#[test]
fn lock_order_cycle_good() {
    assert_eq!(findings("good_lock_order.rs", "service"), vec![]);
    // The structural passes are scoped to the serving layer: the same
    // inverted fixture is clean under a planner-crate identity.
    assert_eq!(findings("bad_lock_order.rs", "core"), vec![]);
}

#[test]
fn lock_blocking_bad() {
    // Line 12: a direct `recv` with the `inner` guard live; line 18: a
    // call that transitively reaches `join` with the guard live; line
    // 27: a channel `send` with the guard live.
    assert_eq!(
        findings("bad_lock_blocking.rs", "service"),
        vec![("lock-order", 12), ("lock-order", 18), ("lock-order", 27)]
    );
}

#[test]
fn lock_blocking_good() {
    assert_eq!(findings("good_lock_blocking.rs", "service"), vec![]);
}

#[test]
fn worker_panic_bad() {
    // Lines 11-13: indexing, integer division, assert! in the spawned
    // worker's entry fn; line 19: indexing in a transitively reached fn.
    assert_eq!(
        findings("bad_worker_panic.rs", "service"),
        vec![
            ("panic-path", 11),
            ("panic-path", 12),
            ("panic-path", 13),
            ("panic-path", 19),
        ]
    );
}

#[test]
fn worker_panic_good() {
    // `offline_report` still indexes, but nothing a spawned thread runs
    // can reach it — reachability, not pattern-matching, drives the pass.
    assert_eq!(findings("good_worker_panic.rs", "service"), vec![]);
}

#[test]
fn relaxed_parking_bad() {
    // Line 16: the Relaxed gate read in the park loop; line 23: the
    // waker's Relaxed store to the same gate atom.
    assert_eq!(
        findings("bad_relaxed_parking.rs", "service"),
        vec![("atomics-audit", 16), ("atomics-audit", 23)]
    );
}

#[test]
fn relaxed_parking_good() {
    assert_eq!(findings("good_relaxed_parking.rs", "service"), vec![]);
}

#[test]
fn stale_pragma_bad() {
    assert_eq!(
        findings("bad_stale_pragma.rs", "core"),
        vec![("stale-pragma", 3)]
    );
}

#[test]
fn stale_pragma_good() {
    assert_eq!(findings("good_stale_pragma.rs", "core"), vec![]);
}
