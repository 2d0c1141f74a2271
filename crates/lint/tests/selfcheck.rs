//! Self-check: the engine runs over the real workspace and must report
//! nothing. This is the executable form of the acceptance check
//! "the workspace lints clean" — if a contract violation lands, this
//! test fails alongside the `scripts/verify.sh` lint stage.

use std::path::Path;

#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    assert!(
        root.join("Cargo.toml").is_file(),
        "expected workspace root at {}",
        root.display()
    );
    let findings = moped_lint::lint_workspace(&root).expect("workspace walk succeeds");
    assert!(
        findings.is_empty(),
        "workspace has lint findings:\n{}",
        findings
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
