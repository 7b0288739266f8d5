//! The lint's own acceptance gate: the live workspace at HEAD must be
//! clean. Every contract the rules mechanize (notify-under-lock,
//! ordering justifications, the unsafe budget, hot-path allocation
//! bans, the serve/router panic surface) is therefore re-checked by
//! `cargo test` itself, not just by the CI job that runs the binary.

use std::path::PathBuf;

#[test]
fn live_workspace_has_zero_findings() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("tools/lint sits two levels below the workspace root")
        .to_path_buf();
    let findings = scissor_lint::run(&root).expect("lint run on the live workspace");
    assert!(
        findings.is_empty(),
        "workspace must lint clean; fix or waive these:\n{}",
        findings.iter().map(|f| f.render()).collect::<Vec<_>>().join("\n")
    );
}
