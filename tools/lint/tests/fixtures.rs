//! One minimal firing snippet and one clean snippet per rule, run
//! through the real [`scissor_lint::run`] entry point against throwaway
//! fixture trees (each fixture is a tiny workspace root with the two
//! config files plus the files under test).

use scissor_lint::rules::id;
use scissor_lint::Finding;
use std::fs;

/// Materializes `files` under a fresh fixture root (with default lint
/// config), runs the lint, and returns the findings.
fn run_fixture(name: &str, files: &[(&str, &str)]) -> Vec<Finding> {
    let root = std::env::temp_dir().join(format!("scissor-lint-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("tools/lint")).expect("fixture config dir");
    fs::write(root.join("tools/lint/hotpaths.toml"), "functions = [\"infer_into\"]\n")
        .expect("fixture hotpaths");
    fs::write(root.join("tools/lint/ordering.allow"), "# empty\n").expect("fixture allowlist");
    for (rel, content) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("fixture file has a parent")).expect("fixture dir");
        fs::write(path, content).expect("fixture file");
    }
    let findings = scissor_lint::run(&root).expect("fixture lint run");
    let _ = fs::remove_dir_all(&root);
    findings
}

/// The findings for one rule only.
fn of_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

// ---------------------------------------------------------------- rule 1

/// The canonical firing case: the PR 2 `Latch::set` bug, reconstructed.
/// The guard block closes before the notify, so a `wait` caller can
/// observe `done == true`, return, and pop the stack frame containing
/// the condvar before `notify_all` touches it.
#[test]
fn notify_after_unlock_fires_at_the_notify_line() {
    let latch = r#"#![forbid(unsafe_code)]
use std::sync::{Condvar, Mutex};
struct Latch {
    done: Mutex<bool>,
    cv: Condvar,
}
impl Latch {
    fn set(&self) {
        {
            let mut done = self.done.lock().expect("latch poisoned");
            *done = true;
        }
        self.cv.notify_all();
    }
}
"#;
    let findings = run_fixture("latch-fire", &[("crates/x/src/lib.rs", latch)]);
    let hits = of_rule(&findings, id::NOTIFY);
    assert_eq!(hits.len(), 1, "exactly the notify line: {findings:?}");
    assert_eq!(hits[0].file, "crates/x/src/lib.rs");
    assert_eq!(hits[0].line, 13, "must point at the notify_all call");
}

#[test]
fn notify_under_live_guard_is_clean() {
    let latch = r#"#![forbid(unsafe_code)]
use std::sync::{Condvar, Mutex};
struct Latch {
    done: Mutex<bool>,
    cv: Condvar,
}
impl Latch {
    fn set(&self) {
        let mut done = self.done.lock().expect("latch poisoned");
        *done = true;
        self.cv.notify_all();
    }
}
"#;
    let findings = run_fixture("latch-clean", &[("crates/x/src/lib.rs", latch)]);
    assert!(of_rule(&findings, id::NOTIFY).is_empty(), "{findings:?}");
}

#[test]
fn dropped_guard_kills_liveness_and_waiver_restores_cleanliness() {
    let dropped = r#"#![forbid(unsafe_code)]
use std::sync::{Condvar, Mutex};
fn f(m: &Mutex<bool>, cv: &Condvar) {
    let mut g = m.lock().expect("poisoned");
    *g = true;
    drop(g);
    cv.notify_one();
}
"#;
    let findings = run_fixture("latch-drop", &[("crates/x/src/lib.rs", dropped)]);
    assert_eq!(of_rule(&findings, id::NOTIFY).len(), 1, "{findings:?}");

    let waived = r#"#![forbid(unsafe_code)]
use std::sync::{Condvar, Mutex};
fn f(m: &Mutex<bool>, cv: &Condvar) {
    {
        let mut g = m.lock().expect("poisoned");
        *g = true;
    }
    // lint: allow(notify-under-lock): the condvar is owned by an Arc'd
    // shared struct in the real code, so it outlives this call.
    cv.notify_one();
}
"#;
    let findings = run_fixture("latch-waived", &[("crates/x/src/lib.rs", waived)]);
    assert!(of_rule(&findings, id::NOTIFY).is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------- rule 2

#[test]
fn unjustified_relaxed_and_seqcst_fire() {
    let src = r#"#![forbid(unsafe_code)]
use std::sync::atomic::{AtomicU64, Ordering};
fn f(a: &AtomicU64) -> u64 {
    a.fetch_add(1, Ordering::SeqCst);
    a.load(Ordering::Relaxed)
}
"#;
    let findings = run_fixture("ordering-fire", &[("crates/x/src/lib.rs", src)]);
    let hits = of_rule(&findings, id::ORDERING);
    assert_eq!(hits.len(), 2, "{findings:?}");
    assert_eq!((hits[0].line, hits[1].line), (4, 5));
}

#[test]
fn justified_and_exempt_orderings_are_clean() {
    let src = r#"#![forbid(unsafe_code)]
use std::sync::atomic::{AtomicU64, Ordering};
// ordering: Relaxed - stat counter, no happens-before edge needed.
fn f(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed)
}
fn g(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed) // ordering: same-line justification
}
fn h(a: &AtomicU64) -> u64 {
    // Acquire/Release/AcqRel are exempt: naming a one-sided barrier is
    // already a claim about which edge synchronizes.
    a.fetch_add(1, Ordering::AcqRel);
    a.load(Ordering::Acquire)
}
"#;
    let findings = run_fixture("ordering-clean", &[("crates/x/src/lib.rs", src)]);
    assert!(of_rule(&findings, id::ORDERING).is_empty(), "{findings:?}");
}

#[test]
fn ordering_inside_strings_and_test_mods_is_ignored() {
    let src = r##"#![forbid(unsafe_code)]
pub fn f() -> &'static str {
    "a.load(Ordering::SeqCst)"
}
#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    fn g(a: &AtomicU64) -> u64 {
        a.load(Ordering::SeqCst)
    }
}
"##;
    let findings = run_fixture("ordering-opaque", &[("crates/x/src/lib.rs", src)]);
    assert!(of_rule(&findings, id::ORDERING).is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------- rule 3

#[test]
fn unsafe_outside_the_budget_fires() {
    let src = r#"
pub fn read(p: *const u32) -> u32 {
    // SAFETY: a comment does not buy entry; the file itself is out of
    // budget.
    unsafe { *p }
}
"#;
    let findings = run_fixture("unsafe-fire", &[("crates/x/src/lib.rs", src)]);
    assert_eq!(of_rule(&findings, id::UNSAFE).len(), 2, "budget violation + missing forbid");
}

#[test]
fn budget_file_requires_safety_comments() {
    let bare = r#"
pub fn read(p: *const u32) -> u32 {
    unsafe { *p }
}
"#;
    let findings = run_fixture("unsafe-budget-bare", &[("vendor/rayon/src/pool.rs", bare)]);
    let hits = of_rule(&findings, id::UNSAFE);
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert_eq!(hits[0].line, 3);

    let annotated = r#"
pub fn read(p: *const u32) -> u32 {
    // SAFETY: caller contract (documented on `read`) guarantees `p` is
    // valid and aligned.
    unsafe { *p }
}
"#;
    let findings = run_fixture("unsafe-budget-ok", &[("vendor/rayon/src/pool.rs", annotated)]);
    assert!(of_rule(&findings, id::UNSAFE).is_empty(), "{findings:?}");
}

#[test]
fn first_party_crate_root_must_forbid_unsafe() {
    let findings = run_fixture("forbid-missing", &[("crates/x/src/lib.rs", "pub fn f() {}\n")]);
    let hits = of_rule(&findings, id::UNSAFE);
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert_eq!(hits[0].line, 1);

    let findings =
        run_fixture("forbid-present", &[("crates/x/src/lib.rs", "#![forbid(unsafe_code)]\n")]);
    assert!(of_rule(&findings, id::UNSAFE).is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------- rule 4

#[test]
fn allocation_in_a_registered_hot_path_fires() {
    let src = r#"#![forbid(unsafe_code)]
pub fn infer_into(out: &mut [f32]) {
    let scratch = Vec::with_capacity(out.len());
    let _ = scratch.len();
    let label = format!("batch {}", out.len());
    let _ = label;
}
"#;
    let findings = run_fixture("hotpath-fire", &[("crates/x/src/lib.rs", src)]);
    let hits = of_rule(&findings, id::HOTPATH);
    assert_eq!(hits.len(), 2, "{findings:?}");
    assert_eq!((hits[0].line, hits[1].line), (3, 5));
}

#[test]
fn clean_hot_path_and_unregistered_allocator_pass() {
    let src = r#"#![forbid(unsafe_code)]
pub fn infer_into(out: &mut [f32]) {
    for v in out.iter_mut() {
        *v = 0.0;
    }
}
pub fn build_report() -> Vec<String> {
    // Not in hotpaths.toml: free to allocate.
    vec![format!("ok")]
}
"#;
    let findings = run_fixture("hotpath-clean", &[("crates/x/src/lib.rs", src)]);
    assert!(of_rule(&findings, id::HOTPATH).is_empty(), "{findings:?}");
}

// ---------------------------------------------------------------- rule 5

#[test]
fn bare_unwrap_in_serving_tier_fires() {
    let src = r#"#![forbid(unsafe_code)]
use std::sync::Mutex;
pub fn depth(m: &Mutex<usize>) -> usize {
    *m.lock().unwrap()
}
"#;
    let findings = run_fixture("unwrap-fire", &[("crates/serve/src/lib.rs", src)]);
    let hits = of_rule(&findings, id::PANIC);
    assert_eq!(hits.len(), 1, "{findings:?}");
    assert_eq!(hits[0].line, 4);
}

#[test]
fn expect_test_mods_and_other_crates_are_clean() {
    let serve = r#"#![forbid(unsafe_code)]
use std::sync::Mutex;
pub fn depth(m: &Mutex<usize>) -> usize {
    *m.lock().expect("queue lock poisoned: a batcher panicked")
}
#[cfg(test)]
mod tests {
    #[test]
    fn unwrap_is_fine_in_tests() {
        let v: Result<u32, ()> = Ok(1);
        assert_eq!(v.unwrap(), 1);
    }
}
"#;
    // The same bare unwrap outside serve/router is not this rule's business.
    let other = "#![forbid(unsafe_code)]\npub fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n";
    let findings = run_fixture(
        "unwrap-clean",
        &[("crates/serve/src/lib.rs", serve), ("crates/x/src/lib.rs", other)],
    );
    assert!(of_rule(&findings, id::PANIC).is_empty(), "{findings:?}");
}
