//! The five repo-invariant rules. Each one mechanizes a contract the
//! workspace states in prose (ARCHITECTURE.md) and previously enforced
//! only by review; see the rule table in ARCHITECTURE's "Static
//! analysis" section for the contract each rule encodes.

use crate::annot::Tracker;
use crate::config::Config;
use crate::lexer::{Tok, TokKind};
use crate::Finding;

/// Rule identifiers, as they appear in diagnostics and waivers.
pub mod id {
    /// Rule 1: `Condvar::notify_*` must run under a live guard binding.
    pub const NOTIFY: &str = "notify-under-lock";
    /// Rule 2: every `Relaxed`/`SeqCst` site carries a justification.
    pub const ORDERING: &str = "ordering-justification";
    /// Rule 3: `unsafe` only in the budgeted file, with `SAFETY:` args.
    pub const UNSAFE: &str = "unsafe-budget";
    /// Rule 4: registered hot-path functions may not allocate.
    pub const HOTPATH: &str = "no-alloc-hot-path";
    /// Rule 5: no bare `unwrap()` in serving-tier non-test code.
    pub const PANIC: &str = "panic-surface";
}

/// The one file allowed to contain `unsafe` (the pool's raw-pointer job
/// machinery), relative to the workspace root.
pub const UNSAFE_BUDGET_FILE: &str = "vendor/rayon/src/pool.rs";

fn prev_code(toks: &[Tok], mut i: usize) -> Option<&Tok> {
    while i > 0 {
        i -= 1;
        if toks[i].kind != TokKind::Comment {
            return Some(&toks[i]);
        }
    }
    None
}

fn next_code(toks: &[Tok], mut i: usize) -> Option<&Tok> {
    loop {
        i += 1;
        match toks.get(i) {
            Some(t) if t.kind == TokKind::Comment => continue,
            other => return other,
        }
    }
}

/// Rule 1 — **notify-under-lock**.
///
/// Every `Condvar::notify_one`/`notify_all` call must execute while some
/// `MutexGuard` binding is still live in the enclosing scope. The exact
/// bug class this mechanizes: PR 2's `Latch::set` released the `done`
/// guard before `notify_all`, so a `Latch::wait` caller could observe
/// `done == true`, return, and pop the stack frame *containing the
/// condvar* between the worker's unlock and its notify — a use after
/// free no test caught.
///
/// Guard liveness is tracked lexically: a `let` whose initializer
/// contains `.lock(` / `.wait(` / `.wait_timeout(` binds a guard at the
/// current brace depth; the guard dies at `drop(name)` or when its block
/// closes. Deliberate notify-after-unlock sites (a condvar owned by an
/// `Arc`, where waiters re-check state under the lock and the wake is
/// hoisted out of the critical section) must carry an explicit
/// `// lint: allow(notify-under-lock): <why the condvar cannot be freed>`
/// waiver.
pub fn notify_under_lock(rel: &str, toks: &[Tok], findings: &mut Vec<Finding>) {
    let mut tracker = Tracker::new(toks);
    // (binding name, brace depth at its `let`).
    let mut guards: Vec<(String, i32)> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        tracker.observe(t);
        if t.kind != TokKind::Comment {
            if t.is_ident("let") {
                if let Some(names) = guard_binding(toks, i) {
                    let depth = tracker.depth();
                    guards.extend(names.into_iter().map(|n| (n, depth)));
                }
            } else if t.is_ident("drop") && next_code(toks, i).is_some_and(|n| n.is_punct('(')) {
                if let Some(name) = toks.get(i + 2).filter(|n| n.kind == TokKind::Ident) {
                    guards.retain(|(g, _)| *g != name.text);
                }
            } else if (t.is_ident("notify_one") || t.is_ident("notify_all"))
                && prev_code(toks, i).is_some_and(|p| p.is_punct('.'))
                && next_code(toks, i).is_some_and(|n| n.is_punct('('))
                && guards.is_empty()
                && !tracker.allowed(t.line, id::NOTIFY)
            {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: t.line,
                    rule: id::NOTIFY,
                    message: format!(
                        "`{}` with no live MutexGuard binding in scope: a waiter can observe \
                         the state change and free the condvar before this notify touches it \
                         (the PR 2 `Latch::set` use-after-free class); hold the guard across \
                         the notify, or add `// lint: allow({}): <why the condvar outlives \
                         this call>`",
                        t.text,
                        id::NOTIFY
                    ),
                });
            }
        }
        if t.is_punct('}') {
            // Depth decreases in `finish`; prune after it runs.
            tracker.finish(t);
            let depth = tracker.depth();
            guards.retain(|(_, d)| *d <= depth);
            continue;
        }
        tracker.finish(t);
    }
}

/// If the `let` at `i` binds the result of a lock/wait expression,
/// returns the bound names. Lookahead only; does not consume.
fn guard_binding(toks: &[Tok], i: usize) -> Option<Vec<String>> {
    // Pattern segment: idents up to `=` (not `==`/`=>`/`<=`/`>=`).
    let mut names = Vec::new();
    let mut j = i + 1;
    let mut init_start = None;
    while let Some(t) = toks.get(j) {
        if t.kind == TokKind::Ident {
            if !matches!(t.text.as_str(), "mut" | "ref" | "_" | "Some" | "Ok" | "Err") {
                names.push(t.text.clone());
            }
        } else if t.is_punct('=') {
            let two_char = toks.get(j + 1).is_some_and(|n| n.is_punct('=') || n.is_punct('>'))
                || prev_code(toks, j).is_some_and(|p| p.is_punct('<') || p.is_punct('>'));
            if !two_char {
                init_start = Some(j + 1);
                break;
            }
        } else if t.is_punct(';') || t.is_punct('{') {
            return None; // `let x;` or something unexpected — no init.
        }
        j += 1;
    }
    let mut j = init_start?;
    // Initializer: scan to the `;` at relative nesting zero, looking for
    // `.lock(` / `.wait(` / `.wait_timeout(`.
    let mut depth = 0i32;
    let mut is_guard = false;
    while let Some(t) = toks.get(j) {
        if t.kind == TokKind::Punct {
            match t.text.as_bytes().first() {
                Some(b'(') | Some(b'[') | Some(b'{') => depth += 1,
                Some(b')') | Some(b']') | Some(b'}') => depth -= 1,
                Some(b';') if depth <= 0 => break,
                _ => {}
            }
        }
        if matches!(t.text.as_str(), "lock" | "wait" | "wait_timeout")
            && t.kind == TokKind::Ident
            && prev_code(toks, j).is_some_and(|p| p.is_punct('.'))
            && next_code(toks, j).is_some_and(|n| n.is_punct('('))
        {
            is_guard = true;
        }
        j += 1;
    }
    if is_guard && !names.is_empty() {
        Some(names)
    } else {
        None
    }
}

/// Rule 2 — **ordering-justification**.
///
/// Every `Ordering::Relaxed` and `Ordering::SeqCst` site must carry an
/// `// ordering:` justification (same line or the preceding comment of
/// its statement/item) or an entry in `tools/lint/ordering.allow`.
/// `Acquire`/`Release`/`AcqRel` are exempt: naming a one-sided barrier
/// is already a claim about which edge synchronizes. `Relaxed` claims
/// *no* edge is needed and `SeqCst` claims a global order is — both are
/// assertions that deserve an argument at the site.
pub fn ordering_justification(rel: &str, toks: &[Tok], cfg: &Config, findings: &mut Vec<Finding>) {
    let mut tracker = Tracker::new(toks);
    for (i, t) in toks.iter().enumerate() {
        tracker.observe(t);
        if (t.is_ident("Relaxed") || t.is_ident("SeqCst"))
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("Ordering")
            && !tracker.justified_ordering(t.line)
            && !tracker.allowed(t.line, id::ORDERING)
            && !cfg.ordering_allowed(rel, t.line)
        {
            findings.push(Finding {
                file: rel.to_string(),
                line: t.line,
                rule: id::ORDERING,
                message: format!(
                    "`Ordering::{}` without an `// ordering:` justification (same line or \
                     preceding comment) or a tools/lint/ordering.allow entry",
                    t.text
                ),
            });
        }
        tracker.finish(t);
    }
}

/// Rule 3 — **unsafe-budget** (per-file part).
///
/// `unsafe` is permitted only in [`UNSAFE_BUDGET_FILE`] (the pool's
/// raw-pointer job machinery — the one place the workspace trades
/// compiler proof for a documented manual argument), and every site
/// there must carry a `SAFETY:` comment making that argument. Everywhere
/// else a single `unsafe` token is a finding; the crate-root
/// `#![forbid(unsafe_code)]` check is [`forbid_unsafe_in_root`].
pub fn unsafe_budget(rel: &str, toks: &[Tok], findings: &mut Vec<Finding>) {
    let in_budget = rel == UNSAFE_BUDGET_FILE;
    let mut tracker = Tracker::new(toks);
    for t in toks {
        tracker.observe(t);
        if t.is_ident("unsafe") {
            if !in_budget {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: t.line,
                    rule: id::UNSAFE,
                    message: format!(
                        "`unsafe` outside the budget ({UNSAFE_BUDGET_FILE} is the only file \
                         permitted to contain it)"
                    ),
                });
            } else if !tracker.justified_safety(t.line) && !tracker.allowed(t.line, id::UNSAFE) {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: t.line,
                    rule: id::UNSAFE,
                    message: "`unsafe` without a `SAFETY:` comment arguing why the \
                              aliasing/lifetime claim holds"
                        .to_string(),
                });
            }
        }
        tracker.finish(t);
    }
}

/// Rule 3 — **unsafe-budget** (crate-root part): a first-party crate
/// root must carry `#![forbid(unsafe_code)]` so the budget cannot grow
/// silently inside a crate.
pub fn forbid_unsafe_in_root(rel: &str, toks: &[Tok], findings: &mut Vec<Finding>) {
    let found = toks.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    });
    if !found {
        findings.push(Finding {
            file: rel.to_string(),
            line: 1,
            rule: id::UNSAFE,
            message: "first-party crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
}

/// Rule 4 — **no-alloc-hot-path**.
///
/// Functions registered in `tools/lint/hotpaths.toml` (the
/// allocation-free serving contract: `infer_into`, the `*_into` matmul
/// kernels, `select_replica`, the stats recorders) may not contain the
/// obvious allocator calls. This is a heuristic *backstop* for the
/// counting-allocator tests, which only cover branches they exercise: a
/// `format!` added to an error path of `infer_into` passes the warm-path
/// allocation test but still violates the contract under load.
pub fn no_alloc_hot_path(rel: &str, toks: &[Tok], cfg: &Config, findings: &mut Vec<Finding>) {
    let mut tracker = Tracker::new(toks);
    // Hot-function body regions as (start, end) token index ranges.
    let mut bodies: Vec<(usize, usize, String)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn") {
            if let Some(name) = next_code(toks, i).filter(|n| n.kind == TokKind::Ident) {
                if cfg.is_hotpath(&name.text) {
                    if let Some((start, end)) = fn_body(toks, i) {
                        bodies.push((start, end, name.text.clone()));
                        i = start; // scan the body for nested `fn`s too
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    for (i, t) in toks.iter().enumerate() {
        tracker.observe(t);
        if let Some((_, _, name)) = bodies.iter().find(|(s, e, _)| i > *s && i < *e) {
            if let Some(what) = banned_alloc(toks, i) {
                if !tracker.allowed(t.line, id::HOTPATH) {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: t.line,
                        rule: id::HOTPATH,
                        message: format!(
                            "`{what}` inside registered hot-path function `{name}` (declared \
                             allocation-free in tools/lint/hotpaths.toml)"
                        ),
                    });
                }
            }
        }
        tracker.finish(t);
    }
}

/// Token range `(open_brace, close_brace)` of the body of the `fn` whose
/// keyword is at `i`, or `None` for a bodiless (trait) signature.
fn fn_body(toks: &[Tok], i: usize) -> Option<(usize, usize)> {
    let mut j = i + 1;
    let mut depth = 0i32;
    // Find the body `{`: the first `{` at relative nesting zero (the
    // signature's parens/brackets are tracked; a `;` first means no body).
    loop {
        let t = toks.get(j)?;
        if t.kind == TokKind::Punct {
            match t.text.as_bytes().first() {
                Some(b'(') | Some(b'[') => depth += 1,
                Some(b')') | Some(b']') => depth -= 1,
                Some(b'{') if depth == 0 => break,
                Some(b';') if depth == 0 => return None,
                _ => {}
            }
        }
        j += 1;
    }
    let open = j;
    let mut braces = 0i32;
    while let Some(t) = toks.get(j) {
        if t.is_punct('{') {
            braces += 1;
        } else if t.is_punct('}') {
            braces -= 1;
            if braces == 0 {
                return Some((open, j));
            }
        }
        j += 1;
    }
    None
}

/// If the token at `i` begins a banned allocating construct, names it.
fn banned_alloc(toks: &[Tok], i: usize) -> Option<String> {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let nxt = next_code(toks, i);
    // `vec!` / `format!`.
    if (t.text == "vec" || t.text == "format") && nxt.is_some_and(|n| n.is_punct('!')) {
        return Some(format!("{}!", t.text));
    }
    // `Vec::new` / `Vec::with_capacity` / `Box::new` / `String::*`.
    if matches!(t.text.as_str(), "Vec" | "Box" | "String") && nxt.is_some_and(|n| n.is_punct(':')) {
        if let Some(method) = toks.get(i + 3).filter(|m| m.kind == TokKind::Ident) {
            if matches!(method.text.as_str(), "new" | "with_capacity" | "from") {
                return Some(format!("{}::{}", t.text, method.text));
            }
        }
    }
    // `.push(` / `.to_vec(` / `.clone(` / `.to_string(` / `.to_owned(`.
    if matches!(t.text.as_str(), "push" | "to_vec" | "clone" | "to_string" | "to_owned")
        && prev_code(toks, i).is_some_and(|p| p.is_punct('.'))
        && nxt.is_some_and(|n| n.is_punct('('))
    {
        return Some(format!(".{}()", t.text));
    }
    None
}

/// Rule 5 — **panic-surface**.
///
/// No bare `unwrap()` in `crates/serve` / `crates/router` non-test code:
/// these panics fire under production load (lock poisoning, ticket
/// plumbing), and an `expect("<which lock / why poisoning is fatal>")`
/// is the difference between an actionable crash report and a stack
/// trace lottery. Test modules are exempt (stripped before this runs).
pub fn panic_surface(rel: &str, toks: &[Tok], findings: &mut Vec<Finding>) {
    let mut tracker = Tracker::new(toks);
    for (i, t) in toks.iter().enumerate() {
        tracker.observe(t);
        if t.is_ident("unwrap")
            && prev_code(toks, i).is_some_and(|p| p.is_punct('.'))
            && next_code(toks, i).is_some_and(|n| n.is_punct('('))
            && !tracker.allowed(t.line, id::PANIC)
        {
            findings.push(Finding {
                file: rel.to_string(),
                line: t.line,
                rule: id::PANIC,
                message: "bare `unwrap()` in serving-tier code; use `expect(\"<which lock / \
                          why poisoning is fatal>\")` so panic messages are actionable under \
                          load"
                    .to_string(),
            });
        }
        tracker.finish(t);
    }
}
