//! Workspace automation (`cargo xtask <task>`).
//!
//! Tasks:
//!
//! * `lint-unsafe` — the unsafe-code audit. Scans every first-party
//!   `.rs` file (workspace crates, `src/`, `tests/`, `examples/`;
//!   `vendor/` and `target/` are excluded) and fails when
//!
//!   1. a file outside the allowlist contains any `unsafe` code, or
//!   2. an `unsafe { .. }` block or `unsafe impl` lacks a
//!      `// SAFETY:` comment in the lines directly above it.
//!
//!   The allowlist is the parallel engine's synchronization layer
//!   (`par_sync.rs`, `sync_shim.rs`, `par_engine.rs` in `crates/sim`),
//!   matching the module-level `#![allow(unsafe_code)]` grants under
//!   the workspace-wide `unsafe_code = "deny"` lint. `unsafe fn`
//!   declarations are exempt from the comment rule — their obligation
//!   is the `# Safety` doc section, which `missing_docs` keeps honest.
//!
//! The scan tokenizes just enough Rust to ignore `unsafe` appearing in
//! comments, strings, and doc text, so prose about unsafety does not
//! trip the audit.
//!
//! * `lint-allow` — lint-suppression audit. Scans the same first-party
//!   file set and fails when an `#[allow(...)]` / `#![allow(...)]`
//!   attribute carries no justification: a plain `//` comment (doc
//!   comments describe the item, not the suppression) on the same
//!   line or within the two lines directly above. Suppressing a lint
//!   is fine; suppressing one silently is how dead `allow`s
//!   accumulate.
//!
//! * `pairs` — alternated runs of two prebuilt `lsim-benchmark`
//!   binaries, a parent and a change, with both medians, the parent's
//!   interquartile range, the pairs won and a verdict per metric against
//!   `BENCHMARK.json`'s bounds (see [`pairs`]).

mod pairs;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Files allowed to contain `unsafe` code, relative to the workspace
/// root. Keep in sync with the module-level `#![allow(unsafe_code)]`
/// attributes and DESIGN.md's safety argument.
const ALLOWLIST: &[&str] = &[
    "crates/sim/src/par_engine.rs",
    "crates/sim/src/par_sync.rs",
    "crates/sim/src/sync_shim.rs",
];

/// How many lines above an `unsafe` occurrence may hold its
/// `// SAFETY:` comment. Generous enough for a multi-line statement
/// between the comment and the keyword, small enough that a comment
/// cannot "cover" unrelated blocks further down.
const SAFETY_WINDOW: usize = 8;

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("lint-unsafe") => lint_unsafe(),
        Some("lint-allow") => lint_allow(),
        Some("pairs") => {
            let args: Vec<String> = std::env::args().skip(2).collect();
            pairs::main(&args, &workspace_root())
        }
        Some(other) => {
            eprintln!("xtask: unknown task `{other}` (available: lint-unsafe, lint-allow, pairs)");
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: cargo xtask <task>\n\ntasks:\n  \
                 lint-unsafe  audit unsafe code\n  \
                 lint-allow   audit lint suppressions\n  \
                 pairs        alternated benchmark runs of a parent and a change, with verdicts"
            );
            ExitCode::FAILURE
        }
    }
}

fn workspace_root() -> PathBuf {
    // xtask is always invoked via cargo from somewhere in the
    // workspace; its own manifest dir is `<root>/xtask`.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask has a parent directory")
        .to_path_buf()
}

fn lint_unsafe() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples", "xtask"] {
        collect_rs_files(&root.join(top), &mut files);
    }
    files.sort();

    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtask: cannot read {rel}: {e}");
                return ExitCode::FAILURE;
            }
        };
        findings.extend(
            audit_source(&source, ALLOWLIST.contains(&rel.as_str()))
                .into_iter()
                .map(|f| (rel.clone(), f)),
        );
    }

    if findings.is_empty() {
        println!(
            "xtask lint-unsafe: OK — unsafe code confined to {} allowlisted files, \
             every block/impl has a SAFETY comment ({} files scanned)",
            ALLOWLIST.len(),
            files.len()
        );
        return ExitCode::SUCCESS;
    }
    for (rel, f) in &findings {
        eprintln!("{rel}:{}: {}", f.line, f.message);
    }
    eprintln!("xtask lint-unsafe: {} finding(s)", findings.len());
    ExitCode::FAILURE
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures` holds intentionally-failing inputs for the
            // audit's own tests; `target`/`vendor` are third-party.
            if name != "target" && name != "vendor" && name != "fixtures" {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// One audit finding, with a 1-based line number.
#[derive(Debug, PartialEq, Eq)]
struct Finding {
    line: usize,
    message: String,
}

/// What follows an `unsafe` keyword, determining which rule applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UnsafeKind {
    /// `unsafe { .. }` — needs a SAFETY comment.
    Block,
    /// `unsafe impl` — needs a SAFETY comment.
    Impl,
    /// `unsafe fn`/`unsafe extern` — obligation lives in `# Safety`
    /// docs; allowlist rule still applies.
    Decl,
}

/// Audits one file's source; `allowlisted` grants rule 1.
fn audit_source(source: &str, allowlisted: bool) -> Vec<Finding> {
    let lines: Vec<&str> = source.lines().collect();
    let mut findings = Vec::new();
    for (line, kind) in find_unsafe_tokens(source) {
        if !allowlisted {
            findings.push(Finding {
                line,
                message: "unsafe code outside the audited allowlist (see xtask/src/main.rs)"
                    .to_owned(),
            });
            continue;
        }
        if matches!(kind, UnsafeKind::Block | UnsafeKind::Impl) && !has_safety_comment(&lines, line)
        {
            let what = if kind == UnsafeKind::Block {
                "unsafe block"
            } else {
                "unsafe impl"
            };
            findings.push(Finding {
                line,
                message: format!(
                    "{what} without a `// SAFETY:` comment in the {SAFETY_WINDOW} lines above"
                ),
            });
        }
    }
    findings
}

/// How far above an `#[allow(...)]` attribute its justification
/// comment may sit. Two lines keeps the reason adjacent to the
/// suppression it excuses, unlike the wider [`SAFETY_WINDOW`] — an
/// `allow` is one line, not a multi-statement block.
const ALLOW_WINDOW: usize = 2;

fn lint_allow() -> ExitCode {
    let root = workspace_root();
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples", "xtask"] {
        collect_rs_files(&root.join(top), &mut files);
    }
    files.sort();

    let mut findings = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtask: cannot read {rel}: {e}");
                return ExitCode::FAILURE;
            }
        };
        findings.extend(audit_allows(&source).into_iter().map(|f| (rel.clone(), f)));
    }

    if findings.is_empty() {
        println!(
            "xtask lint-allow: OK — every `#[allow(...)]` carries a justification \
             comment ({} files scanned)",
            files.len()
        );
        return ExitCode::SUCCESS;
    }
    for (rel, f) in &findings {
        eprintln!("{rel}:{}: {}", f.line, f.message);
    }
    eprintln!("xtask lint-allow: {} finding(s)", findings.len());
    ExitCode::FAILURE
}

/// Audits one file for `#[allow(...)]` / `#![allow(...)]` attributes
/// that lack a justification: a plain `//` comment — doc comments
/// describe the item, not the suppression — on the attribute's own
/// line or within [`ALLOW_WINDOW`] lines above it.
fn audit_allows(source: &str) -> Vec<Finding> {
    let stripped = strip_noncode(source);
    let orig_lines: Vec<&str> = source.lines().collect();
    let stripped_lines: Vec<&str> = stripped.lines().collect();
    let mut findings = Vec::new();
    for (idx, sline) in stripped_lines.iter().enumerate() {
        if !opens_allow_attribute(sline) {
            continue;
        }
        let start = idx.saturating_sub(ALLOW_WINDOW);
        let justified = (start..=idx).any(|j| has_plain_comment(orig_lines[j], stripped_lines[j]));
        if !justified {
            findings.push(Finding {
                line: idx + 1,
                message: format!(
                    "`#[allow(...)]` without a justification comment within \
                     {ALLOW_WINDOW} lines"
                ),
            });
        }
    }
    findings
}

/// True if the stripped line opens an outer (`#[allow(...)]`) or
/// inner (`#![allow(...)]`) allow attribute. Operating on stripped
/// source means `"#[allow("` inside a string or comment never trips.
fn opens_allow_attribute(stripped_line: &str) -> bool {
    for pat in ["#[allow", "#![allow"] {
        if let Some(p) = stripped_line.find(pat) {
            if stripped_line[p + pat.len()..].trim_start().starts_with('(') {
                return true;
            }
        }
    }
    false
}

/// True if the line carries a plain `//` comment. `strip_noncode` is
/// byte-for-byte, so a real line comment is a `//` in the original
/// whose stripped tail is *all* spaces — it runs to end of line,
/// which a `//` inside a string literal (stripped, but followed by
/// surviving code) does not. Doc comments (`///` and `//!`) don't
/// count — they document the item, not the suppression — but `////`
/// and deeper are plain.
fn has_plain_comment(orig: &str, stripped: &str) -> bool {
    let ob = orig.as_bytes();
    let sb = stripped.as_bytes();
    let mut p = 0usize;
    while p + 1 < ob.len() {
        if ob[p] == b'/' && ob[p + 1] == b'/' && sb[p..].iter().all(|&c| c == b' ') {
            let rest = &orig[p..];
            let doc =
                (rest.starts_with("///") && !rest.starts_with("////")) || rest.starts_with("//!");
            return !doc;
        }
        p += 1;
    }
    false
}

/// True if a `// SAFETY:` line comment sits within the window above
/// 1-based `line`.
fn has_safety_comment(lines: &[&str], line: usize) -> bool {
    let end = line - 1; // 0-based index of the unsafe line itself
    let start = end.saturating_sub(SAFETY_WINDOW);
    lines[start..end].iter().any(|l| {
        let t = l.trim_start();
        (t.starts_with("//")
            && t.trim_start_matches(['/', '!'])
                .trim_start()
                .starts_with("SAFETY:"))
            || t.contains("// SAFETY:")
    })
}

/// Yields `(1-based line, kind)` for every `unsafe` keyword in real
/// code — comments, strings, char literals, and lifetimes are skipped
/// by a lightweight lexer.
fn find_unsafe_tokens(source: &str) -> Vec<(usize, UnsafeKind)> {
    let stripped = strip_noncode(source);
    let mut out = Vec::new();
    let bytes = stripped.as_bytes();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if is_ident_byte(b) {
            let start = i;
            while i < bytes.len() && is_ident_byte(bytes[i]) {
                i += 1;
            }
            if &stripped[start..i] == "unsafe" {
                // Classify by the next non-whitespace character/token.
                let mut j = i;
                while j < bytes.len() && (bytes[j] as char).is_whitespace() {
                    j += 1;
                }
                let kind = if j < bytes.len() && bytes[j] == b'{' {
                    UnsafeKind::Block
                } else {
                    let mut k = j;
                    while k < bytes.len() && is_ident_byte(bytes[k]) {
                        k += 1;
                    }
                    if &stripped[j..k] == "impl" {
                        UnsafeKind::Impl
                    } else {
                        UnsafeKind::Decl
                    }
                };
                out.push((line, kind));
            }
            continue;
        }
        i += 1;
    }
    out
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Replaces comments, string literals, and char literals with spaces
/// (newlines preserved, so line numbers survive). Handles `//`, block
/// comments with nesting, `"…"` with escapes, raw strings `r#"…"#`,
/// char literals, and leaves lifetimes (`'a`) alone.
// One lexer, one loop: splitting the state machine would obscure it.
#[allow(clippy::too_many_lines)]
fn strip_noncode(source: &str) -> String {
    let b = source.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0usize;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1usize;
                out.extend_from_slice(b"  ");
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'r' if is_raw_string_start(b, i) => {
                // r"…" / r#"…"# (optionally preceded by `b`, handled
                // below since `br` hits the `b'b'` arm first).
                i = skip_raw_string(b, i, &mut out);
            }
            b'b' if i + 1 < b.len() && (b[i + 1] == b'"' || is_raw_string_start(b, i + 1)) => {
                out.push(b' ');
                i += 1; // the `b` prefix; the next loop turn eats the rest
            }
            b'"' => {
                out.push(b' ');
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' if i + 1 < b.len() => {
                            // A line-continuation escape (`\` before a
                            // newline) swallows the newline in the
                            // literal's value, but the stripped text
                            // must keep it so line numbers survive.
                            out.push(b' ');
                            out.push(if b[i + 1] == b'\n' { b'\n' } else { b' ' });
                            i += 2;
                        }
                        b'"' => {
                            out.push(b' ');
                            i += 1;
                            break;
                        }
                        c => {
                            out.push(if c == b'\n' { b'\n' } else { b' ' });
                            i += 1;
                        }
                    }
                }
            }
            b'\'' => {
                // Char literal vs lifetime: a lifetime is `'` + ident
                // not followed by a closing `'`.
                let is_char = (i + 1 < b.len() && b[i + 1] == b'\\')
                    || (i + 2 < b.len() && b[i + 2] == b'\'');
                if is_char {
                    out.push(b' ');
                    i += 1;
                    while i < b.len() {
                        match b[i] {
                            b'\\' if i + 1 < b.len() => {
                                out.extend_from_slice(b"  ");
                                i += 2;
                            }
                            b'\'' => {
                                out.push(b' ');
                                i += 1;
                                break;
                            }
                            _ => {
                                out.push(b' ');
                                i += 1;
                            }
                        }
                    }
                } else {
                    out.push(b'\'');
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("stripped source stays ASCII-compatible")
}

fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    if b[i] != b'r' {
        return false;
    }
    let mut j = i + 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

fn skip_raw_string(b: &[u8], mut i: usize, out: &mut Vec<u8>) -> usize {
    out.push(b' ');
    i += 1; // `r`
    let mut hashes = 0usize;
    while i < b.len() && b[i] == b'#' {
        hashes += 1;
        out.push(b' ');
        i += 1;
    }
    out.push(b' ');
    i += 1; // opening quote
    while i < b.len() {
        if b[i] == b'"'
            && b[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == b'#')
                .count()
                == hashes
        {
            out.push(b' ');
            i += 1;
            for _ in 0..hashes {
                out.push(b' ');
                i += 1;
            }
            break;
        }
        out.push(if b[i] == b'\n' { b'\n' } else { b' ' });
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = include_str!("../fixtures/good_safety_comment.rs");
    const BAD: &str = include_str!("../fixtures/bad_missing_comment.rs");

    #[test]
    fn good_fixture_passes_when_allowlisted() {
        assert_eq!(audit_source(GOOD, true), Vec::new());
    }

    #[test]
    fn bad_fixture_fails_on_missing_safety_comment() {
        let findings = audit_source(BAD, true);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("SAFETY"));
    }

    #[test]
    fn any_unsafe_outside_allowlist_fails() {
        let findings = audit_source(GOOD, false);
        assert!(!findings.is_empty());
        assert!(findings[0].message.contains("allowlist"));
    }

    const GOOD_ALLOW: &str = include_str!("../fixtures/good_allow_comment.rs");
    const BAD_ALLOW: &str = include_str!("../fixtures/bad_allow_missing.rs");

    #[test]
    fn good_allow_fixture_passes() {
        assert_eq!(audit_allows(GOOD_ALLOW), Vec::new());
    }

    #[test]
    fn bad_allow_fixture_flags_each_unjustified_suppression() {
        let findings = audit_allows(BAD_ALLOW);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings.iter().all(|f| f.message.contains("justification")));
    }

    #[test]
    fn inner_allow_attributes_are_audited_too() {
        let bare = "#![allow(dead_code)]\nfn f() {}\n";
        assert_eq!(audit_allows(bare).len(), 1);
        let excused = "// The module is scaffolding for the next stage.\n#![allow(dead_code)]\n";
        assert_eq!(audit_allows(excused), Vec::new());
    }

    #[test]
    fn string_mentioning_a_comment_is_not_a_justification() {
        // The `//` lives inside a string literal on the line above the
        // attribute; the stripped tail still holds code, so it must
        // not pass for a comment.
        let src = "fn f() { let _ = \"// not a reason\"; }\n#[allow(dead_code)]\nfn g() {}\n";
        assert_eq!(audit_allows(src).len(), 1);
    }

    #[test]
    fn prose_and_strings_do_not_count_as_unsafe() {
        let src = r#"
// unsafe in a comment
/* unsafe in a block comment */
fn f() -> &'static str {
    let _c = 'u';
    "unsafe in a string"
}
"#;
        assert_eq!(find_unsafe_tokens(src), Vec::new());
        assert_eq!(audit_source(src, false), Vec::new());
    }

    #[test]
    fn classification_distinguishes_blocks_impls_and_decls() {
        let src = "unsafe fn f() {}\nunsafe impl Sync for X {}\nfn g() { unsafe { h() } }\n";
        let kinds: Vec<UnsafeKind> = find_unsafe_tokens(src)
            .into_iter()
            .map(|(_, k)| k)
            .collect();
        assert_eq!(
            kinds,
            vec![UnsafeKind::Decl, UnsafeKind::Impl, UnsafeKind::Block]
        );
    }

    #[test]
    fn safety_comment_window_is_bounded() {
        let far = format!(
            "// SAFETY: too far away\n{}unsafe {{ x() }}\n",
            "\n".repeat(9)
        );
        let findings = audit_source(&far, true);
        assert_eq!(findings.len(), 1, "{findings:?}");
    }

    #[test]
    fn raw_strings_are_stripped() {
        let src = "fn f() { let _ = r#\"unsafe { }\"#; }";
        assert_eq!(find_unsafe_tokens(src), Vec::new());
    }

    #[test]
    fn line_continuation_strings_keep_line_numbers() {
        // A `\` before the newline joins the literal's value but must
        // not join the stripped text's lines, or every finding below
        // it would be reported one line early.
        let src =
            "fn f() -> &'static str {\n    \"a \\\n     b\"\n}\n#[allow(dead_code)]\nfn g() {}\n";
        assert_eq!(strip_noncode(src).lines().count(), src.lines().count());
        let findings = audit_allows(src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 5);
    }
}
