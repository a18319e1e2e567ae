//! Link-check over the repo's markdown documentation.
//!
//! Scans `README.md` and every file under `docs/` for markdown link
//! targets and fails when a relative target does not exist on disk, or a
//! `#fragment` names a heading the target file does not have. External
//! (`http…`) links are skipped — CI must not depend on network — and
//! fenced code blocks are ignored so byte-layout diagrams cannot produce
//! false positives. Inline code spans that name a repo path (`crates/…`,
//! `src/…`, `tests/…`, `docs/…`, `examples/…`, `perfbench/…`) must name a
//! path that exists, so prose cannot keep pointing at moved files. Runs
//! with the workspace suite and as a dedicated step in CI's docs job.

use std::path::{Path, PathBuf};

/// Repo-root prefixes whose backticked mentions must name existing paths.
const PATH_PREFIXES: &[&str] = &["crates/", "src/", "tests/", "docs/", "examples/", "perfbench/"];

/// The markdown files under the link-check contract.
fn documentation_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = vec![root.join("README.md")];
    let docs = root.join("docs");
    let entries = std::fs::read_dir(&docs).expect("docs/ directory exists");
    for entry in entries {
        let path = entry.expect("readable docs/ entry").path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    files.sort();
    assert!(files.len() >= 3, "expected README.md + docs/*.md, found {files:?}");
    files
}

/// Every `](target)` occurrence outside fenced code blocks, with its
/// 1-based line number.
fn extract_links(text: &str) -> Vec<(usize, String)> {
    let mut links = Vec::new();
    let mut in_fence = false;
    for (index, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        let mut offset = 0;
        while let Some(open) = rest[offset..].find("](") {
            let start = offset + open + 2;
            let Some(close) = rest[start..].find(')') else { break };
            links.push((index + 1, rest[start..start + close].to_string()));
            offset = start + close + 1;
        }
        let _ = &mut rest;
    }
    links
}

/// Every inline code span outside fenced code blocks that names a repo
/// path, with its 1-based line number. A span names a path when it starts
/// with one of [`PATH_PREFIXES`] and holds no whitespace (so commands are
/// not paths); a `:line` suffix is stripped and globs such as `docs/*.md`
/// are skipped.
fn extract_path_spans(text: &str) -> Vec<(usize, String)> {
    let mut spans = Vec::new();
    let mut in_fence = false;
    for (index, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        // Pieces at odd positions between backticks are code spans; the last
        // piece only counts when a closing backtick follows it.
        let pieces: Vec<&str> = line.split('`').collect();
        for span in pieces.iter().take(pieces.len().saturating_sub(1)).skip(1).step_by(2) {
            if !PATH_PREFIXES.iter().any(|p| span.starts_with(p))
                || span.contains(char::is_whitespace)
                || span.contains(['*', '?', '{', '['])
            {
                continue;
            }
            let path = match span.split_once(':') {
                Some((path, line)) if line.starts_with(|c: char| c.is_ascii_digit()) => path,
                _ => span,
            };
            spans.push((index + 1, path.to_string()));
        }
    }
    spans
}

/// GitHub-style anchor slug of a heading: lowercase, alphanumerics kept,
/// spaces and hyphens become hyphens, everything else dropped.
fn slugify(heading: &str) -> String {
    heading
        .trim()
        .chars()
        .filter_map(|c| {
            if c.is_alphanumeric() {
                Some(c.to_ascii_lowercase())
            } else if c == ' ' || c == '-' {
                Some('-')
            } else {
                None
            }
        })
        .collect()
}

/// Collapse runs of hyphens — tolerance for headings whose dropped
/// punctuation leaves consecutive separators.
fn collapse(slug: &str) -> String {
    let mut out = String::with_capacity(slug.len());
    for c in slug.chars() {
        if c == '-' && out.ends_with('-') {
            continue;
        }
        out.push(c);
    }
    out
}

/// All heading anchors of one markdown document.
fn heading_slugs(text: &str) -> Vec<String> {
    let mut slugs = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if !in_fence && line.starts_with('#') {
            slugs.push(slugify(line.trim_start_matches('#')));
        }
    }
    slugs
}

fn has_anchor(text: &str, fragment: &str) -> bool {
    let want = collapse(fragment);
    heading_slugs(text).iter().any(|s| s == fragment || collapse(s) == want)
}

#[test]
fn every_relative_documentation_link_resolves() {
    let mut failures = Vec::new();
    for file in documentation_files() {
        let text =
            std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        let dir = file.parent().expect("documentation file has a parent");
        for (line, target) in extract_links(&text) {
            let place = format!("{}:{line}", file.display());
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with("mailto:")
            {
                continue;
            }
            if target.is_empty() {
                failures.push(format!("{place}: empty link target"));
                continue;
            }
            // Targets with spaces are prose that happened to contain "](",
            // not links.
            if target.contains(' ') {
                continue;
            }
            let (path_part, fragment) = match target.split_once('#') {
                Some((p, f)) => (p, Some(f)),
                None => (target.as_str(), None),
            };
            let resolved = if path_part.is_empty() { file.clone() } else { dir.join(path_part) };
            if !resolved.exists() {
                failures.push(format!("{place}: target `{target}` does not exist"));
                continue;
            }
            if let Some(fragment) = fragment {
                let is_markdown = resolved.extension().is_some_and(|e| e == "md");
                if is_markdown {
                    let linked = std::fs::read_to_string(&resolved)
                        .unwrap_or_else(|e| panic!("cannot read {}: {e}", resolved.display()));
                    if !has_anchor(&linked, fragment) {
                        failures.push(format!(
                            "{place}: `{}` has no heading for anchor `#{fragment}`",
                            resolved.display()
                        ));
                    }
                }
            }
        }
    }
    assert!(failures.is_empty(), "broken documentation links:\n{}", failures.join("\n"));
}

#[test]
fn every_backticked_repo_path_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut failures = Vec::new();
    for file in documentation_files() {
        let text =
            std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("cannot read {}: {e}", file.display()));
        for (line, path) in extract_path_spans(&text) {
            if !root.join(&path).exists() {
                failures.push(format!("{}:{line}: `{path}` does not exist", file.display()));
            }
        }
    }
    assert!(failures.is_empty(), "stale repo paths in documentation:\n{}", failures.join("\n"));
}

#[test]
fn link_extraction_and_slugs_behave() {
    let text = "see [a](docs/A.md#x-y) and [b](http://e/) end\n```\n[ignored](nope)\n```\n[c](B.md)";
    let links = extract_links(text);
    assert_eq!(
        links,
        vec![(1, "docs/A.md#x-y".to_string()), (1, "http://e/".to_string()), (5, "B.md".to_string())]
    );
    assert_eq!(slugify("## Out-of-core cleaning".trim_start_matches('#')), "out-of-core-cleaning");
    assert_eq!(collapse(&slugify("Data flow: encode → fit")), "data-flow-encode-fit");
    assert!(has_anchor("# Top\n\n## Out-of-core cleaning\n", "out-of-core-cleaning"));
    assert!(!has_anchor("# Top\n", "missing"));
    let text = "at `crates/core/src/cleaner.rs:796`, not `docs/*.md` or `cargo test tests/a.rs`\n\
                ```\n`crates/fenced.rs`\n```\n`src/` and `README.md` and `tests/open.rs";
    assert_eq!(
        extract_path_spans(text),
        vec![(1, "crates/core/src/cleaner.rs".to_string()), (5, "src/".to_string())]
    );
}
