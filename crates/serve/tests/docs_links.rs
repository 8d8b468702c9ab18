//! Documentation link lint: every relative markdown link in `README.md`
//! and `docs/*.md` must resolve to a file in the repository. External
//! (`http…`) links and intra-page `#anchors` are skipped — this is a
//! drift check for the doc set, not a crawler.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // crates/serve -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels below the repo root")
        .to_path_buf()
}

/// Extracts `(target)` of every inline markdown link `[text](target)` in
/// `text`. Good enough for this doc set: no nested brackets, no reference
/// links, code spans containing `](` do not occur.
fn link_targets(text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
            let start = i + 2;
            if let Some(rel_end) = text[start..].find(')') {
                out.push(text[start..start + rel_end].to_string());
                i = start + rel_end;
            }
        }
        i += 1;
    }
    out
}

#[test]
fn relative_doc_links_resolve() {
    let root = repo_root();
    let mut files = vec![root.join("README.md")];
    let docs = root.join("docs");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&docs)
        .expect("docs/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "md"))
        .collect();
    entries.sort();
    files.extend(entries);
    assert!(files.len() > 4, "doc set went missing: {files:?}");

    let mut broken = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        let base = file.parent().unwrap();
        for target in link_targets(&text) {
            if target.starts_with("http://")
                || target.starts_with("https://")
                || target.starts_with('#')
                || target.starts_with("mailto:")
            {
                continue;
            }
            let path = target.split('#').next().unwrap();
            if path.is_empty() {
                continue;
            }
            if !base.join(path).exists() {
                broken.push(format!("{}: ({target})", file.display()));
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken relative links:\n{}",
        broken.join("\n")
    );
}

/// The three serve documents exist and cross-reference each other — the
/// protocol spec, the production guide, and the monitoring runbook are one
/// set and must not drift apart.
#[test]
fn serve_doc_set_is_complete() {
    let docs = repo_root().join("docs");
    for name in ["SERVE.md", "PRODUCTION.md", "MONITORING.md"] {
        let text = std::fs::read_to_string(docs.join(name))
            .unwrap_or_else(|e| panic!("docs/{name} missing: {e}"));
        for other in ["SERVE.md", "PRODUCTION.md", "MONITORING.md"] {
            if other != name {
                assert!(
                    text.contains(other),
                    "docs/{name} does not reference {other}"
                );
            }
        }
    }
}

/// Every `serve.*` trace record the daemon emits is documented in both
/// TRACE_SCHEMA.md (the stable vocabulary) and MONITORING.md (the
/// runbook), and conversely everything documented is actually emitted —
/// the sources are scanned for the literal counter!/event! names.
#[test]
fn serve_trace_vocabulary_matches_docs() {
    let root = repo_root();
    let mut emitted = std::collections::BTreeSet::new();
    for src in ["server.rs", "state.rs"] {
        let text = std::fs::read_to_string(root.join("crates/serve/src").join(src)).unwrap();
        let mut rest = text.as_str();
        while let Some(pos) = rest.find("\"serve.") {
            let tail = &rest[pos + 1..];
            let end = tail.find('"').unwrap();
            emitted.insert(tail[..end].to_string());
            rest = &tail[end..];
        }
    }
    assert!(
        emitted.len() >= 12,
        "serve trace vocabulary shrank: {emitted:?}"
    );

    let schema = std::fs::read_to_string(root.join("docs/TRACE_SCHEMA.md")).unwrap();
    let runbook = std::fs::read_to_string(root.join("docs/MONITORING.md")).unwrap();
    for name in &emitted {
        assert!(schema.contains(name), "TRACE_SCHEMA.md missing {name}");
        assert!(runbook.contains(name), "MONITORING.md missing {name}");
    }
    // And the docs do not promise records the code never emits.
    for doc_text in [&schema, &runbook] {
        let mut rest = doc_text.as_str();
        while let Some(pos) = rest.find("`serve.") {
            let tail = &rest[pos + 1..];
            // The record name is the maximal identifier-ish prefix; prose
            // like `serve.*` or `serve.restored_jobs == 0` carries extra
            // characters past it.
            let end = tail
                .find(|c: char| {
                    !c.is_ascii_lowercase() && !c.is_ascii_digit() && c != '_' && c != '.'
                })
                .unwrap_or(tail.len());
            let name = tail[..end].trim_end_matches('.');
            if name != "serve" {
                assert!(
                    emitted.contains(name),
                    "docs document {name} but the daemon never emits it"
                );
            }
            rest = &tail[end.max(1)..];
        }
    }
}

/// Collects every `.rs` file under `dir`, recursively, in sorted order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Reads a string literal at the start of `s` (after whitespace), returning
/// its contents and the rest of the input. `None` when `s` does not start
/// with a plain literal (e.g. the `$name` fragments of a macro definition).
fn string_literal(s: &str) -> Option<(&str, &str)> {
    let s = s.trim_start().strip_prefix('"')?;
    let end = s.find('"')?;
    Some((&s[..end], &s[end + 1..]))
}

/// The record names of every `span!`/`event!`/`counter!` call in `text`
/// whose category and name are literals.
fn macro_record_names(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for mac in ["span!(", "event!(", "counter!("] {
        let mut rest = text;
        while let Some(pos) = rest.find(mac) {
            rest = &rest[pos + mac.len()..];
            let name = string_literal(rest)
                .and_then(|(_cat, tail)| tail.trim_start().strip_prefix(','))
                .and_then(string_literal)
                .map(|(name, _)| name);
            if let Some(name) = name {
                out.push(name.to_string());
            }
        }
    }
    out
}

/// The trace vocabulary has one source of truth: the first column of every
/// table in `docs/TRACE_SCHEMA.md` equals the set of record names the code
/// can produce — the literal `span!`/`event!`/`counter!` names in
/// `crates/*/src` plus the `Stats::counters()` projection. A row left
/// behind by a deleted feature, or a record added without a row, fails
/// here. hh-trace's own unit tests and doc examples use the `t.*` and
/// `demo.*` names, which are not part of the vocabulary.
#[test]
fn trace_vocabulary_matches_schema() {
    use std::collections::BTreeSet;
    let root = repo_root();
    let mut files = Vec::new();
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .filter_map(|e| e.ok().map(|e| e.path().join("src")))
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    for src in &crates {
        rust_files(src, &mut files);
    }
    let mut produced = BTreeSet::new();
    for file in &files {
        let text = std::fs::read_to_string(file).unwrap();
        for name in macro_record_names(&text) {
            if !name.starts_with("t.") && !name.starts_with("demo.") {
                produced.insert(name);
            }
        }
    }
    for (name, _) in hhoudini::Stats::default().counters() {
        produced.insert(name.to_string());
    }
    assert!(
        produced.len() >= 40,
        "trace vocabulary scan found too little: {produced:?}"
    );

    let schema = std::fs::read_to_string(root.join("docs/TRACE_SCHEMA.md")).unwrap();
    let documented: BTreeSet<String> = schema
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|cell| cell.split('`').next())
        .map(str::to_string)
        .collect();

    let undocumented: Vec<&String> = produced.difference(&documented).collect();
    let stale: Vec<&String> = documented.difference(&produced).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "TRACE_SCHEMA.md out of sync with the code\n\
         produced but not documented: {undocumented:?}\n\
         documented but never produced: {stale:?}"
    );
}

/// The `pub` field names of `struct_name` in the Rust source `text`: every
/// `pub name:` line between `pub struct Name {` and the closing brace at
/// column 0.
fn pub_fields(text: &str, struct_name: &str) -> Vec<String> {
    let head = format!("pub struct {struct_name} {{");
    let body = text
        .split_once(&head)
        .unwrap_or_else(|| panic!("no `{head}`"))
        .1;
    let body = &body[..body.find("\n}").expect("struct body closes")];
    body.lines()
        .filter_map(|line| line.trim_start().strip_prefix("pub "))
        .filter_map(|rest| rest.split_once(':'))
        .map(|(name, _)| name.trim().to_string())
        .collect()
}

/// The first-column names of the table under the `## ` heading of
/// docs/TUNING.md that contains `heading`, up to the next `## `.
fn tuning_rows(tuning: &str, heading: &str) -> Vec<String> {
    let section = tuning
        .split("\n## ")
        .find(|s| s.lines().next().is_some_and(|h| h.contains(heading)))
        .unwrap_or_else(|| panic!("TUNING.md has no `## ` section for {heading}"));
    section
        .lines()
        .filter_map(|line| line.strip_prefix("| `"))
        .filter_map(|cell| cell.split('`').next())
        .map(str::to_string)
        .collect()
}

/// Each option-struct table in docs/TUNING.md lists exactly the struct's
/// `pub` fields: a field added without a row, or a row left behind by a
/// deleted field, fails here.
#[test]
fn tuning_tables_match_config_structs() {
    use std::collections::BTreeSet;
    let root = repo_root();
    let tuning = std::fs::read_to_string(root.join("docs/TUNING.md")).unwrap();
    let tables = [
        (
            "`hhoudini::EngineConfig`",
            "crates/core/src/engine.rs",
            "EngineConfig",
        ),
        (
            "`hh_smt::AbductionConfig`",
            "crates/smt/src/query.rs",
            "AbductionConfig",
        ),
        ("`hh_sat::Config`", "crates/sat/src/solver.rs", "Config"),
        (
            "`veloct::VeloctConfig`",
            "crates/veloct/src/lib.rs",
            "VeloctConfig",
        ),
        (
            "`hhoudini::baselines::BaselineBudget`",
            "crates/core/src/baselines.rs",
            "BaselineBudget",
        ),
    ];
    let mut drift = Vec::new();
    for (heading, file, name) in tables {
        let source = std::fs::read_to_string(root.join(file)).unwrap();
        let fields: BTreeSet<String> = pub_fields(&source, name).into_iter().collect();
        let rows: BTreeSet<String> = tuning_rows(&tuning, heading).into_iter().collect();
        assert!(!fields.is_empty(), "{name}: no pub fields found in {file}");
        let undocumented: Vec<&String> = fields.difference(&rows).collect();
        let stale: Vec<&String> = rows.difference(&fields).collect();
        if !undocumented.is_empty() || !stale.is_empty() {
            drift.push(format!(
                "{name}: fields without a row {undocumented:?}, rows without a field {stale:?}"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "docs/TUNING.md out of sync with the config structs\n{}",
        drift.join("\n")
    );
}
