//! Every `.rs` file that DESIGN.md, README.md and the verify skill name in
//! backticks exists, so a deleted or renamed file cannot leave its old name
//! behind in the prose. A name matches a file whose path is it or ends with
//! it after a `/` (`dram.rs`, `memsim/src/dram.rs`); `{a,b}` names each.

use std::fs;
use std::path::Path;

/// The `.rs` names in the backtick spans (code blocks included) of `text`.
fn named(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    for span in text.split('`').skip(1).step_by(2) {
        let path_char = |c: char| c.is_alphanumeric() || "_./{},-".contains(c);
        for token in span.split(|c: char| !path_char(c)) {
            if token.strip_suffix(".rs").is_none_or(|stem| stem.is_empty()) {
                continue;
            }
            match (token.find('{'), token.find('}')) {
                (Some(open), Some(close)) if open < close => {
                    let (head, tail) = (&token[..open], &token[close + 1..]);
                    let alts = token[open + 1..close].split(',');
                    names.extend(alts.map(|alt| format!("{head}{alt}{tail}")));
                }
                _ => names.push(token.to_string()),
            }
        }
    }
    names
}

#[test]
fn every_rust_file_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Every `.rs` path of the tree, outside build output and dot-directories.
    let (mut files, mut dirs) = (Vec::new(), vec![root.to_path_buf()]);
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if path.is_dir() && name != "target" && !name.starts_with('.') {
                dirs.push(path);
            } else if name.ends_with(".rs") {
                files.push(path.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/"));
            }
        }
    }
    let mut stale = Vec::new();
    for doc in ["DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"] {
        // The verify skill lives in a dot-directory a checkout may leave out.
        let Ok(text) = fs::read_to_string(root.join(doc)) else {
            assert!(doc.starts_with('.'), "{doc} is missing");
            continue;
        };
        for name in named(&text) {
            if !files.iter().any(|f| *f == name || f.ends_with(&format!("/{name}"))) {
                stale.push(format!("{doc}: `{name}`"));
            }
        }
    }
    assert!(stale.is_empty(), "the docs name files that do not exist: {stale:#?}");
}

#[test]
fn a_name_is_read_out_of_its_backticks_and_braces() {
    let text = "see `crates/core/src/{client,campaign}.rs` and `config.rs:147`, not dram.rs";
    assert_eq!(
        named(text),
        ["crates/core/src/client.rs", "crates/core/src/campaign.rs", "config.rs"]
    );
    assert!(named("`.rs` files and `src/bin/`").is_empty());
}
