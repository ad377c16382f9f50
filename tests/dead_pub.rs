//! No dead `pub` items: the one workspace analysis no compiler lint makes.
//!
//! rustc's `dead_code` stops at a crate's edge, so a `pub` item that no
//! other crate, binary, example, integration test or `benchmarks/` ever
//! reaches is surface area nothing exercises. This test walks the tree
//! and fails on every such item. A crate's own `#[cfg(test)]` code does
//! not count: an item only its unit tests call is dead code with a test
//! attached.
//!
//! The analysis works on identifiers, not types, and runs per package (a
//! package is its manifest directory: `crates/<dir>`, the root, or
//! `benchmarks`):
//!
//! - **Library code** is a file under a package's `src/`, outside
//!   `src/bin/` and `src/main.rs`. `benchmarks/` has none: it is read,
//!   never judged.
//! - **Seeds.** Every identifier outside the package's own library files
//!   is live for it.
//! - **Propagation.** A live named definition (fn, struct, union, enum,
//!   trait, const, static, type) makes every identifier of its tokens
//!   live, from its first attribute to its `;` or closing brace, so a type
//!   that a live fn returns is live too. `impl` blocks and modules pass
//!   nothing on: a live type does not revive its uncalled methods.
//! - **Judged** is every plain-`pub` named item of library code, `pub mod`
//!   included. `pub(crate)`, `pub(super)` and `pub(in …)` items, trait
//!   members, `impl Trait for` members, `main` and test-marked items
//!   (`#[test]`, or a `cfg(…)` naming `test`) are not.
//!
//! Same-named items share liveness, the conservative direction for a
//! gate. The fix for a finding: delete the item with the unit test that
//! alone calls it, narrow it to `pub(crate)`, or, for a test fixture, move
//! it under `#[cfg(test)]`.

#![expect(
    clippy::expect_used,
    reason = "walk helpers outside `#[test]` fns: an unreadable tree should fail the test"
)]

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// One token the analysis reads: an identifier (a raw one without its
/// `r#`) or a punctuation mark. Literals, lifetimes and comments are not
/// tokens.
struct Tok<'a> {
    text: &'a str,
    line: usize,
}

impl Tok<'_> {
    fn is_ident(&self) -> bool {
        self.text.bytes().next().is_some_and(ident_start)
    }
}

fn ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

/// End of the identifier (or number: its digits, suffix and all) at `i`.
fn ident_end(b: &[u8], i: usize) -> usize {
    (i..b.len()).find(|&j| !ident_start(b[j]) && !b[j].is_ascii_digit()).unwrap_or(b.len())
}

/// Punctuation read as one token: split, the `>` of `->` or `=>` would
/// close an `impl<…>` parameter list early. Every other mark is one token
/// per character.
const JOINED: [&str; 2] = ["->", "=>"];

/// Lex `src` into identifiers and punctuation.
fn lex(src: &str) -> Vec<Tok<'_>> {
    let b = src.as_bytes();
    let at = |i: usize| b.get(i).copied().unwrap_or(0);
    // `r"`, `r#"`, `br"` …: `i` is just past the `r`.
    let raw_string_at =
        |i: usize| at(i + b[i..].iter().take_while(|&&c| c == b'#').count()) == b'"';
    let (mut toks, mut i, mut line, mut counted) = (Vec::new(), 0, 1, 0);
    while i < b.len() {
        let mut push = |from: usize, end: usize| {
            line += b[counted..from].iter().filter(|&&c| c == b'\n').count();
            counted = from;
            toks.push(Tok { text: &src[from..end], line });
            end
        };
        i = match (b[i], at(i + 1)) {
            (b'/', b'/') => b[i..].iter().position(|&c| c == b'\n').map_or(b.len(), |n| i + n),
            (b'/', b'*') => block_comment(b, i),
            (b'"', _) => quoted(b, i),
            (b'b', b'"' | b'\'') => quoted(b, i + 1),
            (b'r', b'"' | b'#') if raw_string_at(i + 1) => raw_string(b, i + 1),
            (b'b', b'r') if raw_string_at(i + 2) => raw_string(b, i + 2),
            (b'r', b'#') if ident_start(at(i + 2)) => push(i + 2, ident_end(b, i + 2)),
            // A lifetime is `'` and an identifier with no closing `'`.
            (b'\'', n) if ident_start(n) && at(ident_end(b, i + 1)) != b'\'' => ident_end(b, i + 1),
            (b'\'', _) => quoted(b, i),
            (c, _) if c.is_ascii_digit() => ident_end(b, i),
            (c, _) if ident_start(c) => push(i, ident_end(b, i)),
            (c, _) if c.is_ascii_whitespace() => i + 1,
            _ => {
                let rest = &src[i..];
                let len = JOINED.iter().find(|p| rest.starts_with(**p)).map(|p| p.len());
                push(i, i + len.unwrap_or_else(|| rest.chars().next().map_or(1, char::len_utf8)))
            }
        };
    }
    toks
}

/// End of the (nestable) block comment starting at `i`.
fn block_comment(b: &[u8], mut i: usize) -> usize {
    let mut depth = 0;
    while i < b.len() {
        match (b[i], b.get(i + 1)) {
            (b'/', Some(b'*')) => (depth, i) = (depth + 1, i + 2),
            (b'*', Some(b'/')) if depth == 1 => return i + 2,
            (b'*', Some(b'/')) => (depth, i) = (depth - 1, i + 2),
            _ => i += 1,
        }
    }
    b.len()
}

/// End of the string or character literal whose quote is at `i`.
fn quoted(b: &[u8], i: usize) -> usize {
    let mut j = i + 1;
    while j < b.len() && b[j] != b[i] {
        j += if b[j] == b'\\' { 2 } else { 1 };
    }
    b.len().min(j + 1)
}

/// End of the raw string whose `#`s or opening quote start at `i`.
fn raw_string(b: &[u8], i: usize) -> usize {
    let hashes = b[i..].iter().take_while(|&&c| c == b'#').count();
    let close: Vec<u8> = std::iter::once(b'"').chain(std::iter::repeat_n(b'#', hashes)).collect();
    let body = i + hashes + 1;
    let len = b[body..].windows(close.len()).position(|w| w == close);
    len.map_or(b.len(), |n| body + n + close.len())
}

/// One item of the item tree: its `keyword`, its `name` (for an `impl`,
/// the self type's last segment, and `trait_of` the trait's), whether it is
/// plain `pub` and whether an attribute marks it test-only, the line and
/// token `range` it spans from its first attribute on, and for a `mod`,
/// `impl` or `trait` the items of its body.
struct Item<'a> {
    keyword: &'a str,
    name: Option<&'a str>,
    trait_of: Option<&'a str>,
    public: bool,
    test: bool,
    line: usize,
    range: std::ops::Range<usize>,
    children: Vec<Item<'a>>,
}

const ITEM_KEYWORDS: [&str; 10] =
    ["fn", "mod", "impl", "struct", "union", "enum", "trait", "static", "const", "type"];

/// Index just past the group whose opener is at `i` (or `i + 1` if `i`
/// opens none).
fn skip_group(toks: &[Tok<'_>], i: usize, end: usize) -> usize {
    let open = toks[i].text;
    let Some(close) = [("(", ")"), ("[", "]"), ("{", "}")].iter().find(|p| p.0 == open) else {
        return i + 1;
    };
    let mut depth = 0;
    let len = toks[i..end].iter().position(|t| {
        depth += i32::from(t.text == open) - i32::from(t.text == close.1);
        depth == 0
    });
    len.map_or(end, |n| i + n + 1)
}

/// The items in `toks[i..end]`. Whatever starts no item (a `use`, a macro
/// call, a stray token) is stepped over one token or group at a time.
fn parse_items<'a>(toks: &[Tok<'a>], mut i: usize, end: usize) -> Vec<Item<'a>> {
    let next_is = |i: usize, text: &str| toks.get(i + 1).is_some_and(|t| t.text == text);
    let mut items = Vec::new();
    while i < end {
        let (start, mut test, mut public) = (i, false, false);
        while i < end && toks[i].text == "#" {
            i += 1 + usize::from(i + 1 < end && next_is(i, "!"));
            if i < end && toks[i].text == "[" {
                let open = i;
                i = skip_group(toks, i, end);
                let text: String = toks[open + 1..i - 1].iter().map(|t| t.text).collect();
                test |= text == "test" || (text.starts_with("cfg(") && text.contains("test"));
            }
        }
        while i < end {
            match toks[i].text {
                "pub" if next_is(i, "(") => (public, i) = (false, skip_group(toks, i + 1, end)),
                "pub" => (public, i) = (true, i + 1),
                "default" | "unsafe" | "async" | "extern" => i += 1,
                "const" if next_is(i, "fn") => i += 1,
                _ => break,
            }
        }
        if i >= end {
            break;
        }
        let keyword = toks[i].text;
        if !ITEM_KEYWORDS.contains(&keyword) {
            i = skip_group(toks, i, end);
            continue;
        }
        i += 1 + usize::from(keyword == "static" && next_is(i, "mut"));
        let header = i;
        let mut name = (keyword != "impl" && i < end && toks[i].is_ident()).then(|| toks[i].text);
        // The item ends at its first depth-0 `;` or brace body.
        while i < end && !matches!(toks[i].text, ";" | "{" | ")" | "]" | "}") {
            i = skip_group(toks, i, end);
        }
        let mut body = None;
        match toks.get(i).filter(|_| i < end).map(|t| t.text) {
            Some(";") => i += 1,
            Some("{") => {
                let close = skip_group(toks, i, end);
                (body, i) = (Some(i + 1..close - 1), close);
            }
            _ => {}
        }
        let mut trait_of = None;
        if keyword == "impl" {
            (trait_of, name) = impl_header(toks, header, body.as_ref().map_or(i, |b| b.start - 1));
        }
        let children = match body {
            Some(b) if matches!(keyword, "mod" | "impl" | "trait") => {
                parse_items(toks, b.start, b.end)
            }
            _ => Vec::new(),
        };
        let line = toks[start].line;
        items.push(Item { keyword, name, trait_of, public, test, line, range: start..i, children });
    }
    items
}

/// `(trait, self type)` of the `impl` header `toks[i..stop]`, each its last
/// segment outside `<…>`: `impl<F: Fn(u64) -> K> Policy for F` is
/// `(Policy, F)`.
fn impl_header<'a>(
    toks: &[Tok<'a>],
    mut i: usize,
    stop: usize,
) -> (Option<&'a str>, Option<&'a str>) {
    let (mut first, mut second, mut after_for, mut angle) = (None, None, false, 0usize);
    while i < stop {
        match toks[i].text {
            "<" => angle += 1,
            ">" => angle = angle.saturating_sub(1),
            "(" | "[" | "{" => {
                i = skip_group(toks, i, stop);
                continue;
            }
            _ if angle > 0 => {}
            "for" => after_for = true,
            "where" => break,
            "dyn" | "mut" => {}
            t if toks[i].is_ident() => {
                *(if after_for { &mut second } else { &mut first }) = Some(t)
            }
            _ => {}
        }
        i += 1;
    }
    if after_for {
        (first, second)
    } else {
        (None, first)
    }
}

/// Named definitions outside test-marked code, each with its tokens.
fn units<'t, 'a>(items: &[Item<'a>], toks: &'t [Tok<'a>], out: &mut Vec<(&'a str, &'t [Tok<'a>])>) {
    for item in items.iter().filter(|item| !item.test) {
        if let (Some(name), false) = (item.name, matches!(item.keyword, "impl" | "mod")) {
            out.push((name, &toks[item.range.clone()]));
        }
        units(&item.children, toks, out);
    }
}

/// The judged items: `(line, "Type::name" or "name", name)`.
fn judged<'a>(
    items: &[Item<'a>],
    owner: Option<&str>,
    exempt: bool,
    out: &mut Vec<(usize, String, &'a str)>,
) {
    for item in items.iter().filter(|item| !item.test) {
        if item.keyword == "impl" {
            judged(&item.children, item.name, item.trait_of.is_some(), out);
            continue;
        }
        let Some(name) = item.name else { continue };
        if item.public && !exempt && name != "main" {
            let what = owner.map_or(name.to_string(), |o| format!("{o}::{name}"));
            out.push((item.line, what, name));
        }
        match item.keyword {
            "mod" => judged(&item.children, None, false, out),
            "trait" => judged(&item.children, Some(name), true, out),
            _ => {}
        }
    }
}

/// A file's package: its manifest directory.
fn package(path: &str) -> &str {
    match path.strip_prefix("crates/").and_then(|rest| rest.split_once('/')) {
        Some((dir, _)) => &path[.."crates/".len() + dir.len()],
        None if path.starts_with("benchmarks/") => "benchmarks",
        None => "",
    }
}

fn is_library(path: &str) -> bool {
    let pkg = package(path);
    let in_pkg = path[pkg.len()..].trim_start_matches('/');
    pkg != "benchmarks"
        && in_pkg.starts_with("src/")
        && !in_pkg.starts_with("src/bin/")
        && in_pkg != "src/main.rs"
}

/// Every dead pub item of `files` (`(path, source)`), as ``path:line: dead
/// pub item `name` `` in path and line order.
fn dead_pub_items(files: &[(&str, &str)]) -> Vec<String> {
    struct File<'a> {
        path: &'a str,
        library: bool,
        toks: Vec<Tok<'a>>,
        items: Vec<Item<'a>>,
        idents: BTreeSet<&'a str>,
    }
    let files: Vec<File<'_>> = files
        .iter()
        .map(|&(path, src)| {
            let toks = lex(src);
            let items = parse_items(&toks, 0, toks.len());
            let idents = toks.iter().filter(|t| t.is_ident()).map(|t| t.text).collect();
            File { path, library: is_library(path), toks, items, idents }
        })
        .collect();
    let packages: BTreeSet<&str> =
        files.iter().filter(|f| f.library).map(|f| package(f.path)).collect();
    let mut found = Vec::new();
    for pkg in packages {
        let own = |f: &&File<'_>| f.library && package(f.path) == pkg;
        let mut live: BTreeSet<&str> =
            files.iter().filter(|f| !own(f)).flat_map(|f| f.idents.iter().copied()).collect();
        let mut pending = Vec::new();
        for f in files.iter().filter(own) {
            units(&f.items, &f.toks, &mut pending);
        }
        loop {
            let (now, rest): (Vec<_>, Vec<_>) =
                pending.into_iter().partition(|(name, _)| live.contains(name));
            if now.is_empty() {
                break;
            }
            let reached = now.iter().flat_map(|(_, toks)| toks.iter().filter(|t| t.is_ident()));
            live.extend(reached.map(|t| t.text));
            pending = rest;
        }
        for f in files.iter().filter(own) {
            let mut candidates = Vec::new();
            judged(&f.items, None, false, &mut candidates);
            let dead = candidates.into_iter().filter(|(_, _, name)| !live.contains(name));
            found.extend(dead.map(|(line, what, _)| (f.path, line, what)));
        }
    }
    found.sort_by_key(|&(path, line, _)| (path, line));
    found
        .into_iter()
        .map(|(path, line, what)| format!("{path}:{line}: dead pub item `{what}`"))
        .collect()
}

/// Every `.rs` file under `root/rel`, as `(path from root, source)`,
/// skipping dot-directories, every `target`, the vendored `crates/compat`
/// and this file: its identifiers must not seed the crates it checks.
fn walk(root: &Path, rel: &str, out: &mut Vec<(String, String)>) {
    for entry in fs::read_dir(root.join(rel)).expect("a readable directory") {
        let name = entry.expect("a directory entry").file_name().into_string().expect("UTF-8 name");
        let path = if rel.is_empty() { name.clone() } else { format!("{rel}/{name}") };
        if name.starts_with('.') || name == "target" || path == "crates/compat" || path == file!() {
            continue;
        }
        if root.join(&path).is_dir() {
            walk(root, &path, out);
        } else if name.ends_with(".rs") {
            let src = fs::read_to_string(root.join(&path)).expect("a UTF-8 source file");
            out.push((path, src));
        }
    }
}

#[test]
fn no_dead_pub_items() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut owned = Vec::new();
    walk(root, "", &mut owned);
    owned.sort();
    let mut files: Vec<(&str, &str)> =
        owned.iter().map(|(p, s)| (p.as_str(), s.as_str())).collect();

    // A walk that reads nothing finds nothing: every package must be read.
    let mut read_from: Vec<String> =
        ["src/", "tests/", "examples/", "benchmarks/src/"].map(String::from).into();
    for entry in fs::read_dir(root.join("crates")).expect("crates/") {
        let dir = entry.expect("a directory entry").file_name().to_string_lossy().into_owned();
        if root.join("crates").join(&dir).join("Cargo.toml").exists() {
            read_from.push(format!("crates/{dir}/"));
        }
    }
    for prefix in &read_from {
        assert!(
            files.iter().any(|(p, _)| p.starts_with(prefix.as_str())),
            "read nothing in {prefix}"
        );
    }
    assert!(!files.iter().any(|(p, _)| *p == file!()), "the check read its own file");

    let found = dead_pub_items(&files);
    assert!(
        found.is_empty(),
        "{} dead pub item(s): no other crate, binary, example, integration test or benchmarks/ \
         reaches them, directly or through live code. Delete each with the unit test that \
         alone calls it, narrow it to pub(crate), or move a test fixture under #[cfg(test)].\n{}",
        found.len(),
        found.join("\n")
    );

    // And on this tree the analysis finds what is planted in it.
    files.push(("crates/memsim/src/planted.rs", "pub fn planted_probe() {}\n"));
    assert_eq!(
        dead_pub_items(&files),
        ["crates/memsim/src/planted.rs:1: dead pub item `planted_probe`"]
    );
}

#[test]
fn fixture_table() {
    const X: &str = "crates/x/src/lib.rs";
    const BIN: &str = "crates/y/src/main.rs";
    /// A name, the files, and the findings expected in `X`: `(line, item)`.
    type Case<'a> = (&'a str, &'a [(&'a str, &'a str)], &'a [(usize, &'a str)]);
    #[rustfmt::skip]
    let cases: &[Case<'_>] = &[
        ("no external reference", &[
            (X, "pub fn used_elsewhere() {}\npub fn dead() {}\npub struct DeadStruct;\n"),
            ("crates/y/src/lib.rs", "pub fn f() { x::used_elsewhere(); }\n"),
            ("crates/y/src/bin/tool.rs", "fn main() { y::f(); }\n"),
        ], &[(2, "dead"), (3, "DeadStruct")]),
        ("propagation through signatures", &[
            (X, "pub struct Inner(pub u64);\npub struct Report { pub inner: Inner }\n\
                 pub fn analyze() -> Report { Report { inner: Inner(0) } }\n\
                 pub struct Orphan;\npub fn dead_path() -> Orphan { Orphan }\n"),
            (BIN, "fn main() { let _ = x::analyze(); }\n"),
        ], &[(4, "Orphan"), (5, "dead_path")]),
        ("live types do not revive uncalled methods", &[
            (X, "pub struct Gauge { pub raw: u64 }\nimpl Gauge {\n    \
                 pub fn read(&self) -> u64 { self.raw }\n    pub fn never_called(&self) {}\n}\n"),
            (BIN, "fn main() { let g = x::Gauge { raw: 1 }; g.read(); }\n"),
        ], &[(4, "Gauge::never_called")]),
        ("other targets count, own unit tests do not, trait members are exempt", &[
            (X, "pub trait Policy {\n    fn decide(&self);\n}\npub struct P;\n\
                 impl Policy for P {\n    fn decide(&self) {}\n}\npub fn from_bench() {}\n\
                 pub fn from_test() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    \
                 fn t() { super::from_test(); }\n}\n"),
            ("crates/x/benches/b.rs", "fn main() { x::from_bench(); }\n"),
            ("crates/x/tests/policy.rs", "use x::Policy;\n#[test]\nfn t() {}\n"),
        ], &[(4, "P"), (9, "from_test")]),
        // rustc refuses a trait member's `pub` (E0449); the check skips it too.
        ("trait members are never judged", &[
            (X, "trait Hidden {\n    pub fn declared(&self);\n}\n\
                 impl Hidden for u8 {\n    pub fn declared(&self) {}\n}\n"),
        ], &[]),
        ("nested block comments hide what they hold", &[
            (X, "pub fn kept() {}\npub fn hidden() {}\n"),
            (BIN, "/* outer /* inner */ hidden */ fn main() { x::kept(); }\n"),
        ], &[(2, "hidden")]),
        ("raw strings end at their own quote", &[
            (X, "pub fn kept() {}\npub fn hidden() {}\npub fn also_kept() {}\n"),
            (BIN, "fn main() { let _ = (r#\"a \" hidden \"#, br\"\\\", x::kept(), \"\");\n\
                   x::also_kept(); }\n"),
        ], &[(2, "hidden")]),
        ("byte and char literals beside a lifetime", &[
            (X, "pub fn a() {}\npub fn b() {}\npub fn kept() {}\npub fn u() {}\n"),
            (BIN, "fn f<'a>(s: &'a str) -> (u8, char, char, &'a str) {\n\
                   (b'x', '\\'', '\\u{1F600}', s) }\nfn main() { f(\"\"); x::kept(); }\n"),
        ], &[(1, "a"), (2, "b"), (4, "u")]),
        ("a raw identifier is its name", &[
            (X, "pub fn r#type() {}\npub fn r() {}\npub fn r#loop() {}\n"),
            (BIN, "fn main() { x::r#type(); }\n"),
        ], &[(2, "r"), (3, "loop")]),
        ("an impl header with a closure bound", &[
            (X, "pub trait Policy { fn kind(&mut self, a: u64) -> AccessKind; }\n\
                 pub enum AccessKind { Plain }\npub struct Wrap<F>(pub F);\n\
                 impl<F: Fn(u64) -> AccessKind> Policy for Wrap<F> {\n    \
                 fn kind(&mut self, a: u64) -> AccessKind { (self.0)(a) }\n}\n\
                 impl Wrap<fn(u64) -> AccessKind> {\n    pub fn unused(&self) {}\n}\n"),
            (BIN, "use x::Policy;\nfn main() { x::Wrap(|_| x::AccessKind::Plain).kind(0); }\n"),
        ], &[(8, "Wrap::unused")]),
        ("restricted visibility is not judged, pub mod is and passes nothing on", &[
            (X, "pub(crate) fn inner() {}\npub(super) fn up() {}\npub(in crate::m) fn deep() {}\n\
                 pub mod tools {}\npub mod used {\n    pub fn not_revived() {}\n}\n"),
            (BIN, "use x::used;\nfn main() {}\n"),
        ], &[(4, "tools"), (6, "not_revived")]),
        ("const fn and static mut are judged", &[
            (X, "pub const fn konst() -> u32 { 1 }\npub static mut COUNTER: u32 = 0;\n\
                 pub unsafe extern \"C\" fn ffi() {}\n"),
        ], &[(1, "konst"), (2, "COUNTER"), (3, "ffi")]),
        ("cfg(all(test, …)) is test code, a feature named attest is not", &[
            (X, "#[cfg(all(test, feature = \"x\"))]\nmod t {\n    pub fn fixture() {}\n}\n\
                 #[cfg(feature = \"attest\")]\npub fn attested() {}\n"),
        ], &[(5, "attested")]),
        ("benchmarks is read and never judged", &[
            (X, "pub fn kept() {}\n"),
            ("benchmarks/src/workloads.rs", "pub fn run() { x::kept(); }\n"),
        ], &[]),
    ];
    for (name, files, expected) in cases {
        let expected: Vec<String> = expected
            .iter()
            .map(|(line, what)| format!("{X}:{line}: dead pub item `{what}`"))
            .collect();
        assert_eq!(dead_pub_items(files), expected, "case: {name}");
    }
}
