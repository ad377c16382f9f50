//! API001: dead `pub` items.
//!
//! A `pub` item in library code that no *other* crate, binary,
//! integration test, example or bench ever reaches — directly or through
//! the live parts of its own crate — is surface area without a consumer:
//! nothing exercises it, and it advertises capabilities the workspace
//! does not actually have. The rule flags such items; the fix is to
//! delete them or narrow them to `pub(crate)`.
//!
//! Liveness is a token-level mark-and-sweep, computed per crate:
//!
//! - **Seeds**: every identifier that appears in another crate's files
//!   or in any non-library target (binary, integration test, example,
//!   bench). The crate's own `#[cfg(test)]` code is not a reacher: an
//!   item only its unit test calls backs nothing the workspace ships.
//! - **Propagation**: when a named definition (fn, struct, enum, const,
//!   static, type alias, trait) of the crate is live, every identifier
//!   inside its token range — signature and body — becomes live too.
//!   A type named by a live function's signature is therefore live even
//!   though no external code ever spells its name.
//!
//! `impl` blocks and modules do *not* propagate: a live type must not
//! make its never-called methods live, and a live module must not make
//! its unreferenced contents live. Name-level matching means same-named
//! items shadow each other's liveness — the conservative direction for
//! a lint gate. Trait-impl methods, trait-declaration methods and
//! `main` are exempt (their liveness is structural, not referential).

use crate::diag::Diagnostic;
use crate::rules::{diag_at, SemanticCtx};
use crate::source::FileKind;
use std::collections::{BTreeMap, BTreeSet};
use syn::{Item, ItemKind, TokenKind};

/// A named definition unit: (name, file index, token range).
type DefUnit = (String, usize, (usize, usize));

/// Run the rule over the workspace.
pub fn check(sem: &SemanticCtx<'_>, out: &mut Vec<Diagnostic>) {
    let mut live: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for c in &sem.table.crates {
        live.insert(c.as_str(), seed_idents(sem, c));
    }

    let mut units: BTreeMap<&str, Vec<DefUnit>> = BTreeMap::new();
    for (fi, pf) in sem.ws.files.iter().enumerate() {
        if sem.ctxs[fi].kind != FileKind::Lib {
            continue;
        }
        collect_units(&pf.file.items, fi, units.entry(pf.crate_name.as_str()).or_default());
    }

    // Fixpoint: a live unit's token range contributes its identifiers.
    for (crate_name, crate_units) in &units {
        let live = live.entry(*crate_name).or_default();
        let mut marked = vec![false; crate_units.len()];
        loop {
            let mut changed = false;
            for (ui, (name, fi, (lo, hi))) in crate_units.iter().enumerate() {
                if marked[ui] || !live.contains(name) {
                    continue;
                }
                marked[ui] = true;
                for t in &sem.ws.files[*fi].file.tokens[*lo..*hi] {
                    if t.kind == TokenKind::Ident && live.insert(t.text.clone()) {
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    for item in &sem.table.pub_items {
        if item.is_test || item.trait_impl.is_some() || item.in_trait_decl || item.name == "main" {
            continue;
        }
        if live[item.crate_name.as_str()].contains(&item.name) {
            continue;
        }
        let what = match &item.self_ty {
            Some(ty) => format!("`{ty}::{}`", item.name),
            None => format!("`{}`", item.name),
        };
        out.push(diag_at(
            "API001",
            &sem.ws.files[item.file].rel,
            item.line,
            format!(
                "dead pub item {what}: never referenced from another crate, a binary, \
                 an integration test or a bench (directly or through live code); delete \
                 it or narrow it to pub(crate)"
            ),
        ));
    }
}

/// Identifiers visible to `crate_name` from outside its own library
/// code: other crates and non-library targets.
fn seed_idents(sem: &SemanticCtx<'_>, crate_name: &str) -> BTreeSet<String> {
    let mut seeds = BTreeSet::new();
    for (fi, pf) in sem.ws.files.iter().enumerate() {
        if pf.crate_name == crate_name && sem.ctxs[fi].kind == FileKind::Lib {
            continue;
        }
        for t in &pf.file.tokens {
            if t.kind == TokenKind::Ident {
                seeds.insert(t.text.clone());
            }
        }
    }
    seeds
}

/// Collect named definition units. `impl` blocks, modules and `use`
/// items are containers/references, not definitions: recurse or skip.
/// Test-only items are no units — a `#[test] fn` that happens to share a
/// live name must not pass liveness on to what it calls.
fn collect_units(items: &[Item], fi: usize, out: &mut Vec<(String, usize, (usize, usize))>) {
    for item in items {
        if item.attrs.iter().any(syn::Attribute::is_test_marker) {
            continue;
        }
        match item.kind {
            ItemKind::Use => {}
            ItemKind::Impl | ItemKind::Mod => collect_units(&item.children, fi, out),
            _ => {
                if let Some(name) = &item.ident {
                    out.push((name.clone(), fi, item.tokens));
                }
                collect_units(&item.children, fi, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Workspace;

    fn api_findings(sources: &[(&str, &str, &str)]) -> Vec<(String, usize, String)> {
        let ws = Workspace::from_sources(sources).expect("fixture parses");
        ws.lint()
            .into_iter()
            .filter(|d| d.rule == "API001")
            .map(|d| (d.path, d.line, d.message))
            .collect()
    }

    #[test]
    fn flags_items_with_no_external_reference() {
        let got = api_findings(&[
            (
                "crates/a/src/lib.rs",
                "a",
                "pub fn used_elsewhere() {}\npub fn dead() {}\npub struct DeadStruct;\n",
            ),
            ("crates/b/src/lib.rs", "b", "pub fn f() { a::used_elsewhere(); }\n"),
            ("crates/b/src/bin/tool.rs", "b", "fn main() { b::f(); }\n"),
        ]);
        let names: Vec<&str> = got.iter().map(|(_, _, m)| m.as_str()).collect();
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(names.iter().any(|m| m.contains("`dead`")), "{names:?}");
        assert!(names.iter().any(|m| m.contains("`DeadStruct`")), "{names:?}");
    }

    #[test]
    fn liveness_propagates_through_signatures() {
        // `Report` is never named outside crate a, but it is the return
        // type of the externally-used `analyze`; `Inner` rides along
        // through Report's field. A dead fn's return type stays dead.
        let got = api_findings(&[
            (
                "crates/a/src/lib.rs",
                "a",
                "pub struct Inner(pub u64);\n\
                 pub struct Report { pub inner: Inner }\n\
                 pub fn analyze() -> Report { Report { inner: Inner(0) } }\n\
                 pub struct Orphan;\n\
                 pub fn dead_path() -> Orphan { Orphan }\n",
            ),
            ("crates/b/src/lib.rs", "b", "pub fn f() { let _ = a::analyze(); }\n"),
            ("crates/b/src/bin/tool.rs", "b", "fn main() { b::f(); }\n"),
        ]);
        let names: Vec<&str> = got.iter().map(|(_, _, m)| m.as_str()).collect();
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(names.iter().any(|m| m.contains("`Orphan`")), "{names:?}");
        assert!(names.iter().any(|m| m.contains("`dead_path`")), "{names:?}");
    }

    #[test]
    fn live_types_do_not_revive_uncalled_methods() {
        let got = api_findings(&[
            (
                "crates/a/src/lib.rs",
                "a",
                "pub struct Gauge { pub raw: u64 }\n\
                 impl Gauge {\n\
                 \x20   pub fn read(&self) -> u64 { self.raw }\n\
                 \x20   pub fn never_called(&self) -> u64 { 0 }\n\
                 }\n",
            ),
            ("crates/b/src/lib.rs", "b", "pub fn f(g: &a::Gauge) -> u64 { g.read() }\n"),
            ("crates/b/src/bin/tool.rs", "b", "fn main() { let _ = b::f; }\n"),
        ]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].2.contains("`Gauge::never_called`"), "{got:?}");
    }

    #[test]
    fn other_targets_count_own_unit_tests_do_not_and_trait_members_are_exempt() {
        let got = api_findings(&[
            (
                "crates/a/src/lib.rs",
                "a",
                "pub trait Policy {\n    fn decide(&self);\n}\n\
                 pub struct P;\n\
                 impl Policy for P {\n    fn decide(&self) {}\n}\n\
                 pub fn from_bench() {}\n\
                 pub fn from_test() {}\n\
                 #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { super::from_test(); }\n}\n",
            ),
            ("crates/a/benches/b.rs", "a", "fn main() { abft_a::from_bench(); }\n"),
            ("crates/a/tests/policy.rs", "a", "use a::Policy;\n#[test]\nfn t() {}\n"),
        ]);
        // `P` is dead; `Policy` is used from an integration test;
        // `decide` (trait decl + impl) is never reported as an item; the
        // bench keeps `from_bench` alive; the crate's own unit test does
        // not keep `from_test` alive.
        let names: Vec<&str> = got.iter().map(|(_, _, m)| m.as_str()).collect();
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(names.iter().any(|m| m.contains("`P`")), "{names:?}");
        assert!(names.iter().any(|m| m.contains("`from_test`")), "{names:?}");
    }
}
