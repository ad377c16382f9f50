//! Workspace-wide symbol table: every named `pub` item of library code
//! across all parsed files, and the workspace's crate names — the
//! universe the dead-API pass judges.

use crate::source::{file_kind, FileKind};
use crate::Workspace;
use syn::{Item, ItemKind, Visibility};

/// One named `pub` item (dead-API candidate universe).
#[derive(Debug, Clone)]
pub struct PubItem {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Cargo package name of the defining crate.
    pub crate_name: String,
    /// Item name.
    pub name: String,
    /// Enclosing `impl` self type for methods/associated consts.
    pub self_ty: Option<String>,
    /// Trait being implemented, when inside `impl Trait for Type`.
    pub trait_impl: Option<String>,
    /// True when declared inside a `trait` definition.
    pub in_trait_decl: bool,
    /// 1-based line of the definition.
    pub line: usize,
    /// True when the definition is inside test-marked code.
    pub is_test: bool,
}

/// The workspace symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Every named `pub` item.
    pub pub_items: Vec<PubItem>,
    /// Workspace crate names (deduplicated, sorted).
    pub crates: Vec<String>,
}

impl SymbolTable {
    /// Build the table from a parsed workspace.
    pub fn build(ws: &Workspace) -> SymbolTable {
        let mut table = SymbolTable::default();
        for (fi, pf) in ws.files.iter().enumerate() {
            if !table.crates.contains(&pf.crate_name) {
                table.crates.push(pf.crate_name.clone());
            }
            if file_kind(&pf.rel) == FileKind::Lib {
                let ctx = WalkCtx { file: fi, crate_name: &pf.crate_name };
                collect_items(&ctx, &pf.file.items, None, None, false, false, &mut table);
            }
        }
        table.crates.sort();
        table
    }
}

struct WalkCtx<'a> {
    file: usize,
    crate_name: &'a str,
}

fn collect_items(
    ctx: &WalkCtx<'_>,
    items: &[Item],
    self_ty: Option<&str>,
    trait_impl: Option<&str>,
    in_trait_decl: bool,
    in_test: bool,
    table: &mut SymbolTable,
) {
    for item in items {
        let is_test = in_test || item.attrs.iter().any(syn::Attribute::is_test_marker);
        if item.vis == Visibility::Pub && item.kind != ItemKind::Impl && item.kind != ItemKind::Use
        {
            if let Some(name) = &item.ident {
                table.pub_items.push(PubItem {
                    file: ctx.file,
                    crate_name: ctx.crate_name.to_string(),
                    name: name.clone(),
                    self_ty: self_ty.map(str::to_string),
                    trait_impl: trait_impl.map(str::to_string),
                    in_trait_decl,
                    line: item.line,
                    is_test,
                });
            }
        }
        let ty = item.ident.as_deref();
        match item.kind {
            ItemKind::Mod => collect_items(ctx, &item.children, None, None, false, is_test, table),
            ItemKind::Impl => {
                let tr = item.trait_name.as_deref();
                collect_items(ctx, &item.children, ty, tr, false, is_test, table);
            }
            ItemKind::Trait => collect_items(ctx, &item.children, ty, None, true, is_test, table),
            _ => {}
        }
    }
}
