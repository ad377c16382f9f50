//! Workspace call graph over the symbol table.
//!
//! For every function body, the token scan ([`crate::hotness::scan_fn`])
//! yields its call sites with their loop depth; each site is resolved
//! against the symbol table:
//!
//! - **Paths** (`helper(..)`, `module::helper(..)`, `Type::assoc(..)`,
//!   `abft_memsim::Machine::new(..)`) resolve through the defining
//!   file's `use` bindings (renames included), then by crate segment,
//!   associated-function type, and module suffix.
//! - **Method calls** (`x.step(..)`) cannot see the receiver's type at
//!   this layer, so they conservatively fan out to *every* workspace
//!   method of that name (trait-method fallback).
//!
//! A site that matches no workspace definition (an external function, a
//! tuple-struct constructor, a call through a local binding) is not an
//! edge and is not kept. The graph over-approximates what it does keep:
//! it answers "may call", never "does not call".

use crate::hotness::{scan_fn, FnLoops};
use crate::symbols::SymbolTable;
use crate::Workspace;

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Resolved callee indices into [`SymbolTable::fns`] (several for
    /// the method-name fallback); never empty.
    pub targets: Vec<usize>,
    /// Source spelling: `a::b::c` for paths, `.name` for method calls.
    pub display: String,
    /// 1-based line of the call.
    pub line: usize,
    /// Loop-nesting depth of the call within its function.
    pub depth: u32,
}

/// The workspace call graph; `calls[i]` and `loops[i]` belong to
/// `SymbolTable::fns[i]`.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Per-function call sites.
    pub calls: Vec<Vec<CallSite>>,
    /// Per-function loop facts and PERF sink candidates, from the same
    /// scan that found the call sites.
    pub loops: Vec<FnLoops>,
}

impl CallGraph {
    /// Scan every function with a body and resolve its call sites.
    pub fn build(ws: &Workspace, table: &SymbolTable) -> CallGraph {
        let mut graph = CallGraph::default();
        for (fi, f) in table.fns.iter().enumerate() {
            let (loops, scanned) = match f.body {
                Some(body) => scan_fn(&ws.files[f.file].file.tokens, body),
                None => Default::default(),
            };
            let sites = scanned
                .iter()
                .map(|c| CallSite {
                    targets: if c.method {
                        resolve_method(table, &c.segs[0])
                    } else {
                        resolve_path(table, fi, &c.segs)
                    },
                    display: c.display(),
                    line: c.line,
                    depth: c.depth,
                })
                .filter(|s| !s.targets.is_empty());
            graph.calls.push(sites.collect());
            graph.loops.push(loops);
        }
        graph
    }
}

/// The workspace functions a path call from function `caller` may reach.
fn resolve_path(table: &SymbolTable, caller: usize, segs: &[String]) -> Vec<usize> {
    let from = &table.fns[caller];

    // Expand the head segment through the defining file's `use` bindings.
    let mut path: Vec<String> = segs.to_vec();
    if let Some(b) = table.uses[from.file].iter().find(|b| b.local == path[0]) {
        let mut full = b.path.clone();
        full.extend(path[1..].iter().cloned());
        path = full;
    }

    // Strip crate-position markers and pin down a crate restriction.
    let mut crate_scope: Option<String> = None;
    while let Some(head) = path.first().cloned() {
        match head.as_str() {
            "crate" | "self" | "super" => {
                crate_scope = Some(from.crate_name.clone());
                path.remove(0);
            }
            "std" | "core" | "alloc" => {
                // External standard library: never a workspace fn.
                return Vec::new();
            }
            _ => {
                if path.len() > 1 {
                    if let Some(c) = table.crate_for_seg(&head) {
                        crate_scope = Some(c.to_string());
                        path.remove(0);
                        continue;
                    }
                }
                break;
            }
        }
    }

    let Some(name) = path.last().cloned() else { return Vec::new() };
    let in_scope = |idx: &usize| -> bool {
        crate_scope.as_deref().is_none_or(|c| table.fns[*idx].crate_name == c)
    };
    let candidates: Vec<usize> = table.fns_named(&name).iter().copied().filter(in_scope).collect();

    let mut targets: Vec<usize> = Vec::new();
    if path.len() >= 2 {
        let owner = &path[path.len() - 2];
        let owner = if owner == "Self" {
            from.self_ty.clone().unwrap_or_else(|| owner.clone())
        } else {
            owner.clone()
        };
        // Associated function `Type::name`.
        targets.extend(
            candidates.iter().copied().filter(|&i| table.fns[i].self_ty.as_deref() == Some(&owner)),
        );
        if targets.is_empty() {
            // Module-qualified free function `module::name`.
            targets.extend(candidates.iter().copied().filter(|&i| {
                let f = &table.fns[i];
                f.self_ty.is_none() && f.module.last() == Some(&owner)
            }));
        }
    } else {
        // Bare name: free functions, preferring the caller's own file,
        // then the caller's crate.
        let free: Vec<usize> =
            candidates.iter().copied().filter(|&i| table.fns[i].self_ty.is_none()).collect();
        let same_file: Vec<usize> =
            free.iter().copied().filter(|&i| table.fns[i].file == from.file).collect();
        let same_crate: Vec<usize> =
            free.iter().copied().filter(|&i| table.fns[i].crate_name == from.crate_name).collect();
        targets = if !same_file.is_empty() {
            same_file
        } else if !same_crate.is_empty() {
            same_crate
        } else {
            free
        };
    }
    // Tuple-struct constructors (`Cycles(x)`) and external fns resolve to
    // nothing.
    targets
}

/// Every workspace method of this name (trait-method fallback).
pub(crate) fn resolve_method(table: &SymbolTable, method: &str) -> Vec<usize> {
    table
        .fns_named(method)
        .iter()
        .copied()
        .filter(|&i| table.fns[i].self_ty.is_some() || table.fns[i].in_trait_decl)
        .collect()
}
