//! Minimal, dependency-free stand-in for the `syn` crate.
//!
//! The build environment has no crates.io access, so (like `rand` and
//! `rayon`) `syn` is vendored under `crates/compat/` as a reduced but
//! real implementation of the surface the workspace uses: `parse_file`
//! turning Rust source into a [`File`] of nested [`Item`]s over a full
//! token stream. The lexer is a complete Rust lexer (comments, raw
//! strings, lifetimes vs. char literals, numeric literals, maximal-munch
//! punctuation); the parser is an *item-level* parser — it recovers the
//! item tree (functions, modules, impls, ...) with attributes, spans and
//! body token ranges, which is exactly what an AST lint engine needs,
//! without modelling expression grammar.
//!
//! Known, accepted limitations (not exercised by this workspace):
//! const-generic brace expressions in `impl` headers, and items nested
//! inside function bodies are not recursed into.

use std::fmt;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// A lex or parse error with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub column: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for Error {}

/// Parse result.
pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------

/// Literal classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LitKind {
    /// Integer literal (any base, any suffix).
    Int,
    /// Floating-point literal.
    Float,
    /// String literal (including raw strings).
    Str,
    /// Byte-string literal.
    ByteStr,
    /// Character literal.
    Char,
    /// Byte literal (`b'x'`).
    Byte,
}

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (raw identifiers are unescaped).
    Ident,
    /// Lifetime (`'a`), text excludes the quote.
    Lifetime,
    /// Literal of the given kind; text is the raw source form.
    Literal(LitKind),
    /// Punctuation, maximal-munch joined (`::`, `==`, `..=`, ...).
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Classification.
    pub kind: TokenKind,
    /// Source text (raw-identifier prefix stripped for idents).
    pub text: String,
    /// 1-based line of the first character.
    pub line: usize,
    /// 1-based column of the first character.
    pub column: usize,
}

impl Token {
    /// True for an identifier with exactly this text.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// True for punctuation with exactly this text.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

/// A comment (line or block); `///` and `//!` doc comments included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Text including the delimiters.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: usize,
    /// True for `/* ... */` comments.
    pub block: bool,
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn error(&self, message: impl Into<String>) -> Error {
        Error { line: self.line, column: self.col, message: message.into() }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Multi-character punctuation, longest first (maximal munch).
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..", "<<",
    ">>", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=",
];

/// Lex a full source file into tokens and comments.
pub fn tokenize(src: &str) -> Result<(Vec<Token>, Vec<Comment>)> {
    let mut c = Cursor { src: src.as_bytes(), pos: 0, line: 1, col: 1 };
    let mut tokens = Vec::new();
    let mut comments = Vec::new();

    // Shebang.
    if src.starts_with("#!") && !src.starts_with("#![") {
        while let Some(b) = c.peek() {
            if b == b'\n' {
                break;
            }
            c.bump();
        }
    }

    while let Some(b) = c.peek() {
        let (line, col) = (c.line, c.col);
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                c.bump();
            }
            b'/' if c.peek_at(1) == Some(b'/') => {
                let start = c.pos;
                while let Some(b) = c.peek() {
                    if b == b'\n' {
                        break;
                    }
                    c.bump();
                }
                comments.push(Comment {
                    text: src[start..c.pos].to_string(),
                    line,
                    block: false,
                });
            }
            b'/' if c.peek_at(1) == Some(b'*') => {
                let start = c.pos;
                c.bump();
                c.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match (c.peek(), c.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            c.bump();
                            c.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            c.bump();
                            c.bump();
                        }
                        (Some(_), _) => {
                            c.bump();
                        }
                        (None, _) => return Err(c.error("unterminated block comment")),
                    }
                }
                comments.push(Comment { text: src[start..c.pos].to_string(), line, block: true });
            }
            b'"' => {
                let start = c.pos;
                let text = lex_string(&mut c, src, start)?;
                tokens.push(Token { kind: TokenKind::Literal(LitKind::Str), text, line, column: col });
            }
            b'r' if matches!(c.peek_at(1), Some(b'"') | Some(b'#'))
                && raw_string_ahead(&c, 1) =>
            {
                let start = c.pos;
                c.bump(); // r
                let text = lex_raw_string(&mut c, src, start)?;
                tokens.push(Token { kind: TokenKind::Literal(LitKind::Str), text, line, column: col });
            }
            b'b' if c.peek_at(1) == Some(b'"') => {
                let start = c.pos;
                c.bump(); // b
                let text = lex_string(&mut c, src, start)?;
                tokens
                    .push(Token { kind: TokenKind::Literal(LitKind::ByteStr), text, line, column: col });
            }
            b'b' if c.peek_at(1) == Some(b'\'') => {
                let start = c.pos;
                c.bump(); // b
                let text = lex_char(&mut c, src, start)?;
                tokens.push(Token { kind: TokenKind::Literal(LitKind::Byte), text, line, column: col });
            }
            b'b' if c.peek_at(1) == Some(b'r') && raw_string_ahead(&c, 2) => {
                c.bump(); // b
                let start = c.pos;
                c.bump(); // r
                let text = lex_raw_string(&mut c, src, start)?;
                tokens
                    .push(Token { kind: TokenKind::Literal(LitKind::ByteStr), text, line, column: col });
            }
            b'\'' => {
                // Lifetime or char literal. A lifetime is `'` + ident not
                // closed by another `'`.
                let mut j = 1;
                let is_lifetime = match c.peek_at(1) {
                    Some(n) if is_ident_start(n) => {
                        while c.peek_at(j).map(is_ident_continue).unwrap_or(false) {
                            j += 1;
                        }
                        c.peek_at(j) != Some(b'\'')
                    }
                    _ => false,
                };
                if is_lifetime {
                    c.bump(); // '
                    let start = c.pos;
                    for _ in 1..j {
                        c.bump();
                    }
                    tokens.push(Token {
                        kind: TokenKind::Lifetime,
                        text: src[start..c.pos].to_string(),
                        line,
                        column: col,
                    });
                } else {
                    let start = c.pos;
                    let text = lex_char(&mut c, src, start)?;
                    tokens
                        .push(Token { kind: TokenKind::Literal(LitKind::Char), text, line, column: col });
                }
            }
            b if b.is_ascii_digit() => {
                let (text, kind) = lex_number(&mut c, src);
                tokens.push(Token { kind: TokenKind::Literal(kind), text, line, column: col });
            }
            b if is_ident_start(b) => {
                let start = c.pos;
                c.bump();
                // Raw identifier `r#name`.
                if b == b'r' && c.peek() == Some(b'#') && c.peek_at(1).map(is_ident_start).unwrap_or(false)
                {
                    c.bump(); // #
                    let istart = c.pos;
                    while c.peek().map(is_ident_continue).unwrap_or(false) {
                        c.bump();
                    }
                    tokens.push(Token {
                        kind: TokenKind::Ident,
                        text: src[istart..c.pos].to_string(),
                        line,
                        column: col,
                    });
                    continue;
                }
                while c.peek().map(is_ident_continue).unwrap_or(false) {
                    c.bump();
                }
                tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: src[start..c.pos].to_string(),
                    line,
                    column: col,
                });
            }
            _ => {
                let rest = &src[c.pos..];
                let mut matched = None;
                for p in PUNCTS {
                    if rest.starts_with(p) {
                        matched = Some(*p);
                        break;
                    }
                }
                let p = matched.unwrap_or(&rest[..rest.chars().next().map_or(1, char::len_utf8)]);
                for _ in 0..p.len() {
                    c.bump();
                }
                tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: p.to_string(),
                    line,
                    column: col,
                });
            }
        }
    }
    Ok((tokens, comments))
}

fn raw_string_ahead(c: &Cursor<'_>, skip: usize) -> bool {
    // After `r` (or `br`): zero or more `#` then `"`.
    let mut j = skip;
    while c.peek_at(j) == Some(b'#') {
        j += 1;
    }
    c.peek_at(j) == Some(b'"')
}

fn lex_string(c: &mut Cursor<'_>, src: &str, start: usize) -> Result<String> {
    c.bump(); // opening quote
    loop {
        match c.bump() {
            Some(b'\\') => {
                c.bump();
            }
            Some(b'"') => return Ok(src[start..c.pos].to_string()),
            Some(_) => {}
            None => return Err(c.error("unterminated string literal")),
        }
    }
}

fn lex_raw_string(c: &mut Cursor<'_>, src: &str, start: usize) -> Result<String> {
    let mut hashes = 0usize;
    while c.peek() == Some(b'#') {
        hashes += 1;
        c.bump();
    }
    if c.bump() != Some(b'"') {
        return Err(c.error("malformed raw string"));
    }
    loop {
        match c.bump() {
            Some(b'"') => {
                let mut ok = true;
                for j in 0..hashes {
                    if c.peek_at(j) != Some(b'#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    for _ in 0..hashes {
                        c.bump();
                    }
                    return Ok(src[start..c.pos].to_string());
                }
            }
            Some(_) => {}
            None => return Err(c.error("unterminated raw string")),
        }
    }
}

fn lex_char(c: &mut Cursor<'_>, src: &str, start: usize) -> Result<String> {
    c.bump(); // opening '
    loop {
        match c.bump() {
            Some(b'\\') => {
                c.bump();
            }
            Some(b'\'') => return Ok(src[start..c.pos].to_string()),
            Some(_) => {}
            None => return Err(c.error("unterminated character literal")),
        }
    }
}

fn lex_number(c: &mut Cursor<'_>, src: &str) -> (String, LitKind) {
    let start = c.pos;
    let mut kind = LitKind::Int;
    let hex = c.peek() == Some(b'0')
        && matches!(c.peek_at(1), Some(b'x') | Some(b'X') | Some(b'b') | Some(b'o'));
    c.bump();
    if hex {
        c.bump();
    }
    while let Some(b) = c.peek() {
        if b.is_ascii_alphanumeric() || b == b'_' {
            // An exponent sign belongs to a decimal float: `1e-9`.
            if !hex && (b == b'e' || b == b'E') {
                if let Some(n) = c.peek_at(1) {
                    if n.is_ascii_digit() || ((n == b'+' || n == b'-')
                        && c.peek_at(2).map(|d| d.is_ascii_digit()).unwrap_or(false))
                    {
                        kind = LitKind::Float;
                        c.bump(); // e
                        c.bump(); // sign or first digit
                        continue;
                    }
                }
            }
            c.bump();
        } else if b == b'.'
            && !hex
            && kind == LitKind::Int
            && c.peek_at(1) != Some(b'.')
            && !c.peek_at(1).map(is_ident_start).unwrap_or(false)
        {
            kind = LitKind::Float;
            c.bump();
        } else {
            break;
        }
    }
    let text = src[start..c.pos].to_string();
    // Suffix-classified floats: `1f64` has no dot but is a float.
    if kind == LitKind::Int && !hex && (text.contains("f32") || text.contains("f64")) {
        kind = LitKind::Float;
    }
    (text, kind)
}

// ---------------------------------------------------------------------
// Item-level parser
// ---------------------------------------------------------------------

/// Attribute raw text: the content between `#[` and `]` (joined tokens).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Tokens inside the brackets joined with no separator (e.g.
    /// `cfg(test)`, `derive(Debug,Clone)`).
    pub text: String,
    /// 1-based line of the `#`.
    pub line: usize,
    /// True for inner attributes (`#![...]`).
    pub inner: bool,
}

impl Attribute {
    /// True when the attribute marks test-only code (`#[cfg(test)]`,
    /// `#[test]`, or a cfg containing `test` such as `cfg(all(test,...))`).
    pub fn is_test_marker(&self) -> bool {
        self.text == "test"
            || (self.text.starts_with("cfg(") && self.text.contains("test"))
    }
}

/// Item classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// `fn`
    Fn,
    /// `mod`
    Mod,
    /// `impl`
    Impl,
    /// `struct` / `union`
    Struct,
    /// `enum`
    Enum,
    /// `trait`
    Trait,
    /// `use`
    Use,
    /// `static` / `const`
    Const,
    /// `type`
    Type,
    /// `macro_rules!` definition
    Macro,
    /// Anything else (extern blocks, stray tokens)
    Other,
}

/// Item visibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// No `pub` modifier.
    Private,
    /// Plain `pub`.
    Pub,
    /// `pub(crate)`, `pub(super)`, `pub(in ...)`.
    Restricted,
}

/// One parsed item with its nested children (for `mod`/`impl`/`trait`).
#[derive(Debug, Clone)]
pub struct Item {
    /// Classification.
    pub kind: ItemKind,
    /// Name, when the item form has one. For `impl` blocks this is the
    /// last path segment of the self type (`impl Foo<T>` → `Foo`).
    pub ident: Option<String>,
    /// For `impl Trait for Type` blocks, the trait's last path segment.
    pub trait_name: Option<String>,
    /// Visibility modifier.
    pub vis: Visibility,
    /// Outer attributes.
    pub attrs: Vec<Attribute>,
    /// 1-based line of the first token (attributes included).
    pub line: usize,
    /// Token index range (into [`File::tokens`]) covering the whole item.
    pub tokens: (usize, usize),
    /// Nested items (populated for `mod`, `impl` and `trait` bodies).
    pub children: Vec<Item>,
}

/// A parsed source file.
#[derive(Debug, Clone)]
pub struct File {
    /// Top-level items.
    pub items: Vec<Item>,
    /// The full token stream.
    pub tokens: Vec<Token>,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
}

/// Parse a source file into its item tree (the `syn::parse_file` shape).
pub fn parse_file(src: &str) -> Result<File> {
    let (tokens, comments) = tokenize(src)?;
    let mut idx = 0;
    let items = parse_items(&tokens, &mut idx, tokens.len());
    Ok(File { items, tokens, comments })
}

/// Advance past one balanced delimiter group; `idx` points at the opener.
fn skip_group(tokens: &[Token], idx: &mut usize, end: usize) {
    let open = tokens[*idx].text.clone();
    let close = match open.as_str() {
        "(" => ")",
        "[" => "]",
        "{" => "}",
        _ => {
            *idx += 1;
            return;
        }
    };
    let mut depth = 0usize;
    while *idx < end {
        let t = &tokens[*idx];
        if t.is_punct(&open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                *idx += 1;
                return;
            }
        }
        *idx += 1;
    }
}

/// Advance to the next occurrence of `what` at delimiter depth 0,
/// leaving `idx` on it. Returns false when not found before `end`.
fn seek_at_depth0(tokens: &[Token], idx: &mut usize, end: usize, what: &[&str]) -> bool {
    while *idx < end {
        let t = &tokens[*idx];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => {
                    if what.contains(&t.text.as_str()) {
                        return true;
                    }
                    skip_group(tokens, idx, end);
                    continue;
                }
                s if what.contains(&s) => return true,
                ")" | "]" | "}" => return false, // fell out of our group
                _ => {}
            }
        }
        *idx += 1;
    }
    false
}

fn parse_items(tokens: &[Token], idx: &mut usize, end: usize) -> Vec<Item> {
    let mut items = Vec::new();
    while *idx < end {
        let start = *idx;
        let start_line = tokens[start].line;

        // Attributes.
        let mut attrs = Vec::new();
        while *idx < end && tokens[*idx].is_punct("#") {
            let line = tokens[*idx].line;
            *idx += 1;
            let inner = *idx < end && tokens[*idx].is_punct("!");
            if inner {
                *idx += 1;
            }
            if *idx < end && tokens[*idx].is_punct("[") {
                let gstart = *idx + 1;
                skip_group(tokens, idx, end);
                let text: String =
                    tokens[gstart..*idx - 1].iter().map(|t| t.text.as_str()).collect();
                attrs.push(Attribute { text, line, inner });
            }
        }
        if *idx >= end {
            break;
        }

        // Visibility and modifiers.
        let mut vis = Visibility::Private;
        while *idx < end && tokens[*idx].kind == TokenKind::Ident {
            match tokens[*idx].text.as_str() {
                "pub" => {
                    *idx += 1;
                    if *idx < end && tokens[*idx].is_punct("(") {
                        vis = Visibility::Restricted;
                        skip_group(tokens, idx, end);
                    } else {
                        vis = Visibility::Pub;
                    }
                }
                "default" | "unsafe" | "async" => *idx += 1,
                "const" if *idx + 1 < end && tokens[*idx + 1].is_ident("fn") => *idx += 1,
                "extern"
                    if *idx + 1 < end
                        && tokens[*idx + 1].kind == TokenKind::Literal(LitKind::Str) =>
                {
                    *idx += 2;
                }
                _ => break,
            }
        }
        if *idx >= end {
            break;
        }

        let t = &tokens[*idx];
        let (kind, named) = if t.kind == TokenKind::Ident {
            match t.text.as_str() {
                "fn" => (ItemKind::Fn, true),
                "mod" => (ItemKind::Mod, true),
                "impl" => (ItemKind::Impl, false),
                "struct" | "union" => (ItemKind::Struct, true),
                "enum" => (ItemKind::Enum, true),
                "trait" => (ItemKind::Trait, true),
                "use" => (ItemKind::Use, false),
                "static" | "const" => (ItemKind::Const, true),
                "type" => (ItemKind::Type, true),
                "macro_rules" => (ItemKind::Macro, false),
                "extern" => (ItemKind::Other, false),
                _ => {
                    // Not an item start: skip one token (or group) and move on.
                    if matches!(t.text.as_str(), "(") {
                        skip_group(tokens, idx, end);
                    } else {
                        *idx += 1;
                    }
                    continue;
                }
            }
        } else {
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                skip_group(tokens, idx, end);
            } else {
                *idx += 1;
            }
            continue;
        };
        *idx += 1;
        // `static mut NAME`: the ident follows the mutability modifier.
        if matches!(kind, ItemKind::Const) && *idx < end && tokens[*idx].is_ident("mut") {
            *idx += 1;
        }

        let mut ident = if named && *idx < end && tokens[*idx].kind == TokenKind::Ident {
            Some(tokens[*idx].text.clone())
        } else {
            None
        };
        let header_start = *idx;

        // Find the item terminator: `;` at depth 0, or a brace body.
        let mut body = None;
        let recurse = matches!(kind, ItemKind::Mod | ItemKind::Impl | ItemKind::Trait);
        if seek_at_depth0(tokens, idx, end, &[";", "{"]) {
            if tokens[*idx].is_punct("{") {
                let open = *idx;
                skip_group(tokens, idx, end);
                body = Some((open + 1, *idx - 1));
            } else {
                *idx += 1; // consume `;`
            }
        }

        // `impl` headers: recover the self type (and trait, if any).
        let mut trait_name = None;
        if kind == ItemKind::Impl {
            let stop = body.map(|(bs, _)| bs - 1).unwrap_or(*idx);
            let (t, s) = impl_header(tokens, header_start, stop);
            trait_name = t;
            ident = s;
        }

        let children = match (recurse, body) {
            (true, Some((bs, be))) => {
                let mut ci = bs;
                parse_items(tokens, &mut ci, be)
            }
            _ => Vec::new(),
        };

        items.push(Item {
            kind,
            ident,
            trait_name,
            vis,
            attrs,
            line: start_line,
            tokens: (start, *idx),
            children,
        });
    }
    items
}

/// Recover `(trait, self type)` from the tokens of an `impl` header
/// (everything between the `impl` keyword and the body brace). Both are
/// reduced to their last path segment; generic arguments, references and
/// `where` clauses are skipped. `impl Type` yields `(None, Some(Type))`;
/// `impl Trait for Type` yields `(Some(Trait), Some(Type))`.
fn impl_header(
    tokens: &[Token],
    start: usize,
    stop: usize,
) -> (Option<String>, Option<String>) {
    let mut i = start;
    let mut angle = 0usize;
    // Leading generic parameter list `impl<...>`.
    if i < stop && tokens[i].is_punct("<") {
        let mut depth = 0usize;
        while i < stop {
            match tokens[i].text.as_str() {
                "<" | "<<" => depth += tokens[i].text.len(),
                ">" | ">>" => depth = depth.saturating_sub(tokens[i].text.len()),
                "->" | "=>" | ">=" | "<=" => {}
                _ => {}
            }
            i += 1;
            if depth == 0 {
                break;
            }
        }
    }
    let mut first: Option<String> = None; // last depth-0 segment before `for`
    let mut second: Option<String> = None; // last depth-0 segment after `for`
    let mut after_for = false;
    while i < stop {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct => match t.text.as_str() {
                "<" | "<<" => angle += t.text.len(),
                ">" | ">>" => angle = angle.saturating_sub(t.text.len()),
                "(" | "[" | "{" => skip_group(tokens, &mut i, stop),
                _ => {}
            },
            TokenKind::Ident if angle == 0 => match t.text.as_str() {
                "for" => after_for = true,
                "where" => break,
                "dyn" | "mut" => {}
                _ => {
                    let slot = if after_for { &mut second } else { &mut first };
                    *slot = Some(t.text.clone());
                }
            },
            _ => {}
        }
        if !t.is_punct("(") && !t.is_punct("[") && !t.is_punct("{") {
            i += 1;
        }
    }
    if after_for {
        (first, second)
    } else {
        (None, first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r##"
//! Module docs with `unwrap()` in them.

use std::collections::HashMap;

/// Doc comment mentioning panic!() which must not lex as a token.
pub fn alpha<'a>(x: &'a [u8]) -> f64 {
    let s = "a string with // no comment and \" quote";
    let r = r#"raw "string" here"#;
    let c = 'x';
    let esc = '\'';
    let _ = (s, r, c, esc);
    1.5e-3 + 0x1F as f64 + 2.0f64
}

mod outer {
    pub struct Thing {
        pub map: HashMap<u64, u32>,
    }

    impl Thing {
        pub fn get(&self) -> u32 {
            self.map.len() as u32
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn works() {
        assert_eq!(1 + 1, 2);
    }
}
"##;

    #[test]
    fn lexes_strings_comments_lifetimes() {
        let (tokens, comments) = tokenize(SAMPLE).unwrap();
        assert!(comments.iter().any(|c| c.text.contains("unwrap()")));
        assert!(comments.iter().any(|c| c.text.contains("panic!()")));
        // The panic! inside the doc comment must NOT appear as tokens.
        assert!(!tokens.iter().any(|t| t.is_ident("panic")));
        assert!(tokens.iter().any(|t| t.kind == TokenKind::Lifetime && t.text == "a"));
        assert!(tokens
            .iter()
            .any(|t| t.kind == TokenKind::Literal(LitKind::Str) && t.text.starts_with("r#")));
        assert!(tokens.iter().any(|t| t.kind == TokenKind::Literal(LitKind::Char)));
        assert!(tokens
            .iter()
            .any(|t| t.kind == TokenKind::Literal(LitKind::Float) && t.text == "1.5e-3"));
        assert!(tokens
            .iter()
            .any(|t| t.kind == TokenKind::Literal(LitKind::Int) && t.text == "0x1F"));
    }

    #[test]
    fn maximal_munch_punctuation() {
        let (tokens, _) = tokenize("a == b != c :: d ..= e .. f -> g").unwrap();
        let puncts: Vec<&str> = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Punct)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(puncts, vec!["==", "!=", "::", "..=", "..", "->"]);
    }

    #[test]
    fn parses_item_tree_with_nesting() {
        let file = parse_file(SAMPLE).unwrap();
        let kinds: Vec<ItemKind> = file.items.iter().map(|i| i.kind).collect();
        assert_eq!(kinds, vec![ItemKind::Use, ItemKind::Fn, ItemKind::Mod, ItemKind::Mod]);
        let alpha = &file.items[1];
        assert_eq!(alpha.ident.as_deref(), Some("alpha"));
        let outer = &file.items[2];
        assert_eq!(outer.children.len(), 2);
        assert_eq!(outer.children[0].kind, ItemKind::Struct);
        assert_eq!(outer.children[1].kind, ItemKind::Impl);
        assert_eq!(outer.children[1].children[0].ident.as_deref(), Some("get"));
        let tests = &file.items[3];
        assert!(tests.attrs.iter().any(Attribute::is_test_marker));
        assert!(tests.children[0].attrs.iter().any(Attribute::is_test_marker));
    }

    #[test]
    fn attributes_capture_text_and_kind() {
        let src = "#[derive(Debug, Clone)]\n#[cfg(all(test, feature = \"x\"))]\nstruct S;";
        let file = parse_file(src).unwrap();
        let s = &file.items[0];
        assert_eq!(s.attrs[0].text, "derive(Debug,Clone)");
        assert!(s.attrs[1].is_test_marker());
    }

    #[test]
    fn lifetime_vs_char_disambiguation() {
        let (tokens, _) = tokenize("fn f<'long>(x: &'long str) { let c = 'q'; let n = '\\n'; }")
            .unwrap();
        let lifetimes: Vec<&str> = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["long", "long"]);
        let chars = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Literal(LitKind::Char))
            .count();
        assert_eq!(chars, 2);
    }
}
