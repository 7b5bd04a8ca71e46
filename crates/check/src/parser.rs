//! Dependency-free recursive-descent parser for the subset of Rust the
//! interprocedural rules need.
//!
//! Pipeline: [`crate::lexer::blank_with`] (comments out, literals kept)
//! → [`crate::tokens::tokenize`] → balanced token *trees* (delimiter
//! groups, like `proc_macro::TokenTree`) → items with attribute/cfg
//! tracking and function bodies as [`crate::ast::Expr`] trees.
//!
//! The parser is deliberately permissive: constructs it does not model
//! (patterns, types, const generics) are skipped structurally by
//! delimiter matching, and anything unrecognized advances one token.
//! The only hard errors are unbalanced delimiters — the workspace smoke
//! test pins that every `.rs` file in the repo parses cleanly.

use crate::ast::{Cfg, Expr, File, FnItem, Item, ItemKind, UseImport};
use crate::tokens::{self, Tok, Token};

/// A parse failure. Only delimiter imbalance produces these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

/// A token or a balanced delimiter group.
#[derive(Debug, Clone)]
enum Tree {
    Tok(Token),
    Group(Group),
}

#[derive(Debug, Clone)]
struct Group {
    delim: char,
    open_line: usize,
    trees: Vec<Tree>,
}

/// Parse one source file.
pub fn parse_file(source: &str) -> Result<File, ParseError> {
    let toks = tokens::tokenize_source(source);
    let trees = build_trees(toks)?;
    Ok(File {
        items: parse_items(&trees),
    })
}

/// Group a flat token stream into balanced delimiter trees.
fn build_trees(toks: Vec<Token>) -> Result<Vec<Tree>, ParseError> {
    let mut stack: Vec<(char, usize, Vec<Tree>)> = Vec::new();
    let mut cur: Vec<Tree> = Vec::new();
    for t in toks {
        match t.tok {
            Tok::Open(d) => {
                stack.push((d, t.line, std::mem::take(&mut cur)));
            }
            Tok::Close(d) => {
                let want = match d {
                    ')' => '(',
                    ']' => '[',
                    _ => '{',
                };
                match stack.pop() {
                    Some((open, open_line, parent)) if open == want => {
                        let group = Group {
                            delim: open,
                            open_line,
                            trees: std::mem::replace(&mut cur, parent),
                        };
                        cur.push(Tree::Group(group));
                    }
                    Some((open, open_line, _)) => {
                        return Err(ParseError {
                            line: t.line,
                            msg: format!("`{d}` closes `{open}` opened on line {open_line}"),
                        });
                    }
                    None => {
                        return Err(ParseError {
                            line: t.line,
                            msg: format!("unbalanced closing `{d}`"),
                        });
                    }
                }
            }
            _ => cur.push(Tree::Tok(t)),
        }
    }
    if let Some((open, open_line, _)) = stack.pop() {
        return Err(ParseError {
            line: open_line,
            msg: format!("unclosed `{open}`"),
        });
    }
    Ok(cur)
}

// ---------------------------------------------------------------- helpers

fn tok_at(trees: &[Tree], i: usize) -> Option<&Token> {
    match trees.get(i) {
        Some(Tree::Tok(t)) => Some(t),
        _ => None,
    }
}

fn ident_at(trees: &[Tree], i: usize) -> Option<&str> {
    tok_at(trees, i).and_then(|t| t.ident())
}

fn punct_at(trees: &[Tree], i: usize, p: &str) -> bool {
    tok_at(trees, i).is_some_and(|t| t.is_punct(p))
}

fn group_at(trees: &[Tree], i: usize, delim: char) -> Option<&Group> {
    match trees.get(i) {
        Some(Tree::Group(g)) if g.delim == delim => Some(g),
        _ => None,
    }
}

/// Skip a `<…>` generic-argument run starting at the `<` in `trees[i]`.
/// Returns the index just past the matching `>`. Delimiter groups are
/// stepped over whole; `->`/`=>` are joined puncts so they never count.
fn skip_generics(trees: &[Tree], i: usize) -> usize {
    debug_assert!(punct_at(trees, i, "<"));
    let mut depth = 0i32;
    let mut j = i;
    while j < trees.len() {
        if punct_at(trees, j, "<") {
            depth += 1;
        } else if punct_at(trees, j, ">") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// Read a `::`-separated path starting at the identifier in `trees[i]`.
/// Turbofish runs (`::<T>`) are skipped. Returns the segments and the
/// index just past the path.
fn read_path(trees: &[Tree], i: usize) -> (Vec<String>, usize) {
    let mut segs = vec![ident_at(trees, i).unwrap_or_default().to_string()];
    let mut j = i + 1;
    loop {
        if punct_at(trees, j, "::") {
            if let Some(seg) = ident_at(trees, j + 1) {
                segs.push(seg.to_string());
                j += 2;
            } else if punct_at(trees, j + 1, "<") {
                j = skip_generics(trees, j + 1);
            } else {
                break;
            }
        } else {
            break;
        }
    }
    (segs, j)
}

// ------------------------------------------------------------- attributes

#[derive(Debug, Clone, Copy, Default)]
struct Attrs {
    cfg: Option<Cfg>,
    test_attr: bool,
}

/// Classify a `cfg(…)` predicate token run (the inside of the parens).
fn classify_cfg(trees: &[Tree]) -> Cfg {
    // `test` or `all(…test…)` → Test; `feature = "sanitize"` (possibly
    // under `all`) → Sanitize; everything else (`any`, `not`,
    // `target_*`) stays in scope as Other.
    let mut i = 0;
    while i < trees.len() {
        match &trees[i] {
            Tree::Tok(t) if t.is_ident("test") => return Cfg::Test,
            Tree::Tok(t) if t.is_ident("all") => {
                if let Some(g) = group_at(trees, i + 1, '(') {
                    return match classify_cfg(&g.trees) {
                        Cfg::None => Cfg::Other,
                        c => c,
                    };
                }
                i += 1;
            }
            Tree::Tok(t) if t.is_ident("feature") => {
                if punct_at(trees, i + 1, "=") {
                    if let Some(Tree::Tok(lit)) = trees.get(i + 2) {
                        if matches!(&lit.tok, Tok::Lit(s) if s == "\"sanitize\"") {
                            return Cfg::Sanitize;
                        }
                    }
                }
                return Cfg::Other;
            }
            Tree::Tok(t) if t.is_ident("any") || t.is_ident("not") => return Cfg::Other,
            _ => i += 1,
        }
    }
    Cfg::Other
}

/// Classify one attribute group (the inside of the `[...]`).
fn classify_attr(g: &Group) -> Attrs {
    let mut out = Attrs::default();
    match ident_at(&g.trees, 0) {
        Some("test") if g.trees.len() == 1 => out.test_attr = true,
        Some("cfg") => {
            if let Some(inner) = group_at(&g.trees, 1, '(') {
                out.cfg = Some(classify_cfg(&inner.trees));
            }
        }
        _ => {}
    }
    out
}

/// Consume leading attributes (`#[…]` and inner `#![…]`) at `i`.
fn parse_attrs(trees: &[Tree], mut i: usize) -> (Attrs, usize) {
    let mut acc = Attrs::default();
    while punct_at(trees, i, "#") {
        let gi = if punct_at(trees, i + 1, "!") {
            i + 2
        } else {
            i + 1
        };
        let Some(g) = group_at(trees, gi, '[') else {
            break;
        };
        let a = classify_attr(g);
        acc.test_attr |= a.test_attr;
        if let Some(cfg) = a.cfg {
            acc.cfg = Some(acc.cfg.map_or(cfg, |prev| prev.and(cfg)));
        }
        i = gi + 1;
    }
    (acc, i)
}

// ------------------------------------------------------------------ items

/// Item-position keywords that anchor qualifier lookahead.
const ITEM_ANCHORS: [&str; 5] = ["fn", "trait", "impl", "extern", "mod"];

fn parse_items(trees: &[Tree]) -> Vec<Item> {
    let mut items = Vec::new();
    let mut i = 0usize;
    while i < trees.len() {
        let (attrs, after_attrs) = parse_attrs(trees, i);
        i = after_attrs;
        let cfg = attrs.cfg.unwrap_or(Cfg::None);

        // Qualifiers: `pub(…)`, and const/unsafe/async/default only when
        // an item keyword follows within a few tokens (so `const X: u32`
        // is not mistaken for a qualified item).
        loop {
            match ident_at(trees, i) {
                Some("pub") => {
                    i += 1;
                    if group_at(trees, i, '(').is_some() {
                        i += 1;
                    }
                }
                Some("default") if looks_like_item(trees, i + 1) => i += 1,
                Some("const") | Some("unsafe") | Some("async") if looks_like_item(trees, i + 1) => {
                    i += 1;
                }
                Some("extern")
                    if matches!(tok_at(trees, i + 1), Some(t) if matches!(&t.tok, Tok::Lit(_)))
                        && ident_at(trees, i + 2) == Some("fn") =>
                {
                    i += 2; // `extern "C"` before `fn`
                }
                _ => break,
            }
        }

        let Some(kw) = ident_at(trees, i) else {
            i += 1;
            continue;
        };
        let line = tok_at(trees, i).map(|t| t.line).unwrap_or(1);
        match kw {
            "fn" => {
                let (item, ni) = parse_fn(trees, i, &attrs, cfg);
                items.push(item);
                i = ni;
            }
            "mod" => {
                let name = ident_at(trees, i + 1).unwrap_or("?").to_string();
                if let Some(g) = group_at(trees, i + 2, '{') {
                    items.push(Item {
                        kind: ItemKind::Mod {
                            name,
                            items: Some(parse_items(&g.trees)),
                        },
                        line,
                        cfg,
                    });
                    i += 3;
                } else {
                    items.push(Item {
                        kind: ItemKind::Mod { name, items: None },
                        line,
                        cfg,
                    });
                    i = skip_past_semi(trees, i + 2);
                }
            }
            "impl" => {
                let (item, ni) = parse_impl(trees, i, cfg);
                items.push(item);
                i = ni;
            }
            "trait" => {
                let name = ident_at(trees, i + 1).unwrap_or("?").to_string();
                let mut j = i + 2;
                while j < trees.len() && group_at(trees, j, '{').is_none() {
                    if punct_at(trees, j, ";") {
                        break; // trait alias
                    }
                    j += 1;
                }
                let inner = group_at(trees, j, '{')
                    .map(|g| parse_items(&g.trees))
                    .unwrap_or_default();
                items.push(Item {
                    kind: ItemKind::Trait { name, items: inner },
                    line,
                    cfg,
                });
                i = j + 1;
            }
            "use" => {
                let mut j = i + 1;
                while j < trees.len() && !punct_at(trees, j, ";") {
                    j += 1;
                }
                let mut imports = Vec::new();
                parse_use_tree(&trees[i + 1..j], &[], &mut imports);
                items.push(Item {
                    kind: ItemKind::Use { imports },
                    line,
                    cfg,
                });
                i = j + 1;
            }
            "struct" | "enum" | "union" => {
                let name = ident_at(trees, i + 1).map(str::to_string);
                items.push(Item {
                    kind: ItemKind::Other {
                        keyword: kw.to_string(),
                        name,
                    },
                    line,
                    cfg,
                });
                // Body `{…}` ends the item; tuple struct / unit struct
                // ends at `;`.
                let mut j = i + 1;
                loop {
                    if j >= trees.len() || punct_at(trees, j, ";") {
                        i = j + 1;
                        break;
                    }
                    if group_at(trees, j, '{').is_some() {
                        i = j + 1;
                        break;
                    }
                    j += 1;
                }
            }
            "macro_rules" => {
                items.push(Item {
                    kind: ItemKind::Other {
                        keyword: kw.to_string(),
                        name: ident_at(trees, i + 2).map(str::to_string),
                    },
                    line,
                    cfg,
                });
                // `macro_rules` `!` `name` `{…}`
                i += 3;
                if matches!(trees.get(i), Some(Tree::Group(_))) {
                    i += 1;
                }
            }
            "extern" => {
                // `extern crate x;` or an `extern "C" { … }` block.
                let mut j = i + 1;
                while j < trees.len() && !punct_at(trees, j, ";") {
                    if let Some(g) = group_at(trees, j, '{') {
                        items.extend(parse_items(&g.trees));
                        j += 1;
                        break;
                    }
                    j += 1;
                }
                i = if punct_at(trees, j, ";") { j + 1 } else { j };
            }
            "static" | "const" | "type" => {
                items.push(Item {
                    kind: ItemKind::Other {
                        keyword: kw.to_string(),
                        name: ident_at(trees, i + 1)
                            .filter(|n| *n != "mut")
                            .or_else(|| ident_at(trees, i + 2))
                            .map(str::to_string),
                    },
                    line,
                    cfg,
                });
                i = skip_past_semi(trees, i + 1);
            }
            _ => {
                // Item-position macro invocation (`include!(…);`) or
                // something unmodeled: advance structurally.
                let (_, after_path) = read_path(trees, i);
                if punct_at(trees, after_path, "!")
                    && matches!(trees.get(after_path + 1), Some(Tree::Group(_)))
                {
                    i = after_path + 2;
                } else {
                    i += 1;
                }
            }
        }
    }
    items
}

/// Does an item keyword appear within the next couple of trees? Guards
/// qualifier consumption (`const fn` vs `const X: u32 = …`).
fn looks_like_item(trees: &[Tree], i: usize) -> bool {
    for k in 0..3 {
        match ident_at(trees, i + k) {
            Some(w) if ITEM_ANCHORS.contains(&w) => return true,
            Some("const") | Some("unsafe") | Some("async") | Some("default") => continue,
            Some(_) | None => {
                // `extern "C" fn` has a literal between.
                if matches!(tok_at(trees, i + k), Some(t) if matches!(&t.tok, Tok::Lit(_))) {
                    continue;
                }
                return false;
            }
        }
    }
    false
}

/// Advance past the next top-level `;`.
fn skip_past_semi(trees: &[Tree], mut i: usize) -> usize {
    while i < trees.len() && !punct_at(trees, i, ";") {
        i += 1;
    }
    i + 1
}

fn parse_fn(trees: &[Tree], i: usize, attrs: &Attrs, cfg: Cfg) -> (Item, usize) {
    let line = tok_at(trees, i).map(|t| t.line).unwrap_or(1);
    let name = ident_at(trees, i + 1).unwrap_or("?").to_string();
    let mut j = i + 2;
    if punct_at(trees, j, "<") {
        j = skip_generics(trees, j);
    }
    // Parameter list.
    if group_at(trees, j, '(').is_some() {
        j += 1;
    }
    // Return type / where clause, up to the body or `;`.
    let mut body = None;
    while j < trees.len() {
        if let Some(g) = group_at(trees, j, '{') {
            body = Some(parse_exprs(&g.trees));
            j += 1;
            break;
        }
        if punct_at(trees, j, ";") {
            j += 1;
            break;
        }
        j += 1;
    }
    (
        Item {
            kind: ItemKind::Fn(FnItem {
                name,
                line,
                body,
                has_test_attr: attrs.test_attr,
            }),
            line,
            cfg,
        },
        j,
    )
}

fn parse_impl(trees: &[Tree], i: usize, cfg: Cfg) -> (Item, usize) {
    let line = tok_at(trees, i).map(|t| t.line).unwrap_or(1);
    let mut j = i + 1;
    if punct_at(trees, j, "<") {
        j = skip_generics(trees, j);
    }
    // Collect path idents until the body; `for` splits trait from type.
    let mut before_for: Vec<String> = Vec::new();
    let mut after_for: Vec<String> = Vec::new();
    let mut saw_for = false;
    let mut body = None;
    while j < trees.len() {
        if let Some(g) = group_at(trees, j, '{') {
            body = Some(parse_items(&g.trees));
            j += 1;
            break;
        }
        if punct_at(trees, j, "<") {
            j = skip_generics(trees, j);
            continue;
        }
        match ident_at(trees, j) {
            Some("for") => saw_for = true,
            Some("where") => {
                // Skip the where clause structurally.
                while j < trees.len() && group_at(trees, j, '{').is_none() {
                    j += 1;
                }
                continue;
            }
            Some(seg) if seg != "dyn" && seg != "mut" => {
                if saw_for {
                    after_for.push(seg.to_string());
                } else {
                    before_for.push(seg.to_string());
                }
            }
            _ => {}
        }
        j += 1;
    }
    let (trait_name, type_path) = if saw_for {
        (before_for.last().cloned(), after_for)
    } else {
        (None, before_for)
    };
    (
        Item {
            kind: ItemKind::Impl {
                type_name: type_path.last().cloned().unwrap_or_else(|| "?".to_string()),
                trait_name,
                items: body.unwrap_or_default(),
            },
            line,
            cfg,
        },
        j,
    )
}

/// Expand a `use` tree into flat imports. `prefix` is the path so far.
fn parse_use_tree(trees: &[Tree], prefix: &[String], out: &mut Vec<UseImport>) {
    // Split on top-level commas (inside `{…}` groups recursion handles
    // nesting).
    let mut start = 0usize;
    let mut k = 0usize;
    while k <= trees.len() {
        let at_comma = k < trees.len() && punct_at(trees, k, ",");
        if at_comma || k == trees.len() {
            parse_one_use(&trees[start..k], prefix, out);
            start = k + 1;
        }
        k += 1;
    }
}

fn parse_one_use(trees: &[Tree], prefix: &[String], out: &mut Vec<UseImport>) {
    if trees.is_empty() {
        return;
    }
    let mut path = prefix.to_vec();
    let mut i = 0usize;
    let mut alias: Option<String> = None;
    while i < trees.len() {
        if let Some(g) = group_at(trees, i, '{') {
            parse_use_tree(&g.trees, &path, out);
            return;
        }
        if punct_at(trees, i, "*") {
            out.push(UseImport {
                path,
                alias: String::new(),
                glob: true,
            });
            return;
        }
        match ident_at(trees, i) {
            Some("as") => {
                alias = ident_at(trees, i + 1).map(str::to_string);
                i += 2;
            }
            Some("self") if !path.is_empty() => {
                // `use a::b::{self}` imports `b` itself.
                i += 1;
            }
            Some(seg) => {
                path.push(seg.to_string());
                i += 1;
            }
            None => i += 1, // `::` separators
        }
    }
    if path.is_empty() {
        return;
    }
    let alias = alias.unwrap_or_else(|| path.last().cloned().unwrap_or_default());
    out.push(UseImport {
        path,
        alias,
        glob: false,
    });
}

// ------------------------------------------------------------ expressions

/// Keywords that terminate/interrupt expressions and can never end one
/// (drives the `expr[…]` vs `[array]` heuristic).
fn ends_expr_ident(word: &str) -> bool {
    !matches!(
        word,
        "if" | "else"
            | "match"
            | "return"
            | "break"
            | "continue"
            | "in"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "unsafe"
            | "async"
            | "dyn"
            | "as"
            | "where"
            | "for"
            | "while"
            | "loop"
            | "fn"
            | "impl"
            | "yield"
    )
}

fn parse_exprs(trees: &[Tree]) -> Vec<Expr> {
    let mut out = Vec::new();
    let mut i = 0usize;
    // Does the previous token/group end an expression? (`x[i]` indexes,
    // `= [1, 2]` is an array literal.)
    let mut prev_expr = false;
    while i < trees.len() {
        match &trees[i] {
            Tree::Tok(t) => match &t.tok {
                Tok::Punct(p) if p == "#" => {
                    let gi = if punct_at(trees, i + 1, "!") {
                        i + 2
                    } else {
                        i + 1
                    };
                    let Some(g) = group_at(trees, gi, '[') else {
                        i += 1;
                        prev_expr = false;
                        continue;
                    };
                    let attrs = classify_attr(g);
                    i = gi + 1;
                    prev_expr = false;
                    if let Some(cfg @ (Cfg::Test | Cfg::Sanitize)) = attrs.cfg {
                        // Gate the next statement: a bare block, or
                        // everything up to the next top-level `;`.
                        if let Some(bg) = group_at(trees, i, '{') {
                            out.push(Expr::Gated {
                                cfg,
                                body: parse_exprs(&bg.trees),
                            });
                            i += 1;
                        } else {
                            let start = i;
                            while i < trees.len() && !punct_at(trees, i, ";") {
                                i += 1;
                            }
                            out.push(Expr::Gated {
                                cfg,
                                body: parse_exprs(&trees[start..i]),
                            });
                        }
                    }
                }
                Tok::Ident(k) if k == "for" || k == "while" => {
                    let kwline = t.line;
                    let mut j = i + 1;
                    while j < trees.len() && group_at(trees, j, '{').is_none() {
                        j += 1;
                    }
                    // Header expressions (the iterator / condition).
                    out.extend(parse_exprs(&trees[i + 1..j]));
                    if let Some(g) = group_at(trees, j, '{') {
                        out.push(Expr::Loop {
                            line: kwline,
                            body: parse_exprs(&g.trees),
                        });
                        i = j + 1;
                    } else {
                        i = j;
                    }
                    prev_expr = true;
                }
                Tok::Ident(k) if k == "loop" => {
                    if let Some(g) = group_at(trees, i + 1, '{') {
                        out.push(Expr::Loop {
                            line: t.line,
                            body: parse_exprs(&g.trees),
                        });
                        i += 2;
                    } else {
                        i += 1;
                    }
                    prev_expr = true;
                }
                Tok::Ident(k) if k == "fn" => {
                    // Nested fn: its body is attributed to the enclosing
                    // fn (documented over-approximation).
                    let mut j = i + 1;
                    while j < trees.len() && group_at(trees, j, '{').is_none() {
                        if punct_at(trees, j, ";") {
                            break;
                        }
                        j += 1;
                    }
                    if let Some(g) = group_at(trees, j, '{') {
                        out.push(Expr::Group {
                            children: parse_exprs(&g.trees),
                        });
                        i = j + 1;
                    } else {
                        i = j + 1;
                    }
                    prev_expr = false;
                }
                Tok::Ident(k) if !ends_expr_ident(k) => {
                    i += 1;
                    prev_expr = false;
                }
                Tok::Ident(_) => {
                    let (path, j) = read_path(trees, i);
                    let last_line = tok_at(trees, j.saturating_sub(1))
                        .map(|t| t.line)
                        .unwrap_or(t.line);
                    if let Some(g) = group_at(trees, j, '(') {
                        out.push(Expr::Call {
                            path,
                            line: last_line,
                            args: parse_exprs(&g.trees),
                        });
                        i = j + 1;
                    } else if let (true, Some(Tree::Group(g))) =
                        (punct_at(trees, j, "!"), trees.get(j + 1))
                    {
                        out.push(Expr::MacroCall {
                            name: path.last().cloned().unwrap_or_default(),
                            line: last_line,
                            args: parse_exprs(&g.trees),
                        });
                        i = j + 2;
                    } else {
                        out.push(Expr::PathRef {
                            path,
                            line: last_line,
                        });
                        i = j;
                    }
                    prev_expr = true;
                }
                Tok::Punct(p) if p == "." => {
                    if let Some(name) = ident_at(trees, i + 1) {
                        let mut j = i + 2;
                        if punct_at(trees, j, "::") && punct_at(trees, j + 1, "<") {
                            j = skip_generics(trees, j + 1);
                        }
                        if let Some(g) = group_at(trees, j, '(') {
                            out.push(Expr::MethodCall {
                                name: name.to_string(),
                                line: tok_at(trees, i + 1).map(|t| t.line).unwrap_or(t.line),
                                args: parse_exprs(&g.trees),
                            });
                            i = j + 1;
                        } else {
                            i += 2; // field access / `.await`
                        }
                    } else {
                        i += 1; // tuple index `.0`
                        if matches!(tok_at(trees, i), Some(t) if matches!(&t.tok, Tok::Lit(_))) {
                            i += 1;
                        }
                    }
                    prev_expr = true;
                }
                Tok::Punct(p) if (p == "|" || p == "||") && !prev_expr => {
                    // Closure. Find the parameter-closing `|`, then take
                    // the rest of this nesting level (up to `,`/`;`) as
                    // the body.
                    let body_start = if p == "||" {
                        i + 1
                    } else {
                        let mut j = i + 1;
                        while j < trees.len()
                            && !punct_at(trees, j, "|")
                            && !punct_at(trees, j, ";")
                        {
                            j += 1;
                        }
                        if !punct_at(trees, j, "|") {
                            i += 1;
                            prev_expr = false;
                            continue;
                        }
                        j + 1
                    };
                    let mut end = body_start;
                    while end < trees.len()
                        && !punct_at(trees, end, ",")
                        && !punct_at(trees, end, ";")
                    {
                        end += 1;
                    }
                    out.push(Expr::Closure {
                        line: t.line,
                        body: parse_exprs(&trees[body_start..end]),
                    });
                    i = end;
                    prev_expr = true;
                }
                Tok::Punct(p) => {
                    prev_expr = p == "?";
                    i += 1;
                }
                Tok::Lit(_) => {
                    i += 1;
                    prev_expr = true;
                }
                Tok::Lifetime(_) => {
                    i += 1;
                    prev_expr = false;
                }
                Tok::Open(_) | Tok::Close(_) => {
                    // Never appears: build_trees folded delimiters.
                    i += 1;
                }
            },
            Tree::Group(g) => {
                let children = parse_exprs(&g.trees);
                if g.delim == '[' && prev_expr {
                    out.push(Expr::Index {
                        line: g.open_line,
                        children,
                    });
                } else {
                    out.push(Expr::Group { children });
                }
                // `(…)`, `{…}`, `[…]` all end an expression.
                prev_expr = true;
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;

    fn file(src: &str) -> File {
        parse_file(src).expect("parse")
    }

    fn first_fn(f: &File) -> &FnItem {
        f.items
            .iter()
            .find_map(|i| match &i.kind {
                ItemKind::Fn(f) => Some(f),
                _ => None,
            })
            .expect("a fn")
    }

    fn flat<'e>(exprs: &'e [Expr], out: &mut Vec<&'e Expr>) {
        for e in exprs {
            out.push(e);
            flat(e.children(), out);
        }
    }

    fn all_nodes(f: &FnItem) -> Vec<&Expr> {
        let mut v = Vec::new();
        flat(f.body.as_deref().unwrap_or(&[]), &mut v);
        v
    }

    #[test]
    fn fn_with_call_and_method() {
        let f = file("fn f(x: &[f64]) -> f64 { helper(x).iter().sum() }");
        let nodes = all_nodes(first_fn(&f));
        assert!(nodes
            .iter()
            .any(|e| matches!(e, Expr::Call { path, .. } if path == &["helper"])));
        assert!(nodes
            .iter()
            .any(|e| matches!(e, Expr::MethodCall { name, .. } if name == "sum")));
    }

    #[test]
    fn loops_nest_and_index_detected() {
        let f = file("fn f(a: &[f64]) { for i in 0..a.len() { let x = a[i]; use_it(x); } }");
        let nodes = all_nodes(first_fn(&f));
        let the_loop = nodes
            .iter()
            .find(|e| matches!(e, Expr::Loop { .. }))
            .unwrap();
        let mut inner = Vec::new();
        flat(the_loop.children(), &mut inner);
        assert!(inner.iter().any(|e| matches!(e, Expr::Index { .. })));
        assert!(inner
            .iter()
            .any(|e| matches!(e, Expr::Call { path, .. } if path == &["use_it"])));
    }

    #[test]
    fn array_literal_is_not_indexing() {
        let f = file("fn f() { let a = [1, 2, 3]; g(&a); }");
        assert!(!all_nodes(first_fn(&f))
            .iter()
            .any(|e| matches!(e, Expr::Index { .. })));
    }

    #[test]
    fn macro_calls_and_paths() {
        let f = file("fn f() { panic!(\"boom {}\", x); std::mem::drop(y); }");
        let nodes = all_nodes(first_fn(&f));
        assert!(nodes
            .iter()
            .any(|e| matches!(e, Expr::MacroCall { name, .. } if name == "panic")));
        assert!(nodes
            .iter()
            .any(|e| matches!(e, Expr::Call { path, .. } if path == &["std", "mem", "drop"])));
    }

    #[test]
    fn closures_are_marked() {
        let f = file("fn f(xs: &[u32]) -> Vec<u32> { xs.iter().map(|x| double(*x)).collect() }");
        let nodes = all_nodes(first_fn(&f));
        assert!(nodes.iter().any(|e| matches!(e, Expr::Closure { .. })));
        assert!(nodes
            .iter()
            .any(|e| matches!(e, Expr::Call { path, .. } if path == &["double"])));
    }

    #[test]
    fn cfg_gates_items_and_statements() {
        let src = "#[cfg(test)]\nmod tests { fn t() {} }\n\
                   fn live() { #[cfg(feature = \"sanitize\")] check_all(); real(); }\n";
        let f = file(src);
        assert!(matches!(
            f.items
                .iter()
                .find(|i| matches!(i.kind, ItemKind::Mod { .. })),
            Some(Item { cfg: Cfg::Test, .. })
        ));
        let live = first_fn(&f);
        let nodes = all_nodes(live);
        let gated = nodes
            .iter()
            .find(|e| {
                matches!(
                    e,
                    Expr::Gated {
                        cfg: Cfg::Sanitize,
                        ..
                    }
                )
            })
            .expect("gated stmt");
        let mut inner = Vec::new();
        flat(gated.children(), &mut inner);
        assert!(inner
            .iter()
            .any(|e| matches!(e, Expr::Call { path, .. } if path == &["check_all"])));
        assert!(nodes
            .iter()
            .any(|e| matches!(e, Expr::Call { path, .. } if path == &["real"])));
    }

    #[test]
    fn impl_blocks_carry_type_and_trait() {
        let src = "impl Display for Mat { fn fmt(&self) {} }\nimpl Mat { fn new() -> Mat { Mat } }";
        let f = file(src);
        let impls: Vec<_> = f
            .items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Impl {
                    type_name,
                    trait_name,
                    items,
                } => Some((type_name.clone(), trait_name.clone(), items.len())),
                _ => None,
            })
            .collect();
        assert_eq!(impls[0], ("Mat".into(), Some("Display".into()), 1));
        assert_eq!(impls[1], ("Mat".into(), None, 1));
    }

    #[test]
    fn use_trees_flatten() {
        let f = file("use crate::par::{evaluate, LikelihoodValue as LV};\nuse slim_linalg::*;\n");
        let imports: Vec<_> = f
            .items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Use { imports } => Some(imports.clone()),
                _ => None,
            })
            .flatten()
            .collect();
        assert!(imports
            .iter()
            .any(|u| u.alias == "evaluate" && u.path == ["crate", "par", "evaluate"]));
        assert!(imports
            .iter()
            .any(|u| u.alias == "LV" && u.path.last().unwrap() == "LikelihoodValue"));
        assert!(imports.iter().any(|u| u.glob && u.path == ["slim_linalg"]));
    }

    #[test]
    fn unbalanced_delimiters_error() {
        assert!(parse_file("fn f() { (").is_err());
        assert!(parse_file("fn f() } ").is_err());
    }

    #[test]
    fn const_item_is_not_a_qualifier() {
        let f = file("const N: usize = 61;\nconst fn k() -> u32 { 1 }\n");
        let names: Vec<_> = f
            .items
            .iter()
            .filter_map(|i| match &i.kind {
                ItemKind::Other { keyword, name } if keyword == "const" => name.clone(),
                ItemKind::Fn(f) => Some(format!("fn:{}", f.name)),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["N".to_string(), "fn:k".to_string()]);
    }

    #[test]
    fn ordering_paths_surface_as_pathrefs() {
        let f = file("fn f(a: &AtomicU64) { a.store(1, Ordering::Relaxed); }");
        let nodes = all_nodes(first_fn(&f));
        assert!(nodes
            .iter()
            .any(|e| matches!(e, Expr::PathRef { path, .. } if path == &["Ordering", "Relaxed"])));
    }
}
