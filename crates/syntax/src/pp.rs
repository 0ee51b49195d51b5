//! A lightweight C preprocessor.
//!
//! Supports `#include` (with an in-memory file provider so corpus programs
//! need no disk), object- and function-like `#define` (including `#`
//! stringize and `##` paste), `#undef`, the conditional family
//! (`#if`/`#ifdef`/`#ifndef`/`#elif`/`#else`/`#endif` with `defined`),
//! `#error` and `#pragma`. Tokens produced by macro expansion keep the span
//! of the macro-body token they came from, so diagnostics can point at macro
//! definitions the way LCLint's do.

use crate::error::{Result, SyntaxError};
use crate::lexer::{ControlComment, Lexer};
use crate::span::{FileId, SourceMap, Span};
use crate::token::{Punct, Token, TokenKind};
use std::collections::HashMap;
use std::sync::Arc;

/// Supplies file contents to the preprocessor.
pub trait FileProvider {
    /// Returns the contents of `name`, or `None` if unavailable.
    fn read_file(&self, name: &str) -> Option<String>;
}

/// An in-memory file provider backed by a map from name to contents.
#[derive(Debug, Clone, Default)]
pub struct MemoryProvider {
    files: HashMap<String, String>,
}

impl MemoryProvider {
    /// Creates an empty provider.
    pub fn new() -> Self {
        MemoryProvider::default()
    }

    /// Adds (or replaces) a file.
    pub fn insert(&mut self, name: impl Into<String>, text: impl Into<String>) -> &mut Self {
        self.files.insert(name.into(), text.into());
        self
    }
}

impl FileProvider for MemoryProvider {
    fn read_file(&self, name: &str) -> Option<String> {
        self.files.get(name).cloned()
    }
}

/// A provider over the caller's `(name, text)` pairs, borrowed rather
/// than copied: the only copy of a text is the one the source map keeps
/// for a file the preprocessor actually reads. A later pair (or
/// [`BorrowedProvider::insert`]) wins over an earlier one with the same
/// name, as with [`MemoryProvider::insert`].
#[derive(Debug, Clone, Default)]
pub struct BorrowedProvider<'a> {
    files: HashMap<&'a str, &'a str>,
}

impl<'a> BorrowedProvider<'a> {
    /// Creates a provider over `files`.
    pub fn new(files: &'a [(String, String)]) -> Self {
        let mut p = BorrowedProvider { files: HashMap::with_capacity(files.len()) };
        for (n, t) in files {
            p.insert(n, t);
        }
        p
    }

    /// Adds (or replaces) a file.
    pub fn insert(&mut self, name: &'a str, text: &'a str) -> &mut Self {
        self.files.insert(name, text);
        self
    }
}

impl FileProvider for BorrowedProvider<'_> {
    fn read_file(&self, name: &str) -> Option<String> {
        self.files.get(name).map(|t| (*t).to_owned())
    }
}

impl FileProvider for HashMap<String, String> {
    fn read_file(&self, name: &str) -> Option<String> {
        self.get(name).cloned()
    }
}

/// Reads files from disk, resolving relative names against search paths.
#[derive(Debug, Clone, Default)]
pub struct DiskProvider {
    /// Directories searched in order.
    pub search_paths: Vec<std::path::PathBuf>,
}

impl DiskProvider {
    /// Creates a provider with the given search paths.
    pub fn new(search_paths: Vec<std::path::PathBuf>) -> Self {
        DiskProvider { search_paths }
    }
}

impl FileProvider for DiskProvider {
    fn read_file(&self, name: &str) -> Option<String> {
        let p = std::path::Path::new(name);
        if p.is_absolute() {
            return std::fs::read_to_string(p).ok();
        }
        for dir in &self.search_paths {
            if let Ok(text) = std::fs::read_to_string(dir.join(name)) {
                return Some(text);
            }
        }
        std::fs::read_to_string(name).ok()
    }
}

/// A defined macro.
#[derive(Debug, Clone, PartialEq)]
struct Macro {
    /// `Some(params)` for function-like macros.
    params: Option<Vec<String>>,
    /// Replacement tokens.
    body: Vec<Token>,
}

/// A macro table: what a preprocess has defined so far.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Macros(HashMap<String, Macro>);

impl Macros {
    /// True when every macro is object-like. Expanding a token run then
    /// replaces names one by one and never reads past a name, so the run
    /// expands the same when it is split at any token boundary.
    pub fn object_like(&self) -> bool {
        self.0.values().all(|m| m.params.is_none())
    }
}

/// Result of preprocessing: a token stream ready for parsing plus the
/// control comments collected from every file.
#[derive(Debug, Clone)]
pub struct PpOutput {
    /// Expanded tokens (terminated by `Eof`).
    pub tokens: Vec<Token>,
    /// Suppression control comments from all files: the main file's first,
    /// then each header's as it is included.
    pub controls: Vec<ControlComment>,
    /// The macro table the preprocess ended with; `None` when empty.
    pub macros: Option<Arc<Macros>>,
    /// Where the main file's last directive line ends (the end of its last
    /// token); 0 when the main file has no directive.
    pub directive_end: u32,
}

/// Where [`preprocess_tail`] starts: right after a token of the main file
/// that a whole-file preprocess emitted as it was.
#[derive(Debug, Clone, Copy)]
pub struct TailStart<'a> {
    /// The byte offset right after that token; above `directive_end`.
    pub offset: usize,
    /// The token's span, which ends the output when the tail yields none.
    pub prev: Span,
    /// The macro table the whole-file preprocess ended with.
    pub macros: Option<&'a Arc<Macros>>,
    /// That preprocess's [`PpOutput::directive_end`].
    pub directive_end: u32,
}

/// State of one conditional-compilation level.
#[derive(Debug, Clone, Copy)]
struct Cond {
    /// Tokens in this region are emitted.
    active: bool,
    /// Some branch at this level has already been taken.
    taken: bool,
    /// The enclosing region was active.
    parent_active: bool,
}

const MAX_INCLUDE_DEPTH: usize = 64;
const MAX_EXPANSION_DEPTH: usize = 128;

/// The preprocessor driver.
pub struct Preprocessor<'p> {
    provider: &'p dyn FileProvider,
    macros: Arc<Macros>,
    out: Vec<Token>,
    controls: Vec<ControlComment>,
    include_stack: Vec<String>,
    directive_end: u32,
}

impl<'p> Preprocessor<'p> {
    /// Creates a preprocessor reading files from `provider`.
    pub fn new(provider: &'p dyn FileProvider) -> Self {
        Preprocessor {
            provider,
            macros: Arc::default(),
            out: Vec::new(),
            controls: Vec::new(),
            include_stack: Vec::new(),
            directive_end: 0,
        }
    }

    /// Defines an object-like macro before processing (like `-D name=value`).
    pub fn predefine(&mut self, name: &str, value: &str) {
        let toks = Lexer::tokenize(value, crate::span::FileId::SYNTHETIC)
            .map(|(mut t, _)| {
                t.pop(); // drop Eof
                t
            })
            .unwrap_or_default();
        Arc::make_mut(&mut self.macros)
            .0
            .insert(name.to_owned(), Macro { params: None, body: toks });
    }

    /// Preprocesses `main_name`, registering every file read in `sm`.
    ///
    /// # Errors
    ///
    /// Returns an error for unreadable includes, malformed directives,
    /// `#error` directives in active regions, and lexing failures.
    pub fn preprocess(mut self, main_name: &str, sm: &mut SourceMap) -> Result<PpOutput> {
        self.process_file(main_name, sm, Span::synthetic())?;
        Ok(self.finish(Span::default()))
    }

    /// The output so far, ended by an `Eof` at the last token's span, or at
    /// `before` when there is none.
    fn finish(mut self, before: Span) -> PpOutput {
        let end_span = self.out.last().map_or(before, |t| t.span);
        self.out.push(Token::eof(end_span));
        PpOutput {
            tokens: self.out,
            controls: self.controls,
            macros: (!self.macros.0.is_empty()).then_some(self.macros),
            directive_end: self.directive_end,
        }
    }

    fn process_file(&mut self, name: &str, sm: &mut SourceMap, include_site: Span) -> Result<()> {
        if self.include_stack.len() >= MAX_INCLUDE_DEPTH {
            return Err(SyntaxError::new(
                format!("include depth limit exceeded at `{name}`"),
                include_site,
            ));
        }
        if self.include_stack.iter().any(|n| n == name) {
            // Cycle without include guards; silently ignore (guards normally
            // prevent this, and erroring would punish benign self-includes).
            return Ok(());
        }
        let text = self.provider.read_file(name).ok_or_else(|| {
            SyntaxError::new(format!("cannot open include file `{name}`"), include_site)
        })?;
        let file_id = sm.add_file(name, text);
        let (tokens, controls) = Lexer::tokenize(sm.text(file_id), file_id)?;
        self.controls.extend(controls);
        self.include_stack.push(name.to_owned());
        let result = self.process_tokens(&tokens, sm);
        self.include_stack.pop();
        result
    }

    fn process_tokens(&mut self, tokens: &[Token], sm: &mut SourceMap) -> Result<()> {
        let mut conds: Vec<Cond> = Vec::new();
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if t.kind == TokenKind::Eof {
                break;
            }
            if t.kind.is_punct(Punct::Hash) && t.first_on_line {
                let line_end = Self::line_end(tokens, i + 1);
                self.directive(&tokens[i + 1..line_end], sm, &mut conds, t.span)?;
                if self.include_stack.len() == 1 {
                    self.directive_end = tokens[line_end - 1].span.end;
                }
                i = line_end;
                continue;
            }
            let active = conds.iter().all(|c| c.active);
            let run_end = Self::run_end(tokens, i);
            if active {
                let expanded = self.expand(&tokens[i..run_end], &mut Vec::new(), 0)?;
                self.out.extend(expanded);
            }
            i = run_end;
        }
        if !conds.is_empty() {
            return Err(SyntaxError::new(
                "unterminated conditional directive",
                tokens.last().map(|t| t.span).unwrap_or_default(),
            ));
        }
        Ok(())
    }

    /// Index one past the last token of the logical line starting at `start`.
    fn line_end(tokens: &[Token], start: usize) -> usize {
        let mut j = start;
        while j < tokens.len() && !tokens[j].first_on_line && tokens[j].kind != TokenKind::Eof {
            j += 1;
        }
        j
    }

    /// Index of the next directive start (or Eof) at or after `start + 1`.
    fn run_end(tokens: &[Token], start: usize) -> usize {
        let mut j = start + 1;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.kind == TokenKind::Eof || (t.kind.is_punct(Punct::Hash) && t.first_on_line) {
                break;
            }
            j += 1;
        }
        j
    }

    fn directive(
        &mut self,
        line: &[Token],
        sm: &mut SourceMap,
        conds: &mut Vec<Cond>,
        hash_span: Span,
    ) -> Result<()> {
        let name = match line.first() {
            None => return Ok(()), // null directive `#`
            Some(t) => match &t.kind {
                TokenKind::Ident(s) => s.clone(),
                TokenKind::Kw(k) => k.as_str().to_owned(),
                _ => {
                    return Err(SyntaxError::new("malformed preprocessor directive", t.span));
                }
            },
        };
        let active = conds.iter().all(|c| c.active);
        let rest = &line[1..];
        match name.as_str() {
            "ifdef" | "ifndef" => {
                let defined = rest
                    .first()
                    .and_then(|t| t.kind.ident().map(|s| self.macros.0.contains_key(s)))
                    .unwrap_or(false);
                let cond_true = if name == "ifdef" { defined } else { !defined };
                conds.push(Cond {
                    active: active && cond_true,
                    taken: cond_true,
                    parent_active: active,
                });
            }
            "if" => {
                let v = if active { self.eval_condition(rest)? } else { 0 };
                conds.push(Cond { active: active && v != 0, taken: v != 0, parent_active: active });
            }
            "elif" => {
                let c = conds
                    .last_mut()
                    .ok_or_else(|| SyntaxError::new("#elif without matching #if", hash_span))?;
                if c.taken || !c.parent_active {
                    c.active = false;
                } else {
                    let parent = c.parent_active;
                    // Evaluate with current macro state.
                    let v = self.eval_condition(rest)?;
                    let c = conds.last_mut().expect("checked above");
                    c.active = parent && v != 0;
                    c.taken = v != 0;
                }
            }
            "else" => {
                let c = conds
                    .last_mut()
                    .ok_or_else(|| SyntaxError::new("#else without matching #if", hash_span))?;
                c.active = c.parent_active && !c.taken;
                c.taken = true;
            }
            "endif" => {
                conds
                    .pop()
                    .ok_or_else(|| SyntaxError::new("#endif without matching #if", hash_span))?;
            }
            "define" if active => self.define(rest, hash_span)?,
            "undef" if active => {
                if let Some(n) = rest.first().and_then(|t| t.kind.ident()) {
                    Arc::make_mut(&mut self.macros).0.remove(n);
                }
            }
            "include" if active => {
                let target = match rest.first().map(|t| &t.kind) {
                    Some(TokenKind::Str(s)) => s.clone(),
                    Some(TokenKind::HeaderName(h)) => h.clone(),
                    _ => {
                        return Err(SyntaxError::new("malformed #include", hash_span));
                    }
                };
                self.process_file(&target, sm, hash_span)?;
            }
            "error" if active => {
                let msg: Vec<String> = rest.iter().map(|t| t.kind.to_string()).collect();
                return Err(SyntaxError::new(format!("#error {}", msg.join(" ")), hash_span));
            }
            "pragma" | "line" => {}
            _ if !active => {}
            other => {
                return Err(SyntaxError::new(
                    format!("unknown preprocessor directive `#{other}`"),
                    hash_span,
                ));
            }
        }
        Ok(())
    }

    fn define(&mut self, rest: &[Token], hash_span: Span) -> Result<()> {
        let (name_tok, after) = rest
            .split_first()
            .ok_or_else(|| SyntaxError::new("#define requires a name", hash_span))?;
        let name = name_tok
            .kind
            .ident()
            .ok_or_else(|| SyntaxError::new("#define requires an identifier", name_tok.span))?
            .to_owned();
        // Function-like only if `(` immediately follows the name (no space).
        let function_like =
            matches!(after.first(), Some(t) if t.kind.is_punct(Punct::LParen) && !t.leading_space);
        if function_like {
            let mut params = Vec::new();
            let mut j = 1;
            if after.get(j).map(|t| t.kind.is_punct(Punct::RParen)) != Some(true) {
                loop {
                    let p = after.get(j).ok_or_else(|| {
                        SyntaxError::new("unterminated macro parameter list", name_tok.span)
                    })?;
                    let pn = p
                        .kind
                        .ident()
                        .ok_or_else(|| SyntaxError::new("expected macro parameter name", p.span))?;
                    params.push(pn.to_owned());
                    j += 1;
                    match after.get(j).map(|t| &t.kind) {
                        Some(TokenKind::Punct(Punct::Comma)) => j += 1,
                        Some(TokenKind::Punct(Punct::RParen)) => break,
                        _ => {
                            return Err(SyntaxError::new(
                                "expected `,` or `)` in macro parameter list",
                                p.span,
                            ));
                        }
                    }
                }
            }
            let body = after[j + 1..].to_vec();
            Arc::make_mut(&mut self.macros).0.insert(name, Macro { params: Some(params), body });
        } else {
            Arc::make_mut(&mut self.macros)
                .0
                .insert(name, Macro { params: None, body: after.to_vec() });
        }
        Ok(())
    }

    /// Expands a run of tokens. `hide` is the stack of macro names currently
    /// being expanded (prevents recursion).
    fn expand(&self, tokens: &[Token], hide: &mut Vec<String>, depth: usize) -> Result<Vec<Token>> {
        if depth > MAX_EXPANSION_DEPTH {
            return Err(SyntaxError::new(
                "macro expansion depth limit exceeded",
                tokens.first().map(|t| t.span).unwrap_or_default(),
            ));
        }
        let mut out = Vec::with_capacity(tokens.len());
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            let name = match t.kind.ident() {
                Some(n) => n.to_owned(),
                None => {
                    out.push(t.clone());
                    i += 1;
                    continue;
                }
            };
            if hide.contains(&name) {
                out.push(t.clone());
                i += 1;
                continue;
            }
            let mac = match self.macros.0.get(&name) {
                Some(m) => m.clone(),
                None => {
                    out.push(t.clone());
                    i += 1;
                    continue;
                }
            };
            match mac.params {
                None => {
                    hide.push(name);
                    let expanded = self.expand(&mac.body, hide, depth + 1)?;
                    hide.pop();
                    out.extend(expanded);
                    i += 1;
                }
                Some(ref params) => {
                    // Function-like: require `(` as next token, else plain ident.
                    let Some(open) = tokens.get(i + 1) else {
                        out.push(t.clone());
                        i += 1;
                        continue;
                    };
                    if !open.kind.is_punct(Punct::LParen) {
                        out.push(t.clone());
                        i += 1;
                        continue;
                    }
                    let (args, after) = Self::collect_args(tokens, i + 1, t.span)?;
                    if args.len() != params.len()
                        && !(params.is_empty() && args.len() == 1 && args[0].is_empty())
                    {
                        return Err(SyntaxError::new(
                            format!(
                                "macro `{name}` expects {} argument(s), got {}",
                                params.len(),
                                args.len()
                            ),
                            t.span,
                        ));
                    }
                    let mut expanded_args = Vec::with_capacity(args.len());
                    for a in &args {
                        expanded_args.push(self.expand(a, hide, depth + 1)?);
                    }
                    let substituted =
                        Self::substitute(&mac.body, params, &args, &expanded_args, t.span)?;
                    hide.push(name);
                    let rescanned = self.expand(&substituted, hide, depth + 1)?;
                    hide.pop();
                    out.extend(rescanned);
                    i = after;
                }
            }
        }
        Ok(out)
    }

    /// Collects macro call arguments starting at the `(` at `open`. Returns
    /// the argument token lists and the index one past the closing `)`.
    fn collect_args(tokens: &[Token], open: usize, site: Span) -> Result<(Vec<Vec<Token>>, usize)> {
        let mut args: Vec<Vec<Token>> = vec![Vec::new()];
        let mut depth = 0usize;
        let mut j = open;
        loop {
            let t = tokens
                .get(j)
                .ok_or_else(|| SyntaxError::new("unterminated macro argument list", site))?;
            match &t.kind {
                TokenKind::Eof => {
                    return Err(SyntaxError::new("unterminated macro argument list", site));
                }
                TokenKind::Punct(Punct::LParen) => {
                    depth += 1;
                    if depth > 1 {
                        args.last_mut().expect("non-empty").push(t.clone());
                    }
                }
                TokenKind::Punct(Punct::RParen) => {
                    depth -= 1;
                    if depth == 0 {
                        return Ok((args, j + 1));
                    }
                    args.last_mut().expect("non-empty").push(t.clone());
                }
                TokenKind::Punct(Punct::Comma) if depth == 1 => args.push(Vec::new()),
                _ => args.last_mut().expect("non-empty").push(t.clone()),
            }
            j += 1;
        }
    }

    /// Substitutes parameters into a macro body, handling `#` and `##`.
    fn substitute(
        body: &[Token],
        params: &[String],
        raw_args: &[Vec<Token>],
        expanded_args: &[Vec<Token>],
        site: Span,
    ) -> Result<Vec<Token>> {
        let param_index = |tok: &Token| -> Option<usize> {
            tok.kind.ident().and_then(|n| params.iter().position(|p| p == n))
        };
        let mut out: Vec<Token> = Vec::with_capacity(body.len());
        let mut i = 0;
        while i < body.len() {
            let t = &body[i];
            // Stringize: `# param`
            if t.kind.is_punct(Punct::Hash) {
                if let Some(p) = body.get(i + 1).and_then(param_index) {
                    let text: Vec<String> =
                        raw_args[p].iter().map(|a| a.kind.to_string()).collect();
                    out.push(Token::new(TokenKind::Str(text.join(" ")), site));
                    i += 2;
                    continue;
                }
            }
            // Paste: `a ## b`
            if body.get(i + 1).map(|n| n.kind.is_punct(Punct::HashHash)) == Some(true)
                && i + 2 < body.len()
            {
                let left_toks = match param_index(t) {
                    Some(p) => raw_args[p].clone(),
                    None => vec![t.clone()],
                };
                let rt = &body[i + 2];
                let right_toks = match param_index(rt) {
                    Some(p) => raw_args[p].clone(),
                    None => vec![rt.clone()],
                };
                let lhs = left_toks.last().map(|x| x.kind.to_string()).unwrap_or_default();
                let rhs = right_toks.first().map(|x| x.kind.to_string()).unwrap_or_default();
                let pasted_text = format!("{lhs}{rhs}");
                let (mut pasted, _) = Lexer::tokenize(&pasted_text, crate::span::FileId::SYNTHETIC)
                    .map_err(|_| {
                        SyntaxError::new(
                            format!("token paste produced invalid token `{pasted_text}`"),
                            site,
                        )
                    })?;
                pasted.pop(); // Eof
                out.extend(left_toks[..left_toks.len().saturating_sub(1)].iter().cloned());
                for mut p in pasted {
                    p.span = site;
                    out.push(p);
                }
                out.extend(right_toks.iter().skip(1).cloned());
                i += 3;
                continue;
            }
            match param_index(t) {
                Some(p) => out.extend(expanded_args[p].iter().cloned()),
                None => out.push(t.clone()),
            }
            i += 1;
        }
        // Expansion output never starts a line (prevents misparsing a `#`
        // from an expansion as a directive).
        for tok in &mut out {
            tok.first_on_line = false;
        }
        Ok(out)
    }

    /// Evaluates a `#if` condition.
    fn eval_condition(&self, tokens: &[Token]) -> Result<i64> {
        // Replace `defined X` / `defined(X)` before macro expansion.
        let mut pre: Vec<Token> = Vec::with_capacity(tokens.len());
        let mut i = 0;
        while i < tokens.len() {
            let t = &tokens[i];
            if t.kind.ident() == Some("defined") {
                let (name, consumed) =
                    if tokens.get(i + 1).map(|x| x.kind.is_punct(Punct::LParen)) == Some(true) {
                        let n = tokens
                            .get(i + 2)
                            .and_then(|x| x.kind.ident())
                            .ok_or_else(|| SyntaxError::new("malformed `defined`", t.span))?;
                        if tokens.get(i + 3).map(|x| x.kind.is_punct(Punct::RParen)) != Some(true) {
                            return Err(SyntaxError::new("malformed `defined`", t.span));
                        }
                        (n, 4)
                    } else {
                        let n = tokens
                            .get(i + 1)
                            .and_then(|x| x.kind.ident())
                            .ok_or_else(|| SyntaxError::new("malformed `defined`", t.span))?;
                        (n, 2)
                    };
                let v = i64::from(self.macros.0.contains_key(name));
                pre.push(Token::new(TokenKind::Int(v), t.span));
                i += consumed;
            } else {
                pre.push(t.clone());
                i += 1;
            }
        }
        let expanded = self.expand(&pre, &mut Vec::new(), 0)?;
        let mut ev = CondEval { toks: &expanded, pos: 0 };
        let v = ev.ternary()?;
        Ok(v)
    }
}

/// Tiny recursive-descent evaluator for `#if` expressions.
struct CondEval<'t> {
    toks: &'t [Token],
    pos: usize,
}

impl CondEval<'_> {
    fn peek(&self) -> Option<&TokenKind> {
        self.toks.get(self.pos).map(|t| &t.kind)
    }

    fn bump(&mut self) -> Option<&TokenKind> {
        let k = self.toks.get(self.pos).map(|t| &t.kind);
        self.pos += 1;
        k
    }

    fn eat(&mut self, p: Punct) -> bool {
        if self.peek().map(|k| k.is_punct(p)) == Some(true) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn err(&self, msg: &str) -> SyntaxError {
        let span = self
            .toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|t| t.span)
            .unwrap_or_default();
        SyntaxError::new(format!("in #if expression: {msg}"), span)
    }

    fn ternary(&mut self) -> Result<i64> {
        let c = self.lor()?;
        if self.eat(Punct::Question) {
            let a = self.ternary()?;
            if !self.eat(Punct::Colon) {
                return Err(self.err("expected `:`"));
            }
            let b = self.ternary()?;
            return Ok(if c != 0 { a } else { b });
        }
        Ok(c)
    }

    fn lor(&mut self) -> Result<i64> {
        let mut v = self.land()?;
        while self.eat(Punct::PipePipe) {
            let r = self.land()?;
            v = i64::from(v != 0 || r != 0);
        }
        Ok(v)
    }

    fn land(&mut self) -> Result<i64> {
        let mut v = self.cmp()?;
        while self.eat(Punct::AmpAmp) {
            let r = self.cmp()?;
            v = i64::from(v != 0 && r != 0);
        }
        Ok(v)
    }

    fn cmp(&mut self) -> Result<i64> {
        let mut v = self.add()?;
        while let Some(TokenKind::Punct(p)) = self.peek() {
            let p = *p;
            let f: fn(i64, i64) -> bool = match p {
                Punct::EqEq => |a, b| a == b,
                Punct::Ne => |a, b| a != b,
                Punct::Lt => |a, b| a < b,
                Punct::Gt => |a, b| a > b,
                Punct::Le => |a, b| a <= b,
                Punct::Ge => |a, b| a >= b,
                _ => break,
            };
            self.pos += 1;
            let r = self.add()?;
            v = i64::from(f(v, r));
        }
        Ok(v)
    }

    fn add(&mut self) -> Result<i64> {
        let mut v = self.mul()?;
        loop {
            if self.eat(Punct::Plus) {
                v += self.mul()?;
            } else if self.eat(Punct::Minus) {
                v -= self.mul()?;
            } else {
                break;
            }
        }
        Ok(v)
    }

    fn mul(&mut self) -> Result<i64> {
        let mut v = self.unary()?;
        loop {
            if self.eat(Punct::Star) {
                v *= self.unary()?;
            } else if self.eat(Punct::Slash) {
                let d = self.unary()?;
                v = if d == 0 { 0 } else { v / d };
            } else if self.eat(Punct::Percent) {
                let d = self.unary()?;
                v = if d == 0 { 0 } else { v % d };
            } else {
                break;
            }
        }
        Ok(v)
    }

    fn unary(&mut self) -> Result<i64> {
        if self.eat(Punct::Bang) {
            return Ok(i64::from(self.unary()? == 0));
        }
        if self.eat(Punct::Minus) {
            return Ok(-self.unary()?);
        }
        if self.eat(Punct::Plus) {
            return self.unary();
        }
        if self.eat(Punct::LParen) {
            let v = self.ternary()?;
            if !self.eat(Punct::RParen) {
                return Err(self.err("expected `)`"));
            }
            return Ok(v);
        }
        match self.bump() {
            Some(TokenKind::Int(v)) => Ok(*v),
            Some(TokenKind::Char(v)) => Ok(*v),
            // Undefined identifiers evaluate to 0, as in C.
            Some(TokenKind::Ident(_)) => Ok(0),
            Some(TokenKind::Eof) | None => Err(self.err("unexpected end of expression")),
            Some(_) => Err(self.err("unexpected token")),
        }
    }
}

/// Convenience: preprocess `main` from a provider, returning tokens.
///
/// # Errors
///
/// Propagates lexing and preprocessing errors.
pub fn preprocess(
    main_name: &str,
    provider: &dyn FileProvider,
    sm: &mut SourceMap,
) -> Result<PpOutput> {
    Preprocessor::new(provider).preprocess(main_name, sm)
}

/// Preprocesses the main file `file` of `sm` from `at.offset` on: what a
/// whole-file preprocess emits after the token that ends there, given
/// that it read every directive before that point and that the file's
/// bytes up to the token's end are unchanged since. Lexes the file from
/// the offset ([`Lexer::tokenize_from`]) and expands the tokens with the
/// macro table the whole-file preprocess ended with; the controls are the
/// file's from the offset on.
///
/// Returns `None` when the tail holds a directive (headers and macros
/// could change) or fails to lex or expand: the caller then preprocesses
/// the whole file, which reports the failure.
pub fn preprocess_tail(
    provider: &dyn FileProvider,
    sm: &mut SourceMap,
    file: FileId,
    at: TailStart<'_>,
) -> Option<PpOutput> {
    let (tokens, controls) = Lexer::tokenize_from(sm.text(file), file, at.offset).ok()?;
    if tokens.iter().any(|t| t.kind.is_punct(Punct::Hash) && t.first_on_line) {
        return None;
    }
    let mut pp = Preprocessor::new(provider);
    pp.macros = at.macros.cloned().unwrap_or_default();
    pp.directive_end = at.directive_end;
    pp.controls = controls;
    pp.process_tokens(&tokens, sm).ok()?;
    Some(pp.finish(at.prev))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pp(main: &str, files: &[(&str, &str)]) -> Vec<TokenKind> {
        let mut prov = MemoryProvider::new();
        prov.insert("main.c", main);
        for (n, t) in files {
            prov.insert(*n, *t);
        }
        let mut sm = SourceMap::new();
        let out = preprocess("main.c", &prov, &mut sm).unwrap();
        out.tokens.into_iter().map(|t| t.kind).filter(|k| *k != TokenKind::Eof).collect()
    }

    fn ids(kinds: &[TokenKind]) -> Vec<String> {
        kinds.iter().map(|k| k.to_string()).collect()
    }

    #[test]
    fn object_macro() {
        let k = pp("#define N 10\nint a = N;", &[]);
        assert!(k.contains(&TokenKind::Int(10)));
        assert!(!ids(&k).contains(&"N".to_owned()));
    }

    #[test]
    fn function_macro() {
        let k = pp("#define SQ(x) ((x) * (x))\nint a = SQ(3);", &[]);
        let text = ids(&k).join(" ");
        assert!(text.contains("( ( 3 ) * ( 3 ) )"), "{text}");
    }

    #[test]
    fn nested_macro_args() {
        let k =
            pp("#define ADD(a,b) ((a)+(b))\n#define TWO 2\nint x = ADD(TWO, ADD(1, TWO));", &[]);
        let text = ids(&k).join(" ");
        assert!(text.contains("( ( 2 ) + ( ( ( 1 ) + ( 2 ) ) ) )"), "{text}");
    }

    #[test]
    fn recursion_is_cut() {
        let k = pp("#define X X\nint a = X;", &[]);
        assert!(ids(&k).contains(&"X".to_owned()));
    }

    #[test]
    fn includes_and_guards() {
        let k = pp(
            "#include \"h.h\"\n#include \"h.h\"\nint tail;",
            &[("h.h", "#ifndef H_H\n#define H_H\nint in_header;\n#endif\n")],
        );
        let names = ids(&k);
        assert_eq!(names.iter().filter(|n| *n == "in_header").count(), 1);
        assert!(names.contains(&"tail".to_owned()));
    }

    #[test]
    fn angle_include() {
        let k = pp("#include <lib.h>\nint x;", &[("lib.h", "int from_lib;")]);
        assert!(ids(&k).contains(&"from_lib".to_owned()));
    }

    #[test]
    fn missing_include_errors() {
        let mut prov = MemoryProvider::new();
        prov.insert("main.c", "#include \"nope.h\"\n");
        let mut sm = SourceMap::new();
        assert!(preprocess("main.c", &prov, &mut sm).is_err());
    }

    #[test]
    fn conditionals() {
        let k = pp(
            "#define A 1\n#if A\nint yes;\n#else\nint no;\n#endif\n#ifdef B\nint b;\n#endif\n#ifndef B\nint nb;\n#endif\n",
            &[],
        );
        let names = ids(&k);
        assert!(names.contains(&"yes".to_owned()));
        assert!(!names.contains(&"no".to_owned()));
        assert!(!names.contains(&"b".to_owned()));
        assert!(names.contains(&"nb".to_owned()));
    }

    #[test]
    fn elif_chain() {
        let k = pp(
            "#define V 2\n#if V == 1\nint one;\n#elif V == 2\nint two;\n#elif V == 3\nint three;\n#else\nint other;\n#endif\n",
            &[],
        );
        let names = ids(&k);
        assert_eq!(names, vec!["int".to_owned(), "two".to_owned(), ";".to_owned()]);
    }

    #[test]
    fn nested_inactive_regions() {
        let k = pp("#ifdef NOPE\n#ifdef ALSO_NOPE\nint a;\n#endif\nint b;\n#endif\nint c;\n", &[]);
        assert_eq!(ids(&k), vec!["int", "c", ";"]);
    }

    #[test]
    fn defined_operator() {
        let k = pp("#define A 1\n#if defined(A) && !defined B\nint ok;\n#endif\n", &[]);
        assert!(ids(&k).contains(&"ok".to_owned()));
    }

    #[test]
    fn undef() {
        let k = pp("#define A 1\n#undef A\n#ifdef A\nint a;\n#endif\nint z;", &[]);
        assert!(!ids(&k).contains(&"a".to_owned()));
    }

    #[test]
    fn stringize_and_paste() {
        let k = pp("#define S(x) #x\nchar *s = S(hello);", &[]);
        assert!(k.contains(&TokenKind::Str("hello".into())));
        let k = pp("#define GLUE(a,b) a##b\nint GLUE(foo, bar) = 1;", &[]);
        assert!(ids(&k).contains(&"foobar".to_owned()));
    }

    #[test]
    fn error_directive() {
        let mut prov = MemoryProvider::new();
        prov.insert("main.c", "#error boom\n");
        let mut sm = SourceMap::new();
        let e = preprocess("main.c", &prov, &mut sm).unwrap_err();
        assert!(e.message.contains("boom"));
    }

    #[test]
    fn error_in_inactive_region_ignored() {
        let k = pp("#ifdef NOPE\n#error boom\n#endif\nint ok;", &[]);
        assert!(ids(&k).contains(&"ok".to_owned()));
    }

    #[test]
    fn annotations_flow_through() {
        let k = pp("/*@null@*/ char *p;", &[]);
        assert!(k
            .iter()
            .any(|t| matches!(t, TokenKind::Annot(w) if w == &vec!["null".to_owned()])));
    }

    #[test]
    fn annotation_in_macro_body() {
        let k = pp("#define NULLP /*@null@*/\nNULLP char *p;", &[]);
        assert!(k.iter().any(|t| matches!(t, TokenKind::Annot(_))));
    }

    #[test]
    fn macro_spans_point_at_definition() {
        let mut prov = MemoryProvider::new();
        prov.insert("main.c", "#include \"m.h\"\nint x = MAGIC;\n");
        prov.insert("m.h", "#define MAGIC 42\n");
        let mut sm = SourceMap::new();
        let out = preprocess("main.c", &prov, &mut sm).unwrap();
        let tok = out.tokens.iter().find(|t| t.kind == TokenKind::Int(42)).unwrap();
        assert_eq!(sm.name(tok.span.file), "m.h");
    }

    #[test]
    fn predefine() {
        let mut prov = MemoryProvider::new();
        prov.insert("main.c", "#if FEATURE\nint on;\n#endif\n");
        let mut sm = SourceMap::new();
        let mut p = Preprocessor::new(&prov);
        p.predefine("FEATURE", "1");
        let out = p.preprocess("main.c", &mut sm).unwrap();
        assert!(out.tokens.iter().any(|t| t.kind == TokenKind::Ident("on".into())));
    }

    #[test]
    fn unterminated_conditional_errors() {
        let mut prov = MemoryProvider::new();
        prov.insert("main.c", "#ifdef A\nint x;\n");
        let mut sm = SourceMap::new();
        assert!(preprocess("main.c", &prov, &mut sm).is_err());
    }

    #[test]
    fn borrowed_provider_matches_memory_provider() {
        let files = vec![
            ("main.c".to_owned(), "#include \"h.h\"\nint tail;\n".to_owned()),
            ("h.h".to_owned(), "int stale;\n".to_owned()),
            ("h.h".to_owned(), "int in_header;\n".to_owned()),
        ];
        let mut mem = MemoryProvider::new();
        for (n, t) in &files {
            mem.insert(n.clone(), t.clone());
        }
        let borrowed = BorrowedProvider::new(&files);
        let (mut a, mut b) = (SourceMap::new(), SourceMap::new());
        let x = preprocess("main.c", &mem, &mut a).unwrap();
        let y = preprocess("main.c", &borrowed, &mut b).unwrap();
        assert_eq!(x.tokens, y.tokens);
        assert_eq!(b.text(crate::span::FileId(1)), "int in_header;\n");

        let mut overlay = BorrowedProvider::new(&files);
        overlay.insert("main.c", "int other;\n");
        let z = preprocess("main.c", &overlay, &mut SourceMap::new()).unwrap();
        assert!(z.tokens.iter().any(|t| t.kind == TokenKind::Ident("other".into())));
    }

    #[test]
    fn controls_collected_across_files() {
        let mut prov = MemoryProvider::new();
        prov.insert("main.c", "#include \"h.h\"\n/*@i@*/ int x;\n");
        prov.insert("h.h", "/*@ignore@*/ int hidden; /*@end@*/\n");
        let mut sm = SourceMap::new();
        let out = preprocess("main.c", &prov, &mut sm).unwrap();
        assert_eq!(out.controls.len(), 3);
    }
}
