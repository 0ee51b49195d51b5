//! Recursive-descent parser for the C subset.
//!
//! The parser consumes the preprocessed token stream and produces a
//! [`TranslationUnit`] whose nodes live in a single flat [`Ast`] arena.
//! It maintains the classic typedef-name set so that `(list) expr` parses as
//! a cast once `list` has been declared with `typedef`, and it attaches
//! annotation tokens to the declaration positions where they appear
//! (specifier level and per pointer level).

use crate::annot::{Annot, AnnotSet};
use crate::ast::*;
use crate::error::{Result, SyntaxError};
use crate::fx::FxHashSet;
use crate::intern::Symbol;
use crate::span::Span;
use crate::token::{Keyword as Kw, Punct, Token, TokenKind};
use std::cell::RefCell;
use std::sync::Arc;

/// Maximum recursive-descent nesting depth (expressions, statements,
/// declarators, initializers share one counter). Deeply nested input —
/// e.g. thousands of nested parentheses — is rejected with a syntax error
/// instead of overflowing the stack.
const MAX_NESTING_DEPTH: u32 = 256;

/// Stack size a parse needs. Recursive descent in an unoptimized build
/// burns tens of kilobytes of stack per nesting level, so legal inputs near
/// [`MAX_NESTING_DEPTH`] need far more head-room than the 2 MiB default of
/// Rust test threads; a fixed large stack plus the depth cap bounds
/// worst-case consumption no matter which thread the caller parses from.
/// Threads that call [`Parser::parse_recovering_here`] must be spawned
/// with at least this much stack.
pub const PARSE_STACK: usize = 64 * 1024 * 1024;

/// Runs `f` on a thread with [`PARSE_STACK`] bytes of stack, propagating
/// panics to the caller. `f` may borrow from the caller's frame.
pub fn on_parse_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        let handle = std::thread::Builder::new()
            .name("rlclint-parse".into())
            .stack_size(PARSE_STACK)
            .spawn_scoped(s, f)
            .expect("spawn parse thread");
        match handle.join() {
            Ok(v) => v,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// Typedef names `size_t` and friends, treated as built in so that
/// standard-library signatures parse without headers.
const BUILTIN_TYPEDEFS: [&str; 5] = ["size_t", "FILE", "va_list", "bool_", "ptrdiff_t"];

/// Where a top-level item ends, recorded as the parse passes it: a parse
/// of an edited text can resume right after it (see [`Parser::after`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemMark {
    /// The span of the item's last token.
    pub last: Span,
    /// The arena's node counts after the item.
    pub nodes: NodeCounts,
}

/// What [`Parser::parse_recovering_here`] produces.
#[derive(Debug)]
pub struct ParseOutcome {
    /// Everything that parsed cleanly.
    pub unit: TranslationUnit,
    /// One mark per item of `unit`.
    pub marks: Vec<ItemMark>,
    /// Every recovered syntax error.
    pub errors: Vec<SyntaxError>,
    /// Identifiers whose typedef lookup answered "not a typedef name" at
    /// least once (see [`Parser::record_misses`]); empty unless recorded.
    pub misses: FxHashSet<String>,
}

/// The parser. `'t` borrows an inherited typedef-name set (see
/// [`Parser::with_inherited`]).
pub struct Parser<'t> {
    toks: Vec<Token>,
    pos: usize,
    /// Typedef names registered on this parser: the built-ins, every
    /// [`Parser::add_typedef`], and the typedefs the input declares.
    typedefs: FxHashSet<String>,
    /// Typedef names shared with other parsers, consulted but never copied.
    inherited: Option<&'t FxHashSet<String>>,
    /// Typedef lookups that answered false, when recording.
    misses: Option<RefCell<FxHashSet<String>>>,
    depth: u32,
    ast: Ast,
    /// The items parsed so far, and their marks.
    items: Vec<Item>,
    marks: Vec<ItemMark>,
}

impl<'t> Parser<'t> {
    /// Creates a parser over a preprocessed token stream (must end in `Eof`).
    pub fn new(toks: Vec<Token>) -> Self {
        let typedefs = BUILTIN_TYPEDEFS.iter().map(|t| (*t).to_owned()).collect();
        let (items, marks) = (Vec::new(), Vec::new());
        Parser {
            toks,
            pos: 0,
            typedefs,
            inherited: None,
            misses: None,
            depth: 0,
            ast: Ast::new(),
            items,
            marks,
        }
    }

    /// Creates a parser whose typedef lookups also consult `inherited`:
    /// names declared by earlier units, shared by reference between any
    /// number of parsers instead of being re-registered on each.
    pub fn with_inherited(toks: Vec<Token>, inherited: &'t FxHashSet<String>) -> Self {
        Parser { inherited: Some(inherited), ..Parser::new(toks) }
    }

    /// Makes the parse record its typedef *misses*: every identifier whose
    /// lookup answered "not a typedef name". A parse that is repeated with
    /// extra typedef names follows the same path exactly when none of
    /// those names is among the misses, because the set only ever grows.
    pub fn record_misses(mut self) -> Self {
        self.misses = Some(RefCell::default());
        self
    }

    /// Makes the parse resume after the first `k` items of `unit`, an
    /// earlier parse with `marks`: the tokens given are the ones after the
    /// last of those items, and the items, the arena nodes they use and
    /// the typedef names they declare are taken from `unit` instead of
    /// being parsed again. The outcome is the parse of the whole stream
    /// when the earlier parse read the same tokens for those items, under
    /// the same typedef names, and recovered from no error before them;
    /// its misses cover the tokens given.
    pub fn after(mut self, unit: &TranslationUnit, marks: &[ItemMark], k: usize) -> Self {
        let Some(mark) = k.checked_sub(1).map(|j| marks[j]) else { return self };
        self.ast = unit.arena.prefix(mark.nodes, self.toks.len());
        self.items = unit.items[..k].to_vec();
        self.marks = marks[..k].to_vec();
        // The typedef set is flat: a `typedef` local to a kept function
        // body stays in force after it, as one at top level does. Every
        // declaration, either kind, is a node before the mark.
        for i in 0..mark.nodes.decls {
            let d = unit.arena.decl(DeclId(i));
            for id in &d.declarators {
                self.register_typedef(&d.specs, &id.declarator);
            }
        }
        self
    }

    /// Registers an extra typedef name before parsing.
    pub fn add_typedef(&mut self, name: impl Into<String>) {
        self.typedefs.insert(name.into());
    }

    /// True when `name` is a typedef name at this point of the parse.
    fn is_typedef(&self, name: &str) -> bool {
        if self.typedefs.contains(name) || self.inherited.is_some_and(|s| s.contains(name)) {
            return true;
        }
        if let Some(misses) = &self.misses {
            let mut misses = misses.borrow_mut();
            if !misses.contains(name) {
                misses.insert(name.to_owned());
            }
        }
        false
    }

    // -- token helpers ------------------------------------------------------

    fn peek(&self) -> &Token {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn peek_at(&self, off: usize) -> &Token {
        &self.toks[(self.pos + off).min(self.toks.len() - 1)]
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at_punct(&self, p: Punct) -> bool {
        self.peek().kind.is_punct(p)
    }

    fn at_kw(&self, k: Kw) -> bool {
        self.peek().kind.is_kw(k)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, k: Kw) -> bool {
        if self.at_kw(k) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<Span> {
        if self.at_punct(p) {
            let s = self.peek().span;
            self.pos += 1;
            Ok(s)
        } else {
            Err(self.err(format!("expected `{}`, found `{}`", p.as_str(), self.peek().kind)))
        }
    }

    fn expect_ident(&mut self) -> Result<(Symbol, Span)> {
        match &self.peek().kind {
            TokenKind::Ident(s) => {
                let s = Symbol::intern(s);
                let span = self.peek().span;
                self.pos += 1;
                Ok((s, span))
            }
            other => Err(self.err(format!("expected identifier, found `{other}`"))),
        }
    }

    fn err(&self, msg: impl Into<String>) -> SyntaxError {
        SyntaxError::new(msg, self.peek().span)
    }

    fn at_eof(&self) -> bool {
        self.peek().kind == TokenKind::Eof
    }

    /// Bumps the shared nesting counter, erroring out past the cap so
    /// pathological nesting cannot overflow the native stack. Callers must
    /// pair every successful `enter_nested` with a `leave_nested`.
    fn enter_nested(&mut self) -> Result<()> {
        if self.depth >= MAX_NESTING_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        Ok(())
    }

    fn leave_nested(&mut self) {
        self.depth -= 1;
    }

    // -- entry points -------------------------------------------------------

    /// Parses the whole token stream as a translation unit.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error encountered.
    pub fn parse_translation_unit(self) -> Result<TranslationUnit> {
        on_parse_stack(move || self.parse_translation_unit_on_stack())
    }

    fn parse_translation_unit_on_stack(mut self) -> Result<TranslationUnit> {
        self.ast.reserve(self.toks.len());
        let mut items = Vec::new();
        while !self.at_eof() {
            // Tolerate stray semicolons between items.
            if self.eat_punct(Punct::Semi) {
                continue;
            }
            items.push(self.parse_external_item()?);
        }
        Ok(TranslationUnit { items, arena: Arc::new(self.ast) })
    }

    /// Parses the whole token stream, recovering at top-level boundaries.
    ///
    /// Each syntax error is recorded and the parser synchronizes to the next
    /// plausible top-level declaration (the next `;` at brace depth zero, or
    /// the `}` closing the outermost open brace), so one malformed
    /// declaration does not discard the rest of the file. Returns whatever
    /// parsed cleanly together with every error encountered.
    pub fn parse_translation_unit_recovering(self) -> (TranslationUnit, Vec<SyntaxError>) {
        let out = on_parse_stack(move || self.parse_recovering_here());
        (out.unit, out.errors)
    }

    /// [`Parser::parse_translation_unit_recovering`] on the calling thread,
    /// which must have [`PARSE_STACK`] bytes of stack (see
    /// [`on_parse_stack`]), also reporting the typedef misses when
    /// [`Parser::record_misses`] asked for them.
    pub fn parse_recovering_here(mut self) -> ParseOutcome {
        self.ast.reserve(self.toks.len());
        let mut errors = Vec::new();
        while !self.at_eof() {
            // Tolerate stray semicolons between items.
            if self.eat_punct(Punct::Semi) {
                continue;
            }
            let before = self.pos;
            match self.parse_external_item() {
                Ok(item) => {
                    self.items.push(item);
                    let last = self.toks[self.pos - 1].span;
                    self.marks.push(ItemMark { last, nodes: self.ast.counts() });
                }
                Err(e) => {
                    errors.push(e);
                    self.synchronize(before);
                }
            }
        }
        let misses = self.misses.map(RefCell::into_inner).unwrap_or_default();
        let unit = TranslationUnit { items: self.items, arena: Arc::new(self.ast) };
        ParseOutcome { unit, marks: self.marks, errors, misses }
    }

    /// Skips ahead to a likely top-level boundary after a parse error: the
    /// next `;` at brace depth zero, or the `}` that closes the outermost
    /// brace opened during the skip. Guarantees at least one token of
    /// progress past `before` so recovery always terminates.
    fn synchronize(&mut self, before: usize) {
        if self.pos == before && !self.at_eof() {
            self.pos += 1;
        }
        let mut depth: i32 = 0;
        while !self.at_eof() {
            match &self.peek().kind {
                TokenKind::Punct(Punct::Semi) if depth == 0 => {
                    self.pos += 1;
                    return;
                }
                TokenKind::Punct(Punct::LBrace) => {
                    depth += 1;
                    self.pos += 1;
                }
                TokenKind::Punct(Punct::RBrace) => {
                    self.pos += 1;
                    depth -= 1;
                    if depth <= 0 {
                        return;
                    }
                }
                _ => self.pos += 1,
            }
        }
    }

    fn parse_external_item(&mut self) -> Result<Item> {
        let start = self.peek().span;
        let specs = self.parse_decl_specs()?;
        // Bare `struct S { ... };` or `enum E { ... };`
        if self.at_punct(Punct::Semi) {
            let end = self.bump().span;
            let d = Declaration { specs, declarators: Vec::new(), span: start.to(end) };
            return Ok(Item::Decl(self.ast.alloc_decl(d)));
        }
        let first = self.parse_declarator(false)?;
        // Function definition: function declarator followed by `{`.
        if self.at_punct(Punct::LBrace) && first.is_function() {
            let body = self.parse_compound()?;
            let span = start.to(self.ast.stmt_span(body));
            return Ok(Item::Function(FunctionDef { specs, declarator: first, body, span }));
        }
        // Otherwise an ordinary declaration (possibly several declarators).
        let mut declarators = Vec::new();
        let init = if self.eat_punct(Punct::Eq) { Some(self.parse_initializer()?) } else { None };
        self.register_typedef(&specs, &first);
        declarators.push(InitDeclarator { declarator: first, init });
        while self.eat_punct(Punct::Comma) {
            let d = self.parse_declarator(false)?;
            let init =
                if self.eat_punct(Punct::Eq) { Some(self.parse_initializer()?) } else { None };
            self.register_typedef(&specs, &d);
            declarators.push(InitDeclarator { declarator: d, init });
        }
        let end = self.expect_punct(Punct::Semi)?;
        let d = Declaration { specs, declarators, span: start.to(end) };
        Ok(Item::Decl(self.ast.alloc_decl(d)))
    }

    fn register_typedef(&mut self, specs: &DeclSpecs, d: &Declarator) {
        if specs.storage == Some(StorageClass::Typedef) {
            if let Some(n) = d.name {
                self.add_typedef(n.as_str());
            }
        }
    }

    // -- declarations -------------------------------------------------------

    /// True if the current token can begin a declaration.
    fn at_decl_start(&self) -> bool {
        match &self.peek().kind {
            TokenKind::Kw(k) => matches!(
                k,
                Kw::Void
                    | Kw::Char
                    | Kw::Int
                    | Kw::Long
                    | Kw::Short
                    | Kw::Signed
                    | Kw::Unsigned
                    | Kw::Float
                    | Kw::Double
                    | Kw::Struct
                    | Kw::Union
                    | Kw::Enum
                    | Kw::Const
                    | Kw::Volatile
                    | Kw::Typedef
                    | Kw::Extern
                    | Kw::Static
                    | Kw::Auto
                    | Kw::Register
            ),
            TokenKind::Ident(n) => self.is_typedef(n),
            TokenKind::Annot(_) => true,
            _ => false,
        }
    }

    /// True if the token at `off` can begin a type name (for casts).
    fn at_type_start(&self, off: usize) -> bool {
        match &self.peek_at(off).kind {
            TokenKind::Kw(k) => matches!(
                k,
                Kw::Void
                    | Kw::Char
                    | Kw::Int
                    | Kw::Long
                    | Kw::Short
                    | Kw::Signed
                    | Kw::Unsigned
                    | Kw::Float
                    | Kw::Double
                    | Kw::Struct
                    | Kw::Union
                    | Kw::Enum
                    | Kw::Const
                    | Kw::Volatile
            ),
            TokenKind::Ident(n) => self.is_typedef(n),
            TokenKind::Annot(_) => true,
            _ => false,
        }
    }

    fn parse_decl_specs(&mut self) -> Result<DeclSpecs> {
        let start = self.peek().span;
        let mut storage = None;
        let mut is_const = false;
        let mut is_volatile = false;
        let mut annots = AnnotSet::new();
        // Accumulated base-type words (e.g. `unsigned`, `long`).
        let mut signedness: Option<bool> = None;
        let mut size: Option<IntSize> = None;
        let mut long_count = 0u8;
        let mut base: Option<TypeSpec> = None;

        loop {
            let t = self.peek().clone();
            match &t.kind {
                TokenKind::Kw(k) => match k {
                    Kw::Typedef | Kw::Extern | Kw::Static | Kw::Auto | Kw::Register => {
                        let sc = match k {
                            Kw::Typedef => StorageClass::Typedef,
                            Kw::Extern => StorageClass::Extern,
                            Kw::Static => StorageClass::Static,
                            Kw::Auto => StorageClass::Auto,
                            _ => StorageClass::Register,
                        };
                        if storage.is_some() {
                            return Err(self.err("multiple storage classes"));
                        }
                        storage = Some(sc);
                        self.pos += 1;
                    }
                    Kw::Const => {
                        is_const = true;
                        self.pos += 1;
                    }
                    Kw::Volatile => {
                        is_volatile = true;
                        self.pos += 1;
                    }
                    Kw::Void => {
                        base = Some(TypeSpec::Void);
                        self.pos += 1;
                    }
                    Kw::Char => {
                        base = Some(TypeSpec::Char { signed: signedness });
                        self.pos += 1;
                    }
                    Kw::Float => {
                        base = Some(TypeSpec::Float);
                        self.pos += 1;
                    }
                    Kw::Double => {
                        base = Some(TypeSpec::Double);
                        self.pos += 1;
                    }
                    Kw::Int => {
                        size = size.or(Some(IntSize::Int));
                        self.pos += 1;
                    }
                    Kw::Short => {
                        size = Some(IntSize::Short);
                        self.pos += 1;
                    }
                    Kw::Long => {
                        long_count += 1;
                        size = Some(IntSize::Long);
                        self.pos += 1;
                    }
                    Kw::Signed => {
                        signedness = Some(true);
                        self.pos += 1;
                    }
                    Kw::Unsigned => {
                        signedness = Some(false);
                        self.pos += 1;
                    }
                    Kw::Struct | Kw::Union => {
                        base = Some(TypeSpec::Struct(self.parse_struct_spec()?));
                    }
                    Kw::Enum => {
                        base = Some(TypeSpec::Enum(self.parse_enum_spec()?));
                    }
                    _ => break,
                },
                TokenKind::Ident(n)
                    if base.is_none()
                        && size.is_none()
                        && signedness.is_none()
                        && self.is_typedef(n) =>
                {
                    // A typedef name is only a type specifier if no other
                    // type words have been seen (so `unsigned x;` keeps `x`
                    // as the declarator).
                    base = Some(TypeSpec::Named(Symbol::intern(n)));
                    self.pos += 1;
                }
                TokenKind::Annot(words) => {
                    for w in words {
                        match Annot::from_word(w) {
                            Some(a) => annots.add(a, t.span)?,
                            None => {
                                return Err(SyntaxError::new(
                                    format!("unknown annotation `{w}`"),
                                    t.span,
                                ));
                            }
                        }
                    }
                    self.pos += 1;
                }
                _ => break,
            }
        }

        // Re-apply signedness to a char base recorded before the keyword.
        if let Some(TypeSpec::Char { signed }) = &mut base {
            if signed.is_none() {
                *signed = signedness;
            }
        }
        let ty = match base {
            Some(TypeSpec::Double) if long_count > 0 => TypeSpec::Double,
            Some(b) => b,
            None => {
                if size.is_none() && signedness.is_none() {
                    return Err(
                        self.err(format!("expected type specifier, found `{}`", self.peek().kind))
                    );
                }
                TypeSpec::Int {
                    signed: signedness.unwrap_or(true),
                    size: size.unwrap_or(IntSize::Int),
                }
            }
        };
        let end = self.toks[self.pos.saturating_sub(1)].span;
        Ok(DeclSpecs { storage, is_const, is_volatile, ty, annots, span: start.to(end) })
    }

    fn parse_struct_spec(&mut self) -> Result<StructSpec> {
        let start = self.peek().span;
        let is_union = self.at_kw(Kw::Union);
        self.pos += 1; // struct/union keyword
        let name = match &self.peek().kind {
            TokenKind::Ident(n) => {
                let n = Symbol::intern(n);
                self.pos += 1;
                Some(n)
            }
            _ => None,
        };
        let fields = if self.eat_punct(Punct::LBrace) {
            let mut fields = Vec::new();
            while !self.at_punct(Punct::RBrace) {
                if self.at_eof() {
                    return Err(self.err("unterminated struct body"));
                }
                let fstart = self.peek().span;
                let specs = self.parse_decl_specs()?;
                let mut declarators = Vec::new();
                if !self.at_punct(Punct::Semi) {
                    declarators.push(self.parse_declarator(false)?);
                    while self.eat_punct(Punct::Comma) {
                        declarators.push(self.parse_declarator(false)?);
                    }
                }
                let fend = self.expect_punct(Punct::Semi)?;
                fields.push(FieldDecl { specs, declarators, span: fstart.to(fend) });
            }
            self.expect_punct(Punct::RBrace)?;
            Some(fields)
        } else {
            None
        };
        if name.is_none() && fields.is_none() {
            return Err(self.err("struct specifier requires a tag or a body"));
        }
        let end = self.toks[self.pos.saturating_sub(1)].span;
        Ok(StructSpec { is_union, name, fields, span: start.to(end) })
    }

    fn parse_enum_spec(&mut self) -> Result<EnumSpec> {
        let start = self.peek().span;
        self.pos += 1; // enum
        let name = match &self.peek().kind {
            TokenKind::Ident(n) => {
                let n = Symbol::intern(n);
                self.pos += 1;
                Some(n)
            }
            _ => None,
        };
        let variants = if self.eat_punct(Punct::LBrace) {
            let mut vs = Vec::new();
            while !self.at_punct(Punct::RBrace) {
                let (vn, _) = self.expect_ident()?;
                let value = if self.eat_punct(Punct::Eq) {
                    Some(self.parse_assignment_expr()?)
                } else {
                    None
                };
                vs.push((vn, value));
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RBrace)?;
            Some(vs)
        } else {
            None
        };
        if name.is_none() && variants.is_none() {
            return Err(self.err("enum specifier requires a tag or a body"));
        }
        let end = self.toks[self.pos.saturating_sub(1)].span;
        Ok(EnumSpec { name, variants, span: start.to(end) })
    }

    /// Parses a declarator. With `allow_abstract`, the identifier may be
    /// omitted (parameter and type-name positions).
    fn parse_declarator(&mut self, allow_abstract: bool) -> Result<Declarator> {
        self.enter_nested()?;
        let r = self.parse_declarator_inner(allow_abstract);
        self.leave_nested();
        r
    }

    fn parse_declarator_inner(&mut self, allow_abstract: bool) -> Result<Declarator> {
        let start = self.peek().span;
        // Prefix pointers, each optionally annotated/qualified.
        let mut pointers: Vec<Derived> = Vec::new();
        loop {
            // Annotations before a `*` apply to that pointer level
            // (e.g. `char * /*@null@*/ *p`).
            let mut annots = AnnotSet::new();
            let mut is_const = false;
            let mut progressed = false;
            loop {
                let t = self.peek().clone();
                match &t.kind {
                    TokenKind::Annot(words) => {
                        for w in words {
                            match Annot::from_word(w) {
                                Some(a) => annots.add(a, t.span)?,
                                None => {
                                    return Err(SyntaxError::new(
                                        format!("unknown annotation `{w}`"),
                                        t.span,
                                    ));
                                }
                            }
                        }
                        self.pos += 1;
                    }
                    TokenKind::Kw(Kw::Const) => {
                        is_const = true;
                        self.pos += 1;
                    }
                    TokenKind::Kw(Kw::Volatile) => {
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            if self.eat_punct(Punct::Star) {
                // Qualifiers may also follow the star: `char * const p`.
                loop {
                    if self.eat_kw(Kw::Const) {
                        is_const = true;
                    } else if self.eat_kw(Kw::Volatile) {
                        // accepted, not tracked
                    } else if let TokenKind::Annot(words) = &self.peek().kind.clone() {
                        let span = self.peek().span;
                        for w in words {
                            match Annot::from_word(w) {
                                Some(a) => annots.add(a, span)?,
                                None => {
                                    return Err(SyntaxError::new(
                                        format!("unknown annotation `{w}`"),
                                        span,
                                    ));
                                }
                            }
                        }
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                pointers.push(Derived::Pointer { annots, is_const });
                progressed = true;
            } else if !annots.is_empty() || is_const {
                // Annotations directly before the identifier: treat as
                // applying to the outermost level; represent by re-attaching
                // to the most recent pointer if there is one, else error-free
                // fallthrough (parser surfaces them via a pointerless decl is
                // not possible — attach to last pointer or drop into first).
                if let Some(Derived::Pointer { annots: pa, .. }) = pointers.last_mut() {
                    pa.inherit(&annots);
                }
                break;
            }
            if !progressed {
                break;
            }
        }

        // Direct declarator.
        let mut direct = match &self.peek().kind {
            TokenKind::Ident(n) => {
                let name = Symbol::intern(n);
                let span = self.peek().span;
                self.pos += 1;
                Declarator { name: Some(name), derived: Vec::new(), span }
            }
            TokenKind::Punct(Punct::LParen) if self.is_paren_declarator(allow_abstract) => {
                self.pos += 1;
                let inner = self.parse_declarator(allow_abstract)?;
                self.expect_punct(Punct::RParen)?;
                inner
            }
            _ if allow_abstract => Declarator::abstract_empty(self.peek().span),
            other => {
                return Err(self.err(format!("expected declarator, found `{other}`")));
            }
        };

        // Postfix suffixes.
        let mut suffixes: Vec<Derived> = Vec::new();
        loop {
            if self.at_punct(Punct::LBracket) {
                self.pos += 1;
                let size = if self.at_punct(Punct::RBracket) {
                    None
                } else {
                    Some(self.parse_assignment_expr()?)
                };
                self.expect_punct(Punct::RBracket)?;
                suffixes.push(Derived::Array(size));
            } else if self.at_punct(Punct::LParen) {
                self.pos += 1;
                let (params, variadic) = self.parse_param_list()?;
                self.expect_punct(Punct::RParen)?;
                // Optional globals list after the parameter list:
                // `int f(void) /*@globals gname, undef cache@*/`.
                let globals = self.parse_globals_list()?;
                suffixes.push(Derived::Function { params, variadic, globals });
            } else {
                break;
            }
        }

        // Reading order: direct's own parts, then suffixes, then pointers
        // (nearest the name = outermost = first among the pointers).
        let mut derived = std::mem::take(&mut direct.derived);
        derived.extend(suffixes);
        pointers.reverse();
        derived.extend(pointers);
        let end = self.toks[self.pos.saturating_sub(1)].span;
        Ok(Declarator { name: direct.name, derived, span: start.to(end) })
    }

    /// Decides whether `(` begins a parenthesized declarator (vs a function
    /// parameter list of an anonymous function declarator).
    fn is_paren_declarator(&self, allow_abstract: bool) -> bool {
        // `(*` or `(ident-that-is-not-a-type` → parenthesized declarator.
        let t1 = &self.peek_at(1).kind;
        match t1 {
            TokenKind::Punct(Punct::Star) => true,
            TokenKind::Ident(n) => !self.is_typedef(n) || !allow_abstract,
            TokenKind::Annot(_) => true,
            _ => false,
        }
    }

    /// Parses a `/*@globals ...@*/` list if present at the cursor.
    fn parse_globals_list(&mut self) -> Result<Option<Vec<GlobalSpec>>> {
        let words = match &self.peek().kind {
            TokenKind::Annot(words) if words.first().map(String::as_str) == Some("globals") => {
                words.clone()
            }
            _ => return Ok(None),
        };
        let span = self.peek().span;
        self.pos += 1;
        let mut globals = Vec::new();
        let mut undef_next = false;
        for w in &words[1..] {
            let w = w.trim_end_matches(',');
            if w.is_empty() {
                continue;
            }
            if w == "undef" {
                undef_next = true;
                continue;
            }
            if !w.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                return Err(SyntaxError::new(format!("malformed globals list entry `{w}`"), span));
            }
            globals.push(GlobalSpec { name: Symbol::intern(w), undef: undef_next });
            undef_next = false;
        }
        Ok(Some(globals))
    }

    fn parse_param_list(&mut self) -> Result<(Vec<ParamDecl>, bool)> {
        let mut params = Vec::new();
        let mut variadic = false;
        if self.at_punct(Punct::RParen) {
            return Ok((params, variadic));
        }
        loop {
            if self.at_punct(Punct::Ellipsis) {
                self.pos += 1;
                variadic = true;
                break;
            }
            let start = self.peek().span;
            let specs = self.parse_decl_specs()?;
            let declarator = self.parse_declarator(true)?;
            let end = self.toks[self.pos.saturating_sub(1)].span;
            params.push(ParamDecl { specs, declarator, span: start.to(end) });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        // `f(void)` → empty parameter list.
        if params.len() == 1 && params[0].is_void_marker() {
            params.clear();
        }
        Ok((params, variadic))
    }

    fn parse_initializer(&mut self) -> Result<Initializer> {
        self.enter_nested()?;
        let r = self.parse_initializer_inner();
        self.leave_nested();
        r
    }

    fn parse_initializer_inner(&mut self) -> Result<Initializer> {
        if self.at_punct(Punct::LBrace) {
            self.pos += 1;
            let mut items = Vec::new();
            while !self.at_punct(Punct::RBrace) {
                items.push(self.parse_initializer()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RBrace)?;
            Ok(Initializer::List(items))
        } else {
            Ok(Initializer::Expr(self.parse_assignment_expr()?))
        }
    }

    fn parse_local_declaration(&mut self) -> Result<DeclId> {
        let start = self.peek().span;
        let specs = self.parse_decl_specs()?;
        let mut declarators = Vec::new();
        if !self.at_punct(Punct::Semi) {
            loop {
                let d = self.parse_declarator(false)?;
                let init =
                    if self.eat_punct(Punct::Eq) { Some(self.parse_initializer()?) } else { None };
                self.register_typedef(&specs, &d);
                declarators.push(InitDeclarator { declarator: d, init });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        let end = self.expect_punct(Punct::Semi)?;
        Ok(self.ast.alloc_decl(Declaration { specs, declarators, span: start.to(end) }))
    }

    // -- statements ---------------------------------------------------------

    fn parse_compound(&mut self) -> Result<StmtId> {
        let start = self.expect_punct(Punct::LBrace)?;
        let mut items = Vec::new();
        while !self.at_punct(Punct::RBrace) {
            if self.at_eof() {
                return Err(self.err("unterminated block"));
            }
            if self.at_decl_start() && !self.at_label() {
                items.push(BlockItem::Decl(self.parse_local_declaration()?));
            } else {
                items.push(BlockItem::Stmt(self.parse_stmt()?));
            }
        }
        let end = self.expect_punct(Punct::RBrace)?;
        Ok(self.ast.alloc_stmt(StmtKind::Compound(items), start.to(end)))
    }

    /// True when the next two tokens are `ident :` (a label, which could
    /// otherwise look like a typedef-name declaration).
    fn at_label(&self) -> bool {
        matches!(&self.peek().kind, TokenKind::Ident(_))
            && self.peek_at(1).kind.is_punct(Punct::Colon)
    }

    fn parse_stmt(&mut self) -> Result<StmtId> {
        self.enter_nested()?;
        let r = self.parse_stmt_inner();
        self.leave_nested();
        r
    }

    fn parse_stmt_inner(&mut self) -> Result<StmtId> {
        let start = self.peek().span;
        match self.peek().kind.clone() {
            TokenKind::Punct(Punct::LBrace) => self.parse_compound(),
            TokenKind::Punct(Punct::Semi) => {
                self.pos += 1;
                Ok(self.ast.alloc_stmt(StmtKind::Empty, start))
            }
            TokenKind::Kw(Kw::If) => {
                self.pos += 1;
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let then_branch = self.parse_stmt()?;
                let else_branch =
                    if self.eat_kw(Kw::Else) { Some(self.parse_stmt()?) } else { None };
                let end = else_branch
                    .map(|s| self.ast.stmt_span(s))
                    .unwrap_or_else(|| self.ast.stmt_span(then_branch));
                Ok(self
                    .ast
                    .alloc_stmt(StmtKind::If { cond, then_branch, else_branch }, start.to(end)))
            }
            TokenKind::Kw(Kw::While) => {
                self.pos += 1;
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.parse_stmt()?;
                let end = self.ast.stmt_span(body);
                Ok(self.ast.alloc_stmt(StmtKind::While { cond, body }, start.to(end)))
            }
            TokenKind::Kw(Kw::Do) => {
                self.pos += 1;
                let body = self.parse_stmt()?;
                if !self.eat_kw(Kw::While) {
                    return Err(self.err("expected `while` after do-body"));
                }
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let end = self.expect_punct(Punct::Semi)?;
                Ok(self.ast.alloc_stmt(StmtKind::DoWhile { body, cond }, start.to(end)))
            }
            TokenKind::Kw(Kw::For) => {
                self.pos += 1;
                self.expect_punct(Punct::LParen)?;
                let init = if self.at_punct(Punct::Semi) {
                    self.pos += 1;
                    None
                } else if self.at_decl_start() {
                    Some(ForInit::Decl(self.parse_local_declaration()?))
                } else {
                    let e = self.parse_expr()?;
                    self.expect_punct(Punct::Semi)?;
                    Some(ForInit::Expr(e))
                };
                let cond = if self.at_punct(Punct::Semi) { None } else { Some(self.parse_expr()?) };
                self.expect_punct(Punct::Semi)?;
                let step =
                    if self.at_punct(Punct::RParen) { None } else { Some(self.parse_expr()?) };
                self.expect_punct(Punct::RParen)?;
                let body = self.parse_stmt()?;
                let end = self.ast.stmt_span(body);
                Ok(self.ast.alloc_stmt(StmtKind::For { init, cond, step, body }, start.to(end)))
            }
            TokenKind::Kw(Kw::Switch) => {
                self.pos += 1;
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = self.parse_stmt()?;
                let end = self.ast.stmt_span(body);
                Ok(self.ast.alloc_stmt(StmtKind::Switch { cond, body }, start.to(end)))
            }
            TokenKind::Kw(Kw::Case) => {
                self.pos += 1;
                let value = self.parse_cond_expr()?;
                self.expect_punct(Punct::Colon)?;
                let stmt = self.parse_stmt()?;
                let end = self.ast.stmt_span(stmt);
                Ok(self.ast.alloc_stmt(StmtKind::Case { value, stmt }, start.to(end)))
            }
            TokenKind::Kw(Kw::Default) => {
                self.pos += 1;
                self.expect_punct(Punct::Colon)?;
                let stmt = self.parse_stmt()?;
                let end = self.ast.stmt_span(stmt);
                Ok(self.ast.alloc_stmt(StmtKind::Default(stmt), start.to(end)))
            }
            TokenKind::Kw(Kw::Break) => {
                self.pos += 1;
                let end = self.expect_punct(Punct::Semi)?;
                Ok(self.ast.alloc_stmt(StmtKind::Break, start.to(end)))
            }
            TokenKind::Kw(Kw::Continue) => {
                self.pos += 1;
                let end = self.expect_punct(Punct::Semi)?;
                Ok(self.ast.alloc_stmt(StmtKind::Continue, start.to(end)))
            }
            TokenKind::Kw(Kw::Return) => {
                self.pos += 1;
                let value =
                    if self.at_punct(Punct::Semi) { None } else { Some(self.parse_expr()?) };
                let end = self.expect_punct(Punct::Semi)?;
                Ok(self.ast.alloc_stmt(StmtKind::Return(value), start.to(end)))
            }
            TokenKind::Kw(Kw::Goto) => {
                self.pos += 1;
                let (name, _) = self.expect_ident()?;
                let end = self.expect_punct(Punct::Semi)?;
                Ok(self.ast.alloc_stmt(StmtKind::Goto(name), start.to(end)))
            }
            TokenKind::Ident(name) if self.at_label() => {
                let name = Symbol::intern(&name);
                self.pos += 2; // ident, colon
                let stmt = self.parse_stmt()?;
                let end = self.ast.stmt_span(stmt);
                Ok(self.ast.alloc_stmt(StmtKind::Label { name, stmt }, start.to(end)))
            }
            _ => {
                let e = self.parse_expr()?;
                let end = self.expect_punct(Punct::Semi)?;
                Ok(self.ast.alloc_stmt(StmtKind::Expr(e), start.to(end)))
            }
        }
    }

    // -- expressions ---------------------------------------------------------

    /// Parses a full expression (including the comma operator).
    pub fn parse_expr(&mut self) -> Result<ExprId> {
        let mut e = self.parse_assignment_expr()?;
        while self.at_punct(Punct::Comma) {
            self.pos += 1;
            let rhs = self.parse_assignment_expr()?;
            let span = self.ast.expr_span(e).to(self.ast.expr_span(rhs));
            e = self.ast.alloc_expr(ExprKind::Comma(e, rhs), span);
        }
        Ok(e)
    }

    fn parse_assignment_expr(&mut self) -> Result<ExprId> {
        self.enter_nested()?;
        let r = self.parse_assignment_expr_inner();
        self.leave_nested();
        r
    }

    fn parse_assignment_expr_inner(&mut self) -> Result<ExprId> {
        let lhs = self.parse_cond_expr()?;
        let op = match &self.peek().kind {
            TokenKind::Punct(Punct::Eq) => Some(AssignOp::Assign),
            TokenKind::Punct(Punct::PlusEq) => Some(AssignOp::Add),
            TokenKind::Punct(Punct::MinusEq) => Some(AssignOp::Sub),
            TokenKind::Punct(Punct::StarEq) => Some(AssignOp::Mul),
            TokenKind::Punct(Punct::SlashEq) => Some(AssignOp::Div),
            TokenKind::Punct(Punct::PercentEq) => Some(AssignOp::Rem),
            TokenKind::Punct(Punct::ShlEq) => Some(AssignOp::Shl),
            TokenKind::Punct(Punct::ShrEq) => Some(AssignOp::Shr),
            TokenKind::Punct(Punct::AmpEq) => Some(AssignOp::And),
            TokenKind::Punct(Punct::CaretEq) => Some(AssignOp::Xor),
            TokenKind::Punct(Punct::PipeEq) => Some(AssignOp::Or),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.parse_assignment_expr()?;
            let span = self.ast.expr_span(lhs).to(self.ast.expr_span(rhs));
            return Ok(self.ast.alloc_expr(ExprKind::Assign(op, lhs, rhs), span));
        }
        Ok(lhs)
    }

    fn parse_cond_expr(&mut self) -> Result<ExprId> {
        let cond = self.parse_binary_expr(0)?;
        if self.eat_punct(Punct::Question) {
            let then_e = self.parse_expr()?;
            self.expect_punct(Punct::Colon)?;
            let else_e = self.parse_cond_expr()?;
            let span = self.ast.expr_span(cond).to(self.ast.expr_span(else_e));
            return Ok(self.ast.alloc_expr(ExprKind::Cond(cond, then_e, else_e), span));
        }
        Ok(cond)
    }

    fn binop_at(&self) -> Option<(BinOp, u8)> {
        let p = match &self.peek().kind {
            TokenKind::Punct(p) => *p,
            _ => return None,
        };
        Some(match p {
            Punct::PipePipe => (BinOp::LogOr, 1),
            Punct::AmpAmp => (BinOp::LogAnd, 2),
            Punct::Pipe => (BinOp::BitOr, 3),
            Punct::Caret => (BinOp::BitXor, 4),
            Punct::Amp => (BinOp::BitAnd, 5),
            Punct::EqEq => (BinOp::Eq, 6),
            Punct::Ne => (BinOp::Ne, 6),
            Punct::Lt => (BinOp::Lt, 7),
            Punct::Gt => (BinOp::Gt, 7),
            Punct::Le => (BinOp::Le, 7),
            Punct::Ge => (BinOp::Ge, 7),
            Punct::Shl => (BinOp::Shl, 8),
            Punct::Shr => (BinOp::Shr, 8),
            Punct::Plus => (BinOp::Add, 9),
            Punct::Minus => (BinOp::Sub, 9),
            Punct::Star => (BinOp::Mul, 10),
            Punct::Slash => (BinOp::Div, 10),
            Punct::Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn parse_binary_expr(&mut self, min_prec: u8) -> Result<ExprId> {
        let mut lhs = self.parse_cast_expr()?;
        while let Some((op, prec)) = self.binop_at() {
            if prec < min_prec {
                break;
            }
            self.pos += 1;
            let rhs = self.parse_binary_expr(prec + 1)?;
            let span = self.ast.expr_span(lhs).to(self.ast.expr_span(rhs));
            lhs = self.ast.alloc_expr(ExprKind::Binary(op, lhs, rhs), span);
        }
        Ok(lhs)
    }

    fn parse_cast_expr(&mut self) -> Result<ExprId> {
        if self.at_punct(Punct::LParen) && self.at_type_start(1) {
            let start = self.peek().span;
            self.pos += 1;
            let tn = self.parse_type_name()?;
            self.expect_punct(Punct::RParen)?;
            let inner = self.parse_cast_expr()?;
            let span = start.to(self.ast.expr_span(inner));
            return Ok(self.ast.alloc_expr(ExprKind::Cast(Box::new(tn), inner), span));
        }
        self.parse_unary_expr()
    }

    /// Parses a type name (cast / sizeof operand).
    pub fn parse_type_name(&mut self) -> Result<TypeName> {
        let start = self.peek().span;
        let specs = self.parse_decl_specs()?;
        let declarator = self.parse_declarator(true)?;
        let end = self.toks[self.pos.saturating_sub(1)].span;
        Ok(TypeName { specs, declarator, span: start.to(end) })
    }

    fn parse_unary_expr(&mut self) -> Result<ExprId> {
        let start = self.peek().span;
        match &self.peek().kind {
            TokenKind::Punct(Punct::PlusPlus) => {
                self.pos += 1;
                let e = self.parse_unary_expr()?;
                let span = start.to(self.ast.expr_span(e));
                Ok(self.ast.alloc_expr(ExprKind::PreIncDec(IncDec::Inc, e), span))
            }
            TokenKind::Punct(Punct::MinusMinus) => {
                self.pos += 1;
                let e = self.parse_unary_expr()?;
                let span = start.to(self.ast.expr_span(e));
                Ok(self.ast.alloc_expr(ExprKind::PreIncDec(IncDec::Dec, e), span))
            }
            TokenKind::Punct(p) => {
                let op = match p {
                    Punct::Minus => Some(UnOp::Neg),
                    Punct::Plus => Some(UnOp::Plus),
                    Punct::Bang => Some(UnOp::Not),
                    Punct::Tilde => Some(UnOp::BitNot),
                    Punct::Star => Some(UnOp::Deref),
                    Punct::Amp => Some(UnOp::Addr),
                    _ => None,
                };
                match op {
                    Some(op) => {
                        self.pos += 1;
                        let e = self.parse_cast_expr()?;
                        let span = start.to(self.ast.expr_span(e));
                        Ok(self.ast.alloc_expr(ExprKind::Unary(op, e), span))
                    }
                    None => self.parse_postfix_expr(),
                }
            }
            TokenKind::Kw(Kw::Sizeof) => {
                self.pos += 1;
                if self.at_punct(Punct::LParen) && self.at_type_start(1) {
                    self.pos += 1;
                    let tn = self.parse_type_name()?;
                    let end = self.expect_punct(Punct::RParen)?;
                    Ok(self.ast.alloc_expr(ExprKind::SizeofType(Box::new(tn)), start.to(end)))
                } else {
                    let e = self.parse_unary_expr()?;
                    let span = start.to(self.ast.expr_span(e));
                    Ok(self.ast.alloc_expr(ExprKind::SizeofExpr(e), span))
                }
            }
            _ => self.parse_postfix_expr(),
        }
    }

    fn parse_postfix_expr(&mut self) -> Result<ExprId> {
        let mut e = self.parse_primary_expr()?;
        loop {
            let start = self.ast.expr_span(e);
            match &self.peek().kind {
                TokenKind::Punct(Punct::LParen) => {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if !self.at_punct(Punct::RParen) {
                        loop {
                            args.push(self.parse_assignment_expr()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    let end = self.expect_punct(Punct::RParen)?;
                    e = self.ast.alloc_expr(ExprKind::Call(e, args), start.to(end));
                }
                TokenKind::Punct(Punct::LBracket) => {
                    self.pos += 1;
                    let idx = self.parse_expr()?;
                    let end = self.expect_punct(Punct::RBracket)?;
                    e = self.ast.alloc_expr(ExprKind::Index(e, idx), start.to(end));
                }
                TokenKind::Punct(Punct::Dot) => {
                    self.pos += 1;
                    let (field, fspan) = self.expect_ident()?;
                    e = self.ast.alloc_expr(
                        ExprKind::Member { base: e, field, arrow: false },
                        start.to(fspan),
                    );
                }
                TokenKind::Punct(Punct::Arrow) => {
                    self.pos += 1;
                    let (field, fspan) = self.expect_ident()?;
                    e = self.ast.alloc_expr(
                        ExprKind::Member { base: e, field, arrow: true },
                        start.to(fspan),
                    );
                }
                TokenKind::Punct(Punct::PlusPlus) => {
                    let end = self.bump().span;
                    e = self.ast.alloc_expr(ExprKind::PostIncDec(IncDec::Inc, e), start.to(end));
                }
                TokenKind::Punct(Punct::MinusMinus) => {
                    let end = self.bump().span;
                    e = self.ast.alloc_expr(ExprKind::PostIncDec(IncDec::Dec, e), start.to(end));
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn parse_primary_expr(&mut self) -> Result<ExprId> {
        let t = self.peek().clone();
        match t.kind {
            TokenKind::Ident(name) => {
                self.pos += 1;
                Ok(self.ast.alloc_expr(ExprKind::Ident(Symbol::intern(&name)), t.span))
            }
            TokenKind::Int(v) => {
                self.pos += 1;
                Ok(self.ast.alloc_expr(ExprKind::IntLit(v), t.span))
            }
            TokenKind::Float(v) => {
                self.pos += 1;
                Ok(self.ast.alloc_expr(ExprKind::FloatLit(v), t.span))
            }
            TokenKind::Char(v) => {
                self.pos += 1;
                Ok(self.ast.alloc_expr(ExprKind::CharLit(v), t.span))
            }
            TokenKind::Str(s) => {
                self.pos += 1;
                // Adjacent string literals concatenate.
                let mut full = s;
                let mut span = t.span;
                while let TokenKind::Str(next) = &self.peek().kind {
                    full.push_str(next);
                    span = span.to(self.peek().span);
                    self.pos += 1;
                }
                Ok(self.ast.alloc_expr(ExprKind::StrLit(Symbol::intern(&full)), span))
            }
            TokenKind::Punct(Punct::LParen) => {
                self.pos += 1;
                let e = self.parse_expr()?;
                let end = self.expect_punct(Punct::RParen)?;
                // Widen the node's span to include the parentheses.
                self.ast.set_expr_span(e, t.span.to(end));
                Ok(e)
            }
            other => Err(self.err(format!("expected expression, found `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_translation_unit;

    fn parse(src: &str) -> TranslationUnit {
        parse_translation_unit("t.c", src).map(|(tu, _, _)| tu).unwrap()
    }

    fn parse_err(src: &str) -> SyntaxError {
        parse_translation_unit("t.c", src).unwrap_err()
    }

    fn decl(tu: &TranslationUnit, i: usize) -> &Declaration {
        match &tu.items[i] {
            Item::Decl(d) => tu.arena.decl(*d),
            _ => panic!("expected decl"),
        }
    }

    fn lex(src: &str) -> Vec<Token> {
        crate::Lexer::tokenize(src, crate::FileId(0)).unwrap().0
    }

    #[test]
    fn inherited_typedefs_are_consulted_and_misses_recorded() {
        let src = "typedef int own; own a; void f(void) { item x; other = 1; a = (own) other; }";
        let inherited: FxHashSet<String> = ["item".to_owned()].into_iter().collect();
        let with = Parser::with_inherited(lex(src), &inherited).record_misses();
        let out = on_parse_stack(move || with.parse_recovering_here());
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        // `own` is registered by the unit itself, `item` is inherited: only
        // identifiers that were looked up and found wanting are misses.
        assert!(out.misses.contains("other"), "{:?}", out.misses);
        assert!(!out.misses.contains("item") && !out.misses.contains("size_t"));

        // Registering the inherited name by hand parses identically.
        let mut copied = Parser::new(lex(src));
        copied.add_typedef("item");
        let (unit, errors) = copied.parse_translation_unit_recovering();
        assert!(errors.is_empty());
        assert_eq!(crate::pretty_print(&unit), crate::pretty_print(&out.unit));

        // Without the name, `item` is a miss and the unit parses differently.
        let plain = Parser::new(lex(src)).record_misses();
        let out = on_parse_stack(move || plain.parse_recovering_here());
        assert!(out.misses.contains("item"), "{:?}", out.misses);
        assert!(!out.errors.is_empty());
    }

    #[test]
    fn misses_are_empty_unless_recorded() {
        let p = Parser::new(lex("int x; y z;"));
        let out = on_parse_stack(move || p.parse_recovering_here());
        assert!(out.misses.is_empty());
    }

    #[test]
    fn simple_global() {
        let tu = parse("int x;");
        assert_eq!(tu.items.len(), 1);
        let d = decl(&tu, 0);
        assert_eq!(d.declarators[0].declarator.name.unwrap(), "x");
        assert_eq!(d.specs.ty, TypeSpec::Int { signed: true, size: IntSize::Int });
    }

    #[test]
    fn multi_word_types() {
        let tu = parse("unsigned long a; short int b; signed char c; long double d; unsigned u;");
        let tys: Vec<_> = (0..5).map(|i| decl(&tu, i).specs.ty.clone()).collect();
        assert_eq!(tys[0], TypeSpec::Int { signed: false, size: IntSize::Long });
        assert_eq!(tys[1], TypeSpec::Int { signed: true, size: IntSize::Short });
        assert_eq!(tys[2], TypeSpec::Char { signed: Some(true) });
        assert_eq!(tys[3], TypeSpec::Double);
        assert_eq!(tys[4], TypeSpec::Int { signed: false, size: IntSize::Int });
    }

    #[test]
    fn pointer_declarators() {
        let tu = parse("char **p; char *a[3]; char (*pa)[10]; int (*fp)(int, char *);");
        let get = |i: usize| decl(&tu, i).declarators[0].declarator.clone();
        let p = get(0);
        assert_eq!(p.derived.len(), 2);
        assert!(matches!(p.derived[0], Derived::Pointer { .. }));
        let a = get(1);
        assert!(matches!(a.derived[0], Derived::Array(_)));
        assert!(matches!(a.derived[1], Derived::Pointer { .. }));
        let pa = get(2);
        assert!(matches!(pa.derived[0], Derived::Pointer { .. }));
        assert!(matches!(pa.derived[1], Derived::Array(_)));
        let fp = get(3);
        assert!(matches!(fp.derived[0], Derived::Pointer { .. }));
        assert!(matches!(fp.derived[1], Derived::Function { .. }));
    }

    #[test]
    fn function_definition() {
        let tu = parse("int add(int a, int b) { return a + b; }");
        match &tu.items[0] {
            Item::Function(f) => {
                assert_eq!(f.name(), "add");
                let (params, variadic) = f.declarator.function_params().unwrap();
                assert_eq!(params.len(), 2);
                assert!(!variadic);
                assert_eq!(params[0].name().unwrap(), "a");
            }
            _ => panic!("expected function"),
        }
    }

    #[test]
    fn void_param_list() {
        let tu = parse("int f(void) { return 0; }");
        match &tu.items[0] {
            Item::Function(f) => {
                let (params, _) = f.declarator.function_params().unwrap();
                assert!(params.is_empty());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn variadic_prototype() {
        let tu = parse("extern int printf(char *fmt, ...);");
        let d = decl(&tu, 0);
        let (_, variadic) = d.declarators[0].declarator.function_params().unwrap();
        assert!(variadic);
    }

    #[test]
    fn annotations_on_params_and_specs() {
        let tu = parse("void setName(/*@null@*/ char *pname) { }");
        match &tu.items[0] {
            Item::Function(f) => {
                let (params, _) = f.declarator.function_params().unwrap();
                assert_eq!(params[0].specs.annots.null(), Some(crate::annot::NullAnnot::Null));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn malloc_signature() {
        let tu = parse("/*@null@*/ /*@out@*/ /*@only@*/ void *malloc(size_t size);");
        let a = &decl(&tu, 0).specs.annots;
        assert!(a.null().is_some());
        assert!(a.def().is_some());
        assert!(a.alloc().is_some());
    }

    #[test]
    fn combined_annotation_comment() {
        let tu = parse("/*@null out only@*/ void *malloc(size_t size);");
        assert_eq!(decl(&tu, 0).specs.annots.len(), 3);
    }

    #[test]
    fn typedef_and_cast() {
        let tu = parse(
            "typedef struct _list { int v; struct _list *next; } *list;\n\
             void f(void) { list l; l = (list) 0; }",
        );
        assert_eq!(tu.items.len(), 2);
        let ast = &tu.arena;
        // The cast must have parsed as a cast, not a call.
        match &tu.items[1] {
            Item::Function(f) => {
                let body = match ast.stmt(f.body) {
                    StmtKind::Compound(items) => items,
                    _ => panic!(),
                };
                match &body[1] {
                    BlockItem::Stmt(s) => match ast.stmt(*s) {
                        StmtKind::Expr(e) => match ast.expr(*e) {
                            ExprKind::Assign(_, _, rhs) => {
                                assert!(matches!(ast.expr(*rhs), ExprKind::Cast(_, _)));
                            }
                            _ => panic!("expected assign"),
                        },
                        _ => panic!(),
                    },
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn paper_figure5_parses() {
        let src = r#"
typedef /*@null@*/ struct _list
{
  /*@only@*/ char *this;
  /*@null@*/ /*@only@*/ struct _list *next;
} *list;

extern /*@out@*/ /*@only@*/ void *smalloc(size_t);

void list_addh(/*@temp@*/ list l, /*@only@*/ char *e)
{
  if (l != NULL)
  {
    while (l->next != NULL)
    {
      l = l->next;
    }
    l->next = (list) smalloc(sizeof(*l->next));
    l->next->this = e;
  }
}
"#;
        let tu = parse(src);
        assert_eq!(tu.items.len(), 3);
        match &tu.items[2] {
            Item::Function(f) => assert_eq!(f.name(), "list_addh"),
            _ => panic!(),
        }
    }

    #[test]
    fn struct_fields_with_annotations() {
        let tu = parse("typedef struct { /*@null@*/ int *vals; int size; } *erc;");
        match &decl(&tu, 0).specs.ty {
            TypeSpec::Struct(s) => {
                let fields = s.fields.as_ref().unwrap();
                assert_eq!(fields.len(), 2);
                assert!(fields[0].specs.annots.null().is_some());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn expressions_precedence() {
        let tu = parse("int x = 1 + 2 * 3 == 7 && 4 < 5;");
        let ast = &tu.arena;
        let d = decl(&tu, 0);
        let init = d.declarators[0].init.as_ref().unwrap();
        match init {
            Initializer::Expr(e) => match ast.expr(*e) {
                ExprKind::Binary(BinOp::LogAnd, l, _) => {
                    assert!(matches!(ast.expr(*l), ExprKind::Binary(BinOp::Eq, _, _)));
                }
                other => panic!("unexpected: {other:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn statements_parse() {
        parse(
            "void f(int n) {\n\
               int i;\n\
               for (i = 0; i < n; i++) { if (i == 2) continue; else break; }\n\
               while (n > 0) { n--; }\n\
               do { n++; } while (n < 10);\n\
               switch (n) { case 1: n = 2; break; default: n = 3; }\n\
               lab: n = 4;\n\
               goto lab;\n\
             }",
        );
    }

    #[test]
    fn sizeof_forms() {
        parse("void f(void) { int a; int b; a = sizeof(int); b = sizeof a; a = sizeof(*&b); }");
    }

    #[test]
    fn ternary_and_comma() {
        parse("int g(int a, int b) { return a ? b : (a, b); }");
    }

    #[test]
    fn string_concatenation() {
        let tu = parse("char *s = \"ab\" \"cd\";");
        match decl(&tu, 0).declarators[0].init.as_ref().unwrap() {
            Initializer::Expr(e) => {
                assert_eq!(*tu.arena.expr(*e), ExprKind::StrLit(Symbol::intern("abcd")));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn enum_declaration() {
        let tu = parse("enum color { RED, GREEN = 5, BLUE };");
        match &decl(&tu, 0).specs.ty {
            TypeSpec::Enum(e) => {
                let vs = e.variants.as_ref().unwrap();
                assert_eq!(vs.len(), 3);
                assert_eq!(vs[1].0, "GREEN");
                assert!(vs[1].1.is_some());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn initializer_lists() {
        parse("int a[3] = {1, 2, 3}; struct p { int x; int y; }; struct p q = { 1, 2 };");
    }

    #[test]
    fn error_messages() {
        let e = parse_err("int x");
        assert!(e.message.contains("expected"));
        let e = parse_err("int 3;");
        assert!(e.message.contains("declarator"));
        let e = parse_err("void f(void) { return }");
        assert!(e.message.contains("expression"));
    }

    #[test]
    fn incompatible_annotations_rejected() {
        let e = parse_err("/*@only@*/ /*@temp@*/ char *p;");
        assert!(e.message.contains("incompatible"));
    }

    #[test]
    fn unknown_annotation_rejected() {
        let e = parse_err("/*@bogus@*/ char *p;");
        assert!(e.message.contains("unknown annotation"));
    }

    #[test]
    fn multiple_declarators() {
        let tu = parse("int a, *b, c[4];");
        assert_eq!(decl(&tu, 0).declarators.len(), 3);
    }

    #[test]
    fn static_function() {
        let tu = parse("static int helper(void) { return 1; }");
        match &tu.items[0] {
            Item::Function(f) => assert_eq!(f.specs.storage, Some(StorageClass::Static)),
            _ => panic!(),
        }
    }

    #[test]
    fn annotated_pointer_levels() {
        // Annotation between stars applies to that pointer level.
        let tu = parse("char * /*@null@*/ * p;");
        let dcl = &decl(&tu, 0).declarators[0].declarator;
        assert_eq!(dcl.derived.len(), 2);
    }

    #[test]
    fn cast_with_annotations() {
        parse("void f(void) { char *p; p = (/*@only@*/ char *) 0; }");
    }

    #[test]
    fn function_returning_pointer() {
        let tu = parse("char *dup(const char *s);");
        let dcl = &decl(&tu, 0).declarators[0].declarator;
        assert!(matches!(dcl.derived[0], Derived::Function { .. }));
        assert!(matches!(dcl.derived[1], Derived::Pointer { .. }));
    }

    // -- error recovery -----------------------------------------------------

    fn parse_recovering(src: &str) -> (TranslationUnit, Vec<SyntaxError>) {
        let (tu, _, _, errors) = crate::parse_translation_unit_recovering("t.c", src).unwrap();
        (tu, errors)
    }

    #[test]
    fn recovery_skips_bad_declaration_to_semicolon() {
        let (tu, errors) = parse_recovering("int 3 = 4;\nint ok;\n");
        assert_eq!(errors.len(), 1);
        assert_eq!(tu.items.len(), 1);
        match &tu.items[0] {
            Item::Decl(d) => {
                assert_eq!(tu.arena.decl(*d).declarators[0].declarator.name.unwrap(), "ok")
            }
            _ => panic!("expected decl"),
        }
    }

    #[test]
    fn recovery_skips_bad_function_body_to_closing_brace() {
        let src = "void bad(void) { return }\nvoid good(void) { return; }\n";
        let (tu, errors) = parse_recovering(src);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].message.contains("expected expression"));
        assert_eq!(tu.items.len(), 1);
        match &tu.items[0] {
            Item::Function(f) => assert_eq!(f.declarator.name.unwrap(), "good"),
            _ => panic!("expected function"),
        }
    }

    #[test]
    fn recovery_collects_multiple_errors() {
        let src = "int 1;\nint a;\nint 2;\nint b;\n";
        let (tu, errors) = parse_recovering(src);
        assert_eq!(errors.len(), 2);
        assert_eq!(tu.items.len(), 2);
    }

    #[test]
    fn recovery_handles_truncated_file() {
        // The body never closes; the error is recorded and parsing stops at
        // EOF instead of looping.
        let (tu, errors) = parse_recovering("int a;\nvoid f(void) { int x = 1;\n");
        assert_eq!(tu.items.len(), 1);
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn recovery_of_error_free_input_matches_strict_parse() {
        let src = "int g;\nvoid f(/*@null@*/ char *p) { if (p) { g = 1; } }\n";
        let strict = parse(src);
        let (recovered, errors) = parse_recovering(src);
        assert!(errors.is_empty());
        assert_eq!(strict.items.len(), recovered.items.len());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let mut expr = String::new();
        for _ in 0..10_000 {
            expr.push('(');
        }
        expr.push('1');
        for _ in 0..10_000 {
            expr.push(')');
        }
        let err = parse_err(&format!("int x = {expr};"));
        assert!(err.message.contains("nesting too deep"), "got: {}", err.message);
        // And the recovering parser survives it too.
        let (_, errors) = parse_recovering(&format!("int x = {expr};\nint ok;\n"));
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn moderate_nesting_still_parses() {
        let mut expr = String::new();
        for _ in 0..100 {
            expr.push('(');
        }
        expr.push('1');
        for _ in 0..100 {
            expr.push(')');
        }
        parse(&format!("int x = {expr};"));
    }
}
