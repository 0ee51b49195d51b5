//! Run-stable hashing for incremental checking.
//!
//! The incremental cache keys per-function results by content fingerprints
//! that must survive process restarts and land in on-disk caches, so the
//! hashes here are *stable*: plain FNV-1a 64 over canonical byte
//! renderings, never [`std::hash::DefaultHasher`] (whose output is
//! randomized per process) and never anything containing a [`Span`]
//! (editing one function must not invalidate its neighbours below it).
//!
//! [`function_def_hash`] walks the flat [`Ast`] arena directly, folding each
//! node's tag and payload (identifier text via [`Symbol::text_hash`], which
//! is precomputed at intern time). The old implementation rendered the
//! function back to C text and hashed the string; the structural walk visits
//! the same information without materializing it.
//!
//! [`Span`]: crate::span::Span

use crate::ast::{
    Ast, BlockItem, DeclSpecs, Declaration, Declarator, Derived, ExprId, ExprKind, ForInit,
    FunctionDef, Initializer, IntSize, StmtId, StmtKind, TypeName, TypeSpec,
};
use crate::intern::Symbol;
use crate::token::{Token, TokenKind};

/// FNV-1a 64-bit. Deliberately boring: stable across runs, platforms and
/// toolchain updates, with no dependencies.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StableHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a string with a length prefix (so `"ab" + "c"` and
    /// `"a" + "bc"` hash differently).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Absorbs an interned symbol by its *text* hash (stable across
    /// processes; the raw interner id is not).
    pub fn write_symbol(&mut self, s: Symbol) {
        self.write_u64(s.text_hash());
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs an `i64` (little-endian).
    pub fn write_i64(&mut self, v: i64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a bool as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Hashes a preprocessed token stream, excluding spans and layout trivia.
///
/// Two streams hash equal exactly when their token payloads match in
/// order — whitespace, comments (other than semantic `/*@...@*/`
/// annotations, which are tokens) and source positions are invisible, so
/// edits *above* a region do not change the region's hash.
pub fn token_stream_hash(tokens: &[Token]) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(tokens.len() as u64);
    for t in tokens {
        // The discriminant byte keeps `Ident("int")` and `Kw(Int)` apart
        // even where their renderings collide.
        let tag: u8 = match &t.kind {
            TokenKind::Ident(_) => 0,
            TokenKind::Kw(_) => 1,
            TokenKind::Int(_) => 2,
            TokenKind::Float(_) => 3,
            TokenKind::Char(_) => 4,
            TokenKind::Str(_) => 5,
            TokenKind::Punct(_) => 6,
            TokenKind::Annot(_) => 7,
            TokenKind::HeaderName(_) => 8,
            TokenKind::Eof => 9,
        };
        h.write_u8(tag);
        h.write_str(&t.kind.to_string());
    }
    h.finish()
}

/// Hashes one function definition structurally: a direct walk over the flat
/// arena covering everything that can change the function's checking —
/// specifiers, declarator (annotations included), and body — and nothing
/// positional (no spans, no arena indices).
pub fn function_def_hash(ast: &Ast, f: &FunctionDef) -> u64 {
    let mut w = AstHasher { ast, h: StableHasher::new() };
    w.specs(&f.specs);
    w.declarator(&f.declarator);
    w.stmt(f.body);
    w.h.finish()
}

/// Structural walker folding arena nodes into a [`StableHasher`]. Every
/// variant writes a distinct tag byte before its payload so reorderings and
/// boundary shifts cannot collide.
struct AstHasher<'a> {
    ast: &'a Ast,
    h: StableHasher,
}

impl AstHasher<'_> {
    fn specs(&mut self, s: &DeclSpecs) {
        self.h.write_u8(match s.storage {
            None => 0,
            Some(sc) => 1 + sc as u8,
        });
        self.h.write_bool(s.is_const);
        self.h.write_bool(s.is_volatile);
        self.h.write_str(&s.annots.to_string());
        self.type_spec(&s.ty);
    }

    fn type_spec(&mut self, t: &TypeSpec) {
        match t {
            TypeSpec::Void => self.h.write_u8(0),
            TypeSpec::Char { signed } => {
                self.h.write_u8(1);
                self.h.write_u8(match signed {
                    None => 0,
                    Some(false) => 1,
                    Some(true) => 2,
                });
            }
            TypeSpec::Int { signed, size } => {
                self.h.write_u8(2);
                self.h.write_bool(*signed);
                self.h.write_u8(match size {
                    IntSize::Short => 0,
                    IntSize::Int => 1,
                    IntSize::Long => 2,
                });
            }
            TypeSpec::Float => self.h.write_u8(3),
            TypeSpec::Double => self.h.write_u8(4),
            TypeSpec::Named(n) => {
                self.h.write_u8(5);
                self.h.write_symbol(*n);
            }
            TypeSpec::Struct(s) => {
                self.h.write_u8(6);
                self.h.write_bool(s.is_union);
                match s.name {
                    None => self.h.write_u8(0),
                    Some(n) => {
                        self.h.write_u8(1);
                        self.h.write_symbol(n);
                    }
                }
                match &s.fields {
                    None => self.h.write_u8(0),
                    Some(fields) => {
                        self.h.write_u8(1);
                        self.h.write_u64(fields.len() as u64);
                        for f in fields {
                            self.specs(&f.specs);
                            self.h.write_u64(f.declarators.len() as u64);
                            for d in &f.declarators {
                                self.declarator(d);
                            }
                        }
                    }
                }
            }
            TypeSpec::Enum(e) => {
                self.h.write_u8(7);
                match e.name {
                    None => self.h.write_u8(0),
                    Some(n) => {
                        self.h.write_u8(1);
                        self.h.write_symbol(n);
                    }
                }
                match &e.variants {
                    None => self.h.write_u8(0),
                    Some(vs) => {
                        self.h.write_u8(1);
                        self.h.write_u64(vs.len() as u64);
                        for (n, v) in vs {
                            self.h.write_symbol(*n);
                            match v {
                                None => self.h.write_u8(0),
                                Some(e) => {
                                    self.h.write_u8(1);
                                    self.expr(*e);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn declarator(&mut self, d: &Declarator) {
        match d.name {
            None => self.h.write_u8(0),
            Some(n) => {
                self.h.write_u8(1);
                self.h.write_symbol(n);
            }
        }
        self.h.write_u64(d.derived.len() as u64);
        for part in &d.derived {
            match part {
                Derived::Pointer { annots, is_const } => {
                    self.h.write_u8(0);
                    self.h.write_str(&annots.to_string());
                    self.h.write_bool(*is_const);
                }
                Derived::Array(sz) => {
                    self.h.write_u8(1);
                    match sz {
                        None => self.h.write_u8(0),
                        Some(e) => {
                            self.h.write_u8(1);
                            self.expr(*e);
                        }
                    }
                }
                Derived::Function { params, variadic, globals } => {
                    self.h.write_u8(2);
                    self.h.write_bool(*variadic);
                    self.h.write_u64(params.len() as u64);
                    for p in params {
                        self.specs(&p.specs);
                        self.declarator(&p.declarator);
                    }
                    match globals {
                        None => self.h.write_u8(0),
                        Some(gs) => {
                            self.h.write_u8(1);
                            self.h.write_u64(gs.len() as u64);
                            for g in gs {
                                self.h.write_symbol(g.name);
                                self.h.write_bool(g.undef);
                            }
                        }
                    }
                }
            }
        }
    }

    fn type_name(&mut self, tn: &TypeName) {
        self.specs(&tn.specs);
        self.declarator(&tn.declarator);
    }

    fn declaration(&mut self, d: &Declaration) {
        self.specs(&d.specs);
        self.h.write_u64(d.declarators.len() as u64);
        for id in &d.declarators {
            self.declarator(&id.declarator);
            match &id.init {
                None => self.h.write_u8(0),
                Some(init) => {
                    self.h.write_u8(1);
                    self.initializer(init);
                }
            }
        }
    }

    fn initializer(&mut self, init: &Initializer) {
        match init {
            Initializer::Expr(e) => {
                self.h.write_u8(0);
                self.expr(*e);
            }
            Initializer::List(items) => {
                self.h.write_u8(1);
                self.h.write_u64(items.len() as u64);
                for it in items {
                    self.initializer(it);
                }
            }
        }
    }

    fn stmt(&mut self, s: StmtId) {
        match self.ast.stmt(s) {
            StmtKind::Compound(items) => {
                self.h.write_u8(0);
                self.h.write_u64(items.len() as u64);
                for item in items {
                    match item {
                        BlockItem::Decl(d) => {
                            self.h.write_u8(0);
                            self.declaration(self.ast.decl(*d));
                        }
                        BlockItem::Stmt(s) => {
                            self.h.write_u8(1);
                            self.stmt(*s);
                        }
                    }
                }
            }
            StmtKind::Expr(e) => {
                self.h.write_u8(1);
                self.expr(*e);
            }
            StmtKind::Empty => self.h.write_u8(2),
            StmtKind::If { cond, then_branch, else_branch } => {
                self.h.write_u8(3);
                self.expr(*cond);
                self.stmt(*then_branch);
                match else_branch {
                    None => self.h.write_u8(0),
                    Some(e) => {
                        self.h.write_u8(1);
                        self.stmt(*e);
                    }
                }
            }
            StmtKind::While { cond, body } => {
                self.h.write_u8(4);
                self.expr(*cond);
                self.stmt(*body);
            }
            StmtKind::DoWhile { body, cond } => {
                self.h.write_u8(5);
                self.stmt(*body);
                self.expr(*cond);
            }
            StmtKind::For { init, cond, step, body } => {
                self.h.write_u8(6);
                match init {
                    None => self.h.write_u8(0),
                    Some(ForInit::Expr(e)) => {
                        self.h.write_u8(1);
                        self.expr(*e);
                    }
                    Some(ForInit::Decl(d)) => {
                        self.h.write_u8(2);
                        self.declaration(self.ast.decl(*d));
                    }
                }
                match cond {
                    None => self.h.write_u8(0),
                    Some(c) => {
                        self.h.write_u8(1);
                        self.expr(*c);
                    }
                }
                match step {
                    None => self.h.write_u8(0),
                    Some(st) => {
                        self.h.write_u8(1);
                        self.expr(*st);
                    }
                }
                self.stmt(*body);
            }
            StmtKind::Switch { cond, body } => {
                self.h.write_u8(7);
                self.expr(*cond);
                self.stmt(*body);
            }
            StmtKind::Case { value, stmt } => {
                self.h.write_u8(8);
                self.expr(*value);
                self.stmt(*stmt);
            }
            StmtKind::Default(stmt) => {
                self.h.write_u8(9);
                self.stmt(*stmt);
            }
            StmtKind::Break => self.h.write_u8(10),
            StmtKind::Continue => self.h.write_u8(11),
            StmtKind::Return(v) => {
                self.h.write_u8(12);
                match v {
                    None => self.h.write_u8(0),
                    Some(e) => {
                        self.h.write_u8(1);
                        self.expr(*e);
                    }
                }
            }
            StmtKind::Label { name, stmt } => {
                self.h.write_u8(13);
                self.h.write_symbol(*name);
                self.stmt(*stmt);
            }
            StmtKind::Goto(name) => {
                self.h.write_u8(14);
                self.h.write_symbol(*name);
            }
        }
    }

    fn expr(&mut self, e: ExprId) {
        match self.ast.expr(e) {
            ExprKind::Ident(n) => {
                self.h.write_u8(0);
                self.h.write_symbol(*n);
            }
            ExprKind::IntLit(v) => {
                self.h.write_u8(1);
                self.h.write_i64(*v);
            }
            ExprKind::FloatLit(v) => {
                self.h.write_u8(2);
                self.h.write_u64(v.to_bits());
            }
            ExprKind::CharLit(v) => {
                self.h.write_u8(3);
                self.h.write_i64(*v);
            }
            ExprKind::StrLit(s) => {
                self.h.write_u8(4);
                self.h.write_symbol(*s);
            }
            ExprKind::Unary(op, inner) => {
                self.h.write_u8(5);
                self.h.write_u8(*op as u8);
                self.expr(*inner);
            }
            ExprKind::PreIncDec(op, inner) => {
                self.h.write_u8(6);
                self.h.write_u8(*op as u8);
                self.expr(*inner);
            }
            ExprKind::PostIncDec(op, inner) => {
                self.h.write_u8(7);
                self.h.write_u8(*op as u8);
                self.expr(*inner);
            }
            ExprKind::Binary(op, l, r) => {
                self.h.write_u8(8);
                self.h.write_u8(*op as u8);
                self.expr(*l);
                self.expr(*r);
            }
            ExprKind::Assign(op, l, r) => {
                self.h.write_u8(9);
                self.h.write_u8(*op as u8);
                self.expr(*l);
                self.expr(*r);
            }
            ExprKind::Cond(c, t, f) => {
                self.h.write_u8(10);
                self.expr(*c);
                self.expr(*t);
                self.expr(*f);
            }
            ExprKind::Call(f, args) => {
                self.h.write_u8(11);
                self.expr(*f);
                self.h.write_u64(args.len() as u64);
                for a in args {
                    self.expr(*a);
                }
            }
            ExprKind::Member { base, field, arrow } => {
                self.h.write_u8(12);
                self.expr(*base);
                self.h.write_symbol(*field);
                self.h.write_bool(*arrow);
            }
            ExprKind::Index(b, i) => {
                self.h.write_u8(13);
                self.expr(*b);
                self.expr(*i);
            }
            ExprKind::Cast(tn, inner) => {
                self.h.write_u8(14);
                self.type_name(tn);
                self.expr(*inner);
            }
            ExprKind::SizeofExpr(inner) => {
                self.h.write_u8(15);
                self.expr(*inner);
            }
            ExprKind::SizeofType(tn) => {
                self.h.write_u8(16);
                self.type_name(tn);
            }
            ExprKind::Comma(l, r) => {
                self.h.write_u8(17);
                self.expr(*l);
                self.expr(*r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Item;
    use crate::lexer::Lexer;
    use crate::parse_translation_unit;
    use crate::span::FileId;

    fn tokens(src: &str) -> Vec<Token> {
        Lexer::tokenize(src, FileId(0)).expect("lexes").0
    }

    #[test]
    fn fnv_vector() {
        // The empty input is the offset basis; one step of FNV-1a is
        // (basis ^ byte) * prime.
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = StableHasher::new();
        h.write_u8(b'a');
        assert_eq!(
            h.finish(),
            (0xcbf2_9ce4_8422_2325_u64 ^ b'a' as u64).wrapping_mul(0x100_0000_01b3)
        );
    }

    #[test]
    fn token_hash_ignores_layout_but_not_content() {
        let a = tokens("int x = 1;");
        let b = tokens("\n\n  int   x /* c */ =\n 1;");
        let c = tokens("int x = 2;");
        assert_eq!(token_stream_hash(&a), token_stream_hash(&b));
        assert_ne!(token_stream_hash(&a), token_stream_hash(&c));
    }

    #[test]
    fn token_hash_sees_annotations() {
        let a = tokens("char *p;");
        let b = tokens("/*@null@*/ char *p;");
        assert_ne!(token_stream_hash(&a), token_stream_hash(&b));
    }

    fn only_fn_hash(src: &str) -> u64 {
        let (tu, _, _) = parse_translation_unit("h.c", src).expect("parses");
        let f = tu
            .items
            .iter()
            .find_map(|i| match i {
                Item::Function(f) => Some(f),
                _ => None,
            })
            .expect("has a function");
        function_def_hash(&tu.arena, f)
    }

    #[test]
    fn function_hash_is_position_independent() {
        let lone = only_fn_hash("int f(int a) { return a + 1; }");
        let shifted = only_fn_hash("int g;\nlong h;\n\n\nint f(int a) { return a + 1; }");
        assert_eq!(lone, shifted);
    }

    #[test]
    fn function_hash_matches_golden_value() {
        // Pinned fingerprint of a fixed definition. Any change to the
        // structural walk (tag bytes, field order, symbol folding) shows up
        // here first — and requires bumping `CACHE_FORMAT_VERSION`, because
        // persisted caches key their entries by this hash.
        let src = "int f(/*@null@*/ char *p) { if (p != 0) { *p = 'a'; } return 0; }";
        assert_eq!(only_fn_hash(src), 0xa04de9d51538ec1d);
        // The same definition reformatted (spans shift, text changes, layout
        // differs) must still land on the golden value: the walk reads the
        // arena payloads, never spans or source bytes.
        let reformatted = "// leading comment\nint f(\n    /*@null@*/ char *p\n) {\n  if (p != 0) {\n    *p = 'a';\n  }\n  return 0;\n}\n";
        assert_eq!(only_fn_hash(reformatted), 0xa04de9d51538ec1d);
    }

    #[test]
    fn function_hash_sees_body_and_annotation_edits() {
        let base = only_fn_hash("int f(char *p) { return 0; }");
        let body = only_fn_hash("int f(char *p) { return 1; }");
        let annot = only_fn_hash("int f(/*@temp@*/ char *p) { return 0; }");
        assert_ne!(base, body);
        assert_ne!(base, annot);
    }

    #[test]
    fn structural_hash_distinguishes_shapes() {
        // Cases the old text hash separated; the structural walk must too.
        assert_ne!(
            only_fn_hash("int f(void) { return 1 + 2; }"),
            only_fn_hash("int f(void) { return 1 - 2; }")
        );
        assert_ne!(
            only_fn_hash("void f(void) { if (1) { ; } }"),
            only_fn_hash("void f(void) { while (1) { ; } }")
        );
        assert_ne!(
            only_fn_hash("void f(char *p) { free(p); }"),
            only_fn_hash("void f(char *q) { free(q); }")
        );
        assert_ne!(
            only_fn_hash("int f(void) { return sizeof(int); }"),
            only_fn_hash("int f(void) { return sizeof(long); }")
        );
    }
}
