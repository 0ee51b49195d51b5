//! Program-level symbol tables and declaration resolution.
//!
//! [`Program::from_unit`] walks a parsed translation unit and builds the
//! typedef, struct, enum, global and function tables the checker consumes.
//! Resolution is tolerant: problems are collected as [`SemaError`]s and the
//! offending entity gets [`Type::Error`], so one bad declaration does not
//! abort checking of the rest of the file (LCLint's behaviour).
//!
//! All tables are keyed by interned [`Symbol`]s, and function definitions are
//! retained as a lightweight header ([`FunctionDef`] is a few ids) plus a
//! shared handle on the unit's node arena — nothing re-clones a syntax tree.

use crate::types::{Field, FnType, ParamType, QualType, StructId, StructTable, Type};
use lclint_syntax::annot::AnnotSet;
use lclint_syntax::ast::*;
use lclint_syntax::fx::FxHashMap;
use lclint_syntax::span::Span;
use lclint_syntax::{sym, Symbol};
use std::fmt;
use std::sync::Arc;

/// A non-fatal semantic problem found while building the program tables.
#[derive(Debug, Clone, PartialEq)]
pub struct SemaError {
    /// Human-readable description.
    pub message: String,
    /// Location.
    pub span: Span,
}

impl fmt::Display for SemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for SemaError {}

/// A declared function (prototype or definition).
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSig {
    /// Function name.
    pub name: Symbol,
    /// Signature (return annotations describe the result; `truenull` /
    /// `falsenull` / `noreturn` also live on the return type's annotations).
    pub ty: FnType,
    /// `static` storage.
    pub is_static: bool,
    /// True once a definition (with body) has been seen.
    pub has_def: bool,
    /// Declaration site.
    pub span: Span,
}

/// A global (or file-static) variable.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalVar {
    /// Variable name.
    pub name: Symbol,
    /// Declared type with annotations.
    pub ty: QualType,
    /// `static` storage.
    pub is_static: bool,
    /// Declared `extern` with no initializer anywhere in this unit.
    pub is_extern: bool,
    /// Has an initializer in this unit.
    pub has_init: bool,
    /// Declaration site.
    pub span: Span,
}

/// A function definition retained for checking: its resolved signature, the
/// definition header (declarator + body id) and a shared handle on the arena
/// the ids point into.
#[derive(Debug, Clone)]
pub struct CheckedFunction {
    /// The resolved signature.
    pub sig: FunctionSig,
    /// The definition header; `ast.body` indexes [`CheckedFunction::arena`].
    pub ast: FunctionDef,
    /// The node arena of the translation unit that defined this function.
    pub arena: Arc<Ast>,
}

/// The resolved program: every table the checker needs.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Struct/union definitions.
    pub structs: StructTable,
    /// Typedefs by name.
    pub typedefs: FxHashMap<Symbol, QualType>,
    /// Function signatures by name.
    pub functions: FxHashMap<Symbol, FunctionSig>,
    /// Globals by name.
    pub globals: FxHashMap<Symbol, GlobalVar>,
    /// Enumerator constants by name.
    pub enum_consts: FxHashMap<Symbol, i64>,
    /// Function definitions, in source order.
    pub defs: Vec<CheckedFunction>,
    /// Collected semantic problems.
    pub errors: Vec<SemaError>,
}

impl Program {
    /// Creates an empty program with built-in typedefs (`size_t`, `FILE`).
    pub fn new() -> Self {
        let mut p = Program::default();
        p.typedefs.insert(
            sym::size_t(),
            QualType::plain(Type::Int { signed: false, size: IntSize::Long }),
        );
        let file_id = p.structs.intern_tag("_FILE", false);
        p.typedefs.insert(sym::file_t(), QualType::plain(Type::Struct(file_id)));
        p
    }

    /// Builds program tables from a translation unit.
    pub fn from_unit(tu: &TranslationUnit) -> Program {
        let mut p = Program::new();
        p.extend_with(tu);
        p
    }

    /// Adds the declarations of another translation unit (e.g. a library
    /// interface or an additional module) to this program.
    pub fn extend_with(&mut self, tu: &TranslationUnit) {
        for item in &tu.items {
            match item {
                Item::Decl(d) => self.add_declaration(&tu.arena, tu.arena.decl(*d)),
                Item::Function(f) => self.add_function_def(&tu.arena, f),
            }
        }
    }

    fn err(&mut self, message: impl Into<String>, span: Span) {
        self.errors.push(SemaError { message: message.into(), span });
    }

    fn add_declaration(&mut self, ast: &Arc<Ast>, d: &Declaration) {
        // Resolve the specifier type once (registers struct/enum bodies).
        let base = self.resolve_type_spec(ast, &d.specs.ty, d.specs.span);
        for id in &d.declarators {
            let ty = self.build_declared_type(ast, base.clone(), &d.specs.annots, &id.declarator);
            let name = match id.declarator.name {
                Some(n) => n,
                None => continue,
            };
            match d.specs.storage {
                Some(StorageClass::Typedef) => {
                    self.typedefs.insert(name, ty);
                }
                _ => {
                    if let Type::Function(ft) = ty.ty {
                        self.register_function(FunctionSig {
                            name,
                            ty: *ft,
                            is_static: d.specs.storage == Some(StorageClass::Static),
                            has_def: false,
                            span: id.declarator.span,
                        });
                    } else {
                        let is_extern = d.specs.storage == Some(StorageClass::Extern);
                        let gv = GlobalVar {
                            name,
                            ty,
                            is_static: d.specs.storage == Some(StorageClass::Static),
                            is_extern,
                            has_init: id.init.is_some(),
                            span: id.declarator.span,
                        };
                        match self.globals.get_mut(&name) {
                            Some(existing) => {
                                existing.has_init |= gv.has_init;
                                if existing.is_extern && !gv.is_extern {
                                    let has_init = existing.has_init;
                                    *existing = gv;
                                    existing.has_init = has_init;
                                }
                            }
                            None => {
                                self.globals.insert(name, gv);
                            }
                        }
                    }
                }
            }
        }
    }

    fn register_function(&mut self, sig: FunctionSig) {
        match self.functions.get_mut(&sig.name) {
            Some(existing) => {
                // A definition wins over a prototype. Among prototypes, the
                // more annotated one wins (annotations accumulate as the
                // paper's iterative process adds them).
                if !existing.has_def {
                    let keep_def = existing.has_def;
                    *existing = sig;
                    existing.has_def |= keep_def;
                }
            }
            None => {
                self.functions.insert(sig.name, sig);
            }
        }
    }

    fn add_function_def(&mut self, ast: &Arc<Ast>, f: &FunctionDef) {
        let base = self.resolve_type_spec(ast, &f.specs.ty, f.specs.span);
        let ty = self.build_declared_type(ast, base, &f.specs.annots, &f.declarator);
        let name = f.name();
        let mut ft = match ty.ty {
            Type::Function(ft) => *ft,
            _ => {
                self.err(format!("`{name}` defined with a non-function declarator"), f.span);
                return;
            }
        };
        // The signature is kept twice, in `functions` and `defs`, for the
        // life of the program: drop the slack the parameter list grew with.
        ft.params.shrink_to_fit();
        let sig = FunctionSig {
            name,
            ty: ft,
            is_static: f.specs.storage == Some(StorageClass::Static),
            has_def: true,
            span: f.span,
        };
        // Definitions always replace prototypes, but prototype annotations
        // are merged in where the definition has none (LCL specs often carry
        // the annotations while the .c file does not).
        let merged = match self.functions.get(&name) {
            Some(proto) if !proto.has_def => {
                let mut s = sig;
                s.ty.ret.annots.inherit(&proto.ty.ret.annots);
                for (sp, pp) in s.ty.params.iter_mut().zip(proto.ty.params.iter()) {
                    sp.ty.annots.inherit(&pp.ty.annots);
                }
                if s.ty.globals.is_none() {
                    s.ty.globals = proto.ty.globals.clone();
                }
                s
            }
            Some(def) if def.has_def => {
                self.err(format!("function `{name}` defined more than once"), f.span);
                sig
            }
            _ => sig,
        };
        self.functions.insert(name, merged.clone());
        self.defs.push(CheckedFunction { sig: merged, ast: f.clone(), arena: Arc::clone(ast) });
    }

    /// Resolves a type specifier to a [`QualType`] (no declarator applied).
    pub fn resolve_type_spec(&mut self, ast: &Ast, ts: &TypeSpec, span: Span) -> QualType {
        resolve_type_spec_in(self, ast, ts, span)
    }

    /// Applies a declarator's derived parts to a base type and attaches the
    /// specifier-level annotations to the declaration's outer level (or, for
    /// function declarators, to the return type — the paper's convention for
    /// result annotations).
    pub fn build_declared_type(
        &mut self,
        ast: &Ast,
        base: QualType,
        spec_annots: &AnnotSet,
        declarator: &Declarator,
    ) -> QualType {
        build_declared_type_in(self, ast, base, spec_annots, declarator)
    }

    /// Resolves the type of a local declaration (used by the checker for
    /// block-scope declarations).
    pub fn resolve_local_declarator(
        &mut self,
        ast: &Ast,
        specs: &DeclSpecs,
        declarator: &Declarator,
    ) -> QualType {
        let base = self.resolve_type_spec(ast, &specs.ty, specs.span);
        self.build_declared_type(ast, base, &specs.annots, declarator)
    }

    /// Looks up a function signature.
    pub fn function<S: Into<Symbol>>(&self, name: S) -> Option<&FunctionSig> {
        self.functions.get(&name.into())
    }

    /// Looks up a global variable.
    pub fn global<S: Into<Symbol>>(&self, name: S) -> Option<&GlobalVar> {
        self.globals.get(&name.into())
    }
}

/// The symbol-table operations declaration resolution needs. Implemented by
/// [`Program`] (build time, writes to the shared tables) and by
/// [`crate::scope::LocalScope`] (check time, writes to a per-function overlay
/// so the shared program stays immutable and checking can run in parallel).
pub trait SymbolSource {
    /// Resolves a typedef name.
    fn lookup_typedef(&self, name: Symbol) -> Option<QualType>;
    /// Returns the id for a tagged struct/union, creating an incomplete entry
    /// if new. `defines_body` is true when the specifier carries a field list
    /// (an overlay uses it to shadow rather than mutate a shared definition).
    fn intern_struct(&mut self, tag: Symbol, is_union: bool, defines_body: bool) -> StructId;
    /// Creates a fresh anonymous struct/union.
    fn fresh_anon_struct(&mut self, is_union: bool) -> StructId;
    /// Attaches a body to a struct created by this source.
    fn complete_struct(&mut self, id: StructId, fields: Vec<Field>);
    /// Resolves an enumerator constant.
    fn enum_const(&self, name: Symbol) -> Option<i64>;
    /// Defines an enumerator constant.
    fn define_enum_const(&mut self, name: Symbol, value: i64);
    /// Records a non-fatal resolution problem.
    fn report(&mut self, message: String, span: Span);
}

impl SymbolSource for Program {
    fn lookup_typedef(&self, name: Symbol) -> Option<QualType> {
        self.typedefs.get(&name).cloned()
    }

    fn intern_struct(&mut self, tag: Symbol, is_union: bool, _defines_body: bool) -> StructId {
        self.structs.intern_tag(tag, is_union)
    }

    fn fresh_anon_struct(&mut self, is_union: bool) -> StructId {
        self.structs.fresh_anon(is_union)
    }

    fn complete_struct(&mut self, id: StructId, fields: Vec<Field>) {
        self.structs.complete(id, fields);
    }

    fn enum_const(&self, name: Symbol) -> Option<i64> {
        self.enum_consts.get(&name).copied()
    }

    fn define_enum_const(&mut self, name: Symbol, value: i64) {
        self.enum_consts.insert(name, value);
    }

    fn report(&mut self, message: String, span: Span) {
        self.err(message, span);
    }
}

/// Resolves a type specifier to a [`QualType`] against any [`SymbolSource`]
/// (no declarator applied).
pub fn resolve_type_spec_in<S: SymbolSource + ?Sized>(
    src: &mut S,
    ast: &Ast,
    ts: &TypeSpec,
    span: Span,
) -> QualType {
    match ts {
        TypeSpec::Void => QualType::plain(Type::Void),
        TypeSpec::Char { .. } => QualType::plain(Type::Char),
        TypeSpec::Int { signed, size } => {
            QualType::plain(Type::Int { signed: *signed, size: *size })
        }
        TypeSpec::Float => QualType::plain(Type::Float),
        TypeSpec::Double => QualType::plain(Type::Double),
        TypeSpec::Named(n) => match src.lookup_typedef(*n) {
            Some(q) => q,
            None => {
                src.report(format!("unknown type name `{n}`"), span);
                QualType::plain(Type::Error)
            }
        },
        TypeSpec::Struct(s) => {
            let id = match s.name {
                Some(tag) => src.intern_struct(tag, s.is_union, s.fields.is_some()),
                None => src.fresh_anon_struct(s.is_union),
            };
            if let Some(field_decls) = &s.fields {
                let mut fields = Vec::new();
                for fd in field_decls {
                    let base = resolve_type_spec_in(src, ast, &fd.specs.ty, fd.specs.span);
                    for dcl in &fd.declarators {
                        let fty =
                            build_declared_type_in(src, ast, base.clone(), &fd.specs.annots, dcl);
                        if let Some(fname) = dcl.name {
                            fields.push(Field { name: fname, ty: fty });
                        }
                    }
                }
                src.complete_struct(id, fields);
            }
            QualType::plain(Type::Struct(id))
        }
        TypeSpec::Enum(e) => {
            let name = e.name.unwrap_or_else(|| Symbol::intern("<anon>"));
            if let Some(vs) = &e.variants {
                let mut next = 0i64;
                for (vn, val) in vs {
                    if let Some(expr) = val {
                        if let Some(v) = const_eval_with(ast, *expr, &|n| src.enum_const(n)) {
                            next = v;
                        }
                    }
                    src.define_enum_const(*vn, next);
                    next += 1;
                }
            }
            QualType::plain(Type::Enum(name))
        }
    }
}

/// Applies a declarator's derived parts to a base type against any
/// [`SymbolSource`]. See [`Program::build_declared_type`].
pub fn build_declared_type_in<S: SymbolSource + ?Sized>(
    src: &mut S,
    ast: &Ast,
    base: QualType,
    spec_annots: &AnnotSet,
    declarator: &Declarator,
) -> QualType {
    let mut ty = base;
    // derived is in reading order; wrap from the innermost (last) outward.
    for part in declarator.derived.iter().rev() {
        ty = match part {
            Derived::Pointer { annots, .. } => {
                let mut q = QualType::plain(Type::Pointer(Box::new(ty)));
                q.annots = annots.clone();
                q
            }
            Derived::Array(size) => {
                let n = size
                    .and_then(|e| const_eval_with(ast, e, &|n| src.enum_const(n)))
                    .map(|v| v.max(0) as u64);
                QualType::plain(Type::Array(Box::new(ty), n))
            }
            Derived::Function { params, variadic, globals } => {
                let mut ps = Vec::new();
                for p in params {
                    let pbase = resolve_type_spec_in(src, ast, &p.specs.ty, p.specs.span);
                    let pty =
                        build_declared_type_in(src, ast, pbase, &p.specs.annots, &p.declarator);
                    ps.push(ParamType { name: p.declarator.name, ty: pty });
                }
                QualType::plain(Type::Function(Box::new(FnType {
                    ret: ty,
                    params: ps,
                    variadic: *variadic,
                    globals: globals.as_ref().map(|gs| {
                        gs.iter()
                            .map(|g| crate::types::GlobalUse { name: g.name, undef: g.undef })
                            .collect()
                    }),
                })))
            }
        };
    }
    // Attach specifier annotations.
    if let Type::Function(ft) = &mut ty.ty {
        let mut merged = spec_annots.clone();
        merged.inherit(&ft.ret.annots);
        ft.ret.annots = merged;
    } else {
        let mut merged = spec_annots.clone();
        merged.inherit(&ty.annots);
        ty.annots = merged;
    }
    ty
}

/// Evaluates a constant integer expression (enough for array sizes and enum
/// values). Returns `None` for anything non-constant.
pub fn const_eval(ast: &Ast, e: ExprId, enums: &FxHashMap<Symbol, i64>) -> Option<i64> {
    const_eval_with(ast, e, &|n| enums.get(&n).copied())
}

/// [`const_eval`] with a caller-supplied enumerator lookup, so overlays that
/// layer local enum constants over a shared table can evaluate too.
pub fn const_eval_with(ast: &Ast, e: ExprId, enums: &dyn Fn(Symbol) -> Option<i64>) -> Option<i64> {
    let const_eval = |e| const_eval_with(ast, e, enums);
    match ast.expr(e) {
        ExprKind::IntLit(v) => Some(*v),
        ExprKind::CharLit(v) => Some(*v),
        ExprKind::Ident(n) => enums(*n),
        ExprKind::Unary(UnOp::Neg, inner) => Some(-const_eval(*inner)?),
        ExprKind::Unary(UnOp::Plus, inner) => const_eval(*inner),
        ExprKind::Unary(UnOp::Not, inner) => Some(i64::from(const_eval(*inner)? == 0)),
        ExprKind::Unary(UnOp::BitNot, inner) => Some(!const_eval(*inner)?),
        ExprKind::Binary(op, l, r) => {
            let a = const_eval(*l)?;
            let b = const_eval(*r)?;
            Some(match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return None;
                    }
                    a / b
                }
                BinOp::Rem => {
                    if b == 0 {
                        return None;
                    }
                    a % b
                }
                BinOp::Shl => a.wrapping_shl(b as u32),
                BinOp::Shr => a.wrapping_shr(b as u32),
                BinOp::Lt => i64::from(a < b),
                BinOp::Gt => i64::from(a > b),
                BinOp::Le => i64::from(a <= b),
                BinOp::Ge => i64::from(a >= b),
                BinOp::Eq => i64::from(a == b),
                BinOp::Ne => i64::from(a != b),
                BinOp::BitAnd => a & b,
                BinOp::BitXor => a ^ b,
                BinOp::BitOr => a | b,
                BinOp::LogAnd => i64::from(a != 0 && b != 0),
                BinOp::LogOr => i64::from(a != 0 || b != 0),
            })
        }
        ExprKind::Cond(c, t, f) => {
            if const_eval(*c)? != 0 {
                const_eval(*t)
            } else {
                const_eval(*f)
            }
        }
        ExprKind::Cast(_, inner) => const_eval(*inner),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclint_syntax::annot::{AllocAnnot, NullAnnot};
    use lclint_syntax::parse_translation_unit;

    fn program(src: &str) -> Program {
        let (tu, _, _) = parse_translation_unit("t.c", src).unwrap();
        Program::from_unit(&tu)
    }

    #[test]
    fn globals_registered() {
        let p = program("extern char *gname; static int count = 3;");
        let g = p.global("gname").unwrap();
        assert!(g.is_extern);
        assert!(g.ty.is_pointerish());
        let c = p.global("count").unwrap();
        assert!(c.is_static);
        assert!(c.has_init);
    }

    #[test]
    fn function_prototype_and_def_merge() {
        let p = program(
            "extern /*@null@*/ char *lookup(/*@temp@*/ char *key);\n\
             char *lookup(char *key) { return key; }",
        );
        let f = p.function("lookup").unwrap();
        assert!(f.has_def);
        // Annotations from the prototype survive the definition.
        assert_eq!(f.ty.ret.annots.null(), Some(NullAnnot::Null));
        assert_eq!(f.ty.params[0].ty.annots.alloc(), Some(AllocAnnot::Temp));
    }

    #[test]
    fn typedef_annotations_inherited() {
        let p = program(
            "typedef /*@null@*/ struct _l { int v; } *list;\n\
             list g;",
        );
        let g = p.global("g").unwrap();
        assert_eq!(g.ty.annots.null(), Some(NullAnnot::Null));
        assert!(matches!(g.ty.ty, Type::Pointer(_)));
    }

    #[test]
    fn notnull_overrides_typedef_null() {
        let p = program(
            "typedef /*@null@*/ struct _l { int v; } *list;\n\
             /*@notnull@*/ list g;",
        );
        let g = p.global("g").unwrap();
        assert_eq!(g.ty.annots.null(), Some(NullAnnot::NotNull));
    }

    #[test]
    fn struct_fields_with_annotations() {
        let p = program("typedef struct { /*@null@*/ int *vals; int size; } *erc;");
        let erc = p.typedefs.get(&Symbol::intern("erc")).unwrap();
        let sid = match &erc.pointee().unwrap().ty {
            Type::Struct(id) => *id,
            other => panic!("expected struct, got {other:?}"),
        };
        let s = p.structs.get(sid);
        assert_eq!(s.fields.len(), 2);
        assert_eq!(s.fields[0].ty.annots.null(), Some(NullAnnot::Null));
    }

    #[test]
    fn recursive_struct() {
        let p = program(
            "typedef /*@null@*/ struct _list { /*@only@*/ char *data; \
             /*@null@*/ /*@only@*/ struct _list *next; } *list;",
        );
        let id = p.structs.by_tag("_list").unwrap();
        let def = p.structs.get(id);
        assert!(def.complete);
        let next = def.field("next").unwrap();
        assert_eq!(next.ty.annots.alloc(), Some(AllocAnnot::Only));
        match &next.ty.ty {
            Type::Pointer(inner) => assert_eq!(inner.ty, Type::Struct(id)),
            other => panic!("expected pointer, got {other:?}"),
        }
    }

    #[test]
    fn function_result_annotations_attach_to_return() {
        let p = program("/*@null out only@*/ void *malloc(size_t size);");
        let m = p.function("malloc").unwrap();
        assert_eq!(m.ty.ret.annots.null(), Some(NullAnnot::Null));
        assert_eq!(m.ty.ret.annots.alloc(), Some(AllocAnnot::Only));
        assert!(matches!(m.ty.ret.ty, Type::Pointer(_)));
    }

    #[test]
    fn enum_constants() {
        let p = program("enum color { RED, GREEN = 5, BLUE };");
        assert_eq!(p.enum_consts[&Symbol::intern("RED")], 0);
        assert_eq!(p.enum_consts[&Symbol::intern("GREEN")], 5);
        assert_eq!(p.enum_consts[&Symbol::intern("BLUE")], 6);
    }

    #[test]
    fn const_eval_arithmetic() {
        let (tu, _, _) = parse_translation_unit("t.c", "int a[2 * 3 + 1];").unwrap();
        let p = Program::from_unit(&tu);
        let g = p.global("a").unwrap();
        match &g.ty.ty {
            Type::Array(_, n) => assert_eq!(*n, Some(7)),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn unknown_typedef_reports_error() {
        let (tu, _, _) = parse_translation_unit("t.c", "typedef int known; known x;").unwrap();
        let p = Program::from_unit(&tu);
        assert!(p.errors.is_empty());
        // size_t is built in.
        let p2 = program("size_t n;");
        assert!(p2.errors.is_empty());
        assert!(p2.global("n").unwrap().ty.is_arith());
    }

    #[test]
    fn double_definition_reported() {
        let p = program("int f(void) { return 1; } int f(void) { return 2; }");
        assert!(p.errors.iter().any(|e| e.message.contains("more than once")));
    }

    #[test]
    fn defs_retained_in_order() {
        let p = program("void a(void) {} void b(void) {}");
        let names: Vec<_> = p.defs.iter().map(|d| d.sig.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn truenull_on_predicate() {
        let p = program("extern /*@truenull@*/ int isNull(/*@null@*/ char *x);");
        let f = p.function("isNull").unwrap();
        assert!(f.ty.ret.annots.is_truenull());
        assert_eq!(f.ty.params[0].ty.annots.null(), Some(NullAnnot::Null));
    }
}
