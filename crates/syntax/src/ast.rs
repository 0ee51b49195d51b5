//! Flat, arena-based abstract syntax tree for the supported C subset.
//!
//! Nodes live in contiguous `Vec`s inside an [`Ast`] arena and refer to each
//! other through 4-byte ids ([`ExprId`], [`StmtId`], [`DeclId`]) instead of
//! `Box` pointers, with spans in side tables so the hot payload stays dense.
//! Identifiers are interned [`Symbol`]s. The arena is built once by the
//! parser, wrapped in an `Arc`, and immutable afterwards — traversals are
//! index chases through two or three cache-resident arrays, and copying a
//! node reference is a `u32` copy (the old representation deep-cloned
//! subtrees into the CFG).
//!
//! The tree still preserves annotation placement: declaration specifiers and
//! each pointer level carry an [`AnnotSet`], mirroring the paper's rule that
//! an annotation applies only to the outer level of a declaration.

use crate::annot::AnnotSet;
use crate::intern::{sym, Symbol};
use crate::span::Span;
use crate::stats::Counters;
use std::fmt;
use std::sync::Arc;

/// Index of an expression node in its [`Ast`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// Index of a statement node in its [`Ast`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StmtId(pub u32);

/// Index of a declaration node in its [`Ast`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeclId(pub u32);

/// The node arena backing one translation unit: payloads in contiguous
/// `Vec`s, spans in parallel side tables.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Ast {
    exprs: Vec<ExprKind>,
    expr_spans: Vec<Span>,
    stmts: Vec<StmtKind>,
    stmt_spans: Vec<Span>,
    decls: Vec<Declaration>,
}

/// Node counts of an [`Ast`] (see [`Ast::counts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeCounts {
    /// Expression nodes.
    pub exprs: u32,
    /// Statement nodes.
    pub stmts: u32,
    /// Declaration nodes.
    pub decls: u32,
}

impl NodeCounts {
    /// The nodes `tokens` tokens are estimated to make (see [`Ast::reserve`]).
    fn estimate(tokens: usize) -> NodeCounts {
        let n = |per: usize| (tokens / per + 8) as u32;
        NodeCounts { exprs: n(4), stmts: n(11), decls: n(50) }
    }
}

crate::counters! {
    /// Per-node-kind arena footprint, for `--stats`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct ArenaStats {
        /// Expression nodes.
        exprs: usize,
        /// Bytes of expression payload storage.
        expr_bytes: usize,
        /// Statement nodes.
        stmts: usize,
        /// Bytes of statement payload storage.
        stmt_bytes: usize,
        /// Declaration nodes.
        decls: usize,
        /// Bytes of declaration payload storage.
        decl_bytes: usize,
        /// Bytes of span side tables.
        span_bytes: usize,
    }
}

impl ArenaStats {
    /// Merges another arena's counters into this one.
    pub fn absorb(&mut self, other: &ArenaStats) {
        self.add(other);
    }

    /// Total payload + side-table bytes.
    pub fn total_bytes(&self) -> usize {
        self.expr_bytes + self.stmt_bytes + self.decl_bytes + self.span_bytes
    }
}

impl Ast {
    /// An empty arena.
    pub fn new() -> Self {
        Ast::default()
    }

    /// Reserves room for the nodes `tokens` more tokens are estimated to
    /// make.
    ///
    /// The ratios are empirical over the bench corpus (roughly one
    /// expression per 4 tokens, one statement per 11, one top-level
    /// declaration per 50); they only seed `Vec` capacities, so being off
    /// costs at most the old doubling behaviour, while being close avoids
    /// the log2(n) reallocation-and-copy passes that dominated arena build
    /// time on large units.
    pub fn reserve(&mut self, tokens: usize) {
        let more = NodeCounts::estimate(tokens);
        self.exprs.reserve(more.exprs as usize);
        self.expr_spans.reserve(more.exprs as usize);
        self.stmts.reserve(more.stmts as usize);
        self.stmt_spans.reserve(more.stmts as usize);
        self.decls.reserve(more.decls as usize);
    }

    /// Allocates an expression node.
    pub fn alloc_expr(&mut self, kind: ExprKind, span: Span) -> ExprId {
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(kind);
        self.expr_spans.push(span);
        id
    }

    /// Allocates a statement node.
    pub fn alloc_stmt(&mut self, kind: StmtKind, span: Span) -> StmtId {
        let id = StmtId(self.stmts.len() as u32);
        self.stmts.push(kind);
        self.stmt_spans.push(span);
        id
    }

    /// Allocates a declaration node.
    pub fn alloc_decl(&mut self, d: Declaration) -> DeclId {
        let id = DeclId(self.decls.len() as u32);
        self.decls.push(d);
        id
    }

    /// The expression payload behind `id`.
    #[inline]
    pub fn expr(&self, id: ExprId) -> &ExprKind {
        &self.exprs[id.0 as usize]
    }

    /// The expression's span.
    #[inline]
    pub fn expr_span(&self, id: ExprId) -> Span {
        self.expr_spans[id.0 as usize]
    }

    /// The statement payload behind `id`.
    #[inline]
    pub fn stmt(&self, id: StmtId) -> &StmtKind {
        &self.stmts[id.0 as usize]
    }

    /// The statement's span.
    #[inline]
    pub fn stmt_span(&self, id: StmtId) -> Span {
        self.stmt_spans[id.0 as usize]
    }

    /// The declaration behind `id`.
    #[inline]
    pub fn decl(&self, id: DeclId) -> &Declaration {
        &self.decls[id.0 as usize]
    }

    /// Mutable access to a declaration. Annotation write-back patches
    /// declarations through a copy-on-write clone of a frozen arena.
    #[inline]
    pub fn decl_mut(&mut self, id: DeclId) -> &mut Declaration {
        &mut self.decls[id.0 as usize]
    }

    /// Rewrites an expression's span (the parser re-spans parenthesized
    /// expressions to include the parentheses).
    pub fn set_expr_span(&mut self, id: ExprId, span: Span) {
        self.expr_spans[id.0 as usize] = span;
    }

    /// How many expression, statement and declaration nodes the arena
    /// holds: the ids the next allocations get.
    pub fn counts(&self) -> NodeCounts {
        NodeCounts {
            exprs: self.exprs.len() as u32,
            stmts: self.stmts.len() as u32,
            decls: self.decls.len() as u32,
        }
    }

    /// A copy of the arena's first nodes, as it was when it held `counts`,
    /// allocated once with the room [`Ast::reserve`] makes for `tokens`
    /// more tokens. Ids below the counts mean what they meant here.
    pub fn prefix(&self, counts: NodeCounts, tokens: usize) -> Ast {
        fn cut<T: Clone>(v: &[T], n: u32, more: u32) -> Vec<T> {
            let mut out = Vec::with_capacity((n + more) as usize);
            out.extend_from_slice(&v[..n as usize]);
            out
        }
        let more = NodeCounts::estimate(tokens);
        Ast {
            exprs: cut(&self.exprs, counts.exprs, more.exprs),
            expr_spans: cut(&self.expr_spans, counts.exprs, more.exprs),
            stmts: cut(&self.stmts, counts.stmts, more.stmts),
            stmt_spans: cut(&self.stmt_spans, counts.stmts, more.stmts),
            decls: cut(&self.decls, counts.decls, more.decls),
        }
    }

    /// Arena sizes for `--stats`.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            exprs: self.exprs.len(),
            expr_bytes: self.exprs.len() * std::mem::size_of::<ExprKind>(),
            stmts: self.stmts.len(),
            stmt_bytes: self.stmts.len() * std::mem::size_of::<StmtKind>(),
            decls: self.decls.len(),
            decl_bytes: self.decls.len() * std::mem::size_of::<Declaration>(),
            span_bytes: (self.expr_spans.len() + self.stmt_spans.len())
                * std::mem::size_of::<Span>(),
        }
    }

    // -- expression helpers (the old `Expr` methods, arena-directed) --------

    /// True when `e` is the literal `0` (a null pointer constant) or the
    /// identifier `NULL`, looking through casts.
    pub fn is_null_constant(&self, e: ExprId) -> bool {
        match self.expr(e) {
            ExprKind::IntLit(0) => true,
            ExprKind::Ident(n) => *n == sym::null_const(),
            ExprKind::Cast(_, inner) => self.is_null_constant(*inner),
            _ => false,
        }
    }

    /// Strips casts, returning the underlying value-producing expression.
    pub fn peel_casts(&self, e: ExprId) -> ExprId {
        match self.expr(e) {
            ExprKind::Cast(_, inner) => self.peel_casts(*inner),
            _ => e,
        }
    }

    /// The callee name if `e` is a direct call `f(...)`.
    pub fn direct_callee(&self, e: ExprId) -> Option<Symbol> {
        match self.expr(e) {
            ExprKind::Call(f, _) => match self.expr(self.peel_casts(*f)) {
                ExprKind::Ident(name) => Some(*name),
                _ => None,
            },
            _ => None,
        }
    }
}

/// A complete parsed source file (after preprocessing). The arena holding
/// every node of the unit rides along behind an `Arc`, so sharing a unit
/// (or a single function of it) across threads is a refcount bump.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TranslationUnit {
    /// Top-level items in source order.
    pub items: Vec<Item>,
    /// The node arena every id in `items` points into.
    pub arena: Arc<Ast>,
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A function definition (with body).
    Function(FunctionDef),
    /// Any other declaration: globals, prototypes, typedefs, struct/enum
    /// definitions.
    Decl(DeclId),
}

impl Item {
    /// The item's span.
    pub fn span(&self, ast: &Ast) -> Span {
        match self {
            Item::Function(f) => f.span,
            Item::Decl(d) => ast.decl(*d).span,
        }
    }
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// Specifiers and the single declarator naming the function.
    pub specs: DeclSpecs,
    /// Declarator (must contain a [`Derived::Function`] part).
    pub declarator: Declarator,
    /// The function body (always a compound statement).
    pub body: StmtId,
    /// Full span of the definition.
    pub span: Span,
}

impl FunctionDef {
    /// The function's name.
    ///
    /// # Panics
    ///
    /// Panics if the declarator is anonymous, which the parser never produces
    /// for function definitions.
    pub fn name(&self) -> Symbol {
        self.declarator.name.expect("function definitions are named")
    }
}

/// A declaration: specifiers plus zero or more init-declarators.
#[derive(Debug, Clone, PartialEq)]
pub struct Declaration {
    /// The shared declaration specifiers.
    pub specs: DeclSpecs,
    /// The declared names (may be empty for bare `struct S { ... };`).
    pub declarators: Vec<InitDeclarator>,
    /// Full span.
    pub span: Span,
}

/// Storage-class specifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageClass {
    /// `typedef`
    Typedef,
    /// `extern`
    Extern,
    /// `static`
    Static,
    /// `auto`
    Auto,
    /// `register`
    Register,
}

impl StorageClass {
    /// Source spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            StorageClass::Typedef => "typedef",
            StorageClass::Extern => "extern",
            StorageClass::Static => "static",
            StorageClass::Auto => "auto",
            StorageClass::Register => "register",
        }
    }
}

/// Width of an integer type specifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntSize {
    /// `short`
    Short,
    /// plain `int`
    Int,
    /// `long`
    Long,
}

/// A type specifier.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeSpec {
    /// `void`
    Void,
    /// `char` / `signed char` / `unsigned char`
    Char {
        /// `Some(true)` = explicitly signed, `Some(false)` = unsigned.
        signed: Option<bool>,
    },
    /// Integer types.
    Int {
        /// False for `unsigned`.
        signed: bool,
        /// Width.
        size: IntSize,
    },
    /// `float`
    Float,
    /// `double` (and `long double`)
    Double,
    /// A typedef name.
    Named(Symbol),
    /// A struct or union specifier.
    Struct(StructSpec),
    /// An enum specifier.
    Enum(EnumSpec),
}

/// A struct or union specifier.
#[derive(Debug, Clone, PartialEq)]
pub struct StructSpec {
    /// True for `union`.
    pub is_union: bool,
    /// The tag, if named.
    pub name: Option<Symbol>,
    /// The member declarations, if this specifier defines the body.
    pub fields: Option<Vec<FieldDecl>>,
    /// Span of the specifier.
    pub span: Span,
}

/// One member declaration inside a struct/union body.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Member declaration specifiers.
    pub specs: DeclSpecs,
    /// Member declarators.
    pub declarators: Vec<Declarator>,
    /// Span.
    pub span: Span,
}

/// An enum specifier.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumSpec {
    /// The tag, if named.
    pub name: Option<Symbol>,
    /// Enumerators `(name, explicit value)`, if the body is present.
    pub variants: Option<Vec<(Symbol, Option<ExprId>)>>,
    /// Span.
    pub span: Span,
}

/// Declaration specifiers: storage class, qualifiers, a type specifier and
/// outer-level annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct DeclSpecs {
    /// Storage class, if given.
    pub storage: Option<StorageClass>,
    /// `const` qualifier present.
    pub is_const: bool,
    /// `volatile` qualifier present.
    pub is_volatile: bool,
    /// The type specifier.
    pub ty: TypeSpec,
    /// Annotations written among the specifiers (apply to the declaration's
    /// outer level).
    pub annots: AnnotSet,
    /// Span of the specifiers.
    pub span: Span,
}

impl DeclSpecs {
    /// Specifiers for a plain type with no storage class or annotations.
    pub fn plain(ty: TypeSpec, span: Span) -> Self {
        DeclSpecs {
            storage: None,
            is_const: false,
            is_volatile: false,
            ty,
            annots: AnnotSet::new(),
            span,
        }
    }
}

/// A declarator with an optional initializer.
#[derive(Debug, Clone, PartialEq)]
pub struct InitDeclarator {
    /// The declarator.
    pub declarator: Declarator,
    /// Initializer, if present.
    pub init: Option<Initializer>,
}

/// An initializer.
#[derive(Debug, Clone, PartialEq)]
pub enum Initializer {
    /// `= expr`
    Expr(ExprId),
    /// `= { ... }`
    List(Vec<Initializer>),
}

/// A declarator: the declared name plus derived type parts.
///
/// `derived` is stored in *reading order*: for `char *p[3]`, `p` reads as
/// "array of pointer to char", so `derived == [Array(3), Pointer]`. To build
/// the type, fold `derived` in reverse over the base type.
#[derive(Debug, Clone, PartialEq)]
pub struct Declarator {
    /// The declared identifier; `None` for abstract declarators.
    pub name: Option<Symbol>,
    /// Derived parts in reading order.
    pub derived: Vec<Derived>,
    /// Span of the declarator.
    pub span: Span,
}

impl Declarator {
    /// An anonymous declarator with no derived parts.
    pub fn abstract_empty(span: Span) -> Self {
        Declarator { name: None, derived: Vec::new(), span }
    }

    /// True if this declarator declares a function (outermost derived part is
    /// a function part after any pointers are skipped for definitions).
    pub fn is_function(&self) -> bool {
        matches!(self.derived.first(), Some(Derived::Function { .. }))
    }

    /// Returns the parameter list if this is a function declarator.
    pub fn function_params(&self) -> Option<(&[ParamDecl], bool)> {
        match self.derived.first() {
            Some(Derived::Function { params, variadic, .. }) => Some((params, *variadic)),
            _ => None,
        }
    }
}

/// One derived-type part of a declarator.
#[derive(Debug, Clone, PartialEq)]
pub enum Derived {
    /// A pointer level, possibly annotated (`char * /*@null@*/ *p`).
    Pointer {
        /// Annotations attached at this pointer level.
        annots: AnnotSet,
        /// `const` at this level.
        is_const: bool,
    },
    /// An array part with optional constant size expression.
    Array(Option<ExprId>),
    /// A function part with its parameters.
    Function {
        /// The parameters.
        params: Vec<ParamDecl>,
        /// True if the list ends with `...`.
        variadic: bool,
        /// The globals list (`/*@globals gname, undef cache@*/` after the
        /// parameter list), if declared. Paper §4: "`undef` may be used on
        /// a global variable in the globals list for a function."
        globals: Option<Vec<GlobalSpec>>,
    },
}

/// One entry of a function's globals list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalSpec {
    /// The global's name.
    pub name: Symbol,
    /// True when prefixed with `undef` (may be undefined at entry).
    pub undef: bool,
}

/// A single function parameter declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    /// Parameter specifiers (carrying annotations).
    pub specs: DeclSpecs,
    /// Parameter declarator (may be abstract in prototypes).
    pub declarator: Declarator,
    /// Span.
    pub span: Span,
}

impl ParamDecl {
    /// The parameter name, if present.
    pub fn name(&self) -> Option<Symbol> {
        self.declarator.name
    }

    /// True for the `void` parameter list marker: `f(void)`.
    pub fn is_void_marker(&self) -> bool {
        self.declarator.name.is_none()
            && self.declarator.derived.is_empty()
            && self.specs.ty == TypeSpec::Void
    }
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

/// An item in a compound statement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlockItem {
    /// A local declaration.
    Decl(DeclId),
    /// A statement.
    Stmt(StmtId),
}

/// The clause initializing a `for` loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ForInit {
    /// A declaration (C99-style, accepted for convenience).
    Decl(DeclId),
    /// An expression.
    Expr(ExprId),
}

/// Statement payloads.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `{ ... }`
    Compound(Vec<BlockItem>),
    /// An expression statement.
    Expr(ExprId),
    /// `;`
    Empty,
    /// `if (cond) then else`
    If {
        /// Condition.
        cond: ExprId,
        /// Then branch.
        then_branch: StmtId,
        /// Else branch, if any.
        else_branch: Option<StmtId>,
    },
    /// `while (cond) body`
    While {
        /// Condition.
        cond: ExprId,
        /// Body.
        body: StmtId,
    },
    /// `do body while (cond);`
    DoWhile {
        /// Body.
        body: StmtId,
        /// Condition.
        cond: ExprId,
    },
    /// `for (init; cond; step) body`
    For {
        /// Init clause.
        init: Option<ForInit>,
        /// Condition.
        cond: Option<ExprId>,
        /// Step expression.
        step: Option<ExprId>,
        /// Body.
        body: StmtId,
    },
    /// `switch (cond) body`
    Switch {
        /// Scrutinee.
        cond: ExprId,
        /// Body (normally a compound with `case` labels).
        body: StmtId,
    },
    /// `case value: stmt`
    Case {
        /// The case value (constant expression).
        value: ExprId,
        /// The labeled statement.
        stmt: StmtId,
    },
    /// `default: stmt`
    Default(StmtId),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return expr?;`
    Return(Option<ExprId>),
    /// `name: stmt`
    Label {
        /// Label name.
        name: Symbol,
        /// Labeled statement.
        stmt: StmtId,
    },
    /// `goto name;`
    Goto(Symbol),
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `-x`
    Neg,
    /// `+x`
    Plus,
    /// `!x`
    Not,
    /// `~x`
    BitNot,
    /// `*x`
    Deref,
    /// `&x`
    Addr,
}

impl UnOp {
    /// Source spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Plus => "+",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
            UnOp::Deref => "*",
            UnOp::Addr => "&",
        }
    }
}

/// Binary operators (excluding assignment and comma).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&`
    BitAnd,
    /// `^`
    BitXor,
    /// `|`
    BitOr,
    /// `&&`
    LogAnd,
    /// `||`
    LogOr,
}

impl BinOp {
    /// Source spelling.
    pub fn as_str(&self) -> &'static str {
        use BinOp::*;
        match self {
            Add => "+",
            Sub => "-",
            Mul => "*",
            Div => "/",
            Rem => "%",
            Shl => "<<",
            Shr => ">>",
            Lt => "<",
            Gt => ">",
            Le => "<=",
            Ge => ">=",
            Eq => "==",
            Ne => "!=",
            BitAnd => "&",
            BitXor => "^",
            BitOr => "|",
            LogAnd => "&&",
            LogOr => "||",
        }
    }

    /// True for `==`, `!=`, `<`, `>`, `<=`, `>=`.
    pub fn is_comparison(&self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne)
    }
}

/// Assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    Add,
    /// `-=`
    Sub,
    /// `*=`
    Mul,
    /// `/=`
    Div,
    /// `%=`
    Rem,
    /// `<<=`
    Shl,
    /// `>>=`
    Shr,
    /// `&=`
    And,
    /// `^=`
    Xor,
    /// `|=`
    Or,
}

impl AssignOp {
    /// Source spelling.
    pub fn as_str(&self) -> &'static str {
        use AssignOp::*;
        match self {
            Assign => "=",
            Add => "+=",
            Sub => "-=",
            Mul => "*=",
            Div => "/=",
            Rem => "%=",
            Shl => "<<=",
            Shr => ">>=",
            And => "&=",
            Xor => "^=",
            Or => "|=",
        }
    }
}

/// Increment/decrement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncDec {
    /// `++`
    Inc,
    /// `--`
    Dec,
}

impl IncDec {
    /// Source spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            IncDec::Inc => "++",
            IncDec::Dec => "--",
        }
    }
}

/// A type name used in casts and `sizeof`.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeName {
    /// Specifiers.
    pub specs: DeclSpecs,
    /// Abstract declarator.
    pub declarator: Declarator,
    /// Span.
    pub span: Span,
}

/// Expression payloads. Child references are arena ids; the large
/// [`TypeName`] payloads are boxed to keep the variant footprint small.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// An identifier use.
    Ident(Symbol),
    /// Integer literal.
    IntLit(i64),
    /// Floating literal.
    FloatLit(f64),
    /// Character literal.
    CharLit(i64),
    /// String literal (interned).
    StrLit(Symbol),
    /// A unary operation.
    Unary(UnOp, ExprId),
    /// Prefix `++x` / `--x`.
    PreIncDec(IncDec, ExprId),
    /// Postfix `x++` / `x--`.
    PostIncDec(IncDec, ExprId),
    /// A binary operation.
    Binary(BinOp, ExprId, ExprId),
    /// An assignment.
    Assign(AssignOp, ExprId, ExprId),
    /// `c ? t : e`
    Cond(ExprId, ExprId, ExprId),
    /// A function call.
    Call(ExprId, Vec<ExprId>),
    /// `base.field` or `base->field`.
    Member {
        /// The accessed object.
        base: ExprId,
        /// Field name.
        field: Symbol,
        /// True for `->`.
        arrow: bool,
    },
    /// `base[index]`
    Index(ExprId, ExprId),
    /// `(type) expr`
    Cast(Box<TypeName>, ExprId),
    /// `sizeof expr`
    SizeofExpr(ExprId),
    /// `sizeof (type)`
    SizeofType(Box<TypeName>),
    /// `a, b`
    Comma(ExprId, ExprId),
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Display for AssignOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_constant_detection() {
        let mut ast = Ast::new();
        let z = ast.alloc_expr(ExprKind::IntLit(0), Span::synthetic());
        assert!(ast.is_null_constant(z));
        let n = ast.alloc_expr(ExprKind::Ident(Symbol::intern("NULL")), Span::synthetic());
        assert!(ast.is_null_constant(n));
        let one = ast.alloc_expr(ExprKind::IntLit(1), Span::synthetic());
        assert!(!ast.is_null_constant(one));
    }

    #[test]
    fn direct_callee() {
        let mut ast = Ast::new();
        let callee = ast.alloc_expr(ExprKind::Ident(Symbol::intern("malloc")), Span::synthetic());
        let call = ast.alloc_expr(ExprKind::Call(callee, vec![]), Span::synthetic());
        assert_eq!(ast.direct_callee(call), Some(Symbol::intern("malloc")));
        let not_call = ast.alloc_expr(ExprKind::IntLit(1), Span::synthetic());
        assert_eq!(ast.direct_callee(not_call), None);
    }

    #[test]
    fn op_spellings() {
        assert_eq!(BinOp::LogAnd.as_str(), "&&");
        assert_eq!(UnOp::Deref.as_str(), "*");
        assert_eq!(AssignOp::Shl.as_str(), "<<=");
        assert_eq!(IncDec::Dec.as_str(), "--");
        assert!(BinOp::Ne.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }

    #[test]
    fn void_marker_param() {
        let p = ParamDecl {
            specs: DeclSpecs::plain(TypeSpec::Void, Span::synthetic()),
            declarator: Declarator::abstract_empty(Span::synthetic()),
            span: Span::synthetic(),
        };
        assert!(p.is_void_marker());
    }

    #[test]
    fn arena_nodes_are_compact() {
        // The point of the flat representation: ids, not boxes. Guard the
        // payload sizes so a later change can't quietly re-fatten the arena.
        assert!(std::mem::size_of::<ExprKind>() <= 40, "{}", std::mem::size_of::<ExprKind>());
        assert!(std::mem::size_of::<StmtKind>() <= 32, "{}", std::mem::size_of::<StmtKind>());
        assert_eq!(std::mem::size_of::<ExprId>(), 4);
    }

    #[test]
    fn arena_stats_count_nodes() {
        let mut ast = Ast::new();
        let a = ast.alloc_expr(ExprKind::IntLit(1), Span::synthetic());
        ast.alloc_stmt(StmtKind::Expr(a), Span::synthetic());
        let st = ast.stats();
        assert_eq!(st.exprs, 1);
        assert_eq!(st.stmts, 1);
        assert!(st.total_bytes() > 0);
    }
}
