//! Abstract evaluation of expressions: reference resolution with
//! use-anomaly checks, assignment transfer rules, and call-site interface
//! checking (paper §4, §5).

use crate::checker::{capitalize, Checker};
use crate::diag::{DiagKind, Diagnostic};
use crate::refs::{RefId, RefStep};
use crate::state::{AllocState, DefState, Env, NullState, RefState};
use lclint_sema::{FunctionSig, QualType, SymbolSource as _, Type};
use lclint_syntax::annot::{AllocAnnot, DefAnnot, ExposureAnnot, NullAnnot};
use lclint_syntax::ast::*;
use lclint_syntax::intern::sym;
use lclint_syntax::span::Span;
use lclint_syntax::Symbol;

/// The abstract value of an expression.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Value {
    /// A tracked reference.
    Ref(RefId),
    /// The null pointer constant (with its source location).
    Null(Span),
    /// A known integer.
    Int(i64),
    /// A string literal (with its character count, excluding the nul).
    Str(Span, i64),
    /// The address of a tracked reference (`&x`).
    AddrOf(RefId),
    /// Anything else.
    Opaque,
}

/// How a pointer is being dereferenced (selects the message wording).
#[derive(Debug, Clone, Copy, PartialEq)]
enum AccessKind {
    Deref,
    Arrow,
    Index,
}

impl Checker<'_> {
    /// Evaluates `e` for its value and effects, performing rvalue-use checks.
    pub(crate) fn eval_expr(&mut self, env: &mut Env, e: ExprId) -> Value {
        self.tick();
        let ast = self.ast;
        let span = ast.expr_span(e);
        match ast.expr(e) {
            ExprKind::Ident(name) => {
                let name = *name;
                if name == "NULL" {
                    return Value::Null(span);
                }
                if let Some(v) = self.scope.enum_const(name) {
                    return Value::Int(v);
                }
                match self.base_ref(env, name) {
                    Some(r) => {
                        self.use_rvalue(env, r, span);
                        Value::Ref(r)
                    }
                    None => Value::Opaque,
                }
            }
            ExprKind::IntLit(v) => Value::Int(*v),
            ExprKind::FloatLit(_) => Value::Opaque,
            ExprKind::CharLit(v) => Value::Int(*v),
            ExprKind::StrLit(s) => Value::Str(span, s.as_str().chars().count() as i64),
            ExprKind::Member { .. } | ExprKind::Index(_, _) | ExprKind::Unary(UnOp::Deref, _) => {
                match self.ref_of_expr(env, e) {
                    Some(r) => {
                        self.use_rvalue(env, r, span);
                        Value::Ref(r)
                    }
                    None => Value::Opaque,
                }
            }
            ExprKind::Unary(UnOp::Addr, inner) => match self.ref_of_expr(env, *inner) {
                Some(r) => Value::AddrOf(r),
                None => Value::Opaque,
            },
            ExprKind::Unary(op, inner) => {
                let (op, inner) = (*op, *inner);
                let v = self.eval_expr(env, inner);
                match (op, v) {
                    (UnOp::Neg, Value::Int(i)) => Value::Int(-i),
                    (UnOp::Not, Value::Int(i)) => Value::Int(i64::from(i == 0)),
                    _ => Value::Opaque,
                }
            }
            ExprKind::PreIncDec(_, inner) | ExprKind::PostIncDec(_, inner) => {
                let inner = *inner;
                if let Some(r) = self.ref_of_expr(env, inner) {
                    self.use_rvalue(env, r, span);
                    self.mark_offset(env, r);
                }
                Value::Opaque
            }
            ExprKind::Binary(BinOp::LogAnd, l, r) => self.eval_short_circuit(env, *l, *r, true),
            ExprKind::Binary(BinOp::LogOr, l, r) => self.eval_short_circuit(env, *l, *r, false),
            ExprKind::Binary(op, l, r) => {
                let (op, l, r) = (*op, *l, *r);
                let lv = self.eval_expr(env, l);
                let rv = self.eval_expr(env, r);
                match (lv, rv) {
                    (Value::Int(a), Value::Int(b)) => const_binop(op, a, b),
                    // Pointer arithmetic yields an offset pointer into the
                    // same storage.
                    (Value::Ref(p), _) | (_, Value::Ref(p))
                        if matches!(op, BinOp::Add | BinOp::Sub)
                            && self.table.ty(p).map(|t| t.is_pointerish()) == Some(true) =>
                    {
                        self.offset_pointer_value(env, p)
                    }
                    _ => Value::Opaque,
                }
            }
            ExprKind::Assign(AssignOp::Assign, lhs, rhs) => {
                let (lhs, rhs) = (*lhs, *rhs);
                self.check_realloc_over_self(env, lhs, rhs, span);
                let v = self.eval_expr(env, rhs);
                match self.ref_of_expr(env, lhs) {
                    Some(lr) => {
                        self.do_assign(env, lr, v, span);
                        Value::Ref(lr)
                    }
                    None => v,
                }
            }
            ExprKind::Assign(op, lhs, rhs) => {
                let (op, lhs, rhs) = (*op, *lhs, *rhs);
                // Compound assignment: both a use and a definition of an
                // arithmetic (or pointer-offset) lvalue; no transfer.
                let _ = self.eval_expr(env, rhs);
                if let Some(lr) = self.ref_of_expr(env, lhs) {
                    self.use_rvalue(env, lr, span);
                    if matches!(op, AssignOp::Add | AssignOp::Sub)
                        && self.table.ty(lr).map(|t| t.is_pointerish()) == Some(true)
                    {
                        self.mark_offset(env, lr);
                    }
                    Value::Ref(lr)
                } else {
                    Value::Opaque
                }
            }
            ExprKind::Cond(c, t, f) => {
                let (c, t, f) = (*c, *t, *f);
                let _ = self.eval_expr(env, c);
                let mut env_t = env.clone();
                let mut env_f = env.clone();
                self.refine(&mut env_t, c, true);
                self.refine(&mut env_f, c, false);
                let vt = self.eval_expr(&mut env_t, t);
                let vf = self.eval_expr(&mut env_f, f);
                let mut diags = Vec::new();
                *env = crate::state::merge_env(env_t, env_f, span, &self.table, &mut diags);
                for d in diags {
                    self.report(d);
                }
                if vt == vf {
                    vt
                } else {
                    Value::Opaque
                }
            }
            ExprKind::Call(f, args) => self.eval_call(env, e, *f, args),
            ExprKind::Cast(_, inner) => self.eval_expr(env, *inner),
            // `sizeof` does not need the value of its argument (paper §3
            // footnote) — the operand is not evaluated or checked.
            ExprKind::SizeofExpr(_) | ExprKind::SizeofType(_) => Value::Opaque,
            ExprKind::Comma(l, r) => {
                let (l, r) = (*l, *r);
                let _ = self.eval_expr(env, l);
                self.eval_expr(env, r)
            }
        }
    }

    fn eval_short_circuit(&mut self, env: &mut Env, l: ExprId, r: ExprId, is_and: bool) -> Value {
        let _ = self.eval_expr(env, l);
        // The right operand only executes when the left took one polarity;
        // evaluate it under that refinement, then merge with the
        // short-circuit path.
        let mut taken = env.clone();
        self.refine(&mut taken, l, is_and);
        let _ = self.eval_expr(&mut taken, r);
        let mut skipped = env.clone();
        self.refine(&mut skipped, l, !is_and);
        let mut diags = Vec::new();
        let at = self.ast.expr_span(l);
        *env = crate::state::merge_env(taken, skipped, at, &self.table, &mut diags);
        for d in diags {
            self.report(d);
        }
        Value::Opaque
    }

    /// Resolves a path-shaped expression to a reference, checking
    /// intermediate dereferences. In quiet mode, performs no checks and
    /// triggers no call evaluation.
    pub(crate) fn ref_of_expr(&mut self, env: &mut Env, e: ExprId) -> Option<RefId> {
        let ast = self.ast;
        match ast.expr(e) {
            ExprKind::Ident(name) => {
                let name = *name;
                if name == "NULL" {
                    return None;
                }
                self.base_ref(env, name)
            }
            ExprKind::Member { base, field, arrow } => {
                let (base, field, arrow) = (*base, *field, *arrow);
                let br = self.ref_of_expr(env, base)?;
                if arrow {
                    let at = ast.expr_span(base);
                    self.check_deref(env, br, at, AccessKind::Arrow, field);
                }
                let fty = self.field_type(br, field, arrow);
                Some(self.extend_ref(env, br, RefStep::Field(field), fty.as_ref()))
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                let inner = *inner;
                let br = self.ref_of_expr(env, inner)?;
                let at = ast.expr_span(inner);
                self.check_deref(env, br, at, AccessKind::Deref, sym::empty());
                let ty = self.table.ty(br).and_then(|t| t.pointee().cloned());
                Some(self.extend_ref(env, br, RefStep::Deref, ty.as_ref()))
            }
            ExprKind::Index(base, idx) => {
                let (base, idx) = (*base, *idx);
                let br = self.ref_of_expr(env, base)?;
                let iv = if self.quiet { Value::Opaque } else { self.eval_expr(env, idx) };
                let at = ast.expr_span(base);
                self.check_deref(env, br, at, AccessKind::Index, sym::empty());
                if let Value::Int(i) = iv {
                    self.check_const_index(env, br, i, ast.expr_span(e));
                }
                let ty = self.table.ty(br).and_then(|t| t.pointee().cloned());
                Some(self.extend_ref(env, br, RefStep::Index, ty.as_ref()))
            }
            ExprKind::Cast(_, inner) => self.ref_of_expr(env, *inner),
            ExprKind::Comma(_, r) => self.ref_of_expr(env, *r),
            _ => {
                if self.quiet {
                    return None;
                }
                match self.eval_expr(env, e) {
                    Value::Ref(r) => Some(r),
                    _ => None,
                }
            }
        }
    }

    /// The type of `base->field` / `base.field`.
    fn field_type(&mut self, base: RefId, field: Symbol, arrow: bool) -> Option<QualType> {
        let bty = self.table.ty(base)?;
        let sty = if arrow { bty.pointee()? } else { bty };
        match sty.ty {
            Type::Struct(id) => {
                let def = self.scope.struct_def(id);
                def.field(field).map(|f| {
                    let mut t = f.ty.clone();
                    // Implicit-only fields: an unannotated pointer field
                    // carries an implicit obligation when enabled.
                    if self.opts.implicit_only_fields
                        && t.is_pointerish()
                        && t.annots.alloc().is_none()
                    {
                        let _ = t.annots.add(
                            lclint_syntax::annot::Annot::Alloc(AllocAnnot::Only),
                            Span::synthetic(),
                        );
                    }
                    t
                })
            }
            _ => None,
        }
    }

    /// Checks a dereference of `r` (null, dead and undefined anomalies),
    /// then squelches the reported fact to avoid message cascades.
    fn check_deref(
        &mut self,
        env: &mut Env,
        r: RefId,
        span: Span,
        kind: AccessKind,
        field: Symbol,
    ) {
        if self.quiet {
            return;
        }
        // Arrays are locations, not pointer values: indexing one reads no
        // pointer, so undefined/null checks do not apply.
        if let Some(ty) = self.table.ty(r) {
            if matches!(ty.ty, lclint_sema::Type::Array(_, _)) {
                return;
            }
        }
        self.observe_deref(r);
        let mut st = self.state_of(env, r);
        let mut changed = false;
        if st.def == DefState::Undefined {
            let name = self.table.name(r);
            self.report(Diagnostic::new(
                DiagKind::UseBeforeDef,
                format!("Variable {name} used before definition"),
                span,
            ));
            st.def = DefState::Defined;
            changed = true;
        }
        if !st.alloc.usable() {
            let name = self.table.name(r);
            let mut d = Diagnostic::new(
                DiagKind::UseAfterRelease,
                format!("Storage {name} used after being released"),
                span,
            );
            if let Some(site) = st.release_site {
                d = d.with_note(format!("Storage {name} released"), site);
            }
            self.report(d);
            st.alloc = AllocState::Error;
            changed = true;
        }
        if st.null.may_be_null() {
            let name = self.table.name(r);
            let msg = match kind {
                AccessKind::Arrow => {
                    format!("Arrow access from possibly null pointer {name}: {name}->{field}")
                }
                AccessKind::Deref => {
                    format!("Dereference of possibly null pointer {name}: *{name}")
                }
                AccessKind::Index => format!("Index of possibly null pointer {name}"),
            };
            let mut d = Diagnostic::new(DiagKind::NullDeref, msg, span);
            if let Some(site) = st.null_site {
                d = d.with_note(format!("Storage {name} may become null"), site);
            }
            self.report(d);
            st.null = NullState::NotNull;
            changed = true;
        }
        if changed {
            self.storage_write(env, r, st);
        }
    }

    /// Checks a use of `r` as an rvalue (paper §3: it is an anomaly to use
    /// undefined storage or a dead pointer as an rvalue).
    pub(crate) fn use_rvalue(&mut self, env: &mut Env, r: RefId, span: Span) {
        if self.quiet {
            return;
        }
        self.observe_rvalue_use(r);
        let mut st = self.state_of(env, r);
        let mut changed = false;
        if st.def == DefState::Undefined {
            let name = self.table.name(r);
            self.report(Diagnostic::new(
                DiagKind::UseBeforeDef,
                format!("Variable {name} used before definition"),
                span,
            ));
            st.def = DefState::Defined;
            changed = true;
        }
        if !st.alloc.usable() {
            let name = self.table.name(r);
            let mut d = Diagnostic::new(
                DiagKind::UseAfterRelease,
                format!("Storage {name} used after being released"),
                span,
            );
            if let Some(site) = st.release_site {
                d = d.with_note(format!("Storage {name} released"), site);
            }
            self.report(d);
            st.alloc = AllocState::Error;
            changed = true;
        }
        if changed {
            self.storage_write(env, r, st);
        }
    }

    // -- assignment -----------------------------------------------------------

    /// Performs an assignment of `v` into `lhs`, applying the paper's
    /// allocation-transfer rules and alias bookkeeping.
    pub(crate) fn do_assign(&mut self, env: &mut Env, lhs: RefId, v: Value, span: Span) {
        // Snapshot the rhs before invalidating stale derived state (the rhs
        // may itself be derived from the lhs, as in `l = l->next`).
        let rhs_snapshot = match &v {
            Value::Ref(r) => {
                let st = self.state_of(env, *r);
                let aliases = env.all_aliases_of(*r);
                let derived: Vec<(Vec<RefStep>, Option<QualType>, RefState, RefId)> = self
                    .table
                    .derived_of(*r)
                    .into_iter()
                    .filter_map(|d| {
                        let ds = *env.get(d)?;
                        let rel =
                            self.table.path(d).steps[self.table.path(*r).steps.len()..].to_vec();
                        Some((rel, self.table.ty(d).cloned(), ds, d))
                    })
                    .collect();
                Some((st, aliases, derived))
            }
            _ => None,
        };
        self.observe_assign(env, lhs, &v);

        // Exposure: observer storage may not be modified.
        if let Some(ty) = self.table.ty(lhs) {
            if ty.annots.exposure() == Some(ExposureAnnot::Observer) {
                let name = self.table.name(lhs);
                self.report(Diagnostic::new(
                    DiagKind::ExposureViolation,
                    format!("Modification of observer storage {name}"),
                    span,
                ));
            }
        }

        // Losing the last reference to unreleased storage is a leak.
        let old = self.state_of(env, lhs);
        let self_assign = matches!(&v, Value::Ref(r) if *r == lhs);
        // Only values this function obtained (touched) or roots explicitly
        // declared with an owning annotation carry a provable obligation at
        // the overwrite point; untouched derived storage may hold null or
        // already-shared values.
        let is_static_global = match self.table.path(lhs).base {
            crate::refs::RefBase::Global(g) => {
                self.scope.global(g).map(|gv| gv.is_static) == Some(true)
            }
            _ => false,
        };
        let provable = old.touched
            || (self.table.path(lhs).steps.is_empty()
                && !is_static_global
                && self.table.ty(lhs).map(|t| t.annots.alloc().is_some()) == Some(true));
        if old.alloc.has_obligation()
            && old.alloc.usable()
            && old.null != NullState::Null
            && old.def != DefState::Undefined
            && !self_assign
            && provable
            && !self.opts.gc_mode
        {
            // An alias that survives still holds the storage, and an alias
            // through which the obligation was discharged clears it.
            let aliases = env.all_aliases_of(lhs);
            let discharged = aliases.iter().any(|a| {
                matches!(self.state_of(env, *a).alloc, AllocState::Kept | AllocState::Dead)
            });
            let has_other_holder = aliases.iter().any(|a| {
                !matches!(self.table.path(*a).base, crate::refs::RefBase::Temp(_))
                    && self.state_of(env, *a).alloc.has_obligation()
            });
            if !has_other_holder && !discharged {
                let name = self.table.name(lhs);
                let label = if old.alloc == AllocState::Fresh { "Fresh" } else { "Only" };
                let mut d = Diagnostic::new(
                    DiagKind::MemoryLeak,
                    format!("{label} storage {name} not released before assignment"),
                    span,
                );
                if let Some(site) = old.alloc_site {
                    let verb =
                        if old.alloc == AllocState::Fresh { "allocated" } else { "becomes only" };
                    d = d.with_note(format!("Storage {name} {verb}"), site);
                }
                self.report(d);
            }
        }

        // Invalidate stale derived references and value aliases of the lhs.
        for d in self.table.derived_of(lhs) {
            env.remove(d);
        }
        env.clear_aliases(lhs);
        // Location aliases name the same cell: their value changes with this
        // assignment too, so their old value-aliases are equally stale.
        for la in env.loc_aliases_of(lhs) {
            env.clear_aliases(la);
        }

        let declared = self.declared_alloc(lhs);
        // Static/global-reachable storage: an obligation assigned there
        // without an annotation can never be discharged (§6, eref_pool).
        // Structures reachable from parameters stay silent — the caller can
        // still release through them.
        let lhs_external = matches!(self.table.path(lhs).base, crate::refs::RefBase::Global(_));
        let declared_only =
            matches!(declared, Some(AllocState::Only | AllocState::Owned | AllocState::Keep));

        let mut new = match v {
            Value::Null(_) => {
                let mut s = RefState::null_value(span);
                s.alloc = declared.unwrap_or(AllocState::Unknown);
                s
            }
            Value::Int(0) if self.table.ty(lhs).map(|t| t.is_pointerish()) == Some(true) => {
                let mut s = RefState::null_value(span);
                s.alloc = declared.unwrap_or(AllocState::Unknown);
                s
            }
            Value::Int(_) | Value::Opaque => {
                let mut s = RefState::defined();
                s.alloc = AllocState::Unknown;
                s
            }
            Value::Str(_, len) => {
                let mut s = RefState::defined();
                s.alloc = AllocState::Static;
                // String-literal storage holds exactly the literal.
                s.cap = Some(len + 1);
                s.str_len = Some(len);
                s
            }
            Value::AddrOf(_) => {
                let mut s = RefState::defined();
                s.alloc = AllocState::Dependent;
                s
            }
            Value::Ref(r) => {
                let (st, aliases, derived) = rhs_snapshot.expect("snapshot taken for refs");
                let mut new = st;
                new.alloc_site = Some(span);
                // Allocation transfer rules.
                let names = |table: &crate::refs::RefTable| (table.name(lhs), table.name(r));
                if declared_only {
                    if st.null == NullState::Null {
                        new.alloc = declared.expect("declared_only implies declared");
                    } else if st.alloc.has_obligation() {
                        // Obligation transfers; the rhs reference (and its
                        // aliases) may still be used (paper Figure 5).
                        new.alloc = declared.expect("declared_only implies declared");
                        self.alloc_write_all(env, r, AllocState::Kept, None);
                    } else {
                        match st.alloc {
                            AllocState::Temp => {
                                let (lhs_name, r_name) = names(&self.table);
                                let mut d = Diagnostic::new(
                                    DiagKind::AllocMismatch,
                                    format!(
                                        "Temp storage {r_name} assigned to only {lhs_name}: \
                                         {lhs_name} = {r_name}"
                                    ),
                                    span,
                                );
                                if let Some(site) = st.alloc_site {
                                    d = d.with_note(format!("Storage {r_name} becomes temp"), site);
                                }
                                self.report(d);
                                new.alloc = declared.expect("declared_only implies declared");
                            }
                            AllocState::Unknown => {
                                if self.opts.report_implicit_temp {
                                    let (lhs_name, r_name) = names(&self.table);
                                    self.report(Diagnostic::new(
                                        DiagKind::AllocMismatch,
                                        format!(
                                            "Implicitly temp storage {r_name} assigned to \
                                             only {lhs_name}: {lhs_name} = {r_name}"
                                        ),
                                        span,
                                    ));
                                }
                                new.alloc = declared.expect("declared_only implies declared");
                            }
                            other => {
                                let (lhs_name, r_name) = names(&self.table);
                                let mut d = Diagnostic::new(
                                    DiagKind::AllocMismatch,
                                    format!(
                                        "{} storage {r_name} assigned to only {lhs_name}: \
                                         {lhs_name} = {r_name}",
                                        capitalize(other.label())
                                    ),
                                    span,
                                );
                                if let Some(site) = st.alloc_site {
                                    d = d.with_note(
                                        format!("Storage {r_name} becomes {}", other.label()),
                                        site,
                                    );
                                }
                                self.report(d);
                                new.alloc = declared.expect("declared_only implies declared");
                            }
                        }
                    }
                } else if st.alloc.has_obligation() && lhs_external && !self.opts.gc_mode {
                    // Fresh storage escapes into unannotated external
                    // storage: the obligation can never be discharged (§6,
                    // the eref_pool anomalies).
                    let (lhs_name, r_name) = names(&self.table);
                    let mut d = Diagnostic::new(
                        DiagKind::AllocMismatch,
                        format!(
                            "Fresh storage {r_name} assigned to implicitly temp {lhs_name} \
                             (obligation to release storage is lost)"
                        ),
                        span,
                    );
                    if let Some(site) = st.alloc_site {
                        d = d.with_note(format!("Storage {r_name} allocated"), site);
                    }
                    self.report(d);
                    self.alloc_write_all(env, r, AllocState::Kept, None);
                    new.alloc = AllocState::Unknown;
                } else if let Some(decl) = declared {
                    // Explicit non-owning annotation on the lhs.
                    new.alloc = decl;
                }
                if new.null.may_be_null() {
                    new.null_site = Some(span);
                }
                // A call-result temporary is consumed by the assignment: the
                // named lhs is now the obligation holder, so the temporary
                // must not be re-reported by leak checks.
                if matches!(self.table.path(r).base, crate::refs::RefBase::Temp(_))
                    && st.alloc.has_obligation()
                    && new.alloc.has_obligation()
                {
                    // `Unknown`, not `Kept`: the storage itself is not
                    // discharged — only this temporary stops being a holder.
                    let mut ts = self.state_of(env, r);
                    ts.alloc = AllocState::Unknown;
                    env.set(r, ts);
                }
                // Alias bookkeeping: lhs may now alias the rhs and the rhs's
                // aliases — except references derived from the lhs itself,
                // whose paths are stale after this assignment (paper §5:
                // after `l = l->next`, `l` may alias `argl->next`, not
                // `l->next`).
                let lhs_path = self.table.path(lhs).clone();
                let is_stale = |table: &crate::refs::RefTable, x: RefId| {
                    let p = table.path(x);
                    p.base == lhs_path.base
                        && p.steps.len() >= lhs_path.steps.len()
                        && p.steps[..lhs_path.steps.len()] == lhs_path.steps[..]
                };
                let partners = std::iter::once(r).chain(aliases);
                env.add_aliases(lhs, partners.filter(|&x| !is_stale(&self.table, x)));
                // Copy the rhs's tracked derived state onto the lhs's paths
                // so facts like `r->next == undefined` survive.
                for (rel, ty, ds, orig) in derived {
                    let mut cur = lhs;
                    for (i, step) in rel.iter().enumerate() {
                        let t = if i == rel.len() - 1 { ty.as_ref() } else { None };
                        cur = self.extend_ref(env, cur, *step, t);
                    }
                    env.set(cur, ds);
                    if !is_stale(&self.table, orig) {
                        env.add_loc_alias(cur, orig);
                    }
                }
                new
            }
        };
        if let Some(ty) = self.table.ty(lhs) {
            if ty.annots.null() == Some(lclint_syntax::annot::NullAnnot::RelNull)
                && new.null == NullState::Null
            {
                // relnull: assigning null is never an anomaly; uses assume
                // non-null.
                new.null = NullState::RelNull;
            }
        }
        new.touched = true;
        let value_def = new.def;
        let new_def = new.def;
        // Write through to everything naming the same location.
        for a in env.loc_aliases_of(lhs) {
            env.set(a, new);
        }
        env.set(lhs, new);
        self.degrade_ancestors(env, lhs, value_def);
        // Allocated-but-undefined struct storage: materialize the field
        // references as undefined so incomplete-definition facts survive
        // merges (paper §5: after `l->next = smalloc(...)`,
        // `l->next->next` is undefined).
        if new_def == DefState::Allocated {
            self.expand_struct_fields(env, lhs);
        }
    }

    /// Interns one reference per field of the struct `r` points to, seeding
    /// implicit (undefined, for allocated parents) states.
    pub(crate) fn expand_struct_fields(&mut self, env: &mut Env, r: RefId) {
        let Some(ty) = self.table.ty(r).cloned() else { return };
        let Some(pointee) = ty.pointee() else { return };
        let Type::Struct(id) = pointee.ty else { return };
        let fields: Vec<(Symbol, QualType)> =
            self.scope.struct_def(id).fields.iter().map(|f| (f.name, f.ty.clone())).collect();
        for (fname, fty) in fields {
            let _ = self.extend_ref(env, r, RefStep::Field(fname), Some(&fty));
        }
    }

    // -- calls ----------------------------------------------------------------

    fn eval_call(&mut self, env: &mut Env, call: ExprId, f: ExprId, args: &[ExprId]) -> Value {
        let ast = self.ast;
        let span = ast.expr_span(call);
        let callee = ast.direct_callee(call);
        // assert(cond): refine the condition to true afterwards.
        if let Some(name) = callee {
            if name == "assert" && args.len() == 1 {
                let a0 = args[0];
                let _ = self.eval_expr(env, a0);
                self.refine(env, a0, true);
                return Value::Opaque;
            }
        }
        let sig = callee.and_then(|n| self.scope.function(n));
        let values: Vec<Value> = args.iter().map(|&a| self.eval_expr(env, a)).collect();
        let Some(sig) = sig else {
            // Unknown callee: effects unknown, result opaque but defined.
            let _ = self.ref_of_expr(env, f);
            return Value::Opaque;
        };
        let callee = callee.expect("sig implies name");
        // Arity check: C silently tolerates this; the checker does not.
        let nparams = sig.ty.params.len();
        if values.len() < nparams || (values.len() > nparams && !sig.ty.variadic) {
            self.report(Diagnostic::new(
                DiagKind::InterfaceViolation,
                format!(
                    "Function {callee} called with {} argument{}, declared with {}",
                    values.len(),
                    if values.len() == 1 { "" } else { "s" },
                    nparams
                ),
                span,
            ));
        }
        self.check_args(env, sig, callee, args, &values, span);
        self.check_unique_params(env, sig, callee, &values, span);
        self.apply_postconditions(env, sig, &values, span);
        self.check_buffer_sink(env, callee, args, &values, span);
        if sig.ty.ret.annots.is_noreturn() {
            env.unreachable = true;
            return Value::Opaque;
        }
        let result = self.call_result(env, sig, &values, span);
        // Allocators called with constant sizes yield storage of known
        // capacity (in interpreter slots: malloc(n) is n elements).
        if let Value::Ref(r) = result {
            if let Some(cap) = alloc_capacity(callee, &values) {
                let mut st = self.state_of(env, r);
                st.cap = Some(cap);
                env.set(r, st);
            }
        }
        result
    }

    /// Detects `p = realloc(p, n)`: when realloc fails it returns null and
    /// leaves the old block allocated, but the assignment has overwritten the
    /// only reference to it (CWE-401).
    fn check_realloc_over_self(&mut self, env: &mut Env, lhs: ExprId, rhs: ExprId, span: Span) {
        if self.quiet {
            return;
        }
        let ast = self.ast;
        let mut e = rhs;
        loop {
            match ast.expr(e) {
                ExprKind::Cast(_, inner) => e = *inner,
                ExprKind::Comma(_, r) => e = *r,
                _ => break,
            }
        }
        let ExprKind::Call(_, args) = ast.expr(e) else { return };
        if ast.direct_callee(e).map(|n| n == "realloc") != Some(true) || args.is_empty() {
            return;
        }
        let arg0 = args[0];
        let was_quiet = self.quiet;
        self.quiet = true;
        let a = self.ref_of_expr(env, arg0);
        let l = self.ref_of_expr(env, lhs);
        self.quiet = was_quiet;
        let (Some(a), Some(l)) = (a, l) else { return };
        if a != l {
            return;
        }
        let name = self.table.name(l);
        self.report(Diagnostic::new(
            DiagKind::ReallocLost,
            format!(
                "Realloc result assigned over its only argument: \
                 {name} = realloc({name}, ...) loses the old storage \
                 when realloc returns null"
            ),
            span,
        ));
    }

    /// Bounded-buffer sink checks: a write of statically-known size into
    /// storage of statically-known capacity must fit.
    fn check_buffer_sink(
        &mut self,
        env: &mut Env,
        callee: Symbol,
        args: &[ExprId],
        values: &[Value],
        span: Span,
    ) {
        let is = |n: &str| callee == n;
        if !(is("strcpy") || is("strcat") || is("sprintf") || is("gets") || is("memcpy")) {
            return;
        }
        let Some(Value::Ref(dst)) = values.first() else { return };
        let dst = *dst;
        let st = self.state_of(env, dst);
        // Offset pointers no longer point at the start of the storage.
        if st.offset {
            return;
        }
        let Some(cap) = st.cap else { return };
        let src_len = |v: Option<&Value>| match v {
            Some(Value::Str(_, len)) => Some(*len),
            Some(Value::Ref(r)) => self.state_of(env, *r).str_len,
            _ => None,
        };
        // (bytes written, resulting string length) when decidable.
        let effect: Option<(i64, Option<i64>)> = if is("strcpy") {
            src_len(values.get(1)).map(|n| (n + 1, Some(n)))
        } else if is("strcat") {
            match (st.str_len, src_len(values.get(1))) {
                (Some(old), Some(add)) => Some((old + add + 1, Some(old + add))),
                _ => None,
            }
        } else if is("sprintf") {
            // Only the degenerate constant format with no conversions is
            // statically decidable.
            match self.literal_text(args.get(1).copied()) {
                Some(text) if !text.contains('%') => {
                    let n = text.chars().count() as i64;
                    Some((n + 1, Some(n)))
                }
                _ => None,
            }
        } else if is("memcpy") {
            match values.get(2) {
                Some(Value::Int(n)) if *n >= 0 => Some((*n, None)),
                _ => None,
            }
        } else {
            // gets writes an unbounded attacker-controlled line: any finite
            // buffer can overflow.
            let name = self.table.name(dst);
            let mut d = Diagnostic::new(
                DiagKind::BufferOverflow,
                format!(
                    "Possible buffer overflow in call to gets: \
                     unbounded input written into {name} (capacity {cap})"
                ),
                span,
            );
            if let Some(site) = st.alloc_site {
                d = d.with_note(format!("Storage {name} has capacity {cap}"), site);
            }
            self.report(d);
            let mut st = st;
            st.cap = None;
            env.set(dst, st);
            return;
        };
        let Some((need, new_len)) = effect else { return };
        if need > cap {
            let name = self.table.name(dst);
            let mut d = Diagnostic::new(
                DiagKind::BufferOverflow,
                format!(
                    "Buffer overflow in call to {callee}: \
                     {need} bytes written into {name} (capacity {cap})"
                ),
                span,
            );
            if let Some(site) = st.alloc_site {
                d = d.with_note(format!("Storage {name} has capacity {cap}"), site);
            }
            self.report(d);
            // Squelch follow-on reports against the same storage.
            let mut st = st;
            st.cap = None;
            st.str_len = None;
            env.set(dst, st);
        } else {
            let mut st = st;
            st.str_len = new_len;
            env.set(dst, st);
            // Aliases may hold a stale length for the same storage.
            for a in env.all_aliases_of(dst) {
                let mut ast = self.state_of(env, a);
                ast.str_len = None;
                env.set(a, ast);
            }
        }
    }

    /// Constant array index against known capacity (CWE-125/787).
    fn check_const_index(&mut self, env: &mut Env, base: RefId, idx: i64, span: Span) {
        if self.quiet {
            return;
        }
        let st = self.state_of(env, base);
        if st.offset {
            return;
        }
        let Some(cap) = st.cap else { return };
        if idx >= 0 && idx < cap {
            return;
        }
        let name = self.table.name(base);
        let mut d = Diagnostic::new(
            DiagKind::OutOfBoundsIndex,
            format!("Index {idx} out of bounds of {name}: capacity is {cap}"),
            span,
        );
        if let Some(site) = st.alloc_site {
            d = d.with_note(format!("Storage {name} has capacity {cap}"), site);
        }
        self.report(d);
        let mut st = st;
        st.cap = None;
        env.set(base, st);
    }

    /// The text of a string-literal argument, peeling casts.
    fn literal_text(&self, e: Option<ExprId>) -> Option<&'static str> {
        let ast = self.ast;
        let mut e = e?;
        loop {
            match ast.expr(e) {
                ExprKind::Cast(_, inner) => e = *inner,
                ExprKind::Comma(_, r) => e = *r,
                ExprKind::StrLit(s) => return Some(s.as_str()),
                _ => return None,
            }
        }
    }

    fn check_args(
        &mut self,
        env: &mut Env,
        sig: &FunctionSig,
        callee: Symbol,
        args: &[ExprId],
        values: &[Value],
        span: Span,
    ) {
        for (i, p) in sig.ty.params.iter().enumerate() {
            let Some(v) = values.get(i) else { break };
            let pty = &p.ty;
            let arg_span = args.get(i).map(|&a| self.ast.expr_span(a)).unwrap_or(span);
            // Null checking.
            if pty.is_pointerish()
                && !matches!(pty.annots.null(), Some(NullAnnot::Null | NullAnnot::RelNull))
            {
                match v {
                    Value::Null(_) => {
                        self.report(Diagnostic::new(
                            DiagKind::NullMismatch,
                            format!(
                                "Null storage passed as non-null param: {callee} (param {})",
                                i + 1
                            ),
                            arg_span,
                        ));
                    }
                    Value::Ref(r) => {
                        let st = self.state_of(env, *r);
                        if st.null.may_be_null() {
                            let name = self.table.name(*r);
                            let mut d = Diagnostic::new(
                                DiagKind::NullMismatch,
                                format!(
                                    "Possibly null storage {name} passed as non-null param: \
                                     {callee} ({name})"
                                ),
                                arg_span,
                            );
                            if let Some(site) = st.null_site {
                                d = d.with_note(format!("Storage {name} may become null"), site);
                            }
                            self.report(d);
                            let mut st = st;
                            st.null = NullState::NotNull;
                            self.storage_write(env, *r, st);
                        }
                    }
                    _ => {}
                }
            }
            // Definition checking.
            if let Value::Ref(r) = v {
                match pty.annots.def() {
                    Some(DefAnnot::Out) => {
                        // Only a root pointer variable that was never
                        // assigned is an anomaly; allocated storage with
                        // undefined *contents* is exactly what `out` admits.
                        let st = self.state_of(env, *r);
                        if st.def == DefState::Undefined && self.table.path(*r).steps.is_empty() {
                            let name = self.table.name(*r);
                            self.report(Diagnostic::new(
                                DiagKind::UseBeforeDef,
                                format!("Unallocated storage {name} passed as out param: {callee}"),
                                arg_span,
                            ));
                        }
                    }
                    Some(DefAnnot::Partial | DefAnnot::RelDef) => {}
                    _ => {
                        if pty.is_pointerish() {
                            self.check_completely_defined(env, *r, arg_span, "Passed storage");
                        }
                    }
                }
            }
            // Passing the address of an undefined object where a completely
            // defined argument is expected — the §6 path to discovering the
            // `out` annotation through complete-definition checking.
            if let Value::AddrOf(r) = v {
                if !matches!(
                    pty.annots.def(),
                    Some(DefAnnot::Out | DefAnnot::Partial | DefAnnot::RelDef)
                ) {
                    let st = self.state_of(env, *r);
                    if st.def != DefState::Defined {
                        let name = self.table.name(*r);
                        self.report(Diagnostic::new(
                            DiagKind::IncompleteDef,
                            format!(
                                "Passed storage &{name} not completely defined \
                                 ({name} is undefined): {callee}"
                            ),
                            arg_span,
                        ));
                        // Squelch: assume the callee defined it.
                        let mut st = st;
                        st.def = DefState::Defined;
                        self.storage_write(env, *r, st);
                    }
                }
            }
            // Allocation checking.
            let p_alloc = pty.annots.alloc();
            if let (Value::Ref(r), Some(pa)) = (v, p_alloc) {
                self.check_alloc_arg(env, *r, pa, callee, arg_span);
            }
            // Reference counting: a killref parameter consumes one
            // reference; the argument must carry a live one.
            if pty.annots.is_killref() {
                if let Value::Ref(r) = v {
                    let st = self.state_of(env, *r);
                    if st.alloc == AllocState::NewRef || st.alloc.has_obligation() {
                        self.alloc_write_all(env, *r, AllocState::Dead, Some(arg_span));
                    } else if st.null != NullState::Null {
                        let name = self.table.name(*r);
                        self.report(Diagnostic::new(
                            DiagKind::AllocMismatch,
                            format!(
                                "Reference {name} without a live new reference passed \
                                 as killref param: {callee} ({name})"
                            ),
                            arg_span,
                        ));
                    }
                }
            }
            // The out-only-void* destructor rule (paper footnote 5): such a
            // parameter must not contain references to live, unshared
            // objects.
            if pty.annots.def() == Some(DefAnnot::Out)
                && pty.annots.alloc() == Some(AllocAnnot::Only)
                && matches!(pty.pointee().map(|t| &t.ty), Some(Type::Void))
            {
                if let Value::Ref(r) = v {
                    self.check_destroyed_completely(env, *r, callee, arg_span);
                }
            }
        }
    }

    /// Marks a reference as an offset pointer (points into, not at, its
    /// object).
    fn mark_offset(&mut self, env: &mut Env, r: RefId) {
        let mut st = self.state_of(env, r);
        if !st.offset {
            st.offset = true;
            env.set(r, st);
        }
    }

    /// The value of `p + n`: a temporary offset pointer into `p`'s storage.
    fn offset_pointer_value(&mut self, env: &mut Env, p: RefId) -> Value {
        let ty = self.table.ty(p).cloned();
        let temp = self.table.fresh_temp(ty);
        let mut st = self.state_of(env, p);
        st.offset = true;
        env.set(temp, st);
        env.add_alias(temp, p);
        Value::Ref(temp)
    }

    fn check_alloc_arg(
        &mut self,
        env: &mut Env,
        r: RefId,
        pa: AllocAnnot,
        callee: Symbol,
        span: Span,
    ) {
        let st = self.state_of(env, r);
        let observer =
            self.table.ty(r).map(|t| t.annots.exposure() == Some(ExposureAnnot::Observer))
                == Some(true);
        match pa {
            AllocAnnot::Only | AllocAnnot::Keep => {
                if st.null == NullState::Null {
                    return; // free(NULL) is allowed by the annotation.
                }
                if observer {
                    let name = self.table.name(r);
                    self.report(Diagnostic::new(
                        DiagKind::ExposureViolation,
                        format!("Observer storage {name} passed as only param: {callee} ({name})"),
                        span,
                    ));
                    return;
                }
                if st.offset {
                    // §7: "errors involving incorrectly freeing storage
                    // resulting from pointer arithmetic".
                    let name = self.table.name(r);
                    self.report(Diagnostic::new(
                        DiagKind::AllocMismatch,
                        format!(
                            "Offset pointer {name} passed as only param: {callee} ({name}) \
                             (only the start of an allocated region may be released)"
                        ),
                        span,
                    ));
                    // Poison to prevent cascading leak reports for the same
                    // already-reported storage.
                    self.alloc_write_all(env, r, AllocState::Error, None);
                    return;
                }
                if st.alloc.has_obligation() {
                    self.observe_release(env, r);
                    let new_state =
                        if pa == AllocAnnot::Only { AllocState::Dead } else { AllocState::Kept };
                    let site = if pa == AllocAnnot::Only { Some(span) } else { None };
                    self.alloc_write_all(env, r, new_state, site);
                    return;
                }
                // Summary mode: an implicitly temp argument released through
                // an only/keep parameter is inference evidence, and marking
                // it released keeps the caller-visible shadow flow-accurate
                // for the return observation.
                if self.summary.is_some()
                    && matches!(st.alloc, AllocState::Temp | AllocState::Unknown)
                {
                    self.observe_release(env, r);
                    let new_state =
                        if pa == AllocAnnot::Only { AllocState::Dead } else { AllocState::Kept };
                    let site = if pa == AllocAnnot::Only { Some(span) } else { None };
                    self.alloc_write_all(env, r, new_state, site);
                    return;
                }
                match st.alloc {
                    AllocState::Temp | AllocState::Unknown => {
                        let explicit =
                            self.table.ty(r).map(|t| t.annots.alloc().is_some()) == Some(true);
                        if !explicit && !self.opts.report_implicit_temp {
                            return;
                        }
                        let prefix = if explicit { "Temp" } else { "Implicitly temp" };
                        let name = self.table.name(r);
                        let mut d = Diagnostic::new(
                            DiagKind::AllocMismatch,
                            format!(
                                "{prefix} storage {name} passed as only param: {callee} ({name})"
                            ),
                            span,
                        );
                        if let Some(site) = st.alloc_site {
                            d = d.with_note(format!("Storage {name} becomes temp"), site);
                        }
                        self.report(d);
                    }
                    AllocState::Kept => {
                        let name = self.table.name(r);
                        self.report(Diagnostic::new(
                            DiagKind::AllocMismatch,
                            format!(
                                "Kept storage {name} passed as only param: {callee} ({name}) \
                                 (obligation was already transferred)"
                            ),
                            span,
                        ));
                    }
                    AllocState::Dependent | AllocState::Shared | AllocState::Static => {
                        let name = self.table.name(r);
                        self.report(Diagnostic::new(
                            DiagKind::AllocMismatch,
                            format!(
                                "{} storage {name} passed as only param: {callee} ({name})",
                                capitalize(st.alloc.label())
                            ),
                            span,
                        ));
                    }
                    _ => {}
                }
            }
            AllocAnnot::Owned => {
                if st.alloc.has_obligation() {
                    self.alloc_write_all(env, r, AllocState::Dependent, None);
                }
            }
            AllocAnnot::Temp | AllocAnnot::Dependent | AllocAnnot::Shared => {}
        }
    }

    /// Reports live unshared storage reachable from `r` (destructor-argument
    /// completeness, paper footnote 5).
    fn check_destroyed_completely(&mut self, env: &Env, r: RefId, callee: Symbol, span: Span) {
        let mut derived = self.table.derived_of(r);
        derived.sort();
        let mut reported = Vec::new();
        for d in derived {
            let Some(ds) = env.get(d) else { continue };
            // References this function actively manages (reassigned here)
            // are the destructor's own loop bookkeeping under the
            // zero-or-one-iteration model; only untouched obligations are
            // provably lost.
            if ds.touched {
                continue;
            }
            if ds.alloc.has_obligation() && ds.alloc.usable() && ds.null != NullState::Null {
                let dname = self.table.name(d);
                reported.push(Diagnostic::new(
                    DiagKind::MemoryLeak,
                    format!(
                        "Only storage {dname} derivable from parameter passed as \
                         out only void *: {callee} (live storage is lost)"
                    ),
                    span,
                ));
            }
        }
        for d in reported {
            self.report(d);
        }
    }

    fn check_unique_params(
        &mut self,
        env: &mut Env,
        sig: &FunctionSig,
        callee: Symbol,
        values: &[Value],
        span: Span,
    ) {
        for (i, p) in sig.ty.params.iter().enumerate() {
            if !p.ty.annots.is_unique() {
                continue;
            }
            let Some(Value::Ref(r)) = values.get(i) else { continue };
            for (j, other) in values.iter().enumerate() {
                if i == j {
                    continue;
                }
                let Value::Ref(s) = other else { continue };
                if self.may_alias_externally(env, *r, *s) {
                    let rn = self.table.name(*r);
                    let sn = self.table.name(*s);
                    self.report(Diagnostic::new(
                        DiagKind::AliasViolation,
                        format!(
                            "Parameter {} ({rn}) to function {callee} is declared unique \
                             but may be aliased externally by parameter {} ({sn})",
                            i + 1,
                            j + 1,
                        ),
                        span,
                    ));
                }
            }
            // Accessible globals may also alias the unique parameter.
            let globals: Vec<RefId> = env
                .iter()
                .map(|(g, _)| g)
                .filter(|g| {
                    matches!(self.table.path(*g).base, crate::refs::RefBase::Global(_))
                        && self.table.path(*g).steps.is_empty()
                })
                .collect();
            for g in globals {
                if self.may_alias_externally(env, *r, g) {
                    let rn = self.table.name(*r);
                    let gn = self.table.name(g);
                    self.report(Diagnostic::new(
                        DiagKind::AliasViolation,
                        format!(
                            "Parameter {} ({rn}) to function {callee} is declared unique \
                             but may be aliased externally by global {gn}",
                            i + 1,
                        ),
                        span,
                    ));
                }
            }
        }
    }

    /// Whether two references may denote overlapping storage as far as a
    /// callee can tell. Unshared (`only`/fresh) and `unique` storage cannot
    /// be externally aliased.
    fn may_alias_externally(&self, env: &Env, a: RefId, b: RefId) -> bool {
        if a == b {
            return true;
        }
        if env.all_aliases_of(a).contains(&b) {
            return true;
        }
        let sa = self.state_of(env, a);
        let sb = self.state_of(env, b);
        if matches!(sa.alloc, AllocState::Only | AllocState::Fresh)
            || matches!(sb.alloc, AllocState::Only | AllocState::Fresh)
        {
            return false;
        }
        let unique = |r: RefId| self.table.ty(r).map(|t| t.annots.is_unique()) == Some(true);
        if unique(a) || unique(b) {
            return false;
        }
        // Both must be pointerish for overlap to matter.
        let ptr = |r: RefId| self.table.ty(r).map(|t| t.is_pointerish()).unwrap_or(true);
        ptr(a) && ptr(b)
    }

    fn apply_postconditions(
        &mut self,
        env: &mut Env,
        sig: &FunctionSig,
        values: &[Value],
        span: Span,
    ) {
        for (i, p) in sig.ty.params.iter().enumerate() {
            if p.ty.annots.def() != Some(DefAnnot::Out) {
                continue;
            }
            match values.get(i) {
                Some(Value::Ref(r)) => {
                    // Storage passed as out is completely defined after.
                    let mut st = self.state_of(env, *r);
                    st.def = DefState::Defined;
                    self.storage_write(env, *r, st);
                    for d in self.table.derived_of(*r) {
                        if let Some(mut ds) = env.get(d).copied() {
                            ds.def = DefState::Defined;
                            env.set(d, ds);
                        }
                    }
                    self.degrade_ancestors(env, *r, DefState::Defined);
                }
                Some(Value::AddrOf(r)) => {
                    let mut st = self.state_of(env, *r);
                    st.def = DefState::Defined;
                    self.storage_write(env, *r, st);
                    let _ = span;
                }
                _ => {}
            }
        }
    }

    fn call_result(
        &mut self,
        env: &mut Env,
        sig: &FunctionSig,
        values: &[Value],
        span: Span,
    ) -> Value {
        let ret = sig.ty.ret.clone();
        if ret.is_void() {
            return Value::Opaque;
        }
        // `returned` parameters: the result may alias that argument.
        for (i, p) in sig.ty.params.iter().enumerate() {
            if p.ty.annots.is_returned() {
                if let Some(Value::Ref(ar)) = values.get(i) {
                    let temp = self.table.fresh_temp(Some(ret.clone()));
                    let st = self.state_of(env, *ar);
                    env.set(temp, st);
                    env.add_alias(temp, *ar);
                    return Value::Ref(temp);
                }
            }
        }
        if !ret.is_pointerish() {
            return Value::Opaque;
        }
        let temp = self.table.fresh_temp(Some(ret.clone()));
        let def = match ret.annots.def() {
            Some(DefAnnot::Out) => DefState::Allocated,
            Some(DefAnnot::Partial) => DefState::Partial,
            _ => DefState::Defined,
        };
        let null = NullState::from_annot(ret.annots.null());
        if ret.annots.is_newref() || (ret.annots.is_refcounted() && ret.annots.alloc().is_none()) {
            let temp = self.table.fresh_temp(Some(ret.clone()));
            let mut st = RefState::defined();
            st.alloc = AllocState::NewRef;
            st.null = NullState::from_annot(ret.annots.null());
            st.alloc_site = Some(span);
            st.touched = true;
            env.set(temp, st);
            return Value::Ref(temp);
        }
        let alloc = match ret.annots.alloc() {
            Some(AllocAnnot::Only) | Some(AllocAnnot::Keep) => AllocState::Fresh,
            Some(AllocAnnot::Owned) => AllocState::Owned,
            Some(AllocAnnot::Temp) => AllocState::Temp,
            Some(AllocAnnot::Dependent) => AllocState::Dependent,
            Some(AllocAnnot::Shared) => AllocState::Shared,
            None => {
                if ret.annots.exposure().is_some() {
                    AllocState::Dependent
                } else if self.opts.implicit_only_returns {
                    AllocState::Fresh
                } else {
                    AllocState::Unknown
                }
            }
        };
        env.set(
            temp,
            RefState {
                def,
                null,
                alloc,
                null_site: if null.may_be_null() { Some(span) } else { None },
                alloc_site: Some(span),
                release_site: None,
                touched: true,
                offset: false,
                cap: None,
                str_len: None,
            },
        );
        Value::Ref(temp)
    }
}

/// The capacity (in abstract elements) of storage returned by an allocator
/// called with constant sizes; `None` when the callee is not an allocator or
/// a size is not statically known.
fn alloc_capacity(callee: Symbol, values: &[Value]) -> Option<i64> {
    let int = |i: usize| match values.get(i) {
        Some(Value::Int(n)) if *n > 0 => Some(*n),
        _ => None,
    };
    if callee == "malloc" {
        int(0)
    } else if callee == "calloc" {
        int(0)?.checked_mul(int(1)?)
    } else if callee == "realloc" {
        int(1)
    } else {
        None
    }
}

fn const_binop(op: BinOp, a: i64, b: i64) -> Value {
    let v = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                return Value::Opaque;
            }
            a / b
        }
        BinOp::Rem => {
            if b == 0 {
                return Value::Opaque;
            }
            a % b
        }
        BinOp::Lt => i64::from(a < b),
        BinOp::Gt => i64::from(a > b),
        BinOp::Le => i64::from(a <= b),
        BinOp::Ge => i64::from(a >= b),
        BinOp::Eq => i64::from(a == b),
        BinOp::Ne => i64::from(a != b),
        BinOp::BitAnd => a & b,
        BinOp::BitXor => a ^ b,
        BinOp::BitOr => a | b,
        BinOp::Shl => a.wrapping_shl(b as u32),
        BinOp::Shr => a.wrapping_shr(b as u32),
        BinOp::LogAnd => i64::from(a != 0 && b != 0),
        BinOp::LogOr => i64::from(a != 0 || b != 0),
    };
    Value::Int(v)
}
