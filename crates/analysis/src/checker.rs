//! The per-function checker: entry assumptions, the dataflow transfer
//! driver, guard refinement, and the interface-point checks at returns and
//! scope exits (paper §2, §5).

use crate::diag::{DiagKind, Diagnostic};
use crate::fan_out::{effective_jobs, fan_out};
use crate::guard::{run_guarded, GuardOutcome};
use crate::options::AnalysisOptions;
use crate::refs::{Path, RefBase, RefId, RefStep, RefTable};
use crate::state::{implicit_state, merge_env, AllocState, DefState, Env, NullState, RefState};
use lclint_cfg::{Action, Cfg};
use lclint_sema::{CheckedFunction, FunctionSig, LocalScope, Program, QualType, Type};
use lclint_syntax::annot::{DefAnnot, NullAnnot};
use lclint_syntax::ast::*;
use lclint_syntax::fx::{FxHashMap, FxHashSet};
use lclint_syntax::span::Span;
use lclint_syntax::Symbol;

/// Checks every function definition in `program`, returning all diagnostics
/// in definition order: [`check_definitions`], appending as it commits.
pub fn check_program(program: &Program, opts: &AnalysisOptions) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    check_definitions(program, opts, |_, d| diags.extend(d));
    diags
}

/// Stack for a checker worker: deep expression trees recurse in
/// `eval_expr`, so every check gets the main thread's 8 MiB.
pub(crate) const CHECK_STACK: usize = 8 * 1024 * 1024;

/// Checks every function definition in `program` in the fault guard, with
/// no dependency recording, and hands definition `i`'s diagnostics to
/// `commit` in definition order. The definitions are independent items
/// (paper §2), so they [`fan_out`] over `opts.jobs` workers (0 = all cores).
pub fn check_definitions(
    program: &Program,
    opts: &AnalysisOptions,
    commit: impl FnMut(usize, Vec<Diagnostic>),
) {
    let defs = &program.defs;
    let jobs = effective_jobs(opts.jobs, defs.len());
    let work = |i: usize| check_function_isolated(program, &defs[i], opts, false).diags;
    fan_out(jobs, "lclint-check", CHECK_STACK, defs.len(), work, commit);
}

/// Result of one fault-isolated per-function check
/// ([`check_function_isolated`]).
pub struct FunctionOutcome {
    /// The function's diagnostics. A degraded function (checker panic or
    /// budget overrun) yields exactly one `internal` or `budget` diagnostic.
    pub diags: Vec<Diagnostic>,
    /// The recorded dependency set when the function completed normally;
    /// `None` for degraded functions, which must never enter the incremental
    /// cache (mirroring the unanchorable-diagnostic rule).
    pub deps: Option<lclint_sema::DepSet>,
}

/// Checks one function inside the per-function fault guard: a panic in the
/// checker or a budget overrun costs exactly this function's results, which
/// are replaced by a single degradation diagnostic anchored at the function
/// definition.
pub fn check_function_isolated(
    program: &Program,
    def: &CheckedFunction,
    opts: &AnalysisOptions,
    recording: bool,
) -> FunctionOutcome {
    let sig = &def.sig;
    match run_guarded(|| check_function_impl(program, def, opts, recording)) {
        GuardOutcome::Ok((diags, deps)) => FunctionOutcome { diags, deps: Some(deps) },
        GuardOutcome::Budget => {
            let limit = opts.max_steps.unwrap_or(0);
            let mut d = Diagnostic::new(
                DiagKind::BudgetExceeded,
                format!(
                    "Analysis budget exceeded in function {} (limit {limit} steps); \
                     function assumed safe, not checked",
                    sig.name
                ),
                def.ast.span,
            );
            d.in_function = Some(sig.name.to_string());
            FunctionOutcome { diags: vec![d], deps: None }
        }
        GuardOutcome::Panicked(payload) => {
            let mut d = Diagnostic::new(
                DiagKind::InternalError,
                format!(
                    "Internal checker error in function {} (please report): {payload}",
                    sig.name
                ),
                def.ast.span,
            );
            d.in_function = Some(sig.name.to_string());
            FunctionOutcome { diags: vec![d], deps: None }
        }
    }
}

/// Runs the checker in summary mode over one definition, returning the
/// inference observations. Diagnostics are discarded; nothing about the
/// transfer functions changes except the additional observation.
pub(crate) fn check_function_summary(
    program: &Program,
    def: &CheckedFunction,
    opts: &AnalysisOptions,
) -> crate::summary::SummaryObs {
    let sig = &def.sig;
    if opts.debug_panic_fn.as_deref() == Some(sig.name.as_str()) {
        panic!("debug-injected panic in function {}", sig.name);
    }
    let mut checker = Checker::new(program, sig, &def.arena, opts);
    checker.summary = Some(Box::new(crate::summary::SummaryObs::for_params(sig.ty.params.len())));
    let cfg = Cfg::build_with(&def.arena, &def.ast, opts.loop_model);
    let entry = checker.entry_env();
    lclint_cfg::run(&cfg, &mut checker, entry);
    *checker.summary.expect("installed above")
}

fn check_function_impl(
    program: &Program,
    def: &CheckedFunction,
    opts: &AnalysisOptions,
    recording: bool,
) -> (Vec<Diagnostic>, lclint_sema::DepSet) {
    let sig = &def.sig;
    if opts.debug_panic_fn.as_deref() == Some(sig.name.as_str()) {
        panic!("debug-injected panic in function {}", sig.name);
    }
    let mut checker = Checker::new(program, sig, &def.arena, opts);
    if recording {
        checker.scope = LocalScope::recording(program);
    }
    let cfg = Cfg::build_with(&def.arena, &def.ast, opts.loop_model);
    for span in &cfg.unreachable_stmts {
        checker.report(Diagnostic::new(
            DiagKind::UnreachableCode,
            "Unreachable code (control never falls through to this statement)",
            *span,
        ));
    }
    let entry = checker.entry_env();
    lclint_cfg::run(&cfg, &mut checker, entry);
    let deps = checker.scope.take_deps();
    let mut diags = checker.diags;
    for d in &mut diags {
        d.in_function = Some(sig.name.to_string());
    }
    // Report in source order.
    diags.sort_by_key(|d| (d.span.file, d.span.start));
    (diags, deps)
}

/// Mutable analysis context for one function. All shared program state is
/// read through `scope`, which overlays function-local definitions on an
/// immutable [`Program`] — nothing here writes to shared state, which is
/// what makes [`check_program`]'s fan-out sound. Expression and statement
/// payloads are read out of the translation unit's frozen node arena `ast`.
pub(crate) struct Checker<'p> {
    pub(crate) scope: LocalScope<'p>,
    pub(crate) opts: &'p AnalysisOptions,
    pub(crate) sig: &'p FunctionSig,
    /// The frozen node arena the function body's ids index into.
    pub(crate) ast: &'p Ast,
    pub(crate) table: RefTable,
    pub(crate) diags: Vec<Diagnostic>,
    /// Types of locals currently in scope (flat — shadowing collapses).
    pub(crate) local_types: FxHashMap<Symbol, QualType>,
    /// Parameter indexes by name.
    pub(crate) param_index: FxHashMap<Symbol, usize>,
    /// The declared globals list (`None` = unchecked): name → undef flag.
    pub(crate) globals_list: Option<FxHashMap<Symbol, bool>>,
    /// Globals already reported as undocumented uses.
    pub(crate) reported_globals: FxHashSet<Symbol>,
    /// When true, evaluation emits no diagnostics and performs no effects
    /// (used for guard re-resolution).
    pub(crate) quiet: bool,
    /// Summary-mode observations for annotation inference (`None` during
    /// ordinary checking — see the `summary` module).
    pub(crate) summary: Option<Box<crate::summary::SummaryObs>>,
    /// Deterministic work-step counter for the analysis budget (counts
    /// dataflow actions and expression evaluations, never wall-clock).
    pub(crate) steps: u64,
}

impl<'p> Checker<'p> {
    fn new(
        program: &'p Program,
        sig: &'p FunctionSig,
        ast: &'p Ast,
        opts: &'p AnalysisOptions,
    ) -> Self {
        let mut param_index = FxHashMap::default();
        for (i, p) in sig.ty.params.iter().enumerate() {
            if let Some(n) = p.name {
                param_index.insert(n, i);
            }
        }
        let globals_list =
            sig.ty.globals.as_ref().map(|gs| gs.iter().map(|g| (g.name, g.undef)).collect());
        Checker {
            scope: LocalScope::new(program),
            opts,
            sig,
            ast,
            table: RefTable::new(),
            diags: Vec::new(),
            local_types: FxHashMap::default(),
            param_index,
            globals_list,
            reported_globals: FxHashSet::default(),
            quiet: false,
            summary: None,
            steps: 0,
        }
    }

    pub(crate) fn report(&mut self, d: Diagnostic) {
        if !self.quiet {
            self.diags.push(d);
        }
    }

    /// Counts one unit of analysis work against the per-function budget.
    /// Exhausting the budget unwinds to the fault guard (see the `guard`
    /// module), which degrades this one function to a `budget` diagnostic.
    pub(crate) fn tick(&mut self) {
        if let Some(max) = self.opts.max_steps {
            self.steps += 1;
            if self.steps > max {
                std::panic::panic_any(crate::guard::BudgetOverrun);
            }
        }
    }

    /// The entry environment: annotations on parameters and the globals used
    /// are assumed true (paper §2).
    fn entry_env(&mut self) -> Env {
        let mut env = Env::new();
        let sig = self.sig;
        let fn_span = sig.span;
        for (i, p) in sig.ty.params.iter().enumerate() {
            let name = match p.name {
                Some(n) => n,
                None => continue,
            };
            let local = self.table.intern_typed(Path::root(RefBase::Param(i, name)), &p.ty);
            let shadow = self.table.intern_typed(Path::root(RefBase::Arg(i, name)), &p.ty);
            let st = self.entry_param_state(&p.ty, fn_span);
            let is_out = p.ty.annots.def() == Some(DefAnnot::Out);
            env.set(local, st);
            env.set(shadow, st);
            env.add_alias(local, shadow);
            // An out parameter's pointed-to fields start undefined and must
            // all be defined before returning — materialize them so the
            // exit check can find forgotten ones.
            if is_out {
                self.expand_struct_fields(&mut env, local);
            }
        }
        env
    }

    fn entry_param_state(&self, ty: &QualType, site: Span) -> RefState {
        let def = match ty.annots.def() {
            Some(DefAnnot::Out) => DefState::Allocated,
            Some(DefAnnot::Undef) => DefState::Undefined,
            Some(DefAnnot::Partial) => DefState::Partial,
            _ => DefState::Defined,
        };
        let alloc = if ty.annots.is_killref() {
            // The function must kill (release) this reference.
            AllocState::NewRef
        } else if ty.annots.is_tempref() || ty.annots.is_refcounted() {
            AllocState::Temp
        } else {
            // "An unqualified formal parameter is assumed to be temp" (§6).
            AllocState::from_annot(ty.annots.alloc(), AllocState::Temp)
        };
        RefState {
            def,
            null: NullState::from_annot(ty.annots.null()),
            alloc,
            null_site: if ty.annots.null() == Some(NullAnnot::Null) { Some(site) } else { None },
            alloc_site: Some(site),
            release_site: None,
            touched: false,
            offset: false,
            cap: None,
            str_len: None,
        }
    }

    /// Lazily seeds a global's state from its declaration annotations and
    /// the function's globals list (paper §4: `undef` in the list means the
    /// global may be undefined when this function is called).
    pub(crate) fn global_ref(&mut self, env: &mut Env, name: Symbol) -> Option<RefId> {
        let g = self.scope.global(name)?;
        // With a declared globals list, uses of unlisted globals are
        // undocumented-interface anomalies.
        let listed_undef = match &self.globals_list {
            Some(list) => match list.get(&name) {
                Some(undef) => Some(*undef),
                None => {
                    if self.reported_globals.insert(name) && !self.quiet {
                        let fname = self.sig.name;
                        self.report(Diagnostic::new(
                            DiagKind::InterfaceViolation,
                            format!(
                                "Undocumented use of global {name} in {fname} \
                                 (not in the declared globals list)"
                            ),
                            g.span,
                        ));
                    }
                    None
                }
            },
            None => None,
        };
        let id = self.table.intern_typed(Path::root(RefBase::Global(name)), &g.ty);
        if !env.contains(id) {
            let def = if listed_undef == Some(true) {
                DefState::Undefined
            } else {
                match g.ty.annots.def() {
                    Some(DefAnnot::Undef) => DefState::Undefined,
                    Some(DefAnnot::Out) => DefState::Allocated,
                    _ => DefState::Defined,
                }
            };
            let alloc = AllocState::from_annot(
                g.ty.annots.alloc(),
                if self.opts.implicit_only_globals && g.ty.is_pointerish() {
                    AllocState::Only
                } else {
                    AllocState::Unknown
                },
            );
            env.set(
                id,
                RefState {
                    def,
                    null: NullState::from_annot(g.ty.annots.null()),
                    alloc,
                    null_site: None,
                    alloc_site: Some(g.span),
                    release_site: None,
                    touched: false,
                    offset: false,
                    cap: None,
                    str_len: None,
                },
            );
        }
        Some(id)
    }

    /// Resolves a name to its reference: locals shadow parameters shadow
    /// globals.
    pub(crate) fn base_ref(&mut self, env: &mut Env, name: Symbol) -> Option<RefId> {
        if let Some(ty) = self.local_types.get(&name) {
            return Some(self.table.intern_typed(Path::root(RefBase::Local(name)), ty));
        }
        if let Some(&i) = self.param_index.get(&name) {
            let ty = &self.sig.ty.params[i].ty;
            return Some(self.table.intern_typed(Path::root(RefBase::Param(i, name)), ty));
        }
        self.global_ref(env, name)
    }

    /// Reads a reference's state (tracked or implicit).
    pub(crate) fn state_of(&self, env: &Env, r: RefId) -> RefState {
        env.get(r).copied().unwrap_or_else(|| implicit_state(env, &self.table, r))
    }

    /// Writes a state to a reference and propagates the *storage* properties
    /// (definition and null state) to everything that may name the same
    /// storage — paper §5's propagation. Allocation states are properties of
    /// individual references (Figure 5: `e` becomes kept while
    /// `l->next->this` stays only), so aliases keep their own.
    pub(crate) fn storage_write(&mut self, env: &mut Env, r: RefId, st: RefState) {
        for a in env.all_aliases_of(r) {
            let mut ast = self.state_of(env, a);
            ast.def = st.def;
            ast.null = st.null;
            ast.null_site = st.null_site;
            env.set(a, ast);
        }
        env.set(r, st);
    }

    /// Sets the allocation state of `r` *and all its aliases* — used when the
    /// underlying storage itself changes hands (released → `Dead`) or an
    /// obligation is discharged for every reference to it (`Kept`: paper
    /// Figure 5, "Since e aliases arg2, the allocation state of arg2 is also
    /// set to kept").
    pub(crate) fn alloc_write_all(
        &mut self,
        env: &mut Env,
        r: RefId,
        alloc: AllocState,
        release_site: Option<Span>,
    ) {
        let mut targets = env.all_aliases_of(r);
        targets.push(r);
        for t in targets {
            let mut st = self.state_of(env, t);
            st.alloc = alloc;
            if release_site.is_some() {
                st.release_site = release_site;
            }
            env.set(t, st);
        }
    }

    /// The declared allocation kind of an lvalue position, including the
    /// implicit-`only` interpretations when enabled.
    pub(crate) fn declared_alloc(&self, r: RefId) -> Option<AllocState> {
        let ty = self.table.ty(r)?;
        if let Some(a) = ty.annots.alloc() {
            return Some(AllocState::from_annot(Some(a), AllocState::Unknown));
        }
        if !ty.is_pointerish() {
            return None;
        }
        let path = self.table.path(r);
        let is_global_root = matches!(path.base, RefBase::Global(_));
        let is_field = path.steps.iter().any(|s| matches!(s, RefStep::Field(_)));
        if is_global_root && !is_field && self.opts.implicit_only_globals {
            return Some(AllocState::Only);
        }
        if is_field && self.opts.implicit_only_fields {
            return Some(AllocState::Only);
        }
        None
    }

    /// True when `r` denotes storage visible to the caller (assigning
    /// obligations into it transfers them outside this function).
    pub(crate) fn is_external(&self, r: RefId) -> bool {
        let path = self.table.path(r);
        match path.base {
            RefBase::Global(_) => true,
            RefBase::Arg(_, _) => !path.steps.is_empty(),
            RefBase::Param(_, _) => !path.steps.is_empty(),
            RefBase::Local(_) | RefBase::Temp(_) => false,
        }
    }

    /// Extends a reference by one step, creating location-alias pairs with
    /// the base's aliases (so `l->next` aliases `argl->next` when `l`
    /// aliases `argl` — paper §5).
    pub(crate) fn extend_ref(
        &mut self,
        env: &mut Env,
        base: RefId,
        step: RefStep,
        ty: Option<&QualType>,
    ) -> RefId {
        let path = self.table.path(base).extended(step);
        let id = match ty {
            Some(t) => self.table.intern_typed(path, t),
            None => self.table.intern(path),
        };
        if !env.contains(id) {
            let st = implicit_state(env, &self.table, id);
            env.set(id, st);
        }
        let mut aids = env.all_aliases_of(base);
        for aid in &mut aids {
            // Only extend through named storage (not temporaries — their
            // paths are meaningless to users).
            let apath = self.table.path(*aid).extended(step);
            *aid = match ty {
                Some(t) => self.table.intern_typed(apath, t),
                None => self.table.intern(apath),
            };
            if !env.contains(*aid) {
                let st = self.state_of(env, id);
                env.set(*aid, st);
            }
        }
        env.add_loc_aliases(id, aids);
        id
    }

    /// Degrades ancestors after derived storage changed definition state:
    /// completely-defined ancestors become partially defined when derived
    /// storage is incompletely defined, and allocated ancestors become
    /// partially defined once any derived storage is written (paper §5).
    pub(crate) fn degrade_ancestors(&mut self, env: &mut Env, r: RefId, value_def: DefState) {
        let mut frontier = vec![r];
        let mut seen = std::collections::BTreeSet::new();
        while let Some(cur) = frontier.pop() {
            if !seen.insert(cur) {
                continue;
            }
            let parents: Vec<RefId> = self
                .table
                .parent(cur)
                .into_iter()
                .chain(env.all_aliases_of(cur).into_iter().filter_map(|a| self.table.parent(a)))
                .collect();
            for p in parents {
                let mut st = self.state_of(env, p);
                let new_def = if value_def == DefState::Defined {
                    st.def.max(DefState::Partial)
                } else {
                    DefState::Partial
                };
                if st.def != new_def {
                    st.def = new_def;
                    env.set(p, st);
                }
                frontier.push(p);
            }
        }
    }

    // -- interface-point checks ---------------------------------------------

    /// Finds a witness of incompletely defined storage reachable from `r`,
    /// or `None` when `r` is completely defined (paper §3: an object is
    /// completely defined if all storage reachable from it is defined; NULL
    /// is completely defined).
    pub(crate) fn find_incomplete(&self, env: &Env, r: RefId, depth: u32) -> Option<String> {
        if depth == 0 {
            return None;
        }
        let st = self.state_of(env, r);
        if st.null == NullState::Null {
            return None;
        }
        match st.def {
            DefState::Undefined => Some(self.table.name(r)),
            DefState::Allocated => {
                // The pointed-to storage is undefined.
                let ty = self.table.ty(r);
                let witness = match ty.and_then(|t| t.pointee()) {
                    Some(p) if matches!(p.ty, Type::Struct(_)) => {
                        format!("{}-><fields>", self.table.name(r))
                    }
                    _ => format!("*{}", self.table.name(r)),
                };
                Some(witness)
            }
            DefState::Partial | DefState::Defined => {
                // Scan tracked derived storage for undefined pieces,
                // preferring the shallowest witness (the paper reports
                // argl->next->next, not a deeper alias of it).
                let mut derived = self.table.derived_of(r);
                derived.sort_by_key(|d| (self.table.path(*d).steps.len(), *d));
                for d in derived {
                    let Some(ds) = env.get(d) else { continue };
                    // Skip derived refs through a null pointer (unreachable).
                    if ds.null == NullState::Null && ds.def >= DefState::Defined {
                        continue;
                    }
                    // Relaxation annotations on the field itself or any
                    // enclosing field below `r` (partial, reldef, out)
                    // exempt it from completeness checking.
                    let mut relaxed = false;
                    let mut cur = Some(d);
                    while let Some(x) = cur {
                        if x == r {
                            break;
                        }
                        if let Some(ty) = self.table.ty(x) {
                            if matches!(
                                ty.annots.def(),
                                Some(DefAnnot::Partial | DefAnnot::RelDef | DefAnnot::Out)
                            ) {
                                relaxed = true;
                                break;
                            }
                        }
                        cur = self.table.parent(x);
                    }
                    if relaxed {
                        continue;
                    }
                    match ds.def {
                        DefState::Undefined => return Some(self.table.name(d)),
                        DefState::Allocated
                            if self.table.ty(d).map(|t| t.annots.def() == Some(DefAnnot::Out))
                                != Some(true) =>
                        {
                            return Some(format!("*{}", self.table.name(d)));
                        }
                        _ => {}
                    }
                }
                None
            }
        }
    }

    /// Like [`Checker::find_incomplete`] but only counts storage that is
    /// strictly undefined (never written), not allocated-but-unwritten.
    pub(crate) fn find_undefined_witness(&self, env: &Env, r: RefId) -> Option<String> {
        let st = self.state_of(env, r);
        if st.null == NullState::Null {
            return None;
        }
        if st.def == DefState::Undefined {
            return Some(self.table.name(r));
        }
        let mut derived = self.table.derived_of(r);
        derived.sort();
        'outer: for d in derived {
            let Some(ds) = env.get(d) else { continue };
            if ds.def == DefState::Undefined && ds.null != NullState::Null {
                // Skip storage that is undefined only because an enclosing
                // allocation was never written (lazily-filled pool arrays);
                // the relaxed global check tolerates allocated contents.
                let mut cur = d;
                while let Some(parent) = self.table.parent(cur) {
                    if parent == r {
                        break;
                    }
                    if let Some(ps) = env.get(parent) {
                        if ps.def == DefState::Allocated {
                            continue 'outer;
                        }
                    }
                    cur = parent;
                }
                return Some(self.table.name(d));
            }
        }
        None
    }

    /// Checks that `r` is completely defined at an interface point; reports
    /// with `describe` as the message prefix on failure. Relaxation
    /// annotations (`partial`, `reldef`) on the reference's type suppress
    /// the check.
    pub(crate) fn check_completely_defined(
        &mut self,
        env: &Env,
        r: RefId,
        span: Span,
        describe: &str,
    ) {
        if let Some(ty) = self.table.ty(r) {
            if matches!(ty.annots.def(), Some(DefAnnot::Partial | DefAnnot::RelDef | DefAnnot::Out))
            {
                return;
            }
        }
        if let Some(witness) = self.find_incomplete(env, r, 4) {
            let name = self.table.name(r);
            self.report(Diagnostic::new(
                DiagKind::IncompleteDef,
                format!("{describe} {name} not completely defined ({witness} is undefined)"),
                span,
            ));
        }
    }

    /// The return-point checks: the function must satisfy the constraints
    /// implied by the annotations on its return value, parameters and the
    /// globals it uses (paper §2).
    pub(crate) fn check_return(&mut self, env: &mut Env, value: Option<ExprId>, span: Span) {
        if env.unreachable {
            return;
        }
        // Evaluate the returned expression.
        let ret_ty = &self.sig.ty.ret;
        if let Some(e) = value {
            let v = self.eval_expr(env, e);
            self.observe_returned_value(env, &v);
            let ret_ty = self.sig.ty.ret.clone();
            self.check_returned_value(env, &v, &ret_ty, span);
        } else if !ret_ty.is_void() && !ret_ty.annots.is_noreturn() {
            let fname = self.sig.name;
            self.report(Diagnostic::new(
                DiagKind::MissingReturn,
                format!("Path with no return in function {fname} declared to return a value"),
                span,
            ));
        }
        self.check_globals_at_return(env, span);
        self.observe_params_at_return(env, span);
        self.check_params_at_return(env, span);
        self.check_local_leaks_at_return(env, span);
        env.unreachable = true;
    }

    fn check_returned_value(
        &mut self,
        env: &mut Env,
        v: &crate::eval::Value,
        ret_ty: &QualType,
        span: Span,
    ) {
        use crate::eval::Value;
        let ret_only = {
            let annot = ret_ty.annots.alloc();
            match annot {
                Some(a) => matches!(
                    AllocState::from_annot(Some(a), AllocState::Unknown),
                    AllocState::Only | AllocState::Owned | AllocState::Keep
                ),
                None => self.opts.implicit_only_returns && ret_ty.is_pointerish(),
            }
        };
        match v {
            Value::Null(_)
                if ret_ty.is_pointerish()
                    && !matches!(
                        ret_ty.annots.null(),
                        Some(NullAnnot::Null | NullAnnot::RelNull)
                    ) =>
            {
                self.report(Diagnostic::new(
                    DiagKind::NullMismatch,
                    "Null storage returned as non-null result".to_owned(),
                    span,
                ));
            }
            Value::Ref(r) => {
                let r = *r;
                let st = self.state_of(env, r);
                // Null-state of the result itself.
                if ret_ty.is_pointerish()
                    && !matches!(ret_ty.annots.null(), Some(NullAnnot::Null | NullAnnot::RelNull))
                    && st.null.may_be_null()
                {
                    let name = self.table.name(r);
                    let mut d = Diagnostic::new(
                        DiagKind::NullMismatch,
                        format!("Possibly null storage {name} returned as non-null result"),
                        span,
                    );
                    if let Some(site) = st.null_site {
                        d = d.with_note(format!("Storage {name} may become null"), site);
                    }
                    self.report(d);
                }
                // Null storage derivable from the result (erc_create, §6).
                let mut derived = self.table.derived_of(r);
                derived.sort();
                for dref in derived {
                    let Some(ds) = env.get(dref) else { continue };
                    if !ds.null.may_be_null() {
                        continue;
                    }
                    let declared = self.table.ty(dref).and_then(|t| t.annots.null());
                    if declared.is_none() {
                        let name = self.table.name(r);
                        let dname = self.table.name(dref);
                        let ds_null_site = ds.null_site;
                        let mut d = Diagnostic::new(
                            DiagKind::NullMismatch,
                            format!("Null storage {dname} derivable from return value: {name}"),
                            span,
                        );
                        if let Some(site) = ds_null_site {
                            d = d.with_note(format!("Storage {dname} becomes null"), site);
                        }
                        self.report(d);
                    }
                }
                // Complete definition of the result.
                if ret_ty.annots.def() != Some(DefAnnot::Out) {
                    self.check_completely_defined(env, r, span, "Returned storage");
                }
                // Allocation-obligation transfer.
                if ret_only {
                    if st.alloc.has_obligation() || st.null == NullState::Null {
                        // Obligation transfers to the caller — discharged
                        // for every reference to this storage.
                        self.alloc_write_all(env, r, AllocState::Kept, None);
                    } else if matches!(st.alloc, AllocState::Temp) {
                        let name = self.table.name(r);
                        self.report(Diagnostic::new(
                            DiagKind::AllocMismatch,
                            format!("Temp storage {name} returned as only result"),
                            span,
                        ));
                    } else if matches!(st.alloc, AllocState::Kept | AllocState::Dependent) {
                        let name = self.table.name(r);
                        self.report(Diagnostic::new(
                            DiagKind::AllocMismatch,
                            format!(
                                "{} storage {name} returned as only result",
                                capitalize(st.alloc.label())
                            ),
                            span,
                        ));
                    }
                } else if st.alloc.has_obligation() && !self.opts.gc_mode && ret_ty.is_pointerish()
                {
                    // Fresh storage escapes through a result that does not
                    // transfer the obligation: suspected leak (§6).
                    let name = self.table.name(r);
                    let mut d = Diagnostic::new(
                        DiagKind::MemoryLeak,
                        format!(
                            "Fresh storage {name} returned as implicitly temp result \
                             (obligation to release storage is not transferred)"
                        ),
                        span,
                    );
                    if let Some(site) = st.alloc_site {
                        d = d.with_note(format!("Storage {name} allocated"), site);
                    }
                    self.report(d);
                    self.alloc_write_all(env, r, AllocState::Kept, None);
                }
            }
            _ => {}
        }
    }

    fn check_globals_at_return(&mut self, env: &Env, span: Span) {
        let mut reported: Vec<Diagnostic> = Vec::new();
        for (r, st) in env.iter() {
            let path = self.table.path(r);
            let RefBase::Global(gname) = path.base else { continue };
            if !path.steps.is_empty() {
                continue;
            }
            let Some(ty) = self.table.ty(r) else { continue };
            // Null state must match the declaration.
            if ty.is_pointerish()
                && !matches!(ty.annots.null(), Some(NullAnnot::Null | NullAnnot::RelNull))
                && st.null.may_be_null()
            {
                let mut d = Diagnostic::new(
                    DiagKind::NullMismatch,
                    format!(
                        "Function returns with non-null global {gname} referencing null storage"
                    ),
                    span,
                );
                if let Some(site) = st.null_site {
                    d = d.with_note(format!("Storage {gname} may become null"), site);
                }
                reported.push(d);
            }
            // A released global is dangling for the caller.
            if st.alloc == AllocState::Dead {
                let mut d = Diagnostic::new(
                    DiagKind::UseAfterRelease,
                    format!("Function returns with global {gname} referencing released storage"),
                    span,
                );
                if let Some(site) = st.release_site {
                    d = d.with_note(format!("Storage {gname} released"), site);
                }
                reported.push(d);
            }
            // Globals must not be left with *undefined* storage at return
            // (allocated-but-unwritten contents are tolerated — the paper's
            // database example fills pool arrays lazily). A global marked
            // `undef` in this function's globals list is exempt.
            let undef_listed =
                self.globals_list.as_ref().and_then(|l| l.get(&gname).copied()) == Some(true);
            if !undef_listed
                && !matches!(
                    ty.annots.def(),
                    Some(DefAnnot::Undef | DefAnnot::Partial | DefAnnot::RelDef)
                )
            {
                if let Some(witness) = self.find_undefined_witness(env, r) {
                    reported.push(Diagnostic::new(
                        DiagKind::IncompleteDef,
                        format!(
                            "Function returns with global {gname} not completely defined \
                             ({witness} is undefined)"
                        ),
                        span,
                    ));
                }
            }
        }
        for d in reported {
            self.report(d);
        }
    }

    fn check_params_at_return(&mut self, env: &Env, span: Span) {
        let sig = self.sig;
        for (i, p) in sig.ty.params.iter().enumerate() {
            let Some(name) = p.name else { continue };
            let Some(shadow) = self.table.lookup(&Path::root(RefBase::Arg(i, name))) else {
                continue;
            };
            let st = self.state_of(env, shadow);
            let is_out = p.ty.annots.def() == Some(DefAnnot::Out);
            // All parameters (and out parameters especially) must reference
            // completely defined storage when the function returns.
            if p.ty.is_pointerish() || is_out {
                let describe = if is_out { "Out parameter" } else { "Parameter" };
                self.check_completely_defined_shadow(env, shadow, span, describe, name);
            }
            // An `only` (or `killref`) parameter whose obligation was never
            // discharged leaks (unless it is null).
            if matches!(st.alloc, AllocState::Only | AllocState::NewRef)
                && st.null != NullState::Null
                && !self.opts.gc_mode
            {
                let what = if st.alloc == AllocState::NewRef {
                    format!("Reference {name} not killed before return")
                } else {
                    format!("Only storage {name} not released before return")
                };
                let mut d = Diagnostic::new(DiagKind::MemoryLeak, what, span);
                if let Some(site) = st.alloc_site {
                    d = d.with_note(format!("Storage {name} becomes only"), site);
                }
                self.report(d);
            }
        }
    }

    /// Like [`Checker::check_completely_defined`] but names the parameter in
    /// user terms rather than the `argN` shadow.
    fn check_completely_defined_shadow(
        &mut self,
        env: &Env,
        shadow: RefId,
        span: Span,
        describe: &str,
        user_name: Symbol,
    ) {
        if let Some(ty) = self.table.ty(shadow) {
            if matches!(ty.annots.def(), Some(DefAnnot::Partial | DefAnnot::RelDef)) {
                return;
            }
            // `out` params must be completely defined *by* the function, so
            // no exemption here — that is the point of the check.
        }
        if let Some(witness) = self.find_incomplete(env, shadow, 4) {
            self.report(Diagnostic::new(
                DiagKind::IncompleteDef,
                format!(
                    "{describe} {user_name} not completely defined at return \
                     ({witness} is undefined)"
                ),
                span,
            ));
        }
    }

    fn check_local_leaks_at_return(&mut self, env: &Env, span: Span) {
        if self.opts.gc_mode {
            return;
        }
        // Group obligation-holding local/temp references into alias
        // clusters and report each cluster once.
        let mut holders: Vec<RefId> = env
            .iter()
            .filter(|(r, st)| {
                st.alloc.has_obligation()
                    && st.alloc != AllocState::Keep
                    && st.null != NullState::Null
                    && matches!(self.table.path(*r).base, RefBase::Local(_) | RefBase::Temp(_))
                    && self.table.path(*r).steps.is_empty()
            })
            .map(|(r, _)| r)
            .collect();
        // Prefer reporting named locals over compiler temporaries.
        holders.sort_by_key(|r| (matches!(self.table.path(*r).base, RefBase::Temp(_)), *r));
        let mut reported: std::collections::BTreeSet<RefId> = Default::default();
        for r in holders {
            if reported.contains(&r) {
                continue;
            }
            // Skip if some external reference shares this storage (the
            // obligation lives on in caller-visible storage) or the
            // obligation was discharged through an alias.
            let aliases = env.all_aliases_of(r);
            if aliases.iter().any(|a| {
                self.is_external(*a)
                    || matches!(self.state_of(env, *a).alloc, AllocState::Kept | AllocState::Dead)
            }) {
                continue;
            }
            for a in &aliases {
                reported.insert(*a);
            }
            reported.insert(r);
            let st = self.state_of(env, r);
            let name = self.table.name(r);
            let label = match st.alloc {
                AllocState::Fresh => "Fresh",
                AllocState::NewRef => "New reference",
                _ => "Only",
            };
            // Point at the allocation, where a suppression comment would
            // naturally be placed.
            let primary = st.alloc_site.unwrap_or(span);
            let mut d = Diagnostic::new(
                DiagKind::MemoryLeak,
                format!("{label} storage {name} not released before return"),
                primary,
            );
            if let Some(site) = st.alloc_site {
                d = d.with_note(format!("Storage {name} allocated"), site);
            }
            self.report(d);
        }
    }

    fn exit_scope(&mut self, env: &mut Env, names: &[Symbol], span: Span) {
        for &name in names {
            let Some(r) = self.table.lookup(&Path::root(RefBase::Local(name))) else {
                self.local_types.remove(&name);
                continue;
            };
            let st = self.state_of(env, r);
            // The obligation survives the scope exit when an external
            // reference or a still-live local shares the storage.
            let survives = env.all_aliases_of(r).iter().any(|a| {
                self.is_external(*a)
                    || matches!(self.state_of(env, *a).alloc, AllocState::Kept | AllocState::Dead)
                    || matches!(
                        &self.table.path(*a).base,
                        RefBase::Local(n)
                            if !names.contains(n) && self.table.path(*a).steps.is_empty()
                    )
            });
            if st.alloc.has_obligation()
                && st.alloc != AllocState::Keep
                && st.null != NullState::Null
                && !self.opts.gc_mode
                && !survives
            {
                let label = match st.alloc {
                    AllocState::Fresh => "Fresh",
                    AllocState::NewRef => "New reference",
                    _ => "Only",
                };
                let primary = st.alloc_site.unwrap_or(span);
                let mut d = Diagnostic::new(
                    DiagKind::MemoryLeak,
                    format!("{label} storage {name} not released before scope exit"),
                    primary,
                );
                if let Some(site) = st.alloc_site {
                    d = d.with_note(format!("Storage {name} allocated"), site);
                }
                self.report(d);
            }
            // A discharged obligation is a fact about the storage — push it
            // to surviving aliases before this name disappears so later leak
            // checks do not resurrect it.
            if matches!(st.alloc, AllocState::Dead | AllocState::Kept) {
                self.alloc_write_all(env, r, st.alloc, st.release_site);
            }
            for dref in self.table.derived_of(r) {
                env.remove(dref);
            }
            env.remove(r);
            self.local_types.remove(&name);
        }
    }

    // -- guard refinement ----------------------------------------------------

    /// Refines `env` assuming `cond` evaluated with polarity `sense`
    /// (paper §4's null checking: comparisons and truenull/falsenull calls).
    pub(crate) fn refine(&mut self, env: &mut Env, cond: ExprId, sense: bool) {
        let ast = self.ast;
        let span = ast.expr_span(cond);
        match ast.expr(cond) {
            ExprKind::Unary(UnOp::Not, inner) => self.refine(env, *inner, !sense),
            ExprKind::Binary(BinOp::LogAnd, l, r) => {
                let (l, r) = (*l, *r);
                if sense {
                    self.refine(env, l, true);
                    self.refine(env, r, true);
                }
            }
            ExprKind::Binary(BinOp::LogOr, l, r) => {
                let (l, r) = (*l, *r);
                if !sense {
                    self.refine(env, l, false);
                    self.refine(env, r, false);
                }
            }
            ExprKind::Binary(op @ (BinOp::Eq | BinOp::Ne), l, r) => {
                let (op, l, r) = (*op, *l, *r);
                let ptr = if ast.is_null_constant(r) {
                    l
                } else if ast.is_null_constant(l) {
                    r
                } else {
                    return;
                };
                let is_null = (op == BinOp::Eq) == sense;
                self.refine_null(env, ptr, is_null, span);
            }
            ExprKind::Call(_, args) => {
                let arg0 = if args.len() == 1 { Some(args[0]) } else { None };
                let Some(callee) = ast.direct_callee(cond) else { return };
                let Some(sig) = self.scope.function(callee) else { return };
                let (truenull, falsenull) =
                    (sig.ty.ret.annots.is_truenull(), sig.ty.ret.annots.is_falsenull());
                let Some(arg0) = arg0 else { return };
                if truenull {
                    // f(x) true exactly when x is null.
                    self.refine_null(env, arg0, sense, span);
                } else if falsenull && sense {
                    // f(x) true only when x is not null.
                    self.refine_null(env, arg0, false, span);
                }
            }
            ExprKind::Cast(_, inner) => self.refine(env, *inner, sense),
            ExprKind::Comma(_, r) => self.refine(env, *r, sense),
            // `if (p)` on a pointer.
            _ => {
                let was_quiet = self.quiet;
                self.quiet = true;
                let r = self.ref_of_expr(env, cond);
                self.quiet = was_quiet;
                if let Some(r) = r {
                    if self.table.ty(r).map(|t| t.is_pointerish()) == Some(true) {
                        self.set_nullness(env, r, !sense, span);
                    }
                }
            }
        }
    }

    fn refine_null(&mut self, env: &mut Env, ptr: ExprId, is_null: bool, site: Span) {
        let was_quiet = self.quiet;
        self.quiet = true;
        let r = self.ref_of_expr(env, ptr);
        self.quiet = was_quiet;
        if let Some(r) = r {
            self.set_nullness(env, r, is_null, site);
        }
    }

    pub(crate) fn set_nullness(&mut self, env: &mut Env, r: RefId, is_null: bool, site: Span) {
        self.observe_null_test(env, r);
        let mut st = self.state_of(env, r);
        if is_null {
            st.null = NullState::Null;
            st.null_site.get_or_insert(site);
        } else {
            st.null = NullState::NotNull;
        }
        self.storage_write(env, r, st);
    }
}

pub(crate) fn capitalize(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

impl lclint_cfg::Analysis for Checker<'_> {
    type State = Env;

    fn transfer(&mut self, action: &Action, state: &mut Env) {
        if state.unreachable {
            return;
        }
        self.tick();
        match action {
            Action::Eval(e) => {
                self.eval_expr(state, *e);
            }
            Action::Decl(d) => self.transfer_decl(state, *d),
            Action::Return(v, span) => self.check_return(state, *v, *span),
            Action::ExitScope(names, span) => self.exit_scope(state, names, *span),
        }
    }

    fn apply_guard(&mut self, cond: ExprId, sense: bool, state: &mut Env) {
        if state.unreachable {
            return;
        }
        self.refine(state, cond, sense);
    }

    fn merge(&mut self, a: Env, b: Env, at: Span) -> Env {
        let mut diags = Vec::new();
        let merged = merge_env(a, b, at, &self.table, &mut diags);
        for d in diags {
            self.report(d);
        }
        merged
    }
}

impl Checker<'_> {
    fn transfer_decl(&mut self, env: &mut Env, d: DeclId) {
        let ast = self.ast;
        let d = ast.decl(d);
        if d.specs.storage == Some(StorageClass::Typedef) {
            for id in &d.declarators {
                if let Some(n) = id.declarator.name {
                    let ty = self.scope.resolve_local_declarator(ast, &d.specs, &id.declarator);
                    self.scope.add_typedef(n, ty);
                }
            }
            return;
        }
        for id in &d.declarators {
            let Some(name) = id.declarator.name else { continue };
            let ty = self.scope.resolve_local_declarator(ast, &d.specs, &id.declarator);
            let r = self.table.intern_typed(Path::root(RefBase::Local(name)), &ty);
            // A (re)declaration severs old aliases and derived state.
            for dref in self.table.derived_of(r) {
                env.remove(dref);
            }
            env.clear_aliases(r);
            // A sized array declaration is storage with a statically-known
            // element capacity (the bottom of the bounded-buffer lattice).
            let arr_cap = match &ty.ty {
                lclint_sema::Type::Array(_, Some(n)) => Some(*n as i64),
                _ => None,
            };
            let mut st = RefState::undefined();
            st.null = NullState::from_annot(ty.annots.null());
            if arr_cap.is_some() {
                st.cap = arr_cap;
                st.alloc_site = Some(id.declarator.span);
                // The array's storage exists from the declaration on; only
                // its *elements* start out undefined (tracked per element).
                st.def = DefState::Allocated;
            }
            self.local_types.insert(name, ty);
            env.set(r, st);
            match &id.init {
                Some(Initializer::Expr(e)) => {
                    let e = *e;
                    let v = self.eval_expr(env, e);
                    let site = self.ast.expr_span(e);
                    self.do_assign(env, r, v, site);
                }
                Some(Initializer::List(_)) => {
                    let mut st = RefState::defined();
                    st.alloc = AllocState::Unknown;
                    env.set(r, st);
                }
                None => {}
            }
            if arr_cap.is_some() {
                // The declared capacity is a property of the array storage;
                // initializers must not replace it with their own.
                let mut st = self.state_of(env, r);
                st.cap = arr_cap;
                st.alloc_site = st.alloc_site.or(Some(id.declarator.span));
                env.set(r, st);
            }
        }
    }
}
