//! The three dataflow values of the paper (§5) and the per-point environment.
//!
//! "Three values are associated with each reference: the definition state
//! (defined, partially defined, allocated, etc.), the null state (definitely
//! null, possibly null, not null, etc.), and the allocation state
//! (corresponding to the allocation annotation, e.g., only, temp)."

use crate::diag::{DiagKind, Diagnostic};
use crate::refs::{RefId, RefTable};
use lclint_syntax::annot::{AllocAnnot, DefAnnot, NullAnnot};
use lclint_syntax::span::Span;
use std::fmt;

/// Definition state of a reference's storage.
///
/// Ordered: `Undefined < Allocated < Partial < Defined`. Confluence merges
/// take the *weakest* assumption (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DefState {
    /// No value has been assigned.
    Undefined,
    /// Storage is allocated but its contents are undefined (e.g. fresh
    /// `malloc` results, `out` parameters).
    Allocated,
    /// Some derived storage is defined, some is not.
    Partial,
    /// Completely defined as far as this level is concerned.
    Defined,
}

impl DefState {
    /// Confluence merge: the weakest assumption.
    pub fn merge(self, other: DefState) -> DefState {
        self.min(other)
    }
}

/// Null state of a pointer reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NullState {
    /// Definitely the null pointer.
    Null,
    /// May be null.
    PossiblyNull,
    /// Definitely not null.
    NotNull,
    /// `relnull`: assumed non-null when used, may be assigned null.
    RelNull,
}

impl NullState {
    /// Confluence merge: a join in the semilattice
    /// `NotNull < RelNull < PossiblyNull`, where merging a definite `Null`
    /// with any other value is `PossiblyNull`.
    pub fn merge(self, other: NullState) -> NullState {
        use NullState::*;
        if self == other {
            return self;
        }
        if self == Null || other == Null {
            return PossiblyNull;
        }
        let rank = |s: NullState| match s {
            NotNull => 0,
            RelNull => 1,
            _ => 2,
        };
        if rank(self) >= rank(other) {
            self
        } else {
            other
        }
    }

    /// True when a dereference of this state is an anomaly.
    pub fn may_be_null(&self) -> bool {
        matches!(self, NullState::Null | NullState::PossiblyNull)
    }

    /// Initial null state implied by a declaration annotation
    /// (the default with no annotation is not-null, paper §6).
    pub fn from_annot(a: Option<NullAnnot>) -> NullState {
        match a {
            Some(NullAnnot::Null) => NullState::PossiblyNull,
            Some(NullAnnot::RelNull) => NullState::RelNull,
            Some(NullAnnot::NotNull) | None => NullState::NotNull,
        }
    }
}

/// Allocation state (alias kind) of a reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocState {
    /// Unshared storage with an obligation to release (annotation `only`).
    Only,
    /// Storage allocated in this function whose obligation has not yet been
    /// transferred (reported as *fresh* storage).
    Fresh,
    /// Owning reference that `dependent` references may share.
    Owned,
    /// `keep` parameter: obligation accepted, caller may still use.
    Keep,
    /// Temporary: may not be released or captured (the default for
    /// unannotated parameters).
    Temp,
    /// Shares an owned reference; may not release.
    Dependent,
    /// Arbitrarily shared; never released.
    Shared,
    /// Static-duration storage (string literals); never released.
    Static,
    /// A live reference-count reference that must be killed (`newref`).
    NewRef,
    /// Obligation satisfied (transferred); still safely usable.
    Kept,
    /// Released or transferred as `only`; must not be used.
    Dead,
    /// Nothing known (non-pointers, untracked).
    Unknown,
    /// Poisoned by a confluence error to suppress cascades.
    Error,
}

impl AllocState {
    /// Does this state carry an obligation to release storage?
    pub fn has_obligation(&self) -> bool {
        matches!(
            self,
            AllocState::Only
                | AllocState::Fresh
                | AllocState::Owned
                | AllocState::Keep
                | AllocState::NewRef
        )
    }

    /// May the reference still be used as an rvalue?
    pub fn usable(&self) -> bool {
        !matches!(self, AllocState::Dead)
    }

    /// Initial state implied by a declaration annotation. `implicit_only`
    /// supplies the interpretation for unannotated declarations (true at
    /// positions where LCLint applies implicit `only`).
    pub fn from_annot(a: Option<AllocAnnot>, default: AllocState) -> AllocState {
        match a {
            Some(AllocAnnot::Only) => AllocState::Only,
            Some(AllocAnnot::Keep) => AllocState::Keep,
            Some(AllocAnnot::Temp) => AllocState::Temp,
            Some(AllocAnnot::Owned) => AllocState::Owned,
            Some(AllocAnnot::Dependent) => AllocState::Dependent,
            Some(AllocAnnot::Shared) => AllocState::Shared,
            None => default,
        }
    }

    /// LCLint-style label used in messages ("Temp storage", "Only storage").
    pub fn label(&self) -> &'static str {
        match self {
            AllocState::Only => "only",
            AllocState::Fresh => "fresh",
            AllocState::Owned => "owned",
            AllocState::Keep => "keep",
            AllocState::Temp => "temp",
            AllocState::Dependent => "dependent",
            AllocState::Shared => "shared",
            AllocState::Static => "static",
            AllocState::NewRef => "newref",
            AllocState::Kept => "kept",
            AllocState::Dead => "dead",
            AllocState::Unknown => "unknown",
            AllocState::Error => "error",
        }
    }
}

impl fmt::Display for AllocState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The full dataflow value of one reference, with provenance spans used for
/// the indented history lines of diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefState {
    /// Definition state.
    pub def: DefState,
    /// Null state.
    pub null: NullState,
    /// Allocation state.
    pub alloc: AllocState,
    /// Where the value may have become null.
    pub null_site: Option<Span>,
    /// Where the allocation state was established (annotation or event).
    pub alloc_site: Option<Span>,
    /// Where the reference was released / transferred (for dead refs).
    pub release_site: Option<Span>,
    /// Statically-known capacity of the referenced storage, in elements
    /// (chars for string buffers): seeded from `char buf[N]` declarations
    /// and constant-size `malloc`/`calloc`/`realloc` calls. `None` means
    /// unknown — the bounds checks stay silent.
    pub cap: Option<i64>,
    /// Statically-known length of the nul-terminated string currently in
    /// the referenced storage (excluding the nul), when decidable from
    /// string-literal assignments and string-sink effects.
    pub str_len: Option<i64>,
    /// True once this reference has been assigned within the current
    /// function (distinguishes values this function obtained from entry
    /// assumptions — used by the leak-on-assignment check).
    pub touched: bool,
    /// True when the pointer may point *into* an object rather than at its
    /// start (pointer arithmetic) — releasing such a pointer is an anomaly
    /// (§7: "freeing storage resulting from pointer arithmetic").
    pub offset: bool,
}

impl RefState {
    /// A completely defined, non-null, unknown-allocation value.
    pub fn defined() -> Self {
        RefState {
            def: DefState::Defined,
            null: NullState::NotNull,
            alloc: AllocState::Unknown,
            null_site: None,
            alloc_site: None,
            release_site: None,
            touched: false,
            offset: false,
            cap: None,
            str_len: None,
        }
    }

    /// The definitely-null value.
    pub fn null_value(site: Span) -> Self {
        RefState {
            def: DefState::Defined,
            null: NullState::Null,
            alloc: AllocState::Unknown,
            null_site: Some(site),
            alloc_site: None,
            release_site: None,
            touched: false,
            offset: false,
            cap: None,
            str_len: None,
        }
    }

    /// An undefined local.
    pub fn undefined() -> Self {
        RefState {
            def: DefState::Undefined,
            null: NullState::NotNull,
            alloc: AllocState::Unknown,
            null_site: None,
            alloc_site: None,
            release_site: None,
            touched: false,
            offset: false,
            cap: None,
            str_len: None,
        }
    }
}

impl Default for RefState {
    fn default() -> Self {
        RefState::defined()
    }
}

/// The abstract environment at one program point.
///
/// Dense: `RefId`s are small and contiguous within one function, so the
/// states are a vector indexed by id and a clone is one allocation. Both
/// alias relations are sorted pair lists. Everything that walks an environment
/// sees ids in ascending order.
#[derive(Debug, Clone, Default)]
pub struct Env {
    /// False after a `noreturn` call (state is dead; checks are disabled and
    /// merges ignore it).
    pub unreachable: bool,
    states: Vec<Option<RefState>>,
    aliases: AliasPairs,
    /// Location aliases: two references naming the *same memory location*
    /// (derived-reference pairs such as `l->next` and `argl->next` when `l`
    /// aliases `argl`). Unlike value aliases these survive assignment —
    /// writing through one writes the other.
    loc_aliases: AliasPairs,
}

impl Env {
    /// Creates an empty, reachable environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// The state of `r`, if tracked.
    pub fn get(&self, r: RefId) -> Option<&RefState> {
        self.states.get(r.0 as usize).and_then(Option::as_ref)
    }

    /// Sets the state of exactly `r` (no alias propagation — the checker
    /// drives propagation explicitly).
    pub fn set(&mut self, r: RefId, s: RefState) {
        let i = r.0 as usize;
        if i >= self.states.len() {
            self.states.resize(i + 1, None);
        }
        self.states[i] = Some(s);
    }

    /// Removes a reference (scope exit).
    pub fn remove(&mut self, r: RefId) -> Option<RefState> {
        self.aliases.remove(r);
        self.loc_aliases.remove(r);
        self.states.get_mut(r.0 as usize).and_then(Option::take)
    }

    /// True when tracked.
    pub fn contains(&self, r: RefId) -> bool {
        self.get(r).is_some()
    }

    /// The may-alias set of `r` (not including `r` itself), ascending.
    pub fn aliases_of(&self, r: RefId) -> Vec<RefId> {
        self.aliases.of(r).collect()
    }

    /// Records that `a` and `b` may refer to the same storage (symmetric,
    /// but deliberately *not* transitive: `l` may alias `argl` or
    /// `argl->next` without those aliasing each other — paper §5).
    pub fn add_alias(&mut self, a: RefId, b: RefId) {
        self.aliases.add(a, [b]);
    }

    /// [`Env::add_alias`] for `a` and each of `bs`.
    pub fn add_aliases(&mut self, a: RefId, bs: impl IntoIterator<Item = RefId>) {
        self.aliases.add(a, bs);
    }

    /// Drops every *value* alias pair involving `r` (after `r` is
    /// reassigned). Location aliases are untouched.
    pub fn clear_aliases(&mut self, r: RefId) {
        self.aliases.remove(r);
    }

    /// Records that `a` and `b` name the same memory location.
    pub fn add_loc_alias(&mut self, a: RefId, b: RefId) {
        self.loc_aliases.add(a, [b]);
    }

    /// [`Env::add_loc_alias`] for `a` and each of `bs`.
    pub fn add_loc_aliases(&mut self, a: RefId, bs: impl IntoIterator<Item = RefId>) {
        self.loc_aliases.add(a, bs);
    }

    /// The location-alias set of `r` (not including `r`), ascending.
    pub fn loc_aliases_of(&self, r: RefId) -> Vec<RefId> {
        self.loc_aliases.of(r).collect()
    }

    /// Union of value and location aliases of `r`, ascending.
    pub fn all_aliases_of(&self, r: RefId) -> Vec<RefId> {
        let mut out: Vec<RefId> = self.aliases.of(r).chain(self.loc_aliases.of(r)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Iterates over tracked `(ref, state)` pairs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (RefId, &RefState)> {
        self.states.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|s| (RefId(i as u32), s)))
    }
}

/// A symmetric, non-transitive relation on references: a sorted list of
/// `(a, b)` pairs that holds every pair in both directions, so the partners
/// of `r` are one contiguous, ascending run.
#[derive(Debug, Clone, Default)]
struct AliasPairs(Vec<(RefId, RefId)>);

impl AliasPairs {
    /// The run of pairs whose first element is `r`.
    fn run(&self, r: RefId) -> std::ops::Range<usize> {
        let lo = self.0.partition_point(|&(a, _)| a < r);
        let hi = lo + self.0[lo..].partition_point(|&(a, _)| a == r);
        lo..hi
    }

    /// The partners of `r`, ascending.
    fn of(&self, r: RefId) -> impl Iterator<Item = RefId> + '_ {
        self.0[self.run(r)].iter().map(|&(_, b)| b)
    }

    /// Relates `a` to each of `bs` (both directions; a reference is never
    /// its own alias). The first partner's pairs are inserted in place; the
    /// rest are merged in with one pass, so relating a reference to many
    /// others costs one pass over the list, not one shift per pair.
    fn add(&mut self, a: RefId, bs: impl IntoIterator<Item = RefId>) {
        let mut new = Vec::new();
        let mut first = true;
        for b in bs.into_iter().filter(|&b| b != a) {
            for pair in [(a, b), (b, a)] {
                match self.0.binary_search(&pair) {
                    Ok(_) => {}
                    Err(i) if first => self.0.insert(i, pair),
                    Err(_) => new.push(pair),
                }
            }
            first = false;
        }
        if new.is_empty() {
            return;
        }
        new.sort_unstable();
        new.dedup();
        // Merge from the back into the grown list.
        let (mut i, mut j) = (self.0.len(), new.len());
        self.0.extend_from_slice(&new);
        let mut k = self.0.len();
        while j > 0 {
            k -= 1;
            if i > 0 && self.0[i - 1] > new[j - 1] {
                i -= 1;
                self.0[k] = self.0[i];
            } else {
                j -= 1;
                self.0[k] = new[j];
            }
        }
    }

    /// Drops every pair involving `r`, in both directions.
    fn remove(&mut self, r: RefId) {
        if !self.run(r).is_empty() {
            self.0.retain(|&(a, b)| a != r && b != r);
        }
    }

    /// The union of two relations (a linear merge of the sorted lists).
    fn union(self, other: AliasPairs) -> AliasPairs {
        if self.0 == other.0 || other.0.is_empty() {
            return self;
        }
        let (x, y) = (&self.0, &other.0);
        let mut out = Vec::with_capacity(x.len() + y.len());
        let (mut i, mut j) = (0, 0);
        while i < x.len() && j < y.len() {
            match x[i].cmp(&y[j]) {
                std::cmp::Ordering::Less => {
                    out.push(x[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(y[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(x[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&x[i..]);
        out.extend_from_slice(&y[j..]);
        AliasPairs(out)
    }
}

/// The implicit state of a reference that one branch never touched: derived
/// from the nearest tracked ancestor's definition state and the declared
/// annotations on the reference's type (entry assumptions, paper §2).
pub fn implicit_state(env: &Env, table: &RefTable, r: RefId) -> RefState {
    // Walk up to the nearest tracked ancestor.
    let mut anc_def = DefState::Defined;
    let mut cur = r;
    while let Some(p) = table.parent(cur) {
        if let Some(s) = env.get(p) {
            anc_def = s.def;
            break;
        }
        cur = p;
    }
    let def = match anc_def {
        DefState::Defined | DefState::Partial => DefState::Defined,
        DefState::Allocated | DefState::Undefined => DefState::Undefined,
    };
    let (null, alloc) = match table.ty(r) {
        Some(ty) => (
            NullState::from_annot(ty.annots.null()),
            AllocState::from_annot(ty.annots.alloc(), AllocState::Unknown),
        ),
        None => (NullState::NotNull, AllocState::Unknown),
    };
    // `out`-annotated storage may legitimately be undefined.
    let def = match table.ty(r).and_then(|t| t.annots.def()) {
        Some(DefAnnot::Out) => def.min(DefState::Allocated),
        _ => def,
    };
    RefState {
        def,
        null,
        alloc,
        null_site: None,
        alloc_site: None,
        release_site: None,
        touched: false,
        offset: false,
        cap: None,
        str_len: None,
    }
}

/// Merges two environments at a confluence point, reporting allocation-state
/// confluence anomalies into `diags` (paper §5, Figure 6 point 10).
///
/// Walks ids in ascending order and reads both inputs unmodified: a
/// reference missing on one side takes its implicit state from its nearest
/// tracked ancestor there, which has a smaller id and so was visited first.
pub fn merge_env(a: Env, b: Env, at: Span, table: &RefTable, diags: &mut Vec<Diagnostic>) -> Env {
    if a.unreachable {
        return b;
    }
    if b.unreachable {
        return a;
    }
    let len = a.states.len().max(b.states.len());
    let mut states = Vec::with_capacity(len);
    for i in 0..len {
        let r = RefId(i as u32);
        let (ta, tb) = (a.get(r), b.get(r));
        if ta.is_none() && tb.is_none() {
            states.push(None);
            continue;
        }
        let base = &table.path(r).base;
        let is_temp = matches!(base, crate::refs::RefBase::Temp(_));
        let is_arg_shadow = matches!(base, crate::refs::RefBase::Arg(_, _));
        let is_local = matches!(base, crate::refs::RefBase::Local(_));
        // A temporary or local missing on one side simply did not exist
        // there (different scope/path) — use the tracked state rather than
        // synthesizing a conflicting one from type annotations.
        if (is_temp || is_local) && (ta.is_none() || tb.is_none()) {
            states.push(ta.or(tb).copied());
            continue;
        }
        let sa = ta.copied().unwrap_or_else(|| implicit_state(&a, table, r));
        let sb = tb.copied().unwrap_or_else(|| implicit_state(&b, table, r));
        let def = sa.def.merge(sb.def);
        let null = sa.null.merge(sb.null);
        let (alloc, conflict) = merge_alloc(sa.alloc, sb.alloc);
        // Report one anomaly per storage: parameter/local names carry it;
        // their arg-shadows and call temporaries would duplicate it.
        if conflict && !is_temp && !is_arg_shadow {
            let (x, y) = (sa.alloc, sb.alloc);
            diags.push(
                Diagnostic::new(
                    DiagKind::ConfluenceError,
                    format!(
                        "Storage {} is {} in one path, {} in other (inconsistent states merging branches)",
                        table.name(r),
                        y.label(),
                        x.label(),
                    ),
                    at,
                )
                .with_note(
                    format!("Storage {} becomes {}", table.name(r), y.label()),
                    sb.alloc_site.or(sb.release_site).unwrap_or(at),
                ),
            );
        }
        states.push(Some(RefState {
            def,
            null,
            alloc,
            null_site: sa.null_site.or(sb.null_site),
            alloc_site: sa.alloc_site.or(sb.alloc_site),
            release_site: sa.release_site.or(sb.release_site),
            touched: sa.touched || sb.touched,
            offset: sa.offset || sb.offset,
            // Capacities agree or are forgotten: the lattice has no
            // interval join, only equal-or-unknown.
            cap: if sa.cap == sb.cap { sa.cap } else { None },
            str_len: if sa.str_len == sb.str_len { sa.str_len } else { None },
        }));
    }
    Env {
        unreachable: false,
        states,
        // Possible aliases at a confluence point are the union (paper §5).
        aliases: a.aliases.union(b.aliases),
        loc_aliases: a.loc_aliases.union(b.loc_aliases),
    }
}

/// Merges allocation states; the boolean is true when the combination is a
/// confluence anomaly.
fn merge_alloc(a: AllocState, b: AllocState) -> (AllocState, bool) {
    use AllocState::*;
    if a == b {
        return (a, false);
    }
    match (a, b) {
        (Error, _) | (_, Error) => (Error, false),
        (Unknown, x) | (x, Unknown) => (x, false),
        // Fresh and only both carry the obligation.
        (Fresh, Only) | (Only, Fresh) => (Only, false),
        (Fresh, Owned) | (Owned, Fresh) => (Owned, false),
        (Only, Owned) | (Owned, Only) => (Owned, false),
        // Both discharged but one side unusable: stay unusable.
        (Dead, Kept) | (Kept, Dead) => (Dead, false),
        // Obligation on one path but not the other: the Figure 5/6 anomaly.
        (x, y) if x.has_obligation() != y.has_obligation() => (Error, true),
        // Remaining pairs are both obligation-free and usable; keep the
        // first (they agree on everything the checker acts on).
        (x, _) => (x, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refs::{Path, RefBase, RefStep};

    #[test]
    fn def_merge_is_weakest() {
        assert_eq!(DefState::Defined.merge(DefState::Undefined), DefState::Undefined);
        assert_eq!(DefState::Partial.merge(DefState::Defined), DefState::Partial);
        assert_eq!(DefState::Allocated.merge(DefState::Partial), DefState::Allocated);
    }

    #[test]
    fn null_merge() {
        use NullState::*;
        assert_eq!(Null.merge(NotNull), PossiblyNull);
        assert_eq!(NotNull.merge(NotNull), NotNull);
        assert_eq!(PossiblyNull.merge(NotNull), PossiblyNull);
        assert_eq!(RelNull.merge(NotNull), RelNull);
        assert_eq!(RelNull.merge(Null), PossiblyNull);
        assert_eq!(PossiblyNull.merge(RelNull), PossiblyNull);
    }

    #[test]
    fn alloc_merge_conflicts() {
        let (s, conflict) = merge_alloc(AllocState::Kept, AllocState::Only);
        assert!(conflict);
        assert_eq!(s, AllocState::Error);
        let (s, conflict) = merge_alloc(AllocState::Dead, AllocState::Only);
        assert!(conflict);
        assert_eq!(s, AllocState::Error);
        let (_, conflict) = merge_alloc(AllocState::Only, AllocState::Fresh);
        assert!(!conflict);
        let (_, conflict) = merge_alloc(AllocState::Temp, AllocState::Static);
        assert!(!conflict);
        let (s, conflict) = merge_alloc(AllocState::Dead, AllocState::Kept);
        assert!(!conflict);
        assert_eq!(s, AllocState::Dead);
    }

    #[test]
    fn env_alias_api() {
        let mut t = RefTable::new();
        let l = t.intern(Path::root(RefBase::Local("l".into())));
        let a = t.intern(Path::root(RefBase::Arg(0, "l".into())));
        let mut env = Env::new();
        env.add_alias(l, a);
        assert!(env.aliases_of(l).contains(&a));
        assert!(env.aliases_of(a).contains(&l));
        env.clear_aliases(l);
        assert!(env.aliases_of(a).is_empty());
    }

    #[test]
    fn merge_reports_confluence_error() {
        let mut t = RefTable::new();
        let e = t.intern(Path::root(RefBase::Param(1, "e".into())));
        let mut env_a = Env::new();
        let mut env_b = Env::new();
        let mut sa = RefState::defined();
        sa.alloc = AllocState::Kept;
        let mut sb = RefState::defined();
        sb.alloc = AllocState::Only;
        env_a.set(e, sa);
        env_b.set(e, sb);
        let mut diags = Vec::new();
        let merged = merge_env(env_a, env_b, Span::synthetic(), &t, &mut diags);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("kept"));
        assert!(diags[0].message.contains("only"));
        assert_eq!(merged.get(e).unwrap().alloc, AllocState::Error);
    }

    #[test]
    fn unreachable_side_is_ignored() {
        let t = RefTable::new();
        let mut dead = Env::new();
        dead.unreachable = true;
        let live = Env::new();
        let mut diags = Vec::new();
        let m = merge_env(dead, live.clone(), Span::synthetic(), &t, &mut diags);
        assert!(!m.unreachable);
        assert!(diags.is_empty());
    }

    #[test]
    fn implicit_state_from_defined_ancestor() {
        let mut t = RefTable::new();
        let l = t.intern(Path::root(RefBase::Local("l".into())));
        let ln = t.intern(t.path(l).extended(RefStep::Field("next".into())));
        let mut env = Env::new();
        env.set(l, RefState::defined());
        let s = implicit_state(&env, &t, ln);
        assert_eq!(s.def, DefState::Defined);
        // Ancestor only allocated → derived implicitly undefined.
        let mut st = RefState::defined();
        st.def = DefState::Allocated;
        env.set(l, st);
        let s = implicit_state(&env, &t, ln);
        assert_eq!(s.def, DefState::Undefined);
    }

    #[test]
    fn capacity_merges_equal_or_unknown() {
        let mut t = RefTable::new();
        let b = t.intern(Path::root(RefBase::Local("buf".into())));
        let mut sa = RefState::defined();
        sa.cap = Some(8);
        sa.str_len = Some(3);
        let mut sb = RefState::defined();
        sb.cap = Some(8);
        sb.str_len = Some(5);
        let mut env_a = Env::new();
        let mut env_b = Env::new();
        env_a.set(b, sa);
        env_b.set(b, sb);
        let mut diags = Vec::new();
        let m = merge_env(env_a, env_b, Span::synthetic(), &t, &mut diags);
        // Equal capacities survive the join; disagreeing lengths are dropped.
        assert_eq!(m.get(b).unwrap().cap, Some(8));
        assert_eq!(m.get(b).unwrap().str_len, None);
        sb.cap = Some(16);
        let mut env_a = Env::new();
        let mut env_b = Env::new();
        env_a.set(b, sa);
        env_b.set(b, sb);
        let m = merge_env(env_a, env_b, Span::synthetic(), &t, &mut diags);
        assert_eq!(m.get(b).unwrap().cap, None);
        assert!(diags.is_empty());
    }

    /// Interns `n` root locals `v0..`, whose ids are `0..n`.
    fn locals(t: &mut RefTable, n: usize) -> Vec<RefId> {
        (0..n)
            .map(|i| t.intern(Path::root(RefBase::Local(format!("v{i}").as_str().into()))))
            .collect()
    }

    #[test]
    fn merge_of_different_lengths_keeps_both_tails() {
        let mut t = RefTable::new();
        let v = locals(&mut t, 6);
        let mut short = Env::new();
        short.set(v[0], RefState::defined());
        let mut long = Env::new();
        long.set(v[0], RefState::defined());
        long.set(v[5], RefState::undefined());
        long.add_alias(v[0], v[5]);
        let mut diags = Vec::new();
        for m in [
            merge_env(short.clone(), long.clone(), Span::synthetic(), &t, &mut diags),
            merge_env(long, short, Span::synthetic(), &t, &mut diags),
        ] {
            // A local tracked on one side only keeps that side's state.
            assert_eq!(m.get(v[5]).unwrap().def, DefState::Undefined);
            assert_eq!(m.iter().map(|(r, _)| r).collect::<Vec<_>>(), vec![v[0], v[5]]);
            assert_eq!(m.aliases_of(v[5]), vec![v[0]]);
            assert!(!m.contains(v[3]));
        }
        assert!(diags.is_empty());
    }

    #[test]
    fn remove_and_clear_aliases_leave_no_half_pairs() {
        let mut t = RefTable::new();
        let v = locals(&mut t, 4);
        let mut env = Env::new();
        for &r in &v {
            env.set(r, RefState::defined());
        }
        env.add_aliases(v[0], [v[1], v[2], v[3]]);
        env.add_loc_alias(v[1], v[2]);
        env.clear_aliases(v[0]);
        for &r in &v[1..] {
            assert!(!env.aliases_of(r).contains(&v[0]), "{r:?} still aliases v0");
        }
        assert!(env.aliases_of(v[0]).is_empty());
        env.add_alias(v[3], v[1]);
        env.remove(v[1]);
        assert!(env.aliases_of(v[3]).is_empty());
        assert!(env.loc_aliases_of(v[2]).is_empty());
        assert!(env.all_aliases_of(v[1]).is_empty());
        assert!(!env.contains(v[1]));
    }

    #[test]
    fn iteration_and_alias_lists_are_ascending() {
        let mut t = RefTable::new();
        let v = locals(&mut t, 8);
        let mut env = Env::new();
        for &i in &[7, 2, 5, 0, 3] {
            env.set(v[i], RefState::defined());
        }
        let ids: Vec<RefId> = env.iter().map(|(r, _)| r).collect();
        assert_eq!(ids, vec![v[0], v[2], v[3], v[5], v[7]]);
        env.add_aliases(v[4], [v[7], v[1], v[6]]);
        env.add_alias(v[4], v[0]);
        env.add_loc_aliases(v[4], [v[6], v[2]]);
        assert_eq!(env.aliases_of(v[4]), vec![v[0], v[1], v[6], v[7]]);
        assert_eq!(env.loc_aliases_of(v[4]), vec![v[2], v[6]]);
        assert_eq!(env.all_aliases_of(v[4]), vec![v[0], v[1], v[2], v[6], v[7]]);
        assert_eq!(env.aliases_of(v[6]), vec![v[4]]);
    }

    #[test]
    fn location_alias_survives_clear_aliases() {
        let mut t = RefTable::new();
        let v = locals(&mut t, 3);
        let mut env = Env::new();
        env.add_alias(v[0], v[1]);
        env.add_loc_alias(v[0], v[2]);
        env.clear_aliases(v[0]);
        assert!(env.aliases_of(v[0]).is_empty());
        assert_eq!(env.loc_aliases_of(v[0]), vec![v[2]]);
        assert_eq!(env.loc_aliases_of(v[2]), vec![v[0]]);
    }

    #[test]
    fn merge_with_untracked_side_uses_implicit() {
        // Figure 5/6: one branch tracks l->next->next as undefined; the
        // other never touched it (l completely defined) → merge = undefined.
        let mut t = RefTable::new();
        let l = t.intern(Path::root(RefBase::Local("l".into())));
        let ln = t.intern(t.path(l).extended(RefStep::Field("next".into())));
        let lnn = t.intern(t.path(ln).extended(RefStep::Field("next".into())));
        let mut taken = Env::new();
        let mut partial = RefState::defined();
        partial.def = DefState::Partial;
        taken.set(l, partial);
        taken.set(ln, partial);
        let mut undef = RefState::defined();
        undef.def = DefState::Undefined;
        taken.set(lnn, undef);
        let mut skipped = Env::new();
        skipped.set(l, RefState::defined());
        let mut diags = Vec::new();
        let m = merge_env(taken, skipped, Span::synthetic(), &t, &mut diags);
        assert_eq!(m.get(lnn).unwrap().def, DefState::Undefined);
        assert_eq!(m.get(l).unwrap().def, DefState::Partial);
    }
}
