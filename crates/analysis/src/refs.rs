//! References: rooted access paths the analysis tracks state for.
//!
//! A *reference* (paper §3) is "a variable or a location derived from a
//! variable (e.g., a field of a structure)". Each function body gets a fresh
//! [`RefTable`] interning paths like `l`, `l->next`, `argl->next->next`.
//!
//! Parameters get two references (paper §5): a local one (`l`) standing for
//! the mutable parameter variable, and an *external shadow* (`argl`) standing
//! for the caller-visible storage, used for the exit-point checks. At entry,
//! the local aliases the shadow.

use lclint_sema::QualType;
use lclint_syntax::fx::FxHashMap;
use lclint_syntax::Symbol;
use std::fmt;

/// Identifies an interned reference within one function analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RefId(pub u32);

/// The root of an access path. Names are interned [`Symbol`]s, so the whole
/// base is `Copy` — path construction never allocates for the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefBase {
    /// A local variable.
    Local(Symbol),
    /// The i-th parameter (its in-body variable).
    Param(usize, Symbol),
    /// The externally visible storage of the i-th parameter (`argN`).
    Arg(usize, Symbol),
    /// A global (or file-static) variable.
    Global(Symbol),
    /// A compiler temporary holding an unnamed value (e.g. a call result).
    Temp(u32),
}

/// One step extending a path. `Copy` — field names are interned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefStep {
    /// Pointer dereference `*p` (also the storage `p` points to).
    Deref,
    /// Struct/union field selection (through a pointer or directly).
    Field(Symbol),
    /// Array element; compile-time-unknown indexes collapse to a single
    /// summary element (paper §2).
    Index,
}

/// A full access path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    /// Root.
    pub base: RefBase,
    /// Steps outward from the root.
    pub steps: Vec<RefStep>,
}

impl Path {
    /// A path with no steps.
    pub fn root(base: RefBase) -> Self {
        Path { base, steps: Vec::new() }
    }

    /// This path extended by one step.
    pub fn extended(&self, step: RefStep) -> Self {
        let mut steps = self.steps.clone();
        steps.push(step);
        Path { base: self.base, steps }
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let base = match &self.base {
            RefBase::Local(n) | RefBase::Param(_, n) | RefBase::Global(n) => n.to_string(),
            RefBase::Arg(i, n) => format!("arg{} ({n})", i + 1),
            RefBase::Temp(i) => format!("<tmp{i}>"),
        };
        let mut s = base;
        for step in &self.steps {
            match step {
                RefStep::Deref => s = format!("*{s}"),
                RefStep::Field(fname) => s = format!("{s}->{fname}"),
                RefStep::Index => s = format!("{s}[]"),
            }
        }
        f.write_str(&s)
    }
}

/// Interning table mapping paths to dense [`RefId`]s, with per-ref types.
///
/// Maintains a nearest-interned-ancestor index so [`RefTable::derived_of`]
/// is proportional to the size of the answer, not the table (large
/// functions intern tens of thousands of references), and an exact-parent
/// index so [`RefTable::parent`] is one read.
#[derive(Debug, Default)]
pub struct RefTable {
    paths: Vec<Path>,
    types: Vec<Option<QualType>>,
    by_path: FxHashMap<Path, RefId>,
    /// ids whose *nearest interned ancestor* is this ref.
    children: Vec<Vec<RefId>>,
    /// ids with steps but no interned ancestor at all.
    orphans: Vec<RefId>,
    /// The ref one step up, when interned.
    parents: Vec<Option<RefId>>,
    next_temp: u32,
}

impl RefTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RefTable::default()
    }

    /// Interns a path, returning its id.
    pub fn intern(&mut self, path: Path) -> RefId {
        if let Some(id) = self.by_path.get(&path) {
            return *id;
        }
        let id = RefId(self.paths.len() as u32);
        // Find the nearest already-interned ancestor.
        let mut ancestor = Path { base: path.base, steps: path.steps.clone() };
        let mut nearest = None;
        while ancestor.steps.pop().is_some() {
            if let Some(&aid) = self.by_path.get(&ancestor) {
                nearest = Some(aid);
                break;
            }
        }
        let parent =
            nearest.filter(|&a| self.paths[a.0 as usize].steps.len() + 1 == path.steps.len());
        // Adopt the recorded descendants of that ancestor (or the orphans)
        // that this new path now sits between; those one step below it get
        // it as their parent.
        let siblings = match nearest {
            Some(aid) => &mut self.children[aid.0 as usize],
            None => &mut self.orphans,
        };
        let mut adopted = Vec::new();
        let mut i = 0;
        while i < siblings.len() {
            let kp = &self.paths[siblings[i].0 as usize];
            if kp.base == path.base
                && kp.steps.len() > path.steps.len()
                && kp.steps[..path.steps.len()] == path.steps[..]
            {
                let kid = siblings.swap_remove(i);
                if kp.steps.len() == path.steps.len() + 1 {
                    self.parents[kid.0 as usize] = Some(id);
                }
                adopted.push(kid);
            } else {
                i += 1;
            }
        }
        if nearest.is_some() || !path.steps.is_empty() {
            siblings.push(id);
        }
        self.by_path.insert(path.clone(), id);
        self.paths.push(path);
        self.types.push(None);
        self.children.push(adopted);
        self.parents.push(parent);
        id
    }

    /// Interns a path and records its type if not already known.
    pub fn intern_typed(&mut self, path: Path, ty: &QualType) -> RefId {
        let id = self.intern(path);
        let slot = &mut self.types[id.0 as usize];
        if slot.is_none() {
            *slot = Some(ty.clone());
        }
        id
    }

    /// Creates a fresh temporary reference.
    pub fn fresh_temp(&mut self, ty: Option<QualType>) -> RefId {
        let t = self.next_temp;
        self.next_temp += 1;
        let id = self.intern(Path::root(RefBase::Temp(t)));
        self.types[id.0 as usize] = ty;
        id
    }

    /// The path of a reference.
    pub fn path(&self, id: RefId) -> &Path {
        &self.paths[id.0 as usize]
    }

    /// The type of a reference, if known.
    pub fn ty(&self, id: RefId) -> Option<&QualType> {
        self.types[id.0 as usize].as_ref()
    }

    /// Looks up an existing path.
    pub fn lookup(&self, path: &Path) -> Option<RefId> {
        self.by_path.get(path).copied()
    }

    /// Display name of a reference (LCLint style, e.g. `l->next->this`).
    pub fn name(&self, id: RefId) -> String {
        self.paths[id.0 as usize].to_string()
    }

    /// All ids whose path strictly extends `base`'s path (derived storage).
    pub fn derived_of(&self, base: RefId) -> Vec<RefId> {
        let mut out = Vec::new();
        let mut frontier = vec![base];
        while let Some(cur) = frontier.pop() {
            for &c in &self.children[cur.0 as usize] {
                out.push(c);
                frontier.push(c);
            }
        }
        out
    }

    /// The parent reference (one step up), if interned.
    pub fn parent(&self, id: RefId) -> Option<RefId> {
        self.parents[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut t = RefTable::new();
        let p = Path::root(RefBase::Local("l".into()));
        let a = t.intern(p.clone());
        let b = t.intern(p);
        assert_eq!(a, b);
    }

    #[test]
    fn display_matches_lclint_style() {
        let p = Path::root(RefBase::Local("l".into()))
            .extended(RefStep::Field("next".into()))
            .extended(RefStep::Field("this".into()));
        assert_eq!(p.to_string(), "l->next->this");
        let d = Path::root(RefBase::Local("s".into())).extended(RefStep::Deref);
        assert_eq!(d.to_string(), "*s");
    }

    #[test]
    fn derived_and_parent() {
        let mut t = RefTable::new();
        let l = t.intern(Path::root(RefBase::Local("l".into())));
        let ln = t.intern(t.path(l).extended(RefStep::Field("next".into())));
        let lnn = t.intern(t.path(ln).extended(RefStep::Field("next".into())));
        let other = t.intern(Path::root(RefBase::Local("x".into())));
        let derived = t.derived_of(l);
        assert!(derived.contains(&ln) && derived.contains(&lnn));
        assert!(!derived.contains(&other));
        assert_eq!(t.parent(lnn), Some(ln));
        assert_eq!(t.parent(l), None);
    }

    #[test]
    fn parent_index_follows_ancestors_interned_later() {
        let mut t = RefTable::new();
        let l = Path::root(RefBase::Local("l".into()));
        let ln = l.extended(RefStep::Field("next".into()));
        let lnn = ln.extended(RefStep::Field("next".into()));
        let nn = t.intern(lnn);
        assert_eq!(t.parent(nn), None);
        let root = t.intern(l);
        assert_eq!(t.parent(nn), None, "l is not the exact parent of l->next->next");
        assert_eq!(t.derived_of(root), vec![nn]);
        let n = t.intern(ln);
        assert_eq!(t.parent(nn), Some(n));
        assert_eq!(t.parent(n), Some(root));
        let mut derived = t.derived_of(root);
        derived.sort();
        assert_eq!(derived, vec![nn, n]);
    }

    #[test]
    fn temps_are_unique() {
        let mut t = RefTable::new();
        let a = t.fresh_temp(None);
        let b = t.fresh_temp(None);
        assert_ne!(a, b);
    }

    #[test]
    fn arg_shadow_display() {
        let p = Path::root(RefBase::Arg(0, "l".into())).extended(RefStep::Field("next".into()));
        assert_eq!(p.to_string(), "arg1 (l)->next");
    }
}
