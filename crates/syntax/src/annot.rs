//! Typed memory-management annotations (Appendix B of the paper).
//!
//! Annotations are written in stylized comments (`/*@null@*/`) or carried by
//! LCL interface specifications; both surface forms map to [`Annot`]. At most
//! one annotation per *category* may apply to a declaration; violations are
//! reported by [`AnnotSet::add`].

use crate::error::{Result, SyntaxError};
use crate::span::Span;
use std::fmt;

/// Null-state annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NullAnnot {
    /// `null` — may have the value `NULL`.
    Null,
    /// `notnull` — not permitted to be `NULL` (overrides a type's `null`).
    NotNull,
    /// `relnull` — relaxed checking: assumed non-null when used, but may be
    /// assigned `NULL`.
    RelNull,
}

/// Definition-state annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefAnnot {
    /// `out` — referenced storage need not be defined.
    Out,
    /// `in` — referenced storage is completely defined (the default).
    In,
    /// `partial` — referenced storage may be partially defined.
    Partial,
    /// `reldef` — relaxed definition checking.
    RelDef,
    /// `undef` — global may be undefined when the function is called.
    Undef,
}

/// Allocation-state (alias-kind) annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocAnnot {
    /// `only` — unshared storage; confers the obligation to release it.
    Only,
    /// `keep` — like `only` but the caller may still use the reference.
    Keep,
    /// `temp` — callee may not release or capture the storage.
    Temp,
    /// `owned` — owning reference that `dependent` references may share.
    Owned,
    /// `dependent` — shares an `owned` reference's storage; may not release.
    Dependent,
    /// `shared` — arbitrarily shared, never deallocated (GC environments).
    Shared,
}

/// Exposure annotations (return values / parameters of abstract types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExposureAnnot {
    /// `observer` — returned storage must not be modified or released.
    Observer,
    /// `exposed` — exposed mutable internal storage; may not be released.
    Exposed,
}

/// A single annotation word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Annot {
    /// A null-state annotation.
    Null(NullAnnot),
    /// A definition-state annotation.
    Def(DefAnnot),
    /// An allocation-state annotation.
    Alloc(AllocAnnot),
    /// An exposure annotation.
    Exposure(ExposureAnnot),
    /// `unique` — parameter may not share storage with any other parameter
    /// or accessible global.
    Unique,
    /// `returned` — the return value may alias this parameter.
    Returned,
    /// `truenull` — predicate returns true exactly when its argument is null.
    TrueNull,
    /// `falsenull` — predicate returns true only when its argument is not null.
    FalseNull,
    /// `unused` — entity may be unused without warning.
    Unused,
    /// `noreturn` — function never returns (e.g. `exit`).
    NoReturn,
    /// `refcounted` — reference-counted storage (paper §4 via the LCLint
    /// guide: "annotations provided for handling reference counted
    /// storage").
    RefCounted,
    /// `newref` — the result carries a fresh reference that must be killed.
    NewRef,
    /// `killref` — the function consumes (kills) one reference.
    KillRef,
    /// `tempref` — a reference used only for the duration of the call.
    TempRef,
}

impl Annot {
    /// Parses one annotation word; `None` if the word is not recognized.
    pub fn from_word(word: &str) -> Option<Annot> {
        use Annot::*;
        Some(match word {
            "null" => Null(NullAnnot::Null),
            "notnull" => Null(NullAnnot::NotNull),
            "relnull" => Null(NullAnnot::RelNull),
            "out" => Def(DefAnnot::Out),
            "in" => Def(DefAnnot::In),
            "partial" => Def(DefAnnot::Partial),
            "reldef" => Def(DefAnnot::RelDef),
            "undef" => Def(DefAnnot::Undef),
            "only" => Alloc(AllocAnnot::Only),
            "keep" => Alloc(AllocAnnot::Keep),
            "temp" => Alloc(AllocAnnot::Temp),
            "owned" => Alloc(AllocAnnot::Owned),
            "dependent" => Alloc(AllocAnnot::Dependent),
            "shared" => Alloc(AllocAnnot::Shared),
            "observer" => Exposure(ExposureAnnot::Observer),
            "exposed" => Exposure(ExposureAnnot::Exposed),
            "unique" => Unique,
            "returned" => Returned,
            "truenull" => TrueNull,
            "falsenull" => FalseNull,
            "unused" => Unused,
            "noreturn" => NoReturn,
            "refcounted" => RefCounted,
            "newref" => NewRef,
            "killref" => KillRef,
            "tempref" => TempRef,
            _ => return None,
        })
    }

    /// The annotation's source spelling.
    pub fn as_str(&self) -> &'static str {
        use Annot::*;
        match self {
            Null(NullAnnot::Null) => "null",
            Null(NullAnnot::NotNull) => "notnull",
            Null(NullAnnot::RelNull) => "relnull",
            Def(DefAnnot::Out) => "out",
            Def(DefAnnot::In) => "in",
            Def(DefAnnot::Partial) => "partial",
            Def(DefAnnot::RelDef) => "reldef",
            Def(DefAnnot::Undef) => "undef",
            Alloc(AllocAnnot::Only) => "only",
            Alloc(AllocAnnot::Keep) => "keep",
            Alloc(AllocAnnot::Temp) => "temp",
            Alloc(AllocAnnot::Owned) => "owned",
            Alloc(AllocAnnot::Dependent) => "dependent",
            Alloc(AllocAnnot::Shared) => "shared",
            Exposure(ExposureAnnot::Observer) => "observer",
            Exposure(ExposureAnnot::Exposed) => "exposed",
            Unique => "unique",
            Returned => "returned",
            TrueNull => "truenull",
            FalseNull => "falsenull",
            Unused => "unused",
            NoReturn => "noreturn",
            RefCounted => "refcounted",
            NewRef => "newref",
            KillRef => "killref",
            TempRef => "tempref",
        }
    }

    /// The category used for the at-most-one-per-category rule.
    fn category(&self) -> &'static str {
        use Annot::*;
        match self {
            Null(_) | TrueNull | FalseNull => "null",
            Def(_) => "definition",
            Alloc(_) | RefCounted | NewRef | KillRef | TempRef => "allocation",
            Exposure(_) => "exposure",
            Unique => "unique",
            Returned => "returned",
            Unused => "unused",
            NoReturn => "noreturn",
        }
    }
}

impl fmt::Display for Annot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The resolved set of annotations attached to one declaration position.
///
/// Enforces the paper's rule that "at most one annotation in any category can
/// be used on a given declaration".
///
/// # Examples
///
/// ```
/// use lclint_syntax::{Annot, AnnotSet, Span};
///
/// let mut set = AnnotSet::default();
/// set.add(Annot::from_word("null").unwrap(), Span::synthetic()).unwrap();
/// set.add(Annot::from_word("only").unwrap(), Span::synthetic()).unwrap();
/// // A second allocation annotation is rejected:
/// assert!(set.add(Annot::from_word("temp").unwrap(), Span::synthetic()).is_err());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnnotSet {
    annots: Vec<Annot>,
    /// Span of the first annotation (for diagnostics); synthetic if empty.
    pub span: Span,
}

impl AnnotSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        AnnotSet::default()
    }

    /// Adds an annotation.
    ///
    /// # Errors
    ///
    /// Returns an error if an annotation of the same category is already
    /// present (an incompatible combination, per the paper).
    pub fn add(&mut self, a: Annot, span: Span) -> Result<()> {
        if let Some(prev) = self.annots.iter().find(|p| p.category() == a.category() && **p != a) {
            return Err(SyntaxError::new(
                format!("incompatible annotations `{prev}` and `{a}` on the same declaration"),
                span,
            ));
        }
        if !self.annots.contains(&a) {
            if self.annots.is_empty() {
                self.span = span;
            }
            self.annots.push(a);
        }
        Ok(())
    }

    /// Adds every annotation from `other`, keeping existing ones on conflict.
    ///
    /// Used to layer declaration-level annotations over type-level defaults
    /// (declaration wins: e.g. `notnull` overriding a typedef's `null`).
    pub fn inherit(&mut self, other: &AnnotSet) {
        for a in &other.annots {
            if self.annots.iter().all(|p| p.category() != a.category()) {
                self.annots.push(*a);
            }
        }
    }

    /// Iterates over the annotations.
    pub fn iter(&self) -> impl Iterator<Item = &Annot> {
        self.annots.iter()
    }

    /// True when no annotations are present.
    pub fn is_empty(&self) -> bool {
        self.annots.is_empty()
    }

    /// Number of annotations present.
    pub fn len(&self) -> usize {
        self.annots.len()
    }

    /// The null annotation, if any.
    pub fn null(&self) -> Option<NullAnnot> {
        self.annots.iter().find_map(|a| match a {
            Annot::Null(n) => Some(*n),
            _ => None,
        })
    }

    /// The definition annotation, if any.
    pub fn def(&self) -> Option<DefAnnot> {
        self.annots.iter().find_map(|a| match a {
            Annot::Def(d) => Some(*d),
            _ => None,
        })
    }

    /// The allocation annotation, if any.
    pub fn alloc(&self) -> Option<AllocAnnot> {
        self.annots.iter().find_map(|a| match a {
            Annot::Alloc(k) => Some(*k),
            _ => None,
        })
    }

    /// The exposure annotation, if any.
    pub fn exposure(&self) -> Option<ExposureAnnot> {
        self.annots.iter().find_map(|a| match a {
            Annot::Exposure(e) => Some(*e),
            _ => None,
        })
    }

    /// True if `unique` is present.
    pub fn is_unique(&self) -> bool {
        self.annots.contains(&Annot::Unique)
    }

    /// True if `returned` is present.
    pub fn is_returned(&self) -> bool {
        self.annots.contains(&Annot::Returned)
    }

    /// True if `truenull` is present.
    pub fn is_truenull(&self) -> bool {
        self.annots.contains(&Annot::TrueNull)
    }

    /// True if `falsenull` is present.
    pub fn is_falsenull(&self) -> bool {
        self.annots.contains(&Annot::FalseNull)
    }

    /// True if `noreturn` is present.
    pub fn is_noreturn(&self) -> bool {
        self.annots.contains(&Annot::NoReturn)
    }

    /// True if `refcounted` is present.
    pub fn is_refcounted(&self) -> bool {
        self.annots.contains(&Annot::RefCounted)
    }

    /// True if `newref` is present.
    pub fn is_newref(&self) -> bool {
        self.annots.contains(&Annot::NewRef)
    }

    /// True if `killref` is present.
    pub fn is_killref(&self) -> bool {
        self.annots.contains(&Annot::KillRef)
    }

    /// True if `tempref` is present.
    pub fn is_tempref(&self) -> bool {
        self.annots.contains(&Annot::TempRef)
    }
}

impl fmt::Display for AnnotSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for a in &self.annots {
            if !first {
                f.write_str(" ")?;
            }
            write!(f, "/*@{a}@*/")?;
            first = false;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a AnnotSet {
    type Item = &'a Annot;
    type IntoIter = std::slice::Iter<'a, Annot>;

    fn into_iter(self) -> Self::IntoIter {
        self.annots.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_appendix_b_words_parse() {
        for w in [
            "null",
            "notnull",
            "relnull",
            "out",
            "in",
            "partial",
            "reldef",
            "undef",
            "only",
            "keep",
            "temp",
            "owned",
            "dependent",
            "shared",
            "unique",
            "returned",
            "observer",
            "exposed",
            "truenull",
            "falsenull",
        ] {
            let a = Annot::from_word(w).unwrap_or_else(|| panic!("{w} must parse"));
            assert_eq!(a.as_str(), w);
        }
        assert!(Annot::from_word("bogus").is_none());
    }

    #[test]
    fn category_conflicts_rejected() {
        let mut s = AnnotSet::new();
        s.add(Annot::Alloc(AllocAnnot::Only), Span::synthetic()).unwrap();
        assert!(s.add(Annot::Alloc(AllocAnnot::Temp), Span::synthetic()).is_err());
        // Same annotation twice is fine (idempotent).
        s.add(Annot::Alloc(AllocAnnot::Only), Span::synthetic()).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn cross_category_combinations_allowed() {
        // malloc: `null out only`.
        let mut s = AnnotSet::new();
        for w in ["null", "out", "only"] {
            s.add(Annot::from_word(w).unwrap(), Span::synthetic()).unwrap();
        }
        assert_eq!(s.null(), Some(NullAnnot::Null));
        assert_eq!(s.def(), Some(DefAnnot::Out));
        assert_eq!(s.alloc(), Some(AllocAnnot::Only));
    }

    #[test]
    fn inherit_prefers_existing() {
        let mut decl = AnnotSet::new();
        decl.add(Annot::Null(NullAnnot::NotNull), Span::synthetic()).unwrap();
        let mut ty = AnnotSet::new();
        ty.add(Annot::Null(NullAnnot::Null), Span::synthetic()).unwrap();
        ty.add(Annot::Alloc(AllocAnnot::Only), Span::synthetic()).unwrap();
        decl.inherit(&ty);
        // `notnull` on the declaration overrides the typedef's `null`
        // (paper: "the type's null annotation may be overridden ... using
        // the notnull annotation"), but `only` is inherited.
        assert_eq!(decl.null(), Some(NullAnnot::NotNull));
        assert_eq!(decl.alloc(), Some(AllocAnnot::Only));
    }

    #[test]
    fn display_round_trips() {
        let mut s = AnnotSet::new();
        s.add(Annot::Null(NullAnnot::Null), Span::synthetic()).unwrap();
        s.add(Annot::Alloc(AllocAnnot::Only), Span::synthetic()).unwrap();
        assert_eq!(s.to_string(), "/*@null@*/ /*@only@*/");
    }

    #[test]
    fn truenull_conflicts_with_falsenull() {
        let mut s = AnnotSet::new();
        s.add(Annot::TrueNull, Span::synthetic()).unwrap();
        assert!(s.add(Annot::FalseNull, Span::synthetic()).is_err());
    }
}
