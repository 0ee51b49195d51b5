//! Rendering diagnostics in LCLint's two-part message format.
//!
//! ```text
//! sample.c:6: Function returns with non-null global gname referencing null storage
//!    sample.c:5: Storage gname may become null
//! ```

use lclint_analysis::Diagnostic;
use lclint_syntax::fx::FxHashMap;
use lclint_syntax::json::{escape_display, Writer};
use lclint_syntax::span::{FileId, SourceFile, SourceMap};
use std::fmt::{self, Write as _};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// A fully resolved, printable diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderedDiagnostic {
    /// File of the primary location.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Message-class flag name (e.g. `mustfree`).
    pub kind: String,
    /// CWE id the message class maps to (e.g. 401 for `mustfree`), when the
    /// class has one. Derived from the kind at render time.
    pub cwe: Option<u32>,
    /// Primary message text.
    pub message: String,
    /// Indented history lines.
    pub notes: Vec<RenderedNote>,
    /// Function the anomaly was detected in, when known.
    pub function: Option<String>,
}

/// A rendered history line.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderedNote {
    /// File.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Text.
    pub message: String,
}

impl RenderedDiagnostic {
    /// Resolves a checker diagnostic against the source map.
    pub fn resolve(d: &Diagnostic, sm: &SourceMap) -> RenderedDiagnostic {
        let loc = sm.loc(d.span);
        RenderedDiagnostic {
            file: loc.file,
            line: loc.line,
            col: loc.col,
            kind: d.kind.flag_name().to_owned(),
            cwe: d.kind.cwe(),
            message: d.message.clone(),
            notes: d
                .notes
                .iter()
                .map(|n| {
                    let nl = sm.loc(n.span);
                    RenderedNote { file: nl.file, line: nl.line, message: n.message.clone() }
                })
                .collect(),
            function: d.in_function.clone(),
        }
    }

    /// Writes the diagnostic's members into the open object `w`: `file`,
    /// `line`, `col`, `kind`, `message`, `function` and `notes`, in that
    /// order. This is the daemon's wire shape; the writer is left open so a
    /// caller can append members (`rlclint --json` appends `cwe`).
    pub fn write_json(&self, w: Writer) -> Writer {
        let w = w
            .str("file", &self.file)
            .num("line", self.line as usize)
            .num("col", self.col as usize)
            .str("kind", &self.kind)
            .str("message", &self.message);
        let w = match &self.function {
            Some(f) => w.str("function", f),
            None => w.raw("function", "null"),
        };
        w.objects("notes", &self.notes, |w, n| {
            w.str("file", &n.file).num("line", n.line as usize).str("message", &n.message)
        })
    }

    /// The diagnostic as a JSON object of its own (see
    /// [`RenderedDiagnostic::write_json`]).
    pub fn json(&self) -> Writer {
        self.write_json(Writer::obj())
    }
}

impl fmt::Display for RenderedDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.cwe {
            Some(id) => writeln!(f, "{}:{}: {} [CWE-{}]", self.file, self.line, self.message, id)?,
            None => writeln!(f, "{}:{}: {}", self.file, self.line, self.message)?,
        }
        for n in &self.notes {
            writeln!(f, "   {}:{}: {}", n.file, n.line, n.message)?;
        }
        Ok(())
    }
}

/// Renders a batch of diagnostics as LCLint would print them.
pub fn render_all(diags: &[RenderedDiagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        let _ = write!(out, "{d}");
    }
    out
}

/// One kept diagnostic in every form an output takes, each made once:
/// resolved, and on first use encoded as its JSON object (the members of
/// [`RenderedDiagnostic::write_json`]) and as its `Display` text escaped
/// for a JSON string. A warm session keeps it for the next check while it
/// would come out the same; a batch run, which never encodes, drops it.
#[derive(Debug)]
pub struct Fragment {
    diagnostic: RenderedDiagnostic,
    /// The JSON object and the escaped text.
    encoded: OnceLock<(String, String)>,
}

impl Fragment {
    fn new(d: &Diagnostic, sm: &SourceMap) -> Fragment {
        Fragment { diagnostic: RenderedDiagnostic::resolve(d, sm), encoded: OnceLock::new() }
    }

    /// The resolved diagnostic.
    pub fn diagnostic(&self) -> &RenderedDiagnostic {
        &self.diagnostic
    }

    pub(crate) fn into_diagnostic(self) -> RenderedDiagnostic {
        self.diagnostic
    }

    fn encoded(&self) -> &(String, String) {
        self.encoded.get_or_init(|| {
            let mut text = String::new();
            escape_display(&mut text, &self.diagnostic);
            (self.diagnostic.json().done(), text)
        })
    }

    /// The diagnostic as a JSON object.
    pub fn json(&self) -> &str {
        &self.encoded().0
    }

    /// The diagnostic's LCLint text, escaped for a JSON string (no quotes).
    pub fn escaped_text(&self) -> &str {
        &self.encoded().1
    }

    /// The fragment's encoded bytes: its JSON object and escaped text.
    pub fn encoded_len(&self) -> usize {
        self.json().len() + self.escaped_text().len()
    }
}

/// The fragments of one check kept for the next, in one group per source
/// of diagnostics: each definition, then the build's own, then each
/// root's syntax errors. A group is opened when one of its diagnostics is
/// first kept, and each fragment is made the first time its diagnostic is
/// kept. Both are reused while two things hold: the group's diagnostics
/// are the ones it was opened on (whoever replaces them calls
/// [`FragmentMemo::forget`] unless they are equal), and every source-map
/// entry the group's primary and note spans resolve through is the same
/// entry. The second matters because equal diagnostics can resolve
/// differently: an edit that moves line breaks but keeps byte offsets
/// changes the lines of every span into that file.
#[derive(Debug, Default)]
pub(crate) struct FragmentMemo {
    /// Open groups by index; most definitions have no diagnostic.
    groups: FxHashMap<usize, Group>,
}

/// Fragment groups taken out of a [`FragmentMemo`] by a splice, each with
/// the diagnostics it was made for, kept with the parse the splice
/// replaced: a splice that puts that parse back puts back the groups
/// (see [`FragmentMemo::unstash`]).
#[derive(Debug, Default)]
pub(crate) struct Stash {
    groups: Vec<(usize, Group, Vec<Diagnostic>)>,
}

#[derive(Debug)]
struct Group {
    /// The entries the group's spans resolved through when it was opened.
    anchors: Vec<(FileId, Arc<SourceFile>)>,
    /// One slot per diagnostic of the group, filled when it is kept.
    slots: Vec<Option<Arc<Fragment>>>,
}

impl Group {
    fn open(diags: &[Diagnostic], sm: &SourceMap) -> Group {
        let mut ids: Vec<FileId> = diags
            .iter()
            .flat_map(|d| std::iter::once(d.span).chain(d.notes.iter().map(|n| n.span)))
            .filter(|s| !s.is_synthetic())
            .map(|s| s.file)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let anchors = ids.into_iter().map(|id| (id, Arc::clone(sm.entry(id)))).collect();
        Group { anchors, slots: vec![None; diags.len()] }
    }

    fn is_current(&self, diags: &[Diagnostic], sm: &SourceMap) -> bool {
        self.slots.len() == diags.len()
            && self.anchors.iter().all(|(id, f)| Arc::ptr_eq(sm.entry(*id), f))
    }
}

impl FragmentMemo {
    /// Closes group `g`: its diagnostics changed.
    pub(crate) fn forget(&mut self, g: usize) {
        self.groups.remove(&g);
    }

    /// Closes every open group whose fragments would no longer come out
    /// the same against `sm`; `group(g)` is group `g`'s diagnostics.
    pub(crate) fn sync<'d>(&mut self, group: impl Fn(usize) -> &'d [Diagnostic], sm: &SourceMap) {
        self.groups.retain(|&g, open| open.is_current(group(g), sm));
    }

    /// The fragment of diagnostic `j` of group `g`, whose diagnostics
    /// are `diags`, and whether it was made now.
    pub(crate) fn fragment(
        &mut self,
        g: usize,
        j: usize,
        diags: &[Diagnostic],
        sm: &SourceMap,
    ) -> (Arc<Fragment>, bool) {
        let slot = &mut self.groups.entry(g).or_insert_with(|| Group::open(diags, sm)).slots[j];
        match slot {
            Some(f) => (Arc::clone(f), false),
            None => (Arc::clone(slot.insert(Arc::new(Fragment::new(&diags[j], sm)))), true),
        }
    }

    /// Takes out every open group that resolves through an entry of ids
    /// `files` that `sm` no longer holds (a splice just replaced it), with
    /// the diagnostics it was made for, `group(g)`.
    pub(crate) fn stash<'d>(
        &mut self,
        files: Range<u32>,
        group: impl Fn(usize) -> &'d [Diagnostic],
        sm: &SourceMap,
    ) -> Stash {
        let stale = |open: &Group| {
            open.anchors
                .iter()
                .any(|(id, f)| files.contains(&id.0) && !Arc::ptr_eq(sm.entry(*id), f))
        };
        let taken: Vec<usize> =
            self.groups.iter().filter(|(_, o)| stale(o)).map(|(&g, _)| g).collect();
        let groups = taken
            .into_iter()
            .filter_map(|g| Some((g, self.groups.remove(&g)?, group(g).to_vec())))
            .collect();
        Stash { groups }
    }

    /// Puts back every group of `stash` that would come out the same
    /// again: its diagnostics are `group(g)` once more, and `sm` holds the
    /// entries it resolved through (a splice put them back).
    pub(crate) fn unstash<'d>(
        &mut self,
        stash: Stash,
        group: impl Fn(usize) -> &'d [Diagnostic],
        sm: &SourceMap,
    ) {
        for (g, open, diags) in stash.groups {
            if diags == group(g) && open.is_current(&diags, sm) {
                self.groups.insert(g, open);
            }
        }
    }

    /// Encoded bytes the fragments held have made.
    pub(crate) fn bytes(&self) -> usize {
        let slots = self.groups.values().flat_map(|g| g.slots.iter().flatten());
        slots.filter_map(|f| f.encoded.get()).map(|(json, text)| json.len() + text.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclint_analysis::DiagKind;
    use lclint_syntax::span::Span;

    #[test]
    fn lclint_message_shape() {
        let mut sm = SourceMap::new();
        let f = sm.add_file("sample.c", "line one\nline two\nline three\nline 4\nline 5\nline 6\n");
        let d = Diagnostic::new(
            DiagKind::NullMismatch,
            "Function returns with non-null global gname referencing null storage",
            Span::new(f, 44, 45), // line 6
        )
        .with_note("Storage gname may become null", Span::new(f, 36, 37)); // line 5
        let r = RenderedDiagnostic::resolve(&d, &sm);
        assert_eq!(
            r.to_string(),
            "sample.c:6: Function returns with non-null global gname referencing null storage [CWE-476]\n   sample.c:5: Storage gname may become null\n"
        );
    }

    #[test]
    fn unmapped_kinds_render_without_a_cwe_tag() {
        let mut sm = SourceMap::new();
        let f = sm.add_file("a.c", "x\n");
        let d = Diagnostic::new(DiagKind::SyntaxError, "parse error", Span::new(f, 0, 1));
        let r = RenderedDiagnostic::resolve(&d, &sm);
        assert_eq!(r.cwe, None);
        assert_eq!(r.to_string(), "a.c:1: parse error\n");
    }

    #[test]
    fn serializes_to_json() {
        let mut sm = SourceMap::new();
        let f = sm.add_file("a\tb.c", "x\ny\n");
        let d = Diagnostic::new(DiagKind::MemoryLeak, "leak of \"p\"", Span::new(f, 0, 1))
            .with_note("allocated", Span::new(f, 2, 3));
        let r = RenderedDiagnostic::resolve(&d, &sm);
        assert_eq!(
            r.json().done(),
            r#"{"file":"a\tb.c","line":1,"col":1,"kind":"mustfree","message":"leak of \"p\"","function":null,"notes":[{"file":"a\tb.c","line":2,"message":"allocated"}]}"#
        );
    }
}
