//! Source positions, spans and the source map.
//!
//! Every token and AST node carries a [`Span`] identifying a byte range in a
//! file registered with a [`SourceMap`]. Spans survive preprocessing: tokens
//! produced by macro expansion keep the span of the macro *body* token they
//! came from (so diagnostics can point at macro definitions, as LCLint's do),
//! while substituted arguments keep their use-site spans.

use std::fmt;
use std::sync::Arc;

/// Identifies a file registered in a [`SourceMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

impl FileId {
    /// A file id used for synthesized code that belongs to no real file.
    pub const SYNTHETIC: FileId = FileId(u32::MAX);
}

/// A byte range within a single source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// File the range lies in.
    pub file: FileId,
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// Creates a new span.
    pub fn new(file: FileId, start: u32, end: u32) -> Self {
        Span { file, start, end }
    }

    /// A span for synthesized constructs with no source location.
    pub const fn synthetic() -> Self {
        Span { file: FileId::SYNTHETIC, start: 0, end: 0 }
    }

    /// Returns true if this span refers to no real source location.
    pub fn is_synthetic(&self) -> bool {
        self.file == FileId::SYNTHETIC
    }

    /// The smallest span covering both `self` and `other`.
    ///
    /// If the spans are in different files, `self` is returned (this happens
    /// only across macro-expansion boundaries, where the head position is the
    /// more useful one).
    pub fn to(self, other: Span) -> Span {
        if self.file != other.file {
            return self;
        }
        Span { file: self.file, start: self.start.min(other.start), end: self.end.max(other.end) }
    }

    /// Number of bytes covered.
    pub fn len(&self) -> u32 {
        self.end.saturating_sub(self.start)
    }

    /// True when the span covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The same range with its file id shifted by `base` (synthetic spans
    /// are unchanged): moves a span from a map that was appended with
    /// [`SourceMap::append`] into the map that received it.
    pub fn rebased(self, base: u32) -> Span {
        if self.is_synthetic() {
            return self;
        }
        Span { file: FileId(self.file.0 + base), ..self }
    }
}

impl Default for Span {
    fn default() -> Self {
        Span::synthetic()
    }
}

/// A human-readable source location: file name, 1-based line and column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Name under which the file was registered (usually its path).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// One registered source file: its name, text and line table. A
/// [`SourceMap`] shares its entries, so cloning a map copies pointers, not
/// texts.
#[derive(Debug)]
pub struct SourceFile {
    name: String,
    text: String,
    /// Byte offsets of the start of every line.
    line_starts: Vec<u32>,
}

impl SourceFile {
    fn new(name: String, text: String) -> Self {
        let mut line_starts = vec![0u32];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        SourceFile { name, text, line_starts }
    }

    /// The 0-based line holding byte `offset`.
    fn line_index(&self, offset: u32) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    fn line_col(&self, offset: u32) -> (u32, u32) {
        let line = self.line_index(offset);
        let col = offset - self.line_starts[line];
        (line as u32 + 1, col + 1)
    }
}

/// Registry of source files providing span-to-location resolution.
///
/// # Examples
///
/// ```
/// use lclint_syntax::{SourceMap, Span};
///
/// let mut sm = SourceMap::new();
/// let file = sm.add_file("sample.c", "int x;\nint y;\n");
/// let loc = sm.loc(Span::new(file, 7, 10));
/// assert_eq!(loc.line, 2);
/// assert_eq!(loc.file, "sample.c");
/// ```
#[derive(Debug, Default, Clone)]
pub struct SourceMap {
    files: Vec<Arc<SourceFile>>,
}

impl SourceMap {
    /// Creates an empty source map.
    pub fn new() -> Self {
        SourceMap::default()
    }

    /// Registers a file and returns its id.
    pub fn add_file(&mut self, name: impl Into<String>, text: impl Into<String>) -> FileId {
        let id = FileId(self.files.len() as u32);
        self.files.push(Arc::new(SourceFile::new(name.into(), text.into())));
        id
    }

    /// Puts every file of `entries` in place of this map's files from
    /// `base` on, in order, and returns the entries it replaced, as a map
    /// of their own. Ids stay as they were, and entries are replaced,
    /// never mutated, so a clone of this map taken earlier keeps its
    /// texts. Putting the returned map back undoes the call.
    ///
    /// # Panics
    ///
    /// Panics if `entries` reaches past the end of this map.
    pub fn put_entries(&mut self, base: FileId, mut entries: SourceMap) -> SourceMap {
        let at = base.0 as usize;
        self.files[at..at + entries.files.len()].swap_with_slice(&mut entries.files);
        entries
    }

    /// A map of this map's entries `ids`, in order: the same shared files,
    /// not copies.
    pub fn entries(&self, ids: std::ops::Range<u32>) -> SourceMap {
        SourceMap { files: self.files[ids.start as usize..ids.end as usize].to_vec() }
    }

    /// Moves every file of `other` to the end of this map, in order, and
    /// returns the id offset (`base`) they were given: `other`'s file `i`
    /// becomes file `base + i` here. Spans into `other` move over with
    /// [`Span::rebased`]. Lets a file set be registered off to the side (on
    /// another thread) and committed later with the ids an in-place
    /// registration at this point would have produced.
    pub fn append(&mut self, other: SourceMap) -> u32 {
        let base = self.files.len() as u32;
        self.files.extend(other.files);
        base
    }

    /// Returns the full text of a file.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this map or is synthetic.
    pub fn text(&self, id: FileId) -> &str {
        &self.files[id.0 as usize].text
    }

    /// The shared entry of a file. Entries are replaced, never mutated, so
    /// an entry held since an earlier lookup is the current one exactly
    /// when it is the same `Arc` ([`Arc::ptr_eq`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this map or is synthetic.
    pub fn entry(&self, id: FileId) -> &Arc<SourceFile> {
        &self.files[id.0 as usize]
    }

    /// Returns the registered name of a file.
    pub fn name(&self, id: FileId) -> &str {
        &self.files[id.0 as usize].name
    }

    /// Looks up a file id by registered name.
    pub fn find(&self, name: &str) -> Option<FileId> {
        self.files.iter().position(|f| f.name == name).map(|i| FileId(i as u32))
    }

    /// Resolves the start of a span to a human-readable location.
    ///
    /// Synthetic spans resolve to line 0 of a file named `<synthetic>`.
    pub fn loc(&self, span: Span) -> Loc {
        if span.is_synthetic() {
            return Loc { file: "<synthetic>".to_owned(), line: 0, col: 0 };
        }
        let f = &self.files[span.file.0 as usize];
        let (line, col) = f.line_col(span.start);
        Loc { file: f.name.clone(), line, col }
    }

    /// The 1-based line of a span's start, as in [`SourceMap::loc`] but
    /// without building a [`Loc`] (0 for synthetic spans).
    pub fn line(&self, span: Span) -> u32 {
        if span.is_synthetic() {
            return 0;
        }
        self.files[span.file.0 as usize].line_index(span.start) as u32 + 1
    }

    /// Returns the source text covered by a span (empty for synthetic spans).
    pub fn snippet(&self, span: Span) -> &str {
        if span.is_synthetic() {
            return "";
        }
        let f = &self.files[span.file.0 as usize];
        &f.text[span.start as usize..span.end as usize]
    }

    /// Number of registered files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when no files are registered.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_resolution() {
        let mut sm = SourceMap::new();
        let f = sm.add_file("a.c", "abc\ndef\n\nx");
        assert_eq!(sm.loc(Span::new(f, 0, 1)).line, 1);
        assert_eq!(sm.loc(Span::new(f, 0, 1)).col, 1);
        assert_eq!(sm.loc(Span::new(f, 4, 5)).line, 2);
        assert_eq!(sm.loc(Span::new(f, 8, 8)).line, 3);
        assert_eq!(sm.loc(Span::new(f, 9, 10)).line, 4);
    }

    #[test]
    fn span_merge() {
        let f = FileId(0);
        let a = Span::new(f, 2, 5);
        let b = Span::new(f, 7, 9);
        assert_eq!(a.to(b), Span::new(f, 2, 9));
        assert_eq!(b.to(a), Span::new(f, 2, 9));
    }

    #[test]
    fn synthetic_span_resolves() {
        let sm = SourceMap::new();
        let loc = sm.loc(Span::synthetic());
        assert_eq!(loc.file, "<synthetic>");
        assert_eq!(loc.line, 0);
    }

    #[test]
    fn snippet_extraction() {
        let mut sm = SourceMap::new();
        let f = sm.add_file("a.c", "hello world");
        assert_eq!(sm.snippet(Span::new(f, 6, 11)), "world");
    }

    #[test]
    fn find_by_name() {
        let mut sm = SourceMap::new();
        let f = sm.add_file("x.h", "");
        assert_eq!(sm.find("x.h"), Some(f));
        assert_eq!(sm.find("y.h"), None);
    }

    #[test]
    fn replay_overwrites_in_place() {
        let mut sm = SourceMap::new();
        let root = sm.add_file("r.c", "int a;");
        let hdr = sm.add_file("h.h", "int b;");
        let later = sm.add_file("z.c", "int c;");
        let mut local = SourceMap::new();
        local.add_file("r.c", "long a;");
        local.add_file("h.h", "long b;");
        let replaced = sm.put_entries(root, local);
        assert_eq!(sm.text(root), "long a;");
        assert_eq!(sm.text(hdr), "long b;");
        assert_eq!(sm.text(later), "int c;");
        assert_eq!(sm.len(), 3);
        assert_eq!(replaced.len(), 2);
        assert_eq!(replaced.text(FileId(1)), "int b;");
    }

    #[test]
    fn replay_replaces_entries_a_clone_still_shares() {
        let mut sm = SourceMap::new();
        let root = sm.add_file("r.c", "int a;\nint b;");
        let hdr = sm.add_file("h.h", "int h;");
        let before = sm.clone();
        let mut local = SourceMap::new();
        local.add_file("r.c", "long a;");
        local.add_file("h.h", "long h;");
        let replaced = sm.put_entries(root, local);
        assert_eq!(before.text(root), "int a;\nint b;");
        assert_eq!(sm.text(root), "long a;");
        sm.put_entries(root, replaced);
        assert_eq!(sm.text(root), "int a;\nint b;");
        assert_eq!(sm.text(hdr), "int h;");
    }

    #[test]
    fn line_matches_loc() {
        let mut sm = SourceMap::new();
        let f = sm.add_file("a.c", "abc\ndef\n\nx");
        for offset in 0..10 {
            let span = Span::new(f, offset, offset);
            assert_eq!(sm.line(span), sm.loc(span).line);
        }
        assert_eq!(sm.line(Span::synthetic()), 0);
    }

    #[test]
    fn append_offsets_ids_like_in_place_registration() {
        let mut direct = SourceMap::new();
        direct.add_file("a.c", "int a;");
        direct.add_file("r.c", "int r;");
        direct.add_file("h.h", "int h;");

        let mut sm = SourceMap::new();
        sm.add_file("a.c", "int a;");
        let mut local = SourceMap::new();
        let r = local.add_file("r.c", "int r;");
        local.add_file("h.h", "int h;");
        let base = sm.append(local);
        assert_eq!(base, 1);
        let span = Span::new(r, 4, 5).rebased(base);
        assert_eq!(span.file, FileId(1));
        assert_eq!(sm.snippet(span), "r");
        assert_eq!(Span::synthetic().rebased(base), Span::synthetic());
        for i in 0..direct.len() as u32 {
            assert_eq!(sm.name(FileId(i)), direct.name(FileId(i)));
            assert_eq!(sm.text(FileId(i)), direct.text(FileId(i)));
        }
        assert_eq!(sm.len(), direct.len());
    }

    #[test]
    fn cross_file_merge_keeps_self() {
        let a = Span::new(FileId(0), 1, 2);
        let b = Span::new(FileId(1), 5, 9);
        assert_eq!(a.to(b), a);
    }
}
