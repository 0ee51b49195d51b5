//! Rendering diagnostics in LCLint's two-part message format.
//!
//! ```text
//! sample.c:6: Function returns with non-null global gname referencing null storage
//!    sample.c:5: Storage gname may become null
//! ```

use lclint_analysis::Diagnostic;
use lclint_syntax::json::Writer;
use lclint_syntax::span::SourceMap;
use std::fmt;

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

/// A batch of diagnostics as LCLint prints them, formatted piece by piece
/// wherever it is displayed: into one `String` by [`render_all`], or
/// escaped straight into a daemon response.
#[derive(Debug, Clone, Copy)]
pub struct RenderedText<'a>(pub &'a [RenderedDiagnostic]);

impl fmt::Display for RenderedText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.iter().try_for_each(|d| fmt::Display::fmt(d, f))
    }
}

/// Renders a batch of diagnostics as LCLint would print them.
pub fn render_all(diags: &[RenderedDiagnostic]) -> String {
    RenderedText(diags).to_string()
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
