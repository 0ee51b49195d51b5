//! Message suppression via stylized comments (paper §2: "spurious messages
//! can be suppressed locally by placing stylized comments around the code").
//!
//! Two forms are supported, matching LCLint:
//! * `/*@i@*/` (or `/*@i<n>@*/`) — suppress the next message reported on the
//!   same source line;
//! * `/*@ignore@*/ … /*@end@*/` — suppress every message in the region.

use lclint_syntax::lexer::{ControlComment, ControlKind};
use lclint_syntax::span::{FileId, SourceMap, Span};

/// A compiled set of suppression directives.
#[derive(Debug, Clone, Default)]
pub struct SuppressionSet {
    /// Inclusive byte ranges (per file) in which messages are suppressed.
    regions: Vec<(FileId, u32, u32)>,
    /// `/*@i@*/` sites as (file, line).
    line_sites: Vec<(FileId, u32)>,
    /// Unmatched `/*@ignore@*/` openers (diagnosed by the driver).
    pub unmatched_ignores: Vec<Span>,
    /// Unmatched `/*@end@*/` closers.
    pub unmatched_ends: Vec<Span>,
}

impl SuppressionSet {
    /// Builds the set from the control comments of a preprocessing run.
    pub fn build(controls: &[ControlComment], sm: &SourceMap) -> SuppressionSet {
        let mut set = SuppressionSet::default();
        let mut open: Vec<Span> = Vec::new();
        for c in controls {
            match c.kind {
                ControlKind::Ignore => open.push(c.span),
                ControlKind::End => match open.pop() {
                    Some(start) => {
                        if start.file == c.span.file {
                            set.regions.push((start.file, start.start, c.span.end));
                        }
                    }
                    None => set.unmatched_ends.push(c.span),
                },
                ControlKind::SuppressNext => set.line_sites.push((c.span.file, sm.line(c.span))),
            }
        }
        set.unmatched_ignores = open;
        set
    }

    /// Number of suppression directives.
    pub fn len(&self) -> usize {
        self.regions.len() + self.line_sites.len()
    }

    /// True when no directives exist.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty() && self.line_sites.is_empty()
    }

    /// Filters `diagnostics` (already ordered), returning the kept ones and
    /// the number suppressed. Each `/*@i@*/` consumes at most one message.
    pub fn filter<D, F>(&self, diagnostics: Vec<D>, sm: &SourceMap, span_of: F) -> (Vec<D>, usize)
    where
        F: Fn(&D) -> Span,
    {
        let mut remaining_lines: Vec<(FileId, u32)> = self.line_sites.clone();
        let mut kept = Vec::new();
        let mut suppressed = 0usize;
        for d in diagnostics {
            let span = span_of(&d);
            if span.is_synthetic() {
                kept.push(d);
                continue;
            }
            let in_region = self
                .regions
                .iter()
                .any(|(f, s, e)| *f == span.file && span.start >= *s && span.start <= *e);
            if in_region {
                suppressed += 1;
                continue;
            }
            // Lines are resolved only while `/*@i@*/` sites remain to match.
            if !remaining_lines.is_empty() {
                let line = sm.line(span);
                if let Some(i) =
                    remaining_lines.iter().position(|&(f, l)| f == span.file && l == line)
                {
                    remaining_lines.swap_remove(i);
                    suppressed += 1;
                    continue;
                }
            }
            kept.push(d);
        }
        (kept, suppressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lclint_syntax::lexer::Lexer;

    fn set_for(src: &str) -> (SuppressionSet, SourceMap) {
        let mut sm = SourceMap::new();
        let f = sm.add_file("t.c", src);
        let (_, controls) = Lexer::tokenize(src, f).unwrap();
        (SuppressionSet::build(&controls, &sm), sm)
    }

    #[test]
    fn line_suppression_consumes_once() {
        let src = "int a;\n/*@i@*/ int b; int c;\n";
        let (set, sm) = set_for(src);
        // Two fake diagnostics on line 2.
        let spans = vec![
            Span::new(FileId(0), 16, 17), // on line 2
            Span::new(FileId(0), 23, 24), // also line 2
        ];
        let (kept, suppressed) = set.filter(spans, &sm, |s| *s);
        assert_eq!(suppressed, 1);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn region_suppression() {
        let src = "/*@ignore@*/\nint a;\nint b;\n/*@end@*/\nint c;\n";
        let (set, sm) = set_for(src);
        let inside = Span::new(FileId(0), 14, 15);
        let outside = Span::new(FileId(0), 38, 39);
        let (kept, suppressed) = set.filter(vec![inside, outside], &sm, |s| *s);
        assert_eq!(suppressed, 1);
        assert_eq!(kept, vec![outside]);
    }

    #[test]
    fn regions_and_line_sites_filter_together() {
        let src = "/*@ignore@*/\nint a;\n/*@end@*/\n/*@i@*/ int b;\nint c; /*@i@*/\nint d;\n";
        let (set, sm) = set_for(src);
        let at = |needle: &str| {
            let start = src.find(needle).unwrap() as u32;
            Span::new(FileId(0), start, start + 1)
        };
        // One message in the region, two on line 4 (one `/*@i@*/` there),
        // one on line 5 and one on line 6, which has no site.
        let spans = vec![at("a;"), at("int b"), at("b;"), at("c;"), at("d;")];
        let (kept, suppressed) = set.filter(spans, &sm, |s| *s);
        assert_eq!(suppressed, 3);
        assert_eq!(kept, vec![at("b;"), at("d;")]);
    }

    #[test]
    fn unmatched_ignore_detected() {
        let (set, _) = set_for("/*@ignore@*/ int a;");
        assert_eq!(set.unmatched_ignores.len(), 1);
        let (set, _) = set_for("int a; /*@end@*/");
        assert_eq!(set.unmatched_ends.len(), 1);
    }

    #[test]
    fn synthetic_spans_never_suppressed() {
        let (set, sm) = set_for("/*@ignore@*/ int a; /*@end@*/");
        let (kept, suppressed) = set.filter(vec![Span::synthetic()], &sm, |s| *s);
        assert_eq!(kept.len(), 1);
        assert_eq!(suppressed, 0);
    }
}
