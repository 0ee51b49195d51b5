//! The C-subset lexer.
//!
//! Produces [`Token`]s with spans and layout flags (used by the
//! preprocessor), extracts LCLint stylized annotation comments
//! (`/*@null@*/` and friends) as [`TokenKind::Annot`] tokens, and diverts
//! *control* comments (`/*@ignore@*/`, `/*@end@*/`, `/*@i@*/`) into a side
//! list used for message suppression.

use crate::error::{Result, SyntaxError};
use crate::span::{FileId, Span};
use crate::token::{Keyword, Punct, Token, TokenKind};

/// The kind of a message-suppression control comment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlKind {
    /// `/*@ignore@*/` — suppress all messages until the matching `end`.
    Ignore,
    /// `/*@end@*/` — closes an `ignore` region.
    End,
    /// `/*@i@*/` — suppress the next message reported on this line.
    SuppressNext,
}

/// A control comment with its location.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlComment {
    /// What the comment does.
    pub kind: ControlKind,
    /// Where it appears.
    pub span: Span,
}

/// Streaming lexer over a single file's text.
pub struct Lexer<'a> {
    src: &'a [u8],
    text: &'a str,
    pos: usize,
    file: FileId,
    at_line_start: bool,
    pending_space: bool,
    /// Set after `# include` at a line start so `<...>` lexes as a header name.
    expect_header: u8,
    controls: Vec<ControlComment>,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `text` belonging to `file`.
    pub fn new(text: &'a str, file: FileId) -> Self {
        Lexer {
            src: text.as_bytes(),
            text,
            pos: 0,
            file,
            at_line_start: true,
            pending_space: false,
            expect_header: 0,
            controls: Vec::new(),
        }
    }

    /// Lexes an entire file, returning its tokens (ending with `Eof`) and the
    /// control comments encountered.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed literals, unterminated comments, and
    /// characters outside the supported subset.
    pub fn tokenize(text: &str, file: FileId) -> Result<(Vec<Token>, Vec<ControlComment>)> {
        Lexer::tokenize_from(text, file, 0)
    }

    /// [`Lexer::tokenize`] from byte `offset` on, which must be 0 or the
    /// end of a token that is neither `#` nor `include`: the lexer is then
    /// in the state a lex from the start is in at `offset`, so the tokens
    /// and control comments are those of the whole file's lex that start
    /// at or after `offset`.
    ///
    /// # Errors
    ///
    /// As [`Lexer::tokenize`], for the text from `offset` on.
    pub fn tokenize_from(
        text: &str,
        file: FileId,
        offset: usize,
    ) -> Result<(Vec<Token>, Vec<ControlComment>)> {
        let mut lx = Lexer { pos: offset, at_line_start: offset == 0, ..Lexer::new(text, file) };
        let mut out = Vec::new();
        loop {
            let t = lx.next_token()?;
            let eof = t.kind == TokenKind::Eof;
            out.push(t);
            if eof {
                break;
            }
        }
        Ok((out, lx.controls))
    }

    fn peek(&self) -> u8 {
        *self.src.get(self.pos).unwrap_or(&0)
    }

    fn peek_at(&self, off: usize) -> u8 {
        *self.src.get(self.pos + off).unwrap_or(&0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        b
    }

    fn span_from(&self, start: usize) -> Span {
        Span::new(self.file, start as u32, self.pos as u32)
    }

    fn error(&self, msg: impl Into<String>, start: usize) -> SyntaxError {
        SyntaxError::new(msg, self.span_from(start))
    }

    /// Skips whitespace and ordinary comments, recording layout facts and
    /// diverting control comments. Returns an annotation token when a memory
    /// annotation comment is found.
    fn skip_trivia(&mut self) -> Result<Option<Token>> {
        loop {
            match self.peek() {
                b'\n' => {
                    self.pos += 1;
                    self.at_line_start = true;
                    self.pending_space = true;
                    self.expect_header = 0;
                }
                b' ' | b'\t' | b'\r' | 0x0b | 0x0c => {
                    self.pos += 1;
                    self.pending_space = true;
                }
                b'\\' if self.peek_at(1) == b'\n' => {
                    // Line continuation: whitespace that does not end the line.
                    self.pos += 2;
                    self.pending_space = true;
                }
                b'\\' if self.peek_at(1) == b'\r' && self.peek_at(2) == b'\n' => {
                    self.pos += 3;
                    self.pending_space = true;
                }
                b'/' if self.peek_at(1) == b'/' => {
                    while self.peek() != b'\n' && self.peek() != 0 {
                        self.pos += 1;
                    }
                    self.pending_space = true;
                }
                b'/' if self.peek_at(1) == b'*' => {
                    if self.peek_at(2) == b'@' {
                        if let Some(tok) = self.lex_annotation()? {
                            return Ok(Some(tok));
                        }
                        // Control comment: already recorded; keep skipping.
                        self.pending_space = true;
                    } else {
                        self.skip_block_comment()?;
                        self.pending_space = true;
                    }
                }
                _ => return Ok(None),
            }
        }
    }

    fn skip_block_comment(&mut self) -> Result<()> {
        let start = self.pos;
        self.pos += 2; // "/*"
        loop {
            match self.peek() {
                0 => return Err(self.error("unterminated comment", start)),
                b'*' if self.peek_at(1) == b'/' => {
                    self.pos += 2;
                    return Ok(());
                }
                _ => self.pos += 1,
            }
        }
    }

    /// Lexes `/*@ ... @*/`. Returns `Ok(Some(token))` for memory annotations,
    /// `Ok(None)` for control comments (recorded in the side list).
    fn lex_annotation(&mut self) -> Result<Option<Token>> {
        let start = self.pos;
        self.pos += 3; // "/*@"
        let content_start = self.pos;
        loop {
            match self.peek() {
                0 => return Err(self.error("unterminated annotation comment", start)),
                b'*' if self.peek_at(1) == b'/' => break,
                _ => self.pos += 1,
            }
        }
        let mut content = &self.text[content_start..self.pos];
        self.pos += 2; // "*/"
                       // The closing form is `@*/`; strip the trailing `@` if present.
        if let Some(stripped) = content.strip_suffix('@') {
            content = stripped;
        }
        let span = self.span_from(start);
        let words: Vec<String> = content.split_whitespace().map(str::to_owned).collect();
        let control = match words.first().map(String::as_str) {
            Some("ignore") => Some(ControlKind::Ignore),
            Some("end") => Some(ControlKind::End),
            Some("i") => Some(ControlKind::SuppressNext),
            Some(w)
                if w.starts_with('i')
                    && w[1..].chars().all(|c| c.is_ascii_digit())
                    && w.len() > 1 =>
            {
                Some(ControlKind::SuppressNext)
            }
            _ => None,
        };
        if let Some(kind) = control {
            self.controls.push(ControlComment { kind, span });
            return Ok(None);
        }
        if words.is_empty() {
            // `/*@@*/` or whitespace-only: treat as an ordinary comment.
            return Ok(None);
        }
        Ok(Some(self.make_token(TokenKind::Annot(words), span)))
    }

    fn make_token(&mut self, kind: TokenKind, span: Span) -> Token {
        let tok = Token {
            kind,
            span,
            first_on_line: self.at_line_start,
            leading_space: self.pending_space,
        };
        self.at_line_start = false;
        self.pending_space = false;
        tok
    }

    /// Produces the next token.
    ///
    /// # Errors
    ///
    /// Returns an error for malformed input (bad literal, stray character).
    pub fn next_token(&mut self) -> Result<Token> {
        if let Some(tok) = self.skip_trivia()? {
            // Annotations do not participate in include-header detection.
            return Ok(tok);
        }
        let start = self.pos;
        let b = self.peek();
        if b == 0 {
            let span = self.span_from(start);
            return Ok(Token {
                kind: TokenKind::Eof,
                span,
                first_on_line: self.at_line_start,
                leading_space: self.pending_space,
            });
        }
        if b == b'<' && self.expect_header == 2 {
            return self.lex_header_name();
        }
        let tok = if b.is_ascii_alphabetic() || b == b'_' {
            self.lex_ident()
        } else if b.is_ascii_digit() || (b == b'.' && self.peek_at(1).is_ascii_digit()) {
            self.lex_number()?
        } else if b == b'"' {
            self.lex_string()?
        } else if b == b'\'' {
            self.lex_char()?
        } else {
            self.lex_punct()?
        };
        self.update_header_state(&tok);
        Ok(tok)
    }

    fn update_header_state(&mut self, tok: &Token) {
        match (&tok.kind, self.expect_header) {
            (TokenKind::Punct(Punct::Hash), _) if tok.first_on_line => self.expect_header = 1,
            (TokenKind::Ident(s), 1) if s == "include" => self.expect_header = 2,
            _ => self.expect_header = 0,
        }
    }

    fn lex_header_name(&mut self) -> Result<Token> {
        let start = self.pos;
        self.pos += 1; // '<'
        let name_start = self.pos;
        while self.peek() != b'>' {
            if self.peek() == 0 || self.peek() == b'\n' {
                return Err(self.error("unterminated header name", start));
            }
            self.pos += 1;
        }
        let name = self.text[name_start..self.pos].to_owned();
        self.pos += 1; // '>'
        self.expect_header = 0;
        let span = self.span_from(start);
        Ok(self.make_token(TokenKind::HeaderName(name), span))
    }

    fn lex_ident(&mut self) -> Token {
        let start = self.pos;
        while {
            let b = self.peek();
            b.is_ascii_alphanumeric() || b == b'_'
        } {
            self.pos += 1;
        }
        let text = &self.text[start..self.pos];
        let span = self.span_from(start);
        let kind = match Keyword::from_bytes(text.as_bytes()) {
            Some(k) => TokenKind::Kw(k),
            None => TokenKind::Ident(text.to_owned()),
        };
        self.make_token(kind, span)
    }

    fn lex_number(&mut self) -> Result<Token> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == b'0' && (self.peek_at(1) == b'x' || self.peek_at(1) == b'X') {
            self.pos += 2;
            let digits_start = self.pos;
            while self.peek().is_ascii_hexdigit() {
                self.pos += 1;
            }
            if self.pos == digits_start {
                return Err(self.error("missing hexadecimal digits", start));
            }
            let value = i64::from_str_radix(&self.text[digits_start..self.pos], 16)
                .map_err(|_| self.error("hexadecimal literal out of range", start))?;
            self.skip_int_suffix();
            let span = self.span_from(start);
            return Ok(self.make_token(TokenKind::Int(value), span));
        }
        while self.peek().is_ascii_digit() {
            self.pos += 1;
        }
        if self.peek() == b'.' && self.peek_at(1) != b'.' {
            is_float = true;
            self.pos += 1;
            while self.peek().is_ascii_digit() {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), b'e' | b'E')
            && (self.peek_at(1).is_ascii_digit()
                || (matches!(self.peek_at(1), b'+' | b'-') && self.peek_at(2).is_ascii_digit()))
        {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), b'+' | b'-') {
                self.pos += 1;
            }
            while self.peek().is_ascii_digit() {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if is_float {
            if matches!(self.peek(), b'f' | b'F' | b'l' | b'L') {
                self.pos += 1;
            }
            let value: f64 =
                text.parse().map_err(|_| self.error("malformed floating literal", start))?;
            let span = self.span_from(start);
            return Ok(self.make_token(TokenKind::Float(value), span));
        }
        let value = if text.len() > 1 && text.starts_with('0') {
            i64::from_str_radix(&text[1..], 8)
                .map_err(|_| self.error("malformed octal literal", start))?
        } else {
            text.parse().map_err(|_| self.error("integer literal out of range", start))?
        };
        self.skip_int_suffix();
        let span = self.span_from(start);
        Ok(self.make_token(TokenKind::Int(value), span))
    }

    fn skip_int_suffix(&mut self) {
        while matches!(self.peek(), b'u' | b'U' | b'l' | b'L') {
            self.pos += 1;
        }
    }

    fn lex_escape(&mut self, start: usize) -> Result<i64> {
        // Caller consumed the backslash.
        let b = self.bump();
        Ok(match b {
            b'n' => b'\n' as i64,
            b't' => b'\t' as i64,
            b'r' => b'\r' as i64,
            b'0'..=b'7' => {
                let mut v = (b - b'0') as i64;
                for _ in 0..2 {
                    if matches!(self.peek(), b'0'..=b'7') {
                        v = v * 8 + (self.bump() - b'0') as i64;
                    }
                }
                v
            }
            b'x' => {
                let mut v: i64 = 0;
                let mut any = false;
                while self.peek().is_ascii_hexdigit() {
                    let d = self.bump();
                    let dv = (d as char).to_digit(16).unwrap() as i64;
                    v = v * 16 + dv;
                    any = true;
                }
                if !any {
                    return Err(self.error("missing hex digits in escape", start));
                }
                v
            }
            b'\\' => b'\\' as i64,
            b'\'' => b'\'' as i64,
            b'"' => b'"' as i64,
            b'?' => b'?' as i64,
            b'a' => 7,
            b'b' => 8,
            b'f' => 12,
            b'v' => 11,
            _ => return Err(self.error(format!("unknown escape \\{}", b as char), start)),
        })
    }

    fn lex_string(&mut self) -> Result<Token> {
        let start = self.pos;
        self.pos += 1; // '"'
        let mut value = String::new();
        loop {
            match self.peek() {
                0 | b'\n' => return Err(self.error("unterminated string literal", start)),
                b'"' => {
                    self.pos += 1;
                    break;
                }
                b'\\' => {
                    self.pos += 1;
                    let c = self.lex_escape(start)?;
                    value.push(char::from_u32(c as u32).unwrap_or('\u{FFFD}'));
                }
                _ => value.push(self.bump() as char),
            }
        }
        let span = self.span_from(start);
        Ok(self.make_token(TokenKind::Str(value), span))
    }

    fn lex_char(&mut self) -> Result<Token> {
        let start = self.pos;
        self.pos += 1; // '\''
        let value = match self.peek() {
            0 | b'\n' => return Err(self.error("unterminated character literal", start)),
            b'\\' => {
                self.pos += 1;
                self.lex_escape(start)?
            }
            _ => self.bump() as i64,
        };
        if self.peek() != b'\'' {
            return Err(self.error("unterminated character literal", start));
        }
        self.pos += 1;
        let span = self.span_from(start);
        Ok(self.make_token(TokenKind::Char(value), span))
    }

    fn lex_punct(&mut self) -> Result<Token> {
        use Punct::*;
        let start = self.pos;
        let b = self.bump();
        let two = self.peek();
        let three = self.peek_at(1);
        let p = match b {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'?' => Question,
            b':' => Colon,
            b'~' => Tilde,
            b'.' => {
                if two == b'.' && three == b'.' {
                    self.pos += 2;
                    Ellipsis
                } else {
                    Dot
                }
            }
            b'-' => match two {
                b'>' => {
                    self.pos += 1;
                    Arrow
                }
                b'-' => {
                    self.pos += 1;
                    MinusMinus
                }
                b'=' => {
                    self.pos += 1;
                    MinusEq
                }
                _ => Minus,
            },
            b'+' => match two {
                b'+' => {
                    self.pos += 1;
                    PlusPlus
                }
                b'=' => {
                    self.pos += 1;
                    PlusEq
                }
                _ => Plus,
            },
            b'&' => match two {
                b'&' => {
                    self.pos += 1;
                    AmpAmp
                }
                b'=' => {
                    self.pos += 1;
                    AmpEq
                }
                _ => Amp,
            },
            b'|' => match two {
                b'|' => {
                    self.pos += 1;
                    PipePipe
                }
                b'=' => {
                    self.pos += 1;
                    PipeEq
                }
                _ => Pipe,
            },
            b'*' => {
                if two == b'=' {
                    self.pos += 1;
                    StarEq
                } else {
                    Star
                }
            }
            b'/' => {
                if two == b'=' {
                    self.pos += 1;
                    SlashEq
                } else {
                    Slash
                }
            }
            b'%' => {
                if two == b'=' {
                    self.pos += 1;
                    PercentEq
                } else {
                    Percent
                }
            }
            b'^' => {
                if two == b'=' {
                    self.pos += 1;
                    CaretEq
                } else {
                    Caret
                }
            }
            b'!' => {
                if two == b'=' {
                    self.pos += 1;
                    Ne
                } else {
                    Bang
                }
            }
            b'=' => {
                if two == b'=' {
                    self.pos += 1;
                    EqEq
                } else {
                    Eq
                }
            }
            b'<' => match (two, three) {
                (b'<', b'=') => {
                    self.pos += 2;
                    ShlEq
                }
                (b'<', _) => {
                    self.pos += 1;
                    Shl
                }
                (b'=', _) => {
                    self.pos += 1;
                    Le
                }
                _ => Lt,
            },
            b'>' => match (two, three) {
                (b'>', b'=') => {
                    self.pos += 2;
                    ShrEq
                }
                (b'>', _) => {
                    self.pos += 1;
                    Shr
                }
                (b'=', _) => {
                    self.pos += 1;
                    Ge
                }
                _ => Gt,
            },
            b'#' => {
                if two == b'#' {
                    self.pos += 1;
                    HashHash
                } else {
                    Hash
                }
            }
            _ => {
                return Err(self.error(format!("unexpected character `{}`", b as char), start));
            }
        };
        let span = self.span_from(start);
        Ok(self.make_token(TokenKind::Punct(p), span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(s: &str) -> Vec<TokenKind> {
        let (toks, _) = Lexer::tokenize(s, FileId(0)).unwrap();
        toks.into_iter().map(|t| t.kind).filter(|k| *k != TokenKind::Eof).collect()
    }

    #[test]
    fn idents_and_keywords() {
        assert_eq!(
            lex("int foo _bar2"),
            vec![
                TokenKind::Kw(Keyword::Int),
                TokenKind::Ident("foo".into()),
                TokenKind::Ident("_bar2".into()),
            ]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(
            lex("0 42 0x1F 017 3.5 1e3 2.5e-2 10L 7u"),
            vec![
                TokenKind::Int(0),
                TokenKind::Int(42),
                TokenKind::Int(31),
                TokenKind::Int(15),
                TokenKind::Float(3.5),
                TokenKind::Float(1000.0),
                TokenKind::Float(0.025),
                TokenKind::Int(10),
                TokenKind::Int(7),
            ]
        );
    }

    #[test]
    fn strings_and_chars() {
        assert_eq!(
            lex(r#""hi\n" 'a' '\0' '\n' '\x41'"#),
            vec![
                TokenKind::Str("hi\n".into()),
                TokenKind::Char(97),
                TokenKind::Char(0),
                TokenKind::Char(10),
                TokenKind::Char(65),
            ]
        );
    }

    #[test]
    fn operators() {
        use Punct::*;
        assert_eq!(
            lex("-> ++ -- << >> <<= >>= <= >= == != && || ... ##"),
            vec![
                TokenKind::Punct(Arrow),
                TokenKind::Punct(PlusPlus),
                TokenKind::Punct(MinusMinus),
                TokenKind::Punct(Shl),
                TokenKind::Punct(Shr),
                TokenKind::Punct(ShlEq),
                TokenKind::Punct(ShrEq),
                TokenKind::Punct(Le),
                TokenKind::Punct(Ge),
                TokenKind::Punct(EqEq),
                TokenKind::Punct(Ne),
                TokenKind::Punct(AmpAmp),
                TokenKind::Punct(PipePipe),
                TokenKind::Punct(Ellipsis),
                TokenKind::Punct(HashHash),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            lex("a /* comment */ b // line\nc"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Ident("b".into()),
                TokenKind::Ident("c".into()),
            ]
        );
    }

    #[test]
    fn annotation_comment() {
        assert_eq!(
            lex("/*@null@*/ char *p;"),
            vec![
                TokenKind::Annot(vec!["null".into()]),
                TokenKind::Kw(Keyword::Char),
                TokenKind::Punct(Punct::Star),
                TokenKind::Ident("p".into()),
                TokenKind::Punct(Punct::Semi),
            ]
        );
    }

    #[test]
    fn multi_word_annotation() {
        assert_eq!(
            lex("/*@null out only@*/"),
            vec![TokenKind::Annot(vec!["null".into(), "out".into(), "only".into()])]
        );
    }

    #[test]
    fn control_comments_diverted() {
        let (toks, controls) =
            Lexer::tokenize("x /*@i@*/ y /*@ignore@*/ z /*@end@*/", FileId(0)).unwrap();
        let kinds: Vec<_> = toks.iter().map(|t| t.kind.clone()).collect();
        assert_eq!(
            kinds,
            vec![
                TokenKind::Ident("x".into()),
                TokenKind::Ident("y".into()),
                TokenKind::Ident("z".into()),
                TokenKind::Eof,
            ]
        );
        assert_eq!(
            controls.iter().map(|c| c.kind).collect::<Vec<_>>(),
            vec![ControlKind::SuppressNext, ControlKind::Ignore, ControlKind::End]
        );
    }

    #[test]
    fn header_name_after_include() {
        let (toks, _) = Lexer::tokenize("#include <stdio.h>\nint a;", FileId(0)).unwrap();
        assert!(toks.iter().any(|t| t.kind == TokenKind::HeaderName("stdio.h".into())));
        // '<' elsewhere is an operator.
        let (toks, _) = Lexer::tokenize("a < b", FileId(0)).unwrap();
        assert!(toks.iter().any(|t| t.kind == TokenKind::Punct(Punct::Lt)));
    }

    #[test]
    fn first_on_line_flags() {
        let (toks, _) = Lexer::tokenize("a b\nc", FileId(0)).unwrap();
        assert!(toks[0].first_on_line);
        assert!(!toks[1].first_on_line);
        assert!(toks[2].first_on_line);
    }

    #[test]
    fn line_continuation_joins_lines() {
        let (toks, _) = Lexer::tokenize("#define X \\\n 42\ny", FileId(0)).unwrap();
        // The `42` must not be first-on-line; `y` must be.
        let int_tok = toks.iter().find(|t| t.kind == TokenKind::Int(42)).unwrap();
        assert!(!int_tok.first_on_line);
        let y = toks.iter().find(|t| t.kind == TokenKind::Ident("y".into())).unwrap();
        assert!(y.first_on_line);
    }

    #[test]
    fn spans_cover_source() {
        let src = "int  foo;";
        let (toks, _) = Lexer::tokenize(src, FileId(0)).unwrap();
        assert_eq!(&src[toks[0].span.start as usize..toks[0].span.end as usize], "int");
        assert_eq!(&src[toks[1].span.start as usize..toks[1].span.end as usize], "foo");
    }

    #[test]
    fn errors_are_reported() {
        assert!(Lexer::tokenize("\"abc", FileId(0)).is_err());
        assert!(Lexer::tokenize("'a", FileId(0)).is_err());
        assert!(Lexer::tokenize("/* never closed", FileId(0)).is_err());
        assert!(Lexer::tokenize("0x", FileId(0)).is_err());
        assert!(Lexer::tokenize("$", FileId(0)).is_err());
    }

    #[test]
    fn numbered_suppression_comment() {
        let (_, controls) = Lexer::tokenize("/*@i32@*/", FileId(0)).unwrap();
        assert_eq!(controls[0].kind, ControlKind::SuppressNext);
    }
}
