//! C-subset syntax for the LCLint reproduction: lexing, preprocessing,
//! parsing and the stylized-comment annotation language.
//!
//! The pipeline is:
//!
//! ```text
//! source text --Lexer--> tokens --Preprocessor--> expanded tokens
//!             --Parser--> TranslationUnit (AST with AnnotSets attached)
//! ```
//!
//! # Examples
//!
//! ```
//! use lclint_syntax::parse_translation_unit;
//!
//! let (tu, sm, _controls) = parse_translation_unit(
//!     "sample.c",
//!     "extern char *gname;\nvoid setName(/*@null@*/ char *pname) { gname = pname; }\n",
//! ).unwrap();
//! assert_eq!(tu.items.len(), 2);
//! assert_eq!(sm.name(lclint_syntax::FileId(0)), "sample.c");
//! ```

#![warn(missing_docs)]

pub mod annot;
pub mod ast;
pub mod error;
pub mod fx;
pub mod intern;
pub mod json;
pub mod lexer;
pub mod parser;
pub mod pp;
pub mod pretty;
pub mod rng;
pub mod span;
pub mod stable_hash;
pub mod stats;
pub mod token;

pub use annot::{AllocAnnot, Annot, AnnotSet, DefAnnot, ExposureAnnot, NullAnnot};
pub use ast::*;
pub use error::{Result, SyntaxError};
pub use intern::{interned_bytes, sym, symbol_count, Symbol};
pub use lexer::{ControlComment, ControlKind, Lexer};
pub use parser::Parser;
pub use pp::{
    BorrowedProvider, DiskProvider, FileProvider, MemoryProvider, PpOutput, Preprocessor,
};
pub use pretty::{
    pretty_print, pretty_print_declaration, pretty_print_field, pretty_print_function,
};
pub use span::{FileId, Loc, SourceMap, Span};
pub use stable_hash::{
    declaration_hash, function_def_hash, function_header_hash, token_stream_hash, StableHasher,
};

use std::collections::HashMap;

/// Parses a single in-memory source file (no `#include` resolution beyond
/// files registered under their literal names in `extra_files`).
///
/// Returns the AST, the source map (for diagnostics) and the control
/// comments found.
///
/// # Errors
///
/// Propagates lexing, preprocessing and parsing errors.
pub fn parse_translation_unit(
    name: &str,
    text: &str,
) -> Result<(ast::TranslationUnit, SourceMap, Vec<ControlComment>)> {
    parse_with_files(name, text, &HashMap::new())
}

/// Parses `text` as `name`, resolving includes against `extra_files`.
///
/// # Errors
///
/// Propagates lexing, preprocessing and parsing errors.
pub fn parse_with_files(
    name: &str,
    text: &str,
    extra_files: &HashMap<String, String>,
) -> Result<(ast::TranslationUnit, SourceMap, Vec<ControlComment>)> {
    let mut provider = MemoryProvider::new();
    for (n, t) in extra_files {
        provider.insert(n.clone(), t.clone());
    }
    provider.insert(name, text);
    let mut sm = SourceMap::new();
    let out = pp::preprocess(name, &provider, &mut sm)?;
    let tu = Parser::new(out.tokens).parse_translation_unit()?;
    Ok((tu, sm, out.controls))
}

/// Parses a single in-memory source file with parser error recovery: parse
/// errors inside top-level declarations are collected instead of aborting,
/// and the surviving declarations are returned alongside them.
///
/// # Errors
///
/// Lexing and preprocessing errors are still fatal (there is no token
/// stream to recover over); only parse errors are recovered.
pub fn parse_translation_unit_recovering(
    name: &str,
    text: &str,
) -> Result<(ast::TranslationUnit, SourceMap, Vec<ControlComment>, Vec<SyntaxError>)> {
    let mut provider = MemoryProvider::new();
    provider.insert(name, text);
    let mut sm = SourceMap::new();
    let out = pp::preprocess(name, &provider, &mut sm)?;
    let (tu, errors) = Parser::new(out.tokens).parse_translation_unit_recovering();
    Ok((tu, sm, out.controls, errors))
}
