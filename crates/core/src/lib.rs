//! The LCLint reproduction's public interface: the checking driver with
//! LCLint-style flags, the annotated standard library, suppression comments
//! and message rendering.
//!
//! # Examples
//!
//! ```
//! use lclint_core::{Flags, Linter};
//!
//! // Figure 4 of the paper: inconsistent only/temp annotations.
//! let linter = Linter::new(Flags::default());
//! let result = linter.check_source(
//!     "sample.c",
//!     "extern /*@only@*/ char *gname;\n\
//!      void setName(/*@temp@*/ char *pname) { gname = pname; }\n",
//! ).unwrap();
//! assert_eq!(result.diagnostics.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod annotate;
pub mod driver;
pub mod flags;
mod frontend;
pub mod incremental;
pub mod library;
pub mod render;
pub mod session;
pub mod stdlib;
pub mod suppress;

pub use annotate::{apply_annotations, AppliedAnnotations, PlacedAnnotation};
pub use driver::{
    peak_rss_bytes, stdlib_cache_hits, CheckResult, InferOutcome, Linter, SubstrateStats,
};
pub use flags::{FlagError, Flags};
pub use incremental::IncrementalSession;
pub use lclint_analysis::cache::CacheStats;
pub use lclint_analysis::{
    CasStats, CasStore, LayeredStore, RemoteClient, RemoteConfig, RemoteStats, StoreConfig,
};
pub use render::{render_all, RenderedDiagnostic, RenderedNote, RenderedText};
pub use session::{Session, SessionStats};
pub use stdlib::STDLIB_SOURCE;
pub use suppress::SuppressionSet;

pub use lclint_analysis::{AnalysisOptions, DiagKind};
