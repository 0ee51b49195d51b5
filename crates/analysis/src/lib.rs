//! The paper's primary contribution: annotation-driven static detection of
//! dynamic memory errors.
//!
//! Each function is checked independently (paper §2): annotations on its
//! parameters and the globals it uses are assumed at entry, calls are
//! checked against the callee's annotations, and the constraints implied by
//! the interface must hold at every return point. Three dataflow values are
//! tracked per reference — definition state, null state, allocation state —
//! plus may-alias sets.
//!
//! # Examples
//!
//! ```
//! use lclint_analysis::{check_program, AnalysisOptions, DiagKind};
//! use lclint_sema::Program;
//! use lclint_syntax::parse_translation_unit;
//!
//! // Figure 2 of the paper: a possibly-null parameter escapes into a
//! // non-null global.
//! let src = "extern char *gname;\n\
//!            void setName(/*@null@*/ char *pname)\n\
//!            {\n  gname = pname;\n}\n";
//! let (tu, _, _) = parse_translation_unit("sample.c", src).unwrap();
//! let program = Program::from_unit(&tu);
//! let diags = check_program(&program, &AnalysisOptions::default());
//! assert!(diags.iter().any(|d| d.kind == DiagKind::NullMismatch));
//! ```

#![warn(missing_docs)]

mod checker;
mod eval;
mod fan_out;
mod guard;
mod summary;

pub mod cache;
pub mod castore;
pub mod diag;
pub mod infer;
pub mod options;
pub mod refs;
pub mod remote;
pub mod state;

pub use cache::{
    check_program_cached, check_program_cached_slots, options_digest, CacheStats, CheckCache,
    Validated, CACHE_FORMAT_VERSION,
};
pub use castore::{CasStats, CasStore};
pub use checker::{check_definitions, check_function_isolated, check_program, FunctionOutcome};
pub use diag::{DiagKind, Diagnostic, Note};
pub use fan_out::{effective_jobs, fan_out};
pub use infer::{
    infer_annotations, infer_annotations_into, InferResult, InferTarget, InferredAnnot,
};
pub use options::AnalysisOptions;
pub use refs::{Path, RefBase, RefId, RefStep, RefTable};
pub use remote::{
    ChaosPlan, ChaosTransport, LayeredStore, RemoteClient, RemoteConfig, RemoteStats, StoreConfig,
    Transport,
};
pub use state::{AllocState, DefState, Env, NullState, RefState};

pub use lclint_cfg::LoopModel;
