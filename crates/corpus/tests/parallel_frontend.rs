//! The parallel front end over generated multi-file corpora: the output
//! is the same for every worker count, and since each generated file
//! declares its own typedefs, no root's speculative parse needs a re-parse.

use lclint_core::{Flags, Linter};
use lclint_corpus::generator::{generate, GenConfig};
use lclint_syntax::FileId;

fn linter(jobs: usize) -> Linter {
    let mut flags = Flags::default();
    flags.analysis.jobs = jobs;
    Linter::new(flags)
}

#[test]
fn generated_corpus_matches_across_front_end_jobs_without_reparses() {
    let files: Vec<(String, String)> = (0..8)
        .map(|k| {
            let g = generate(&GenConfig {
                modules: 3,
                module_offset: k * 3,
                entry_suffix: format!("_f{k}"),
                annotation_level: 0.5,
                seed: 40 + k as u64,
                ..GenConfig::default()
            });
            (format!("gen{k}.c"), g.source)
        })
        .collect();
    let roots: Vec<String> = files.iter().map(|(n, _)| n.clone()).collect();
    let runs: Vec<String> = [1, 2, 4]
        .iter()
        .map(|&jobs| {
            let r = linter(jobs).check_files(&files, &roots).expect("generated code parses");
            assert_eq!(r.substrate.frontend_jobs, jobs);
            assert_eq!(r.substrate.typedef_reparses, 0, "jobs {jobs}");
            let sm = &r.source_map;
            let names: Vec<&str> = (0..sm.len() as u32).map(|i| sm.name(FileId(i))).collect();
            format!("{}|{:?}|{}|{names:?}", r.render(), r.sema_errors, r.suppressed)
        })
        .collect();
    assert!(runs[0].starts_with("gen"), "half-annotated code warns: {}", runs[0]);
    assert_eq!(runs[1], runs[0], "jobs 2 vs 1");
    assert_eq!(runs[2], runs[0], "jobs 4 vs 1");
}
